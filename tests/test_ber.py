import math

import numpy as np
import pytest
from scipy.special import erfc, roots_legendre

from oqamcpr import ber as ber_module
from oqamcpr.ber import (
    KP4_BER_THRESHOLD,
    NoiseEnvironment,
    axis_error_probabilities,
    ber_from_ser,
    conditional_bit_errors,
    conditional_symbol_error,
    monte_carlo_ber,
    penalty,
    required_snr_db,
    semi_analytic_ber,
    semi_analytic_ser,
    snr_sweep,
)
from oqamcpr.constellation import average_symbol_energy, build_constellation, n0_from_snr_db
from oqamcpr.errors import ConvergenceError


def find_symbol(c, i_level, q_level):
    """Index of the point at (i_level + a0, q_level + a0)."""
    target = np.array([i_level + c.a0, q_level + c.a0])
    return int(np.argmin(np.sum((c.points - target) ** 2, axis=1)))


# Closed-form conditional error expressions for the first symbol of each
# constellation, written directly from the rotated-mean geometry with
# A0 = m * A_OMA.  These are the independent oracles for the generic engine.

def closed_form_4qam_s1_i(theta, m, a_over_sqrt_n0):
    return 0.5 * erfc(
        -a_over_sqrt_n0
        * (m - (m + 0.5) * np.cos(theta) - (m - 0.5) * np.sin(theta))
    )


def closed_form_16qam_s1_i(theta, m, a_over_sqrt_n0):
    low = 0.5 * erfc(
        -a_over_sqrt_n0
        * ((m - 1 / 3) - (m - 1 / 6) * np.cos(theta) - (m - 1 / 2) * np.sin(theta))
    )
    high = 0.5 * erfc(
        a_over_sqrt_n0
        * (m - (m - 1 / 6) * np.cos(theta) - (m - 1 / 2) * np.sin(theta))
    )
    return low + high


def closed_form_16qam_s1_q(theta, m, a_over_sqrt_n0):
    return 0.5 * erfc(
        a_over_sqrt_n0
        * ((m - 1 / 3) - (m - 1 / 2) * np.cos(theta) + (m - 1 / 6) * np.sin(theta))
    )


THETAS = (-0.3, -0.25, -0.1, -0.05, 0.05, 0.1, 0.25)
M_RATIOS = (0.0, 0.1, 0.5, 1.0)
SNR_RATIOS = (1.0, 3.0, 6.0, 8.0)


class TestConditionalErrorEngine:
    def test_4qam_s1_matches_closed_form(self):
        checked = 0
        for m in M_RATIOS:
            c = build_constellation(4, 1.0, m)
            s1 = find_symbol(c, 0.5, -0.5)
            for x in SNR_RATIOS:
                env = NoiseEnvironment(n0=1.0 / x**2)
                for theta in THETAS:
                    p_i, _ = axis_error_probabilities(c, s1, theta, env)
                    expected = closed_form_4qam_s1_i(theta, m, x)
                    assert p_i == pytest.approx(expected, rel=1e-10), (m, x, theta)
                    checked += 1
        assert checked >= 100

    def test_16qam_s1_matches_closed_forms(self):
        checked = 0
        for m in M_RATIOS:
            c = build_constellation(16, 1.0, m)
            s1 = find_symbol(c, -1 / 6, -1 / 2)
            for x in SNR_RATIOS:
                env = NoiseEnvironment(n0=1.0 / x**2)
                for theta in THETAS:
                    p_i, p_q = axis_error_probabilities(c, s1, theta, env)
                    assert p_i == pytest.approx(
                        closed_form_16qam_s1_i(theta, m, x), rel=1e-10
                    ), (m, x, theta)
                    assert p_q == pytest.approx(
                        closed_form_16qam_s1_q(theta, m, x), rel=1e-10
                    ), (m, x, theta)
                    checked += 1
        assert checked >= 100

    def test_zero_phase_error_is_offset_independent(self):
        for m in (0.0, 0.1, 0.5):
            c = build_constellation(4, 1.0, m)
            s1 = find_symbol(c, 0.5, -0.5)
            env = NoiseEnvironment(n0=0.04)
            p_i, p_q = axis_error_probabilities(c, s1, 0.0, env)
            expected = 0.5 * erfc(1.0 / (2 * math.sqrt(0.04)))
            assert p_i == pytest.approx(expected, rel=1e-12)
            assert p_q == pytest.approx(expected, rel=1e-12)

    def test_union_combination(self):
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(n0=0.02)
        for s in (0, 5, 9, 15):
            p_i, p_q = axis_error_probabilities(c, s, 0.1, env)
            assert conditional_symbol_error(c, s, 0.1, env) == pytest.approx(
                p_i + p_q - p_i * p_q, rel=1e-12
            )

    def test_reflection_symmetry_across_diagonal(self):
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(n0=0.03)
        levels = c.levels
        for la in levels:
            for lb in levels:
                s = find_symbol(c, la, lb)
                s_mirror = find_symbol(c, lb, la)
                for theta in (0.07, 0.2, -0.13):
                    assert conditional_symbol_error(c, s, theta, env) == pytest.approx(
                        conditional_symbol_error(c, s_mirror, -theta, env), rel=1e-12
                    )

    def test_conditional_bit_errors_zero_noise_counts_flips(self):
        c = build_constellation(4, 1.0, 0.0)
        env = NoiseEnvironment(n0=0.0)
        # no rotation: zero flips; quarter turn moves every corner one region
        assert conditional_bit_errors(c, 0, 0.0, env) == 0.0
        assert conditional_bit_errors(c, 0, math.pi / 2, env) >= 1.0


class TestSemiAnalytic:
    def test_qpsk_closed_form_degeneracy(self):
        c = build_constellation(4, 1.0, 0.0)
        es = average_symbol_energy(c)
        for snr_db in np.arange(4.0, 14.5, 1.0):
            n0 = es / 10 ** (snr_db / 10)
            ber = semi_analytic_ber(c, NoiseEnvironment(n0))
            expected = 0.5 * erfc(math.sqrt(es / (2 * n0)))
            assert abs(ber - expected) < 1e-6, snr_db

    def test_ser_offset_invisible_without_phase_error(self):
        es = average_symbol_energy(build_constellation(4, 1.0, 0.0))
        n0 = es / 10.0
        a = semi_analytic_ser(build_constellation(4, 1.0, 0.0), NoiseEnvironment(n0))
        b = semi_analytic_ser(build_constellation(4, 1.0, 0.1), NoiseEnvironment(n0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_16qam_textbook_ser(self):
        c = build_constellation(16, 1.0, 0.0)
        es = average_symbol_energy(c)
        for snr_db in (10.0, 14.0, 18.0):
            n0 = es / 10 ** (snr_db / 10)
            p_axis = 1.5 * 0.5 * erfc(math.sqrt(es / (10 * n0)))
            expected = 1 - (1 - p_axis) ** 2
            got = semi_analytic_ser(c, NoiseEnvironment(n0))
            assert abs(got - expected) < 1e-6, snr_db

    def test_ser_monotone_in_phase_noise(self):
        c = build_constellation(16, 1.0, 0.1)
        es = average_symbol_energy(c)
        n0 = es / 10**1.6
        sers = [
            semi_analytic_ser(c, NoiseEnvironment(n0, s))
            for s in (0.0, 0.02, 0.05, 0.1)
        ]
        assert all(b > a for a, b in zip(sers, sers[1:]))

    def test_sigma_zero_equals_point_evaluation(self):
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(0.01, 0.0)
        direct = float(
            np.mean([conditional_symbol_error(c, s, 0.0, env) for s in range(16)])
        )
        assert semi_analytic_ser(c, env) == pytest.approx(direct, rel=1e-12)

    def test_quadrature_nonconvergence_names_both_estimates(self, monkeypatch):
        # Two nodes over +/- 8 sigma miss the phase pdf's peak: the doubled
        # order gives about twice the SER, so the agreement check fires.
        monkeypatch.setattr(ber_module, "QUAD_ORDER", 2)
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(n0_from_snr_db(c, 20.0), 0.1)
        with pytest.raises(ConvergenceError, match=r"converge: 0\.0001\d* vs 0\.0002\d*$"):
            semi_analytic_ser(c, env)

    def test_large_sigma_warns(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.warns(UserWarning, match="sigma_pn"):
            semi_analytic_ser(c, NoiseEnvironment(0.01, 1.5))


class TestQuadNodes:
    def test_nodes_built_once_per_order(self, monkeypatch):
        built = []

        def counting(order):
            built.append(order)
            return roots_legendre(order)

        ber_module._quad_nodes.cache_clear()
        monkeypatch.setattr(ber_module, "roots_legendre", counting)
        c = build_constellation(16, 1.0, 0.1)
        snr_sweep(c, 0.05, np.arange(14.0, 20.0, 0.5))
        required_snr_db(c, 0.05)
        order = ber_module.QUAD_ORDER
        assert sorted(built) == [order, 2 * order + 1]
        x, w = ber_module._quad_nodes(order)
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestBerFromSer:
    def test_values(self):
        assert ber_from_ser(0.01, 4) == pytest.approx(0.005)
        assert ber_from_ser(0.016, 16) == pytest.approx(0.004)
        assert ber_from_ser(0.0, 64) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError, match="ser"):
            ber_from_ser(1.5, 4)


class TestMonteCarlo:
    def test_noiseless_is_error_free(self):
        c = build_constellation(16, 1.0, 0.1)
        ber, ser, hw = monte_carlo_ber(c, NoiseEnvironment(0.0, 0.0), 20_000, seed=1)
        assert ber == 0.0 and ser == 0.0

    def test_qpsk_against_closed_form(self):
        c = build_constellation(4, 1.0, 0.0)
        es = average_symbol_energy(c)
        n0 = es / 10.0  # 10 dB
        n = 2_000_000
        ber, ser, hw = monte_carlo_ber(c, NoiseEnvironment(n0), n, seed=3)
        expected = 0.5 * erfc(math.sqrt(es / (2 * n0)))
        sigma = math.sqrt(expected * (1 - expected) / (n * 2))
        assert abs(ber - expected) < 3 * sigma

    def test_matches_semi_analytic_with_phase_noise(self):
        c = build_constellation(16, 1.0, 0.1)
        es = average_symbol_energy(c)
        sigma_pn = 0.05
        n = 1_000_000
        for snr_db in (13.0, 16.0):
            n0 = es / 10 ** (snr_db / 10)
            env = NoiseEnvironment(n0, sigma_pn)
            mc_ber, mc_ser, _ = monte_carlo_ber(c, env, n, seed=7)
            sa_ser = semi_analytic_ser(c, env)
            sa_ber = semi_analytic_ber(c, env)
            s_ser = math.sqrt(sa_ser * (1 - sa_ser) / n)
            s_ber = math.sqrt(sa_ber * (1 - sa_ber) / (n * 4))
            assert abs(mc_ser - sa_ser) < 3 * s_ser, snr_db
            assert abs(mc_ber - sa_ber) < 3 * s_ber, snr_db

    def test_deterministic_per_seed(self):
        c = build_constellation(4, 1.0, 0.1)
        env = NoiseEnvironment(0.05, 0.02)
        a = monte_carlo_ber(c, env, 50_000, seed=11)
        b = monte_carlo_ber(c, env, 50_000, seed=11)
        assert a == b

    def test_minimum_size_enforced(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="num_symbols"):
            monte_carlo_ber(c, NoiseEnvironment(0.1), 100, seed=1)


class TestSweep:
    def test_monotone_and_threshold(self):
        c = build_constellation(16, 1.0, 0.1)
        sweep = snr_sweep(c, 0.0, np.arange(10.0, 22.5, 0.5))
        assert np.all(np.diff(sweep.ber) < 0)
        assert sweep.fec_threshold_snr_db == pytest.approx(
            required_snr_db(c, 0.0), abs=0.02
        )
        assert sweep.metadata["order"] == 16

    def test_threshold_absent_when_never_crossed(self):
        c = build_constellation(16, 1.0, 0.1)
        sweep = snr_sweep(c, 0.0, np.arange(2.0, 8.0, 1.0))
        assert sweep.fec_threshold_snr_db is None

    def test_grid_validation(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="increasing"):
            snr_sweep(c, 0.0, [10.0, 9.0, 11.0])

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_batched_sweep_matches_one_point_path(self, order, sigma):
        # 45 points: a 64-QAM sweep runs in two slices of the SNR axis.
        c = build_constellation(order, 1.0, 0.1)
        grid = np.arange(8.0, 30.5, 0.5)
        one_point = [
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), sigma))
            for snr in grid
        ]
        assert np.array_equal(snr_sweep(c, sigma, grid).ser, one_point)

    @pytest.mark.filterwarnings("error")
    def test_batched_sweep_handles_noiseless_point(self):
        # Es/N0 = inf gives n0 = 0 beside noisy points in one slice; no
        # divide-by-zero warning escapes.
        c = build_constellation(16, 1.0, 0.1)
        grid = [10.0, 20.0, np.inf]
        one_point = [
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), 0.01))
            for snr in grid
        ]
        assert one_point[-1] == 0.0
        assert np.array_equal(snr_sweep(c, 0.01, grid).ser, one_point)

    def test_quadrature_nonconvergence_names_first_failing_snr(self, monkeypatch):
        monkeypatch.setattr(ber_module, "QUAD_ORDER", 2)
        c = build_constellation(16, 1.0, 0.1)
        with pytest.raises(
            ConvergenceError, match=r"converge: 0\.0001\d* vs 0\.0002\d* at Es/N0 20 dB$"
        ):
            snr_sweep(c, 0.1, [20.0, 22.0])

    def test_large_sigma_sweep_warns(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.warns(UserWarning, match="sigma_pn"):
            snr_sweep(c, 1.5, [10.0, 20.0])

    def test_penalty_of_identical_sweeps_is_zero(self):
        c = build_constellation(16, 1.0, 0.1)
        grid = np.arange(14.0, 20.0, 0.5)
        a = snr_sweep(c, 0.0, grid)
        b = snr_sweep(c, 0.0, grid)
        assert penalty(a, b) == 0.0

    def test_penalty_requires_thresholds(self):
        c = build_constellation(16, 1.0, 0.1)
        a = snr_sweep(c, 0.0, np.arange(14.0, 20.0, 0.5))
        b = snr_sweep(c, 0.0, np.arange(2.0, 6.0, 1.0))
        with pytest.raises(ValueError, match="threshold"):
            penalty(a, b)

    def test_required_snr_matches_textbook_inversion(self):
        c = build_constellation(16, 1.0, 0.0)
        # invert the textbook 16-QAM expression for the KP4 floor
        from scipy.optimize import brentq

        def f(snr_db):
            n0 = average_symbol_energy(c) / 10 ** (snr_db / 10)
            p_axis = 0.75 * erfc(math.sqrt(average_symbol_energy(c) / (10 * n0)))
            ser = 1 - (1 - p_axis) ** 2
            return ser / 4 - KP4_BER_THRESHOLD

        expected = brentq(f, 10.0, 25.0, xtol=1e-6)
        assert required_snr_db(c, 0.0) == pytest.approx(expected, abs=0.01)
