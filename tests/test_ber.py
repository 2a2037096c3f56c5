import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, roots_legendre

from oqamcpr import ber as ber_module
from oqamcpr.ber import (
    KP4_BER_THRESHOLD,
    NoiseEnvironment,
    axis_error_probabilities,
    ber_from_ser,
    conditional_symbol_error,
    monte_carlo_ber,
    required_snr_db,
    semi_analytic_ber,
    semi_analytic_ser,
    snr_sweep,
)
from oqamcpr.channel import rotate_symbol
from oqamcpr.constellation import average_symbol_energy, build_constellation, n0_from_snr_db
from oqamcpr.errors import ConvergenceError


def symbol_bit_errors_at(c, theta, n0):
    """ber._symbol_bit_errors of every symbol at theta's values, flattened: (order, theta.size).

    The kernel reads the Q axis off the I axis at the mirrored node, so it
    runs on theta followed by -theta reversed, and the first half is kept.
    """
    flat = np.asarray(theta, dtype=float).ravel()
    nodes = np.concatenate((flat, -flat[::-1]))
    ki, kq = c.level_indices.T
    means = rotate_symbol(c.levels[ki, None], c.levels[kq, None], c.a0, nodes)[0]
    return ber_module._symbol_bit_errors(c, means, n0)[:, : flat.size]


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

    def test_symbol_bit_errors_zero_noise_counts_flips(self):
        c = build_constellation(4, 1.0, 0.0)
        flips = symbol_bit_errors_at(c, np.array([0.0, math.pi / 2]), 0.0)
        # no rotation: zero flips; quarter turn moves every corner one region
        assert flips[0, 0] == 0.0
        assert flips[0, 1] >= 1.0


class TestNoiseEnvironment:
    @pytest.mark.parametrize("field", ["n0", "sigma_pn_rad"])
    @pytest.mark.parametrize(
        "value", [-0.1, math.nan, np.array([0.1, 0.2]), np.array([0.1]), np.array(0.1), "0.1", None],
        ids=["negative", "nan", "2-array", "1-array", "0-d-array", "str", "None"],
    )
    def test_rejects_non_real_scalars_and_negatives(self, field, value):
        kwargs = {"n0": 0.01, "sigma_pn_rad": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a real scalar >= 0"):
            NoiseEnvironment(**kwargs)

    @pytest.mark.parametrize("value", [0, 0.0, 0.05, np.float64(0.05), np.float32(0.05), np.int64(0)])
    def test_accepts_python_and_numpy_scalars(self, value):
        env = NoiseEnvironment(value, value)
        assert env.n0 == value and env.sigma_pn_rad == value
        assert type(env.n0) is float and type(env.sigma_pn_rad) is float

    def test_accepts_infinite_n0(self):
        c = build_constellation(4, 1.0, 0.1)
        # Infinite noise: every axis decision is a coin flip.
        assert semi_analytic_ser(c, NoiseEnvironment(math.inf)) == 0.75


class TestSemiAnalytic:
    def test_qpsk_closed_form_degeneracy(self):
        c = build_constellation(4, 1.0, 0.0)
        es = average_symbol_energy(c)
        for snr_db in np.arange(4.0, 14.5, 1.0):
            n0 = es / 10 ** (snr_db / 10)
            ber = semi_analytic_ber(c, NoiseEnvironment(n0))
            expected = 0.5 * erfc(math.sqrt(es / (2 * n0)))
            assert abs(ber - expected) < 1e-6, snr_db

    @pytest.mark.parametrize("snr_db", [20.0, 24.0, 28.0])
    def test_4qam_ber_keeps_upper_tails_at_low_ber(self, snr_db):
        # Every 4-QAM axis error flips one of the two bits; the regions above
        # the mean must not lose their tails against 1 (below about 1e-16).
        c = build_constellation(4, 1.0, 0.1)
        env = NoiseEnvironment(n0_from_snr_db(c, snr_db))
        p_i, p_q = zip(*(axis_error_probabilities(c, s, 0.0, env) for s in range(c.order)))
        expected = np.mean((np.array(p_i) + np.array(p_q)) / 2)
        assert semi_analytic_ber(c, env) == pytest.approx(expected, rel=1e-12, abs=0.0)

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
        # Two Gauss nodes over +/- 8 sigma miss the phase pdf's peak: the
        # 5-node Kronrod sum is about 0.7 of the Gauss sum, so the check fires.
        monkeypatch.setattr(ber_module, "QUAD_ORDER", 2)
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(n0_from_snr_db(c, 20.0), 0.1)
        with pytest.raises(ConvergenceError, match=r"converge: 0\.000103464 vs 7\.38595e-05$"):
            semi_analytic_ser(c, env)

    def test_large_sigma_warns(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.warns(UserWarning, match="sigma_pn"):
            semi_analytic_ser(c, NoiseEnvironment(0.01, 1.5))
        with pytest.warns(UserWarning, match="sigma_pn"):
            semi_analytic_ber(c, NoiseEnvironment(0.01, 1.2))


class TestQuadNodes:
    @pytest.mark.parametrize("order", [2, 5, ber_module.QUAD_ORDER])
    def test_kronrod_rule_embeds_gauss_and_is_exact_to_degree_3n_plus_1(self, order):
        x, w, w_gauss = ber_module._quad_nodes(order)
        assert x.size == w.size == 2 * order + 1 and w_gauss.size == order
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        x_gauss, w_legendre = roots_legendre(order)
        assert np.all(np.abs(x[1::2] - x_gauss) <= 4 * np.spacing(1.0))
        # The module builds its Gauss weights itself, both on their own and
        # from the Kronrod pass; they match scipy's.
        x_own, w_own = ber_module.roots_legendre(order)
        assert np.all(np.abs(x_own - x_gauss) <= 4 * np.spacing(1.0))
        np.testing.assert_allclose(w_own, w_legendre, rtol=1e-9, atol=0)
        np.testing.assert_allclose(w_gauss, w_legendre, rtol=1e-9, atol=0)
        # Chebyshev T_d integrates to 2 / (1 - d^2) for even d, 0 for odd d:
        # exactly to degree 3n + 1 by the Kronrod rule, 2n - 1 by the Gauss rule.
        for d in range(3 * order + 2):
            t_d = np.polynomial.chebyshev.chebval(x, [0] * d + [1])
            exact = 0.0 if d % 2 else 2.0 / (1 - d * d)
            assert abs(w @ t_d - exact) < 1e-13, d
            if d < 2 * order:
                assert abs(w_gauss @ t_d[1::2] - exact) < 1e-13, d

    def test_first_build_is_cheap(self):
        def build():
            ber_module._quad_nodes.cache_clear()
            start = time.perf_counter()
            ber_module._quad_nodes(ber_module.QUAD_ORDER)
            return time.perf_counter() - start

        assert min(build() for _ in range(3)) < 0.1

    def test_not_built_at_import_or_validation(self):
        # The rule is built on first use, so set-up never pays for it.
        code = (
            "import oqamcpr\n"
            "from oqamcpr import ber\n"
            "from oqamcpr.config import validate_config\n"
            "from oqamcpr.presets import PRESETS, preset_config\n"
            "for name in PRESETS:\n"
            "    validate_config(preset_config(name))\n"
            "print(ber._quad_nodes.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(ber_module.__file__).parents[1])},
        )
        assert out.stdout.strip() == "0"

    def test_nodes_built_once_per_order(self):
        ber_module._quad_nodes.cache_clear()
        c = build_constellation(16, 1.0, 0.1)
        snr_sweep(c, 0.05, np.arange(14.0, 20.0, 0.5))
        required_snr_db(c, 0.05)
        assert ber_module._quad_nodes.cache_info().misses == 1
        for arr in ber_module._quad_nodes(ber_module.QUAD_ORDER):  # the order built
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert ber_module._quad_nodes.cache_info().misses == 1


# The two-axis kernels written directly: every tail of both axes, the
# infinite outer bounds included, at any theta.  The module's error kernels
# must equal them bit for bit.  The bit-flip reference sums level
# probabilities, where the module sums threshold steps: an equally exact
# but different arithmetic, so those compare within BIT_REL_TOL.

BIT_REL_TOL = 1e-14


def assert_bits_close(got, want):
    np.testing.assert_allclose(got, want, rtol=BIT_REL_TOL, atol=0)


def reference_rotated_means(c, theta):
    th = np.asarray(theta, dtype=float)
    shape = [-1] + [1] * th.ndim
    px, py = c.points[:, 0].reshape(shape), c.points[:, 1].reshape(shape)
    ci, si = np.cos(th), np.sin(th)
    return px * ci + py * si, py * ci - px * si


def reference_tail(distance, n0):
    root = np.sqrt(n0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(root == 0, distance < 0, 0.5 * erfc(distance / root))


def reference_bounds(c):
    return np.concatenate(([-np.inf], c.thresholds)), np.concatenate((c.thresholds, [np.inf]))


def reference_symbol_errors(c, theta, n0):
    x, y = reference_rotated_means(c, theta)
    t_lo, t_hi = reference_bounds(c)
    shape = [-1] + [1] * np.ndim(theta)
    ki, kq = c.level_indices.T
    p_i = reference_tail(x - t_lo[ki].reshape(shape), n0) + reference_tail(
        t_hi[ki].reshape(shape) - x, n0
    )
    p_q = reference_tail(y - t_lo[kq].reshape(shape), n0) + reference_tail(
        t_hi[kq].reshape(shape) - y, n0
    )
    return p_i, p_q, p_i + p_q - p_i * p_q


def reference_hamming_table(c):
    """ham[a, b]: bits that differ between the Gray words a ^ (a >> 1) and b ^ (b >> 1)."""
    gray = [k ^ (k >> 1) for k in range(c.side)]
    return np.array([[bin(a ^ b).count("1") for b in gray] for a in gray], dtype=float)


def reference_symbol_bit_errors(c, theta, n0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    t_lo, t_hi = reference_bounds(c)
    ham = reference_hamming_table(c)
    total = np.zeros((c.order,) + theta.shape)
    for means, k_true in zip(reference_rotated_means(c, theta), c.level_indices.T):
        m = means[..., None]
        out_lo = reference_tail(np.abs(m - t_lo), n0)
        out_hi = reference_tail(np.abs(m - t_hi), n0)
        p_level = np.where(
            t_hi <= m,
            out_hi - out_lo,
            np.where(t_lo > m, out_lo - out_hi, 1.0 - out_lo - out_hi),
        )
        total += np.einsum("skl,sl->sk", p_level, ham[k_true])
    return total


def reference_phase_integral(values_fn, sigma):
    """Kronrod sum of values_fn against the Gaussian phase pdf on +/- min(8 sigma, pi)."""
    if sigma == 0:
        return float(values_fn(np.zeros(1))[0])
    half_width = min(8.0 * sigma, math.pi)
    x, w, _ = ber_module._quad_nodes(ber_module.QUAD_ORDER)
    theta = x * half_width
    pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
    return float((w * half_width * pdf * values_fn(theta)).sum())


KERNEL_SIGMAS = (0.0, 0.02, 0.1)


class TestTransposedKernels:
    @pytest.mark.parametrize("size", [ber_module.QUAD_ORDER, 2 * ber_module.QUAD_ORDER + 1])
    def test_quadrature_nodes_are_symmetric(self, size):
        # The kernels read the Q axis off the I axis at the mirrored node;
        # size picks the Kronrod nodes or the embedded Gauss nodes.
        kronrod = ber_module._quad_nodes(ber_module.QUAD_ORDER)[0]
        x = kronrod if size == kronrod.size else kronrod[1::2]
        assert x.size == size and np.array_equal(x, -x[::-1])
        for half_width in (8 * 0.02, 8 * 0.0555, 8 * 0.1, math.pi):
            theta = x * half_width
            assert np.array_equal(theta[::-1], -theta)
            assert np.array_equal(np.cos(theta[::-1]), np.cos(theta))
            assert np.array_equal(np.sin(theta[::-1]), -np.sin(theta))

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_q_means_are_the_transposed_i_means(self, order):
        # The Q mean of (a, b) at theta is the I mean of (b, a) at -theta, bit for
        # bit, in channel.rotate_symbol's own rotation.
        c = build_constellation(order, 1.0, 0.3)
        rule = ber_module._phase_rule(c, 0.0555, ber_module.QUAD_ORDER)
        ki, kq = c.level_indices.T
        q_means = rotate_symbol(c.levels[ki, None], c.levels[kq, None], c.a0, rule.theta)[1]
        assert np.array_equal(ber_module._q_from_i(c, rule.means), q_means)

    @pytest.mark.parametrize("sigma", KERNEL_SIGMAS)
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_kernels_equal_two_axis_reference(self, order, sigma):
        # The kernels at the phase rule's nodes: x * 8 sigma, or the one node 0.
        c = build_constellation(order, 1.0, 0.3)
        rule = ber_module._phase_rule(c, sigma, ber_module.QUAD_ORDER)
        x = ber_module._quad_nodes(ber_module.QUAD_ORDER)[0]
        assert np.array_equal(rule.theta, x * 8.0 * sigma if sigma else np.zeros(1))
        for noise in (0.0, n0_from_snr_db(c, 15.0)):
            for got, want in zip(
                ber_module._symbol_errors(c, rule.distances, noise),
                reference_symbol_errors(c, rule.theta, noise),
            ):
                assert np.array_equal(got, want)
            assert_bits_close(
                ber_module._symbol_bit_errors(c, rule.means, noise),
                reference_symbol_bit_errors(c, rule.theta, noise),
            )

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5])
    def test_4qam_bit_errors_are_axis_errors(self, sigma):
        # At 4-QAM each axis has one threshold worth one Gray bit, so the
        # expected flips are p_i + p_q, also where rotated means cross it.
        c = build_constellation(4, 1.0, 0.3)
        rule = ber_module._phase_rule(c, sigma, ber_module.QUAD_ORDER)
        for noise in (0.0, n0_from_snr_db(c, 6.0), n0_from_snr_db(c, 15.0), math.inf):
            p_i, p_q, _ = ber_module._symbol_errors(c, rule.distances, noise)
            assert np.array_equal(ber_module._symbol_bit_errors(c, rule.means, noise), p_i + p_q)

    @pytest.mark.parametrize("sigma", KERNEL_SIGMAS)
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_rates_equal_two_axis_reference(self, order, sigma):
        # Every rate against the reference kernels integrated directly, with
        # the weights in the order w * half_width * pdf: a wrong distance, tail
        # assembly or weight in the phase rule changes the bits.
        c = build_constellation(order, 1.0, 0.3)
        grid = np.arange(10.0, 30.0, 2.0)
        envs = [NoiseEnvironment(n0_from_snr_db(c, snr), sigma) for snr in grid]
        ser = [
            reference_phase_integral(
                lambda th: reference_symbol_errors(c, th, env.n0)[2].mean(axis=0), sigma
            )
            for env in envs
        ]
        ber = [
            reference_phase_integral(
                lambda th: reference_symbol_bit_errors(c, th, env.n0).mean(axis=0), sigma
            )
            / c.bits_per_symbol
            for env in envs
        ]
        assert np.array_equal([semi_analytic_ser(c, env) for env in envs], ser)
        assert_bits_close([semi_analytic_ber(c, env) for env in envs], ber)
        assert np.array_equal(snr_sweep(c, sigma, grid).ser, ser)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_entry_points_at_any_theta_equal_reference(self, order):
        c = build_constellation(order, 1.0, 0.3)
        for theta in (np.linspace(-0.7, 0.3, 37), 0.17, 0.0, np.array([-0.4])):
            for n0 in (0.0, n0_from_snr_db(c, 15.0)):
                env = NoiseEnvironment(n0)
                p_i, p_q, p_e = reference_symbol_errors(c, theta, n0)
                flips = reference_symbol_bit_errors(c, theta, n0)
                for s in range(c.order):
                    got_i, got_q = axis_error_probabilities(c, s, theta, env)
                    assert np.array_equal(got_i, p_i[s]) and np.array_equal(got_q, p_q[s])
                    assert np.shape(got_i) == np.shape(theta)
                    got_e = conditional_symbol_error(c, s, theta, env)
                    assert np.array_equal(got_e, p_e[s])
                    assert type(got_e) is float or np.ndim(theta) > 0
                got = symbol_bit_errors_at(c, theta, n0)
                assert_bits_close(got, flips.reshape(got.shape))


def rule_builds():
    return ber_module._phase_rule.cache_info().misses


class TestPhaseRule:
    def test_cache_holds_one_rule(self):
        assert ber_module._phase_rule.cache_info().maxsize == 1

    def test_built_once_per_sweep_and_per_bisection(self):
        ber_module._phase_rule.cache_clear()
        c16, c4 = build_constellation(16, 1.0, 0.1), build_constellation(4, 1.0, 0.1)
        snr_sweep(c16, 0.05, np.arange(10.0, 24.0, 0.5))
        assert rule_builds() == 1
        required_snr_db(c4, 0.1)
        assert rule_builds() == 2
        # Consecutive calls on the same constellation and sigma share the rule.
        required_snr_db(c4, 0.1)
        snr_sweep(c4, 0.1, [10.0, 12.0])
        assert rule_builds() == 2

    @pytest.mark.parametrize("switch", ["a0", "new_constellation", "sigma", "sigma_type", "order"])
    def test_alternating_calls_equal_fresh_calls(self, monkeypatch, switch):
        # Each state is (constellation factory, sigma, QUAD_ORDER); the two
        # states differ in one of them, and a stale rule would give the other
        # state's rates.  "new_constellation" builds a constellation for every
        # call, so a rule kept by id could match a new object at a reused address.
        # "sigma_type" is the exception: NoiseEnvironment stores sigma as a
        # Python float, so np.float32(0.5) shares the rule and the rates of 0.5.
        c_lo, c_hi = build_constellation(16, 1.0, 0.1), build_constellation(16, 1.0, 0.3)
        order = ber_module.QUAD_ORDER
        states = {
            "a0": [(lambda: c_lo, 0.05, order), (lambda: c_hi, 0.05, order)],
            "new_constellation": [
                (lambda: build_constellation(16, 1.0, 0.1), 0.05, order),
                (lambda: build_constellation(16, 1.0, 0.3), 0.05, order),
            ],
            "sigma": [(lambda: c_lo, 0.05, order), (lambda: c_lo, 0.1, order)],
            "sigma_type": [(lambda: c_lo, 0.5, order), (lambda: c_lo, np.float32(0.5), order)],
            "order": [(lambda: c_lo, 0.05, order), (lambda: c_lo, 0.05, 20)],
        }[switch]
        n0 = n0_from_snr_db(c_lo, 16.0)

        def rates(state):
            make_c, sigma, quad_order = state
            monkeypatch.setattr(ber_module, "QUAD_ORDER", quad_order)
            env = NoiseEnvironment(n0, sigma)
            return semi_analytic_ser(make_c(), env), semi_analytic_ber(make_c(), env)

        def fresh(state):
            ber_module._phase_rule.cache_clear()
            return rates(state)

        want = [fresh(state) for state in states]
        if switch == "sigma_type":
            assert want[0] == want[1]
        else:
            assert want[0][0] != want[1][0] and want[0][1] != want[1][1]
        ber_module._phase_rule.cache_clear()
        for i in range(6):
            assert rates(states[i % 2]) == want[i % 2], i
        if switch == "sigma_type":
            assert rule_builds() == 1
        elif switch == "new_constellation":
            assert rule_builds() == 12  # two calls, each with its own constellation
        else:
            assert rule_builds() == 6

    @pytest.mark.parametrize("sigma", [0.0, 0.0555, 0.3])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_sweep_equals_fresh_points(self, order, sigma):
        c = build_constellation(order, 1.0, 0.1)
        grid = np.arange(4.0, 30.5, 0.5)
        fresh = []
        for snr in grid:
            ber_module._phase_rule.cache_clear()
            fresh.append(semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), sigma)))
        assert np.array_equal(snr_sweep(c, sigma, grid).ser, fresh)

    def test_rule_is_read_only(self):
        rule = ber_module._phase_rule(build_constellation(4, 1.0, 0.1), 0.05, ber_module.QUAD_ORDER)
        for arr in (rule.theta, rule.weights, rule.means, rule.distances):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("sigma", [0.0, 0.0555, 0.3, 1.0])
    def test_weights_are_kronrod_over_gauss(self, sigma):
        # Row 0 holds the Kronrod weights, row 1 the embedded Gauss weights at
        # x[1::2] and 0 elsewhere, both times the half-width and the pdf.
        order = ber_module.QUAD_ORDER
        rule = ber_module._phase_rule(build_constellation(16, 1.0, 0.1), sigma, order)
        if sigma == 0:
            assert np.array_equal(rule.weights, np.ones((2, 1)))
            return
        x, w, w_gauss = ber_module._quad_nodes(order)
        half_width = min(8.0 * sigma, math.pi)
        theta = x * half_width
        pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
        assert rule.weights.shape == (2, x.size)
        assert np.array_equal(rule.weights[0], w * half_width * pdf)
        assert np.array_equal(rule.weights[1, 1::2], w_gauss * half_width * pdf[1::2])
        assert not rule.weights[1, ::2].any()


class TestBerFromSer:
    def test_values(self):
        assert ber_from_ser(0.01, 4) == pytest.approx(0.005)
        assert ber_from_ser(0.016, 16) == pytest.approx(0.004)
        assert ber_from_ser(0.0, 64) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError, match="ser"):
            ber_from_ser(1.5, 4)


MC_PINNED = {
    (4, 0.0, 3): (0.00592, 0.01174, 0.00047583567892995395),
    (4, 0.0, 4): (0.00585, 0.0117, 0.00047303533282341614),
    (4, 0.05, 3): (0.00626, 0.01252, 0.0004892039244087271),
    (4, 0.05, 4): (0.00663, 0.01324, 0.00050333844352715),
    (16, 0.0, 3): (0.00923, 0.0367, 0.0004192045786609002),
    (16, 0.0, 4): (0.00946, 0.03742, 0.0004243435206200076),
    (16, 0.05, 3): (0.011285, 0.0448, 0.00046302509186091156),
    (16, 0.05, 4): (0.01123, 0.04458, 0.0004619087129032885),
    (64, 0.0, 3): (0.00853, 0.05058, 0.00032913827269835904),
    (64, 0.0, 4): (0.008573333333333334, 0.05084, 0.00032996571900766584),
    (64, 0.05, 3): (0.01565, 0.09168, 0.0004441799649041424),
    (64, 0.05, 4): (0.01552, 0.09082, 0.00044236086733805943),
}


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

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_draws_and_counts_pinned(self, order, sigma):
        # (ber, ser, halfwidth) over three whole blocks and a partial one.
        c = build_constellation(order, 1.0, 0.1)
        env = NoiseEnvironment(n0_from_snr_db(c, {4: 8.0, 16: 14.0, 64: 20.0}[order]), sigma)
        for seed in (3, 4):
            assert monte_carlo_ber(c, env, 50_000, seed) == MC_PINNED[order, sigma, seed]

    def test_memory_stays_per_block(self):
        c = build_constellation(16, 1.0, 0.1)
        env = NoiseEnvironment(n0_from_snr_db(c, 14.0), 0.05)
        tracemalloc.start()
        try:
            monte_carlo_ber(c, env, 1_000_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_minimum_size_enforced(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="num_symbols"):
            monte_carlo_ber(c, NoiseEnvironment(0.1), 100, seed=1)


def reference_interp_threshold(snr_db, ber, target):
    """The log-linear KP4 crossing as snr_sweep found it before it also gave the reason."""
    for i in range(1, len(ber)):
        if ber[i - 1] > target >= ber[i] and ber[i] > 0:
            la, lb = math.log10(ber[i - 1]), math.log10(ber[i])
            frac = (math.log10(target) - la) / (lb - la)
            return float(snr_db[i - 1] + frac * (snr_db[i] - snr_db[i - 1]))
    return None


def reference_kp4_verdict(snr_db, ber):
    """The crossing, then the command line's own scan for a step onto a BER of 0."""
    threshold = reference_interp_threshold(snr_db, ber, KP4_BER_THRESHOLD)
    if threshold is not None:
        return threshold, None
    drop = np.flatnonzero((ber[:-1] > KP4_BER_THRESHOLD) & (ber[1:] == 0))
    if drop.size:
        lo, hi = snr_db[drop[0]], snr_db[drop[0] + 1]
        return None, (f"BER reaches 0 between Es/N0 {lo:g} and {hi:g} dB; "
                      "the grid needs a finer step to place the KP4 crossing")
    return None, "grid never crosses the KP4 error floor"


class TestSweep:
    def test_monotone_and_threshold(self):
        c = build_constellation(16, 1.0, 0.1)
        sweep = snr_sweep(c, 0.0, np.arange(10.0, 22.5, 0.5))
        assert np.all(np.diff(sweep.ber) < 0)
        assert sweep.fec_threshold_snr_db == pytest.approx(
            required_snr_db(c, 0.0), abs=0.02
        )
        assert sweep.fec_threshold_note is None
        assert sweep.metadata["order"] == 16

    def test_threshold_absent_when_never_crossed(self):
        c = build_constellation(16, 1.0, 0.1)
        sweep = snr_sweep(c, 0.0, np.arange(2.0, 8.0, 1.0))
        assert sweep.fec_threshold_snr_db is None
        assert sweep.fec_threshold_note == "grid never crosses the KP4 error floor"

    def test_identical_sweeps_share_their_threshold(self):
        # Two sweeps of one link place the KP4 crossing at the same Es/N0: no penalty.
        c = build_constellation(16, 1.0, 0.1)
        grid = np.arange(14.0, 20.0, 0.5)
        a, b = snr_sweep(c, 0.02, grid), snr_sweep(c, 0.02, grid)
        assert a.fec_threshold_snr_db is not None
        assert a.fec_threshold_snr_db == b.fec_threshold_snr_db
        assert np.array_equal(a.ber, b.ber)

    def test_verdict_keeps_the_crossing_and_zero_step_rule(self):
        # Random BER arrays, non-monotone ones among them, with zeros and values
        # exactly at KP4: only a BER at or below KP4 everywhere gets a new note.
        rng = np.random.default_rng(34)
        pool = np.array([0.0, KP4_BER_THRESHOLD, 0.5])
        kinds = Counter()
        for _ in range(4000):
            size = int(rng.integers(2, 8))
            snr_db = rng.uniform(-5.0, 20.0) + np.cumsum(rng.uniform(0.1, 5.0, size))
            ber = np.where(
                rng.random(size) < 0.3,
                rng.choice(pool, size),
                KP4_BER_THRESHOLD * 10.0 ** rng.uniform(-4.0, 3.0, size),
            )
            if rng.random() < 0.3:
                ber = np.sort(ber)[::-1]
            got = ber_module._kp4_verdict(snr_db, ber)
            want = reference_kp4_verdict(snr_db, ber)
            if np.all(ber <= KP4_BER_THRESHOLD):
                assert want == (None, "grid never crosses the KP4 error floor")
                assert got == (None, (
                    "BER is at or below the KP4 floor at every grid point from Es/N0 "
                    f"{snr_db[0]:g} dB; start the grid lower to place the crossing"
                ))
                kinds["all below"] += 1
            else:
                assert got == want, (snr_db, ber)
                zero_step = want[0] is None and want[1].startswith("BER reaches 0")
                kinds["crossing" if want[0] is not None else "step onto 0" if zero_step
                      else "never crosses"] += 1
        # Every verdict is drawn often.
        assert set(kinds) == {"crossing", "step onto 0", "never crosses", "all below"}
        assert min(kinds.values()) > 100

    def test_grid_validation(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="increasing"):
            snr_sweep(c, 0.0, [10.0, 9.0, 11.0])

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_batched_sweep_matches_one_point_path(self, order, sigma):
        c = build_constellation(order, 1.0, 0.1)
        grid = np.arange(8.0, 30.5, 0.5)
        one_point = [
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), sigma))
            for snr in grid
        ]
        assert np.array_equal(snr_sweep(c, sigma, grid).ser, one_point)

    @pytest.mark.filterwarnings("error")
    def test_batched_sweep_handles_noiseless_point(self):
        # Es/N0 = inf gives n0 = 0, and so does 1e308 dB, whose 10 ** (snr / 10)
        # overflows; -1e308 dB gives n0 = inf.  No numpy warning escapes.
        c = build_constellation(16, 1.0, 0.1)
        grid = np.array([-1e308, 10.0, 20.0, 1e308, np.inf])
        one_point = [
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), 0.01))
            for snr in grid
        ]
        assert one_point[0] == pytest.approx(15 / 16, rel=1e-12)
        assert one_point[-2:] == [0.0, 0.0]
        assert np.array_equal(snr_sweep(c, 0.01, grid).ser, one_point)

    def test_quadrature_nonconvergence_names_first_failing_snr(self, monkeypatch):
        monkeypatch.setattr(ber_module, "QUAD_ORDER", 2)
        c = build_constellation(16, 1.0, 0.1)
        with pytest.raises(
            ConvergenceError, match=r"converge: 0\.000103464 vs 7\.38595e-05 at Es/N0 20 dB$"
        ):
            snr_sweep(c, 0.1, [20.0, 22.0])
        # The first two points converge; the third does not.
        monkeypatch.setattr(ber_module, "QUAD_ORDER", 16)
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(
            ConvergenceError, match=r"converge: 0\.152522 vs 0\.114532 at Es/N0 20 dB$"
        ):
            snr_sweep(c, 0.5, [0.0, 10.0, 20.0])

    def test_one_semi_analytic_call_per_point(self, monkeypatch):
        sigmas = []

        def counting(c, env):
            sigmas.append(env.sigma_pn_rad)
            return semi_analytic_ser(c, env)

        monkeypatch.setattr(ber_module, "semi_analytic_ser", counting)
        grid = np.arange(10.0, 24.25, 0.25)
        snr_sweep(build_constellation(16, 1.0, 0.1), 0.1, grid)
        assert sigmas == [0.1] * grid.size

    def test_large_sigma_sweep_warns(self):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.warns(UserWarning, match="sigma_pn"):
            snr_sweep(c, 1.5, [10.0, 20.0])

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

    def test_required_snr_outside_the_bracket_raises(self):
        # 0.1242 rad is the residual phase of 16-QAM at 1 MHz over 0.5 m:
        # its BER floor lies above KP4 even at 40 dB.
        c = build_constellation(16, 1.0, 0.1)
        with pytest.raises(ValueError, match=r"not bracketed by Es/N0 \[0, 40\] dB"):
            required_snr_db(c, 0.1242)
