import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import bilinear, lfilter

from oqamcpr import phasenoise
from oqamcpr.analysis import DEFAULT_LOOP, bode_metrics, log_frequency_grid
from oqamcpr.channel import PathMismatch
from oqamcpr.errors import ConvergenceError
from oqamcpr.phasenoise import (
    default_integration_band,
    laser_psd,
    shaped_psd,
    shaped_spectrum,
    total_variance,
)

TAU_10CM = PathMismatch(0.1).tau_s


def closed_loop_error_filter(params, dt):
    """Bilinear discretization of 1/(1+H): the test-side filter oracle."""
    wp1 = 2 * math.pi * params.f_lf_pole_hz
    wp2 = 2 * math.pi * params.f_ps_hz
    wz = 2 * math.pi * params.f_lf_zero_hz
    k = params.dc_gain
    num = np.array([1 / (wp1 * wp2), 1 / wp1 + 1 / wp2, 1.0])
    den = np.array([1 / (wp1 * wp2), 1 / wp1 + 1 / wp2 + k / wz, 1.0 + k])
    return bilinear(num, den, fs=1 / dt)


def time_domain_variance(linewidth_hz, tau_s, params, n_total=6_000_000, seed=123):
    """Monte Carlo oracle: Wiener path, delay difference, loop filtering."""
    d = 4
    dt = tau_s / d
    rng = np.random.default_rng(seed)
    inc = rng.normal(0.0, math.sqrt(2 * math.pi * linewidth_hz * dt), n_total)
    phi = np.cumsum(inc)
    theta = phi[d:] - phi[:-d]
    bz, az = closed_loop_error_filter(params, dt)
    filtered = lfilter(bz, az, theta)
    skip = int(200e-6 / dt)
    return float(np.var(filtered[skip:]))


class TestLaserPsd:
    def test_reference_value(self):
        assert laser_psd(1e6, 1e6) == pytest.approx(1e6 / (2 * math.pi * 1e12), rel=1e-12)
        assert laser_psd(1e6, 1e6) == pytest.approx(1.5915e-7, rel=1e-4)

    def test_inverse_square_law(self):
        assert laser_psd(4e6, 1e6) == pytest.approx(laser_psd(1e6, 1e6) / 16, rel=1e-12)

    def test_zero_linewidth(self):
        assert laser_psd(1e6, 0.0) == 0.0

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            laser_psd(0.0, 1e6)


class TestShapedPsd:
    def test_zero_mismatch_kills_spectrum(self):
        f = np.logspace(2, 9, 50)
        assert np.all(shaped_psd(f, 1e6, 0.0, DEFAULT_LOOP) == 0.0)

    def test_low_frequency_limit(self):
        # small-angle oracle: 1 - cos(x) -> x^2/2 makes the f->0 limit finite
        lw = 1e6
        limit = 2 * math.pi * lw * TAU_10CM**2 / abs(1 + DEFAULT_LOOP.dc_gain) ** 2
        at_1hz = shaped_psd(1.0, lw, TAU_10CM, DEFAULT_LOOP)
        at_01hz = shaped_psd(0.1, lw, TAU_10CM, DEFAULT_LOOP)
        assert at_1hz == pytest.approx(limit, rel=1e-6)
        assert at_01hz == pytest.approx(at_1hz, rel=1e-6)

    def test_high_frequency_plateau(self):
        # above the loop bandwidth with 2 pi f tau << 1 the spectrum is flat
        # at 2 pi linewidth tau^2
        lw = 1e6
        plateau = 2 * math.pi * lw * TAU_10CM**2
        assert shaped_psd(1e7, lw, TAU_10CM, DEFAULT_LOOP) == pytest.approx(plateau, rel=0.01)

    def test_loop_free_form_matches_delay_difference_model(self):
        f = np.logspace(3, 9, 200)
        expected = (
            2 * (1e6 / (2 * math.pi * f**2)) * (1 - np.cos(2 * math.pi * f * TAU_10CM))
        )
        assert np.allclose(shaped_psd(f, 1e6, TAU_10CM, None), expected, rtol=1e-12)


class TestTotalVariance:
    def test_zero_cases(self):
        assert total_variance(1e6, 0.0, DEFAULT_LOOP) == 0.0
        assert total_variance(0.0, TAU_10CM, DEFAULT_LOOP) == 0.0

    def test_free_running_matches_closed_form(self):
        got = total_variance(1e6, TAU_10CM, None)
        assert got == pytest.approx(2 * math.pi * 1e6 * TAU_10CM, rel=0.02)

    def test_linear_in_linewidth(self):
        v1 = total_variance(1e5, TAU_10CM, DEFAULT_LOOP)
        v2 = total_variance(1e6, TAU_10CM, DEFAULT_LOOP)
        assert v2 / v1 == pytest.approx(10.0, rel=1e-3)

    def test_monotone_in_tau(self):
        taus = [PathMismatch(l).tau_s for l in (0.01, 0.05, 0.1, 0.3)]
        vals = [total_variance(1e6, t, DEFAULT_LOOP) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_loop_gain(self):
        mults = (1.0, 3.0, 10.0, 100.0, 1000.0)
        vals = []
        for m in mults:
            p = replace(DEFAULT_LOOP, k_lf_v_per_v=DEFAULT_LOOP.k_lf_v_per_v * m)
            vals.append(total_variance(1e6, TAU_10CM, p))
        assert all(b <= a * 1.001 for a, b in zip(vals, vals[1:]))

    def test_agrees_with_time_domain_oracle(self):
        freq_domain = total_variance(1e6, TAU_10CM, DEFAULT_LOOP)
        time_domain = time_domain_variance(1e6, TAU_10CM, DEFAULT_LOOP)
        assert freq_domain == pytest.approx(time_domain, rel=0.10)

    def test_nonconvergence_reported_with_both_estimates(self, monkeypatch):
        monkeypatch.setattr(phasenoise, "GRID_POINTS_PER_DECADE", 2)
        with pytest.raises(ConvergenceError, match="vs"):
            total_variance(1e6, TAU_10CM, DEFAULT_LOOP)


class TestShapedSpectrum:
    def test_band_covers_loop_and_delay_scales(self):
        crossover = bode_metrics(DEFAULT_LOOP).crossover_hz
        lo, hi = default_integration_band(TAU_10CM, crossover)
        assert lo <= 1e-2 * crossover
        assert hi >= 10 / (2 * math.pi * TAU_10CM)

    def test_spectrum_carries_variance_and_provenance(self):
        spec = shaped_spectrum(1e6, TAU_10CM, DEFAULT_LOOP)
        assert spec.variance_rad2 == total_variance(1e6, TAU_10CM, DEFAULT_LOOP)
        assert np.all(spec.psd_rad2_per_hz >= 0)
        assert spec.freqs_hz[0] < spec.freqs_hz[-1]
        band = default_integration_band(TAU_10CM, bode_metrics(DEFAULT_LOOP).crossover_hz)
        grid = log_frequency_grid(*band, phasenoise.GRID_POINTS_PER_DECADE)
        assert np.array_equal(spec.freqs_hz, grid)

    def test_spectrum_carries_the_bode_metrics_of_its_band(self):
        assert shaped_spectrum(1e6, TAU_10CM, DEFAULT_LOOP).bode == bode_metrics(DEFAULT_LOOP)
        assert shaped_spectrum(0.0, 0.0, DEFAULT_LOOP).bode == bode_metrics(DEFAULT_LOOP)
        assert shaped_spectrum(1e6, TAU_10CM, None).bode is None

    def test_spectrum_builds_the_band_once(self, monkeypatch):
        calls = []

        def counting(params, **kwargs):
            calls.append(params)
            return bode_metrics(params, **kwargs)

        monkeypatch.setattr(phasenoise, "bode_metrics", counting)
        shaped_spectrum(1e6, TAU_10CM, DEFAULT_LOOP)
        assert len(calls) == 1

    def test_negative_inputs_rejected(self):
        for lw, tau in ((-1.0, TAU_10CM), (1e6, -TAU_10CM), (0.0, -TAU_10CM)):
            with pytest.raises(ValueError, match=">= 0"):
                shaped_spectrum(lw, tau, DEFAULT_LOOP)
            with pytest.raises(ValueError, match=">= 0"):
                total_variance(lw, tau, DEFAULT_LOOP)

    def test_zero_mismatch_spectrum_is_empty_of_power(self):
        spec = shaped_spectrum(1e6, 0.0, DEFAULT_LOOP)
        assert spec.variance_rad2 == 0.0
        assert np.all(spec.psd_rad2_per_hz == 0.0)

    @pytest.mark.parametrize("tau_s", [0.0, 4.9e-209, TAU_10CM, 1e-6])
    def test_zero_linewidth_has_no_beat_phase_whatever_the_delay(self, tau_s):
        # No delay check: a delay too short to integrate shapes no noise here.
        spec = shaped_spectrum(0.0, tau_s, DEFAULT_LOOP)
        assert spec.variance_rad2 == 0.0
        assert np.all(spec.psd_rad2_per_hz == 0.0)
        assert np.array_equal(spec.freqs_hz, shaped_spectrum(1e6, 0.0, DEFAULT_LOOP).freqs_hz)
        assert spec.freqs_hz[-1] == 1e10
