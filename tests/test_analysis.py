import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oqamcpr import analysis
from oqamcpr.analysis import (
    DEFAULT_LOOP,
    BodeMetrics,
    DetectorPhysics,
    LoopParams,
    bode_metrics,
    k_pd_from_physics,
    open_loop_phase_deg,
    open_loop_response,
    reference_discrepancies,
    scale_to_closed_loop_bandwidth,
    static_phase_error,
)
from oqamcpr.domain import RANGES
from oqamcpr.errors import ConvergenceError


def independent_open_loop(params, f):
    """Straightforward three-factor evaluation used as the test oracle."""
    s = 1j * 2 * math.pi * np.asarray(f, dtype=float)
    wz = 2 * math.pi * params.f_lf_zero_hz
    wp = 2 * math.pi * params.f_lf_pole_hz
    wps = 2 * math.pi * params.f_ps_hz
    h_lf = params.k_lf_v_per_v * (1 + s / wz) / (1 + s / wp)
    h_ps = params.k_ps_rad_per_v / (1 + s / wps)
    return params.k_pd_v_per_rad * params.k_driver_v_per_v * h_lf * h_ps


def oracle_crossover(params):
    f = np.logspace(0, 8, 400_001)
    mag = np.abs(independent_open_loop(params, f))
    k = int(np.nonzero(mag < 1.0)[0][0])
    lo, hi = f[k - 1], f[k]
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if abs(independent_open_loop(params, mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestDetectorPhysics:
    def test_unit_gain_product(self):
        p = DetectorPhysics(i0_a=1.0, kv_v_per_a=1.0)
        assert k_pd_from_physics(p) == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-12)

    def test_inverting_the_reference_detector_gain(self):
        # product i0*kv that yields 2.55e-2 V/rad
        product = 2.55e-2 * math.pi / (2 * math.sqrt(2))
        assert product == pytest.approx(2.832e-2, rel=1e-3)
        p = DetectorPhysics(i0_a=product, kv_v_per_a=1.0)
        assert k_pd_from_physics(p) == pytest.approx(2.55e-2, rel=1e-12)

    def test_linearity_in_photocurrent(self):
        base = k_pd_from_physics(DetectorPhysics(1e-3, 500.0))
        assert k_pd_from_physics(DetectorPhysics(2e-3, 500.0)) == pytest.approx(2 * base)

    def test_from_fields_photocurrent_identity(self):
        p = DetectorPhysics.from_fields(
            e_iq_avg_mag=0.05, e_lo_mag=2.0, r_pd=0.9, kv_v_per_a=300.0
        )
        assert p.i0_a == pytest.approx(4 * 0.05 * 2.0 * 0.9, rel=1e-12)

    @pytest.mark.parametrize("build, message", [
        (lambda: DetectorPhysics(0.0, 1.0), "detector physics fields must be > 0"),
        (lambda: DetectorPhysics(1.0, -1.0), "detector physics fields must be > 0"),
        (lambda: DetectorPhysics.from_fields(0.0, 1.0, 1.0, 1.0),
         "field magnitudes and responsivity must be > 0"),
        (lambda: DetectorPhysics.from_fields(1.0, 1.0, -1.0, 1.0),
         "field magnitudes and responsivity must be > 0"),
        (lambda: DetectorPhysics.from_fields(1.0, 1.0, 1.0, 0.0),
         "detector physics fields must be > 0"),
    ], ids=["i0", "kv", "from-fields-e_iq", "from-fields-r_pd", "from-fields-kv"])
    def test_non_positive_field_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestOpenLoop:
    def test_dc_gain_reference_values(self):
        h0 = open_loop_response(DEFAULT_LOOP, 0.0)
        assert h0.real == pytest.approx(2.55e-2 * 1.2e3 * 2 * 15.7, rel=1e-12)
        assert h0.imag == 0.0

    def test_magnitude_rolls_off(self):
        mags = np.abs(open_loop_response(DEFAULT_LOOP, [1e6, 1e7, 1e8]))
        assert mags[0] > mags[1] > mags[2]
        # one net pole above the zero: -20 dB/decade
        assert mags[1] / mags[2] == pytest.approx(10.0, rel=0.02)

    def test_conjugate_symmetry(self):
        f = np.array([1e3, 1e5, 1e7])
        assert np.allclose(
            open_loop_response(DEFAULT_LOOP, -f),
            np.conj(open_loop_response(DEFAULT_LOOP, f)),
            rtol=1e-12,
        )

    def test_matches_independent_evaluation(self):
        f = np.logspace(0, 8, 50)
        assert np.allclose(
            open_loop_response(DEFAULT_LOOP, f),
            independent_open_loop(DEFAULT_LOOP, f),
            rtol=1e-12,
        )


class TestBodeMetrics:
    def test_reference_loop_against_oracle(self):
        metrics = bode_metrics(DEFAULT_LOOP)
        x_oracle = oracle_crossover(DEFAULT_LOOP)
        assert metrics.crossover_hz == pytest.approx(x_oracle, rel=0.005)
        pm_oracle = 180.0 + math.degrees(
            np.angle(independent_open_loop(DEFAULT_LOOP, x_oracle))
        )
        assert metrics.phase_margin_deg == pytest.approx(pm_oracle, rel=0.005)
        assert metrics.dc_gain == pytest.approx(960.84, rel=1e-6)
        # literal parameter set lands near 108 kHz with a thin margin
        assert 1.0e5 < metrics.crossover_hz < 1.15e5
        assert 10.0 < metrics.phase_margin_deg < 14.0

    def test_closed_loop_bandwidth_against_oracle(self):
        metrics = bode_metrics(DEFAULT_LOOP)
        f = np.logspace(0, 8, 400_001)
        h = independent_open_loop(DEFAULT_LOOP, f)
        t = np.abs(h / (1 + h))
        target = t[0] / math.sqrt(2)
        k = int(np.nonzero(t < target)[0][0])
        bw_oracle = f[k]
        assert metrics.closed_loop_bw_hz == pytest.approx(bw_oracle, rel=0.005)

    def test_textbook_single_pole_loop(self):
        # pole-zero cancellation leaves H = 100 / (1 + j f / 1 kHz)
        params = LoopParams(1.0, 100.0, 1.0, 1.0, 1e9, 1e9, 1e3)
        metrics = bode_metrics(params)
        assert metrics.crossover_hz == pytest.approx(1e3 * math.sqrt(100**2 - 1), rel=1e-3)
        assert metrics.phase_margin_deg == pytest.approx(90.57, abs=0.1)

    def test_overflowing_gain_product_rejected(self):
        # Gains within their range multiply to at most 1e36.
        with pytest.raises(ValueError, match=r"loop\.k_lf_v_per_v = 1e\+308 is outside its range"):
            LoopParams(1.0, 1e308, 1.0, 1e308, 1e9, 1e9, 1e3)

    @pytest.mark.parametrize("key, value, f_hz", [
        ("f_lf_zero_hz", 1e-300, 1e8),  # K_lf (1 + j f / f_z) overflows past 1.5e5 Hz
        ("k_lf_v_per_v", 1.7e308, 1e8),  # dc_gain is finite, K_lf times the lead is not
        ("f_lf_pole_hz", 5e-324, 1.0),
        ("f_ps_hz", 1e-310, 1.0),
    ])
    def test_response_outside_float_range_names_its_key(self, key, value, f_hz):
        # Each value would put the response past the float range at f_hz: it is
        # outside its key's range, and the nearest bound gives a finite response.
        with pytest.raises(ValueError, match=rf"loop\.{key} = .* is outside its range"):
            replace(DEFAULT_LOOP, **{key: value})
        lo, hi, _ = RANGES[f"loop.{key}"]
        params = replace(DEFAULT_LOOP, **{key: min(max(value, lo), hi)})
        assert np.all(np.isfinite(open_loop_response(params, np.array([1.0, f_hz]))))
        assert bode_metrics(params).dc_gain == params.dc_gain

    def test_response_past_float_range_names_the_frequency(self):
        # Within the ranges only a frequency near 1e300 Hz takes H past the float range.
        params = replace(DEFAULT_LOOP, k_lf_v_per_v=1e9, f_lf_zero_hz=1.0)
        with pytest.raises(ValueError, match=r"outside the float range at 1e\+305 Hz"):
            open_loop_response(params, np.array([1.0, 1e305]))

    def test_degenerate_loop_reports_absent_metrics(self):
        # H = 1e-12 / (1 + j f / 1 kHz) never reaches unity gain; its closed
        # loop, K / (1 + K + j f / 1 kHz), still falls by 3 dB at 1 kHz.
        params = LoopParams(1e-6, 1e-3, 1.0, 1e-3, 1e9, 1e9, 1e3)
        metrics = bode_metrics(params)
        assert metrics.degenerate
        assert metrics.crossover_hz is None and metrics.phase_margin_deg is None
        assert metrics.closed_loop_bw_hz == pytest.approx(1e3, rel=1e-5)

    def test_closed_loop_magnitude_limits(self):
        h_lo = open_loop_response(DEFAULT_LOOP, 1.0)
        assert abs(h_lo / (1 + h_lo)) == pytest.approx(1.0, abs=2e-3)
        h_hi = open_loop_response(DEFAULT_LOOP, 1e8)
        assert abs(h_hi / (1 + h_hi)) == pytest.approx(abs(h_hi), rel=1e-2)

    def test_unwrapped_phase_decomposition(self):
        f = 1e7
        expected = math.degrees(
            math.atan(f / DEFAULT_LOOP.f_lf_zero_hz)
            - math.atan(f / DEFAULT_LOOP.f_lf_pole_hz)
            - math.atan(f / DEFAULT_LOOP.f_ps_hz)
        )
        assert float(open_loop_phase_deg(DEFAULT_LOOP, f)) == pytest.approx(expected, rel=1e-12)


class TestStaticPhaseError:
    def test_quarter_pi_reference(self):
        err = static_phase_error(math.pi / 4, DEFAULT_LOOP)
        assert err == pytest.approx((math.pi / 4) / 961.84, rel=1e-9)
        assert err == pytest.approx(0.8166e-3, rel=1e-3)

    def test_zero_offset(self):
        assert static_phase_error(0.0, DEFAULT_LOOP) == 0.0

    def test_scaling_with_loop_gain(self):
        doubled = LoopParams(
            2 * DEFAULT_LOOP.k_pd_v_per_rad,
            DEFAULT_LOOP.k_lf_v_per_v,
            DEFAULT_LOOP.k_driver_v_per_v,
            DEFAULT_LOOP.k_ps_rad_per_v,
            DEFAULT_LOOP.f_lf_zero_hz,
            DEFAULT_LOOP.f_lf_pole_hz,
            DEFAULT_LOOP.f_ps_hz,
        )
        ratio = static_phase_error(0.1, doubled) / static_phase_error(0.1, DEFAULT_LOOP)
        assert ratio == pytest.approx(0.5, abs=2e-3)

    def test_linear_region_warning(self):
        with pytest.warns(UserWarning, match="pi/4"):
            static_phase_error(1.0, DEFAULT_LOOP)


class TestBandwidthScaling:
    @pytest.mark.parametrize("target", [1e6, 1e7, 1e8])
    def test_reaches_target(self, target):
        params = scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target)
        assert bode_metrics(params).closed_loop_bw_hz == pytest.approx(target, rel=5e-3)

    @pytest.mark.parametrize("target, k_lf", [
        (216e3, 2005.41245085293),
        (1e6, 36227.60672058459),
        (1e7, 767196.0244775423),
        (1e8, 8259424.749553921),
        (1e9, 83182520.57874507),
    ])
    def test_scaled_gains_pinned(self, target, k_lf):
        assert scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target).k_lf_v_per_v == k_lf

    @pytest.mark.parametrize("target", [1.0, 100.0, 1e3])
    def test_target_below_the_lowest_reachable_bandwidth_raises(self, target):
        # As K_lf falls to 0 the reference loop's bandwidth falls to about
        # 1.82 kHz, not to 0: no gain in range reaches a lower target.
        with pytest.raises(ConvergenceError, match="bandwidth"):
            scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target)

    def test_jump_in_the_bandwidth_raises(self):
        # Above 20 Hz, H levels off at K0 / 2 up to its 1 THz pole, so
        # |H/(1+H)| levels off near (1 + K0) / (2 + K0) of its value at 1 Hz.
        # As that ratio nears 1/sqrt(2), at K0 near 1.40, the -3 dB point runs
        # from 457 Hz to past the scan within 0.3% of the gain: the 0.1%
        # bisection closes on a loop far below 100 kHz, which must not be returned.
        params = LoopParams(1.0, 1.0, 1.0, 1.0, 20.0, 1e12, 10.0)
        with pytest.raises(ConvergenceError, match="bandwidth"):
            scale_to_closed_loop_bandwidth(params, 1e5)

    def test_bandwidth_reached_without_a_crossover(self):
        params = scale_to_closed_loop_bandwidth(DEFAULT_LOOP, 3e3)
        metrics = bode_metrics(params)
        assert params.dc_gain < 1 and metrics.crossover_hz is None
        assert metrics.closed_loop_bw_hz == pytest.approx(3e3, rel=5e-3)

    @pytest.mark.parametrize("target", [0.0, 1e30, 1.7e308])
    def test_target_outside_its_range_names_its_key(self, target):
        message = f"loop.closed_loop_bw_hz = {target:g} is outside its range [1, 1e+09]"
        with pytest.raises(ValueError, match=re.escape(message)):
            scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target)

    def test_given_loop_past_float_range_names_its_key(self):
        with pytest.raises(ValueError, match=r"loop\.f_lf_zero_hz = 1e-300 is outside its range"):
            scale_to_closed_loop_bandwidth(replace(DEFAULT_LOOP, f_lf_zero_hz=1e-300), 1e6)

    @pytest.mark.parametrize("target", [3e8, 5e8, 1e9])
    def test_target_reached_in_the_last_partial_decade_of_gain(self, target):
        # Decade steps from K_lf 1.2e3 pass the top of k_lf_v_per_v's range,
        # 1e9, after 1.2e8; these targets need gains between the two.
        params = scale_to_closed_loop_bandwidth(replace(DEFAULT_LOOP, k_pd_v_per_rad=2.55e-3),
                                                target)
        assert 1.2e8 < params.k_lf_v_per_v <= RANGES["loop.k_lf_v_per_v"][1]
        assert bode_metrics(params).closed_loop_bw_hz == pytest.approx(target, rel=5e-3)

    @pytest.mark.parametrize("target", [2e8, 5e8, 1e9])
    def test_loops_scaled_past_1e8_hz_have_their_metrics(self, target):
        # The metrics are found on the scan grid that reached the target, to 1e14 Hz.
        metrics = bode_metrics(scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target))
        assert metrics.crossover_hz is not None and 0.0 < metrics.phase_margin_deg < 270.0
        assert metrics.closed_loop_bw_hz == pytest.approx(target, rel=5e-3)

    @pytest.mark.parametrize("target", [216e3, 1e6, 1e7, 1e8])
    def test_each_gain_evaluated_once(self, monkeypatch, target):
        gains = []

        def counting(params, f_hz):
            if np.size(f_hz) > 1:  # the scan, not a bisection step
                gains.append(params.k_lf_v_per_v)
            return open_loop_response(params, f_hz)

        def no_bode(params):
            raise AssertionError("the scaling runs no Bode analysis")

        monkeypatch.setattr(analysis, "open_loop_response", counting)
        monkeypatch.setattr(analysis, "bode_metrics", no_bode)
        scale_to_closed_loop_bandwidth(DEFAULT_LOOP, target)
        assert gains and len(gains) == len(set(gains))


class TestReferenceComparison:
    def test_flags_deviations(self):
        metrics = bode_metrics(DEFAULT_LOOP)
        notes = reference_discrepancies(
            metrics,
            {"crossover_hz": 160e3, "phase_margin_deg": 61.0, "closed_loop_bw_hz": 216e3},
        )
        assert len(notes) == 3
        assert any("crossover_hz" in n for n in notes)

    def test_quiet_when_consistent(self):
        metrics = bode_metrics(DEFAULT_LOOP)
        notes = reference_discrepancies(metrics, {"dc_gain": 960.84})
        assert notes == []

    def test_unknown_metric_rejected(self):
        metrics = bode_metrics(DEFAULT_LOOP)
        with pytest.raises(ValueError, match="unknown"):
            reference_discrepancies(metrics, {"bogus": 1.0})
