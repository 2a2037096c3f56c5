import math

import numpy as np
import pytest

from oqamcpr.analysis import DEFAULT_LOOP, open_loop_response
from oqamcpr.channel import ChannelScenario, LaserModel, PathMismatch, rotate_symbol
from oqamcpr.constellation import build_constellation
from oqamcpr.cpr import (
    DetectorMethod,
    FirstOrderState,
    error_method1,
    error_method2,
    lowpass_average,
    simulate_lock,
    step_loop_filter,
    step_phase_shifter,
)


def ideal_averages(a0, dphi):
    return a0 * (np.cos(dphi) + np.sin(dphi)), a0 * (np.cos(dphi) - np.sin(dphi))


class TestDetectors:
    def test_method1_lock_point(self):
        assert error_method1(1.0, 1.0) == 0.0

    def test_method1_quarter_pi(self):
        i, q = ideal_averages(1.0, math.pi / 4)
        assert error_method1(i, q) == pytest.approx(-math.sqrt(2), rel=1e-12)

    def test_method1_sign_select_flips_past_quarter(self):
        i, q = ideal_averages(1.0, 3 * math.pi / 4)
        assert error_method1(i, q) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_method2_zero_at_lock(self):
        assert error_method2(1.0, 1.0) == 0.0

    def test_method2_pi_half_periodicity(self):
        a0 = 0.7
        grid = np.linspace(-math.pi, math.pi, 157)
        # stay off the sawtooth discontinuities at pi/4 + k*pi/2
        dist = np.abs((grid - math.pi / 4) % (math.pi / 2))
        grid = grid[(dist > 0.01) & (dist < math.pi / 2 - 0.01)]
        base = error_method2(*ideal_averages(a0, grid))
        shifted = error_method2(*ideal_averages(a0, grid + math.pi / 2))
        assert np.allclose(shifted, base, atol=1e-12)

    def test_method2_small_angle_slope(self):
        a0, dphi = 1.0, 0.01
        e = error_method2(*ideal_averages(a0, dphi))
        assert e == pytest.approx(-2 * a0 * math.sin(dphi), rel=1e-12)
        assert e == pytest.approx(-2 * a0 * dphi, rel=1e-4)

    def test_method1_small_angle_matches_method2(self):
        a0, dphi = 0.5, 0.01
        i, q = ideal_averages(a0, dphi)
        assert error_method1(i, q) == pytest.approx(error_method2(i, q), rel=1e-9)

    @pytest.mark.parametrize("method", [error_method1, error_method2])
    def test_detectors_are_odd(self, method):
        a0 = 0.3
        grid = np.linspace(0.05, 1.5, 25)  # stay off the sign-select boundary
        pos = method(*ideal_averages(a0, grid))
        neg = method(*ideal_averages(a0, -grid))
        assert np.allclose(neg, -pos, atol=1e-12)

    def test_order_independence_of_averaged_error(self):
        # same offset, same phase error: long-run averaged error signals from
        # 4- and 16-point grids agree within filter ripple
        rng = np.random.default_rng(8)
        dt, cutoff = 5e-12, 1e9
        a0, dphi = 0.5, 0.3  # offset well above ripple so the select is stable
        results = {}
        for order in (4, 16):
            c = build_constellation(order, 1.0, a0)
            idx = rng.integers(0, order, 400_000)
            rel = c.points[idx] - c.a0
            i_rx, q_rx = rotate_symbol(rel[:, 0], rel[:, 1], c.a0, dphi)
            i_avg, q_avg = lowpass_average(i_rx, q_rx, dt, cutoff)
            e = error_method1(i_avg[200_000:], q_avg[200_000:])
            results[order] = float(np.mean(e))
        expected = -2 * a0 * math.sin(dphi)
        assert results[4] == pytest.approx(expected, rel=0.02)
        assert results[16] == pytest.approx(expected, rel=0.02)
        assert results[4] == pytest.approx(results[16], rel=0.02)


class TestLowpassAverage:
    def test_converges_to_offset_at_lock(self):
        rng = np.random.default_rng(3)
        a0 = 0.1
        sym = rng.choice([-0.5, 0.5], 400_000)
        i_avg, q_avg = lowpass_average(sym + a0, sym[::-1] + a0, 5e-12, 1e9)
        assert np.mean(i_avg[200_000:]) == pytest.approx(a0, rel=0.02)
        assert np.mean(q_avg[200_000:]) == pytest.approx(a0, rel=0.02)

    def test_converges_to_rotated_averages(self):
        rng = np.random.default_rng(4)
        a0, dphi = 0.1, math.pi / 4
        i_sym = rng.choice([-0.5, 0.5], 400_000)
        q_sym = rng.choice([-0.5, 0.5], 400_000)
        i_rx, q_rx = rotate_symbol(i_sym, q_sym, a0, dphi)
        i_avg, q_avg = lowpass_average(i_rx, q_rx, 5e-12, 1e9)
        assert np.mean(i_avg[200_000:]) == pytest.approx(math.sqrt(2) * a0, rel=0.02)
        assert abs(np.mean(q_avg[200_000:])) < 0.02 * a0

    def test_ripple_scales_with_cutoff(self):
        # deterministic alternating pattern: ripple amplitude tracks cutoff
        sym = np.tile([0.5, 0.5, -0.5, -0.5], 50_000)
        spans = {}
        for cutoff in (1e9, 0.5e9):
            i_avg, _ = lowpass_average(sym, sym, 5e-12, cutoff)
            tail = i_avg[100_000:]
            spans[cutoff] = tail.max() - tail.min()
        assert spans[1e9] / spans[0.5e9] == pytest.approx(2.0, rel=0.05)


class TestLoopFilter:
    def test_dc_gain_settles_to_k_lf(self):
        state = FirstOrderState()
        dt = 1e-6
        for _ in range(200_000):
            y = step_loop_filter(state, 1e-3, dt, DEFAULT_LOOP)
        assert y == pytest.approx(1.2e3 * 1e-3, rel=1e-6)

    def test_instantaneous_high_frequency_gain(self):
        state = FirstOrderState()
        y = step_loop_filter(state, 1.0, 1e-10, DEFAULT_LOOP)
        assert y == pytest.approx(1.2e3 * 6e3 / 0.8e6, rel=0.01)

    def test_gain_at_loop_filter_pole(self):
        f = DEFAULT_LOOP.f_lf_pole_hz
        per = 16_000
        dt = 1.0 / (f * per)
        assert dt <= 1 / (100 * DEFAULT_LOOP.f_lf_zero_hz)
        n_settle, n_meas = 2 * per, 3 * per
        state = FirstOrderState()
        ys = np.empty(n_meas)
        for k in range(n_settle + n_meas):
            x = math.sin(2 * math.pi * f * k * dt)
            y = step_loop_filter(state, x, dt, DEFAULT_LOOP)
            if k >= n_settle:
                ys[k - n_settle] = y
        t = (np.arange(n_settle, n_settle + n_meas)) * dt
        amp = abs(2 * np.sum(ys * np.exp(-1j * 2 * math.pi * f * t)) / n_meas)
        expected = 1.2e3 / math.sqrt(2) * abs(1 + 1j * f / DEFAULT_LOOP.f_lf_zero_hz)
        assert expected == pytest.approx(848.6, rel=1e-3)
        assert amp == pytest.approx(expected, rel=0.01)


class TestPhaseShifter:
    def test_dc_gain(self):
        state = FirstOrderState()
        dt = 5e-6
        for _ in range(100_000):
            y = step_phase_shifter(state, 0.2, dt, DEFAULT_LOOP)
        assert y == pytest.approx(15.7 * 0.2, rel=1e-6)

    def test_first_order_time_constant(self):
        state = FirstOrderState()
        dt = 2e-7
        target = 15.7 * (1 - math.exp(-1))
        k = 0
        y = 0.0
        while y < target:
            y = step_phase_shifter(state, 1.0, dt, DEFAULT_LOOP)
            k += 1
        t63 = k * dt
        assert t63 == pytest.approx(1 / (2 * math.pi * 2e3), rel=0.05)

    def test_saturation_clamps_output(self):
        state = FirstOrderState()
        dt = 5e-6
        limit = 5 * math.pi
        ys = [
            step_phase_shifter(state, 10.0, dt, DEFAULT_LOOP, range_rad=limit)
            for _ in range(100_000)
        ]
        assert max(ys) == pytest.approx(limit)
        assert ys[-1] == pytest.approx(limit)


class TestSimulateLock:
    def scenario(self, phi0=math.pi / 4, **kw):
        return ChannelScenario(baud_rate_hz=100e9, phi_offset_rad=phi0, seed=5, **kw)

    def test_symbol_path_residual_matches_linear_model(self):
        c = build_constellation(4, 1.0, 0.1)
        rep = simulate_lock(
            self.scenario(), c, DEFAULT_LOOP, DetectorMethod.METHOD1, 3e-4, seed=5
        )
        analytic = (math.pi / 4) / (1 + DEFAULT_LOOP.dc_gain)
        assert rep.locked
        assert rep.lock_point_rad == 0.0
        assert rep.residual_rad == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize(
        "data_path, duration_s",
        [("averaged", 4e-4), ("symbols", 1e-4)],
        ids=["averaged", "symbols"],
    )
    def test_method2_locks(self, data_path, duration_s):
        c = build_constellation(4, 1.0, 0.1)
        rep = simulate_lock(
            self.scenario(0.3), c, DEFAULT_LOOP, DetectorMethod.METHOD2,
            duration_s, seed=6, data_path=data_path,
        )
        assert rep.locked
        assert rep.lock_point_rad == 0.0

    @pytest.mark.parametrize("deg", [-85, -45, -10, 10, 45, 85])
    def test_lock_basin_within_half_pi(self, deg):
        c = build_constellation(4, 1.0, 0.1)
        rep = simulate_lock(
            self.scenario(math.radians(deg)), c, DEFAULT_LOOP,
            DetectorMethod.METHOD1, 6e-4, seed=1, data_path="averaged",
        )
        assert rep.locked
        assert rep.lock_point_rad == 0.0
        assert abs(rep.residual_rad) < math.radians(1.0)

    @pytest.mark.parametrize(
        "receiver",
        [{}, {"snr_db": 19.0, "pd_bandwidth_hz": 50e9}],
        ids=["phase_noise_only", "awgn_pd_filter"],
    )
    def test_lock_tracks_phase_noise(self, receiver):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(
            baud_rate_hz=100e9,
            laser=LaserModel(1e6),
            mismatch=PathMismatch(0.1),
            phi_offset_rad=0.0,
            seed=9,
            **receiver,
        )
        rep = simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, seed=9)
        assert rep.locked
        assert np.all(np.isfinite(rep.delta_phi_rad))
        # instantaneous jitter reflects the differential beat noise scale
        assert rep.delta_phi_rad[len(rep.delta_phi_rad) // 2:].std() < 0.2

    def test_small_signal_response_matches_linear_model(self):
        c = build_constellation(4, 1.0, 0.1)
        cases = [
            (100.0, 1e-7, 2e-3, 2),
            (1e3, 1e-7, 1e-3, 4),
            (1e4, 5e-8, 4e-4, 8),
            (1e5, 1e-8, 3e-4, 20),
            (1e6, 1e-8, 1.5e-4, 60),
        ]
        for f, dtl, settle_s, nper in cases:
            amp = 1e-3
            sc = ChannelScenario(baud_rate_hz=1.0 / dtl, phi_offset_rad=0.0, seed=1)
            rep = simulate_lock(
                sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1,
                settle_s + nper / f, seed=1, decimation=1, data_path="averaged",
                phase_drive=lambda t, f=f: amp * math.sin(2 * math.pi * f * t),
            )
            n_win = round(1 / (f * dtl)) * nper
            seg = rep.psi_rad[-n_win:] - rep.psi_rad[-n_win:].mean()
            t = rep.time_s[-n_win:]
            meas = abs(2 * np.sum(seg * np.exp(-1j * 2 * math.pi * f * t)) / n_win) / amp
            h = open_loop_response(DEFAULT_LOOP, f)
            assert meas == pytest.approx(abs(h / (1 + h)), rel=0.05), f"f={f}"

    def test_rejects_zero_offset_constellation(self):
        c = build_constellation(4, 1.0, 0.0)
        with pytest.raises(ValueError, match="a0"):
            simulate_lock(self.scenario(), c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, 1)

    def test_averaged_path_rejects_phase_noise(self):
        c = build_constellation(4, 1.0, 0.1)
        sc = self.scenario(laser=LaserModel(1e6), mismatch=PathMismatch(0.1))
        with pytest.raises(ValueError, match="averaged"):
            simulate_lock(
                sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, 1, data_path="averaged"
            )

    def test_rejects_too_coarse_loop_step(self):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=1e6, phi_offset_rad=0.1, seed=1)
        with pytest.raises(ValueError, match="coarse"):
            simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1.0, 1)
