import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter, welch
from scipy.special import erfc

import oqamcpr
from oqamcpr.channel import (
    DEFAULT_REFRACTIVE_INDEX,
    SPEED_OF_LIGHT_M_S,
    BeatNoise,
    ChannelScenario,
    LaserModel,
    PathMismatch,
    add_awgn,
    delay_in_samples,
    one_pole_lowpass,
    received_trace,
    rotate_symbol,
    stream_rng,
)
from oqamcpr.constellation import build_constellation, n0_from_snr_db


def wiener_increments(linewidth_hz, dt_s, n, seed):
    """Beat phase through a one-sample delay (tau = dt): the Wiener increments.

    Drawn from the lock path's stream key, so these are the draws a lock
    run with the same seed and geometry would use.
    """
    mismatch = PathMismatch(dt_s * SPEED_OF_LIGHT_M_S / DEFAULT_REFRACTIVE_INDEX)
    beat = BeatNoise(LaserModel(linewidth_hz), mismatch, dt_s, stream_rng(seed, 0x10C))
    assert beat.delay_samples == 1
    return beat.draw(n)


def untouched(rng, seed):
    return rng.bit_generator.state == stream_rng(seed, 0x10C).bit_generator.state


class TestPhaseNoisePath:
    def test_increment_variance_matches_closed_form(self):
        lw, dt = 1e6, 10e-12
        inc = wiener_increments(lw, dt, 1_000_000, seed=11)
        expected = 2 * math.pi * lw * dt
        assert np.var(inc) == pytest.approx(expected, rel=0.01)

    def test_zero_linewidth_gives_constant_path(self):
        rng = stream_rng(1, 0x10C)
        beat = BeatNoise(LaserModel(0.0), PathMismatch(0.1), 1e-12, rng)
        assert beat.delay_samples == 0
        assert beat.draw(1000) is None
        assert untouched(rng, 1)

    def test_deterministic_per_seed(self):
        a = wiener_increments(1e6, 1e-11, 1000, seed=5)
        b = wiener_increments(1e6, 1e-11, 1000, seed=5)
        c = wiener_increments(1e6, 1e-11, 1000, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            BeatNoise(LaserModel(1e6), PathMismatch(0.1), 0.0, stream_rng(1, 0x10C))
        beat = BeatNoise(LaserModel(1e6), PathMismatch(0.1), 1e-12, stream_rng(1, 0x10C))
        with pytest.raises(ValueError, match="block length"):
            beat.draw(0)
        with pytest.raises(ValueError, match="linewidth"):
            LaserModel(-1.0)

    def test_periodogram_matches_wiener_psd_over_two_decades(self):
        lw, dt = 1e6, 1e-11
        path = np.cumsum(wiener_increments(lw, dt, 2**21, seed=5))
        f, pxx = welch(path, fs=1 / dt, nperseg=2**16, detrend="constant")
        for lo, hi in [(2e7, 2e8), (2e8, 2e9)]:
            band = (f >= lo) & (f < hi)
            model = lw / (2 * np.pi * f[band] ** 2)
            ratio = np.median((pxx[band] / 2) / model)  # welch is one-sided
            assert ratio == pytest.approx(1.0, abs=0.10)


class TestBeatPhase:
    def test_tau_from_geometry(self):
        mm = PathMismatch(0.1, 1.468)
        assert mm.tau_s == pytest.approx(4.897e-10, rel=1e-3)

    def test_zero_mismatch_zero_beat(self):
        rng = stream_rng(2, 0x10C)
        beat = BeatNoise(LaserModel(1e6), PathMismatch(0.0), 1e-12, rng)
        assert beat.draw(1000) is None
        assert untouched(rng, 2)

    def test_free_running_variance_matches_increment_formula(self):
        lw = 1e6
        mm = PathMismatch(0.1)
        dt = mm.tau_s / 4
        beat = BeatNoise(LaserModel(lw), mm, dt, stream_rng(13, 0x10C))
        theta = np.concatenate([beat.draw(2000) for _ in range(1000)])
        expected = 2 * math.pi * lw * mm.tau_s
        assert np.var(theta[beat.delay_samples:]) == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize(
        "delta_l_m, blocks",
        [
            (0.1, [2000] * 5),
            (0.1, [98] * 30),
            (100.0, [2000] * 60),
            (1.0, [50, 400, 1000, 3000, 200, 5000]),
            (1.0, [5000, 300, 7, 1, 2000]),
        ],
        ids=["d<n", "d=n", "d>>n", "growing-blocks", "shrinking-blocks"],
    )
    def test_blocks_match_one_shot_reference(self, delta_l_m, blocks):
        lw, dt = 1e6, 5e-12
        mm = PathMismatch(delta_l_m)
        beat = BeatNoise(LaserModel(lw), mm, dt, stream_rng(4, 0x10C))
        theta = np.concatenate([beat.draw(n) for n in blocks])

        d = beat.delay_samples
        assert d == delay_in_samples(mm.tau_s, dt)
        # the d increments before the start come first on the stream
        inc = stream_rng(4, 0x10C).normal(0.0, math.sqrt(2 * math.pi * lw * dt), d + theta.size)
        phi = np.cumsum(inc)
        assert np.max(np.abs(theta - (phi[d:] - phi[:-d]))) < 1e-12

    def test_first_sample_is_stationary(self):
        lw, dt = 1e6, 5e-12
        mm = PathMismatch(1.0)
        first = [
            BeatNoise(LaserModel(lw), mm, dt, stream_rng(seed, 0x10C)).draw(1)[0]
            for seed in range(400)
        ]
        expected = 2 * math.pi * lw * mm.tau_s
        assert np.var(first) == pytest.approx(expected, rel=0.3)

    def test_coarse_non_divisor_dt_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            delay_in_samples(1e-10, 0.7e-10)

    def test_exact_divisor_dt_allowed(self):
        assert delay_in_samples(1e-10, 0.5e-10) == 2

    def test_no_mismatch_is_no_delay(self):
        assert delay_in_samples(0.0, 1e-12) == 0

    def test_delay_past_float_range_in_samples_rejected(self):
        # 1e-9 / 5e-324 overflows to inf.
        with pytest.raises(ValueError, match="is not a finite number of dt_s=4.94066e-324 samples"):
            delay_in_samples(1e-9, 5e-324)


class TestRotation:
    def test_identity_rotation_applies_offset(self):
        i, q = rotate_symbol(0.5, -0.5, 0.1, 0.0)
        assert (i, q) == pytest.approx((0.6, -0.4))

    def test_quarter_turn(self):
        i, q = rotate_symbol(0.5, -0.5, 0.1, math.pi / 2)
        assert (i, q) == pytest.approx((-0.4, -0.6))

    def test_isometry_about_origin(self):
        rng = np.random.default_rng(4)
        i, q = rng.normal(size=100), rng.normal(size=100)
        phi = rng.uniform(-math.pi, math.pi, 100)
        ip, qp = rotate_symbol(i, q, 0.2, phi)
        assert np.allclose(ip**2 + qp**2, (i + 0.2) ** 2 + (q + 0.2) ** 2, rtol=1e-12)

    def test_inverse_rotation_round_trip(self):
        rng = np.random.default_rng(5)
        i, q = rng.normal(size=50), rng.normal(size=50)
        a0 = 0.3
        for phi in rng.uniform(-math.pi, math.pi, 8):
            ip, qp = rotate_symbol(i, q, a0, phi)
            ib, qb = rotate_symbol(ip, qp, 0.0, -phi)
            assert np.allclose(ib - a0, i, atol=1e-12)
            assert np.allclose(qb - a0, q, atol=1e-12)


class TestAwgn:
    def test_zero_n0_identity(self):
        x = np.arange(10.0)
        assert np.array_equal(add_awgn(x, 0.0, stream_rng(1, 0xA36)), x)

    def test_negative_n0_rejected(self):
        with pytest.raises(ValueError, match="n0"):
            add_awgn([1.0], -1e-3, stream_rng(1, 0xA36))

    def test_variance_half_n0_per_dimension(self):
        n0 = 0.37
        x = np.zeros(1_000_000)
        y = add_awgn(x, n0, stream_rng(21, 0xA36))
        assert np.var(y) == pytest.approx(n0 / 2, rel=0.01)

    def test_tail_probability_matches_erfc_form(self):
        # P(noise < -a/2) should equal erfc(a / (2 sqrt(n0))) / 2
        a, n0 = 1.0, 0.1
        noise = add_awgn(np.zeros(10_000_000), n0, stream_rng(22, 0xA36))
        p_hat = np.mean(noise < -a / 2)
        p = 0.5 * erfc(a / (2 * math.sqrt(n0)))
        sigma_hat = math.sqrt(p * (1 - p) / noise.size)
        assert abs(p_hat - p) < 4 * sigma_hat


class TestPdFilter:
    def test_unity_dc_gain(self):
        dt, bw = 1e-12, 50e9
        y, _ = one_pole_lowpass(np.ones(20000), dt, bw)
        assert y[-1] == pytest.approx(1.0, rel=1e-6)

    def test_minus_3db_at_bandwidth(self):
        bw = 1e9
        dt = 1 / (200 * bw)
        t = np.arange(400_000) * dt
        x = np.sin(2 * math.pi * bw * t)
        y, _ = one_pole_lowpass(x, dt, bw)
        tail = y[200_000:]
        amp = math.sqrt(2 * np.mean(tail**2))
        assert amp == pytest.approx(1 / math.sqrt(2), rel=0.02)

    def test_step_time_constant(self):
        bw = 50e9
        dt = 1 / (1000 * bw)
        y, _ = one_pole_lowpass(np.ones(10000), dt, bw)
        t = (np.argmax(y >= 1 - math.exp(-1)) + 1) * dt
        assert t == pytest.approx(1 / (2 * math.pi * bw), rel=0.05)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            ChannelScenario(baud_rate_hz=100e9, pd_bandwidth_hz=0)

    @pytest.mark.parametrize("with_zi", [False, True])
    @pytest.mark.parametrize("n", [1, 20, 2_000, 200_000])
    @pytest.mark.parametrize("cutoff_hz", [1e6, 1e9, 5e9, 50e9, 500e9])
    def test_equals_standard_filter_bit_for_bit(self, cutoff_hz, n, with_zi):
        # The recursion does lfilter's two multiplies and one add per sample
        # in the same order, so the outputs agree exactly, not just closely.
        dt = 5e-12
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        zi = rng.standard_normal(1) if with_zi else None
        a = np.exp(-2.0 * np.pi * cutoff_hz * dt)
        y_ref, zf_ref = lfilter((1 - a,), (1, -a), x, zi=np.zeros(1) if zi is None else zi)
        y, zf = one_pole_lowpass(x, dt, cutoff_hz, zi)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(zf, zf_ref)

    def test_package_does_not_import_scipy_signal(self):
        # scipy.signal costs about a second of import time and the package
        # needs none of it.
        code = "import sys, oqamcpr.cli; print(any(m.startswith('scipy.signal') for m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(Path(oqamcpr.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestReceivedTrace:
    def test_shape_and_determinism(self):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(
            baud_rate_hz=100e9,
            phi_offset_rad=math.pi / 4,
            n0=n0_from_snr_db(c, 15.0),
            pd_bandwidth_hz=50e9,
        )
        t, i, q = received_trace(c, sc, num_symbols=100, seed=3, samples_per_symbol=4)
        t2, i2, q2 = received_trace(c, sc, num_symbols=100, seed=3, samples_per_symbol=4)
        assert len(t) == len(i) == len(q) == 400
        assert t[1] - t[0] == pytest.approx(1 / 400e9)
        assert np.array_equal(i, i2) and np.array_equal(q, q2)

    def test_noiseless_trace_hits_rotated_points(self):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=100e9, phi_offset_rad=0.0)
        _, i, q = received_trace(c, sc, num_symbols=50, seed=3, samples_per_symbol=1)
        pts = {(round(x, 9), round(y, 9)) for x, y in zip(i, q)}
        allowed = {(round(p[0], 9), round(p[1], 9)) for p in c.points}
        assert pts <= allowed

    def test_trace_rotates_by_beat_phase(self):
        # 10 cm is a 98-sample delay, so the 400 samples also reach past it.
        c = build_constellation(4, 1.0, 0.1)
        laser, mismatch = LaserModel(1e6), PathMismatch(0.1)
        clean = ChannelScenario(baud_rate_hz=100e9)
        noisy = ChannelScenario(
            baud_rate_hz=100e9, laser=laser, mismatch=mismatch, phi_offset_rad=0.2
        )
        _, i0, q0 = received_trace(c, clean, num_symbols=200, seed=3)
        t, i1, q1 = received_trace(c, noisy, num_symbols=200, seed=3)
        # A rotation by phi maps x + jy to (x + jy) exp(-j phi).
        phase = np.angle((i0 + 1j * q0) / (i1 + 1j * q1))
        beat = BeatNoise(laser, mismatch, t[1], stream_rng(3, 0xE7E))
        theta = beat.draw(t.size)
        assert np.std(theta) > 0.01
        assert np.allclose(phase, 0.2 + theta, rtol=0, atol=1e-12)

    def test_awgn_is_one_stream_per_seed(self):
        # The I noise is the head of the seed's own AWGN stream; the Q noise
        # follows it there instead of repeating the next seed's I noise.
        c = build_constellation(4, 1.0, 0.1)
        clean = ChannelScenario(baud_rate_hz=100e9)
        noisy = ChannelScenario(baud_rate_hz=100e9, n0=0.02)
        _, i_clean, q_clean = received_trace(c, clean, num_symbols=200, seed=3)
        _, i_rx, q_rx = received_trace(c, noisy, num_symbols=200, seed=3)
        assert np.array_equal(i_rx, add_awgn(i_clean, 0.02, stream_rng(3, 0xA36)))
        _, i_next, _ = received_trace(c, noisy, num_symbols=200, seed=4)
        _, i_next_clean, _ = received_trace(c, clean, num_symbols=200, seed=4)
        q_noise, i_next_noise = q_rx - q_clean, i_next - i_next_clean
        assert abs(np.corrcoef(q_noise, i_next_noise)[0, 1]) < 0.3

    @pytest.mark.parametrize("n0", [-0.1, math.inf, math.nan])
    def test_rejects_n0_not_finite_and_non_negative(self, n0):
        with pytest.raises(ValueError, match="n0"):
            ChannelScenario(baud_rate_hz=1e9, n0=n0)

    @pytest.mark.parametrize("num_symbols", [0, -1])
    def test_rejects_num_symbols_below_one(self, num_symbols):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=100e9)
        with pytest.raises(ValueError, match="num_symbols must be >= 1"):
            received_trace(c, sc, num_symbols=num_symbols, seed=3)

    @pytest.mark.parametrize("sps", [0, -2])
    def test_rejects_samples_per_symbol_below_one(self, sps):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=100e9)
        with pytest.raises(ValueError, match="samples_per_symbol"):
            received_trace(c, sc, num_symbols=10, seed=3, samples_per_symbol=sps)
