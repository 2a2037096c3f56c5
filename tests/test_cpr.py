import math
from dataclasses import replace

import numpy as np
import pytest

from oqamcpr import cpr
from oqamcpr.analysis import DEFAULT_LOOP, open_loop_response
from oqamcpr.channel import (
    BeatNoise,
    ChannelScenario,
    LaserModel,
    PathMismatch,
    add_awgn,
    one_pole_lowpass,
    rotate_symbol,
    stream_rng,
)
from oqamcpr.constellation import build_constellation, n0_from_snr_db
from oqamcpr.cpr import (
    DetectorMethod,
    _loop_coefficients,
    error_method1,
    error_method2,
    simulate_lock,
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

    @pytest.mark.parametrize(
        "i, q, e1, e2",
        [(0.0, -0.5, 0.5, -0.5), (0.3, -0.3, -0.6, 0.0), (-0.5, 0.0, -0.5, 0.5)],
    )
    def test_float_path_matches_array_path_at_zeros(self, i, q, e1, e2):
        # The loop feeds the detectors plain floats; sign(0) = +1 on both paths.
        for method, expected in ((error_method1, e1), (error_method2, e2)):
            scalar = method(i, q)
            assert type(scalar) is float
            assert scalar == expected
            assert method(np.array([i]), np.array([q])).tolist() == [scalar]

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
            i_avg, _ = one_pole_lowpass(i_rx, dt, cutoff)
            q_avg, _ = one_pole_lowpass(q_rx, dt, cutoff)
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
        i_avg, _ = one_pole_lowpass(sym + a0, 5e-12, 1e9)
        q_avg, _ = one_pole_lowpass(sym[::-1] + a0, 5e-12, 1e9)
        assert np.mean(i_avg[200_000:]) == pytest.approx(a0, rel=0.02)
        assert np.mean(q_avg[200_000:]) == pytest.approx(a0, rel=0.02)

    def test_converges_to_rotated_averages(self):
        rng = np.random.default_rng(4)
        a0, dphi = 0.1, math.pi / 4
        i_sym = rng.choice([-0.5, 0.5], 400_000)
        q_sym = rng.choice([-0.5, 0.5], 400_000)
        i_rx, q_rx = rotate_symbol(i_sym, q_sym, a0, dphi)
        i_avg, _ = one_pole_lowpass(i_rx, 5e-12, 1e9)
        q_avg, _ = one_pole_lowpass(q_rx, 5e-12, 1e9)
        assert np.mean(i_avg[200_000:]) == pytest.approx(math.sqrt(2) * a0, rel=0.02)
        assert abs(np.mean(q_avg[200_000:])) < 0.02 * a0

    def test_ripple_scales_with_cutoff(self):
        # deterministic alternating pattern: ripple amplitude tracks cutoff
        sym = np.tile([0.5, 0.5, -0.5, -0.5], 50_000)
        spans = {}
        for cutoff in (1e9, 0.5e9):
            i_avg, _ = one_pole_lowpass(sym, 5e-12, cutoff)
            tail = i_avg[100_000:]
            spans[cutoff] = tail.max() - tail.min()
        assert spans[1e9] / spans[0.5e9] == pytest.approx(2.0, rel=0.05)


class TestLoopFilter:
    def test_dc_gain_settles_to_k_lf(self):
        (b0, b1, a1), _ = _loop_coefficients(DEFAULT_LOOP, 1e-6)
        assert (b0 + b1) / (1 + a1) == pytest.approx(1.2e3, rel=1e-6)

    def test_instantaneous_high_frequency_gain(self):
        (b0, _, _), _ = _loop_coefficients(DEFAULT_LOOP, 1e-10)
        assert b0 == pytest.approx(1.2e3 * 6e3 / 0.8e6, rel=0.01)

    def test_gain_at_loop_filter_pole(self):
        f = DEFAULT_LOOP.f_lf_pole_hz
        dt = 1.0 / (f * 16_000)
        assert dt <= 1 / (100 * DEFAULT_LOOP.f_lf_zero_hz)
        (b0, b1, a1), _ = _loop_coefficients(DEFAULT_LOOP, dt)
        z_inv = np.exp(-1j * 2 * math.pi * f * dt)
        amp = abs((b0 + b1 * z_inv) / (1 + a1 * z_inv))
        expected = 1.2e3 / math.sqrt(2) * abs(1 + 1j * f / DEFAULT_LOOP.f_lf_zero_hz)
        assert expected == pytest.approx(848.6, rel=1e-3)
        assert amp == pytest.approx(expected, rel=0.01)


class TestPhaseShifter:
    def test_dc_gain(self):
        _, (b0, a1) = _loop_coefficients(DEFAULT_LOOP, 5e-6)
        assert 2 * b0 / (1 + a1) == pytest.approx(15.7, rel=1e-6)

    def test_first_order_time_constant(self):
        dt = 2e-7
        _, (b0, a1) = _loop_coefficients(DEFAULT_LOOP, dt)
        target = 15.7 * (1 - math.exp(-1))
        k = 0
        y = z = 0.0
        while y < target:  # unit step through y = b0 x + z, z = b0 x - a1 y
            y = b0 + z
            z = b0 - a1 * y
            k += 1
        t63 = k * dt
        assert t63 == pytest.approx(1 / (2 * math.pi * 2e3), rel=0.05)


def averaging_impulse_weights(n, dt):
    """(2, n): the block mean and the end state of the 1 GHz low-pass's
    zero-state response to a unit impulse at each sample of an n-sample block."""
    rows = []
    for k in range(n):
        y, zf = one_pole_lowpass(np.eye(1, n, k)[0], dt, 1e9)
        rows.append((y.mean(), zf[0]))
    return np.array(rows).T


def per_sample_blocks(scenario, c, seed, decimation, samples_per_symbol, drives, chunk):
    """The symbol path sample by sample, on the lock loop's stream and draw order.

    Draws per chunk of ``chunk`` blocks: the 2 * chunk level permutations as
    successive ``permutation`` calls, the chunk's beat phase in one call, then
    with AWGN its (chunk, 2, 2) standard normals, mapped to each axis's
    block-mean and end-state noise sums through the Cholesky factor of their
    covariance.  For each (input phase, psi) in drives: rotate by input phase
    + beat phase - psi, PD low-pass, 1 GHz low-pass plus those AWGN sums,
    block mean; filter state carries from block to block.  Yields (i_avg,
    q_avg, dphi_end).
    """
    dt = 1.0 / (scenario.baud_rate_hz * samples_per_symbol)
    n = decimation * samples_per_symbol
    n0 = scenario.n0
    rng = stream_rng(seed, 0x10C)
    beat = BeatNoise(scenario.laser, scenario.mismatch, dt, rng)
    base = np.repeat(c.levels, decimation // c.side)
    w = averaging_impulse_weights(n, dt)
    noise_map = math.sqrt(n0 / 2.0) * np.linalg.cholesky(w @ w.T).T if n0 else np.zeros((2, 2))
    zi = {}
    for start in range(0, len(drives), chunk):
        perms = [rng.permutation(base) for _ in range(2 * chunk)]
        theta = beat.draw(chunk * n)
        noise = rng.standard_normal((chunk, 2, 2)) @ noise_map if n0 else np.zeros((chunk, 2, 2))
        for k, (phi_in, psi) in enumerate(drives[start:start + chunk]):
            i_sym = np.repeat(perms[2 * k], samples_per_symbol)
            q_sym = np.repeat(perms[2 * k + 1], samples_per_symbol)
            dphi = phi_in - psi if theta is None else phi_in + theta[k * n:(k + 1) * n] - psi
            means = []
            rotated = rotate_symbol(i_sym, q_sym, c.a0, dphi)
            for axis, x, (n_mean, n_end) in zip("iq", rotated, noise[k]):
                if scenario.pd_bandwidth_hz is not None:
                    x, zi["pd", axis] = one_pole_lowpass(
                        x, dt, scenario.pd_bandwidth_hz, zi.get(("pd", axis))
                    )
                # The low-pass is linear: the AWGN adds its zero-state sums.
                x, zf = one_pole_lowpass(x, dt, 1e9, zi.get(("avg", axis)))
                zi["avg", axis] = zf + n_end
                means.append(x.mean() + n_mean)
            yield (*means, float(np.atleast_1d(dphi)[-1]))


@pytest.mark.parametrize(
    "snr_db, pd_bandwidth_hz",
    [(None, None), (None, 5e9), (19.0, None), (19.0, 5e9)],
    ids=["bare", "pd", "awgn", "awgn_pd"],
)
@pytest.mark.parametrize("delta_l_m", [0.0, 0.1, 100.0], ids=["clean", "10cm", "100m"])
@pytest.mark.parametrize(
    # 64-QAM: 20 symbols rounded up to a multiple of its 8 levels, as simulate_lock does
    "order, decimation", [(4, 10), (16, 20), (64, 24)], ids=["4qam", "16qam", "64qam"]
)
def test_block_statistics_match_per_sample_reference(
    monkeypatch, order, decimation, delta_l_m, snr_db, pd_bandwidth_hz
):
    # Blocks of 20-48 samples pass 5e-4 to 0.5 of each filter's state on to
    # the next block, far above the tolerance (a 5 GHz PD: the presets'
    # 50 GHz one forgets its state within a block).  At 100 m the beat
    # delay of ~98k samples is far longer than a block.  Three blocks per
    # chunk, so the filter states carry across chunk boundaries.
    monkeypatch.setattr(cpr, "CHUNK_SAMPLES", 3 * 2 * decimation)
    c = build_constellation(order, 1.0, 0.1)
    sc = ChannelScenario(
        baud_rate_hz=100e9, laser=LaserModel(1e6), mismatch=PathMismatch(delta_l_m),
        n0=0.0 if snr_db is None else n0_from_snr_db(c, snr_db), pd_bandwidth_hz=pd_bandwidth_hz,
    )
    drives = np.random.default_rng(order).uniform(-math.pi, math.pi, (7, 2)).tolist()
    source = cpr._symbol_blocks(sc, c, 3, decimation, 2)
    next(source)
    got = np.array([source.send(tuple(drive)) for drive in drives])
    want = np.array(list(per_sample_blocks(sc, c, 3, decimation, 2, drives, chunk=3)))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_awgn_sums_have_the_per_sample_covariance():
    # The loop draws a block's AWGN as its two sums per axis (block mean and
    # the averaging low-pass's end state), z @ cpr._awgn_map(ww, sigma).  Their
    # covariance must be sigma^2 ww ww^T, and that of the same sums of full
    # per-sample draws through add_awgn and the 1 GHz low-pass, within 5
    # standard errors sqrt((C_ii C_jj + C_ij^2) / N) per entry.  A 40-sample
    # block at 5 ps keeps 0.28 of the filter state, so the two sums correlate.
    n, dt, n0, draws = 40, 5e-12, 0.02, 20_000
    sigma = math.sqrt(n0 / 2.0)
    _, ww, _ = cpr._block_weights(n, dt, None)
    noise_map = cpr._awgn_map(ww, sigma)
    want = sigma**2 * ww @ ww.T
    assert np.allclose(noise_map.T @ noise_map, want, rtol=1e-12, atol=0.0)
    w = averaging_impulse_weights(n, dt)
    assert np.allclose(ww, w, rtol=1e-12, atol=1e-15)

    rng = np.random.default_rng(11)
    drawn = rng.standard_normal((draws, 2)) @ noise_map
    per_sample = np.array([
        (y.mean(), zf[0])
        for y, zf in (one_pole_lowpass(add_awgn(np.zeros(n), n0, rng), dt, 1e9)
                      for _ in range(draws))
    ])
    cov = {name: x.T @ x / draws for name, x in (("drawn", drawn), ("per_sample", per_sample))}
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / draws)
    assert np.all(np.abs(cov["drawn"] - want) <= 5 * se)
    assert np.all(np.abs(cov["per_sample"] - want) <= 5 * se)
    # two independent estimates: their difference has sqrt(2) times the error
    assert np.all(np.abs(cov["drawn"] - cov["per_sample"]) <= 5 * math.sqrt(2) * se)


@pytest.mark.parametrize(
    "order, decimation", [(4, 2), (4, 1000), (16, 4), (16, 1000), (64, 8), (64, 1000)]
)
def test_chunk_permutations_equal_per_block_permutations(order, decimation):
    # A clean link draws only the level permutations, so its lock outputs do
    # not depend on the chunk size only while ``permuted`` along the last axis
    # consumes the stream as one ``permutation`` call per row does.
    c = build_constellation(order, 1.0, 0.1)
    base = np.repeat(c.levels, decimation // c.side)
    b = max(1, cpr.CHUNK_SAMPLES // (2 * decimation))
    buf = np.empty((b, 2, decimation))
    buf[...] = base
    rng, ref = stream_rng(3, 0x10C), stream_rng(3, 0x10C)
    rng.permuted(buf, axis=-1, out=buf)
    want = np.array([ref.permutation(base) for _ in range(2 * b)]).reshape(b, 2, decimation)
    assert np.array_equal(buf, want)
    assert rng.random() == ref.random()  # and both leave the stream at the same point


@pytest.mark.parametrize(
    "order, decimation, baud_rate_hz", [(16, 1000, 100e9), (4, 2, 2e8)], ids=["16qam", "dec2"]
)
def test_clean_lock_does_not_depend_on_chunk_size(monkeypatch, order, decimation, baud_rate_hz):
    # A clean link draws the same levels whatever the chunk size (the test
    # above pins that bit for bit).  The chunk's matmul may still round a row
    # differently with the number of rows in it (by ~1e-15 on OpenBLAS, whose
    # kernel takes rows four at a time), so the outputs agree to rounding;
    # different levels would move them by far more.
    c = build_constellation(order, 1.0, 0.1)
    sc = ChannelScenario(baud_rate_hz=baud_rate_hz, phi_offset_rad=0.6)
    reports = []
    for chunk_samples in (cpr.CHUNK_SAMPLES, 7 * 2 * decimation):
        monkeypatch.setattr(cpr, "CHUNK_SAMPLES", chunk_samples)
        reports.append(simulate_lock(
            sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-5, seed=4, decimation=decimation
        ))
    for name in ("time_s", "psi_rad", "delta_phi_rad", "error_v"):
        assert np.max(np.abs(getattr(reports[0], name) - getattr(reports[1], name))) <= 1e-12


def test_block_filtering_cost_does_not_grow_with_blocks(monkeypatch):
    # The filters are folded into per-run weights and the loop's bilinear
    # coefficients are computed once per run: running ten times as many
    # blocks must not call the low-pass once more, nor the coefficients.
    calls = []
    coefficient_calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return one_pole_lowpass(*args, **kwargs)

    def counted_coefficients(*args):
        coefficient_calls.append(1)
        return _loop_coefficients(*args)

    monkeypatch.setattr(cpr, "one_pole_lowpass", counted)
    monkeypatch.setattr(cpr, "_loop_coefficients", counted_coefficients)
    c = build_constellation(4, 1.0, 0.1)
    sc = ChannelScenario(
        baud_rate_hz=100e9, laser=LaserModel(1e6), mismatch=PathMismatch(0.1),
        n0=n0_from_snr_db(c, 19.0), pd_bandwidth_hz=50e9,
    )
    counts = {}
    for duration_s in (1e-6, 1e-5):
        calls.clear()
        coefficient_calls.clear()
        rep = simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, duration_s, seed=2)
        counts[len(rep.time_s)] = len(calls), len(coefficient_calls)
    assert counts == {100: (counts[100][0], 1), 1000: (counts[100][0], 1)}


class TestSimulateLock:
    def scenario(self, phi0=math.pi / 4, **kw):
        return ChannelScenario(baud_rate_hz=100e9, phi_offset_rad=phi0, **kw)

    def test_symbol_path_residual_matches_linear_model(self):
        c = build_constellation(4, 1.0, 0.1)
        rep = simulate_lock(
            self.scenario(), c, DEFAULT_LOOP, DetectorMethod.METHOD1, 3e-4, seed=5
        )
        analytic = (math.pi / 4) / (1 + DEFAULT_LOOP.dc_gain)
        assert rep.locked
        assert rep.lock_point_rad == 0.0
        assert rep.residual_rad == pytest.approx(analytic, rel=0.05)

    def test_method2_locks(self):
        c = build_constellation(4, 1.0, 0.1)
        rep = simulate_lock(
            self.scenario(0.3), c, DEFAULT_LOOP, DetectorMethod.METHOD2, 1e-4, seed=6
        )
        assert rep.locked
        assert rep.lock_point_rad == 0.0

    @pytest.mark.parametrize(
        "method, detector",
        [(DetectorMethod.METHOD1, error_method1), (DetectorMethod.METHOD2, error_method2)],
        ids=["method1", "method2"],
    )
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_clean_link_follows_ideal_detector_curve(self, order, method, detector):
        # decimation = side puts one DC-balanced set of levels on each axis
        # of a block, and at side symbols per 1e-7 s a sample lasts at least
        # 6.25 ns, in which the 1 GHz averaging low-pass forgets all but 1e-17
        # of its state: every block mean is the ideal a0*(cos +/- sin) of dphi.
        c = build_constellation(order, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=c.side / 1e-7, phi_offset_rad=0.6)
        rep = simulate_lock(sc, c, DEFAULT_LOOP, method, 2e-4, seed=4, decimation=c.side)
        k_pd = DEFAULT_LOOP.k_pd_v_per_rad
        want = k_pd / (2 * c.a0) * detector(*ideal_averages(c.a0, rep.delta_phi_rad))
        assert np.max(np.abs(rep.error_v - want)) <= 1e-12 * k_pd

    @pytest.mark.parametrize("deg", [-85, -45, -10, 10, 45, 85])
    def test_lock_basin_within_half_pi(self, deg):
        # The 1e-8 s loop step as two 200 MBaud symbols of 4-QAM: each block
        # then carries one DC-balanced set of levels per axis, and the 1 GHz
        # averaging low-pass forgets all but 1.5e-7 of its state within a
        # 2.5 ns sample, so the block means are the ideal a0*(cos +/- sin)
        # of the phase error on this clean link.
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=2e8, phi_offset_rad=math.radians(deg))
        rep = simulate_lock(
            sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 6e-4, seed=1, decimation=2
        )
        assert rep.locked
        assert rep.lock_point_rad == 0.0
        assert abs(rep.residual_rad) < math.radians(1.0)

    @pytest.mark.parametrize(
        "snr_db, pd_bandwidth_hz",
        [(None, None), (19.0, 50e9)],
        ids=["phase_noise_only", "awgn_pd_filter"],
    )
    def test_lock_tracks_phase_noise(self, snr_db, pd_bandwidth_hz):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(
            baud_rate_hz=100e9,
            laser=LaserModel(1e6),
            mismatch=PathMismatch(0.1),
            phi_offset_rad=0.0,
            n0=0.0 if snr_db is None else n0_from_snr_db(c, snr_db),
            pd_bandwidth_hz=pd_bandwidth_hz,
        )
        rep = simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, seed=9)
        assert rep.locked
        assert np.all(np.isfinite(rep.delta_phi_rad))
        # instantaneous jitter reflects the differential beat noise scale
        assert rep.delta_phi_rad[len(rep.delta_phi_rad) // 2:].std() < 0.2

    def test_long_mismatch_delay_runs(self):
        # At 100 m the delay is ~98k samples, about 12 chunks of 8k samples,
        # so each chunk's delayed phase comes from chunks drawn long before.
        c = build_constellation(16, 1.0, 0.1)
        sc = ChannelScenario(
            baud_rate_hz=100e9, laser=LaserModel(1e6), mismatch=PathMismatch(100.0)
        )
        rep = simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-6, seed=9)
        assert len(rep.delta_phi_rad) == 100
        assert np.all(np.isfinite(rep.delta_phi_rad))
        # the beat through 100 m has a std of ~1.75 rad, against ~0.05 rad at 10 cm
        assert rep.delta_phi_rad.std() > 0.2

    def test_small_signal_response_matches_linear_model(self):
        # Each loop step dtl is two 4-QAM symbols, one DC-balanced set of
        # levels per axis, and a sample lasts at least 2.5 ns, in which the
        # 1 GHz averaging low-pass forgets all but 1.5e-7 of its state: the
        # block means are the ideal a0*(cos +/- sin) of the phase error, so
        # the loop sees the linear model's detector without data ripple.
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
            sc = ChannelScenario(baud_rate_hz=2.0 / dtl, phi_offset_rad=0.0)
            rep = simulate_lock(
                sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1,
                settle_s + nper / f, seed=1, decimation=2,
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

    @pytest.mark.parametrize("sps", [0, -2])
    def test_rejects_samples_per_symbol_below_one(self, sps):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="samples_per_symbol"):
            simulate_lock(
                self.scenario(), c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, 1,
                samples_per_symbol=sps,
            )

    @pytest.mark.parametrize("decimation", [0, -2])
    def test_rejects_decimation_below_one(self, decimation):
        c = build_constellation(4, 1.0, 0.1)
        with pytest.raises(ValueError, match="decimation must be >= 1"):
            simulate_lock(
                self.scenario(), c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1e-4, 1,
                decimation=decimation,
            )

    def test_awgn_on_samples_longer_than_the_averaging_memory(self):
        # A 1 MBaud sample lasts 5e-7 s, over which the 1 GHz averaging low-pass
        # forgets its state: the block mean and the outgoing state are no longer
        # two independent sums of the AWGN, and their covariance is singular.
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=1e6, n0=n0_from_snr_db(c, 20.0))
        loop = replace(DEFAULT_LOOP, k_lf_v_per_v=3.0)  # crossover 3.6 kHz
        rep = simulate_lock(sc, c, loop, DetectorMethod.METHOD1, 1e-4, 1, decimation=4)
        assert len(rep.error_v) == 25
        assert np.all(np.isfinite(rep.delta_phi_rad)) and np.std(rep.error_v) > 0

    def test_rejects_too_coarse_loop_step(self):
        c = build_constellation(4, 1.0, 0.1)
        sc = ChannelScenario(baud_rate_hz=1e6, phi_offset_rad=0.1)
        with pytest.raises(ValueError, match="coarse"):
            simulate_lock(sc, c, DEFAULT_LOOP, DetectorMethod.METHOD1, 1.0, 1)
