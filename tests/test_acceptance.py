"""Acceptance suite: one test per release criterion.

Each criterion prints a single [PASS]/[FAIL] line with the measured
values before asserting, so the suite doubles as a verification report:

    pytest -s tests/test_acceptance.py
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.signal import bilinear, lfilter
from scipy.special import erfc

from oqamcpr.analysis import (
    DEFAULT_LOOP,
    bode_metrics,
    open_loop_response,
    scale_to_closed_loop_bandwidth,
    static_phase_error,
)
from oqamcpr.ber import (
    KP4_BER_THRESHOLD,
    NoiseEnvironment,
    axis_error_probabilities,
    ber_from_ser,
    monte_carlo_ber,
    required_snr_db,
    semi_analytic_ber,
    semi_analytic_ser,
)
from oqamcpr.channel import (
    DEFAULT_REFRACTIVE_INDEX,
    SPEED_OF_LIGHT_M_S,
    BeatNoise,
    ChannelScenario,
    LaserModel,
    PathMismatch,
    rotate_symbol,
    stream_rng,
)
from oqamcpr.cli import run_scenario
from oqamcpr.constellation import average_symbol_energy, build_constellation, demap_point, map_bits
from oqamcpr.cpr import DetectorMethod, error_method1, simulate_lock
from oqamcpr.phasenoise import total_variance

TAU_10CM = PathMismatch(0.1).tau_s


def check(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sigma_reference_loop():
    """Loop-filtered beat phase std for 1 MHz linewidth, 10 cm mismatch."""
    return math.sqrt(total_variance(1e6, TAU_10CM, DEFAULT_LOOP))


def test_criterion_1_dc_loop_gain_and_static_error():
    h0 = abs(open_loop_response(DEFAULT_LOOP, 0.0))
    err = static_phase_error(math.pi / 4, DEFAULT_LOOP)
    ok_gain = abs(h0 - 960.8) <= 0.001 * 960.8
    ok_err = abs(err - 0.817e-3) <= 0.01 * 0.817e-3
    check(
        "criterion 1 (DC loop gain, static error)",
        ok_gain and ok_err,
        f"H(0)={h0:.4f} (target 960.8 +-0.1%), "
        f"static error={err * 1e3:.6f} mrad (target 0.817 +-1%)",
    )


def test_criterion_2_bode_metrics_cross_check(tmp_path):
    # independent analytic evaluation: dense scan plus local bisection on
    # the three-factor response written out longhand
    def mag(f):
        s = 1j * 2 * math.pi * f
        h = (
            2.55e-2
            * 2.0
            * (1.2e3 * (1 + s / (2 * math.pi * 0.8e6)) / (1 + s / (2 * math.pi * 6e3)))
            * (15.7 / (1 + s / (2 * math.pi * 2e3)))
        )
        return abs(h)

    f_grid = np.logspace(0, 8, 1_000_001)
    s = 1j * 2 * math.pi * f_grid
    h_grid = (
        2.55e-2
        * 2.0
        * (1.2e3 * (1 + s / (2 * math.pi * 0.8e6)) / (1 + s / (2 * math.pi * 6e3)))
        * (15.7 / (1 + s / (2 * math.pi * 2e3)))
    )
    k = int(np.nonzero(np.abs(h_grid) < 1.0)[0][0])
    lo, hi = f_grid[k - 1], f_grid[k]
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if mag(mid) > 1:
            lo = mid
        else:
            hi = mid
    x_indep = math.sqrt(lo * hi)
    pm_indep = 180.0 + math.degrees(
        math.atan(x_indep / 0.8e6) - math.atan(x_indep / 6e3) - math.atan(x_indep / 2e3)
    )
    t_grid = np.abs(h_grid / (1 + h_grid))
    bw_indep = f_grid[int(np.nonzero(t_grid < t_grid[0] / math.sqrt(2))[0][0])]

    m = bode_metrics(DEFAULT_LOOP)
    ok = (
        abs(m.crossover_hz - x_indep) <= 0.005 * x_indep
        and abs(m.phase_margin_deg - pm_indep) <= 0.005 * pm_indep
        and abs(m.closed_loop_bw_hz - bw_indep) <= 0.005 * bw_indep
    )

    # the bundled report must flag the divergence from the stated
    # reference metrics (160 kHz / 61 deg / 216 kHz)
    result = run_scenario("bode_reference_loop", output_dir=str(tmp_path))
    manifest = json.loads(result.manifest.read_text())
    flagged = sum("reference_deviation" in n for n in manifest["notes"])
    ok = ok and flagged >= 3

    check(
        "criterion 2 (Bode cross-check)",
        ok,
        f"crossover={m.crossover_hz / 1e3:.2f} kHz (indep {x_indep / 1e3:.2f}), "
        f"PM={m.phase_margin_deg:.2f} deg (indep {pm_indep:.2f}), "
        f"BW={m.closed_loop_bw_hz / 1e3:.2f} kHz (indep {bw_indep / 1e3:.2f}), "
        f"{flagged} reference deviations flagged",
    )


@pytest.mark.parametrize("order", [4, 16, 64])
def test_criterion_3_lock_transient(order):
    c = build_constellation(order, 1.0, 0.1)
    scenario = ChannelScenario(baud_rate_hz=100e9, phi_offset_rad=math.pi / 4)
    report = simulate_lock(
        scenario, c, DEFAULT_LOOP, DetectorMethod.METHOD1, duration_s=5e-4, seed=7
    )
    analytic = (math.pi / 4) / (1 + DEFAULT_LOOP.dc_gain)
    ok = (
        report.locked
        and abs(report.residual_rad) < math.radians(1.0)
        and abs(report.residual_rad - analytic) <= 0.10 * analytic
    )
    check(
        f"criterion 3 (lock transient, {order}-offset-QAM)",
        ok,
        f"locked={report.locked}, residual={report.residual_rad * 1e3:.4f} mrad, "
        f"analytic={analytic * 1e3:.4f} mrad (+-10%), limit 1 deg",
    )


def test_criterion_4_variance_oracle(sigma_reference_loop):
    d = 4
    dt = TAU_10CM / d
    rng = np.random.default_rng(123)
    inc = rng.normal(0.0, math.sqrt(2 * math.pi * 1e6 * dt), 6_000_000)
    phi = np.cumsum(inc)
    theta = phi[d:] - phi[:-d]
    wp1, wp2, wz = 2 * math.pi * 6e3, 2 * math.pi * 2e3, 2 * math.pi * 0.8e6
    k = DEFAULT_LOOP.dc_gain
    num = np.array([1 / (wp1 * wp2), 1 / wp1 + 1 / wp2, 1.0])
    den = np.array([1 / (wp1 * wp2), 1 / wp1 + 1 / wp2 + k / wz, 1.0 + k])
    bz, az = bilinear(num, den, fs=1 / dt)
    filtered = lfilter(bz, az, theta)
    var_td = float(np.var(filtered[int(200e-6 / dt):]))
    var_fd = sigma_reference_loop**2
    ok = abs(var_fd - var_td) <= 0.10 * var_td
    check(
        "criterion 4 (phase-noise variance oracle)",
        ok,
        f"frequency-domain={var_fd:.4e} rad^2, time-domain={var_td:.4e} rad^2, "
        f"ratio={var_fd / var_td:.4f} (+-10%)",
    )


def test_criterion_5_closed_form_degeneracy():
    c4 = build_constellation(4, 1.0, 0.0)
    es4 = average_symbol_energy(c4)
    worst_qpsk = 0.0
    for snr_db in np.arange(4.0, 14.25, 0.5):
        n0 = es4 / 10 ** (snr_db / 10)
        ber = semi_analytic_ber(c4, NoiseEnvironment(n0))
        expected = 0.5 * erfc(math.sqrt(es4 / (2 * n0)))
        worst_qpsk = max(worst_qpsk, abs(ber - expected))

    # independent scalar 16-QAM oracle: per-axis Gray-coded 4-PAM
    def textbook_16(es, n0):
        dd = math.sqrt(es / 10)
        levels = [-3 * dd, -dd, dd, 3 * dd]
        thresholds = [-2 * dd, 0.0, 2 * dd]
        gray = [0, 1, 3, 2]
        p_axis_err = 0.0
        exp_flips = 0.0
        bounds = [-math.inf] + thresholds + [math.inf]
        for i, lv in enumerate(levels):
            for j in range(4):
                # P(lv + noise lands in region j), noise variance n0/2
                below_hi = (
                    1.0
                    if bounds[j + 1] == math.inf
                    else 0.5 * erfc((lv - bounds[j + 1]) / math.sqrt(n0))
                )
                below_lo = (
                    0.0
                    if bounds[j] == -math.inf
                    else 0.5 * erfc((lv - bounds[j]) / math.sqrt(n0))
                )
                p_region = below_hi - below_lo
                if j != i:
                    p_axis_err += p_region / 4
                exp_flips += p_region * bin(gray[i] ^ gray[j]).count("1") / 4
        ser = 1 - (1 - p_axis_err) ** 2
        ber = 2 * exp_flips / 4
        return ser, ber

    c16 = build_constellation(16, 1.0, 0.0)
    es16 = average_symbol_energy(c16)
    worst_16 = 0.0
    for snr_db in (10.0, 13.0, 16.0, 19.0):
        n0 = es16 / 10 ** (snr_db / 10)
        ser_ref, ber_ref = textbook_16(es16, n0)
        worst_16 = max(worst_16, abs(semi_analytic_ser(c16, NoiseEnvironment(n0)) - ser_ref))
        worst_16 = max(worst_16, abs(semi_analytic_ber(c16, NoiseEnvironment(n0)) - ber_ref))

    ok = worst_qpsk < 1e-6 and worst_16 < 1e-6
    check(
        "criterion 5 (closed-form degeneracy)",
        ok,
        f"max |BER - QPSK closed form| = {worst_qpsk:.2e} over 4..14 dB, "
        f"max 16-QAM deviation = {worst_16:.2e} (limits 1e-6)",
    )


def test_criterion_6_closed_form_conditional_equivalence():
    worst = 0.0
    count = 0
    thetas = (-0.3, -0.25, -0.1, -0.05, 0.05, 0.1, 0.25)
    for m, x in itertools.product((0.0, 0.1, 0.5, 1.0), (1.0, 3.0, 6.0, 8.0)):
        env = NoiseEnvironment(n0=1.0 / x**2)
        c4 = build_constellation(4, 1.0, m)
        s1_4 = int(np.argmin(np.sum((c4.points - [0.5 + m, -0.5 + m]) ** 2, axis=1)))
        c16 = build_constellation(16, 1.0, m)
        s1_16 = int(
            np.argmin(np.sum((c16.points - [-1 / 6 + m, -1 / 2 + m]) ** 2, axis=1))
        )
        for theta in thetas:
            p_i4, _ = axis_error_probabilities(c4, s1_4, theta, env)
            ref4 = 0.5 * erfc(
                -x * (m - (m + 0.5) * math.cos(theta) - (m - 0.5) * math.sin(theta))
            )
            p_i16, p_q16 = axis_error_probabilities(c16, s1_16, theta, env)
            ref16_i = 0.5 * erfc(
                -x * ((m - 1 / 3) - (m - 1 / 6) * math.cos(theta) - (m - 1 / 2) * math.sin(theta))
            ) + 0.5 * erfc(
                x * (m - (m - 1 / 6) * math.cos(theta) - (m - 1 / 2) * math.sin(theta))
            )
            ref16_q = 0.5 * erfc(
                x * ((m - 1 / 3) - (m - 1 / 2) * math.cos(theta) + (m - 1 / 6) * math.sin(theta))
            )
            for got, ref in ((p_i4, ref4), (p_i16, ref16_i), (p_q16, ref16_q)):
                if ref > 0:
                    worst = max(worst, abs(got - ref) / ref)
            count += 1
    ok = worst < 1e-10 and count >= 100
    check(
        "criterion 6 (closed-form conditional equivalence)",
        ok,
        f"worst relative deviation {worst:.2e} over {count} sampled points (limit 1e-10)",
    )


def test_criterion_7_semi_analytic_vs_monte_carlo(sigma_reference_loop):
    c = build_constellation(16, 1.0, 0.1)
    es = average_symbol_energy(c)
    n = 10_000_000
    details = []
    ok = True
    for snr_db in (8.0, 11.0, 14.0, 17.0, 19.0):
        n0 = es / 10 ** (snr_db / 10)
        env = NoiseEnvironment(n0, sigma_reference_loop)
        mc_ber, mc_ser, _ = monte_carlo_ber(c, env, n, seed=31)
        sa_ser = semi_analytic_ser(c, env)
        sa_ber = semi_analytic_ber(c, env)
        if sa_ber < 1e-5:
            continue
        s_ser = math.sqrt(sa_ser * (1 - sa_ser) / n)
        s_ber = math.sqrt(sa_ber * (1 - sa_ber) / (4 * n))
        dev_ser = abs(mc_ser - sa_ser) / s_ser
        dev_ber = abs(mc_ber - sa_ber) / s_ber
        ok = ok and dev_ser <= 3.0 and dev_ber <= 3.0
        details.append(f"{snr_db:g}dB: {dev_ser:.2f}/{dev_ber:.2f} sigma")
    check(
        "criterion 7 (semi-analytic vs Monte Carlo)",
        ok,
        "SER/BER deviations " + ", ".join(details) + " (limit 3 sigma)",
    )


@pytest.fixture(scope="module")
def penalty_thresholds(sigma_reference_loop):
    c4 = build_constellation(4, 1.0, 0.1)
    c16 = build_constellation(16, 1.0, 0.1)
    sig_100k = math.sqrt(total_variance(1e5, TAU_10CM, DEFAULT_LOOP))
    sig_1m = sigma_reference_loop
    loops = {
        bw: scale_to_closed_loop_bandwidth(DEFAULT_LOOP, bw) for bw in (1e7, 1e8)
    }
    sig_bw = {
        bw: math.sqrt(total_variance(1e6, TAU_10CM, p)) for bw, p in loops.items()
    }
    return {
        "t4_100k": required_snr_db(c4, sig_100k),
        "t4_1m": required_snr_db(c4, sig_1m),
        "t16_100k": required_snr_db(c16, sig_100k),
        "t16_1m": required_snr_db(c16, sig_1m),
        "t16_clean": required_snr_db(c16, 0.0),
        "t16_bw10m": required_snr_db(c16, sig_bw[1e7]),
        "t16_bw100m": required_snr_db(c16, sig_bw[1e8]),
    }


def test_criterion_8a_linewidth_penalty_4qam(penalty_thresholds):
    p = penalty_thresholds["t4_1m"] - penalty_thresholds["t4_100k"]
    ok = abs(p - 0.2) <= 0.3
    check(
        "criterion 8a (4-QAM linewidth 100 kHz -> 1 MHz penalty)",
        ok,
        f"computed {p:.3f} dB, target 0.2 +- 0.3 dB",
    )


def test_criterion_8b_linewidth_penalty_16qam(penalty_thresholds):
    p = penalty_thresholds["t16_1m"] - penalty_thresholds["t16_100k"]
    ok = abs(p - 2.0) <= 0.3
    check(
        "criterion 8b (16-QAM linewidth 100 kHz -> 1 MHz penalty)",
        ok,
        f"computed {p:.3f} dB, target 2.0 +- 0.3 dB",
    )


def test_criterion_8c_mismatch_penalty_16qam(penalty_thresholds):
    p = penalty_thresholds["t16_1m"] - penalty_thresholds["t16_clean"]
    ok = abs(p - 1.0) <= 0.3
    check(
        "criterion 8c (16-QAM mismatch 0 -> 10 cm penalty)",
        ok,
        f"computed {p:.3f} dB, target 1.0 +- 0.3 dB",
    )


def test_criterion_8d_loop_bandwidth_penalty_16qam(penalty_thresholds):
    p = penalty_thresholds["t16_bw10m"] - penalty_thresholds["t16_bw100m"]
    ok = abs(p - 1.0) <= 0.3
    check(
        "criterion 8d (16-QAM loop bandwidth 10 MHz vs 100 MHz penalty)",
        ok,
        f"computed {p:.3f} dB, target 1.0 +- 0.3 dB",
    )


def test_criterion_9_kp4_at_19db(sigma_reference_loop):
    c = build_constellation(16, 1.0, 0.1)
    es = average_symbol_energy(c)
    n0 = es / 10**1.9
    ber = ber_from_ser(
        semi_analytic_ser(c, NoiseEnvironment(n0, sigma_reference_loop)), 16
    )
    ok = ber <= KP4_BER_THRESHOLD
    check(
        "criterion 9 (KP4 at 19 dB, 16-offset-QAM, 1 MHz, 10 cm)",
        ok,
        f"BER={ber:.4e} at Es/N0=19 dB, threshold {KP4_BER_THRESHOLD:.1e}, "
        f"sigma={sigma_reference_loop:.5f} rad",
    )


def test_criterion_10_property_bundle(tmp_path):
    failures = []

    # constellation invariants
    for order in (4, 16, 64):
        c = build_constellation(order, 1.0, 0.1)
        if not np.allclose(c.points.mean(axis=0), [0.1, 0.1], atol=1e-12):
            failures.append(f"DC balance {order}")
        bits_all = itertools.product((0, 1), repeat=c.bits_per_symbol)
        if any(tuple(demap_point(c, *map_bits(c, b))) != b for b in bits_all):
            failures.append(f"map/demap {order}")

    # rotation isometry
    rng = np.random.default_rng(2)
    i, q = rng.normal(size=500), rng.normal(size=500)
    ip, qp = rotate_symbol(i, q, 0.1, 0.7)
    if not np.allclose(ip**2 + qp**2, (i + 0.1) ** 2 + (q + 0.1) ** 2, rtol=1e-10):
        failures.append("rotation isometry")

    # Wiener increment statistics of the lock path's beat source: through a
    # one-sample delay (tau = dt) the beat phase is the increment sequence
    one_sample = PathMismatch(1e-11 * SPEED_OF_LIGHT_M_S / DEFAULT_REFRACTIVE_INDEX)
    beat = BeatNoise(LaserModel(1e6), one_sample, 1e-11, stream_rng(3, 0x10C))
    inc_var = float(np.var(beat.draw(500_000)))
    inc_expected = 2 * math.pi * 1e6 * 1e-11
    if beat.delay_samples != 1 or abs(inc_var - inc_expected) > 0.02 * inc_expected:
        failures.append("Wiener increments")

    # detector oddness and modulation-order independence
    grid = np.linspace(0.05, 1.2, 20)
    for a0 in (0.1, 0.5):
        i_avg = a0 * (np.cos(grid) + np.sin(grid))
        q_avg = a0 * (np.cos(grid) - np.sin(grid))
        i_neg = a0 * (np.cos(-grid) + np.sin(-grid))
        q_neg = a0 * (np.cos(-grid) - np.sin(-grid))
        if not np.allclose(error_method1(i_neg, q_neg), -error_method1(i_avg, q_avg), atol=1e-12):
            failures.append("detector oddness")
    e4 = error_method1(*_averaged_error_inputs(4, 0.25))
    e16 = error_method1(*_averaged_error_inputs(16, 0.25))
    if abs(e4 - e16) > 0.02 * abs(e4):
        failures.append("order independence")

    # SER monotone in phase noise
    c = build_constellation(16, 1.0, 0.1)
    es = average_symbol_energy(c)
    sers = [
        semi_analytic_ser(c, NoiseEnvironment(es / 10**1.6, s))
        for s in (0.0, 0.03, 0.06)
    ]
    if not all(b > a for a, b in zip(sers, sers[1:])):
        failures.append("SER monotonicity")

    # manifest reproducibility
    cfg = {
        "modulation": {"order": 4, "m_ratio": 0.1},
        "run": {
            "mode": "ber-sweep",
            "label": "prop",
            "seed": 5,
            "snr_grid_db": [6.0, 8.0, 10.0, 12.0],
        },
    }
    first = run_scenario(cfg, output_dir=str(tmp_path / "a"))
    replay = json.loads(first.manifest.read_text())["config"]
    second = run_scenario(replay, output_dir=str(tmp_path / "b"))
    for fa, fb in zip(sorted(first.files), sorted(second.files)):
        if fa.read_bytes() != fb.read_bytes():
            failures.append("manifest reproducibility")

    check(
        "criterion 10 (property suites)",
        not failures,
        "all property groups pass" if not failures else f"failing: {failures}",
    )


def _averaged_error_inputs(order, dphi):
    rng = np.random.default_rng(17)
    c = build_constellation(order, 1.0, 0.5)
    idx = rng.integers(0, order, 300_000)
    rel = c.points[idx] - c.a0
    i_rx, q_rx = rotate_symbol(rel[:, 0], rel[:, 1], c.a0, dphi)
    return float(np.mean(i_rx[100_000:])), float(np.mean(q_rx[100_000:]))
