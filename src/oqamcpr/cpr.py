"""Phase-error detectors and the discrete-time closed-loop simulation.

Two detectors act on the low-pass averaged I/Q voltages:

* method 1 subtracts the averages and flips the sign with a comparator on
  their sum, giving -sign(i+q) * (i-q); for ideal averages this is
  -sign(cos dphi) * 2 a0 sin(dphi), a stable negative slope through 0.
* method 2 mixes each average with the sign of the other and subtracts,
  sign(i) q - sign(q) i, a sawtooth with pi/2 periodicity.

The closed-loop simulator runs a two-rate scheme: the data path advances
at the symbol rate (nominally 100 GBaud) while the loop filter and phase
shifter update once per decimated block, since the loop bandwidth sits
five decades below the symbol rate.  Both dynamic blocks are discretized
with the bilinear transform, which preserves DC gains exactly and is
stable for any step size; their coefficients are computed once per run.
The symbol-rate data path takes its beat phase from ``channel.BeatNoise``
and its rotation from ``channel``, so the loop runs the same channel model
that the channel tests check.  It filters no samples inside the loop: with
alpha = input phase - psi the rotation is cos(alpha) and sin(alpha) times
the data rotated by the beat phase alone, and the PD and averaging
low-passes are linear, so a block's mean and the filters' end states are
fixed weighted sums of its draws plus terms in the incoming states.  Each
chunk of blocks is drawn and reduced to those sums at once, and the loop
does only scalar work per block.  A chunk draws its level permutations in
one call, its beat phase in one call, and its AWGN as the sums themselves
(Gaussian with a known 2x2 covariance), never as per-sample noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .analysis import LoopParams
from .channel import BeatNoise, ChannelScenario, one_pole_lowpass, rotate_symbol, stream_rng
from .constellation import OffsetQamConstellation

DEFAULT_AVERAGING_CUTOFF_HZ = 1e9
HYSTERESIS_FRACTION = 0.01
LOCK_TOLERANCE_RAD = math.radians(1.0)
# The detectors read the offset a0 against data of swing a_oma, which below
# this m_ratio outweighs it a thousandfold.
MIN_LOCK_M_RATIO = 1e-3
# Samples per chunk of blocks drawn at once.  A constant, not a knob: with
# beat noise or AWGN a seed's draws depend on it.  A clean link's draws do
# not, but its outputs do in the last bits: the chunk's matmul rounds with
# its row count.  The lock presets' byte-identical CSVs rest on this value
# and on the BLAS build.
CHUNK_SAMPLES = 1 << 13


class DetectorMethod(enum.Enum):
    METHOD1 = "method1"
    METHOD2 = "method2"


def _sgn(x):
    """Sign with sign(0) = +1, for floats (no numpy) or numpy arrays."""
    return 2.0 * (x >= 0) - 1.0


def error_method1(i_avg, q_avg):
    """Select-signal detector: -sign(i_avg + q_avg) * (i_avg - q_avg).

    Takes floats or numpy arrays."""
    return -_sgn(i_avg + q_avg) * (i_avg - q_avg)


def error_method2(i_avg, q_avg):
    """Sign-mixing detector: sign(i_avg) * q_avg - sign(q_avg) * i_avg.

    Takes floats or numpy arrays."""
    return _sgn(i_avg) * q_avg - _sgn(q_avg) * i_avg


def _loop_coefficients(params: LoopParams, dt_s: float):
    """Bilinear coefficients of the loop's two first-order blocks at step dt_s.

    Returns the lead-lag loop filter's (b0, b1, a1), with DC gain K_lf and
    a first-step gain approaching K_lf * f_lf_pole / f_lf_zero for small
    steps, and the phase shifter's (b0, a1), with DC gain K_ps and the
    thermal pole f_ps (its b1 equals b0).  Each block runs
    y = b0 x + z, then z = b1 x - a1 y.
    """
    az = 2.0 / (dt_s * 2.0 * math.pi * params.f_lf_zero_hz)
    ap = 2.0 / (dt_s * 2.0 * math.pi * params.f_lf_pole_hz)
    aps = 2.0 / (dt_s * 2.0 * math.pi * params.f_ps_hz)
    k = params.k_lf_v_per_v
    return (
        (k * (1.0 + az) / (1.0 + ap), k * (1.0 - az) / (1.0 + ap), (1.0 - ap) / (1.0 + ap)),
        (params.k_ps_rad_per_v / (1.0 + aps), (1.0 - aps) / (1.0 + aps)),
    )


@dataclass(eq=False)
class LockReport:
    """Loop-grid time series plus steady-state lock diagnostics.

    residual_rad is the mean phase error over the final tenth of the run
    measured from the nearest detector lock point (a multiple of pi for
    method 1); locked additionally requires that the error is no longer
    drifting.
    """

    time_s: np.ndarray
    psi_rad: np.ndarray
    delta_phi_rad: np.ndarray
    error_v: np.ndarray
    residual_rad: float
    lock_point_rad: float
    locked: bool
    method: DetectorMethod


def _finish_report(t, psi, dphi, err, method) -> LockReport:
    n = len(dphi)
    tail = dphi[int(0.9 * n):]
    half = len(tail) // 2
    mean_tail = float(np.mean(tail))
    drift = abs(float(np.mean(tail[half:])) - float(np.mean(tail[:half])))
    period = math.pi if method is DetectorMethod.METHOD1 else math.pi / 2
    lock_point = period * round(mean_tail / period)
    residual = mean_tail - lock_point

    locked = abs(residual) < LOCK_TOLERANCE_RAD and drift < LOCK_TOLERANCE_RAD / 2
    return LockReport(
        time_s=t,
        psi_rad=psi,
        delta_phi_rad=dphi,
        error_v=err,
        residual_rad=residual,
        lock_point_rad=lock_point,
        locked=locked,
        method=method,
    )


def _block_weights(n: int, dt_s: float, pd_cutoff_hz: float | None):
    """Weights (wx, ww, s) of a block's PD low-pass, AWGN and averaging low-pass.

    For PD input x, AWGN w and incoming states z = (z_pd, z_avg), the block mean
    and the outgoing z_avg and z_pd are the rows of ``wx @ x + ww @ w + s @ z``."""
    def through(rows, cutoff_hz):
        # Weights on a low-pass's output and on its outgoing zi = a * y[n - 1]
        # -> the same on its input (the filter run in reverse), and on its zi.
        a = np.exp(-2.0 * np.pi * cutoff_hz * dt_s)
        rows = np.vstack([rows, np.eye(1, n, n - 1) * a])
        ins = [one_pole_lowpass(c[::-1], dt_s, cutoff_hz)[0][::-1] for c in rows]
        return np.array(ins), rows @ a ** np.arange(n)

    ww, s_avg = through(np.full((1, n), 1.0 / n), DEFAULT_AVERAGING_CUTOFF_HZ)
    wx, s_pd = (through(ww, pd_cutoff_hz) if pd_cutoff_hz is not None
                else (np.vstack([ww, np.zeros(n)]), np.zeros(3)))
    return wx, ww, np.column_stack([s_pd, [*s_avg, 0.0]])


def _awgn_map(ww, sigma):
    """M: z @ M for standard normals z (..., 2) has the law of ww @ w, w AWGN of std sigma."""
    cov = ww @ ww.T
    try:
        return sigma * np.linalg.cholesky(cov).T
    except np.linalg.LinAlgError:  # a sample so long that the averaging state forgets the block
        w, v = np.linalg.eigh(cov)
        return sigma * np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T


def _symbol_blocks(scenario, constellation, seed, decimation, samples_per_symbol):
    """Block source of the symbol-level data path.

    Receives (input phase, psi) and yields (i_avg, q_avg, dphi) for one
    block of ``decimation`` symbols: rotation by the per-sample phase
    error (input phase plus the channel's beat phase, minus psi),
    optional photodetector filter and AWGN, then the block mean of the
    averaging low-pass; dphi is the phase error of the last sample.  With
    alpha = input phase - psi, i_rx = cos(alpha) U + sin(alpha) V and
    q_rx = cos(alpha) V - sin(alpha) U, where (U, V) is the data rotated by
    the beat phase alone.
    """
    a0 = constellation.a0
    dt_samp = 1.0 / (scenario.baud_rate_hz * samples_per_symbol)
    n_samp = decimation * samples_per_symbol
    # Each axis carries a seeded permutation of an exactly DC-balanced
    # level multiset per block, matching the DC-balanced line-coding
    # assumption behind average-power phase detection; i.i.d. levels would
    # add pattern-ripple jitter well above the sub-mrad steady-state error.
    balanced_base = np.repeat(constellation.levels, decimation // constellation.side)

    # One stream, drawn per chunk of b blocks: the 2b level permutations, the
    # chunk's beat phase, then its AWGN sums.  So with beat noise or AWGN a
    # seed's draws depend on CHUNK_SAMPLES; a clean link draws only the
    # permutations, exactly as per-block ``permutation`` calls would, though
    # its block sums still round with b.
    rng = stream_rng(seed, 0x10C)
    beat = BeatNoise(scenario.laser, scenario.mismatch, dt_samp, rng)
    sigma = math.sqrt(scenario.n0 / 2.0)

    wx, ww, s = _block_weights(n_samp, dt_samp, scenario.pd_bandwidth_hz)
    noise_map = _awgn_map(ww, sigma)
    # With theta = 0, U = i_sym + a0 is constant over a symbol's samples.
    wx_sym = wx.reshape(3, decimation, samples_per_symbol).sum(axis=2)
    (m_pd, m_avg), (f_pd, f_avg), (p_pd, _) = s.tolist()
    z_pd_i = z_pd_q = z_avg_i = z_avg_q = 0.0  # zero initial filter state

    b = max(1, CHUNK_SAMPLES // n_samp)  # blocks per chunk
    sym = np.empty((b, 2, decimation))
    block = None
    while True:  # the caller stops sending after its last block
        sym[...] = balanced_base
        rng.permuted(sym, axis=-1, out=sym)  # in place: C-contiguous, no new array per chunk
        theta = beat.draw(b * n_samp)
        if theta is None:
            u_sums, v_sums = (sym + a0).transpose(1, 0, 2) @ wx_sym.T
        else:
            u, v = rotate_symbol(*np.repeat(sym, samples_per_symbol, axis=2).transpose(1, 0, 2),
                                 a0, theta.reshape(b, n_samp))
            u_sums, v_sums = u @ wx.T, v @ wx.T
        n_sums = rng.standard_normal((b, 2, 2)) @ noise_map if sigma else np.zeros((b, 2, 2))
        ends = [None] * b if theta is None else theta[n_samp - 1::n_samp].tolist()
        sums = zip(u_sums.tolist(), v_sums.tolist(), n_sums.tolist(), ends)
        for (um, uf, up), (vm, vf, vp), ((nim, nif), (nqm, nqf)), end in sums:
            phi_in, psi = yield block
            alpha = phi_in - psi
            ca, sa = math.cos(alpha), math.sin(alpha)
            # Block mean rather than an end-point sample: the physical loop
            # filter integrates continuously, so sampling the instantaneous
            # average would alias broadband pattern ripple into the loop.
            i_avg = ca * um + sa * vm + nim + m_pd * z_pd_i + m_avg * z_avg_i
            q_avg = ca * vm - sa * um + nqm + m_pd * z_pd_q + m_avg * z_avg_q
            z_avg_i = ca * uf + sa * vf + nif + f_pd * z_pd_i + f_avg * z_avg_i
            z_avg_q = ca * vf - sa * uf + nqf + f_pd * z_pd_q + f_avg * z_avg_q
            z_pd_i = ca * up + sa * vp + p_pd * z_pd_i
            z_pd_q = ca * vp - sa * up + p_pd * z_pd_q
            block = (i_avg, q_avg, alpha if end is None else (phi_in + end) - psi)


def simulate_lock(
    scenario: ChannelScenario,
    constellation: OffsetQamConstellation,
    params: LoopParams,
    method: DetectorMethod,
    duration_s: float,
    seed: int,
    *,
    decimation: int = 1000,
    samples_per_symbol: int = 2,
    phase_drive=None,
) -> LockReport:
    """Closed-loop lock acquisition on a decimated loop grid.

    The data path rotates random symbols, ``samples_per_symbol`` samples
    each, by the instantaneous phase error and extracts the block-averaged
    I/Q voltages; the detector output is scaled by k_pd / (2 a0) so its
    small-signal slope matches the configured detector gain, then drives
    the loop filter, driver, and phase shifter once per block of
    ``decimation`` symbols (rounded up to a multiple of the level count,
    so each axis carries DC-balanced data).  The averaging low-pass has a
    fixed 1 GHz cutoff and the method-1 comparator a hysteresis of 1% of
    2 a0.  On a clean link with one balanced level set per block and a
    symbol period well above 1 ns, the block means are the ideal
    a0*(cos+sin), a0*(cos-sin) of the phase error.

    ``phase_drive`` is an optional callable t -> rad added to the input
    phase for loop-response probing.

    Non-convergence shows up as ``locked=False`` in the report, never as
    an exception.
    """
    if constellation.m_ratio < MIN_LOCK_M_RATIO:
        raise ValueError(f"offset-QAM phase detection requires a0 >= {MIN_LOCK_M_RATIO:g} a_oma")
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    side = constellation.side
    decimation = ((decimation + side - 1) // side) * side

    dt_loop = decimation / scenario.baud_rate_hz
    metrics = analysis.bode_metrics(params)
    if metrics.crossover_hz is not None and dt_loop * metrics.crossover_hz > 1 / 50:
        raise ValueError(
            f"loop step decimation/baud_rate_hz = {dt_loop:g} s too coarse for crossover "
            f"{metrics.crossover_hz:g} Hz: need dt_loop <= 1/(50*crossover)"
        )
    n_blocks = int(round(duration_s / dt_loop))
    if n_blocks < 20:
        raise ValueError(f"duration_s={duration_s:g} must span at least 20 loop updates")

    a0 = constellation.a0
    source = _symbol_blocks(scenario, constellation, seed, decimation, samples_per_symbol)
    next(source)

    error_scale = params.k_pd_v_per_rad / (2.0 * a0)
    # Method 1's select comparator keeps its sign until i+q crosses the
    # hysteresis band, so it does not chatter near zero.
    threshold = HYSTERESIS_FRACTION * 2.0 * a0
    sel = 1.0
    (lf_b0, lf_b1, lf_a1), (ps_b0, ps_a1) = _loop_coefficients(params, dt_loop)
    lf_z = ps_z = 0.0  # the two blocks' delay states

    t_rec = np.arange(n_blocks) * dt_loop
    psi_rec = np.empty(n_blocks)
    dphi_rec = np.empty(n_blocks)
    err_rec = np.empty(n_blocks)

    psi = 0.0
    for k in range(n_blocks):
        phi_in = scenario.phi_offset_rad
        if phase_drive is not None:
            phi_in += phase_drive(t_rec[k])
        i_avg, q_avg, dphi = source.send((phi_in, psi))

        if method is DetectorMethod.METHOD1:
            if abs(i_avg + q_avg) > threshold:
                sel = math.copysign(1.0, i_avg + q_avg)
            e_raw = -sel * (i_avg - q_avg)
        else:
            e_raw = error_method2(i_avg, q_avg)
        e_v = error_scale * e_raw
        # Negative-slope detector, inverting driver path: net feedback
        # pulls psi toward the input phase.
        v_lf = lf_b0 * -e_v + lf_z
        lf_z = lf_b1 * -e_v - lf_a1 * v_lf
        v_ps = params.k_driver_v_per_v * v_lf
        psi_new = ps_b0 * v_ps + ps_z
        ps_z = ps_b0 * v_ps - ps_a1 * psi_new
        psi_rec[k] = psi
        dphi_rec[k] = dphi
        err_rec[k] = e_v
        psi = psi_new

    return _finish_report(t_rec, psi_rec, dphi_rec, err_rec, method)
