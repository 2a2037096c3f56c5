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
stable for any step size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .analysis import LoopParams
from .channel import (
    ChannelScenario,
    delay_in_samples,
    one_pole_lowpass,
    stream_rng,
)
from .constellation import OffsetQamConstellation

DEFAULT_AVERAGING_CUTOFF_HZ = 1e9
HYSTERESIS_FRACTION = 0.01
LOCK_TOLERANCE_RAD = math.radians(1.0)


class DetectorMethod(enum.Enum):
    METHOD1 = "method1"
    METHOD2 = "method2"


def _sgn(x):
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def error_method1(i_avg, q_avg):
    """Select-signal detector: -sign(i_avg + q_avg) * (i_avg - q_avg)."""
    out = -_sgn(np.asarray(i_avg) + np.asarray(q_avg)) * (
        np.asarray(i_avg) - np.asarray(q_avg)
    )
    return out if out.ndim else float(out)


def error_method2(i_avg, q_avg):
    """Sign-mixing detector: sign(i_avg) * q_avg - sign(q_avg) * i_avg."""
    i_avg = np.asarray(i_avg)
    q_avg = np.asarray(q_avg)
    out = _sgn(i_avg) * q_avg - _sgn(q_avg) * i_avg
    return out if out.ndim else float(out)


class HystereticSign:
    """Comparator with symmetric hysteresis to avoid chatter near zero."""

    def __init__(self, threshold: float, state: float = 1.0):
        self.threshold = threshold
        self.state = state

    def update(self, value: float) -> float:
        if self.state > 0 and value < -self.threshold:
            self.state = -1.0
        elif self.state < 0 and value > self.threshold:
            self.state = 1.0
        return self.state


def lowpass_average(
    i_trace,
    q_trace,
    dt_s: float,
    cutoff_hz: float = DEFAULT_AVERAGING_CUTOFF_HZ,
):
    """Average-extracting low-pass of the I and Q traces.

    For long DC-balanced symbol streams at a constant phase error the
    outputs converge to a0*(cos+sin) and a0*(cos-sin).  The default
    cutoff sits three decades above the loop crossover and well below the
    symbol rate.
    """
    i_avg, _ = one_pole_lowpass(i_trace, dt_s, cutoff_hz)
    q_avg, _ = one_pole_lowpass(q_trace, dt_s, cutoff_hz)
    return i_avg, q_avg


@dataclass
class FirstOrderState:
    """One delay element of a bilinear-discretized first-order block."""

    z: float = 0.0


def _lead_lag_coeffs(params: LoopParams, dt_s: float):
    az = 2.0 / (dt_s * 2.0 * math.pi * params.f_lf_zero_hz)
    ap = 2.0 / (dt_s * 2.0 * math.pi * params.f_lf_pole_hz)
    k = params.k_lf_v_per_v
    b0 = k * (1.0 + az) / (1.0 + ap)
    b1 = k * (1.0 - az) / (1.0 + ap)
    a1 = (1.0 - ap) / (1.0 + ap)
    return b0, b1, a1


def step_loop_filter(
    state: FirstOrderState, v_in: float, dt_s: float, params: LoopParams
) -> float:
    """One bilinear step of the lead-lag loop filter.

    DC gain K_lf, instantaneous (high-frequency) gain approaching
    K_lf * f_lf_pole / f_lf_zero for small steps.
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be > 0")
    b0, b1, a1 = _lead_lag_coeffs(params, dt_s)
    y = b0 * v_in + state.z
    state.z = b1 * v_in - a1 * y
    return y


def step_phase_shifter(
    state: FirstOrderState,
    v_in: float,
    dt_s: float,
    params: LoopParams,
    range_rad: float | None = None,
) -> float:
    """One bilinear step of the first-order phase shifter (rad out).

    DC gain K_ps with the thermal pole f_ps.  With range_rad set, the
    output clamps to +/- range_rad and the state is rewound to the clamp
    (simple anti-windup).
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be > 0")
    ap = 2.0 / (dt_s * 2.0 * math.pi * params.f_ps_hz)
    b0 = params.k_ps_rad_per_v / (1.0 + ap)
    a1 = (1.0 - ap) / (1.0 + ap)
    y = b0 * v_in + state.z
    if range_rad is not None and abs(y) > range_rad:
        y = math.copysign(range_rad, y)
    state.z = b0 * v_in - a1 * y
    return y


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
    metadata: dict = field(default_factory=dict)


def _finish_report(t, psi, dphi, err, method, metadata) -> LockReport:
    n = len(dphi)
    tail = dphi[int(0.9 * n):]
    mean_tail = float(np.mean(tail))
    period = math.pi if method is DetectorMethod.METHOD1 else math.pi / 2
    lock_point = period * round(mean_tail / period)
    residual = mean_tail - lock_point

    half = len(tail) // 2
    drift = abs(float(np.mean(tail[half:])) - float(np.mean(tail[:half])))
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
        metadata=metadata,
    )


def _averaged_blocks(a0: float, dt_loop: float):
    """Block source of the averaged data path (noiseless, one update per step).

    Receives (input phase, psi) and yields (i_avg, q_avg, dphi): the
    averaging low-pass driven by a0*(cos+sin), a0*(cos-sin).
    """
    a_avg = math.exp(-2.0 * math.pi * DEFAULT_AVERAGING_CUTOFF_HZ * dt_loop)
    i_avg = q_avg = 0.0
    block = None
    while True:
        phi_in, psi = yield block
        dphi = phi_in - psi
        ci, si = math.cos(dphi), math.sin(dphi)
        i_avg = a_avg * i_avg + (1.0 - a_avg) * a0 * (ci + si)
        q_avg = a_avg * q_avg + (1.0 - a_avg) * a0 * (ci - si)
        block = (i_avg, q_avg, dphi)


def _symbol_blocks(
    scenario, constellation, seed, decimation, samples_per_symbol, noise_sigma
):
    """Block source of the symbol-level data path.

    Receives (input phase, psi) and yields (i_avg, q_avg, dphi) for one
    block of ``decimation`` symbols: rotation by the per-sample phase
    error, optional photodetector filter and AWGN, then the block mean of
    the averaging low-pass; dphi is the phase error of the last sample.
    """
    a0 = constellation.a0
    dt_samp = 1.0 / (scenario.baud_rate_hz * samples_per_symbol)
    n_samp = decimation * samples_per_symbol
    # Each axis carries a seeded permutation of an exactly DC-balanced
    # level multiset per block, matching the DC-balanced line-coding
    # assumption behind average-power phase detection; i.i.d. levels would
    # add pattern-ripple jitter well above the sub-mrad steady-state error.
    balanced_base = np.repeat(constellation.levels, decimation // constellation.side)

    rng = stream_rng(seed, 0x10C)
    tau = scenario.mismatch.tau_s
    noisy = scenario.laser.linewidth_hz > 0 and tau > 0
    d = delay_in_samples(tau, dt_samp) if noisy else 0
    sig_inc = math.sqrt(2.0 * math.pi * scenario.laser.linewidth_hz * dt_samp)
    phase_tail = np.zeros(d)
    phi_last = 0.0

    pd_zi_i = pd_zi_q = avg_zi_i = avg_zi_q = None  # zero initial filter state

    block = None
    while True:
        phi_in0, psi = yield block
        i_sym = np.repeat(rng.permutation(balanced_base), samples_per_symbol)
        q_sym = np.repeat(rng.permutation(balanced_base), samples_per_symbol)

        if noisy:
            block_phase = phi_last + np.cumsum(rng.normal(0.0, sig_inc, n_samp))
            full = np.concatenate((phase_tail, block_phase))
            theta = full[d:] - full[:-d]
            phase_tail = full[-d:]
            phi_last = block_phase[-1]
            dphi_samples = phi_in0 + theta - psi
            ci = np.cos(dphi_samples)
            si = np.sin(dphi_samples)
            dphi_end = float(dphi_samples[-1])
        else:
            dphi_end = phi_in0 - psi
            ci = math.cos(dphi_end)
            si = math.sin(dphi_end)

        x = i_sym + a0
        y = q_sym + a0
        i_rx = x * ci + y * si
        q_rx = y * ci - x * si

        if scenario.pd_bandwidth_hz is not None:
            i_rx, pd_zi_i = one_pole_lowpass(i_rx, dt_samp, scenario.pd_bandwidth_hz, pd_zi_i)
            q_rx, pd_zi_q = one_pole_lowpass(q_rx, dt_samp, scenario.pd_bandwidth_hz, pd_zi_q)

        if noise_sigma > 0:
            i_rx = i_rx + rng.normal(0.0, noise_sigma, n_samp)
            q_rx = q_rx + rng.normal(0.0, noise_sigma, n_samp)

        i_f, avg_zi_i = one_pole_lowpass(i_rx, dt_samp, DEFAULT_AVERAGING_CUTOFF_HZ, avg_zi_i)
        q_f, avg_zi_q = one_pole_lowpass(q_rx, dt_samp, DEFAULT_AVERAGING_CUTOFF_HZ, avg_zi_q)
        # Block mean rather than an end-point sample: the physical loop
        # filter integrates continuously, so sampling the instantaneous
        # average would alias broadband pattern ripple into the loop.
        block = (float(i_f.mean()), float(q_f.mean()), dphi_end)


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
    data_path: str = "symbols",
    actuator_range_rad: float | None = None,
    phase_drive=None,
) -> LockReport:
    """Closed-loop lock acquisition on a decimated loop grid.

    The data path rotates random symbols by the instantaneous phase error
    and extracts the block-averaged I/Q voltages; the detector output is
    scaled by k_pd / (2 a0) so its small-signal slope matches the
    configured detector gain, then drives the loop filter, driver, and
    phase shifter once per block of ``decimation`` symbols (rounded up to
    a multiple of the level count, so each axis carries DC-balanced data).
    The averaging low-pass has a fixed 1 GHz cutoff and the method-1
    comparator a hysteresis of 1% of 2 a0.

    ``data_path="averaged"`` replaces the symbol-level block with the
    deterministic averaged voltages a0*(cos+sin), a0*(cos-sin) (no AWGN,
    no photodetector filter), which keeps the loop dynamics identical and
    is useful for long runs and small-signal characterization; a scenario
    with beat phase noise is rejected there.  ``actuator_range_rad``
    clamps the phase shifter output.  ``phase_drive`` is an optional
    callable t -> rad added to the input phase for loop-response probing.

    Non-convergence shows up as ``locked=False`` in the report, never as
    an exception.
    """
    if constellation.a0 <= 0:
        raise ValueError("offset-QAM phase detection requires a0 > 0")
    if data_path not in ("symbols", "averaged"):
        raise ValueError(f"unknown data_path {data_path!r}")
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    if data_path == "averaged" and scenario.laser.linewidth_hz > 0 and scenario.mismatch.tau_s > 0:
        raise ValueError("the averaged data path has no phase noise; use data_path='symbols'")
    if data_path == "symbols":
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
    if data_path == "averaged":
        source = _averaged_blocks(a0, dt_loop)
        metadata = {"data_path": "averaged", "dt_loop_s": dt_loop}
    else:
        n0 = scenario.awgn_n0(constellation)
        noise_sigma = math.sqrt(n0 / 2.0) if n0 else 0.0
        source = _symbol_blocks(
            scenario, constellation, seed, decimation, samples_per_symbol, noise_sigma
        )
        metadata = {
            "data_path": "symbols",
            "dt_loop_s": dt_loop,
            "samples_per_symbol": samples_per_symbol,
            "n0": n0,
        }
    next(source)

    error_scale = params.k_pd_v_per_rad / (2.0 * a0)
    comparator = HystereticSign(threshold=HYSTERESIS_FRACTION * 2.0 * a0)
    lf_state = FirstOrderState()
    ps_state = FirstOrderState()

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
            sel = comparator.update(i_avg + q_avg)
            e_raw = -sel * (i_avg - q_avg)
        else:
            e_raw = error_method2(i_avg, q_avg)
        e_v = error_scale * e_raw
        # Negative-slope detector, inverting driver path: net feedback
        # pulls psi toward the input phase.
        v_lf = step_loop_filter(lf_state, -e_v, dt_loop, params)
        psi_new = step_phase_shifter(
            ps_state, params.k_driver_v_per_v * v_lf, dt_loop, params,
            actuator_range_rad,
        )
        psi_rec[k] = psi
        dphi_rec[k] = dphi
        err_rec[k] = e_v
        psi = psi_new

    return _finish_report(t_rec, psi_rec, dphi_rec, err_rec, method, metadata)
