"""Laser-forwarded link model.

Covers the stochastic and deterministic signal path outside the recovery
loop: the streaming beat phase of Wiener laser phase noise seen through an
LO/Rx path length mismatch (``BeatNoise``, the one source that the lock
loop and the eye trace draw from, stationary from its first sample),
rotation of offset-QAM symbols by a phase error, additive white Gaussian
noise, and the single-pole low-pass that models both the photodetector
bandwidth and the loop's averaging filter, written as its own matched-z
recursion.

Stochastic helpers draw from a ``numpy.random.Generator`` handed in by the
caller; streams are spawned with ``stream_rng(seed, *key)`` so independent
consumers never share draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import OffsetQamConstellation
from .domain import check

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Refractive index of standard single-mode fiber near 1310 nm. The delay
# model only needs the product n * delta_l, so any effective index works.
DEFAULT_REFRACTIVE_INDEX = 1.468


def stream_rng(seed, *key) -> np.random.Generator:
    """Seeded generator for the (seed, *key) stream.

    Extra key terms split one user-facing seed into independent
    sub-streams (per sweep point, per block, ...) without coordination.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


@dataclass(frozen=True)
class LaserModel:
    """Lorentzian laser: linewidth sets the Wiener phase-noise strength.

    Carrier frequency and initial phase cancel in the homodyne beat of a
    laser-forwarded link, so the model has neither.
    """

    linewidth_hz: float

    def __post_init__(self):
        check("laser.linewidth_hz", self.linewidth_hz)


@dataclass(frozen=True)
class PathMismatch:
    """LO/Rx path length mismatch and the differential delay it causes."""

    delta_l_m: float
    refractive_index: float = DEFAULT_REFRACTIVE_INDEX

    def __post_init__(self):
        check("mismatch.delta_l_m", self.delta_l_m)
        check("mismatch.refractive_index", self.refractive_index)

    @property
    def tau_s(self) -> float:
        """Differential delay n * delta_l / c in seconds."""
        return self.refractive_index * self.delta_l_m / SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class ChannelScenario:
    """Aggregate link description handed to the loop simulator.

    n0 is the AWGN PSD, variance n0/2 per real dimension, as in
    ``ber.NoiseEnvironment``; n0 = 0 leaves the data path noiseless.
    """

    baud_rate_hz: float
    laser: LaserModel = field(default_factory=lambda: LaserModel(0.0))
    mismatch: PathMismatch = field(default_factory=lambda: PathMismatch(0.0))
    phi_offset_rad: float = 0.0
    n0: float = 0.0
    pd_bandwidth_hz: float | None = None

    def __post_init__(self):
        check("channel.baud_rate_hz", self.baud_rate_hz)
        check("channel.phi_offset_rad", self.phi_offset_rad)
        if not (self.n0 >= 0 and math.isfinite(self.n0)):
            raise ValueError(f"n0 must be a finite number >= 0, got {self.n0}")
        if self.pd_bandwidth_hz is not None:
            check("channel.pd_bandwidth_hz", self.pd_bandwidth_hz)


def delay_in_samples(tau_s: float, dt_s: float) -> int:
    """Round the differential delay to whole samples.

    Requires dt <= tau/4 (so the rounding error in differential phase
    variance stays small) unless dt divides tau almost exactly.
    """
    if tau_s == 0:
        return 0
    samples = tau_s / dt_s
    if not math.isfinite(samples):
        raise ValueError(f"the mismatch delay tau={tau_s:g} is not a finite number of "
                         f"dt_s={dt_s:g} samples")
    d = int(round(samples))
    exact = abs(d * dt_s - tau_s) <= 1e-9 * tau_s and d >= 1
    if dt_s > tau_s / 4 and not exact:
        raise ValueError(
            f"dt_s={dt_s:g} too coarse for the mismatch delay tau={tau_s:g} "
            "(from delta_l_m): need dt <= tau/4 or a dt that divides tau exactly"
        )
    return d


class BeatNoise:
    """Streaming beat phase of a Wiener laser seen through a path mismatch.

    theta[k] = phi[k] - phi[k - d] with d = round(tau/dt), where phi is a
    Wiener path whose i.i.d. increments have the variance
    2 * pi * linewidth * dt of a Lorentzian line.  The constructor draws the
    d samples of phi before the start from ``rng``, so theta is stationary,
    with variance 2 * pi * linewidth * tau, from the first sample on.
    ``draw(n)`` draws the increments of the next n samples and returns their
    theta; a link with zero linewidth or zero mismatch has no beat noise,
    draws nothing and returns None.

    The last d samples of phi are kept as a plain delay line, so a draw of
    n samples costs O(d + n).
    """

    def __init__(
        self, laser: LaserModel, mismatch: PathMismatch, dt_s: float, rng: np.random.Generator
    ):
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        noisy = laser.linewidth_hz > 0 and mismatch.tau_s > 0
        self.delay_samples = delay_in_samples(mismatch.tau_s, dt_s) if noisy else 0
        self._sigma = math.sqrt(2.0 * math.pi * laser.linewidth_hz * dt_s)
        self._rng = rng
        # phi of the last d samples, oldest first
        self._past = np.cumsum(rng.normal(0.0, self._sigma, self.delay_samples))

    def draw(self, n: int) -> np.ndarray | None:
        """theta for the next n samples, or None when there is no beat noise."""
        if n < 1:
            raise ValueError(f"block length n must be >= 1, got {n}")
        if not self.delay_samples:
            return None
        phase = self._rng.normal(0.0, self._sigma, n)
        np.cumsum(phase, out=phase)
        phase += self._past[-1]
        past = np.concatenate((self._past, phase))
        self._past = past[n:]
        return phase - past[:n]


def rotate_symbol(i, q, a0: float, delta_phi):
    """Rotate center-relative symbol coordinates by the phase error.

    i and q are data values relative to the constellation center (e.g.
    +/- a_oma/2); the offset a0 is applied to both axes before rotating
    about the origin:

        i' = (i + a0) cos(dphi) + (q + a0) sin(dphi)
        q' = (q + a0) cos(dphi) - (i + a0) sin(dphi)

    Accepts scalars or broadcastable arrays.
    """
    ci = np.cos(delta_phi)
    si = np.sin(delta_phi)
    x = np.asarray(i) + a0
    y = np.asarray(q) + a0
    return x * ci + y * si, y * ci - x * si


def add_awgn(values, n0: float, rng: np.random.Generator):
    """Add white Gaussian noise with variance n0/2 per real dimension."""
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    values = np.asarray(values, dtype=float)
    if n0 == 0:
        return values.copy()
    return values + rng.normal(0.0, np.sqrt(n0 / 2.0), values.shape)


def one_pole_lowpass(x, dt_s: float, cutoff_hz: float, zi=None):
    """Causal single-pole low-pass of a 1-D signal with exact unity DC gain.

    Matched-z discretization y[k] = a*y[k-1] + (1-a)*x[k] with
    a = exp(-2*pi*cutoff*dt), so the continuous first-order step response
    is reproduced exactly at the sample points.  Returns (y, zf) where zf,
    the state a*y[-1] after the last sample, can seed the next call as zi.
    """
    a = float(np.exp(-2.0 * np.pi * cutoff_hz * dt_s))
    b = 1.0 - a
    y = np.asarray(x, dtype=float).tolist()
    z = 0.0 if zi is None else float(zi[0])
    for k, v in enumerate(y):
        y[k] = yk = b * v + z
        z = a * yk
    return np.array(y), np.array([z])


def received_trace(
    constellation: OffsetQamConstellation,
    scenario: ChannelScenario,
    num_symbols: int,
    seed: int,
    samples_per_symbol: int = 2,
):
    """Open-loop received I/Q trace for eye-diagram style inspection.

    Random symbols are rotated per sample by scenario.phi_offset_rad plus
    the beat phase of the scenario's laser and mismatch (``BeatNoise`` at
    the sample step, on a stream of its own), optionally low-passed by the
    photodetector model, and corrupted by AWGN of PSD scenario.n0.
    Returns (t_s, i, q) sample arrays.
    """
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    dt = 1.0 / (scenario.baud_rate_hz * samples_per_symbol)

    idx = stream_rng(seed, 0x5B).integers(0, constellation.order, num_symbols)
    ki, kq = np.divmod(idx, constellation.side)  # symbol idx = ki * side + kq
    i_sym = np.repeat(constellation.levels[ki], samples_per_symbol)
    q_sym = np.repeat(constellation.levels[kq], samples_per_symbol)
    beat = BeatNoise(scenario.laser, scenario.mismatch, dt, stream_rng(seed, 0xE7E))
    theta = beat.draw(i_sym.size)
    dphi = scenario.phi_offset_rad if theta is None else scenario.phi_offset_rad + theta
    i_rx, q_rx = rotate_symbol(i_sym, q_sym, constellation.a0, dphi)

    if scenario.pd_bandwidth_hz is not None:
        i_rx, _ = one_pole_lowpass(i_rx, dt, scenario.pd_bandwidth_hz)
        q_rx, _ = one_pole_lowpass(q_rx, dt, scenario.pd_bandwidth_hz)

    if scenario.n0:
        i_rx, q_rx = add_awgn(np.stack((i_rx, q_rx)), scenario.n0, stream_rng(seed, 0xA36))

    t = np.arange(i_rx.size) * dt
    return t, i_rx, q_rx
