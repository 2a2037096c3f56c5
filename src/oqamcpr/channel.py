"""Laser-forwarded link model.

Covers the stochastic and deterministic signal path outside the recovery
loop: Wiener laser phase noise, the differential (beat) phase produced by
an LO/Rx path length mismatch, rotation of offset-QAM symbols by a phase
error, additive white Gaussian noise, and an optional single-pole
photodetector bandwidth filter.

All stochastic helpers take an explicit seed and are deterministic for a
fixed seed; derived streams are spawned with ``stream_rng(seed, *key)`` so
independent consumers never share draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .constellation import OffsetQamConstellation, n0_from_snr_db

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

    center_frequency_rad_s and initial_phase_rad are carried as metadata
    only; both cancel in the homodyne beat of a laser-forwarded link.
    """

    linewidth_hz: float
    center_frequency_rad_s: float = 0.0
    initial_phase_rad: float = 0.0

    def __post_init__(self):
        if self.linewidth_hz < 0:
            raise ValueError(f"linewidth_hz must be >= 0, got {self.linewidth_hz}")


@dataclass(frozen=True)
class PathMismatch:
    """LO/Rx path length mismatch and the differential delay it causes."""

    delta_l_m: float
    refractive_index: float = DEFAULT_REFRACTIVE_INDEX

    def __post_init__(self):
        if self.delta_l_m < 0:
            raise ValueError(f"delta_l_m must be >= 0, got {self.delta_l_m}")
        if self.refractive_index <= 0:
            raise ValueError("refractive_index must be > 0")

    @property
    def tau_s(self) -> float:
        """Differential delay n * delta_l / c in seconds."""
        return self.refractive_index * self.delta_l_m / SPEED_OF_LIGHT_M_S


@dataclass(frozen=True, eq=False)
class PhaseNoisePath:
    """Sampled Wiener phase-noise realization."""

    dt_s: float
    samples: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
class BeatPhase:
    """Differential beat phase phi(t) - phi(t - tau) plus a static offset."""

    dt_s: float
    samples: np.ndarray
    delay_samples: int


@dataclass(frozen=True)
class ChannelScenario:
    """Aggregate link description handed to the loop simulator.

    snr_db and n0 are alternative noise specifications (at most one);
    snr_db is referenced to the constellation's average symbol energy.
    With both unset the data path is noiseless.
    """

    baud_rate_hz: float
    laser: LaserModel = field(default_factory=lambda: LaserModel(0.0))
    mismatch: PathMismatch = field(default_factory=lambda: PathMismatch(0.0))
    phi_offset_rad: float = 0.0
    snr_db: float | None = None
    n0: float | None = None
    pd_bandwidth_hz: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.baud_rate_hz <= 0:
            raise ValueError("baud_rate_hz must be > 0")
        if self.snr_db is not None and self.n0 is not None:
            raise ValueError("give snr_db or n0, not both")
        if self.n0 is not None and self.n0 < 0:
            raise ValueError("n0 must be >= 0")
        if self.pd_bandwidth_hz is not None and self.pd_bandwidth_hz <= 0:
            raise ValueError("pd_bandwidth_hz must be > 0")

    def awgn_n0(self, c: OffsetQamConstellation) -> float | None:
        """AWGN PSD: n0 as given, or derived from snr_db for constellation c."""
        return self.n0 if self.snr_db is None else n0_from_snr_db(c, self.snr_db)


def generate_phase_noise(
    laser: LaserModel, dt_s: float, count: int, seed: int
) -> PhaseNoisePath:
    """Sample a Wiener phase-noise path.

    Increments are i.i.d. zero-mean Gaussian with variance
    2 * pi * linewidth * dt, matching a Lorentzian line of the given
    FWHM. The first sample equals the laser's initial phase.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = stream_rng(seed, 0x7A5E)
    sigma = np.sqrt(2.0 * np.pi * laser.linewidth_hz * dt_s)
    samples = np.empty(count)
    samples[0] = laser.initial_phase_rad
    if count > 1:
        samples[1:] = rng.normal(0.0, sigma, count - 1) if sigma > 0 else 0.0
        np.cumsum(samples, out=samples)
    return PhaseNoisePath(dt_s=dt_s, samples=samples, seed=seed)


def delay_in_samples(tau_s: float, dt_s: float) -> int:
    """Round the differential delay to whole samples.

    Requires dt <= tau/4 (so the rounding error in differential phase
    variance stays small) unless dt divides tau almost exactly.
    """
    if tau_s == 0:
        return 0
    d = int(round(tau_s / dt_s))
    exact = abs(d * dt_s - tau_s) <= 1e-9 * tau_s and d >= 1
    if dt_s > tau_s / 4 and not exact:
        raise ValueError(
            f"dt_s={dt_s:g} too coarse for the mismatch delay tau={tau_s:g} "
            "(from delta_l_m): need dt <= tau/4 or a dt that divides tau exactly"
        )
    return d


def beat_phase(
    path: PhaseNoisePath, mismatch: PathMismatch, phi_offset_rad: float = 0.0
) -> BeatPhase:
    """Differential phase of the beat signal for a delayed LO copy.

    samples[k] = phi_offset + path[k] - path[k - round(tau/dt)]; indices
    before the start of the path reuse path[0].
    """
    d = delay_in_samples(mismatch.tau_s, path.dt_s)
    p = path.samples
    if d == 0:
        samples = np.full_like(p, phi_offset_rad)
    else:
        delayed = np.empty_like(p)
        delayed[:d] = p[0]
        delayed[d:] = p[:-d]
        samples = phi_offset_rad + p - delayed
    return BeatPhase(dt_s=path.dt_s, samples=samples, delay_samples=d)


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


def add_awgn(values, n0: float, seed: int):
    """Add white Gaussian noise with variance n0/2 per real dimension."""
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    values = np.asarray(values, dtype=float)
    if n0 == 0:
        return values.copy()
    rng = stream_rng(seed, 0xA36)
    return values + rng.normal(0.0, np.sqrt(n0 / 2.0), values.shape)


def one_pole_lowpass(x, dt_s: float, cutoff_hz: float, zi=None):
    """Causal single-pole low-pass with exact unity DC gain.

    Matched-z discretization y[k] = a*y[k-1] + (1-a)*x[k] with
    a = exp(-2*pi*cutoff*dt), so the continuous first-order step response
    is reproduced exactly at the sample points.  Returns (y, zf) where zf
    can seed the next call for streaming use.
    """
    a = np.exp(-2.0 * np.pi * cutoff_hz * dt_s)
    b = (1.0 - a,)
    den = (1.0, -a)
    if zi is None:
        zi = np.zeros(1)
    y, zf = lfilter(b, den, np.asarray(x, dtype=float), zi=zi)
    return y, zf


def pd_filter(trace, dt_s: float, bandwidth_hz: float):
    """Photodetector bandwidth model: causal one-pole low-pass, DC gain 1."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be > 0, got {bandwidth_hz}")
    y, _ = one_pole_lowpass(trace, dt_s, bandwidth_hz)
    return y


def symbol_stream(constellation, num_symbols: int, seed: int) -> np.ndarray:
    """Uniform random symbol indices, deterministic per seed."""
    rng = stream_rng(seed, 0x5B)
    return rng.integers(0, constellation.order, num_symbols)


def received_trace(
    constellation: OffsetQamConstellation,
    scenario: ChannelScenario,
    num_symbols: int,
    samples_per_symbol: int = 2,
    delta_phi_rad: float | None = None,
):
    """Open-loop received I/Q trace for eye-diagram style inspection.

    Random symbols are rotated by a fixed phase error (scenario.phi_offset
    unless delta_phi_rad overrides it), optionally low-passed by the
    photodetector model, and corrupted by AWGN per the scenario noise
    specification.  Returns (t_s, i, q) sample arrays.
    """
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    dphi = scenario.phi_offset_rad if delta_phi_rad is None else delta_phi_rad
    dt = 1.0 / (scenario.baud_rate_hz * samples_per_symbol)

    idx = symbol_stream(constellation, num_symbols, scenario.seed)
    rel = constellation.points[idx] - constellation.a0
    i_sym = np.repeat(rel[:, 0], samples_per_symbol)
    q_sym = np.repeat(rel[:, 1], samples_per_symbol)
    i_rx, q_rx = rotate_symbol(i_sym, q_sym, constellation.a0, dphi)

    if scenario.pd_bandwidth_hz is not None:
        i_rx = pd_filter(i_rx, dt, scenario.pd_bandwidth_hz)
        q_rx = pd_filter(q_rx, dt, scenario.pd_bandwidth_hz)

    n0 = scenario.awgn_n0(constellation)
    if n0:
        i_rx = add_awgn(i_rx, n0, scenario.seed)
        q_rx = add_awgn(q_rx, n0, scenario.seed + 1)

    t = np.arange(i_rx.size) * dt
    return t, i_rx, q_rx
