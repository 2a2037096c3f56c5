"""Error-rate prediction for offset-QAM under AWGN and residual phase jitter.

The conditional error machinery is geometric and generic over the
constellation order: a transmitted symbol is rotated about the origin by
the residual phase, and per-axis error probabilities follow from the
distance of the rotated mean to the decision thresholds, with the AWGN
convention of n0/2 variance per real dimension (so one-sided tail
probabilities are erfc(d / sqrt(n0)) / 2).  I and Q errors combine as
p_i + p_q - p_i * p_q, and the Gaussian residual phase (std sigma_pn) is
integrated out with Gauss-Legendre quadrature.

Two rate figures are provided on top of the symbol error rate:

* ``ber_from_ser`` divides by log2(order) (one bit per symbol error),
  the convention used for the bundled sweep reports;
* ``semi_analytic_ber`` counts expected Gray-coded bit flips per axis
  exactly, which is what the Monte Carlo path measures and what the
  classic QPSK/16-QAM closed forms describe.

A seeded Monte Carlo oracle cross-checks both.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, roots_legendre

from .channel import stream_rng
from .constellation import OffsetQamConstellation, n0_from_snr_db
from .errors import ConvergenceError

KP4_BER_THRESHOLD = 2.4e-4

_WILSON_Z = 1.959963984540054  # 95% two-sided


@dataclass(frozen=True)
class NoiseEnvironment:
    """AWGN PSD (per-dimension variance n0/2) plus residual phase std."""

    n0: float
    sigma_pn_rad: float = 0.0

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")
        if self.sigma_pn_rad < 0:
            raise ValueError("sigma_pn_rad must be >= 0")


def _rotated_means(c: OffsetQamConstellation, theta):
    """Rotated absolute symbol coordinates, shape (order,) x theta shape."""
    th = np.asarray(theta, dtype=float)
    px = c.points[:, 0].reshape(-1, *([1] * th.ndim))
    py = c.points[:, 1].reshape(-1, *([1] * th.ndim))
    ci, si = np.cos(th), np.sin(th)
    return px * ci + py * si, py * ci - px * si


def _region_bounds(c: OffsetQamConstellation):
    """Per-level decision bounds (t_lo, t_hi) with infinities at the edges."""
    t_lo = np.concatenate(([-np.inf], c.thresholds))
    t_hi = np.concatenate((c.thresholds, [np.inf]))
    return t_lo, t_hi


def _tail_prob(n0):
    """distance -> P(gaussian with variance n0/2 exceeds distance); n0 broadcasts."""
    root = np.sqrt(n0)
    noiseless = root == 0
    if not noiseless.any():
        return lambda distance: 0.5 * erfc(distance / root)

    def tail(distance):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(noiseless, distance < 0, 0.5 * erfc(distance / root))

    return tail


def _symbol_errors(c: OffsetQamConstellation, theta, n0):
    """Per-axis (p_i, p_q) and symbol error probabilities of every symbol.

    Each has shape (order,) + the broadcast shape of theta and n0; I and Q
    errors combine as p_i + p_q - p_i * p_q.
    """
    x, y = _rotated_means(c, theta)
    t_lo, t_hi = _region_bounds(c)
    ki = c.level_indices[:, 0]
    kq = c.level_indices[:, 1]
    shape = [-1] + [1] * (np.asarray(theta).ndim)
    tail = _tail_prob(n0)
    p_i = tail(x - t_lo[ki].reshape(shape)) + tail(t_hi[ki].reshape(shape) - x)
    p_q = tail(y - t_lo[kq].reshape(shape)) + tail(t_hi[kq].reshape(shape) - y)
    return p_i, p_q, p_i + p_q - p_i * p_q


def axis_error_probabilities(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Conditional per-axis error probabilities (p_i, p_q) at phase theta."""
    p_i, p_q, _ = _symbol_errors(c, theta, env.n0)
    return p_i[symbol_index], p_q[symbol_index]


def conditional_symbol_error(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """P(symbol error | sent symbol, residual phase theta)."""
    out = _symbol_errors(c, theta, env.n0)[2][symbol_index]
    return out if np.ndim(out) else float(out)


def _ser_at(c: OffsetQamConstellation, theta, n0):
    """Mean symbol error probability over the constellation at each (n0, theta)."""
    return np.mean(_symbol_errors(c, theta, n0)[2], axis=0)


def _hamming_table(c: OffsetQamConstellation) -> np.ndarray:
    """ham[a, b]: Gray sub-word bit flips between level a and level b."""
    m = c.side
    gray = np.array([k ^ (k >> 1) for k in range(m)])
    xor = gray[:, None] ^ gray[None, :]
    return np.array(
        [[bin(int(v)).count("1") for v in row] for row in xor], dtype=float
    )


def _level_probabilities(c: OffsetQamConstellation, means: np.ndarray, n0: float):
    """P(decided level | rotated mean) along one axis.

    means has shape (..., ); the result appends a level axis of size
    sqrt(order).  P(level j) = P(mean + noise lands in region j).
    """
    cdf = 0.5 * erfc((means[..., None] - c.thresholds) / math.sqrt(n0))
    return np.concatenate(
        (cdf[..., :1], np.diff(cdf, axis=-1), 1.0 - cdf[..., -1:]), axis=-1
    )


def _symbol_bit_errors(c: OffsetQamConstellation, theta, n0: float):
    """Expected Gray bit flips of every symbol, shape (order, theta size)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x, y = _rotated_means(c, theta)
    ham = _hamming_table(c)
    total = np.zeros((c.order,) + theta.shape)
    for means, k_true in ((x, c.level_indices[:, 0]), (y, c.level_indices[:, 1])):
        if n0 == 0:
            det = np.searchsorted(c.thresholds, means, side="left")
            total += ham[k_true[:, None], det]
        else:
            p_level = _level_probabilities(c, means, n0)
            total += np.einsum("skl,sl->sk", p_level, ham[k_true])
    return total


def _bit_errors_at(c: OffsetQamConstellation, theta, n0: float):
    """Mean expected Gray bit flips per symbol at each theta."""
    return _symbol_bit_errors(c, theta, n0).mean(axis=0)


def conditional_bit_errors(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Expected Gray bit flips for one transmitted symbol at phase theta."""
    total = _symbol_bit_errors(c, theta, env.n0)[symbol_index]
    return float(total[0]) if np.ndim(theta) == 0 else total


# Gauss-Legendre order of the phase integral and the relative agreement
# its doubled-order rerun must reach.
QUAD_ORDER = 201
QUAD_REL_TOL = 0.01


@functools.lru_cache(maxsize=None)
def _quad_nodes(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = roots_legendre(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _integrate_over_phase(values_fn, sigma: float, labels=None):
    """Integral of values_fn(theta) against the Gaussian phase pdf.

    values_fn maps the 1-D nodes theta to values of shape (..., theta.size);
    each leading entry is integrated on its own.  The pdf is used un-wrapped
    on [-pi, pi]; for small sigma the window shrinks to +/- 8 sigma where the
    integrand is supported.  The quadrature order QUAD_ORDER is doubled once
    and every entry must agree within QUAD_REL_TOL; the error names the
    first entry that does not, by ``labels`` (one per entry) when given.
    """
    if sigma == 0:
        return values_fn(np.zeros(1))[..., 0]
    half_width = min(8.0 * sigma, math.pi)

    def run(order):
        x, w = _quad_nodes(order)
        theta = x * half_width
        pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(
            2.0 * math.pi * sigma**2
        )
        return np.sum(w * half_width * pdf * values_fn(theta), axis=-1)

    coarse = run(QUAD_ORDER)
    fine = run(2 * QUAD_ORDER + 1)
    gap = np.abs(fine - coarse)
    failed = np.flatnonzero((gap > QUAD_REL_TOL * np.abs(fine)) & (gap > 1e-30))
    if failed.size:
        i = failed[0]
        where = "" if labels is None else f" at {labels[i]}"
        raise ConvergenceError(
            f"phase quadrature did not converge: "
            f"{coarse.flat[i]:.6g} vs {fine.flat[i]:.6g}{where}"
        )
    return fine


def _warn_if_wide(sigma_pn_rad: float, stacklevel: int):
    if sigma_pn_rad >= 1.0:
        warnings.warn(
            f"sigma_pn={sigma_pn_rad:.3f} rad exceeds the Gaussian phase "
            "approximation's comfort zone (< 1 rad)",
            stacklevel=stacklevel + 1,
        )


def semi_analytic_ser(c: OffsetQamConstellation, env: NoiseEnvironment) -> float:
    """Symbol error rate with equiprobable symbols.

    The Gaussian-on-circle approximation is sane for sigma below about
    1 rad; larger values still compute but the wrapped tails are ignored.
    """
    _warn_if_wide(env.sigma_pn_rad, stacklevel=2)
    return float(_integrate_over_phase(lambda th: _ser_at(c, th, env.n0), env.sigma_pn_rad))


def semi_analytic_ber(c: OffsetQamConstellation, env: NoiseEnvironment) -> float:
    """Exact Gray-coded bit error rate (expected bit flips / bits per symbol)."""
    bit_flips = _integrate_over_phase(lambda th: _bit_errors_at(c, th, env.n0), env.sigma_pn_rad)
    return float(bit_flips) / c.bits_per_symbol


def ber_from_ser(ser: float, order: int) -> float:
    """Symbol-to-bit error conversion ser / log2(order)."""
    if not 0.0 <= ser <= 1.0:
        raise ValueError(f"ser must be within [0, 1], got {ser}")
    return ser / math.log2(order)


# Symbols drawn per batch, which bounds the oracle's memory.
MC_CHUNK_SYMBOLS = 1_000_000
# Float64 elements of one (SNR points x symbols x nodes) array of a batched
# sweep, which bounds the sweep's memory: 8 MiB.
SWEEP_CHUNK_ELEMENTS = 1 << 20


def monte_carlo_ber(c: OffsetQamConstellation, env: NoiseEnvironment, num_symbols: int, seed: int):
    """Monte Carlo oracle: draws, rotates, adds noise, and hard-decides.

    Per-symbol residual phases are N(0, sigma^2); noise is n0/2 per axis.
    Returns (ber, ser, ber_halfwidth) where the half-width is the 95%
    Wilson interval on the bit error rate.  Deterministic per seed.
    """
    if num_symbols < 10_000:
        raise ValueError("num_symbols must be >= 1e4 for a meaningful estimate")
    rng = stream_rng(seed, 0xBE7)
    ham = _hamming_table(c)
    m = c.side
    noise_sigma = math.sqrt(env.n0 / 2.0)

    sym_errors = 0
    bit_errors = 0
    remaining = num_symbols
    while remaining > 0:
        n = min(remaining, MC_CHUNK_SYMBOLS)
        remaining -= n
        idx = rng.integers(0, c.order, n)
        px = c.points[idx, 0]
        py = c.points[idx, 1]
        if env.sigma_pn_rad > 0:
            theta = rng.normal(0.0, env.sigma_pn_rad, n)
            ci, si = np.cos(theta), np.sin(theta)
        else:
            ci, si = 1.0, 0.0
        x = px * ci + py * si
        y = py * ci - px * si
        if noise_sigma > 0:
            x = x + rng.normal(0.0, noise_sigma, n)
            y = y + rng.normal(0.0, noise_sigma, n)
        ki_det = np.searchsorted(c.thresholds, x, side="left")
        kq_det = np.searchsorted(c.thresholds, y, side="left")
        ki_true = c.level_indices[idx, 0]
        kq_true = c.level_indices[idx, 1]
        flips = ham[ki_true, ki_det] + ham[kq_true, kq_det]
        bit_errors += int(flips.sum())
        sym_errors += int(np.count_nonzero(flips))

    ser = sym_errors / num_symbols
    n_bits = num_symbols * c.bits_per_symbol
    ber = bit_errors / n_bits
    z = _WILSON_Z
    denom = 1.0 + z**2 / n_bits
    halfwidth = (
        z * math.sqrt(ber * (1.0 - ber) / n_bits + z**2 / (4.0 * n_bits**2)) / denom
    )
    return ber, ser, halfwidth


@dataclass(eq=False)
class SweepResult:
    """BER-vs-SNR curve with metadata and the FEC threshold crossing."""

    snr_db: np.ndarray
    ber: np.ndarray
    ser: np.ndarray
    metadata: dict = field(default_factory=dict)
    fec_threshold_snr_db: float | None = None


def _interp_threshold(snr_db, ber, target: float) -> float | None:
    for i in range(1, len(ber)):
        if ber[i - 1] > target >= ber[i] and ber[i] > 0:
            la, lb = math.log10(ber[i - 1]), math.log10(ber[i])
            frac = (math.log10(target) - la) / (lb - la)
            return float(snr_db[i - 1] + frac * (snr_db[i] - snr_db[i - 1]))
    return None


def snr_sweep(c: OffsetQamConstellation, sigma_pn_rad: float, snr_grid_db) -> SweepResult:
    """Semi-analytic BER over an Es/N0 grid (dB), plus the KP4 crossing.

    The reported BER follows the ser / log2(order) convention.  The FEC
    threshold SNR is log-linearly interpolated at 2.4e-4 and left absent
    when the grid never crosses it.  With sigma > 0 the phase integral runs
    over nodes x SNR points x symbols in one broadcast per slice of the
    grid; each point gives the same value as ``semi_analytic_ser``.
    """
    snr_db = np.asarray(snr_grid_db, dtype=float)
    if snr_db.ndim != 1 or snr_db.size < 2 or np.any(np.diff(snr_db) <= 0):
        raise ValueError("snr_grid_db must be strictly increasing with >= 2 points")
    envs = [NoiseEnvironment(n0_from_snr_db(c, snr), sigma_pn_rad) for snr in snr_db]
    if sigma_pn_rad == 0:
        # Without a phase integral a point is one erfc pass per bound, so
        # batching would save little; perfbench's tracer self-test counts
        # one semi_analytic_ser call per point of such a sweep.
        ser = np.array([semi_analytic_ser(c, env) for env in envs])
    else:
        _warn_if_wide(sigma_pn_rad, stacklevel=2)
        n0 = np.array([env.n0 for env in envs])
        step = max(1, SWEEP_CHUNK_ELEMENTS // (c.order * (2 * QUAD_ORDER + 1)))
        ser = np.concatenate([
            _integrate_over_phase(
                lambda th: _ser_at(c, th[None, :], n0[j:j + step, None]),
                sigma_pn_rad,
                labels=[f"Es/N0 {snr:g} dB" for snr in snr_db[j:j + step]],
            )
            for j in range(0, snr_db.size, step)
        ])
    ber = ser / math.log2(c.order)
    return SweepResult(
        snr_db=snr_db,
        ber=ber,
        ser=ser,
        metadata={"order": c.order, "m_ratio": c.m_ratio, "sigma_pn_rad": sigma_pn_rad},
        fec_threshold_snr_db=_interp_threshold(snr_db, ber, KP4_BER_THRESHOLD),
    )


# Es/N0 bracket (dB) searched for the KP4 crossing, and the bisection's
# final bracket width (dB).
SNR_BRACKET_DB = (0.0, 40.0)
SNR_TOL_DB = 1e-3


def required_snr_db(c: OffsetQamConstellation, sigma_pn_rad: float) -> float:
    """Es/N0 needed to reach the KP4 BER (bisection to SNR_TOL_DB)."""

    def ber_at(snr_db: float) -> float:
        return ber_from_ser(
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr_db), sigma_pn_rad)),
            c.order,
        )

    lo, hi = SNR_BRACKET_DB
    if ber_at(lo) < KP4_BER_THRESHOLD or ber_at(hi) > KP4_BER_THRESHOLD:
        raise ValueError(
            f"KP4 BER {KP4_BER_THRESHOLD:g} not bracketed by Es/N0 [{lo:g}, {hi:g}] dB "
            f"at sigma_pn={sigma_pn_rad:g} rad"
        )
    while hi - lo > SNR_TOL_DB:
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > KP4_BER_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def penalty(sweep_a: SweepResult, sweep_b: SweepResult) -> float:
    """FEC-threshold SNR difference a - b in dB."""
    if sweep_a.fec_threshold_snr_db is None or sweep_b.fec_threshold_snr_db is None:
        raise ValueError("both sweeps must contain the FEC threshold crossing")
    return sweep_a.fec_threshold_snr_db - sweep_b.fec_threshold_snr_db
