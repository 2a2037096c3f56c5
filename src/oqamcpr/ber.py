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

import math
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


def _tail_prob(distance, n0: float):
    """P(gaussian with variance n0/2 exceeds distance)."""
    if n0 == 0:
        return (np.asarray(distance) < 0).astype(float)
    return 0.5 * erfc(np.asarray(distance) / math.sqrt(n0))


def _symbol_errors(c: OffsetQamConstellation, theta, n0: float):
    """Per-axis (p_i, p_q) and symbol error probabilities of every symbol.

    Each has shape (order,) + theta shape; I and Q errors combine as
    p_i + p_q - p_i * p_q.
    """
    x, y = _rotated_means(c, theta)
    t_lo, t_hi = _region_bounds(c)
    ki = c.level_indices[:, 0]
    kq = c.level_indices[:, 1]
    shape = [-1] + [1] * (np.asarray(theta).ndim)
    p_i = _tail_prob(x - t_lo[ki].reshape(shape), n0) + _tail_prob(
        t_hi[ki].reshape(shape) - x, n0
    )
    p_q = _tail_prob(y - t_lo[kq].reshape(shape), n0) + _tail_prob(
        t_hi[kq].reshape(shape) - y, n0
    )
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


def _ser_at(c: OffsetQamConstellation, theta, n0: float):
    """Mean symbol error probability over the constellation at each theta."""
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


def _integrate_over_phase(values_fn, sigma: float, quad_order: int, rel_tol: float):
    """Integral of values_fn(theta) against the Gaussian phase pdf.

    The pdf is used un-wrapped on [-pi, pi]; for small sigma the window
    shrinks to +/- 8 sigma where the integrand is supported.  The
    quadrature order is doubled once and must agree within rel_tol.
    """
    if sigma == 0:
        return float(np.asarray(values_fn(np.array([0.0])))[0])
    half_width = min(8.0 * sigma, math.pi)

    def run(order):
        x, w = roots_legendre(order)
        theta = x * half_width
        pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(
            2.0 * math.pi * sigma**2
        )
        vals = np.asarray(values_fn(theta))
        return float(np.sum(w * half_width * pdf * vals))

    coarse = run(quad_order)
    fine = run(2 * quad_order + 1)
    if abs(fine - coarse) > rel_tol * abs(fine) and abs(fine - coarse) > 1e-30:
        raise ConvergenceError(
            f"phase quadrature did not converge: {coarse:.6g} vs {fine:.6g}"
        )
    return fine


def semi_analytic_ser(
    c: OffsetQamConstellation,
    env: NoiseEnvironment,
    quad_order: int = 201,
    rel_tol: float = 0.01,
) -> float:
    """Symbol error rate with equiprobable symbols.

    The Gaussian-on-circle approximation is sane for sigma below about
    1 rad; larger values still compute but the wrapped tails are ignored.
    """
    if env.sigma_pn_rad >= 1.0:
        import warnings

        warnings.warn(
            f"sigma_pn={env.sigma_pn_rad:.3f} rad exceeds the Gaussian phase "
            "approximation's comfort zone (< 1 rad)",
            stacklevel=2,
        )
    return _integrate_over_phase(
        lambda th: _ser_at(c, th, env.n0), env.sigma_pn_rad, quad_order, rel_tol
    )


def semi_analytic_ber(
    c: OffsetQamConstellation,
    env: NoiseEnvironment,
    quad_order: int = 201,
    rel_tol: float = 0.01,
) -> float:
    """Exact Gray-coded bit error rate (expected bit flips / bits per symbol)."""
    bits = c.bits_per_symbol
    return (
        _integrate_over_phase(
            lambda th: _bit_errors_at(c, th, env.n0),
            env.sigma_pn_rad,
            quad_order,
            rel_tol,
        )
        / bits
    )


def ber_from_ser(ser: float, order: int) -> float:
    """Symbol-to-bit error conversion ser / log2(order)."""
    if not 0.0 <= ser <= 1.0:
        raise ValueError(f"ser must be within [0, 1], got {ser}")
    return ser / math.log2(order)


def monte_carlo_ber(
    c: OffsetQamConstellation,
    env: NoiseEnvironment,
    num_symbols: int,
    seed: int,
    chunk_size: int = 1_000_000,
):
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
        n = min(remaining, chunk_size)
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


def snr_sweep(
    c: OffsetQamConstellation,
    sigma_pn_rad: float,
    snr_grid_db,
    quad_order: int = 201,
) -> SweepResult:
    """Semi-analytic BER over an Es/N0 grid (dB), plus the KP4 crossing.

    The reported BER follows the ser / log2(order) convention.  The FEC
    threshold SNR is log-linearly interpolated at 2.4e-4 and left absent
    when the grid never crosses it.
    """
    snr_db = np.asarray(snr_grid_db, dtype=float)
    if snr_db.ndim != 1 or snr_db.size < 2 or np.any(np.diff(snr_db) <= 0):
        raise ValueError("snr_grid_db must be strictly increasing with >= 2 points")
    ser = np.empty(snr_db.size)
    for i, snr in enumerate(snr_db):
        ser[i] = semi_analytic_ser(
            c, NoiseEnvironment(n0_from_snr_db(c, snr), sigma_pn_rad), quad_order=quad_order
        )
    ber = ser / math.log2(c.order)
    return SweepResult(
        snr_db=snr_db,
        ber=ber,
        ser=ser,
        metadata={"order": c.order, "m_ratio": c.m_ratio, "sigma_pn_rad": sigma_pn_rad},
        fec_threshold_snr_db=_interp_threshold(snr_db, ber, KP4_BER_THRESHOLD),
    )


def required_snr_db(
    c: OffsetQamConstellation,
    sigma_pn_rad: float,
    ber_target: float = KP4_BER_THRESHOLD,
    lo_db: float = 0.0,
    hi_db: float = 40.0,
    tol_db: float = 1e-3,
) -> float:
    """Es/N0 needed to reach the target BER (bisection, 1e-3 dB)."""

    def ber_at(snr_db: float) -> float:
        return ber_from_ser(
            semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr_db), sigma_pn_rad)),
            c.order,
        )

    if ber_at(lo_db) < ber_target or ber_at(hi_db) > ber_target:
        raise ValueError("ber_target not bracketed by [lo_db, hi_db]")
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > ber_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def penalty(sweep_a: SweepResult, sweep_b: SweepResult) -> float:
    """FEC-threshold SNR difference a - b in dB."""
    if sweep_a.fec_threshold_snr_db is None or sweep_b.fec_threshold_snr_db is None:
        raise ValueError("both sweeps must contain the FEC threshold crossing")
    return sweep_a.fec_threshold_snr_db - sweep_b.fec_threshold_snr_db
