"""Error-rate prediction for offset-QAM under AWGN and residual phase jitter.

The conditional error machinery is geometric and generic over the
constellation order: a transmitted symbol is rotated about the origin by
the residual phase, and per-axis error probabilities follow from the
distance of the rotated mean to the decision thresholds, with the AWGN
convention of n0/2 variance per real dimension (so one-sided tail
probabilities are erfc(d / sqrt(n0)) / 2).  I and Q errors combine as
p_i + p_q - p_i * p_q, and the Gaussian residual phase (std sigma_pn) is
integrated out with a Gauss-Kronrod rule whose embedded Gauss-Legendre
rule checks it.

The kernels evaluate each distinct tail once: only at the finite I-axis
thresholds, because the Q mean of symbol (a, b) at theta is bit for bit the
I mean of symbol (b, a) at -theta, so on phase nodes symmetric about 0 (the
Gauss-Kronrod nodes are) each Q term is the transposed symbol's I term.

Two rate figures are provided on top of the symbol error rate:

* ``ber_from_ser`` divides by log2(order) (one bit per symbol error),
  the convention used for the bundled sweep reports;
* ``semi_analytic_ber`` counts expected Gray-coded bit flips per axis
  exactly, which is what the Monte Carlo path measures and what the
  classic QPSK/16-QAM closed forms describe.

A seeded Monte Carlo oracle cross-checks both.  scipy (for erfc) loads
on the first error rate with AWGN (n0 > 0); at n0 = 0 the tails are steps.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import add_awgn, rotate_symbol, stream_rng
from .constellation import OffsetQamConstellation, decide_levels, n0_from_snr_db
from .errors import ConvergenceError

KP4_BER_THRESHOLD = 2.4e-4

_WILSON_Z = 1.959963984540054  # 95% two-sided


@dataclass(frozen=True)
class NoiseEnvironment:
    """AWGN PSD (per-dimension variance n0/2) plus residual phase std."""

    n0: float
    sigma_pn_rad: float = 0.0

    def __post_init__(self):
        for name in ("n0", "sigma_pn_rad"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not value >= 0:
                raise ValueError(f"{name} must be a real scalar >= 0, got {value!r}")


def _rotated_i(c: OffsetQamConstellation, theta):
    """px cos(theta) + py sin(theta) of every symbol at 1-D theta: shape (order, theta.size)."""
    return c.points[:, :1] * np.cos(theta) + c.points[:, 1:] * np.sin(theta)


def _q_from_i(c: OffsetQamConstellation, values):
    """Q-axis terms of (a, b) as the I-axis terms of (b, a) at -theta.

    Exact when theta is symmetric about 0 along the last axis
    (theta[..., ::-1] == -theta), as np.cos is even and np.sin odd.
    """
    ki, kq = c.level_indices.T
    return values[kq * c.side + ki][..., ::-1]


def _at_theta(values_fn, theta):
    """values_fn(nodes) -> (..., nodes) at any theta, shaped (...) + theta's shape.

    values_fn runs on nodes symmetric about 0: theta, then -theta reversed.
    """
    flat = np.asarray(theta, dtype=float).ravel()
    values = values_fn(np.concatenate((flat, -flat[::-1])))[..., : flat.size]
    return values.reshape(values.shape[:-1] + np.shape(theta))


def _tail_prob(n0: float):
    """distance -> P(gaussian with variance n0/2 exceeds distance): a step at n0 = 0.

    scipy is imported here, on the first error rate with AWGN (n0 > 0), so
    that runs which compute none never load it.
    """
    if n0 == 0:
        return lambda distance: (distance < 0).astype(float)
    from scipy.special import erfc

    root = math.sqrt(n0)
    return lambda distance: 0.5 * erfc(distance / root)


def _symbol_errors(c: OffsetQamConstellation, theta, n0: float):
    """Per-axis (p_i, p_q) and symbol error probabilities of every symbol.

    Each has shape (order, theta.size); I and Q errors combine as
    p_i + p_q - p_i * p_q.  theta must be 1-D and symmetric about 0 (see _q_from_i).
    """
    x = _rotated_i(c, theta)
    m = c.side
    # Symbols s = ki * m + kq: the first m have no lower bound, the last m no upper.
    t_lo = c.thresholds[c.level_indices[m:, 0] - 1, None]
    t_hi = c.thresholds[c.level_indices[:-m, 0], None]
    tail = _tail_prob(n0)
    below, above = tail(x[m:] - t_lo), tail(t_hi - x[:-m])
    p_i = np.concatenate((above[:m], below[:-m] + above[m:], below[-m:]))
    p_q = _q_from_i(c, p_i)
    return p_i, p_q, p_i + p_q - p_i * p_q


def axis_error_probabilities(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Conditional per-axis error probabilities (p_i, p_q) at phase theta."""
    p_i, p_q, _ = _at_theta(lambda th: np.stack(_symbol_errors(c, th, env.n0)), theta)
    return p_i[symbol_index], p_q[symbol_index]


def conditional_symbol_error(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """P(symbol error | sent symbol, residual phase theta)."""
    out = _at_theta(lambda th: _symbol_errors(c, th, env.n0)[2][symbol_index], theta)
    return out if np.ndim(out) else float(out)


def _hamming_table(c: OffsetQamConstellation) -> np.ndarray:
    """ham[a, b]: Gray sub-word bit flips between level a and level b."""
    bits = c.bit_map[:: c.side, : c.bits_per_symbol // 2]  # I sub-word of each level
    return (bits[:, None] != bits[None, :]).sum(axis=-1).astype(float)


def _level_probabilities(c: OffsetQamConstellation, means: np.ndarray, n0: float):
    """P(decided level | rotated mean) along one axis.

    means has shape (order, nodes); the result appends a level axis of size
    sqrt(order).  P(level j) = P(mean + noise lands in region j), taken
    from the lower tails P(x < t) for a region below the mean, from the
    upper tails P(x > t) for a region above it, and as 1 minus both for
    the region that holds it, so no tail is lost against 1.
    """
    m = means[..., None]
    t_lo, t_hi = np.append(-np.inf, c.thresholds), np.append(c.thresholds, np.inf)
    # P(crossing a threshold away from the mean): P(x < t) for one below
    # the mean, P(x > t) for one above it; 0 at the infinite outer bounds.
    out = np.pad(_tail_prob(n0)(np.abs(m - c.thresholds)), ((0, 0), (0, 0), (1, 1)))
    out_lo, out_hi = out[..., :-1], out[..., 1:]
    return np.where(
        t_hi <= m, out_hi - out_lo, np.where(t_lo > m, out_lo - out_hi, 1.0 - out_lo - out_hi)
    )


def _symbol_bit_errors(c: OffsetQamConstellation, theta, n0: float):
    """Expected Gray bit flips of every symbol at 1-D theta symmetric about 0."""
    p_level = _level_probabilities(c, _rotated_i(c, theta), n0)
    flips_i = np.einsum("skl,sl->sk", p_level, _hamming_table(c)[c.level_indices[:, 0]])
    return flips_i + _q_from_i(c, flips_i)


def conditional_bit_errors(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Expected Gray bit flips for one transmitted symbol at phase theta."""
    total = _at_theta(lambda th: _symbol_bit_errors(c, th, env.n0)[symbol_index], theta)
    return total if np.ndim(total) else float(total)


# Gauss-Legendre order of the phase integral, and the relative agreement it
# must reach with the 2 * QUAD_ORDER + 1 point Kronrod rule that embeds it.
QUAD_ORDER = 201
QUAD_REL_TOL = 0.01


def _legendre_recurrence(n: int) -> np.ndarray:
    """b_0..b_{n-1} of the Legendre polynomials on [-1, 1]: b_0 = 2, b_k = k^2 / (4k^2 - 1)."""
    k = np.arange(1.0, n)
    return np.concatenate(([2.0], k**2 / (4.0 * k**2 - 1.0)))


def _kronrod_recurrence(n: int) -> np.ndarray:
    """b_0..b_2n of the Jacobi matrix whose Gauss rule is the 2n+1 point Kronrod rule.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133-1145) extends the Legendre
    recurrence.  The weight is even, so every diagonal entry stays 0 and only
    the b updates remain.  Each inner loop reads s before writing it, hence
    one cumsum per loop.
    """
    b = np.zeros(2 * n + 1)
    known = _legendre_recurrence((3 * n + 1) // 2 + 1)
    b[: known.size] = known
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


def _gauss_rule(b: np.ndarray):
    """Nodes and weights of the Gauss rule of an even weight with recurrence b.

    Golub & Welsch (Math. Comp. 23 (1969) 221-230): the nodes are the
    eigenvalues of the Jacobi matrix with zero diagonal and off-diagonal
    sqrt(b_1..), made exactly symmetric about 0; each weight is
    1 / sum_k p_k(x)^2 over the orthonormal polynomials, b_0 the weight's mass.
    """
    beta = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(beta[1:], -1))
    x = (x - x[::-1]) / 2
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / beta[0])
    norm = p * p
    for k in range(1, x.size):
        p_prev, p = p, (x * p - beta[k - 1] * p_prev) / beta[k]
        norm += p * p
    return x, 1.0 / norm


def roots_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], as scipy.special.roots_legendre."""
    return _gauss_rule(_legendre_recurrence(n))


@functools.lru_cache(maxsize=None)
def _quad_nodes(order: int):
    """Read-only Gauss-Kronrod rule on [-1, 1], built once per order on first use.

    Returns the 2 * order + 1 Kronrod nodes x, exactly symmetric about 0,
    their weights, and the Gauss-Legendre weights of the embedded nodes
    x[1::2].
    """
    x, w = _gauss_rule(_kronrod_recurrence(order))
    w_gauss = roots_legendre(order)[1]
    for arr in (x, w, w_gauss):
        arr.flags.writeable = False
    return x, w, w_gauss


def _integrate_over_phase(values_fn, sigma: float) -> float:
    """Integral of values_fn(theta) against the Gaussian phase pdf.

    values_fn maps the 1-D nodes theta to values of the same shape.  The pdf
    is used un-wrapped on [-pi, pi]; for small sigma the window shrinks to
    +/- 8 sigma where the integrand is supported.  One evaluation at the
    Kronrod nodes gives the returned Kronrod sum and the QUAD_ORDER-point
    Gauss sum over the embedded nodes, which must agree within QUAD_REL_TOL.
    """
    if sigma == 0:
        return float(values_fn(np.zeros(1))[0])
    half_width = min(8.0 * sigma, math.pi)
    x, w, w_gauss = _quad_nodes(QUAD_ORDER)
    theta = x * half_width
    pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
    values = values_fn(theta)
    fine = float((w * half_width * pdf * values).sum())
    coarse = float((w_gauss * half_width * pdf[1::2] * values[1::2]).sum())
    gap = abs(fine - coarse)
    if gap > QUAD_REL_TOL * abs(fine) and gap > 1e-30:
        raise ConvergenceError(f"phase quadrature did not converge: {coarse:.6g} vs {fine:.6g}")
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
    return _integrate_over_phase(
        lambda th: _symbol_errors(c, th, env.n0)[2].mean(axis=0), env.sigma_pn_rad
    )


def semi_analytic_ber(c: OffsetQamConstellation, env: NoiseEnvironment) -> float:
    """Exact Gray-coded bit error rate (expected bit flips / bits per symbol)."""
    _warn_if_wide(env.sigma_pn_rad, stacklevel=2)
    bit_flips = _integrate_over_phase(
        lambda th: _symbol_bit_errors(c, th, env.n0).mean(axis=0), env.sigma_pn_rad
    )
    return bit_flips / c.bits_per_symbol


def ber_from_ser(ser: float, order: int) -> float:
    """Symbol-to-bit error conversion ser / log2(order)."""
    if not 0.0 <= ser <= 1.0:
        raise ValueError(f"ser must be within [0, 1], got {ser}")
    return ser / math.log2(order)


# Symbols drawn, rotated and decided per block of the Monte Carlo oracle,
# which keeps its memory small and its work in cache.
MC_BLOCK_SYMBOLS = 1 << 14


def monte_carlo_ber(c: OffsetQamConstellation, env: NoiseEnvironment, num_symbols: int, seed: int):
    """Monte Carlo oracle: draws, rotates, adds noise, and hard-decides.

    Per-symbol residual phases are N(0, sigma^2); noise is n0/2 per axis.
    Each block of MC_BLOCK_SYMBOLS draws from one stream its symbols, then
    its phases (sigma > 0), then its I and Q noise, and counts Gray bit flips.
    Returns (ber, ser, ber_halfwidth) where the half-width is the 95%
    Wilson interval on the bit error rate.  Deterministic per seed.
    """
    if num_symbols < 10_000:
        raise ValueError("num_symbols must be >= 1e4 for a meaningful estimate")
    rng = stream_rng(seed, 0xBE7)
    ham = _hamming_table(c)
    sym_errors = bit_errors = 0
    for start in range(0, num_symbols, MC_BLOCK_SYMBOLS):
        idx = rng.integers(0, c.order, min(MC_BLOCK_SYMBOLS, num_symbols - start))
        ki, kq = c.level_indices[idx, 0], c.level_indices[idx, 1]
        theta = rng.normal(0.0, env.sigma_pn_rad, idx.size) if env.sigma_pn_rad > 0 else 0.0
        x, y = add_awgn(rotate_symbol(c.levels[ki], c.levels[kq], c.a0, theta), env.n0, rng)
        flips = ham[ki, decide_levels(c, x)] + ham[kq, decide_levels(c, y)]
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
    when the grid never crosses it.  Each point is one ``semi_analytic_ser``
    call; a phase quadrature that fails names the first failing Es/N0.
    """
    snr_db = np.asarray(snr_grid_db, dtype=float)
    if snr_db.ndim != 1 or snr_db.size < 2 or np.any(np.diff(snr_db) <= 0):
        raise ValueError("snr_grid_db must be strictly increasing with >= 2 points")
    ser = np.empty(snr_db.size)
    for i, snr in enumerate(snr_db):
        try:
            ser[i] = semi_analytic_ser(c, NoiseEnvironment(n0_from_snr_db(c, snr), sigma_pn_rad))
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at Es/N0 {snr:g} dB") from None
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
