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

What depends only on the constellation and sigma (the nodes, the Kronrod
and Gauss weights with the pdf folded in, the rotated means and their
threshold distances) is one phase rule.  _phase_rule caches the last one,
keyed on the constellation object, sigma and QUAD_ORDER, so each point of a
sweep or a bisection evaluates only its Gaussian tails.

Two rate figures are provided on top of the symbol error rate:

* ``ber_from_ser`` divides by log2(order) (one bit per symbol error),
  the convention used for the bundled sweep reports;
* ``semi_analytic_ber`` counts expected Gray-coded bit flips per axis
  exactly, which is what the Monte Carlo path measures and what the
  classic QPSK/16-QAM closed forms describe.  Each threshold adds its
  Gray bit step times the tail at its signed distance, the SER's
  distance convention, so no decision-region probability is formed.

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
            # A Python float, so that an np.float32 gives the same rates as its value.
            object.__setattr__(self, name, float(value))


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


def _threshold_distances(c: OffsetQamConstellation, means: np.ndarray) -> np.ndarray:
    """Signed distances of the rotated I means (order, nodes) to their finite thresholds.

    Symbols s = ki * m + kq: the first m have no lower threshold, the last m
    no upper.  The rows are mean - lower threshold for symbols m.., then
    upper threshold - mean for symbols ..order - m; _tail_prob of a row is
    the probability of crossing that threshold.
    """
    m = c.side
    t_lo = c.thresholds[c.level_indices[m:, 0] - 1, None]
    t_hi = c.thresholds[c.level_indices[:-m, 0], None]
    return np.concatenate((means[m:] - t_lo, t_hi - means[:-m]))


def _symbol_errors(c: OffsetQamConstellation, distances: np.ndarray, n0: float):
    """Per-axis (p_i, p_q) and symbol error probabilities of every symbol.

    distances come from _threshold_distances at nodes symmetric about 0 (see
    _q_from_i).  Each result has shape (order, nodes); I and Q errors
    combine as p_i + p_q - p_i * p_q.
    """
    m, rows = c.side, c.order - c.side
    tails = _tail_prob(n0)(distances)
    below, above = tails[:rows], tails[rows:]
    p_i = np.concatenate((above[:m], below[:-m] + above[m:], below[-m:]))
    p_q = _q_from_i(c, p_i)
    return p_i, p_q, p_i + p_q - p_i * p_q


def _errors_at(c: OffsetQamConstellation, theta, n0: float):
    """_symbol_errors at 1-D theta symmetric about 0."""
    return _symbol_errors(c, _threshold_distances(c, _rotated_i(c, theta)), n0)


def axis_error_probabilities(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Conditional per-axis error probabilities (p_i, p_q) at phase theta."""
    p_i, p_q, _ = _at_theta(lambda th: np.stack(_errors_at(c, th, env.n0)), theta)
    return p_i[symbol_index], p_q[symbol_index]


def conditional_symbol_error(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """P(symbol error | sent symbol, residual phase theta)."""
    out = _at_theta(lambda th: _errors_at(c, th, env.n0)[2][symbol_index], theta)
    return out if np.ndim(out) else float(out)


def _hamming_table(c: OffsetQamConstellation) -> np.ndarray:
    """ham[a, b]: Gray sub-word bit flips between level a and level b."""
    bits = c.bit_map[:: c.side, : c.bits_per_symbol // 2]  # I sub-word of each level
    return (bits[:, None] != bits[None, :]).sum(axis=-1).astype(float)


def _symbol_bit_errors(c: OffsetQamConstellation, means: np.ndarray, n0: float):
    """Expected Gray bit flips of every symbol from its rotated I means (order, nodes).

    Along one axis a symbol at level k flips sum_j g_j * tail(d_j) bits (Cho
    & Yoon, IEEE Trans. Commun. 50(7), 2002).  d_j is the signed distance
    from the mean to threshold t_j, positive on level k's side: t_j - mean at
    or above k, mean - t_j below it, as in _threshold_distances.  g_j =
    +-(ham[k, j+1] - ham[k, j]) counts the Gray bits gained by crossing t_j
    away from k.  The nodes must be symmetric about 0 (see _q_from_i).
    """
    k = c.level_indices[:, 0]
    sign = np.where(np.arange(c.side - 1) >= k[:, None], 1.0, -1.0)  # (order, thresholds)
    gain = sign * np.diff(_hamming_table(c)[k], axis=1)
    tails = _tail_prob(n0)(sign.T[:, :, None] * (c.thresholds[:, None, None] - means))
    flips_i = (gain.T[:, :, None] * tails).sum(axis=0)
    return flips_i + _q_from_i(c, flips_i)


def conditional_bit_errors(
    c: OffsetQamConstellation, symbol_index: int, theta, env: NoiseEnvironment
):
    """Expected Gray bit flips for one transmitted symbol at phase theta."""
    total = _at_theta(
        lambda th: _symbol_bit_errors(c, _rotated_i(c, th), env.n0)[symbol_index], theta
    )
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


def _gauss_rule(b: np.ndarray, embedded: int | None = None):
    """Nodes and weights of the Gauss rule of an even weight with recurrence b.

    Golub & Welsch (Math. Comp. 23 (1969) 221-230): the nodes are the
    eigenvalues of the Jacobi matrix with zero diagonal and off-diagonal
    sqrt(b_1..), made exactly symmetric about 0; each weight is
    1 / sum_k p_k(x)^2 over the orthonormal polynomials, b_0 the weight's mass.
    Third result: 1 / sum_{k<embedded} p_k(x)^2, at b[:embedded]'s nodes its weights (or None).
    """
    beta = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(beta[1:], -1))
    x = (x - x[::-1]) / 2
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / beta[0])
    norm, partial = p * p, None
    for k in range(1, x.size):
        if k == embedded:
            partial = 1.0 / norm
        p_prev, p = p, (x * p - beta[k - 1] * p_prev) / beta[k]
        norm += p * p
    return x, 1.0 / norm, partial


def roots_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], as scipy.special.roots_legendre."""
    return _gauss_rule(_legendre_recurrence(n))[:2]


@functools.lru_cache(maxsize=None)
def _quad_nodes(order: int):
    """Read-only Gauss-Kronrod rule on [-1, 1], built once per order on first use.

    Returns the 2 * order + 1 Kronrod nodes x, exactly symmetric about 0,
    their weights, and the Gauss-Legendre weights of the embedded nodes
    x[1::2], whose recurrence the Kronrod one starts with.
    """
    x, w, w_gauss = _gauss_rule(_kronrod_recurrence(order), order)
    for arr in (x, w, w_gauss):
        arr.flags.writeable = False
    return x, w, w_gauss[1::2]


@dataclass(frozen=True, eq=False)
class _PhaseRule:
    """The phase integral of one constellation at one sigma: what no n0 changes.

    theta holds the nodes, symmetric about 0.  weights[0] are the Kronrod
    weights, weights[1] the Gauss weights at theta[1::2] and 0 elsewhere, both
    times the half-width and the Gaussian pdf.  means are every symbol's
    rotated I means at the nodes and distances their _threshold_distances, so
    a point evaluates only its tails.  At sigma = 0: node 0, weights 1.
    """

    theta: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    distances: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Kronrod sum of values at theta, which the Gauss sum must match within QUAD_REL_TOL."""
        fine, coarse = (self.weights * values).sum(axis=1).tolist()
        gap = abs(fine - coarse)
        if gap > QUAD_REL_TOL * abs(fine) and gap > 1e-30:
            raise ConvergenceError(f"phase quadrature did not converge: {coarse:.6g} vs {fine:.6g}")
        return fine


# A sweep or a bisection shares one rule.  The key holds the constellation
# itself, not its id, which a new constellation could reuse.
@functools.lru_cache(maxsize=1)
def _phase_rule(c: OffsetQamConstellation, sigma: float, quad_order: int) -> _PhaseRule:
    """The quad_order Gauss-Kronrod rule against the Gaussian phase pdf.

    The pdf is used un-wrapped on [-pi, pi]; for small sigma the window
    shrinks to +/- 8 sigma where the integrand is supported.
    """
    if sigma == 0:
        theta, weights = np.zeros(1), np.ones((2, 1))
    else:
        half_width = min(8.0 * sigma, math.pi)
        x, w, w_legendre = _quad_nodes(quad_order)
        theta = x * half_width
        pdf = np.exp(-(theta**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
        weights = np.zeros((2, x.size))
        weights[0] = w * half_width * pdf
        weights[1, 1::2] = w_legendre * half_width * pdf[1::2]
    means = _rotated_i(c, theta)
    rule = _PhaseRule(theta, weights, means, _threshold_distances(c, means))
    for arr in (rule.theta, rule.weights, rule.means, rule.distances):
        arr.flags.writeable = False
    return rule


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
    rule = _phase_rule(c, env.sigma_pn_rad, QUAD_ORDER)
    return rule.integrate(_symbol_errors(c, rule.distances, env.n0)[2].mean(axis=0))


def semi_analytic_ber(c: OffsetQamConstellation, env: NoiseEnvironment) -> float:
    """Exact Gray-coded bit error rate (expected bit flips / bits per symbol)."""
    _warn_if_wide(env.sigma_pn_rad, stacklevel=2)
    rule = _phase_rule(c, env.sigma_pn_rad, QUAD_ORDER)
    bit_flips = rule.integrate(_symbol_bit_errors(c, rule.means, env.n0).mean(axis=0))
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
    m, ham = c.side, _hamming_table(c).ravel()  # ham[a * m + b]: flips from level a to b
    sym_errors = bit_errors = 0
    for start in range(0, num_symbols, MC_BLOCK_SYMBOLS):
        idx = rng.integers(0, c.order, min(MC_BLOCK_SYMBOLS, num_symbols - start))
        ki, kq = np.divmod(idx, m)  # symbol idx = ki * m + kq
        theta = rng.normal(0.0, env.sigma_pn_rad, idx.size) if env.sigma_pn_rad > 0 else 0.0
        x, y = add_awgn(rotate_symbol(c.levels[ki], c.levels[kq], c.a0, theta), env.n0, rng)
        flips = ham.take(ki * m + decide_levels(c, x)) + ham.take(kq * m + decide_levels(c, y))
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
    """BER-vs-SNR curve with metadata and the FEC threshold crossing, or why there is none."""

    snr_db: np.ndarray
    ber: np.ndarray
    ser: np.ndarray
    metadata: dict = field(default_factory=dict)
    fec_threshold_snr_db: float | None = None
    fec_threshold_note: str | None = None


def _kp4_verdict(snr_db: np.ndarray, ber: np.ndarray) -> tuple[float | None, str | None]:
    """(KP4 crossing Es/N0 in dB, None), or (None, why the grid places no crossing).

    The crossing is log-linear across the first step ber[i-1] > KP4 >= ber[i] > 0.
    A step from above KP4 onto a BER of 0 (erfc underflows) has no log-linear value.
    """
    note = None
    for i in range(1, len(ber)):
        if ber[i - 1] > KP4_BER_THRESHOLD >= ber[i] and ber[i] > 0:
            la, lb = math.log10(ber[i - 1]), math.log10(ber[i])
            frac = (math.log10(KP4_BER_THRESHOLD) - la) / (lb - la)
            return float(snr_db[i - 1] + frac * (snr_db[i] - snr_db[i - 1])), None
        if note is None and ber[i - 1] > KP4_BER_THRESHOLD and ber[i] == 0:
            note = (f"BER reaches 0 between Es/N0 {snr_db[i - 1]:g} and {snr_db[i]:g} dB; "
                    "the grid needs a finer step to place the KP4 crossing")
    if np.all(ber <= KP4_BER_THRESHOLD):  # then no step starts above KP4
        note = ("BER is at or below the KP4 floor at every grid point from Es/N0 "
                f"{snr_db[0]:g} dB; start the grid lower to place the crossing")
    return None, note or "grid never crosses the KP4 error floor"


def snr_sweep(c: OffsetQamConstellation, sigma_pn_rad: float, snr_grid_db) -> SweepResult:
    """Semi-analytic BER over an Es/N0 grid (dB), plus the KP4 crossing.

    The reported BER follows the ser / log2(order) convention.  The FEC
    threshold SNR is log-linearly interpolated at 2.4e-4; where the grid
    places none it is absent and fec_threshold_note says why.  Each point is
    one ``semi_analytic_ser`` call; a failing phase quadrature names its Es/N0.
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
    metadata = {"order": c.order, "m_ratio": c.m_ratio, "sigma_pn_rad": sigma_pn_rad}
    return SweepResult(snr_db, ber, ser, metadata, *_kp4_verdict(snr_db, ber))


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
