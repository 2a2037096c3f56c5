"""Offset-QAM constellations: square QAM grids shifted by a common I/Q offset.

The grid spans ``a_oma`` peak-to-peak on each axis and its center sits at
``(a0, a0)`` instead of the origin.  Relative levels on each axis are
``(2k - 1 - sqrt(n)) * a_oma / (2 * (sqrt(n) - 1))`` for ``k = 1..sqrt(n)``,
e.g. ``{-a_oma/2, +a_oma/2}`` for order 4 and
``{-a_oma/2, -a_oma/6, +a_oma/6, +a_oma/2}`` for order 16.

Bit mapping is per-axis reflected Gray code, in-phase sub-word first, so
adjacent levels along either axis differ in exactly one bit.  Decision
thresholds are midpoints between adjacent levels shifted by ``a0``; a value
landing exactly on a threshold resolves to the lower level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True, eq=False)
class OffsetQamConstellation:
    """Immutable offset-QAM symbol grid with Gray bit map and thresholds.

    points has shape (order, 2) holding absolute (i, q) coordinates,
    bit_map has shape (order, log2(order)) with the I sub-word first,
    thresholds holds the sqrt(order)-1 per-axis decision boundaries
    (identical for both axes), level_indices has shape (order, 2)
    with the (i, q) level index of every point.  symbol_energy is the mean
    of (I - a0)^2 + (Q - a0)^2 over all symbols.
    """

    order: int
    a_oma: float
    a0: float
    levels: np.ndarray
    points: np.ndarray
    bit_map: np.ndarray
    thresholds: np.ndarray
    level_indices: np.ndarray
    symbol_energy: float

    @property
    def side(self) -> int:
        return int(round(math.sqrt(self.order)))

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.order)))

    @property
    def m_ratio(self) -> float:
        return self.a0 / self.a_oma


def build_constellation(order: int, a_oma: float, a0: float) -> OffsetQamConstellation:
    """Construct an offset-QAM constellation.

    Args:
        order: symbol count, one of 4, 16, 64, 256 (square QAM only).
        a_oma: full outer amplitude per axis, > 0 (arbitrary linear units).
        a0: center offset applied equally to I and Q, >= 0.

    Raises:
        ValueError: unsupported order, non-positive a_oma, negative a0, or a
            symbol energy (Es/N0 divides by it) outside the normal floats.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported order {order}: must be one of {SUPPORTED_ORDERS}"
        )
    if not a_oma > 0:
        raise ValueError(f"a_oma must be > 0, got {a_oma}")
    if a0 < 0:
        raise ValueError(f"a0 must be >= 0, got {a0}")

    m = int(round(math.sqrt(order)))
    k = np.arange(1, m + 1)
    levels = (2 * k - 1 - m) * a_oma / (2 * (m - 1))

    ki = np.repeat(np.arange(m), m)
    kq = np.tile(np.arange(m), m)
    points = np.column_stack((levels[ki] + a0, levels[kq] + a0))

    # Reflected-Gray word of level k, k ^ (k >> 1), most significant bit first.
    nb = int(round(math.log2(m)))
    gray = np.arange(m) ^ (np.arange(m) >> 1)
    level_bits = ((gray[:, None] >> np.arange(nb - 1, -1, -1)) & 1).astype(np.uint8)
    bit_map = np.hstack((level_bits[ki], level_bits[kq]))

    thresholds = (levels[1:] + levels[:-1]) / 2 + a0
    with np.errstate(over="ignore"):
        symbol_energy = float(np.mean(np.sum((points - float(a0)) ** 2, axis=1)))
    if not np.finfo(float).tiny <= symbol_energy < math.inf:
        raise ValueError(
            f"modulation.a_oma = {a_oma:g} gives the symbol energy {symbol_energy:g}, "
            "outside the normal float range"
        )

    c = OffsetQamConstellation(
        order=order,
        a_oma=float(a_oma),
        a0=float(a0),
        levels=levels,
        points=points,
        bit_map=bit_map,
        thresholds=thresholds,
        level_indices=np.column_stack((ki, kq)),
        symbol_energy=symbol_energy,
    )
    for arr in (c.levels, c.points, c.bit_map, c.thresholds, c.level_indices):
        arr.setflags(write=False)
    return c


def average_symbol_energy(c: OffsetQamConstellation) -> float:
    """Arithmetic mean of (I - a0)^2 + (Q - a0)^2 over all symbols.

    Energy is measured about the constellation center, so it is invariant
    under the offset a0: order 4 gives a_oma^2 / 2, order 16 gives
    5 a_oma^2 / 18.  Computed once, by build_constellation.
    """
    return c.symbol_energy


def n0_from_snr_db(c: OffsetQamConstellation, snr_db: float) -> float:
    """AWGN PSD n0 giving Es/N0 = snr_db (dB), Es the average symbol energy.

    An snr_db past the float range gives n0 = 0 or inf without a warning.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return average_symbol_energy(c) / 10.0 ** (np.float64(snr_db) / 10.0)


def map_bits(c: OffsetQamConstellation, bits) -> tuple[float, float]:
    """Map a bit vector (I sub-word first) to its absolute (i, q) point."""
    bits = np.asarray(bits, dtype=np.uint8)
    nb = c.bits_per_symbol // 2
    if bits.shape != (2 * nb,):
        raise ValueError(
            f"expected {2 * nb} bits for order {c.order}, got shape {bits.shape}"
        )
    match = np.flatnonzero((c.bit_map == bits).all(axis=1))
    if not match.size:
        raise ValueError(f"bits must be 0 or 1, got {bits.tolist()}")
    point = c.points[match[0]]
    return float(point[0]), float(point[1])


def decide_levels(c: OffsetQamConstellation, values) -> np.ndarray:
    """Per-axis hard decision: level index = number of thresholds below the value.

    Values exactly on a threshold resolve to the lower level (NaN to the top one).
    """
    k = np.full(np.shape(values), c.thresholds.size, dtype=np.intp)
    for t in c.thresholds:
        k -= values <= t
    return k[()]


def decide_indices(c: OffsetQamConstellation, i_values, q_values) -> np.ndarray:
    """Vectorized nearest-region decision returning point indices."""
    ki = decide_levels(c, i_values)
    kq = decide_levels(c, q_values)
    return ki * c.side + kq


def demap_point(c: OffsetQamConstellation, i: float, q: float) -> np.ndarray:
    """Hard-decide an (i, q) sample to the bits of its decision region."""
    return c.bit_map[int(decide_indices(c, i, q))].copy()
