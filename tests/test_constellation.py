import itertools
import math

import numpy as np
import pytest

from oqamcpr.constellation import (
    OffsetQamConstellation,
    average_symbol_energy,
    build_constellation,
    decide_indices,
    decide_levels,
    demap_point,
    map_bits,
)

ORDERS = (4, 16, 64, 256)


def test_four_qam_points_with_offset():
    c = build_constellation(4, 1.0, 0.1)
    expected = {(-0.4, -0.4), (-0.4, 0.6), (0.6, -0.4), (0.6, 0.6)}
    got = {(round(p[0], 12), round(p[1], 12)) for p in c.points}
    assert got == expected


def test_sixteen_qam_levels_exact():
    c = build_constellation(16, 1.0, 0.0)
    assert np.allclose(c.levels, [-1 / 2, -1 / 6, 1 / 6, 1 / 2], atol=1e-15)


def test_sixteen_qam_thresholds_shifted_by_offset():
    c = build_constellation(16, 1.0, 0.2)
    assert np.allclose(c.thresholds, [0.2 - 1 / 3, 0.2, 0.2 + 1 / 3], atol=1e-15)


@pytest.mark.parametrize("order", [8, 32, 2, 100])
def test_unsupported_order_rejected(order):
    with pytest.raises(ValueError, match="order"):
        build_constellation(order, 1.0, 0.1)


def test_bad_amplitudes_rejected():
    with pytest.raises(ValueError, match="a_oma"):
        build_constellation(4, 0.0, 0.1)
    with pytest.raises(ValueError, match="a0"):
        build_constellation(4, 1.0, -0.1)


@pytest.mark.parametrize("order", ORDERS)
def test_symbol_energy_outside_normal_floats_rejected(order):
    # Es/N0 divides by the symbol energy: one that underflows to a subnormal
    # or 0, or overflows, would silently give n0 = 0 or inf.
    for a_oma in (1e-300, 1e-165, 1e-160, 1e154, 1e300):
        with pytest.raises(ValueError, match=r"modulation\.a_oma.*normal float range"):
            build_constellation(order, a_oma, 0.1 * a_oma)
    for a_oma in (1e-150, 1e150):
        c = build_constellation(order, a_oma, 0.1 * a_oma)
        assert c.symbol_energy == pytest.approx(average_symbol_energy(
            build_constellation(order, 1.0, 0.1)) * a_oma**2, rel=1e-12)


def test_average_symbol_energy_values():
    assert average_symbol_energy(build_constellation(4, 1.0, 0.1)) == pytest.approx(0.5, abs=1e-15)
    assert average_symbol_energy(build_constellation(16, 1.0, 0.0)) == pytest.approx(5 / 18, abs=1e-15)
    assert average_symbol_energy(build_constellation(4, 2.0, 0.0)) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("order", ORDERS)
def test_energy_invariant_under_offset(order):
    rng = np.random.default_rng(1)
    base = average_symbol_energy(build_constellation(order, 1.3, 0.0))
    for a0 in rng.uniform(0.0, 2.0, 5):
        assert average_symbol_energy(build_constellation(order, 1.3, a0)) == pytest.approx(
            base, rel=1e-12
        )


@pytest.mark.parametrize("order", ORDERS)
def test_dc_balance_and_level_geometry(order):
    a_oma, a0 = 0.7, 0.21
    c = build_constellation(order, a_oma, a0)
    assert np.allclose(c.points.mean(axis=0), [a0, a0], atol=1e-12)
    assert np.max(np.abs(c.levels)) == pytest.approx(a_oma / 2, rel=1e-12)
    spacing = np.diff(c.levels)
    assert spacing.min() == pytest.approx(a_oma / (math.sqrt(order) - 1), rel=1e-12)


@pytest.mark.parametrize("order", ORDERS)
def test_demap_map_round_trip(order):
    c = build_constellation(order, 1.0, 0.37)
    nb = c.bits_per_symbol
    for bits in itertools.product((0, 1), repeat=nb):
        i, q = map_bits(c, bits)
        assert tuple(demap_point(c, i, q)) == bits


@pytest.mark.parametrize("order", ORDERS)
def test_gray_adjacency_per_axis(order):
    c = build_constellation(order, 1.0, 0.0)
    m = c.side
    nb = c.bits_per_symbol // 2
    grid = {tuple(k): c.bit_map[p] for p, k in enumerate(c.level_indices)}
    for ki in range(m):
        for kq in range(m):
            if ki + 1 < m:
                di = np.count_nonzero(grid[(ki, kq)][:nb] != grid[(ki + 1, kq)][:nb])
                dq = np.count_nonzero(grid[(ki, kq)][nb:] != grid[(ki + 1, kq)][nb:])
                assert (di, dq) == (1, 0)
            if kq + 1 < m:
                di = np.count_nonzero(grid[(ki, kq)][:nb] != grid[(ki, kq + 1)][:nb])
                dq = np.count_nonzero(grid[(ki, kq)][nb:] != grid[(ki, kq + 1)][nb:])
                assert (di, dq) == (0, 1)


@pytest.mark.parametrize("order", ORDERS)
def test_bit_map_is_msb_first_reflected_gray(order):
    c = build_constellation(order, 1.0, 0.0)
    nb = c.bits_per_symbol // 2
    assert c.bit_map.dtype == np.uint8
    for p, (ki, kq) in enumerate(c.level_indices.tolist()):
        word = f"{ki ^ (ki >> 1):0{nb}b}{kq ^ (kq >> 1):0{nb}b}"
        assert "".join(map(str, c.bit_map[p])) == word


def test_canonical_gray_map_all_zero_bits():
    c = build_constellation(4, 1.0, 0.1)
    assert map_bits(c, (0, 0)) == pytest.approx((-0.4, -0.4))


def test_map_bits_wrong_length():
    c = build_constellation(4, 1.0, 0.1)
    with pytest.raises(ValueError, match="bits"):
        map_bits(c, (0, 1, 0))


def test_map_bits_non_binary():
    c = build_constellation(16, 1.0, 0.1)
    with pytest.raises(ValueError, match="0 or 1"):
        map_bits(c, (0, 2, 0, 1))


def test_demap_threshold_region():
    c = build_constellation(16, 1.0, 0.0)
    eps = 1e-9
    bits_hi = demap_point(c, 1 / 3 + eps, -0.4)
    i_sub = bits_hi[: c.bits_per_symbol // 2]
    # region above +a_oma/3 is the outer level +a_oma/2
    i, _ = map_bits(c, np.concatenate((i_sub, demap_point(c, -0.4, -0.4)[2:])))
    assert i == pytest.approx(0.5)


def test_demap_tie_breaks_to_lower_level():
    c = build_constellation(16, 1.0, 0.0)
    on_thr = demap_point(c, 1 / 3, 0.0)
    below = demap_point(c, 1 / 3 - 1e-12, -1e-12)
    assert tuple(on_thr) == tuple(below)


@pytest.mark.parametrize("order", ORDERS)
def test_decide_levels_matches_sorted_search(order):
    c = build_constellation(order, 1.0, 0.2)
    t = c.thresholds
    values = np.concatenate((
        np.random.default_rng(order).uniform(-0.2, 1.4, 100_000),
        t,
        np.nextafter(t, -np.inf),
        np.nextafter(t, np.inf),
        [np.nan, -np.inf, np.inf],
    ))
    assert np.array_equal(decide_levels(c, values), np.searchsorted(t, values, side="left"))
    for v in values[-3 * t.size - 3:]:
        k, want = decide_levels(c, v), np.searchsorted(t, v, side="left")
        assert type(k) is type(want) and k == want
    # a 0-d decision indexes bit_map, as demap_point does
    i, q = t[0], np.nextafter(t[-1], np.inf)
    assert tuple(demap_point(c, i, q)) == tuple(c.bit_map[c.side - 1])


def test_decide_indices_vectorized_matches_scalar():
    c = build_constellation(64, 1.0, 0.05)
    rng = np.random.default_rng(2)
    i = rng.uniform(-1, 1, 200)
    q = rng.uniform(-1, 1, 200)
    idx = decide_indices(c, i, q)
    for k in range(200):
        assert tuple(c.bit_map[idx[k]]) == tuple(demap_point(c, i[k], q[k]))


def test_exact_points_demap_to_own_bits():
    c = build_constellation(64, 2.0, 0.3)
    for p in range(c.order):
        assert tuple(demap_point(c, *c.points[p])) == tuple(c.bit_map[p])


def test_constellation_is_immutable():
    c = build_constellation(4, 1.0, 0.1)
    assert isinstance(c, OffsetQamConstellation)
    with pytest.raises(ValueError):
        c.points[0, 0] = 99.0
