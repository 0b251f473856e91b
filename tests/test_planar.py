"""Tests for points, lines, the parameter metric, incidence, and duality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab.planar import (LineFamily, PointSet, Scale, _CellHash,
                            _min_pair, dual_lines, dual_points, incident,
                            threshold, validate_separation)
from geomlab.acceptance import duality_check
from geomlab.generators import gen_grid_packing
from geomlab.rng import Stream
from oracles import _duality_check_loop, point_line_dist

coord = st.floats(-1.0, 1.0)
scales = st.floats(2.0 ** -10, 0.5)


def _incident(x, y, a, b, s):
    """planar.incident on one pair, given as floats"""
    x = np.array([x], dtype=np.float64)
    return bool(incident(x, y, a, b, threshold(a, s.radius))[0])


def test_point_line_dist_examples():
    assert point_line_dist(1, 1, 1, 0) == 0.0
    assert point_line_dist(0, 0.5, 0, 0) == 0.5
    d = point_line_dist(0, 0, 1, 1)
    assert d == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_point_line_dist_matches_sampled_minimum():
    # oracle: minimize the distance to dense samples of the line
    (x, y), (a, b) = (0, 0), (1, 1)
    xs = np.linspace(-3, 3, 20001)
    sampled = np.min(np.hypot(xs - x, a * xs + b - y))
    assert point_line_dist(x, y, a, b) == pytest.approx(float(sampled),
                                                        abs=1e-6)


def test_is_incident_closed_boundary():
    s = Scale(0.1)
    assert _incident(0, 0, 0, 0, s)
    assert not _incident(0, 0.2, 0, 0, s)
    # ties on the closed neighborhood boundary count as incident
    assert _incident(0, 0.1, 0, 0, s)
    # the test is on the Euclidean distance: 0.14 above the line y = x is
    # 0.099 from it
    assert _incident(0, 0.14, 1, 0, s)
    assert not _incident(0, 0.15, 1, 0, s)


def test_incident_broadcasts_into_given_buffers():
    x = np.array([[0.0], [0.5]])
    y = np.array([[0.0], [0.5]])
    a, b = np.array([0.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0])
    thr = threshold(a, 0.1)
    want = np.array([[True, True, False], [False, True, True]])
    assert np.array_equal(incident(x, y, a, b, thr), want)
    out, work = np.empty((2, 3), dtype=bool), np.empty((2, 3))
    assert incident(x, y, a, b, thr, out=out, work=work) is out
    assert np.array_equal(out, want)
    assert np.array_equal(work, np.abs(x * a + b - y))


def test_duality_examples():
    P = PointSet([(0, 0), (0.5, 0.25), (1, -1)], delta=0.25)
    L = dual_lines(P)
    assert L.params.tolist() == [[-0.0, 0], [-0.5, 0.25], [-1, -1]]
    assert L.epsilon == 0.25
    M = dual_points(LineFamily([(0, 0), (0.7, -0.2)], epsilon=0.5))
    assert M.coords.tolist() == [[0, 0], [0.7, -0.2]] and M.delta == 0.5
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match="outside the unit square"):
            dual_lines(PointSet([(0, 0), (bad, 0)], delta=0.25))


@given(coord, coord)
def test_duality_round_trip(x, y):
    q = dual_points(dual_lines(PointSet([(x, y)], delta=0.5))).coords[0]
    # parameters are read back with the slope sign flipped
    assert q[0] == -x and q[1] == y


@given(coord, coord, coord, coord, scales)
def test_duality_incidence_transfer(x, y, a, b, delta):
    """A delta-incidence maps to a 2 delta-incidence of the dual pair."""
    if _incident(x, y, a, b, Scale(delta)):
        (u, v), = dual_points(LineFamily([(a, b)], delta)).coords
        (c, d), = dual_lines(PointSet([(x, y)], delta)).params
        assert _incident(u, v, c, d, Scale(delta, multiplier=2.0))


@pytest.mark.parametrize("delta, seed, pairs, target", [
    (2.0 ** -7, 12345, 2000, None), (2.0 ** -7, 99, 1500, 4000),
    (2.0 ** -3, 1, 3, 7), (0.3, 5, 1000, None), (1.0, 2, 1000, 1000),
    (1e-9, 3, 1000, None)])
def test_duality_check_equals_the_pair_loop(delta, seed, pairs, target):
    res = duality_check(delta, pairs, Stream(seed), target=target)
    want = _duality_check_loop(delta, pairs, Stream(seed), target=target)
    assert (res.summary["checked"], res.summary["failures"]) == want
    assert res.summary["checked"] > 0


@given(coord, coord, coord, coord)
def test_vertical_euclidean_sandwich(x, y, a, b):
    vert = abs(a * x + b - y)
    d = point_line_dist(x, y, a, b)
    assert d <= vert + 1e-15
    assert vert <= math.sqrt(2) * d + 1e-15


def test_validate_separation_examples():
    ps = PointSet([(0, 0), (1, 0)], delta=0.5)
    assert validate_separation(ps).ok
    bad = PointSet([(0, 0), (0.1, 0)], delta=0.5)
    rep = validate_separation(bad)
    assert not rep.ok
    assert rep.min_distance == pytest.approx(0.1, rel=1e-12)
    assert rep.pair == (0, 1)


def _min_pair_brute(coords):
    best, pair = math.inf, None
    for i in range(coords.shape[0]):
        for j in range(i + 1, coords.shape[0]):
            d = math.hypot(coords[i, 0] - coords[j, 0],
                           coords[i, 1] - coords[j, 1])
            if d < best:
                best, pair = d, (i, j)
    return best, pair


@st.composite
def _point_clouds(draw):
    """n = 2, 64, 65 or 500 points: uniform, on a lattice with many tied
    closest pairs, with repeated points, or clustered around far-apart
    centers, shuffled."""
    n = draw(st.sampled_from([2, 64, 65, 500]))
    kind = draw(st.sampled_from(["uniform", "lattice", "repeats", "clusters"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "uniform":
        coords = rng.uniform(-1, 1, (n, 2))
    elif kind == "lattice":
        step = draw(st.sampled_from([2.0 ** -5, 0.1, 1.0 / 3]))
        cells = rng.permutation(40 * 40)[:n]
        coords = np.column_stack([cells // 40, cells % 40]) * step
    elif kind == "repeats":
        coords = rng.uniform(-1, 1, (n, 2))
        coords[rng.integers(0, n, n // 4)] = coords[rng.integers(0, n, n // 4)]
    else:
        centers = rng.uniform(-1e3, 1e3, (4, 2))
        coords = centers[rng.integers(0, 4, n)] + rng.normal(0, 1e-3, (n, 2))
    return coords


@settings(max_examples=60, deadline=None)
@given(_point_clouds())
def test_min_pair_equals_brute_force(coords):
    assert _min_pair(coords) == _min_pair_brute(coords)


def test_min_pair_extent_beyond_the_float_range():
    # max - min overflows; the cells are laid on halved coordinates
    coords = np.array([(-1e308, 0.0), (1e308, 0.0), (1e308, 1.0),
                       (-1e308, 5.0)])
    with np.errstate(over="ignore"):
        assert _min_pair_brute(coords) == (1.0, (1, 2))
    assert _min_pair(coords) == (1.0, (1, 2))


def _cell_hash_brute(cells, last, lo, hi):
    """The sorted pairs (q, j) _CellHash finds: cells within 1 on every
    axis, last[j] in q's window, and, when the rows come in non-decreasing
    order of their first cell, j's first cell not before q's."""
    n = cells.shape[0]
    forward = bool(np.all(cells[1:, 0] >= cells[:-1, 0]))
    pairs = []
    for q in range(n):
        for j in range(n):
            step = cells[j] - cells[q]
            if np.any(np.abs(step) > 1) or (forward and step[0] < 0):
                continue
            if lo[q] <= last[j] <= hi[q]:
                pairs.append((q, j))
    return sorted(pairs)


@st.composite
def _cell_hash_cases(draw):
    """Rows with 1 or 2 integer cell axes (gaps of 1 and 2 between cells,
    repeats), sorted by first cell or not, and one window per row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2]))
    cells = rng.integers(-4, 5, (n, d)).astype(np.float64)
    if draw(st.booleans()):
        cells = cells[np.argsort(cells[:, 0], kind="stable")]
    last = rng.integers(-6, 7, n).astype(np.float64) * 0.5
    lo = rng.uniform(-4, 2, n)
    hi = lo + rng.uniform(0, 4, n)
    return cells, last, lo, hi


@settings(max_examples=200, deadline=None)
@given(_cell_hash_cases())
def test_cell_hash_pairs_equal_brute_force(case):
    cells, last, lo, hi = case
    near = _CellHash(cells, last, lo, hi)
    q, j = near(np.arange(last.size))
    assert sorted(zip(q.tolist(), j.tolist())) == _cell_hash_brute(cells, last,
                                                                  lo, hi)
    # any subset of query rows, in any order, gives its own pairs
    rows = np.array([r for r in range(last.size - 1, -1, -2)], dtype=np.int64)
    q, j = near(rows)
    want = [p for p in _cell_hash_brute(cells, last, lo, hi) if p[0] in rows]
    assert sorted(zip(q.tolist(), j.tolist())) == want


def test_validate_separation_same_verdict_at_every_size():
    # np.sqrt of the summed squares puts this pair below the bound,
    # math.hypot exactly on it; the verdict no longer depends on n
    p = (0.09918737534611899, -0.9448817735138633)
    q = (0.5070262173496132, 0.07628662643855644)
    bound = 1.0995987550502848
    far = [(10.0 * (i + 1), 10.0 * (i % 7)) for i in range(70)]
    for pts in ([p, q], [p, q] + far):
        rep = validate_separation(PointSet(pts, bound))
        assert rep.ok and rep.pair == (0, 1)
        assert rep.min_distance == math.hypot(p[0] - q[0], p[1] - q[1])


@pytest.mark.parametrize("n", [1, 3, 100])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_separation_rejects_non_finite(n, bad):
    coords = np.column_stack([np.linspace(0, 1, n), np.zeros(n)])
    coords[n - 1, 0] = bad
    with pytest.raises(ValueError,
                       match=rf"non-finite coordinates: row {n - 1} "):
        validate_separation(PointSet(coords, 0.001))


def test_grid_packing_separation_and_count():
    ps = gen_grid_packing(2.0 ** -5)
    assert len(ps) == 65 ** 2 == 4225
    assert validate_separation(ps).ok


def test_scale_validation():
    with pytest.raises(ValueError):
        Scale(0.0)
    with pytest.raises(ValueError):
        Scale(0.5, 0.25)  # epsilon < delta
    with pytest.raises(ValueError):
        Scale(0.1, multiplier=0.5)
    s = Scale(0.25)
    assert s.epsilon == 0.25 and s.radius == 0.25
