"""Targeted tests for pruning, greedy extraction, and chunked code paths.

These guard properties the acceptance sweeps cannot observe: a pruning
bug that silently drops candidates would only shrink measured counts,
so supersetness is asserted here against brute-force oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab.generators import gen_grid_packing, gen_random
from geomlab.incidence import (_first_come, _greedy_separated,
                               _greedy_separated_reference, _grid_candidates,
                               count_bucketed, count_naive, grid_richness)
from geomlab.measure import VoxelSet, load_voxelset, save_voxelset
from geomlab.planar import LineFamily, PointSet, Scale, _min_pair
from geomlab.rng import Stream


def test_grid_candidate_pruning_is_a_superset():
    # brute force: richness of every delta-grid point of the square
    delta = 2.0 ** -4
    _, L = gen_random(40, 40, delta, seed=9)
    fam = LineFamily(L.params, epsilon=delta)
    s = Scale(delta)
    used = s.multiplier + 1.0
    grid = gen_grid_packing(delta)
    brute = count_naive(PointSet(grid.coords, delta), fam,
                        Scale(delta, multiplier=used))
    field = grid_richness(fam, s)
    # every grid point with positive richness must appear among candidates
    cand_keys = {(round(x, 12), round(y, 12)) for x, y in field.coords}
    for (x, y), r in zip(grid.coords, brute.richness):
        if r > 0:
            assert (round(x, 12), round(y, 12)) in cand_keys
    # and candidate richness agrees with brute force
    lookup = {(round(x, 12), round(y, 12)): rr
              for (x, y), rr in zip(field.coords, field.richness)}
    for (x, y), r in zip(grid.coords, brute.richness):
        key = (round(x, 12), round(y, 12))
        if key in lookup:
            assert lookup[key] == r


def test_greedy_separated_is_separated_and_maximal():
    stream = Stream(17)
    pts = np.column_stack([stream.uniform(500, -1, 1),
                           stream.uniform(500, -1, 1)])
    delta = 0.12
    kept = _greedy_separated(pts, delta)
    kp = pts[kept]
    d = np.sqrt(((kp[:, None, :] - kp[None, :, :]) ** 2).sum(axis=2))
    d[np.arange(len(kp)), np.arange(len(kp))] = np.inf
    assert d.min() >= delta
    # maximality: every input point is within delta of some kept point
    gaps = np.sqrt(((pts[:, None, :] - kp[None, :, :]) ** 2).sum(axis=2)
                   ).min(axis=1)
    assert gaps.max() < delta


@st.composite
def _greedy_cases(draw):
    """Rows and a delta: delta-lattices with exact spacing (whole multiples
    of a step, duplicates included), repeated points, and sparse or dense
    uniform sets; in the order drawn, shuffled, or row-major."""
    delta = draw(st.sampled_from([2.0 ** -3, 0.1, 0.3, 1.0 / 7, 1.0]))
    kind = draw(st.sampled_from(["lattice", "repeats", "sparse", "dense"]))
    n = draw(st.integers(0, 60))
    if kind == "lattice":
        step = delta * draw(st.sampled_from([1.0, 0.5, 0.25, 1.5, 0.7]))
        ij = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=n, max_size=n))
        coords = np.array(ij, dtype=np.float64).reshape(-1, 2) * step
    elif kind == "repeats":
        pool = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                             min_size=1, max_size=6))
        pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                             max_size=n))
        coords = np.array([pool[k] for k in pick]).reshape(-1, 2)
    else:
        r = 1.0 if kind == "sparse" else 2.0 * delta
        coords = np.array(draw(st.lists(
            st.tuples(st.floats(-r, r), st.floats(-r, r)),
            min_size=n, max_size=n))).reshape(-1, 2)
    order = draw(st.sampled_from(["given", "shuffled", "row-major"]))
    if order == "shuffled":
        coords = coords[np.array(draw(st.permutations(range(n))), dtype=int)]
    elif order == "row-major":
        coords = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    return coords, delta


@settings(max_examples=300, deadline=None)
@given(_greedy_cases())
def test_greedy_separated_equals_reference_loop(case):
    coords, delta = case
    assert np.array_equal(_greedy_separated(coords, delta),
                          _greedy_separated_reference(coords, delta))


@pytest.mark.parametrize("n, spread, ordered", [
    (3000, 1.0, True), (3000, 1.0, False),     # sparse: a few large batches
    (3000, 0.15, True), (3000, 0.15, False),   # dense: small batches
    (4000, 0.03, True),                        # a few rows kept
])
def test_greedy_separated_equals_reference_loop_large(n, spread, ordered):
    stream = Stream(n + int(spread * 100))
    coords = np.column_stack([stream.uniform(n, -spread, spread),
                              stream.uniform(n, -spread, spread)])
    if ordered:
        coords = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    for delta in (0.01, 0.05):
        assert np.array_equal(_greedy_separated(coords, delta),
                              _greedy_separated_reference(coords, delta))


def test_greedy_separated_on_plane_packing_lattice():
    # centers of a plane region at spacing delta / 4, scanned by columns:
    # one row in four kept along each kept column
    delta = 2.0 ** -5
    u, t = np.meshgrid(np.arange(-40, 40), np.arange(-12, 12), indexing="ij")
    coords = np.column_stack([u.ravel(), t.ravel()]) * (delta / 4) + delta / 8
    kept = _greedy_separated(coords, delta)
    assert np.array_equal(kept, _greedy_separated_reference(coords, delta))
    assert 0 < kept.size < coords.shape[0] // 8


# (dx, dy) whose np.hypot and math.hypot differ in the last place
_HYPOT_SPLITS = [(-0.14469789757110196, 0.11320763202016959),
                 (0.42362065685151884, -0.7297707198878831),
                 (0.07628662643855644, 0.3365181241403983),
                 (0.769043063236226, 0.6303810546490312)]


@pytest.mark.parametrize("dx, dy", _HYPOT_SPLITS)
def test_border_pairs_are_decided_by_math_hypot(dx, dy):
    pair = np.array([(0.0, 0.0), (dx, dy)])
    for delta in (math.hypot(dx, dy), float(np.hypot(dx, dy))):
        assert np.array_equal(_greedy_separated(pair, delta),
                              _greedy_separated_reference(pair, delta))
    far = [(10.0 * (i + 1), 0.0) for i in range(70)]
    for coords in (pair, np.vstack([pair, far])):
        assert _min_pair(coords) == (math.hypot(dx, dy), (0, 1))


def test_greedy_separated_compares_adjacent_cells_only():
    # 0.1 apart less one ulp, yet in cells 127 and 129 of side 0.1: the
    # reference loop never compares them, so both stay
    coords = np.array([(12.799999999999999, 0.0), (12.899999999999999, 0.0)])
    assert coords[1, 0] - coords[0, 0] < 0.1
    for c in (coords, coords[:, ::-1]):
        assert _greedy_separated_reference(c, 0.1).tolist() == [0, 1]
        assert _greedy_separated(c, 0.1).tolist() == [0, 1]


def _first_come_loop(n, related):
    kept = []
    for j in range(n):
        if not any(related[o, j] for o in kept):
            kept.append(j)
    return np.array(kept, dtype=np.int64)


@pytest.mark.parametrize("density", [0.0, 0.002, 0.02, 0.2, 0.9])
@pytest.mark.parametrize("head", [0, 300])
def test_first_come_equals_loop_on_random_relations(density, head):
    # an abstract relation, one-sided and without geometry; `head` rows
    # relate to nothing, so the batches grow large before the related rows
    n = 700
    stream = Stream(int(density * 1000) + head)
    related = (stream.uniform(n * n, 0.0, 1.0) < density).reshape(n, n)
    related[:head] = related[:, :head] = False

    def near(rows):
        return np.repeat(rows, n), np.tile(np.arange(n), rows.size)

    got = _first_come(n, near, lambda o, j: related[o, j])
    assert np.array_equal(got, _first_come_loop(n, related))


@pytest.mark.parametrize("head", [0, 2000])
def test_first_come_chains(head):
    # each row relates to the next three: every fourth row is kept, one
    # per round when the chain falls inside a large batch
    n = head + 3000

    def near(rows):
        o, j = np.repeat(rows, 3), (rows[:, None] + np.arange(1, 4)).ravel()
        return o[j < n], j[j < n]

    def pred(o, j):
        return (o >= head) & (j > o) & (j <= o + 3)

    got = _first_come(n, near, pred)
    want = np.concatenate([np.arange(head), np.arange(head, n, 4)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [5, 100])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_separated_rejects_non_finite_rows(n, bad):
    coords = np.column_stack([np.linspace(-1, 1, n), np.zeros(n)])
    coords[3, 1] = bad
    with pytest.raises(ValueError, match=r"non-finite coordinates: row 3 "):
        _greedy_separated(coords, 0.01)


def test_bucketed_numpy_path_multi_chunk():
    # 17k points split across chunks of count_bucketed, pairs included
    delta = 2.0 ** -6
    P = gen_grid_packing(delta)
    L = LineFamily(gen_grid_packing(2.0 ** -4).coords, epsilon=2.0 ** -4)
    s = Scale(delta)
    a = count_naive(P, L, s, with_pairs=True)
    b = count_bucketed(P, L, s, with_pairs=True)
    assert a.same_as(b)
    assert len(P) > 15625  # above one chunk (8192 points)


def test_rle_empty_round_trip(tmp_path):
    K = VoxelSet(np.empty((0, 3)), h=0.25, ht=0.125)
    save_voxelset(K, tmp_path / "e.vxl")
    K2 = load_voxelset(tmp_path / "e.vxl")
    assert len(K2) == 0 and K2.h == 0.25 and K2.ht == 0.125
