"""Targeted tests for pruning, greedy extraction, and chunked code paths.

These guard properties the acceptance sweeps cannot observe: a pruning
bug that silently drops candidates would only shrink measured counts,
so supersetness is asserted here against brute-force oracles.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab import incidence, measure
from geomlab.generators import (gen_grid_packing, gen_random,
                                gen_rectangle_example)
from geomlab.heisenberg import Plane, VerticalPlanePoint
from geomlab.incidence import (_Columns, _count_columns, _first_come,
                               _float_margin, _greedy_separated, _layout,
                               count_naive, grid_richness)
from geomlab.measure import (Box, TubeIntersection, UnionShape, VoxelSet,
                             project_voxels, shape_zoo, voxelize)
from geomlab.planar import (GridTooLarge, LineFamily, PointSet, Scale,
                            _first_true, _min_pair)
from geomlab.rng import Stream
from oracles import (_greedy_separated_reference, _grid_candidates,
                     _grid_richness_reference, traced_peak)


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


def _lattice_richness(L, s):
    """The whole delta-lattice of [-1, 1]^2 that grid_richness scans, in
    row-major order, with its brute-force richness at multiplier C + 1."""
    npts = int(math.floor(2.0 / s.delta)) + 1
    xs = -1.0 + s.delta * np.arange(npts)
    coords = np.column_stack([np.repeat(xs, npts), np.tile(xs, npts)])
    rich = count_naive(PointSet(coords, s.delta), L,
                       Scale(s.delta, s.epsilon, s.multiplier + 1.0)).richness
    return xs, coords, rich


def _lattice_rows(xs, coords):
    """Row-major lattice indices of coords, which must be lattice points."""
    ix, iy = np.searchsorted(xs, coords[:, 0]), np.searchsorted(xs, coords[:, 1])
    assert np.array_equal(xs[ix], coords[:, 0])
    assert np.array_equal(xs[iy], coords[:, 1])
    return ix * xs.size + iy


def _check_grid_richness(L, s):
    """grid_richness returns, in row-major order, the lattice points of
    positive brute-force richness, each with that richness; the oracle
    agrees wherever it looks."""
    field = grid_richness(L, s)
    ref = _grid_richness_reference(L, s)
    xs, coords, rich = _lattice_richness(L, s)
    ref_rows = _lattice_rows(xs, ref.coords)
    assert np.array_equal(ref.richness, rich[ref_rows])
    want = rich > 0
    assert np.array_equal(field.coords, coords[want])
    assert field.richness.dtype == np.int64
    assert np.array_equal(field.richness, rich[want])
    assert field.used_multiplier == ref.used_multiplier == s.multiplier + 1.0
    return field, ref


@st.composite
def _richness_cases(draw):
    """A line family and scale: slopes from flat to 2**60 (exact powers of
    two among them), intercepts on the lattice, in the square and far off
    it, delta not always a power of two, epsilon above delta, other
    multipliers, and empty, single-line and repeated-line families."""
    delta = draw(st.sampled_from([2.0 ** -3, 2.0 ** -4, 0.1, 1.0 / 48]))
    eps = delta * draw(st.sampled_from([1.0, 1.5, 4.0]))
    mult = draw(st.sampled_from([1.0, 1.5, 3.0]))
    sign = st.sampled_from([-1.0, 1.0])
    slope = st.one_of(
        st.floats(-3.0, 3.0),
        st.integers(-12, 12).map(lambda i: i / 4),
        st.builds(lambda g, k, m: g * m * 2.0 ** k, sign, st.integers(0, 60),
                  st.one_of(st.just(1.0), st.floats(1.0, 2.0))))
    intercept = st.one_of(
        st.floats(-1.5, 1.5),
        st.integers(-48, 48).map(lambda i: i * delta),
        st.floats(-2.0 ** 40, 2.0 ** 40))
    pool = draw(st.lists(st.tuples(slope, intercept), max_size=6))
    lines = pool
    if pool and draw(st.booleans()):
        lines = [pool[k] for k in draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
    params = np.array(lines, dtype=np.float64).reshape(-1, 2)
    return LineFamily(params, eps), Scale(delta, eps, mult)


@settings(max_examples=300, deadline=None)
@given(_richness_cases())
def test_grid_richness_equals_brute_force_lattice_and_oracle(case):
    _check_grid_richness(*case)


def test_steep_lines_keep_their_candidates():
    # a slope of 1e20 puts the row estimates beyond the int64 range (the
    # cast used to give INT64_MIN and an empty interval), and near
    # x = +-2 delta adding the lattice step to t = 2 delta * 1e20 rounds
    # away, so the oracle's band misses incident rows there: brute force
    # over the 33 x 33 lattice finds 446 incidences on 291 points, the
    # band 418 on its 319 points, 56 of them of richness 0
    delta = 2.0 ** -4
    L = LineFamily([(1e20, 0.0), (1e3, 0.0), (0.5, 0.1)], delta)
    s = Scale(delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field, ref = _check_grid_richness(L, s)
        _grid_candidates(L, delta, 2.0 * delta)
    assert int(field.richness.sum()) == 446
    assert int(ref.richness.sum()) == 418
    assert field.coords.shape[0] == 291 and ref.coords.shape[0] == 319


@pytest.mark.parametrize("dexp", [4, 6])
def test_grid_richness_equals_reference_on_rectangle_family(dexp):
    delta = 2.0 ** -dexp
    _, L = gen_rectangle_example(delta, 1.0, math.sqrt(delta))
    field, ref = _check_grid_richness(L, Scale(delta))
    # the oracle's band holds every point the scan returns, and points of
    # richness 0 besides: 17 at 2^-4, 109 at 2^-6
    assert np.array_equal(field.coords, ref.coords[ref.richness > 0])
    if dexp == 6:
        assert (field.coords.shape[0], ref.coords.shape[0]) == (15123, 15232)


def test_grid_richness_memory_stays_small():
    # blocks of lattice columns x lines: the scan's peak allocation is a
    # few MB, where expanding the band rows and recounting took ~128 MB
    delta = 2.0 ** -6
    _, L = gen_rectangle_example(delta, 1.0, math.sqrt(delta))
    field, peak = traced_peak(lambda: grid_richness(L, Scale(delta)))
    assert field.coords.shape[0] == 15123
    assert peak < 16 * 2 ** 20


def test_grid_richness_refuses_lattices_past_its_cap():
    # at delta = 1e-9 the lattice of 2 10^9 + 1 points a side asked numpy
    # for 14.9 GiB; at 5e-324, 2 / delta is inf
    assert incidence.RICHNESS_LATTICE_CAP == 4096 ** 2
    L = LineFamily([(0.5, 0.1), (0.0, 0.0)], 2.0 ** -4)
    for delta in (1e-9, 5e-324, 2.0 ** -11):  # 2^-11: 4097^2 points
        with pytest.raises(GridTooLarge, match="more than 16777216 points"):
            grid_richness(L, Scale(delta))
    # just above 2^-11 the lattice holds 4096^2 points, the cap
    delta = 2.0 ** -11 * (1.0 + 2.0 ** -52)
    field = grid_richness(L, Scale(delta))
    assert np.array_equal(np.unique(field.coords[:, 0]),
                          -1.0 + delta * np.arange(4096))


def test_grid_richness_refuses_scans_past_its_work_cap(monkeypatch):
    # the rectangle family at 2^-9 with epsilon = delta: 285,978 lines x
    # 1025 lattice columns, 2^28.1 entries, took 10 s
    assert incidence.RICHNESS_WORK_CAP == 2 ** 26
    delta = 2.0 ** -9
    lines = np.column_stack([np.linspace(-1, 1, 2 ** 26 // 1025 + 1),
                             np.zeros(2 ** 26 // 1025 + 1)])
    with pytest.raises(GridTooLarge, match="65473 lines x 1025 lattice "
                       "columns, more than 67108864 entries"):
        grid_richness(LineFamily(lines, delta), Scale(delta))
    # the cap is on lines x columns: 33 columns at 1/16
    monkeypatch.setattr(incidence, "RICHNESS_WORK_CAP", 33 * 10)
    L = LineFamily(lines[:10], 1.0 / 16)
    assert grid_richness(L, Scale(1.0 / 16)).coords.shape[0] > 0
    with pytest.raises(GridTooLarge, match="11 lines x 33 lattice columns"):
        grid_richness(LineFamily(lines[:11], 1.0 / 16), Scale(1.0 / 16))


@pytest.mark.parametrize("line, mult", [
    ((math.nan, 0.0), 1.0), ((0.5, math.inf), 1.0), ((2.0 ** 256, 0.0), 1.0),
    ((0.5, -2.0 ** 256), 1.0), ((0.5, 0.0), 2.0 ** 300)])
def test_grid_richness_rejects_what_count_bucketed_refuses(line, mult):
    L = LineFamily([(0.5, 0.1), line], 2.0 ** -4)
    with pytest.raises(ValueError, match="2\\*\\*255"):
        grid_richness(L, Scale(2.0 ** -4, multiplier=mult))


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("lattice", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_below_from_any_estimate(lattice, strict, data):
    # _first_true against a linear scan.  First grid_richness's predicate,
    # the first lattice row j with yc - xs[j] below t, in [0, n]: values
    # and thresholds on, near and far off the lattice.  Then j >= a with
    # a in [lo, hi + 1] for brackets anywhere: a = lo holds on the whole
    # bracket, a = hi only at its end, a = hi + 1 nowhere in it.  Estimates
    # anywhere in the bracket.
    delta = [2.0 ** -4, 0.1, 1.0 / 48][lattice - 1]
    n = int(math.floor(2.0 / delta)) + 1
    xs = -1.0 + delta * np.arange(n)
    x_at = np.concatenate([xs, [np.inf, -np.inf]])
    lines, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    t = np.array(data.draw(st.lists(st.one_of(
        st.floats(0.0, 0.5), st.integers(0, 4).map(lambda i: i * delta)),
        min_size=lines, max_size=lines)))[:, None]
    value = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(list(xs)),
                      st.floats(-2.0 ** 60, 2.0 ** 60))
    yc = np.array(data.draw(st.lists(value, min_size=lines * cols,
                                     max_size=lines * cols))).reshape(lines, cols)
    yc[::2] += t[::2]  # a lattice row exactly at the threshold
    below = np.less if strict else np.less_equal
    want = np.argmax(below(yc[:, :, None] - x_at[:n + 1], t[:, :, None]), axis=2)
    est = np.array(data.draw(st.lists(st.integers(0, n), min_size=lines * cols,
                                      max_size=lines * cols))).reshape(lines, cols)
    near = data.draw(st.integers(-2, 2))
    est[::3] = np.clip(want[::3] + near, 0, n)
    tb = np.broadcast_to(t, yc.shape)
    _first_true(lambda s, j, d: below(yc[s] - x_at[j + d], tb[s]), est, 0, n)
    assert np.array_equal(est, want)

    m = data.draw(st.integers(1, 12))
    lo = np.array(data.draw(st.lists(st.integers(-40, 40), min_size=m,
                                     max_size=m)))
    hi = lo + np.array(data.draw(st.lists(st.integers(0, 70), min_size=m,
                                          max_size=m)))
    a = np.array([data.draw(st.one_of(st.just(l), st.just(h),
                                      st.just(h + 1), st.integers(l, h)))
                  for l, h in zip(lo, hi)])
    k = np.array([data.draw(st.integers(l, h)) for l, h in zip(lo, hi)])
    scan = [next((j for j in range(l, h + 1) if j >= e), h + 1)
            for l, h, e in zip(lo, hi, a)]

    def pred(s, j, d):
        # the predicate is only asked about [lo - 1, hi]
        assert np.all((j + d >= lo[s] - 1) & (j + d <= hi[s]))
        return j + d >= a[s]

    _first_true(pred, k, lo, hi)
    assert k.tolist() == scan


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
@pytest.mark.parametrize("head", [0, 100, 300])
def test_first_come_equals_loop_on_random_relations(density, head):
    # an abstract relation, one-sided and without geometry; `head` rows
    # relate to nothing, so the batches grow (32, 128, 512, ... rows) before
    # the related rows, and the batch of 128 or 512 rows that meets them is
    # rescanned
    n = 700
    stream = Stream(int(density * 1000) + head)
    related = (stream.uniform(n * n, 0.0, 1.0) < density).reshape(n, n)
    related[:head] = related[:, :head] = False

    def near(rows):
        return np.repeat(rows, n), np.tile(np.arange(n), rows.size)

    got = _first_come(n, near, lambda o, j: related[o, j])
    assert np.array_equal(got, _first_come_loop(n, related))


@pytest.mark.parametrize("head", [0, 2000, 6000])
def test_first_come_chains(head):
    # each row relates to the next three: every fourth row is kept.  The
    # first `head` rows relate to nothing, so the batches grow through 32,
    # 128, 512, 2048 and 4096 rows, and the chain starts inside the batch of
    # 2048 or 4096 rows, which is rescanned from its first row
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
    b = _count_columns(P, L, s, with_pairs=True)
    assert a.same_as(b)
    assert len(P) > 15625  # above one chunk (8192 points)


_dyadic = st.integers(-64, 64).map(lambda i: i / 64.0)
_huge = st.builds(lambda g, k, f: g * f * 2.0 ** k,
                  st.sampled_from([-1.0, 1.0]), st.integers(0, 254),
                  st.floats(1.0, 2.0))
_coord = st.one_of(st.floats(-1.0, 1.0), _dyadic, _huge)


@st.composite
def _keyed_cases(draw):
    """Points, lines, a scale, the column of each line (slope columns of
    a drawn width, or one column per slope) and the abscissas at which the
    columns are keyed one after the other."""
    xs = draw(st.lists(_coord, min_size=1, max_size=12))
    if draw(st.booleans()):  # all points at one x
        xs = [xs[0]] * len(xs)
    pts = [(x, draw(_coord)) for x in xs]
    slopes = draw(st.lists(st.one_of(_coord, st.floats(-8.0, 8.0)),
                           min_size=1, max_size=4))
    lines = [(draw(st.sampled_from(slopes)), draw(_coord))  # equal slopes
             for _ in range(draw(st.integers(1, 10)))]
    delta = 2.0 ** -draw(st.integers(2, 8))
    s = Scale(delta, multiplier=draw(st.sampled_from([1.0, 3.0, 2.0 ** 40])))
    # lines at distance exactly the radius from a point, or within rounding
    for x, y in draw(st.lists(st.sampled_from(pts), max_size=4)):
        a = draw(st.sampled_from([0.0, 0.75, -0.75, 1.0]))
        side = draw(st.sampled_from([1.0, -1.0]))
        lines.append((a, y - a * x + side * s.radius * math.sqrt(1.0 + a * a)))
    a = np.array([a for a, _ in lines])
    if draw(st.booleans()):
        col = np.unique(a, return_inverse=True)[1]
    else:
        width = max(s.radius, float(a.max() - a.min()) / math.sqrt(a.size))
        width *= draw(st.sampled_from([1.0, 2.0, 8.0, 1e-3]))
        col = np.floor((a - a.min()) / width).astype(np.int64)
    lo, hi = min(xs), max(xs)
    far = 2.0 ** draw(st.integers(0, 250)) * draw(st.sampled_from([-1, 1]))
    refs = draw(st.lists(st.one_of(
        st.just(0.0), st.floats(0.0, 1.0).map(lambda f: lo + f * (hi - lo)),
        st.just(far * (1.0 + max(abs(lo), abs(hi))) / 2.0)),
        min_size=1, max_size=3))
    return (PointSet(pts, delta), LineFamily(lines, delta), s, col,
            [min(max(r, -2.0 ** 255), 2.0 ** 255) for r in refs])


@settings(max_examples=400, deadline=None)
@given(_keyed_cases())
def test_columns_keyed_anywhere_count_like_naive(case):
    # keyed at 0, inside the points' x-range or far outside it, in turn
    P, L, s, col, refs = case
    naive = count_naive(P, L, s, with_pairs=True)
    px, py = P.coords[:, 0], P.coords[:, 1]
    la, lb = L.params[:, 0], L.params[:, 1]
    cols = _Columns(L.params, s.radius, col)
    for x_ref in refs:
        cols.key_at(x_ref)
        margin = _float_margin(px, py, la, lb, s.radius, x_ref)
        for base in (None, np.arange(len(P)) * len(L)):
            rich, keys = cols.count(px, py, margin, base)
            assert np.array_equal(rich, naive.richness)
            if base is None:
                assert keys is None
            else:
                key = np.sort(np.concatenate(keys))
                assert np.array_equal(key, naive.pairs[:, 0] * len(L)
                                      + naive.pairs[:, 1])


def test_bucketed_equals_naive_in_several_groups():
    delta = 2.0 ** -7
    P, L = gen_random(12000, 2000, delta, seed=41)
    s = Scale(delta)
    groups, _, _ = _layout(P.coords[:, 0], L.params[:, 0], s.radius, False)
    assert groups >= 3
    naive = count_naive(P, L, s, with_pairs=True)
    assert _count_columns(P, L, s, with_pairs=True).same_as(naive)
    assert _count_columns(P, L, s).same_as(naive)


def test_blocked_kernels_equal_one_pass(monkeypatch):
    # blocks of 3 spans, 5 columns, 7 tested lines and 7 exhaustively
    # tested pairs split every call below into many blocks (a voxelize
    # block is then one i-row, a window of more than 7 lines is a block of
    # its own, and an exhaustive block is part of one point's row); each
    # output must equal the one the default sizes give
    stream = Stream(2024)
    shapes = list(shape_zoo().values())
    for nbox in (1, 2, 4):  # unions of random boxes, as isoperimetric's
        shapes.append(UnionShape(*(Box(stream.uniform(3, -0.3, 0.3),
                                       stream.uniform(3, 0.1, 0.35))
                                   for _ in range(nbox))))
    delta = 2.0 ** -4  # tube-volume's pair of tubes
    tubes = TubeIntersection(VerticalPlanePoint(Plane.W_X, 0.2, -0.1),
                             VerticalPlanePoint(Plane.W_Y, -0.3, -0.16),
                             2.0 * delta, np.full(3, -0.6), np.full(3, 0.6))
    grids = [(sh, 1 / 16) for sh in shapes] + [(tubes, delta / 4.0)]
    instances = [gen_random(300, 300, 2.0 ** -5, seed=seed)
                 for seed in (1, 2)]
    instances.append(gen_rectangle_example(2.0 ** -5, 1.0, 0.25))

    def outputs():
        out = []
        for sh, h in grids:
            K = voxelize(sh, h)
            assert len(K)
            out += [K.spans] + [project_voxels(K, which).occupied
                                for which in ("x", "y")]
        for P, L in instances:
            for with_pairs in (False, True):
                for engine in (_count_columns, count_naive):
                    rep = engine(P, L, Scale(P.delta), with_pairs)
                    assert rep.count
                    out += [rep.richness, rep.pairs]
        return out

    want = outputs()
    monkeypatch.setattr(measure, "_PROJECT_SPANS", 3)
    monkeypatch.setattr(measure, "_VOXELIZE_COLUMNS", 5)
    monkeypatch.setattr(incidence, "_TEST_LINES", 7)
    monkeypatch.setattr(incidence, "_BLOCK_PAIRS", 7)
    got = outputs()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_rle_empty_round_trip():
    # an empty set, rebuilt from its run-length spans, is still empty and
    # keeps both sides
    K = VoxelSet(np.empty((0, 3)), h=0.25, ht=0.125)
    K2 = VoxelSet.from_spans(K.spans, K.h, K.ht)
    assert len(K2) == 0 and K2.spans.shape == (0, 4)
    assert K2.h == 0.25 and K2.ht == 0.125
