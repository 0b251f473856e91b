"""Tests for points, lines, the parameter metric, incidence, and duality."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomlab.planar import (LineFamily, PointSet, Scale, _CellHash,
                            _min_pair, dual_lines, dual_points, incident,
                            load_line_family, load_point_set,
                            save_line_family, save_point_set, threshold,
                            validate_separation)
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
    with pytest.raises(ValueError, match="outside the unit square"):
        dual_lines(PointSet([(0, 0), (1.5, 0)], delta=0.25))


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


def test_csv_round_trip(tmp_path):
    ps = PointSet([(0.125, -0.5), (0.7, 0.3)], delta=0.25)
    lf = LineFamily([(0.5, -0.25), (-1.0, 1.0)], epsilon=0.5)
    save_point_set(ps, tmp_path / "pts.csv", generator="unit", seed=7)
    save_line_family(lf, tmp_path / "lns.csv", generator="unit", seed=7)
    ps2 = load_point_set(tmp_path / "pts.csv")
    lf2 = load_line_family(tmp_path / "lns.csv")
    assert np.array_equal(ps.coords, ps2.coords) and ps2.delta == ps.delta
    assert np.array_equal(lf.params, lf2.params) and lf2.epsilon == lf.epsilon


def test_csv_loader_rejects_bad_rows(tmp_path):
    ps = PointSet([(0.125, -0.5), (0.7, 0.3)], delta=0.25)
    save_point_set(ps, tmp_path / "pts.csv", generator="unit", seed=7)
    lf = LineFamily([(0.5, -0.25)], epsilon=0.5)
    save_line_family(lf, tmp_path / "lns.csv", generator="unit", seed=7)
    meta = (tmp_path / "pts.csv.meta.json").read_text()
    bodies = {
        "short.csv": "x,y\n0.125,-0.5\n0.7\n",
        "long.csv": "x,y\n0.125,-0.5,1\n",
        "blank.csv": "x,y\n0.125,-0.5\n\n",
        "junk.csv": "x,y\n0.125,abc\n",
        "empty_cell.csv": "x,y\n,0.3\n",
        # these loaded, and count_incidences then failed without naming
        # the file where count_naive counted them
        "nan.csv": "x,y\n0.125,-0.5\nnan,0.5\n",
        "inf.csv": "x,y\ninf,0.5\n",
        # found by test_csv_loader_fuzz: the first loaded as inf, the
        # second raised a UnicodeDecodeError that did not name the file
        "overflow.csv": "x,y\n0.7,1e4300\n",
        "not_utf8.csv": b"x,y\n0.1\xe15,-0.5\n",
    }
    for name, body in bodies.items():
        path = tmp_path / name
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        (tmp_path / (name + ".meta.json")).write_text(meta)
        with pytest.raises(ValueError, match=name):
            load_point_set(path)
    bad_lines = tmp_path / "lines_short.csv"
    bad_lines.write_text("a,b\n0.5\n")
    (tmp_path / "lines_short.csv.meta.json").write_text(
        (tmp_path / "lns.csv.meta.json").read_text())
    with pytest.raises(ValueError, match="lines_short.csv"):
        load_line_family(bad_lines)


@pytest.mark.parametrize("meta", ['{not json', '{"epsilon": null}',
                                  '{"delta": null}', '[1, 2]',
                                  '{"delta": 0, "epsilon": Infinity}'])
@pytest.mark.parametrize("save, load", [(save_point_set, load_point_set),
                                        (save_line_family, load_line_family)])
def test_csv_loader_rejects_bad_sidecars(tmp_path, meta, save, load):
    path = tmp_path / "set.csv"
    if save is save_point_set:
        save(PointSet([(0.125, -0.5)], delta=0.25), path)
    else:
        save(LineFamily([(0.5, -0.25)], epsilon=0.5), path)
    sidecar = tmp_path / "set.csv.meta.json"
    sidecar.write_text(meta)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{sidecar}: ")


_FUZZ_POINTS = PointSet([(0.125, -0.5), (0.7, 1e300), (-1.0, 1e-300)], delta=0.25)
_FUZZ_LINES = LineFamily([(0.5, -0.25), (-1.0, 1.0)], epsilon=0.5)


@settings(max_examples=150, deadline=1000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([(save_point_set, load_point_set, _FUZZ_POINTS),
                        (save_line_family, load_line_family, _FUZZ_LINES)]),
       st.booleans(),
       st.lists(st.tuples(st.integers(0, 200),
                          st.sampled_from(b"0123456789.,-+eEinfa\n\r\"{} ")
                          | st.integers(0, 255)), max_size=4),
       st.just(0) | st.integers(0, 60), st.binary(max_size=8))
def test_csv_loader_fuzz(tmp_path, kind, sidecar, edits, cut, junk):
    # a saved CSV, or its sidecar, with bytes overwritten (most of them by
    # digits, signs, separators and the letters of nan and inf), cut by
    # some bytes and with junk appended, either loads with finite
    # coordinates and a finite scale > 0 or raises a ValueError whose
    # message starts with the file's path
    save, load, obj = kind
    path = tmp_path / "fuzz.csv"
    save(obj, path)
    target = tmp_path / "fuzz.csv.meta.json" if sidecar else path
    data = bytearray(target.read_bytes())
    for pos, byte in edits:
        if pos < len(data):
            data[pos] = byte
    target.write_bytes(bytes(data[:len(data) - cut]) + junk)
    try:
        got = load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}")
        return
    coords = got.coords if save is save_point_set else got.params
    scale = got.delta if save is save_point_set else got.epsilon
    assert np.isfinite(coords).all() and math.isfinite(scale) and scale > 0
