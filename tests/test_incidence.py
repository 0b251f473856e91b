"""Tests for the counting engines and rich points."""

import dataclasses
import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab.generators import (gen_concurrent_star, gen_grid_packing,
                                gen_kstar, gen_random, gen_rectangle_example,
                                gen_tube_example)
from geomlab import incidence
from geomlab.incidence import (_count_columns, count_bucketed,
                               count_incidences, count_naive, grid_richness,
                               k_rich_points, max_concurrency)
from geomlab.planar import LineFamily, Point2, PointSet, Scale
from oracles import (_count_naive_one_pass, point_line_dist,
                     reduced_box_instance, traced_peak)


def test_count_single_pairs():
    s = Scale(0.1)
    one = PointSet([(0.0, 0.0)], delta=0.1)
    fam = LineFamily([(0.0, 0.0)], epsilon=0.1)
    assert count_naive(one, fam, s).count == 1
    off = PointSet([(0.0, 1.0)], delta=0.1)
    assert count_naive(off, fam, s).count == 0


def test_count_incidences_verify_asserts_engine_equality(monkeypatch):
    P, L = gen_random(200, 200, 2.0 ** -5, seed=3)
    s = Scale(2.0 ** -5)
    rep = count_incidences(P, L, s, verify=True)
    assert rep.count and rep.same_as(count_naive(P, L, s, with_pairs=True))
    # the oracle is looked up at call time, so a wrapper of it is called
    oracle = incidence.count_naive
    no_points = PointSet(P.coords[:0], P.delta)
    monkeypatch.setattr(incidence, "count_naive",
                        lambda P, L, s, with_pairs: oracle(no_points, L, s,
                                                           with_pairs))
    with pytest.raises(AssertionError, match="disagree"):
        count_incidences(P, L, s, verify=True)
    # equal count and richness, one pair entry tampered with
    def tampered(P, L, s, with_pairs):
        rep = oracle(P, L, s, with_pairs)
        rep.pairs[len(rep.pairs) // 2, 1] += 1
        return rep
    monkeypatch.setattr(incidence, "count_naive", tampered)
    with pytest.raises(AssertionError, match="disagree"):
        count_incidences(P, L, s, verify=True)


def test_verify_checks_the_column_path_below_the_cut(monkeypatch):
    # 200 x 200 is below both cuts, where count_bucketed runs the oracle's
    # own kernel: verify must still compare the column path with it
    P, L = gen_random(200, 200, 2.0 ** -5, seed=3)
    s = Scale(2.0 ** -5)
    assert len(P) * len(L) <= incidence._EXHAUSTIVE_PAIRS
    columns = incidence._count_columns

    def tampered(P, L, s, with_pairs=False):
        rep = columns(P, L, s, with_pairs)
        rep.pairs[len(rep.pairs) // 2, 1] += 1
        return rep
    monkeypatch.setattr(incidence, "_count_columns", tampered)
    with pytest.raises(AssertionError, match="disagree"):
        count_incidences(P, L, s, verify=True)
    # input beyond the column engine's domain is refused before any count
    for bad in (math.nan, 2.0 ** 300):
        with pytest.raises(ValueError, match="finite coordinates"):
            count_incidences(PointSet([(bad, 0.0)], 0.1), L, s, verify=True)


def _pair_instances():
    delta = 2.0 ** -5
    P, L = gen_random(300, 200, delta, seed=7)
    G = gen_grid_packing(2.0 ** -4)
    return [(P, L, Scale(delta)),
            (G, LineFamily(G.coords, 2.0 ** -4), Scale(2.0 ** -4)),
            (*gen_kstar(16, 8, 2.0 ** -8), Scale(2.0 ** -8))]


def test_pairs_are_sorted_int64_rows_equal_in_both_engines():
    for P, L, s in _pair_instances():
        naive = count_naive(P, L, s, with_pairs=True)
        bucketed = _count_columns(P, L, s, with_pairs=True)
        for rep in (naive, bucketed):
            assert rep.pairs.dtype == np.int64
            assert rep.pairs.shape == (rep.count, 2) and rep.count > 0
            key = rep.pairs[:, 0] * len(L) + rep.pairs[:, 1]
            assert np.all(np.diff(key) > 0)  # lexicographic, no repeats
            assert 0 <= rep.pairs.min() and rep.pairs[:, 0].max() < len(P)
            assert rep.pairs[:, 1].max() < len(L)
            assert np.array_equal(np.bincount(rep.pairs[:, 0],
                                              minlength=len(P)),
                                  rep.richness)
        assert np.array_equal(naive.pairs, bucketed.pairs)
        assert np.array_equal(count_bucketed(P, L, s, with_pairs=True).pairs,
                              naive.pairs)
        for engine in (count_naive, count_bucketed, _count_columns):
            assert engine(P, L, s).pairs is None


def test_no_pairs_give_an_empty_int64_array():
    s = Scale(0.1)
    P = PointSet([(0.0, 0.0), (0.5, 0.5)], delta=0.1)
    L = LineFamily([(0.0, 0.0)], epsilon=0.1)
    cases = [(PointSet(np.empty((0, 2)), 0.1), L),
             (P, LineFamily(np.empty((0, 2)), 0.1)),
             (PointSet([(0.0, 0.9)], 0.1), L)]  # no hits
    for P, L in cases:
        for engine in (count_naive, count_bucketed, _count_columns):
            rep = engine(P, L, s, with_pairs=True)
            assert rep.count == 0
            assert rep.pairs.shape == (0, 2) and rep.pairs.dtype == np.int64


def test_same_as_compares_every_pair():
    P, L, s = _pair_instances()[0]
    rep = count_naive(P, L, s, with_pairs=True)
    assert rep.same_as(dataclasses.replace(rep, pairs=rep.pairs.copy()))
    for k in range(2):
        off = rep.pairs.copy()
        off[-1, k] -= 1
        assert not rep.same_as(dataclasses.replace(rep, pairs=off))
    assert not rep.same_as(dataclasses.replace(rep, pairs=rep.pairs[1:]))
    assert not dataclasses.replace(rep, pairs=rep.pairs[:-1]).same_as(rep)


def test_pairs_memory_grows_with_the_pairs_only():
    # rectangle-pairs at 2^-6: 585 points, 5285 lines, 175,501 pairs, 2.8 MB
    # as int64.  Held as Python tuples they took 19 MB and the call's traced
    # peak was 28 MB; holding the (point, slot) hits of every tested block,
    # their concatenation and then the keys at once, it was 8.7 MB.
    delta = 2.0 ** -6
    P, L = gen_rectangle_example(delta, 1.0, 2.0 ** -3)
    rep, peak = traced_peak(
        lambda: count_bucketed(P, L, Scale(delta), with_pairs=True))
    assert rep.count == 175501
    assert rep.pairs.nbytes == 16 * rep.count
    assert peak < 7e6, f"traced peak {peak / 1e6:.1f} MB"


def test_oracle_memory_is_its_output_and_one_block():
    # the same call through the oracle: testing all 3.1M pairs at once
    # took a traced peak of 49 MB
    delta = 2.0 ** -6
    P, L = gen_rectangle_example(delta, 1.0, 2.0 ** -3)
    rep, peak = traced_peak(
        lambda: count_naive(P, L, Scale(delta), with_pairs=True))
    assert rep.count == 175501
    assert peak < 6e6, f"traced peak {peak / 1e6:.1f} MB"


def test_count_only_keeps_no_hit_arrays():
    # reduce-pipeline's 1317 x 1317 instance at 2^-7.  Building the hit
    # pairs a count-only call discards, over every tested line at once,
    # took a traced peak of 12.3 MB.
    red = reduced_box_instance(2.0 ** -7)
    assert (len(red.points), len(red.lines)) == (1317, 1317)
    rep, peak = traced_peak(
        lambda: count_bucketed(red.points, red.lines, red.scale))
    assert rep.count == 438153 and rep.pairs is None
    assert peak <= 6 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def test_count_only_working_memory_is_bounded():
    # planar-large's count-only random 20000 x 20000 at 2^-8, in 9 groups
    # of fixed-width columns.  Collecting a chunk's windows over every
    # column before testing any of them, then testing them in blocks of
    # 2^15 lines, took a traced peak of 6.1 MiB.
    delta = 2.0 ** -8
    P, L = gen_random(20000, 20000, delta, seed=1)
    rep, peak = traced_peak(lambda: count_bucketed(P, L, Scale(delta)))
    assert rep.count == 1559699 and rep.pairs is None
    assert peak <= 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_chunks_do_not_shrink_with_the_columns(monkeypatch):
    # the count-only rectangle at 2^-7, 1 x 1/4: 4,257 points against 257
    # per-slope columns.  Chunks cut to 2^19 / 257 points, to bound the
    # windows collected before any was tested, took 3 passes over the
    # columns; the whole input is one chunk of _CHUNK_POINTS
    delta = 2.0 ** -7
    P, L = gen_rectangle_example(delta, 1.0, 0.25)
    s = Scale(delta)
    groups, _, col = incidence._layout(P.coords[:, 0], L.params[:, 0],
                                       s.radius, False)
    assert len(P) == 4257 and groups == 1 and np.unique(col).size == 257
    calls = []
    count = incidence._Columns.count

    def spy(self, x, *args):
        calls.append(x.size)
        return count(self, x, *args)

    monkeypatch.setattr(incidence._Columns, "count", spy)
    assert count_bucketed(P, L, s).same_as(count_naive(P, L, s))
    assert calls == [len(P)]


def test_empty_inputs():
    s = Scale(0.1)
    empty_p = PointSet(np.empty((0, 2)), delta=0.1)
    fam = LineFamily([(0.0, 0.0)], epsilon=0.1)
    assert count_naive(empty_p, fam, s).count == 0
    assert count_bucketed(empty_p, fam, s).count == 0


def test_tube_instance_tracks_inverse_delta():
    delta = 2.0 ** -10
    P, L = gen_tube_example(delta)
    rep = count_naive(P, L, Scale(delta))
    c = rep.count * delta
    assert 0.25 <= c <= 4.0


def test_engines_agree_exactly_on_random_instances():
    for i in range(12):
        delta = 2.0 ** -(4 + i % 7)
        n = min(300, int(0.8 / delta ** 2))
        P, L = gen_random(n, n, delta, seed=31 + i)
        s = Scale(delta)
        a = count_naive(P, L, s, with_pairs=True)
        b = _count_columns(P, L, s, with_pairs=True)
        assert a.same_as(b)
        assert a.count == int(a.richness.sum())
        assert len(a.pairs) == a.count
        # kernel path (no pairs) must agree as well
        k = _count_columns(P, L, s)
        assert k.count == a.count and np.array_equal(k.richness, a.richness)


def test_blocked_oracle_equals_the_one_pass_test():
    # whole rows a block (m <= 2^13) and rows split into runs of lines
    tube = gen_tube_example(2.0 ** -32)
    cases = [(*gen_rectangle_example(2.0 ** -5, 1.0, 2.0 ** -2.5),
              Scale(2.0 ** -5)),
             (PointSet(tube[0].coords[:3], 2.0 ** -32),
              LineFamily(tube[1].params[:20000], 2.0 ** -32),
              Scale(2.0 ** -32))]
    cases += _pair_instances()
    for P, L, s in cases:
        for with_pairs in (False, True):
            want = _count_naive_one_pass(P, L, s, with_pairs)
            got = count_naive(P, L, s, with_pairs)
            assert got.count and got.same_as(want)
            assert (got.pairs is None) == (not with_pairs)


def test_count_monotone_in_scale_and_inputs():
    P, L = gen_random(200, 200, 2.0 ** -6, seed=5)
    c1 = count_naive(P, L, Scale(2.0 ** -7)).count
    c2 = count_naive(P, L, Scale(2.0 ** -6)).count
    c3 = count_naive(P, L, Scale(2.0 ** -6, multiplier=2.0)).count
    assert c1 <= c2 <= c3
    half = PointSet(P.coords[:100], delta=P.delta)
    assert count_naive(half, L, Scale(2.0 ** -6)).count <= c2


def _grid_x_grid():
    delta = 2.0 ** -5
    P = gen_grid_packing(delta)
    return P, LineFamily(P.coords, epsilon=delta), Scale(delta)


def _random_in_groups():
    delta = 2.0 ** -9
    P, L = gen_random(10000, 2000, delta, seed=3)
    return P, L, Scale(delta)


@pytest.mark.parametrize("make", [_grid_x_grid, _random_in_groups],
                         ids=["grid_x_grid", "random_in_groups"])
def test_bucketed_outruns_naive_on_large_instances(make):
    # grid x grid: 4225 x 4225 ~ 18M pairs in one group; random: 10000 x
    # 2000 = 20M pairs, more than one chunk of points, so in several groups
    # keyed at their own x.  The binary searches skip almost all pairs.
    # Brute force is timed as the one-pass test this bound was set against.
    P, L, s = make()
    count_bucketed(P, L, s)  # first call: page in numpy's code paths
    tb = min(timeit.repeat(lambda: count_bucketed(P, L, s), number=1, repeat=3))
    tn = min(timeit.repeat(lambda: _count_naive_one_pass(P, L, s),
                           number=1, repeat=3))
    assert count_bucketed(P, L, s).same_as(count_naive(P, L, s))
    assert tn >= 5.0 * tb, f"expected >=5x speedup, got {tn / tb:.2f}x"


def test_bucketed_equals_naive_outside_parameter_square():
    # slopes beyond |a| <= 1 once gave 0 for 2 (a = 1.2) or crashed (a < -1)
    s = Scale(0.1)
    P = PointSet([(0.5, 0.5), (0.0, 1.0), (1.0, 1.0), (0.0, 1.2)], delta=0.1)
    for params in ([(1.2, -0.2)], [(-1.5, 1.0)],
                   [(1.2, -0.2), (-1.5, 1.0), (0.0, 3.0), (40.0, -7.5)]):
        L = LineFamily(params, epsilon=0.1)
        naive = count_naive(P, L, s, with_pairs=True)
        assert _count_columns(P, L, s, with_pairs=True).same_as(naive)
        assert _count_columns(P, L, s).same_as(naive)
    assert _count_columns(P, LineFamily([(1.2, -0.2)], 0.1), s).count == 2
    assert _count_columns(P, LineFamily([(-1.5, 1.0)], 0.1), s).count == 1
    # input beyond the engine's domain is refused, never miscounted
    L = LineFamily([(0.0, 0.0)], epsilon=0.1)
    for bad in (math.nan, math.inf, 2.0 ** 300):
        with pytest.raises(ValueError, match="finite coordinates"):
            count_bucketed(PointSet([(bad, 0.0)], 0.1), L, s)
        with pytest.raises(ValueError, match="finite coordinates"):
            count_bucketed(P, LineFamily([(0.0, bad)], 0.1), s)


def _at_the_cuts():
    """(name, P, L, scale) with n m at each cut and one above it.  The
    count-only cut, 2^16, and 2^16 + 1, a prime, are 256 x 256 and 1 x
    65537; the with-pairs cut, 2^18, and 2^18 + 1 are 512 x 512, 1 x
    262145 and 5 x 52429."""
    cut, listed = incidence._EXHAUSTIVE_PAIRS, incidence._EXHAUSTIVE_WITH_PAIRS
    assert (cut, listed) == (2 ** 16, 2 ** 18)

    def take(P, L, n, m):
        return (PointSet(P.coords[:n], P.delta),
                LineFamily(L.params[:m], L.epsilon))

    delta = 2.0 ** -8
    P, L = gen_random(cut + 1, cut + 1, 2.0 ** -9, seed=5)
    tube = gen_tube_example(2.0 ** -32)  # 65,537 points and lines
    long_tube = gen_tube_example(2.0 ** -36)  # 262,145 points and lines
    rect = gen_rectangle_example(delta, 1.0, 1.0)  # 66,049 x 164,737
    small = gen_rectangle_example(2.0 ** -6, 0.125, 0.125)  # 81 x 1625
    cases = [("random", take(P, L, 256, 256), 2.0 ** -9),
             ("random", take(P, L, 1, cut + 1), 2.0 ** -9),
             ("random", take(P, L, cut + 1, 1), 2.0 ** -9),
             ("random", take(P, L, 512, 512), 2.0 ** -9),
             ("tube", take(*tube, 1, cut), 2.0 ** -32),
             ("tube", take(*tube, cut, 1), 2.0 ** -32),
             ("tube", take(*tube, 1, cut + 1), 2.0 ** -32),
             ("tube", take(*tube, cut + 1, 1), 2.0 ** -32),
             ("tube", take(*long_tube, 1, listed), 2.0 ** -36),
             ("tube", take(*long_tube, 1, listed + 1), 2.0 ** -36),
             ("rectangle", take(*small, 64, 1024), 2.0 ** -6),
             ("rectangle", take(*rect, 1, cut + 1), delta),
             ("rectangle", take(*rect, cut + 1, 1), delta),
             ("rectangle", take(*rect, 5, (listed + 1) // 5), delta)]
    return [(name, P, L, Scale(d)) for name, (P, L), d in cases]


def test_the_cut_picks_the_path_and_both_equal_the_oracle(monkeypatch):
    called = []
    for path in ("_count_exhaustive", "_count_columns"):
        def spy(*args, _path=path, _fn=getattr(incidence, path)):
            called.append(_path)
            return _fn(*args)
        monkeypatch.setattr(incidence, path, spy)
    cut = {False: incidence._EXHAUSTIVE_PAIRS,
           True: incidence._EXHAUSTIVE_WITH_PAIRS}
    sizes = set()
    for name, P, L, s in _at_the_cuts():
        nm = len(P) * len(L)
        sizes.add(nm)
        naive = count_naive(P, L, s, with_pairs=True)
        assert naive.count, name
        for with_pairs in (False, True):
            called.clear()
            assert count_bucketed(P, L, s, with_pairs).same_as(naive), name
            assert called == ["_count_exhaustive" if nm <= cut[with_pairs]
                              else "_count_columns"], (name, nm, with_pairs)
            assert _count_columns(P, L, s, with_pairs).same_as(naive), name
    assert sizes == {cut[False], cut[False] + 1, cut[True], cut[True] + 1}


def _threshold_family(slopes: int, m: int = 400):
    """m lines over the given number of slopes (every slope holds m /
    slopes lines or one more) on dyadic lattices, and the 20 x 20 lattice
    of points at spacing 2^-5 from the origin, at delta = 2^-5: the lines
    of slope 0 lie at exactly the radius from many points."""
    j = np.arange(m)
    a = -0.5 + (j % slopes) / 64.0
    b = (j // slopes) / 16.0
    g = np.arange(20) / 32.0
    pts = np.column_stack([np.repeat(g, 20), np.tile(g, 20)])
    delta = 2.0 ** -5
    return PointSet(pts, delta), LineFamily(np.column_stack([a, b]), delta)


def _columns_of(P, L, s, with_pairs):
    """The column assignment _layout gives the lines: "per-slope",
    "fixed-width" (as wide as the x strips), or "either" where the two
    coincide."""
    la = L.params[:, 0]
    _, width, col = incidence._layout(P.coords[:, 0], la, s.radius,
                                      with_pairs)
    fixed = np.array_equal(col, np.floor((la - la.min()) / width))
    per_slope = np.array_equal(col, np.unique(la, return_inverse=True)[1])
    assert fixed or per_slope
    if fixed and per_slope:
        return "either"
    return "fixed-width" if fixed else "per-slope"


def _count_only_cases():
    """(name, P, L, scale) of count-only calls that get per-slope columns,
    and of the families at and just above the slope threshold, 2 sqrt m
    distinct slopes: 40 and 41 for 400 lines."""
    cases = []
    for dexp in (4, 5, 6, 7):
        d = 2.0 ** -dexp
        cases.append((f"rectangle 2^-{dexp}",
                      *gen_rectangle_example(d, 1.0, math.sqrt(d)), Scale(d)))
    G = gen_grid_packing(2.0 ** -4)
    cases.append(("grid-x-grid 2^-4", G, LineFamily(G.coords, 2.0 ** -4),
                  Scale(2.0 ** -4)))
    for slopes in (40, 41):
        cases.append((f"{slopes} slopes", *_threshold_family(slopes),
                      Scale(2.0 ** -5)))
    return cases


def test_count_only_lattice_families_equal_the_oracle():
    # per-slope columns: exact windows count every line by index difference
    # but at lattice ties, which the exact tests settle
    for name, P, L, s in _count_only_cases():
        naive = count_naive(P, L, s)
        assert naive.count, name
        assert count_bucketed(P, L, s).same_as(naive), name
        assert _count_columns(P, L, s).same_as(naive), name


def test_layout_gives_per_slope_columns_to_count_only_calls_of_few_slopes():
    # grid-x-grid 2^-4's fixed-width columns, 2^-4 wide, hold one slope
    # each: there the two assignments coincide
    assert 2.0 * math.sqrt(400) == 40
    cases = _count_only_cases()
    assert {name: _columns_of(P, L, s, False) for name, P, L, s in cases} == {
        "rectangle 2^-4": "per-slope", "rectangle 2^-5": "per-slope",
        "rectangle 2^-6": "per-slope", "rectangle 2^-7": "per-slope",
        "grid-x-grid 2^-4": "either", "40 slopes": "per-slope",
        "41 slopes": "fixed-width"}
    # with pairs every call keeps fixed-width columns, as does a random
    # family, whose m lines take m slopes
    assert {name: _columns_of(P, L, s, True) for name, P, L, s in cases} == {
        name: "either" if name.startswith("grid") else "fixed-width"
        for name, *_ in cases}
    P, L = gen_random(3000, 3000, 2.0 ** -7, seed=3)
    for with_pairs in (False, True):
        assert _columns_of(P, L, Scale(2.0 ** -7), with_pairs) == "fixed-width"
    # the count-only rectangle at 2^-6: 129 slopes, one a column, keyed at
    # x = 0 in one group
    d = 2.0 ** -6
    P, L = gen_rectangle_example(d, 1.0, math.sqrt(d))
    groups, _, col = incidence._layout(P.coords[:, 0], L.params[:, 0],
                                       Scale(d).radius, False)
    cols = incidence._Columns(L.params, Scale(d).radius, col)
    assert groups == 1 and cols.starts.size == 129 and cols.a_hi is None


_dyadic = st.integers(-64, 64).map(lambda i: i / 64.0)
_point = st.one_of(st.sampled_from([(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0),
                                    (1.0, 1.0)]),
                   st.tuples(_dyadic, _dyadic))


@st.composite
def _tie_instances(draw):
    delta = 2.0 ** -draw(st.integers(2, 6))
    s = Scale(delta, multiplier=draw(st.sampled_from([1.0, 2.0])))
    pts = draw(st.lists(_point, max_size=10))
    slope = st.sampled_from([-1.0, -0.75, -0.5, 0.0, 0.25, 0.75, 1.0])
    lines = draw(st.lists(st.tuples(slope, _dyadic), max_size=6))
    # lines at distance exactly radius from a drawn point (for a = 0 and
    # a = +-3/4, sqrt(1 + a^2) is dyadic) or within rounding of it (|a| = 1)
    for x, y in (draw(st.lists(st.sampled_from(pts), max_size=6))
                 if pts else []):
        a = draw(st.sampled_from([0.0, 0.75, -0.75, 1.0, -1.0]))
        side = draw(st.sampled_from([1.0, -1.0]))
        lines.append((a, y - a * x + side * s.radius * math.sqrt(1.0 + a * a)))
    return PointSet(pts, delta), LineFamily(lines, delta), s


@settings(max_examples=300, deadline=None)
@given(_tie_instances())
def test_bucketed_equals_naive_on_ties(inst):
    P, L, s = inst
    naive = count_naive(P, L, s, with_pairs=True)
    assert _count_columns(P, L, s, with_pairs=True).same_as(naive)
    assert _count_columns(P, L, s).same_as(naive)


def test_richness_histogram_and_ratio():
    P, L = gen_tube_example(2.0 ** -8)
    rep = count_naive(P, L, Scale(2.0 ** -8))
    hist = np.bincount(rep.richness)
    assert sum(k * v for k, v in enumerate(hist)) == rep.count
    assert rep.normalized_ratio == pytest.approx(
        rep.count / (len(P) ** (2 / 3) * len(L) ** (2 / 3) * (2.0 ** -8) ** (-1 / 3)))


def test_normalized_ratio_band_across_families():
    """The count stays within a fixed band of |P|^{2/3} |L|^{2/3} delta^{-1/3}
    over every generator family and scale tested."""
    from geomlab.generators import gen_rectangle_example
    ratios = []
    for dexp in range(6, 13):
        delta = 2.0 ** -dexp
        P, L = gen_tube_example(delta)
        ratios.append(count_bucketed(P, L, Scale(delta)).normalized_ratio)
    for dexp in range(4, 8):
        delta = 2.0 ** -dexp
        side = math.sqrt(delta)
        for (r, s_len) in ((1.0, side), (side, side), (1.0, 1.0)):
            P, L = gen_rectangle_example(delta, r, s_len)
            ratios.append(count_bucketed(P, L, Scale(delta)).normalized_ratio)
        n = min(400, int(0.8 / delta ** 2))
        P, L = gen_random(n, n, delta, seed=dexp)
        rep = count_bucketed(P, L, Scale(delta))
        if rep.count:
            ratios.append(rep.normalized_ratio)
    for dexp in (8, 9):  # deeper scales for the thin-rectangle family
        delta = 2.0 ** -dexp
        P, L = gen_rectangle_example(delta, 1.0, math.sqrt(delta))
        ratios.append(count_bucketed(P, L, Scale(delta)).normalized_ratio)
    assert max(ratios) / min(ratios) <= 100.0


# ---------------------------------------------------------------------------
# rich points

def test_k_rich_rejects_small_k():
    _, L = gen_kstar(4, 1, 2.0 ** -6)
    with pytest.raises(ValueError):
        k_rich_points(L, 1, Scale(2.0 ** -6))


def test_two_parallel_lines_have_no_2_rich_points():
    delta = 2.0 ** -6
    fam = LineFamily([(0.0, 0.5), (0.0, -0.5)], epsilon=1.0)
    res = k_rich_points(fam, 2, Scale(delta))
    assert len(res.points) == 0


def test_kstar_recovers_planted_centers():
    delta = 2.0 ** -10
    k, m = 16, 8
    P, L = gen_kstar(k, m, delta)
    rep = count_naive(P, L, Scale(delta))
    assert rep.count >= m * k
    res = k_rich_points(L, k, Scale(delta))
    assert len(res.points) >= m
    # every planted center is recovered by a returned point within delta
    gaps = np.sqrt(((P.coords[:, None, :] - res.points.coords[None, :, :]) ** 2
                    ).sum(axis=2)).min(axis=1)
    assert np.all(gaps <= delta)
    # every returned point really is k-rich at the recorded multiplier
    sc = Scale(delta, multiplier=res.used_multiplier)
    for x, y in res.points.coords.tolist():
        assert max_concurrency(L, Point2(x, y), sc) >= k


def test_star_bound_empties_high_k():
    # beyond the concurrency ceiling ~ 4/eps no k-rich points can exist
    eps = 2.0 ** -5
    delta = eps / 4.0
    P, L = gen_random(250, 250, delta, seed=88)
    fam = LineFamily(L.params, epsilon=delta)
    k = int(4.0 / delta) + 2
    res = k_rich_points(fam, k, Scale(delta))
    assert len(res.points) == 0


def test_max_concurrency_star():
    eps = 2.0 ** -6
    fam = gen_concurrent_star(32, eps)
    s = Scale(eps / 4.0, eps)
    assert max_concurrency(fam, Point2(0.0, 0.0), s) == 32
    # brute-force oracle at a far generic point
    far = Point2(math.cos(0.7), math.sin(0.7))
    brute = sum(point_line_dist(far.x, far.y, a, b) <= s.radius
                for a, b in fam.params.tolist())
    assert max_concurrency(fam, far, s) == brute
    assert brute <= 2


def test_richness_ceiling():
    # no point is incident to more than min(|L|, 4 / eps) lines
    eps = 2.0 ** -5
    delta = eps / 4.0
    _, L = gen_random(1, 300, delta, seed=3)
    fam = LineFamily(L.params, epsilon=delta)
    field = grid_richness(fam, Scale(delta))
    ceiling = min(len(fam), int(4.0 / delta))
    assert field.richness.max(initial=0) <= ceiling
