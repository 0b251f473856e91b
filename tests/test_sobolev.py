"""Tests for the discrete horizontal calculus and the Sobolev checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab import sobolev as S
from geomlab.acceptance import sobolev_check, sobolev_function
from geomlab.heisenberg import h_inv, h_mul, proj_y
from geomlab.measure import VoxelSet
from geomlab.sobolev import (FUNCTION_ZOO, GridFunction, bump,
                             dilated_fn, field_X, field_Y,
                             gns_check, level_range,
                             levelset_lemma_check, lp_norm, sample_to_grid,
                             sheared_fn, smoothed_box, zoo_function)
from oracles import (_bump_rows, _dilated_rows, _function_zoo_reference,
                     _level_mask, _levelset_lemma_check_reference,
                     _sample_rows_reference, _sheared_rows, traced_peak)


def patch(fn, h=1 / 16, ext=(0.5, 0.5, 0.5)):
    return sample_to_grid(fn, h, ext)


def zero(x, y, t):
    return 0.0 * (x + y + t)


def indicator_patch(values_fn):
    # restrict an unbounded test function to a compactly supported patch
    def fn(x, y, t):
        inside = (np.abs(x) <= 0.4) & (np.abs(y) <= 0.4) & (np.abs(t) <= 0.4)
        return np.where(inside, values_fn(x, y, t), 0.0)
    return fn


def test_fields_vanish_on_zero():
    z = patch(zero)
    assert not np.any(field_X(z).values)
    assert not np.any(field_Y(z).values)


def test_sample_to_grid_refuses_grids_over_the_cap():
    # refused before fn is called: 256 x 256 x 258 samples are 2^24 = 256^3
    # and two t-layers, and at h = 5e-324 every e / h is inf
    def fn(x, y, t):
        raise AssertionError("sampled")

    for h, ext in ((1.0, (128, 128, 129)), (5e-324, (0.5, 0.5, 0.5))):
        with pytest.raises(ValueError, match="more than 16777216 samples"):
            sample_to_grid(fn, h, ext, margin=0)


def test_fields_exact_on_affine_samples():
    f = patch(indicator_patch(lambda x, y, t: t))
    Xf, Yf = field_X(f), field_Y(f)
    i, j, k = (n // 2 for n in f.values.shape)
    i += 1
    j += 2
    x = f.axis_centers(0)[i]
    y = f.axis_centers(1)[j]
    assert Xf.values[i, j, k] == pytest.approx(-y / 2, rel=1e-12)
    assert Yf.values[i, j, k] == pytest.approx(x / 2, rel=1e-12)
    g = patch(indicator_patch(lambda x, y, t: x))
    assert field_X(g).values[i, j, k] == pytest.approx(1.0, rel=1e-12)
    assert field_Y(g).values[i, j, k] == 0.0


def test_field_linearity():
    f = patch(bump((0.4, 0.4, 0.3)))
    g = patch(bump((0.3, 0.35, 0.25)))
    # scaling by a power of two commutes with every rounding step
    assert np.array_equal(field_X(f.copy_with(2.0 * f.values)).values,
                          2.0 * field_X(f).values)
    lhs = field_X(f.copy_with(2.0 * f.values + 3.0 * g.values)).values
    rhs = 2.0 * field_X(f).values + 3.0 * field_X(g).values
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_field_rejects_boundary_support():
    n = 8
    vals = np.zeros((n, n, n))
    vals[1, 4, 4] = 1.0  # support on the one-cell margin itself
    f = GridFunction(vals, h=0.1)
    with pytest.raises(ValueError):
        field_X(f)
    # the level sets need no field; the checks that read one fail as it does
    d = f.decomposition
    assert d.levels == (0, 1) and all(len(d.voxels(k)) for k in d.levels)
    for check in (lambda: gns_check(f), lambda: levelset_lemma_check(f, 1)):
        with pytest.raises(ValueError, match="support touches"):
            check()


def test_stencil_second_order_on_cubic():
    def cubic(x, y, t):
        inside = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5) & (np.abs(t) <= 0.5)
        return np.where(inside, x ** 3 + y ** 3 + t ** 3, 0.0)

    def err(h):
        f = sample_to_grid(cubic, h, (0.52, 0.52, 0.52))
        Xf = field_X(f)
        xs = f.axis_centers(0)[:, None, None]
        ys = f.axis_centers(1)[None, :, None]
        ts = f.axis_centers(2)[None, None, :]
        exact = 3 * xs ** 2 - ys / 2 * (3 * ts ** 2)
        core = (np.abs(xs) < 0.3) & (np.abs(ys) < 0.3) & (np.abs(ts) < 0.3)
        return float(np.max(np.abs(Xf.values - exact) * core))

    assert err(1 / 16) / err(1 / 32) >= 3.5


def test_lp_norm_examples():
    one = GridFunction(np.pad(np.ones((1, 1, 1)), 1), h=0.1)
    assert lp_norm(one, 1.0) == pytest.approx(1e-3, rel=1e-12)
    f = patch(bump((0.4, 0.4, 0.3)))
    assert lp_norm(f.copy_with(-2.5 * f.values), 2.0) == pytest.approx(
        2.5 * lp_norm(f, 2.0), rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_refinement_consistency():
    vals = [lp_norm(sample_to_grid(bump((0.5, 0.5, 0.35)), h, (0.55, 0.55, 0.4)),
                    4 / 3) for h in (1 / 32, 1 / 64)]
    assert vals[1] == pytest.approx(vals[0], rel=0.01)


def test_gns_check_working_memory_bounded_by_two_grids():
    # the bump of the benchmark's gns task; gns_check builds the level
    # decomposition, which takes each field's absolute value in place
    w = 0.75
    f = sample_to_grid(bump((w, w, 2 * w / 3)), 1 / 64,
                       (w + 0.05, w + 0.05, 2 * w / 3 + 0.05))
    _, peak = traced_peak(lambda: gns_check(f))
    assert peak <= 2 * f.values.nbytes


def test_gns_zero_function():
    z = patch(zero)
    res = gns_check(z)
    assert (res.lhs, res.rhs, res.ratio) == (0.0, 0.0, 0.0)


def test_gns_ratio_bounded_and_refinement_stable():
    r1 = gns_check(sample_to_grid(bump((0.5, 0.5, 0.35)), 1 / 32,
                                  (0.55, 0.55, 0.4))).ratio
    r2 = gns_check(sample_to_grid(bump((0.5, 0.5, 0.35)), 1 / 64,
                                  (0.55, 0.55, 0.4))).ratio
    assert 0 < r2 <= 0.75
    assert abs(r1 - r2) / r2 <= 0.10


def test_gns_dilation_invariance():
    f0 = bump((0.5, 0.5, 0.35))
    h = 1 / 48
    base = gns_check(sample_to_grid(f0, h, (0.55, 0.55, 0.4))).ratio
    for lam in (0.5, 2.0):
        g = sample_to_grid(dilated_fn(f0, lam), h * lam,
                           (0.55 * lam, 0.55 * lam, 0.4 * lam * lam))
        assert gns_check(g).ratio == pytest.approx(base, rel=0.10)


def test_level_sets_examples():
    z = patch(zero)
    assert z.decomposition.levels == ()
    one = GridFunction(np.pad(np.ones((3, 3, 3)), 2), h=0.125)
    # |f| = 1 = 2^0 sits on the closed boundary of both bands k=0 and k=1
    assert one.decomposition.levels == (0, 1)
    assert all(len(one.decomposition.voxels(k)) == 27 for k in (0, 1))


def test_level_sets_reconstruct_l43_mass():
    f = patch(bump((0.45, 0.4, 0.3)), h=1 / 32)
    total = float((np.abs(f.values) ** (4 / 3)).sum() * f.h ** 3)
    d = f.decomposition
    by_levels = sum(2.0 ** (4 * k / 3) * len(d.voxels(k)) * f.h ** 3
                    for k in d.levels)
    # dyadic reconstruction matches the integral within the band factor
    assert total <= by_levels * 2.0 ** (4 / 3)
    assert by_levels <= total * 2.0 ** (4 / 3) * 1.05  # closed-edge overlap


def test_levelset_lemma_on_bump():
    f = sample_to_grid(bump((0.5, 0.5, 0.35)), 1 / 48, (0.55, 0.55, 0.4))
    a = np.abs(f.values)
    populated = {k: bool(((a >= 2.0 ** (k - 1)) & (a <= 2.0 ** k)).any())
                 for k in level_range(f)}
    checked = 0
    for k, has in populated.items():
        if not has or not populated.get(k - 1, False):
            continue
        for which in ("x", "y"):
            res = levelset_lemma_check(f, k, which, slack=1.25)
            assert res.holds, (k, which, res)
            checked += 1
    assert checked >= 10


def test_levelset_lemma_sharpened_bump():
    # steeper profile: both sides grow, the inequality is retained
    steep = lambda x, y, t: bump((0.4, 0.4, 0.3))(x, y, t) ** 2
    f = sample_to_grid(steep, 1 / 48, (0.45, 0.45, 0.35))
    a = np.abs(f.values)
    populated = {k: bool(((a >= 2.0 ** (k - 1)) & (a <= 2.0 ** k)).any())
                 for k in level_range(f)}
    for k, has in populated.items():
        if not has or not populated.get(k - 1, False):
            continue
        assert levelset_lemma_check(f, k, "x").holds
        assert levelset_lemma_check(f, k, "y").holds


def test_levelset_lemma_fails_on_the_coarse_bump_grid():
    # at h = 1/5, 2.5 samples per half-width of the bump, the lemma fails
    # its slack 1.25 at level -2; sobolev_function refuses that grid, and
    # the library still reports the FAIL
    f = zoo_function("bump", 1 / 5)
    res = sobolev_check("bump", f)
    assert (res.ok, res.summary["lemma_ok"]) == (False, False)
    assert res.summary["gns_ratio"] <= 2.0
    assert [r["record"] for r in res.rows if not r["holds"]] == [
        "level_-2_x", "level_-2_y"]
    with pytest.raises(ValueError, match="too coarse at h=0.2: bump needs "
                       "h <= 0.03125"):
        sobolev_function("bump", 1 / 5, 0.75)


def test_levelset_lemma_rejects_empty_level():
    f = patch(bump((0.4, 0.4, 0.3)))
    with pytest.raises(ValueError):
        levelset_lemma_check(f, 99)


def test_shear_preserves_l1_and_inverts():
    # the shear has unit Jacobian, so the sheared bump keeps its l1 mass,
    # and sheared_fn undoes the shear (x, y, t) -> (x, y, t + xy/2) of its
    # argument
    fn = bump((0.5, 0.5, 0.3))
    f = sample_to_grid(fn, 1 / 48, (0.55, 0.55, 0.6))
    sh = sample_to_grid(sheared_fn(fn), 1 / 48, (0.55, 0.55, 0.6))
    assert lp_norm(sh, 1.0) == pytest.approx(lp_norm(f, 1.0), rel=0.03)
    pts = np.random.default_rng(4).uniform(-0.6, 0.6, (10_000, 3))
    x, y, _ = pts.T
    assert np.allclose(sheared_fn(fn)(x, y, proj_y(pts.T)[1]), fn(*pts.T),
                       rtol=0, atol=1e-12)


def test_shear_nearly_fixes_t_independent_profiles():
    # xy-support is tight, so the t-shift is tiny and the sheared samples
    # move by less than 1% in l1
    def plateau(x, y, t):
        r2 = (x ** 2 + y ** 2) / 0.1 ** 2
        w = np.clip(1 - r2, 0, None) ** 2
        u = np.clip((np.abs(t) - 0.5) / 0.1, 0.0, 1.0)
        return w * (1 - u * u) ** 2

    f = sample_to_grid(plateau, 1 / 32, (0.15, 0.15, 0.7))
    sh = sample_to_grid(sheared_fn(plateau), 1 / 32, (0.15, 0.15, 0.7))
    drift = float(np.abs(sh.values - f.values).sum() * f.h ** 3)
    assert 0.0 < drift <= 0.01 * lp_norm(f, 1.0)


def test_fields_differentiate_along_the_group_law():
    # Xf(p) and Yf(p) are the derivatives at s = 0 of f(p * (s, 0, 0)) and
    # f(p * (0, s, 0)): the fields' twist terms checked against the product.
    # On this C^3 bump the stencils are off by 1.7% of max |Xf| and |Yf|; a
    # twist of the wrong sign in either field is off by over 20%
    bump_c1 = bump((0.4, 0.4, 0.3), center=(0.1, -0.15, 0.05))

    def fn(x, y, t):
        return bump_c1(x, y, t) ** 2

    f = sample_to_grid(fn, 1 / 32, (0.55, 0.6, 0.4))
    grid = np.meshgrid(*(f.axis_centers(a) for a in range(3)), indexing="ij")
    p = tuple(g.ravel() for g in grid)
    s = 1e-6
    for field, step in ((field_X, (s, 0.0, 0.0)), (field_Y, (0.0, s, 0.0))):
        ahead = fn(*h_mul(p, step))
        behind = fn(*h_mul(p, h_inv(step)))
        want = (ahead - behind) / (2.0 * s)
        err = np.abs(field(f).values.ravel() - want).max()
        assert err <= 0.04 * np.abs(want).max(), field.__name__


def test_gns_on_mollified_boxes_tracks_isoperimetry():
    # the horizontal-gradient mass of a smoothed indicator stands in for the
    # perimeter; the volume^{3/4}-to-perimeter direction stays bounded
    ratios = []
    for half in ((0.4, 0.4, 0.16), (0.6, 0.6, 0.36), (0.5, 0.3, 0.2)):
        ext = tuple(1.3 * v + 0.1 for v in half)
        f = sample_to_grid(smoothed_box(half, edge=0.25), 1 / 48, ext)
        res = gns_check(f)
        assert res.ratio <= 0.75
        ratios.append(res.ratio)
    assert max(ratios) / min(ratios) <= 2.0


def test_smoothed_box_profile():
    fn = smoothed_box((0.5, 0.5, 0.25), edge=0.25)
    pts = np.array([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0], [0.7, 0.0, 0.0]])
    vals = fn(*pts.T)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0
    mid = fn(0.5625, 0.0, 0.0)  # halfway down the ramp
    assert 0.0 < mid < 1.0


def test_gridfunction_values_read_only():
    f = patch(bump((0.4, 0.4, 0.3)))
    with pytest.raises(ValueError):
        f.values[3, 3, 3] = 1.0


def test_gridfunction_refuses_a_nonzero_boundary_layer():
    core = np.pad([[[1.5, -1.7e308]]], 1)
    assert GridFunction(core, 0.25, (-2, 0, 3)).origin == (-2, 0, 3)
    for axis in range(3):
        for end in (0, -1):
            face = [slice(None)] * 3
            face[axis] = end
            signed_zero = core.copy()
            signed_zero[tuple(face)] = -0.0
            GridFunction(signed_zero, 0.25)
            for value in (5e-324, math.nan, math.inf):
                bad = core.copy()
                bad[tuple(face)][0, 0] = value
                with pytest.raises(ValueError, match="boundary layer"):
                    GridFunction(bad, 0.25)
    # a box of no interior must be all zero
    with pytest.raises(ValueError, match="boundary layer"):
        GridFunction(np.ones((2, 3, 3)), 0.25)
    with pytest.raises(ValueError, match="3d array"):
        GridFunction(np.zeros((3, 3)), 0.25)


def _field_reference(f, which):
    # the whole-array expressions the in-place stencils must reproduce
    def diff(axis):
        v = f.values
        out = np.zeros_like(v)
        mid, hi, lo = ([slice(None)] * 3 for _ in range(3))
        mid[axis], hi[axis], lo[axis] = (slice(1, -1), slice(2, None),
                                         slice(None, -2))
        out[tuple(mid)] = (v[tuple(hi)] - v[tuple(lo)]) / (2.0 * f.h)
        return out

    if which == "X":
        y = f.axis_centers(1)[None, :, None]
        return diff(0) - (y / 2.0) * diff(2)
    x = f.axis_centers(0)[:, None, None]
    return diff(1) + (x / 2.0) * diff(2)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_fields_match_whole_array_expressions(h):
    for name in FUNCTION_ZOO:
        f = zoo_function(name, h)
        assert np.array_equal(field_X(f).values, _field_reference(f, "X"))
        assert np.array_equal(field_Y(f).values, _field_reference(f, "Y"))


def _mask_level_sets(f):
    a = np.abs(f.values)
    nz = a[a > 0]
    if nz.size == 0:
        return []
    lo = math.floor(math.log2(nz.min())) - 1
    hi = math.ceil(math.log2(nz.max())) + 1
    origin = np.asarray(f.origin, dtype=np.int64)
    return [(k, np.argwhere(_level_mask(a, k)) + origin)
            for k in range(lo, hi + 1) if _level_mask(a, k).any()]


def _assert_matches_masks(f):
    d = f.decomposition
    got = [(k, d.voxels(k)) for k in d.levels]
    want = _mask_level_sets(f)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, vs), (_, idx) in zip(got, want):
        assert np.array_equal(vs.occupied, idx)
        assert np.array_equal(vs.spans, VoxelSet(idx, f.h).spans)
    assert list(level_range(f)) == (
        list(range(want[0][0], want[-1][0] + 1)) if want else [])
    for k, _ in want:
        for which in ("x", "y"):
            assert (levelset_lemma_check(f, k, which)
                    == _levelset_lemma_check_reference(f, k, which))


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_level_checks_match_mask_reference_on_zoo(h):
    for name in FUNCTION_ZOO:
        _assert_matches_masks(zoo_function(name, h))


def test_level_indices_do_not_depend_on_the_chunk(monkeypatch):
    # the plateau of exact 1.0 = 2^0 twins spans many chunk ends
    f = zoo_function("smoothed_box", 1 / 16)
    want = S._level_indices(f.values)
    assert np.any(np.abs(f.values) == 1.0)
    for chunk in (7, 64, 1000):
        monkeypatch.setattr(S, "_LEVEL_CHUNK", chunk)
        got = S._level_indices(f.values)
        assert list(got) == list(want)
        for k, idx in want.items():
            assert np.array_equal(got[k], idx)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_zoo_matches_row_reference(h):
    # every zoo grid, two dilations of a bump and a bump sheared off its
    # symmetric centre, sampled on broadcast axes, are bit for bit the
    # grids that the row sampler makes of their (n, 3) row forms
    want = _function_zoo_reference(h)
    assert list(FUNCTION_ZOO) == list(want) == [
        "bump", "narrow_bump", "aniso_bump", "sheared_bump", "smoothed_box"]
    pairs = [(zoo_function(name, h), g) for name, g in want.items()]
    widths = (0.5, 0.5, 0.35)
    for lam in (0.5, 2.0):
        ext = (0.55 * lam, 0.55 * lam, 0.4 * lam * lam)
        pairs.append((
            sample_to_grid(dilated_fn(bump(widths), lam), h * lam, ext),
            _sample_rows_reference(_dilated_rows(_bump_rows(widths), lam),
                                   h * lam, ext)))
    widths, center, ext = (0.5, 0.5, 0.3), (0.1, -0.15, 0.05), (0.7, 0.7, 0.6)
    pairs.append((
        sample_to_grid(sheared_fn(bump(widths, center)), h, ext),
        _sample_rows_reference(_sheared_rows(_bump_rows(widths, center)),
                               h, ext)))
    for f, g in pairs:
        assert (f.h, f.origin) == (g.h, g.origin)
        assert np.array_equal(f.values, g.values)


# exact powers of two, their one-ulp neighbours and plain values, all in
# the normal range
_POW2 = [2.0 ** k for k in range(-12, 4)]
_SAMPLES = sorted(set(
    _POW2 + [float(np.nextafter(p, 0.0)) for p in _POW2]
    + [float(np.nextafter(p, np.inf)) for p in _POW2]
    + [0.0, 0.3, 0.7, 1.5, 3.1e-3, 5.9]))


@st.composite
def _small_grid_functions(draw):
    # cores up to 6 per axis with holes of zeros, so that one level has
    # several spans in a column
    core = tuple(draw(st.integers(1, 6)) for _ in range(3))
    n = core[0] * core[1] * core[2]
    mags = draw(st.lists(st.sampled_from(_SAMPLES), min_size=n, max_size=n))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    holes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    vals = np.array([0.0 if hole else -m if neg else m
                     for m, neg, hole in zip(mags, signs, holes)])
    origin = tuple(draw(st.integers(-5, 5)) for _ in range(3))
    h = draw(st.sampled_from([1 / 16, 0.1, 0.37]))
    # a two-cell zero margin keeps the support inside the stencil's reach
    return GridFunction(np.pad(vals.reshape(core), 2), h, origin)


@settings(max_examples=150, deadline=None)
@given(_small_grid_functions())
def test_level_checks_match_mask_reference_random(f):
    _assert_matches_masks(f)
    lhs = lp_norm(f, 4 / 3)
    rhs = math.sqrt(lp_norm(field_X(f), 1.0) * lp_norm(field_Y(f), 1.0))
    g = gns_check(f)
    assert (g.lhs, g.rhs, g.ratio) == (
        (lhs, rhs, lhs / rhs if rhs else math.inf) if lhs else (0.0, 0.0, 0.0))


def test_fields_computed_once_per_function(monkeypatch):
    # the field kernel, which field_X and field_Y wrap, per axis
    calls = {0: 0, 1: 0}
    kernel = S._field

    def counted(f, axis):
        calls[axis] += 1
        return kernel(f, axis)

    monkeypatch.setattr(S, "_field", counted)
    f = sample_to_grid(bump((0.5, 0.5, 0.35)), 1 / 32, (0.55, 0.55, 0.4))
    gns_check(f)
    for k in f.decomposition.levels:
        for which in ("x", "y"):
            levelset_lemma_check(f, k, which)
        f.decomposition.voxels(k)
    assert calls == {0: 1, 1: 1}
