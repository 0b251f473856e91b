"""Tests for the discrete horizontal calculus and the Sobolev checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab import sobolev as S
from geomlab.sobolev import (GridFunction, _level_mask,
                             _levelset_lemma_check_reference, bump,
                             dilated_fn, field_X, field_Y, function_zoo,
                             gns_check, level_range, level_sets,
                             levelset_lemma_check, load_gridfunction, lp_norm,
                             sample_to_grid, save_gridfunction,
                             shear_change_of_variables, smoothed_box)


def patch(fn, h=1 / 16, ext=(0.5, 0.5, 0.5)):
    return sample_to_grid(fn, h, ext)


def indicator_patch(values_fn):
    # restrict an unbounded test function to a compactly supported patch
    def fn(pts):
        inside = np.all(np.abs(pts) <= 0.4, axis=1)
        return np.where(inside, values_fn(pts), 0.0)
    return fn


def test_fields_vanish_on_zero():
    z = patch(lambda pts: np.zeros(pts.shape[0]))
    assert not np.any(field_X(z).values)
    assert not np.any(field_Y(z).values)


def test_fields_exact_on_affine_samples():
    f = patch(indicator_patch(lambda pts: pts[:, 2]))  # f = t
    Xf, Yf = field_X(f), field_Y(f)
    i, j, k = (n // 2 for n in f.values.shape)
    i += 1
    j += 2
    x = f.axis_centers(0)[i]
    y = f.axis_centers(1)[j]
    assert Xf.values[i, j, k] == pytest.approx(-y / 2, rel=1e-12)
    assert Yf.values[i, j, k] == pytest.approx(x / 2, rel=1e-12)
    g = patch(indicator_patch(lambda pts: pts[:, 0]))  # f = x
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
    assert [k for k, _ in level_sets(f)] == [0, 1]
    for check in (lambda: gns_check(f), lambda: levelset_lemma_check(f, 1)):
        with pytest.raises(ValueError, match="support touches"):
            check()


def test_stencil_second_order_on_cubic():
    def cubic(pts):
        inside = np.all(np.abs(pts) <= 0.5, axis=1)
        return np.where(inside,
                        pts[:, 0] ** 3 + pts[:, 1] ** 3 + pts[:, 2] ** 3, 0.0)

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


def test_gns_zero_function():
    z = patch(lambda pts: np.zeros(pts.shape[0]))
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
    z = patch(lambda pts: np.zeros(pts.shape[0]))
    assert level_sets(z) == []
    one = GridFunction(np.pad(np.ones((3, 3, 3)), 2), h=0.125)
    ks = [k for k, _ in level_sets(one)]
    # |f| = 1 = 2^0 sits on the closed boundary of both bands k=0 and k=1
    assert ks == [0, 1]


def test_level_sets_reconstruct_l43_mass():
    f = patch(bump((0.45, 0.4, 0.3)), h=1 / 32)
    total = float((np.abs(f.values) ** (4 / 3)).sum() * f.h ** 3)
    by_levels = sum(2.0 ** (4 * k / 3) * len(vs) * f.h ** 3
                    for k, vs in level_sets(f))
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
    steep = lambda pts: bump((0.4, 0.4, 0.3))(pts) ** 2
    f = sample_to_grid(steep, 1 / 48, (0.45, 0.45, 0.35))
    a = np.abs(f.values)
    populated = {k: bool(((a >= 2.0 ** (k - 1)) & (a <= 2.0 ** k)).any())
                 for k in level_range(f)}
    for k, has in populated.items():
        if not has or not populated.get(k - 1, False):
            continue
        assert levelset_lemma_check(f, k, "x").holds
        assert levelset_lemma_check(f, k, "y").holds


def test_levelset_lemma_rejects_empty_level():
    f = patch(bump((0.4, 0.4, 0.3)))
    with pytest.raises(ValueError):
        levelset_lemma_check(f, 99)


def test_shear_preserves_l1_and_inverts():
    f = sample_to_grid(bump((0.5, 0.5, 0.3)), 1 / 48, (0.55, 0.55, 0.6))
    sh = shear_change_of_variables(f)
    assert lp_norm(sh, 1.0) == pytest.approx(lp_norm(f, 1.0), rel=0.03)
    back = shear_change_of_variables(sh, sign=-1.0)
    l1_err = float(np.abs(back.values - f.values).sum() * f.h ** 3)
    assert l1_err <= 0.05 * lp_norm(f, 1.0)


def test_shear_nearly_fixes_t_independent_profiles():
    # xy-support is tight, so the t-shift is tiny and the sheared samples
    # move by less than 1% in l1
    def plateau(pts):
        r2 = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.1 ** 2
        w = np.clip(1 - r2, 0, None) ** 2
        u = np.clip((np.abs(pts[:, 2]) - 0.5) / 0.1, 0.0, 1.0)
        return w * (1 - u * u) ** 2

    f = sample_to_grid(plateau, 1 / 32, (0.15, 0.15, 0.7))
    sh = shear_change_of_variables(f)
    drift = float(np.abs(sh.values - f.values).sum() * f.h ** 3)
    assert drift <= 0.01 * lp_norm(f, 1.0)


def test_shear_rejects_overflow():
    # wide xy support shifts far corners by ~0.3 in t, past the box margin
    f = sample_to_grid(smoothed_box((0.8, 0.8, 0.4), 0.125), 1 / 24,
                       (0.95, 0.95, 0.5))
    with pytest.raises(ValueError):
        shear_change_of_variables(f)


def test_gridfunction_serialization(tmp_path):
    f = sample_to_grid(bump((0.4, 0.4, 0.3)), 1 / 24, (0.45, 0.45, 0.35))
    save_gridfunction(f, tmp_path / "f.grid")
    g = load_gridfunction(tmp_path / "f.grid")
    assert g.h == f.h and g.origin == f.origin
    assert np.array_equal(g.values, f.values)


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
    vals = fn(pts)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0
    mid = fn(np.array([[0.5625, 0.0, 0.0]]))[0]  # halfway down the ramp
    assert 0.0 < mid < 1.0


def test_gridfunction_values_read_only():
    f = patch(bump((0.4, 0.4, 0.3)))
    with pytest.raises(ValueError):
        f.values[3, 3, 3] = 1.0


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
    for f in function_zoo(h).values():
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
    got = level_sets(f)
    want = _mask_level_sets(f)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, vs), (_, idx) in zip(got, want):
        assert np.array_equal(vs.occupied, idx)
    assert list(level_range(f)) == (
        list(range(want[0][0], want[-1][0] + 1)) if want else [])
    for k, _ in want:
        for which in ("x", "y"):
            assert (levelset_lemma_check(f, k, which)
                    == _levelset_lemma_check_reference(f, k, which))


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_level_checks_match_mask_reference_on_zoo(h):
    for f in function_zoo(h).values():
        _assert_matches_masks(f)


# exact powers of two, their one-ulp neighbours and plain values, all in
# the normal range
_POW2 = [2.0 ** k for k in range(-12, 4)]
_SAMPLES = sorted(set(
    _POW2 + [float(np.nextafter(p, 0.0)) for p in _POW2]
    + [float(np.nextafter(p, np.inf)) for p in _POW2]
    + [0.0, 0.3, 0.7, 1.5, 3.1e-3, 5.9]))


@st.composite
def _small_grid_functions(draw):
    core = tuple(draw(st.integers(1, 4)) for _ in range(3))
    n = core[0] * core[1] * core[2]
    mags = draw(st.lists(st.sampled_from(_SAMPLES), min_size=n, max_size=n))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    vals = np.array([-m if neg else m for m, neg in zip(mags, signs)])
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
    calls = {"X": 0, "Y": 0}

    def counted(name, fn):
        def wrapper(f):
            calls[name] += 1
            return fn(f)
        return wrapper

    monkeypatch.setattr(S, "field_X", counted("X", S.field_X))
    monkeypatch.setattr(S, "field_Y", counted("Y", S.field_Y))
    f = sample_to_grid(bump((0.5, 0.5, 0.35)), 1 / 32, (0.55, 0.55, 0.4))
    gns_check(f)
    for k in f.decomposition.levels:
        for which in ("x", "y"):
            levelset_lemma_check(f, k, which)
    level_sets(f)
    assert calls == {"X": 1, "Y": 1}


def test_load_gridfunction_rejects_corrupt_files(tmp_path):
    f = sample_to_grid(bump((0.4, 0.4, 0.3)), 1 / 24, (0.45, 0.45, 0.35))
    good = tmp_path / "f.grid"
    save_gridfunction(f, good)
    data = good.read_bytes()
    head, _, payload = data.partition(b"\n")
    cases = {
        "short.grid": data[:-80],
        "long.grid": data + b"\0" * 8,
        "nokey.grid": b'{"dims": [1, 1, 1], "h": 0.5}\n' + b"\0" * 8,
        "badh.grid": head.replace(b'"h": ', b'"h": -') + b"\n" + payload,
        "nojson.grid": b"not a header\n" + payload,
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(ValueError, match=str(path)):
            load_gridfunction(path)
