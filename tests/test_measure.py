"""Tests for voxel measures, projections, tubes, and the boundary checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab import measure as M
from geomlab.heisenberg import (Plane, VerticalPlanePoint, gauge4, h_inv,
                                h_mul, proj_x, proj_y)
from geomlab.planar import GridTooLarge
from geomlab.measure import (Box, DifferenceShape, DilatedShape, KoranyiBall,
                             PlaneRegion, ShearedShape, TubeIntersection,
                             UnionShape, VoxelSet, _dilated_covers,
                             _gauge_inside, boundary,
                             boundary_projection_inclusion, h3_surrogate,
                             lw_ratio, project_voxels, shape_zoo,
                             tube_intersection_volume, voxelize,
                             weak_isoperimetric_ratio)
from geomlab.rng import Stream
from oracles import (REDUCE_BOX, _boundary_reference, _h3_surrogate_reference,
                     _merged_reference, _voxelize_dense, covers, dilated,
                     traced_peak)

LW_BOX = 8.0 * 5.0 ** (-4.0 / 3.0)


def test_box_volume_closed_form():
    r = 0.5
    K = voxelize(Box((0, 0, 0), (r, r, r * r)), h=1 / 64)
    assert K.volume() == pytest.approx(8 * r ** 4, rel=0.02)


def test_empty_union_is_empty():
    assert len(voxelize(UnionShape(), h=0.1)) == 0


@pytest.mark.parametrize("h, ht", [
    (0.1, 0.0), (0.1, math.nan), (0.1, -0.1), (0.1, math.inf),
    (0.0, None), (math.nan, None), (-0.1, 0.1), (math.inf, 0.1)])
def test_voxelize_rejects_bad_sides(h, ht):
    # ht = 0 raised OverflowError, nan a float conversion error, and a
    # negative ht gave an empty set
    with pytest.raises(ValueError, match="h and ht must be finite and positive"):
        voxelize(Box((0, 0, 0), (0.3, 0.3, 0.1)), h, ht)
    with pytest.raises(ValueError, match="h and ht must be finite and positive"):
        VoxelSet.from_spans([(0, 0, 0, 3)], h, ht)


def test_voxelize_refuses_boxes_past_its_limits(monkeypatch):
    ball = KoranyiBall((0, 0, 0), 0.5)
    # indices past 2^20 asked numpy for terabytes, and 1 / 5e-324 overflowed
    for h in (1e-7, 5e-324):
        with pytest.raises(GridTooLarge, match=r"leave \[-2\^20, 2\^20\)"):
            voxelize(ball, h)
    with pytest.raises(GridTooLarge, match=r"leave \[-2\^20, 2\^20\)"):
        voxelize(ball, 0.1, 1e-8)
    with pytest.raises(GridTooLarge, match="more than 8388608"):
        voxelize(ball, 1e-4)
    # the box, one cell of margin included, must lie in [-2^20, 2^20)
    edge = 2.0 ** 20
    top = voxelize(Box((edge - 2.0, 0.5, 0.5), (0.9, 0.4, 0.4)), 1.0)
    assert top.spans.tolist() == [[2 ** 20 - 3, 0, 0, 1],
                                  [2 ** 20 - 2, 0, 0, 1]]
    bottom = voxelize(Box((0.5, 0.5, 2.0 - edge), (0.4, 0.4, 0.9)), 1.0)
    assert bottom.spans.tolist() == [[0, 0, 1 - 2 ** 20, 2]]
    with pytest.raises(GridTooLarge):
        voxelize(Box((edge - 1.0, 0.5, 0.5), (0.9, 0.4, 0.4)), 1.0)
    with pytest.raises(GridTooLarge):
        voxelize(Box((0.5, 0.5, 1.0 - edge), (0.4, 0.4, 0.9)), 1.0)
    # the box of i in [-3, 3) and j in [-2, 2) is read at a cap of its 24
    # columns, and refused at a cap of 23
    box = Box((0, 0, 0), (0.25, 0.125, 0.125))
    monkeypatch.setattr(M, "VOXELIZE_COLUMN_CAP", 24)
    assert np.array_equal(voxelize(box, 1 / 8).spans,
                          _voxelize_dense(box, 1 / 8).spans)
    monkeypatch.setattr(M, "VOXELIZE_COLUMN_CAP", 23)
    with pytest.raises(GridTooLarge, match="holds 24 \\(i, j\\) columns"):
        voxelize(box, 1 / 8)


def test_voxel_volume_examples():
    one = VoxelSet([(0, 0, 0)], h=0.1)
    assert one.volume() == pytest.approx(0.001)
    eight = VoxelSet([(i, j, k) for i in range(2) for j in range(2)
                      for k in range(2)], h=0.5)
    assert eight.volume() == pytest.approx(1.0)


def test_koranyi_ball_volume_against_monte_carlo():
    # oracle: seeded Monte Carlo for |{((x^2+y^2)^2 + 16 t^2)^{1/4} <= 1}|;
    # the closed form of this gauge ball is pi^2 / 8
    stream = Stream(2718)
    hits = 0
    n = 10_000_000
    chunk = 1_000_000
    for _ in range(n // chunk):
        x = stream.uniform(chunk, -1, 1)
        y = stream.uniform(chunk, -1, 1)
        t = stream.uniform(chunk, -0.25, 0.25)
        hits += int(np.count_nonzero((x * x + y * y) ** 2 + 16 * t * t <= 1.0))
    mc = hits / n * (2.0 * 2.0 * 0.5)
    K = voxelize(KoranyiBall((0, 0, 0), 1.0), h=1 / 64)
    assert K.volume() == pytest.approx(mc, rel=0.02)
    assert mc == pytest.approx(math.pi ** 2 / 8, rel=0.005)


def test_projection_closed_form():
    r = 0.5
    K = voxelize(Box((0, 0, 0), (r, r, r * r)), h=r / 128)
    for which in ("x", "y"):
        area = project_voxels(K, which).area()
        assert area == pytest.approx(5 * r ** 3, rel=0.05)


def test_projection_single_voxel():
    K = VoxelSet([(0, 0, 0)], h=0.25)
    reg = project_voxels(K, "x")
    assert len(reg) >= 1
    assert reg.plane == Plane.W_X


def _sampled_projection(K, which, s=2):
    """Oracle: bin every point of each voxel's s^3 interior sample lattice."""
    fr = (2.0 * np.arange(s) + 1.0) / (2.0 * s)
    ox, oy, ot = np.meshgrid(fr, fr, fr, indexing="ij")
    offs = np.column_stack([ox.ravel(), oy.ravel(), ot.ravel()])
    scale = np.array([K.h, K.h, K.ht])
    pts = (K.occupied[:, None, :] + offs[None, :, :]).reshape(-1, 3) * scale[None, :]
    u, t = (proj_x if which == "x" else proj_y)(pts.T)
    iu = np.floor(u / K.h).astype(np.int64)
    it = np.floor(t / K.ht).astype(np.int64)
    return np.unique(np.column_stack([iu, it]), axis=0)


def _assert_matches_oracle(K, s=2):
    for which in ("x", "y"):
        got = project_voxels(K, which, s)
        assert got.plane == (Plane.W_X if which == "x" else Plane.W_Y)
        assert np.array_equal(got.occupied,
                              _sampled_projection(K, which, s).reshape(-1, 2))


@pytest.mark.parametrize("h", [1 / 16, 1 / 24])
def test_projection_matches_sampled_oracle_zoo(h):
    for name, sh in shape_zoo().items():
        _assert_matches_oracle(voxelize(sh, h))


def test_projection_matches_sampled_oracle_special_sets():
    sh = ShearedShape(Box((0.1, -0.2, 0.05), (0.3, 0.2, 0.1)))
    aniso = voxelize(DilatedShape(sh, 1.7), 1.7 / 24, 1.7 ** 2 / 24)
    assert aniso.ht != aniso.h
    _assert_matches_oracle(aniso)
    # boundary of a ball: most columns hold two spans
    shell = boundary(voxelize(KoranyiBall((0.2, -0.1, 0.1), 0.6), 1 / 24))
    assert len(shell.spans) > len(np.unique(shell.spans[:, :2], axis=0))
    _assert_matches_oracle(shell)
    negative = voxelize(Box((-0.6, -0.4, -0.3), (0.2, 0.3, 0.1)), 1 / 24)
    assert np.all(negative.occupied < 0)
    _assert_matches_oracle(negative)
    _assert_matches_oracle(voxelize(Box((-0.1, 0.2, -0.05), (0.3, 0.3, 0.1)), 1 / 24))
    _assert_matches_oracle(VoxelSet(np.empty((0, 3)), h=0.1))
    _assert_matches_oracle(VoxelSet([(-3, 5, -7)], h=0.1, ht=0.03))
    for s in (3, 4):
        _assert_matches_oracle(shell, s)
        _assert_matches_oracle(aniso, s)


@st.composite
def _small_voxel_sets(draw):
    ijk = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                                  st.integers(-12, 12)), max_size=40))
    h = draw(st.sampled_from([1 / 16, 0.1, 1 / 3, 0.37, 1.0]))
    ht = h * draw(st.sampled_from([1.0, 0.25, 0.3, 2.0]))
    return VoxelSet(np.array(ijk, dtype=np.int64).reshape(-1, 3), h, ht)


@settings(max_examples=200, deadline=None)
@given(_small_voxel_sets(), st.sampled_from([2, 3]))
def test_projection_matches_sampled_oracle_random(K, s):
    _assert_matches_oracle(K, s)


@st.composite
def _tube_pairs(draw, h):
    """Two tubes of a few cells' radius around the horizontal lines through
    a W_x and a W_y point, whose closest points sit over (a, c) at heights
    tc and tc + g: crossing (gap below 2 radius), tangent (about 2 radius),
    disjoint, or meeting near a face of the cube that clips them."""
    kind = draw(st.sampled_from(["crossing", "tangent", "disjoint", "face"]))
    radius = h * draw(st.sampled_from([1.0, 1.5, 2.5]))
    if kind == "face":
        a, c = (draw(st.sampled_from([-1.0, -0.97, 0.9, 1.0])) for _ in "ac")
        tc = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - draw(st.floats(0, h)))
    else:
        a, c, tc = (draw(st.floats(-0.7, 0.7)) for _ in "act")
    gap = {"crossing": draw(st.floats(0.0, 1.9)),
           "tangent": draw(st.floats(1.999, 2.001)),
           "disjoint": draw(st.floats(2.2, 4.0)),
           "face": draw(st.floats(0.0, 1.0))}[kind]
    return _tube_pair(a, c, tc, gap, radius, h)


def _tube_pair(a, c, tc, gap, radius, h):
    """The two tubes of _tube_pairs at a gap of gap * radius."""
    # the lines' distance is g / sqrt(1 + (a^2 + c^2) / 4)
    g = gap * radius * math.sqrt(1.0 + (a * a + c * c) / 4.0)
    w_x = VerticalPlanePoint(Plane.W_X, a, tc - a * c / 2.0)
    w_y = VerticalPlanePoint(Plane.W_Y, c, tc + a * c / 2.0 + g)
    mid = np.array([a, c, tc])
    reach = 6.0 * radius + 2.0 * h
    return TubeIntersection(w_x, w_y, radius,
                            np.maximum(mid - reach, -1.0 - h),
                            np.minimum(mid + reach, 1.0 + h))


@pytest.mark.parametrize("a, c, tc, gap", [
    (0.2, -0.3, -0.13, 0.0), (-0.5, 0.4, 0.3, 1.2), (0.6, 0.6, -0.6, 1.999),
    (0.1, -0.2, 0.0, 2.001), (0.3, 0.3, 0.2, 3.0), (1.0, -0.97, 0.99, 0.5),
])
def test_tube_columns_match_dense_and_skip_apart_intervals(monkeypatch, a, c,
                                                          tc, gap):
    # a column whose two tube intervals are more than a cell apart never
    # reaches confirm: it sees the nonempty columns and a rim of a few
    # radii's worth, of a box about (12 radius / h)^2 columns wide
    confirm, seen = M._VoxelColumns.confirm, []

    def counted(cols, shape, cc, t_lo, t_hi):
        seen.append(cc.size)
        return confirm(cols, shape, cc, t_lo, t_hi)

    monkeypatch.setattr(M._VoxelColumns, "confirm", counted)
    for h, ratio in ((1 / 32, 2.0), (1 / 64, 8.0), (1 / 128, 2.5)):
        sh = _tube_pair(a, c, tc, gap, ratio * h, h)
        got, want = voxelize(sh, h), _voxelize_dense(sh, h)
        assert np.array_equal(got.spans, want.spans), h
        nonempty = np.unique(got.spans[:, :2], axis=0).shape[0]
        assert nonempty <= seen[-1] <= nonempty + 8 * ratio, h


@st.composite
def _leaf_shapes(draw, h, ht):
    """A box whose center and half widths are whole multiples of half a
    cell, so that faces can pass exactly through centers, a ball, or the
    intersection of two tubes."""
    kind = draw(st.sampled_from(["box", "ball", "tubes"]))
    if kind == "box":
        unit = np.array([h, h, ht]) / 2.0
        c = [draw(st.integers(-12, 12)) for _ in range(3)]
        w = [draw(st.integers(1, 9)) for _ in range(3)]
        return Box(np.array(c) * unit, np.array(w) * unit)
    if kind == "tubes":
        return draw(_tube_pairs(h))
    c = [draw(st.floats(-0.4, 0.4)) for _ in range(3)]
    return KoranyiBall(c, draw(st.floats(0.05, 0.5)))


@st.composite
def _voxelize_cases(draw):
    h = draw(st.sampled_from([1 / 8, 1 / 16, 0.1, 0.15]))
    ht = h * draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]))

    def shape(depth):
        kind = draw(st.sampled_from(
            ["leaf"] if depth == 0 else
            ["leaf", "shear", "dilate", "union", "difference"]))
        if kind == "shear":
            return ShearedShape(shape(depth - 1),
                                draw(st.sampled_from([1.0, -1.0, 0.4])))
        if kind == "dilate":
            return DilatedShape(shape(depth - 1),
                                draw(st.sampled_from([0.5, 0.8, 1.3, 2.0])))
        if kind == "union":
            return UnionShape(*(shape(depth - 1)
                                for _ in range(draw(st.integers(1, 3)))))
        if kind == "difference":
            return DifferenceShape(shape(depth - 1), shape(depth - 1))
        return draw(_leaf_shapes(h, ht))

    return shape(2), h, ht


@settings(max_examples=150, deadline=None)
@given(_voxelize_cases())
def test_interval_voxelize_matches_dense(case):
    sh, h, ht = case
    got, want = voxelize(sh, h, ht), _voxelize_dense(sh, h, ht)
    assert (got.h, got.ht) == (want.h, want.ht)
    assert np.array_equal(got.spans, want.spans)


def test_interval_voxelize_matches_dense_zoo():
    for h in (1 / 16, 1 / 24, 1 / 48):
        for name, sh in shape_zoo().items():
            for shape, ht in ((sh, h), (DilatedShape(sh, 1.7), h / 3),
                              (ShearedShape(sh, -1.0), 2 * h)):
                got = voxelize(shape, h, ht)
                assert np.array_equal(got.spans,
                                      _voxelize_dense(shape, h, ht).spans), name
    # a NaN shear accepts no center on either path
    nan_shear = ShearedShape(Box((0, 0, 0), (0.3, 0.3, 0.1)), math.nan)
    assert len(voxelize(nan_shear, 1 / 16)) == 0
    assert len(_voxelize_dense(nan_shear, 1 / 16)) == 0
    # a box whose faces pass exactly through a layer of centers
    face = Box((0.25, -0.25, 0.125), (0.1875, 0.3125, 0.0625))
    got = voxelize(face, 1 / 8)
    assert np.array_equal(got.spans, _voxelize_dense(face, 1 / 8).spans)
    assert got.spans.tolist()[0] == [0, -5, 0, 2]


def test_interval_voxelize_matches_dense_on_float_faces(monkeypatch):
    # faces at whole multiples of half a non-dyadic cell meet centers to
    # within rounding, so the rounded k-ranges are often one cell off and
    # only the end checks with contains put them right
    rng = np.random.default_rng(5)
    for trial in range(600):
        h = float(rng.choice([0.1, 0.15, 0.3 / 7]))
        ht = h * float(rng.choice([1.0, 0.3, 0.7]))
        unit = np.array([h, h, ht]) / 2.0
        sh = Box(rng.integers(-12, 13, 3) * unit, rng.integers(1, 10, 3) * unit)
        sh = [sh, ShearedShape(sh, float(rng.choice([1.0, -1.0, 0.4]))),
              DilatedShape(sh, float(rng.choice([0.5, 1.3, 0.7])))][trial % 3]
        assert np.array_equal(voxelize(sh, h, ht).spans,
                              _voxelize_dense(sh, h, ht).spans), trial
    # heights off by up to a cell, or by four cells on columns twelve cells
    # tall, take the kernel's steps and bisections and the second round
    confirm = M._VoxelColumns.confirm

    def off(cols, shape, c, t_lo, t_hi):
        cell = cols.t(c, np.ones_like(c)) - cols.t(c, np.zeros_like(c))
        far = np.where(t_hi - t_lo >= 12.0 * cell, 4.0, 0.99) * np.abs(cell)
        return confirm(cols, shape, c, t_lo + rng.uniform(-far, far),
                       t_hi + rng.uniform(-far, far))

    monkeypatch.setattr(M._VoxelColumns, "confirm", off)
    for trial in range(300):
        h = float(rng.choice([1 / 8, 1 / 16, 0.1]))
        ht = h * float(rng.choice([1.0, 0.5, 2.0]))
        sh = [Box(rng.uniform(-0.4, 0.4, 3), rng.uniform(0.05, 0.5, 3)),
              KoranyiBall(rng.uniform(-0.3, 0.3, 3), rng.uniform(0.1, 0.6)),
              DilatedShape(ShearedShape(Box(rng.uniform(-0.3, 0.3, 3),
                                            rng.uniform(0.1, 0.4, 3))), 1.3)
              ][trial % 3]
        assert np.array_equal(voxelize(sh, h, ht).spans,
                              _voxelize_dense(sh, h, ht).spans), trial
    # heights off by up to 20 cells may lose cells, never add one that
    # contains rejects
    def far(cols, shape, c, t_lo, t_hi):
        off = rng.uniform(-20.0, 20.0, (2, c.size)) * h
        return confirm(cols, shape, c, t_lo + off[0], t_hi + off[1])

    monkeypatch.setattr(M._VoxelColumns, "confirm", far)
    for trial in range(100):
        h = float(rng.choice([1 / 8, 1 / 16]))
        sh = [Box(rng.uniform(-0.4, 0.4, 3), rng.uniform(0.05, 0.5, 3)),
              KoranyiBall(rng.uniform(-0.3, 0.3, 3), rng.uniform(0.1, 0.6))
              ][trial % 2]
        got, want = voxelize(sh, h), _voxelize_dense(sh, h)
        assert np.isin(M._pack(got.occupied), M._pack(want.occupied)).all()


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc")
def test_interval_voxelize_memory_fresh_process():
    # the box at h = r/128 is 8.4M voxels but 65k spans; the dense path
    # peaked above 1 GB.  The two tubes at delta = 2^-4 have a bounding box
    # of 1.6M centers, on which the dense path reached about 232 MB.  The
    # box read 56 MB while voxelize and the projections took every column
    # and span in one pass.  VmHWM, not ru_maxrss: a child's ru_maxrss keeps the high-water mark
    # of the process that started it
    box = ("from geomlab.measure import Box, project_voxels, voxelize\n"
           "r = 0.5\n"
           "K = voxelize(Box((0, 0, 0), (r, r, r * r)), h=r / 128)\n"
           "assert len(K) == 8388608 and len(K.spans) == 65536\n"
           "assert len(project_voxels(K, 'x')) and len(project_voxels(K, 'y'))\n")
    tubes = ("from geomlab.heisenberg import Plane, VerticalPlanePoint\n"
             "from geomlab.measure import tube_intersection_volume\n"
             "v = tube_intersection_volume(VerticalPlanePoint(Plane.W_X, 0.2, -0.1),\n"
             "                             VerticalPlanePoint(Plane.W_Y, -0.3,\n"
             "                                                -0.1 + 0.2 * -0.3),\n"
             "                             2.0 ** -4)\n"
             "assert v == 0.010494232177734375\n")
    peak = ("print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for script, bound_mb in ((box, 50.0), (tubes, 80.0)):
        out = subprocess.run([sys.executable, "-c", script + peak], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert int(out) / 1024 < bound_mb, script


# reduce-pipeline's box at delta = 2^-7 (h = 2^-9): 4.2M voxels in 65,536
# spans.  Voxelizing every column in one pass peaked at 12.7 MB traced, and
# projecting every span in one pass at 19.1 MB; voxelize in blocks, with
# the spans copied once more while the blocks were still held, at 7.3 MB.

def test_reduce_box_voxelize_memory_bounded():
    K, peak = traced_peak(lambda: voxelize(REDUCE_BOX, h=2.0 ** -9))
    assert len(K) == 4194304 and len(K.spans) == 65536
    assert peak <= 6.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def test_reduce_box_projection_memory_bounded():
    K = voxelize(REDUCE_BOX, h=2.0 ** -9)
    for which in ("x", "y"):
        region, peak = traced_peak(lambda: project_voxels(K, which))
        assert len(region) == 20608
        assert peak <= 6 * 2 ** 20, f"{which}: {peak / 2 ** 20:.1f} MB"


def test_projection_needs_oversample_two():
    K = VoxelSet([(0, 0, 0)], h=0.25)
    for s in (1, 0):
        with pytest.raises(ValueError, match="oversample must be >= 2"):
            project_voxels(K, "x", s)


def test_projection_scales_cubically_under_dilation():
    sh = Box((0, 0, 0), (0.5, 0.5, 0.25))
    h = 1 / 48
    base = project_voxels(voxelize(sh, h), "x").area()
    for lam in (0.5, 2.0):
        K = voxelize(DilatedShape(sh, lam), h * lam, h * lam * lam)
        assert project_voxels(K, "x").area() == pytest.approx(
            lam ** 3 * base, rel=0.05)


def test_lw_ratio_box_constant():
    # oracle: |K| = 8 r^4 and |proj K| = 5 r^3, so the ratio is 8 * 5^{-4/3}
    for r in (0.25, 0.5):
        for div in (64, 128):
            K = voxelize(Box((0, 0, 0), (r, r, r * r)), h=r / div)
            assert lw_ratio(K) == pytest.approx(LW_BOX, rel=0.10)


def test_lw_ratio_zoo_bounded_and_dilation_invariant():
    h = 1 / 48
    for name, sh in shape_zoo().items():
        K = voxelize(sh, h)
        ratio = lw_ratio(K)
        assert ratio <= 2.0
        KL = voxelize(DilatedShape(sh, 2.0), 2 * h, 4 * h)
        assert lw_ratio(KL) == pytest.approx(ratio, rel=0.05)


def test_lw_ratio_empty_rejected():
    with pytest.raises(ValueError):
        lw_ratio(VoxelSet(np.empty((0, 3)), h=0.1))


def test_monotone_under_inclusion():
    small = voxelize(Box((0, 0, 0), (0.25, 0.25, 0.1)), h=1 / 32)
    big = voxelize(Box((0, 0, 0), (0.5, 0.5, 0.2)), h=1 / 32)
    assert ({tuple(v) for v in small.occupied}
            <= {tuple(v) for v in big.occupied})
    assert small.volume() <= big.volume()
    for w in ("x", "y"):
        assert project_voxels(small, w).area() <= project_voxels(big, w).area()


def test_refinement_consistency():
    for name, sh in shape_zoo().items():
        K1, K2 = voxelize(sh, 1 / 48), voxelize(sh, 1 / 96)
        assert K2.volume() == pytest.approx(K1.volume(), rel=0.02), name
        for w in ("x", "y"):
            a1 = project_voxels(K1, w).area()
            a2 = project_voxels(K2, w).area()
            assert a2 == pytest.approx(a1, rel=0.05), name


def test_shear_preserves_volume():
    for name, sh in shape_zoo().items():
        K = voxelize(sh, 1 / 48)
        KS = voxelize(ShearedShape(sh), 1 / 48)
        assert KS.volume() == pytest.approx(K.volume(), rel=0.03)


# ---------------------------------------------------------------------------
# tubes

def _crossing_pair():
    a, b, c = 0.2, -0.1, -0.3
    return (VerticalPlanePoint(Plane.W_X, a, b),
            VerticalPlanePoint(Plane.W_Y, c, b + a * c))


def test_tube_intersection_bounded_and_stable():
    wx, wy = _crossing_pair()
    vals = []
    for dexp in (4, 5, 6, 7):
        delta = 2.0 ** -dexp
        v = tube_intersection_volume(wx, wy, delta)
        assert v <= 1000.0 * delta ** 3
        vals.append(v / delta ** 3)
    assert max(vals) / min(vals) <= 4.0


def test_tube_intersection_origin():
    delta = 2.0 ** -5
    v = tube_intersection_volume(VerticalPlanePoint(Plane.W_X, 0, 0),
                                 VerticalPlanePoint(Plane.W_Y, 0, 0), delta)
    assert 0.0 < v <= 1000.0 * delta ** 3


def test_far_tubes_are_disjoint():
    v = tube_intersection_volume(VerticalPlanePoint(Plane.W_X, 0.9, 0.9),
                                 VerticalPlanePoint(Plane.W_Y, -0.9, -0.9),
                                 2.0 ** -5)
    assert v == 0.0


# ---------------------------------------------------------------------------
# boundary, surrogate, isoperimetry

def test_boundary_cube_count():
    for n in (3, 6, 10):
        cube = VoxelSet([(i, j, k) for i in range(n) for j in range(n)
                         for k in range(n)], h=0.1)
        assert len(boundary(cube)) == 6 * n * n - 12 * n + 8


def test_boundary_small_sets():
    single = VoxelSet([(0, 0, 0)], h=0.1)
    assert np.array_equal(boundary(single).occupied, single.occupied)
    two = VoxelSet([(0, 0, 0), (5, 5, 5)], h=0.1)
    assert len(boundary(two)) == 2


def test_span_boundary_matches_reference():
    cases = [VoxelSet(np.empty((0, 3)), h=0.1),
             VoxelSet([(0, 0, 0), (0, 0, 1), (0, 0, 3)], h=0.1)]
    for h in (1 / 16, 1 / 24):
        cases += [voxelize(sh, h) for sh in shape_zoo().values()]
    stream = Stream(4242)
    for trial in range(20):
        boxes = [Box(stream.uniform(3, -0.3, 0.3), stream.uniform(3, 0.05, 0.3))
                 for _ in range(1 + trial % 4)]
        cases.append(voxelize(UnionShape(*boxes), 1 / 24, 1 / 32))
    for E in cases:
        got, want = boundary(E), _boundary_reference(E)
        assert (got.h, got.ht) == (E.h, E.ht)
        assert np.array_equal(got.spans, want.spans)
        assert boundary(E) is got  # kept on E


@settings(max_examples=200, deadline=None)
@given(_small_voxel_sets())
def test_span_boundary_matches_reference_random(K):
    assert np.array_equal(boundary(K).spans, _boundary_reference(K).spans)


def test_h3_surrogate_empty_and_refinement():
    assert h3_surrogate(VoxelSet(np.empty((0, 3)), h=0.1)) == 0.0
    sh = Box((0, 0, 0), (0.5, 0.5, 0.25))
    vals = {}
    for div in (32, 64, 128):
        B = boundary(voxelize(sh, 1.0 / div))
        vals[div] = h3_surrogate(B)
    assert 0.25 <= vals[64] / vals[32] <= 4.0
    assert 0.25 <= vals[128] / vals[64] <= 4.0
    # reported: of the order of the Euclidean area of the vertical faces
    # (2 * (2r)(2r^2) * 2 = 2.0 for r = 1/2); the gauge ball is anisotropic
    assert 0.5 <= vals[64] <= 8.0


@st.composite
def _box_union_boundaries(draw):
    """Boundaries of unions of one to three boxes whose centers and half
    widths are whole multiples of half a cell, with ht/h in {1, 0.5, 0.3,
    2}."""
    h = draw(st.sampled_from([1 / 8, 1 / 16, 0.1]))
    ht = h * draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]))
    unit = np.array([h, h, ht]) / 2.0
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        c = [draw(st.integers(-14, 14)) for _ in range(3)]
        w = [draw(st.integers(1, 9)) for _ in range(3)]
        boxes.append(Box(np.array(c) * unit, np.array(w) * unit))
    return boundary(voxelize(UnionShape(*boxes), h, ht))


@settings(max_examples=150, deadline=None)
@given(_box_union_boundaries())
def test_h3_surrogate_matches_reference_on_box_unions(B):
    assert h3_surrogate(B) == _h3_surrogate_reference(B)


@settings(max_examples=150, deadline=None)
@given(_small_voxel_sets())
def test_h3_surrogate_matches_reference_random(K):
    assert h3_surrogate(K) == _h3_surrogate_reference(K)


def test_h3_surrogate_matches_reference_zoo():
    # the zoo, and a box far from the t-axis, where the twist term widens
    # the t-window of a ball the most
    shapes = dict(shape_zoo(0.25), far_box=Box((0.7, -0.6, 0.1),
                                               (0.2, 0.15, 0.05)))
    for name, sh in shapes.items():
        for ht in (1 / 32, 1 / 96):
            B = boundary(voxelize(sh, 1 / 32, ht))
            assert h3_surrogate(B) == _h3_surrogate_reference(B), (name, ht)


@st.composite
def _far_box_unions(draw):
    """Boundaries of unions of one to three boxes about a center 0.5 to
    1.2 from one or both of the x and y axes, so that |x| + |y| runs up to
    about 2.5 where the twist of a gauge ball's t-window is largest, with
    ht/h in {0.3, 1, 2}; or a random voxel set about that center.  Near
    an axis one factor of the twist is small and the other large, and the
    window is tightest."""
    h = draw(st.sampled_from([1 / 8, 1 / 16, 0.1]))
    ht = h * draw(st.sampled_from([0.3, 1.0, 2.0]))
    near_axis = draw(st.sampled_from([None, 0, 1]))
    far = np.array([0.0 if axis == near_axis else
                    draw(st.sampled_from([-1, 1])) * draw(st.floats(0.5, 1.2))
                    for axis in (0, 1)] + [draw(st.floats(-1.0, 1.0))])
    if draw(st.booleans()):
        ijk = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                      st.integers(-8, 8)), max_size=60))
        at = np.floor(far / np.array([h, h, ht])).astype(np.int64)
        return VoxelSet(np.array(ijk, dtype=np.int64).reshape(-1, 3) + at, h, ht)
    unit = np.array([h, h, ht]) / 2.0
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        c = [draw(st.integers(-4, 4)) for _ in range(3)]
        w = [draw(st.integers(1, 5)) for _ in range(3)]
        boxes.append(Box(far + np.array(c) * unit, np.array(w) * unit))
    return boundary(voxelize(UnionShape(*boxes), h, ht))


@settings(max_examples=150, deadline=None)
@given(_far_box_unions())
def test_h3_surrogate_matches_reference_far_from_the_axis(B):
    assert np.abs(B.centers()[:, :2]).sum(axis=1).max(initial=1.0) >= 0.5
    assert h3_surrogate(B) == _h3_surrogate_reference(B)


def _ball_islands(h, ht, center_ij):
    """Island n: a ball center c = center_ij at height 100 n, and one later
    voxel p a column offset (a, b) away, at a height within a layer of the
    ball's top or bottom there.  Islands lie 100 layers apart, beyond every
    ball, so a p inside the ball that the windows miss is one ball more."""
    rho = 2.0 * math.sqrt(ht)
    m = math.floor(rho / h)
    i, j = center_ij
    cx, cy = (i + 0.5) * h, (j + 0.5) * h
    rows = []
    for a in range(0, m + 1):
        for b in range(-m, m + 1):
            rest = rho ** 4 - ((a * h) ** 2 + (b * h) ** 2) ** 2
            if (a, b) <= (0, 0) or rest < 0:
                continue
            mid = -0.5 * (cy * a * h - cx * b * h) / ht
            half = math.sqrt(rest) / 4.0 / ht
            for d in {math.floor(mid + sign * half) + e
                      for sign in (-1, 1) for e in (-1, 0, 1, 2)}:
                n = len(rows) // 2
                rows += [(i, j, 100 * n), (i + a, j + b, 100 * n + d)]
    return VoxelSet(rows, h, ht)


@pytest.mark.parametrize("h, ht", [(1 / 16, 0.3 / 16), (0.1, 0.1)])
def test_h3_surrogate_matches_reference_at_every_offset_a_ball_reaches(h, ht):
    # each offset's top and bottom layers are met: the center first or last
    # in its cell of m columns, near the x axis, near the y axis and off
    # both, where the twist over the ball depends on both coordinates
    m = math.floor(2.0 * math.sqrt(ht) / h)
    for x, y in ((0.0, 1.5), (-1.5, 0.0), (1.0, -1.2), (-1.1, -1.0)):
        i0, j0 = math.floor(x / h / m) * m, math.floor(y / h / m) * m
        for ri, rj in ((0, 0), (m - 1, m - 1), (0, m - 1)):
            B = _ball_islands(h, ht, (i0 + ri, j0 + rj))
            assert h3_surrogate(B) == _h3_surrogate_reference(B), (x, y, ri, rj)


def test_h3_surrogate_matches_reference_when_balls_are_thinner_than_columns():
    # rho = 2 sqrt(ht) < h: the cells are one column wide and the columns
    # two cells away lie beyond every ball
    for far in ((0.0, 0.0, 0.0), (-7.5, 9.0, 2.0)):
        K = voxelize(Box(far, (3.0, 2.0, 0.4)), 1.0, 0.05)
        B = boundary(K)
        assert 2.0 * math.sqrt(B.ht) < B.h
        assert h3_surrogate(B) == _h3_surrogate_reference(B)


def test_gauge_inside_is_the_gauge_ball():
    # _gauge_inside computes the twist as cy dx - cx dy, not as the
    # product's cy px - cx py, so only far from the sphere must it agree
    # with the gauge of c^-1 p; a sign slip in its twist would not
    rng = np.random.default_rng(6)
    c, off = rng.uniform(-1.0, 1.0, (2, 3, 200_000))
    for rho in (0.3, 0.9):
        # c * q for q in the box around the origin that holds its gauge ball
        p = h_mul(c, off * np.array([[rho], [rho], [rho * rho / 4.0]]))
        g = gauge4(h_mul(h_inv(c), p))
        clear = np.abs(g - rho ** 4) > 1e-12 * rho ** 4
        assert clear.mean() > 0.999
        got = _gauge_inside(*c, *p, rho)
        assert np.array_equal(got[clear], g[clear] <= rho ** 4)
        assert 0.2 < got.mean() < 0.8


def test_boundary_projection_inclusion_cases():
    solid = voxelize(Box((0, 0, 0), (0.4, 0.3, 0.2)), h=1 / 24)
    assert boundary_projection_inclusion(solid)
    shell = voxelize(DifferenceShape(Box((0, 0, 0), (0.4, 0.4, 0.2)),
                                     Box((0, 0, 0), (0.25, 0.25, 0.1))),
                     h=1 / 24)
    assert boundary_projection_inclusion(shell)
    stream = Stream(777)
    for trial in range(20):
        boxes = []
        for _ in range(1 + trial % 4):
            c = stream.uniform(3, -0.3, 0.3)
            w = stream.uniform(3, 0.1, 0.3)
            boxes.append(Box(c, w))
        E = voxelize(UnionShape(*boxes), h=1 / 24)
        assert boundary_projection_inclusion(E)


def test_weak_isoperimetric_ratio_stability():
    sh = Box((0, 0, 0), (0.5, 0.5, 0.25))
    base = weak_isoperimetric_ratio(voxelize(sh, 1 / 48))
    assert base > 0.0
    lam = 2.0
    dil = weak_isoperimetric_ratio(
        voxelize(DilatedShape(sh, lam), lam / 48, lam * lam / 48))
    assert dil == pytest.approx(base, rel=1e-9)  # matched grids scale exactly
    fine = weak_isoperimetric_ratio(voxelize(sh, 1 / 96))
    assert 0.5 <= fine / base <= 2.0
    single = weak_isoperimetric_ratio(VoxelSet([(0, 0, 0)], h=0.1))
    assert single > 0.0 and math.isfinite(single)


# ---------------------------------------------------------------------------
# set algebra

def _swept(spans):
    """spans merged by _sweep alone: the reference of _canonical_spans."""
    if len(spans) == 0:
        return spans
    col, m, base, runs = M._column_runs(spans)
    return M._spans_of_runs(col, m, base, M._sweep([runs], lambda n: n > 0))


def test_from_spans_merges_unsorted_overlapping_spans():
    spans = [(0, 0, 2, 3), (0, 0, 0, 3), (0, 0, 5, 1), (-1, 0, 0, 1),
             (0, 1, 0, 2), (0, 1, 3, 1)]
    K = VoxelSet.from_spans(spans, h=0.1)
    assert K.spans.tolist() == [[-1, 0, 0, 1], [0, 0, 0, 6], [0, 1, 0, 2],
                                [0, 1, 3, 1]]
    ijk = [(i, j, k) for i, j, k0, n in spans for k in range(k0, k0 + n)]
    assert np.array_equal(K.spans, VoxelSet(ijk, h=0.1).spans)


def test_voxelset_rejects_indices_outside_packing_range():
    for bad in [(2 ** 20, 0, 0), (0, -2 ** 20 - 1, 0), (0, 0, 2 ** 21)]:
        with pytest.raises(ValueError, match=r"2\^20"):
            VoxelSet([bad], h=0.1)
    edge = [(-2 ** 20, 2 ** 20 - 1, -2 ** 20), (2 ** 20 - 1, 0, 2 ** 20 - 1)]
    assert len(VoxelSet(edge, h=0.1)) == 2
    for bad in [(0, 0, 2 ** 20 - 1, 2), (0, 0, 2 ** 20 - 2, 3),
                (0, 0, 0, 2 ** 40), (2 ** 21, 0, 0, 1)]:
        with pytest.raises(ValueError, match=r"2\^20"):
            VoxelSet.from_spans([bad], h=0.1)
    for bad in [[(0, 0, 0, 3), (1, 0, 0, 0)], [(1, 0, 0, -3)]]:
        with pytest.raises(ValueError, match="span length must be positive"):
            VoxelSet.from_spans(bad, h=0.1)


def test_projection_rejects_cells_outside_packing_range():
    # the twist x y / 2 takes a far voxel's t cell past -2^20 (or 2^20); its
    # packed key used to carry into the u part and land in another column
    K = VoxelSet.from_spans([[300000, 300000, 0, 1]], 1.0)
    for which in ("x", "y"):
        with pytest.raises(ValueError, match=r"2\^20"):
            project_voxels(K, which)
    near = VoxelSet.from_spans([[1000, 1000, 0, 1]], 1.0)
    for which in ("x", "y"):
        assert set(project_voxels(near, which).occupied[:, 0]) == {1000}


def test_load_voxelset_zero_spans():
    # a set built from no spans at all is empty and keeps its sides
    K = VoxelSet.from_spans([], h=0.1)
    assert len(K) == 0 and K.spans.shape == (0, 4)
    assert K.h == 0.1 and K.ht == 0.1


def test_plane_region_ops():
    reg = PlaneRegion(Plane.W_X, [(0, 0), (1, 0)], h=0.5)
    assert reg.area() == pytest.approx(0.5)
    grown = dilated(reg, 1)
    assert covers(grown, reg)
    assert not covers(reg, grown)
    with pytest.raises(ValueError, match="steps"):
        dilated(reg, -1)


def test_covers_needs_the_same_plane_and_grid():
    K = voxelize(Box((0, 0, 0), (0.3, 0.3, 0.1)), 1 / 16)
    px, py = project_voxels(K, "x"), project_voxels(K, "y")
    fine = project_voxels(voxelize(Box((0, 0, 0), (0.3, 0.3, 0.1)), 1 / 32), "x")
    aniso = PlaneRegion(Plane.W_X, px.occupied, px.h, px.ht / 2)
    assert covers(px, px) and _dilated_covers(px, px)
    for a, b in ((px, py), (py, px), (px, fine), (fine, px), (px, aniso)):
        with pytest.raises(ValueError, match="different planes or grids"):
            covers(a, b)
        with pytest.raises(ValueError, match="different planes or grids"):
            _dilated_covers(a, b)


_EDGE = 2 ** 20


def _in_range(cells):
    """The cells moved into [-2^20, 2^20): a t beyond the range goes to the
    cell of the same packed key, at the other end of the next or previous
    column; then cells with u beyond the range are dropped."""
    over = (cells[:, 1] >= _EDGE).astype(np.int64) - (cells[:, 1] < -_EDGE)
    cells = cells + np.outer(over, [1, -2 * _EDGE])
    return cells[((cells >= -_EDGE) & (cells < _EDGE)).all(axis=1)]


@st.composite
def _cover_cases(draw):
    """A region B and a region A drawn near it: cells of B moved by up to
    two cells, and cells of their own; about the origin or at the +-2^20
    edge of the packed keys, where a neighbour's key wraps into the next
    column, and moved into the range by _in_range."""
    at = np.array([draw(st.sampled_from([0, -_EDGE, _EDGE - 1]))
                   for _ in range(2)])
    cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    b = np.array(draw(st.lists(cell, max_size=12)), dtype=np.int64).reshape(-1, 2)
    moved = [tuple(b[i] + d) for i, d in draw(st.lists(
        st.tuples(st.integers(0, max(0, len(b) - 1)),
                  st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
        max_size=12 if len(b) else 0))]
    a = np.array(moved + draw(st.lists(cell, max_size=3)),
                 dtype=np.int64).reshape(-1, 2)
    return (PlaneRegion(Plane.W_Y, _in_range(b + at), 0.1, 0.05),
            PlaneRegion(Plane.W_Y, _in_range(a + at), 0.1, 0.05))


@settings(max_examples=300, deadline=None)
@given(_cover_cases())
def test_dilated_covers_equals_dilation(case):
    b, a = case
    # every cell of A has a cell of B within one step on both axes
    want = all(any(np.abs(p - q).max() <= 1 for q in b.occupied)
               for p in a.occupied)
    assert _dilated_covers(b, a) == want
    if ((b.occupied > -_EDGE) & (b.occupied < _EDGE - 1)).all():
        # the dilation stays in the packing range
        assert covers(dilated(b, 1), a) == want


def test_plane_region_rejects_cells_outside_the_packing_range():
    # (0, 2^20) would pack to the key of (1, -2^20)
    with pytest.raises(ValueError, match=r"\[-2\^20, 2\^20\)"):
        PlaneRegion(Plane.W_X, [(0, 2 ** 20)], 0.1)
    for cell in ((0, -2 ** 20 - 1), (2 ** 20, 0), (-2 ** 20 - 1, 0)):
        with pytest.raises(ValueError, match=r"2\^20"):
            PlaneRegion(Plane.W_X, [cell], 0.1)
    edge = PlaneRegion(Plane.W_X, [(0, 2 ** 20 - 1)], 0.1)
    with pytest.raises(ValueError, match=r"2\^20"):
        dilated(edge, 1)


def test_dilated_covers_stays_in_its_column():
    # the t neighbours of a cell at the top or bottom of the packing range
    # have the keys of the next column's bottom or top cell
    top = PlaneRegion(Plane.W_X, [(0, 2 ** 20 - 1)], 0.1)
    bottom = PlaneRegion(Plane.W_X, [(1, -2 ** 20)], 0.1)
    assert not _dilated_covers(top, bottom)
    assert not _dilated_covers(bottom, top)
    assert _dilated_covers(top, PlaneRegion(Plane.W_X, [(1, 2 ** 20 - 2)], 0.1))


def test_dilated_covers_edge_cases():
    empty = PlaneRegion(Plane.W_X, np.empty((0, 2)), 0.1)
    one = PlaneRegion(Plane.W_X, [(5, -3)], 0.1)
    assert _dilated_covers(empty, empty) and _dilated_covers(one, empty)
    assert not _dilated_covers(empty, one)
    assert covers(dilated(empty, 1), empty)
    assert not covers(dilated(empty, 1), one)
    ring = PlaneRegion(Plane.W_X, [(5 + di, -3 + dj) for di in (-1, 0, 1)
                                   for dj in (-1, 0, 1)], 0.1)
    far = PlaneRegion(Plane.W_X, [(7, -3), (5, -5), (3, -1)], 0.1)
    assert _dilated_covers(one, ring) and covers(dilated(one, 1), ring)
    for cell in far.occupied:
        lone = PlaneRegion(Plane.W_X, [cell], 0.1)
        assert not _dilated_covers(one, lone)
        assert not covers(dilated(one, 1), lone)


_ANCHORS = [-_EDGE, 0, _EDGE - 6]


@st.composite
def _span_lists(draw):
    """Spans (cell..., k0, klen) in 2 or 3 axes, each index about the origin
    or a +-2^20 edge: sorted, touching or apart in each column (and across
    columns in packed keys), then as drawn, shuffled, with rows repeated or
    with spans grown over the next."""
    axes = draw(st.sampled_from([2, 3]))
    index = st.sampled_from(_ANCHORS).flatmap(lambda a: st.integers(a, a + 5))
    rows = []
    for col in sorted(set(draw(st.lists(st.tuples(*[index] * (axes - 1)),
                                        max_size=4)))):
        k = draw(index)
        for gap, n in draw(st.lists(st.tuples(st.integers(0, 2),
                                              st.integers(1, 3)), max_size=4)):
            k += gap
            if k >= _EDGE:
                break
            rows.append([*col, k, min(n, _EDGE - k)])
            k += rows[-1][-1]
    spans = np.array(rows, dtype=np.int64).reshape(-1, axes + 1)
    how = draw(st.sampled_from(["sorted", "shuffled", "repeated", "grown"]))
    if how == "shuffled":
        spans = spans[draw(st.permutations(range(len(spans))))]
    elif how == "repeated" and len(spans):
        spans = spans[sorted(draw(st.lists(st.integers(0, len(spans) - 1)))
                             + list(range(len(spans))))]
    elif how == "grown":
        grow = draw(st.lists(st.integers(0, 4), min_size=len(spans),
                             max_size=len(spans)))
        spans[:, -1] = np.minimum(spans[:, -1] + grow, _EDGE - spans[:, -2])
    return spans


def _cells(spans):
    return [(*r[:-2], k) for r in spans.tolist()
            for k in range(r[-2], r[-2] + r[-1])]


@settings(max_examples=300, deadline=None)
@given(_span_lists())
def test_canonical_spans_equal_the_sweep(spans):
    got = M._canonical_spans(spans.copy())
    assert np.array_equal(got, _swept(spans))
    cells = _cells(got)
    assert len(cells) == len(set(cells)) and set(cells) == set(_cells(spans))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), max_size=20),
       st.sampled_from(_ANCHORS[:2] + [_EDGE - 1]))
def test_plane_region_spans_round_trip(cells, at):
    cells = _in_range(np.array(cells, dtype=np.int64).reshape(-1, 2) + at)
    R = PlaneRegion(Plane.W_Y, cells, 0.1, 0.05)
    assert sorted(set(map(tuple, cells.tolist()))) == _cells(R.spans)
    again = PlaneRegion.from_spans(R.spans, R.h, R.ht, plane=R.plane)
    assert np.array_equal(again.spans, R.spans) and again.plane == R.plane
    assert list(map(tuple, R.occupied.tolist())) == _cells(R.spans)
    assert np.array_equal(PlaneRegion(R.plane, R.occupied, R.h, R.ht).spans,
                          R.spans)


def test_plane_region_spans_stay_in_their_column():
    # (0, 2^20 - 1) and (1, -2^20) have consecutive packed keys
    R = PlaneRegion(Plane.W_X, [(1, -_EDGE), (0, _EDGE - 1)], 0.1)
    assert R.spans.tolist() == [[0, _EDGE - 1, 1], [1, -_EDGE, 1]]
    assert np.array_equal(
        PlaneRegion.from_spans(R.spans, 0.1, plane=Plane.W_X).spans, R.spans)


def test_projection_keeps_columns_apart_at_the_packing_edge():
    # the half-open end of a run at t cell 2^20 - 1 of column u is the
    # packed key of cell -2^20 of column u + 1: the runs stay two spans
    K = VoxelSet.from_spans([(0, 0, _EDGE - 4, 4), (1, 0, -_EDGE, 3)],
                            2.0 ** -10, 1.0)
    assert project_voxels(K, "x").spans.tolist() == [[0, _EDGE - 4, 4],
                                                     [1, -_EDGE, 3]]
    assert project_voxels(K, "y").spans.tolist() == [[0, -_EDGE, 3],
                                                     [0, _EDGE - 4, 4]]
    _assert_matches_oracle(K)


def test_merged_joins_runs_that_overlap_or_touch():
    lo, end = M._merged(np.array([9, 0, 5, 2, 12, 3]),
                        np.array([10, 2, 7, 4, 15, 4]))
    assert (lo.tolist(), end.tolist()) == ([0, 5, 9, 12], [4, 7, 10, 15])
    none = np.empty(0, dtype=np.int64)
    assert [r.size for r in M._merged(none, none)] == [0, 0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 12)),
                max_size=30),
       st.sampled_from([0, -_EDGE, _EDGE - 40]))
def test_merged_equals_the_running_max_sweep(runs, at):
    # unsorted runs of length 1 to 12 on a short axis overlap, touch, nest
    # and repeat; the empty list is drawn too
    lo = np.array([a for a, _ in runs], dtype=np.int64) + at
    end = lo + np.array([n for _, n in runs], dtype=np.int64)
    got, want = M._merged(lo, end), _merged_reference(lo, end)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_union_of_touching_and_overlapping_boxes_matches_dense():
    # over column (0, 0) the first two boxes hold cells 0-1 and 2-3, runs
    # that touch; the third overlaps both and the fourth, cells 5-6, lies a
    # cell apart
    boxes = [Box((0, 0, 0.125), (0.25, 0.25, 0.125)),
             Box((0.0625, 0, 0.375), (0.25, 0.25, 0.125)),
             Box((-0.0625, 0.0625, 0.25), (0.125, 0.125, 0.125)),
             Box((0, 0, 0.75), (0.125, 0.25, 0.0625))]
    for shapes in (boxes, boxes[::-1], boxes[:2], boxes[1::2], boxes[:1] * 2):
        U = UnionShape(*shapes)
        assert np.array_equal(voxelize(U, 1 / 8).spans,
                              _voxelize_dense(U, 1 / 8).spans)
    spans = voxelize(UnionShape(*boxes), 1 / 8).spans
    column = spans[(spans[:, 0] == 0) & (spans[:, 1] == 0)]
    assert column.tolist() == [[0, 0, 0, 4], [0, 0, 5, 2]]


def test_project_voxels_rejects_unknown_planes():
    K = voxelize(Box((0, 0, 0), (0.3, 0.3, 0.1)), 1 / 16)
    for bad in ("z", "X", ""):
        for _ in range(2):  # a bad key is never kept on K
            with pytest.raises(ValueError, match="'x' or 'y'"):
                project_voxels(K, bad)
    assert project_voxels(K, "x") is project_voxels(K, "x")
    assert project_voxels(K, "x", 3) is not project_voxels(K, "x")


def test_isoperimetric_row_runs_each_kernel_once(monkeypatch):
    calls = {"boundary": 0, "projection": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(M, "_span_boundary",
                        counted("boundary", M._span_boundary))
    monkeypatch.setattr(M, "_project_spans",
                        counted("projection", M._project_spans))
    E = voxelize(UnionShape(Box((0, 0, 0), (0.3, 0.2, 0.1)),
                            Box((0.2, 0.1, 0.05), (0.2, 0.2, 0.1))), 1 / 24)
    assert boundary_projection_inclusion(E)
    weak_isoperimetric_ratio(E)
    assert calls == {"boundary": 1, "projection": 4}
    lw_ratio(E)
    lw_ratio(boundary(E))
    assert calls == {"boundary": 1, "projection": 4}
