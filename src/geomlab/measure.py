"""Voxelized measure computations in the group: volumes, vertical
projections, Loomis-Whitney ratios, tube intersections, boundaries, and
the weak isoperimetric surrogate.

Grids may be anisotropic: the t-axis voxel side ht can differ from the
xy side h, so that a dilation by lam maps the (h, ht) grid onto the
(lam h, lam^2 ht) grid exactly and scaling laws can be tested without
resampling error.  Voxels follow the center rule: a voxel is occupied
iff its center lies inside the shape.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .heisenberg import (Plane, VerticalPlanePoint, _line_through,
                         dist_to_horizontal_line, gauge4, h_inv, h_mul, proj_x,
                         proj_y)
from .incidence import _first_come
from .planar import GridTooLarge, _CellHash, _first_true, _runs

_PACK_OFF = np.int64(1) << np.int64(20)
_PACK_MUL = np.int64(1) << np.int64(21)

# runs [lo, end) of integer keys, as two int64 arrays
_Runs = Tuple[np.ndarray, np.ndarray]


def _pack(idx: np.ndarray) -> np.ndarray:
    """int64 keys of the rows of idx, 21 bits a column, that sort like the
    rows; exact for indices in [-2^20, 2^20)."""
    key = idx[:, 0] + _PACK_OFF
    for col in idx.T[1:]:
        key = key * _PACK_MUL + (col + _PACK_OFF)
    return key


_RANGE = "voxel indices must lie in [-2^20, 2^20)"


def _check_spans(spans: np.ndarray) -> None:
    """Packed keys are exact only for indices in [-2^20, 2^20)."""
    if np.any(spans[:, -1] <= 0):
        raise ValueError("span length must be positive")
    if spans.size and (spans[:, :-1].min() < -_PACK_OFF
                       or spans[:, :-1].max() >= _PACK_OFF
                       or np.any(spans[:, -1] > _PACK_OFF - spans[:, -2])):
        raise ValueError(_RANGE)


def _sides(h, ht) -> Tuple[float, float]:
    """(h, ht) as floats, ht = h when None; both must be finite and positive."""
    ht = h if ht is None else ht
    if not all(math.isfinite(v) and v > 0 for v in (h, ht)):
        raise ValueError(f"h and ht must be finite and positive, got "
                         f"h={h!r}, ht={ht!r}")
    return float(h), float(ht)


def _sweep(runs: List[_Runs], keep: Callable[..., np.ndarray]) -> _Runs:
    """The keys where keep(*cover) holds, as sorted maximal runs; cover[r]
    counts the runs of runs[r] that contain the key.  keep must be false
    where nothing is covered.  For predicates that count; a union of runs
    is _merged's."""
    at = np.unique(np.concatenate([a for pair in runs for a in pair]))
    cover = [np.searchsorted(np.sort(lo), at, "right")
             - np.searchsorted(np.sort(end), at, "right") for lo, end in runs]
    # keep(...)[n] holds on [at[n], at[n + 1]); the last key ends every run
    edge = np.diff(keep(*cover).astype(np.int8), prepend=np.int8(0))
    return at[edge == 1], at[edge == -1]


def _column_runs(spans: np.ndarray):
    """The distinct columns of the spans, sorted, and the spans as runs of
    keys c * m + (k - base), c the index of the span's column; m leaves a
    gap of one key between columns, so runs never merge across."""
    _, first, c = np.unique(_pack(spans[:, :-2]), return_index=True,
                            return_inverse=True)
    base = int(spans[:, -2].min())
    m = int((spans[:, -2] + spans[:, -1]).max()) - base + 1
    lo = c * m + (spans[:, -2] - base)
    return spans[first, :-2], m, base, (lo, lo + spans[:, -1])


def _spans_of_runs(col_ij: np.ndarray, m: int, base: int, runs: _Runs) -> np.ndarray:
    """Spans (cell..., k0, klen) of runs of keys c * m + (k - base), where
    col_ij[c] is the column c."""
    lo, end = runs
    c = lo // m
    return np.column_stack([col_ij[c], lo - c * m + base, end - lo])


def _canonical_spans(spans: np.ndarray) -> np.ndarray:
    """Sorted maximal spans (cell..., k0, klen) covering the rows of the
    int64 array spans.  Spans already in that form are returned as they
    are, any others merged by _merged."""
    _check_spans(spans)
    col = _pack(spans[:, :-2])
    gap = spans[1:, -2] - spans[:-1, -2] - spans[:-1, -1]
    if np.all((col[1:] > col[:-1]) | ((col[1:] == col[:-1]) & (gap > 0))):
        return spans
    col_ij, m, base, runs = _column_runs(spans)
    return _spans_of_runs(col_ij, m, base, _merged(*runs))


class _SpanSet:
    """A set of grid cells, stored as its spans (cell..., k0, klen): the
    maximal runs k0 <= k < k0 + klen along the last axis of one column,
    sorted by (cell..., k0).  A cell has _axes indices, each in
    [-2^20, 2^20), the range of the packed keys; cells have side ht on the
    last axis and h on the others.  A set is immutable, so what is
    computed from it can be kept in _memo and computed once."""

    _axes = 3

    def __init__(self, occupied, h: float, ht: Optional[float] = None):
        cells = np.asarray(occupied, dtype=np.int64).reshape(-1, self._axes)
        self._init(_canonical_spans(np.insert(cells, self._axes, 1, axis=1)), h, ht)

    @classmethod
    def from_spans(cls, spans, h: float, ht: Optional[float] = None, **fields):
        """The cells of the spans, given in any order; overlapping and
        adjacent spans merge.  fields are the attributes a subclass adds,
        such as a PlaneRegion's plane."""
        return cls._of(np.array(spans, dtype=np.int64).reshape(-1, cls._axes + 1),
                       h, ht, **fields)

    @classmethod
    def _of(cls, spans: np.ndarray, h: float, ht: Optional[float] = None, **fields):
        """from_spans without the copy, for an int64 spans array that no
        one else holds: the set may keep it, read-only."""
        S = cls.__new__(cls)
        vars(S).update(fields)
        S._init(_canonical_spans(spans), h, ht)
        return S

    def _init(self, spans: np.ndarray, h: float, ht: Optional[float]) -> None:
        self.h, self.ht = _sides(h, ht)
        spans.setflags(write=False)
        self.spans = spans
        self._len = int(spans[:, -1].sum())
        self._memo: dict = {}

    def __len__(self) -> int:
        return self._len

    @cached_property
    def occupied(self) -> np.ndarray:
        """The indices of every cell, sorted; read-only, expanded from the
        spans on first use."""
        klen = self.spans[:, -1]
        occ = np.column_stack([np.repeat(self.spans[:, :-2], klen, axis=0),
                               _runs(self.spans[:, -2], klen)])
        occ.setflags(write=False)
        return occ

    def centers(self) -> np.ndarray:
        """The cell centers in the order of occupied; read-only, computed
        on first use."""
        return self._centers

    @cached_property
    def _centers(self) -> np.ndarray:
        sides = np.array([self.h] * (self._axes - 1) + [self.ht])
        centers = (self.occupied + 0.5) * sides
        centers.setflags(write=False)
        return centers


class VoxelSet(_SpanSet):
    """Occupancy set of voxels [i h, (i+1) h) x [j h, (j+1) h) x [k ht, (k+1) ht),
    stored as its k-spans (i, j, k0, klen)."""

    def volume(self) -> float:
        return len(self) * self.h * self.h * self.ht


# ---------------------------------------------------------------------------
# Shapes (predicates with bounding boxes) for the center-rule voxelizer.

class _VoxelColumns:
    """The (i, j) columns of a voxelization grid, as one shape sees them.

    x[c], y[c] are the center of column c and t(c, k) the center height of
    its cell k after the pre-maps of the enclosing shapes; k_of(c, t) is the
    real cell index of height t, up to rounding.  Cells run over
    k0 <= k < k1, and a run of cells is a run of keys c * m + (k - k0)."""

    def __init__(self, x, y, t, k_of, k0: int, k1: int):
        self.x, self.y, self.t, self.k_of = x, y, t, k_of
        self.k0, self.k1, self.m = k0, k1, k1 - k0 + 1

    def mapped(self, x, y, pre, post) -> "_VoxelColumns":
        """The columns seen through a pre-map taking height t of column c
        to pre(c, t), with post(c, .) its inverse up to rounding."""
        t, k_of = self.t, self.k_of
        return _VoxelColumns(x, y, lambda c, k: pre(c, t(c, k)),
                             lambda c, s: k_of(c, post(c, s)), self.k0, self.k1)

    def confirm(self, shape: "Shape", c: np.ndarray, t_lo: np.ndarray,
                t_hi: np.ndarray) -> _Runs:
        """Runs of the cells of columns c that the leaf shape contains, given
        the heights [t_lo, t_hi] of the shape in each column up to rounding.

        contains is a monotone float composition in t, so a column's
        accepted cells are one interval [a, b].  _first_true finds a in
        [k0, lo] and b in [hi, k1 - 1] (mirrored by k -> -k) from the
        rounded ends lo and hi; its checks at lo - 1, lo, hi and hi + 1
        settle both when each end or its outer neighbour is accepted.
        Otherwise the cell the other end found, or else the middle of
        [lo, hi], tops both brackets of a second search, and a column
        with neither is empty.  Heights right to within a cell put one of
        these cells in every nonempty interval."""

        def inside(cc, k):
            ok = (k >= self.k0) & (k < self.k1)
            cc = cc[ok]
            ok[ok] = shape.contains(np.column_stack([self.x[cc], self.y[cc],
                                                     self.t(cc, k[ok])]))
            return ok

        def ends(c, lo, hi, top_a, top_b):
            a, b = lo.copy(), -hi
            _first_true(lambda s, j, d: inside(c[s], j + d), a, self.k0, top_a)
            _first_true(lambda s, j, d: inside(c[s], -d - j), b, 1 - self.k1, -top_b)
            return a, -b

        # fmax/fmin map a NaN end into the box too
        lo = np.fmin(np.fmax(np.ceil(self.k_of(c, t_lo)), self.k0), self.k1)
        hi = np.fmin(np.fmax(np.floor(self.k_of(c, t_hi)), self.k0 - 1),
                     self.k1 - 1)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        a, b = ends(c, lo, hi, lo, hi)
        redo = np.flatnonzero((a > lo) | (b < hi))
        if redo.size:
            lo, hi, ra, rb = lo[redo], hi[redo], a[redo], b[redo]
            top = np.where(ra <= lo, ra, np.where(rb >= hi, rb, (lo + hi) // 2))
            ok = inside(c[redo], top)
            a[redo[~ok]], b[redo[~ok]] = 1, 0  # empty
            redo, lo, hi, top = redo[ok], lo[ok], hi[ok], top[ok]
            a[redo], b[redo] = ends(c[redo], np.minimum(lo + 1, top),
                                    np.maximum(hi - 1, top), top, top)
        keep = a <= b
        key = c[keep] * self.m - self.k0
        return key + a[keep], key + b[keep] + 1


_NO_RUNS: _Runs = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class Shape:
    """A region of the group for the center-rule voxelizer.

    Every shape has bounds and t_intervals.  The leaf shapes (Box,
    KoranyiBall, TubeIntersection) also have contains(pts), the predicate
    cols.confirm settles their heights against.  The composite shapes
    (UnionShape, DifferenceShape, ShearedShape, DilatedShape) have no
    contains: they decide membership only through their parts' runs."""

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def t_intervals(self, cols: _VoxelColumns) -> _Runs:
        """The runs of grid cells this shape contains, column by column: a
        leaf's heights in each column, settled against its contains by
        cols.confirm, or the runs of a composite's parts, combined."""
        raise NotImplementedError


class Box(Shape):
    def __init__(self, center: Sequence[float], half_widths: Sequence[float]):
        self.center = np.asarray(center, dtype=np.float64)
        self.half = np.asarray(half_widths, dtype=np.float64)
        if np.any(self.half <= 0):
            raise ValueError("half widths must be positive")

    def contains(self, pts):
        return np.all(np.abs(pts - self.center[None, :]) <= self.half[None, :],
                      axis=1)

    def bounds(self):
        return self.center - self.half, self.center + self.half

    def t_intervals(self, cols):
        (cx, cy, ct), (hx, hy, hz) = self.center, self.half
        c = np.flatnonzero((np.abs(cols.x - cx) <= hx)
                           & (np.abs(cols.y - cy) <= hy))
        return cols.confirm(self, c, np.full(c.size, ct - hz),
                            np.full(c.size, ct + hz))


class KoranyiBall(Shape):
    def __init__(self, center: Sequence[float], radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, pts):
        return gauge4(h_mul(h_inv(self.center), pts.T)) <= self.radius ** 4

    def bounds(self):
        r = self.radius
        cx, cy, ct = self.center
        t_half = r * r / 4.0 + (abs(cx) + abs(cy)) * r / 2.0
        lo = np.array([cx - r, cy - r, ct - t_half])
        hi = np.array([cx + r, cy + r, ct + t_half])
        return lo, hi

    def t_intervals(self, cols):
        cx, cy, ct = self.center
        dx, dy = cols.x - cx, cols.y - cy
        # contains adds 16 dt^2 >= 0 to (dx^2 + dy^2)^2, so a column with
        # rest < 0 holds no center
        rest = self.radius ** 4 - (dx * dx + dy * dy) ** 2
        c = np.flatnonzero(rest >= 0.0)
        mid = ct - 0.5 * (cy * cols.x[c] - cx * cols.y[c])
        half = np.sqrt(rest[c]) / 4.0
        return cols.confirm(self, c, mid - half, mid + half)


class UnionShape(Shape):
    def __init__(self, *shapes: Shape):
        self.shapes = list(shapes)

    def bounds(self):
        if not self.shapes:
            z = np.zeros(3)
            return z, z
        los, his = zip(*(sh.bounds() for sh in self.shapes))
        return np.min(los, axis=0), np.max(his, axis=0)

    def t_intervals(self, cols):
        parts = [sh.t_intervals(cols) for sh in self.shapes] or [_NO_RUNS]
        return _merged(*(np.concatenate(r) for r in zip(*parts)))


class DifferenceShape(Shape):
    def __init__(self, plus: Shape, minus: Shape):
        self.plus, self.minus = plus, minus

    def bounds(self):
        return self.plus.bounds()

    def t_intervals(self, cols):
        return _sweep([self.plus.t_intervals(cols), self.minus.t_intervals(cols)],
                      lambda p, m: (p > 0) & (m == 0))


class ShearedShape(Shape):
    """Image of a shape under (x, y, t) -> (x, y, t + sign * x y / 2).

    The preimage height t - sign x y / 2 is the t of proj_x(sign x, y, t),
    and t + sign x y / 2 that of proj_y(sign x, y, t), bit for bit."""

    def __init__(self, shape: Shape, sign: float = 1.0):
        self.shape, self.sign = shape, float(sign)

    def bounds(self):
        lo, hi = self.shape.bounds()
        m = max(abs(lo[0]), abs(hi[0])) * max(abs(lo[1]), abs(hi[1])) / 2.0
        return (np.array([lo[0], lo[1], lo[2] - m]),
                np.array([hi[0], hi[1], hi[2] + m]))

    def t_intervals(self, cols):
        sx, y = self.sign * cols.x, cols.y
        return self.shape.t_intervals(cols.mapped(
            cols.x, y, lambda c, t: proj_x((sx[c], y[c], t))[1],
            lambda c, t: proj_y((sx[c], y[c], t))[1]))


class DilatedShape(Shape):
    """Image of a shape under the dilation (lam x, lam y, lam^2 t)."""

    def __init__(self, shape: Shape, lam: float):
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        self.shape, self.lam = shape, float(lam)

    def bounds(self):
        lo, hi = self.shape.bounds()
        s = np.array([self.lam, self.lam, self.lam * self.lam])
        return lo * s, hi * s

    def t_intervals(self, cols):
        lam, lam2 = self.lam, self.lam * self.lam
        return self.shape.t_intervals(cols.mapped(
            cols.x / lam, cols.y / lam, lambda c, t: t / lam2,
            lambda c, t: t * lam2))


class TubeIntersection(Shape):
    """Points within `radius` of both horizontal lines, inside the cube."""

    def __init__(self, w_x: VerticalPlanePoint, w_y: VerticalPlanePoint,
                 radius: float, box_lo: np.ndarray, box_hi: np.ndarray):
        self.w_x, self.w_y, self.radius = w_x, w_y, radius
        self._lo, self._hi = box_lo, box_hi

    def contains(self, pts):
        ok = np.all(np.abs(pts) <= 1.0, axis=1)
        ok &= dist_to_horizontal_line(pts, self.w_x) <= self.radius
        ok &= dist_to_horizontal_line(pts, self.w_y) <= self.radius
        return ok

    def bounds(self):
        return self._lo, self._hi

    def t_intervals(self, cols):
        # contains tests |x|, |y| <= 1 on these same floats
        c = np.flatnonzero((np.abs(cols.x) <= 1.0) & (np.abs(cols.y) <= 1.0))
        lo, hi = np.full(c.size, -1.0), np.full(c.size, 1.0)
        for p in (self.w_x, self.w_y):
            # with d the unit direction of the core line through a, s =
            # t - a_t and w = (x - a_x, y - a_y, 0), the squared distance
            # (1 - d_t^2) s^2 - 2 d_t (w.d) s + |w|^2 - (w.d)^2 is at most
            # r^2 between its roots; where it misses, the ends cross over
            # its closest s, the farther the more it misses
            a, direction = _line_through(p)
            d = direction / np.linalg.norm(direction)
            wx, wy = cols.x[c] - a[0], cols.y[c] - a[1]
            wd = wx * d[0] + wy * d[1]
            lead, lin = 1.0 - d[2] * d[2], d[2] * wd
            rest = wx * wx + wy * wy - wd * wd - self.radius * self.radius
            disc = lin * lin - lead * rest
            half = np.copysign(np.sqrt(np.abs(disc)), disc) / lead
            center = a[2] + lin / lead
            lo, hi = np.maximum(lo, center - half), np.minimum(hi, center + half)
        # the closed forms are right to far less than a cell, so a column
        # whose ends cross by more than a cell holds no center
        near = ~(cols.k_of(c, lo) - cols.k_of(c, hi) > 1.0)  # keeps NaN
        return cols.confirm(self, c[near], lo[near], hi[near])


# Most (i, j) columns voxelize reads: at one span a column, 256 MiB of
# spans.  The largest box of the defaults and criteria has 66564 columns
# (the model box at delta = 2^-7), and reduce-pipeline at delta = 2^-10
# (4.2M columns) took 11 s and 400 MB.
VOXELIZE_COLUMN_CAP = 2 ** 23


@np.errstate(over="ignore")  # a bound over a tiny side is inf, and refused
def _grid_box(shape: Shape, h: float, ht: float):
    """The index box [i0, i1) x [j0, j1) x [k0, k1) of the centers voxelize
    reads, or None for empty bounds.  Raises GridTooLarge for a box that
    leaves the packing range [-2^20, 2^20) or holds more than
    VOXELIZE_COLUMN_CAP columns."""
    lo, hi = shape.bounds()
    if np.any(hi <= lo):
        return None
    side = np.array([h, h, ht])
    lo, hi = np.floor(lo / side) - 1, np.ceil(hi / side) + 1
    if not (np.all(lo >= -_PACK_OFF) and np.all(hi <= _PACK_OFF)):
        raise GridTooLarge(f"at h={h:g}, ht={ht:g} the voxel indices of the "
                           f"shape's box leave [-2^20, 2^20)")
    i0, j0, k0 = map(int, lo)
    i1, j1, k1 = map(int, hi)
    columns = (i1 - i0) * (j1 - j0)
    if columns > VOXELIZE_COLUMN_CAP:
        raise GridTooLarge(f"at h={h:g} the shape's box holds {columns} "
                           f"(i, j) columns, more than {VOXELIZE_COLUMN_CAP}")
    return i0, i1, j0, j1, k0, k1


def voxelize(shape: Shape, h: float, ht: Optional[float] = None) -> VoxelSet:
    """Center-rule voxelization over the shape's bounding box, at xy side h
    and t side ht (h when None), both finite and positive.

    The box is read one (i, j) column at a time: shape.t_intervals gives
    the runs of cells it contains in each column, at a cost that goes with
    the columns, not with the centers of the box, in sorted blocks of
    whole i-rows, about _VOXELIZE_COLUMNS columns each.  A box that leaves
    the packing range or holds more than VOXELIZE_COLUMN_CAP columns raises
    GridTooLarge before any column is read."""
    h, ht = _sides(h, ht)
    box = _grid_box(shape, h, ht)
    if box is None:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    i0, i1, j0, j1, k0, k1 = box
    rows = max(1, _VOXELIZE_COLUMNS // (j1 - j0))
    spans = []
    for a in range(i0, i1, rows):
        ii = np.repeat(np.arange(a, min(a + rows, i1)), j1 - j0)
        jj = np.resize(np.arange(j0, j1), ii.size)
        cols = _VoxelColumns((ii + 0.5) * h, (jj + 0.5) * h,
                             lambda c, k: (k + 0.5) * ht,
                             lambda c, t: t / ht - 0.5, k0, k1)
        spans.append(_spans_of_runs(np.column_stack([ii, jj]), cols.m, k0,
                                    shape.t_intervals(cols)))
    spans = np.concatenate(spans)  # frees the blocks before the set is built
    return VoxelSet._of(spans, h, ht)


# ---------------------------------------------------------------------------
# Plane regions and vertical projections

class PlaneRegion(_SpanSet):
    """Occupancy set of cells [i h, (i+1) h) x [k ht, (k+1) ht) of a
    vertical plane, coordinates (u, t), stored as its t-spans
    (u, t0, tlen)."""

    _axes = 2

    def __init__(self, plane: Plane, occupied, h: float, ht: Optional[float] = None):
        self.plane = plane
        super().__init__(occupied, h, ht)

    def area(self) -> float:
        return len(self) * self.h * self.ht


def _check_same_grid(a: PlaneRegion, b: PlaneRegion) -> None:
    if a.plane != b.plane or (a.h, a.ht) != (b.h, b.ht):
        raise ValueError(f"regions on different planes or grids: {a.plane.name} "
                         f"(h={a.h!r}, ht={a.ht!r}) and {b.plane.name} "
                         f"(h={b.h!r}, ht={b.ht!r})")


def _dilated_covers(region: PlaneRegion, other: PlaneRegion) -> bool:
    """Whether every cell of other has one of its 3 x 3 neighbours in
    region, without building region's dilation.  A t-span of region,
    widened by one cell at both ends within [-2^20, 2^20), is a run of
    packed keys of its column u, and shifted by -+_PACK_MUL one of column
    u -+ 1 (below or above every cell's key for a column past the range).
    These runs are merged once, and a span of other is covered when the
    merged run starting at or before its first key reaches past its last."""
    _check_same_grid(region, other)
    if not len(other):
        return True
    if not len(region):
        return False
    u, t0, tlen = region.spans.T
    col = (u + _PACK_OFF) * _PACK_MUL + _PACK_OFF
    shift = np.array([[-1], [0], [1]]) * _PACK_MUL
    lo, end = _merged((shift + col + np.maximum(t0 - 1, -_PACK_OFF)).ravel(),
                      (shift + col + np.minimum(t0 + tlen + 1, _PACK_OFF)).ravel())
    key = _pack(other.spans[:, :2])
    at = np.searchsorted(lo, key, "right") - 1
    return bool(np.all((at >= 0) & (end[at] >= key + other.spans[:, 2])))


def project_voxels(K: VoxelSet, which: str, oversample: int = 2) -> PlaneRegion:
    """Rasterized vertical projection of the s^3 lattice of interior sample
    points of every voxel, s = oversample >= 2, binned into plane cells.

    The samples are never built.  K is read as k-spans (i, j, k0, klen);
    for one span and one of the s^2 (x, y) offsets, u and c = x y / 2 are
    fixed and the sampled t rise in steps of ht / s <= ht / 2.  Each
    floating-point step from t to the cell floor((t -+ c) / ht) is monotone,
    and the rounding error is far below half a cell for indices within the
    +-2^20 packing range, so the cells hit form one run from the cell of
    the first sample to the cell of the last.  Both ends (and u) use the
    sampler's exact float expressions; the runs of each u column are merged
    into the region's t-spans, which hold the cells of binning every
    sample.  A cell whose t index leaves the packing range raises
    ValueError.

    The region is computed once per (K, which, oversample) and kept on K,
    so the PlaneRegion returned may be shared: treat it as read-only."""
    if which not in ("x", "y"):
        raise ValueError(f"which must be 'x' or 'y', got {which!r}")
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    key = ("project", which, oversample)
    region = K._memo.get(key)
    if region is None:
        region = K._memo[key] = _project_spans(
            K, Plane.W_X if which == "x" else Plane.W_Y, oversample)
    return region


# Spans _project_spans reads at a time, and columns voxelize passes to
# t_intervals at a time (in whole i-rows)
_PROJECT_SPANS = 1 << 13
_VOXELIZE_COLUMNS = 1 << 14


def _merged(lo: np.ndarray, end: np.ndarray) -> _Runs:
    """The union of the nonempty half-open runs [lo, end) of integer keys,
    as sorted maximal runs: runs that overlap or touch are joined.  With
    the starts and the ends each sorted, the keys of [end[i], lo[i + 1])
    lie past i + 1 ends and before the (i + 2)-th start, so no run holds
    them: a gap follows end[i] exactly where lo[i + 1] > end[i].  No runs
    give none."""
    lo, end = np.sort(lo), np.sort(end)
    gap = np.flatnonzero(lo[1:] > end[:-1])
    return (np.concatenate([lo[:1], lo[gap + 1]]),
            np.concatenate([end[gap], end[-1:]]))


def _project_spans(K: VoxelSet, plane: Plane, oversample: int) -> PlaneRegion:
    """The projection kernel of project_voxels.  The spans are read in
    blocks of _PROJECT_SPANS, each merged into runs of packed cell keys;
    the runs of several blocks are merged once more, and the runs are the
    region's spans: no cell is expanded."""
    if K.spans.shape[0] == 0:
        return PlaneRegion(plane, np.empty((0, 2), dtype=np.int64), K.h, K.ht)
    s = oversample
    fr = (2.0 * np.arange(s) + 1.0) / (2.0 * s)
    # (u, t) keys of 2^21 + 1 a column, one more than _pack's, so that the
    # end of a run at t cell 2^20 - 1 is not the first key of column u + 1
    stride = _PACK_MUL + 1
    runs = []
    for start in range(0, K.spans.shape[0], _PROJECT_SPANS):
        i, j, k0, klen = K.spans[start:start + _PROJECT_SPANS].T
        x = (i[:, None] + fr[None, :]) * K.h              # (spans, fx)
        y = (j[:, None] + fr[None, :]) * K.h              # (spans, fy)
        c = x[:, :, None] * y[:, None, :] / 2.0           # (spans, fx, fy)
        t_first = ((k0 + fr[0]) * K.ht)[:, None, None]
        t_last = ((k0 + klen - 1 + fr[-1]) * K.ht)[:, None, None]
        if plane == Plane.W_X:
            iu = np.floor(x / K.h).astype(np.int64)[:, :, None]
            lo, hi = t_first - c, t_last - c
        else:
            iu = np.floor(y / K.h).astype(np.int64)[:, None, :]
            lo, hi = t_first + c, t_last + c
        # a t cell outside the packing range would carry into the u part of
        # its key and land in another column; floor(t / ht) is monotone, so
        # the lowest and highest cells come from lo.min() and hi.max()
        if (np.floor(lo.min() / K.ht) < -_PACK_OFF
                or np.floor(hi.max() / K.ht) >= _PACK_OFF):
            raise ValueError(_RANGE)
        # the keys of a larger u exceed all keys of a smaller one, with a
        # key between the columns, so merging runs never joins two columns
        u_key = (iu + _PACK_OFF) * stride + _PACK_OFF
        runs.append(_merged(
            (u_key + np.floor(lo / K.ht).astype(np.int64)).ravel(),
            (u_key + np.floor(hi / K.ht).astype(np.int64) + 1).ravel()))
    lo, end = (runs[0] if len(runs) == 1 else
               _merged(*(np.concatenate(r) for r in zip(*runs))))
    # each run lies in one u column: it is a maximal t-span of that column
    u = lo // stride
    spans = np.column_stack([u - _PACK_OFF, lo - u * stride - _PACK_OFF, end - lo])
    return PlaneRegion._of(spans, K.h, K.ht, plane=plane)


def lw_ratio(K: VoxelSet, oversample: int = 2) -> float:
    """volume(K) / (|proj_x K|^{2/3} |proj_y K|^{2/3})."""
    if len(K) == 0:
        raise ValueError("lw_ratio of an empty set")
    ax = project_voxels(K, "x", oversample).area()
    ay = project_voxels(K, "y", oversample).area()
    if ax == 0.0 or ay == 0.0:
        raise ValueError("empty projection of a nonempty set")
    return K.volume() / (ax ** (2.0 / 3.0) * ay ** (2.0 / 3.0))


# ---------------------------------------------------------------------------
# Tubes

# The tube constant A1 of tube_intersection_volume: its tubes have radius
# A1 delta
TUBE_CONST = 2.0


def tube_intersection_volume(w_x: VerticalPlanePoint, w_y: VerticalPlanePoint,
                             delta: float) -> float:
    """Volume of the intersection of the two Euclidean (A1 delta)-tubes
    around the horizontal lines through w_x and w_y, inside the cube,
    voxelized at h = delta / 4."""
    if w_x.plane != Plane.W_X or w_y.plane != Plane.W_Y:
        raise ValueError("expected one W_x point and one W_y point")
    h = delta / 4.0
    radius = TUBE_CONST * delta
    p1, d1 = _line_through(w_x)
    p2, d2 = _line_through(w_y)
    # closest approach of the two core lines
    r = p1 - p2
    a = d1 @ d1
    b = d1 @ d2
    c = d2 @ d2
    denom = a * c - b * b  # >= 1 for these line directions
    s1 = (b * (d2 @ r) - c * (d1 @ r)) / denom
    s2 = (a * (d2 @ r) - b * (d1 @ r)) / denom
    q1 = p1 + s1 * d1
    q2 = p2 + s2 * d2
    gap = float(np.linalg.norm(q1 - q2))
    if gap > 2.0 * radius:
        return 0.0
    mid = (q1 + q2) / 2.0
    R = 7.0 * radius + 2.0 * h
    lo = np.maximum(mid - R, -1.0 - h)
    hi = np.minimum(mid + R, 1.0 + h)
    shape = TubeIntersection(w_x, w_y, radius, lo, hi)
    return voxelize(shape, h).volume()


# ---------------------------------------------------------------------------
# Boundaries and the isoperimetric surrogate

def boundary(E: VoxelSet) -> VoxelSet:
    """Occupied voxels with at least one of the six face neighbors missing;
    computed once per set and kept on E."""
    if len(E) == 0:
        return E
    dE = E._memo.get("boundary")
    if dE is None:
        dE = E._memo["boundary"] = _span_boundary(E)
    return dE


def _span_boundary(E: VoxelSet) -> VoxelSet:
    """The boundary kernel, worked on spans: a voxel has both k-neighbors
    unless it ends its span, and its (i +- 1) and (j +- 1) neighbors are
    looked up as the runs of those columns.  The interior is where the
    shrunk spans and all four neighbor-column runs overlap: where the five
    lists of runs, each of disjoint runs, cover a key five times."""
    col_ij, m, base, (lo, end) = _column_runs(E.spans)
    cols = _pack(col_ij)
    i, j, k0, klen = E.spans.T
    inner = klen > 2
    full_lo, full_end = [lo[inner] + 1], [end[inner] - 1]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        # a span of column (i, j) is neighbor to column (i - di, j - dj)
        it, jt = i - di, j - dj
        want = _pack(np.column_stack([it, jt]))
        pos = np.minimum(np.searchsorted(cols, want), cols.size - 1)
        # jt out of range would alias another column's packed key
        hit = (cols[pos] == want) & (jt >= -_PACK_OFF) & (jt < _PACK_OFF)
        key = pos[hit] * m + (k0[hit] - base)
        full_lo.append(key)
        full_end.append(key + klen[hit])
    full = np.concatenate(full_lo), np.concatenate(full_end)
    on = _sweep([(lo, end), full], lambda e, n: (e > 0) & (n < 5))
    return VoxelSet._of(_spans_of_runs(col_ij, m, base, on), E.h, E.ht)


def _gauge_inside(cx, cy, ct, px, py, pt, rho: float):
    """Whether the points p lie in the closed gauge balls of radius rho
    centred at c, elementwise."""
    dx = px - cx
    dy = py - cy
    dt = pt - ct + 0.5 * (cy * dx - cx * dy)
    return (dx * dx + dy * dy) ** 2 + 16.0 * dt * dt <= rho ** 4


def h3_surrogate(B: VoxelSet) -> float:
    """Greedy covering of the voxel centers by gauge balls, reported as
    (number of balls) * radius^3 -- a box-counting surrogate for the
    3-dimensional spherical measure of a surface.

    The ball radius is 2 sqrt(ht): the smallest gauge radius whose ball is
    as thick as one grid layer in t (gauge balls have height ~ radius^2 / 4),
    so that balls genuinely aggregate grid centers and the value is stable
    under grid refinement.  Under matched anisotropic dilation grids the
    radius scales linearly and the surrogate scales exactly by lam^3.

    Centers are scanned in voxel order; each one not yet covered becomes a
    ball that covers the later centers inside it."""
    if len(B) == 0:
        return 0.0
    rho = 2.0 * math.sqrt(B.ht)
    centers = B.centers()
    occ = B.occupied
    # A ball at c holds centers with |dx|, |dy| <= rho, so at most m columns
    # away in i and in j, and |dt| <= rho^2 / 4, which the twist term shifts
    # by up to (|c_x| + |c_y|) rho / 2, so at most width layers away in k.
    # The factor 1 + 2^-30 covers the relative roundings of the test and
    # 2^-20 cells the absolute ones of the centers (below 2^-31 cells).
    m = max(1, math.floor(rho / B.h * (1.0 + 2.0 ** -30) + 2.0 ** -20))
    reach = rho * rho / 4.0 + 0.5 * rho * np.abs(centers[:, :2]).sum(axis=1)
    reach *= 1.0 + 2.0 ** -30
    k = occ[:, 2].astype(np.float64)
    width = np.floor(reach / B.ht + 2.0 ** -20)
    near = _CellHash(np.floor_divide(occ[:, :2], m).astype(np.float64), k,
                     k - width, k + width)
    x, y, t = (np.ascontiguousarray(c) for c in centers.T)
    kept = _first_come(len(B), near, lambda o, j: _gauge_inside(
        x[o], y[o], t[o], x[j], y[j], t[j], rho))
    return kept.size * rho ** 3


def boundary_projection_inclusion(E: VoxelSet, oversample: int = 2) -> bool:
    """Check, at cell resolution, that each projection of E is covered by
    the one-cell-inflated projection of its boundary (both planes)."""
    dE = boundary(E)
    for which in ("x", "y"):
        if not _dilated_covers(project_voxels(dE, which, oversample),
                               project_voxels(E, which, oversample)):
            return False
    return True


def weak_isoperimetric_ratio(E: VoxelSet) -> float:
    """volume(E)^{3/4} / surrogate(boundary E)."""
    if len(E) == 0:
        raise ValueError("isoperimetric ratio of an empty set")
    return E.volume() ** 0.75 / h3_surrogate(boundary(E))


# ---------------------------------------------------------------------------
# A small named zoo of shapes shared by sweep experiments and tests.

def shape_zoo(scale: float = 0.5) -> dict:
    r = scale
    return {
        "box": Box((0, 0, 0), (r, r, r * r)),
        "tall_box": Box((0, 0, 0), (r / 2, r / 2, r * r)),
        "two_boxes": UnionShape(Box((-r / 2, 0, 0), (r / 2, r / 2, r * r / 2)),
                                Box((r / 2, r / 4, 0), (r / 2, r / 2, r * r / 2))),
        "notched_box": DifferenceShape(
            Box((0, 0, 0), (r, r, r * r)),
            Box((r / 2, r / 2, 0), (r / 2, r / 2, r * r / 2))),
        # radius 1.5 r keeps the ball several cells thick in t, so center-rule
        # errors stay inside the refinement tolerances
        "gauge_ball": KoranyiBall((0, 0, 0), 1.5 * r),
        "sheared_box": ShearedShape(Box((0, 0, 0), (r, r, r * r))),
    }
