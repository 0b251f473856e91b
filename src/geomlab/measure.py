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
import struct
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .heisenberg import (Plane, VerticalPlanePoint, _line_through,
                         dist_to_horizontal_line)
from .incidence import _first_come
from .planar import _CellHash, _first_true

_PACK_OFF = np.int64(1) << np.int64(20)
_PACK_MUL = np.int64(1) << np.int64(21)

# runs [lo, end) of integer keys, as two int64 arrays
_Runs = Tuple[np.ndarray, np.ndarray]


def _pack2(ij: np.ndarray) -> np.ndarray:
    return (ij[:, 0] + _PACK_OFF) * _PACK_MUL + (ij[:, 1] + _PACK_OFF)


def _pack3(ijk: np.ndarray) -> np.ndarray:
    return ((ijk[:, 0] + _PACK_OFF) * _PACK_MUL
            + (ijk[:, 1] + _PACK_OFF)) * _PACK_MUL + (ijk[:, 2] + _PACK_OFF)


def _canonical(idx: np.ndarray, width: int) -> np.ndarray:
    """The rows of idx sorted by packed key, duplicates dropped.  Rows whose
    keys already increase strictly are returned as they are, without a sort
    or a copy."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, width)
    if idx.shape[0] == 0:
        return idx
    key = _pack3(idx) if width == 3 else _pack2(idx)
    if np.all(key[1:] > key[:-1]):
        return idx
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    return idx[order][keep]


_RANGE = "voxel indices must lie in [-2^20, 2^20)"


def _check_range(idx: np.ndarray) -> None:
    """Packed keys are exact only for indices in [-2^20, 2^20)."""
    if idx.size and (idx.min() < -_PACK_OFF or idx.max() >= _PACK_OFF):
        raise ValueError(_RANGE)


def _check_spans(spans: np.ndarray) -> None:
    if np.any(spans[:, 3] <= 0):
        raise ValueError("span length must be positive")
    _check_range(spans[:, :3])
    if np.any(spans[:, 3] > _PACK_OFF - spans[:, 2]):
        raise ValueError(_RANGE)


def _rle_spans(occ: np.ndarray) -> np.ndarray:
    """k-spans (i, j, k0, klen) of a canonical (sorted, unique) occupied array."""
    if occ.shape[0] == 0:
        return np.empty((0, 4), dtype=np.int64)
    same_col = np.zeros(occ.shape[0], dtype=bool)
    same_col[1:] = ((occ[1:, 0] == occ[:-1, 0]) & (occ[1:, 1] == occ[:-1, 1])
                    & (occ[1:, 2] == occ[:-1, 2] + 1))
    starts = np.nonzero(~same_col)[0]
    lens = np.diff(np.append(starts, occ.shape[0]))
    return np.column_stack([occ[starts, 0], occ[starts, 1], occ[starts, 2], lens])


def _sweep(runs: List[_Runs], keep: Callable[..., np.ndarray]) -> _Runs:
    """The keys where keep(*cover) holds, as sorted maximal runs; cover[r]
    counts the runs of runs[r] that contain the key.  keep must be false
    where nothing is covered."""
    at = np.unique(np.concatenate([a for pair in runs for a in pair]))
    cover = [np.searchsorted(np.sort(lo), at, "right")
             - np.searchsorted(np.sort(end), at, "right") for lo, end in runs]
    # keep(...)[n] holds on [at[n], at[n + 1]); the last key ends every run
    edge = np.diff(keep(*cover).astype(np.int8), prepend=np.int8(0))
    return at[edge == 1], at[edge == -1]


def _column_runs(spans: np.ndarray):
    """The distinct (i, j) columns of the spans, sorted, and the spans as
    runs of keys c * m + (k - base), c the index of the span's column; m
    leaves a gap of one key between columns, so runs never merge across."""
    _, first, c = np.unique(_pack2(spans[:, :2]), return_index=True,
                            return_inverse=True)
    base = int(spans[:, 2].min())
    m = int((spans[:, 2] + spans[:, 3]).max()) - base + 1
    lo = c * m + (spans[:, 2] - base)
    return spans[first, :2], m, base, (lo, lo + spans[:, 3])


def _spans_of_runs(col_ij: np.ndarray, m: int, base: int, runs: _Runs) -> np.ndarray:
    """k-spans (i, j, k0, klen) of runs of keys c * m + (k - base), where
    col_ij[c] is the (i, j) of column c."""
    lo, end = runs
    c = lo // m
    return np.column_stack([col_ij[c], lo - c * m + base, end - lo])


def _canonical_spans(spans) -> np.ndarray:
    """Sorted maximal k-spans covering the given spans; spans already in
    that form are returned as they are."""
    spans = np.array(spans, dtype=np.int64).reshape(-1, 4)
    _check_spans(spans)
    col = _pack2(spans[:, :2])
    k0, end = spans[:, 2], spans[:, 2] + spans[:, 3]
    if np.all((col[1:] > col[:-1]) | ((col[1:] == col[:-1]) & (k0[1:] > end[:-1]))):
        return spans
    col_ij, m, base, runs = _column_runs(spans)
    return _spans_of_runs(col_ij, m, base, _sweep([runs], lambda n: n > 0))


class VoxelSet:
    """Occupancy set of voxels [i h, (i+1) h) x [j h, (j+1) h) x [k ht, (k+1) ht).

    The set is stored as its k-spans (i, j, k0, klen): the maximal runs
    k0 <= k < k0 + klen of one (i, j) column, sorted by (i, j, k0).  Every
    index lies in [-2^20, 2^20), the range of the packed keys.  A set is
    immutable, so boundary and project_voxels keep what they compute from
    it in _memo and compute it once."""

    def __init__(self, occupied, h: float, ht: Optional[float] = None):
        occ = np.asarray(occupied, dtype=np.int64).reshape(-1, 3)
        _check_range(occ)
        self._init(_rle_spans(_canonical(occ, 3)), h, ht)

    @classmethod
    def from_spans(cls, spans, h: float, ht: Optional[float] = None) -> "VoxelSet":
        """The voxels of the k-spans (i, j, k0, klen), given in any order;
        overlapping and adjacent spans merge."""
        K = cls.__new__(cls)
        K._init(_canonical_spans(spans), h, ht)
        return K

    def _init(self, spans: np.ndarray, h: float, ht: Optional[float]) -> None:
        self.h = float(h)
        self.ht = self.h if ht is None else float(ht)
        spans.setflags(write=False)
        self.spans = spans
        self._len = int(spans[:, 3].sum())
        self._centers = None
        self._memo: dict = {}

    def __len__(self) -> int:
        return self._len

    def volume(self) -> float:
        return len(self) * self.h * self.h * self.ht

    @cached_property
    def occupied(self) -> np.ndarray:
        """The (i, j, k) of every voxel, sorted; read-only, expanded from the
        spans on first use."""
        i, j, k0, klen = self.spans.T
        occ = np.column_stack([np.repeat(i, klen), np.repeat(j, klen),
                               _expand_runs(k0, k0 + klen - 1)])
        occ.setflags(write=False)
        return occ

    def centers(self) -> np.ndarray:
        """The voxel centers in the order of occupied; read-only, computed
        on first use."""
        if self._centers is None:
            scale = np.array([self.h, self.h, self.ht])
            self._centers = (self.occupied + 0.5) * scale[None, :]
            self._centers.setflags(write=False)
        return self._centers


# ---------------------------------------------------------------------------
# Shapes (predicates with bounding boxes) for the center-rule voxelizer.

class _VoxelColumns:
    """The (i, j) columns of a voxelization grid, as one shape sees them.

    x[c], y[c] are the center of column c and t(c, k) the center height of
    its cell k after the pre-maps of the enclosing shapes, computed with the
    same float operations as their contains; k_of(c, t) is the real cell
    index of height t, up to rounding.  Cells run over k0 <= k < k1, and a
    run of cells is a run of keys c * m + (k - k0)."""

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
        """Runs of the cells of columns c that shape contains, given the
        heights [t_lo, t_hi] of the shape in each column up to rounding.

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
    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def t_intervals(self, cols: _VoxelColumns) -> _Runs:
        """The runs of grid cells this shape contains, column by column: its
        heights in each column, settled against contains by cols.confirm."""
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
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        dt = (pts[:, 2] - self.center[2]
              + 0.5 * (self.center[1] * pts[:, 0] - self.center[0] * pts[:, 1]))
        return (dx * dx + dy * dy) ** 2 + 16.0 * dt * dt <= self.radius ** 4

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

    def contains(self, pts):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for sh in self.shapes:
            mask |= sh.contains(pts)
        return mask

    def bounds(self):
        if not self.shapes:
            z = np.zeros(3)
            return z, z
        los, his = zip(*(sh.bounds() for sh in self.shapes))
        return np.min(los, axis=0), np.max(his, axis=0)

    def t_intervals(self, cols):
        parts = [sh.t_intervals(cols) for sh in self.shapes]
        return _sweep(parts, lambda *n: sum(n) > 0) if parts else _NO_RUNS


class DifferenceShape(Shape):
    def __init__(self, plus: Shape, minus: Shape):
        self.plus, self.minus = plus, minus

    def contains(self, pts):
        return self.plus.contains(pts) & ~self.minus.contains(pts)

    def bounds(self):
        return self.plus.bounds()

    def t_intervals(self, cols):
        return _sweep([self.plus.t_intervals(cols), self.minus.t_intervals(cols)],
                      lambda p, m: (p > 0) & (m == 0))


class ShearedShape(Shape):
    """Image of a shape under (x, y, t) -> (x, y, t + sign * x y / 2)."""

    def __init__(self, shape: Shape, sign: float = 1.0):
        self.shape, self.sign = shape, float(sign)

    def contains(self, pts):
        pre = pts.copy()
        pre[:, 2] -= self.sign * pts[:, 0] * pts[:, 1] / 2.0
        return self.shape.contains(pre)

    def bounds(self):
        lo, hi = self.shape.bounds()
        m = max(abs(lo[0]), abs(hi[0])) * max(abs(lo[1]), abs(hi[1])) / 2.0
        return (np.array([lo[0], lo[1], lo[2] - m]),
                np.array([hi[0], hi[1], hi[2] + m]))

    def t_intervals(self, cols):
        shift = self.sign * cols.x * cols.y / 2.0
        return self.shape.t_intervals(cols.mapped(
            cols.x, cols.y, lambda c, t: t - shift[c], lambda c, t: t + shift[c]))


class DilatedShape(Shape):
    """Image of a shape under the dilation (lam x, lam y, lam^2 t)."""

    def __init__(self, shape: Shape, lam: float):
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        self.shape, self.lam = shape, float(lam)

    def contains(self, pts):
        pre = pts / np.array([self.lam, self.lam, self.lam * self.lam])[None, :]
        return self.shape.contains(pre)

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


def _grid_box(shape: Shape, h: float, ht: float):
    """The index box [i0, i1) x [j0, j1) x [k0, k1) of the centers voxelize
    reads, or None for empty bounds."""
    lo, hi = shape.bounds()
    if np.any(hi <= lo):
        return None
    return (int(math.floor(lo[0] / h)) - 1, int(math.ceil(hi[0] / h)) + 1,
            int(math.floor(lo[1] / h)) - 1, int(math.ceil(hi[1] / h)) + 1,
            int(math.floor(lo[2] / ht)) - 1, int(math.ceil(hi[2] / ht)) + 1)


def voxelize(shape: Shape, h: float, ht: Optional[float] = None) -> VoxelSet:
    """Center-rule voxelization over the shape's bounding box, at xy side h
    and t side ht (h when None), both finite and positive.

    The box is read one (i, j) column at a time: shape.t_intervals gives
    the runs of cells it contains in each column, at a cost that goes with
    the columns, not with the centers of the box."""
    ht = h if ht is None else ht
    if not all(math.isfinite(v) and v > 0 for v in (h, ht)):
        raise ValueError(f"h and ht must be finite and positive, got "
                         f"h={h!r}, ht={ht!r}")
    box = _grid_box(shape, h, ht)
    if box is None:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    i0, i1, j0, j1, k0, k1 = box
    ii = np.repeat(np.arange(i0, i1), j1 - j0)
    jj = np.tile(np.arange(j0, j1), i1 - i0)
    cols = _VoxelColumns((ii + 0.5) * h, (jj + 0.5) * h,
                         lambda c, k: (k + 0.5) * ht, lambda c, t: t / ht - 0.5,
                         k0, k1)
    return VoxelSet.from_spans(_spans_of_runs(
        np.column_stack([ii, jj]), cols.m, k0, shape.t_intervals(cols)), h, ht)


# ---------------------------------------------------------------------------
# Plane regions and vertical projections

class PlaneRegion:
    """Occupancy set of cells [i h, (i+1) h) x [k ht, (k+1) ht) of a
    vertical plane, coordinates (u, t), with indices in [-2^20, 2^20)."""

    def __init__(self, plane: Plane, occupied, h: float, ht: Optional[float] = None):
        self.plane = plane
        self.h = float(h)
        self.ht = self.h if ht is None else float(ht)
        occupied = np.asarray(occupied, dtype=np.int64).reshape(-1, 2)
        _check_range(occupied)
        self.occupied = _canonical(occupied, 2)
        self.occupied.setflags(write=False)

    def __len__(self) -> int:
        return self.occupied.shape[0]

    def area(self) -> float:
        return len(self) * self.h * self.ht

    def centers(self) -> np.ndarray:
        return (self.occupied + 0.5) * np.array([self.h, self.ht])[None, :]

    def dilated(self, steps: int = 1) -> "PlaneRegion":
        if steps < 0:
            raise ValueError("dilation steps must be >= 0")
        if len(self) == 0 or steps == 0:
            return self
        offs = np.arange(-steps, steps + 1)
        di, dj = np.meshgrid(offs, offs, indexing="ij")
        shifts = np.column_stack([di.ravel(), dj.ravel()])
        grown = (self.occupied[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
        return PlaneRegion(self.plane, grown, self.h, self.ht)

    def covers(self, other: "PlaneRegion") -> bool:
        _check_same_grid(self, other)
        if len(other) == 0:
            return True
        mine = _pack2(self.occupied)
        theirs = _pack2(other.occupied)
        pos = np.searchsorted(mine, theirs)
        ok = pos < mine.size
        ok[ok] &= mine[pos[ok]] == theirs[ok]
        return bool(np.all(ok))


def _check_same_grid(a: PlaneRegion, b: PlaneRegion) -> None:
    if a.plane != b.plane or (a.h, a.ht) != (b.h, b.ht):
        raise ValueError(f"regions on different planes or grids: {a.plane.name} "
                         f"(h={a.h!r}, ht={a.ht!r}) and {b.plane.name} "
                         f"(h={b.h!r}, ht={b.ht!r})")


def _dilated_covers(region: PlaneRegion, other: PlaneRegion) -> bool:
    """region.dilated(1).covers(other), without building the dilation:
    whether every cell of other has one of its 3 x 3 neighbours in region.
    The neighbours in column u + du have the packed keys from
    key + du * _PACK_MUL - 1 to key + du * _PACK_MUL + 1, so each du is one
    search in the sorted keys of region.  At t = -2^20 or 2^20 - 1 the
    range stops at t: one key further is the end of the next column."""
    _check_same_grid(region, other)
    if len(other) == 0:
        return True
    mine = _pack2(region.occupied)
    key = _pack2(other.occupied)
    t = other.occupied[:, 1]
    lo = key - (t > -_PACK_OFF)
    hi = key + (t < _PACK_OFF - 1)
    for du in (0, -1, 1):
        pos = np.searchsorted(mine, lo + du * _PACK_MUL)
        near = pos < mine.size
        near[near] = mine[pos[near]] <= hi[near] + du * _PACK_MUL
        lo, hi = lo[~near], hi[~near]
    return lo.size == 0


def _expand_runs(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [start, end], in order."""
    lens = end - start + 1
    before = np.cumsum(lens) - lens
    return np.repeat(start - before, lens) + np.arange(int(lens.sum()))


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
    and expanded, giving the same cells as binning every sample.  A cell
    whose t index leaves the packing range raises ValueError.

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


def _project_spans(K: VoxelSet, plane: Plane, oversample: int) -> PlaneRegion:
    """The projection kernel of project_voxels."""
    spans = K.spans
    if spans.shape[0] == 0:
        return PlaneRegion(plane, np.empty((0, 2), dtype=np.int64), K.h, K.ht)
    s = oversample
    fr = (2.0 * np.arange(s) + 1.0) / (2.0 * s)
    i, j, k0, klen = spans.T
    x = (i[:, None] + fr[None, :]) * K.h                  # (spans, fx)
    y = (j[:, None] + fr[None, :]) * K.h                  # (spans, fy)
    c = x[:, :, None] * y[:, None, :] / 2.0               # (spans, fx, fy)
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
    # in packed (u, t) keys a run is [key_lo, key_hi] and the keys of a
    # larger u exceed all keys of a smaller one, so sorting by key_lo and a
    # running max of key_hi merge the overlapping runs of each column
    u_key = (iu + _PACK_OFF) * _PACK_MUL + _PACK_OFF
    key_lo = (u_key + np.floor(lo / K.ht).astype(np.int64)).ravel()
    order = np.argsort(key_lo, kind="stable")
    key_lo = key_lo[order]
    reach = np.maximum.accumulate(
        (u_key + np.floor(hi / K.ht).astype(np.int64)).ravel()[order])
    first = np.ones(key_lo.size, dtype=bool)
    first[1:] = key_lo[1:] > reach[:-1]
    starts = np.nonzero(first)[0]
    keys = _expand_runs(key_lo[starts], reach[np.append(starts[1:], key_lo.size) - 1])
    cells = np.column_stack([keys // _PACK_MUL - _PACK_OFF,
                             keys % _PACK_MUL - _PACK_OFF])
    return PlaneRegion(plane, cells, K.h, K.ht)


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

def tube_intersection_volume(w_x: VerticalPlanePoint, w_y: VerticalPlanePoint,
                             delta: float, tube_const: float = 2.0,
                             h: Optional[float] = None) -> float:
    """Volume of the intersection of the two Euclidean (A1 delta)-tubes
    around the horizontal lines through w_x and w_y, inside the cube."""
    if w_x.plane != Plane.W_X or w_y.plane != Plane.W_Y:
        raise ValueError("expected one W_x point and one W_y point")
    h = delta / 4.0 if h is None else h
    radius = tube_const * delta
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
    cols = _pack2(col_ij)
    i, j, k0, klen = E.spans.T
    inner = klen > 2
    full_lo, full_end = [lo[inner] + 1], [end[inner] - 1]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        # a span of column (i, j) is neighbor to column (i - di, j - dj)
        it, jt = i - di, j - dj
        want = _pack2(np.column_stack([it, jt]))
        pos = np.minimum(np.searchsorted(cols, want), cols.size - 1)
        # jt out of range would alias another column's packed key
        hit = (cols[pos] == want) & (jt >= -_PACK_OFF) & (jt < _PACK_OFF)
        key = pos[hit] * m + (k0[hit] - base)
        full_lo.append(key)
        full_end.append(key + klen[hit])
    full = np.concatenate(full_lo), np.concatenate(full_end)
    on = _sweep([(lo, end), full], lambda e, n: (e > 0) & (n < 5))
    return VoxelSet.from_spans(_spans_of_runs(col_ij, m, base, on), E.h, E.ht)


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
# Serialization: run-length-encoded binary.
#
# Binary layout (little endian): magic b"VXL1", float64 h, float64 ht,
# uint64 nspans, then per span int64 i, int64 j, int64 k0, int64 klen,
# spans sorted lexicographically.

_MAGIC = b"VXL1"


def save_voxelset(K: VoxelSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<dd", K.h, K.ht))
        fh.write(struct.pack("<Q", K.spans.shape[0]))
        fh.write(K.spans.astype("<i8").tobytes())


def load_voxelset(path) -> VoxelSet:
    """Read a file written by save_voxelset.  A short header or payload, a
    span length below 1, or an index outside [-2^20, 2^20) raises a
    ValueError that names the file; overlapping or unsorted spans merge."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a voxel-set file")
        header = fh.read(24)
        payload = fh.read()
    if len(header) < 24:
        raise ValueError(f"{path}: truncated voxel-set header")
    h, ht, nspans = struct.unpack("<ddQ", header)
    if len(payload) < nspans * 32:
        raise ValueError(f"{path}: {nspans} spans need {nspans * 32} bytes, "
                         f"found {len(payload)}")
    spans = np.frombuffer(payload[:nspans * 32], dtype="<i8").reshape(-1, 4)
    try:
        return VoxelSet.from_spans(spans, h, ht)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
