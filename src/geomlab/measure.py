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
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .heisenberg import Plane, VerticalPlanePoint, _line_through

_PACK_OFF = np.int64(1) << np.int64(20)
_PACK_MUL = np.int64(1) << np.int64(21)


def _pack2(ij: np.ndarray) -> np.ndarray:
    return (ij[:, 0] + _PACK_OFF) * _PACK_MUL + (ij[:, 1] + _PACK_OFF)


def _pack3(ijk: np.ndarray) -> np.ndarray:
    return ((ijk[:, 0] + _PACK_OFF) * _PACK_MUL
            + (ijk[:, 1] + _PACK_OFF)) * _PACK_MUL + (ijk[:, 2] + _PACK_OFF)


def _canonical(idx: np.ndarray, width: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, width)
    if idx.shape[0] == 0:
        return idx
    key = _pack3(idx) if width == 3 else _pack2(idx)
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    return idx[order][keep]


class VoxelSet:
    """Occupancy set of voxels [i h, (i+1) h) x [j h, (j+1) h) x [k ht, (k+1) ht)."""

    def __init__(self, occupied, h: float, ht: Optional[float] = None):
        self.h = float(h)
        self.ht = self.h if ht is None else float(ht)
        self.occupied = _canonical(np.asarray(occupied, dtype=np.int64), 3)
        self.occupied.setflags(write=False)

    def __len__(self) -> int:
        return self.occupied.shape[0]

    def volume(self) -> float:
        return len(self) * self.h * self.h * self.ht

    def centers(self) -> np.ndarray:
        scale = np.array([self.h, self.h, self.ht])
        return (self.occupied + 0.5) * scale[None, :]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            z = np.zeros(3, dtype=np.int64)
            return z, z
        return self.occupied.min(axis=0), self.occupied.max(axis=0) + 1

    def _check_grid(self, other: "VoxelSet") -> None:
        if self.h != other.h or self.ht != other.ht:
            raise ValueError("voxel sets live on different grids")

    def union(self, other: "VoxelSet") -> "VoxelSet":
        self._check_grid(other)
        return VoxelSet(np.vstack([self.occupied, other.occupied]), self.h, self.ht)

    def intersection(self, other: "VoxelSet") -> "VoxelSet":
        self._check_grid(other)
        keys = np.intersect1d(_pack3(self.occupied), _pack3(other.occupied))
        return VoxelSet(_unpack3(keys), self.h, self.ht)

    def difference(self, other: "VoxelSet") -> "VoxelSet":
        self._check_grid(other)
        keys = np.setdiff1d(_pack3(self.occupied), _pack3(other.occupied))
        return VoxelSet(_unpack3(keys), self.h, self.ht)

    def subset_of(self, other: "VoxelSet") -> bool:
        self._check_grid(other)
        mine = _pack3(self.occupied)
        theirs = _pack3(other.occupied)
        pos = np.searchsorted(theirs, mine)
        ok = pos < theirs.size
        ok[ok] &= theirs[pos[ok]] == mine[ok]
        return bool(np.all(ok))


def _unpack3(keys: np.ndarray) -> np.ndarray:
    k = keys % _PACK_MUL - _PACK_OFF
    rest = keys // _PACK_MUL
    j = rest % _PACK_MUL - _PACK_OFF
    i = rest // _PACK_MUL - _PACK_OFF
    return np.column_stack([i, j, k])


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


# ---------------------------------------------------------------------------
# Shapes (predicates with bounding boxes) for the center-rule voxelizer.

class Shape:
    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
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


class DifferenceShape(Shape):
    def __init__(self, plus: Shape, minus: Shape):
        self.plus, self.minus = plus, minus

    def contains(self, pts):
        return self.plus.contains(pts) & ~self.minus.contains(pts)

    def bounds(self):
        return self.plus.bounds()


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


class TubeIntersection(Shape):
    """Points within `radius` of both horizontal lines, inside the cube."""

    def __init__(self, w_x: VerticalPlanePoint, w_y: VerticalPlanePoint,
                 radius: float, box_lo: np.ndarray, box_hi: np.ndarray):
        self.w_x, self.w_y, self.radius = w_x, w_y, radius
        self._lo, self._hi = box_lo, box_hi

    def contains(self, pts):
        from .heisenberg import dist_to_horizontal_line
        ok = np.all(np.abs(pts) <= 1.0, axis=1)
        ok &= dist_to_horizontal_line(pts, self.w_x) <= self.radius
        ok &= dist_to_horizontal_line(pts, self.w_y) <= self.radius
        return ok

    def bounds(self):
        return self._lo, self._hi


def voxelize(shape: Shape, h: float, ht: Optional[float] = None,
             max_chunk: int = 4_000_000) -> VoxelSet:
    """Center-rule voxelization over the shape's bounding box."""
    if h <= 0:
        raise ValueError("h must be positive")
    ht = h if ht is None else ht
    lo, hi = shape.bounds()
    if np.any(hi <= lo):
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    i0 = int(math.floor(lo[0] / h)) - 1
    i1 = int(math.ceil(hi[0] / h)) + 1
    j0 = int(math.floor(lo[1] / h)) - 1
    j1 = int(math.ceil(hi[1] / h)) + 1
    k0 = int(math.floor(lo[2] / ht)) - 1
    k1 = int(math.ceil(hi[2] / ht)) + 1
    xs = (np.arange(i0, i1) + 0.5) * h
    ys = (np.arange(j0, j1) + 0.5) * h
    slab = max(1, max_chunk // max(1, xs.size * ys.size))
    chunks = []
    for ka in range(k0, k1, slab):
        kb = min(k1, ka + slab)
        ts = (np.arange(ka, kb) + 0.5) * ht
        gx, gy, gt = np.meshgrid(xs, ys, ts, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])
        mask = shape.contains(pts)
        if mask.any():
            ii, jj, kk = np.unravel_index(np.nonzero(mask)[0],
                                          (xs.size, ys.size, kb - ka))
            chunks.append(np.column_stack([ii + i0, jj + j0, kk + ka]))
    if not chunks:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    return VoxelSet(np.vstack(chunks), h, ht)


# ---------------------------------------------------------------------------
# Plane regions and vertical projections

class PlaneRegion:
    """Occupancy set of cells [i h, (i+1) h) x [k ht, (k+1) ht) of a
    vertical plane, coordinates (u, t)."""

    def __init__(self, plane: Plane, occupied, h: float, ht: Optional[float] = None):
        self.plane = plane
        self.h = float(h)
        self.ht = self.h if ht is None else float(ht)
        self.occupied = _canonical(np.asarray(occupied, dtype=np.int64), 2)
        self.occupied.setflags(write=False)

    def __len__(self) -> int:
        return self.occupied.shape[0]

    def area(self) -> float:
        return len(self) * self.h * self.ht

    def centers(self) -> np.ndarray:
        return (self.occupied + 0.5) * np.array([self.h, self.ht])[None, :]

    def dilated(self, steps: int = 1) -> "PlaneRegion":
        if len(self) == 0 or steps == 0:
            return self
        offs = np.arange(-steps, steps + 1)
        di, dj = np.meshgrid(offs, offs, indexing="ij")
        shifts = np.column_stack([di.ravel(), dj.ravel()])
        grown = (self.occupied[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
        return PlaneRegion(self.plane, grown, self.h, self.ht)

    def covers(self, other: "PlaneRegion") -> bool:
        if len(other) == 0:
            return True
        mine = _pack2(self.occupied)
        theirs = _pack2(other.occupied)
        pos = np.searchsorted(mine, theirs)
        ok = pos < mine.size
        ok[ok] &= mine[pos[ok]] == theirs[ok]
        return bool(np.all(ok))


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
    and expanded, giving the same cells as binning every sample."""
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    plane = Plane.W_X if which == "x" else Plane.W_Y
    spans = _rle_spans(K.occupied)
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
    iu = np.broadcast_to(iu, c.shape).ravel()
    lo = np.floor(lo / K.ht).astype(np.int64).ravel()
    hi = np.floor(hi / K.ht).astype(np.int64).ravel()
    # in packed (u, t) keys a run is [key_lo, key_hi] and the keys of a
    # larger u exceed all keys of a smaller one, so sorting by key_lo and a
    # running max of key_hi merge the overlapping runs of each column
    key_lo = _pack2(np.column_stack([iu, lo]))
    order = np.argsort(key_lo, kind="stable")
    key_lo = key_lo[order]
    reach = np.maximum.accumulate(_pack2(np.column_stack([iu, hi]))[order])
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

_NEIGHBORS6 = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                        [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.int64)


def boundary(E: VoxelSet) -> VoxelSet:
    """Occupied voxels with at least one of the six face neighbors missing."""
    if len(E) == 0:
        return E
    keys = _pack3(E.occupied)
    on_boundary = np.zeros(len(E), dtype=bool)
    for shift in _NEIGHBORS6:
        nb = _pack3(E.occupied + shift[None, :])
        pos = np.searchsorted(keys, nb)
        present = pos < keys.size
        present[present] &= keys[pos[present]] == nb[present]
        on_boundary |= ~present
    return VoxelSet(E.occupied[on_boundary], E.h, E.ht)


def h3_surrogate(B: VoxelSet) -> float:
    """Greedy covering of the voxel centers by gauge balls, reported as
    (number of balls) * radius^3 -- a box-counting surrogate for the
    3-dimensional spherical measure of a surface.

    The ball radius is 2 sqrt(ht): the smallest gauge radius whose ball is
    as thick as one grid layer in t (gauge balls have height ~ radius^2 / 4),
    so that balls genuinely aggregate grid centers and the value is stable
    under grid refinement.  Under matched anisotropic dilation grids the
    radius scales linearly and the surrogate scales exactly by lam^3.
    """
    if len(B) == 0:
        return 0.0
    rho = 2.0 * math.sqrt(B.ht)
    centers = B.centers()
    tree = cKDTree(centers)
    # Euclidean superset of any gauge ball in the set: the twist term
    # shifts the t-window by up to |c| rho / sqrt(2) at distance rho
    cmax = float(np.abs(centers[:, :2]).sum(axis=1).max())
    t_reach = rho * rho / 4.0 + 0.5 * cmax * rho
    euclid = math.sqrt(rho * rho + t_reach * t_reach)
    covered = np.zeros(len(B), dtype=bool)
    n_balls = 0
    for i in range(len(B)):
        if covered[i]:
            continue
        n_balls += 1
        cand = np.asarray(tree.query_ball_point(centers[i], euclid), dtype=np.int64)
        pts = centers[cand]
        dx = pts[:, 0] - centers[i, 0]
        dy = pts[:, 1] - centers[i, 1]
        dt = (pts[:, 2] - centers[i, 2]
              + 0.5 * (centers[i, 1] * dx - centers[i, 0] * dy))
        inside = (dx * dx + dy * dy) ** 2 + 16.0 * dt * dt <= rho ** 4
        covered[cand[inside]] = True
    return n_balls * rho ** 3


def boundary_projection_inclusion(E: VoxelSet, oversample: int = 2) -> bool:
    """Check, at cell resolution, that each projection of E is covered by
    the one-cell-inflated projection of its boundary (both planes)."""
    dE = boundary(E)
    for which in ("x", "y"):
        proj_e = project_voxels(E, which, oversample)
        proj_b = project_voxels(dE, which, oversample).dilated(1)
        if not proj_b.covers(proj_e):
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
    spans = _rle_spans(K.occupied)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<dd", K.h, K.ht))
        fh.write(struct.pack("<Q", spans.shape[0]))
        fh.write(spans.astype("<i8").tobytes())


def load_voxelset(path) -> VoxelSet:
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
    i, j, k0, klen = spans.astype(np.int64).T
    if np.any(klen <= 0):
        raise ValueError(f"{path}: span length must be positive")
    occ = np.column_stack([np.repeat(i, klen), np.repeat(j, klen),
                           _expand_runs(k0, k0 + klen - 1)])
    return VoxelSet(occ, h, ht)


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
