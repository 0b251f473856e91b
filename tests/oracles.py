"""Reference implementations the tests compare the library's kernels
against, each computing the same result the slow, direct way, and the
instances and memory probe several test modules share."""

import math
import tracemalloc
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

from geomlab.acceptance import _maximal_plane_packing
from geomlab.heisenberg import (Plane, ReducedInstance, proj_x,
                                reduce_to_incidences)
from geomlab.incidence import (IncidenceReport, RichnessField, _clipped,
                               count_bucketed, normalized_ratio)
from geomlab.measure import (Box, DifferenceShape, DilatedShape, PlaneRegion,
                             Shape, ShearedShape, UnionShape, VoxelSet,
                             _check_same_grid, _gauge_inside, _grid_box, _pack,
                             project_voxels, voxelize)
from geomlab.planar import LineFamily, PointSet, Scale, _runs
from geomlab.rng import Stream
from geomlab.sobolev import GridFunction, LevelCheck, field_X, field_Y

# bounding-box centers _voxelize_dense tests at a time
_CHUNK = 4_000_000

T = TypeVar("T")


def traced_peak(fn: Callable[[], T]) -> Tuple[T, int]:
    """fn()'s result and the peak, in bytes, of the memory tracemalloc
    traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# reduce-pipeline's model box, voxelized at h = delta / 4
REDUCE_BOX = Box((0, 0, 0), (0.25, 0.25, 0.0625))


def reduced_box_instance(delta: float) -> ReducedInstance:
    """The planar instance reduce-pipeline counts at delta: the reduction of
    maximal delta-packings of the model box's two projections."""
    K = voxelize(REDUCE_BOX, h=delta / 4.0)
    return reduce_to_incidences(
        _maximal_plane_packing(project_voxels(K, "x"), delta, Plane.W_X),
        _maximal_plane_packing(project_voxels(K, "y"), delta, Plane.W_Y),
        Scale(delta))


def _grid_candidates(L: LineFamily, delta: float, radius: float) -> np.ndarray:
    """Grid points of the delta-lattice of the unit square lying within
    `radius` (plus one lattice step) of at least one line; returned in
    row-major (ix, iy) order as an (n, 2) coordinate array."""
    npts = int(math.floor(2.0 / delta)) + 1
    la, lb = L.params[:, 0], L.params[:, 1]
    xs = -1.0 + delta * np.arange(npts)
    marked = np.zeros(npts * npts, dtype=bool)
    chunk = max(1, int(2e6) // npts)
    for lo in range(0, len(L), chunk):
        a = la[lo:lo + chunk, None]
        b = lb[lo:lo + chunk, None]
        yc = a * xs[None, :] + b
        half = radius * np.sqrt(1.0 + a * a) + delta
        jlo = _clipped(np.ceil((yc - half + 1.0) / delta), 0, npts)
        jhi = _clipped(np.floor((yc + half + 1.0) / delta), -1, npts - 1)
        lens = np.maximum(jhi - jlo + 1, 0).ravel()
        jj = _runs(jlo.ravel(), lens)
        ii = np.repeat(np.tile(np.arange(npts, dtype=np.int64), a.shape[0]), lens)
        marked[ii * npts + jj] = True
    flat = np.nonzero(marked)[0]
    ii, jj = flat // npts, flat % npts
    return np.column_stack([xs[ii], xs[jj]])


def _grid_richness_reference(L: LineFamily, s: Scale) -> RichnessField:
    """The band points of _grid_candidates, richness and all, counted with
    count_bucketed: an oracle of grid_richness wherever it looks.  The band
    holds points of richness 0, and misses incident rows where adding the
    lattice step to a huge threshold rounds away."""
    used = s.multiplier + 1.0
    cand = (_grid_candidates(L, s.delta, used * s.delta) if len(L)
            else np.empty((0, 2)))
    if cand.shape[0] == 0:
        return RichnessField(cand, np.zeros(0, dtype=np.int64), used)
    rep = count_bucketed(PointSet(cand, s.delta), L,
                         Scale(s.delta, s.epsilon, used))
    return RichnessField(cand, rep.richness, used)


def _count_naive_one_pass(P: PointSet, L: LineFamily, s: Scale,
                          with_pairs: bool = False) -> IncidenceReport:
    """count_naive as it tested the pairs before its blocked kernel: all
    of them at once, up to 4M a chunk, with the same float operations.
    The reference of the blocked kernel, and the brute force the engine's
    speed bound was set against."""
    n, m = len(P), len(L)
    richness = np.zeros(n, dtype=np.int64)
    chunks = [np.empty((0, 2), dtype=np.int64)]
    if n and m:
        px, py = P.coords[:, 0], P.coords[:, 1]
        la, lb = L.params[:, 0], L.params[:, 1]
        thr = s.radius * np.sqrt(1.0 + la * la)
        chunk = max(1, int(4e6) // m)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            vert = np.abs(np.outer(px[lo:hi], la) + lb[None, :]
                          - py[lo:hi, None])
            mask = vert <= thr[None, :]
            richness[lo:hi] = mask.sum(axis=1)
            if with_pairs:
                hits = np.argwhere(mask).astype(np.int64, copy=False)
                hits[:, 0] += lo
                chunks.append(hits)
    pairs = np.concatenate(chunks) if with_pairs else None
    count = int(richness.sum())
    return IncidenceReport(count, richness,
                           normalized_ratio(count, n, m, s.delta), pairs)


def point_line_dist(x: float, y: float, a: float, b: float) -> float:
    """Euclidean distance from the point (x, y) to the line {Y = a X + b}:
    the vertical gap divided by sqrt(1 + a a), the other float form of the
    test planar.incident makes."""
    return abs(a * x + b - y) / math.sqrt(1.0 + a * a)


def _duality_check_loop(delta: float, pairs: int, stream: Stream,
                        target: Optional[int] = None) -> Tuple[int, int]:
    """duality_check's (checked, failures) as the pair-by-pair loop it
    replaced, testing each pair and its dual by point_line_dist."""
    checked = failures = 0
    while True:
        xs, ys, aa = (stream.uniform(pairs, -1.0, 1.0) for _ in range(3))
        off = stream.uniform(pairs, -delta, delta)
        for x, y, a, o in zip(xs.tolist(), ys.tolist(), aa.tolist(),
                              off.tolist()):
            b = y - a * x + o
            if abs(b) > 1.0 or point_line_dist(x, y, a, b) > delta:
                continue
            checked += 1
            # the point (a, b) against the line (-x, y)
            failures += point_line_dist(a, b, -x, y) > 2.0 * delta
            if checked == target:
                break
        if target is None or checked >= target:
            return checked, failures


def _greedy_separated_reference(coords: np.ndarray, delta: float) -> np.ndarray:
    """_greedy_separated as a per-row loop over a dict of cells: the oracle
    of the batched version."""
    kept: List[int] = []
    cells: dict = {}
    inv = 1.0 / delta
    for i in range(coords.shape[0]):
        x, y = coords[i]
        ci, cj = int(math.floor(x * inv)), int(math.floor(y * inv))
        ok = True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for j in cells.get((ci + di, cj + dj), ()):
                    if math.hypot(x - coords[j, 0], y - coords[j, 1]) < delta:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            cells.setdefault((ci, cj), []).append(i)
    return np.asarray(kept, dtype=np.int64)


def contains(shape: Shape, pts: np.ndarray) -> np.ndarray:
    """Whether shape holds each row (x, y, t) of pts: the leaf shapes' own
    contains, composed through unions, differences, shears and dilations
    with the float expressions of their pre-maps."""
    if isinstance(shape, UnionShape):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for sh in shape.shapes:
            mask |= contains(sh, pts)
        return mask
    if isinstance(shape, DifferenceShape):
        return contains(shape.plus, pts) & ~contains(shape.minus, pts)
    if isinstance(shape, ShearedShape):
        x, y, t = pts.T
        _, pre_t = proj_x((shape.sign * x, y, t))
        return contains(shape.shape, np.column_stack([x, y, pre_t]))
    if isinstance(shape, DilatedShape):
        lam = shape.lam
        pre = pts / np.array([lam, lam, lam * lam])[None, :]
        return contains(shape.shape, pre)
    return shape.contains(pts)


def _voxelize_dense(shape: Shape, h: float,
                    ht: Optional[float] = None) -> VoxelSet:
    """voxelize by testing every center of the bounding box, _CHUNK at a
    time: the oracle of the column path."""
    ht = h if ht is None else ht
    box = _grid_box(shape, h, ht)
    if box is None:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    i0, i1, j0, j1, k0, k1 = box
    xs = (np.arange(i0, i1) + 0.5) * h
    ys = (np.arange(j0, j1) + 0.5) * h
    slab = max(1, _CHUNK // max(1, xs.size * ys.size))
    chunks = []
    for ka in range(k0, k1, slab):
        kb = min(k1, ka + slab)
        ts = (np.arange(ka, kb) + 0.5) * ht
        gx, gy, gt = np.meshgrid(xs, ys, ts, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])
        mask = contains(shape, pts)
        if mask.any():
            ii, jj, kk = np.unravel_index(np.nonzero(mask)[0],
                                          (xs.size, ys.size, kb - ka))
            chunks.append(np.column_stack([ii + i0, jj + j0, kk + ka]))
    if not chunks:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    return VoxelSet(np.vstack(chunks), h, ht)


_MASK64 = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _rank_keys_reference(seed: int, n: int, k: int) -> np.ndarray:
    """rank_keys one index at a time in Python ints, from the formulas of
    its docstring and of the rng module's: the oracle of the vectorized
    Feistel rounds and cycle walk."""
    h = max(1, ((n - 1).bit_length() + 1) // 2)
    mask = (1 << h) - 1
    keys = [_mix64_int((seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64)
            for i in range(4)]

    def pi(x):
        left, right = x >> h, x & mask
        for key in keys:
            left, right = right, left ^ (_mix64_int(right ^ key) & mask)
        return (left << h) | right

    out = []
    for x in range(min(k, n)):
        y = pi(x)
        while y >= n:
            y = pi(y)
        out.append(y)
    return np.array(out, dtype=np.int64)


def _merged_reference(lo: np.ndarray,
                      end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """measure._merged by sorting the runs by lo and starting a new run
    where lo passes the running max of end: the oracle of the kernel that
    sorts the starts and the ends apart."""
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    reach = np.maximum.accumulate(end[order])
    gap = np.flatnonzero(lo[1:] > reach[:-1])
    return (np.concatenate([lo[:1], lo[gap + 1]]),
            np.concatenate([reach[gap], reach[-1:]]))


_NEIGHBORS6 = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                        [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.int64)


def _boundary_reference(E: VoxelSet) -> VoxelSet:
    """boundary by looking up all six neighbors of every voxel: the oracle
    of the span kernel."""
    if len(E) == 0:
        return E
    keys = _pack(E.occupied)
    on_boundary = np.zeros(len(E), dtype=bool)
    for shift in _NEIGHBORS6:
        nb = _pack(E.occupied + shift[None, :])
        pos = np.searchsorted(keys, nb)
        present = pos < keys.size
        present[present] &= keys[pos[present]] == nb[present]
        on_boundary |= ~present
    return VoxelSet(E.occupied[on_boundary], E.h, E.ht)


def dilated(region: PlaneRegion, steps: int = 1) -> PlaneRegion:
    """The region grown by steps cells in u and t, every grown cell listed:
    with covers, the oracle of measure._dilated_covers."""
    if steps < 0:
        raise ValueError("dilation steps must be >= 0")
    if len(region) == 0 or steps == 0:
        return region
    offs = np.arange(-steps, steps + 1)
    di, dj = np.meshgrid(offs, offs, indexing="ij")
    shifts = np.column_stack([di.ravel(), dj.ravel()])
    grown = (region.occupied[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    return PlaneRegion(region.plane, grown, region.h, region.ht)


def covers(region: PlaneRegion, other: PlaneRegion) -> bool:
    """Whether every cell of other is a cell of region, one packed key at a
    time."""
    _check_same_grid(region, other)
    if len(other) == 0:
        return True
    mine = _pack(region.occupied)
    theirs = _pack(other.occupied)
    pos = np.searchsorted(mine, theirs)
    ok = pos < mine.size
    ok[ok] &= mine[pos[ok]] == theirs[ok]
    return bool(np.all(ok))


def _h3_surrogate_reference(B: VoxelSet) -> float:
    """h3_surrogate testing every center against each new ball: the oracle
    of the batched version."""
    if len(B) == 0:
        return 0.0
    rho = 2.0 * math.sqrt(B.ht)
    centers = B.centers()
    covered = np.zeros(len(B), dtype=bool)
    n_balls = 0
    for i in range(len(B)):
        if covered[i]:
            continue
        n_balls += 1
        covered |= _gauge_inside(*centers[i], *centers.T, rho)
    return n_balls * rho ** 3


def _level_mask(absvals: np.ndarray, k: int) -> np.ndarray:
    return (absvals >= 2.0 ** (k - 1)) & (absvals <= 2.0 ** k)


def _levelset_lemma_check_reference(f: GridFunction, k: int,
                                    which: str = "x", slack: float = 1.25,
                                    oversample: int = 2) -> LevelCheck:
    """levelset_lemma_check from whole-grid level masks and fields
    recomputed on each call: the oracle of LevelDecomposition."""
    a = np.abs(f.values)
    mask_k = _level_mask(a, k)
    if not mask_k.any():
        raise ValueError(f"level {k} is empty")
    origin = np.asarray(f.origin, dtype=np.int64)
    fk = VoxelSet(np.argwhere(mask_k) + origin[None, :], f.h)
    lhs = project_voxels(fk, which, oversample).area()
    grad = field_Y(f) if which == "x" else field_X(f)
    mask_km1 = _level_mask(a, k - 1)
    rhs = 2.0 ** (-k + 2) * float(np.abs(grad.values[mask_km1]).sum()) * f.h ** 3
    return LevelCheck(k, lhs, rhs, bool(lhs <= slack * rhs))


def _sample_rows_reference(fn: Callable[[np.ndarray], np.ndarray], h: float,
                           half_extents, margin: int = 3) -> GridFunction:
    """sample_to_grid with fn mapping an (n, 3) array of points to their n
    values, called on a meshgrid of point rows per x-slab: the oracle of
    the sampler that calls fn on broadcast axes."""
    ns = [int(math.ceil(e / h)) + margin for e in half_extents]
    origin = tuple(-n for n in ns)
    shape = tuple(2 * n for n in ns)
    xs = (np.arange(shape[0]) + origin[0] + 0.5) * h
    ys = (np.arange(shape[1]) + origin[1] + 0.5) * h
    ts = (np.arange(shape[2]) + origin[2] + 0.5) * h
    gy, gt = np.meshgrid(ys, ts, indexing="ij")
    yt = np.column_stack([gy.ravel(), gt.ravel()])
    pts = np.empty((yt.shape[0], 3))
    vals = np.empty(shape)
    for a, x in enumerate(xs):
        pts[:, 0] = x
        pts[:, 1:] = yt
        vals[a] = np.asarray(fn(pts), dtype=np.float64).reshape(shape[1:])
    return GridFunction(vals, h, origin)


# The zoo functions in their row form, each mapping (n, 3) points to n
# values: the oracles of sobolev's functions of broadcast axes.

def _bump_rows(widths=(0.75, 0.75, 0.5), center=(0.0, 0.0, 0.0),
               amplitude=1.0):
    w = np.asarray(widths, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)

    def fn(pts: np.ndarray) -> np.ndarray:
        q = (pts - c[None, :]) / w[None, :]
        r2 = (q * q).sum(axis=1)
        return amplitude * np.clip(1.0 - r2, 0.0, None) ** 2

    return fn


def _sheared_rows(fn):
    def out(pts: np.ndarray) -> np.ndarray:
        q = pts.copy()
        q[:, 2] = proj_x(pts.T)[1]
        return fn(q)

    return out


def _dilated_rows(fn, lam: float):
    def out(pts: np.ndarray) -> np.ndarray:
        q = pts / np.array([lam, lam, lam * lam])[None, :]
        return fn(q)

    return out


def _smoothed_box_rows(half=(0.5, 0.5, 0.25), edge: float = 0.25):
    a = np.asarray(half, dtype=np.float64)

    def fn(pts: np.ndarray) -> np.ndarray:
        m = np.max(np.abs(pts) / a[None, :], axis=1)
        u = np.clip((m - 1.0) / edge, 0.0, 1.0)
        return (1.0 - u * u) ** 2

    return fn


def _function_zoo_reference(h: float) -> dict:
    """The function zoo in row form, sampled all at once by the row sampler,
    as a name -> GridFunction dict: the oracle of FUNCTION_ZOO and of
    sample_to_grid."""
    specs = {
        "bump": (_bump_rows((0.75, 0.75, 0.5)), (0.8, 0.8, 0.55)),
        "narrow_bump": (_bump_rows((0.4, 0.4, 0.3)), (0.45, 0.45, 0.35)),
        "aniso_bump": (_bump_rows((0.8, 0.45, 0.35)), (0.85, 0.5, 0.4)),
        "sheared_bump": (_sheared_rows(_bump_rows((0.6, 0.6, 0.35))),
                         (0.65, 0.65, 0.6)),
        "smoothed_box": (_smoothed_box_rows((0.5, 0.5, 0.25), 0.25),
                         (0.7, 0.7, 0.4)),
    }
    return {name: _sample_rows_reference(fn, h, ext)
            for name, (fn, ext) in specs.items()}
