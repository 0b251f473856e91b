"""Discrete horizontal calculus on compactly supported grid functions.

The horizontal frame consists of the two vector fields

    X = d/dx - (y/2) d/dt,      Y = d/dy + (x/2) d/dt,

discretized with second-order central differences; the polynomial
coefficients y/2 and x/2 are evaluated exactly at cell centers, so the
stencils are exact on functions affine in each variable.  Dyadic level
sets, the levelwise projection bound, and the scale-invariant ratio
||f||_{4/3} / sqrt(||Xf||_1 ||Yf||_1) are all built from these pieces.

For functions of bounded variation the l1 norm of the difference
quotient stands in for the total variation of the derivative measure:
exact for C^1 samples, approximate near jumps, which is why rough data
enters only through mollified indicators.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .heisenberg import proj_x
from .measure import VoxelSet, project_voxels
from .planar import GridTooLarge


class GridFunction:
    """Scalar samples at the centers of an integer box of voxels of side h.

    values[i, j, k] is the sample at ((o0+i+.5) h, (o1+j+.5) h, (o2+k+.5) h)
    where origin = (o0, o1, o2).  The outermost layer of the box must be
    identically zero (compact support), so one-sided stencil rows vanish.

    A GridFunction is immutable: values is made read-only (pass a copy to
    keep a writable array), so the level decomposition cached on first use
    stays valid.
    """

    def __init__(self, values: np.ndarray, h: float,
                 origin: Tuple[int, int, int] = (0, 0, 0)):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError("values must be a 3d array")
        values.setflags(write=False)
        self.values = values
        self.h = float(h)
        self.origin = tuple(int(o) for o in origin)
        if not self._margin_zero(1):
            raise ValueError("boundary layer of the box must be zero")

    def _margin_zero(self, width: int) -> bool:
        v = self.values
        w = width
        if min(v.shape) <= 2 * w:
            return not np.any(v)
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(0, w)
            hi[axis] = slice(-w, None)
            if np.any(v[tuple(lo)]) or np.any(v[tuple(hi)]):
                return False
        return True

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return (self.origin[axis] + np.arange(n) + 0.5) * self.h

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(values, self.h, self.origin)

    @cached_property
    def decomposition(self) -> "LevelDecomposition":
        """The dyadic levels of f and their gradient masses, built once."""
        return LevelDecomposition(self)


# Most samples on one grid: 128 MiB of float64, 2.5 times the largest grid
# that verify-all samples (6.65M, the bump at h = 1/128), and the fields
# and level sets of a grid take several times its size again
SAMPLE_CAP = 2 ** 24


def sample_to_grid(fn: Callable[..., np.ndarray], h: float,
                   half_extents: Sequence[float], margin: int = 3) -> GridFunction:
    """Sample an analytic function with support inside the centered box of
    the given half extents onto a grid with `margin` guaranteed zero cells.

    fn(x, y, t) takes coordinate arrays that broadcast together and returns
    the values in their broadcast shape; it is called once per x-slab of the
    grid, with x a float, y a column and t a row; a caller holding (n, 3)
    point rows calls fn(*pts.T).  A grid of more than SAMPLE_CAP samples
    raises GridTooLarge before anything is allocated."""
    # min keeps inf and nan from math.ceil; a clamped axis is over the cap
    ns = [math.ceil(min(SAMPLE_CAP, e / h)) + margin for e in half_extents]
    if 8 * math.prod(ns) > SAMPLE_CAP:
        raise GridTooLarge(f"the grid at h={h:g} would hold more than "
                           f"{SAMPLE_CAP} samples")
    xs, ys, ts = ((np.arange(-n, n) + 0.5) * h for n in ns)
    vals = np.empty((xs.size, ys.size, ts.size))
    for a, x in enumerate(xs):
        vals[a] = fn(x, ys[:, None], ts)
    return GridFunction(vals, h, tuple(-n for n in ns))


def _central_diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(v[i+1] - v[i-1]) / (2h) along axis, zero on the two end layers;
    computed in the output array, with no temporary of v's size."""
    out = np.zeros_like(v)
    sl_mid = [slice(None)] * v.ndim
    sl_hi = [slice(None)] * v.ndim
    sl_lo = [slice(None)] * v.ndim
    sl_mid[axis] = slice(1, -1)
    sl_hi[axis] = slice(2, None)
    sl_lo[axis] = slice(None, -2)
    mid = out[tuple(sl_mid)]
    np.subtract(v[tuple(sl_hi)], v[tuple(sl_lo)], out=mid)
    mid /= 2.0 * h
    return out


_BOUNDARY_SUPPORT = "support touches the box boundary; enlarge the box"


def _field(f: GridFunction, axis: int) -> np.ndarray:
    """Xf (axis 0) or Yf (axis 1), built in one fresh writable array: the
    t-derivative term is made and added one x-slab at a time, with the
    float operations a whole-grid df/dt would take on each sample."""
    if not f._margin_zero(2):
        raise ValueError(_BOUNDARY_SUPPORT)
    out = _central_diff(f.values, axis, f.h)
    # -y/2 for Xf: adding the negated product subtracts it, bit for bit
    half = f.axis_centers(1 - axis) / 2.0
    for a, slab in enumerate(f.values):
        dt = _central_diff(slab, 1, f.h)
        dt *= -half[:, None] if axis == 0 else half[a]
        out[a] += dt
    return out


def field_X(f: GridFunction) -> GridFunction:
    """Xf = df/dx - (y/2) df/dt with central differences."""
    return f.copy_with(_field(f, 0))


def field_Y(f: GridFunction) -> GridFunction:
    """Yf = df/dy + (x/2) df/dt with central differences."""
    return f.copy_with(_field(f, 1))


def lp_norm(f: GridFunction, p: float) -> float:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    cell = f.h ** 3
    a = np.abs(f.values)
    a **= p  # numpy's scalar-power path, as a ** p takes it
    return float(a.sum() * cell) ** (1.0 / p)


@dataclass(frozen=True)
class GnsResult:
    lhs: float   # ||f||_{4/3}
    rhs: float   # sqrt(||Xf||_1 ||Yf||_1)
    ratio: float


def gns_check(f: GridFunction) -> GnsResult:
    lhs = lp_norm(f, 4.0 / 3.0)
    if lhs == 0.0:
        return GnsResult(0.0, 0.0, 0.0)
    x_norm, y_norm = f.decomposition.field_norms()
    rhs = math.sqrt(x_norm * y_norm)
    return GnsResult(lhs, rhs, lhs / rhs if rhs else math.inf)


# ---------------------------------------------------------------------------
# Dyadic level sets

_LEVEL_CHUNK = 1 << 16  # samples labelled at a time


def _level_indices(values: np.ndarray) -> Dict[int, np.ndarray]:
    """The C-order flat indices of the samples of each nonempty level,
    keyed by level in increasing order, as int32 when the grid has fewer
    than 2**31 samples (half the memory of int64).  The samples are
    labelled one chunk at a time, so the set-up holds little beyond the
    indices it returns."""
    v = values.reshape(-1)
    dtype = np.int32 if v.size < 2 ** 31 else np.int64
    pieces: Dict[int, List[np.ndarray]] = defaultdict(list)
    for lo in range(0, v.size, _LEVEL_CHUNK):
        part = v[lo:lo + _LEVEL_CHUNK]
        pos = np.flatnonzero(part)
        vals = np.abs(part[pos])
        if not np.isfinite(vals).all():
            raise ValueError("grid function samples must be finite")
        pos = pos.astype(dtype)
        pos += lo
        mant, exp = np.frexp(vals)
        exp = exp.astype(np.int16)  # |exponent| <= 1074; sorts by radix
        order = np.argsort(exp, kind="stable")
        ks, starts = np.unique(exp[order], return_index=True)
        members = dict(zip(ks.tolist(), np.split(order, starts[1:])))
        twins = np.flatnonzero(mant == 0.5)
        for e in np.unique(exp[twins]).tolist():
            extra = twins[exp[twins] == e]
            own = members.get(e - 1)
            members[e - 1] = (extra if own is None
                              else np.sort(np.concatenate([own, extra])))
        for k, m in members.items():
            pieces[k].append(pos[m])
    return {k: np.concatenate(pieces.pop(k)) for k in sorted(pieces)}


class LevelDecomposition:
    """The nonempty dyadic levels F_k = {2^{k-1} <= |f| <= 2^k} of a grid
    function, with the gradient masses that the Sobolev checks read.

    np.frexp gives each nonzero sample the level e with
    2^{e-1} <= |f| < 2^e; a value exactly 2^{e-1} also belongs to
    F_{e-1}, so a value exactly 2^k lies in both F_k and F_{k+1}.  Each level
    keeps the flat indices of its samples in C order.  Xf and Yf are built
    once each, one after the other, and each is reduced, after taking its
    absolute value in place, to its l1 norm and, per level, to the sum of
    |Xf| or |Yf| over the level's samples.  The samples are gathered in C
    order, as a boolean mask gathers them, so each sum is the masked sum
    bit for bit.  No full-grid array is kept."""

    def __init__(self, f: GridFunction):
        self.h = f.h
        self.origin = f.origin
        _, self._ny, self._nz = f.values.shape
        self._flat = _level_indices(f.values)
        self.levels: Tuple[int, ...] = tuple(self._flat)
        # ||Xf||_1 and ||Yf||_1, and per level the sum of |Yf| (read by the
        # proj_x check, which='x') and of |Xf| (which='y').  The fields exist
        # only for support inside the two-cell margin; a level set lookup
        # must not fail where field_X would.  At most one field grid exists
        # at a time.
        self._norms = None
        self._mass: Dict[str, Dict[int, float]] = {}
        if f._margin_zero(2):
            x_norm, self._mass["y"] = self._reduce(_field(f, 0))
            y_norm, self._mass["x"] = self._reduce(_field(f, 1))
            self._norms = (x_norm, y_norm)

    def _reduce(self, a: np.ndarray) -> Tuple[float, Dict[int, float]]:
        """lp_norm(g, 1.0) and the per-level sums of |g|; a = g becomes |g|."""
        np.abs(a, out=a)
        v = a.ravel()
        return float(a.sum() * self.h ** 3), {
            k: float(v[idx].sum()) for k, idx in self._flat.items()}

    def _require_fields(self) -> None:
        if self._norms is None:
            raise ValueError(_BOUNDARY_SUPPORT)

    def voxels(self, k: int) -> VoxelSet:
        """F_k as a voxel set.  The level's flat indices increase, so a run
        of consecutive indices within one (i, j) column is one k-span."""
        idx = self._flat.get(k)
        if idx is None:
            raise ValueError(f"level {k} is empty")
        col, kk = np.divmod(idx, self._nz)
        first = np.ones(idx.size, dtype=bool)
        first[1:] = (idx[1:] != idx[:-1] + 1) | (kk[1:] == 0)
        starts = np.flatnonzero(first)
        # the spans are int64 whatever the dtype of the indices
        i, j = np.divmod(col[starts].astype(np.int64), self._ny)
        o0, o1, o2 = self.origin
        return VoxelSet._of(
            np.column_stack([i + o0, j + o1,
                             kk[starts].astype(np.int64) + o2,
                             np.diff(starts, append=idx.size)]), self.h)

    def field_norms(self) -> Tuple[float, float]:
        """(||Xf||_1, ||Yf||_1)."""
        self._require_fields()
        return self._norms

    def gradient_mass(self, k: int, which: str) -> float:
        """The sum of |Yf| (which='x') or of |Xf| (which='y') over the
        samples of F_k; 0.0 for an empty level."""
        self._require_fields()
        return self._mass["x" if which == "x" else "y"].get(k, 0.0)


def level_range(f: GridFunction) -> range:
    """The levels from the lowest to the highest nonempty one."""
    ks = f.decomposition.levels
    return range(ks[0], ks[-1] + 1) if ks else range(0)


@dataclass(frozen=True)
class LevelCheck:
    k: int
    lhs: float
    rhs: float
    holds: bool


def levelset_lemma_check(f: GridFunction, k: int, which: str = "x",
                         slack: float = 1.25,
                         oversample: int = 2) -> LevelCheck:
    """Check |proj_x(F_k)| <= slack * 2^{-k+2} * sum_{F_{k-1}} |Yf| h^3
    (or the proj_y / |Xf| twin for which='y'), from f's decomposition."""
    d = f.decomposition
    lhs = project_voxels(d.voxels(k), which, oversample).area()
    rhs = 2.0 ** (-k + 2) * d.gradient_mass(k - 1, which) * f.h ** 3
    return LevelCheck(k, lhs, rhs, bool(lhs <= slack * rhs))


# ---------------------------------------------------------------------------
# Test-function zoo: closed-form C^1 bumps with exact compact support.

def bump(widths=(0.75, 0.75, 0.5), center=(0.0, 0.0, 0.0), amplitude=1.0):
    """(1 - R^2)_+^2 with R^2 the anisotropically scaled radius."""
    (wx, wy, wt), (cx, cy, ct) = widths, center

    def fn(x, y, t):
        # a scaled radius past the float range (a subnormal width) lies
        # outside the support: its overflow to inf gives 0, as it should
        with np.errstate(over="ignore"):
            qx, qy, qt = (x - cx) / wx, (y - cy) / wy, (t - ct) / wt
            r2 = qx * qx + qy * qy + qt * qt
        return amplitude * np.clip(1.0 - r2, 0.0, None) ** 2

    return fn


def sized_bump(width: float):
    """The bump of half widths (width, width, 2 width / 3), and the half
    extents of its sampling box, 0.05 past its support on each axis."""
    widths = (width, width, 2 * width / 3)
    return bump(widths), tuple(w + 0.05 for w in widths)


def sheared_fn(fn):
    """The image of fn under the shear (x, y, t) -> (x, y, t + x y / 2):
    fn composed with the inverse shear, whose t is that of proj_x."""
    return lambda x, y, t: fn(x, y, proj_x((x, y, t))[1])


def dilated_fn(fn, lam: float):
    """fn composed with the inverse dilation (so supports dilate by lam)."""
    return lambda x, y, t: fn(x / lam, y / lam, t / (lam * lam))


def smoothed_box(half=(0.5, 0.5, 0.25), edge: float = 0.25):
    """Mollified box indicator (1 - m^2)_+^2 built on the scaled sup norm,
    so the profile vanishes quadratically on the whole boundary (a product
    of edge ramps would vanish to higher order at corners, leaving dyadic
    tail bands unresolvable on any fixed grid)."""
    ax, ay, at = half

    def fn(x, y, t):
        m = np.maximum(np.maximum(np.abs(x) / ax, np.abs(y) / ay),
                       np.abs(t) / at)
        u = np.clip((m - 1.0) / edge, 0.0, 1.0)  # 0 inside, 1 outside the ramp
        return (1.0 - u * u) ** 2

    return fn


# The named functions of the sweep experiments and tests, each with the
# half extents of the box it is sampled on.  A grid is sampled only when
# zoo_function asks for one, so a caller going through the zoo holds one
# grid at a time.
FUNCTION_ZOO: Dict[str, Tuple[Callable[..., np.ndarray],
                              Tuple[float, float, float]]] = {
    "bump": sized_bump(0.75),
    "narrow_bump": (bump((0.4, 0.4, 0.3)), (0.45, 0.45, 0.35)),
    "aniso_bump": (bump((0.8, 0.45, 0.35)), (0.85, 0.5, 0.4)),
    "sheared_bump": (sheared_fn(bump((0.6, 0.6, 0.35))), (0.65, 0.65, 0.6)),
    "smoothed_box": (smoothed_box((0.5, 0.5, 0.25), 0.25), (0.7, 0.7, 0.4)),
}


def zoo_function(name: str, h: float) -> GridFunction:
    """The zoo function `name` sampled at grid step h."""
    fn, extents = FUNCTION_ZOO[name]
    return sample_to_grid(fn, h, extents)
