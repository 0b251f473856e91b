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

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .measure import VoxelSet, project_voxels


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


def sample_to_grid(fn: Callable[[np.ndarray], np.ndarray], h: float,
                   half_extents: Sequence[float], margin: int = 3) -> GridFunction:
    """Sample an analytic function with support inside the centered box of
    the given half extents onto a grid with `margin` guaranteed zero cells."""
    ns = [int(math.ceil(e / h)) + margin for e in half_extents]
    origin = tuple(-n for n in ns)
    shape = tuple(2 * n for n in ns)
    xs = (np.arange(shape[0]) + origin[0] + 0.5) * h
    ys = (np.arange(shape[1]) + origin[1] + 0.5) * h
    ts = (np.arange(shape[2]) + origin[2] + 0.5) * h
    gx, gy, gt = np.meshgrid(xs, ys, ts, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])
    vals = np.asarray(fn(pts), dtype=np.float64).reshape(shape)
    return GridFunction(vals, h, origin)


def _central_diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(v[i+1] - v[i-1]) / (2h) along axis, zero on the two end layers;
    computed in the output array, with no full-grid temporary."""
    out = np.zeros_like(v)
    sl_mid = [slice(None)] * 3
    sl_hi = [slice(None)] * 3
    sl_lo = [slice(None)] * 3
    sl_mid[axis] = slice(1, -1)
    sl_hi[axis] = slice(2, None)
    sl_lo[axis] = slice(None, -2)
    mid = out[tuple(sl_mid)]
    np.subtract(v[tuple(sl_hi)], v[tuple(sl_lo)], out=mid)
    mid /= 2.0 * h
    return out


_BOUNDARY_SUPPORT = "support touches the box boundary; enlarge the box"


def _require_interior_support(f: GridFunction) -> None:
    if not f._margin_zero(2):
        raise ValueError(_BOUNDARY_SUPPORT)


def field_X(f: GridFunction) -> GridFunction:
    """Xf = df/dx - (y/2) df/dt with central differences."""
    _require_interior_support(f)
    dx = _central_diff(f.values, 0, f.h)
    dt = _central_diff(f.values, 2, f.h)
    dt *= f.axis_centers(1)[None, :, None] / 2.0
    dx -= dt
    return f.copy_with(dx)


def field_Y(f: GridFunction) -> GridFunction:
    """Yf = df/dy + (x/2) df/dt with central differences."""
    _require_interior_support(f)
    dy = _central_diff(f.values, 1, f.h)
    dt = _central_diff(f.values, 2, f.h)
    dt *= f.axis_centers(0)[:, None, None] / 2.0
    dy += dt
    return f.copy_with(dy)


def lp_norm(f: GridFunction, p: float) -> float:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    cell = f.h ** 3
    return float((np.abs(f.values) ** p).sum() * cell) ** (1.0 / p)


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

class LevelDecomposition:
    """The nonempty dyadic levels F_k = {2^{k-1} <= |f| <= 2^k} of a grid
    function, with the gradient masses that the Sobolev checks read.

    One np.frexp pass over the nonzero samples gives each sample the level
    e with 2^{e-1} <= |f| < 2^e; a value exactly 2^{e-1} also belongs to
    F_{e-1}, so a value exactly 2^k lies in both F_k and F_{k+1}.  Each level
    keeps the flat indices of its samples in C order.  field_X and field_Y
    run once each and are reduced to their l1 norms and, per level, to the
    sums of |Xf| and |Yf| over the level's samples.  The samples are
    gathered in C order, as a boolean mask gathers them, so each sum is the
    masked sum bit for bit.  No full-grid array is kept."""

    def __init__(self, f: GridFunction):
        self.h = f.h
        self.shape = f.values.shape
        self.origin = np.asarray(f.origin, dtype=np.int64)
        a = np.abs(f.values).ravel()
        flat = np.flatnonzero(a)
        vals = a[flat]
        if not np.isfinite(vals).all():
            raise ValueError("grid function samples must be finite")
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
        self._flat: Dict[int, np.ndarray] = {
            k: flat[members[k]] for k in sorted(members)}
        self.levels: Tuple[int, ...] = tuple(self._flat)
        # ||Xf||_1 and ||Yf||_1, and per level the sum of |Yf| (read by the
        # proj_x check, which='x') and of |Xf| (which='y').  The fields exist
        # only for support inside the two-cell margin; a level set lookup
        # must not fail where field_X would.
        self._norms = None
        self._mass: Dict[str, Dict[int, float]] = {}
        if f._margin_zero(2):
            x_norm, self._mass["y"] = self._reduce(field_X(f))
            y_norm, self._mass["x"] = self._reduce(field_Y(f))
            self._norms = (x_norm, y_norm)

    def _reduce(self, g: GridFunction) -> Tuple[float, Dict[int, float]]:
        v = g.values.ravel()
        return lp_norm(g, 1.0), {k: float(np.abs(v[idx]).sum())
                                 for k, idx in self._flat.items()}

    def _require_fields(self) -> None:
        if self._norms is None:
            raise ValueError(_BOUNDARY_SUPPORT)

    def voxels(self, k: int) -> VoxelSet:
        """F_k as a voxel set."""
        idx = self._flat.get(k)
        if idx is None:
            raise ValueError(f"level {k} is empty")
        ijk = np.column_stack(np.unravel_index(idx, self.shape))
        return VoxelSet(ijk + self.origin[None, :], self.h)

    def field_norms(self) -> Tuple[float, float]:
        """(||Xf||_1, ||Yf||_1)."""
        self._require_fields()
        return self._norms

    def gradient_mass(self, k: int, which: str) -> float:
        """The sum of |Yf| (which='x') or of |Xf| (which='y') over the
        samples of F_k; 0.0 for an empty level."""
        self._require_fields()
        return self._mass["x" if which == "x" else "y"].get(k, 0.0)


def _level_mask(absvals: np.ndarray, k: int) -> np.ndarray:
    return (absvals >= 2.0 ** (k - 1)) & (absvals <= 2.0 ** k)


def level_range(f: GridFunction) -> range:
    """The levels from the lowest to the highest nonempty one."""
    ks = f.decomposition.levels
    return range(ks[0], ks[-1] + 1) if ks else range(0)


def level_sets(f: GridFunction) -> List[Tuple[int, VoxelSet]]:
    """All nonempty dyadic levels F_k = {2^{k-1} <= |f| <= 2^k} as voxel
    sets (values exactly 2^k belong to both F_k and F_{k+1})."""
    d = f.decomposition
    return [(k, d.voxels(k)) for k in d.levels]


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


def _levelset_lemma_check_reference(f: GridFunction, k: int,
                                    which: str = "x", slack: float = 1.25,
                                    oversample: int = 2) -> LevelCheck:
    """levelset_lemma_check from whole-grid level masks and fields
    recomputed on each call: the test oracle of LevelDecomposition."""
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


# ---------------------------------------------------------------------------
# The unit-Jacobian shear (x, y, t) -> (x, y, t + xy/2)

def shear_change_of_variables(f: GridFunction, sign: float = 1.0) -> GridFunction:
    """Resample f composed with the shear: g(x, y, t) = f(x, y, t + sign*xy/2),
    by linear interpolation along t.  Rejects inputs whose sheared support
    would leave the box."""
    nx, ny, nz = f.values.shape
    xs = f.axis_centers(0)
    ys = f.axis_centers(1)
    shift = sign * np.outer(xs, ys) / 2.0 / f.h  # in t-index units
    # source support per column must stay inside [1, nz-2] after shifting
    nonzero = f.values != 0.0
    active = nonzero.any(axis=2)
    if active.any():
        kmin = np.argmax(nonzero, axis=2)
        kmax = nz - 1 - np.argmax(nonzero[:, :, ::-1], axis=2)
        lo = (kmin - shift)[active]
        hi = (kmax - shift)[active]
        # interpolation spreads support by one cell on each side
        if lo.min() < 2.0 or hi.max() > nz - 3.0:
            raise ValueError("sheared support would leave the box")
    pos = np.arange(nz, dtype=np.float64)[None, None, :] + shift[:, :, None]
    base = np.floor(pos)
    w = pos - base
    base = base.astype(np.int64)
    lo_ok = (base >= 0) & (base <= nz - 1)
    hi_ok = (base + 1 >= 0) & (base + 1 <= nz - 1)
    v_lo = np.take_along_axis(f.values, np.clip(base, 0, nz - 1), axis=2)
    v_hi = np.take_along_axis(f.values, np.clip(base + 1, 0, nz - 1), axis=2)
    out = (1.0 - w) * v_lo * lo_ok + w * v_hi * hi_ok
    return f.copy_with(out)


# ---------------------------------------------------------------------------
# Test-function zoo: closed-form C^1 bumps with exact compact support.

def bump(widths=(0.75, 0.75, 0.5), center=(0.0, 0.0, 0.0), amplitude=1.0):
    """(1 - R^2)_+^2 with R^2 the anisotropically scaled radius."""
    w = np.asarray(widths, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)

    def fn(pts: np.ndarray) -> np.ndarray:
        q = (pts - c[None, :]) / w[None, :]
        r2 = (q * q).sum(axis=1)
        return amplitude * np.clip(1.0 - r2, 0.0, None) ** 2

    return fn


def sheared_fn(fn, sign: float = -1.0):
    """fn composed with the inverse shear: the image of fn under the shear."""

    def out(pts: np.ndarray) -> np.ndarray:
        q = pts.copy()
        q[:, 2] = pts[:, 2] + sign * pts[:, 0] * pts[:, 1] / 2.0
        return fn(q)

    return out


def dilated_fn(fn, lam: float):
    """fn composed with the inverse dilation (so supports dilate by lam)."""

    def out(pts: np.ndarray) -> np.ndarray:
        q = pts / np.array([lam, lam, lam * lam])[None, :]
        return fn(q)

    return out


def smoothed_box(half=(0.5, 0.5, 0.25), edge: float = 0.25):
    """Mollified box indicator (1 - m^2)_+^2 built on the scaled sup norm,
    so the profile vanishes quadratically on the whole boundary (a product
    of edge ramps would vanish to higher order at corners, leaving dyadic
    tail bands unresolvable on any fixed grid)."""
    a = np.asarray(half, dtype=np.float64)

    def fn(pts: np.ndarray) -> np.ndarray:
        m = np.max(np.abs(pts) / a[None, :], axis=1)
        u = np.clip((m - 1.0) / edge, 0.0, 1.0)  # 0 inside, 1 outside the ramp
        return (1.0 - u * u) ** 2

    return fn


def function_zoo(h: float) -> dict:
    """Named grid functions used by the sweep experiments and tests."""
    specs = {
        "bump": (bump((0.75, 0.75, 0.5)), (0.8, 0.8, 0.55)),
        "narrow_bump": (bump((0.4, 0.4, 0.3)), (0.45, 0.45, 0.35)),
        "aniso_bump": (bump((0.8, 0.45, 0.35)), (0.85, 0.5, 0.4)),
        "sheared_bump": (sheared_fn(bump((0.6, 0.6, 0.35))), (0.65, 0.65, 0.6)),
        "smoothed_box": (smoothed_box((0.5, 0.5, 0.25), 0.25), (0.7, 0.7, 0.4)),
    }
    return {name: sample_to_grid(fn, h, ext) for name, (fn, ext) in specs.items()}


# ---------------------------------------------------------------------------
# Serialization: JSON header line + raw little-endian float64 samples.

def save_gridfunction(f: GridFunction, path) -> None:
    header = {"dims": list(f.values.shape), "h": f.h, "origin": list(f.origin)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def load_gridfunction(path) -> GridFunction:
    """Read a file written by save_gridfunction.  A header that is not a
    JSON object with integer dims and origin and a positive finite h, or a
    payload whose length does not match dims, raises a ValueError that
    names the file."""
    with open(path, "rb") as fh:
        head = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    if not isinstance(header, dict) or sorted(header) != ["dims", "h", "origin"]:
        raise ValueError(f"{path}: header must be a JSON object with keys "
                         f"dims, h and origin")
    dims, h, origin = header["dims"], header["h"], header["origin"]
    if not (_int_triple(dims) and min(dims) >= 0 and _int_triple(origin)
            and type(h) in (int, float) and math.isfinite(h) and h > 0):
        raise ValueError(f"{path}: bad header {header}")
    need = 8 * math.prod(dims)
    if len(raw) != need:
        raise ValueError(f"{path}: payload has {len(raw)} bytes, "
                         f"dims {dims} need {need}")
    try:
        return GridFunction(np.frombuffer(raw, dtype="<f8").reshape(dims),
                            h, tuple(origin))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _int_triple(v) -> bool:
    return (isinstance(v, list) and len(v) == 3
            and all(type(x) is int for x in v))
