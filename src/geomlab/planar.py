"""Planar primitives: points and lines of the unit parameter square.

Lines are stored by their (slope, intercept) coordinates, restricted to
|a| <= 1 and |b| <= 1; the distance between two lines is the Euclidean
distance of their parameter pairs.  A point is delta-incident to a line
when it lies in the closed Euclidean delta-neighborhood of the line.
The affine duality (x, y) -> {Y = -x X + y} exchanges points and lines
while preserving separation exactly and incidence up to a factor 2.

All comparisons on separations are exact float comparisons: generators
in this package construct configurations with slack, never relying on a
fudge epsilon here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def in_unit_square(self) -> bool:
        return abs(self.x) <= 1.0 and abs(self.y) <= 1.0


@dataclass(frozen=True)
class LineAB:
    """The line {(X, Y): Y = a X + b}."""

    a: float
    b: float


@dataclass(frozen=True)
class Scale:
    """Scales of the discretization: point scale delta, line scale epsilon,
    and the incidence multiplier C (incidence radius is C * delta)."""

    delta: float
    epsilon: Optional[float] = None
    multiplier: float = 1.0

    def __post_init__(self):
        eps = self.delta if self.epsilon is None else self.epsilon
        object.__setattr__(self, "epsilon", eps)
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not (self.delta <= eps <= 1.0):
            raise ValueError(f"epsilon must be in [delta, 1], got {eps}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    @property
    def radius(self) -> float:
        """Closed incidence radius C * delta."""
        return self.multiplier * self.delta


def _as_coords(items, n_fields=2) -> np.ndarray:
    arr = np.asarray(items, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, n_fields)
    if arr.ndim != 2 or arr.shape[1] != n_fields:
        raise ValueError(f"expected (n, {n_fields}) coordinates, got {arr.shape}")
    return arr


class PointSet:
    """Finite set of points declared pairwise >= delta apart."""

    def __init__(self, points, delta: float):
        if len(points) and isinstance(points[0], Point2):
            coords = np.array([(p.x, p.y) for p in points], dtype=np.float64)
        else:
            coords = _as_coords(points)
        coords.setflags(write=False)
        self.coords = coords
        self.delta = float(delta)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i: int) -> Point2:
        return Point2(float(self.coords[i, 0]), float(self.coords[i, 1]))

    def __iter__(self):
        for row in self.coords:
            yield Point2(float(row[0]), float(row[1]))


class LineFamily:
    """Finite family of lines declared pairwise >= epsilon apart in the
    parameter metric."""

    def __init__(self, lines, epsilon: float):
        if len(lines) and isinstance(lines[0], LineAB):
            params = np.array([(l.a, l.b) for l in lines], dtype=np.float64)
        else:
            params = _as_coords(lines)
        params.setflags(write=False)
        self.params = params
        self.epsilon = float(epsilon)

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, i: int) -> LineAB:
        return LineAB(float(self.params[i, 0]), float(self.params[i, 1]))

    def __iter__(self):
        for row in self.params:
            yield LineAB(float(row[0]), float(row[1]))


def line_metric(l1: LineAB, l2: LineAB) -> float:
    """Distance |(a1, b1) - (a2, b2)| between the parameter pairs."""
    return math.hypot(l1.a - l2.a, l1.b - l2.b)


def point_line_dist(p: Point2, l: LineAB) -> float:
    """Euclidean distance from p to the (infinite) line."""
    return abs(l.a * p.x + l.b - p.y) / math.sqrt(1.0 + l.a * l.a)


def is_incident(p: Point2, l: LineAB, s: Scale) -> bool:
    """Closed condition: distance <= C * delta. Boundary ties count."""
    return point_line_dist(p, l) <= s.radius


def dual_point_to_line(p: Point2) -> LineAB:
    """(x, y) -> {Y = -x X + y}.  Defined only for points of the unit square
    (otherwise the dual line leaves the parameter square)."""
    if not p.in_unit_square():
        raise ValueError(f"point {p} outside the unit square has no dual line here")
    return LineAB(-p.x, p.y)


def dual_line_to_point(l: LineAB) -> Point2:
    """{Y = a X + b} -> (a, b)."""
    return Point2(l.a, l.b)


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    bound: float
    min_distance: float
    pair: Optional[Tuple[int, int]]


def _min_pair(coords: np.ndarray) -> Tuple[float, Optional[Tuple[int, int]]]:
    n = coords.shape[0]
    if n < 2:
        return math.inf, None
    if n <= 64:
        diff = coords[:, None, :] - coords[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=2))
        d[np.arange(n), np.arange(n)] = np.inf
        i, j = np.unravel_index(np.argmin(d), d.shape)
        return float(d[i, j]), (int(min(i, j)), int(max(i, j)))
    tree = cKDTree(coords)
    dists, idx = tree.query(coords, k=2)
    nearest = dists[:, 1]
    i = int(np.argmin(nearest))
    j = int(idx[i, 1])
    # re-evaluate with the same arithmetic as the brute-force path
    d = math.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1])
    return d, (min(i, j), max(i, j))


def validate_separation(obj: Union[PointSet, LineFamily]) -> SeparationReport:
    """Check the declared pairwise separation; report the worst pair."""
    if isinstance(obj, PointSet):
        coords, bound = obj.coords, obj.delta
    elif isinstance(obj, LineFamily):
        coords, bound = obj.params, obj.epsilon
    else:
        raise TypeError(f"expected PointSet or LineFamily, got {type(obj)}")
    dmin, pair = _min_pair(coords)
    return SeparationReport(ok=bool(dmin >= bound), bound=bound,
                            min_distance=dmin, pair=pair)


# ---------------------------------------------------------------------------
# CSV serialization: one row per element plus a sidecar JSON metadata record.

def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def _write_csv(path: Path, header: Tuple[str, str], coords: np.ndarray,
               metadata: dict) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in coords:
            w.writerow([repr(float(row[0])), repr(float(row[1]))])
    with open(_meta_path(path), "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_point_set(ps: PointSet, path, generator: str = "", seed=None,
                   extra_meta: Optional[dict] = None) -> None:
    meta = {"delta": ps.delta, "epsilon": None, "generator": generator, "seed": seed}
    meta.update(extra_meta or {})
    _write_csv(Path(path), ("x", "y"), ps.coords, meta)


def save_line_family(lf: LineFamily, path, generator: str = "", seed=None,
                     extra_meta: Optional[dict] = None) -> None:
    meta = {"delta": None, "epsilon": lf.epsilon, "generator": generator, "seed": seed}
    meta.update(extra_meta or {})
    _write_csv(Path(path), ("a", "b"), lf.params, meta)


def _read_csv(path: Path, header: Tuple[str, str]) -> Tuple[np.ndarray, dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path}: expected header {header}")
    coords = np.empty((len(rows) - 1, 2))
    for n, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ValueError(f"{path}: row {n + 1} has {len(row)} fields, "
                             f"expected 2")
        try:
            coords[n] = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: row {n + 1} is not numeric: "
                             f"{','.join(row)!r}") from None
    with open(_meta_path(Path(path))) as fh:
        meta = json.load(fh)
    return coords.reshape(-1, 2), meta


def load_point_set(path) -> PointSet:
    coords, meta = _read_csv(Path(path), ("x", "y"))
    return PointSet(coords, delta=meta["delta"])


def load_line_family(path) -> LineFamily:
    coords, meta = _read_csv(Path(path), ("a", "b"))
    return LineFamily(coords, epsilon=meta["epsilon"])
