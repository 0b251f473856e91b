"""Planar primitives: points and lines of the unit parameter square.

Lines are stored by their (slope, intercept) coordinates, restricted to
|a| <= 1 and |b| <= 1; the distance between two lines is the Euclidean
distance of their parameter pairs.  A point is delta-incident to a line
when it lies in the closed Euclidean delta-neighborhood of the line, which
`incident` tests as |(x a + b) - y| <= delta sqrt(1 + a a), in that float
operation order.  The affine duality (x, y) -> {Y = -x X + y} exchanges
points and lines while preserving separation exactly and incidence up to
a factor 2.

All comparisons on separations are exact float comparisons: generators
in this package construct configurations with slack, never relying on a
fudge epsilon here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np


class BadInput(ValueError):
    """An input the package refuses before doing its work."""


class GridTooLarge(BadInput):
    """A grid or lattice that an input asks for exceeds its named cap; it is
    refused before anything of its size is allocated."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def in_unit_square(self) -> bool:
        return abs(self.x) <= 1.0 and abs(self.y) <= 1.0


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
        coords = _as_coords(points)
        coords.setflags(write=False)
        self.coords = coords
        self.delta = float(delta)

    def __len__(self) -> int:
        return self.coords.shape[0]


class LineFamily:
    """Finite family of lines declared pairwise >= epsilon apart in the
    parameter metric."""

    def __init__(self, lines, epsilon: float):
        params = _as_coords(lines)
        params.setflags(write=False)
        self.params = params
        self.epsilon = float(epsilon)

    def __len__(self) -> int:
        return self.params.shape[0]


def threshold(a, radius: float):
    """The right side r sqrt(1 + a a) of the incidence test of lines of
    slopes a at the radius r."""
    return radius * np.sqrt(1.0 + a * a)


def incident(x, y, a, b, thr, out=None, work=None):
    """Whether the points (x, y) are incident to the lines (a, b),
    elementwise with broadcasting: |(x a + b) - y| <= thr, in this
    operation order, for thr = threshold(a, r).  This is the one incidence
    test of the package: both engines, max_concurrency and duality_check
    call it, so that they count the same incidences bit for bit.  x a must
    be an array of the result's shape.  The float array work, when given,
    receives the distances |(x a + b) - y| and the bool array out the
    result, so a caller testing block after block allocates nothing."""
    vert = np.multiply(x, a, out=work)
    vert += b
    vert -= y
    np.abs(vert, out=vert)
    return np.less_equal(vert, thr, out=out)


def _check_unit_square(coords: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of coords not in [-1, 1]^2."""
    bad = np.flatnonzero(~(np.abs(coords) <= 1.0).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} {tuple(coords[bad[0]].tolist())} outside "
                         f"the unit square")


def dual_lines(P: PointSet) -> LineFamily:
    """The dual lines {Y = -x X + y} of the points (x, y) of P, as epsilon =
    P.delta apart as the points are.  Raises ValueError for a point outside
    the unit square, whose dual line leaves the parameter square."""
    _check_unit_square(P.coords, "point")
    return LineFamily(np.column_stack([-P.coords[:, 0], P.coords[:, 1]]),
                      P.delta)


def dual_points(L: LineFamily) -> PointSet:
    """The dual points (a, b) of the lines {Y = a X + b} of L."""
    return PointSet(L.params, L.epsilon)


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    bound: float
    min_distance: float
    pair: Optional[Tuple[int, int]]


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions start, ..., start + len - 1 of every run, concatenated."""
    pos = np.arange(int(lens.sum()), dtype=np.int64)
    pos += np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return pos


def _first_true(pred: Callable, k: np.ndarray, lo, hi) -> None:
    """Settle in place the int64 estimates k, of any shape, of where exact
    monotone predicates switch on.  Each entry's predicate is false at
    lo - 1 and switches on at most once up to hi; k becomes the first j in
    [lo, hi] where it holds, else hi + 1.  lo and hi broadcast against k,
    which must lie in [lo, hi].  pred(s, j, d) evaluates the entries s
    (Ellipsis for all, j then shaped like k, or a tuple of index arrays)
    at the places j + d in [lo - 1, hi], elementwise; d is -1 for the
    places below the estimates, else 0, so that a caller reading a table
    can shift the table instead of j.

    Each estimate is checked, with the place below it; where that fails,
    one step is tried on the side the check points to, then what is left
    of [lo, hi + 1] is bisected, so an estimate however far off costs
    about log2(hi - lo) more checks."""
    prev = pred(..., k, -1)
    bad = np.flatnonzero(np.less_equal(pred(..., k, 0), prev))
    if bad.size == 0:
        return
    bad = np.unravel_index(bad, k.shape)
    e, down = k[bad], prev[bad]
    lo, hi = (np.broadcast_to(v, k.shape)[bad] for v in (lo, hi))
    # down: pred holds at e - 1, which is right unless it holds at e - 2;
    # up: pred fails at e, and e + 1 is right if it holds there or e = hi
    step = np.where(down, e - 1, e + 1)
    done = pred(bad, np.where(down, e - 2, np.minimum(e + 1, hi)), 0) != down
    done |= step > hi
    # the answer lies in [bot, top], where pred holds at top or top = hi + 1
    bot = np.where(done, step, np.where(down, lo, e + 2))
    top = np.where(done, step, np.where(down, e - 2, hi + 1))
    open_ = np.flatnonzero(bot < top)
    while open_.size:
        mid = (bot[open_] + top[open_]) // 2
        hit = pred(tuple(a[open_] for a in bad), mid, 0)
        top[open_] = np.where(hit, mid, top[open_])
        bot[open_] = np.where(hit, bot[open_], mid + 1)
        open_ = open_[bot[open_] < top[open_]]
    k[bad] = bot


def _check_finite(coords: np.ndarray) -> None:
    """Raise a ValueError naming the rows of coords that are not finite."""
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        shown = ", ".join(f"row {r} {tuple(coords[r].tolist())}"
                          for r in bad[:3].tolist())
        more = f" and {bad.size - 3} more" if bad.size > 3 else ""
        raise ValueError(f"non-finite coordinates: {shown}{more}")


def _adjacency_codes(v: np.ndarray) -> np.ndarray:
    """Integer codes of the integer-valued floats v, in [0, 2 len(v)): equal
    values share a code, and two values differ by exactly 1 iff their codes
    do."""
    u, inv = np.unique(v, return_inverse=True)
    code = np.zeros(u.size, dtype=np.int64)
    code[1:] = np.cumsum(np.minimum(np.diff(u), 2.0))
    return code[inv.ravel()]


class _CellHash:
    """Candidate neighbour pairs from a cell hash.

    Row r has integer cells (integer-valued floats) cells[r] on its first
    axes and a value last[r] on its last axis.  Rows are bucketed by cell
    and sorted by last value within a cell.  Called with query rows, it
    returns the pairs (q, j) of each q with every row j whose cells are
    adjacent to q's (each coordinate within 1, q's own cell included) and
    whose last value lies in the window [lo[q], hi[q]].  Callers want
    only the pairs with q < j: when the rows come in non-decreasing order
    of their first cell, the cells before q's on that axis hold only
    earlier rows, and they are not searched."""

    def __init__(self, cells: np.ndarray, last: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray):
        n = last.size
        width = 2 * n + 2
        packed = np.zeros(n, dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        for axis in range(cells.shape[1]):
            packed = packed * width + (_adjacency_codes(cells[:, axis]) + 1)
            offsets = (offsets[:, None] * width + np.arange(-1, 2)).ravel()
        if np.all(cells[1:, 0] >= cells[:-1, 0]):
            offsets = offsets[offsets.size // 3:]
        self.cells, cell = np.unique(packed, return_inverse=True)
        self.packed, self.offsets = packed, offsets
        # a row's place in the order of last values; the window of q is the
        # range of places [last.searchsorted(lo[q]), last.searchsorted(hi[q])),
        # searched for the query rows only: a first-come scan never queries
        # the rows it has covered
        by_last = np.argsort(last, kind="stable")
        place = np.empty(n, dtype=np.int64)
        place[by_last] = np.arange(n)
        self.last, self.lo, self.hi = last[by_last], lo, hi
        # rows sorted by the key (2 c + 1) n + place, c the rank of their
        # cell: the keys of a cell absent from the set, given the even
        # multiplier of the rank it would take, form an empty range
        self.n = n
        key = (2 * cell.ravel() + 1) * n + place
        self.order = np.argsort(key)
        self.key = key[self.order]

    def __call__(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        want = self.packed[rows, None] + self.offsets
        base = self.cells.searchsorted(want, side="left")
        base += self.cells.searchsorted(want, side="right")
        base *= self.n
        lo = self.last.searchsorted(self.lo[rows], side="left")
        hi = self.last.searchsorted(self.hi[rows], side="right")
        first = self.key.searchsorted(base + lo[:, None])
        end = self.key.searchsorted(base + hi[:, None])
        lens = (end - first).ravel()
        return (np.repeat(rows, self.offsets.size).repeat(lens),
                self.order[_runs(first.ravel(), lens)])


@np.errstate(over="ignore")  # a difference of far rows may round to inf
def _min_pair(coords: np.ndarray) -> Tuple[float, Optional[Tuple[int, int]]]:
    """The smallest math.hypot distance between two rows, and the first
    pair (i, j), i < j, in lexicographic order that attains it."""
    _check_finite(coords)
    n = coords.shape[0]
    if n < 2:
        return math.inf, None
    lo = coords.min(axis=0)
    rel = coords - lo
    if not np.isfinite(rel).all():  # the extent overflows; halving is exact
        rel = coords * 0.5 - lo * 0.5
    ext = float(rel.max())
    if ext == 0.0:
        return 0.0, (0, 1)
    # w bounds the closest distance from above (it is at least that of the
    # neighbours in x or y order), and no cell is thinner than ext / 2^30,
    # so the roundings of rel and of the cell quotients stay far below the
    # margins: the closest pair lies in adjacent x-cells of width w, within
    # 2w in y
    d1 = math.inf
    for axis in (0, 1):
        step = np.diff(rel[np.argsort(rel[:, axis])], axis=0)
        d1 = min(d1, float(np.hypot(step[:, 0], step[:, 1]).min()))
    w = max(d1 * (1.0 + 2.0 ** -10), ext * 2.0 ** -30)
    near = _CellHash(np.floor(rel[:, :1] / w), rel[:, 1],
                     rel[:, 1] - 2.0 * w, rel[:, 1] + 2.0 * w)
    i, j = near(np.arange(n))
    later = j > i
    i, j = i[later], j[later]
    dx = coords[i, 0] - coords[j, 0]
    dy = coords[i, 1] - coords[j, 1]
    d = np.hypot(dx, dy)
    # np.hypot and math.hypot are each within one ulp of the exact value and
    # agree when a component is 0; re-test the pairs near the minimum
    m = float(d.min())
    close = np.flatnonzero(d <= m + m * 2.0 ** -40)
    d = d[close]
    both = np.flatnonzero((dx[close] != 0.0) & (dy[close] != 0.0))
    d[both] = [math.hypot(dx[close[k]], dy[close[k]]) for k in both.tolist()]
    best = np.flatnonzero(d == d.min())
    pick = close[best[np.lexsort((j[close[best]], i[close[best]]))[0]]]
    return float(d.min()), (int(i[pick]), int(j[pick]))


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
