"""Incidence counting engines and rich-point extraction.

Two counters with identical output: a brute-force counter testing every
(point, line) pair, in blocks of a bounded number of pairs, and
count_bucketed.  count_bucketed hands a small call to the brute-force
kernel, and a larger one to a column engine, whose fixed cost only pays
off above that size.  The cut depends on the mode: _EXHAUSTIVE_PAIRS pairs
for a count, _EXHAUSTIVE_WITH_PAIRS for a call that lists the pairs, where
the column path also tests every window it finds.  The engine visits the
points in strips of x, split into groups of consecutive points, and keys
the lines at a reference abscissa x_r of each group: a line (a, b) has key
a x_r + b, its height there, and the lines are sorted by (slope column,
key).  A point (x, y) meets (a, b) at radius r iff the key lies within
r sqrt(1 + a^2) of y - a (x - x_r), so per point and column a binary search
finds the window of keys that can meet the point's dual strip; the slopes
of a column make that window uncertain by (slope range) |x - x_r| only.
A window whose end lines lie inside the strip with a proven float margin
is counted by index difference; the lines of any other window are tested
in the brute-force operation order, so counts agree bit for bit.  A count
without pairs whose lines take few distinct slopes, as the lattice
families' do, gets one column per slope: its windows have no slope
uncertainty, and only lines within the float margin of a window's end
are tested.  Other calls get slope columns of fixed width.

Rich points are counted on the delta-lattice xs of [-1, 1]^2 without an
engine call.  For a line (a, b) and a lattice column x, yc = a x + b and
t = r sqrt(1 + a^2) are computed in the brute-force operation order; as xs
does not decrease and float subtraction is monotone, yc - xs[j] does not
increase with j, so the rows with |yc - xs[j]| <= t form one interval.
Its ends are estimated by floor/ceil and settled against that predicate
by planar._first_true, and each column adds the interval to a difference
array whose cumulative sum is the richness.  The scan returns the lattice
points of positive richness, the only ones a k-rich point can be.  Blocks
of lines x columns keep the working memory at a few MB whatever delta is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .planar import (GridTooLarge, LineFamily, Point2, PointSet, Scale,
                     _CellHash, _check_finite, _first_true, _runs, incident,
                     threshold)


def normalized_ratio(count: int, n_points: int, n_lines: int, delta: float) -> float:
    """count / (|P|^{2/3} |L|^{2/3} delta^{-1/3}); zero for empty instances."""
    if n_points == 0 or n_lines == 0:
        return 0.0
    denom = (n_points ** (2.0 / 3.0)) * (n_lines ** (2.0 / 3.0)) * delta ** (-1.0 / 3.0)
    return count / denom


@dataclass
class IncidenceReport:
    """An engine's count, the richness of each point and, when asked for,
    the incident (point, line) index pairs: an (n, 2) int64 array whose
    rows are in lexicographic order, 16 bytes per pair."""

    count: int
    richness: np.ndarray  # int64, one entry per point
    normalized_ratio: float
    pairs: Optional[np.ndarray] = None

    def same_as(self, other: "IncidenceReport") -> bool:
        """Equal count and richness, and equal pairs when both hold them."""
        if self.count != other.count:
            return False
        if not np.array_equal(self.richness, other.richness):
            return False
        if self.pairs is not None and other.pairs is not None:
            return np.array_equal(self.pairs, other.pairs)
        return True


# (point, line) pairs _count_exhaustive tests at a time.  Its buffers, 64
# kB of floats and 8 kB of flags, stay below glibc's 128 kB mmap threshold,
# so they come from the heap and do not move that threshold.  Larger blocks
# save little: random 362 x 362 with pairs took 0.90, 0.80, 0.85 and 0.75
# ms at 2^12 to 2^15 pairs a block (best of 7 runs of 3 calls).
_BLOCK_PAIRS = 1 << 13


def _count_exhaustive(P: PointSet, L: LineFamily, s: Scale,
                      with_pairs: bool) -> IncidenceReport:
    """Exact count over all |P| * |L| pairs, tested in blocks of at most
    _BLOCK_PAIRS pairs by planar.incident, in two buffers it reuses: whole
    rows of points when a row fits in a block, else one point against runs
    of lines.  A hit's key point * m + line is its index in the row-major
    n x m matrix, so the keys of the blocks, taken in order, are sorted."""
    n, m = len(P), len(L)
    richness = np.zeros(n, dtype=np.int64)
    keys = [np.zeros(0, dtype=np.int64)]
    if n and m:
        px, py = P.coords[:, 0], P.coords[:, 1]
        la, lb = L.params[:, 0], L.params[:, 1]
        thr = threshold(la, s.radius)
        rows, cols = max(1, _BLOCK_PAIRS // m), min(m, _BLOCK_PAIRS)
        buf = np.empty(rows * cols)
        hit = np.empty(rows * cols, dtype=bool)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            x, y = px[lo:hi, None], py[lo:hi, None]
            for c0 in range(0, m, cols):
                c1 = min(m, c0 + cols)
                vert = buf[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
                inc = hit[:vert.size].reshape(vert.shape)
                incident(x, y, la[c0:c1], lb[c0:c1], thr[c0:c1], out=inc,
                         work=vert)
                if with_pairs:
                    # a block is whole rows, or one row: its flat indices
                    # are the keys less lo * m + c0
                    found = np.flatnonzero(inc)
                    found += lo * m + c0
                    keys.append(found)
                else:
                    richness[lo:hi] += np.count_nonzero(inc, axis=1)
    key = None
    if with_pairs:
        key = np.concatenate(keys)
        del keys
        richness = np.bincount(key // m, minlength=n)
    return _report(richness, key, m, s)


def _report(richness: np.ndarray, key: Optional[np.ndarray], m: int,
            s: Scale) -> IncidenceReport:
    """The IncidenceReport of the richness and, unless key is None, of the
    pairs whose sorted keys point * m + line it holds (their lexicographic
    order)."""
    pairs = None
    if key is not None:
        pairs = np.empty((key.size, 2), dtype=np.int64)
        np.divmod(key, m, out=(pairs[:, 0], pairs[:, 1]))
    count = int(richness.sum())
    return IncidenceReport(count, richness,
                           normalized_ratio(count, richness.size, m, s.delta),
                           pairs)


def count_naive(P: PointSet, L: LineFamily, s: Scale,
                with_pairs: bool = False) -> IncidenceReport:
    """Exact count over all |P| * |L| pairs (the oracle engine); with_pairs,
    the incident (point, line) pairs as IncidenceReport describes them.
    It tests the pairs in blocks of _BLOCK_PAIRS, so besides its output,
    and the 8-byte keys of the pairs, it holds 72 kB whatever |P| * |L|
    is."""
    return _count_exhaustive(P, L, s, with_pairs)


# Largest coordinate or radius magnitude the column engine accepts: below
# it no product, square or sum in either engine overflows.
_MAX_MAGNITUDE = 2.0 ** 255
# Points per chunk of count_bucketed: the arrays of one column stay within
# 64 kB.  _Columns.count tests a chunk's windows block by block as it finds
# them, so a chunk holds the same memory at any number of columns.  An
# input of at most one chunk of points, or of one column per slope, is one
# group keyed at x = 0; larger ones have groups of at least _GROUP_POINTS
# points (see _layout).
_CHUNK_POINTS = 8192
_GROUP_POINTS = 2048
# Most distinct slopes, in units of sqrt m, that the m lines of a count
# without pairs may take and get one column per slope (see _layout).
# Fixed-width columns number about sqrt m, so per-slope ones cost at most
# about twice their binary searches, and they save the exact tests of the
# windows that a column's slope range makes straddle the strip's edges.
# Count-only calls, fixed-width vs per-slope columns, ms, median of 9
# interleaved in-process calls (2 cores, numpy 2.4):
#
#   instance                      n x m        slopes     fixed  per slope
#   rectangle 2^-6               585 x  5,285  1.77 sqrt m    8.7     4.7
#   rectangle 2^-7             1,548 x 19,530  1.84 sqrt m   28.6    17.1
#   rectangle 2^-6, 1 x 1      4,225 x 10,465  1.26 sqrt m   22.1    18.4
#   rectangle 2^-7, 1/2 x 1/4  2,145 x 16,673  1.99 sqrt m   29.0    23.2
#   rectangle 2^-8, 1/4 x 1/8  2,145 x 33,185  2.82 sqrt m   39.1    52.3
#   grid slopes, random b      1,500 x 20,000  1.99 sqrt m   31.9    41.1
#   grid slopes, random b      1,500 x 20,000  4.00 sqrt m   36.6    81.1
#
# The lattice families gain at up to 2 sqrt m slopes and lose above; lines
# of random intercepts straddle less and lose already at 2 sqrt m, but no
# family here has them.  With pairs every nonempty window is tested
# anyway, so calls with pairs keep fixed-width columns: per-slope ones
# took 4.45 vs 3.94 ms on the rectangle family at 2^-5, 25.9 vs 22.1 at
# 2^-6 (median of 15).
_SLOPE_COLUMNS = 2.0
# Lines _Columns.count tests exactly at a time, in whole windows, as soon
# as the columns it has passed have found that many.  A block holds about
# 65 bytes a line: its slots and points, the five operands it gathers for
# planar.incident, their distances and the flags.  Smaller blocks cost
# numpy calls, larger ones memory.  count_bucketed, ms / MiB of traced
# peak at each block size, min of 7 interleaved in-process calls, best of
# two processes (2 cores, numpy 2.4; rectangle 2^-7 is count-only at
# s = sqrt delta, one column per slope, rectangle 2^-6 lists the pairs at
# s = 2^-3):
#
#   instance                2^11       2^12       2^13       2^14       2^15
#   random 20000^2, 2^-8  164/2.63   136/2.63   128/2.71   131/3.49   137/5.03
#   reduce 1317^2, 2^-7   7.8/0.39   6.6/0.52   6.2/0.79   5.7/1.32   6.0/2.39
#   rectangle 2^-7       16.1/1.70  15.4/1.70  15.2/1.88  16.4/1.91  15.6/1.91
#   rectangle 2^-6       14.3/5.68  12.5/5.67  11.4/5.67  11.0/5.67  10.5/5.67
#
# Below 2^13 lines the random and pair-listing counts slow; above it the
# peaks grow and no time gains more than 9%.  The rectangle with pairs
# peaks at its output, 2.8 MB of pairs and their keys.
_TEST_LINES = 1 << 13
# Largest number n m of (point, line) pairs count_bucketed tests
# exhaustively in a count (_EXHAUSTIVE_PAIRS) and in a call that lists the
# pairs (_EXHAUSTIVE_WITH_PAIRS).  Below it the column path's fixed cost,
# a _Columns build and about a hundred numpy calls, outweighs the pairs it
# skips.  Whole instances of each family, ms of the exhaustive kernel /
# the column path, min of 7 in-process calls of each, interleaved (2
# cores, numpy 2.4; random instances at delta 2^-8; k-star c x k is c
# centres of k lines):
#
#   instance                      n x m     log2 nm  with pairs  count only
#   tube 2^-16                  257 x  257   16.0   1.07/ 3.27  0.35/0.48
#   tube 2^-17                  363 x  363   17.0   2.04/ 5.09  0.65/0.52
#   tube 2^-18                  513 x  513   18.0   3.98/ 8.12  1.30/0.72
#   tube 2^-19                  725 x  725   19.0   9.30/19.20  2.61/0.96
#   tube 2^-20                 1025 x 1025   20.0  17.86/39.95  5.90/1.58
#   tube 2^-21                 1449 x 1449   21.0  46.91/80.88 10.41/1.69
#   random 256 x 256            256 x  256   16.0   0.45/ 1.29  0.44/1.18
#   random 362 x 362            362 x  362   17.0   0.92/ 1.78  0.97/1.65
#   random 512 x 512            512 x  512   18.0   1.77/ 2.37  1.73/2.20
#   random 724 x 724            724 x  724   19.0   3.33/ 3.24  3.32/2.93
#   random 250 x 4000           250 x 4000   19.9   5.55/ 5.58  5.73/5.26
#   random 4000 x 250          4000 x  250   19.9   6.44/ 6.32  6.49/5.80
#   random 1024 x 1024         1024 x 1024   20.0   6.53/ 4.75  7.20/4.71
#   random 1448 x 1448         1448 x 1448   21.0  13.27/ 7.43 14.41/6.78
#   rectangle 2^-5, 1/2 x 1/4   153 x 1097   17.4   1.26/ 2.49  0.86/1.48
#   rectangle 2^-4, 1 x 1       289 x  697   17.6   1.53/ 2.58  1.29/1.37
#   rectangle 2^-5, 1 x 2^-2.5  198 x 1431   18.1   1.89/ 2.77  1.52/1.58
#   rectangle 2^-6, 1/4 x 1/8   153 x 2153   18.3   2.44/ 3.32  2.15/2.14
#   rectangle 2^-5, 1/2 x 1/2   289 x 1617   18.8   2.79/ 3.06  2.45/1.54
#   rectangle 2^-6, 1/2 x 1/4   561 x 4241   21.2  13.44/ 9.11 12.77/4.38
#   rectangle 2^-5, 1 x 1      1089 x 2673   21.5  16.44/ 8.54 14.85/3.09
#   rectangle 2^-6, 1 x 2^-3    585 x 5285   21.6  14.33/10.62 13.75/4.31
#   k-star 32 x 64, 2^-12        32 x 2048   16.0   0.32/ 1.14  0.37/1.23
#   k-star 64 x 32, 2^-12        64 x 2048   17.0   0.65/ 1.33  0.66/1.38
#   k-star 128 x 16, 2^-12      128 x 2048   18.0   1.13/ 1.40  1.21/1.29
#   k-star 256 x 8, 2^-12       256 x 2048   19.0   2.27/ 1.84  2.45/1.62
#   k-star 512 x 4, 2^-12       512 x 2048   20.0   4.57/ 2.49  4.95/2.30
#   k-star 512 x 8, 2^-13       512 x 4096   21.0   7.72/ 3.73  9.07/3.31
#
# Counting only, the tube, whose windows are all counted by index
# difference, crosses first, between 2^16 and 2^17 pairs; the others cross
# between 2^18 and 2^19.  Listing pairs, every nonempty window is tested
# and every hit emitted on both paths, so the kernel's lead lasts longer:
# the k-star crosses first, between 2^18 and 2^19 pairs, then random near
# 2^19, the rectangle between 2^18.8 and 2^21.2, and the tube not by 2^21.
# Each cut is the largest power of two at or below its mode's crossovers.
_EXHAUSTIVE_PAIRS = 1 << 16
_EXHAUSTIVE_WITH_PAIRS = 1 << 18


def _float_margin(px, py, la, lb, radius: float, x_ref: float) -> float:
    """Distance by which the windows of _Columns.count are widened (outer)
    or narrowed (inner) so that float rounding cannot misplace a line, for
    lines keyed at reference abscissas of magnitude at most |x_ref|.

    Let u = 2**-53, T = r sqrt(1 + max|a|^2) the largest threshold and
    S = max|a| (max|x| + |x_ref|) + max|b| + max|y| + T.  Each rounding below
    is off by at most u times a quantity bounded by S (by 2**-1075
    absolutely when it underflows).
    - The brute-force predicate |(a x + b) - y| <= r sqrt(1 + a a) takes
      three roundings on the left (error < 3.01 u S) and four on the right
      (relative error < 3.01 u, so < 3.01 u T): computed and exact
      (distance - threshold) differ by < 6.1 u S, so the computed predicate
      equals the exact one whenever the exact difference exceeds that.
    - A key fl(fl(a x_r) + b) takes two roundings: error < 2.01 u S.
    - A window end e -/+ (t +/- margin), with e = fl(y - fl(a fl(x - x_r))),
      takes five roundings plus the four inside t: error < 9.1 u S.
    Exactly, a x + b - y = (a x_r + b) - (y - a (x - x_r)).  A line whose
    key lies outside the computed outer window therefore misses the exact
    strip by more than margin - 11.2 u S, and a line whose key lies inside
    the computed inner window lies inside it by more than that.  Any
    margin above 17.3 u S (plus the underflow terms) makes both windows
    exact for the computed predicate; 2**-48 S = 32 u S leaves room for the
    roundings in S itself, and 2**-1000 exceeds the few absolute underflow
    errors.  At x_ref = 0 the keys are the intercepts b and e = y - a x,
    exactly.
    """
    amax = float(np.abs(la).max())
    s = (amax * (float(np.abs(px).max()) + abs(x_ref))
         + float(np.abs(lb).max()) + float(np.abs(py).max())
         + radius * math.sqrt(1.0 + amax * amax))
    return 2.0 ** -48 * s + 2.0 ** -1000


class _Columns:
    """Lines sorted by (column, key) into slots, each column framed by a
    -inf key slot before it and a +inf one after it.

    The caller gives each line its column, a nonnegative integer: _layout
    gives fixed-width slope columns, or one column per distinct slope.
    Only nonempty columns are kept, each with the slope range [a_lo, a_hi]
    of the lines it holds, so any assignment counts exactly; a column of
    one slope has windows without slope uncertainty.  The key of a line
    (a, b) is its height a x_ref + b at the reference abscissa x_ref, 0
    (the intercept) until key_at moves it.  Which column a line is in does
    not depend on x_ref, so moving x_ref reorders lines within their
    columns and keeps every slot of a column in it."""

    def __init__(self, params: np.ndarray, radius: float, col: np.ndarray):
        a, b = params[:, 0], params[:, 1]
        order = np.lexsort((b, col))
        a, b, self.col = a[order], b[order], col[order]
        new = np.diff(self.col, prepend=-1) != 0
        first = np.flatnonzero(new)
        # the i-th sorted line, in the c-th column, goes to slot i + 2c + 1
        self.slot = np.arange(a.size) + 2 * np.cumsum(new) - 1
        self.starts = self.slot[first]
        self.ends = self.starts + np.diff(np.append(first, a.size))
        size = a.size + 2 * first.size
        self.a = np.zeros(size)
        self.b = np.full(size, np.inf)
        self.b[self.starts - 1] = -np.inf
        self.line = np.zeros(size, dtype=np.int64)
        self.a[self.slot], self.b[self.slot] = a, b
        self.line[self.slot] = order
        # keyed at x_ref = 0 the keys are the intercepts: key_at copies
        # them before it moves x_ref
        self.key, self.x_ref = self.b, 0.0
        self.thr = threshold(self.a, radius)
        a_lo = np.minimum.reduceat(a, first)
        a_hi = np.maximum.reduceat(a, first)
        self.a_lo = a_lo.tolist()
        self.a_hi = None if np.array_equal(a_lo, a_hi) else a_hi.tolist()
        abs_hi = np.maximum(np.abs(a_lo), np.abs(a_hi))
        abs_lo = np.where((a_lo <= 0.0) & (a_hi >= 0.0), 0.0,
                          np.minimum(np.abs(a_lo), np.abs(a_hi)))
        self.t_hi = threshold(abs_hi, radius).tolist()
        self.t_lo = threshold(abs_lo, radius).tolist()

    def key_at(self, x_ref: float) -> None:
        """Key the lines at x = x_ref and sort each column by key again.
        The stable sort on (column, key), as a complex number (exact: both
        parts are floats), starts from the previous keying's order, which
        is nearly sorted when the two abscissas are close."""
        if x_ref == self.x_ref:
            return
        if self.key is self.b:
            self.key = self.b.copy()
        self.x_ref = x_ref
        s = self.slot
        key = self.a[s] * x_ref
        key += self.b[s]
        by = np.empty(s.size, dtype=np.complex128)
        by.real, by.imag = self.col, key
        perm = np.argsort(by, kind="stable")
        src = s[perm]
        self.key[s] = key[perm]
        for v in (self.a, self.b, self.line, self.thr):
            v[s] = v[src]

    def count(self, x: np.ndarray, y: np.ndarray, margin: float,
              base: Optional[np.ndarray] = None):
        """Richness of the points (x, y) and, given base, the list of
        arrays of the keys base[point] + line of their incidences (None
        without base).

        With d = x - x_ref, a line (a, b) of key Y = a x_ref + b is incident
        iff e(a) - t(a) <= Y <= e(a) + t(a), for e(a) = y - a d and the
        threshold t(a) = r sqrt(1 + a^2).  For a column's slopes
        [a_lo, a_hi], e(a) is linear in a with range [e_min, e_max], of
        length (a_hi - a_lo) |d|, and t(a) has range [t_lo, t_hi].  So every
        incident line has its key in the outer window [e_min - t_hi,
        e_max + t_hi), widened by the margin, and every key in the inner
        window [e_max - t_lo, e_min + t_lo), narrowed by it, is incident.
        The outer window is found by binary search.  It holds only sure
        hits, counted by index difference, when its first line is at or
        above the inner start and its last line below the inner end (past
        a column's ends the sentinels keep both true); otherwise, or when
        the pairs are wanted, its lines are tested on (a, b, x, y) by
        planar.incident.  The windows to test are collected column by
        column and tested as soon as they hold _TEST_LINES lines, in blocks
        of whole windows of about that many lines (or one longer window);
        the windows past the last full block wait for the next columns'.
        So besides its output the call holds about one block and one
        column's windows, whatever the number of columns."""
        k, with_pairs = x.size, base is not None
        richness = np.zeros(k, dtype=np.int64)
        keys = [np.zeros(0, dtype=np.int64)]
        d = x - self.x_ref if self.x_ref else x
        q = np.empty((2, k))
        # (first slot, length, point) of the windows not yet tested, and
        # their number of lines
        held, lines = [], 0
        for c, (lo, hi) in enumerate(zip(self.starts.tolist(),
                                         self.ends.tolist())):
            e_min = e_max = y - self.a_lo[c] * d
            if self.a_hi is not None:
                e2 = y - self.a_hi[c] * d
                e_min = np.minimum(e_max, e2)
                e_max = np.maximum(e_max, e2, out=e2)
            outer = self.t_hi[c] + margin
            inner = self.t_lo[c] - margin
            np.subtract(e_min, outer, out=q[0])
            np.add(e_max, outer, out=q[1])
            p0, p1 = np.searchsorted(self.key[lo:hi], q)
            richness += p1
            richness -= p0
            test = self.key[lo:hi + 1][p0] < e_max - inner
            test |= self.key[lo - 1:hi][p1] >= e_min + inner
            if with_pairs:
                test |= p1 > p0
            pick = np.flatnonzero(test)
            if pick.size:
                held.append((p0[pick] + lo, p1[pick] - p0[pick], pick))
                lines += int(held[-1][1].sum())
                if lines >= _TEST_LINES:
                    held, lines = self._test(held, x, y, base, richness,
                                             keys)
        if held:
            self._test(held, x, y, base, richness, keys, last=True)
        return richness, keys if with_pairs else None

    def _test(self, held: list, x: np.ndarray, y: np.ndarray,
              base: Optional[np.ndarray], richness: np.ndarray,
              keys: list, last: bool = False) -> Tuple[list, int]:
        """Test the lines of the windows held, (first slot, length, point)
        triples, on (a, b, x, y), in blocks of whole windows that hold
        about _TEST_LINES lines (or one longer window): subtract each
        point's misses from richness and, given base, append the keys
        base[point] + line of its hits to keys.  Unless last, the windows
        after the last full block are left untested, and returned as the
        held windows and their number of lines, to start the next block."""
        first, length, pt = (np.concatenate(w) for w in zip(*held))
        cuts = np.searchsorted(np.cumsum(length), np.arange(
            _TEST_LINES, length.sum(), _TEST_LINES), "right").tolist()
        bounds = [0, *cuts, first.size] if last else [0, *cuts]
        for lo, hi in zip(bounds, bounds[1:]):
            slot = _runs(first[lo:hi], length[lo:hi])
            p = np.repeat(pt[lo:hi], length[lo:hi])
            hit = incident(x[p], y[p], self.a[slot], self.b[slot],
                           self.thr[slot])
            if base is not None:
                key = base[p[hit]]
                key += self.line[slot[hit]]
                keys.append(key)
            np.logical_not(hit, out=hit)
            richness -= np.bincount(p[hit], minlength=richness.size)
        rest = bounds[-1]
        return [(first[rest:], length[rest:], pt[rest:])], int(
            length[rest:].sum())


def _layout(px: np.ndarray, la: np.ndarray, radius: float,
            with_pairs: bool) -> Tuple[int, float, np.ndarray]:
    """The number of point groups of count_bucketed, the width of the x
    strips that order its points, and the column of each line, for points
    of abscissas px, lines of slopes la and the radius r.

    A count-only call whose m lines take at most _SLOPE_COLUMNS sqrt m
    distinct slopes gets one column per slope and one group: its windows
    are exact wherever the lines are keyed, so they are keyed at x = 0.
    Otherwise the columns are max(r, slope span / sqrt m) wide, at most
    sqrt m + 1 of them, and so are the strips.  Above one chunk of points
    they are twice as wide, which halves the binary searches, with 2 width
    (x span) / r groups of equal numbers of points.  A group then spans
    r / (2 width) in x on average; keyed at its middle, a column's window
    is uncertain by width |x - x_r| <= r / 4, so few windows straddle the
    strip's edges.  Each group re-keys the lines and passes over the
    columns, so a group keeps at least _GROUP_POINTS points."""
    n, m = px.size, la.size
    lo = float(la.min())
    width = max(radius, (float(la.max()) - lo) / math.sqrt(m))
    if not with_pairs:
        a = np.sort(la)
        starts = a[1:][a[1:] != a[:-1]]  # every distinct slope but the least
        if starts.size + 1 <= _SLOPE_COLUMNS * math.sqrt(m):
            return 1, width, np.searchsorted(starts, la, "right")
    groups = 1
    if n > _CHUNK_POINTS:
        width *= 2.0
        groups = max(1, math.ceil(min(
            2.0 * width * float(px.max() - px.min()) / radius,
            n // _GROUP_POINTS)))
    return groups, width, np.floor((la - lo) / width).astype(np.int64)


def count_bucketed(P: PointSet, L: LineFamily, s: Scale,
                   with_pairs: bool = False) -> IncidenceReport:
    """Same output as count_naive for every finite input.  A call of at
    most _EXHAUSTIVE_PAIRS (point, line) pairs, or _EXHAUSTIVE_WITH_PAIRS
    with_pairs, tests them all, with count_naive's kernel; a larger one
    goes through the slope columns of _Columns.  Raises ValueError for
    coordinates or a radius that are not finite or exceed 2**255 in
    magnitude, whatever the size."""
    _check_magnitude("count_bucketed", s.radius, P.coords, L.params)
    cut = _EXHAUSTIVE_WITH_PAIRS if with_pairs else _EXHAUSTIVE_PAIRS
    if len(P) * len(L) <= cut:
        return _count_exhaustive(P, L, s, with_pairs)
    return _count_columns(P, L, s, with_pairs)


def _check_magnitude(caller: str, radius: float, *coords: np.ndarray) -> None:
    """Raise ValueError unless the radius and coordinates of an instance
    with no empty array are finite and at most _MAX_MAGNITUDE in magnitude."""
    if all(c.size for c in coords) and not all(
            np.all(np.abs(v) <= _MAX_MAGNITUDE) for v in (*coords, radius)):
        raise ValueError(f"{caller} needs finite coordinates and radius of "
                         f"magnitude at most 2**255")


def _count_columns(P: PointSet, L: LineFamily, s: Scale,
                   with_pairs: bool = False) -> IncidenceReport:
    """count_bucketed's column path, for any size of input count_bucketed
    accepts."""
    n, m = len(P), len(L)
    richness = np.zeros(n, dtype=np.int64)
    keys = [np.zeros(0, dtype=np.int64)]
    if n and m:
        px, py = P.coords[:, 0], P.coords[:, 1]
        la, lb = L.params[:, 0], L.params[:, 1]
        groups, width, col = _layout(px, la, s.radius, with_pairs)
        cols = _Columns(L.params, s.radius, col)
        # points by strips of x, then by y: the queries y - a (x - x_ref) of
        # a column then come nearly sorted, which keeps the branches of the
        # binary searches predictable.  Groups are runs of this order, each
        # keyed at the middle of its x-range unless every column holds one
        # slope.
        porder = np.lexsort((py, np.floor(px / width)))
        bounds = [n * g // groups for g in range(groups + 1)]
        refs = [0.0] * groups
        if n > _CHUNK_POINTS and cols.a_hi is not None:
            xs = px[porder]
            refs = [(float(xs[lo:hi].min()) + float(xs[lo:hi].max())) / 2.0
                    for lo, hi in zip(bounds, bounds[1:])]
        margin = _float_margin(px, py, la, lb, s.radius,
                               max(abs(r) for r in refs))
        for g, x_ref in enumerate(refs):
            cols.key_at(x_ref)
            for lo in range(bounds[g], bounds[g + 1], _CHUNK_POINTS):
                idx = porder[lo:min(lo + _CHUNK_POINTS, bounds[g + 1])]
                rich, found = cols.count(px[idx], py[idx], margin,
                                         idx * m if with_pairs else None)
                richness[idx] = rich
                if with_pairs:
                    keys += found
    key = None
    if with_pairs:
        # the blocks' keys go before the pairs are built
        key = np.concatenate(keys)
        del keys
        key.sort()
    return _report(richness, key, m, s)


def count_incidences(P: PointSet, L: LineFamily, s: Scale,
                     with_pairs: bool = False,
                     verify: bool = False) -> IncidenceReport:
    """count_bucketed's report; with verify=True, the column path's report
    with pairs, asserted equal to the oracle count_naive's: count, richness
    and every pair.  verify runs the column path at every size, as below
    its cut count_bucketed would run the oracle's own kernel.  Raises
    AssertionError when they differ."""
    if not verify:
        return count_bucketed(P, L, s, with_pairs=with_pairs)
    _check_magnitude("count_incidences", s.radius, P.coords, L.params)
    rep = _count_columns(P, L, s, with_pairs=True)
    if not rep.same_as(count_naive(P, L, s, with_pairs=True)):
        raise AssertionError("column and naive engines disagree")
    return rep


def max_concurrency(L: LineFamily, p: Point2, s: Scale) -> int:
    """Number of lines of L incident to p at radius C * delta."""
    if not p.in_unit_square():
        raise ValueError(f"query point {p} outside the unit square")
    a, b = L.params[:, 0], L.params[:, 1]
    return int(np.count_nonzero(incident(p.x, p.y, a, b,
                                         threshold(a, s.radius))))


@dataclass
class RichPointResult:
    """delta-separated points found incident to >= k lines.

    Richness is certified on the delta-grid at multiplier C + 1 (any true
    k-rich point lies within delta/sqrt(2) of a grid point that is k-rich
    at the bumped multiplier, so the grid scan is a superset certificate);
    `used_multiplier` records the bump.
    """

    k: int
    points: PointSet
    bound_constant: float
    used_multiplier: float


def _clipped(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """v clipped to [lo, hi] in place, as floats, then cast to int64: a value
    beyond the int64 range is never cast."""
    np.minimum(v, hi, out=v)
    np.maximum(v, lo, out=v)
    return v.astype(np.int64)


# A batch of at most _DIRECT rows tests all its pairs with pred instead of
# asking near, and only its kept rows look ahead; (_DIRECT_A, _DIRECT_B) are
# the pairs a < b < _DIRECT ordered by b, so those of a batch of u rows are
# the first u (u - 1) / 2.  No batch holds more than _MAX_BATCH rows.
_DIRECT = 32
_DIRECT_B, _DIRECT_A = np.tril_indices(_DIRECT, -1)
_MAX_BATCH = 1 << 12


def _first_come(n: int, near: Callable, pred: Callable) -> np.ndarray:
    """The rows kept by the first-come scan of rows 0, ..., n - 1: row j is
    dropped when an earlier kept row o has pred(o, j), and kept otherwise.

    pred(o, j) tests arrays of pairs; near(rows) returns candidate pairs
    (o, j), o in rows, among which is every pair with o < j that pred
    accepts.  Each step takes the next batch of undecided rows, resolves
    it exactly against itself, then marks as covered the later rows that
    its kept rows accept.

    The batch size follows the share of its rows a batch keeps.  Batches
    start at _DIRECT rows and grow fourfold while they keep every row, so
    a sparse input is decided in a few vectorised steps.  A grown batch,
    of more than _DIRECT rows, is kept whole when no pair that pred accepts
    ends inside it; otherwise it keeps and covers nothing, and the scan
    restarts at its first row with a batch of _DIRECT rows, which
    _resolve_small decides.  A batch keeping at least 1/8 of its rows is
    followed by one of _DIRECT rows.  Below that, one kept row covers most
    of what follows it, and the scan goes on one row at a time (the first
    undecided row is always kept), trying a batch of _DIRECT rows again
    after 1, 2, 4, ... up to 64 rows."""
    covered = np.zeros(n, dtype=bool)
    kept = []
    start, size, wait, backoff = 0, _DIRECT, 0, 1
    while start < n:
        ahead = covered[start:start + 4 * size + 64]
        rows = start + np.flatnonzero(~ahead)[:size]
        stop = int(rows[-1]) + 1 if rows.size == size else start + ahead.size
        start = stop
        if rows.size == 0:
            continue
        if rows.size <= _DIRECT:
            keep = _resolve_small(rows, pred)
            o, j = near(rows[keep])
            live = j >= stop
            live &= ~covered[j]
            o, j = o[live], j[live]
            covered[j[pred(o, j)]] = True
        else:
            o, j = near(rows)
            live = j > o
            live &= ~covered[j]
            o, j = o[live], j[live]
            j = j[pred(o, j)]
            if (j < stop).any():
                start, size = int(rows[0]), _DIRECT
                continue
            covered[j] = True
            keep = np.ones(rows.size, dtype=bool)
        kept.append(rows[keep])
        n_kept = int(np.count_nonzero(keep))
        if rows.size == 1:
            wait -= 1
            if wait <= 0:
                size = _DIRECT
        elif n_kept == rows.size:
            size, backoff = min(4 * size, _MAX_BATCH), 1
        elif 8 * n_kept >= rows.size:
            size, backoff = _DIRECT, 1
        else:
            size, wait, backoff = 1, backoff, min(2 * backoff, 64)
    if not kept:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(kept).astype(np.int64, copy=False)


def _resolve_small(rows: np.ndarray, pred: Callable) -> np.ndarray:
    """Keep mask of a batch of at most _DIRECT rows under the first-come
    rule: pred tests all its pairs, then one pass over the rows keeps those
    that no kept row points at, with the pointing rows as a bit mask."""
    u = rows.size
    if u == 1:
        return np.ones(1, dtype=bool)
    m = u * (u - 1) // 2
    src, dst = _DIRECT_A[:m], _DIRECT_B[:m]
    hit = pred(rows[src], rows[dst])
    points = np.zeros((u, _DIRECT), dtype=bool)
    points[dst[hit], src[hit]] = True
    kept_bits = 0
    for r, bits in enumerate(np.packbits(points, axis=1, bitorder="little")
                             .view("<u4").ravel().tolist()):
        if not bits & kept_bits:
            kept_bits |= 1 << r
    return (kept_bits >> np.arange(u)) & 1 == 1


def _hypot_below(dx: np.ndarray, dy: np.ndarray, bound: float) -> np.ndarray:
    """math.hypot(dx, dy) < bound, elementwise.  np.hypot and math.hypot
    are each within one ulp of the exact value, so np.hypot decides every
    pair away from the bound; the others are re-tested with math.hypot,
    except those with a zero component, where both give |dx| + |dy|."""
    d = np.hypot(dx, dy)
    below = d < bound
    d -= bound
    border = np.flatnonzero(np.abs(d, out=d) <= bound * 2.0 ** -40)
    if border.size:
        border = border[(dx[border] != 0.0) & (dy[border] != 0.0)]
        for k in border.tolist():
            below[k] = math.hypot(dx[k], dy[k]) < bound
    return below


def _greedy_separated(coords: np.ndarray, delta: float) -> np.ndarray:
    """First-come greedy extraction of a delta-separated subset, scanning
    the rows in the given order; returns the kept row indices.

    A row is dropped when math.hypot(row - kept) < delta for a kept row in
    one of the 3 x 3 cells of side delta around its own (cells floor(x /
    delta) as floats)."""
    n = coords.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    _check_finite(coords)
    cells = np.floor(coords * (1.0 / delta))
    if not np.isfinite(cells).all():
        raise ValueError(f"coordinates too large for cells of side {delta!r}")
    x, y = coords[:, 0], coords[:, 1]
    cx, cy = cells[:, 0], cells[:, 1]

    def pred(o, j):
        hit = _hypot_below(x[j] - x[o], y[j] - y[o], delta)
        o, j = o[hit], j[hit]
        hit[hit] = (np.abs(cx[j] - cx[o]) <= 1.0) & (np.abs(cy[j] - cy[o]) <= 1.0)
        return hit

    return _first_come(n, _CellHash(cells[:, :1], cy, cy - 1.0, cy + 1.0),
                       pred)


@dataclass
class RichnessField:
    """The delta-lattice points of positive richness at the bumped
    multiplier, in row-major order, with their richness; reusable across
    k thresholds."""

    coords: np.ndarray
    richness: np.ndarray
    used_multiplier: float


# Most points of grid_richness's lattice, whose output holds up to 24
# bytes a point.  The largest lattice of the defaults, criteria and
# benchmark has 2049^2 = 4,198,401 points (criterion 3's k-stars at 2^-10).
RICHNESS_LATTICE_CAP = 2 ** 24
# Most (line, lattice column) entries grid_richness scans, each a few dozen
# float operations.  One in-process call on the rectangle family (CPU time):
#     delta  ratio  entries  time
#     2^-7   x1     2^22.3   0.17 s
#     2^-8   x1     2^25.2   0.97 s
#     2^-9   x4     2^24.1   0.58 s
#     2^-9   x1     2^28.1   10 s (a whole CLI run)
# The largest call in use is 2^19.4 entries (the rectangle at 2^-6 x1: the
# rich-points default, criterion 3 and planar-large's rich scan); the k-star
# calls take at most 2^16.
RICHNESS_WORK_CAP = 2 ** 26
# Lattice entries (line, column) that grid_richness handles at a time, and
# the lattice columns among them.
_GRID_BLOCK = 1 << 15
_GRID_COLUMNS = 32


def grid_richness(L: LineFamily, s: Scale) -> RichnessField:
    """The points of the delta-lattice xs = -1 + delta * (0, ..., n - 1) of
    [-1, 1]^2, n = floor(2 / delta) + 1, incident to a line at multiplier
    C + 1, with their richness, in row-major (ix, iy) order.  Raises
    ValueError for line parameters or a radius that are not finite or
    exceed 2**255 in magnitude, and GridTooLarge for a lattice of more than
    RICHNESS_LATTICE_CAP points or a scan of more than RICHNESS_WORK_CAP
    (line, lattice column) entries.

    Lines and columns go in blocks of about _GRID_BLOCK entries.  For a
    line (a, b) and column x, yc = a x + b and the threshold
    t = threshold(a, r) are computed as planar.incident computes them, and
    the rows y = xs[j] it counts are those with -t <= yc - y <= t: the one
    place that writes the incidence test in another form, an interval of
    rows, which the tests check against count_naive.  As xs does
    not decrease and float subtraction is monotone, yc - xs[j] does not
    increase with j, so those rows are one interval [j_lo, j_end), its
    ends the first rows with yc - xs[j] <= t and < -t.  The rows
    ceil((yc - t + 1) / delta) and floor((yc + t + 1) / delta) + 1 estimate
    them, and planar._first_true settles the estimates.  Each column adds
    +1 at j_lo and -1 at j_end to a difference array, whose cumulative sum
    over j is the richness."""
    used = s.multiplier + 1.0
    if not len(L):
        return RichnessField(np.empty((0, 2)), np.zeros(0, dtype=np.int64),
                             used)
    delta, radius = s.delta, used * s.delta
    la, lb = L.params[:, 0], L.params[:, 1]
    _check_magnitude("grid_richness", radius, L.params)
    # n <= isqrt(cap) iff n^2 <= cap; the test also refuses 2 / delta = inf
    if not 2.0 / delta < math.isqrt(RICHNESS_LATTICE_CAP):
        raise GridTooLarge(f"the rich-point lattice at delta={delta:g} would "
                           f"hold more than {RICHNESS_LATTICE_CAP} points")
    npts = int(math.floor(2.0 / delta)) + 1
    if len(L) * npts > RICHNESS_WORK_CAP:
        raise GridTooLarge(f"the rich-point scan at delta={delta:g} would "
                           f"take {len(L)} lines x {npts} lattice columns, "
                           f"more than {RICHNESS_WORK_CAP} entries")
    xs = -1.0 + delta * np.arange(npts)
    # x_ext[1 + j] = xs[j], -inf at j = -1 and inf at j = n, as [0, n] needs
    x_ext = np.concatenate([[-np.inf], xs, [np.inf]])

    def rows_past(yc, t, below):
        """Whether below(yc - xs[j + d], t), for _first_true."""
        t = np.broadcast_to(t, yc.shape)

        def pred(s, j, d):
            x = x_ext[1 + d:].take(j)
            return below(np.subtract(yc[s], x, out=x), t[s])
        return pred

    thr = threshold(la, radius)[:, None]
    width = npts + 1  # a difference array's row: rows 0..n-1 and an end
    cols = min(npts, _GRID_COLUMNS)
    lines = max(1, _GRID_BLOCK // cols)
    coords, richness = [], []
    for c0 in range(0, npts, cols):
        x = xs[c0:c0 + cols]
        base = width * np.arange(x.size)
        rich = np.zeros(x.size * width, dtype=np.int64)
        for l0 in range(0, len(L), lines):
            sl = slice(l0, l0 + lines)
            yc = la[sl, None] * x
            yc += lb[sl, None]
            t = thr[sl]
            j_lo = _clipped(np.ceil((yc - t + 1.0) / delta), 0, npts)
            j_end = _clipped(np.floor((yc + t + 1.0) / delta) + 1.0, 0, npts)
            _first_true(rows_past(yc, t, np.less_equal), j_lo, 0, npts)
            _first_true(rows_past(yc, -t, np.less), j_end, 0, npts)
            # j_end >= j_lo as -t <= t, so an empty interval has
            # j_end == j_lo and its +1 and -1 cancel
            j_lo += base
            j_end += base
            rich += np.bincount(j_lo.ravel(), minlength=rich.size)
            rich -= np.bincount(j_end.ravel(), minlength=rich.size)
        rich = np.cumsum(rich.reshape(x.size, width)[:, :npts], axis=1)
        keep = np.flatnonzero(rich > 0)
        coords.append(np.column_stack([x[keep // npts], xs[keep % npts]]))
        richness.append(rich.ravel()[keep])
    return RichnessField(np.concatenate(coords), np.concatenate(richness),
                         used)


def k_rich_points(L: LineFamily, k: int, s: Scale,
                  field: Optional[RichnessField] = None) -> RichPointResult:
    """Scan the delta-grid of the unit square for points incident to >= k
    lines (at multiplier C + 1), then greedily extract a delta-separated
    subset in row-major order."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if field is None:
        field = grid_richness(L, s)
    if len(L) == 0 or field.coords.shape[0] == 0:
        return RichPointResult(k, PointSet(np.empty((0, 2)), s.delta), 0.0,
                               field.used_multiplier)
    rich = field.coords[field.richness >= k]
    kept = _greedy_separated(rich, s.delta)
    pts = PointSet(rich[kept], s.delta)
    const = len(pts) * k ** 3 * L.epsilon / len(L) ** 2
    return RichPointResult(k, pts, const, field.used_multiplier)
