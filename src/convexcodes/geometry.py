"""Exact rational interval arrangements on the line and the circle.

The circle is modeled as [0, 1) with unit circumference; an arc runs
clockwise from lo to hi and may wrap around.  On the line an endpoint of
None denotes a ray (unbounded on that side), and a ray side is never
closed.  All arithmetic is done with fractions.Fraction; there are no
tolerances anywhere.  Row reads, endpoint sorts, bisections and the
swaps' margin order rationals by one exact integer key, _key, and tell
distinct values apart by their lowest terms: none compares or hashes a
Fraction unless two values lie within 2^-64 of each other, and the
margin subtracts only the differences whose floor keys put them within
a few units of 2^-64 of the least.  Dense extraction compares only the
order of the endpoints: it reads integer places, one per endpoint and
one per region between and beyond them, and makes no Fraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    BitVector,
    Code,
    Density,
    Geometry,
    Regime,
    RegimeViolation,
    SensorMatrix,
    ensure,
    regime_check,
    row_stats,
)


class DegenerateInterval(ValueError):
    """An interval violates the preconditions of a topology operation."""


class Kind(Enum):
    PROPER = "proper"
    EMPTY = "empty"
    WHOLE = "whole"


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _key(x) -> tuple[int, Fraction]:
    """The exact order key of a rational x: floor(x * 2^64) never
    decreases as x grows, so the keys compare as the rationals do, in C,
    and x itself is compared only against a value within 2^-64 of it."""
    return (x.numerator << 64) // x.denominator, x


@dataclass(frozen=True)
class Interval1D:
    """One interval (or arc): Proper with endpoint data, or Empty / Whole.

    For Proper line intervals, lo/hi of None mean the interval is a ray
    on that side; a ray side is never closed.  For Proper circle arcs,
    lo and hi lie in [0, 1) and the arc runs clockwise from lo to hi.
    """

    kind: Kind
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_closed: bool = False
    hi_closed: bool = False

    @classmethod
    def proper(cls, lo, hi, lo_closed=False, hi_closed=False) -> "Interval1D":
        if (lo is None and lo_closed) or (hi is None and hi_closed):
            raise DegenerateInterval("a ray side cannot be closed")
        lo = None if lo is None else _frac(lo)
        hi = None if hi is None else _frac(hi)
        if lo is not None and hi is not None and lo == hi:
            if not (lo_closed and hi_closed):
                raise DegenerateInterval("coincident endpoints must be closed")
        return cls(Kind.PROPER, lo, hi, lo_closed, hi_closed)

    @classmethod
    def open(cls, lo, hi) -> "Interval1D":
        return cls.proper(lo, hi, False, False)

    @classmethod
    def closed(cls, lo, hi) -> "Interval1D":
        return cls.proper(lo, hi, True, True)

    @classmethod
    def empty(cls) -> "Interval1D":
        return cls(Kind.EMPTY)

    @classmethod
    def whole(cls) -> "Interval1D":
        return cls(Kind.WHOLE)

    def contains(self, p: Fraction, geometry: Geometry) -> bool:
        if self.kind is Kind.EMPTY:
            return False
        if self.kind is Kind.WHOLE:
            return True
        p = _frac(p)
        if geometry is Geometry.LINE:
            if self.lo is not None:
                if p < self.lo or (p == self.lo and not self.lo_closed):
                    return False
            if self.hi is not None:
                if p > self.hi or (p == self.hi and not self.hi_closed):
                    return False
            return True
        lo, hi = self.lo, self.hi
        if lo == hi:
            return p == lo  # point arc, both ends closed by construction
        if lo < hi:
            inside = lo < p < hi
        else:
            inside = p > lo or p < hi
        if inside:
            return True
        if p == lo:
            return self.lo_closed
        if p == hi:
            return self.hi_closed
        return False

    def endpoints(self) -> list[Fraction]:
        if self.kind is not Kind.PROPER:
            return []
        return [e for e in (self.lo, self.hi) if e is not None]


@dataclass(frozen=True)
class IntervalArrangement:
    intervals: tuple[Interval1D, ...]
    geometry: Geometry

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if self.geometry is Geometry.CIRCLE:
            for iv in self.intervals:
                if iv.kind is Kind.PROPER:
                    if iv.lo is None or iv.hi is None:
                        raise DegenerateInterval("circle arcs need both endpoints")
                    if not (0 <= iv.lo < 1 and 0 <= iv.hi < 1):
                        raise DegenerateInterval("arc endpoints must lie in [0, 1)")

    @property
    def k(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class SensorSet:
    positions: tuple[Fraction, ...]
    # the positions' order keys, made once for every row read and margin
    keys: tuple[tuple[int, Fraction], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # strictly increasing: the bisections of _row_mask rely on it
        keys = tuple(_key(p) for p in self.positions)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("sensor positions must be distinct and sorted")
        object.__setattr__(self, "keys", keys)

    @classmethod
    def of(cls, positions: Iterable) -> "SensorSet":
        return cls(tuple(sorted(_frac(p) for p in positions)))

    def __len__(self) -> int:
        return len(self.positions)


def evaluate_codeword(arr: IntervalArrangement, p) -> BitVector:
    """Which intervals of arr contain the point p."""
    p = _frac(p)
    return BitVector.from_bits(
        1 if iv.contains(p, arr.geometry) else 0 for iv in arr.intervals
    )


def _row_mask(iv: Interval1D, keys: Sequence[tuple[int, Fraction]],
              geometry: Geometry) -> int:
    """Mask of the sensors at the sorted keys that iv contains: one index
    range, found by bisecting on the keys of its ends, or two when an
    arc wraps."""
    if iv.kind is not Kind.PROPER:
        return (1 << len(keys)) - 1 if iv.kind is Kind.WHOLE else 0
    lo = None if iv.lo is None else _key(iv.lo)
    hi = None if iv.hi is None else _key(iv.hi)
    i = 0 if lo is None else (
        bisect_left if iv.lo_closed else bisect_right)(keys, lo)
    j = len(keys) if hi is None else (
        bisect_right if iv.hi_closed else bisect_left)(keys, hi)
    if geometry is Geometry.CIRCLE and lo > hi:
        # the arc wraps past 0: sensors from i on, and those before j
        return ((1 << len(keys)) - (1 << i)) | ((1 << j) - 1)
    return ((1 << (j - i)) - 1) << i if j > i else 0


def _ends(arr: IntervalArrangement) -> list[tuple[int, Fraction]]:
    """The keys of the distinct endpoints of arr, sorted.  A Fraction is
    in lowest terms, so (numerator, denominator) tells values apart
    exactly without hashing them."""
    ends = {(e.numerator, e.denominator): e
            for iv in arr.intervals for e in iv.endpoints()}
    return sorted(map(_key, ends.values()))


def _rows(arr: IntervalArrangement, sensors: SensorSet) -> list[int]:
    """The row masks of arr at the sensors."""
    ps = sensors.positions
    circle = arr.geometry is Geometry.CIRCLE
    if circle and ps and not (0 <= ps[0] and ps[-1] < 1):
        raise ValueError("circle sensor positions must lie in [0, 1)")
    return [_row_mask(iv, sensors.keys, arr.geometry)
            for iv in arr.intervals]


def extract_code_sparse(
    arr: IntervalArrangement, sensors: SensorSet
) -> tuple[Code, SensorMatrix]:
    """The code seen by a finite sensor set, with its matrix.  The rows
    cost O(k log n) bisections for k intervals and n sensors; the columns
    are their transpose."""
    ps = sensors.positions
    rows = [BitVector(len(ps), mask) for mask in _rows(arr, sensors)]
    m = (SensorMatrix(rows, arr.geometry) if rows else  # k = 0 keeps n columns
         SensorMatrix.from_columns([BitVector(0)] * len(ps), arr.geometry,
                                   k=0))
    return m.column_set(), m


def _dense_columns(arr: IntervalArrangement,
                   ends: list[tuple[int, Fraction]]) -> set[int]:
    """The dense code of arr as column masks, bit i for interval i.  The
    i-th of the m sorted distinct endpoints ends = _ends(arr), from 0,
    becomes the place 2i + 1, and the places 0..2m are each endpoint and
    each region beside one; on the circle, 0 and 2m are the region
    across 0.  Each interval toggles its bit at the first place it holds
    and just past the last, a wrapping arc also at 0, and each column is
    the previous one with its place's toggles applied."""
    place = {(e.numerator, e.denominator): 2 * i + 1
             for i, (_, e) in enumerate(ends)}
    top = 2 * len(ends)
    circle = arr.geometry is Geometry.CIRCLE
    toggles = [0] * (top + 2)
    for r, iv in enumerate(arr.intervals):
        bit = 1 << r
        if iv.kind is not Kind.PROPER:
            if iv.kind is Kind.WHOLE:
                toggles[0] ^= bit
            continue
        a = 0 if iv.lo is None else place[iv.lo.numerator, iv.lo.denominator]
        b = top if iv.hi is None else place[iv.hi.numerator, iv.hi.denominator]
        i = a + (iv.lo is not None and not iv.lo_closed)
        j = b + (iv.hi is None or iv.hi_closed)
        if circle and a > b:
            # the arc wraps past 0: places from i on, and those before j
            toggles[i] ^= bit
            toggles[0] ^= bit
            toggles[j] ^= bit
        elif i < j:
            toggles[i] ^= bit
            toggles[j] ^= bit
    columns = set()
    col = 0
    for t in toggles[:top + 1]:
        col ^= t
        columns.add(col)
    return columns


def extract_code_dense(arr: IntervalArrangement) -> Code:
    """The full image of the codeword map over the ambient space, read
    at integer places from the order of the endpoints alone."""
    return Code(frozenset(BitVector(arr.k, c)
                          for c in _dense_columns(arr, _ends(arr))), arr.k)


def realize_matrix(
    m: SensorMatrix, regime: Regime
) -> tuple[IntervalArrangement, SensorSet]:
    """The epsilon-construction: one sensor per column, one open interval
    (or arc) per row.

    Line: sensors at 1..n, a 1-block spanning columns i..j becomes the
    open interval (i - 1/4, j + 1/4).  Circle: sensors at (t-1)/n with
    margin 1/(4n).  All-zero rows become Empty, all-one rows Whole.

    The sparse round trip is exact for every matrix accepted here.  The
    dense round trip additionally requires the column set to be
    dense-complete (equal to its own dense extraction).
    """
    if not regime_check(m, regime):
        raise RegimeViolation("matrix fails the %s signature" % regime.name)
    n = m.n
    circle = regime.geometry is Geometry.CIRCLE
    if circle and n == 0:
        raise RegimeViolation("cannot realize a zero-column circular matrix")
    sensors = SensorSet(tuple(Fraction(t, n) if circle else Fraction(t + 1)
                              for t in range(n)))
    ivs: list[Interval1D] = []
    for r in m.rows:
        if r.is_zero:
            ivs.append(Interval1D.empty())
        elif r.is_ones:
            ivs.append(Interval1D.whole())
        else:
            # lo is the (g mod n + 1)-th sensor less the margin, hi the
            # f-th plus it, each one rational (1 <= f <= n; g < n on the
            # line), the circle's taken into [0, 1)
            f, g = row_stats(r, regime.geometry)
            if circle:
                lo = Fraction((4 * (g % n) - 1) % (4 * n), 4 * n)
                hi = Fraction(4 * f - 3, 4 * n)
            else:
                lo, hi = Fraction(4 * g + 3, 4), Fraction(4 * f + 1, 4)
            ivs.append(Interval1D.open(lo, hi))
    arr = IntervalArrangement(tuple(ivs), regime.geometry)
    ensure(_rows(arr, sensors) == [r.mask for r in m.rows],
           "sparse round trip failed")
    return arr, sensors


def normalize_arbitrary(
    arr: IntervalArrangement, sensors: SensorSet
) -> IntervalArrangement:
    """Snap every interval to the sensors: half-open [a, b) with both
    endpoints at sensors.

    An interval detecting no sensor is discarded; one detecting every
    sensor becomes the whole space.  On the line, an interval detecting
    the first (resp. last) sensor is extended to a ray on that side, so
    that every point of the line sees exactly what its nearest sensor in
    the code direction sees.  Consequence: the sparse code is unchanged
    and the dense code of the result equals the original sparse code.
    """
    if not sensors.positions:
        raise ValueError("sensor set must be nonempty")
    ps = sensors.positions
    n = len(ps)
    full = (1 << n) - 1
    before = _rows(arr, sensors)
    out: list[Interval1D] = []
    for mask in before:
        if mask == 0:
            out.append(Interval1D.empty())
        elif mask == full:
            out.append(Interval1D.whole())
        else:
            f, g = row_stats(BitVector(n, mask), arr.geometry)
            if arr.geometry is Geometry.LINE:
                lo = None if g == 0 else ps[g]
                hi = None if f == n else ps[f]
            else:
                lo, hi = ps[g % n], ps[f % n]
            out.append(Interval1D.proper(lo, hi, lo is not None, False))
    result = IntervalArrangement(tuple(out), arr.geometry)
    ensure(_rows(result, sensors) == before,
           "normalization changed the sparse code")
    return result


# one turn of the circle in floor keys: floor((x + 1) 2^64) is
# floor(x 2^64) + _TURN
_TURN = 1 << 64


def _least(cands: list[tuple[int, Fraction, Fraction, int]],
           cap: Optional[Fraction] = None) -> Fraction:
    """The least of cap and of the differences b - a + w over the
    (d, b, a, w) in cands, d = floor(b 2^64) - floor(a 2^64) + w _TURN.
    d is floor((b - a + w) 2^64) or one more, so a candidate whose d
    exceeds the least d, or cap's floor key, by 2 or more is larger than
    that one: only the others are subtracted exactly."""
    floors = [d for d, _, _, _ in cands]
    if cap is not None:
        floors.append(_key(cap)[0])
    bound = min(floors) + 1
    near = [b - a + w if w else b - a for d, b, a, w in cands if d <= bound]
    if cap is not None:
        near.append(cap)
    return min(near)


def _margin(arr: IntervalArrangement, ends: list[tuple[int, Fraction]],
            sensors: Optional[SensorSet]) -> Fraction:
    """The swaps' margin: a quarter of the smallest gap between the
    distinct endpoints ends = _ends(arr) (cyclic on the circle; 1/4 with
    none), capped with sensors at the smallest positive distance from an
    endpoint to a sensor (cyclic on the circle), so no sensor crosses an
    end.  A sensor the margin lands on stays on the side it was: a closed
    end keeps it, an open end leaves it out.  Each interval's length, and
    each closed arc's complement, is a sum of gaps (the wrap gap
    included) or, for a point arc, 1: the margin is at most a quarter of
    each, so no swap overruns an interval.  Both minima are picked by
    floor keys first (_least)."""
    circle = arr.geometry is Geometry.CIRCLE
    gaps = [(fb - fa, b, a, 0) for (fa, a), (fb, b) in zip(ends, ends[1:])]
    if circle and ends:
        (f0, e0), (fl, el) = ends[0], ends[-1]
        gaps.append((f0 + _TURN - fl, e0, el, 1))
    eps = _least(gaps) / 4 if gaps else Fraction(1, 4)
    if not sensors:
        return eps
    keys = sensors.keys
    n = len(keys)
    (f0, p0), (fl, pl) = keys[0], keys[-1]
    dists = []
    for k in ends:
        fe, e = k
        above, below = bisect_right(keys, k), bisect_left(keys, k) - 1
        if above < n:
            fp, p = keys[above]
            dists.append((fp - fe, p, e, 0))
        elif circle:
            dists.append((f0 + _TURN - fe, p0, e, 1))
        if below >= 0:
            fp, p = keys[below]
            dists.append((fe - fp, e, p, 0))
        elif circle:
            dists.append((fe + _TURN - fl, e, pl, 1))
    return _least(dists, eps)


def _swap(arr: IntervalArrangement, sensors: Optional[SensorSet],
          close: bool) -> IntervalArrangement:
    """Both swaps: move each finite end by the margin, inward to close and
    outward to open.  A ray side is never closed, so no finite end may
    already have the target closedness."""
    for iv in arr.intervals:
        if iv.kind is Kind.PROPER and (
                (iv.lo is not None and iv.lo_closed == close)
                or (iv.hi is not None and iv.hi_closed == close)):
            raise DegenerateInterval("expected an all-%s arrangement"
                                     % ("open" if close else "closed"))
    # read first: circle sensors off the circle are refused before the
    # margin measures distances to them
    before = None if sensors is None else _rows(arr, sensors)
    ends = _ends(arr)
    eps = _margin(arr, ends, sensors)
    shift = eps if close else -eps
    out = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            out.append(iv)
            continue
        lo = None if iv.lo is None else iv.lo + shift
        hi = None if iv.hi is None else iv.hi - shift
        if arr.geometry is Geometry.CIRCLE:
            lo, hi = lo % 1, hi % 1
        out.append(Interval1D.proper(lo, hi, close and lo is not None,
                                     close and hi is not None))
    result = IntervalArrangement(tuple(out), arr.geometry)
    name = "closure" if close else "interior"
    ensure(_dense_columns(result, _ends(result))
           == _dense_columns(arr, ends),
           "%s changed the dense code" % name)
    if before is not None:
        ensure(_rows(result, sensors) == before,
               "%s changed the sparse code" % name)
    return result


def open_to_closed(arr: IntervalArrangement, *,
                   sensors: Optional[SensorSet] = None) -> IntervalArrangement:
    """Shrink every open interval slightly, then take closures.

    The shrink margin is chosen so that no right endpoint meets any left
    endpoint and every elementary region survives, which keeps the dense
    code intact.  Given sensors, it also keeps the code they see.
    """
    return _swap(arr, sensors, True)


def closed_to_open(arr: IntervalArrangement, *,
                   sensors: Optional[SensorSet] = None) -> IntervalArrangement:
    """Enlarge every closed interval slightly, then take interiors.

    Inverse of open_to_closed; the dense code is preserved, and given
    sensors, so is the code they see.
    """
    return _swap(arr, sensors, False)


def open_closed_swap(arr: IntervalArrangement) -> IntervalArrangement:
    """open_to_closed or closed_to_open, by the first proper interval."""
    for iv in arr.intervals:
        if iv.kind is Kind.PROPER:
            return _swap(arr, None, not (iv.lo_closed or iv.hi_closed))
    return arr
