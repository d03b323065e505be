"""Exact rational interval arrangements on the line and the circle.

The circle is modeled as [0, 1) with unit circumference; an arc runs
clockwise from lo to hi and may wrap around.  On the line an endpoint of
None denotes a ray (unbounded on that side), and a ray side is never
closed.  All arithmetic is done with fractions.Fraction; there are no
tolerances anywhere.  Row reads, endpoint sorts, bisections and the
swaps' margin order rationals by one exact integer key, _key: none
compares or hashes a Fraction unless two values lie within 2^-64 of
each other, and the margin subtracts only the differences whose floor
keys put them within a few units of 2^-64 of the least.  Dense extraction compares only the
order of the endpoints: it reads integer places, one per endpoint and
one per region between and beyond them, and makes no Fraction.

Every coordinate is keyed once: an interval keys its ends when it is
made, a sensor set its positions, and realize_matrix and the swaps make
each end's key from the integers they write it from.  Every arrangement
is read once: it keeps its sorted ends, its dense code and its rows at
the last sensor set read, so a chain of calls on one arrangement, as
the round trip of realize_matrix followed by a normalization, sorts,
places and reads it once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
    _row_ends,
    ensure,
    regime_check,
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


def _ratio(p: int, q: int) -> tuple[int, Fraction]:
    """_key(Fraction(p, q)) for q > 0, keyed from the integers: the floor
    of p 2^64 / q is the same in any terms."""
    return (p << 64) // q, Fraction(p, q)


# one turn of the circle in floor keys: floor((x + 1) 2^64) is
# floor(x 2^64) + _TURN, and 0 <= x < 1 exactly when 0 <= floor(x 2^64)
# < _TURN
_TURN = 1 << 64


def _check_ends(lo_key, hi_key, lo_closed: bool, hi_closed: bool) -> None:
    """The ends of every proper interval, however it is made: a ray side
    (a key of None) is never closed, and coincident ends are both
    closed."""
    if (lo_key is None and lo_closed) or (hi_key is None and hi_closed):
        raise DegenerateInterval("a ray side cannot be closed")
    if lo_key is not None and lo_key == hi_key and not (
            lo_closed and hi_closed):
        raise DegenerateInterval("coincident endpoints must be closed")


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
    # the finite ends' order keys, None on a ray side and off a proper
    # interval, made once for every row read, sort and margin
    lo_key: Optional[tuple[int, Fraction]] = field(
        init=False, repr=False, compare=False)
    hi_key: Optional[tuple[int, Fraction]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lo_key = None if self.lo is None else _key(self.lo)
        hi_key = None if self.hi is None else _key(self.hi)
        if self.kind is Kind.PROPER:
            _check_ends(lo_key, hi_key, self.lo_closed, self.hi_closed)
        object.__setattr__(self, "lo_key", lo_key)
        object.__setattr__(self, "hi_key", hi_key)

    @classmethod
    def proper(cls, lo, hi, lo_closed=False, hi_closed=False) -> "Interval1D":
        return cls._keyed(None if lo is None else _key(_frac(lo)),
                          None if hi is None else _key(_frac(hi)),
                          lo_closed, hi_closed)

    @classmethod
    def _keyed(cls, lo_key, hi_key, lo_closed, hi_closed) -> "Interval1D":
        """proper() at ends already keyed, None on a ray side: the keys
        are kept as given, and the fields are set as the frozen __init__
        sets them, bypassing __setattr__, in one update of the instance
        dict."""
        _check_ends(lo_key, hi_key, lo_closed, hi_closed)
        iv = object.__new__(cls)
        iv.__dict__.update(
            kind=Kind.PROPER, lo=None if lo_key is None else lo_key[1],
            hi=None if hi_key is None else hi_key[1], lo_closed=lo_closed,
            hi_closed=hi_closed, lo_key=lo_key, hi_key=hi_key)
        return iv

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
    """Intervals (or arcs) on one geometry.  What is derived from them is
    derived once and kept on the instance, no part of equality: the
    sorted distinct end keys, the dense code's columns and the rows at
    the last SensorSet read."""

    intervals: tuple[Interval1D, ...]
    geometry: Geometry

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if self.geometry is Geometry.CIRCLE:
            for iv in self.intervals:
                if iv.kind is Kind.PROPER:
                    if iv.lo is None or iv.hi is None:
                        raise DegenerateInterval("circle arcs need both endpoints")
                    if not (0 <= iv.lo_key[0] < _TURN
                            and 0 <= iv.hi_key[0] < _TURN):
                        raise DegenerateInterval("arc endpoints must lie in [0, 1)")

    @property
    def k(self) -> int:
        return len(self.intervals)

    @cached_property
    def _end_keys(self) -> list[tuple[int, Fraction]]:
        return _ends(self)

    @cached_property
    def _columns(self) -> set[int]:
        return _dense_columns(self, self._end_keys)

    def _rows_at(self, sensors: "SensorSet") -> list[int]:
        """_rows(self, sensors), kept with the sensor set it was read at
        until another set is read."""
        read = self.__dict__.get("_read")
        if read is None or read[0] is not sensors:
            read = (sensors, _rows(self, sensors))
            object.__setattr__(self, "_read", read)
        return read[1]


@dataclass(frozen=True)
class SensorSet:
    positions: tuple[Fraction, ...]
    # the positions' order keys, made once for every row read and margin
    keys: tuple[tuple[int, Fraction], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # strictly increasing: the bisections of _row_mask and _margin
        # rely on it
        keys = tuple(_key(p) for p in self.positions)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("sensor positions must be distinct and sorted")
        object.__setattr__(self, "keys", keys)

    @classmethod
    def of(cls, positions: Iterable) -> "SensorSet":
        return cls(tuple(sorted(_frac(p) for p in positions)))

    @classmethod
    def _keyed(cls, keys: tuple[tuple[int, Fraction], ...]) -> "SensorSet":
        """The set at strictly increasing keys the caller has made, kept
        as given; the fields are set as Interval1D._keyed sets them."""
        sensors = object.__new__(cls)
        sensors.__dict__.update(positions=tuple(p for _, p in keys),
                                keys=keys)
        return sensors

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
    lo, hi = iv.lo_key, iv.hi_key
    i = 0 if lo is None else (
        bisect_left if iv.lo_closed else bisect_right)(keys, lo)
    j = len(keys) if hi is None else (
        bisect_right if iv.hi_closed else bisect_left)(keys, hi)
    if geometry is Geometry.CIRCLE and lo > hi:
        # the arc wraps past 0: sensors from i on, and those before j
        return ((1 << len(keys)) - (1 << i)) | ((1 << j) - 1)
    return ((1 << (j - i)) - 1) << i if j > i else 0


def _ends(arr: IntervalArrangement) -> list[tuple[int, Fraction]]:
    """The keys of the distinct endpoints of arr, sorted.  Equal keys sort
    next to each other, and one made once and shared by several ends
    compares equal to itself without comparing its Fraction."""
    keys = sorted([k for iv in arr.intervals for k in (iv.lo_key, iv.hi_key)
                   if k is not None])
    return keys[:1] + [b for a, b in zip(keys, keys[1:]) if a != b]


def _rows(arr: IntervalArrangement, sensors: SensorSet) -> list[int]:
    """The row masks of arr at the sensors."""
    keys = sensors.keys
    if (arr.geometry is Geometry.CIRCLE and keys
            and not (0 <= keys[0][0] and keys[-1][0] < _TURN)):
        raise ValueError("circle sensor positions must lie in [0, 1)")
    return [_row_mask(iv, keys, arr.geometry) for iv in arr.intervals]


def extract_code_sparse(
    arr: IntervalArrangement, sensors: SensorSet
) -> tuple[Code, SensorMatrix]:
    """The code seen by a finite sensor set, with its matrix.  The rows
    cost O(k log n) bisections for k intervals and n sensors; the columns
    are their transpose."""
    ps = sensors.positions
    rows = [BitVector(len(ps), mask) for mask in arr._rows_at(sensors)]
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
    the previous one with its place's toggles applied.  An end's floor
    key finds its place unless two ends share one, within 2^-64 of each
    other: then its whole key does, hashing the Fraction."""
    place = {f: 2 * i + 1 for i, (f, _) in enumerate(ends)}
    exact = len(place) < len(ends)
    if exact:
        place = {k: 2 * i + 1 for i, k in enumerate(ends)}
    top = 2 * len(ends)
    circle = arr.geometry is Geometry.CIRCLE
    toggles = [0] * (top + 2)
    for r, iv in enumerate(arr.intervals):
        bit = 1 << r
        if iv.kind is not Kind.PROPER:
            if iv.kind is Kind.WHOLE:
                toggles[0] ^= bit
            continue
        lo, hi = iv.lo_key, iv.hi_key
        a = 0 if lo is None else place[lo if exact else lo[0]]
        b = top if hi is None else place[hi if exact else hi[0]]
        i = a + (lo is not None and not iv.lo_closed)
        j = b + (hi is None or iv.hi_closed)
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
    return Code(frozenset(BitVector(arr.k, c) for c in arr._columns), arr.k)


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
    sensors = SensorSet._keyed(tuple(_ratio(t, n) if circle else _ratio(t + 1, 1)
                                     for t in range(n)))
    # each end made once, keyed from its integers, and shared by the rows
    # that end at its sensor
    los: dict[int, tuple[int, Fraction]] = {}
    his: dict[int, tuple[int, Fraction]] = {}
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
            f, g = _row_ends(r.mask, n, regime.geometry)
            lo, hi = los.get(g), his.get(f)
            if lo is None:
                lo = los[g] = (_ratio((4 * (g % n) - 1) % (4 * n), 4 * n)
                               if circle else _ratio(4 * g + 3, 4))
            if hi is None:
                hi = his[f] = (_ratio(4 * f - 3, 4 * n) if circle
                               else _ratio(4 * f + 1, 4))
            ivs.append(Interval1D._keyed(lo, hi, False, False))
    arr = IntervalArrangement(tuple(ivs), regime.geometry)
    ensure(arr._rows_at(sensors) == [r.mask for r in m.rows],
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
    keys = sensors.keys
    n = len(keys)
    full = (1 << n) - 1
    before = arr._rows_at(sensors)
    out: list[Interval1D] = []
    for mask in before:
        if mask == 0:
            out.append(Interval1D.empty())
        elif mask == full:
            out.append(Interval1D.whole())
        else:
            # the ends are sensors, keyed with the set
            f, g = _row_ends(mask, n, arr.geometry)
            if arr.geometry is Geometry.LINE:
                lo = None if g == 0 else keys[g]
                hi = None if f == n else keys[f]
            else:
                lo, hi = keys[g % n], keys[f % n]
            out.append(Interval1D._keyed(lo, hi, lo is not None, False))
    result = IntervalArrangement(tuple(out), arr.geometry)
    ensure(result._rows_at(sensors) == before,
           "normalization changed the sparse code")
    return result


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
        # the keys strictly increase: the one below an end on a sensor
        # is two places down
        above = bisect_right(keys, k)
        below = above - 2 if above and keys[above - 1] == k else above - 1
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


def _moved(x: Fraction, c: int, d: int, circle: bool) -> tuple[int, Fraction]:
    """The key of x + c / d, written as one rational (p d + c q) / (q d)
    for x = p / q, the circle's taken mod 1 on its numerator."""
    q = x.denominator
    p, q = x.numerator * d + c * q, q * d
    return _ratio(p % q if circle else p, q)


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
    before = None if sensors is None else arr._rows_at(sensors)
    eps = _margin(arr, arr._end_keys, sensors)
    c, d = (eps.numerator if close else -eps.numerator), eps.denominator
    circle = arr.geometry is Geometry.CIRCLE
    # lower ends move by c / d and upper ends back, each key once: the
    # move of a key that several lower (or upper) ends share is kept by
    # the key's id, which arr holds, and shared as well
    los: dict[int, tuple[int, Fraction]] = {}
    his: dict[int, tuple[int, Fraction]] = {}
    out = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            out.append(iv)
            continue
        lo, hi = iv.lo_key, iv.hi_key
        if lo is not None:
            lo = los.get(id(lo)) or los.setdefault(
                id(lo), _moved(lo[1], c, d, circle))
        if hi is not None:
            hi = his.get(id(hi)) or his.setdefault(
                id(hi), _moved(hi[1], -c, d, circle))
        out.append(Interval1D._keyed(lo, hi, close and lo is not None,
                                     close and hi is not None))
    result = IntervalArrangement(tuple(out), arr.geometry)
    name = "closure" if close else "interior"
    ensure(result._columns == arr._columns,
           "%s changed the dense code" % name)
    if before is not None:
        ensure(result._rows_at(sensors) == before,
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
