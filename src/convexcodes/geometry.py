"""Exact rational interval arrangements on the line and the circle.

The circle is modeled as [0, 1) with unit circumference; an arc runs
clockwise from lo to hi and may wrap around.  On the line an endpoint of
None denotes a ray (unbounded on that side).  All arithmetic is done
with fractions.Fraction; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        lo = None if lo is None else _frac(lo)
        hi = None if hi is None else _frac(hi)
        if lo is not None and hi is not None and lo > hi:
            pass  # circle wraparound; validated against the arrangement
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

    @classmethod
    def of(cls, positions: Iterable) -> "SensorSet":
        ps = tuple(sorted(_frac(p) for p in positions))
        if len(set(ps)) != len(ps):
            raise ValueError("sensor positions must be distinct")
        return cls(ps)

    def __len__(self) -> int:
        return len(self.positions)


def evaluate_codeword(arr: IntervalArrangement, p) -> BitVector:
    """Which intervals of arr contain the point p."""
    p = _frac(p)
    return BitVector.from_bits(
        1 if iv.contains(p, arr.geometry) else 0 for iv in arr.intervals
    )


def extract_code_sparse(
    arr: IntervalArrangement, sensors: SensorSet
) -> tuple[Code, SensorMatrix]:
    """The code seen by a finite sensor set, with its matrix."""
    cols = [evaluate_codeword(arr, s) for s in sensors.positions]
    m = SensorMatrix.from_columns(cols, arr.geometry)
    return m.column_set(), m


def _sample_points(arr: IntervalArrangement) -> list[Fraction]:
    """One representative per elementary region, plus every endpoint."""
    vals = sorted({e for iv in arr.intervals for e in iv.endpoints()})
    if not vals:
        return [Fraction(0)]
    pts = list(vals)
    if arr.geometry is Geometry.LINE:
        pts.append(vals[0] - 1)
        pts.append(vals[-1] + 1)
        for a, b in zip(vals, vals[1:]):
            pts.append((a + b) / 2)
    else:
        for a, b in zip(vals, vals[1:]):
            pts.append((a + b) / 2)
        pts.append(((vals[-1] + vals[0] + 1) / 2) % 1)
    return pts


def extract_code_dense(arr: IntervalArrangement) -> Code:
    """The full image of the codeword map over the ambient space."""
    words = {evaluate_codeword(arr, p) for p in _sample_points(arr)}
    return Code.of(words)


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
    ivs: list[Interval1D] = []
    if regime.geometry is Geometry.LINE:
        sensors = SensorSet.of(Fraction(t) for t in range(1, n + 1))
        eps = Fraction(1, 4)
        for r in m.rows:
            if r.is_zero:
                ivs.append(Interval1D.empty())
            elif r.is_ones:
                ivs.append(Interval1D.whole())
            else:
                f, g = row_stats(r, Geometry.LINE)
                ivs.append(Interval1D.open(Fraction(g + 1) - eps, Fraction(f) + eps))
    else:
        if n == 0:
            raise RegimeViolation("cannot realize a zero-column circular matrix")
        sensors = SensorSet.of(Fraction(t - 1, n) for t in range(1, n + 1))
        eps = Fraction(1, 4 * n)
        for r in m.rows:
            if r.is_zero:
                ivs.append(Interval1D.empty())
            elif r.is_ones:
                ivs.append(Interval1D.whole())
            else:
                f, g = row_stats(r, Geometry.CIRCLE)
                lo = (Fraction(g + 1 - 1, n) - eps) % 1
                hi = (Fraction(f - 1, n) + eps) % 1
                ivs.append(Interval1D.open(lo, hi))
    arr = IntervalArrangement(tuple(ivs), regime.geometry)
    _, back = extract_code_sparse(arr, sensors)
    ensure(back.rows == m.rows, "sparse round trip failed")
    return arr, sensors


def _detected(iv: Interval1D, sensors: SensorSet, geometry: Geometry) -> list[int]:
    return [
        j for j, s in enumerate(sensors.positions) if iv.contains(s, geometry)
    ]


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
    out: list[Interval1D] = []
    for iv in arr.intervals:
        hit = _detected(iv, sensors, arr.geometry)
        if not hit:
            out.append(Interval1D.empty())
            continue
        if len(hit) == n:
            out.append(Interval1D.whole())
            continue
        if arr.geometry is Geometry.LINE:
            first, last = hit[0], hit[-1]
            lo = None if first == 0 else ps[first]
            hi = None if last == n - 1 else ps[last + 1]
            out.append(Interval1D.proper(lo, hi, lo is not None, False))
        else:
            hitset = set(hit)
            start = next(j for j in hit if (j - 1) % n not in hitset)
            end = next(j for j in hit if (j + 1) % n not in hitset)
            out.append(Interval1D.proper(ps[start], ps[(end + 1) % n], True, False))
    result = IntervalArrangement(tuple(out), arr.geometry)
    before = [evaluate_codeword(arr, s) for s in ps]
    after = [evaluate_codeword(result, s) for s in ps]
    ensure(before == after, "normalization changed the sparse code")
    return result


def _line_gap_epsilon(arr: IntervalArrangement, lengths: Sequence[Fraction]):
    vals = sorted({e for iv in arr.intervals for e in iv.endpoints()})
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if arr.geometry is Geometry.CIRCLE and vals:
        gaps.append(1 - vals[-1] + vals[0])
        gaps = [g for g in gaps if g > 0]
    candidates = list(gaps) + [l for l in lengths if l > 0]
    if not candidates:
        return Fraction(1, 4)
    return min(candidates) / 4


def _arc_length(iv: Interval1D) -> Fraction:
    return (iv.hi - iv.lo) % 1


def open_to_closed(arr: IntervalArrangement) -> IntervalArrangement:
    """Shrink every open interval slightly, then take closures.

    The shrink margin is chosen so that no right endpoint meets any left
    endpoint and every elementary region survives, which keeps the dense
    code intact.
    """
    lengths = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            continue
        if iv.lo_closed or iv.hi_closed:
            raise DegenerateInterval("expected an all-open arrangement")
        if arr.geometry is Geometry.LINE:
            if iv.lo is not None and iv.hi is not None:
                lengths.append(iv.hi - iv.lo)
        else:
            lengths.append(_arc_length(iv))
    eps = _line_gap_epsilon(arr, lengths)
    out = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            out.append(iv)
            continue
        lo = None if iv.lo is None else iv.lo + eps
        hi = None if iv.hi is None else iv.hi - eps
        if arr.geometry is Geometry.CIRCLE:
            lo, hi = lo % 1, hi % 1
        elif lo is not None and hi is not None and lo > hi:
            raise DegenerateInterval("interval too short to shrink")
        out.append(Interval1D.proper(lo, hi, lo is not None, hi is not None))
    result = IntervalArrangement(tuple(out), arr.geometry)
    ensure(extract_code_dense(result) == extract_code_dense(arr),
           "closure changed the dense code")
    return result


def closed_to_open(arr: IntervalArrangement) -> IntervalArrangement:
    """Enlarge every closed interval slightly, then take interiors.

    Inverse of open_to_closed; the dense code is preserved.
    """
    for iv in arr.intervals:
        if iv.kind is Kind.PROPER:
            if (iv.lo is not None and not iv.lo_closed) or (
                iv.hi is not None and not iv.hi_closed
            ):
                raise DegenerateInterval("expected an all-closed arrangement")
    eps = _line_gap_epsilon(arr, [])
    out = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            out.append(iv)
            continue
        lo = None if iv.lo is None else iv.lo - eps
        hi = None if iv.hi is None else iv.hi + eps
        if arr.geometry is Geometry.CIRCLE:
            if (1 - _arc_length(iv)) <= 2 * eps:
                raise DegenerateInterval("arc too long to enlarge")
            lo, hi = lo % 1, hi % 1
        out.append(Interval1D.proper(lo, hi, False, False))
    result = IntervalArrangement(tuple(out), arr.geometry)
    ensure(extract_code_dense(result) == extract_code_dense(arr),
           "interior changed the dense code")
    return result


def open_closed_swap(arr: IntervalArrangement) -> IntervalArrangement:
    """Dispatch to open_to_closed or closed_to_open by inspection."""
    for iv in arr.intervals:
        if iv.kind is Kind.PROPER:
            if iv.lo_closed or iv.hi_closed:
                return closed_to_open(arr)
            return open_to_closed(arr)
    return arr
