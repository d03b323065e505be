import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from convexcodes.core import (
    CCO,
    CO,
    HCCO,
    HCO,
    BitVector,
    Code,
    Density,
    Geometry,
    InternalError,
    Regime,
    RegimeViolation,
    SensorMatrix,
    is_discrete_interval,
    regime_check,
)
from convexcodes.geometry import (
    DegenerateInterval,
    Interval1D,
    IntervalArrangement,
    Kind,
    SensorSet,
    _dense_columns,
    _ends,
    _key,
    _margin,
    _row_mask,
    closed_to_open,
    evaluate_codeword,
    extract_code_dense,
    extract_code_sparse,
    normalize_arbitrary,
    open_closed_swap,
    open_to_closed,
    realize_matrix,
)

F = Fraction


def rand_interval_row(rng, n, geometry):
    """A random discrete-interval bit row of length n."""
    if n == 0:
        return BitVector(0, 0)
    choice = rng.randrange(4)
    if choice == 0:
        return BitVector.zeros(n)
    if choice == 1:
        return BitVector.ones(n)
    if geometry is Geometry.LINE or n == 1 or rng.random() < 0.5:
        a = rng.randrange(n)
        b = rng.randrange(a, n)
        mask = ((1 << (b - a + 1)) - 1) << a
        return BitVector(n, mask)
    start = rng.randrange(n)
    length = rng.randrange(1, n)
    mask = 0
    for i in range(length):
        mask |= 1 << ((start + i) % n)
    return BitVector(n, mask)


def rand_matrix(rng, regime, k_max=5, n_max=8):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    while True:
        rows = [rand_interval_row(rng, n, regime.geometry) for _ in range(k)]
        m = SensorMatrix(rows, regime.geometry)
        if regime_check(m, regime):
            return m


def rand_open_arrangement(rng, geometry, k_max=10, k_min=0):
    k = rng.randint(k_min, k_max)
    ivs = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.1:
            ivs.append(Interval1D.empty())
        elif roll < 0.2:
            ivs.append(Interval1D.whole())
        elif geometry is Geometry.LINE:
            a = F(rng.randint(-20, 20), rng.randint(1, 8))
            b = a + F(rng.randint(1, 30), rng.randint(1, 8))
            ivs.append(Interval1D.open(a, b))
        else:
            a = F(rng.randint(0, 39), 40)
            b = F(rng.randint(0, 39), 40)
            if a == b:
                b = (a + F(1, 40)) % 1
            ivs.append(Interval1D.open(a, b))
    return IntervalArrangement(tuple(ivs), geometry)


# Points on a grid of eighths in [0, 1), so sensors often sit on endpoints.
_points = st.integers(0, 7).map(lambda i: F(i, 8))

# The eighths moved by up to two steps of 2^-70 either way (mod 1): nearby
# points share floor(x * 2^64), so only the exact tie-break orders them.
_close_points = st.builds(lambda i, j: (F(i, 8) + F(j, 2**70)) % 1,
                          st.integers(0, 7), st.integers(-2, 2))


@st.composite
def _intervals(draw, geometry, points=_points):
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return Interval1D.empty()
    if roll == 1:
        return Interval1D.whole()
    lo, hi = draw(points), draw(points)
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    if lo == hi:  # a point, or a point arc
        return Interval1D.closed(lo, hi)
    if geometry is Geometry.LINE:
        lo, hi = min(lo, hi), max(lo, hi)
        if roll == 2:
            lo, lo_closed = None, False
        elif roll == 3:
            hi, hi_closed = None, False
    return Interval1D.proper(lo, hi, lo_closed, hi_closed)


@st.composite
def _arrangements(draw, points=_points):
    geometry = draw(st.sampled_from([Geometry.LINE, Geometry.CIRCLE]))
    ivs = draw(st.lists(_intervals(geometry, points), max_size=6))
    sensors = SensorSet.of(draw(st.sets(points, max_size=8)))
    return IntervalArrangement(tuple(ivs), geometry), sensors


def _sample_points(arr):
    """Reference: one point per elementary region, plus every endpoint,
    in increasing order, as dense extraction once read them."""
    vals = sorted({e for iv in arr.intervals for e in iv.endpoints()})
    if not vals:
        return [F(0)]
    pts = [p for a, b in zip(vals, vals[1:]) for p in (a, (a + b) / 2)]
    pts.append(vals[-1])
    if arr.geometry is Geometry.LINE:
        return [vals[0] - 1] + pts + [vals[-1] + 1]
    # the region across 0: its midpoint, less 1 if past 1
    wrap = (vals[-1] + vals[0] + 1) / 2
    return pts + [wrap] if wrap < 1 else [wrap - 1] + pts


class TestRowMask:
    @settings(max_examples=300, deadline=None)
    @given(_arrangements())
    def test_equals_per_point_contains(self, case):
        arr, sensors = case
        ps = sensors.positions
        keys = [_key(p) for p in ps]
        for iv in arr.intervals:
            want = sum(1 << j for j, p in enumerate(ps)
                       if iv.contains(p, arr.geometry))
            assert _row_mask(iv, keys, arr.geometry) == want
        _, m = extract_code_sparse(arr, sensors)
        assert (m.k, m.n) == (arr.k, len(ps))
        assert list(m.columns) == [evaluate_codeword(arr, p) for p in ps]

    @settings(max_examples=300, deadline=None)
    @given(_arrangements())
    @example((IntervalArrangement((), Geometry.LINE), SensorSet(())))
    @example((IntervalArrangement((), Geometry.CIRCLE), SensorSet(())))
    @example((IntervalArrangement((Interval1D.whole(), Interval1D.empty()),
                                  Geometry.CIRCLE), SensorSet(())))
    def test_dense_extraction_is_every_sample_point(self, case):
        arr, _ = case
        words = {evaluate_codeword(arr, p) for p in _sample_points(arr)}
        assert extract_code_dense(arr) == Code.of(words)

    @settings(max_examples=300, deadline=None)
    @given(_arrangements())
    @example((IntervalArrangement((Interval1D.proper(None, F(1, 4), False, True),
                                   Interval1D.closed(F(1, 2), F(1, 2)),
                                   Interval1D.open(F(3, 8), None)),
                                  Geometry.LINE), SensorSet(())))
    @example((IntervalArrangement((Interval1D.open(F(3, 4), F(1, 4)),
                                   Interval1D.closed(F(1, 8), F(1, 8)),
                                   Interval1D.closed(F(1, 4), F(5, 8))),
                                  Geometry.CIRCLE), SensorSet(())))
    def test_dense_code_depends_on_endpoint_order_only(self, case):
        # x -> (2x - 1)^3 on the line and x -> x^2 on [0, 1) keep the
        # order of the endpoints and change every gap between them
        arr, _ = case
        line = arr.geometry is Geometry.LINE

        def f(x):
            return (2 * x - 1) ** 3 if line else x * x

        moved = IntervalArrangement(tuple(
            Interval1D(iv.kind, None if iv.lo is None else f(iv.lo),
                       None if iv.hi is None else f(iv.hi),
                       iv.lo_closed, iv.hi_closed)
            for iv in arr.intervals), arr.geometry)
        assert extract_code_dense(moved) == extract_code_dense(arr)

    def test_named_cases(self):
        line, circle = Geometry.LINE, Geometry.CIRCLE
        keys = [_key(p) for p in (F(0), F(1, 4), F(1, 2), F(3, 4))]
        cases = [
            (Interval1D.open(F(1, 4), F(3, 4)), line, 0b0100),
            (Interval1D.closed(F(1, 4), F(3, 4)), line, 0b1110),
            (Interval1D.proper(F(1, 4), F(3, 4), True, False), line, 0b0110),
            (Interval1D.proper(F(1, 4), F(3, 4), False, True), line, 0b1100),
            (Interval1D.proper(None, F(1, 4), False, True), line, 0b0011),
            (Interval1D.proper(F(1, 2), None, False, False), line, 0b1000),
            (Interval1D.closed(F(1, 2), F(1, 2)), line, 0b0100),
            (Interval1D.open(F(1, 8), F(1, 5)), line, 0),
            (Interval1D.empty(), line, 0),
            (Interval1D.whole(), circle, 0b1111),
            (Interval1D.open(F(3, 4), F(1, 4)), circle, 0b0001),
            (Interval1D.closed(F(3, 4), F(1, 4)), circle, 0b1011),
            (Interval1D.proper(F(1, 2), 0, True, False), circle, 0b1100),
            (Interval1D.closed(F(1, 4), F(1, 4)), circle, 0b0010),
        ]
        for iv, geometry, mask in cases:
            assert _row_mask(iv, keys, geometry) == mask, iv
            assert _row_mask(iv, (), geometry) == 0

    def test_no_intervals_keep_the_columns(self):
        arr = IntervalArrangement((), Geometry.CIRCLE)
        code, m = extract_code_sparse(arr, SensorSet.of([0, F(1, 2)]))
        assert (m.k, m.n) == (0, 2)
        assert code == Code.of([BitVector(0)])

    def test_circle_sensors_must_lie_on_the_circle(self):
        arcs = (Interval1D.open(F(1, 4), F(3, 4)),
                Interval1D.open(F(3, 4), F(1, 4)))
        circle = IntervalArrangement(arcs, Geometry.CIRCLE)
        for off in (F(3, 2), F(-1, 2)):
            sensors = SensorSet.of([F(1, 2), off])
            for call in (lambda: open_to_closed(circle, sensors=sensors),
                         lambda: normalize_arbitrary(circle, sensors),
                         lambda: extract_code_sparse(circle, sensors)):
                with pytest.raises(ValueError,
                                   match=r"circle sensor positions must lie"
                                         r" in \[0, 1\)"):
                    call()
        # line sensors stay unrestricted
        line = IntervalArrangement(arcs[:1], Geometry.LINE)
        _, m = extract_code_sparse(line, SensorSet.of([F(-1, 2), F(1, 2),
                                                       F(3, 2)]))
        assert [r.mask for r in m.rows] == [0b010]


def _kernel_case(rng):
    """An arrangement on a coarse grid, so endpoints often coincide, with
    rays, empty and whole intervals, points and point arcs, wrapping
    arcs, now and then a reversed line interval, and either closedness."""
    geometry = rng.choice([Geometry.LINE, Geometry.CIRCLE])
    circle = geometry is Geometry.CIRCLE

    def point():
        return F(rng.randrange(8), 8) if circle else F(rng.randint(-6, 6), 2)

    ivs = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.randrange(10)
        if roll < 2:
            ivs.append(Interval1D.empty() if roll else Interval1D.whole())
            continue
        lo, hi = point(), point()
        if roll == 2 or lo == hi:
            ivs.append(Interval1D.closed(lo, lo))
            continue
        if not circle and roll != 3:  # roll 3 keeps a reversed interval
            lo, hi = min(lo, hi), max(lo, hi)
            if roll == 4:
                lo = None
            elif roll == 5:
                hi = None
        ivs.append(Interval1D.proper(
            lo, hi, lo is not None and rng.random() < 0.5,
            hi is not None and rng.random() < 0.5))
    return IntervalArrangement(tuple(ivs), geometry)


def _shape(iv, geometry):
    if iv.kind is not Kind.PROPER:
        return iv.kind.value
    if iv.lo is None or iv.hi is None:
        return "ray"
    if iv.lo == iv.hi:
        return "point"
    if iv.lo < iv.hi:
        return "proper"
    return "reversed" if geometry is Geometry.LINE else "wrapping"


class TestDenseColumns:
    def test_columns_are_the_codewords_at_every_point(self):
        # the points: every endpoint, the midpoint between neighbouring
        # endpoints and one point beyond each end, read by contains
        rng = random.Random(73)
        kinds = set()
        for _ in range(1500):
            arr = _kernel_case(rng)
            vals = sorted({e for iv in arr.intervals for e in iv.endpoints()})
            pts = vals + [(a + b) / 2 for a, b in zip(vals, vals[1:])]
            if not vals:
                pts = [F(0)]
            elif arr.geometry is Geometry.LINE:
                pts += [vals[0] - 1, vals[-1] + 1]
            else:
                pts += [vals[0] / 2, (vals[-1] + 1) / 2]
            seen = {evaluate_codeword(arr, p).mask for p in pts}
            assert _dense_columns(arr, _ends(arr)) == seen, arr
            assert extract_code_dense(arr) == Code(
                frozenset(BitVector(arr.k, c) for c in seen), arr.k)
            kinds |= {(arr.geometry, _shape(iv, arr.geometry), iv.lo_closed,
                       iv.hi_closed)
                      for iv in arr.intervals}
        flags = [(False, False), (False, True), (True, False), (True, True)]
        turned = {Geometry.LINE: "reversed", Geometry.CIRCLE: "wrapping"}
        # rays closed on their finite side, or open
        want = {(Geometry.LINE, "ray", lo, hi) for lo, hi in flags[:3]}
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            want |= {(geometry, "empty", False, False),
                     (geometry, "whole", False, False),
                     (geometry, "point", True, True)}
            want |= {(geometry, shape, lo, hi) for lo, hi in flags
                     for shape in ("proper", turned[geometry])}
        assert want <= kinds


@st.composite
def _near_values(draw):
    """Rationals within 2^-70 of one base, so they share floor keys, with
    ints, negative values and huge numerators among the bases."""
    base = draw(st.one_of(
        st.integers(-3, 3),
        st.fractions(max_denominator=10**6),
        st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**6))))
    steps = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 5)),
                          min_size=1, max_size=8))
    values = [base + F(j, d * 2**70) for j, d in steps]
    return values + [base] * draw(st.integers(0, 2))


class TestExactKey:
    @settings(max_examples=300, deadline=None)
    @given(_near_values(), st.lists(st.integers(-3, 3), max_size=3))
    @example([F(1, 2), F(1, 2) - F(1, 2**70), F(1, 2) + F(1, 2**70)], [])
    def test_key_order_is_the_rational_order(self, values, ints):
        values = values + ints
        assert sorted(values, key=_key) == sorted(values)
        for a in values:
            for b in values:
                assert (_key(a) < _key(b)) == (a < b)
                assert (_key(a) == _key(b)) == (a == b)

    def test_values_closer_than_two_to_the_minus_64_share_a_floor(self):
        a = F(1, 3)
        b = a + F(1, 2**70)
        assert _key(a)[0] == _key(b)[0] and _key(a) < _key(b)
        assert _key(-b)[0] == _key(-a)[0] and _key(-b) < _key(-a)

    @settings(max_examples=300, deadline=None)
    @given(_arrangements(_close_points))
    def test_row_masks_and_dense_code_at_close_points(self, case):
        arr, sensors = case
        ps = sensors.positions
        _, m = extract_code_sparse(arr, sensors)
        for iv, row in zip(arr.intervals, m.rows):
            assert row.mask == sum(1 << j for j, p in enumerate(ps)
                                   if iv.contains(p, arr.geometry))
        words = {evaluate_codeword(arr, p) for p in _sample_points(arr)}
        assert extract_code_dense(arr) == Code.of(words)

    @settings(max_examples=300, deadline=None)
    @given(_arrangements(_close_points), st.booleans())
    def test_swaps_at_close_points(self, case, close):
        # the all-open (close) or all-closed copy of the drawn intervals;
        # a point cannot be open
        arr, sensors = case
        ivs = []
        for iv in arr.intervals:
            if iv.kind is not Kind.PROPER:
                ivs.append(iv)
            elif not (close and iv.lo == iv.hi):
                ivs.append(Interval1D.proper(iv.lo, iv.hi,
                                             not close and iv.lo is not None,
                                             not close and iv.hi is not None))
        arr = IntervalArrangement(tuple(ivs), arr.geometry)
        swap = open_to_closed if close else closed_to_open
        out = swap(arr, sensors=sensors)
        assert extract_code_dense(out) == Code.of(
            evaluate_codeword(arr, p) for p in _sample_points(arr))
        assert extract_code_dense(out) == Code.of(
            evaluate_codeword(out, p) for p in _sample_points(out))
        assert ([evaluate_codeword(out, p) for p in sensors.positions]
                == [evaluate_codeword(arr, p) for p in sensors.positions])
        assert all(iv.lo_closed == close
                   for iv in out.intervals if iv.lo is not None)


class TestInterval:
    def test_contains_line(self):
        iv = Interval1D.proper(1, 3, True, False)
        assert iv.contains(1, Geometry.LINE)
        assert iv.contains(2, Geometry.LINE)
        assert not iv.contains(3, Geometry.LINE)
        assert not iv.contains(F(1, 2), Geometry.LINE)

    def test_rays(self):
        left = Interval1D.proper(None, 2, False, True)
        assert left.contains(-1000, Geometry.LINE)
        assert left.contains(2, Geometry.LINE)
        assert not left.contains(3, Geometry.LINE)

    def test_ray_side_is_never_closed(self):
        for lo, hi, lo_closed, hi_closed in ((None, 3, True, False),
                                             (None, 3, True, True),
                                             (3, None, False, True),
                                             (3, None, True, True),
                                             (None, None, False, True)):
            with pytest.raises(DegenerateInterval,
                               match="a ray side cannot be closed"):
                Interval1D.proper(lo, hi, lo_closed, hi_closed)
        # the finite side of a ray may be closed
        assert Interval1D.proper(None, 3, False, True).hi_closed
        assert Interval1D.proper(3, None, True, False).lo_closed

    def test_empty_whole(self):
        assert not Interval1D.empty().contains(0, Geometry.LINE)
        assert Interval1D.whole().contains(12345, Geometry.LINE)

    def test_circle_wraparound(self):
        arc = Interval1D.open(F(3, 4), F(1, 4))
        assert arc.contains(F(7, 8), Geometry.CIRCLE)
        assert arc.contains(0, Geometry.CIRCLE)
        assert not arc.contains(F(1, 2), Geometry.CIRCLE)
        assert not arc.contains(F(3, 4), Geometry.CIRCLE)

    def test_point_arc_must_be_closed(self):
        with pytest.raises(DegenerateInterval):
            Interval1D.open(F(1, 2), F(1, 2))
        point = Interval1D.closed(F(1, 2), F(1, 2))
        assert point.contains(F(1, 2), Geometry.CIRCLE)

    def test_every_constructor_checks_the_ends(self):
        # a closed ray side and open coincident ends are refused however
        # the interval is made: proper(), the dataclass constructor, or
        # dataclasses.replace of a sound interval into either shape
        sound = Interval1D.proper(0, 1)
        routes = (
            Interval1D.proper,
            lambda *ends: Interval1D(Kind.PROPER, *ends),
            lambda lo, hi, lo_closed, hi_closed: dataclasses.replace(
                sound, lo=lo, hi=hi, lo_closed=lo_closed,
                hi_closed=hi_closed),
        )
        for ends, match in (((None, F(1), True, False),
                             "a ray side cannot be closed"),
                            ((F(1), F(1), False, False),
                             "coincident endpoints must be closed")):
            for make in routes:
                with pytest.raises(DegenerateInterval, match=match):
                    make(*ends)

    def test_circle_arcs_need_unit_range(self):
        with pytest.raises(DegenerateInterval):
            IntervalArrangement((Interval1D.open(0, F(3, 2)),), Geometry.CIRCLE)
        with pytest.raises(DegenerateInterval):
            IntervalArrangement(
                (Interval1D.proper(None, F(1, 2)),), Geometry.CIRCLE
            )

    def test_sensor_set_distinct(self):
        with pytest.raises(ValueError):
            SensorSet.of([1, 1])
        assert SensorSet.of([3, 1, 2]).positions == (F(1), F(2), F(3))

    def test_sensor_set_strictly_increasing(self):
        for positions in ((F(2), F(1)), (F(1), F(1)), (F(0), F(2), F(1))):
            with pytest.raises(ValueError):
                SensorSet(positions)
        assert SensorSet(()).positions == ()

    def test_sensor_set_keys_its_positions_once(self):
        # the keys are kept for the row reads and the margin, and are no
        # part of equality, hashing or repr
        s = SensorSet.of([2, F(1, 3), F(1, 2)])
        assert s.keys == tuple(_key(p) for p in s.positions)
        t = SensorSet(s.positions)
        assert s == t and hash(s) == hash(t)
        assert repr(s) == "SensorSet(positions=%r)" % (s.positions,)


class TestEvaluate:
    def test_codeword_at_point(self):
        arr = IntervalArrangement(
            (Interval1D.open(0, 2), Interval1D.open(1, 3), Interval1D.empty()),
            Geometry.LINE,
        )
        assert evaluate_codeword(arr, F(1, 2)).to_string() == "100"
        assert evaluate_codeword(arr, F(3, 2)).to_string() == "110"
        assert evaluate_codeword(arr, F(5, 2)).to_string() == "010"
        assert evaluate_codeword(arr, 10).to_string() == "000"


class TestRealizeRoundTrip:
    def test_line_epsilon_construction(self):
        m = SensorMatrix.from_strings(["0110"], Geometry.LINE)
        arr, sensors = realize_matrix(m, CO)
        iv = arr.intervals[0]
        assert (iv.lo, iv.hi) == (F(7, 4), F(13, 4))
        assert sensors.positions == (F(1), F(2), F(3), F(4))

    def test_degenerate_rows_realized(self):
        m = SensorMatrix.from_strings(["000", "111"], Geometry.LINE)
        arr, _ = realize_matrix(m, CO)
        assert arr.intervals[0].kind is Kind.EMPTY
        assert arr.intervals[1].kind is Kind.WHOLE

    def test_no_sensors_keep_the_rows(self):
        m = SensorMatrix.from_columns([], Geometry.LINE, k=3)
        arr, sensors = realize_matrix(m, CO)
        code, back = extract_code_sparse(arr, sensors)
        assert back == m and (back.k, back.n) == (3, 0)
        assert code == m.column_set()

    def test_regime_violation_rejected(self):
        m = SensorMatrix.from_strings(["101"], Geometry.LINE)
        with pytest.raises(RegimeViolation):
            realize_matrix(m, CO)

    def test_zero_column_circle_rejected(self):
        m = SensorMatrix.from_columns([], Geometry.CIRCLE, k=2)
        with pytest.raises(RegimeViolation,
                           match="cannot realize a zero-column circular"):
            realize_matrix(m, CCO)

    def test_circle_wrap_row(self):
        m = SensorMatrix.from_strings(["1001"], Geometry.CIRCLE)
        arr, sensors = realize_matrix(m, CCO)
        _, back = extract_code_sparse(arr, sensors)
        assert back.rows == m.rows

    def test_sparse_round_trip_all_regimes(self):
        rng = random.Random(41)
        for regime in (CO, CCO, HCO, HCCO):
            for _ in range(100):
                m = rand_matrix(rng, regime)
                arr, sensors = realize_matrix(m, regime)
                _, back = extract_code_sparse(arr, sensors)
                assert back.rows == m.rows

    def test_dense_round_trip_when_dense_complete(self):
        rng = random.Random(43)
        hits = 0
        for _ in range(300):
            m = rand_matrix(rng, HCO)
            code = m.column_set()
            arr, _ = realize_matrix(m, HCO)
            dense = extract_code_dense(arr)
            if dense == code:
                hits += 1
            else:
                # the dense code can only add attainable words, never lose
                assert code.words <= dense.words
        assert hits > 100


class TestNormalize:
    def test_snap_to_half_open(self):
        arr = IntervalArrangement(
            (Interval1D.open(F(13, 10), F(27, 10)),), Geometry.LINE
        )
        sensors = SensorSet.of([1, 2, 3])
        out = normalize_arbitrary(arr, sensors)
        iv = out.intervals[0]
        assert iv.kind is Kind.PROPER
        assert (iv.lo, iv.lo_closed) == (F(2), True)
        assert (iv.hi, iv.hi_closed) == (F(3), False)

    @pytest.mark.parametrize("regime", [CO, CCO])
    def test_snap_reads_row_ends_from_masks(self, regime, monkeypatch):
        # each row's ends come from its bare mask: no BitVector per row
        m = SensorMatrix.from_strings(["0110", "1100", "0000", "1111"],
                                      regime.geometry)
        arr, sensors = realize_matrix(m, regime)
        made = []
        init = BitVector.__init__

        def recorded(w, *args, **kwargs):
            init(w, *args, **kwargs)
            made.append(w)

        monkeypatch.setattr(BitVector, "__init__", recorded)
        out = normalize_arbitrary(arr, sensors)
        assert out._rows_at(sensors) == [r.mask for r in m.rows]
        assert made == []

    def test_empty_sensor_set_rejected(self):
        arr = IntervalArrangement((Interval1D.open(0, 1),), Geometry.LINE)
        with pytest.raises(ValueError, match="sensor set must be nonempty"):
            normalize_arbitrary(arr, SensorSet(()))

    def test_no_sensor_becomes_empty_all_becomes_whole(self):
        arr = IntervalArrangement(
            (Interval1D.open(F(1, 4), F(1, 2)), Interval1D.open(0, 10)),
            Geometry.LINE,
        )
        out = normalize_arbitrary(arr, SensorSet.of([1, 2, 3]))
        assert out.intervals[0].kind is Kind.EMPTY
        assert out.intervals[1].kind is Kind.WHOLE

    def test_boundary_sensors_extend_to_rays(self):
        arr = IntervalArrangement(
            (Interval1D.open(F(1, 2), F(5, 2)),), Geometry.LINE
        )
        out = normalize_arbitrary(arr, SensorSet.of([1, 2, 3]))
        iv = out.intervals[0]
        assert iv.lo is None
        assert (iv.hi, iv.hi_closed) == (F(3), False)

    def test_sparse_code_preserved_random(self):
        rng = random.Random(47)
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for _ in range(150):
                arr = rand_open_arrangement(rng, geometry, k_max=5)
                if geometry is Geometry.LINE:
                    sensors = SensorSet.of(
                        rng.sample(range(-10, 11), rng.randint(1, 5))
                    )
                else:
                    sensors = SensorSet.of(
                        F(p, 40)
                        for p in rng.sample(range(40), rng.randint(1, 5))
                    )
                out = normalize_arbitrary(arr, sensors)
                before = [evaluate_codeword(arr, s) for s in sensors.positions]
                after = [evaluate_codeword(out, s) for s in sensors.positions]
                assert before == after

    def test_dense_code_of_result_equals_sparse_code(self):
        rng = random.Random(53)
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for _ in range(100):
                arr = rand_open_arrangement(rng, geometry, k_max=4, k_min=1)
                if geometry is Geometry.LINE:
                    sensors = SensorSet.of(
                        rng.sample(range(-10, 11), rng.randint(1, 5))
                    )
                else:
                    sensors = SensorSet.of(
                        F(p, 40)
                        for p in rng.sample(range(40), rng.randint(1, 5))
                    )
                out = normalize_arbitrary(arr, sensors)
                sparse, _ = extract_code_sparse(arr, sensors)
                assert extract_code_dense(out) == sparse


class TestOpenClosedSwap:
    def test_round_trip_preserves_dense_code(self):
        rng = random.Random(59)
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for _ in range(150):
                arr = rand_open_arrangement(rng, geometry, k_max=6)
                closed = open_to_closed(arr)
                assert extract_code_dense(closed) == extract_code_dense(arr)
                reopened = closed_to_open(closed)
                assert extract_code_dense(reopened) == extract_code_dense(arr)

    def test_swap_dispatch(self):
        arr = IntervalArrangement((Interval1D.open(0, 1),), Geometry.LINE)
        closed = open_closed_swap(arr)
        assert closed.intervals[0].lo_closed and closed.intervals[0].hi_closed
        back = open_closed_swap(closed)
        assert not back.intervals[0].lo_closed

    def test_no_proper_interval_is_returned_as_is(self):
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for ivs in ((), (Interval1D.empty(), Interval1D.whole())):
                arr = IntervalArrangement(ivs, geometry)
                assert open_closed_swap(arr) is arr

    def test_swap_checks_the_sensor_code(self, monkeypatch):
        # a margin blind to the sensors, 1/4 here, closes (0, 1) past the
        # sensor at 1/100: the dense code stays, the sensor code does not
        import convexcodes.geometry as g

        arr = IntervalArrangement((Interval1D.open(0, 1), Interval1D.open(2, 3)),
                                  Geometry.LINE)
        sensors = SensorSet.of([F(1, 100), F(5, 2)])
        _, seen = extract_code_sparse(open_to_closed(arr, sensors=sensors),
                                      sensors)
        assert [r.mask for r in seen.rows] == [1, 2]
        margin = g._margin
        monkeypatch.setattr(g, "_margin",
                            lambda arr, ends, sensors: margin(arr, ends, None))
        with pytest.raises(InternalError):
            open_to_closed(arr, sensors=sensors)

    def test_swaps_build_no_sensor_matrix(self, monkeypatch):
        # the self-checks compare row masks and column sets as plain ints
        arr, sensors = realize_matrix(
            SensorMatrix.from_strings(["0110", "1100", "0111"],
                                      Geometry.LINE), CO)

        def refuse(*args):
            raise AssertionError("a swap built a SensorMatrix")

        monkeypatch.setattr(SensorMatrix, "_init", refuse)
        closed = open_to_closed(arr, sensors=sensors)
        closed_to_open(closed, sensors=sensors)

    def test_swap_sorts_each_arrangement_once(self, monkeypatch):
        # the input's endpoints feed both the margin and the dense
        # self-check, and the output's are sorted for its side of it;
        # the input keeps its sort, so a second swap of it sorts only
        # its own output
        import convexcodes.geometry as g

        arr, sensors = realize_matrix(
            SensorMatrix.from_strings(["0110", "1100", "0111"],
                                      Geometry.LINE), CO)
        calls = []
        ends = g._ends

        def counted(a):
            calls.append(a)
            return ends(a)

        monkeypatch.setattr(g, "_ends", counted)
        first = open_to_closed(arr, sensors=sensors)
        again = open_to_closed(arr, sensors=sensors)
        assert first == again and first is not again
        assert [id(a) for a in calls] == [id(arr), id(first), id(again)]

    def test_normalize_open_reads_each_arrangement_once(self, monkeypatch,
                                                         tmp_path, capsys):
        # normalize --transform open makes three arrangements, realized,
        # closed and reopened: each is sorted once, placed once for its
        # dense code and read once at the sensors, the realized one by
        # its round trip, the other two by their swap's self-check
        import convexcodes.geometry as g
        from convexcodes.cli import main

        seen = {"_ends": [], "_dense_columns": [], "_rows": []}
        for name, calls in seen.items():
            def counted(arr, *args, calls=calls, fn=getattr(g, name)):
                calls.append(arr)
                return fn(arr, *args)

            monkeypatch.setattr(g, name, counted)
        path = tmp_path / "c.txt"
        path.write_text("0110\n1100\n0111\n1000\n")
        assert main(["normalize", str(path), "--transform", "open"]) == 0
        capsys.readouterr()
        made = [id(arr) for arr in seen["_rows"]]
        assert len(made) == len(set(made)) == 3
        for name, calls in seen.items():
            assert sorted(map(id, calls)) == sorted(made), name

    def test_mixed_arrangement_rejected(self):
        arr = IntervalArrangement(
            (Interval1D.proper(0, 1, True, False),), Geometry.LINE
        )
        with pytest.raises(DegenerateInterval):
            open_to_closed(arr)
        with pytest.raises(DegenerateInterval):
            closed_to_open(arr)


def _reference_gap_epsilon(arr, lengths):
    vals = sorted({e for iv in arr.intervals for e in iv.endpoints()})
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if arr.geometry is Geometry.CIRCLE and vals:
        gaps.append(1 - vals[-1] + vals[0])
        gaps = [g for g in gaps if g > 0]
    candidates = list(gaps) + [l for l in lengths if l > 0]
    if not candidates:
        return F(1, 4)
    return min(candidates) / 4


def _reference_margin(arr, lengths, sensors):
    eps = _reference_gap_epsilon(arr, lengths)
    if not sensors:
        return eps
    ps, n = sensors.positions, len(sensors)
    circle = arr.geometry is Geometry.CIRCLE
    dists = [eps]
    for e in {e for iv in arr.intervals for e in iv.endpoints()}:
        above, below = bisect_right(ps, e), bisect_left(ps, e) - 1
        if above < n:
            dists.append(ps[above] - e)
        elif circle:
            dists.append(ps[0] + 1 - e)
        if below >= 0:
            dists.append(e - ps[below])
        elif circle:
            dists.append(e + 1 - ps[-1])
    return min(dists)


def _reference_open_to_closed(arr, sensors=None):
    # the swaps as they were before one margin replaced the interval
    # lengths and the two size checks
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
            lengths.append((iv.hi - iv.lo) % 1)
    eps = _reference_margin(arr, lengths, sensors)
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
    assert extract_code_dense(result) == extract_code_dense(arr)
    return result


def _reference_closed_to_open(arr, sensors=None):
    for iv in arr.intervals:
        if iv.kind is Kind.PROPER:
            if (iv.lo is not None and not iv.lo_closed) or (
                iv.hi is not None and not iv.hi_closed
            ):
                raise DegenerateInterval("expected an all-closed arrangement")
    eps = _reference_margin(arr, [], sensors)
    out = []
    for iv in arr.intervals:
        if iv.kind is not Kind.PROPER:
            out.append(iv)
            continue
        lo = None if iv.lo is None else iv.lo - eps
        hi = None if iv.hi is None else iv.hi + eps
        if arr.geometry is Geometry.CIRCLE:
            if (1 - (iv.hi - iv.lo) % 1) <= 2 * eps:
                raise DegenerateInterval("arc too long to enlarge")
            lo, hi = lo % 1, hi % 1
        out.append(Interval1D.proper(lo, hi, False, False))
    result = IntervalArrangement(tuple(out), arr.geometry)
    assert extract_code_dense(result) == extract_code_dense(arr)
    return result


def rand_swap_case(rng, closed):
    """An all-open (closed=False) or all-closed arrangement on a coarse
    grid, so endpoints often coincide, with rays, wrapping and point
    arcs and now and then one half-open interval, plus no sensors,
    sensors anywhere, or sensors on endpoints."""
    geometry = rng.choice([Geometry.LINE, Geometry.CIRCLE])
    circle = geometry is Geometry.CIRCLE

    def point():
        if circle:
            return F(rng.randrange(12), 12)
        return F(rng.randint(-12, 12), rng.choice([1, 2, 3]))

    ivs = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.randrange(10)
        if roll < 2:
            ivs.append(Interval1D.empty() if roll else Interval1D.whole())
            continue
        lo, hi = point(), point()
        if lo == hi and not (closed and roll < 5):
            hi = (hi + F(1, 12)) % 1 if circle else hi + F(1, 12)
        if not circle:
            lo, hi = min(lo, hi), max(lo, hi)
            if roll == 8:
                lo = None
            elif roll == 9:
                hi = None
        lo_closed, hi_closed = closed and lo is not None, closed and hi is not None
        if rng.random() < 0.03 and lo != hi:
            lo_closed = lo is not None and not lo_closed
        ivs.append(Interval1D.proper(lo, hi, lo_closed, hi_closed))
    arr = IntervalArrangement(tuple(ivs), geometry)
    roll = rng.randrange(3)
    if roll == 0:
        return arr, None
    grid = [F(i, 24) for i in range(24)] if circle else [
        F(i, 6) for i in range(-80, 81)]
    ps = set(rng.sample(grid, rng.randint(0, 6)))
    if roll == 2:
        ends = sorted({e for iv in ivs for e in iv.endpoints()})
        ps |= set(rng.sample(ends, min(len(ends), rng.randint(1, 3))))
    return arr, SensorSet.of(ps)


def _outcome(swap, arr, sensors):
    try:
        return swap(arr, sensors=sensors)
    except DegenerateInterval as exc:
        return str(exc)


def test_swaps_equal_the_reference():
    rng = random.Random(71)
    kinds = set()
    for i in range(2000):
        closed = i % 2 == 1
        arr, sensors = rand_swap_case(rng, closed)
        new, ref = ((closed_to_open, _reference_closed_to_open) if closed
                    else (open_to_closed, _reference_open_to_closed))
        out = _outcome(new, arr, sensors)
        assert out == _outcome(ref, arr, sensors), (arr, sensors)
        if not isinstance(out, str) and not closed:
            # the round trip, on the same sensors
            assert (_outcome(closed_to_open, out, sensors)
                    == _outcome(_reference_closed_to_open, out, sensors))
        kinds.add((arr.geometry, closed, isinstance(out, str),
                   sensors is None))
    assert len(kinds) == 16


def _arrangement_text(arr):
    """The exact endpoints and closedness of arr, as lowest terms."""
    def end(e):
        return None if e is None else (e.numerator, e.denominator)

    return repr((arr.geometry.value, [
        (iv.kind.value, end(iv.lo), end(iv.hi), iv.lo_closed, iv.hi_closed)
        for iv in arr.intervals]))


def _prime_arrangement(geometry, rng, k):
    # k open intervals (arcs) whose ends and sensors each lie over their
    # own prime from 1009 up, never at a whole number
    primes = [p for p in range(1009, 1500)
              if all(p % d for d in range(2, 39))][:3 * k]
    span = 1 if geometry is Geometry.CIRCLE else 100

    def point(p):
        return F(p * rng.randrange(span) + rng.randrange(1, p), p)

    ends = [point(p) for p in primes[:2 * k]]
    ivs = []
    for i in range(k):
        lo, hi = ends[2 * i], ends[2 * i + 1]
        if geometry is Geometry.LINE:
            lo, hi = min(lo, hi), max(lo, hi)
        ivs.append(Interval1D.open(lo, hi))
    return (IntervalArrangement(tuple(ivs), geometry),
            SensorSet.of(point(p) for p in primes[2 * k:]))


# sha256 of the exact output of realize_matrix, normalize_arbitrary and
# both swaps, with and without sensors, on the seeded inputs below: a
# change that moves any endpoint, or flips any closedness, changes it
_ARRANGEMENTS_SHA256 = ("e2928ef777e2e51e11cc08b423b4e8721a4697de557338c95de"
                        "70781c9c2b453")


def test_arrangements_are_pinned():
    h = hashlib.sha256()

    def pin(*parts):
        h.update(repr(parts).encode())

    cases = []
    rng = random.Random(97)
    matrices = [(regime, SensorMatrix([rand_interval_row(rng, n, regime.geometry)
                                       for _ in range(k)], regime.geometry))
                for regime in (CO, CCO) for k, n in ((6, 5), (40, 30), (120, 90))]
    matrices += [(regime, rand_matrix(rng, regime, k_max=8, n_max=10))
                 for regime in (HCO, HCCO) for _ in range(3)]
    for regime, m in matrices:
        arr, sensors = realize_matrix(m, regime)
        pin(regime.name, m.row_strings(), _arrangement_text(arr),
            sensors.positions)
        cases.append((arr, sensors))
    rng = random.Random(1009)
    for geometry in (Geometry.LINE, Geometry.CIRCLE):
        for k in (3, 20):
            cases.append(_prime_arrangement(geometry, rng, k))
    for arr, sensors in cases:
        pin(_arrangement_text(normalize_arbitrary(arr, sensors)))
        for s in (None, sensors):
            closed = open_to_closed(arr, sensors=s)
            pin(_arrangement_text(closed),
                _arrangement_text(closed_to_open(closed, sensors=s)))
    assert h.hexdigest() == _ARRANGEMENTS_SHA256


U = F(1, 2**64)


# 1/2 and 1/4 in hundredths of a unit of 2^-64
HALF, QUARTER = 100 * 2**63, 100 * 2**62


@pytest.mark.parametrize("geometry, ivs, ps, want", [
    # gaps 10.9 and 10.1 units: floor-key differences 10 and 11
    (Geometry.LINE, [(0, 1090), (10095, 11105)], None, F(101, 40)),
    # gaps 10.9 and 10.02 units, both of floor-key difference 10
    (Geometry.LINE, [(0, 1090), (10095, 11097)], None, F(1002, 400)),
    # the margin 10.9 units, a quarter of the gap 43.6; a sensor 10.5
    # units above an endpoint, floor-key difference 11
    (Geometry.LINE, [(0, 4360), (100070, 200000)], [101120], F(105, 10)),
    # ... 10.4 units, floor-key difference 10 as for the margin
    (Geometry.LINE, [(0, 4360), (100020, 200000)], [101060], F(104, 10)),
    # ... 10.94 units, floor-key difference 10: the margin stays
    (Geometry.LINE, [(0, 4360), (100005, 200000)], [101099], F(109, 10)),
    # the wrap gap 5.05 + 5 units, floor-key difference 11, under the gap
    # 10.9 of difference 10
    (Geometry.CIRCLE, [(-505, 500), (HALF, HALF + 1090)], None,
     F(1005, 400)),
    # an endpoint 3.3 units below 1 and the first sensor at 7.1: 10.4
    # units across 0, floor-key difference 11, under the margin 10.9
    (Geometry.CIRCLE, [(QUARTER, QUARTER + 4360), (3 * QUARTER, -330)],
     [710, HALF], F(104, 10)),
    # an endpoint at 2.2 units and the last sensor 8.7 below 1: 10.9
    # units across 0, floor-key difference 11, under the margin 10.95
    (Geometry.CIRCLE, [(220, QUARTER), (3 * QUARTER, 3 * QUARTER + 4380)],
     [HALF, -870], F(109, 10)),
])
def test_margin_near_ties(geometry, ivs, ps, want):
    # coordinates in hundredths of a unit of 2^-64, negative ones below 1
    # on the circle; want is in units: the floor keys misorder or tie
    # each named pair, and only the exact differences pick the margin
    def at(t):
        return (1 if t < 0 else 0) + F(t, 100) * U

    arr = IntervalArrangement(tuple(Interval1D.open(at(a), at(b))
                                    for a, b in ivs), geometry)
    sensors = None if ps is None else SensorSet.of(at(t) for t in ps)
    assert _margin(arr, _ends(arr), sensors) == want * U
    assert _reference_margin(arr, [], sensors) == want * U


def test_margin_equals_the_reference_near_ties():
    # endpoints and sensors within a few hundred units of 2^-64 of 0 (and
    # of 1 on the circle), in tenths of a unit: floor-key differences tie
    # or differ by one among nearly every pair of candidates
    rng = random.Random(83)
    for i in range(600):
        geometry = Geometry.CIRCLE if i % 2 else Geometry.LINE

        def point():
            x = F(rng.randrange(1, 300), 10) * U
            below_one = geometry is Geometry.CIRCLE and rng.random() < 0.5
            return 1 - x if below_one else x

        ivs = []
        for _ in range(rng.randint(1, 6)):
            lo, hi = point(), point()
            if lo != hi:
                if geometry is Geometry.LINE:
                    lo, hi = min(lo, hi), max(lo, hi)
                ivs.append(Interval1D.open(lo, hi))
        arr = IntervalArrangement(tuple(ivs), geometry)
        sensors = (None if i % 3 == 0 else
                   SensorSet.of({point() for _ in range(rng.randint(1, 6))}))
        assert (_margin(arr, _ends(arr), sensors)
                == _reference_margin(arr, [], sensors))


def test_reversed_line_interval_closes():
    # an open line interval with lo > hi contains no point; its closure
    # is a closed interval with lo > hi, which contains none either
    arr = IntervalArrangement((Interval1D.open(3, 1),), Geometry.LINE)
    closed = open_to_closed(arr)
    assert closed.intervals == (Interval1D.closed(F(7, 2), F(1, 2)),)
    reopened = closed_to_open(closed)
    assert extract_code_dense(reopened) == extract_code_dense(arr)


def test_self_checks_survive_optimize_flag():
    # python -O strips assert statements; the round-trip checks of
    # realize_matrix, normalize_arbitrary and the open/closed swaps must
    # still raise when their construction goes wrong
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction as F
        import convexcodes.geometry as g
        from convexcodes.core import CO, Geometry, InternalError, SensorMatrix

        if not sys.flags.optimize:
            sys.exit("not running under -O")

        def raises(call, *args):
            try:
                call(*args)
            except InternalError:
                return True
            return False

        m = SensorMatrix.from_strings(["0110"], Geometry.LINE)
        arr, sensors = g.realize_matrix(m, CO)
        row_ends = g._row_ends
        # one sensor too far left: g - 1 in place of g
        g._row_ends = lambda mask, n, geo: (row_ends(mask, n, geo)[0],
                                            row_ends(mask, n, geo)[1] - 1)
        failed = [not raises(g.realize_matrix, m, CO),
                  not raises(g.normalize_arbitrary, arr, sensors)]
        g._row_ends = row_ends
        two = g.IntervalArrangement(
            (g.Interval1D.open(0, 1), g.Interval1D.open(2, 3)), Geometry.LINE)
        closed = g.open_to_closed(two)
        # margins that grow the intervals into each other
        g._margin = lambda arr, ends, sensors: F(-1)
        failed.append(not raises(g.open_to_closed, two))
        g._margin = lambda arr, ends, sensors: F(1)
        failed.append(not raises(g.closed_to_open, closed))
        sys.exit("unchecked: %r" % failed if any(failed) else 0)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestDenseSizeBound:
    def test_bound_and_equality_witness(self):
        rng = random.Random(61)
        equality_seen = False
        for _ in range(300):
            k = rng.randint(0, 10)
            arr = rand_open_arrangement(rng, Geometry.LINE, k_max=10)
            k = arr.k
            code = extract_code_dense(arr)
            assert len(code) <= 2 * k + 1
            if len(code) == 2 * k + 1:
                equality_seen = True
        # the empty arrangement attains the bound: one codeword, 2*0+1
        empty = IntervalArrangement((), Geometry.LINE)
        assert len(extract_code_dense(empty)) == 1
        equality_seen = True
        assert equality_seen
