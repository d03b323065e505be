"""Scale suite: public entry points on inputs of thousands of words or
sensors, each within a runtime budget set at about three times the time
it took when the budget was set (Python 3.11, one core).  A missed
budget is a defect to report, not a bound to loosen."""

import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from convexcodes.cli import (EXIT_FEASIBLE, EXIT_INFEASIBLE, main,
                             parse_code_file)
from convexcodes.core import (CCO, CO, BitVector, Code, CodeMultiset, Geometry,
                              SensorMatrix)
from convexcodes.counting import brute_force_dense, brute_force_table
from convexcodes.geometry import (
    Interval1D,
    IntervalArrangement,
    SensorSet,
    _ends,
    _margin,
    closed_to_open,
    extract_code_dense,
    extract_code_sparse,
    open_to_closed,
    realize_matrix,
)
from convexcodes.ordering import cco_order, co_order
from convexcodes.pqtree import PQTree, _Node
from convexcodes.reconstruct import (
    Bipartition,
    Multiordering,
    RejectionCertificate,
    _infeasible_core,
    _odd_cycle,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_sparse,
    rejection_certificate,
)
from test_acceptance import _Budget
from test_geometry import _reference_margin
from tucker import (_planted_cycle, _staircase_with_triangle, m_i, m_ii,
                    m_iii, repeated)


def _staircase(n):
    # n words: the k = n/2 + 1 singletons, then adjacent pairs
    k = n // 2 + 1
    masks = [1 << i for i in range(k)] + [0b11 << i for i in range(k - 1)]
    return Code.of(BitVector(k, m) for m in masks[:n])


def _dense_complete(k, rng):
    # the regions between the 2k distinct endpoints of k intervals, each
    # word with a surplus of 0-2 copies the dense reconstruction prunes
    slots = list(range(2 * k))
    rng.shuffle(slots)
    regions = [0] * (2 * k + 1)
    for i in range(k):
        lo, hi = sorted(slots[2 * i: 2 * i + 2])
        for r in range(lo + 1, hi + 1):
            regions[r] |= 1 << i
    entries = {}
    for m in regions:
        w = BitVector(k, m)
        entries[w] = entries.get(w, 0) + 1
    return CodeMultiset.of({w: c + rng.randrange(3) for w, c in entries.items()})


def _random_intervals(k, n):
    # an interval matrix holds about k*n/3 ones
    rng = random.Random(5000)
    rows = []
    for _ in range(k):
        a, b = sorted((rng.randrange(n), rng.randrange(n)))
        rows.append(BitVector(n, ((1 << (b - a + 1)) - 1) << a))
    return SensorMatrix(rows, Geometry.LINE)


def test_realize_random_intervals():
    m = _random_intervals(5000, 10**4)
    budget = _Budget(1.3)
    arr, sensors = realize_matrix(m, CO)
    budget.check()
    assert len(arr.intervals) == 5000 and len(sensors) == 10**4


def test_open_closed_swaps_with_sensors():
    # each swap bisects the 10^4 sensors from every endpoint, reads its
    # output's sensor rows (its input's were read once, by the round trip
    # or the swap before) and checks the dense code at ~2 * 10^4 integer
    # places
    arr, sensors = realize_matrix(_random_intervals(5000, 10**4), CO)
    budget = _Budget(3.3)
    closed = open_to_closed(arr, sensors=sensors)
    budget.check()
    budget = _Budget(3.3)
    reopened = closed_to_open(closed, sensors=sensors)
    budget.check()
    assert all(iv.lo_closed for iv in closed.intervals if iv.lo is not None)
    assert not any(iv.lo_closed for iv in reopened.intervals)


def _random_arcs(k, n):
    # k arcs of 1 to n - 1 sensors from a random start, many wrapping
    rng = random.Random(5001)
    full = (1 << n) - 1
    rows = []
    for _ in range(k):
        start, length = rng.randrange(n), rng.randrange(1, n)
        mask = ((1 << length) - 1) << start
        rows.append(BitVector(n, (mask | mask >> n) & full))
    return SensorMatrix(rows, Geometry.CIRCLE)


@pytest.fixture(scope="module")
def random_arcs():
    return _random_arcs(5000, 10**4)


def test_realize_random_arcs(random_arcs):
    budget = _Budget(0.6)
    arr, sensors = realize_matrix(random_arcs, CCO)
    budget.check()
    assert len(arr.intervals) == 5000 and len(sensors) == 10**4


def test_circle_swaps_with_sensors(random_arcs):
    # the circle's ends are taken mod 1 as they move, and the margin
    # measures the gap and the sensor distances across 0 too
    arr, sensors = realize_matrix(random_arcs, CCO)
    budget = _Budget(1.0)
    closed = open_to_closed(arr, sensors=sensors)
    budget.check()
    budget = _Budget(1.0)
    reopened = closed_to_open(closed, sensors=sensors)
    budget.check()
    assert all(iv.lo_closed and iv.hi_closed for iv in closed.intervals)
    assert not any(iv.lo_closed or iv.hi_closed for iv in reopened.intervals)
    _, seen = extract_code_sparse(reopened, sensors)
    assert seen.rows == random_arcs.rows


def _primes_from(lo, count):
    # the first count primes >= lo, by a sieve of Eratosthenes
    hi = 2 * lo + 20 * count
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]][:count]


def _prime_denominators():
    # 5000 open intervals and 10^4 sensors in [0, 10^4), every endpoint
    # and sensor over its own prime from 10007 up, never a whole number:
    # the common denominator of the 2 * 10^4 coordinates has 331,150 bits
    rng = random.Random(10007)
    primes = _primes_from(10007, 2 * 10**4)

    def point(p):
        return Fraction(p * rng.randrange(10**4) + rng.randrange(1, p), p)

    ends = [point(p) for p in primes[:10**4]]
    arr = IntervalArrangement(
        tuple(Interval1D.open(*sorted(ends[2 * i: 2 * i + 2]))
              for i in range(5000)), Geometry.LINE)
    return arr, SensorSet.of(point(p) for p in primes[10**4:])


@pytest.fixture(scope="module")
def prime_denominators():
    return _prime_denominators()


@pytest.mark.parametrize("call, seconds", [
    (lambda arr, sensors: extract_code_sparse(arr, sensors), 0.3),
    (lambda arr, sensors: extract_code_dense(arr), 0.6),
    (lambda arr, sensors: open_to_closed(arr, sensors=sensors), 2.1),
], ids=["sparse", "dense", "open_to_closed"])
def test_prime_denominators(prime_denominators, call, seconds):
    # rationals are ordered by an integer key, not over a common
    # denominator, so no cost grows with its size; a fresh arrangement
    # of the same intervals has read, sorted and placed nothing yet
    arr, sensors = prime_denominators
    arr = IntervalArrangement(arr.intervals, arr.geometry)
    budget = _Budget(seconds)
    call(arr, sensors)
    budget.check()


def test_prime_margin_subtracts_near_candidates_only(prime_denominators,
                                                     monkeypatch):
    # ~3 * 10^4 candidate gaps and sensor distances: their floor keys
    # rule out all but the few within 1 of the least floor difference
    arr, sensors = prime_denominators
    subtractions = []
    sub = Fraction.__sub__

    def counted(a, b):
        subtractions.append(1)
        return sub(a, b)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__sub__", counted)
        margin = _margin(arr, _ends(arr), sensors)
    assert len(subtractions) <= 16
    assert margin == _reference_margin(arr, [], sensors)


@pytest.mark.parametrize("multiset", [False, True])
def test_dense_linear_reconstruction(multiset):
    ms = _dense_complete(1024, random.Random(1024))
    budget = _Budget(4)
    if multiset:
        result = reconstruct_multiset_dense_linear(ms)
    else:
        result = reconstruct_dense_linear(ms.support)
    budget.check()
    assert isinstance(result, Multiordering)
    if multiset:
        assert len(result.columns) == ms.total()


def test_sparse_nested():
    n = 800
    code = Code.of(BitVector(n, (1 << (i + 1)) - 1) for i in range(n))
    budget = _Budget(1.2)
    m = reconstruct_sparse(code, Geometry.LINE)
    budget.check()
    assert isinstance(m, SensorMatrix) and m.n == n


def test_sparse_nested_million_ones():
    # 1400 nested words hold about 10^6 ones; each of the 1400 rows is
    # one reduction
    n = 1400
    code = Code.of(BitVector(n, (1 << (i + 1)) - 1) for i in range(n))
    budget = _Budget(1.6)
    m = reconstruct_sparse(code, Geometry.LINE)
    budget.check()
    assert isinstance(m, SensorMatrix) and m.n == n


def test_pq_two_ended_deep_q_node():
    # the nested suffixes build a chain n deep, and the prefixes then fold
    # it into one Q node: 1.96 * 10^6 labels in 2 * (n - 1) reductions
    n = 1400
    constraints = ([list(range(i + 1, n)) for i in range(n - 1)]
                   + [list(range(j + 1)) for j in range(n - 1)])
    tree = PQTree(n)
    budget = _Budget(2.7)
    for c in constraints:
        tree.reduce(c)
    budget.check()
    assert tree.frontier() == list(range(n))
    assert tree.summary() == "[" + " ".join(map(str, range(n))) + "]"


def test_sparse_random_arcs():
    # 8000 arcs of 1-16 sensors over 2 * 10^4 sensors on the circle:
    # 10,597 distinct words
    n, rng = 2 * 10**4, random.Random(7)
    rows = []
    for _ in range(8000):
        start, length = rng.randrange(n), rng.randint(1, 16)
        mask = ((1 << length) - 1) << start
        rows.append(BitVector(n, (mask | mask >> n) & ((1 << n) - 1)))
    code = SensorMatrix(rows, Geometry.CIRCLE).column_set()
    assert len(code) == 10597
    budget = _Budget(1.4)
    m = reconstruct_sparse(code, Geometry.CIRCLE)
    budget.check()
    assert isinstance(m, SensorMatrix) and m.n == len(code)


@pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
def test_sparse_staircase(geometry):
    code = _staircase(10**4)
    budget = _Budget(1)
    m = reconstruct_sparse(code, geometry)
    budget.check()
    assert isinstance(m, SensorMatrix) and m.n == len(code)


def _live_nodes():
    gc.collect()
    return sum(type(o) is _Node for o in gc.get_objects())


@pytest.mark.parametrize("order, regime", [(co_order, CO), (cco_order, CCO)])
def test_feasible_result_keeps_no_tree(order, regime):
    # a feasible result holds its ordering, its matrix and the tree's
    # bracket shape, not the PQ-tree: no tree node outlives the call, and
    # beside the matrix the result holds at most 0.5 MB (3.20 MB on the
    # line and 3.08 MB on the circle when it kept the tree)
    code = _staircase(10**4)
    nodes = _live_nodes()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = order(code)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        base = tracemalloc.get_traced_memory()[0]
        matrix = SensorMatrix.from_columns(result.ordering, regime.geometry,
                                           k=code.k)
        matrix_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert result.feasible and matrix == result.matrix
    assert _live_nodes() == nodes
    assert held - matrix_bytes <= 500_000, (held, matrix_bytes)


def test_circle_rows_of_the_heaviest_word():
    # the 10^4-word staircase plus 2000 rows that only its largest-mask
    # word holds, 16,999 ones: complemented by that word, each new row
    # would hold every other word, ~2 * 10^7 ones; by a lightest word,
    # the complement holds at most twice the ones
    code = _staircase(10**4)
    top, k, extra = code.sorted_words()[-1], code.k, 2000
    code = Code.of(BitVector(k + extra, w.mask | (((1 << extra) - 1) << k
                                                  if w is top else 0))
                   for w in code.sorted_words())
    budget = _Budget(0.9)
    result = cco_order(code)
    budget.check()
    assert result.feasible and len(result.ordering) == len(code)


def test_feasible_certificate():
    # one recognition: the certificate is the recognizer's ordering
    code = _staircase(10**4)
    budget = _Budget(0.75)
    cert = rejection_certificate(code)
    budget.check()
    assert isinstance(cert, Bipartition)
    # the ordering checks in O(ones), without a PQ-tree
    budget = _Budget(0.2)
    assert cert.verify(code)
    budget.check()
    assert cert.ordering == co_order(code).ordering


def test_structured_feasible_certificate(tmp_path, capsys):
    # 10^4 words of 5001 bits, about 50 MB: the document lists the CO
    # ordering, each word once, so it is as long as the file read
    code = _staircase(10**4)
    path = tmp_path / "c.txt"
    path.write_text("".join(w.to_string() + "\n" for w in
                            code.sorted_words()))
    budget = _Budget(4.5)
    status = main(["certificate", str(path), "--format", "structured"])
    budget.check()
    doc = json.loads(capsys.readouterr().out)
    assert status == EXIT_FEASIBLE and doc["status"] == "feasible"
    cert = Bipartition(tuple(BitVector.from_string(w)
                             for w in doc["ordering"]))
    assert cert.verify(code)


def test_infeasible_certificate():
    # one recognition of the whole code fails at the triangle's last
    # row; the core search then reduces only the triangle's rows, the
    # one component that row is in, and recognizes its three words
    code = _staircase_with_triangle(10**4)
    budget = _Budget(24)
    cert = rejection_certificate(code)
    budget.check()
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert len(cert.odd_cycle) == 3


def test_certificate_of_a_planted_odd_cycle():
    # Tucker's M_I(31) on 31 new rows, word j holding rows j and j - 1
    # (mod 31), beside a 2000-word staircase: the row passes reduce only
    # the cycle's rows, on trees over its 31 words
    code, cycle = _planted_cycle(2000, 31)
    budget = _Budget(2.7)
    cert = rejection_certificate(code)
    budget.check()
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == cycle


def test_odd_cycle_walks_the_graph_without_building_it():
    # the core of M_I(51) has 51 * 50 = 2550 pair vertices; a search that
    # builds their adjacency lists first peaks above 2 MB, a cycle
    # written down from the core's rows holds only its own vertices
    code, cycle = _planted_cycle(200, 51)
    core = _infeasible_core(code.sorted_words(),
                            co_order(code).failed_row)
    tracemalloc.start()
    try:
        cert = _odd_cycle(*core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert is not None and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == cycle
    assert peak < 500_000, peak


@pytest.mark.parametrize("make, c", [(m_i, 801), (m_ii, 403), (m_iii, 403)],
                         ids=["M_I(801)", "M_II(403)", "M_III(403)"])
def test_odd_cycle_of_a_lone_tucker_kind(make, c):
    # the kind is its own core, all words on all rows, so no core search
    # runs: the cycle is written down in O(ones), where a breadth-first
    # search over the c (c - 1) word pairs took tens of seconds
    code = make(c)
    ws = code.sorted_words()
    budget = _Budget(0.5)
    cert = _odd_cycle(ws, (1 << code.k) - 1)
    budget.check()
    assert cert is not None and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == set(ws)
    assert len(cert.odd_cycle) <= 2 * sum(w.popcount() for w in ws)


@pytest.mark.parametrize("make", [
    pytest.param(m_i, id="M_I"),
    pytest.param(lambda c: repeated(m_i(c), 5), id="M_I x 5 rows"),
    pytest.param(m_ii, id="M_II"),
    pytest.param(m_iii, id="M_III"),
])
def test_co_order_refuses_a_lone_tucker_kind(visits, make):
    # c = 10^3 words, refused at the kind's last row in at most 3 parent
    # reads of the PQ-tree per one (measured 4,120 / 12,112 / 6,115 /
    # 5,115 reads on 2,000 / 10,000 / 3,994 / 2,994 ones)
    code = make(1000)
    ones = sum(w.popcount() for w in code.words)
    budget = _Budget(0.5)
    result = co_order(code)
    budget.check()
    assert not result.feasible
    assert visits[0] <= 3 * ones, (visits[0], ones)


@pytest.mark.parametrize("layout, seconds", [
    ("end", 4.5), ("spread", 4.5), ("tied", 18)])
def test_certificate_of_a_planted_cycle_101(layout, seconds):
    # M_I(101) beside the 10^4-word staircase.  At the end or spread,
    # the row filter sees only the cycle's rows and the time is mostly
    # the odd-cycle search over the core's 101 words.  Tied, every
    # cycle word also holds one staircase row and all rows are one
    # component, but the candidates come nearest the failing row
    # first, so each row pass stops within the cycle's rows, the tied
    # row and the staircase rows next to it
    code, cycle = _planted_cycle(10**4, 101, layout)
    budget = _Budget(seconds)
    cert = rejection_certificate(code)
    budget.check()
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == cycle


@pytest.mark.parametrize("c, layout, reductions", [
    (3, "end", 10030), (101, "end", 50602), (101, "spread", 50602),
    (101, "tied", 51202)])
def test_certificate_reductions(monkeypatch, c, layout, reductions):
    # PQ reductions of one certificate beside the 10^4-word staircase,
    # at most twice the count when the bound was set: the recognition
    # of the whole code, then small passes over the rows nearest the
    # failing row.  A row filter that reduced every row of the
    # component before the last core row on each pass would make
    # ~r * 5000 on the tied layout, where every row is in the component
    code, cycle = _planted_cycle(10**4, c, layout)
    calls = []
    reduce = PQTree.reduce

    def counted(tree, labels):
        calls.append(len(labels))
        return reduce(tree, labels)

    monkeypatch.setattr(PQTree, "reduce", counted)
    cert = rejection_certificate(code)
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == cycle
    assert len(calls) <= reductions


def test_cli_check_of_a_large_infeasible_file(tmp_path, capsys):
    # 10^4 words of 5004 bits, about 50 MB: parsing, one recognition of
    # the whole code (the check's, whose failed row the certificate
    # takes) and a core search over the triangle's three rows
    path = tmp_path / "bad.txt"
    path.write_text("".join(w.to_string() + "\n" for w in
                            _staircase_with_triangle(10**4).sorted_words()))
    budget = _Budget(7)
    status = main(["check", str(path)])
    budget.check()
    out = capsys.readouterr().out.splitlines()
    assert status == EXIT_INFEASIBLE
    assert out[:2] == ["infeasible: no CO column ordering exists: row 5003"
                       " fails",
                       "not bipartite: odd cycle of 3 ordering relations"]


def test_parse_staircase_file():
    # 2000 words of 1001 bits
    words = _staircase(2000).sorted_words()
    text = "".join(w.to_string() + "\n" for w in words)
    budget = _Budget(0.25)
    ms = parse_code_file(text)
    budget.check()
    assert ms.support == Code.of(words)


def test_brute_force_oracle_at_its_limit():
    # 2^14 sets F of f-values on 14 sensors, over C(15, 2) = 105 rows of
    # the line and 14 * 13 + 1 = 183 of the circle
    for geometry, rows in ((Geometry.LINE, 105), (Geometry.CIRCLE, 183)):
        budget = _Budget(0.3)
        table = brute_force_dense(14, geometry)
        budget.check()
        assert table.count(14, 0) == 1 and table.count(14, 1) == rows
        assert table.count(14, rows + 1) == 0
    # one walk counts every row of the line's table
    budget = _Budget(0.3)
    table = brute_force_table(14, Geometry.LINE)
    budget.check()
    assert [table.count(n, 1) for n in range(15)] == [
        n * (n + 1) // 2 for n in range(15)]
