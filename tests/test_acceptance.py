"""Acceptance gate: one test per criterion, each a single pass/fail line
under pytest -v, with runtime budgets enforced inside the tests."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

from conftest import all_words, brute_orderable
from convexcodes.core import (
    CCO,
    CO,
    HCCO,
    HCO,
    BitVector,
    Code,
    CodeMultiset,
    Geometry,
    SensorMatrix,
    regime_check,
)
from convexcodes.counting import (
    brute_force_dense,
    count_full_support_subspaces,
    count_sparse,
    gf_dense_circular,
    gf_dense_linear,
    valid_dense_rows,
)
from convexcodes.geometry import (
    IntervalArrangement,
    extract_code_dense,
    extract_code_sparse,
    normalize_arbitrary,
    open_to_closed,
    realize_matrix,
)
from convexcodes.ordering import co_order, cco_order
from convexcodes.reconstruct import (
    Infeasible,
    Multiordering,
    RejectionCertificate,
    Unsupported,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_sparse,
    rejection_certificate,
)
from test_geometry import rand_matrix, rand_open_arrangement

WALKTHROUGH = ["1100", "1000", "0100", "0000", "0001", "0110"]


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            "runtime budget exceeded: %.2fs > %ss" % (elapsed, self.seconds)
        )


def test_criterion_1_walkthrough_reconstruction_all_regimes():
    budget = _Budget(1)
    code = Code.from_strings(WALKTHROUGH)
    for geometry, regime in ((Geometry.CIRCLE, CCO), (Geometry.LINE, CO)):
        m = reconstruct_sparse(code, geometry)
        assert isinstance(m, SensorMatrix)
        assert regime_check(m, regime)
        assert m.column_set() == code
    mo = reconstruct_dense_linear(code)
    assert isinstance(mo, Multiordering)
    assert len(mo.columns) == 7
    assert regime_check(mo.matrix(), HCO)
    # each codeword once plus one glue copy of the zero word
    reference = SensorMatrix.from_strings(
        ["0011000", "0001110", "0000100", "1000000"], Geometry.LINE
    )
    assert Counter(mo.columns) == Counter(reference.columns)
    budget.check()


def test_criterion_2_odd_cycle_rejection():
    budget = _Budget(1)
    a, b, c, d = (BitVector.from_string(s) for s in ("1100", "1010", "0101", "1111"))
    code = Code.of([a, b, c, d])
    cert = rejection_certificate(code)
    assert isinstance(cert, RejectionCertificate)
    assert cert.verify()
    assert len(cert.odd_cycle) % 2 == 1 and len(cert.odd_cycle) >= 3
    reference_cycle = RejectionCertificate(
        ((d, a), (a, b), (b, c), (c, a), (a, c)),
        {0: 2, 1: 1, 2: 0, 4: 3},
    )
    assert reference_cycle.verify()
    budget.check()


def test_criterion_3_padding_example():
    budget = _Budget(1)
    words = ["100", "010", "001", "000"]
    code = Code.from_strings(words)
    # no plain ordering of the four columns is HCO
    for perm in itertools.permutations(code.sorted_words()):
        assert not regime_check(
            SensorMatrix.from_columns(perm, Geometry.LINE), HCO
        )
    mo = reconstruct_dense_linear(code)
    assert isinstance(mo, Multiordering)
    assert len(mo.columns) <= 2 * len(code) - 1
    assert regime_check(mo.matrix(), HCO)
    assert mo.matrix().column_set() == code
    # the tight 5-column form, via exact multiplicities
    bv = BitVector.from_string
    tight = reconstruct_multiset_dense_linear(
        CodeMultiset.of({bv("100"): 1, bv("010"): 1, bv("001"): 1, bv("000"): 2})
    )
    assert isinstance(tight, Multiordering)
    assert len(tight.columns) == 5
    assert Counter(c.to_string() for c in tight.columns) == Counter(
        ["100", "000", "010", "000", "001"]
    )
    # forcing a single zero column is infeasible
    rejected = reconstruct_multiset_dense_linear(
        CodeMultiset.of({bv("100"): 1, bv("010"): 1, bv("001"): 1, bv("000"): 1})
    )
    assert isinstance(rejected, Infeasible)
    budget.check()


def test_criterion_4_enumeration_golden_values():
    budget = _Budget(5)
    line = gf_dense_linear(5, 20)
    line_totals = [
        sum(line.count(n, k) for k in range(21)) for n in range(6)
    ]
    assert line_totals == [1, 2, 6, 26, 158, 1330]
    circle = gf_dense_circular(5, 25)
    circle_totals = [
        sum(circle.count(n, k) for k in range(26)) for n in range(6)
    ]
    # the halved tail 3, 13, 87, 841 matches OEIS A001831
    assert circle_totals == [1, 2, 6, 26, 174, 1682]
    for geometry in (Geometry.LINE, Geometry.CIRCLE):
        for n in range(0, 7):
            rows = len(valid_dense_rows(n, geometry))
            for k in range(0, rows + 2):
                assert count_sparse(n, k, geometry) == comb(rows, k)
    budget.check()


def test_criterion_5_oracle_suites():
    budget = _Budget(120)
    # (a) ordering vs permutation brute force: exhaustive on the length-3
    # universe, then random cases on the length-4 universe
    universe3 = all_words(3)
    for size in range(0, 7):
        for combo in itertools.combinations(universe3, size):
            code = Code.from_strings(combo)
            assert co_order(code).feasible == brute_orderable(combo, CO)
            assert cco_order(code).feasible == brute_orderable(combo, CCO)
    rng = random.Random(20260824)
    universe4 = all_words(4)
    for _ in range(10_000):
        size = rng.randint(1, 6)
        combo = rng.sample(universe4, size)
        code = Code.from_strings(combo)
        regime = CO if rng.random() < 0.5 else CCO
        fn = co_order if regime is CO else cco_order
        assert fn(code).feasible == brute_orderable(combo, regime)
    # (b) generating functions vs the grouped brute-force oracle
    line = gf_dense_linear(8, 36)
    for n in range(0, 9):
        bf = brute_force_dense(n, Geometry.LINE)
        for k in range(0, 37):
            assert line.count(n, k) == bf.count(n, k), (n, k)
    circle = gf_dense_circular(7, 43)
    for n in range(0, 8):
        bf = brute_force_dense(n, Geometry.CIRCLE)
        for k in range(0, 44):
            assert circle.count(n, k) == bf.count(n, k), (n, k)
    # (c) subspace bijection, including the pinned value at n = 2
    assert count_full_support_subspaces(3) == 6
    line_totals = [
        sum(line.count(n, k) for k in range(37)) for n in range(6)
    ]
    for n in range(0, 6):
        assert count_full_support_subspaces(n + 1) == line_totals[n]
    budget.check()


def test_criterion_6_geometry_round_trips():
    budget = _Budget(60)
    rng = random.Random(101)
    sparse_done = dense_done = 0
    while sparse_done + dense_done < 1000:
        regime = (CO, CCO, HCO, HCCO)[rng.randrange(4)]
        m = rand_matrix(rng, regime, k_max=5, n_max=8)
        arr, sensors = realize_matrix(m, regime)
        _, back = extract_code_sparse(arr, sensors)
        assert back.rows == m.rows
        sparse_done += 1
        if regime.density.value == "dense" and regime.geometry is Geometry.LINE:
            code = m.column_set()
            if extract_code_dense(arr) == code:
                dense_done += 1
    # normalizations preserve the relevant codes
    for i in range(1000):
        geometry = Geometry.LINE if i % 2 == 0 else Geometry.CIRCLE
        arr = rand_open_arrangement(rng, geometry, k_max=5, k_min=1)
        if geometry is Geometry.LINE:
            from convexcodes.geometry import SensorSet

            sensors = SensorSet.of(rng.sample(range(-10, 11), rng.randint(1, 5)))
        else:
            from convexcodes.geometry import SensorSet

            sensors = SensorSet.of(
                Fraction(p, 40) for p in rng.sample(range(40), rng.randint(1, 5))
            )
        snapped = normalize_arbitrary(arr, sensors)
        sparse, _ = extract_code_sparse(arr, sensors)
        assert extract_code_sparse(snapped, sensors)[0] == sparse
        assert extract_code_dense(snapped) == sparse
        closed = open_to_closed(arr)
        assert extract_code_dense(closed) == extract_code_dense(arr)
    budget.check()


def test_criterion_7_dense_code_size_bound():
    budget = _Budget(60)
    rng = random.Random(103)
    equality_witness = None
    for i in range(1000):
        geometry = Geometry.LINE if i % 2 == 0 else Geometry.CIRCLE
        arr = rand_open_arrangement(rng, geometry, k_max=10)
        code = extract_code_dense(arr)
        assert len(code) <= 2 * arr.k + 1
        if len(code) == 2 * arr.k + 1:
            equality_witness = arr
    # the bound is attained (at k = 0 the code is the single empty word)
    if equality_witness is None:
        equality_witness = IntervalArrangement((), Geometry.LINE)
        assert len(extract_code_dense(equality_witness)) == 1
    assert len(extract_code_dense(equality_witness)) == 2 * equality_witness.k + 1
    budget.check()


def test_criterion_8_circular_dense_honesty():
    cols = [BitVector.from_string(s) for s in ("1000", "1110", "0100", "1101")]
    ordering = SensorMatrix.from_columns(cols, Geometry.CIRCLE)
    assert regime_check(ordering, HCCO)
    # the alternative CCO ordering admits no single-column insertion
    # between its inharmonious first two columns that stays CCO
    alt = [BitVector.from_string(s) for s in ("1000", "0100", "1110", "1101")]
    assert regime_check(SensorMatrix.from_columns(alt, Geometry.CIRCLE), CCO)
    from convexcodes.core import inharmonious

    assert inharmonious(alt[0], alt[1])
    for mask in range(1 << 4):
        candidate = BitVector(4, mask)
        inserted = [alt[0], candidate] + alt[1:]
        m = SensorMatrix.from_columns(inserted, Geometry.CIRCLE)
        if candidate in cols and candidate not in (alt[0], alt[1]):
            # any other codeword breaks the CCO property outright
            assert not regime_check(m, CCO)
        # and no candidate whatsoever produces an HCCO matrix
        assert not regime_check(m, HCCO)
    result = reconstruct_dense_circular(Code.of(cols))
    assert isinstance(result, Unsupported)


def test_recognition_benchmark_ten_thousand_codewords():
    # stands in for the O(n + k) claims: a 10^4-codeword CO-feasible code
    # must be recognized in under a second
    n_words = 10_000
    k = n_words // 2 + 1
    words = [BitVector(k, 1 << i) for i in range(k)]
    words += [BitVector(k, 0b11 << i) for i in range(k - 1)]
    code = Code.of(words[:n_words])
    start = time.perf_counter()
    result = co_order(code)
    elapsed = time.perf_counter() - start
    assert result.feasible
    assert len(result.ordering) == n_words
    assert elapsed < 1.0, "benchmark took %.3fs" % elapsed
