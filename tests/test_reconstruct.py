import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from conftest import (
    all_words,
    brute_dense_multiordering,
    brute_multiset_orderable,
    brute_orderable,
)
from convexcodes.core import (
    CCO,
    CO,
    HCO,
    BitVector,
    Code,
    CodeMultiset,
    Geometry,
    SensorMatrix,
    inharmonious,
    regime_check,
)
from convexcodes.reconstruct import (
    Bipartition,
    Infeasible,
    Multiordering,
    RejectionCertificate,
    Unsupported,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_multiset_sparse,
    reconstruct_sparse,
    rejection_certificate,
)

ODD_CYCLE_CODE = ["1100", "1010", "0101", "1111"]


def _code(strings):
    return Code.from_strings(strings)


def _bv(s):
    return BitVector.from_string(s)


class TestSparse:
    def test_walkthrough_code_both_geometries(self):
        code = _code(["1100", "1000", "0100", "0000", "0001", "0110"])
        for geometry, regime in ((Geometry.LINE, CO), (Geometry.CIRCLE, CCO)):
            m = reconstruct_sparse(code, geometry)
            assert isinstance(m, SensorMatrix)
            assert regime_check(m, regime)
            assert m.column_set() == code

    def test_infeasible_on_line(self):
        result = reconstruct_sparse(_code(ODD_CYCLE_CODE), Geometry.LINE)
        assert isinstance(result, Infeasible)

    def test_oracle_small_random(self):
        rng = random.Random(11)
        universe = all_words(4)
        for _ in range(150):
            combo = rng.sample(universe, rng.randint(1, 5))
            code = _code(combo)
            for geometry, regime in ((Geometry.LINE, CO), (Geometry.CIRCLE, CCO)):
                result = reconstruct_sparse(code, geometry)
                expected = brute_orderable(combo, regime)
                assert isinstance(result, SensorMatrix) == expected

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_zero_length_words(self, geometry):
        # words of length 0 give a matrix with no rows, one column per copy
        code = Code.of([BitVector(0)])
        m = reconstruct_sparse(code, geometry)
        assert (m.k, m.n) == (0, 1)
        assert m.column_set() == code
        ms = CodeMultiset.of({BitVector(0): 2})
        m = reconstruct_multiset_sparse(ms, geometry)
        assert (m.k, m.n) == (0, 2)
        assert m.column_multiset() == ms

    def test_self_checks_survive_optimize_flag(self):
        # python -O strips assert statements; a solver that returns a
        # non-CO order must still be caught
        script = textwrap.dedent("""
            import sys
            import convexcodes.ordering as ordering
            from convexcodes import Code, Geometry, reconstruct_sparse
            from convexcodes.core import InternalError

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            # words sort as 100, 110, 001, 011; this order splits row 0
            ordering._pq_solve = lambda *args: ([0, 2, 1, 3], None)
            code = Code.from_strings(["100", "110", "011", "001"])
            try:
                reconstruct_sparse(code, Geometry.LINE)
            except InternalError:
                sys.exit(0)
            sys.exit("non-CO order accepted")
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestDenseLinear:
    def test_walkthrough_seven_columns(self):
        code = _code(["1100", "1000", "0100", "0000", "0001", "0110"])
        mo = reconstruct_dense_linear(code)
        assert isinstance(mo, Multiordering)
        assert len(mo.columns) == 7
        assert regime_check(mo.matrix(), HCO)
        assert Counter(c.to_string() for c in mo.columns) == Counter(
            ["0000", "0000", "0001", "1000", "1100", "0100", "0110"]
        )

    def test_padding_example(self):
        code = _code(["100", "010", "001", "000"])
        mo = reconstruct_dense_linear(code)
        assert isinstance(mo, Multiordering)
        assert len(mo.columns) <= 2 * len(code) - 1
        assert regime_check(mo.matrix(), HCO)
        assert mo.matrix().column_set() == code
        # the tight 5-column form comes from exact multiplicities
        ms = CodeMultiset.of(
            {_bv("100"): 1, _bv("010"): 1, _bv("001"): 1, _bv("000"): 2}
        )
        tight = reconstruct_multiset_dense_linear(ms)
        assert isinstance(tight, Multiordering)
        assert len(tight.columns) == 5
        assert Counter(c.to_string() for c in tight.columns) == Counter(
            ["100", "000", "010", "000", "001"]
        )

    def test_missing_glue_word_infeasible(self):
        # 110 and 011 must be adjacent eventually, but 010 is absent
        code = _code(["110", "011"])
        result = reconstruct_dense_linear(code)
        assert isinstance(result, Infeasible)

    def test_length_bound(self):
        rng = random.Random(13)
        universe = all_words(4)
        for _ in range(200):
            combo = rng.sample(universe, rng.randint(1, 6))
            mo = reconstruct_dense_linear(_code(combo))
            if isinstance(mo, Multiordering):
                assert len(mo.columns) <= 2 * len(combo) - 1

    def test_oracle_exhaustive_length_three(self):
        universe = all_words(3)
        for size in range(1, 5):
            for combo in itertools.combinations(universe, size):
                code = _code(combo)
                mo = reconstruct_dense_linear(code)
                expected = brute_dense_multiordering(code, 2 * size - 1)
                assert isinstance(mo, Multiordering) == expected

    def test_every_co_ordering_extends(self):
        # when a dense multiordering exists, the insertion rule succeeds
        # starting from any CO ordering, not just the canonical one
        rng = random.Random(31)
        universe = all_words(4)
        checked = 0
        while checked < 40:
            combo = rng.sample(universe, rng.randint(2, 5))
            code = _code(combo)
            if not isinstance(reconstruct_dense_linear(code), Multiordering):
                continue
            checked += 1
            words = code.sorted_words()
            for perm in itertools.permutations(words):
                m = SensorMatrix.from_columns(perm, Geometry.LINE)
                if not regime_check(m, CO):
                    continue
                cols = [perm[0]]
                for w in perm[1:]:
                    if inharmonious(cols[-1], w):
                        glue = cols[-1] & w
                        assert glue in code
                        cols.append(glue)
                    cols.append(w)
                assert regime_check(
                    SensorMatrix.from_columns(cols, Geometry.LINE), HCO
                )

    def test_circular_dense_unsupported(self):
        result = reconstruct_dense_circular(_code(["10", "01"]))
        assert isinstance(result, Unsupported)
        assert result.reason


class TestCertificates:
    def test_reference_cycle_verifies(self):
        a, b, c, d = map(_bv, ODD_CYCLE_CODE)
        cert = RejectionCertificate(
            ((d, a), (a, b), (b, c), (c, a), (a, c)),
            {0: 2, 1: 1, 2: 0, 4: 3},
        )
        assert cert.verify()

    def test_tampered_cycles_fail(self):
        a, b, c, d = map(_bv, ODD_CYCLE_CODE)
        good = RejectionCertificate(
            ((d, a), (a, b), (b, c), (c, a), (a, c)),
            {0: 2, 1: 1, 2: 0, 4: 3},
        )
        assert good.verify()
        # wrong witness row
        assert not RejectionCertificate(good.odd_cycle, {0: 0, 1: 1, 2: 0, 4: 3}).verify()
        # dropped witness on a type-2 edge
        assert not RejectionCertificate(good.odd_cycle, {1: 1, 2: 0, 4: 3}).verify()
        # even walk
        assert not RejectionCertificate(good.odd_cycle[:4], {0: 2, 1: 1, 2: 0}).verify()
        # consecutive vertices that share no column
        assert not RejectionCertificate(
            ((a, b), (c, d), (a, c)), {0: 0, 1: 0, 2: 0}
        ).verify()

    def test_rejection_for_odd_cycle_code(self):
        cert = rejection_certificate(_code(ODD_CYCLE_CODE))
        assert isinstance(cert, RejectionCertificate)
        assert cert.verify()
        assert len(cert.odd_cycle) % 2 == 1

    def test_bipartition_for_feasible_code(self):
        cert = rejection_certificate(_code(["1100", "0110", "0011"]))
        assert isinstance(cert, Bipartition)

    def test_certificate_matches_recognizer(self):
        rng = random.Random(17)
        universe = all_words(4)
        from convexcodes.ordering import co_order

        for _ in range(150):
            combo = rng.sample(universe, rng.randint(1, 6))
            code = _code(combo)
            cert = rejection_certificate(code)
            feasible = co_order(code).feasible
            if feasible:
                assert isinstance(cert, Bipartition)
            else:
                assert isinstance(cert, RejectionCertificate)
                assert cert.verify()

    def test_bipartition_is_proper(self):
        from convexcodes.reconstruct import _incompatibility_edges

        code = _code(["1100", "1000", "0100", "0000", "0001", "0110"])
        cert = rejection_certificate(code)
        assert isinstance(cert, Bipartition)
        for u, v, _ in _incompatibility_edges(code.sorted_words()):
            assert cert.coloring[u] != cert.coloring[v]


class TestMultiset:
    def test_sparse_duplicates_columns(self):
        ms = CodeMultiset.of({_bv("110"): 2, _bv("011"): 1, _bv("010"): 3})
        m = reconstruct_multiset_sparse(ms, Geometry.LINE)
        assert isinstance(m, SensorMatrix)
        assert regime_check(m, CO)
        assert m.column_multiset().entries == dict(ms.entries)

    def test_sparse_feasibility_equals_support_feasibility(self):
        rng = random.Random(23)
        universe = all_words(3)
        for _ in range(100):
            combo = rng.sample(universe, rng.randint(1, 4))
            ms = CodeMultiset.of({_bv(s): rng.randint(1, 3) for s in combo})
            for geometry in (Geometry.LINE, Geometry.CIRCLE):
                got = reconstruct_multiset_sparse(ms, geometry)
                want = reconstruct_sparse(ms.support, geometry)
                assert isinstance(got, SensorMatrix) == isinstance(want, SensorMatrix)

    def test_dense_padding_demand_met(self):
        ms = CodeMultiset.of(
            {_bv("100"): 1, _bv("010"): 1, _bv("001"): 1, _bv("000"): 2}
        )
        mo = reconstruct_multiset_dense_linear(ms)
        assert isinstance(mo, Multiordering)
        counts = Counter(c.to_string() for c in mo.columns)
        assert counts == {"100": 1, "010": 1, "001": 1, "000": 2}

    def test_dense_zero_multiplicity_one_rejected(self):
        ms = CodeMultiset.of(
            {_bv("100"): 1, _bv("010"): 1, _bv("001"): 1, _bv("000"): 1}
        )
        result = reconstruct_multiset_dense_linear(ms)
        assert isinstance(result, Infeasible)
        assert "000" in result.reason

    def test_dense_surplus_multiplicities(self):
        ms = CodeMultiset.of({_bv("110"): 1, _bv("010"): 4, _bv("011"): 2})
        mo = reconstruct_multiset_dense_linear(ms)
        assert isinstance(mo, Multiordering)
        m = mo.matrix()
        assert regime_check(m, HCO)
        assert m.column_multiset().entries == dict(ms.entries)

    def test_dense_oracle_small(self):
        rng = random.Random(29)
        universe = all_words(3)
        dense = HCO
        for _ in range(120):
            combo = rng.sample(universe, rng.randint(1, 3))
            entries = {_bv(s): rng.randint(1, 2) for s in combo}
            ms = CodeMultiset.of(entries)
            if ms.total() > 6:
                continue
            got = reconstruct_multiset_dense_linear(ms)
            want = brute_multiset_orderable(ms, dense)
            assert isinstance(got, Multiordering) == want
            if want:
                m = got.matrix()
                assert regime_check(m, HCO)
                assert m.column_multiset().entries == dict(ms.entries)
