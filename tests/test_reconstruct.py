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
    InternalError,
    SensorMatrix,
    inharmonious,
    regime_check,
)
import convexcodes.reconstruct as reconstruct
from convexcodes.ordering import (
    OrderingResult,
    _first_failure_touched,
    cco_order,
    co_order,
)
from convexcodes.reconstruct import (
    Bipartition,
    Infeasible,
    Multiordering,
    RejectionCertificate,
    Unsupported,
    _refutation,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_multiset_sparse,
    reconstruct_sparse,
    rejection_certificate,
)
from test_acceptance import _Budget
from tucker import _planted_cycle, _staircase_with_triangle

ODD_CYCLE_CODE = ["1100", "1010", "0101", "1111"]


def _code(strings):
    return Code.from_strings(strings)


def _bv(s):
    return BitVector.from_string(s)


def _incompatibility_edges(words):
    # the graph's textbook definition, the tests' reference: the reversal
    # edge (a, b)-(b, a) for every ordered pair, then (a, b)-(b, c) for
    # every triple with a row that holds a and c but not b, its least
    # such row the witness; yields (u, v, row), row None for a reversal
    yield from (((a, b), (b, a), None)
                for a in words for b in words if a is not b)
    for a in words:
        for b in words:
            if b is a:
                continue
            for c in words:
                if c is a or c is b:
                    continue
                hit = a.mask & c.mask & ~b.mask
                if hit:
                    row = (hit & -hit).bit_length() - 1
                    yield (a, b), (b, c), row


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

    def test_circle_refusal_names_the_failed_row(self):
        code = _code(["0000", "0011", "0101", "0110"])
        result = reconstruct_sparse(code, Geometry.CIRCLE)
        assert isinstance(result, Infeasible)
        assert result.failed_row == cco_order(code).failed_row == 3
        assert result.reason == "no CCO column ordering exists: row 3 fails"

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

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_code_keeps_its_rows(self, geometry, k):
        # no columns, but k rows
        code = Code(frozenset(), k)
        m = reconstruct_sparse(code, geometry)
        assert (m.k, m.n) == (k, 0)
        assert m.column_set() == code
        ms = CodeMultiset({}, k)
        m = reconstruct_multiset_sparse(ms, geometry)
        assert (m.k, m.n) == (k, 0)
        assert m.column_multiset() == ms

    def test_reuses_the_ordering_matrix(self, monkeypatch):
        code = _code(["1100", "1000", "0100", "0000", "0001", "0110"])
        calls = []
        original = SensorMatrix.from_columns.__func__

        def counted(cls, columns, geometry, **kwargs):
            calls.append(geometry)
            return original(cls, columns, geometry, **kwargs)

        monkeypatch.setattr(SensorMatrix, "from_columns", classmethod(counted))
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            del calls[:]
            m = reconstruct_sparse(code, geometry)
            assert calls == [geometry]
            assert m.geometry is geometry and m.column_set() == code

    def test_self_checks_survive_optimize_flag(self):
        # python -O strips assert statements; a reduced tree whose
        # canonical pass gives a non-CO order, or a CO order of the wrong
        # words, must still be caught, by every caller of the ordering
        script = textwrap.dedent("""
            import sys
            from convexcodes import (Code, Geometry, reconstruct_sparse,
                                     rejection_certificate)
            from convexcodes.core import InternalError
            from convexcodes.pqtree import PQTree

            if not sys.flags.optimize:
                sys.exit("not running under -O")

            def raises(call, *args):
                try:
                    call(*args)
                except InternalError:
                    return True
                return False

            # words sort as 100, 110, 001, 011
            code = Code.from_strings(["100", "110", "011", "001"])
            # this order splits row 0
            PQTree.canonical = lambda tree: iter(["[", 0, 2, 1, 3, "]"])
            failed = [not raises(reconstruct_sparse, code, Geometry.LINE)]
            # CO, but 100 twice and no 011
            PQTree.canonical = lambda tree: iter(["[", 0, 0, 1, 2, "]"])
            failed.append(not raises(rejection_certificate, code))
            sys.exit("unchecked: %r" % failed if any(failed) else 0)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestMultiordering:
    @pytest.mark.parametrize("columns, support", [
        (["10", "01"], ["10"]),
        (["10"], []),
        (["10"], ["10", "01"]),
    ], ids=["column-outside-support", "empty-support", "support-word-absent"])
    def test_columns_must_be_the_support(self, columns, support):
        with pytest.raises(ValueError, match="not exactly the support words"):
            Multiordering(tuple(_bv(c) for c in columns), _code(support))

    def test_columns_must_have_the_support_length(self):
        with pytest.raises(ValueError, match="column length differs"):
            Multiordering((_bv("10"),), Code(frozenset([_bv("10")]), 3))

    def test_matrix_is_built_once(self):
        mo = reconstruct_dense_linear(_code(["100", "010", "001", "000"]))
        m = mo.matrix()
        assert mo.matrix() is m
        assert m == SensorMatrix.from_columns(mo.columns, Geometry.LINE)
        assert m.columns == mo.columns

    @pytest.mark.parametrize("k", [0, 3])
    def test_empty(self, k):
        mo = Multiordering((), Code(frozenset(), k))
        m = mo.matrix()
        assert (m.k, m.n) == (k, 0)


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

    def test_refusals_carry_the_failed_row(self):
        # the dense line recognizes by co_order, as the sparse line does:
        # every refusal of a code that co_order rejects names co_order's
        # failed row, through the multiset entry point too
        rng = random.Random(29)
        universe = all_words(4)
        refused = 0
        for _ in range(300):
            combo = rng.sample(universe, rng.randint(3, 6))
            code = _code(combo)
            row = co_order(code).failed_row
            if row is None:
                continue
            refused += 1
            ms = CodeMultiset.of({_bv(s): 2 for s in combo})
            for result in (reconstruct_sparse(code, Geometry.LINE),
                           reconstruct_dense_linear(code),
                           reconstruct_multiset_dense_linear(ms)):
                assert isinstance(result, Infeasible)
                assert result.failed_row == row
                assert result.reason == (
                    "no CO column ordering exists: row %d fails" % row)
        assert refused > 20

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

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_code_keeps_its_rows(self, k):
        code = Code(frozenset(), k)
        mo = reconstruct_dense_linear(code)
        assert mo.columns == ()
        assert (mo.matrix().k, mo.matrix().n) == (k, 0)
        assert mo.matrix().column_set() == code
        ms = CodeMultiset({}, k)
        mo = reconstruct_multiset_dense_linear(ms)
        assert mo.columns == ()
        assert mo.matrix().column_multiset() == ms

    def test_circular_dense_unsupported(self):
        result = reconstruct_dense_circular(_code(["10", "01"]))
        assert isinstance(result, Unsupported)
        assert result.reason


# Tucker's triangle 110, 011, 101 as an odd cycle of three vertices
_TRIANGLE = ((_bv("110"), _bv("011")), (_bv("011"), _bv("101")),
             (_bv("101"), _bv("110")))


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
        # a bool row or edge index, though True == 1
        for bad in ({0: 2, 1: True, 2: 0, 4: 3}, {0: 2, True: 1, 2: 0, 4: 3}):
            assert not RejectionCertificate(good.odd_cycle, bad).verify()
        # an extra witness whose index names no edge of the cycle
        for edge in (99, 5, -1):
            bad = {**good.witnesses, edge: 0}
            assert not RejectionCertificate(good.odd_cycle, bad).verify()
        # even walk
        assert not RejectionCertificate(good.odd_cycle[:4], {0: 2, 1: 1, 2: 0}).verify()
        # consecutive vertices that share no column
        assert not RejectionCertificate(
            ((a, b), (c, d), (a, c)), {0: 0, 1: 0, 2: 0}
        ).verify()

    @pytest.mark.parametrize("edge, row", [
        (3, 0),                 # reversal edge (c, a) -> (a, c): c's row 0 is 0
        (3, 4), (4, 4), (4, -1),    # rows outside 0..3 fail, never raise
        (1, "1"), (1, 1.5),         # so do rows that are not ints
    ])
    def test_invalid_witnesses_fail(self, edge, row):
        a, b, c, d = map(_bv, ODD_CYCLE_CODE)
        witnesses = {0: 2, 1: 1, 2: 0, 4: 3}
        # a reversal edge needs no witness, but one it is given must hold
        assert RejectionCertificate(
            ((d, a), (a, b), (b, c), (c, a), (a, c)), {**witnesses, 3: 3}
        ).verify()
        witnesses[edge] = row
        assert not RejectionCertificate(
            ((d, a), (a, b), (b, c), (c, a), (a, c)), witnesses
        ).verify()

    def test_self_pairs_fail(self):
        # (a, a) is no vertex of the incompatibility graph: an odd run of
        # one would otherwise "refute" every code, feasible ones included
        a, _, _, d = map(_bv, ODD_CYCLE_CODE)
        assert not RejectionCertificate(((a, a),) * 3).verify()
        assert not RejectionCertificate(((d, d),) * 5).verify()

    def test_differing_lengths_fail(self):
        # the words of one code share a length; a mismatch must not raise
        x, y, z = _bv("110"), _bv("011"), _bv("101")
        witnesses = {0: 0, 1: 1, 2: 2}
        assert RejectionCertificate(((x, y), (y, z), (z, x)), witnesses).verify()
        longer = _bv("1010")
        assert not RejectionCertificate(
            ((x, y), (y, longer), (longer, x)), witnesses).verify()
        a, b, c = _bv("101"), _bv("0"), _bv("1")
        assert not RejectionCertificate(
            ((a, b), (b, c), (c, a)), {0: 2, 1: 2, 2: 2}).verify()

    @pytest.mark.parametrize("first", [
        ("110", "011"),                                 # strings
        (_bv("110"), _bv("011"), _bv("101")),           # three words
    ], ids=["strings", "three-words"])
    def test_malformed_vertices_fail(self, first):
        # a vertex that is not a pair of BitVectors fails, never raises
        x, y, z = _bv("110"), _bv("011"), _bv("101")
        assert RejectionCertificate(
            ((x, y), (y, z), (z, x)), {0: 0, 1: 1, 2: 2}).verify()
        assert not RejectionCertificate(
            (first, (y, z), (z, x)), {0: 0, 1: 1, 2: 2}).verify()

    @pytest.mark.parametrize("cycle, witnesses", [
        (None, {}),                                     # no walk
        (5, {}),
        ("ab" * 3, {}),                                 # not pairs
        ({0, 1, 2}, {}),                                # no order
        (_TRIANGLE, None),                              # no mapping
        (_TRIANGLE, [0, 1, 2]),
        (_TRIANGLE, ((0, 0), (1, 1), (2, 2))),
    ])
    def test_malformed_containers_fail(self, cycle, witnesses):
        # verify answers False, never raises, whatever it is handed
        assert RejectionCertificate(_TRIANGLE, {0: 0, 1: 1, 2: 2}).verify()
        assert RejectionCertificate(cycle, witnesses).verify() is False

    @pytest.mark.parametrize("ordering", [
        None,                                           # no ordering
        5,
        [[1], [2]],                                     # unhashable words
        ("110", "011"),                                 # strings
        {_bv("110"), _bv("011")},                       # no order
    ], ids=["none", "int", "lists", "strings", "set"])
    def test_malformed_orderings_fail(self, ordering):
        # verify answers False, never raises, whatever it is handed
        code = _code(["110", "011"])
        assert Bipartition((_bv("110"), _bv("011"))).verify(code)
        assert Bipartition(ordering).verify(code) is False

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
        code = _code(["1100", "1000", "0100", "0000", "0001", "0110"])
        cert = rejection_certificate(code)
        assert isinstance(cert, Bipartition)
        coloring = _position_coloring(cert.ordering)
        for u, v, _ in _incompatibility_edges(code.sorted_words()):
            assert coloring[u] != coloring[v]

    def test_bipartition_verifies_and_refuses_tampering(self):
        # every feasible code of the exhaustive oracle's sizes: the
        # ordering verifies; a swap verifies iff every row stays
        # consecutive (checked bit by bit here); a missing, extra or
        # repeated word never does
        def consecutive(ordering, k):
            for r in range(k):
                held = [i for i, w in enumerate(ordering) if w.bit(r)]
                if held and held[-1] - held[0] + 1 != len(held):
                    return False
            return True

        broken = 0
        for k, sizes in ((3, range(5)), (4, range(4))):
            universe = [_bv(s) for s in all_words(k)]
            for size in sizes:
                for combo in itertools.combinations(universe, size):
                    code = Code(frozenset(combo), k)
                    cert = rejection_certificate(code)
                    if not isinstance(cert, Bipartition):
                        continue
                    assert cert.verify(code)
                    order = list(cert.ordering)
                    for i, j in itertools.combinations(range(size), 2):
                        swapped = order[:]
                        swapped[i], swapped[j] = order[j], order[i]
                        ok = consecutive(swapped, k)
                        broken += not ok
                        assert Bipartition(tuple(swapped)).verify(code) == ok
                    for i in range(size):
                        missing = order[:i] + order[i + 1:]
                        twice = order[:i + 1] + order[i:]
                        for bad in (missing, twice):
                            assert not Bipartition(tuple(bad)).verify(code)
                    for extra in universe:
                        if extra not in code:
                            for bad in ([extra] + order, order + [extra]):
                                assert not Bipartition(tuple(bad)).verify(code)
                    # nor are the same masks as words of another length
                    longer = tuple(BitVector(k + 1, w.mask) for w in order)
                    assert Bipartition(longer).verify(code) == (size == 0)
        assert broken > 0

    @pytest.mark.parametrize("words, row, supplier, error", [
        # ODD_CYCLE_CODE first fails at row 3 of its 4
        (ODD_CYCLE_CODE, 7, "caller", InternalError),
        (ODD_CYCLE_CODE, 4, "caller", InternalError),
        (ODD_CYCLE_CODE, -1, "caller", InternalError),
        (ODD_CYCLE_CODE, 0, "caller", InternalError),
        (ODD_CYCLE_CODE, 1, "caller", InternalError),
        (["1100", "0110", "0011"], 1, "caller", InternalError),
        (["1100", "0110", "0011"], 2, "caller", InternalError),
        # rows of no word, and of one, where no reduction can fail
        (Code(frozenset(), 3), 1, "caller", InternalError),
        (["1000", "0100", "1100"], 3, "caller", InternalError),
        (["1000", "0110"], 0, "caller", InternalError),
        (ODD_CYCLE_CODE, 3, "caller", None),
        (ODD_CYCLE_CODE, 0, "co_order", InternalError),
        (["1100", "0110", "0011"], 1, "co_order", InternalError),
        # no int, though 1.0 == 1: a row index is an int
        (ODD_CYCLE_CODE, 1.5, "caller", InternalError),
        (ODD_CYCLE_CODE, 1.0, "caller", InternalError),
        (ODD_CYCLE_CODE, "1", "caller", InternalError),
        # first fails at row 3: seeded with row 4, the core search finds
        # rows that are no Tucker core, and no odd cycle is written down
        (["00011", "00110", "01000", "01110", "10011", "11010"], 4,
         "caller", InternalError),
        (ODD_CYCLE_CODE, None, "caller", InternalError),
        (ODD_CYCLE_CODE, True, "caller", InternalError),
    ])
    def test_failed_row_errors_name_who_gave_the_row(
            self, monkeypatch, words, row, supplier, error):
        # only the recognizer names the row the core search starts from,
        # so a row that is no row, or where the words do not fail, is a
        # library bug: an InternalError, never a ValueError, IndexError or
        # TypeError.  rejection_certificate gets every row from a lying
        # co_order; a caller row is also handed straight to _refutation,
        # as check hands it its refusal's failed_row
        code = words if isinstance(words, Code) else _code(words)
        if error is None:
            assert co_order(code).failed_row == row
            cert = _refutation(code, row)
            assert isinstance(cert, RejectionCertificate) and cert.verify()
            assert cert == rejection_certificate(code)
            return
        if supplier == "caller":
            with pytest.raises(error):
                _refutation(code, row)
        monkeypatch.setattr(reconstruct, "co_order", lambda words:
                            OrderingResult(False, failed_row=row))
        with pytest.raises(error):
            rejection_certificate(code)


def _on_rows(words, rows):
    # the words cut down to the given rows, feasible by the recognizer
    return co_order(Code.of(
        BitVector(len(rows), sum(w.bit(r) << i for i, r in enumerate(rows)))
        for w in words)).feasible


def _minimal_rows(words, rows):
    # infeasible on the rows, feasible once any one of them is dropped
    return (not _on_rows(words, rows)
            and all(_on_rows(words, rows[:i] + rows[i + 1:])
                    for i in range(len(rows))))


def _tucker_core(words, rows):
    # minimal in rows, and feasible once any word is dropped
    return (_minimal_rows(words, rows)
            and all(_on_rows(set(words) - {w}, rows) for w in words))


def _bisecting_core(ws, k):
    # the core search the row filter replaced: the shortest prefix of the
    # remaining words that is infeasible with the core found so far gives
    # the core its last word, and the words after it are dropped
    def infeasible(cols):
        return not co_order(Code(frozenset(cols), k)).feasible

    core, rest = [], ws
    while len(core) < 3 or not infeasible(core):
        lo, hi = 1, len(rest)
        while lo < hi:
            mid = (lo + hi) // 2
            if infeasible(core + rest[:mid]):
                hi = mid
            else:
                lo = mid + 1
        core.append(rest[hi - 1])
        rest = rest[:hi - 1]
    return core


def _random_codes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice([4, 5])
        yield _code(rng.sample(all_words(k), rng.randint(1, 8)))


def _shared_obstruction_codes(seed, count):
    # a Tucker triangle or M_I(4) on its own rows, its words also in
    # 1-3 rows shared with 2-4 other words, and those words in rows of
    # their own: the obstruction's words are in rows outside it
    rng = random.Random(seed)
    for _ in range(count):
        c, other, extra = rng.choice([3, 4]), rng.randint(2, 4), rng.randint(1, 3)
        n = c + other
        rows = [{j, (j + 1) % c} for j in range(c)]
        rows += [set(rng.sample(range(n), rng.randint(2, n - 1)))
                 for _ in range(extra)]
        rows += [set(rng.sample(range(c, n), rng.randint(1, other)))
                 for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        yield Code.of(BitVector(len(rows), sum(1 << i for i, row in
                                               enumerate(rows) if j in row))
                      for j in range(n))


def _position_coloring(ordering):
    # the proper 2-coloring a CO ordering stands for: (a, b) gets 1 iff a
    # comes after b.  (a,b)-(b,a) differ, and a type-2 edge (a,b)-(b,c)
    # has a row holding a and c but not b, so b is not between them
    pos = {w: i for i, w in enumerate(ordering)}
    return {(a, b): int(pos[a] > pos[b])
            for a in ordering for b in ordering if a is not b}


def _bfs_coloring(ws):
    # reference: BFS over the whole incompatibility graph, each component
    # started at its first pair in sorted order with color 0
    adj = {(a, b): [] for a in ws for b in ws if a is not b}
    for u, v, _ in _incompatibility_edges(ws):
        adj[u].append(v)
        adj[v].append(u)
    color, components = {}, 0
    for start in adj:
        if start in color:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        for u in queue:
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
    return color, components


class TestCertificateScaling:
    def test_ordering_bipartition_is_proper(self):
        checked = connected = 0
        for code in _random_codes(41, 2000):
            if not co_order(code).feasible:
                continue
            checked += 1
            cert = rejection_certificate(code)
            assert isinstance(cert, Bipartition)
            ws = code.sorted_words()
            coloring = _position_coloring(cert.ordering)
            assert set(coloring) == {
                (a, b) for a in ws for b in ws if a is not b}
            for u, v, _ in _incompatibility_edges(ws):
                assert coloring[u] != coloring[v]
            # a connected graph has two proper colorings, one the
            # complement of the other: a search of the whole graph finds
            # one of them
            reference, components = _bfs_coloring(ws)
            if components == 1:
                connected += 1
                assert coloring in (reference, {
                    u: 1 - color for u, color in reference.items()})
            if checked == 300:
                break
        assert checked == 300 and connected >= 100

    def test_core_is_minimal_and_holds_the_certificate(self):
        from convexcodes.reconstruct import _core_rows, _infeasible_core

        checked = shared = 0
        codes = itertools.chain(_random_codes(43, 400),
                                _shared_obstruction_codes(59, 400),
                                [_code(["01001", "10011", "00110", "11100"])])
        for code in codes:
            if co_order(code).feasible:
                continue
            checked += 1
            ws = code.sorted_words()
            failed = co_order(code).failed_row
            core, on_core = _infeasible_core(ws, failed)
            rows = [r for r in range(code.k) if on_core >> r & 1]
            assert sorted(_core_rows(ws, failed)) == rows
            # on the core rows, minimal for the whole code, the kept
            # words are infeasible and minimal in words and in rows: a
            # Tucker core
            assert _minimal_rows(ws, rows) and _tucker_core(core, rows)
            # a row outside the core holds one of its words
            shared += any(w.bit(r) for w in core for r in range(code.k)
                          if r not in rows)
            cert = rejection_certificate(code)
            assert isinstance(cert, RejectionCertificate) and cert.verify()
            assert {x for pair in cert.odd_cycle for x in pair} == set(core)
        assert checked >= 500 and shared >= 400

    def test_row_filter_against_the_bisecting_core(self):
        # the word-prefix bisection the row filter replaced: both cores
        # must be certified by a verified odd cycle, the bisecting one
        # minimal in words, and the filter's minimal in words and in
        # rows on its core rows, its cycle through every word
        from convexcodes.reconstruct import _infeasible_core, _odd_cycle

        codes = [c for c in _random_codes(53, 400)
                 if not co_order(c).feasible]
        codes += [_staircase_with_triangle(n) for n in (1, 2, 40, 41)]
        same = 0
        for code in codes:
            ws = code.sorted_words()
            core, on_core = _infeasible_core(ws, co_order(code).failed_row)
            reference = _bisecting_core(ws, code.k)
            assert _tucker_core(core, [r for r in range(code.k)
                                       if on_core >> r & 1])
            assert not _on_rows(reference, range(code.k))
            assert all(_on_rows(set(reference) - {w}, range(code.k))
                       for w in reference)
            cert = _odd_cycle(core, on_core)
            assert cert is not None and cert.verify()
            assert {w for pair in cert.odd_cycle for w in pair} == set(core)
            cert = rejection_certificate(Code.of(reference))
            assert isinstance(cert, RejectionCertificate) and cert.verify()
            same += set(core) == set(reference)
        assert len(codes) >= 100 and same >= len(codes) // 2

    def test_one_recognition_and_at_most_5r_row_passes(self, monkeypatch):
        # the whole code is recognized once; the core search only reduces
        # row lists: r passes to find the r core rows, and one per word
        # of the at most 4r kept for the word filter
        calls, passes = [], []

        def counted(words):
            calls.append(len(words))
            return co_order(words)

        def counted_passes(rows):
            passes.append(len(rows))
            return _first_failure_touched(rows)

        monkeypatch.setattr(reconstruct, "co_order", counted)
        monkeypatch.setattr(reconstruct, "_first_failure_touched",
                            counted_passes)
        cert = rejection_certificate(_staircase_with_triangle(1000))
        assert isinstance(cert, RejectionCertificate) and cert.verify()
        assert len(cert.odd_cycle) == 3
        assert calls == [1003]
        assert len(passes) <= 5 * 3

    def test_large_infeasible_code_within_budget(self):
        budget = _Budget(3)
        cert = rejection_certificate(_staircase_with_triangle(2000))
        assert isinstance(cert, RejectionCertificate) and cert.verify()
        budget.check()

    def test_spread_planted_cycle_within_budget(self):
        # M_I(31) on rows spread among the 2000-word staircase's: one
        # recognition fails at the last of them, and the row passes
        # reduce only the cycle's component
        code, cycle = _planted_cycle(2000, 31, "spread")
        budget = _Budget(0.4)
        cert = rejection_certificate(code)
        budget.check()
        assert isinstance(cert, RejectionCertificate) and cert.verify()
        assert {w for pair in cert.odd_cycle for w in pair} == cycle

    @pytest.mark.parametrize("lie", ["always", "on the whole code"])
    def test_lying_recognizer_gives_no_certificate(self, monkeypatch, lie):
        code = _code(["1100", "0110", "0011", "1000"])
        assert co_order(code).feasible

        def lying(words):
            if lie == "always" or words == code:
                # infeasible, and naming no failing row
                return OrderingResult(False)
            return co_order(words)

        monkeypatch.setattr(reconstruct, "co_order", lying)
        with pytest.raises(InternalError):
            rejection_certificate(code)

    def test_lying_reduction_gives_no_certificate(self, monkeypatch):
        # a row pass that always fails keeps the first failing row alone
        # and drops every word: the empty core's graph is bipartite
        code = _code(["110", "011", "101"])
        assert not co_order(code).feasible
        monkeypatch.setattr(reconstruct, "_first_failure_touched",
                            lambda rows: 0)
        with pytest.raises(InternalError, match="bipartite"):
            rejection_certificate(code)


def _reference_odd_cycle(ws):
    # the search as it was before it climbed by BFS depth: a color map,
    # and the two root paths of the conflicting edge intersected
    from collections import deque

    adj = {(a, b): [] for a in ws for b in ws if a is not b}
    for u, v, row in _incompatibility_edges(ws):
        adj[u].append((v, row))
        adj[v].append((u, row))
    color, parent = {}, {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, row in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = (u, row)
                    queue.append(v)
                elif color[v] == color[u]:
                    return _reference_extract(u, v, row, parent)
    return None


def _reference_extract(u, v, row, parent):
    def path(x):
        out = [(x, None)]
        while parent[x] is not None:
            p, r = parent[x]
            out.append((p, r))
            x = p
        return out

    pu, pv = path(u), path(v)
    seen = {x for x, _ in pu}
    i = next(i for i, (x, _) in enumerate(pv) if x in seen)
    lca = pv[i][0]
    j = next(j for j, (x, _) in enumerate(pu) if x == lca)
    vertices, witnesses = [], {}
    for idx in range(j):
        vertices.append(pu[idx][0])
        r = parent[pu[idx][0]][1] if parent[pu[idx][0]] else None
        if r is not None:
            witnesses[len(vertices) - 1] = r
    vertices.append(lca)
    for x in reversed([pv[idx][0] for idx in range(i)]):
        r = parent[x][1] if parent[x] else None
        if r is not None:
            witnesses[len(vertices) - 1] = r
        vertices.append(x)
    if row is not None:
        witnesses[len(vertices) - 1] = row
    return RejectionCertificate(tuple(vertices), witnesses)


def test_odd_cycle_equals_the_reference():
    # the cycle is written down from a Tucker core, not searched for:
    # the words are refuted exactly when a search of their whole graph
    # finds an odd cycle, and the refutation verifies
    rng = random.Random(67)
    found = bipartite = 0
    for _ in range(2000):
        k = rng.randint(2, 6)
        ws = [BitVector(k, m) for m in
              rng.sample(range(1 << k), rng.randint(1, min(8, 1 << k)))]
        cert = rejection_certificate(Code.of(ws))
        reference = _reference_odd_cycle(ws)
        if reference is None:
            assert isinstance(cert, Bipartition)
            bipartite += 1
            continue
        assert reference.verify()
        assert isinstance(cert, RejectionCertificate) and cert.verify()
        found += 1
    assert found >= 300 and bipartite >= 300


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

    def test_prune_matches_the_restart_loop(self):
        def restart_loop(cols, target):
            # the former _prune_surplus: restart from 0 after each deletion
            counts = Counter(cols)
            changed = True
            while changed:
                changed = False
                for i, c in enumerate(cols):
                    if counts[c] <= target.get(c, 1):
                        continue
                    left = cols[i - 1] if i > 0 else None
                    right = cols[i + 1] if i + 1 < len(cols) else None
                    if (left is not None and right is not None
                            and inharmonious(left, right)):
                        continue
                    del cols[i]
                    counts[c] -= 1
                    changed = True
                    break

        def filled(cols, target):
            # the former over / deficit loops: refuse a kept surplus,
            # else repeat each short column after its first copy
            counts = Counter(cols)
            over = [c for c in counts if counts[c] > target[c]]
            if over:
                worst = min(over, key=BitVector.to_string)
                return Infeasible(
                    "every HCO matrix with this support needs %d copies of %s"
                    % (counts[worst], worst.to_string()))
            deficit = {c: target[c] - counts[c] for c in counts}
            out = []
            for c in cols:
                out.append(c)
                if deficit[c] > 0:
                    out.extend([c] * deficit[c])
                    deficit[c] = 0
            return out

        rng = random.Random(31)
        compared = 0
        while compared < 500:
            k = rng.choice([3, 4, 5])
            support = rng.sample(all_words(k), rng.randint(1, 7))
            mo = reconstruct_dense_linear(_code(support))
            if not isinstance(mo, Multiordering):
                continue
            # padded with extra copies, so that some are surplus; the
            # dense order, a shuffle of it and a list of random 3-bit
            # words, where a deletion more often unblocks its left
            # neighbour
            cols = []
            for c in mo.columns:
                cols.extend([c] * rng.randint(1, 3))
            noise = [_bv(w) for w in rng.choices(all_words(3), k=12)]
            for order in (cols, rng.sample(cols, len(cols)), noise):
                target = {c: rng.randint(1, 3) for c in set(order)}
                want = list(order)
                restart_loop(want, target)
                assert (reconstruct._exact(order, target)
                        == filled(want, target))
            compared += 1

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
