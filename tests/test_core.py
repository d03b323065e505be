import random

import pytest
from hypothesis import given, settings, strategies as st

from convexcodes.core import (
    CCO,
    CO,
    HCCO,
    HCO,
    BitVector,
    Code,
    CodeMultiset,
    DegenerateRow,
    Geometry,
    LengthMismatch,
    SensorMatrix,
    inharmonious,
    is_discrete_interval,
    regime_check,
    row_stats,
)

bit_lists = st.lists(st.integers(0, 1), min_size=0, max_size=12)


class TestBitVector:
    def test_string_round_trip(self):
        for s in ("", "0", "1", "1100", "0111100"):
            assert BitVector.from_string(s).to_string() == s

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 4096])
    def test_long_string_round_trip(self, n):
        rng = random.Random(n)
        for mask in (0, (1 << n) - 1, rng.getrandbits(n) if n else 0):
            w = BitVector(n, mask)
            s = w.to_string()
            assert s == "".join(str(w.bit(i)) for i in range(n))
            assert BitVector.from_string(s) == w
            assert BitVector.from_bits(list(w)) == w

    def test_only_zeros_and_ones_parse(self):
        # int(s, 2) alone would take the underscore, signs, whitespace
        # and the 0b prefix; non-ASCII digits once parsed through int()
        for s in ("1_0", "+1", "-1", " 1", "1 ", "1\n", "0b1", "2", "x",
                  "\u0661"):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitVector.from_string(s)
        for bits in ([0, 2], [1, -1], [1, "1"]):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitVector.from_bits(bits)
        assert BitVector.from_bits([True, False]) == BitVector.from_string("10")
        assert BitVector.from_bits(iter([])) == BitVector(0)

    def test_position_zero_is_first_character(self):
        w = BitVector.from_string("1100")
        assert [w.bit(i) for i in range(4)] == [1, 1, 0, 0]
        assert w.mask == 0b0011

    def test_immutability_and_hash(self):
        w = BitVector.from_string("101")
        with pytest.raises(AttributeError):
            w.mask = 0
        assert w == BitVector(3, 0b101)
        assert hash(w) == hash(BitVector(3, 0b101))
        assert w != BitVector(4, 0b101)

    def test_staircase_hashes_spread(self):
        # 1000 singletons and adjacent pairs over k = 501 rows; masks
        # 61 bits apart are equal modulo 2**61 - 1, the int hash modulus
        k = 501
        words = ([BitVector(k, 1 << i) for i in range(k)]
                 + [BitVector(k, 0b11 << i) for i in range(k - 1)])[:1000]
        assert len({hash(w) for w in words}) >= 990
        assert all(hash(w) == hash(BitVector(w.n, w.mask)) for w in words)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            BitVector.from_string("10") & BitVector.from_string("100")

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)

    def test_negative_length(self):
        # without its own check the mask shift raises another ValueError
        with pytest.raises(ValueError, match="negative length"):
            BitVector(-1)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_bit_out_of_range(self, i):
        with pytest.raises(IndexError):
            BitVector.from_string("101").bit(i)

    @given(bit_lists, bit_lists)
    def test_boolean_ops_agree_with_listwise(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        x, y = BitVector.from_bits(a), BitVector.from_bits(b)
        assert list(x & y) == [p & q for p, q in zip(a, b)]
        assert list(x | y) == [p | q for p, q in zip(a, b)]
        assert list(x ^ y) == [p ^ q for p, q in zip(a, b)]
        assert list(~x) == [1 - p for p in a]
        assert x.leq(y) == all(p <= q for p, q in zip(a, b))
        assert x.popcount() == sum(a)

    @given(bit_lists)
    def test_zeros_ones_flags(self, a):
        x = BitVector.from_bits(a)
        assert x.is_zero == (sum(a) == 0)
        assert x.is_ones == (sum(a) == len(a))


class TestDiscreteInterval:
    def test_line_examples(self):
        assert is_discrete_interval(BitVector.from_string("0111100"), Geometry.LINE)
        assert is_discrete_interval(BitVector.from_string("0000"), Geometry.LINE)
        assert is_discrete_interval(BitVector.from_string("1111"), Geometry.LINE)
        assert not is_discrete_interval(BitVector.from_string("1011"), Geometry.LINE)
        assert not is_discrete_interval(BitVector.from_string("0101"), Geometry.LINE)

    def test_circle_examples(self):
        assert is_discrete_interval(BitVector.from_string("110001"), Geometry.CIRCLE)
        assert is_discrete_interval(BitVector.from_string("1011"), Geometry.CIRCLE)
        assert not is_discrete_interval(BitVector.from_string("0101"), Geometry.CIRCLE)
        assert not is_discrete_interval(BitVector.from_string("110010"), Geometry.CIRCLE)

    @given(bit_lists)
    def test_against_string_oracle(self, bits):
        w = BitVector.from_bits(bits)
        s = "".join(map(str, bits))
        line_ok = "0" not in s.strip("0")
        assert is_discrete_interval(w, Geometry.LINE) == line_ok
        ones = sum(bits)
        if ones == 0:
            circ_ok = True
        else:
            doubled = s + s
            circ_ok = str("1" * ones) in doubled
        assert is_discrete_interval(w, Geometry.CIRCLE) == circ_ok

    @given(bit_lists)
    def test_line_implies_circle(self, bits):
        w = BitVector.from_bits(bits)
        if is_discrete_interval(w, Geometry.LINE):
            assert is_discrete_interval(w, Geometry.CIRCLE)


class TestRowStats:
    def test_line_example(self):
        # r = 001110 has f = 5 and g = 2
        f, g = row_stats(BitVector.from_string("001110"), Geometry.LINE)
        assert (f, g) == (5, 2)

    def test_circle_wraparound(self):
        f, g = row_stats(BitVector.from_string("110001"), Geometry.CIRCLE)
        assert (f, g) == (2, 5)

    def test_degenerate_rows(self):
        with pytest.raises(DegenerateRow):
            row_stats(BitVector.zeros(4), Geometry.LINE)
        with pytest.raises(DegenerateRow):
            row_stats(BitVector.ones(4), Geometry.CIRCLE)
        # all-one row is fine on the line
        assert row_stats(BitVector.ones(4), Geometry.LINE) == (4, 0)

    def test_non_interval_rejected(self):
        with pytest.raises(ValueError):
            row_stats(BitVector.from_string("0101"), Geometry.LINE)

    @given(bit_lists.filter(lambda b: sum(b) > 0))
    def test_line_stats_determine_row(self, bits):
        w = BitVector.from_bits(bits)
        if not is_discrete_interval(w, Geometry.LINE):
            return
        f, g = row_stats(w, Geometry.LINE)
        rebuilt = BitVector.from_bits(
            1 if g < i + 1 <= f else 0 for i in range(len(bits))
        )
        assert rebuilt == w

    @given(bit_lists.filter(lambda b: 0 < sum(b) < len(b)))
    def test_circle_stats_determine_row(self, bits):
        w = BitVector.from_bits(bits)
        if not is_discrete_interval(w, Geometry.CIRCLE):
            return
        n = len(bits)
        f, g = row_stats(w, Geometry.CIRCLE)
        # the 1-block runs cyclically from position g (0-based) to f-1
        covered = set()
        i = g % n
        while i != f % n:
            covered.add(i)
            i = (i + 1) % n
        rebuilt = BitVector.from_bits(1 if i in covered else 0 for i in range(n))
        assert rebuilt == w


    def test_circle_matches_the_scan(self):
        def scan(row):
            # the former loop: the 1 followed by a 0 ends the 1-block (f),
            # the 0 followed by a 1 ends the 0-block (g), 1-based
            n, mask = row.n, row.mask
            for i in range(n):
                here = (mask >> i) & 1
                nxt = (mask >> ((i + 1) % n)) & 1
                if here and not nxt:
                    f = i + 1
                if not here and nxt:
                    g = i + 1
            return f, g

        rows = 0
        for n in range(1, 11):
            for mask in range(1, (1 << n) - 1):
                w = BitVector(n, mask)
                if is_discrete_interval(w, Geometry.CIRCLE):
                    assert row_stats(w, Geometry.CIRCLE) == scan(w)
                    rows += 1
        assert rows == sum(n * (n - 1) for n in range(1, 11))


class TestInharmonious:
    def test_examples(self):
        a = BitVector.from_string("1100")
        b = BitVector.from_string("0110")
        assert inharmonious(a, b)
        assert not inharmonious(a, a)
        assert not inharmonious(BitVector.zeros(4), a)
        assert not inharmonious(a, BitVector.ones(4))

    @given(bit_lists, bit_lists)
    def test_matches_order_incomparability(self, a, b):
        n = min(len(a), len(b))
        x, y = BitVector.from_bits(a[:n]), BitVector.from_bits(b[:n])
        assert inharmonious(x, y) == (not x.leq(y) and not y.leq(x))


class TestCodeContainers:
    def test_code_dedup_and_order(self):
        c = Code.from_strings(["10", "01", "10"])
        assert len(c) == 2
        assert [w.to_string() for w in c.sorted_words()] == ["10", "01"]

    def test_code_mixed_lengths(self):
        with pytest.raises(LengthMismatch):
            Code.from_strings(["10", "100"])

    def test_code_iterates_sorted(self):
        c = Code.from_strings(["011", "110", "100"])
        assert list(c) == c.sorted_words()

    def test_multiset(self):
        w = BitVector.from_string("10")
        ms = CodeMultiset.of({w: 3})
        assert ms.total() == 3
        assert ms.support == Code.of([w])
        with pytest.raises(ValueError):
            CodeMultiset.of({w: 0})

    @pytest.mark.parametrize("count", [1.5, "2", True])
    def test_multiset_multiplicity_must_be_int(self, count):
        # the error names the word whose count is not an int; True equals
        # 1 but is no count
        bv = BitVector.from_string
        with pytest.raises(ValueError, match="for 10$"):
            CodeMultiset.of({bv("10"): count, bv("11"): 2})

    def test_multiset_mixed_lengths(self):
        bv = BitVector.from_string
        with pytest.raises(LengthMismatch):
            CodeMultiset.of({bv("10"): 1, bv("100"): 2})


class TestSensorMatrix:
    def test_columns_transpose(self):
        m = SensorMatrix.from_strings(["0111100", "0011000"], Geometry.LINE)
        assert m.k == 2 and m.n == 7
        cols = [c.to_string() for c in m.columns]
        assert cols == ["00", "10", "11", "11", "10", "00", "00"]
        again = SensorMatrix.from_columns(m.columns, Geometry.LINE)
        assert again.rows == m.rows

    @pytest.mark.parametrize("build", [SensorMatrix, SensorMatrix.from_columns],
                             ids=["rows", "columns"])
    def test_differing_lengths(self, build):
        words = [BitVector.from_string("10"), BitVector.from_string("100")]
        with pytest.raises(LengthMismatch):
            build(words, Geometry.LINE)

    def test_from_columns_row_count(self):
        # with no columns, only k says how many rows there are
        m = SensorMatrix.from_columns([], Geometry.LINE, k=3)
        assert (m.k, m.n) == (3, 0)
        assert m.column_set() == Code(frozenset(), 3)
        cols = [BitVector.from_string("10"), BitVector.from_string("01")]
        assert SensorMatrix.from_columns(cols, Geometry.LINE, k=2).k == 2
        with pytest.raises(LengthMismatch):
            SensorMatrix.from_columns(cols, Geometry.LINE, k=3)

    def test_immutable(self):
        m = SensorMatrix.from_strings(["110", "011"], Geometry.LINE)
        for name in ("rows", "columns", "geometry", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        assert m.row_strings() == ["110", "011"]

    def test_equal_matrices_hash_equal(self):
        a = SensorMatrix.from_strings(["110", "011"], Geometry.LINE)
        b = SensorMatrix.from_columns(a.columns, Geometry.LINE)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        circle = SensorMatrix.from_strings(["110", "011"], Geometry.CIRCLE)
        assert len({a, b, circle}) == 2

    def test_reprs_show_words(self):
        assert repr(BitVector.from_string("0110")) == "BitVector('0110')"
        m = SensorMatrix.from_strings(["110", "011"], Geometry.CIRCLE)
        assert repr(m) == "SensorMatrix(['110', '011'], circle)"

    def test_column_set_and_multiset(self):
        m = SensorMatrix.from_strings(["110", "011"], Geometry.LINE)
        assert m.column_set() == Code.from_strings(["10", "11", "01"])
        ms = SensorMatrix.from_strings(["11", "11"], Geometry.LINE).column_multiset()
        assert ms.entries == {BitVector.from_string("11"): 2}

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3),
            min_size=0,
            max_size=5,
        )
    )
    def test_transpose_involution(self, rows):
        m = SensorMatrix(
            [BitVector.from_bits(r) for r in rows], Geometry.LINE
        )
        back = SensorMatrix.from_columns(m.columns, Geometry.LINE)
        assert back.rows == m.rows


def _per_bit_transpose(vectors, length):
    # reference: one step per bit, set or not
    masks = [0] * length
    for j, v in enumerate(vectors):
        for i in range(v.n):
            if v.bit(i):
                masks[i] |= 1 << j
    return tuple(BitVector(len(vectors), m) for m in masks)


def _span(n):
    # the bits [a, b) of an n-bit word, a <= b
    return st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda ab: (1 << max(ab)) - (1 << min(ab)))


@st.composite
def _row_masks(draw, max_n=12):
    """(n, row masks): dense, sparse, interval, wrapping-arc, suffix (the
    last run ends at column n), all-ones, all-zero and random rows,
    with k = 0 and n = 0 among the shapes."""
    n = draw(st.integers(0, max_n))
    full = (1 << n) - 1
    word = st.integers(0, full)
    row = st.one_of(
        word,
        st.tuples(word, word).map(lambda ab: ab[0] | ab[1]),
        st.tuples(word, word, word).map(lambda abc: abc[0] & abc[1] & abc[2]),
        _span(n),
        _span(n).map(lambda m: full ^ m),
        st.integers(0, n).map(lambda a: full ^ ((1 << a) - 1)),
        st.just(full),
        st.just(0),
    )
    return n, draw(st.lists(row, max_size=10))


class TestRunTranspose:
    """Both directions of the run-boundary transpose against the per-bit
    reference."""

    @given(_row_masks())
    @settings(max_examples=400)
    def test_columns_from_rows(self, shape):
        n, masks = shape
        rows = [BitVector(n, m) for m in masks]
        m = SensorMatrix(rows, Geometry.LINE)
        # a matrix given no rows has no columns either
        assert m.columns == (_per_bit_transpose(rows, n) if rows else ())

    @given(_row_masks())
    @settings(max_examples=400)
    def test_rows_from_columns(self, shape):
        n, masks = shape
        rows = tuple(BitVector(n, m) for m in masks)
        cols = _per_bit_transpose(rows, n)
        m = SensorMatrix.from_columns(cols, Geometry.CIRCLE, k=len(rows))
        assert m.rows == rows
        assert m.columns == cols
        assert (m.k, m.n) == (len(rows), n)

    @pytest.mark.parametrize("rows", [
        ["1111"], ["0001", "0011", "1001"], ["1010101"], [""], ["", ""],
    ])
    def test_named_cases(self, rows):
        m = SensorMatrix.from_strings(rows, Geometry.LINE)
        vectors = [BitVector.from_string(r) for r in rows]
        assert m.columns == _per_bit_transpose(vectors, len(rows[0]))
        assert SensorMatrix.from_columns(m.columns, Geometry.LINE,
                                         k=len(rows)).rows == m.rows

    def test_constraints_are_the_per_bit_lists(self, monkeypatch):
        # the ordering reduces, row by row, the indices of the words
        # holding that row, stopping at the first failure, which it names
        from convexcodes import ordering

        calls = []
        reduce = ordering.PQTree.reduce

        def recorded(tree, labels):
            calls.append(list(labels))
            return reduce(tree, labels)

        monkeypatch.setattr(ordering.PQTree, "reduce", recorded)
        rng = random.Random(7)
        outcomes = set()
        for _ in range(600):
            k = rng.randint(0, 9)
            ws = sorted({BitVector(k, rng.getrandbits(k) if k else 0)
                         for _ in range(rng.randint(0, 14))},
                        key=lambda w: w.mask)
            # no words, no rows: the words carry their length
            rows = [[j for j, w in enumerate(ws) if w.bit(i)]
                    for i in range(k if ws else 0)]
            expected = [labels for labels in rows if len(labels) > 1]
            constraints = list(ordering._row_constraints(ws))
            assert constraints == rows
            calls.clear()
            failed = ordering._first_failure(ordering.PQTree(len(ws)),
                                             constraints)
            outcomes.add(failed is None)
            if failed is not None:
                assert calls and calls == expected[:len(calls)]
                assert calls[-1] == constraints[failed]
            else:
                assert calls == expected
        assert outcomes == {True, False}


class TestRegimeCheck:
    def test_adjacency_is_cyclic_only_on_circle(self):
        # 10 | 11 | 01: harmonious side by side, but 01 wraps round to 10
        cols = [BitVector.from_string(c) for c in ("10", "11", "01")]
        m = SensorMatrix.from_columns(cols, Geometry.LINE)
        assert regime_check(m, HCO)
        assert not regime_check(m, HCCO)
        one = SensorMatrix.from_columns(cols[:1], Geometry.LINE)
        assert regime_check(one, HCO)
        assert regime_check(one, HCCO)

    def test_signature_names(self):
        assert CO.name == "CO"
        assert HCO.name == "HCO"
        assert CCO.name == "CCO"
        assert HCCO.name == "HCCO"

    def test_hco_matrix(self):
        m = SensorMatrix.from_strings(
            ["0110000", "0011100", "0000100", "0000001"], Geometry.LINE
        )
        assert regime_check(m, CO)
        assert regime_check(m, HCO)
        assert regime_check(m, CCO)
        assert regime_check(m, HCCO)

    def test_co_but_not_hco(self):
        m = SensorMatrix.from_strings(
            ["011000", "001110", "000100", "100000"], Geometry.LINE
        )
        assert regime_check(m, CO)
        assert not regime_check(m, HCO)

    def test_cco_but_not_co(self):
        m = SensorMatrix.from_strings(["1001", "1100"], Geometry.CIRCLE)
        assert not regime_check(m, CO)
        assert regime_check(m, CCO)

    def test_regime_geometry_governs(self):
        # the matrix's own tag is ignored; only the regime's geometry counts
        m = SensorMatrix.from_strings(["1001"], Geometry.LINE)
        assert regime_check(m, CCO)
        assert not regime_check(m, CO)

    def test_hcco_ordering_from_circular_counterexample(self):
        m = SensorMatrix.from_columns(
            [BitVector.from_string(s) for s in ("1000", "1110", "0100", "1101")],
            Geometry.CIRCLE,
        )
        assert regime_check(m, HCCO)
