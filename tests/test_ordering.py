import itertools
import random

from hypothesis import given, settings, strategies as st

from conftest import all_words, brute_orderable, brute_orderings
from convexcodes.core import (
    CCO,
    CO,
    BitVector,
    Code,
    SensorMatrix,
    regime_check,
)
from convexcodes.ordering import co_order, cco_order


def _co(strings):
    return co_order(Code.from_strings(strings))


def _cco(strings):
    return cco_order(Code.from_strings(strings))


class TestExamples:
    def test_empty_and_singleton(self):
        assert co_order(Code.of([])).feasible
        assert _co(["101"]).feasible
        assert _cco(["101"]).feasible

    def test_pc_walkthrough_code(self):
        strings = ["1100", "1000", "0100", "0000", "0001", "0110"]
        for result in (_co(strings), _cco(strings)):
            assert result.feasible
            assert len(result.ordering) == 6

    def test_odd_cycle_code_infeasible_on_line(self):
        strings = ["1100", "1010", "0101", "1111"]
        assert not _co(strings).feasible

    def test_cco_but_not_co(self):
        # needs wraparound: some row must split into two blocks on the line
        strings = ["11", "10", "01", "00"]
        assert _co(strings).feasible
        strings = ["110", "011", "101"]
        assert not _co(strings).feasible
        assert _cco(strings).feasible

    def test_result_passes_regime_check(self):
        r = _co(["1100", "0110", "0011", "0000"])
        assert r.feasible
        m = SensorMatrix.from_columns(r.ordering, CO.geometry)
        assert regime_check(m, CO)

    def test_summary_uses_codeword_strings(self):
        r = _co(["10", "01"])
        assert r.feasible
        assert "10" in r.tree_summary and "01" in r.tree_summary

    def test_summary_golden(self):
        strings = ["1100", "1000", "0100", "0000", "0001", "0110"]
        assert (_co(strings).tree_summary
                == "{0000 [1000 1100 {0100 0110}] 0001}")
        # the circle complements by 0000, a lightest word, so its tree
        # is the line's; turned around the circle, that tree's orderings
        # are exactly the circular orderings the permutation oracle takes
        summary = _cco(strings).tree_summary
        assert summary == "{0000 [1000 1100 {0100 0110}] 0001}"
        assert ({p[i:] + p[:i] for p in _summary_orderings(summary)
                 for i in range(len(p))}
                == brute_orderings(strings, CCO))
        assert co_order(Code.of([])).tree_summary == "{}"
        assert cco_order(Code.of([])).tree_summary == "{}"
        assert _co(["1100", "1010", "0101", "1111"]).tree_summary is None


def _summary_orderings(summary):
    # the orderings a tree summary stands for: {..} in any order, [..]
    # forward or reversed
    tokens = summary.replace("{", " { ").replace("[", " [ ").replace(
        "}", " } ").replace("]", " ] ").split()

    def node(i):
        if tokens[i] not in "{[":
            return {(tokens[i],)}, i + 1
        close, kids, i = "}" if tokens[i] == "{" else "]", [], i + 1
        while tokens[i] != close:
            kid, i = node(i)
            kids.append(kid)
        arrangements = (itertools.permutations(kids) if close == "}"
                        else (kids, kids[::-1]))
        return {sum(parts, ()) for arranged in arrangements
                for parts in itertools.product(*arranged)}, i + 1

    return node(0)[0]


class TestDeterminism:
    def test_input_order_irrelevant(self):
        strings = ["1100", "1000", "0100", "0000", "0001", "0110"]
        base_co = _co(strings)
        base_cco = _cco(strings)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = strings[:]
            rng.shuffle(shuffled)
            for result, base in ((_co(shuffled), base_co),
                                 (_cco(shuffled), base_cco)):
                assert result == base
                assert result.tree_summary == base.tree_summary

    def test_repeat_calls_identical(self):
        strings = ["111", "110", "011", "010"]
        for order in (_co, _cco):
            first, second = order(strings), order(strings)
            assert first == second
            assert first.tree_summary == second.tree_summary


def test_circle_complements_each_word_once(monkeypatch):
    # cco_order complements each of the n words by the anchor once and
    # names the leaves by the originals: with the k rows of the checked
    # matrix, at most n + k BitVectors
    rng = random.Random(80)
    k, s = 80, 160
    rows = []
    for _ in range(k):
        arc = ((1 << rng.randrange(1, s)) - 1) << rng.randrange(s)
        rows.append((arc | arc >> s) & ((1 << s) - 1))
    code = Code.of(BitVector(k, sum(1 << i for i, r in enumerate(rows)
                                    if r >> j & 1)) for j in range(s))
    made = []
    init = BitVector.__init__

    def recorded(w, *args, **kwargs):
        init(w, *args, **kwargs)
        made.append(w)

    monkeypatch.setattr(BitVector, "__init__", recorded)
    r = cco_order(code)
    assert r.feasible and len(r.ordering) == len(code) > k
    assert len(made) <= len(code) + k


class TestExhaustiveOracle:
    def test_all_subsets_length_three(self):
        universe = all_words(3)
        for size in range(0, 5):
            for combo in itertools.combinations(universe, size):
                code = Code.from_strings(combo)
                assert co_order(code).feasible == brute_orderable(combo, CO)
                assert cco_order(code).feasible == brute_orderable(combo, CCO)

    def test_all_small_subsets_length_four(self):
        universe = all_words(4)
        for size in range(0, 4):
            for combo in itertools.combinations(universe, size):
                code = Code.from_strings(combo)
                assert co_order(code).feasible == brute_orderable(combo, CO)
                assert cco_order(code).feasible == brute_orderable(combo, CCO)

    def test_every_word_is_an_anchor(self):
        # Tucker's complementation by any word of the code, not only the
        # lightest that cco_order takes, gives the same CO feasibility
        combos = itertools.chain(
            *(itertools.combinations(all_words(3), size)
              for size in range(1, 5)),
            *(itertools.combinations(all_words(4), size)
              for size in range(1, 4)))
        for combo in combos:
            code = Code.from_strings(combo)
            feasible = cco_order(code).feasible
            for anchor in code.sorted_words():
                assert co_order(Code.of(w ^ anchor for w in code.words)
                                ).feasible == feasible


class TestRandomOracle:
    def test_random_codes_length_four(self):
        rng = random.Random(20240824)
        universe = all_words(4)
        for _ in range(400):
            size = rng.randint(4, 6)
            combo = rng.sample(universe, size)
            code = Code.from_strings(combo)
            assert co_order(code).feasible == brute_orderable(combo, CO)
            assert cco_order(code).feasible == brute_orderable(combo, CCO)


word_sets = st.sets(st.integers(0, 31), min_size=1, max_size=6).map(
    lambda masks: Code.of([BitVector(5, m) for m in masks])
)


class TestProperties:
    @given(word_sets)
    @settings(max_examples=60, deadline=None)
    def test_feasible_output_is_valid(self, code):
        r = co_order(code)
        if r.feasible:
            m = SensorMatrix.from_columns(r.ordering, CO.geometry)
            assert regime_check(m, CO)
            assert m.column_set() == code
        r = cco_order(code)
        if r.feasible:
            m = SensorMatrix.from_columns(r.ordering, CCO.geometry)
            assert regime_check(m, CCO)
            assert m.column_set() == code

    @given(word_sets, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_subsets_of_feasible_stay_feasible(self, code, rnd):
        words = code.sorted_words()
        sub = Code.of(rnd.sample(words, rnd.randint(0, len(words))))
        if co_order(code).feasible:
            assert co_order(sub).feasible
        if cco_order(code).feasible:
            assert cco_order(sub).feasible

    @given(word_sets)
    @settings(max_examples=60, deadline=None)
    def test_co_implies_cco(self, code):
        if co_order(code).feasible:
            assert cco_order(code).feasible
