"""The Tucker fixtures: obstructions by the permutation oracle, minimal
where the oracle reaches, certified on every word, also with their rows
repeated, infeasible on the circle once complemented, and recognized in
work linear in their size."""

import random

import pytest

from conftest import brute_orderable
from convexcodes.core import CCO, CO, BitVector, Code
from convexcodes.ordering import cco_order, co_order
from convexcodes.reconstruct import (RejectionCertificate, _infeasible_core,
                                     rejection_certificate)
from tucker import kinds, m_i, m_ii, m_iii, m_iv, m_v, permuted, repeated

# every kind the permutation oracle reaches: 7 words, 5040 orderings
KINDS = kinds(7)


def _strings(words, rows):
    """The words cut down to the given rows, as strings."""
    return [BitVector(len(rows), sum(w.bit(r) << i for i, r in enumerate(rows)))
            .to_string() for w in words]


def _assert_minimal_obstruction(words):
    # infeasible by the oracle, feasible once any word or any row is
    # dropped, and certified by an odd cycle through every word: a
    # minimal obstruction has no smaller infeasible subset
    rows = list(range(words[0].n))
    assert not brute_orderable(_strings(words, rows), CO)
    for j in range(len(words)):
        assert brute_orderable(_strings(words[:j] + words[j + 1:], rows), CO)
    for r in rows:
        assert brute_orderable(_strings(words, rows[:r] + rows[r + 1:]), CO)
    cert = rejection_certificate(Code.of(words))
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == set(words)


@pytest.mark.parametrize("c", [3, 4, 5, 6, 7])
def test_m_i_is_a_minimal_obstruction(c):
    code = m_i(c)
    ws = code.sorted_words()
    assert len(ws) == code.k == c
    assert sum(bin(w.mask).count("1") for w in ws) == 2 * c
    _assert_minimal_obstruction(ws)


@pytest.mark.parametrize("code, words, rows", [
    *(pytest.param(m_ii(c), c, c, id="M_II(%d)" % c) for c in range(4, 8)),
    *(pytest.param(m_iii(c), c, c - 1, id="M_III(%d)" % c)
      for c in range(4, 8)),
    pytest.param(m_iv(), 6, 4, id="M_IV"),
    pytest.param(m_v(), 5, 4, id="M_V"),
])
def test_kind_is_a_minimal_obstruction(code, words, rows):
    assert len(code) == words and code.k == rows
    _assert_minimal_obstruction(code.sorted_words())


@pytest.mark.parametrize("name", list(KINDS))
def test_permuted_kind_is_a_minimal_obstruction(name):
    _assert_minimal_obstruction(permuted(KINDS[name], random.Random(name)))


@pytest.mark.parametrize("name", list(KINDS))
def test_complemented_kind_is_infeasible_on_the_circle(name):
    # Tucker's complementation: M ∪ {0} is CO-infeasible, so it stays
    # CCO-infeasible complemented by any of its words
    code = KINDS[name]
    base = code.sorted_words() + [BitVector(code.k, 0)]
    for x in base:
        words = [w ^ x for w in base]
        assert not brute_orderable([w.to_string() for w in words], CCO)
        assert not cco_order(Code.of(words)).feasible


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("c", [3, 4, 5, 6])
def test_repeated_rows_stay_infeasible(c, t):
    code = repeated(m_i(c), t)
    ws = code.sorted_words()
    assert len(ws) == c and code.k == c * t
    assert not brute_orderable(_strings(ws, range(code.k)), CO)
    assert not co_order(code).feasible


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("name", list(KINDS))
def test_repeated_rows_are_certified_on_one_copy_each(name, t):
    # copies of a row are one constraint: the Tucker core keeps one copy
    # of each row, and the odd cycle still passes through every word
    code = repeated(KINDS[name], t)
    ws = code.sorted_words()
    cert = rejection_certificate(code)
    assert isinstance(cert, RejectionCertificate) and cert.verify()
    assert {w for pair in cert.odd_cycle for w in pair} == set(ws)
    _, rows = _infeasible_core(ws, co_order(code).failed_row)
    copies = [r // t for r in range(code.k) if rows >> r & 1]
    assert sorted(copies) == list(range(KINDS[name].k))


# M_I's ids are its row repetition t
@pytest.mark.parametrize("make", [
    pytest.param(m_i, id="1"),
    pytest.param(lambda c: repeated(m_i(c), 5), id="5"),
    pytest.param(m_ii, id="M_II"),
    pytest.param(m_iii, id="M_III"),
])
def test_co_order_work_doubles_with_the_cycle(visits, make):
    # parent reads of the PQ-tree over the whole recognition, which fails
    # at the kind's last row: doubling c doubles the ones
    def work(c):
        before = visits[0]
        assert not co_order(make(c)).feasible
        return visits[0] - before

    small, large = work(500), work(1000)
    assert small > 0 and large <= 2.2 * small, (small, large)
