"""The Tucker fixtures: obstructions by the permutation oracle, minimal
where the oracle reaches, and recognized in work linear in their size."""

import pytest

from conftest import brute_orderable
from convexcodes.core import CO, BitVector
from convexcodes.ordering import co_order
from tucker import m_i


def _strings(words, rows):
    """The words cut down to the given rows, as strings."""
    return [BitVector(len(rows), sum(w.bit(r) << i for i, r in enumerate(rows)))
            .to_string() for w in words]


@pytest.mark.parametrize("c", [3, 4, 5, 6])
def test_m_i_is_a_minimal_obstruction(c):
    code = m_i(c)
    ws, rows = code.sorted_words(), list(range(code.k))
    assert len(ws) == code.k == c
    assert sum(bin(w.mask).count("1") for w in ws) == 2 * c
    assert not brute_orderable(_strings(ws, rows), CO)
    for j in range(c):
        assert brute_orderable(_strings(ws[:j] + ws[j + 1:], rows), CO)
        assert brute_orderable(_strings(ws, rows[:j] + rows[j + 1:]), CO)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("c", [3, 4, 5, 6])
def test_repeated_rows_stay_infeasible(c, t):
    code = m_i(c, t)
    ws = code.sorted_words()
    assert len(ws) == c and code.k == c * t
    assert not brute_orderable(_strings(ws, range(code.k)), CO)
    assert not co_order(code).feasible


@pytest.mark.parametrize("t", [1, 5])
def test_co_order_work_doubles_with_the_cycle(visits, t):
    # parent reads of the PQ-tree over the whole recognition, which fails
    # at the cycle's last row: doubling c doubles the ones
    def work(c):
        before = visits[0]
        assert not co_order(m_i(c, t)).feasible
        return visits[0] - before

    small, large = work(500), work(1000)
    assert small > 0 and large <= 2.2 * small, (small, large)
