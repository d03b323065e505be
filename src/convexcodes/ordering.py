"""Column orderings: decide CO / CCO orderability of a codeword set.

co_order arranges a set of codewords as the columns of a CO matrix via
PQ-tree reduction.  cco_order reduces the circular problem to the linear
one by Tucker complementation: fix an anchor codeword and flip every bit
position in which the anchor is 1 (i.e. XOR all words with the anchor);
the complemented set is CO-orderable iff the original is CCO-orderable,
and any CO ordering maps back to a circular one by XOR-ing again.

A feasible result keeps its PQ-tree and renders tree_summary from it on
first read, so callers that only want the ordering never build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .core import (
    CCO,
    CO,
    BitVector,
    Code,
    SensorMatrix,
    ensure,
    regime_check,
)
from .pqtree import PQTree, ReductionFailed


class _WordTree(PQTree):
    """PQ-tree over word indices whose summary shows leaves as codewords."""

    def __init__(self, names: list[BitVector]):
        super().__init__(len(names))
        self.names = names

    def leaf_name(self, label: int) -> str:
        return self.names[label].to_string()


@dataclass(frozen=True)
class OrderingResult:
    """A feasible column ordering plus its permutation-class summary.

    tree_summary uses codeword strings, with {..} for freely permutable
    groups and [..] for sequences fixed up to reversal.  It and tree, the
    reduced PQ-tree it is rendered from, are None for an infeasible
    result.  Equality compares feasibility and ordering only.
    """

    feasible: bool
    ordering: Optional[tuple[BitVector, ...]] = None
    tree: Optional[PQTree] = field(default=None, repr=False, compare=False)

    @cached_property
    def tree_summary(self) -> Optional[str]:
        return None if self.tree is None else self.tree.summary()


INFEASIBLE_ORDERING = OrderingResult(False)


def _pq_solve(words: list[BitVector],
              names: list[BitVector]) -> Optional[tuple[list[int], PQTree]]:
    """Canonical consecutive-ones order of word indices and its tree, or None."""
    n = len(words)
    k = words[0].n if words else 0
    constraints: dict[int, list[int]] = {}
    for j, w in enumerate(words):
        m = w.mask
        while m:
            i = (m & -m).bit_length() - 1
            constraints.setdefault(i, []).append(j)
            m &= m - 1
    tree = _WordTree(names)
    try:
        for i in range(k):
            labels = constraints.get(i, ())
            if len(labels) > 1:
                tree.reduce(labels)
    except ReductionFailed:
        return None
    return tree.frontier(), tree


def co_order(words: Code) -> OrderingResult:
    """A canonical CO column ordering of the codeword set, or infeasible."""
    ws = words.sorted_words()
    solved = _pq_solve(ws, ws)
    if solved is None:
        return INFEASIBLE_ORDERING
    order, tree = solved
    cols = tuple(ws[j] for j in order)
    m = SensorMatrix.from_columns(cols, CO.geometry)
    ensure(regime_check(m, CO), "PQ-tree produced a non-CO ordering")
    return OrderingResult(True, cols, tree)


def cco_order(words: Code) -> OrderingResult:
    """A canonical CCO column ordering of the codeword set, or infeasible."""
    ws = words.sorted_words()
    if not ws:
        return co_order(words)  # no anchor; the empty code is trivially CCO
    anchor = ws[-1]
    flipped = sorted((w ^ anchor for w in ws), key=lambda w: w.mask)
    originals = [w ^ anchor for w in flipped]
    solved = _pq_solve(flipped, originals)
    if solved is None:
        return INFEASIBLE_ORDERING
    order, tree = solved
    cols = tuple(originals[j] for j in order)
    m = SensorMatrix.from_columns(cols, CCO.geometry)
    ensure(regime_check(m, CCO), "complementation produced a non-CCO ordering")
    return OrderingResult(True, cols, tree)
