"""Column orderings: decide CO / CCO orderability of a codeword set.

co_order arranges a set of codewords as the columns of a CO matrix via
PQ-tree reduction.  cco_order reduces the circular problem to the linear
one by Tucker complementation: fix an anchor codeword, one of least
weight, and flip every bit position in which the anchor is 1 (i.e. XOR
all words with the anchor); the complemented set is CO-orderable iff
the original is CCO-orderable, and any CO ordering maps back to a
circular one by XOR-ing again.

Both are one construction, whose only self-check is verify_matrix: the
regime's signature and exactly the given words as columns.  A feasible
result keeps the ordering and the PQ-tree's bracket shape over the
words, not the tree, and renders tree_summary from it on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .core import (
    CCO,
    CO,
    BitVector,
    Code,
    Regime,
    SensorMatrix,
    _row_runs,
    verify_matrix,
)
from .pqtree import PQTree, ReductionFailed, render


@dataclass(frozen=True)
class OrderingResult:
    """A feasible column ordering plus its permutation-class summary.

    tree_summary uses codeword strings, with {..} for freely permutable
    groups and [..] for sequences fixed up to reversal; it is rendered
    on first read from the PQ-tree's bracket shape over the words.  It and
    matrix, the checked sensor matrix whose columns are the ordering,
    are None for an infeasible result.  failed_row is the index of the
    row whose reduction failed, over the words in sorted order
    (complemented by the anchor on the circle), and None for a feasible
    result.  Equality compares feasibility and ordering only.
    """

    feasible: bool
    ordering: Optional[tuple[BitVector, ...]] = None
    _shape: Optional[tuple] = field(default=None, repr=False, compare=False)
    matrix: Optional[SensorMatrix] = field(default=None, repr=False,
                                           compare=False)
    failed_row: Optional[int] = field(default=None, compare=False)

    @cached_property
    def tree_summary(self) -> Optional[str]:
        return (None if self._shape is None
                else render(self._shape, BitVector.to_string))


def _row_constraints(words: list[BitVector]) -> Iterator[list[int]]:
    """For each row i of the words, the indices of the words holding bit
    i: its runs, cut from one shared index list at C speed."""
    index = list(range(len(words)))
    for bounds in _row_runs(words, words[0].n if words else 0):
        if len(bounds) == 2:
            yield index[bounds[0]:bounds[1]]
            continue
        labels = []
        for i in range(0, len(bounds), 2):
            labels += index[bounds[i]:bounds[i + 1]]
        yield labels


def _first_failure(tree: PQTree, constraints: Iterable) -> Optional[int]:
    """Reduce in order; the index of the first constraint to fail, or None."""
    for i, labels in enumerate(constraints):
        if len(labels) > 1:
            try:
                tree.reduce(labels)
            except ReductionFailed:
                return i
    return None


def _first_failure_touched(rows: list[list[int]]) -> Optional[int]:
    """_first_failure on a tree over only the words these rows hold."""
    label: dict[int, int] = {}
    relabelled = [[label.setdefault(w, len(label)) for w in row]
                  for row in rows]
    return _first_failure(PQTree(len(label)), relabelled)


def _order(words: Code, regime: Regime) -> OrderingResult:
    """Recognize words in regime.  On the circle, complement by the
    anchor a, a word of least weight (the first in sorted order among
    ties; the empty code has none and needs none), and name the leaves
    by the originals.  As |a| <= |w| for every word w, the sum over w
    of |w ^ a| <= |w| + |a| is at most 2 * ones: the complemented rows
    stay linear in the ones."""
    ws = names = words.sorted_words()
    if regime == CCO and ws:
        a = min(ws, key=BitVector.popcount).mask
        # each original under its complemented mask, which sorts them
        flipped = {w.mask ^ a: w for w in ws}
        masks = sorted(flipped)
        names = list(map(flipped.__getitem__, masks))
        ws = [BitVector(words.k, m) for m in masks]
    tree = PQTree(len(names))
    failed = _first_failure(tree, _row_constraints(ws))
    if failed is not None:
        return OrderingResult(False, failed_row=failed)
    # one canonical pass: the bracket shape, each leaf as its word
    shape = tuple([tok if type(tok) is str else names[tok]
                   for tok in tree.canonical()])
    cols = [tok for tok in shape if type(tok) is BitVector]
    m = SensorMatrix.from_columns(cols, regime.geometry, k=words.k)
    verify_matrix(m, regime, words)
    return OrderingResult(True, m.columns, shape, m)


def co_order(words: Code) -> OrderingResult:
    """A canonical CO column ordering of the codeword set, or infeasible."""
    return _order(words, CO)


def cco_order(words: Code) -> OrderingResult:
    """A canonical CCO column ordering of the codeword set, or infeasible."""
    return _order(words, CCO)
