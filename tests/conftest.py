"""Shared helpers: small-universe generators, brute-force oracles, the
PQ-tree's parent-read counter and the teardown that unfreezes the heap
after a runtime budget."""

from __future__ import annotations

import gc
import itertools

import pytest

from convexcodes import pqtree
from convexcodes.core import (
    BitVector,
    Code,
    Density,
    Geometry,
    Regime,
    SensorMatrix,
    regime_check,
)


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """Undo the gc.freeze() of a runtime budget whose test failed before
    its check()."""
    yield
    gc.unfreeze()


@pytest.fixture
def visits(monkeypatch):
    """Counts parent lookups: one per pertinent leaf, one per node the
    full-node climb or the bubble pass visits and one per node the
    labeling pass labels.  The leaf layer and the climb read a node's
    parent cell inline, the bubble and labeling passes through
    _Node.parent, so the count is of reads of the `up` slot; the
    templates only write it."""
    count = [0]
    slot = pqtree._Node.__dict__["up"]

    def read(node):
        count[0] += 1
        return slot.__get__(node, pqtree._Node)

    monkeypatch.setattr(pqtree._Node, "up", property(read, slot.__set__))
    return count


def all_words(k: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=k)]


def _mask_block_contiguous(mask: int) -> bool:
    if mask == 0:
        return True
    shifted = mask >> (mask & -mask).bit_length() - 1
    return shifted & (shifted + 1) == 0


def _rows_ok(perm: tuple[int, ...], k: int, circular: bool) -> bool:
    n = len(perm)
    rows = [0] * k
    for j, m in enumerate(perm):
        while m:
            i = (m & -m).bit_length() - 1
            rows[i] |= 1 << j
            m &= m - 1
    full = (1 << n) - 1
    for rm in rows:
        if _mask_block_contiguous(rm):
            continue
        if circular and _mask_block_contiguous(full ^ rm):
            continue
        return False
    return True


def brute_orderable(strings, regime: Regime) -> bool:
    """Try every column permutation; the reference for co/cco_order."""
    words = [BitVector.from_string(s) for s in strings]
    k = words[0].n if words else 0
    masks = [w.mask for w in words]
    circular = regime.geometry is Geometry.CIRCLE
    if regime.density is Density.SPARSE:
        for perm in itertools.permutations(masks):
            if _rows_ok(perm, k, circular):
                return True
        return False
    for perm in itertools.permutations(words):
        m = SensorMatrix.from_columns(perm, regime.geometry)
        if regime_check(m, regime):
            return True
    return False


def brute_orderings(strings, regime: Regime) -> set[tuple[str, ...]]:
    """Every column permutation of the words, as strings, that meets the
    sparse regime: the reference for a recognizer's set of orderings."""
    k = len(strings[0]) if strings else 0
    circular = regime.geometry is Geometry.CIRCLE
    mask = {s: BitVector.from_string(s).mask for s in strings}
    return {perm for perm in itertools.permutations(strings)
            if _rows_ok(tuple(mask[s] for s in perm), k, circular)}


def brute_dense_multiordering(words: Code, max_len: int) -> bool:
    """Does any column sequence of length <= max_len with support equal to
    words form an HCO matrix?"""
    ws = list(words.words)
    dense = Regime(Geometry.LINE, Density.DENSE)
    for length in range(len(ws), max_len + 1):
        for seq in itertools.product(ws, repeat=length):
            if set(seq) != set(ws):
                continue
            m = SensorMatrix.from_columns(seq, Geometry.LINE)
            if regime_check(m, dense):
                return True
    return False


def brute_multiset_orderable(ms, regime: Regime) -> bool:
    pool = []
    for w, mult in ms.entries.items():
        pool.extend([w] * mult)
    for perm in set(itertools.permutations(pool)):
        m = SensorMatrix.from_columns(perm, regime.geometry)
        if regime_check(m, regime):
            return True
    return False
