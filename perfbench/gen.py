"""Seeded input generators with planted ground truth.

Every generator builds its input from a ``random.Random`` and the
structure it plants, never by asking the library what the input is, so
the expected answer of every op is known before the op runs.  Words are
``BitVector`` masks with bit i = row i; a code is the set of distinct
columns of the planted matrix.
"""

from __future__ import annotations

import random

from convexcodes import BitVector, Code, CodeMultiset
from check import transpose


def _code(col_masks, k: int) -> Code:
    return Code.of(BitVector(k, m) for m in set(col_masks))


def _permute_bits(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        i = (mask & -mask).bit_length() - 1
        out |= 1 << perm[i]
        mask &= mask - 1
    return out


def staircase(n: int, rng: random.Random) -> Code:
    """The acceptance-test staircase on n words, rows relabelled by rng.

    k = n/2 + 1 rows; the words are the k singletons followed by the
    adjacent pairs, cut to n words.  Line-sparse feasible (singletons and
    pairs alternate along the line).  For even n the pair joining the
    last two rows is cut, so the last singleton is comparable to no other
    word and no HCO multiordering exists.
    """
    k = n // 2 + 1
    perm = list(range(k))
    rng.shuffle(perm)
    masks = [1 << i for i in range(k)] + [0b11 << i for i in range(k - 1)]
    return Code.of(BitVector(k, _permute_bits(m, perm)) for m in masks[:n])


def nested(n: int, rng: random.Random) -> Code:
    """n nested prefixes {r(0)}, {r(0), r(1)}, ..., rows relabelled by rng.

    A chain is line-sparse feasible (column j holds rows 0..j) and drives
    the PQ-tree into its deepest shape.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return Code.of(
        BitVector(n, _permute_bits((1 << (i + 1)) - 1, perm)) for i in range(n)
    )


def line_matrix(s: int, rng: random.Random) -> list[int]:
    """Row masks of s // 2 random intervals over s sensors (line)."""
    rows = []
    for _ in range(s // 2):
        a, b = sorted((rng.randrange(s), rng.randrange(s)))
        rows.append(((1 << (b - a + 1)) - 1) << a)
    return rows


def circle_matrix(s: int, rng: random.Random) -> list[int]:
    """Row masks of s // 2 random proper arcs over s sensors (circle)."""
    full = (1 << s) - 1
    rows = []
    for _ in range(s // 2):
        start, length = rng.randrange(s), rng.randrange(1, s)
        m = ((1 << length) - 1) << start
        rows.append((m | m >> s) & full)
    return rows


def _words(make_rows, s: int, rng: random.Random) -> tuple[int, list[int]]:
    """Row count and s // 2 distinct column words of a random matrix.

    Deleting columns keeps every row a (cyclic) interval, so a random
    half of the distinct columns is as feasible as the whole matrix; a
    fixed word count keeps the cost of one input close to the next.
    """
    while True:
        rows = make_rows(s, rng)
        cols = sorted(set(transpose(rows, s)))
        if len(cols) >= s // 2:
            return len(rows), rng.sample(cols, s // 2)


def line_intervals(s: int, rng: random.Random) -> Code:
    """s // 2 columns of random line intervals: line-sparse feasible."""
    k, words = _words(line_matrix, s, rng)
    return _code(words, k)


def circle_arcs(s: int, rng: random.Random) -> Code:
    """s // 2 columns of random circular arcs: circle-sparse feasible."""
    k, words = _words(circle_matrix, s, rng)
    return _code(words, k)


def obstruction(s: int, rng: random.Random) -> Code:
    """Random line intervals plus a planted Tucker triangle.

    Three new columns c1, c2, c3 and three new rows {c1, c2}, {c2, c3},
    {c1, c3}; the old columns are 0 on the new rows.  Each new row forces
    two of the new columns to be adjacent, and three columns cannot be
    pairwise adjacent on a line, nor on a circle of more than three
    columns, so the code is sparse infeasible in both geometries.
    """
    k, words = _words(line_matrix, s, rng)
    return _code(words + [0b101 << k, 0b011 << k, 0b110 << k], k + 3)


def dense_complete(k: int, rng: random.Random) -> tuple[Code, CodeMultiset]:
    """The dense code of k open intervals with 2k distinct endpoints.

    The 2k + 1 regions between consecutive endpoints, read left to right,
    form an HCO matrix (neighbours differ in one interval, so they are
    comparable).  Each word's multiplicity is its number of regions plus
    a seeded surplus of 0-2; duplicating a column next to itself keeps
    HCO, so the multiset is dense-line feasible by construction.
    """
    slots = list(range(2 * k))
    rng.shuffle(slots)
    regions = [0] * (2 * k + 1)
    for i in range(k):
        lo, hi = sorted(slots[2 * i: 2 * i + 2])
        for r in range(lo + 1, hi + 1):
            regions[r] |= 1 << i
    occurrences: dict[int, int] = {}
    for m in regions:
        occurrences[m] = occurrences.get(m, 0) + 1
    entries = {
        BitVector(k, m): c + rng.randrange(3) for m, c in sorted(occurrences.items())
    }
    return Code.of(entries), CodeMultiset.of(entries)


def ones(code: Code) -> int:
    """Total 1-bits over the distinct codewords."""
    return sum(w.mask.bit_count() for w in code.words)


def multiset_ones(ms: CodeMultiset) -> int:
    return sum(w.mask.bit_count() * c for w, c in ms.entries.items())


def code_text(words) -> str:
    """Code-file text: one word per line."""
    return "".join(w.to_string() + "\n"
                   for w in sorted(words, key=lambda w: w.mask))
