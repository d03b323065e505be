"""Tucker's minimal obstructions to the consecutive-ones property, as codes.

A code's words are the columns of a 0/1 matrix and its rows are the
neurons, so a word is CO-orderable with the others iff the matrix has the
consecutive-ones property for columns.  Tucker (JCTB 12, 1972) lists
every minimal matrix without it; see also Dom, "Algorithmic aspects of
the consecutive-ones property" (BEATCS 98, 2009).  There are five kinds.

The repo indexes each kind by its number of words, c; Tucker indexes
M_I, M_II and M_III by k >= 1, where M_I(k) has k + 2 words and M_II(k)
and M_III(k) have k + 3.  Below, the rows are sets of word indices
1..c.

M_I(c), the cycle: c >= 3 words on c rows, word j holding rows j and
j - 1 (mod c), so 2c ones.  Tucker indexes the same matrix by c - 2, the
number of rows beyond the triangle: his M_I(1) is the repo's M_I(3).
"""

from __future__ import annotations

from convexcodes.core import BitVector, Code


def m_i(c: int) -> Code:
    """M_I(c), c >= 3: word j holds rows j and j - 1 (mod c)."""
    return Code.of(BitVector(c, 1 << j | 1 << (j - 1) % c) for j in range(c))


def repeated(code: Code, t: int) -> Code:
    """The code with every row repeated t >= 1 times: row i becomes the
    rows i t .. i t + t - 1."""
    block = (1 << t) - 1
    return Code.of(BitVector(code.k * t, sum(block << i * t
                                             for i in range(code.k)
                                             if w.mask >> i & 1))
                   for w in code.words)


def _of_rows(c: int, rows: list[set[int]]) -> Code:
    """The code of words 1..c whose row r holds the words in rows[r]."""
    return Code.of(BitVector(len(rows), sum(1 << r for r, row in
                                            enumerate(rows) if j in row))
                   for j in range(1, c + 1))


def m_ii(c: int) -> Code:
    """M_II(c), c >= 4 words on c rows, Tucker's M_II(k) for k = c - 3:
    rows {i, i+1} for i = 1..c-2, then {1..c-2, c} and {2..c-1, c}."""
    return _of_rows(c, [{i, i + 1} for i in range(1, c - 1)]
                    + [set(range(1, c - 1)) | {c}, set(range(2, c)) | {c}])


def m_iii(c: int) -> Code:
    """M_III(c), c >= 4 words on c - 1 rows, Tucker's M_III(k) for
    k = c - 3: rows {i, i+1} for i = 1..c-2, then {2..c-2, c}."""
    return _of_rows(c, [{i, i + 1} for i in range(1, c - 1)]
                    + [set(range(2, c - 1)) | {c}])


def m_iv() -> Code:
    """M_IV: 6 words on 4 rows, {1,2}, {3,4}, {5,6} and {2,4,6}."""
    return _of_rows(6, [{1, 2}, {3, 4}, {5, 6}, {2, 4, 6}])


def m_v() -> Code:
    """M_V: 5 words on 4 rows, {1,2}, {3,4}, {1,2,3,4} and {1,4,5}."""
    return _of_rows(5, [{1, 2}, {3, 4}, {1, 2, 3, 4}, {1, 4, 5}])


def kinds(max_words: int) -> dict[str, Code]:
    """Every kind of at most max_words words, by name ("M_II(5)")."""
    out = {"M_I(%d)" % c: m_i(c) for c in range(3, max_words + 1)}
    for name, make in (("M_II", m_ii), ("M_III", m_iii)):
        out.update(("%s(%d)" % (name, c), make(c))
                   for c in range(4, max_words + 1))
    for name, code in (("M_IV", m_iv()), ("M_V", m_v())):
        if len(code) <= max_words:
            out[name] = code
    return out


def relabeled(mask: int, rows) -> int:
    """mask with its bit i moved to bit rows[i]."""
    return sum(1 << rows[i] for i in range(len(rows)) if mask >> i & 1)


def permuted(code: Code, rng) -> list[BitVector]:
    """The code's words in a random order, with its rows relabeled by a
    random permutation."""
    rows = rng.sample(range(code.k), code.k)
    words = [BitVector(code.k, relabeled(w.mask, rows))
             for w in code.sorted_words()]
    rng.shuffle(words)
    return words


def _staircase_with_triangle(n):
    # n staircase words (singletons and adjacent pairs, CO-feasible) on
    # rows 0..r-1, plus a Tucker triangle on three new rows: each of the
    # rows r, r+1, r+2 makes two of the three new columns adjacent
    return _planted_cycle(n, 3)[0]


def _planted_cycle(n, c, layout="end"):
    # M_I(c) beside n staircase words: its c words moved onto cycle
    # rows that no staircase word holds.  "end" puts the c cycle rows
    # after the n // 2 + 1 staircase rows; "spread" makes cycle row j row
    # (j + 1) k // c - 1 of all k rows, the staircase rows filling the
    # others in order; "tied" is spread with every cycle word also in
    # the middle staircase row, so that all rows are one component and
    # the cycle is the only obstruction.  Returns the code and the cycle
    # words.
    s = n // 2 + 1
    k = s + c
    cycle_rows = ([s + j for j in range(c)] if layout == "end"
                  else [(j + 1) * k // c - 1 for j in range(c)])
    taken = set(cycle_rows)
    place = [i for i in range(k) if i not in taken]
    tie = 1 << place[s // 2] if layout == "tied" else 0
    stairs = ([1 << place[i] for i in range(s)]
              + [1 << place[i] | 1 << place[i + 1] for i in range(s - 1)])
    cycle = [relabeled(w.mask, cycle_rows) | tie for w in m_i(c).words]
    return (Code.of(BitVector(k, m) for m in stairs[:n] + cycle),
            {BitVector(k, m) for m in cycle})
