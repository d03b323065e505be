"""Tucker's minimal obstructions to the consecutive-ones property, as codes.

A code's words are the columns of a 0/1 matrix and its rows are the
neurons, so a word is CO-orderable with the others iff the matrix has the
consecutive-ones property for columns.  Tucker (JCTB 12, 1972) lists
every minimal matrix without it; see also Dom, "Algorithmic aspects of
the consecutive-ones property" (BEATCS 98, 2009).

M_I(c), the cycle: c >= 3 words on c rows, word j holding rows j and
j - 1 (mod c), so 2c ones.  Tucker indexes the same matrix by c - 2, the
number of rows beyond the triangle: his M_I(1) is the repo's M_I(3).
"""

from __future__ import annotations

from convexcodes.core import BitVector, Code


def m_i(c: int, t: int = 1) -> Code:
    """M_I(c), c >= 3, with every row repeated t >= 1 times: word j
    holds rows j t .. j t + t - 1 and those of row j - 1 (mod c), of
    c t rows."""
    block = (1 << t) - 1
    return Code.of(BitVector(c * t, block << j * t | block << (j - 1) % c * t)
                   for j in range(c))
