"""Independent answer checker.

Nothing here calls the library's own predicates (``regime_check``,
``is_discrete_interval``, ``RejectionCertificate.verify``...): matrices
are re-checked with this module's bit arithmetic, CLI output is parsed
from its text or JSON, and rational intervals are re-evaluated with
``fractions.Fraction``.  Every check raises ``Mismatch`` on a wrong
answer and returns None on a right one.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from math import comb


class Mismatch(Exception):
    """The program gave a wrong or unverifiable answer."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- matrices ---------------------------------------------------------------


def transpose(masks: list[int], length: int) -> list[int]:
    """Masks of the other axis: bit i of out[j] = bit j of masks[i]."""
    out = [0] * length
    for i, m in enumerate(masks):
        while m:
            j = (m & -m).bit_length() - 1
            out[j] |= 1 << i
            m &= m - 1
    return out


def block_starts(mask: int, n: int, circular: bool) -> int:
    """Number of maximal 1-blocks, cyclically when circular."""
    if circular:
        prev = ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1) if n else 0
    else:
        prev = mask << 1
    return (mask & ~prev).bit_count()


def is_interval_row(mask: int, n: int, circular: bool) -> bool:
    return block_starts(mask, n, circular) <= 1


def word_mask(s: str) -> int:
    """'1100' -> mask with bit i = character i."""
    require(s != "" and set(s) <= {"0", "1"}, "not a 0/1 word: %r" % s)
    return int(s[::-1], 2)


def check_matrix(rows: list[int], n_cols: int, k: int, circular: bool,
                 expected: Counter, dense: bool = False) -> None:
    """rows: row masks over n_cols columns.  expected: column mask ->
    multiplicity (1 each for a set).  dense adds the HCO condition that
    neighbouring columns are comparable."""
    require(len(rows) == k, "matrix has %d rows, expected %d" % (len(rows), k))
    require(all(0 <= r < 1 << n_cols for r in rows), "row wider than matrix")
    for i, r in enumerate(rows):
        require(is_interval_row(r, n_cols, circular),
                "row %d is not a discrete interval" % i)
    cols = transpose(rows, n_cols)
    require(Counter(cols) == expected, "column multiset differs from input")
    if dense:
        for a, b in zip(cols, cols[1:]):
            require(a & ~b == 0 or b & ~a == 0,
                    "adjacent columns are incomparable")


def check_columns(cols: list[int], k: int, circular: bool, expected: Counter,
                  dense: bool = False) -> None:
    check_matrix(transpose(cols, k), len(cols), k, circular, expected, dense)


def matrix_rows(m) -> tuple[list[int], int]:
    """Row masks and column count of a library SensorMatrix."""
    rows = list(m.rows)
    return [r.mask for r in rows], rows[0].n if rows else 0


# -- certificates -------------------------------------------------------------


def check_odd_cycle(cycle: list[tuple[int, int]], witnesses: dict[int, int],
                    words: set[int]) -> None:
    """An odd closed walk in the incompatibility graph of words.

    Vertices are ordered column pairs (a, b).  An edge joins (a, b) to
    (b, a), or (a, b) to (b, c) when some row r has a and c set and b
    clear; such an edge must carry its witness row r.
    """
    m = len(cycle)
    require(m >= 3 and m % 2 == 1, "cycle length %d is not odd" % m)
    for a, b in cycle:
        require(a != b and a in words and b in words,
                "cycle vertex is not a pair of distinct codewords")
    for i in range(m):
        u, v = cycle[i], cycle[(i + 1) % m]
        if v == (u[1], u[0]):
            continue
        require(i in witnesses, "edge %d has no witness row" % i)
        r = witnesses[i]
        ok = False
        for (a, b), (b2, c) in ((u, v), (v, u)):
            if b == b2 and (a >> r) & 1 and (c >> r) & 1 and not (b >> r) & 1:
                ok = True
        require(ok, "witness row %d does not separate edge %d" % (r, i))


def parse_certificate_text(out: str) -> tuple[list, dict]:
    """Cycle and witnesses from the plain-text ``certificate`` output."""
    cycle, witnesses = [], {}
    for line in out.splitlines()[1:]:
        body, _, comment = line.partition("#")
        body = body.strip()
        require(body.startswith("(") and body.endswith(")"),
                "bad certificate line %r" % line)
        a, b = (word_mask(s.strip()) for s in body[1:-1].split(","))
        if comment:
            witnesses[len(cycle)] = int(comment.split()[-1])
        cycle.append((a, b))
    return cycle, witnesses


def check_cli_certificate(rc: int, out: str, words: set[int],
                          feasible: bool, structured: bool) -> None:
    """``certificate`` text output, or the certificate inside ``check
    --format structured`` output when structured."""
    require(rc == (0 if feasible else 1), "exit code %r" % rc)
    if feasible:
        require(out.startswith("bipartite"), "no bipartition reported")
        return
    if structured:
        doc = json.loads(out)
        require(doc["status"] == "infeasible", "status not infeasible")
        cert = doc["certificate"]
        cycle = [(word_mask(a), word_mask(b)) for a, b in cert["odd_cycle"]]
        witnesses = {int(i): r for i, r in cert["witnesses"].items()}
    else:
        require(out.startswith("not bipartite"), "no odd cycle reported")
        cycle, witnesses = parse_certificate_text(out)
    check_odd_cycle(cycle, witnesses, words)


# -- CLI matrices and arrangements ----------------------------------------


def check_cli_infeasible(result: tuple[int, str]) -> None:
    rc, out = result
    require(rc == 1, "exit code %r" % rc)
    require(json.loads(out)["status"] == "infeasible", "status not infeasible")


def check_cli_check(rc: int, out: str, words: set[int], k: int,
                    feasible: bool) -> None:
    """``check --format structured`` on line input: the matrix when
    feasible, the odd-cycle certificate when not."""
    if not feasible:
        check_cli_certificate(rc, out, words, False, True)
        return
    require(rc == 0, "exit code %r" % rc)
    row_strings = json.loads(out)["matrix"]
    rows = [word_mask(s) for s in row_strings]
    n = len(row_strings[0]) if row_strings else 0
    check_matrix(rows, n, k, False, Counter(words))


def _frac(s):
    if s is None:
        return None
    p, _, q = s.partition("/")
    return Fraction(int(p), int(q))


def _span(sensors: list, lo, lo_closed: bool, hi, hi_closed: bool) -> int:
    """Mask of the sorted sensors inside the interval from lo to hi (an
    end of None is unbounded)."""
    left = 0 if lo is None else (bisect_left if lo_closed else bisect_right)(
        sensors, lo)
    right = len(sensors) if hi is None else (
        bisect_right if hi_closed else bisect_left)(sensors, hi)
    return ((1 << (right - left)) - 1) << left if right > left else 0


def arrangement_rows(arr: dict) -> tuple[list[int], int]:
    """Which sensors each interval contains, found by binary search over
    the sorted sensor positions."""
    sensors = [_frac(s) for s in arr["sensors"]]
    require(sensors == sorted(set(sensors)), "sensors not distinct and sorted")
    n = len(sensors)
    rows = []
    for iv in arr["intervals"]:
        if iv["kind"] != "proper":
            require(iv["kind"] in ("empty", "whole"), "bad kind %r" % iv["kind"])
            rows.append(0 if iv["kind"] == "empty" else (1 << n) - 1)
            continue
        lo, hi = _frac(iv["lo"]), _frac(iv["hi"])
        lo_c, hi_c = iv["lo_closed"], iv["hi_closed"]
        if arr["geometry"] == "circle" and lo > hi:     # the arc wraps past 0
            rows.append(_span(sensors, lo, lo_c, None, False)
                        | _span(sensors, None, False, hi, hi_c))
        else:
            rows.append(_span(sensors, lo, lo_c, hi, hi_c))
    return rows, n


def check_cli_arrangement(rc: int, out: str, words: set[int], k: int,
                          circular: bool, with_matrix: bool) -> None:
    """``realize`` / ``normalize`` structured output: the sensors must see
    exactly the input code through the reported intervals."""
    require(rc == 0, "exit code %r" % rc)
    doc = json.loads(out)
    require(doc["status"] == "feasible", "status not feasible")
    rows, n = arrangement_rows(doc["arrangement"])
    check_matrix(rows, n, k, circular, Counter(words))
    if with_matrix:
        require([word_mask(s) for s in doc["matrix"]] == rows,
                "intervals disagree with the reported matrix")


# -- counting -----------------------------------------------------------------


def check_table(table: dict, N: int, K: int, oracle: dict,
                reference: dict | None) -> None:
    """table: {(n, k): count} for n <= N, k <= K.  oracle: counts for
    small n from brute force; reference: a table verified earlier, whose
    cells must agree where both have them."""
    require(len(table) == (N + 1) * (K + 1), "table has wrong shape")
    for (n, k), v in oracle.items():
        if n <= N and k <= K:
            require(table[(n, k)] == v, "count at n=%d k=%d disagrees with"
                                        " brute force" % (n, k))
    for cell, v in (reference or {}).items():
        if cell in table:
            require(table[cell] == v, "count at n=%d k=%d disagrees with an"
                                      " earlier table" % cell)


def cli_counts(rc: int, out: str, N: int, K: int) -> dict:
    """The (n, k) -> count table of ``enumerate --format structured``."""
    require(rc == 0, "exit code %r" % rc)
    doc = json.loads(out)
    return {tuple(int(x) for x in key.split(",")): v
            for key, v in doc["counts"].items()}


def sparse_line_counts(N: int, K: int) -> dict:
    """k-sets of distinct nonzero line-interval rows on n sensors, with
    the rows counted by enumerating every mask."""
    out = {}
    for n in range(N + 1):
        rows = sum(1 for m in range(1, 1 << n) if is_interval_row(m, n, False))
        for k in range(K + 1):
            out[(n, k)] = comb(rows, k)
    return out
