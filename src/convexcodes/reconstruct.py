"""Reconstruction of sensor matrices from codeword sets and multisets.

Four problems are solved here: set / multiset inputs crossed with the
sparse and dense-linear regimes.  Sparse reconstruction is a thin layer
over the ordering module.  Dense-linear reconstruction extends a CO
ordering to an HCO multiordering by inserting the positionwise AND
between every adjacent inharmonious pair.  The circular dense problem is
open and deliberately unimplemented; asking for it yields Unsupported.

The module also certifies the sparse line case both ways, and each
certificate is checkable without trusting the recognizer.  A feasible
code gets a Bipartition: the recognizer's CO ordering as is, whose line
matrix has every row consecutive, with no 2-coloring attached.  An
infeasible one gets a RejectionCertificate: an odd cycle in the
incompatibility graph of a minimal core, which the recognizer's own row
constraints pick out.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import (
    CO,
    CCO,
    HCO,
    BitVector,
    Code,
    CodeMultiset,
    Geometry,
    SensorMatrix,
    ensure,
    inharmonious,
    regime_check,
    verify_matrix,
)
from .ordering import (OrderingResult, _first_failure_touched,
                       _row_constraints, cco_order, co_order)


@dataclass(frozen=True)
class Infeasible:
    """No object of the requested kind exists.  failed_row, when a
    recognition refused the words (sparse, or the dense line's CO
    ordering), is the index of the row whose reduction failed
    (OrderingResult.failed_row), and the reason names it; equality
    ignores it."""

    reason: str = ""
    failed_row: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Unsupported:
    """The problem is well posed but outside what this library solves."""

    reason: str = ""


@dataclass(frozen=True)
class Multiordering:
    """A column sequence in which every support word appears at least once."""

    columns: tuple[BitVector, ...]
    support: Code

    def __post_init__(self):
        if set(self.columns) != self.support.words:
            raise ValueError("columns are not exactly the support words")
        if any(c.n != self.support.k for c in self.columns):
            raise ValueError("column length differs from support length")

    def matrix(self) -> SensorMatrix:
        return SensorMatrix.from_columns(self.columns, Geometry.LINE,
                                         k=self.support.k)


Vertex = tuple[BitVector, BitVector]


@dataclass(frozen=True)
class Bipartition:
    """A CO ordering of the words, the certificate of their sparse-line
    feasibility.  The proper 2-coloring of the incompatibility graph it
    stands for, (a, b) -> int(pos[a] > pos[b]) for the positions pos of
    the words in the ordering, is not stored."""

    ordering: tuple[BitVector, ...]

    def verify(self, words: Code) -> bool:
        """True iff the ordering lists each word of words once and every
        row of its line matrix is consecutive: O(ones), no PQ-tree.
        False, never an exception, on malformed evidence."""
        cols = self.ordering
        if not (isinstance(cols, Sequence)
                and all(isinstance(w, BitVector) for w in cols)):
            return False
        if len(cols) != len(words) or set(cols) != words.words:
            return False
        return regime_check(
            SensorMatrix.from_columns(cols, Geometry.LINE, k=words.k), CO)


@dataclass(frozen=True)
class RejectionCertificate:
    """An odd closed walk in the incompatibility graph.

    odd_cycle lists the vertices (ordered column pairs) in cyclic order;
    consecutive vertices, wrapping around, are joined by graph edges.
    witnesses maps the index i of each type-2 edge
    {odd_cycle[i], odd_cycle[i+1]} to a row index r such that the outer
    columns hold 1 in row r while the shared middle column holds 0.
    Type-1 edges (reversal pairs) carry no witness.
    """

    odd_cycle: tuple[Vertex, ...]
    witnesses: Mapping[int, int] = field(default_factory=dict)

    def verify(self) -> bool:
        """True iff the walk is an odd cycle of the graph; False, never
        an exception, on malformed evidence."""
        if not (isinstance(self.odd_cycle, Sequence)
                and isinstance(self.witnesses, Mapping)):
            return False
        m = len(self.odd_cycle)
        if m < 3 or m % 2 == 0:
            return False
        # a vertex pairs two distinct BitVectors of one length; (a, a) is
        # no vertex, though the reversal rule would join it to itself
        if not all(isinstance(u, tuple) and len(u) == 2
                   and all(isinstance(x, BitVector) for x in u)
                   and u[0] != u[1] and u[0].n == u[1].n
                   for u in self.odd_cycle):
            return False
        if not all(isinstance(r, int) for r in self.witnesses.values()):
            return False
        for i in range(m):
            u = self.odd_cycle[i]
            v = self.odd_cycle[(i + 1) % m]
            if v == (u[1], u[0]):
                if i in self.witnesses and not _valid_type2(u, v, self.witnesses[i]):
                    return False
                continue
            if i not in self.witnesses or not _valid_type2(u, v, self.witnesses[i]):
                return False
        return True


def _valid_type2(u: Vertex, v: Vertex, row: int) -> bool:
    # orient the undirected edge {(a,b),(b,c)} around its shared column b
    if u[1] == v[0]:
        a, b, c = u[0], u[1], v[1]
    elif v[1] == u[0]:
        a, b, c = v[0], v[1], u[1]
    else:
        return False
    if not 0 <= row < a.n:
        return False
    return a.bit(row) == 1 and c.bit(row) == 1 and b.bit(row) == 0


def rejection_certificate(words: Code, *, failed_row: Optional[int] = None):
    """Certify sparse-line feasibility by an ordering, or refute it by an
    odd cycle of the incompatibility graph.

    A Bipartition, the CO ordering, certifies sparse-line feasibility; a
    RejectionCertificate refutes it.  Both verify independently of the
    recognizer (Theorem: a matrix has a CO column ordering iff its
    incompatibility graph is bipartite).

    The recognizer does the heavy work, and recognizes the whole code
    once.  A feasible code is certified by co_order's ordering as is,
    the column order of the matrix a sparse line reconstruction gives.
    An infeasible code is shrunk to a minimal infeasible core, starting
    from the row whose reduction failed: r row passes for r core rows,
    each over the earlier rows nearest that row, at most the ones of
    its component, then at most 4r row passes over the rows of the at
    most 4r words kept, each cut down to the words still kept.  Only
    the core's graph is searched for an odd cycle, and it is walked,
    not built: O(c) mask tests per vertex reached for c core words.

    failed_row, the Infeasible.failed_row of a line reconstruction of
    the same words (sparse, or dense refused by its CO ordering), skips
    their recognition, so the certificate makes none at all; the core
    search and the cycle keep their self-checks.  A failed_row that is
    no int in range(words.k), or one at which the words do not fail,
    raises ValueError.
    """
    given = failed_row is not None
    if not given:
        result = co_order(words)
        if result.feasible:
            return Bipartition(result.ordering)
        failed_row = result.failed_row
        ensure(failed_row is not None,
               "recognizer rejected the words at no row")
    elif not (isinstance(failed_row, int) and 0 <= failed_row < words.k):
        raise ValueError("failed_row %r is not a row of %d-bit words"
                         % (failed_row, words.k))
    core = _infeasible_core(words.sorted_words(), failed_row)
    if core is None:
        # the search could not start at failed_row: a library bug if the
        # recognizer named the row, else the caller's mistake
        ensure(given, "recognizer contradicted itself in the core search")
        raise ValueError("the words do not fail at row %d" % failed_row)
    cert = _odd_cycle(core)
    ensure(cert is not None,
           "recognizer rejected a code whose core has a bipartite "
           "incompatibility graph")
    return cert


def _infeasible_core(ws: list[BitVector],
                     failed: int) -> Optional[list[BitVector]]:
    """A minimal CO-infeasible subset of the CO-infeasible words ws, in
    their order, given the first row whose reduction fails; None if the
    words do not fail at that row (_core_rows).

    One word per nonzero pattern on the r core rows of _core_rows, at
    most 4r, is infeasible too; a deletion filter, last word first,
    drops each word whose removal leaves the rest infeasible: one row
    pass over the kept words' rows, cut down to the others.
    """
    core = _core_rows(ws, failed)
    if core is None:
        return None
    on_core = sum(1 << i for i in core)
    firsts: dict[int, BitVector] = {}
    for w in ws:
        firsts.setdefault(w.mask & on_core, w)
    firsts.pop(0, None)
    words = list(firsts.values())
    rows = [row for row in _row_constraints(words) if len(row) > 1]
    kept = set(range(len(words)))
    for j in reversed(range(len(words))):
        others = kept - {j}
        if _first_failure_touched([[i for i in row if i in others]
                                   for row in rows]) is not None:
            kept = others
    return [words[j] for j in sorted(kept)]


def _core_rows(ws: list[BitVector], failed: int) -> Optional[list[int]]:
    """A minimal set of rows on which the words ws are CO-infeasible, or
    None if they do not fail at row failed.

    failed is the first row whose reduction fails when the rows are
    reduced in order.  CO holds iff it holds on each component of the
    rows joined by shared words, so only the rows before failed that
    _nearest_rows reaches can be needed.  Row filter on those
    candidates: reduce the core rows, then the candidates, nearest the
    last failure first, until one fails; it joins the core and the
    candidates after it go, until the core rows fail alone.  Each pass
    reduces on a tree over only the words its rows touch, and stops
    within the ball around the last failure that holds the core.  Only
    the first pass, seeded with failed, can find no failure: every
    later pass reduces the rows the pass before failed on.
    """
    rows = list(_row_constraints(ws))
    if failed >= len(rows) or len(rows[failed]) < 2:
        return None  # no reduction of fewer than two words fails
    core = [failed]
    candidates = _nearest_rows(rows, failed)
    while True:
        at = _first_failure_touched([rows[i] for i in core]
                                    + [rows[i] for i in candidates])
        if at is None:
            ensure(len(core) == 1,
                   "recognizer contradicted itself in the core search")
            return None
        if at < len(core):
            return core
        at -= len(core)
        core.append(candidates[at])
        candidates = candidates[:at][::-1]


def _nearest_rows(rows: list[list[int]], failed: int) -> list[int]:
    """The rows before failed, of two words or more, that reach row
    failed through shared words, nearest first: one breadth-first walk
    that expands each word once."""
    holders: dict[int, list[int]] = {}
    for i in range(failed):
        if len(rows[i]) > 1:
            for w in rows[i]:
                holders.setdefault(w, []).append(i)
    reached, seen = [failed], {failed}
    for i in reached:  # appended to while walked: breadth-first
        for w in rows[i]:
            for j in holders.pop(w, ()):
                if j not in seen:
                    seen.add(j)
                    reached.append(j)
    return reached[1:]


def _neighbours(u: Vertex, ws: list[BitVector]):
    """The neighbours of u = (a, b) in the incompatibility graph of the
    words ws, each with its witness row (None for the reversal), in the
    order of the triples of ws that join them: (b, a); (x, a) for x
    before a, when a row holds x and b but not a; (b, c) for every c,
    when a row holds a and c but not b; then (x, a) for x after a.  The
    witness is the least such row; O(c) mask tests for c words."""
    a, b = u
    yield (b, a), None
    into, out = b.mask & ~a.mask, a.mask & ~b.mask
    for x in ws:
        if x is a:
            for c in ws:
                hit = c.mask & out
                if hit and c is not a:
                    yield (b, c), (hit & -hit).bit_length() - 1
        else:
            hit = x.mask & into
            if hit and x is not b:
                yield (x, a), (hit & -hit).bit_length() - 1


def _odd_cycle(ws: list[BitVector]) -> Optional[RejectionCertificate]:
    """An odd cycle of the incompatibility graph of ws by breadth-first
    search, or None if the graph is bipartite.  A vertex's color is the
    parity of its BFS depth.  The graph is walked, never built: each
    vertex lists its neighbours when the search reaches it."""
    depth: dict[Vertex, int] = {}
    parent: dict[Vertex, tuple[Vertex, Optional[int]]] = {}
    for start in ((a, b) for a in ws for b in ws if a is not b):
        if start in depth:
            continue
        depth[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, row in _neighbours(u, ws):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = (u, row)
                    queue.append(v)
                elif (depth[v] - depth[u]) % 2 == 0:
                    return _cycle_through(u, v, row, depth, parent)
    return None


def _cycle_through(u: Vertex, v: Vertex, row, depth, parent) -> RejectionCertificate:
    # climb the deeper end of the same-parity edge (u, v) until the ends
    # meet; the two tree paths and the edge close an odd cycle, whose
    # edge i, vertices[i] to vertices[i + 1], has row rows[i] (or None)
    left, right = [u], [v]
    left_rows, right_rows = [], []
    while left[-1] != right[-1]:
        path, rows = ((left, left_rows) if depth[left[-1]] >= depth[right[-1]]
                      else (right, right_rows))
        up, r = parent[path[-1]]
        path.append(up)
        rows.append(r)
    vertices = left + right[-2::-1]
    rows = left_rows + right_rows[::-1] + [row]
    cert = RejectionCertificate(
        tuple(vertices), {i: r for i, r in enumerate(rows) if r is not None})
    ensure(cert.verify(), "extracted cycle failed self-verification")
    return cert


def _no_ordering(name: str, result: OrderingResult) -> Infeasible:
    """The refusal of a recognition whose reduction failed at a row."""
    return Infeasible("no %s column ordering exists: row %d fails"
                      % (name, result.failed_row), result.failed_row)


def reconstruct_sparse(words: Code, geometry: Geometry):
    """A sparse matrix whose column set equals words, or Infeasible."""
    order_fn = co_order if geometry is Geometry.LINE else cco_order
    result = order_fn(words)
    if not result.feasible:
        return _no_ordering("CO" if geometry is Geometry.LINE else "CCO",
                            result)
    # the ordering checked its matrix's signature and columns
    return result.matrix


def _prune_surplus(cols: list[BitVector], target: Mapping[BitVector, int]) -> None:
    """Remove copies above target whenever removal keeps every adjacent
    pair harmonious, until no such copy remains: always the leftmost
    removable copy first, in one pass."""
    counts: dict[BitVector, int] = {}
    for c in cols:
        counts[c] = counts.get(c, 0) + 1
    i = 0
    while i < len(cols):
        c = cols[i]
        left = cols[i - 1] if i > 0 else None
        right = cols[i + 1] if i + 1 < len(cols) else None
        if counts[c] <= target.get(c, 1) or (
                left is not None and right is not None
                and inharmonious(left, right)):
            i += 1
        else:
            # positions before i - 1 keep their neighbours, and counts only
            # fall, so none of them became removable
            del cols[i]
            counts[c] -= 1
            i = max(i - 1, 0)


def reconstruct_dense_linear(words: Code):
    """An HCO multiordering of words, or Infeasible.

    Extends the canonical CO ordering: between every adjacent
    inharmonious pair (x, y) the positionwise product x AND y is
    inserted.  The product is harmonious with both neighbors; if it is
    not itself a codeword the code admits no HCO multiordering at all.
    The output is not length-minimized beyond the 2|words| - 1 bound;
    reconstruct_multiset_dense_linear trims surplus copies when exact
    multiplicities are requested.
    """
    result = co_order(words)
    if not result.feasible:
        return _no_ordering("CO", result)
    cols: list[BitVector] = []
    for w in result.ordering:
        if cols and inharmonious(cols[-1], w):
            glue = cols[-1] & w
            if glue not in words:
                return Infeasible(
                    "product %s of adjacent inharmonious columns is not a codeword"
                    % glue.to_string()
                )
            cols.append(glue)
        cols.append(w)
    mo = Multiordering(tuple(cols), words)
    verify_matrix(mo.matrix(), HCO, words)
    ensure(len(cols) <= max(2 * len(words) - 1, 0),
           "dense multiordering exceeds 2|words| - 1 columns")
    return mo


def reconstruct_dense_circular(words: Code):
    """Circular dense reconstruction is an open problem."""
    return Unsupported("no reconstruction algorithm is known for the "
                       "circular sensor-dense regime")


def reconstruct_multiset_sparse(ms: CodeMultiset, geometry: Geometry):
    """A sparse matrix with exactly the requested column multiplicities.

    Feasibility coincides with feasibility of the support: duplicating a
    column next to itself preserves CO and CCO.
    """
    base = reconstruct_sparse(ms.support, geometry)
    if isinstance(base, Infeasible):
        return base
    cols: list[BitVector] = []
    for c in base.columns:
        cols.extend([c] * ms.entries[c])
    m = SensorMatrix.from_columns(cols, geometry, k=ms.k)
    verify_matrix(m, CO if geometry is Geometry.LINE else CCO, ms)
    return m


def reconstruct_multiset_dense_linear(ms: CodeMultiset):
    """An HCO matrix with exactly the requested multiplicities, or Infeasible.

    Starts from a dense multiordering of the support, removes surplus
    copies whose removal keeps all adjacent pairs harmonious, and then
    duplicates columns adjacent to themselves to meet any remaining
    demand.  A copy that survives the removal phase is structurally
    required: every HCO matrix with this support uses at least that many
    copies, so a shortfall is a genuine Infeasible.
    """
    base = reconstruct_dense_linear(ms.support)
    if isinstance(base, Infeasible):
        return base
    cols = list(base.columns)
    _prune_surplus(cols, ms.entries)
    counts = Counter(cols)

    over = {c: counts[c] - ms.entries[c] for c in counts if counts[c] > ms.entries[c]}
    if over:
        worst = min(over, key=BitVector.to_string)
        return Infeasible(
            "every HCO matrix with this support needs %d copies of %s"
            % (counts[worst], worst.to_string())
        )

    deficit = {c: ms.entries[c] - counts[c] for c in counts}
    out: list[BitVector] = []
    for c in cols:
        out.append(c)
        if deficit[c] > 0:
            out.extend([c] * deficit[c])
            deficit[c] = 0
    verify_matrix(SensorMatrix.from_columns(out, Geometry.LINE, k=ms.k),
                  HCO, ms)
    return Multiordering(tuple(out), ms.support)
