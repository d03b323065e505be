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
infeasible one gets a RejectionCertificate, also the evidence of every
CO refusal on the line, dense included: an odd cycle in the
incompatibility graph, written down from a Tucker core, which the
recognizer's own row constraints pick out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .core import (
    CO,
    CCO,
    HCO,
    BitVector,
    Code,
    CodeMultiset,
    Geometry,
    Regime,
    SensorMatrix,
    _set_positions,
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
    (OrderingResult.failed_row), and the reason names it.  evidence is
    the odd cycle of a CO refusal, sparse or dense, searched for from
    failed_row when first read; None for any other refusal.  Equality
    and hash see the reason alone."""

    reason: str = ""
    failed_row: Optional[int] = field(default=None, compare=False)
    _words: Optional[Code] = field(default=None, repr=False, compare=False)

    @cached_property
    def evidence(self) -> Optional[RejectionCertificate]:
        if self._words is None:
            return None
        return _odd_cycle(*_infeasible_core(self._words.sorted_words(),
                                            self.failed_row))


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
        """The line matrix of the columns, built once."""
        return self._matrix

    @cached_property
    def _matrix(self) -> SensorMatrix:
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
    """An odd closed walk in the incompatibility graph, which holds an
    odd cycle; a vertex may recur, and verify checks each edge alone.

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
        # witnesses map edge indices 0..m-1 to int rows; a bool is neither
        if not all(type(i) is int and 0 <= i < m and type(r) is int
                   for i, r in self.witnesses.items()):
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


def rejection_certificate(words: Code):
    """Certify sparse-line feasibility by an ordering, or refute it by an
    odd cycle of the incompatibility graph.

    A Bipartition, the CO ordering, certifies sparse-line feasibility; a
    RejectionCertificate refutes it.  Both verify independently of the
    recognizer (Theorem: a matrix has a CO column ordering iff its
    incompatibility graph is bipartite).

    The recognizer does the heavy work, and recognizes the whole code
    once: this is reconstruct_sparse on the line.  A feasible code is
    certified by the column order of its matrix.  An infeasible one by
    its refusal's evidence: the words are shrunk to a Tucker core,
    starting from the row whose reduction failed: r row passes for r
    core rows, each over the earlier rows nearest that row, at most the
    ones of its component, then at most 4r row passes over the core
    rows, each cut down to the words still kept.  The odd cycle is then
    written down from the core in O(ones), with no search of the graph.
    """
    result = reconstruct_sparse(words, Geometry.LINE)
    if isinstance(result, Infeasible):
        return result.evidence
    return Bipartition(result.columns)


def _infeasible_core(ws: list[BitVector], failed: int
                     ) -> tuple[list[BitVector], int]:
    """A Tucker core of the CO-infeasible words ws, given the first row
    whose reduction fails: a subset of them, in their order, and the
    mask of the rows on which it is CO-infeasible and minimal in words
    and in rows.

    The r rows of _core_rows are minimal for all the words, so for
    every subset still infeasible on them.  One word per nonzero
    pattern on those rows, at most 4r, is infeasible there; a deletion
    filter, last word first, drops each word whose removal leaves the
    rest infeasible: one row pass over the core rows, cut down to the
    others.  Minimal both ways, the kept words on the core rows are one
    of Tucker's five kinds, up to the order of rows and words.
    """
    core = _core_rows(ws, failed)
    on_core = sum(1 << i for i in core)
    firsts: dict[int, BitVector] = {}
    for w in ws:
        firsts.setdefault(w.mask & on_core, w)
    firsts.pop(0, None)
    words = list(firsts.values())
    rows = [row for i, row in enumerate(_row_constraints(words))
            if on_core >> i & 1]
    kept = set(range(len(words)))
    for j in reversed(range(len(words))):
        others = kept - {j}
        if _first_failure_touched([[i for i in row if i in others]
                                   for row in rows]) is not None:
            kept = others
    return [words[j] for j in sorted(kept)], on_core


def _core_rows(ws: list[BitVector], failed: int) -> list[int]:
    """A minimal set of rows on which the words ws are CO-infeasible.

    failed is the first row whose reduction fails when the rows are
    reduced in order.  CO holds iff it holds on each component of the
    rows joined by shared words, so only the rows before failed that
    _nearest_rows reaches can be needed.  Row filter on those
    candidates: reduce the core rows, then the candidates, nearest the
    last failure first, until one fails; it joins the core and the
    candidates after it go, until the core rows fail alone.  Each pass
    reduces on a tree over only the words its rows touch, and stops
    within the ball around the last failure that holds the core.  Every
    pass finds a failure: the first reduces the component of the rows
    up to failed, on which the recognizer failed, and every later pass
    the rows the pass before failed on.
    """
    rows = list(_row_constraints(ws))
    ensure(failed < len(rows) and len(rows[failed]) > 1,
           "recognizer rejected the words at a row of fewer than two words")
    core = [failed]
    candidates = _nearest_rows(rows, failed)
    while True:
        at = _first_failure_touched([rows[i] for i in core]
                                    + [rows[i] for i in candidates])
        ensure(at is not None,
               "recognizer contradicted itself in the core search")
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


def _odd_cycle(ws: list[BitVector], rows: int) -> RejectionCertificate:
    """An odd cycle of the incompatibility graph of the Tucker core ws
    on the rows of the mask rows, written down from its three words with
    the fewest of those rows.

    In each of Tucker's kinds they are one: any two of them, s and t,
    are joined by a path of words s = z0, z1, ..., zm = t, each two
    consecutive ones sharing a row rj that the third, p, does not hold.
    That path is the walk (s,p) (p,z1) (z1,p) ... (p,t) of 2m - 1 edges,
    rj the witness into (p,zj).  The paths from x to y around q, from q
    to x around y and from y to q around x close an odd cycle.  Each is
    a shortest path, found breadth-first over the rows: O(ones) in all.
    """
    bipartite = ("recognizer rejected a code whose core has a bipartite "
                 "incompatibility graph")
    ensure(len(ws) >= 3, bipartite)
    holders = _set_positions((w.mask & rows for w in ws), rows.bit_length())
    x, y, q = sorted(range(len(ws)),
                     key=lambda j: (ws[j].mask & rows).bit_count())[:3]
    vertices: list[Vertex] = []
    witnesses: dict[int, int] = {}
    for s, t, p in ((x, y, q), (q, x, y), (y, q, x)):
        towards = _paths_to(t, ws, holders, rows & ~ws[p].mask)
        ensure(s in towards, bipartite)
        z = s
        while z != t:
            if z != s:
                vertices.append((ws[p], ws[z]))
            witnesses[len(vertices)] = towards[z][1]
            vertices.append((ws[z], ws[p]))
            z = towards[z][0]
    cert = RejectionCertificate(tuple(vertices), witnesses)
    ensure(cert.verify(), "extracted cycle failed self-verification")
    return cert


def _paths_to(t: int, ws: list[BitVector], holders: list[list[int]],
              free: int) -> dict[int, tuple[int, int]]:
    """For each word reached from word t through rows of the mask free
    (holders lists each row's words), the next word on a shortest path
    to t and the row they share: one breadth-first walk that expands
    each row and word once."""
    towards = {t: (t, -1)}
    reached = [t]
    for z in reached:  # appended to while walked: breadth-first
        hit = ws[z].mask & free
        free ^= hit
        while hit:
            r = (hit & -hit).bit_length() - 1
            hit &= hit - 1
            for u in holders[r]:
                if u not in towards:
                    towards[u] = (z, r)
                    reached.append(u)
    return towards


def _no_ordering(words: Code, regime: Regime,
                 result: OrderingResult) -> Infeasible:
    """The refusal of the words' recognition in regime, at a row that must
    be one of theirs; a CO refusal keeps the words for its evidence."""
    row = result.failed_row
    ensure(type(row) is int and 0 <= row < words.k,
           "recognizer rejected the words at no row")
    return Infeasible("no %s column ordering exists: row %d fails"
                      % (regime.name, row), row,
                      words if regime == CO else None)


def reconstruct_sparse(words: Code, geometry: Geometry):
    """A sparse matrix whose column set equals words, or Infeasible."""
    regime = CO if geometry is Geometry.LINE else CCO
    result = (co_order if regime == CO else cco_order)(words)
    if not result.feasible:
        return _no_ordering(words, regime, result)
    # the ordering checked its matrix's signature and columns
    return result.matrix


def _meet_inserted(words: Code):
    """The columns of reconstruct_dense_linear as a list, or Infeasible:
    both dense-line reconstructions start from it."""
    result = co_order(words)
    if not result.feasible:
        return _no_ordering(words, CO, result)
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
    ensure(len(cols) <= max(2 * len(words) - 1, 0),
           "dense multiordering exceeds 2|words| - 1 columns")
    return cols


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
    cols = _meet_inserted(words)
    if isinstance(cols, Infeasible):
        return cols
    mo = Multiordering(tuple(cols), words)
    verify_matrix(mo.matrix(), HCO, words)
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


def _exact(cols: list[BitVector], entries: Mapping[BitVector, int]):
    """The dense columns cols with exactly the multiplicities entries,
    or Infeasible, in one left-to-right pass with a stack: the top copy
    is dropped, leftmost first, while it is surplus and its neighbours,
    the one below it and the next column, are harmonious.  A column at
    or under its count is never dropped, so a short one's missing copies
    go in next to its first.  A copy kept above its count is needed by
    every HCO matrix with this support, so a surplus is Infeasible."""
    copies = Counter(cols)
    short = {c: entries[c] - n for c, n in copies.items() if n < entries[c]}
    kept: list[BitVector] = []
    for right in [*cols, None]:
        while kept and copies[kept[-1]] > entries[kept[-1]] and (
                right is None or len(kept) == 1
                or not inharmonious(kept[-2], right)):
            copies[kept.pop()] -= 1
        if right is not None:
            kept.extend([right] * (short.pop(right, 0) + 1))
    surplus = [c for c, n in copies.items() if n > entries[c]]
    if surplus:
        worst = min(surplus, key=BitVector.to_string)
        return Infeasible("every HCO matrix with this support needs %d "
                          "copies of %s" % (copies[worst], worst.to_string()))
    return kept


def reconstruct_multiset_dense_linear(ms: CodeMultiset):
    """An HCO matrix with exactly the requested multiplicities, or
    Infeasible: the support's dense columns laid out by _exact."""
    support = ms.support
    cols = _meet_inserted(support)
    if not isinstance(cols, Infeasible):
        cols = _exact(cols, ms.entries)
    if isinstance(cols, Infeasible):
        return cols
    mo = Multiordering(tuple(cols), support)
    verify_matrix(mo.matrix(), HCO, ms)
    return mo
