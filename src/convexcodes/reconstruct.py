"""Reconstruction of sensor matrices from codeword sets and multisets.

Four problems are solved here: set / multiset inputs crossed with the
sparse and dense-linear regimes.  Sparse reconstruction is a thin layer
over the ordering module.  Dense-linear reconstruction extends a CO
ordering to an HCO multiordering by inserting the positionwise AND
between every adjacent inharmonious pair.  The circular dense problem is
open and deliberately unimplemented; asking for it yields Unsupported.

The module also produces rejection certificates for the sparse line
case: an explicit odd cycle in the incompatibility graph, checkable
without trusting the recognizer.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

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
    verify_matrix,
)
from .ordering import cco_order, co_order


@dataclass(frozen=True)
class Infeasible:
    """No object of the requested kind exists."""

    reason: str = ""


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
        present = set(self.columns)
        missing = [w for w in self.support.words if w not in present]
        if missing:
            raise ValueError("support word absent from columns")
        for c in self.columns:
            if c.n != self.support.k and self.support.words:
                raise ValueError("column length differs from support length")

    def matrix(self, geometry: Geometry = Geometry.LINE) -> SensorMatrix:
        return SensorMatrix.from_columns(self.columns, geometry)


Vertex = tuple[BitVector, BitVector]


@dataclass(frozen=True)
class Bipartition:
    """A proper 2-coloring of the incompatibility graph."""

    coloring: Mapping[Vertex, int]


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
        m = len(self.odd_cycle)
        if m < 3 or m % 2 == 0:
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


def _incompatibility_edges(words: list[BitVector]):
    """Edges of I(words) with, for type-2 edges, a witness row.

    Yields (u, v, row) where row is None for a type-1 edge.
    """
    for a in words:
        for b in words:
            if a is b:
                continue
            yield (a, b), (b, a), None
    for a in words:
        for b in words:
            if b is a:
                continue
            for c in words:
                if c is a or c is b:
                    continue
                hit = a.mask & c.mask & ~b.mask
                if hit:
                    row = (hit & -hit).bit_length() - 1
                    yield (a, b), (b, c), row


def rejection_certificate(words: Code):
    """2-color the incompatibility graph, or exhibit an odd cycle.

    A Bipartition certifies sparse-line feasibility; a
    RejectionCertificate refutes it and verifies independently of the
    recognizer (Theorem: a matrix has a CO column ordering iff its
    incompatibility graph is bipartite).
    """
    ws = words.sorted_words()
    adj: dict[Vertex, list[tuple[Vertex, Optional[int]]]] = {}
    for a in ws:
        for b in ws:
            if a is not b:
                adj[(a, b)] = []
    for u, v, row in _incompatibility_edges(ws):
        adj[u].append((v, row))
        adj[v].append((u, row))

    color: dict[Vertex, int] = {}
    parent: dict[Vertex, Optional[tuple[Vertex, Optional[int]]]] = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, row in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = (u, row)
                    queue.append(v)
                elif color[v] == color[u]:
                    return _extract_odd_cycle(u, v, row, parent)
    return Bipartition(dict(color))


def _extract_odd_cycle(u: Vertex, v: Vertex, row, parent) -> RejectionCertificate:
    # walk both endpoints of the conflicting edge up to their lowest
    # common ancestor in the BFS forest; the two paths plus the edge
    # close an odd cycle
    def path(x):
        out = [(x, None)]
        while parent[x] is not None:
            p, r = parent[x]
            out.append((p, r))
            x = p
        return out

    pu, pv = path(u), path(v)
    seen = {x for x, _ in pu}
    i = next(i for i, (x, _) in enumerate(pv) if x in seen)
    lca = pv[i][0]
    j = next(j for j, (x, _) in enumerate(pu) if x == lca)

    # cycle: u .. lca (upward), then lca .. v (downward), closed by (v,u);
    # the witness index i refers to the edge {vertices[i], vertices[i+1]}
    vertices: list[Vertex] = []
    witnesses: dict[int, int] = {}
    for idx in range(j):
        vertices.append(pu[idx][0])
        r = parent[pu[idx][0]][1] if parent[pu[idx][0]] else None
        if r is not None:
            witnesses[len(vertices) - 1] = r
    vertices.append(lca)
    down = [pv[idx][0] for idx in range(i)]
    for x in reversed(down):
        r = parent[x][1] if parent[x] else None
        if r is not None:
            witnesses[len(vertices) - 1] = r
        vertices.append(x)
    if row is not None:
        witnesses[len(vertices) - 1] = row
    cert = RejectionCertificate(tuple(vertices), witnesses)
    ensure(cert.verify(), "extracted cycle failed self-verification")
    return cert


def reconstruct_sparse(words: Code, geometry: Geometry):
    """A sparse matrix whose column set equals words, or Infeasible."""
    order_fn = co_order if geometry is Geometry.LINE else cco_order
    result = order_fn(words)
    if not result.feasible:
        return Infeasible("no %s column ordering exists"
                          % ("CO" if geometry is Geometry.LINE else "CCO"))
    # the ordering's regime signature was checked where it was produced
    m = SensorMatrix.from_columns(result.ordering, geometry)
    ensure(m.column_set() == words, "ordering has the wrong column set")
    return m


def _prune_surplus(cols: list[BitVector], target: Mapping[BitVector, int]) -> None:
    """Remove copies above target whenever removal keeps every adjacent
    pair harmonious, until no such copy remains."""
    counts: dict[BitVector, int] = {}
    for c in cols:
        counts[c] = counts.get(c, 0) + 1
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(cols):
            if counts[c] <= target.get(c, 1):
                continue
            left = cols[i - 1] if i > 0 else None
            right = cols[i + 1] if i + 1 < len(cols) else None
            if left is not None and right is not None and inharmonious(left, right):
                continue
            del cols[i]
            counts[c] -= 1
            changed = True
            break


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
        return Infeasible("no CO column ordering exists")
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
    m = SensorMatrix.from_columns(cols, geometry)
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
    verify_matrix(SensorMatrix.from_columns(out, Geometry.LINE), HCO, ms)
    return Multiordering(tuple(out), ms.support)
