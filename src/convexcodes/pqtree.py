"""PQ-tree with Booth-Lueker style template reduction.

The tree represents the set of column orderings in which every reduced
constraint (a set of leaves) appears consecutively.  P nodes permute their
children freely; Q nodes fix the child sequence up to reversal.

Implementation notes, chosen so a reduction touches only the pertinent
subtree (over a sequence of reductions, O(n + sum of |S|) nodes in total,
as in Booth & Lueker 1976) and no code path recurses, so tree depth is
bounded by memory, not by the interpreter stack:

- A reduction keeps its state on the nodes it touches, as Booth & Lueker
  keep their marks and pertinent counts: each node has a list of its
  full children (`fulls`), a count of the pertinent leaves below it
  (`pcount`), a list of its partial children (`partials`) and a count of
  those not yet labeled (`waiting`), None, 0, None and 0 between
  reductions.  The reduction records every node it gives any of them in
  one list and resets all four on every exit, the no-op, a refused label
  and a failed reduction included.
- A reduction runs in two passes over a leaf layer.  One loop over the
  labels groups the pertinent leaves in their parents' `fulls`; a group
  counts as its size in full leaves, so no leaf enters either pass.
  Full subtrees are then found by count: a node whose `pcount` reaches
  its leaf count is full and joins its parent's group as one full child,
  so only partial nodes enter the passes.  The bubble pass climbs from
  the partial group parents in FIFO order, visiting each node once, until
  all paths meet (a lone group is already met).  The labeling pass then
  works bottom-up from them, labeling a node once all its partial
  children are labeled and applying the P/Q templates, and stops at the
  first node that holds every pertinent leaf: the pertinent root.
- Q children sit in an orientation-agnostic doubly linked list: each child
  stores its two neighbors in unordered slots, so reversing a Q node is an
  O(1) head/tail swap.
- Parent pointers go through union-find cells.  Splicing all children of a
  Q node into another Q node redirects one cell instead of re-parenting
  each child.  Only P and Q nodes have an anchor cell for their children
  to point at; a leaf has none, so a tree over n leaves makes one cell
  per internal node.
- Q chains are edited through two primitives: `_q_attach` links one
  detached node at either end of a chain, and `_dissolve` hands a Q
  node's whole chain to another node through its anchor cell.
- The templates rewrite nodes in place; no node takes another's place in
  its parent, so the root never changes.  A partial P node becomes the Q
  node itself, taking over its partial child's chain through one cell,
  and its empty children move as one block to a new P node that takes
  over its child set and cell.
- P children are an unordered set; empty children are never enumerated
  during a reduction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import InternalError, ensure

LEAF, PNODE, QNODE = 0, 1, 2

FULL, PARTIAL = 0, 1

_OPENERS, _CLOSERS = ("{", "["), ("}", "]")


def render(tokens: Iterable, name: Callable) -> str:
    """Canonical tokens as one line: each bracket as is, name(tok) at any
    other token (a leaf), and a space between siblings."""
    out: list[str] = []
    for tok in tokens:
        text = tok if type(tok) is str else name(tok)
        if out and out[-1] not in _OPENERS and text not in _CLOSERS:
            out.append(" ")
        out.append(text)
    return "".join(out)


class ReductionFailed(Exception):
    """No ordering satisfies the constraints reduced so far."""


class _Cell:
    __slots__ = ("owner", "link")

    def __init__(self, owner: Optional["_Node"]):
        self.owner = owner
        self.link: Optional[_Cell] = None


def _find(cell: _Cell) -> _Cell:
    root = cell
    while root.link is not None:
        root = root.link
    while cell.link is not None:
        cell.link, cell = root, cell.link
    return root


class _Node:
    __slots__ = ("kind", "label", "up", "anchor", "nleaves",
                 "pchildren", "head", "tail", "nb1", "nb2", "fulls", "pcount",
                 "partials", "waiting")

    def __init__(self, kind: int, label: int = -1):
        self.kind = kind
        self.label = label                  # leaf column label
        self.up: Optional[_Cell] = None     # resolves to parent (None at root)
        # cell adopted by this node's children; a leaf has none
        self.anchor = None if kind == LEAF else _Cell(self)
        self.nleaves = 1 if kind == LEAF else 0
        self.pchildren: Optional[set] = set() if kind == PNODE else None
        self.head: Optional[_Node] = None   # Q endpoints
        self.tail: Optional[_Node] = None
        self.nb1: Optional[_Node] = None    # unordered Q-sibling slots
        self.nb2: Optional[_Node] = None
        # one reduction's state, at rest between reductions: see the
        # module docstring
        self.fulls: Optional[list[_Node]] = None
        self.pcount = 0
        self.partials: Optional[list[_Node]] = None
        self.waiting = 0

    def parent(self) -> Optional["_Node"]:
        cell = self.up
        if cell is None:
            return None
        if cell.link is not None:
            cell = self.up = _find(cell)
        return cell.owner

    # -- Q-sibling helpers ------------------------------------------------

    def other_nb(self, prev: Optional["_Node"]) -> Optional["_Node"]:
        return self.nb2 if self.nb1 is prev else self.nb1

    def replace_nb(self, old: Optional["_Node"], new: Optional["_Node"]) -> None:
        if self.nb1 is old:
            self.nb1 = new
        elif self.nb2 is old:
            self.nb2 = new
        else:
            raise InternalError("sibling link corrupted")


def _q_children(q: _Node) -> list[_Node]:
    out = []
    prev, node = None, q.head
    while node is not None:
        out.append(node)
        prev, node = node, node.other_nb(prev)
    return out


def _adopt_into_p(p: _Node, child: _Node) -> None:
    p.pchildren.add(child)
    child.up = p.anchor
    child.nb1 = child.nb2 = None


def _new_p(children: Iterable[_Node]) -> _Node:
    p = _Node(PNODE)
    kids, anchor, total = p.pchildren, p.anchor, 0
    for c in children:
        kids.add(c)
        c.up = anchor
        c.nb1 = c.nb2 = None
        total += c.nleaves
    p.nleaves = total
    return p


def _q_attach(q: _Node, child: _Node, at_head: bool) -> None:
    """Attach a detached node at q's head or tail, or as q's only child
    when q has none.  O(1)."""
    end = q.head if at_head else q.tail
    child.nb1, child.nb2 = end, None
    child.up = q.anchor
    q.nleaves += child.nleaves
    if end is not None:
        end.replace_nb(None, child)
    if at_head or end is None:
        q.head = child
    if not at_head or end is None:
        q.tail = child


def _dissolve(q: _Node, into: _Node) -> None:
    """Re-parent all of q's children to `into` through a single
    union-find link.  O(1); q leaves the tree."""
    q.anchor.link = into.anchor
    q.anchor.owner = None


def _q_merge_heads(q1: _Node, q2: _Node) -> None:
    """Concatenate q2's chain onto q1, joining the two heads.  O(1):
    q2's children re-parent to q1 through a single union-find link."""
    h1, h2 = q1.head, q2.head
    h1.replace_nb(None, h2)
    h2.replace_nb(None, h1)
    q1.head, q1.tail = q1.tail, q2.tail
    _dissolve(q2, q1)
    q1.nleaves += q2.nleaves


def _take_chain(node: _Node, q: _Node) -> None:
    """Make node a Q node over q's children, which re-parent to node
    through a single union-find link.  O(1); q leaves the tree."""
    node.kind, node.pchildren = QNODE, None
    node.head, node.tail = q.head, q.tail
    _dissolve(q, node)


def _full_block(p: _Node, fulls: Sequence[_Node]) -> Optional[_Node]:
    """Detach P node p's full children as one block: the child itself
    when there is one, a new P node over them when there are more."""
    p.pchildren.difference_update(fulls)
    if len(fulls) > 1:
        return _new_p(fulls)
    return fulls[0] if fulls else None


def _empty_block(p: _Node, nleaves: int) -> Optional[_Node]:
    """Detach the rest of P node p's children, `nleaves` leaves in all,
    as one block: the child itself when there is one, a new P node when
    there are more.  That node takes over p's child set and anchor cell,
    so the children re-parent in O(1), and p takes its fresh cell."""
    rest = p.pchildren
    if len(rest) <= 1:
        return next(iter(rest), None)
    e = _Node(PNODE)
    e.pchildren, e.nleaves = rest, nleaves
    e.anchor, p.anchor = p.anchor, e.anchor
    e.anchor.owner, p.anchor.owner = e, p
    return e


def _pertinent_run(fulls: Sequence[_Node],
                   partials: list[_Node]) -> list[_Node]:
    """The pertinent children of a Q node in sibling order.  Raises
    ReductionFailed unless they are consecutive, with partial children
    only at the two ends of the run."""
    pert = set(fulls)
    pert.update(partials)
    start = fulls[0] if fulls else partials[0]
    run = [start]
    for first in (start.nb1, start.nb2):
        run.reverse()
        prev, cur = start, first
        while cur in pert:
            run.append(cur)
            prev, cur = cur, cur.nb2 if cur.nb1 is prev else cur.nb1
    if len(run) != len(fulls) + len(partials):
        raise ReductionFailed("Q: pertinent children not consecutive")
    for c in partials:
        if c is not run[0] and c is not run[-1]:
            raise ReductionFailed("Q: partial child inside the pertinent run")
    return run


class PQTree:
    """PQ-tree over leaves labeled 0..n-1."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("a PQ-tree needs n >= 0 leaves, not %d" % n)
        self.n = n
        self.labels = frozenset(range(n))
        self.leaves = [_Node(LEAF, label=i) for i in range(n)]
        if n == 0:
            self.root: Optional[_Node] = None
        elif n == 1:
            self.root = self.leaves[0]
        else:
            self.root = _new_p(self.leaves)

    # -- reduction --------------------------------------------------------

    def reduce(self, labels: Iterable[int]) -> None:
        """Constrain the leaves in `labels` to be consecutive.

        Labels are ints, and repeats reduce as their set, which keeps the
        first of equal labels; a set of fewer than two or of all n leaves
        is not reduced.  Raises ValueError, leaving the tree as it was,
        for a label outside 0..n-1 and, in a set that is reduced, for a
        kept label that only equals an int (1.0, Fraction(1)); raises
        ReductionFailed if no ordering satisfies all constraints reduced
        so far (the tree is unusable afterwards).
        """
        s = set(labels)
        if not s <= self.labels:
            raise ValueError("leaf label out of range for %d leaves" % self.n)
        m = len(s)
        if m <= 1 or m >= self.n:
            return
        # every node given reduction state; every exit puts it at rest
        touched: list[_Node] = []
        try:
            # Leaf layer: group the pertinent leaves by parent, one
            # union-find step each, compressed into the leaf's own pointer.
            leaves = self.leaves
            for lab in s:
                try:
                    leaf = leaves[lab]
                except TypeError:
                    raise ValueError("leaf label %r is not an int"
                                     % (lab,)) from None
                cell = leaf.up
                if cell.link is not None:
                    cell = leaf.up = _find(cell)
                par = cell.owner
                kids = par.fulls
                if kids is None:
                    par.fulls = [leaf]
                    touched.append(par)
                else:
                    kids.append(leaf)
            full = []
            for par in touched:
                c = par.pcount = len(par.fulls)
                if c == par.nleaves:
                    full.append(par)
            # A node whose full children hold all its leaves is full and
            # counts as one full child of its parent, which may fill in
            # turn (a parent that fills needs no group).  A full node
            # holding all m leaves makes the reduction a no-op; the root,
            # with n > m leaves, never fills.
            while full:
                node = full.pop()
                size = node.nleaves
                if size == m:
                    return
                cell = node.up
                if cell.link is not None:
                    cell = node.up = _find(cell)
                par = cell.owner
                c = par.pcount
                if not c:
                    touched.append(par)
                c = par.pcount = c + size
                if c == par.nleaves:
                    full.append(par)
                else:
                    kids = par.fulls
                    if kids is None:
                        par.fulls = [node]
                    else:
                        kids.append(node)
            # The nodes left with full children, and every node above them
            # up to the pertinent root, are partial.  A lone such node holds
            # all m leaves: the bubble pass does not run, and the labeling
            # pass finds it the pertinent root, with no partial child.
            groups = [node for node in touched if node.fulls is not None
                      and node.pcount != node.nleaves]
            # Bubble pass: FIFO from the groups upward, each node visited
            # once, until every path has merged into one.  A node's partial
            # children gather in its `partials`, and `waiting` counts them.
            # The merge node may lie above the pertinent root, but FIFO
            # order pops a node of a still-open path between any two steps
            # above it, so the pass costs O(size of the pertinent subtree).
            for node in groups:
                node.partials = []
            queue = deque(groups) if len(groups) > 1 else ()
            while len(queue) > 1:
                node = queue.popleft()
                par = node.parent()
                if par is None:
                    # the tree root waits until the paths still open reach it
                    queue.append(node)
                    continue
                kids = par.partials
                if kids is None:
                    par.partials = [node]
                    touched.append(par)
                    queue.append(par)
                else:
                    kids.append(node)
                par.waiting += 1
            # Labeling pass, bottom-up: a node is labeled once all its
            # partial children are, and the first one holding all m leaves
            # is the pertinent root.  pcount ends as each labeled node's
            # pertinent leaves.  The templates rewrite a node in place and
            # never move a labeled node within its parent, so parent()
            # still finds the node the bubble pass climbed to.
            ready = [node for node in groups if not node.waiting]
            while ready:
                par = ready.pop()
                partials = par.partials
                pc = par.pcount
                for child in partials:
                    pc += child.pcount
                fulls = par.fulls or ()
                if pc == m:
                    self._reduce_root(par, fulls, partials)
                    return
                self._label(par, fulls, partials)
                par.pcount = pc
                grand = par.parent()
                grand.waiting -= 1
                if not grand.waiting:
                    ready.append(grand)
            raise InternalError("pertinent leaves have no common ancestor")
        finally:
            for node in touched:
                node.fulls = node.partials = None
                node.pcount = node.waiting = 0

    # Labeling of a partial node below the pertinent root whose partial
    # children are labeled; full nodes never get here, the leaf layer
    # counts them.  The node is left a Q node whose children run
    # full-side-first from head, in its own place in its parent.
    def _label(self, node: _Node, fulls: Sequence[_Node],
               partials: list[_Node]) -> int:
        if node.kind == PNODE:
            if len(partials) > 1:
                raise ReductionFailed("P node with >1 partial child")
            fblock = _full_block(node, fulls)
            # the children left are the empty ones: subtract the pertinent
            # children's leaves instead of summing the empty ones
            empty = node.nleaves - (fblock.nleaves if fblock is not None else 0)
            for c in partials:
                node.pchildren.discard(c)
                empty -= c.nleaves
            eblock = _empty_block(node, empty)
            if partials:
                # grow the partial child's own Q in place, full block at its
                # full (head) end, empty block at its empty (tail) end, and
                # turn node into that Q
                q = partials[0]
                if fblock is not None:
                    _q_attach(q, fblock, True)
                if eblock is not None:
                    _q_attach(q, eblock, False)
                _take_chain(node, q)
            else:
                ensure(fblock is not None and eblock is not None,
                       "partial P node without full and empty children")
                node.kind, node.pchildren, node.nleaves = QNODE, None, 0
                _q_attach(node, fblock, True)
                _q_attach(node, eblock, False)
            return PARTIAL
        if node.kind == QNODE:
            run = _pertinent_run(fulls, partials)
            # the run must start at an end of the child list with only its
            # other end partial (a lone partial child is both ends)
            for _ in range(2):
                if (run[0] is node.head or run[0] is node.tail) and (
                        len(run) == 1 or run[0] not in partials):
                    break
                run.reverse()
            else:
                raise ReductionFailed("partial Q: pertinent run not at an end,"
                                      " or empty parts on both sides")
            if run[0] is node.tail:
                node.head, node.tail = node.tail, node.head
            if run[-1] in partials:
                self._splice_into_q(node, run[-1],
                                    full_toward=run[-2] if len(run) > 1 else None)
            return PARTIAL
        raise InternalError("leaf cannot be partial")

    # The pertinent root r holds every pertinent leaf but not only those (a
    # full one ends the leaf layer), and has at least two pertinent
    # children: a child holding all of them would be the root, and reduce
    # returns early for fewer than two leaves.
    def _reduce_root(self, r: _Node, fulls: Sequence[_Node],
                     partials: list[_Node]) -> None:
        if r.kind == PNODE:
            if len(partials) > 2:
                raise ReductionFailed("root P with >2 partial children")
            fblock = _full_block(r, fulls)
            if not partials:
                _adopt_into_p(r, fblock)
                return
            # merge everything into the first partial child's Q, in place:
            # full block joins at its full (head) end, a second partial
            # joins full-end to full-end
            p1 = partials[0]
            if fblock is not None:
                _q_attach(p1, fblock, True)
            if len(partials) == 2:
                p2 = partials[1]
                r.pchildren.discard(p2)
                _q_merge_heads(p1, p2)
            if len(r.pchildren) == 1:
                _take_chain(r, p1)
            return
        if r.kind == QNODE:
            run = _pertinent_run(fulls, partials)
            first, last = run[0], run[-1]
            # last's outer neighbor stays put while first is spliced in
            outer = last.other_nb(run[-2])
            if first in partials:
                self._splice_into_q(r, first, full_toward=run[1])
            if last in partials:
                self._splice_into_q(r, last, full_toward=last.other_nb(outer))
            return
        raise InternalError("leaf cannot be the pertinent root")

    # -- structural surgery ----------------------------------------------

    def _splice_into_q(self, q: _Node, part: _Node,
                       full_toward: Optional[_Node]) -> None:
        """Dissolve partial Q child `part` (children full-first from its
        head) into q, full side facing the neighbor `full_toward`."""
        if part.nb1 is None and part.nb2 is None:
            raise InternalError("splicing the only child")
        # the full end joins full_toward, the empty end the other neighbor;
        # an end with no neighbor takes part's place as q's head or tail
        outer = part.other_nb(full_toward)
        for end, nb in ((part.head, full_toward), (part.tail, outer)):
            if nb is not None:
                nb.replace_nb(part, end)
                end.replace_nb(None, nb)
            elif q.head is part:
                q.head = end
            else:
                q.tail = end
        _dissolve(part, q)
        part.head = part.tail = None
        part.nb1 = part.nb2 = None

    # -- canonical output -------------------------------------------------

    def canonical(self) -> Iterator[int | str]:
        """The tree in pre-order: leaf labels, and around each internal
        node's children {..} (a P node, or a Q node of two children) or
        [..] (a Q run fixed up to reversal); {} if empty.  P children
        ascend by min label; a Q node's first child has the smaller min."""
        if self.root is None:
            yield from "{}"
            return
        ordered = self._canonical_children()
        stack: list[_Node | str] = [self.root]
        while stack:
            tok = stack.pop()
            if type(tok) is str:
                yield tok
            elif tok.kind == LEAF:
                yield tok.label
            else:
                children = ordered[tok]
                free = tok.kind == PNODE or len(children) == 2
                yield "{" if free else "["
                stack.append("}" if free else "]")
                stack.extend(reversed(children))

    def frontier(self) -> list[int]:
        """The canonical leaf order: the labels of canonical()."""
        return [tok for tok in self.canonical() if type(tok) is int]

    def summary(self) -> str:
        """The permutation classes: canonical() rendered by render()."""
        return render(self.canonical(), str)

    def _canonical_children(self) -> dict[_Node, list[_Node]]:
        """Each internal node's children in canonical order.  One top-down
        pass collects them, one bottom-up pass computes every subtree's min
        label once and sorts or orients by it."""
        children: dict[_Node, list[_Node]] = {}
        order = [self.root]
        for node in order:  # grows while iterated: breadth-first
            if node.kind == LEAF:
                continue
            kids = (list(node.pchildren) if node.kind == PNODE
                    else _q_children(node))
            ensure(len(kids) >= 2, "unary internal node survived surgery")
            children[node] = kids
            order.extend(kids)
        min_label: dict[_Node, int] = {}
        for node in reversed(order):  # children before parents
            if node.kind == LEAF:
                min_label[node] = node.label
                continue
            kids = children[node]
            if node.kind == PNODE:
                kids.sort(key=min_label.__getitem__)
            elif min_label[kids[0]] > min_label[kids[-1]]:
                kids.reverse()
            min_label[node] = min(min_label[c] for c in kids)
        return children
