"""PQ-tree with Booth-Lueker style template reduction.

The tree represents the set of column orderings in which every reduced
constraint (a set of leaves) appears consecutively.  P nodes permute their
children freely; Q nodes fix the child sequence up to reversal.

Implementation notes, chosen so a reduction touches only the pertinent
subtree plus one root-to-leaf walk per pertinent leaf:

- Q children sit in an orientation-agnostic doubly linked list: each child
  stores its two neighbors in unordered slots, so reversing a Q node is an
  O(1) head/tail swap.
- Parent pointers go through union-find cells.  Splicing all children of a
  Q node into another Q node redirects one cell instead of re-parenting
  each child.
- P children are an unordered set; empty children are never enumerated
  during a reduction.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import InternalError, ensure

LEAF, PNODE, QNODE = 0, 1, 2

FULL, PARTIAL = 0, 1


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
                 "pchildren", "head", "tail", "nb1", "nb2")

    def __init__(self, kind: int, label: int = -1):
        self.kind = kind
        self.label = label                  # leaf column label
        self.up: Optional[_Cell] = None     # resolves to parent (None at root)
        self.anchor = _Cell(self)           # cell adopted by this node's children
        self.nleaves = 1 if kind == LEAF else 0
        self.pchildren: Optional[set] = set() if kind == PNODE else None
        self.head: Optional[_Node] = None   # Q endpoints
        self.tail: Optional[_Node] = None
        self.nb1: Optional[_Node] = None    # unordered Q-sibling slots
        self.nb2: Optional[_Node] = None

    def parent(self) -> Optional["_Node"]:
        if self.up is None:
            return None
        return _find(self.up).owner

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


def _link_chain(q: _Node, children: list[_Node]) -> None:
    """Install `children` as the full child list of Q node q."""
    q.head, q.tail = children[0], children[-1]
    for i, c in enumerate(children):
        c.nb1 = children[i - 1] if i > 0 else None
        c.nb2 = children[i + 1] if i < len(children) - 1 else None
        c.up = q.anchor


def _adopt_into_p(p: _Node, child: _Node) -> None:
    p.pchildren.add(child)
    child.up = p.anchor
    child.nb1 = child.nb2 = None


def _new_p(children: Iterable[_Node]) -> _Node:
    p = _Node(PNODE)
    for c in children:
        _adopt_into_p(p, c)
    p.nleaves = sum(c.nleaves for c in p.pchildren)
    return p


def _new_q(children: list[_Node]) -> _Node:
    q = _Node(QNODE)
    _link_chain(q, children)
    q.nleaves = sum(c.nleaves for c in children)
    return q


def _fill_free_nb(node: _Node, new: _Node) -> None:
    if node.nb1 is None:
        node.nb1 = new
    elif node.nb2 is None:
        node.nb2 = new
    else:
        raise InternalError("no free sibling slot")


def _q_prepend(q: _Node, child: _Node) -> None:
    """Attach a detached node (nb slots None) before q's head.  O(1)."""
    old = q.head
    child.nb1, child.nb2 = None, old
    _fill_free_nb(old, child)
    q.head = child
    child.up = q.anchor
    q.nleaves += child.nleaves


def _q_append(q: _Node, child: _Node) -> None:
    """Attach a detached node (nb slots None) after q's tail.  O(1)."""
    old = q.tail
    child.nb1, child.nb2 = old, None
    _fill_free_nb(old, child)
    q.tail = child
    child.up = q.anchor
    q.nleaves += child.nleaves


def _q_merge_heads(q1: _Node, q2: _Node) -> None:
    """Concatenate q2's chain onto q1, joining the two heads.  O(1):
    q2's children re-parent to q1 through a single union-find link."""
    h1, h2 = q1.head, q2.head
    _fill_free_nb(h1, h2)
    _fill_free_nb(h2, h1)
    q1.head, q1.tail = q1.tail, q2.tail
    q2.anchor.link = q1.anchor
    q2.anchor.owner = None
    q1.nleaves += q2.nleaves


class PQTree:
    """PQ-tree over leaves labeled 0..n-1."""

    def __init__(self, n: int):
        self.n = n
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

        Raises ReductionFailed if no ordering satisfies all constraints
        reduced so far (the tree is unusable afterwards).
        """
        s = set(labels)
        m = len(s)
        if m <= 1 or m >= self.n:
            return
        counts: dict[int, int] = {}
        nodes: dict[int, _Node] = {}
        pert_children: dict[int, list[_Node]] = {}
        for lab in s:
            node: Optional[_Node] = self.leaves[lab]
            while node is not None:
                key = id(node)
                fresh = key not in counts
                counts[key] = counts.get(key, 0) + 1
                nodes[key] = node
                par = node.parent()
                if fresh and par is not None:
                    pert_children.setdefault(id(par), []).append(node)
                node = par
        node = self.leaves[next(iter(s))]
        while counts[id(node)] != m:
            node = node.parent()
        self._reduce_root(node, counts, pert_children)

    # Non-root labeling.  On PARTIAL the returned node is a Q node whose
    # children run full-side-first from head; it has already replaced
    # `node` in the parent's child structure if it is a different object.
    def _label(self, node: _Node, counts, pert_children) -> tuple[int, _Node]:
        pc = counts[id(node)]
        if pc == node.nleaves:
            return FULL, node
        if node.kind == PNODE:
            fulls, partials = self._label_children(node, counts, pert_children)
            if len(partials) > 1:
                raise ReductionFailed("P node with >1 partial child")
            # capture node's slot before surgery: node may survive inside the
            # replacement as the block of empty children
            slot = self._capture_slot(node)
            for c in fulls:
                node.pchildren.discard(c)
            fblock: Optional[_Node] = None
            if len(fulls) == 1:
                fblock = fulls[0]
            elif len(fulls) > 1:
                fblock = _new_p(fulls)
            if partials:
                node.pchildren.discard(partials[0])
            # remaining P children are all empty
            rest = node.pchildren
            eblock: Optional[_Node] = None
            if len(rest) == 1:
                (eblock,) = rest
                node.anchor.owner = None
            elif len(rest) > 1:
                node.nleaves = sum(c.nleaves for c in rest)
                eblock = node
            else:
                node.anchor.owner = None
            if partials:
                # grow the partial child's own Q in place: full block at its
                # full (head) end, empty block at its empty (tail) end
                q = partials[0]
                if fblock is not None:
                    _q_prepend(q, fblock)
                if eblock is not None:
                    _q_append(q, eblock)
            else:
                ensure(fblock is not None and eblock is not None,
                       "partial P node without full and empty children")
                q = _new_q([fblock, eblock])
            self._install_slot(slot, node, q)
            return PARTIAL, q
        if node.kind == QNODE:
            fulls, partials = self._label_children(node, counts, pert_children)
            pert = set(id(c) for c in fulls) | set(id(c) for c in partials)
            # pertinent children must form a run anchored at one end
            if id(node.head) in pert:
                start, fullside_head = node.head, True
            elif id(node.tail) in pert:
                node.head, node.tail = node.tail, node.head
                start, fullside_head = node.head, True
            else:
                raise ReductionFailed("partial Q: pertinent run not at an end")
            run = []
            prev, cur = None, start
            while cur is not None and id(cur) in pert:
                run.append(cur)
                prev, cur = cur, cur.other_nb(prev)
            whole_list = cur is None
            if len(run) != len(pert):
                raise ReductionFailed("partial Q: pertinent children not consecutive")
            partial_ids = {id(c) for c in partials}
            at_tail = id(run[-1]) in partial_ids
            at_head = len(run) > 1 and id(run[0]) in partial_ids
            for i, c in enumerate(run):
                if id(c) in partial_ids and 0 < i < len(run) - 1:
                    raise ReductionFailed("partial Q: partial child inside full run")
            if at_head and (at_tail or not whole_list):
                # a head-side partial is only orientable when the run spans
                # the whole child list and the other end is not partial too
                raise ReductionFailed("partial Q: empty parts on both sides")
            if at_tail:
                self._splice_into_q(node, run[-1],
                                    full_toward=run[-2] if len(run) > 1 else None)
            elif at_head:
                self._splice_into_q(node, run[0], full_toward=run[1])
                node.head, node.tail = node.tail, node.head
            return PARTIAL, node
        raise InternalError("leaf cannot be partial")

    def _label_children(self, node, counts, pert_children):
        fulls, partials = [], []
        for child in pert_children.get(id(node), ()):
            lab, rep = self._label(child, counts, pert_children)
            (fulls if lab == FULL else partials).append(rep)
        return fulls, partials

    def _reduce_root(self, r: _Node, counts, pert_children) -> None:
        if counts[id(r)] == r.nleaves:
            return
        if r.kind == PNODE:
            fulls, partials = self._label_children(r, counts, pert_children)
            if len(partials) > 2:
                raise ReductionFailed("root P with >2 partial children")
            if not partials:
                if len(fulls) > 1:
                    for c in fulls:
                        r.pchildren.discard(c)
                    _adopt_into_p(r, _new_p(fulls))
                return
            for c in fulls:
                r.pchildren.discard(c)
            # merge everything into the first partial child's Q, in place:
            # full block joins at its full (head) end, a second partial
            # joins full-end to full-end
            p1 = partials[0]
            if len(fulls) == 1:
                _q_prepend(p1, fulls[0])
            elif len(fulls) > 1:
                _q_prepend(p1, _new_p(fulls))
            if len(partials) == 2:
                p2 = partials[1]
                r.pchildren.discard(p2)
                _q_merge_heads(p1, p2)
            if len(r.pchildren) == 1:
                self._replace_child(r, p1)
                r.anchor.owner = None
            return
        if r.kind == QNODE:
            fulls, partials = self._label_children(r, counts, pert_children)
            pert = {id(c): c for c in fulls + partials}
            partial_ids = {id(c) for c in partials}
            anykey = next(iter(pert))
            anynode = pert[anykey]
            run = [anynode]
            for first_dir in (anynode.nb1, anynode.nb2):
                prev, cur = anynode, first_dir
                while cur is not None and id(cur) in pert:
                    run.append(cur)
                    prev, cur = cur, cur.other_nb(prev)
                run.reverse()
            if len(run) != len(pert):
                raise ReductionFailed("root Q: pertinent children not consecutive")
            for i, c in enumerate(run):
                if id(c) in partial_ids and i not in (0, len(run) - 1):
                    raise ReductionFailed("root Q: partial child inside full run")
            last = run[-1] if id(run[-1]) in partial_ids else None
            outer_last = last.other_nb(run[-2]) if last and len(run) > 1 else None
            if len(run) >= 2 and id(run[0]) in partial_ids:
                self._splice_into_q(r, run[0], full_toward=run[1])
            if last is not None:
                if len(run) > 1:
                    # the inner neighbor may just have been rewritten by the
                    # first splice, so recompute it from the stable outer one
                    toward = last.other_nb(outer_last)
                else:
                    # lone partial at the root: orientation is free, but the
                    # splice must reconnect both of its neighbors
                    toward = last.nb1 if last.nb1 is not None else last.nb2
                self._splice_into_q(r, last, full_toward=toward)
            return
        raise InternalError("root leaf with pc < nleaves")

    # -- structural surgery ----------------------------------------------

    def _capture_slot(self, node: _Node):
        """Snapshot node's attachment point before surgery may clobber it."""
        par = node.parent()
        if par is None or par.kind == PNODE:
            return (par, None, None, False, False)
        return (par, node.nb1, node.nb2, par.head is node, par.tail is node)

    def _install_slot(self, slot, old: _Node, new: _Node) -> None:
        par, nb1, nb2, was_head, was_tail = slot
        if par is None:
            self.root = new
            new.up = None
            new.nb1 = new.nb2 = None
            return
        if par.kind == PNODE:
            par.pchildren.discard(old)
            _adopt_into_p(par, new)
            return
        new.nb1, new.nb2 = nb1, nb2
        for nb in (nb1, nb2):
            if nb is not None:
                nb.replace_nb(old, new)
        if was_head:
            par.head = new
        if was_tail:
            par.tail = new
        new.up = par.anchor

    def _replace_child(self, old: _Node, new: _Node) -> None:
        """Put `new` where `old` sits in old's parent (or at the root)."""
        self._install_slot(self._capture_slot(old), old, new)

    def _splice_into_q(self, q: _Node, part: _Node,
                       full_toward: Optional[_Node]) -> None:
        """Dissolve partial Q child `part` (children full-first from its
        head) into q, full side facing the neighbor `full_toward`."""
        outer = part.other_nb(full_toward) if full_toward is not None else (
            part.nb1 if part.nb1 is not None else part.nb2)
        if full_toward is None and part.nb1 is None and part.nb2 is None:
            raise InternalError("splicing the only child")
        h, t = part.head, part.tail  # h = full end, t = empty end
        inner_end, outer_end = h, t
        # connect inner_end <-> full_toward, outer_end <-> outer
        if full_toward is not None:
            full_toward.replace_nb(part, inner_end)
            inner_end.replace_nb(None, full_toward)
        else:
            inner_end.replace_nb(None, None)
        if outer is not None:
            outer.replace_nb(part, outer_end)
            outer_end.replace_nb(None, outer)
        if q.head is part:
            q.head = inner_end if full_toward is None else outer_end
        if q.tail is part:
            q.tail = inner_end if full_toward is None else outer_end
        part.anchor.link = q.anchor
        part.anchor.owner = None
        part.head = part.tail = None
        part.nb1 = part.nb2 = None

    # -- canonical output -------------------------------------------------

    def frontier(self) -> list[int]:
        """Canonical leaf order: P children ascend by min contained label;
        Q nodes take the orientation whose first child has the smaller min."""
        if self.root is None:
            return []
        self._normalize(self.root)
        out: list[int] = []
        self._emit(self.root, out)
        return out

    def summary(self) -> str:
        """Render the permutation classes: {..} free P groups, [..] Q runs
        fixed up to reversal, leaf_name(label) at the leaves."""
        if self.root is None:
            return "{}"
        self._normalize(self.root)
        return self._render(self.root)

    def leaf_name(self, label: int) -> str:
        """How summary() shows a leaf: its label, unless a subclass names it."""
        return str(label)

    def _normalize(self, node: _Node) -> int:
        """Collapse 1-child nodes, turn 2-child Q into P, return min label."""
        if node.kind == LEAF:
            return node.label
        children = (list(node.pchildren) if node.kind == PNODE
                    else _q_children(node))
        ensure(len(children) >= 2, "unary internal node survived surgery")
        if node.kind == QNODE and len(children) == 2:
            node.kind = PNODE
            node.pchildren = set(children)
            node.head = node.tail = None
            for c in children:
                c.nb1 = c.nb2 = None
        return min(self._normalize(c) for c in children)

    def _min_label(self, node: _Node) -> int:
        if node.kind == LEAF:
            return node.label
        children = (node.pchildren if node.kind == PNODE else _q_children(node))
        return min(self._min_label(c) for c in children)

    def _ordered_children(self, node: _Node) -> list[_Node]:
        if node.kind == PNODE:
            return sorted(node.pchildren, key=self._min_label)
        children = _q_children(node)
        if self._min_label(children[0]) > self._min_label(children[-1]):
            children.reverse()
        return children

    def _emit(self, node: _Node, out: list[int]) -> None:
        if node.kind == LEAF:
            out.append(node.label)
            return
        for c in self._ordered_children(node):
            self._emit(c, out)

    def _render(self, node: _Node) -> str:
        if node.kind == LEAF:
            return self.leaf_name(node.label)
        parts = [self._render(c) for c in self._ordered_children(node)]
        if node.kind == PNODE:
            return "{" + " ".join(parts) + "}"
        return "[" + " ".join(parts) + "]"

