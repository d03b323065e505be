"""The PQ-tree on its own: a permutation oracle, stack safety, linear work,
labeling by count, and the trees the recognizers build."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque
from fractions import Fraction

import pytest

from convexcodes import pqtree
from convexcodes.core import BitVector, Code
from convexcodes.ordering import cco_order, co_order
from convexcodes.pqtree import LEAF, PNODE, PQTree, ReductionFailed
from tucker import m_i


def _consecutive(order, constraint) -> bool:
    pos = [order.index(lab) for lab in constraint]
    return not pos or max(pos) - min(pos) + 1 == len(pos)


def _brute_count(n: int, constraints) -> int:
    return sum(all(_consecutive(perm, c) for c in constraints)
               for perm in itertools.permutations(range(n)))


def _tree_count(tree: PQTree) -> int:
    """Orderings the tree represents: k! per P node with k children, 2 per
    Q node."""
    total, stack = 1, [tree.root]
    while stack:
        node = stack.pop()
        if node.kind == LEAF:
            continue
        if node.kind == PNODE:
            children = list(node.pchildren)
            total *= math.factorial(len(children))
        else:
            children = pqtree._q_children(node)
            total *= 2
        stack.extend(children)
    return total


def _family(n: int, rng: random.Random) -> list[list[int]]:
    """Intervals of a hidden order (mostly feasible) or random subsets
    (mostly infeasible), half each."""
    count = rng.randint(0, 2 * n)
    if rng.random() < 0.5:
        hidden = rng.sample(range(n), n)
        out = []
        for _ in range(count):
            a = rng.randrange(n)
            out.append(hidden[a:rng.randint(a + 1, n)])
        return out
    return [rng.sample(range(n), rng.randint(0, n)) for _ in range(count)]


class TestPermutationOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_agrees_with_brute_force(self, n):
        rng = random.Random(1000 + n)
        outcomes = set()
        for _ in range(40):
            constraints = _family(n, rng)
            expected = _brute_count(n, constraints)
            tree = PQTree(n)
            root = tree.root
            try:
                for c in constraints:
                    tree.reduce(c)
                    assert tree.root is root, constraints
            except ReductionFailed:
                assert expected == 0, constraints
                outcomes.add("infeasible")
                continue
            assert expected > 0, constraints
            order = tree.frontier()
            assert sorted(order) == list(range(n))
            assert all(_consecutive(order, c) for c in constraints), constraints
            assert _tree_count(tree) == expected, constraints
            outcomes.add("feasible")
        if n >= 4:
            assert outcomes == {"feasible", "infeasible"}


def _nested(n: int) -> list[list[int]]:
    return [list(range(i + 1, n)) for i in range(n - 1)]


def _two_ended(n: int) -> list[list[int]]:
    return _nested(n) + [list(range(j + 1)) for j in range(n - 1)]


def _staircase(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(n - 1)]


def _reduce_all(n: int, constraints, visits) -> list[tuple[int, int]]:
    """(|S|, visits) of each reduction that reaches the tree."""
    tree = PQTree(n)
    out = []
    for c in constraints:
        before = visits[0]
        tree.reduce(c)
        if 1 < len(c) < n:
            out.append((len(c), visits[0] - before))
    return out


class TestLinearWork:
    @pytest.mark.parametrize("family", [_nested, _two_ended, _staircase])
    def test_visits_per_reduction(self, family, visits):
        for size, seen in _reduce_all(300, family(300), visits):
            # the leaf layer reads each pertinent leaf's parent once
            assert size <= seen <= 3 * size + 2, (size, seen)

    def test_random_intervals_amortized(self, visits):
        # a single reduction can walk a chain of partial nodes; the
        # templates then merge that chain, so the total stays linear
        rng = random.Random(7)
        n = 500
        hidden = rng.sample(range(n), n)
        constraints = []
        for _ in range(3 * n):
            a = rng.randrange(n)
            constraints.append(hidden[a:a + rng.randint(1, 10)])
        work = _reduce_all(n, constraints, visits)
        assert sum(seen for _, seen in work) <= 2 * sum(s for s, _ in work) + n

    def test_nested_doubling(self, visits):
        def total(n):
            return sum(seen for _, seen in _reduce_all(n, _nested(n), visits))
        # the number of ones grows 4x; the old walk-to-root grew ~8x
        assert total(400) <= 4.5 * total(200)


def test_deep_trees_need_no_recursion():
    # nested codes build a P-node chain n deep, the two-ended family a long
    # Q node over a deep reduction history; a stack of 150 frames is enough
    script = textwrap.dedent("""
        import sys
        from convexcodes import BitVector, Code, Geometry, reconstruct_sparse
        from convexcodes.core import SensorMatrix
        from convexcodes.ordering import cco_order, co_order

        def code(n, rows):
            cols = [0] * n
            for r, members in enumerate(rows):
                for c in members:
                    cols[c] |= 1 << r
            return Code.of(BitVector(len(rows), m) for m in cols)

        nested = [range(i + 1, 400) for i in range(399)]
        two_ended = ([range(i + 1, 300) for i in range(299)]
                     + [range(j + 1) for j in range(299)])
        codes = [code(400, nested), code(300, two_ended)]
        sys.setrecursionlimit(150)
        for c in codes:
            assert isinstance(reconstruct_sparse(c, Geometry.LINE), SensorMatrix)
            assert co_order(c).tree_summary.startswith(("{", "["))
            assert cco_order(c).feasible
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_pertinent_root_has_two_pertinent_children(monkeypatch):
    # _reduce_root has no case for a lone pertinent child: a child holding
    # every pertinent leaf would itself be the pertinent root
    seen = []
    reduce_root = PQTree._reduce_root

    def checked(self, r, fulls, partials):
        seen.append(len(fulls) + len(partials))
        return reduce_root(self, r, fulls, partials)

    monkeypatch.setattr(PQTree, "_reduce_root", checked)
    rng = random.Random(17)
    cases = [(n, _family(n, rng)) for n in range(2, 9) for _ in range(100)]
    cases += [(60, family(60)) for family in (_nested, _two_ended, _staircase)]
    for n, constraints in cases:
        tree = PQTree(n)
        try:
            for c in constraints:
                tree.reduce(c)
        except ReductionFailed:
            pass
    assert len(seen) > 1000
    assert min(seen) >= 2


class TestLabelCheck:
    @pytest.mark.parametrize("labels", [[-1, 0], [0, 1, 2, 3, 5], [0, 7],
                                        [4], [-1]])
    def test_out_of_range_labels_raise(self, labels):
        tree = PQTree(4)
        with pytest.raises(ValueError):
            tree.reduce(labels)
        assert tree.summary() == "{0 1 2 3}"

    def test_empty_tree_takes_no_label(self):
        PQTree(0).reduce([])
        with pytest.raises(ValueError):
            PQTree(0).reduce([0])

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_size_is_refused(self, n):
        with pytest.raises(ValueError):
            PQTree(n)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_among_valid_labels(self, bad):
        # a reduced tree: the check runs before any node is touched
        tree = PQTree(6)
        tree.reduce([1, 2, 3])
        before = tree.summary()
        for labels in ([bad, 1, 2], [0, 1, 2, 3, 4, bad], [4, bad, 5]):
            with pytest.raises(ValueError):
                tree.reduce(labels)
            assert tree.summary() == before
        tree.reduce([3, 4])
        assert tree.summary() == "{0 [{1 2} 3 4] 5}"

    @pytest.mark.parametrize("bad", [1.0, Fraction(4), 5.0])
    def test_labels_that_only_equal_ints_are_refused(self, bad):
        # 1.0 == 1 passes the range check; the leaf layer refuses it,
        # after grouping the int labels iterated before it
        tree, ref = PQTree(6), PQTree(6)
        for t in (tree, ref):
            t.reduce([1, 2, 3])
        for labels in ([0, bad], [bad, 4, 5], [0, 2, 3, bad]):
            with pytest.raises(ValueError):
                tree.reduce(labels)
            assert tree.summary() == ref.summary()
        # labels reduce as their set, which keeps an int given first and
        # drops the equal label after it
        tree.reduce([3, 4, 3.0, Fraction(4)])
        ref.reduce([3, 4])
        for t in (tree, ref):
            t.reduce([0, 1])
        assert tree.summary() == ref.summary() == "{[0 1 2 3 4] 5}"

    @pytest.mark.parametrize("labels", [[1, 1, 2], [2, 1, 2, 1], [0, 0],
                                        [3, 3, 3]])
    def test_duplicate_labels_reduce_as_their_set(self, labels):
        tree, ref = PQTree(5), PQTree(5)
        for t in (tree, ref):
            t.reduce([2, 3])
        tree.reduce(labels)
        ref.reduce(sorted(set(labels)))
        assert tree.summary() == ref.summary()
        assert tree.frontier() == ref.frontier()


def _reference_bubble(leaves):
    up, pert_children = {}, {}
    queue = deque(leaves)
    while len(queue) > 1:
        node = queue.popleft()
        par = node.parent()
        if par is None:
            queue.append(node)
            continue
        up[node] = par
        kids = pert_children.get(par)
        if kids is None:
            pert_children[par] = [node]
            queue.append(par)
        else:
            kids.append(node)
    return up, pert_children


def _reference_new_q(children):
    q = pqtree._Node(pqtree.QNODE)
    for c in children:
        pqtree._q_attach(q, c, False)
    return q


class _ReferenceTree(PQTree):
    """The reduction before the leaf layer: every pertinent leaf enters
    the bubble queue and the labeling pass.  The templates are the ones
    before nodes were rewritten in place: a partial P node is replaced by
    a Q node put in its snapshot slot, and the labeling pass carries the
    node that stands in for each labeled one."""

    def reduce(self, labels):
        s = set(labels)
        m = len(s)
        if m <= 1 or m >= self.n:
            return
        leaves = [self.leaves[lab] for lab in s]
        up, pert_children = _reference_bubble(leaves)
        waiting = {par: len(kids) for par, kids in pert_children.items()}
        labeled = {leaf: (1, pqtree.FULL, leaf) for leaf in leaves}
        ready = leaves
        while ready:
            par = up[ready.pop()]
            waiting[par] -= 1
            if waiting[par]:
                continue
            pc, fulls, partials = 0, [], []
            for child in pert_children[par]:
                child_pc, label, rep = labeled[child]
                pc += child_pc
                (fulls if label == pqtree.FULL else partials).append(rep)
            if pc == m:
                self._reduce_root(par, pc, fulls, partials)
                return
            labeled[par] = (pc, *self._label(par, pc, fulls, partials))
            ready.append(par)
        raise pqtree.InternalError("pertinent leaves have no common ancestor")

    def _label(self, node, pc, fulls, partials):
        if pc == node.nleaves:
            return pqtree.FULL, node
        if node.kind == PNODE:
            if len(partials) > 1:
                raise ReductionFailed("P node with >1 partial child")
            slot = self._capture_slot(node)
            fblock = pqtree._full_block(node, fulls)
            if partials:
                node.pchildren.discard(partials[0])
            rest = node.pchildren
            eblock = None
            if len(rest) == 1:
                (eblock,) = rest
                node.anchor.owner = None
            elif len(rest) > 1:
                node.nleaves -= sum(c.nleaves for c in fulls)
                if partials:
                    node.nleaves -= partials[0].nleaves
                eblock = node
            else:
                node.anchor.owner = None
            if partials:
                q = partials[0]
                if fblock is not None:
                    pqtree._q_attach(q, fblock, True)
                if eblock is not None:
                    pqtree._q_attach(q, eblock, False)
            else:
                pqtree.ensure(fblock is not None and eblock is not None,
                              "partial P node without full and empty children")
                q = _reference_new_q([fblock, eblock])
            self._install_slot(slot, node, q)
            return pqtree.PARTIAL, q
        if node.kind == pqtree.QNODE:
            run = pqtree._pertinent_run(fulls, partials)
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
            return pqtree.PARTIAL, node
        raise pqtree.InternalError("leaf cannot be partial")

    def _reduce_root(self, r, pc, fulls, partials):
        if pc == r.nleaves:
            return
        if r.kind == PNODE:
            if len(partials) > 2:
                raise ReductionFailed("root P with >2 partial children")
            fblock = pqtree._full_block(r, fulls)
            if not partials:
                pqtree._adopt_into_p(r, fblock)
                return
            p1 = partials[0]
            if fblock is not None:
                pqtree._q_attach(p1, fblock, True)
            if len(partials) == 2:
                p2 = partials[1]
                r.pchildren.discard(p2)
                pqtree._q_merge_heads(p1, p2)
            if len(r.pchildren) == 1:
                self._replace_child(r, p1)
                r.anchor.owner = None
            return
        if r.kind == pqtree.QNODE:
            run = pqtree._pertinent_run(fulls, partials)
            first, last = run[0], run[-1]
            outer = last.other_nb(run[-2])
            if first in partials:
                self._splice_into_q(r, first, full_toward=run[1])
            if last in partials:
                self._splice_into_q(r, last, full_toward=last.other_nb(outer))
            return
        raise pqtree.InternalError("root leaf with pc < nleaves")

    def _capture_slot(self, node):
        par = node.parent()
        if par is None or par.kind == PNODE:
            return (par, None, None, False, False)
        return (par, node.nb1, node.nb2, par.head is node, par.tail is node)

    def _install_slot(self, slot, old, new):
        par, nb1, nb2, was_head, was_tail = slot
        if par is None:
            self.root = new
            new.up = None
            new.nb1 = new.nb2 = None
            return
        if par.kind == PNODE:
            par.pchildren.discard(old)
            pqtree._adopt_into_p(par, new)
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

    def _replace_child(self, old, new):
        self._install_slot(self._capture_slot(old), old, new)


def _mixed_family(n, rng):
    """Intervals, nested and two-ended runs of a hidden order, and random
    subsets, in random proportions; some constraints repeated later,
    interleaved with the rest."""
    hidden = rng.sample(range(n), n)
    out = []
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.random()
        a = rng.randrange(n)
        if kind < 0.35:
            out.append(hidden[a:rng.randint(a + 1, n)])
        elif kind < 0.55:
            out.append(hidden[a:])
        elif kind < 0.75:
            out.append(hidden[:a + 1])
        elif kind < 0.9:
            out.append(rng.sample(range(n), rng.randint(0, n)))
    if rng.random() < 0.8:
        # nested runs first build deep chains the later ones cut across
        out.sort(key=len, reverse=rng.random() < 0.5)
    for _ in range(rng.randint(0, len(out))):
        out.insert(rng.randint(0, len(out)), rng.choice(out))
    return out


def _depth(tree, leaf):
    depth, node = 0, leaf
    while node is not tree.root:
        node, depth = node.parent(), depth + 1
    return depth


def _run(tree, constraints):
    """Index of the first constraint that fails, or None.  The root
    node stays the same object through every reduction."""
    root = tree.root
    for i, c in enumerate(constraints):
        try:
            tree.reduce(c)
        except ReductionFailed:
            return i
        assert tree.root is root, constraints[:i + 1]
    return None


class TestAgainstReference:
    def test_same_trees(self):
        rng = random.Random(2024)
        outcomes, deep = set(), 0
        for case in range(2400):
            n = 2 + case % 11
            constraints = _mixed_family(n, rng)
            ref = _ReferenceTree(n)
            for i, c in enumerate(constraints):
                if 1 < len(set(c)) < n:
                    deep += len({_depth(ref, ref.leaves[lab]) for lab in c}) > 1
                try:
                    ref.reduce(c)
                except ReductionFailed:
                    failed_at = i
                    break
            else:
                failed_at = None
            tree = PQTree(n)
            assert _run(tree, constraints) == failed_at, constraints
            outcomes.add(failed_at is None)
            if failed_at is None:
                assert tree.frontier() == ref.frontier(), constraints
                assert tree.summary() == ref.summary(), constraints
        assert outcomes == {True, False}
        assert deep > 3000


class TestStateAtRest:
    def test_every_exit_path(self, monkeypatch):
        # a reduction keeps its counts and groups on the nodes it touches;
        # every exit (done, no-op, refused label, failure) must leave each
        # node it ever made back at rest, with no anchor cell on a leaf,
        # and a refused call must leave the tree as a fresh one that never
        # saw it
        made = []
        init = pqtree._Node.__init__

        def recorded(node, *args, **kwargs):
            init(node, *args, **kwargs)
            made.append(node)

        def at_rest():
            return all(x.fulls is None and x.pcount == 0
                       and x.partials is None and x.waiting == 0
                       and (x.kind != LEAF or x.anchor is None) for x in made)

        reduce_root = PQTree._reduce_root
        exits = Counter()

        def counted(self, *args):
            exits["done"] += 1
            return reduce_root(self, *args)

        monkeypatch.setattr(pqtree._Node, "__init__", recorded)
        monkeypatch.setattr(PQTree, "_reduce_root", counted)
        rng = random.Random(2024)
        for case in range(2400):
            n = 2 + case % 11
            constraints = _mixed_family(n, rng)
            made.clear()
            tree, fresh = PQTree(n), PQTree(n)
            failed_at = _run(fresh, constraints)
            for i, c in enumerate(constraints):
                # an int-valued float after the first label: the leaf
                # layer has grouped a leaf when it meets it
                later = [lab for lab in range(n) if lab not in c
                         and lab > min(c)] if c else []
                if later and len(set(c)) + 1 < n:
                    before = tree.summary()
                    with pytest.raises(ValueError):
                        tree.reduce(c + [float(later[0])])
                    exits["refused"] += 1
                    assert tree.summary() == before, constraints[:i + 1]
                    assert at_rest(), constraints[:i + 1]
                done = exits["done"]
                try:
                    tree.reduce(c)
                except ReductionFailed:
                    exits["failed"] += 1
                    assert i == failed_at, constraints
                    break
                finally:
                    assert at_rest(), constraints[:i + 1]
                if 1 < len(set(c)) < n and exits["done"] == done:
                    exits["no-op"] += 1
            else:
                assert failed_at is None, constraints
                assert tree.frontier() == fresh.frontier(), constraints
                assert tree.summary() == fresh.summary(), constraints
        assert min(exits[k] for k in ("done", "no-op", "refused", "failed")) > 100


class TestCells:
    """Only P and Q nodes get an anchor cell for their children to point
    at, so a tree makes one cell per internal node and none per leaf."""

    @staticmethod
    def _recorded(monkeypatch):
        cells, internal = [], []
        cell_init, node_init = pqtree._Cell.__init__, pqtree._Node.__init__

        def cell(c, *args, **kwargs):
            cell_init(c, *args, **kwargs)
            cells.append(c)

        def node(x, *args, **kwargs):
            node_init(x, *args, **kwargs)
            if x.kind != LEAF:
                internal.append(x)

        monkeypatch.setattr(pqtree._Cell, "__init__", cell)
        monkeypatch.setattr(pqtree._Node, "__init__", node)
        return cells, internal

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 500])
    def test_fresh_tree_cells(self, monkeypatch, n):
        cells, _ = self._recorded(monkeypatch)
        PQTree(n)
        assert len(cells) == (1 if n >= 2 else 0)

    def test_one_cell_per_internal_node(self, monkeypatch):
        cells, internal = self._recorded(monkeypatch)
        rng = random.Random(2024)
        grown = 0
        for case in range(2400):
            n = 2 + case % 11
            constraints = _mixed_family(n, rng)
            cells.clear()
            internal.clear()
            _run(PQTree(n), constraints)
            assert len(cells) == len(internal), constraints
            grown += len(internal) > 1
        assert grown > 1000


# Seeded codes in the shapes the recognizers meet: rows are row masks,
# words the distinct columns, bit i of a word = row i.

def _permuted(masks, k, rng):
    """The code of the masks over k rows, rows relabelled by rng."""
    perm = list(range(k))
    rng.shuffle(perm)
    return Code.of(BitVector(k, sum(1 << perm[i] for i in range(k) if m >> i & 1))
                   for m in masks)


def _columns(rows, s):
    """The distinct column masks of row masks over s sensors."""
    return {sum(1 << i for i, r in enumerate(rows) if r >> j & 1)
            for j in range(s)}


def _line_rows(s, rng):
    rows = []
    for _ in range(s // 2):
        a, b = sorted((rng.randrange(s), rng.randrange(s)))
        rows.append(((1 << (b - a + 1)) - 1) << a)
    return rows


def _staircase_code(n, rng):
    """n words: the k = n/2 + 1 singletons, then the adjacent pairs."""
    k = n // 2 + 1
    masks = [1 << i for i in range(k)] + [0b11 << i for i in range(k - 1)]
    return _permuted(masks[:n], k, rng)


def _nested_code(n, rng):
    """The n nested prefixes of n rows."""
    return _permuted([(1 << (i + 1)) - 1 for i in range(n)], n, rng)


def _interval_code(s, rng):
    """The columns of s // 2 random line intervals over s sensors."""
    rows = _line_rows(s, rng)
    return Code.of(BitVector(len(rows), m) for m in _columns(rows, s))


def _arc_code(s, rng):
    """The columns of s // 2 random arcs over s sensors."""
    full, rows = (1 << s) - 1, []
    for _ in range(s // 2):
        m = ((1 << rng.randrange(1, s)) - 1) << rng.randrange(s)
        rows.append((m | m >> s) & full)
    return Code.of(BitVector(len(rows), m) for m in _columns(rows, s))


def _dense_complete_code(k, rng):
    """The regions cut by k open intervals with 2k distinct endpoints."""
    slots = rng.sample(range(2 * k), 2 * k)
    regions = [0] * (2 * k + 1)
    for i in range(k):
        lo, hi = sorted(slots[2 * i:2 * i + 2])
        for r in range(lo + 1, hi + 1):
            regions[r] |= 1 << i
    return Code.of(BitVector(k, m) for m in set(regions))


def _obstruction_code(s, rng):
    """Random line intervals plus Tucker's triangle, M_I(3), on three new
    rows and columns: infeasible on the line and on the circle."""
    rows = _line_rows(s, rng)
    k = len(rows)
    cols = _columns(rows, s) | {w.mask << k for w in m_i(3).words}
    return Code.of(BitVector(k + 3, m) for m in cols)


def test_full_nodes_never_reach_the_labeling_pass(monkeypatch):
    # the leaf layer finds full subtrees by count, so every node the
    # labeling pass labels is partial; nested codes have no partial node
    # below the pertinent root at all
    labels = []
    label = PQTree._label

    def recorded(self, *args):
        result = label(self, *args)
        labels.append(result)
        return result

    monkeypatch.setattr(PQTree, "_label", recorded)
    rng = random.Random(5)
    for code in (_nested_code(200, rng), _dense_complete_code(64, rng),
                 _interval_code(160, rng)):
        labels.clear()
        assert co_order(code).feasible
        assert pqtree.FULL not in labels
    assert labels and set(labels) == {pqtree.PARTIAL}


# sha256 of the recognizers' results on the seeded codes below; a
# reducer change that alters any ordering, failed row or tree summary
# changes it, and so does a change of the circle's anchor word
_TREES_SHA256 = ("0ea64a4eb632166de601cd972851e4f94bd77efb2ffbb4b43880b479"
                 "8c57d88b")


def test_recognizer_trees_are_pinned():
    h = hashlib.sha256()
    feasible = set()
    for make, sizes in ((_staircase_code, (100, 201)), (_nested_code, (50, 150)),
                        (_interval_code, (60, 120)), (_arc_code, (60, 120)),
                        (_dense_complete_code, (24, 48)),
                        (_obstruction_code, (30, 60))):
        for size in sizes:
            for seed in range(3):
                code = make(size, random.Random(seed))
                for order in (co_order, cco_order):
                    r = order(code)
                    feasible.add(r.feasible)
                    words = (None if r.ordering is None
                             else [w.to_string() for w in r.ordering])
                    h.update(repr((make.__name__, size, seed, order.__name__,
                                   words, r.failed_row,
                                   r.tree_summary)).encode())
    assert feasible == {True, False}
    assert h.hexdigest() == _TREES_SHA256
