"""Tests of the benchmark itself: generators, planted truth, the answer
checker and the span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest

import convexcodes as cc
import convexcodes.cli
import check
import gen
import spans
import workloads


# -- permutation brute force --------------------------------------------------


def orderable(masks, k: int, circular: bool) -> bool:
    """Some column order makes every row a (cyclic) interval."""
    for perm in itertools.permutations(masks):
        rows = check.transpose(list(perm), k)
        if all(check.is_interval_row(r, len(perm), circular) for r in rows):
            return True
    return False


def hco_sequence(counts: dict, k: int, max_len: int, exact: bool) -> bool:
    """A column sequence with neighbours comparable and every row an
    interval, using each word counts[w] times (exact) or at least once
    within max_len columns (not exact)."""
    words = list(counts)

    def extend(seq, used, closed):
        if all(used[w] >= 1 for w in words) and (
                not exact or all(used[w] == counts[w] for w in words)):
            return True
        if len(seq) == max_len:
            return False
        for w in words:
            if exact and used[w] == counts[w]:
                continue
            prev = seq[-1] if seq else None
            if prev is not None and prev & ~w and w & ~prev:
                continue
            if w & closed:     # a row that already ended would restart
                continue
            ended = closed | (prev & ~w if prev is not None else 0)
            used[w] += 1
            seq.append(w)
            if extend(seq, used, ended):
                return True
            seq.pop()
            used[w] -= 1
        return False

    return extend([], Counter(), 0)


def masks(code):
    return sorted(w.mask for w in code.words)


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("make, size", [
    (gen.staircase, 20), (gen.nested, 12), (gen.line_intervals, 16),
    (gen.circle_arcs, 16), (gen.obstruction, 16),
    (lambda n, rng: gen.dense_complete(n, rng)[1].entries, 8),
])
def test_generators_are_deterministic_per_seed(make, size):
    def build(seed):
        out = make(size, random.Random(seed))
        return out if isinstance(out, dict) else masks(out)
    assert build(3) == build(3)
    assert build(3) != build(4)


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    def units(seed):
        return [(op.key, op.units) for ops in
                workloads.build("realize", seed, str(tmp_path)) for op in ops]
    assert units(5) == units(5)
    assert units(5) != units(6)


# -- planted truth ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_planted_truth_small(seed):
    rng = random.Random(seed)
    stair = gen.staircase(6, rng)
    assert orderable(masks(stair), stair.k, False)
    assert not hco_sequence({m: 1 for m in masks(stair)}, stair.k,
                            2 * len(stair) - 1, exact=False)
    nest = gen.nested(5, rng)
    assert orderable(masks(nest), nest.k, False)
    line = gen.line_intervals(6, rng)
    assert orderable(masks(line), line.k, False)
    arcs = gen.circle_arcs(6, rng)
    assert orderable(masks(arcs), arcs.k, True)
    bad = gen.obstruction(3, rng)
    assert len(bad) >= 4
    assert not orderable(masks(bad), bad.k, False)
    assert not orderable(masks(bad), bad.k, True)
    code, ms = gen.dense_complete(2, rng)
    counts = {w.mask: c for w, c in ms.entries.items()}
    assert hco_sequence(counts, ms.k, sum(counts.values()), exact=True)
    assert set(counts) == set(masks(code))


# -- the checker rejects corrupted answers ----------------------------------


def cli(argv):
    return workloads._cli(argv)()


def test_checker_rejects_a_wrong_matrix():
    code = gen.line_intervals(24, random.Random(1))
    m = cc.reconstruct_sparse(code, cc.Geometry.LINE)
    verify = workloads._matrix(code.k, Counter(masks(code)), False)
    verify(m)
    cols = list(m.columns)
    cols[0], cols[-1] = cols[-1], cols[0]
    swapped = cc.SensorMatrix.from_columns(cols, cc.Geometry.LINE)
    with pytest.raises(check.Mismatch):
        verify(swapped)
    with pytest.raises(check.Mismatch):
        verify(cc.SensorMatrix.from_columns(cols[1:], cc.Geometry.LINE))


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    bad = gen.obstruction(8, random.Random(2))
    path = tmp_path / "bad.txt"
    path.write_text(gen.code_text(bad.words))
    words = {w.mask for w in bad.words}
    rc, out = cli(["certificate", str(path)])
    check.check_cli_certificate(rc, out, words, False, False)
    with pytest.raises(check.Mismatch):
        check.check_cli_certificate(0, out, words, False, False)
    with pytest.raises(check.Mismatch):
        check.check_cli_certificate(rc, out, words, True, False)


def test_checker_rejects_a_tampered_witness(tmp_path):
    bad = gen.obstruction(8, random.Random(3))
    path = tmp_path / "bad.txt"
    path.write_text(gen.code_text(bad.words))
    words = {w.mask for w in bad.words}
    rc, out = cli(["check", str(path), "--format", "structured"])
    check.check_cli_check(rc, out, words, bad.k, False)
    doc = json.loads(out)
    witnesses = doc["certificate"]["witnesses"]
    assert witnesses
    i = next(iter(witnesses))
    for r in range(bad.k):
        if r == witnesses[i]:
            continue
        witnesses[i] = r
        try:
            check.check_cli_check(rc, json.dumps(doc), words, bad.k, False)
        except check.Mismatch:
            return
    pytest.fail("no tampered witness row was rejected")


def test_checker_rejects_an_off_by_one_count():
    oracle = workloads.brute_force_tables(10)["line"]
    ladder = workloads._Ladder(oracle)
    table = cc.gf_dense_linear(4, 10)
    ladder.verifier(4, 10, None, False)(table)
    bumped = dict(table.c)
    bumped[(3, 2)] += 1
    with pytest.raises(check.Mismatch):
        ladder.verifier(4, 10, None, False)(cc.CountTable(bumped, table.regime))


def test_checker_rejects_a_moved_interval(tmp_path):
    code = gen.line_intervals(16, random.Random(4))
    path = tmp_path / "line.txt"
    path.write_text(gen.code_text(code.words))
    words = {w.mask for w in code.words}
    rc, out = cli(["realize", str(path), "--format", "structured"])
    check.check_cli_arrangement(rc, out, words, code.k, False, True)
    doc = json.loads(out)
    iv = next(iv for iv in doc["arrangement"]["intervals"]
              if iv["kind"] == "proper" and iv["hi"] is not None)
    p, q = (int(x) for x in iv["hi"].split("/"))
    iv["hi"] = "%d/%d" % (p + q, q)   # one sensor further right
    with pytest.raises(check.Mismatch):
        check.check_cli_arrangement(rc, json.dumps(doc), words, code.k, False,
                                    True)


# -- spans --------------------------------------------------------------------


def span(name, start, end, parent, op=0):
    s = spans.Span(name, parent, op)
    s.start, s.end = start, end
    return s


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        span(spans.OP, 0, 100, None),
        span("reconstruct.reconstruct_sparse", 10, 80, 0),
        span("ordering.co_order", 15, 60, 1),
        span("pqtree.PQTree.reduce", 20, 30, 2),
        span("pqtree.PQTree.reduce", 30, 45, 2),
        span("core.regime_check", 65, 75, 1),
        span("cli.parse_code_file", 85, 95, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [20, 15, 20, 10, 15, 10, 10]
    assert sum(selfs) == 100
    assert spans.self_time_mismatches(tree, selfs) == 0
    m = spans.layer_metrics(tree, selfs, 0, 0.0)
    assert m["pqtree.reduce_s"] == pytest.approx(25e-9)
    assert m["pqtree.reduce_calls"] == 2
    assert m["ordering.self_s"] == pytest.approx(20e-9)
    assert m["reconstruct.self_s"] == pytest.approx(15e-9)
    assert m["core.regime_check_s"] == pytest.approx(10e-9)
    tree[3].end = 31    # now overlaps its sibling: not self time any more
    assert spans.self_time_mismatches(tree, spans.self_times(tree)) == 1


def test_inclusive_time_counts_outermost_spans_only():
    tree = [
        span(spans.OP, 0, 100, None),
        span("geometry.open_closed_swap", 0, 50, 0),
        span("geometry.open_to_closed", 10, 40, 1),
        span("geometry.closed_to_open", 60, 90, 0),
    ]
    m = spans.layer_metrics(tree, spans.self_times(tree), 0, 0.0)
    assert m["geometry.swap_s"] == pytest.approx(80e-9)


def test_tracer_wraps_every_binding_site_and_restores_them(tmp_path):
    original = cc.reconstruct.co_order
    assert cc.cli.reconstruct_sparse is cc.reconstruct_sparse
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cc.reconstruct.co_order is cc.ordering.co_order is cc.co_order
        assert cc.reconstruct.co_order is not original
        assert cc.cli.reconstruct_sparse is cc.reconstruct.reconstruct_sparse
        ops = workloads.build("certify", 1, str(tmp_path))[0]
        for op in ops[:5]:
            tracer.begin_op(op.key)
            result = op.call()
            tracer.end_op()
            op.verify(result)
    finally:
        tracer.uninstall()
    assert cc.reconstruct.co_order is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.parse_code_file", "pqtree.PQTree.reduce",
            "reconstruct.rejection_certificate"} <= names
    selfs = spans.self_times(tracer.spans)
    assert spans.self_time_mismatches(tracer.spans, selfs) == 0
    assert sum(1 for s in tracer.spans if s.name == spans.OP) == 5


def test_end_op_closes_spans_a_timeout_left_open():
    tracer = spans.Tracer()
    tracer.begin_op("op")
    inner = spans.Span("core.regime_check", 0, tracer.op_id)
    inner.start = tracer.spans[0].start
    tracer.stack.append(len(tracer.spans))
    tracer.spans.append(inner)
    tracer.end_op()
    assert tracer.spans[0].error is None
    assert inner.error == "interrupted" and inner.end == tracer.spans[0].end
    selfs = spans.self_times(tracer.spans)
    assert spans.self_time_mismatches(tracer.spans, selfs) == 0
