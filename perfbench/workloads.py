"""The four workloads: seeded inputs, the ops run on them, and their checks.

An op is one public call into the library, or one in-process
``convexcodes.cli.main([...])`` with stdout captured.  Library entry
points are looked up on their module at call time, so wrappers the
traced run installs on those modules are the ones called.

Families climb doubling ladders (each rung doubles the size), so the
cost ratio between the top two rungs shows how cost grows: ~2 for the
paper's linear claim, ~4 quadratic, ~8 cubic.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import convexcodes as cc
import convexcodes.cli
import check
import gen

# Rungs of each family.  The decide nested ladder keeps n = 400, where
# the PQ-tree's recursive frontier overflows the interpreter stack.
STAIRCASE = (250, 500, 1000)
NESTED = (100, 200, 400)
DECIDE_SENSORS = (160, 320, 640)
LINE_SENSORS = (80,) + DECIDE_SENSORS
DENSE_INTERVALS = (64, 128, 256)
CERTIFY_SENSORS = (20, 40, 80)
REALIZE_SENSORS = (56, 112, 224)
GF_CAPS = ((4, 10), (8, 20), (16, 40))
CLI_ORACLE = (10, 20)      # --max-n, --max-k: brute force covers n <= 10
ORACLE_N = 10


@dataclass
class Op:
    family: str     # doubling_ratio compares rungs within a family
    name: str
    rung: int       # 0 for ops outside any ladder
    call: Callable[[], Any]
    units: int      # 1-bits of the input, or table cells for counting
    verify: Callable[[Any], None]   # raises check.Mismatch

    @property
    def key(self) -> str:
        return "%s/%s/%s" % (self.family, self.name, self.rung)


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cc.cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code
        return rc, out.getvalue()
    return call


def _masks(code) -> set[int]:
    return {w.mask for w in code.words}


def _write(prefix: str, name: str, text: str) -> str:
    path = prefix + name
    with open(path, "w") as fh:
        fh.write(text)
    return path


# -- library-result checks ----------------------------------------------------


def _counts(ms) -> Counter:
    return Counter({w.mask: c for w, c in ms.entries.items()})


def _matrix(k: int, expected: Counter, circular: bool):
    def verify(m):
        check.require(type(m).__name__ == "SensorMatrix",
                      "expected a matrix, got %s" % type(m).__name__)
        rows, n = check.matrix_rows(m)
        check.check_matrix(rows, n, k, circular, expected)
    return verify


def _dense_columns(k: int, support: set[int], counts: Counter | None):
    def verify(mo):
        check.require(type(mo).__name__ == "Multiordering",
                      "expected a multiordering, got %s" % type(mo).__name__)
        cols = [c.mask for c in mo.columns]
        check.require(set(cols) == support, "support differs from input")
        expected = counts if counts is not None else Counter(cols)
        check.check_columns(cols, k, False, expected, dense=True)
    return verify


def _infeasible(result):
    check.require(type(result).__name__ == "Infeasible",
                  "expected Infeasible, got %s" % type(result).__name__)


# -- workloads ----------------------------------------------------------------


def decide(rng: random.Random, prefix: str) -> list[Op]:
    """Library calls only: PQ reduction, the ordering summary and the core
    matrix self-checks do nearly all the work."""
    LINE, CIRCLE = cc.Geometry.LINE, cc.Geometry.CIRCLE
    ops = []
    for n in STAIRCASE:
        code = gen.staircase(n, rng)
        u = gen.ones(code)
        ops.append(Op("staircase", "sparse", n,
                      lambda c=code: cc.reconstruct_sparse(c, LINE), u,
                      _matrix(code.k, Counter(_masks(code)), False)))
        # even n: the last singleton has no comparable word, so no HCO
        ops.append(Op("staircase", "dense", n,
                      lambda c=code: cc.reconstruct_dense_linear(c), u,
                      _infeasible))
    for n in NESTED:
        code = gen.nested(n, rng)
        ops.append(Op("nested", "sparse", n,
                      lambda c=code: cc.reconstruct_sparse(c, LINE),
                      gen.ones(code), _matrix(code.k, Counter(_masks(code)), False)))
    for family, make, geometry, ladder in (
            ("line", gen.line_intervals, LINE, LINE_SENSORS),
            ("circle", gen.circle_arcs, CIRCLE, DECIDE_SENSORS)):
        for s in ladder:
            code = make(s, rng)
            ops.append(Op(family, "sparse", s,
                          lambda c=code, g=geometry: cc.reconstruct_sparse(c, g),
                          gen.ones(code),
                          _matrix(code.k, Counter(_masks(code)),
                                  geometry is CIRCLE)))
    for k in DENSE_INTERVALS:
        code, ms = gen.dense_complete(k, rng)
        support = _masks(code)
        counts = _counts(ms)
        u, um = gen.ones(code), gen.multiset_ones(ms)
        ops.append(Op("dense", "set", k,
                      lambda c=code: cc.reconstruct_dense_linear(c), u,
                      _dense_columns(k, support, None)))
        ops.append(Op("dense", "multiset", k,
                      lambda m=ms: cc.reconstruct_multiset_dense_linear(m), um,
                      _dense_columns(k, support, counts)))
        ops.append(Op("dense", "multiset_sparse", k,
                      lambda m=ms: cc.reconstruct_multiset_sparse(m, LINE), um,
                      _matrix(k, counts, False)))
    return ops


def certify(rng: random.Random, prefix: str) -> list[Op]:
    """CLI certificate and check ops: the cubic incompatibility graph of
    rejection_certificate dominates."""
    ops = []
    for s in CERTIFY_SENSORS:
        bad = gen.obstruction(s, rng)
        good = gen.line_intervals(s, rng)
        for family, code, feasible in (("obstruction", bad, False),
                                       ("feasible", good, True)):
            path = _write(prefix, "certify-%s-%d.txt" % (family, s),
                          gen.code_text(code.words))
            if not feasible:
                path_bad = path
            words, u = _masks(code), gen.ones(code)
            ops.append(Op(family, "check", s,
                          _cli(["check", path, "--format", "structured"]), u,
                          lambda r, w=words, k=code.k, f=feasible:
                          check.check_cli_check(*r, w, k, f)))
            ops.append(Op(family, "certificate", s,
                          _cli(["certificate", path]), u,
                          lambda r, w=words, f=feasible:
                          check.check_cli_certificate(*r, w, f, False)))
        ops.append(Op("obstruction", "check-circle", s,
                      _cli(["check", path_bad, "--geometry", "circle",
                            "--format", "structured"]), gen.ones(bad),
                      check.check_cli_infeasible))
    return ops


def realize(rng: random.Random, prefix: str) -> list[Op]:
    """CLI realize and normalize ops: exact-Fraction construction,
    extraction, normalization and JSON serialization dominate."""
    ops = []
    for s in REALIZE_SENSORS:
        line, circle = gen.line_intervals(s, rng), gen.circle_arcs(s, rng)
        lpath = _write(prefix, "realize-line-%d.txt" % s,
                       gen.code_text(line.words))
        cpath = _write(prefix, "realize-circle-%d.txt" % s,
                       gen.code_text(circle.words))
        lw, cw = _masks(line), _masks(circle)
        ops.append(Op("line", "realize", s,
                      _cli(["realize", lpath, "--format", "structured"]),
                      gen.ones(line),
                      lambda r, w=lw, k=line.k:
                      check.check_cli_arrangement(*r, w, k, False, True)))
        ops.append(Op("circle", "realize", s,
                      _cli(["realize", cpath, "--geometry", "circle",
                            "--format", "structured"]),
                      gen.ones(circle),
                      lambda r, w=cw, k=circle.k:
                      check.check_cli_arrangement(*r, w, k, True, True)))
        for transform in ("snap", "close", "open"):
            ops.append(Op("line", "normalize-" + transform, s,
                          _cli(["normalize", lpath, "--transform", transform,
                                "--format", "structured"]),
                          gen.ones(line),
                          lambda r, w=lw, k=line.k:
                          check.check_cli_arrangement(*r, w, k, False, False)))
    return ops


def brute_force_tables(max_k: int) -> dict:
    """geometry -> {(n, k): count} for n <= ORACLE_N, zeros included."""
    tables = {}
    for geometry in (cc.Geometry.LINE, cc.Geometry.CIRCLE):
        cells = {}
        for n in range(ORACLE_N + 1):
            table = cc.brute_force_dense(n, geometry)
            for k in range(max_k + 1):
                cells[(n, k)] = table.count(n, k)
        tables[geometry.value] = cells
    return tables


class _Ladder:
    """Verified count tables of one geometry, by cap.  A table must agree
    with brute force for n <= ORACLE_N, and with the table already
    verified at the same cap (library vs CLI) or else the smaller cap."""

    def __init__(self, oracle: dict):
        self.oracle = oracle
        self.tables: dict = {}

    def verifier(self, N: int, K: int, smaller_N: int | None, from_cli: bool):
        def verify(result):
            if from_cli:
                table = check.cli_counts(*result, N, K)
            else:
                check.require(type(result).__name__ == "CountTable",
                              "expected a CountTable, got %s"
                              % type(result).__name__)
                table = {(n, k): result.count(n, k)
                         for n in range(N + 1) for k in range(K + 1)}
            check.check_table(table, N, K, self.oracle,
                              self.tables.get(N, self.tables.get(smaller_N)))
            self.tables.setdefault(N, table)
        return verify


def _enumerate_argv(regime: str, geometry: str, N: int, K: int,
                    oracle: bool) -> list[str]:
    return (["enumerate", "--regime", regime, "--geometry", geometry,
             "--max-n", str(N), "--max-k", str(K), "--format", "structured"]
            + (["--oracle"] if oracle else []))


def enumerate_() -> list[Op]:
    """Counting only.  The linear and circular generating functions drive
    the same BivariatePoly kernel very differently; the CLI ladders add
    table emission on top; the oracle ops run brute_force_dense.  The
    inputs are fixed caps, the same for every seed."""
    oracle = brute_force_tables(max(K for _, K in GF_CAPS))
    N0, K0 = CLI_ORACLE
    cells0 = (N0 + 1) * (K0 + 1)
    ops = []
    for geometry, fn in (("line", "gf_dense_linear"),
                         ("circle", "gf_dense_circular")):
        ladder = _Ladder(oracle[geometry])
        smaller_N = None
        for N, K in GF_CAPS:
            cells = (N + 1) * (K + 1)
            ops.append(Op("gf_" + geometry, fn, N,
                          lambda f=fn, N=N, K=K: getattr(cc, f)(N, K), cells,
                          ladder.verifier(N, K, smaller_N, False)))
            ops.append(Op("cli_" + geometry, "enumerate", N,
                          _cli(_enumerate_argv("dense", geometry, N, K, False)),
                          cells, ladder.verifier(N, K, smaller_N, True)))
            smaller_N = N
        ops.append(Op("cli_" + geometry, "enumerate-oracle", 0,
                      _cli(_enumerate_argv("dense", geometry, N0, K0, True)),
                      cells0,
                      lambda r, o=oracle[geometry]: check.check_table(
                          check.cli_counts(*r, N0, K0), N0, K0, o, None)))
    sparse = check.sparse_line_counts(N0, K0)
    ops.append(Op("cli_sparse", "enumerate-oracle", 0,
                  _cli(_enumerate_argv("sparse", "line", N0, K0, True)), cells0,
                  lambda r: check.check_table(check.cli_counts(*r, N0, K0),
                                              N0, K0, sparse, None)))
    return ops


# Rounds per cycle: enough that a cycle runs >= 100 ops, and each round
# draws its own seeded instances, so percentiles and ratios rest on
# several inputs per rung rather than on one draw.
ROUNDS = {"decide": 4, "certify": 14, "realize": 10, "enumerate": 14}


def build(workload: str, seed: int, workdir: str) -> list[list[Op]]:
    """One cycle: ROUNDS[workload] rounds, each running every op kind of
    the workload once, in the order they run."""
    if workload == "enumerate":
        return [enumerate_()] * ROUNDS[workload]
    builder = {"decide": decide, "certify": certify, "realize": realize}[workload]
    return [builder(random.Random("%s:%d:%d" % (workload, seed, r)),
                    os.path.join(workdir, "r%d-" % r))
            for r in range(ROUNDS[workload])]
