"""Span tracing of the library from outside, for the traced run.

``Tracer.install`` replaces every public function of the seven layer
modules at each of its binding sites -- the module attribute, every
``from .x import y`` copy in another ``convexcodes`` module and the
package namespace -- plus a few public methods, with a wrapper that
records a span.  ``uninstall`` puts the originals back.  Functions the
library calls by private name, and private helpers, are not wrapped:
their time is self time of the nearest wrapped caller.

A span records name, start, end (``perf_counter_ns``), parent span and
op id; spans stay in memory until ``write``.  Self time is a span's
duration minus its children's, so within one op the self times of all
spans sum exactly to the op span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("cli", "reconstruct", "ordering", "pqtree", "core", "geometry",
          "counting")

METHODS = {
    "pqtree": (("PQTree", "reduce"), ("PQTree", "frontier"),
               ("PQTree", "summary")),
    "core": (("SensorMatrix", "from_columns"), ("SensorMatrix", "column_set"),
             ("SensorMatrix", "column_multiset")),
    "counting": (("BivariatePoly", "__mul__"),),
    "reconstruct": (("RejectionCertificate", "verify"),),
}

OP = "bench.op"


def _reconstruct_info(args, result):
    # (output columns, distinct input words) for columns_per_word
    kind = type(result).__name__
    if kind == "Multiordering":
        cols = len(result.columns)
    elif kind == "SensorMatrix":
        cols = result.n
    else:
        return None
    words = args[0]
    return cols, len(words.entries) if hasattr(words, "entries") else len(words)


def _certificate_info(args, result):
    n = len(args[0])
    cycle = len(result.odd_cycle) if hasattr(result, "odd_cycle") else 0
    return cycle, n * (n - 1)


# span name -> (args, result) -> tuple of counts kept on the span
INFO = {
    "pqtree.PQTree.reduce": lambda args, result: (len(args[1]),),
    "ordering.co_order": lambda a, r: (len(r.tree_summary or ""),),
    "ordering.cco_order": lambda a, r: (len(r.tree_summary or ""),),
    "reconstruct.rejection_certificate": _certificate_info,
    "geometry.evaluate_codeword": lambda a, r: (a[0].k,),
    "geometry.normalize_arbitrary": lambda a, r: (a[0].k * len(a[1]),),
}
for _name in ("reconstruct_sparse", "reconstruct_dense_linear",
              "reconstruct_multiset_sparse",
              "reconstruct_multiset_dense_linear"):
    INFO["reconstruct." + _name] = _reconstruct_info


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = None
        self.error = self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op_keys: list[str] = []
        self.op_id: int | None = None
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("convexcodes")
        mods = {n: importlib.import_module("convexcodes." + n) for n in LAYERS}
        sites = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), fn)
                for site in sites:
                    for name, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, name, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = "%s.%s.%s" % (layer, cls_name, meth)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patch(cls, meth, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def _patch(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        info = INFO.get(name)
        materialize = name == "pqtree.PQTree.reduce"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            if materialize:
                args = (args[0], list(args[1]))
            span = Span(name, stack[-1], self.op_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                stack.pop()
                raise
            span.end = clock()
            stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result
        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, key: str) -> None:
        self.op_id = len(self.op_keys)
        self.op_keys.append(key)
        span = Span(OP, None, self.op_id)
        self.stack[:] = [len(self.spans)]
        self.spans.append(span)
        span.start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        root, *open_spans = self.stack
        # a timeout can interrupt wrappers before they close their spans
        for idx in open_spans:
            self.spans[idx].end = end
            self.spans[idx].error = "interrupted"
        self.spans[root].end = end
        self.stack.clear()
        self.op_id = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                    "op_key": self.op_keys[s.op], "error": s.error,
                    "info": s.info}) + "\n")


# -- derived figures ---------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Duration minus the children's durations, per span (ns)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def self_time_mismatches(spans: list[Span], selfs: list[int]) -> int:
    """Ops whose span tree is not well nested (a child outside its parent
    or overlapping a sibling, so that subtracting children's durations
    would not give self time) or whose self times do not sum to the op
    span's duration."""
    bad: set[int] = set()
    children: dict[int, list[Span]] = {}
    total: dict[int, int] = {}
    root: dict[int, int] = {}
    for s, t in zip(spans, selfs):
        total[s.op] = total.get(s.op, 0) + t
        if s.parent is None:
            root[s.op] = s.end - s.start
        else:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end or p.op != s.op:
                bad.add(s.op)
            children.setdefault(s.parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda c: c.start)
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                bad.add(a.op)
    bad.update(op for op, d in root.items() if total.get(op) != d)
    return len(bad)


def _inclusive(spans: list[Span], names: set[str]) -> int:
    """Summed duration of spans named in names, outermost only, so a
    dispatcher and the function it calls are not counted twice."""
    total = 0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


# (metric name, unit) in the order the traced run reports them
LAYER_METRICS = (
    ("pqtree.reduce_s", "s"), ("pqtree.reduce_calls", "count"),
    ("pqtree.reduce_failed", "count"), ("pqtree.us_per_reduced_label", "us"),
    ("pqtree.frontier_s", "s"), ("pqtree.summary_s", "s"),
    ("ordering.self_s", "s"), ("ordering.calls", "count"),
    ("ordering.summary_bytes", "bytes"),
    ("core.from_columns_s", "s"), ("core.column_set_s", "s"),
    ("core.column_multiset_s", "s"), ("core.regime_check_s", "s"),
    ("reconstruct.self_s", "s"), ("reconstruct.certificate_s", "s"),
    ("reconstruct.certificate_verify_s", "s"),
    ("reconstruct.cert_cycle_len", "count"),
    ("reconstruct.cert_vertices", "count"),
    ("reconstruct.columns_per_word", "ratio"),
    ("geometry.realize_s", "s"), ("geometry.extract_sparse_s", "s"),
    ("geometry.extract_dense_s", "s"), ("geometry.normalize_s", "s"),
    ("geometry.swap_s", "s"), ("geometry.contains_evals", "count"),
    ("counting.gf_linear_s", "s"), ("counting.gf_circular_s", "s"),
    ("counting.poly_mul_calls", "count"), ("counting.poly_mul_s", "s"),
    ("counting.oracle_s", "s"),
    ("cli.parse_s", "s"), ("cli.self_s", "s"), ("cli.out_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(spans: list[Span], selfs: list[int], out_bytes: int,
                  overhead: float) -> dict[str, float]:
    layer_self: dict[str, int] = {}
    count: dict[str, int] = {}
    info: dict[str, list] = {}
    failed_reduce = 0
    for s, t in zip(spans, selfs):
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + t
        count[s.name] = count.get(s.name, 0) + 1
        if s.info is not None:
            acc = info.setdefault(s.name, [0] * len(s.info))
            for i, v in enumerate(s.info):
                acc[i] += v
        if s.name == "pqtree.PQTree.reduce" and s.error == "ReductionFailed":
            failed_reduce += 1

    def secs(*names):
        return _inclusive(spans, set(names)) / 1e9

    def info_sum(names, i=0):
        return sum(info.get(n, [0] * (i + 1))[i] for n in names)

    reduce_s = secs("pqtree.PQTree.reduce")
    labels = info_sum(["pqtree.PQTree.reduce"])
    rec = [n for n in INFO if INFO[n] is _reconstruct_info]
    words = info_sum(rec, 1)
    cert = "reconstruct.rejection_certificate"
    return {
        "pqtree.reduce_s": reduce_s,
        "pqtree.reduce_calls": count.get("pqtree.PQTree.reduce", 0),
        "pqtree.reduce_failed": failed_reduce,
        "pqtree.us_per_reduced_label": reduce_s * 1e6 / labels if labels else 0.0,
        "pqtree.frontier_s": secs("pqtree.PQTree.frontier"),
        "pqtree.summary_s": secs("pqtree.PQTree.summary"),
        "ordering.self_s": layer_self.get("ordering", 0) / 1e9,
        "ordering.calls": (count.get("ordering.co_order", 0)
                           + count.get("ordering.cco_order", 0)),
        "ordering.summary_bytes": info_sum(["ordering.co_order",
                                            "ordering.cco_order"]),
        "core.from_columns_s": secs("core.SensorMatrix.from_columns"),
        "core.column_set_s": secs("core.SensorMatrix.column_set"),
        "core.column_multiset_s": secs("core.SensorMatrix.column_multiset"),
        "core.regime_check_s": secs("core.regime_check"),
        "reconstruct.self_s": layer_self.get("reconstruct", 0) / 1e9,
        "reconstruct.certificate_s": secs(cert),
        "reconstruct.certificate_verify_s":
            secs("reconstruct.RejectionCertificate.verify"),
        "reconstruct.cert_cycle_len": info_sum([cert], 0),
        "reconstruct.cert_vertices": info_sum([cert], 1),
        "reconstruct.columns_per_word":
            info_sum(rec, 0) / words if words else 0.0,
        "geometry.realize_s": secs("geometry.realize_matrix"),
        "geometry.extract_sparse_s": secs("geometry.extract_code_sparse"),
        "geometry.extract_dense_s": secs("geometry.extract_code_dense"),
        "geometry.normalize_s": secs("geometry.normalize_arbitrary"),
        "geometry.swap_s": secs("geometry.open_to_closed",
                                "geometry.closed_to_open",
                                "geometry.open_closed_swap"),
        "geometry.contains_evals": info_sum(["geometry.evaluate_codeword",
                                             "geometry.normalize_arbitrary"]),
        "counting.gf_linear_s": secs("counting.gf_dense_linear"),
        "counting.gf_circular_s": secs("counting.gf_dense_circular"),
        "counting.poly_mul_calls": count.get("counting.BivariatePoly.__mul__", 0),
        "counting.poly_mul_s": secs("counting.BivariatePoly.__mul__"),
        "counting.oracle_s": secs("counting.brute_force_dense"),
        "cli.parse_s": secs("cli.parse_code_file"),
        "cli.self_s": layer_self.get("cli", 0) / 1e9,
        "cli.out_bytes": out_bytes,
        "trace.overhead_frac": overhead,
    }
