"""Command-line interface.

Commands: check, realize, certificate, enumerate, normalize.  Input is
a code file with one codeword per line ("1100"), or "count codeword"
lines for multisets; blank lines and '#' comments are ignored.  Output
is plain text or a single JSON document (--format structured), with
rationals serialized as "p/q".  Output is deterministic: identical
invocations produce identical bytes.

Exit codes: 0 feasible, 1 infeasible, 2 unsupported, 3 size limit
exceeded, 64 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb
from typing import Optional

from .core import (
    CO,
    BitVector,
    CodeMultiset,
    Density,
    Geometry,
    InternalError,
    Regime,
    SensorMatrix,
    SizeLimit,
    ensure,
)
from .counting import (
    brute_force_dense,
    count_sparse,
    gf_dense_linear,
    gf_dense_circular,
    valid_dense_rows,
)
from .geometry import (
    Interval1D,
    IntervalArrangement,
    Kind,
    SensorSet,
    closed_to_open,
    extract_code_sparse,
    normalize_arbitrary,
    open_to_closed,
    realize_matrix,
)
from .reconstruct import (
    Bipartition,
    Infeasible,
    Multiordering,
    RejectionCertificate,
    Unsupported,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_multiset_sparse,
    reconstruct_sparse,
    rejection_certificate,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNSUPPORTED = 2
EXIT_SIZE_LIMIT = 3
EXIT_PARSE = 64


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def parse_code_file(text: str) -> CodeMultiset:
    """Parse codeword lines into a multiset (plain lines count once)."""
    entries: dict[BitVector, int] = {}
    length: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            count, word = 1, parts[0]
        elif len(parts) == 2:
            try:
                count = int(parts[0])
            except ValueError:
                raise ParseError("line %d: bad count %r" % (lineno, parts[0]))
            if count < 1:
                raise ParseError("line %d: count must be positive" % lineno)
            word = parts[1]
        else:
            raise ParseError("line %d: expected 'codeword' or 'count codeword'"
                             % lineno)
        if not word or any(ch not in "01" for ch in word):
            raise ParseError("line %d: codeword must be a 0/1 string" % lineno)
        if length is None:
            length = len(word)
        elif len(word) != length:
            raise ParseError("line %d: codeword length %d differs from %d"
                             % (lineno, len(word), length))
        w = BitVector.from_string(word)
        entries[w] = entries.get(w, 0) + count
    if not entries:
        raise ParseError("no codewords in input")
    return CodeMultiset.of(entries)


def _frac_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _interval_doc(iv: Interval1D) -> dict:
    doc: dict = {"kind": iv.kind.value}
    if iv.kind is Kind.PROPER:
        doc["lo"] = None if iv.lo is None else _frac_str(iv.lo)
        doc["hi"] = None if iv.hi is None else _frac_str(iv.hi)
        doc["lo_closed"] = iv.lo_closed
        doc["hi_closed"] = iv.hi_closed
    return doc


def _arrangement_doc(arr: IntervalArrangement, sensors: Optional[SensorSet]):
    doc = {
        "geometry": arr.geometry.value,
        "intervals": [_interval_doc(iv) for iv in arr.intervals],
    }
    if sensors is not None:
        doc["sensors"] = [_frac_str(p) for p in sensors.positions]
    return doc


def _interval_text(iv: Interval1D) -> str:
    if iv.kind is not Kind.PROPER:
        return iv.kind.value
    lo = "-inf" if iv.lo is None else _frac_str(iv.lo)
    hi = "+inf" if iv.hi is None else _frac_str(iv.hi)
    left = "[" if iv.lo_closed else "("
    right = "]" if iv.hi_closed else ")"
    return "%s%s, %s%s" % (left, lo, hi, right)


class _Emitter:
    def __init__(self, structured: bool):
        self.structured = structured
        self.doc: dict = {}
        self.lines: list[str] = []

    def set(self, key, value):
        self.doc[key] = value

    def text(self, line: str):
        self.lines.append(line)

    def flush(self):
        if self.structured:
            print(json.dumps(self.doc, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _certificate_doc(cert: RejectionCertificate) -> dict:
    return {
        "odd_cycle": [[a.to_string(), b.to_string()] for a, b in cert.odd_cycle],
        "witnesses": {str(i): r for i, r in sorted(cert.witnesses.items())},
    }


def _regime(args) -> Regime:
    geometry = Geometry.LINE if args.geometry == "line" else Geometry.CIRCLE
    density = Density.SPARSE if args.regime == "sparse" else Density.DENSE
    return Regime(geometry, density)


def _reconstruct(args, ms: CodeMultiset):
    """Dispatch to the right reconstruction; returns (result, regime)."""
    regime = _regime(args)
    if regime.geometry is Geometry.CIRCLE and regime.density is Density.DENSE:
        return reconstruct_dense_circular(ms.support), regime
    if args.multiset:
        if regime.density is Density.SPARSE:
            return reconstruct_multiset_sparse(ms, regime.geometry), regime
        return reconstruct_multiset_dense_linear(ms), regime
    words = ms.support
    if regime.density is Density.SPARSE:
        return reconstruct_sparse(words, regime.geometry), regime
    return reconstruct_dense_linear(words), regime


def _run_reconstruction(args, emit_feasible, emit_infeasible=None) -> int:
    """The flow of check, realize and normalize: parse and reconstruct,
    then emit an Unsupported or Infeasible refusal, extended by
    emit_infeasible(em, ms, regime) if given, or pass the feasible matrix
    to emit_feasible(em, m, regime)."""
    ms = parse_code_file(args.file.read())
    result, regime = _reconstruct(args, ms)
    em = _Emitter(args.format == "structured")
    if isinstance(result, Unsupported):
        status, code = "unsupported", EXIT_UNSUPPORTED
    elif isinstance(result, Infeasible):
        status, code = "infeasible", EXIT_INFEASIBLE
    else:
        m = (result.matrix(regime.geometry)
             if isinstance(result, Multiordering) else result)
        emit_feasible(em, m, regime)
        em.flush()
        return EXIT_FEASIBLE
    em.set("status", status)
    em.set("reason", result.reason)
    em.text("%s: %s" % (status, result.reason))
    if code == EXIT_INFEASIBLE and emit_infeasible is not None:
        emit_infeasible(em, ms, regime)
    em.flush()
    return code


def _emit_matrix(em: _Emitter, m: SensorMatrix, regime: Regime) -> None:
    em.set("status", "feasible")
    em.set("matrix", m.row_strings())
    em.text("feasible")
    for row in m.row_strings():
        em.text(row)


def _emit_arrangement(em: _Emitter, arr: IntervalArrangement,
                      sensors: SensorSet) -> None:
    em.set("arrangement", _arrangement_doc(arr, sensors))
    em.text("sensors: %s" % " ".join(_frac_str(p) for p in sensors.positions))
    for i, iv in enumerate(arr.intervals):
        em.text("interval %d: %s" % (i, _interval_text(iv)))


def _emit_odd_cycle(em: _Emitter, ms: CodeMultiset, regime: Regime) -> None:
    if regime != CO:
        return
    cert = rejection_certificate(ms.support)
    ensure(isinstance(cert, RejectionCertificate),
           "recognizer rejected a code with a bipartite incompatibility graph")
    em.set("certificate", _certificate_doc(cert))
    em.text("odd cycle (%d vertices):" % len(cert.odd_cycle))
    for a, b in cert.odd_cycle:
        em.text("  (%s, %s)" % (a.to_string(), b.to_string()))


def cmd_check(args) -> int:
    return _run_reconstruction(args, _emit_matrix, _emit_odd_cycle)


def cmd_realize(args) -> int:
    def emit(em, m, regime):
        arr, sensors = realize_matrix(m, regime)
        _emit_matrix(em, m, regime)
        _emit_arrangement(em, arr, sensors)
    return _run_reconstruction(args, emit)


def cmd_certificate(args) -> int:
    ms = parse_code_file(args.file.read())
    cert = rejection_certificate(ms.support)
    em = _Emitter(args.format == "structured")
    if isinstance(cert, Bipartition):
        em.set("status", "feasible")
        em.set("bipartition", {
            "%s,%s" % (a.to_string(), b.to_string()): c
            for (a, b), c in sorted(
                cert.coloring.items(),
                key=lambda kv: (kv[0][0].to_string(), kv[0][1].to_string()),
            )
        })
        em.text("bipartite: the code is realizable on the line (sparse)")
        em.flush()
        return EXIT_FEASIBLE
    em.set("status", "infeasible")
    em.set("certificate", _certificate_doc(cert))
    em.text("not bipartite: odd cycle of %d ordering relations"
            % len(cert.odd_cycle))
    for i in range(len(cert.odd_cycle)):
        a, b = cert.odd_cycle[i]
        wit = cert.witnesses.get(i)
        suffix = "" if wit is None else "  # witness row %d" % wit
        em.text("  (%s, %s)%s" % (a.to_string(), b.to_string(), suffix))
    em.flush()
    return EXIT_INFEASIBLE


def cmd_enumerate(args) -> int:
    regime = _regime(args)
    N, K = args.max_n, args.max_k
    em = _Emitter(args.format == "structured")
    try:
        if regime.density is Density.SPARSE:
            table = {
                (n, k): count_sparse(n, k, regime.geometry)
                for n in range(N + 1)
                for k in range(K + 1)
            }
        else:
            gf = (gf_dense_linear if regime.geometry is Geometry.LINE
                  else gf_dense_circular)(N, K)
            table = {(n, k): gf.count(n, k)
                     for n in range(N + 1) for k in range(K + 1)}
        if args.oracle:
            for n in range(N + 1):
                if regime.density is Density.DENSE:
                    bf = brute_force_dense(n, regime.geometry)
                    expected = [bf.count(n, k) for k in range(K + 1)]
                else:
                    if n > 12:
                        raise SizeLimit("sparse oracle is limited to n <= 12")
                    rows = len(valid_dense_rows(n, regime.geometry))
                    expected = [comb(rows, k) for k in range(K + 1)]
                for k in range(K + 1):
                    if expected[k] != table[(n, k)]:
                        raise InternalError(
                            "oracle mismatch at n=%d k=%d" % (n, k))
    except SizeLimit as exc:
        em.set("status", "size-limit")
        em.set("reason", str(exc))
        em.text("size limit: %s" % exc)
        em.flush()
        return EXIT_SIZE_LIMIT
    em.set("status", "feasible")
    em.set("counts", {
        "%d,%d" % key: v for key, v in sorted(table.items())
    })
    header = "n\\k\t" + "\t".join(str(k) for k in range(K + 1))
    em.text(header)
    for n in range(N + 1):
        em.text(str(n) + "\t" + "\t".join(
            str(table[(n, k)]) for k in range(K + 1)))
    em.flush()
    return EXIT_FEASIBLE


def cmd_normalize(args) -> int:
    def emit(em, m, regime):
        arr, sensors = realize_matrix(m, regime)
        if args.transform == "snap":
            out = normalize_arbitrary(arr, sensors)
        elif args.transform == "close":
            out = open_to_closed(arr)
        else:
            out = closed_to_open(open_to_closed(arr))
        _, back = extract_code_sparse(out, sensors)
        ensure(back.column_set() == m.column_set(),
               "normalization changed the sparse code")
        em.set("status", "feasible")
        em.text("feasible")
        _emit_arrangement(em, out, sensors)
    return _run_reconstruction(args, emit)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="convexcodes",
                description="Decide and realize 1-D convex neural codes.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_file=True, with_regime=True):
        if with_file:
            sp.add_argument("file", type=argparse.FileType("r"),
                            help="code file: one codeword per line, or"
                                 " 'count codeword'; '#' starts a comment")
        sp.add_argument("--geometry", choices=["line", "circle"],
                        default="line")
        if with_regime:
            sp.add_argument("--regime", choices=["sparse", "dense"],
                            default="sparse")
            sp.add_argument("--multiset", action="store_true",
                            help="honor codeword multiplicities exactly")
        sp.add_argument("--format", choices=["text", "structured"],
                        default="text")

    sp = sub.add_parser("check", help="decide feasibility")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("realize", help="construct an interval arrangement")
    common(sp)
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("certificate",
                        help="bipartition or odd-cycle certificate (line, sparse)")
    common(sp, with_regime=False)
    sp.set_defaults(fn=cmd_certificate)

    sp = sub.add_parser("enumerate", help="count discrete interval sets")
    common(sp, with_file=False)
    sp.add_argument("--max-n", type=int, default=5)
    sp.add_argument("--max-k", type=int, default=10)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against brute force")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("normalize", help="apply a topology normalization"
                                          " to a realization of the code")
    common(sp)
    sp.add_argument("--transform", choices=["snap", "close", "open"],
                    default="snap",
                    help="snap: half-open intervals at sensors;"
                         " close/open: all-closed or all-open variant")
    sp.set_defaults(fn=cmd_normalize)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print("size limit: %s" % exc, file=sys.stderr)
        return EXIT_SIZE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
