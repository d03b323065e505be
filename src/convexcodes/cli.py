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
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from typing import Optional

from .core import (
    BitVector,
    CodeMultiset,
    Density,
    Geometry,
    InternalError,
    Regime,
    SensorMatrix,
    SizeLimit,
)
from .counting import (
    ORACLE_MAX_N,
    brute_force_table,
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

_EXIT_CODES = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE,
               "unsupported": EXIT_UNSUPPORTED, "size-limit": EXIT_SIZE_LIMIT}

# reconstruct_multiset_* lay out one column per counted word
MAX_MULTISET_COLUMNS = 1 << 20
# enumerate: (max_n + 1)(max_k + 1) table cells, and max_n of a dense table
MAX_ENUMERATE_CELLS = 1 << 16
MAX_DENSE_N = 64


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits only; int() alone
    also takes '+2', '1_0', surrounding spaces and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer: %r" % text)
    return int(text)


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
                count = _ascii_int(parts[0])
            except ValueError:
                raise ParseError("line %d: bad count %r" % (lineno, parts[0]))
            if count < 1:
                raise ParseError("line %d: count must be positive" % lineno)
            word = parts[1]
        else:
            raise ParseError("line %d: expected 'codeword' or 'count codeword'"
                             % lineno)
        try:
            w = BitVector.from_string(word)
        except ValueError:
            raise ParseError("line %d: codeword must be a 0/1 string" % lineno)
        if length is None:
            length = w.n
        elif w.n != length:
            raise ParseError("line %d: codeword length %d differs from %d"
                             % (lineno, w.n, length))
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


def _arrangement_doc(arr: IntervalArrangement, sensors: SensorSet):
    return {
        "geometry": arr.geometry.value,
        "intervals": [_interval_doc(iv) for iv in arr.intervals],
        "sensors": [_frac_str(p) for p in sensors.positions],
    }


def _interval_text(iv: Interval1D) -> str:
    if iv.kind is not Kind.PROPER:
        return iv.kind.value
    lo = "-inf" if iv.lo is None else _frac_str(iv.lo)
    hi = "+inf" if iv.hi is None else _frac_str(iv.hi)
    left = "[" if iv.lo_closed else "("
    right = "]" if iv.hi_closed else ")"
    return "%s%s, %s%s" % (left, lo, hi, right)


# the writer of each scalar type, by exact type: a scalar item of a list
# or dict is written by one lookup, with no call of _json_text
_scalar = {str: _quote, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}.get


def _json_text(o, indent: str = "") -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for str
    keys and str, int, bool, None, list, tuple and dict values; any other
    type, and a key that is not a str, is a TypeError.  json.dumps with
    an indent runs its pure-Python encoder; here only the strings are
    encoded, by the same C function json.dumps calls without one."""
    f = _scalar(type(o))
    if f:
        return f(o)
    # subclasses of str and int
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [f(v) if (f := _scalar(type(v))) else _json_text(v, inner)
                 for v in o]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + (f(v) if (f := _scalar(type(v)))
                                     else _json_text(v, inner))
                 for k, v in sorted(o.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(o).__name__)


class _Emitter:
    """The output of one command: a document in structured mode, lines
    in text mode.  Each command builds only the form it prints; the
    status goes in the document in both, for main's exit code."""

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
            print(_json_text(self.doc))
        else:
            for line in self.lines:
                print(line)


def _regime(args) -> Regime:
    geometry = Geometry.LINE if args.geometry == "line" else Geometry.CIRCLE
    density = Density.SPARSE if args.regime == "sparse" else Density.DENSE
    return Regime(geometry, density)


def _refuse(em: _Emitter, status: str, reason: str) -> None:
    em.set("status", status)
    em.set("reason", reason)
    em.text("%s: %s" % (status.replace("-", " "), reason))


def _reconstruct(args, em: _Emitter):
    """Parse and reconstruct for check, realize and normalize.  Returns
    (ms, regime, result): result is the feasible matrix, or the
    Unsupported or Infeasible refusal once it is on em."""
    ms = parse_code_file(args.file)
    regime = _regime(args)
    if regime.geometry is Geometry.CIRCLE and regime.density is Density.DENSE:
        result = reconstruct_dense_circular(ms.support)
    elif args.multiset:
        if ms.total() > MAX_MULTISET_COLUMNS:
            raise SizeLimit("--multiset is limited to 2^20 columns, the counts"
                            " sum to %d" % ms.total())
        result = (reconstruct_multiset_sparse(ms, regime.geometry)
                  if regime.density is Density.SPARSE
                  else reconstruct_multiset_dense_linear(ms))
    elif regime.density is Density.SPARSE:
        result = reconstruct_sparse(ms.support, regime.geometry)
    else:
        result = reconstruct_dense_linear(ms.support)
    if isinstance(result, (Unsupported, Infeasible)):
        _refuse(em, "unsupported" if isinstance(result, Unsupported)
                else "infeasible", result.reason)
        return ms, regime, result
    if isinstance(result, Multiordering):
        result = result.matrix()
    return ms, regime, result


def _emit_matrix(em: _Emitter, m: SensorMatrix) -> None:
    rows = m.row_strings()
    em.set("status", "feasible")
    if em.structured:
        em.set("matrix", rows)
    else:
        em.text("feasible")
        em.lines.extend(rows)


def _emit_arrangement(em: _Emitter, arr: IntervalArrangement,
                      sensors: SensorSet) -> None:
    if em.structured:
        em.set("arrangement", _arrangement_doc(arr, sensors))
        return
    em.text("sensors: %s" % " ".join(_frac_str(p) for p in sensors.positions))
    for i, iv in enumerate(arr.intervals):
        em.text("interval %d: %s" % (i, _interval_text(iv)))


def _emit_odd_cycle(em: _Emitter, cert: RejectionCertificate) -> None:
    """The odd cycle of certificate and of a check refusal's evidence,
    each pair with its witness row where it has one."""
    pairs = [(a.to_string(), b.to_string()) for a, b in cert.odd_cycle]
    if em.structured:
        em.set("certificate", {
            "odd_cycle": pairs,
            "witnesses": {str(i): r for i, r in cert.witnesses.items()},
        })
        return
    em.text("not bipartite: odd cycle of %d ordering relations" % len(pairs))
    for i, (a, b) in enumerate(pairs):
        wit = cert.witnesses.get(i)
        suffix = "" if wit is None else "  # witness row %d" % wit
        em.text("  (%s, %s)%s" % (a, b, suffix))


def cmd_check(args, em: _Emitter) -> None:
    _, _, result = _reconstruct(args, em)
    if isinstance(result, SensorMatrix):
        _emit_matrix(em, result)
    elif isinstance(result, Infeasible) and result.evidence is not None:
        _emit_odd_cycle(em, result.evidence)


def cmd_realize(args, em: _Emitter) -> None:
    _, regime, m = _reconstruct(args, em)
    if isinstance(m, SensorMatrix):
        arr, sensors = realize_matrix(m, regime)
        _emit_matrix(em, m)
        _emit_arrangement(em, arr, sensors)


def cmd_certificate(args, em: _Emitter) -> None:
    ms = parse_code_file(args.file)
    if args.geometry == "circle":
        _refuse(em, "unsupported",
                "rejection certificates are implemented on the line only")
        return
    cert = rejection_certificate(ms.support)
    if isinstance(cert, Bipartition):
        em.set("status", "feasible")
        if em.structured:
            em.set("ordering", [w.to_string() for w in cert.ordering])
        em.text("bipartite: the code is realizable on the line (sparse)")
        return
    em.set("status", "infeasible")
    _emit_odd_cycle(em, cert)


def _counts_doc(table: dict) -> dict:
    # the writer sorts the "n,k" keys
    return {"%d,%d" % key: v for key, v in table.items()}


def _table_lines(table: dict, N: int, K: int) -> list[str]:
    lines = ["n\\k\t" + "\t".join(str(k) for k in range(K + 1))]
    for n in range(N + 1):
        lines.append(str(n) + "\t" + "\t".join(
            str(table[(n, k)]) for k in range(K + 1)))
    return lines


def cmd_enumerate(args, em: _Emitter) -> None:
    regime = _regime(args)
    N, K = args.max_n, args.max_k
    dense = regime.density is Density.DENSE
    # the sparse oracle's row listing is this command's own loop
    if args.oracle and not dense and N > ORACLE_MAX_N:
        raise SizeLimit("sparse oracle is limited to n <= %d" % ORACLE_MAX_N)
    if (N + 1) * (K + 1) > MAX_ENUMERATE_CELLS:
        raise SizeLimit("enumerate is limited to 2^16 table cells,"
                        " (max-n + 1)(max-k + 1) = %d" % ((N + 1) * (K + 1)))
    if dense and N > MAX_DENSE_N:
        raise SizeLimit("dense enumerate is limited to max-n <= %d"
                        % MAX_DENSE_N)
    # the dense oracle refuses its own n before anything is counted
    bf = brute_force_table(N, regime.geometry) if args.oracle and dense else None
    if not dense:
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
        if dense:
            expected = {key: bf.count(*key) for key in table}
        else:
            rows = [len(valid_dense_rows(n, regime.geometry))
                    for n in range(N + 1)]
            expected = {(n, k): comb(rows[n], k) for n, k in table}
        # table's keys run through n, and through k within each n
        for key, v in table.items():
            if expected[key] != v:
                raise InternalError("oracle mismatch at n=%d k=%d" % key)
    em.set("status", "feasible")
    if em.structured:
        em.set("counts", _counts_doc(table))
    else:
        em.lines.extend(_table_lines(table, N, K))


def cmd_normalize(args, em: _Emitter) -> None:
    _, regime, m = _reconstruct(args, em)
    if not isinstance(m, SensorMatrix):
        return
    arr, sensors = realize_matrix(m, regime)
    if args.transform == "snap":
        out = normalize_arbitrary(arr, sensors)
    elif args.transform == "close":
        out = open_to_closed(arr, sensors=sensors)
    else:
        out = closed_to_open(open_to_closed(arr, sensors=sensors),
                             sensors=sensors)
    em.set("status", "feasible")
    em.text("feasible")
    _emit_arrangement(em, out, sensors)


def _code_text(path: str) -> str:
    """The text of the code file at path, or of stdin for '-'; a file is
    closed once read."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise argparse.ArgumentTypeError("can't open '%s': %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise argparse.ArgumentTypeError("can't read '%s': %s" % (path, exc))


def _cap(text: str) -> int:
    try:
        value = _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _code_args(sp, with_file=True, with_regime=True):
    if with_file:
        sp.add_argument("file", type=_code_text,
                        help="code file: one codeword per line, or"
                             " 'count codeword'; '#' starts a comment")
    sp.add_argument("--geometry", choices=["line", "circle"], default="line")
    if with_regime:
        sp.add_argument("--regime", choices=["sparse", "dense"],
                        default="sparse")
    if with_file and with_regime:
        sp.add_argument("--multiset", action="store_true",
                        help="honor codeword multiplicities exactly")
    sp.add_argument("--format", choices=["text", "structured"],
                    default="text")


def _enumerate_args(sp):
    _code_args(sp, with_file=False)
    sp.add_argument("--max-n", type=_cap, default=5)
    sp.add_argument("--max-k", type=_cap, default=10)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against brute force")


def _normalize_args(sp):
    _code_args(sp)
    sp.add_argument("--transform", choices=["snap", "close", "open"],
                    default="snap",
                    help="snap: half-open intervals at sensors;"
                         " close/open: all-closed or all-open variant")


# name -> (help, the function that adds the command's arguments)
_COMMANDS = {
    "check": ("decide feasibility", _code_args),
    "realize": ("construct an interval arrangement", _code_args),
    "certificate": ("bipartition or odd-cycle certificate (line, sparse)",
                    lambda sp: _code_args(sp, with_regime=False)),
    "enumerate": ("count discrete interval sets", _enumerate_args),
    "normalize": ("apply a topology normalization to a realization of the"
                  " code", _normalize_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all five commands."""
    p = _Parser(prog="convexcodes",
                description="Decide and realize 1-D convex neural codes.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return p


# the parser of every main call in the process; a parse leaves it as it
# was, since each builds a fresh namespace
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  Commands only fill the emitter; the status it
    holds picks the exit code.  A SizeLimit raised anywhere becomes a
    size-limit refusal in place of whatever the command had emitted."""
    if argv is None:
        argv = sys.argv[1:]
    # argparse would take a '--' before a command for the command's name
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        argv = argv[1:]
    args = _parser().parse_args(argv)
    em = _Emitter(args.format == "structured")
    try:
        # looked up by name at each run, so a cmd_ function replaced after
        # import (a tracer's wrapper) is the one that runs
        globals()["cmd_" + args.command](args, em)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        em = _Emitter(em.structured)
        _refuse(em, "size-limit", str(exc))
    em.flush()
    return _EXIT_CODES[em.doc["status"]]


if __name__ == "__main__":
    sys.exit(main())
