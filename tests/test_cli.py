import argparse
import gc
import io
import itertools
import json
import locale
import os
import pathlib
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import all_words, brute_orderable
from convexcodes import cli, counting
from convexcodes.cli import (
    EXIT_FEASIBLE,
    EXIT_INFEASIBLE,
    EXIT_PARSE,
    EXIT_SIZE_LIMIT,
    EXIT_UNSUPPORTED,
    ParseError,
    _json_text,
    build_parser,
    count_sparse,
    main,
    parse_code_file,
)
from convexcodes.core import (CO, BitVector, Code, Geometry, InternalError,
                              SensorMatrix, SizeLimit)
from convexcodes.counting import (
    CountTable,
    brute_force_table,
    valid_dense_rows,
)
from convexcodes.geometry import (
    Interval1D,
    IntervalArrangement,
    SensorSet,
    extract_code_sparse,
)
from convexcodes.reconstruct import (
    Multiordering,
    Unsupported,
    reconstruct_dense_circular,
    reconstruct_dense_linear,
    reconstruct_multiset_dense_linear,
    reconstruct_multiset_sparse,
    reconstruct_sparse,
)
from tucker import _staircase_with_triangle, kinds

WALKTHROUGH = "1100\n1000\n0100\n0000\n0001\n0110\n"
ODD_CYCLE = "1100\n1010\n0101\n1111\n"
PADDING = "100\n010\n001\n2 000\n"

# the exit code each printed status must come with
EXIT_OF_STATUS = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE,
                  "unsupported": EXIT_UNSUPPORTED, "size-limit": EXIT_SIZE_LIMIT}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseCodeFile:
    def test_plain_and_counted_lines(self):
        ms = parse_code_file("1100\n2 0011\n# comment\n\n1100  # tail\n")
        assert ms.entries[BitVector.from_string("1100")] == 2
        assert ms.entries[BitVector.from_string("0011")] == 2

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_code_file("110\n1x0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_code_file("110\n101\n1100\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_code_file("0 110\n")
        with pytest.raises(ParseError, match="no codewords"):
            parse_code_file("# nothing\n")

    def test_three_fields_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_code_file("10\n2 01 11\n")
        assert str(err.value) == (
            "line 2: expected 'codeword' or 'count codeword'")

    @pytest.mark.parametrize("count", ["+2", "1_0", "\u0662", "\uff12", "-+2",
                                       "-"])
    def test_counts_are_ascii_digits(self, count):
        # int() reads the first four as 2, 10, 2 and 2
        with pytest.raises(ParseError) as err:
            parse_code_file("10\n%s 01\n" % count)
        assert str(err.value) == "line 2: bad count %r" % count

    @pytest.mark.parametrize("count", ["0", "-3", "-0", "00"])
    def test_counts_must_be_positive(self, count):
        with pytest.raises(ParseError) as err:
            parse_code_file("10\n%s 01\n" % count)
        assert str(err.value) == "line 2: count must be positive"

    @pytest.mark.parametrize("word", ["1_0", "+10", "-10", "0b1",
                                      "\u0661\u0660"])
    def test_words_int_would_take_are_rejected(self, word):
        for text in ("10\n%s\n" % word, "10\n2 %s\n" % word):
            with pytest.raises(ParseError) as err:
                parse_code_file(text)
            assert str(err.value) == "line 2: codeword must be a 0/1 string"


class TestCheck:
    def test_feasible_line(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "check", path)
        assert code == EXIT_FEASIBLE
        assert out.splitlines()[0] == "feasible"

    def test_feasible_circle(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "check", path, "--geometry", "circle")
        assert code == EXIT_FEASIBLE

    def test_infeasible_with_certificate(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "check", path, "--format", "structured")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert len(doc["certificate"]["odd_cycle"]) % 2 == 1

    @pytest.mark.parametrize("multiset", [False, True])
    def test_infeasible_words_recognized_once(self, capsys, tmp_path,
                                              monkeypatch, multiset):
        # the certificate's core search starts from the row the
        # reconstruction found failing; it recognizes fewer words only
        import convexcodes.ordering as ordering

        code = _staircase_with_triangle(40)
        path = write(tmp_path, "c.txt", "".join(
            w.to_string() + "\n" for w in code.sorted_words()))
        sizes = []
        order = ordering._order

        def counted(words, regime):
            sizes.append(len(words))
            return order(words, regime)

        monkeypatch.setattr(ordering, "_order", counted)
        argv = ["check", path] + (["--multiset"] if multiset else [])
        status, out, _ = run(capsys, *argv)
        assert status == EXIT_INFEASIBLE
        assert out.splitlines()[1] == (
            "not bipartite: odd cycle of 3 ordering relations")
        assert sizes.count(len(code)) == 1
        assert max(sizes) == len(code)

    @pytest.mark.parametrize("multiset", [False, True])
    def test_refusal_ends_with_the_certificate(self, capsys, tmp_path,
                                               multiset):
        # on every CO-infeasible code of the exhaustive oracle's sizes and
        # every Tucker kind up to 7 words, check prints its refusal line
        # and then certificate's stdout, byte for byte
        codes = [Code.from_strings(combo)
                 for k, sizes in ((3, range(1, 5)), (4, range(1, 4)))
                 for size in sizes
                 for combo in itertools.combinations(all_words(k), size)
                 if not brute_orderable(combo, CO)]
        assert len(codes) == 33
        path = tmp_path / "c.txt"
        for code in codes + list(kinds(7).values()):
            path.write_text("".join(w.to_string() + "\n"
                                    for w in code.sorted_words()))
            status, out, _ = run(capsys, "check", str(path),
                                 *(["--multiset"] if multiset else []))
            refusal, _, rest = out.partition("\n")
            assert status == EXIT_INFEASIBLE
            assert refusal.startswith("infeasible: no CO column ordering")
            assert (EXIT_INFEASIBLE, rest, "") == run(capsys, "certificate",
                                                      str(path))

    def test_multiset_dense_rejection(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", "100\n010\n001\n000\n")
        code, out, _ = run(
            capsys, "check", path, "--regime", "dense", "--multiset"
        )
        assert code == EXIT_INFEASIBLE
        assert "000" in out

    def test_multiset_dense_feasible(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", PADDING)
        code, out, _ = run(
            capsys, "check", path, "--regime", "dense", "--multiset"
        )
        assert code == EXIT_FEASIBLE


def test_each_answer_builds_at_most_two_matrices(capsys, tmp_path,
                                                 monkeypatch):
    # the recognizer's own checked matrix, and the answer's, which its
    # self-check and the CLI share
    builds = []
    from_columns = SensorMatrix.from_columns.__func__

    def counted(cls, *args, **kwargs):
        builds.append(None)
        return from_columns(cls, *args, **kwargs)

    monkeypatch.setattr(SensorMatrix, "from_columns", classmethod(counted))
    ms = parse_code_file(PADDING)
    line, circle = Geometry.LINE, Geometry.CIRCLE
    for name, call in (
            ("sparse line", lambda: reconstruct_sparse(ms.support, line)),
            ("sparse circle", lambda: reconstruct_sparse(ms.support, circle)),
            ("dense line", lambda: reconstruct_dense_linear(ms.support)),
            ("dense circle", lambda: reconstruct_dense_circular(ms.support)),
            ("multiset line", lambda: reconstruct_multiset_sparse(ms, line)),
            ("multiset circle",
             lambda: reconstruct_multiset_sparse(ms, circle)),
            ("multiset dense", lambda: reconstruct_multiset_dense_linear(ms))):
        builds.clear()
        result = call()
        if isinstance(result, Multiordering):
            result.matrix()
        assert isinstance(result, (SensorMatrix, Multiordering,
                                   Unsupported)), name
        assert len(builds) <= 2, name
    path = write(tmp_path, "c.txt", PADDING)
    for command in ("check", "realize", "normalize"):
        for regime in ("sparse", "dense"):
            for multiset in ([], ["--multiset"]):
                argv = [command, path, "--regime", regime, *multiset]
                builds.clear()
                code, _, err = run(capsys, *argv)
                assert (code, err) == (EXIT_FEASIBLE, ""), argv
                assert len(builds) <= 2, argv


class TestRealize:
    def test_text_output(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "realize", path)
        assert code == EXIT_FEASIBLE
        lines = out.splitlines()
        assert lines[0] == "feasible"
        assert any(line.startswith("sensors:") for line in lines)
        assert any(line.startswith("interval 0:") for line in lines)

    def test_structured_fractions(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(
            capsys, "realize", path, "--geometry", "circle",
            "--format", "structured",
        )
        assert code == EXIT_FEASIBLE
        doc = json.loads(out)
        assert doc["status"] == "feasible"
        for s in doc["arrangement"]["sensors"]:
            num, den = s.split("/")
            int(num), int(den)


# Exact stdout of a refused code, by output format.  check, realize and
# normalize print the same refusal; check's infeasible report on the line
# adds the odd cycle exactly as certificate prints it.
UNSUPPORTED = {
    "text": "unsupported: no reconstruction algorithm is known for the circular"
    " sensor-dense regime\n",
    "structured": '{\n'
    '  "reason": "no reconstruction algorithm is known for the circular'
    ' sensor-dense regime",\n'
    '  "status": "unsupported"\n'
    '}\n',
}
INFEASIBLE = {
    "text": "infeasible: no CO column ordering exists: row 3 fails\n",
    "structured": '{\n'
    '  "reason": "no CO column ordering exists: row 3 fails",\n'
    '  "status": "infeasible"\n'
    '}\n',
}
CHECK_INFEASIBLE = {
    "text": "infeasible: no CO column ordering exists: row 3 fails\n"
    "not bipartite: odd cycle of 5 ordering relations\n"
    "  (1100, 0101)  # witness row 0\n"
    "  (0101, 1010)  # witness row 1\n"
    "  (1010, 1100)  # witness row 2\n"
    "  (1100, 1111)\n"
    "  (1111, 1100)  # witness row 3\n",
    "structured": '{\n'
    '  "certificate": {\n'
    '    "odd_cycle": [\n'
    '      [\n'
    '        "1100",\n'
    '        "0101"\n'
    '      ],\n'
    '      [\n'
    '        "0101",\n'
    '        "1010"\n'
    '      ],\n'
    '      [\n'
    '        "1010",\n'
    '        "1100"\n'
    '      ],\n'
    '      [\n'
    '        "1100",\n'
    '        "1111"\n'
    '      ],\n'
    '      [\n'
    '        "1111",\n'
    '        "1100"\n'
    '      ]\n'
    '    ],\n'
    '    "witnesses": {\n'
    '      "0": 0,\n'
    '      "1": 1,\n'
    '      "2": 2,\n'
    '      "4": 3\n'
    '    }\n'
    '  },\n'
    '  "reason": "no CO column ordering exists: row 3 fails",\n'
    '  "status": "infeasible"\n'
    '}\n',
}


class TestRefusal:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["check", "realize", "normalize"])
    def test_unsupported(self, capsys, tmp_path, command, fmt):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, command, path, "--geometry", "circle",
                           "--regime", "dense", "--format", fmt)
        assert code == EXIT_UNSUPPORTED
        assert out == UNSUPPORTED[fmt]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["check", "realize", "normalize"])
    def test_infeasible(self, capsys, tmp_path, command, fmt):
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, command, path, "--format", fmt)
        assert code == EXIT_INFEASIBLE
        expected = CHECK_INFEASIBLE if command == "check" else INFEASIBLE
        assert out == expected[fmt]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("multiset", [[], ["--multiset"]],
                             ids=["support", "multiset"])
    def test_dense_check_names_the_failed_row(self, capsys, tmp_path,
                                              multiset, fmt):
        # the dense line's refusal keeps co_order's row; no certificate
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "check", path, "--regime", "dense",
                           *multiset, "--format", fmt)
        assert code == EXIT_INFEASIBLE
        assert out == INFEASIBLE[fmt]


class TestCertificate:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_circle_unsupported(self, capsys, tmp_path, fmt):
        reason = "rejection certificates are implemented on the line only"
        expected = {
            "text": "unsupported: %s\n" % reason,
            "structured": '{\n  "reason": "%s",\n  "status": "unsupported"\n}\n'
            % reason,
        }
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "certificate", path, "--geometry", "circle",
                           "--format", fmt)
        assert code == EXIT_UNSUPPORTED
        assert out == expected[fmt]

    def test_bipartite(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "certificate", path)
        assert code == EXIT_FEASIBLE
        assert out.startswith("bipartite")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_words_rendered_once(self, capsys, tmp_path, monkeypatch, fmt):
        # only structured output lists the ordering, and each word is
        # rendered once
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        calls = []
        original = BitVector.to_string

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(BitVector, "to_string", counted)
        code, out, _ = run(capsys, "certificate", path, "--format", fmt)
        assert code == EXIT_FEASIBLE
        assert len(calls) == (6 if fmt == "structured" else 0)
        if fmt == "structured":
            assert len(json.loads(out)["ordering"]) == 6

    def test_structured_ordering(self, capsys, tmp_path):
        from convexcodes.reconstruct import Bipartition, rejection_certificate

        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "certificate", path, "--format",
                           "structured")
        doc = json.loads(out)
        assert code == EXIT_FEASIBLE
        assert sorted(doc) == ["ordering", "status"]
        cert = Bipartition(tuple(BitVector.from_string(w)
                                 for w in doc["ordering"]))
        words = parse_code_file(WALKTHROUGH).support
        assert cert == rejection_certificate(words) and cert.verify(words)

    def test_structured_ordering_is_the_check_column_order(self, capsys,
                                                           tmp_path):
        # the certificate lists the columns of the matrix check prints,
        # in that order: an ordering and its reverse both verify, and the
        # certificate once printed this code's in reverse
        path = write(tmp_path, "c.txt", "1010\n0110\n1001\n")
        code, out, _ = run(capsys, "check", path, "--format", "structured")
        assert code == EXIT_FEASIBLE
        rows = json.loads(out)["matrix"]
        columns = ["".join(col) for col in zip(*rows)]
        code, out, _ = run(capsys, "certificate", path, "--format",
                           "structured")
        assert code == EXIT_FEASIBLE
        assert json.loads(out)["ordering"] == columns == [
            "0110", "1010", "1001"]

    def test_odd_cycle_with_witnesses(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "certificate", path)
        assert code == EXIT_INFEASIBLE
        assert "witness row" in out

    def test_readme_sample(self, capsys, tmp_path):
        # README's certificate sample, byte for byte, on the code it writes
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.splitlines()
        start = lines.index("$ convexcodes certificate bad.txt")
        assert lines[start - 1] == r"$ printf '1100\n1010\n0101\n1111\n' > bad.txt"
        end = lines.index("```", start)
        want = lines[start + 1:end]
        assert len(want) == 6
        path = write(tmp_path, "bad.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "certificate", path)
        assert code == EXIT_INFEASIBLE
        assert out == "".join(line + "\n" for line in want)

    def test_structured_verifies(self, capsys, tmp_path):
        from convexcodes.reconstruct import RejectionCertificate

        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "certificate", path, "--format", "structured")
        doc = json.loads(out)
        cycle = tuple(
            (BitVector.from_string(a), BitVector.from_string(b))
            for a, b in doc["certificate"]["odd_cycle"]
        )
        witnesses = {int(i): r for i, r in doc["certificate"]["witnesses"].items()}
        assert RejectionCertificate(cycle, witnesses).verify()


class TestEnumerate:
    def test_dense_circle_golden_row(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--geometry", "circle", "--regime", "dense",
            "--max-n", "5", "--max-k", "25", "--format", "structured",
        )
        assert code == EXIT_FEASIBLE
        doc = json.loads(out)
        total = sum(v for key, v in doc["counts"].items()
                    if key.startswith("5,"))
        assert total == 1682

    def test_dense_line_table(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--regime", "dense",
            "--max-n", "3", "--max-k", "6",
        )
        assert code == EXIT_FEASIBLE
        lines = out.splitlines()
        assert lines[0].startswith("n\\k")
        row3 = lines[4].split("\t")
        assert sum(int(v) for v in row3[1:]) == 26

    def test_sparse_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--max-n", "4", "--max-k", "3",
            "--format", "structured",
        )
        doc = json.loads(out)
        from math import comb

        assert doc["counts"]["4,2"] == comb(comb(5, 2), 2)

    def test_oracle_flag(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--regime", "dense",
            "--max-n", "4", "--max-k", "8", "--oracle",
        )
        assert code == EXIT_FEASIBLE

    @pytest.mark.parametrize("geometry", ["line", "circle"])
    def test_sparse_oracle(self, capsys, geometry):
        argv = ["enumerate", "--geometry", geometry, "--max-n", "5",
                "--max-k", "4"]
        code, out, err = run(capsys, *argv, "--oracle")
        assert (code, err) == (EXIT_FEASIBLE, "")
        assert out == run(capsys, *argv)[1]

    def test_sparse_oracle_mismatch(self, capsys, monkeypatch):
        # one cell of the table off by one
        monkeypatch.setattr(
            "convexcodes.cli.count_sparse",
            lambda n, k, geometry: count_sparse(n, k, geometry)
            + (n == 2 and k == 3))
        with pytest.raises(InternalError, match="oracle mismatch at n=2 k=3"):
            main(["enumerate", "--max-n", "3", "--max-k", "3", "--oracle"])

    @pytest.mark.parametrize("geometry", ["line", "circle"])
    def test_dense_oracle(self, capsys, geometry):
        argv = ["enumerate", "--geometry", geometry, "--regime", "dense",
                "--max-n", "7", "--max-k", "45"]
        code, out, err = run(capsys, *argv, "--oracle")
        assert (code, err) == (EXIT_FEASIBLE, "")
        assert out == run(capsys, *argv)[1]

    @pytest.mark.parametrize("geometry", ["line", "circle"])
    def test_dense_oracle_mismatch(self, capsys, monkeypatch, geometry):
        # one cell of the oracle's table off by one
        def tampered(N, geometry):
            table = brute_force_table(N, geometry)
            c = dict(table.c)
            c[(2, 3)] = table.count(2, 3) + 1
            return CountTable(c, table.regime)

        monkeypatch.setattr("convexcodes.cli.brute_force_table", tampered)
        with pytest.raises(InternalError, match="oracle mismatch at n=2 k=3"):
            main(["enumerate", "--geometry", geometry, "--regime", "dense",
                  "--max-n", "3", "--max-k", "3", "--oracle"])

    def test_dense_line_oracle_lists_the_rows_once(self, capsys, monkeypatch):
        # one walk serves every n, so the rows are listed for max-n alone
        calls = []

        def listed(n, geometry):
            calls.append(n)
            return valid_dense_rows(n, geometry)

        monkeypatch.setattr(counting, "valid_dense_rows", listed)
        code, _, err = run(capsys, "enumerate", "--regime", "dense",
                           "--geometry", "line", "--oracle", "--max-n", "10")
        assert (code, err, calls) == (EXIT_FEASIBLE, "", [10])

    def test_oracle_size_limit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--regime", "dense",
            "--max-n", "15", "--max-k", "2", "--oracle",
        )
        assert code == EXIT_SIZE_LIMIT

    @pytest.mark.parametrize("regime, message", [
        ("dense", "brute_force_table is limited to n <= 14"),
        ("sparse", "sparse oracle is limited to n <= 14"),
    ], ids=["dense", "sparse"])
    def test_oracle_limit_checked_before_counting(self, capsys, monkeypatch,
                                                  regime, message):
        def refuse(*args):
            raise AssertionError("counted before checking the oracle limit")

        # the dense oracle itself refuses, so it runs unreplaced
        for name in ("gf_dense_linear", "count_sparse"):
            monkeypatch.setattr("convexcodes.cli." + name, refuse)
        code, out, _ = run(
            capsys, "enumerate", "--regime", regime,
            "--max-n", "15", "--max-k", "2", "--oracle",
        )
        assert code == EXIT_SIZE_LIMIT
        assert out == "size limit: %s\n" % message
        code, out, _ = run(
            capsys, "enumerate", "--regime", regime, "--max-n", "15",
            "--max-k", "2", "--oracle", "--format", "structured",
        )
        assert code == EXIT_SIZE_LIMIT
        assert json.loads(out) == {"status": "size-limit", "reason": message}

    @pytest.mark.parametrize("geometry", ["line", "circle"])
    @pytest.mark.parametrize("regime", ["sparse", "dense"])
    @pytest.mark.parametrize("caps", [("--max-n", "-1"), ("--max-k", "-2")],
                             ids=["max-n", "max-k"])
    def test_negative_caps_are_usage_errors(self, capsys, geometry, regime,
                                            caps):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--geometry", geometry, "--regime", regime,
                  *caps])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert "must be nonnegative" in out.err

    @pytest.mark.parametrize("value", ["+2", "1_0", "\u0662", "\uff12", " 2"])
    @pytest.mark.parametrize("flag", ["--max-n", "--max-k"])
    def test_caps_are_ascii_digits(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", flag, value])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid int value: %r" % value in out.err


class TestNormalize:
    @pytest.mark.parametrize("transform", ["snap", "close", "open"])
    def test_transforms(self, capsys, tmp_path, transform):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(
            capsys, "normalize", path, "--transform", transform
        )
        assert code == EXIT_FEASIBLE
        assert out.splitlines()[0] == "feasible"

    def test_snap_emits_half_open(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", "110\n011\n010\n")
        code, out, _ = run(
            capsys, "normalize", path, "--format", "structured"
        )
        assert code == EXIT_FEASIBLE
        doc = json.loads(out)
        for iv in doc["arrangement"]["intervals"]:
            if iv["kind"] == "proper" and iv["lo"] is not None:
                assert iv["lo_closed"]


class TestUsageErrors:
    def test_bad_flag(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--geometry", "sphere"])
        assert exc.value.code == EXIT_PARSE

    def test_enumerate_takes_no_multiset_flag(self, capsys):
        # enumerate reads no code file, so it has no multiplicities to honor
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--multiset", "--max-n", "2", "--max-k", "2"])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --multiset" in out.err

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_PARSE

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", "abc\n")
        code, out, err = run(capsys, "check", path)
        assert code == EXIT_PARSE
        assert out == ""
        assert "parse error" in err


COMMANDS = ["check", "realize", "certificate", "enumerate", "normalize"]


class TestOneCommandParser:
    """main builds one parser of all five commands, on its first call in
    a process, and every later call reuses it as it was built."""

    # usage, help, errors and every command, each read as the parser of
    # a fresh build reads it
    ARGVS = [
        ["-h"], [], ["bogus", "FILE"], ["--", "check", "FILE"],
        *[[c, "-h"] for c in COMMANDS],
        ["check", "FILE", "--bogus"],
        ["normalize", "FILE", "--transform", "bad"],
        ["enumerate", "--max-n", "x"],
        ["check", "ABSENT"],
        ["check", "FILE"], ["realize", "FILE", "--format", "structured"],
        ["certificate", "FILE", "--geometry", "circle"],
        ["enumerate", "--regime", "dense", "--max-n", "2", "--oracle"],
        ["normalize", "FILE", "--transform", "open", "--multiset"],
    ]

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @staticmethod
    def _files(tmp_path):
        files = {"FILE": write(tmp_path, "c.txt", WALKTHROUGH),
                 "ABSENT": str(tmp_path / "absent.txt")}
        return lambda argv: [files.get(a, a) for a in argv]

    @staticmethod
    def _small_run(command):
        return ([command, "--max-n", "2", "--max-k", "2"]
                if command == "enumerate" else [command, "FILE"])

    def _registered(self, capsys, tmp_path, monkeypatch, first):
        """The commands registered by a first main call of first in a
        process, and those registered by every later call."""
        # drop the process parser, as a new process starts without one
        cli._parser.cache_clear()
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        files = self._files(tmp_path)
        self._outcome(capsys, files(first))
        registered = names[:]
        del names[:]
        for command in COMMANDS:
            argv = files(self._small_run(command))
            assert self._outcome(capsys, argv)[0] == EXIT_FEASIBLE
        for argv in self.ARGVS:
            self._outcome(capsys, files(argv))
        return registered, names

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_registers_all_five_once(self, capsys, tmp_path,
                                               monkeypatch, command):
        assert self._registered(capsys, tmp_path, monkeypatch,
                                self._small_run(command)) == (COMMANDS, [])

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"],
                                      ["--", "check", "FILE"]], ids=" ".join)
    def test_any_other_first_word_registers_all(self, capsys, tmp_path,
                                                monkeypatch, argv):
        assert self._registered(capsys, tmp_path, monkeypatch, argv) == (
            COMMANDS, [])

    def _fresh(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", build_parser)
            return self._outcome(capsys, argv)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_usage_help_errors_and_arguments_as_all_five(
            self, capsys, tmp_path, monkeypatch, argv):
        # usage lines wrap at the terminal width argparse reads
        monkeypatch.setenv("COLUMNS", "80")
        argv = self._files(tmp_path)(argv)
        # the process parser is built before the run that reuses it
        self._outcome(capsys, ["bogus"])
        reused = self._outcome(capsys, argv)
        assert reused == self._fresh(capsys, monkeypatch, argv)
        if "-h" in argv[:2]:
            assert reused[0] == 0 and reused[1].startswith("usage: convexcodes")
        elif reused[0] == EXIT_PARSE:
            assert reused[2].startswith("usage: ")
        if argv[:1] == ["--"]:
            # one '--' before a command ends the options and runs it
            assert reused == self._outcome(capsys, argv[1:])
            assert reused[0] == EXIT_FEASIBLE

    def test_a_reused_parser_carries_nothing_between_runs(
            self, capsys, tmp_path, monkeypatch):
        files = self._files(tmp_path)
        first = [files(a) for a in self.ARGVS]
        random.Random(0).shuffle(first)
        # each pass runs the structured realize before the text one
        for columns, order in (("80", first), ("120", first[::-1])):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in order + [files(["realize", "FILE"])]:
                assert self._outcome(capsys, argv) == self._fresh(
                    capsys, monkeypatch, argv), (columns, argv)

    def test_a_command_replaced_after_the_first_run_is_the_one_run(
            self, capsys, tmp_path, monkeypatch):
        # a tracer wraps the cmd_ functions after import
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        assert run(capsys, "check", path)[0] == EXIT_FEASIBLE
        calls = []

        def spy(args, em):
            calls.append(args.file)
            em.set("status", "feasible")

        monkeypatch.setattr(cli, "cmd_check", spy)
        assert run(capsys, "check", path) == (EXIT_FEASIBLE, "", "")
        assert calls == [WALKTHROUGH]


class TestCodeFiles:
    @pytest.mark.parametrize("command",
                             ["check", "realize", "certificate", "normalize"])
    def test_file_is_closed(self, capsys, tmp_path, command):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(capsys, command, path)[0] == EXIT_FEASIBLE
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    @pytest.mark.parametrize("command",
                             ["check", "realize", "certificate", "normalize"])
    def test_missing_file(self, capsys, tmp_path, command):
        path = str(tmp_path / "absent.txt")
        with pytest.raises(SystemExit) as exc:
            main([command, path])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1] == (
            "convexcodes %s: error: argument file: can't open '%s': [Errno 2]"
            " No such file or directory: '%s'" % (command, path, path))

    @pytest.mark.skipif(locale.getpreferredencoding(False).lower()
                        not in ("utf-8", "utf8"),
                        reason="the bytes below decode in this locale")
    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"\xff\xfe10\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(path)])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument file: can't read '%s': 'utf-8' codec can't decode" \
            % path in out.err

    def test_dash_reads_stdin(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "convexcodes.cli", "check", "-"],
            input=WALKTHROUGH, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_FEASIBLE, "")
        assert proc.stdout == run(capsys, "check", path)[1]

    def test_dash_reads_stdin_in_process(self, capsys, tmp_path,
                                         monkeypatch):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        want = run(capsys, "check", path)
        monkeypatch.setattr("sys.stdin", io.StringIO(WALKTHROUGH))
        assert run(capsys, "check", "-") == want


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        for argv in (
            ["check", path, "--format", "structured"],
            ["realize", path, "--geometry", "circle", "--format", "structured"],
            ["certificate", path, "--format", "structured"],
            ["enumerate", "--regime", "dense", "--max-n", "4", "--max-k", "8",
             "--format", "structured"],
            ["normalize", path, "--transform", "close", "--format",
             "structured"],
        ):
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


def _staircase_text(n):
    # n words: the k = n/2 + 1 singletons, then adjacent pairs
    k = n // 2 + 1
    masks = [1 << i for i in range(k)] + [0b11 << i for i in range(k - 1)]
    return "".join(BitVector(k, m).to_string() + "\n" for m in masks[:n])


def _sensor_rows(doc):
    """The rows that the sensors of a structured arrangement see."""
    def frac(x):
        return None if x is None else Fraction(x)

    intervals = []
    for iv in doc["intervals"]:
        if iv["kind"] == "proper":
            intervals.append(Interval1D.proper(
                frac(iv["lo"]), frac(iv["hi"]), iv["lo_closed"],
                iv["hi_closed"]))
        else:
            intervals.append(getattr(Interval1D, iv["kind"])())
    arr = IntervalArrangement(tuple(intervals), Geometry(doc["geometry"]))
    sensors = SensorSet.of(Fraction(p) for p in doc["sensors"])
    return extract_code_sparse(arr, sensors)[1].row_strings()


class TestNormalizeMultiset:
    # the margin of close/open used to ignore the sensors: repeated
    # adjacent columns leave runs with no interval end, and a shrink by
    # more than realize_matrix's 1/4 moved an end past sensors
    @pytest.mark.parametrize("text, transform", [
        ("1 1011\n2 1111\n", "close"),
        ("3 10\n3 11\n3 01\n", "open"),
    ], ids=["close", "open"])
    def test_repros(self, capsys, tmp_path, text, transform):
        path = write(tmp_path, "c.txt", text)
        code, out, err = run(capsys, "normalize", path, "--multiset",
                             "--transform", transform, "--format",
                             "structured")
        assert (code, err) == (EXIT_FEASIBLE, "")
        _, matrix, _ = run(capsys, "check", path, "--multiset", "--format",
                           "structured")
        assert (_sensor_rows(json.loads(out)["arrangement"])
                == json.loads(matrix)["matrix"])

    def test_keeps_the_sparse_code(self, capsys, tmp_path):
        rng = random.Random(8)
        feasible = 0
        for trial in range(60):
            k = rng.randint(1, 4)
            masks = rng.sample(range(1 << k), rng.randint(1, min(4, 1 << k)))
            path = write(tmp_path, "c%d.txt" % trial, "".join(
                "%d %s\n" % (rng.randint(1, 3), format(m, "0%db" % k))
                for m in masks))
            for geometry in ("line", "circle"):
                for regime in ("sparse", "dense"):
                    opts = ["--multiset", "--geometry", geometry, "--regime",
                            regime, "--format", "structured"]
                    _, matrix, _ = run(capsys, "check", path, *opts)
                    matrix = json.loads(matrix)
                    for transform in ("close", "open"):
                        code, out, err = run(capsys, "normalize", path, *opts,
                                             "--transform", transform)
                        assert err == ""
                        assert code == EXIT_OF_STATUS[matrix["status"]]
                        if code == EXIT_FEASIBLE:
                            feasible += 1
                            assert (_sensor_rows(json.loads(out)["arrangement"])
                                    == matrix["matrix"])
        assert feasible > 100


# every character, control characters, quotes, backslashes, line
# separators and astral ones more often
_json_strings = st.text(st.characters(exclude_categories=())
                        | st.sampled_from('\x00\x1f\x7f"\\/\u2028\xe9\U0001f600'))
_json_ints = (st.integers()
              | st.integers(-10 ** 30, 10 ** 30)
              | st.sampled_from([10 ** 30, -10 ** 30, -1, 0]))
_json_docs = st.recursive(
    _json_strings | _json_ints | st.booleans() | st.none(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=30)


class TestJsonText:
    @given(_json_docs)
    @example({"": [], "a": {}, "b": [[], {}, ()], "c": {"d": [{}]}})
    @example([-10 ** 30, 10 ** 30, True, False, None, "\x00\u2028\U0001f600"])
    @settings(max_examples=400)
    def test_equals_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        1.5, {1, 2}, b"01", {1: "one"}, ["1", [2.0]], {"a": {"b": {3}}},
        {"a": 1, 2: "b"},
    ], ids=["float", "set", "bytes", "int key", "nested float", "nested set",
            "mixed keys"])
    def test_other_types_are_type_errors(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)


class TestOneForm:
    """Each command builds only the form it prints: structured output
    never renders the text lines, text output never builds the
    document.  The spies also count the builders the chosen form uses,
    so they are the ones the commands call."""

    @staticmethod
    def _spy(monkeypatch, name, calls):
        import convexcodes.cli as cli

        original = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cli, name, counted)

    @pytest.mark.parametrize("argv", [
        ["realize"], ["realize", "--geometry", "circle"],
        ["normalize", "--transform", "open"], ["normalize"],
        ["enumerate", "--max-n", "4", "--max-k", "6"],
        ["enumerate", "--regime", "dense", "--max-n", "4", "--max-k", "6"],
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_builders_of_the_other_form_never_run(self, capsys, tmp_path,
                                                  monkeypatch, argv, fmt):
        calls = dict.fromkeys(["_interval_text", "_table_lines",
                               "_arrangement_doc", "_counts_doc"], 0)
        for name in calls:
            self._spy(monkeypatch, name, calls)
        if argv[0] != "enumerate":
            argv = argv[:1] + [write(tmp_path, "c.txt", WALKTHROUGH)] + argv[1:]
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_FEASIBLE
        arrangement = argv[0] != "enumerate"
        if fmt == "structured":
            assert calls == {"_interval_text": 0, "_table_lines": 0,
                             "_arrangement_doc": int(arrangement),
                             "_counts_doc": int(not arrangement)}
        else:
            intervals = sum(line.startswith("interval ")
                            for line in out.splitlines())
            assert calls == {"_interval_text": intervals,
                             "_table_lines": int(not arrangement),
                             "_arrangement_doc": 0, "_counts_doc": 0}
            assert intervals == (4 if arrangement else 0)


class TestOneResultPath:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command, target", [
        ("check", "reconstruct_sparse"),
        ("realize", "realize_matrix"),
        ("certificate", "rejection_certificate"),
        ("normalize", "normalize_arbitrary"),
        ("enumerate", "count_sparse"),
    ])
    def test_size_limit_raised_anywhere(self, capsys, tmp_path, monkeypatch,
                                        command, target, fmt):
        def refuse(*args, **kwargs):
            raise SizeLimit("X")

        monkeypatch.setattr("convexcodes.cli." + target, refuse)
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        argv = [command] + ([] if command == "enumerate" else [path])
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (EXIT_SIZE_LIMIT, "")
        assert out == {
            "text": "size limit: X\n",
            "structured": '{\n  "reason": "X",\n  "status": "size-limit"\n}\n',
        }[fmt]

    def test_exit_code_is_the_printed_status(self, capsys, tmp_path):
        seen = set()
        argvs = [["enumerate", "--regime", "dense", "--max-n", "15",
                  "--max-k", "2", "--oracle"],
                 ["enumerate", "--max-n", "3", "--max-k", "3"]]
        for i, text in enumerate((WALKTHROUGH, ODD_CYCLE, PADDING,
                                  "100\n010\n001\n000\n", "110\n011\n010\n")):
            path = write(tmp_path, "c%d.txt" % i, text)
            for geometry in ("line", "circle"):
                argvs.append(["certificate", path, "--geometry", geometry])
                for regime in ("sparse", "dense"):
                    for multiset in ([], ["--multiset"]):
                        for command in ("check", "realize", "normalize"):
                            argvs.append([command, path, "--geometry",
                                          geometry, "--regime", regime,
                                          *multiset])
        for argv in argvs:
            code, out, err = run(capsys, *argv, "--format", "structured")
            status = json.loads(out)["status"]
            assert (code, err) == (EXIT_OF_STATUS[status], ""), argv
            text_code, text, _ = run(capsys, *argv)
            assert text_code == code, argv
            if code in (EXIT_UNSUPPORTED, EXIT_SIZE_LIMIT):
                assert text.startswith(status.replace("-", " ") + ": "), argv
            seen.add(status)
        assert seen == set(EXIT_OF_STATUS)

    def test_parse_error_in_every_command(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", "10\n+2 01\n")
        for command in ("check", "realize", "certificate", "normalize"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (EXIT_PARSE, "")
            assert err == "parse error: line 2: bad count '+2'\n"


class TestSizeGuards:
    def test_multiset_columns(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "c.txt", "1048577 10\n")
        reason = ("--multiset is limited to 2^20 columns, the counts sum to"
                  " 1048577")
        for command in ("check", "realize", "normalize"):
            code, out, err = run(capsys, command, path, "--multiset")
            assert (code, out, err) == (EXIT_SIZE_LIMIT,
                                        "size limit: %s\n" % reason, "")
        code, out, _ = run(capsys, "check", path, "--multiset", "--format",
                           "structured")
        assert json.loads(out) == {"status": "size-limit", "reason": reason}
        # without --multiset only the support is reconstructed
        assert run(capsys, "check", path)[0] == EXIT_FEASIBLE
        monkeypatch.setattr("convexcodes.cli.MAX_MULTISET_COLUMNS", 5)
        at_cap = write(tmp_path, "d.txt", "2 10\n3 11\n")
        assert run(capsys, "check", at_cap, "--multiset")[0] == EXIT_FEASIBLE
        over = write(tmp_path, "e.txt", "2 10\n4 11\n")
        assert run(capsys, "check", over, "--multiset")[0] == EXIT_SIZE_LIMIT

    @pytest.mark.parametrize("regime, max_n, max_k, reason", [
        ("sparse", 0, 65536, "enumerate is limited to 2^16 table cells,"
                             " (max-n + 1)(max-k + 1) = 65537"),
        ("dense", 0, 65536, "enumerate is limited to 2^16 table cells,"
                            " (max-n + 1)(max-k + 1) = 65537"),
        ("dense", 65, 0, "dense enumerate is limited to max-n <= 64"),
    ], ids=["sparse-cells", "dense-cells", "dense-n"])
    @pytest.mark.parametrize("geometry", ["line", "circle"])
    def test_enumerate_over_the_caps(self, capsys, monkeypatch, geometry,
                                     regime, max_n, max_k, reason):
        def refuse(*args):
            raise AssertionError("counted before checking the size limits")

        for name in ("count_sparse", "gf_dense_linear", "gf_dense_circular",
                     "brute_force_table", "valid_dense_rows"):
            monkeypatch.setattr("convexcodes.cli." + name, refuse)
        argv = ["enumerate", "--geometry", geometry, "--regime", regime,
                "--max-n", str(max_n), "--max-k", str(max_k)]
        assert run(capsys, *argv) == (EXIT_SIZE_LIMIT,
                                      "size limit: %s\n" % reason, "")
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert (code, err) == (EXIT_SIZE_LIMIT, "")
        assert json.loads(out) == {"status": "size-limit", "reason": reason}

    @pytest.mark.parametrize("regime, max_n, max_k", [
        ("sparse", 255, 255), ("sparse", 0, 65535), ("sparse", 65, 0),
        ("dense", 64, 1007), ("dense", 0, 65535),
    ])
    def test_enumerate_at_the_caps(self, capsys, monkeypatch, regime, max_n,
                                   max_k):
        class Zero:
            def count(self, n, k):
                return 0

        monkeypatch.setattr("convexcodes.cli.count_sparse",
                            lambda n, k, geometry: 0)
        monkeypatch.setattr("convexcodes.cli.gf_dense_linear",
                            lambda N, K: Zero())
        argv = ["enumerate", "--regime", regime, "--max-n", str(max_n),
                "--max-k", str(max_k)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_FEASIBLE, "")
        assert len(out.splitlines()) == max_n + 2
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == EXIT_FEASIBLE
        assert len(json.loads(out)["counts"]) == (max_n + 1) * (max_k + 1)

    def test_structured_bipartition(self, capsys, tmp_path):
        # 510 words of 256 bits, whose n(n-1)-pair bipartition map was
        # over 2^27 bytes: the structured certificate lists the ordering,
        # each word once, so it is printed in place of a size-limit refusal
        path = write(tmp_path, "c.txt", _staircase_text(510))
        code, out, err = run(capsys, "certificate", path, "--format",
                             "structured")
        assert (code, err) == (EXIT_FEASIBLE, "")
        doc = json.loads(out)
        assert doc["status"] == "feasible"
        assert sorted(doc["ordering"]) == sorted(
            _staircase_text(510).splitlines())
        code, out, _ = run(capsys, "certificate", path)
        assert (code, out) == (
            EXIT_FEASIBLE,
            "bipartite: the code is realizable on the line (sparse)\n")

    def test_structured_bipartition_at_the_cap(self, capsys, tmp_path):
        # the walkthrough sat at the old 720-byte estimate of its map,
        # 6 * 5 * (2 * 4 + 16); the cap is gone, and the ordering's
        # document is far below that estimate
        import convexcodes.cli

        assert not hasattr(convexcodes.cli, "MAX_DOCUMENT_BYTES")
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "certificate", path, "--format",
                           "structured")
        assert code == EXIT_FEASIBLE
        assert len(json.loads(out)["ordering"]) == 6
        assert len(out) < 720
