import json

import pytest

from convexcodes.cli import (
    EXIT_FEASIBLE,
    EXIT_INFEASIBLE,
    EXIT_PARSE,
    EXIT_SIZE_LIMIT,
    EXIT_UNSUPPORTED,
    ParseError,
    main,
    parse_code_file,
)
from convexcodes.core import BitVector

WALKTHROUGH = "1100\n1000\n0100\n0000\n0001\n0110\n"
ODD_CYCLE = "1100\n1010\n0101\n1111\n"
PADDING = "100\n010\n001\n2 000\n"


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
# adds the odd-cycle certificate.
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
    "text": "infeasible: no CO column ordering exists\n",
    "structured": '{\n'
    '  "reason": "no CO column ordering exists",\n'
    '  "status": "infeasible"\n'
    '}\n',
}
CHECK_INFEASIBLE = {
    "text": "infeasible: no CO column ordering exists\n"
    "odd cycle (5 vertices):\n"
    "  (1100, 1111)\n"
    "  (1010, 1100)\n"
    "  (1100, 1010)\n"
    "  (1010, 0101)\n"
    "  (0101, 1100)\n",
    "structured": '{\n'
    '  "certificate": {\n'
    '    "odd_cycle": [\n'
    '      [\n'
    '        "1100",\n'
    '        "1111"\n'
    '      ],\n'
    '      [\n'
    '        "1010",\n'
    '        "1100"\n'
    '      ],\n'
    '      [\n'
    '        "1100",\n'
    '        "1010"\n'
    '      ],\n'
    '      [\n'
    '        "1010",\n'
    '        "0101"\n'
    '      ],\n'
    '      [\n'
    '        "0101",\n'
    '        "1100"\n'
    '      ]\n'
    '    ],\n'
    '    "witnesses": {\n'
    '      "0": 2,\n'
    '      "2": 1,\n'
    '      "3": 0,\n'
    '      "4": 3\n'
    '    }\n'
    '  },\n'
    '  "reason": "no CO column ordering exists",\n'
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


class TestCertificate:
    def test_bipartite(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", WALKTHROUGH)
        code, out, _ = run(capsys, "certificate", path)
        assert code == EXIT_FEASIBLE
        assert out.startswith("bipartite")

    def test_odd_cycle_with_witnesses(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", ODD_CYCLE)
        code, out, _ = run(capsys, "certificate", path)
        assert code == EXIT_INFEASIBLE
        assert "witness row" in out

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

    def test_oracle_size_limit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--regime", "dense",
            "--max-n", "13", "--max-k", "2", "--oracle",
        )
        assert code == EXIT_SIZE_LIMIT


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

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_PARSE

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "c.txt", "abc\n")
        code, out, err = run(capsys, "check", path)
        assert code == EXIT_PARSE
        assert "parse error" in err


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
