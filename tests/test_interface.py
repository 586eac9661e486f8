"""Dataset loading, rendering, and the command-line surface."""

import argparse
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

from superpoly.laurent import Poly3, parse_poly, format_poly
from superpoly.complexes import build_torus_complex, serialize_complex
from superpoly.dataset import DatasetError, bundled_path, load_dataset
from superpoly.render import render_svg, render_text
from superpoly.torus import homfly_torus
from superpoly import cli
from superpoly.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def trefoil_table(tmp_path, columns):
    """A one-row table: the bundled 3_1 row with the given columns replaced."""
    with open(bundled_path()) as fh:
        cols = next(line for line in fh if line.startswith("3_1\t")).split("\t")
    for i, text in columns.items():
        cols[i] = text
    path = tmp_path / "table.tsv"
    path.write_text("\t".join(cols))
    return str(path)


CLI_PROGRAM = "import sys; from superpoly.cli import main; sys.exit(main())"

# Prints eval(argv[1]) in superpoly.stable's namespace; TooLarge exits 2 as the CLI does.
STABLE_PROGRAM = """import sys
from superpoly import stable
try:
    print(eval(sys.argv[1], vars(stable)))
except stable.TooLarge as exc:
    print("error: %s" % exc, file=sys.stderr)
    sys.exit(2)
"""


# Runs superpoly.cli.main in-process on each argv of the JSON list in argv[1], each under
# a 5 s SIGALRM, and prints the JSON list of [argv, outcome] for every call that did not
# return 0, 1 or 2 with no traceback on stderr.
FRONT_END_PROGRAM = """import contextlib, io, json, os, signal, sys
from superpoly.cli import main


class Alarm(BaseException):
    pass


def ring(signum, frame):
    raise Alarm("no end within 5 s")


signal.signal(signal.SIGALRM, ring)
bad = []
with open(os.devnull, "w") as devnull:
    for argv in json.loads(sys.argv[1]):
        err = io.StringIO()
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
                outcome = main(argv)
        except BaseException as exc:
            outcome = repr(exc)
        finally:
            signal.alarm(0)
        if outcome not in (0, 1, 2) or "Traceback" in err.getvalue():
            bad.append([argv, outcome])
print(json.dumps(bad))
"""


def run_capped_child(argv, program=CLI_PROGRAM, limit_bytes=1 << 30, seconds=5):
    """`superpoly argv` (or another program) in a child under an address-space
    limit, 1 GB by default, where a runaway fails with a MemoryError; it must
    end within the given seconds, 5 by default."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", program] + argv, capture_output=True, text=True,
        timeout=max(60, seconds), preexec_fn=limit, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert time.monotonic() - start < seconds
    return proc


def subparser_helps(parser):
    """{prog: help text} for parser and every subparser below it."""
    helps = {parser.prog: parser.format_help()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                helps.update(subparser_helps(child))
    return helps


class TestDataset:
    def test_bundled_loads_clean(self):
        records = load_dataset("bundled")
        names = {r.name for r in records}
        assert {"3_1", "4_1", "7_3", "9_42", "8_19", "10_124"} <= names

    def test_trefoil_row_matches_torus_family(self):
        from superpoly.torus import super_t2

        rows = {r.name: r for r in load_dataset()}
        assert rows["3_1"].superpoly == super_t2(1)
        assert rows["5_1"].superpoly == super_t2(2)
        assert rows["7_1"].superpoly == super_t2(3)

    def test_9_42_polynomial(self):
        rows = {r.name: r for r in load_dataset()}
        assert rows["9_42"].homfly == parse_poly(
            "a^-2*q^-2 + a^-2*q^2 - q^-4 - 1 - q^4 + a^2*q^-2 + a^2*q^2"
        )
        c = rows["9_42"].load_complex()
        assert c is not None and len(c) == 9

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n\n")
        assert load_dataset(str(path)) == []

    def test_bad_row_diagnostics(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "ok\t0\t0\t1\n"
            "broken\t0\t0\ta^2\t\t\tq^2*t\n"  # superpoly does not specialize
        )
        with pytest.raises(DatasetError) as err:
            load_dataset(str(path))
        assert any("broken" in p for p in err.value.problems)

    def test_bad_complex_file_is_a_row_diagnostic(self, tmp_path):
        (tmp_path / "bad.cplx").write_text("gen 0 0 0 0\ndiff 1 0 1 1/1\n")
        path = tmp_path / "table.tsv"
        path.write_text("unknot\t0\t0\t1\t\t\t\tbad.cplx\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(str(path))
        assert err.value.problems == [
            "line 1 (unknot): complex file: d_1 entry 0 -> 1 refers to a missing generator (line 2)"
        ]

    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("digits", ["\u0662", "0_2", "\uff12"])
    def test_s_and_sigma_need_ascii_digits(self, tmp_path, column, digits):
        # int() reads these as 2; the table takes the ASCII digits parse_poly reads.
        with pytest.raises(DatasetError) as err:
            load_dataset(trefoil_table(tmp_path, {column: digits}))
        assert err.value.problems == ["line 1 (3_1): not an ASCII integer: %r" % digits]

    def test_s_and_sigma_may_carry_spaces(self, tmp_path):
        (rec,) = load_dataset(trefoil_table(tmp_path, {1: " 2 ", 2: "+2 "}))
        assert (rec.s_inv, rec.sigma) == (2, 2)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.tsv"
        path.write_text("just_a_name\t0\n")
        with pytest.raises(DatasetError):
            load_dataset(str(path))


class TestRender:
    def test_trefoil_grid(self):
        text = render_text(build_torus_complex(2, 3))
        lines = [l for l in text.splitlines() if l.startswith("a=")]
        assert len(lines) == 2  # two a-levels
        assert lines[0].startswith("a=   4")
        assert "bottom row a-grading: 2" in text

    def test_unknot_single_cell(self):
        from superpoly.complexes import DotComplex

        text = render_text(DotComplex([(0, 0, 0)], {}))
        assert "a=   0 | 0" in text

    def test_t34_row_sizes(self):
        c = build_torus_complex(3, 4)
        text = render_text(c)
        rows = [l for l in text.splitlines() if l.startswith("a=")]
        assert len(rows) == 3
        counts = [sum(1 for cell in row.split("|")[1].split() if cell) for row in rows]
        assert counts == [1, 5, 5]
        assert "bottom row a-grading: 6" in text

    @pytest.mark.parametrize("gradings", [
        [(0, 0, 0), (0, 1, 0), (2, 3, 1)],
        [(0, -1, 5), (2, 4, 7), (-2, 0, 3), (0, 3, 9)],
        [(0, 0, 0), (0, 2, 1), (2, 4, 2)],
    ])
    def test_every_generator_is_drawn(self, gradings):
        # q-exponents of both parities get a column step of 1, in text and SVG.
        from superpoly.complexes import DotComplex

        c = DotComplex(gradings, {})
        text = render_text(c)
        cells = [cell for line in text.splitlines() if line.startswith("a=")
                 for cell in line.split("|")[1].split()]
        assert sorted(cells) == sorted(str(et) for _, _, et in gradings)
        svg = render_svg(c)
        assert svg.count("<circle") == len(gradings)
        labels = re.findall(r'text-anchor="middle">(-?\d+)</text>', svg)
        assert sorted(labels) == sorted(str(et) for _, _, et in gradings)

    @pytest.mark.parametrize("gradings", [
        [(0, 0, 0), (1, 0, 1), (2, 0, 2)],
        [(0, 0, 0), (1, 1, 0), (3, 4, 2), (4, 4, 1), (-3, 0, 5)],
        [(0, 0, 0), (0, 2, 1), (4, 2, 2), (-2, 6, 3)],
    ])
    def test_every_spot_gets_its_own_circle(self, gradings):
        # a-exponents of both parities get a row step of 1, in text and SVG.
        from superpoly.complexes import DotComplex

        c = DotComplex(gradings, {})
        circles = re.findall(r'<circle cx="(-?\d+)" cy="(-?\d+)"', render_svg(c))
        assert len(set(circles)) == len(circles) == len({(q, a) for a, q, _ in gradings})
        rows = [line for line in render_text(c).splitlines() if line.startswith("a=")]
        assert {int(row[2:6]) for row in rows} >= {a for a, _, _ in gradings}

    def test_svg_self_contained(self):
        svg = render_svg(build_torus_complex(2, 3))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<circle") == 3
        assert svg.count("<line") == 2

    def test_text_grid_past_the_cap_is_refused(self, monkeypatch):
        from superpoly import render
        from superpoly.complexes import DotComplex
        from superpoly.laurent import TooLarge

        c = DotComplex([(0, 0, 0), (2, 0, 1), (0, 6, 2)], {})  # 2 rows x 4 columns
        monkeypatch.setattr(render, "WORK_CAP", 8)
        assert render_text(c).count("|") == 2
        monkeypatch.setattr(render, "WORK_CAP", 7)
        with pytest.raises(TooLarge, match=r"^the text grid needs 2 x 4 cells, past 7$"):
            render_text(c)

    def test_wide_complex_text_exits_2_and_svg_renders(self, tmp_path, capsys):
        path = tmp_path / "wide.cplx"
        path.write_text("gen 0 0 0 0\ngen 1 0 200000000 0\n")
        assert main(["render", "--complex", str(path), "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the text grid needs 1 x 100000001 cells, past 1000000\n"
        assert main(["render", "--complex", str(path), "--format", "svg"]) == 0
        assert capsys.readouterr().out.count("<circle") == 2


class TestCli:
    def test_homfly_canonical_round_trip(self, capsys):
        assert main(["homfly", "torus", "2", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_poly(out) == parse_poly("a^2*q^-2 + a^2*q^2 - a^4")
        assert format_poly(parse_poly(out)) == out

    def test_homfly_forms_agree(self, capsys):
        main(["homfly", "torus", "3", "5", "--form", "jones"])
        jones = capsys.readouterr().out
        main(["homfly", "torus", "3", "5", "--form", "product"])
        assert jones == capsys.readouterr().out

    def test_reduce_torus(self, capsys):
        assert main(["reduce", "--torus", "3", "4", "--n", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_poly(out) == parse_poly(
            "q^6 + q^10*t^2 + q^12*t^3 + q^12*t^4 + q^16*t^5"
        )

    def test_super_thin_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a^2*q^-2 + a^2*q^2 - a^4"))
        assert main(["super", "thin", "--homfly", "-", "--s", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_poly(out) == parse_poly("a^2*q^-2 + a^2*q^2*t^2 + a^4*t^3")

    def test_super_thin_long_zigzag_exits_1_at_once(self):
        # In a child under a 1 GB address-space limit, so a runaway fails the
        # test with a MemoryError instead of filling the machine.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        argv = ["super", "thin", "--homfly", "a^2*q^-2 + a^2*q^2 - a^4", "--s", "200000002"]
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from superpoly.cli import main; sys.exit(main())"]
            + argv, capture_output=True, text=True, timeout=60, preexec_fn=limit,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert time.monotonic() - start < 5
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "S = 200000002 has 200000003 terms" in proc.stderr

    def test_super_unreduced(self, capsys):
        assert main(["super", "torus", "2", "3", "--unreduced"]) == 0
        out = parse_poly(capsys.readouterr().out.strip())
        # dividing by q - q^{-1} after a = q^N must stay exact
        from superpoly.torus import khrN_unreduced_prediction

        khrN_unreduced_prediction(out, 4)

    def test_stable_header(self, capsys):
        assert main(["stable", "--n", "2", "--qmax", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# qmax=8\n")

    def test_stable_reduce(self, capsys):
        assert main(["stable", "--n", "3", "--qmax", "24", "--reduce", "2"]) == 0
        body = capsys.readouterr().out.splitlines()[1]
        assert parse_poly(body).coeff(0, 4, 2) == 1
        assert main(["stable", "--n", "3", "--qmax", "24", "--reduce", "0"]) == 0

    def test_check_bundled(self, capsys):
        assert main(["check", "--dataset", "bundled"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_check_only(self, capsys):
        assert main(["check", "--dataset", "bundled", "--only", "patterns"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1

    def test_check_names_the_row_a_pairing_fails_on(self, tmp_path, capsys):
        path = tmp_path / "one.tsv"
        path.write_text("X\t0\t0\t1\t\t\t1 + a^2*q^-2*t^2 + a^2*q^-2*t\n")
        assert main(["check", "--dataset", str(path), "--only", "patterns"]) == 1
        assert capsys.readouterr().out.splitlines()[1] == (
            "FAIL patterns: X: remainder after plus survivor S=0: not divisible by x^(2, -2, 1) +1")

    def test_check_empty_table_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n\n")
        assert main(["check", "--dataset", str(path)]) == 1
        assert capsys.readouterr().out == "FAIL dataset: no records\n"

    def test_check_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x\t0\t0\tnot a poly\n")
        assert main(["check", "--dataset", str(bad)]) == 1

    def test_verify_and_render_files(self, tmp_path, capsys):
        path = tmp_path / "t34.cplx"
        path.write_text(serialize_complex(build_torus_complex(3, 4)))
        assert main(["verify", "--complex", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "thin" in out.replace("thick", "thin")
        assert main(["render", "--complex", str(path), "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_verify_rejects_broken_complex(self, tmp_path, capsys):
        path = tmp_path / "broken.cplx"
        path.write_text("gen 0 2 0 1\ngen 1 0 4 0\ndiff 1 0 1 1/1\n")
        assert main(["verify", "--complex", str(path)]) == 1

    def test_reduce_rejects_nonzero_square(self, tmp_path, capsys):
        path = tmp_path / "chain.cplx"
        path.write_text(
            "gen 0 4 0 2\ngen 1 2 2 1\ngen 2 0 4 0\ndiff 1 0 1 1/1\ndiff 1 1 2 1/1\n"
        )
        assert main(["reduce", "--complex", str(path), "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d_1 squared is nonzero on 0 -> 2" in captured.err
        assert "Traceback" not in captured.err

    def test_stable_khr2_large_cutoff(self, capsys):
        # Past the cutoff (qmax 298 for four strands) at which the generic
        # route's coefficient supply used to run out.
        assert main(["stable", "--n", "4", "--qmax", "298", "--reduce", "2"]) == 0
        assert capsys.readouterr().out.startswith("# qmax=298\n")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_main_can_be_called_again_and_again(self, capsys):
        # The parser is built once per process; no option and no mutually exclusive
        # group state may carry from one call to the next.
        complex_9_42 = os.path.join(os.path.dirname(bundled_path()), "9_42.cplx")
        calls = [
            ["homfly", "torus", "3", "5", "--form", "jones"],
            ["homfly", "torus", "3", "5"],
            ["reduce", "--torus", "3", "4", "--n", "2"],
            ["reduce", "--complex", complex_9_42, "--n", "0"],
            ["frobnicate"],
            ["reduce", "--n", "1"],
            ["super", "thin", "--homfly", "a^+bad", "--s", "0"],
            ["homfly", "torus", "3", "5", "--form", "jones"],
        ]

        def run(argv):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = "SystemExit(%r)" % exc.code
            captured = capsys.readouterr()
            return status, captured.out, captured.err

        firsts = []
        for argv in calls:
            cli._parser.cache_clear()
            firsts.append(run(argv))
        assert [run(argv) for argv in calls] == firsts
        statuses = [status for status, _, _ in firsts]
        assert statuses == [0, 0, 0, 0, "SystemExit(2)", "SystemExit(2)", 2, 0]
        assert firsts[1][1] == format_poly(homfly_torus(3, 5, "product")) + "\n"
        parser = cli._parser()
        parser.parse_args(calls[0])
        assert parser.parse_args(calls[1]).form == "product"
        parser.parse_args(calls[2])
        assert parser.parse_args(calls[3]).torus is None
        helps = subparser_helps(parser)
        assert set(helps) >= {"superpoly", "superpoly homfly torus", "superpoly super thin",
                              "superpoly reduce", "superpoly verify"}
        assert helps == subparser_helps(cli._parser.__wrapped__())

    def test_parser_is_built_on_the_first_call_not_at_import(self):
        code = ("import superpoly.cli as cli; assert cli._parser.cache_info().currsize == 0; "
                "cli.main(['homfly', 'torus', '2', '3']); "
                "assert cli._parser.cache_info().currsize == 1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr

    def test_parse_error_is_2(self, capsys):
        assert main(["super", "thin", "--homfly", "a^+bad", "--s", "0"]) == 2

    def test_invalid_torus_is_2(self):
        assert main(["homfly", "torus", "4", "2"]) == 2

    @pytest.mark.parametrize("args, m, count", [
        (["reduce", "--torus", "3", "1000001", "--n", "1"], 1000001, 666668000001),
        (["super", "torus", "3", "100000001"], 100000001, 6666666800000001),
    ])
    def test_t3_past_the_generator_cap_is_2(self, capsys, args, m, count):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: T(3, %d) has %d generators, past 200000\n" % (m, count)

    @pytest.mark.parametrize("args, k", [
        (["super", "torus", "2", "20000001"], 10000000),
        (["reduce", "--torus", "2", "10000001", "--n", "1"], 5000000),
    ])
    def test_t2_past_the_generator_cap_is_2(self, capsys, args, k):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: T(2, 2k+1) at k = %d has %d generators, past 200000\n"
                                % (k, 2 * k + 1))

    def test_t2_cap_probe_exits_2_at_once_in_a_child(self):
        proc = run_capped_child(["super", "torus", "2", "20000001"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: T(2, 2k+1) at k = 10000000 has 20000001 generators, "
                               "past 200000\n")

    def test_homfly_past_the_work_cap_is_2(self, capsys):
        assert main(["homfly", "torus", "200", "201"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: HOMFLY of T(200, 201) needs up to 320812000000 "
                                "q^2-row entries, past 100000000\n")

    def test_stable_past_the_series_term_cap_is_2(self, capsys):
        start = time.monotonic()
        assert main(["stable", "--n", "2", "--qmax", "10000000"]) == 2
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the geometric series of ratio 1*a^0*q^4*t^2 needs "
                                "2500001 terms, past 1000000\n")

    def test_series_product_cap_probe_exits_2_at_once_in_a_child(self):
        # The last product of stable_super(3, 10^5) would pair its ~10^5 kept terms
        # with the 16,667 of the q^6 t^4 geometric series; 100,010 pairs came before it.
        proc = run_capped_child(["stable", "--n", "3", "--qmax", "100000"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: the series product chain needs 1666800010 term pairs, "
                               "past 1000000\n")

    @pytest.mark.parametrize("program, argv, status, out, err", [
        (CLI_PROGRAM, ["stable", "--n", "3", "--qmax", "100000", "--reduce", "0"], 2, "",
         "the word build through level 3 at qmax 100000 needs 833383334 words"),
        (CLI_PROGRAM, ["stable", "--n", "3", "--qmax", "100000", "--reduce", "2"], 2, "",
         "the generic level 3 at qmax 100012 needs 833566683 block entries"),
        (CLI_PROGRAM, ["stable", "--n", "8", "--qmax", "400", "--reduce", "0"], 2, "",
         "the word build through level 5 at qmax 400 needs 9345723 words"),
        (CLI_PROGRAM, ["stable", "--n", "1000001", "--qmax", "3"], 0,
         "# qmax=3\n1*a^0*q^0*t^0 + 1*a^2*q^2*t^3\n", None),
        (CLI_PROGRAM, ["stable", "--n", "1000001", "--qmax", "3", "--reduce", "0"], 0,
         "# qmax=3\n1*a^0*q^0*t^0 + 1*a^0*q^2*t^1\n", None),
        (STABLE_PROGRAM, ["stable_khr2_generic(10 ** 6 + 1, 3)"], 2, "",
         "the generic start at qmax 4000007 needs 2000004 block entries"),
        (STABLE_PROGRAM, ["stable_homfly(10 ** 6 + 1, 3)"], 0,
         "TruncSeries(qmax=3, 1*a^0*q^0*t^0 - 1*a^2*q^2*t^0)\n", None),
        (STABLE_PROGRAM, ["len(build_stable_complex(10 ** 6 + 1, 3))"], 0, "2\n", None),
        (CLI_PROGRAM, ["stable", "--n", "1000000000001", "--qmax", "1000000000001", "--reduce",
                       "0"], 2, "",
         "the word build through level 2 at qmax 1000000000001 needs 500000000001 words"),
        (CLI_PROGRAM, ["stable", "--n", "1000001", "--qmax", "1000001", "--reduce", "0"], 2, "",
         "the word build through level 3 at qmax 1000001 needs 83333833334 words"),
        (CLI_PROGRAM, ["stable", "--n", "1000001", "--qmax", "1000001"], 2, "",
         "the series product chain needs 1047370 term pairs"),
        (CLI_PROGRAM, ["stable", "--n", "1000000000001", "--qmax", "1000001"], 2, "",
         "the series product chain needs 1047370 term pairs"),
        (CLI_PROGRAM, ["stable", "--n", "1000000000001", "--qmax", "1000000000001"], 2, "",
         "the series product chain needs 1047370 term pairs"),
        (STABLE_PROGRAM, ["stable_super(1601, 3200)"], 2, "",
         "the series product chain needs 1041338 term pairs"),
        (STABLE_PROGRAM, ["stable_homfly(801, 1600)"], 2, "",
         "the series product chain needs 1454984 term pairs"),
        (STABLE_PROGRAM, ["stable_beta_terms(10 ** 6 + 1, 'first', 3)"], 0,
         "1*a^0*q^0*t^0 + 1*a^2*q^-2*t^1\n", None),
        (STABLE_PROGRAM, ["stable_beta_terms(10 ** 5, 'last', 3)"], 0,
         "1*a^199996*q^-2*t^-3 + 1*a^199998*q^0*t^0\n", None),
    ], ids=["word-build", "generic", "word-build-8", "clamp", "clamp-word-build",
            "generic-margin", "clamp-homfly", "clamp-complex", "word-build-huge",
            "word-build-wide", "series-chain", "series-chain-huge-n", "series-chain-huge",
            "series-chain-super", "series-chain-homfly", "clamp-beta", "clamp-beta-last"])
    def test_stable_runaway_probes_end_at_once_in_a_child(self, program, argv, status, out, err):
        # Each ran away before: a MemoryError traceback, or no end within 15 s.
        proc = run_capped_child(argv, program, limit_bytes=2 << 30)
        assert (proc.returncode, proc.stdout) == (status, out)
        assert proc.stderr == ("" if err is None else "error: %s, past 1000000\n" % err)

    def test_every_front_end_call_ends_typed_in_a_child(self):
        # Integer arguments from small, negative and far past every cap, for each
        # subcommand that takes them: 693 calls, each with 0, 1 or 2 within 5 s.
        values = ["-1", "0", "1", "2", "3", "1000001", "1000000000001"]
        calls = [["homfly", "torus", n, m, "--form", form]
                 for n in values for m in values for form in ("jones", "product")]
        calls += [["super", "torus", n, m] + unreduced
                  for n in values for m in values for unreduced in ([], ["--unreduced"])]
        calls += [["super", "thin", "--homfly", "1", "--s", s] for s in values]
        calls += [["reduce", "--torus", n, m, "--n", level]
                  for n in values for m in values for level in values]
        calls += [["stable", "--n", n, "--qmax", q] + reduce
                  for n in values for q in values
                  for reduce in ([], ["--reduce", "0"], ["--reduce", "2"])]
        assert len(calls) == 693
        proc = run_capped_child([json.dumps(calls)], FRONT_END_PROGRAM, limit_bytes=2 << 30,
                                seconds=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("args, message", [
        (["--n", "1", "--qmax", "10", "--reduce", "0"], "need n >= 2"),
        (["--n", "0", "--qmax", "10", "--reduce", "0"], "need n >= 2"),
        (["--n", "1", "--qmax", "10"], "need n >= 2"),
        (["--n", "3", "--qmax", "-4", "--reduce", "0"], "need qmax >= 0"),
        (["--n", "3", "--qmax", "-4", "--reduce", "2"], "need qmax >= 0"),
        (["--n", "3", "--qmax", "-4"], "need qmax >= 0"),
    ])
    def test_invalid_stable_is_2(self, capsys, args, message):
        assert main(["stable"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


TWO_GENS = "gen 0 2 0 1\ngen 1 0 2 0\n"

# name -> (file text, line the error must name)
BAD_COMPLEX_FILES = {
    "dangling index": (TWO_GENS + "diff 1 0 5 1/1\n", 3),
    "negative index": (TWO_GENS + "diff 1 -1 1 1/1\n", 3),
    "duplicate entry": (TWO_GENS + "diff 1 0 1 1/1\ndiff 1 0 1 2/1\n", 4),
    "duplicate with a zero copy": (TWO_GENS + "diff 1 0 1 0/1\ndiff 1 0 1 1/1\n", 4),
    "non-integer gen field": ("gen 0 2 x 1\n", 1),
    "non-integer diff field": (TWO_GENS + "diff 1 0 1 1.5\n", 3),
    "zero denominator": (TWO_GENS + "diff 1 0 1 1/0\n", 3),
    "negative denominator": (TWO_GENS + "diff 1 0 1 1/-1\n", 3),
    "sparse ids": ("gen 0 2 0 1\ngen 2 0 2 0\n", 2),
    "duplicate id": ("gen 0 2 0 1\ngen 0 0 2 0\n", 2),
    "unknown record": (TWO_GENS + "edge 0 1\n", 3),
    "empty diff": (TWO_GENS + "diff\n", 3),
    "Arabic-Indic digit id": ("gen \u0660 2 0 1\n", 1),
    "fullwidth digit grading": (TWO_GENS + "gen 2 0 \uff12 0\n", 3),
    "underscore in numerator": (TWO_GENS + "diff 1 0 1 1_0/1\n", 3),
    "empty denominator": (TWO_GENS + "diff 1 0 1 3/\n", 3),
    "empty numerator": (TWO_GENS + "diff 1 0 1 /3\n", 3),
}


@pytest.mark.parametrize("command", [["verify"], ["render"], ["reduce", "--n", "1"]],
                         ids=["verify", "render", "reduce"])
@pytest.mark.parametrize("case", sorted(BAD_COMPLEX_FILES))
def test_bad_complex_file_exits_2(tmp_path, capsys, case, command):
    text, line = BAD_COMPLEX_FILES[case]
    path = tmp_path / "bad.cplx"
    path.write_text(text)
    assert main(command[:1] + ["--complex", str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"parse error: [^\n]+ \(line %d\)\n" % line, captured.err)
    assert "Traceback" not in captured.err


BAD_POLY_TEXTS = {
    "stray sign in exponent": "a^+bad",
    "empty": "",
    "missing exponent": "q^",
    "trailing plus": "1 +",
    "implicit product": "a*b",
    "fraction": "1/2",
    "float exponent": "q^1.5",
    "Arabic-Indic digit": "\u0663",
    "doubled operator": "a^2*q^-2 + + t",
    "stacked exponent": "q^2^3",
    "unknown variable": "x",
    "past the digit limit": "9" * 5000,
    "trailing star": "1*",
}


@pytest.mark.parametrize("via", ["argument", "stdin"])
@pytest.mark.parametrize("case", sorted(BAD_POLY_TEXTS))
def test_bad_homfly_text_exits_2(monkeypatch, capsys, case, via):
    text = BAD_POLY_TEXTS[case]
    if via == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        text = "-"
    assert main(["super", "thin", "--homfly", text, "--s", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"parse error: [^\n]+\n", captured.err)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(BAD_POLY_TEXTS))
def test_bad_dataset_polynomial_fails_check(tmp_path, capsys, case):
    path = tmp_path / "bad.tsv"
    path.write_text("x\t0\t0\t%s\n" % BAD_POLY_TEXTS[case])
    assert main(["check", "--dataset", str(path)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"FAIL dataset: [^\n]+\n", captured.out)
    assert "Traceback" not in captured.out + captured.err
