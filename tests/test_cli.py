import argparse
import gc
import json
import math
import os
import sys

import pytest
from conftest import record, refuse

from wreath_eulerian import IntPolynomial, StatReport, cli, enumeration
from wreath_eulerian.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolyCommand:
    def test_flag_quotient_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--stat", "flag", "--domain",
                           "quotient", "--alpha", "2", "--n", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "6", "10", "6", "1"]
        assert payload["palindromic"] is True
        assert payload["stat"] == "flag"
        assert payload["domain"] == "quotient"
        assert payload["degree"] == 4

    def test_descent_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--stat", "descent", "--domain",
                           "quotient", "--alpha", "1", "--n", "3")
        assert code == 0
        assert "1 4 1" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "poly", "--alpha", "2", "--n", "2",
                           "--stat", "flag", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["k,coefficient", "0,1", "1,2", "2,1"]

    def test_alpha_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "poly", "--alpha", "0", "--n", "2")
        assert code == 2
        assert "alpha must be >= 1" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["poly", "--alpha", "2", "--n", "2", "--bogus"]) == 2

    def test_fixed_domain_with_beta(self, capsys):
        code, out, _ = run(capsys, "poly", "--alpha", "3", "--n", "2",
                           "--domain", "fixed", "--beta", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["domain"] == "fixed:1"

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "poly", "--alpha", "2", "--n", "6",
                           "--cap", "100")
        assert code == 3
        assert "cap" in err

    def test_json_round_trip_cardinality(self, capsys):
        _, out, _ = run(capsys, "poly", "--alpha", "3", "--n", "4",
                        "--format", "json")
        payload = json.loads(out)
        assert sum(int(c) for c in payload["coefficients"]) == \
            int(payload["cardinality"])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "poly", "--alpha", "2", "--n", "3",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["coefficients"] == \
            ["1", "6", "10", "6", "1"]


class TestTableCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--alpha", "2", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,count"
        assert "3,2,10" in lines
        assert out.endswith("\n")
        assert "\r" not in out

    def test_eulerian_triangle(self, capsys):
        code, out, _ = run(capsys, "table", "--alpha", "1", "--max-n", "4")
        assert code == 0
        assert "4,1,11" in out.splitlines()

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--alpha", "2", "--max-n", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {"n": 2, "k": 1, "count": "2"} in payload["rows"]

    def test_empty_range(self, capsys):
        code, _, err = run(capsys, "table", "--alpha", "2", "--max-n", "0")
        assert code == 2
        assert "max-n" in err

    def test_refusal_names_the_largest_domain(self, capsys):
        # One pass to n = 6 is refused on quotient(2, 6) = 23040, not on
        # the first row over the cap.
        code, out, err = run(capsys, "table", "--alpha", "2", "--max-n", "6",
                             "--cap", "100")
        assert (code, out) == (3, "")
        assert err == "error: enumeration of 23040 elements exceeds the cap of 100\n"


class TestSweepCommands:
    @pytest.mark.parametrize("argv", [
        ("table", "--alpha", "2", "--max-n", "6"),
        ("report", "--alpha", "2", "--max-n", "6"),
        ("report", "--alpha", "3", "--max-n", "4", "--format", "json"),
        ("verify", "abr-identity", "--max-n", "5"),
        ("verify", "product-identity", "--max-k", "3"),
    ])
    def test_one_transfer_matrix_pass(self, capsys, monkeypatch, argv):
        calls = record(monkeypatch, enumeration, "_rows")
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1


class TestVerifyCommand:
    def test_symmetry(self, capsys):
        code, out, _ = run(capsys, "verify", "symmetry",
                           "--alpha", "3", "--n", "4")
        assert code == 0
        assert out.startswith("PASS")

    def test_product_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "product-identity",
                           "--max-k", "2")
        assert code == 0
        assert out.count("PASS") == 2

    def test_abr_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "abr-identity", "--max-n", "5")
        assert code == 0
        assert out.count("PASS") == 5

    def test_coset_invariance(self, capsys):
        code, out, _ = run(capsys, "verify", "coset-invariance",
                           "--alpha", "3", "--n", "3")
        assert code == 0

    def test_involution(self, capsys):
        code, out, _ = run(capsys, "verify", "involution",
                           "--alpha", "2", "--n", "4")
        assert code == 0

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        # A window rotation, with the colors kept as they are, keeps the
        # last color 0 but breaks the pairing.
        monkeypatch.setattr(enumeration, "_reversed_window",
                            lambda window: window[1:] + window[:1])
        monkeypatch.setattr(enumeration, "_reversed_colors", lambda alpha, colors: colors)
        code, out, _ = run(capsys, "verify", "symmetry", "--alpha", "2", "--n", "3")
        assert code == 1
        assert out.splitlines() == ["FAIL flag(w) + flag(r(w)) != 4",
                                    "counterexample: 1^0 2^0 3^0"]

    def test_identity_sweep_stops_at_the_first_failure(self, capsys, monkeypatch):
        eulerian = enumeration.classical_eulerian
        monkeypatch.setattr(enumeration, "classical_eulerian", lambda n:
                            eulerian(n) + IntPolynomial((1,)) if n >= 3 else eulerian(n))
        code, out, _ = run(capsys, "verify", "abr-identity", "--max-n", "4")
        assert code == 1
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "PASS", "FAIL"]
        assert lines[2].startswith("FAIL n=3: ")

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "symmetry")
        assert code == 2


class TestReportCommand:
    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "report", "--alpha", "2", "--max-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("palindromic=true" in line for line in lines)

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "report", "--alpha", "3", "--max-n", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert row["palindromic"] is True
            assert isinstance(row["unimodal"], bool)
            assert isinstance(row["real_rooted"], bool)

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "report", "--alpha", "2", "--max-n", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == \
            "alpha,n,degree,cardinality,palindromic,unimodal,real_rooted"

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_rows_are_the_poly_records(self, capsys, alpha):
        # A report row is the default poly's record, bar its command.
        _, out, _ = run(capsys, "report", "--alpha", str(alpha), "--max-n", "8",
                        "--format", "json")
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == list(range(1, 9))
        for n, row in enumerate(rows, start=1):
            _, out, _ = run(capsys, "poly", "--alpha", str(alpha), "--n", str(n),
                            "--format", "json")
            record = json.loads(out)
            assert (row.pop("command"), record.pop("command")) == ("report", "poly")
            assert row == record


class TestExactOutput:
    """Whole stdout of every rendering, field order included."""

    @pytest.mark.parametrize("argv,expected", [
        (("report", "--alpha", "2", "--max-n", "3"),
         "alpha=2 n=1 degree=0 cardinality=1 palindromic=true unimodal=true real_rooted=true\n"
         "alpha=2 n=2 degree=2 cardinality=4 palindromic=true unimodal=true real_rooted=true\n"
         "alpha=2 n=3 degree=4 cardinality=24 palindromic=true unimodal=true real_rooted=true\n"),
        (("report", "--alpha", "3", "--max-n", "3"),
         "alpha=3 n=1 degree=0 cardinality=1 palindromic=true unimodal=true real_rooted=true\n"
         "alpha=3 n=2 degree=3 cardinality=6 palindromic=true unimodal=true real_rooted=false\n"
         "alpha=3 n=3 degree=6 cardinality=54 palindromic=true unimodal=true real_rooted=false\n"),
        (("report", "--alpha", "2", "--max-n", "3", "--format", "csv"),
         "alpha,n,degree,cardinality,palindromic,unimodal,real_rooted\n"
         "2,1,0,1,true,true,true\n"
         "2,2,2,4,true,true,true\n"
         "2,3,4,24,true,true,true\n"),
        (("poly", "--alpha", "2", "--n", "3"),
         "coefficients: 1 6 10 6 1\n"
         "degree: 4\n"
         "cardinality: 24\n"
         "palindromic: true\n"
         "unimodal: true\n"
         "real_rooted: true\n"),
        (("poly", "--alpha", "2", "--n", "3", "--format", "json"),
         '{"command": "poly", "alpha": 2, "n": 3, "stat": "flag", '
         '"domain": "quotient", "degree": 4, '
         '"coefficients": ["1", "6", "10", "6", "1"], "cardinality": "24", '
         '"palindromic": true, "unimodal": true, "real_rooted": true}\n'),
        (("poly", "--alpha", "3", "--n", "2", "--stat", "descent",
          "--domain", "full", "--format", "json"),
         '{"command": "poly", "alpha": 3, "n": 2, "stat": "descent", '
         '"domain": "full", "degree": 1, "coefficients": ["3", "15"], '
         '"cardinality": "18", "palindromic": false, "unimodal": true, '
         '"real_rooted": true}\n'),
        (("poly", "--alpha", "2", "--n", "3", "--format", "csv"),
         "k,coefficient\n0,1\n1,6\n2,10\n3,6\n4,1\n"),
        (("report", "--alpha", "2", "--max-n", "2", "--format", "json"),
         '{"command": "report", "alpha": 2, "max_n": 2, "rows": ['
         '{"command": "report", "alpha": 2, "n": 1, "stat": "flag", '
         '"domain": "quotient", "degree": 0, "coefficients": ["1"], '
         '"cardinality": "1", "palindromic": true, "unimodal": true, '
         '"real_rooted": true}, '
         '{"command": "report", "alpha": 2, "n": 2, "stat": "flag", '
         '"domain": "quotient", "degree": 2, "coefficients": ["1", "2", "1"], '
         '"cardinality": "4", "palindromic": true, "unimodal": true, '
         '"real_rooted": true}]}\n'),
        (("table", "--alpha", "2", "--max-n", "3", "--format", "csv"),
         "n,k,count\n1,0,1\n2,0,1\n2,1,2\n2,2,1\n"
         "3,0,1\n3,1,6\n3,2,10\n3,3,6\n3,4,1\n"),
        (("table", "--alpha", "2", "--max-n", "2", "--format", "json"),
         '{"command": "table", "alpha": 2, "max_n": 2, "rows": ['
         '{"n": 1, "k": 0, "count": "1"}, {"n": 2, "k": 0, "count": "1"}, '
         '{"n": 2, "k": 1, "count": "2"}, {"n": 2, "k": 2, "count": "1"}]}\n'),
    ], ids=["report-text", "report-text-mixed", "report-csv", "poly-text",
            "poly-json", "poly-json-descent-full", "poly-csv", "report-json",
            "table-csv", "table-json"])
    def test_stdout_bytes(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        ("poly", "--alpha", "2", "--n", "3", "--format", "csv"),
        ("table", "--alpha", "2", "--max-n", "3"),
        ("table", "--alpha", "2", "--max-n", "3", "--format", "json"),
    ])
    def test_coefficient_renderings_compute_no_verdict(
            self, capsys, monkeypatch, argv):
        for name in ("is_palindromic", "is_unimodal", "is_real_rooted"):
            monkeypatch.setattr(enumeration, name, refuse("shape verdict computed"))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


class TestDeterminism:
    # Every command in each format it accepts; verify prints text only.
    @pytest.mark.parametrize("argv", [
        *(pytest.param((*command, "--format", form), id=f"{command[0]}-{form}")
          for command in [
              ("poly", "--alpha", "2", "--n", "5", "--stat", "flag", "--domain", "quotient"),
              ("table", "--alpha", "2", "--max-n", "5"),
              ("report", "--alpha", "2", "--max-n", "5")]
          for form in ("text", "json", "csv")),
        *(pytest.param(("verify", *target), id=f"verify-{target[0]}") for target in [
            ("symmetry", "--alpha", "2", "--n", "4"),
            ("product-identity", "--max-k", "3"),
            ("abr-identity", "--max-n", "5"),
            ("coset-invariance", "--alpha", "3", "--n", "3"),
            ("involution", "--alpha", "2", "--n", "4")])])
    def test_thread_count_does_not_change_output(self, capsys, argv):
        outputs = []
        for threads in ("1", "2", "4"):
            code, out, _ = run(capsys, *argv, "--threads", threads)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]


# Every leaf parser's options after -h, in order, as (flag, type, default,
# choices, required), and what it runs: a command its runner, a verify
# target _run_verify with its verifier.  argparse keeps a parser's actions,
# -h first, in its _actions list; that is where the tests read them.
ALPHA, N = ("--alpha", "int", None, None, True), ("--n", "int", None, None, True)
MAX_N = ("--max-n", "_sweep_bound", None, None, True)


def shared(formats):
    return [("--format", None, "text", formats, False),
            ("--cap", "int", None, None, False),
            ("--threads", "int", 1, None, False),
            ("--out", "str", None, None, False)]


GRAMMAR = {
    ("poly",): ("_run_poly", [
        ALPHA, N,
        ("--stat", None, "flag", ("descent", "flag"), False),
        ("--domain", None, "quotient", ("quotient", "full", "fixed"), False),
        ("--beta", "int", 0, None, False),
        *shared(("text", "json", "csv"))]),
    ("table",): ("_run_table", [ALPHA, MAX_N, *shared(("text", "json", "csv"))]),
    ("report",): ("_run_report", [ALPHA, MAX_N, *shared(("text", "json", "csv"))]),
    ("verify", "symmetry"): ("verify_symmetry", [ALPHA, N, *shared(("text",))]),
    ("verify", "product-identity"): ("verify_product_identity", [
        ("--max-k", "_sweep_bound", None, None, True), *shared(("text",))]),
    ("verify", "abr-identity"): ("verify_abr_identity", [MAX_N, *shared(("text",))]),
    ("verify", "coset-invariance"): ("verify_coset_invariance",
                                     [ALPHA, N, *shared(("text",))]),
    ("verify", "involution"): ("verify_involution", [ALPHA, N, *shared(("text",))]),
}


class TestGrammar:
    @pytest.mark.parametrize("path", GRAMMAR, ids=" ".join)
    @pytest.mark.parametrize("named", [True, False], ids=["named", "full"])
    def test_leaf_options(self, path, named):
        parser = cli._build_parser(list(path[:1]) if named else [])
        for name in path:
            parser = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)).choices[name]
        got = [(action.option_strings[0], getattr(action.type, "__name__", None),
                action.default, action.choices and tuple(action.choices), action.required)
               for action in parser._actions[1:]]
        assert got == GRAMMAR[path][1]

    @pytest.mark.parametrize("path", GRAMMAR, ids=" ".join)
    def test_leaf_runs_its_runner(self, path):
        # The shortest command line the leaf accepts: each required flag once.
        required = [flag for flag, *_, needed in GRAMMAR[path][1] if needed]
        argv = [*path, *(token for flag in required for token in (flag, "1"))]
        args = cli._build_parser(argv).parse_args(argv)
        runner = getattr(cli, GRAMMAR[path][0])
        if path[0] == "verify":
            assert (args.run, args.verifier) == (cli._run_verify, runner)
        else:
            assert args.run is runner


class TestPastTheDigitLimit:
    """Domain sizes, caps and coefficients longer than the 4,300 digits that
    Python converts between int and str by default: ``main`` lifts that
    limit while it runs and puts the caller's limit back on every way out."""

    @pytest.mark.parametrize("argv", [("poly",), ("verify", "symmetry")],
                             ids=["poly", "verify"])
    def test_cap_refusal(self, capsys, monkeypatch, default_digit_limit, argv):
        # The (2, 1500) quotient has 2^1499 * 1500! elements, 4,566 digits.
        monkeypatch.delenv("WREATH_CAP", raising=False)
        code, out, err = run(capsys, *argv, "--alpha", "2", "--n", "1500")
        assert (code, out) == (3, "")
        # main has put the default limit back, so the expected count needs
        # it lifted here to format; the fixture restores it after the test.
        sys.set_int_max_str_digits(0)
        assert err.splitlines() == [f"error: enumeration of "
                                    f"{2**1499 * math.factorial(1500)} elements "
                                    f"exceeds the cap of 1000000000"]

    # The refusal names the exact size up to the bit bound by _admit's
    # estimate, 14n - 2 bits for the alpha-2 quotient: 32,758 at n = 2340
    # and 32,772 at n = 2341.  Past it, the product that first passed the
    # cap, here 13!, is a lower bound.
    @pytest.mark.parametrize("n,size", [
        (2340, 2**2339 * math.factorial(2340)), (2341, "at least 6227020800")],
        ids=["exact", "lower-bound"])
    def test_refusal_past_the_bit_bound(self, capsys, monkeypatch, default_digit_limit,
                                        n, size):
        assert 14 * 2340 - 2 <= enumeration._EXACT_BITS < 14 * 2341 - 2
        monkeypatch.delenv("WREATH_CAP", raising=False)
        code, out, err = run(capsys, "poly", "--alpha", "2", "--n", str(n))
        assert (code, out) == (3, "")
        sys.set_int_max_str_digits(0)
        assert err == f"error: enumeration of {size} elements exceeds the cap of 1000000000\n"

    @pytest.mark.parametrize("via", ["--cap", "WREATH_CAP"])
    def test_long_cap_is_accepted(self, capsys, monkeypatch, default_digit_limit, via):
        cap = "1" + "0" * 4400
        argv = ["poly", "--alpha", "2", "--n", "3"]
        if via == "--cap":
            argv += ["--cap", cap]
        else:
            monkeypatch.setenv("WREATH_CAP", cap)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("coefficients: 1 6 10 6 1\n")

    @pytest.mark.parametrize("fmt,copies", [("text", 2), ("json", 2), ("csv", 1)])
    def test_long_coefficient_prints(self, capsys, monkeypatch, default_digit_limit,
                                     fmt, copies):
        # A one-row report whose coefficient, and so cardinality, is 10^4400.
        monkeypatch.setattr(cli, "stat_report", lambda *args, **kwargs: StatReport(
            2, 1, "flag", "quotient", IntPolynomial((10**4400,))))
        code, out, err = run(capsys, "poly", "--alpha", "2", "--n", "1",
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert out.count("1" + "0" * 4400) == copies

    @pytest.mark.parametrize("argv,status,closed", [
        (("poly", "--alpha", "2", "--n", "3"), 0, False),
        (("poly", "--alpha", "0", "--n", "2"), 2, False),
        (("poly", "--alpha", "2", "--n", "4", "--cap", "0"), 3, False),
        (("poly", "--help"), 0, False),
        (("poly", "--alpha", "2", "--n", "3"), 2, True),
    ], ids=["ok", "usage", "cap", "help", "closed-stdout"])
    def test_main_puts_the_limit_back(self, capsys, monkeypatch, request,
                                      default_digit_limit, argv, status, closed):
        monkeypatch.delenv("WREATH_CAP", raising=False)
        if closed:
            # A pipe whose reader is gone.  main points its descriptor at
            # os.devnull, so closing the writer afterwards flushes nowhere.
            read, write = os.pipe()
            os.close(read)
            monkeypatch.setattr(sys, "stdout", open(write, "w"))
            request.addfinalizer(sys.stdout.close)
        assert main(list(argv)) == status
        assert sys.get_int_max_str_digits() == 4300
        if closed:
            assert capsys.readouterr().err.startswith("error: cannot write stdout: ")


class TestStartup:
    def test_import_loads_no_heavy_modules(self, cli):
        """Every run imports the CLI, so what that import pulls in is paid
        by every process.  -S keeps site's own imports out of the count."""
        heavy = ("dataclasses", "inspect", "typing", "fractions", "decimal", "csv",
                 "json")
        code = ("import sys, wreath_eulerian.cli; "
                f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
        proc = cli.python(code, "-S")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("argv,status", [
        (("poly", "--alpha", "2", "--n", "3"), 0),
        (("poly", "--alpha", "0", "--n", "2"), 2),
        (("poly", "--alpha", "2", "--n", "4", "--cap", "0"), 3),
    ], ids=["ok", "usage", "cap"])
    def test_run_exits_with_the_status_of_main_after_freezing(self, cli, argv, status):
        code = ("import atexit, gc, sys\n"
                "from wreath_eulerian import cli\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,"
                " file=sys.stderr))\n"
                f"sys.argv = ['wreath-eulerian', *{argv!r}]\n"
                "cli.run()\n")
        proc = cli.python(code)
        assert proc.returncode == status, proc.stderr
        assert proc.stderr.splitlines()[-1] == "frozen True"

    def test_only_run_freezes(self, capsys, monkeypatch):
        # A stand-in for gc.freeze: the real one would freeze this process.
        before = gc.get_freeze_count()
        monkeypatch.setattr(gc, "freeze", refuse("main froze the collector"))
        assert run(capsys, "poly", "--alpha", "2", "--n", "3")[0] == 0
        assert gc.get_freeze_count() == before
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["wreath-eulerian", "poly", "--alpha", "0"])
        with pytest.raises(SystemExit) as exit:
            cli.run()
        assert (exit.value.code, len(calls)) == (2, 1)

    @pytest.mark.parametrize("argv", [("poly",), ("table",), ("report",), ("verify",),
                                      ("verify", "symmetry")], ids=" ".join)
    def test_named_command_parser_prints_the_full_help(self, capsys, argv):
        helps = []
        for named in (argv[:1], []):
            with pytest.raises(SystemExit):
                cli._build_parser(list(named)).parse_args([*argv, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] != ""


class TestFailurePaths:
    def test_verify_text_format_still_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "involution", "--alpha", "2",
                           "--n", "3", "--format", "text")
        assert code == 0
        assert out.startswith("PASS")

    def test_cap_below_cardinality_still_refused(self, capsys):
        code, _, err = run(capsys, "poly", "--alpha", "2", "--n", "4",
                           "--cap", "0")
        assert code == 3
        assert "exceeds the cap of 0" in err
