"""The CLI's printed rows checked against the benchmark's independent oracle.

``perfbench/oracle.py`` computes every expected row by a route the program
does not use (Eulerian numbers by their alternating sum, descent-set counts
by inclusion-exclusion, the colored-descent closed form) and checks shape
verdicts against theory.  It is loaded here by path, so the suite runs it
on a fixed grid of ``poly``, ``table`` and ``report`` jobs in every format,
not only on the benchmark's golden outputs.  Each of those golden outputs,
``perfbench/golden.json``, is also checked byte for byte: the benchmark
counts a job whose stdout differs from it as failed.
"""
from __future__ import annotations

import ast
import importlib.util
import json
import os

import pytest

from wreath_eulerian.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
ORACLE_PATH = os.path.join(PERFBENCH, "oracle.py")
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# Larger than every domain in the grid, so no job depends on WREATH_CAP.
CAP = str(10**40)


def _entries():
    """The grid's jobs, each a command and its flags without --format."""
    for alpha in (1, 2, 3, 5):
        for max_n in (1, 7, 10):
            yield ("report", "--alpha", str(alpha), "--max-n", str(max_n))
    for alpha in (1, 2, 4):
        for n in (1, 3, 8, 10):
            for stat in ("descent", "flag"):
                for domain in ("quotient", "full", "fixed"):
                    beta = ("--beta", str(alpha - 1)) if domain == "fixed" else ()
                    yield ("poly", "--alpha", str(alpha), "--n", str(n),
                           "--stat", stat, "--domain", domain, *beta)
    for alpha in (1, 3, 6):
        yield ("table", "--alpha", str(alpha), "--max-n", "10")


JOBS = [(entry, fmt) for entry in _entries() for fmt in ("text", "json", "csv")]


@pytest.mark.parametrize("entry,fmt", JOBS,
                         ids=[" ".join([*entry, fmt]) for entry, fmt in JOBS])
def test_cli_output_passes_the_oracle(capsys, entry, fmt):
    code = main([*entry, "--format", fmt, "--cap", CAP])
    captured = capsys.readouterr()
    # The job's own stdout is its golden output, so the oracle alone
    # judges the rows, as the benchmark's check of its golden outputs does.
    assert oracle.check_cli_job(list(entry), fmt, code, captured.out,
                                captured.err, captured.out) == []


def test_the_oracle_imports_nothing_from_the_package():
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "." for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "json" in modules
    assert [m for m in modules if m.split(".")[0] == "wreath_eulerian"] == []


with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_matches_the_golden_bytes(capsys, monkeypatch, key):
    # Each key is the job's argv, run as the benchmark runs it: with no
    # WREATH_CAP, so under the default cap.
    monkeypatch.delenv("WREATH_CAP", raising=False)
    code = main(key.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == GOLDEN[key]
