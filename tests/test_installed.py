"""The wreath-eulerian command as a user runs it, each check in a child
process started from an empty directory.  By default the command is
``python -m wreath_eulerian.cli`` over ``src/``; ``--cli`` names another,
and CI names the console script that pip installed, from outside the
checkout::

    pytest tests/test_installed.py --cli wreath-eulerian
"""
from __future__ import annotations

import math
import os
import re

import pytest

# An exact cap: the (2, 60) full group, admitted by every domain at n = 60.
CAP_2_60 = 2**60 * math.factorial(60)

# What every run pays for importing the CLI, in the copy under test: it
# must not pull in the seven heavy modules (TestStartup checks src/ under
# -S).  Only what the import adds counts: site may load typing itself, and
# -S would drop the site-packages that hold an installed copy.  The package
# exports the sorted union of its modules' __all__, and under the default
# int-str digit limit, parse refuses a 5,000-digit entry as no permutation,
# in one line.
INSTALLED_COPY = """\
import sys
before = set(sys.modules)
import wreath_eulerian.cli
heavy = ('dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'csv', 'json')
loaded = [m for m in heavy if m in sys.modules and m not in before]
assert not loaded, f'importing wreath_eulerian.cli loaded {loaded}'
import wreath_eulerian as w
union = [*w.core.__all__, *w.enumeration.__all__, *w.poly.__all__, *w.stats.__all__]
assert w.__all__ == sorted(union), 'wreath_eulerian.__all__ differs from the union of the module lists'
try:
    w.parse(2, '1' * 5000 + '^0')
except w.ValidationError as exc:
    message = str(exc)
else:
    raise AssertionError('parse accepted a 5,000-digit entry')
assert '\\n' not in message and 'w^c' not in message, message
"""


def shown(line: str) -> str:
    """A test id for a command line, with each long number named by its
    length."""
    return " ".join(f"<{len(w)} digits>" if len(w) > 20 and w.isdigit() else w
                    for w in line.split()) or "no-arguments"


def count(pattern: str, text: str) -> int:
    """Lines of ``text`` that match ``pattern``, as ``grep -cE`` counts
    them: the empty pattern matches every line."""
    return sum(1 for line in text.splitlines() if re.search(pattern, line))


def test_help(cli):
    proc = cli("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: wreath-eulerian")


def test_installed_copy(cli):
    proc = cli.python(INSTALLED_COPY)
    assert proc.returncode == 0, proc.stderr


def test_long_wreath_cap(cli):
    # 4,401 digits, past Python's default int-str limit, read from the
    # environment.
    proc = cli(*"poly --alpha 2 --n 3".split(), env={"WREATH_CAP": "1" + "0" * 4400})
    assert proc.returncode == 0, proc.stderr
    assert count("^coefficients: 1 6 10 6 1$", proc.stdout) == 1


# The csv format joins each row's fields with commas and quotes none, so its
# bytes are pinned: the flag table to n = 3 and the alpha-3 report to n = 3.
@pytest.mark.parametrize("line,want", [
    ("table --alpha 2 --max-n 3",
     b"n,k,count\n1,0,1\n2,0,1\n2,1,2\n2,2,1\n3,0,1\n3,1,6\n3,2,10\n3,3,6\n3,4,1\n"),
    ("report --alpha 3 --max-n 3",
     b"alpha,n,degree,cardinality,palindromic,unimodal,real_rooted\n"
     b"3,1,0,1,true,true,true\n3,2,3,6,true,true,false\n3,3,6,54,true,true,false\n"),
], ids=["table", "report"])
def test_csv_bytes(cli, line, want):
    proc = cli(*line.split(), "--format", "csv", text=False)
    assert (proc.returncode, proc.stdout) == (0, want), proc.stderr


def test_report_to_40(cli):
    proc = cli(*f"report --alpha 2 --max-n 40 --cap {2**39 * math.factorial(40)}".split())
    assert proc.returncode == 0, proc.stderr


def test_abr_identity_to_60(cli):
    # A large sweep from one pass, capped at 2^60 * 60!.
    proc = cli(*f"verify abr-identity --max-n 60 --cap {CAP_2_60}".split())
    assert proc.returncode == 0, proc.stderr
    assert count("^PASS ", proc.stdout) == 60


# The stream verifiers walk the n! windows once, then check one window per
# (descent class, coloring): 2^(n-1) * alpha^(n-1) checks.  So the 5160960
# elements of the (2, 8) quotient, the 3674160 cosets of (3, 7) and the
# 92897280 elements of the (2, 9) quotient each take about a second.  The
# cap reads each domain's own size: 9720 admits the (3, 5) quotient.  Each
# verify target, its time limit and a word of its one PASS line.
PASSES = [
    ("symmetry --alpha 3 --n 5", 60, "9720"),
    ("involution --alpha 3 --n 5", 60, "9720"),
    ("coset-invariance --alpha 3 --n 5", 60, "9720"),
    ("symmetry --alpha 2 --n 8", 120, "5160960"),
    ("coset-invariance --alpha 3 --n 7", 60, "3674160"),
    ("symmetry --alpha 2 --n 9", 60, "92897280"),
    ("symmetry --alpha 3 --n 5 --cap 9720", 60, ""),
]


@pytest.mark.parametrize("line,timeout,word", PASSES, ids=[shown(c[0]) for c in PASSES])
def test_one_pass_line(cli, line, timeout, word):
    proc = cli("verify", *line.split(), timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("PASS "), lines
    assert re.search(rf"\b{word}\b", lines[0]), lines


# Each job, its time limit and the lines of its stdout that must match each
# pattern ("" matches every line).
LARGE_JOBS = [
    # A builder step costs O(alpha * n) big-integer operations on states of
    # at most n slots, so the (4000, 2) quotient row, a header and
    # coefficients 0..4000, takes well under a minute.  The csv format
    # computes no shape verdict.
    ("poly --alpha 4000 --n 2 --format csv", 60, {"": 4002}),
    # In text, the row also gets its verdicts.  Newton's middle inequality
    # rejects the degree-4000 row in O(1), with no Sturm chain.
    ("poly --alpha 4000 --n 2", 30, {"^real_rooted: false$": 1}),
    # A sign-change certificate proves each alpha = 2 row real-rooted, with
    # no Sturm chain: the report to n = 200, capped at 2^199 * 200!, takes a
    # few seconds.
    (f"report --alpha 2 --max-n 200 --cap {2**199 * math.factorial(200)}", 15,
     {"": 200, " real_rooted=true$": 200}),
    # The certificate proves the other domains' alpha = 2 rows too: the full
    # group and last color 1 at n = 60, capped at 2^60 * 60!.
    (f"poly --alpha 2 --n 60 --domain full --cap {CAP_2_60}", 60, {"^real_rooted: true$": 1}),
    (f"poly --alpha 2 --n 60 --domain fixed --beta 1 --cap {CAP_2_60}", 60,
     {"^real_rooted: true$": 1}),
    # Newton's middle inequality, read in O(1), rejects every alpha = 3 row
    # past n = 1 but n = 3; there the certificate search stops at its sign
    # guard and the row's own Sturm chain rejects.  So the report to n = 60,
    # capped at 3^59 * 60!, takes well under a second.  The one real-rooted
    # row is n = 1's.
    (f"report --alpha 3 --max-n 60 --cap {3**59 * math.factorial(60)}", 30,
     {"": 60, " real_rooted=true$": 1, "^alpha=3 n=1 .* real_rooted=true$": 1}),
    # The same holds wide: the report to n = 150, capped at 3^149 * 150!,
    # takes a second or two, most of it building the rows.
    (f"report --alpha 3 --max-n 150 --cap {3**149 * math.factorial(150)}", 30,
     {"": 150, " real_rooted=true$": 1}),
    # A colored-descent row is not palindromic and keeps its middle Newton
    # inequality, so its Sturm chain decides it: the (3, 40) quotient row,
    # capped at 3^39 * 40!, takes well under a second.
    (f"poly --stat descent --alpha 3 --n 40 --cap {3**39 * math.factorial(40)}", 30,
     {"^real_rooted: true$": 1, "^palindromic: false$": 1}),
    # The (3, 3) row of last color 2 keeps its middle inequality and has no
    # certificate, so its chain finds the non-real roots.
    ("poly --alpha 3 --n 3 --domain fixed --beta 2", 30, {"^real_rooted: false$": 1}),
    # Builder memory grows like alpha * n, not alpha^2, so (20000, 2) fits.
    ("poly --alpha 20000 --n 2 --format csv", 60, {"": 20002}),
]


@pytest.mark.parametrize("line,timeout,counts", LARGE_JOBS,
                         ids=[shown(c[0]) for c in LARGE_JOBS])
def test_large_job(cli, line, timeout, counts):
    proc = cli(*line.split(), timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert {pattern: count(pattern, proc.stdout) for pattern in counts} == counts


# Each command line that fails ends in its exit code with one stderr line,
# an error: line that matches the pattern, and an empty stdout.  Its
# NAME=value words are set in the environment, as a shell sets them.  Each
# runs under a 1.5 GB address-space limit and a 10 s timeout: a domain of
# astronomical size is refused by a lower bound on its size, never by
# computing it.
REFUSALS = [
    # Usage errors, exit 2.
    ("poly --alpha 2 --n 3 --out no-such-dir/sub/out.txt", 2, "--out"),
    ("WREATH_CAP=abc poly --alpha 2 --n 3", 2, "WREATH_CAP"),
    ("WREATH_CAP=-5 poly --alpha 2 --n 3", 2, "WREATH_CAP"),
    ("poly --alpha 2 --n 3 --cap -5", 2, "cap"),
    ("poly --alpha 2 --n 3 --cap abc", 2, "--cap"),
    ("poly --alpha x --n 3", 2, "--alpha"),
    ("poly --alpha 0 --n 2", 2, "alpha"),
    ("poly --alpha 2 --n 3 --beta 7", 2, "beta"),
    ("", 2, "command"),
    ("table --alpha 2 --max-n x", 2, "--max-n"),
    ("verify symmetry", 2, "--alpha"),
    ("verify symmetry --alpha 2 --n 3 --format json", 2, "--format"),
    ("verify involution --alpha 2 --n 3 --format csv", 2, "--format"),
    ("verify symmetry --alpha 2 --n 3 --max-k 0", 2, "--max-k"),
    ("verify symmetry --alpha 3 --n 5 --max-n 2", 2, "--max-n"),
    ("verify abr-identity --max-n 0", 2, "max-n"),
    ("verify abr-identity --max-n 2 --alpha 7", 2, "--alpha"),
    ("verify abr-identity --max-n 2 --alpha 7 --n 99", 2, "--alpha"),
    ("verify product-identity --max-k 0", 2, "max-k"),
    # Cap refusals, exit 3.  The (2, 1500) quotient's 2^1499 * 1500!
    # elements have 4,566 digits, past Python's default int-str limit, and
    # are named exactly.  The coset verifier's domain is the 29160-element
    # full group, not the 9720-element quotient.
    ("table --alpha 2 --max-n 6 --cap 100", 3, "cap of 100"),
    ("poly --alpha 2 --n 1500", 3, r"of \d{4566} elements"),
    ("verify coset-invariance --alpha 3 --n 5 --cap 9720", 3, "of 29160 elements"),
    # Astronomical domains, named by a lower bound.
    (f"poly --alpha 1 --n {10**40} --cap 5", 3, "at least 6 "),
    (f"poly --alpha 2 --n {10**20} --cap 5", 3, "at least 6 "),
    (f"report --alpha 2 --max-n {10**20} --cap 5", 3, "at least 6 "),
    (f"verify symmetry --alpha 2 --n {10**20} --cap 5", 3, "at least 6 "),
    (f"verify abr-identity --max-n {'9' * 20} --cap 5", 3, "at least 6 "),
    ("poly --alpha 2 --n 1000000 --cap 5", 3, "at least 6 "),
    ("poly --alpha 2 --n 100000 --cap 5", 3, "at least 6 "),
]


@pytest.mark.parametrize("line,status,pattern", REFUSALS, ids=[shown(c[0]) for c in REFUSALS])
def test_one_error_line(cli, line, status, pattern):
    words = line.split()
    proc = cli(*(w for w in words if "=" not in w), timeout=10, memory=1_500_000_000,
               env=dict(w.split("=", 1) for w in words if "=" in w))
    assert (proc.returncode, proc.stdout) == (status, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr[-2000:]
    assert lines[0].startswith("error: ") and re.search(pattern, lines[0]), lines[0][:200]


@pytest.mark.parametrize("line", ["poly --alpha 2 --n 3", "--help", "poly --help",
                                  "verify symmetry --help"], ids=shown)
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_one_line_usage_error(cli, line, unbuffered):
    # Like an --out path that cannot be written: no traceback, and not exit
    # 1, the counterexample code.  Help too, which argparse would write
    # through a guard that swallows the error.  An empty PYTHONUNBUFFERED
    # leaves stdout buffered.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli(*line.split(), stdout=write, env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: cannot write stdout: ")
