"""Command-line front end.

``wreath-eulerian <poly|table|verify|report> [flags]`` computes descent and
flag polynomials, emits flag-count tables, runs identity verification sweeps,
and produces shape-verdict reports.  All output is deterministic: no
timestamps in data payloads, coefficients rendered as decimal strings so
arbitrary precision survives JSON consumers.

The library checks every parameter and resolves the cap (``--cap``, else
``WREATH_CAP``, else the default); the parser checks only that a sweep
(``--max-n``, ``--max-k``) has rows and gives each ``verify`` target only
the flags it reads.  One table in :func:`_build_parser` declares every
command and ``verify`` target with its flags.  Each report renders from
one record, :func:`_record`, which reads the shape verdicts once; each
runner returns its text and exit status, and :func:`main` alone writes
the text.

Exit codes: 0 success/verified, 1 verification counterexample, 2 usage
error (including an invalid ``--cap`` or ``WREATH_CAP``, an ``--out``
path that cannot be written and a stdout that its reader closed), 3
resource-cap refusal.

:func:`run` is the process entry point, for the console script and
``python -m``; :func:`main` is the in-process call.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from .core import ValidationError
from .enumeration import (
    STAT_DESCENT,
    STAT_FLAG,
    CapExceededError,
    StatReport,
    _reports,
    flag_table,
    stat_report,
    verify_abr_identity,
    verify_coset_invariance,
    verify_involution,
    verify_product_identity,
    verify_symmetry,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

_STAT_NAMES = {"descent": STAT_DESCENT, "flag": STAT_FLAG}


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error:`` line, like every other usage
    error, instead of argparse's usage block; subparsers inherit it."""

    def error(self, message: str):
        raise ValidationError(message)


def _sweep_bound(text: str) -> int:
    """A sweep bound (``--max-n``, ``--max-k``) is at least 1: the sweep has rows."""
    try:
        bound = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {bound}")
    return bound


def _build_parser(argv: list[str] | None) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Only the command that ``argv[0]`` names is
    registered, since one process parses one command line; when it names
    none, or ``argv`` is None, all four are, so that ``--help`` and every
    usage error print what the full parser prints."""
    parser = _Parser(prog="wreath-eulerian", description="Descent statistics on "
                     "colored permutation groups and their cyclic-shift quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(p: argparse.ArgumentParser, flags: dict,
             formats=("text", "json", "csv"), **defaults) -> None:
        # A command or verify target: its own flags, each required unless it
        # has a default and listed by name in ``reads`` for _run_verify,
        # then the flags that every leaf takes.
        p.set_defaults(**defaults, reads=[p.add_argument(
            flag, required="default" not in spec, **spec).dest
            for flag, spec in flags.items()])
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--cap", type=int, default=None,
                       help="maximum element count (default from WREATH_CAP "
                            "or 10^9)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; changes neither "
                            "the output nor the parallelism")
        p.add_argument("--out", type=str, default=None,
                       help="write output to this path instead of stdout")

    walk = {"--alpha": {"type": int}, "--n": {"type": int}}
    sweep = {"--alpha": {"type": int}, "--max-n": {"type": _sweep_bound}}
    # Each command's help, runner and flags in argument order.  verify has
    # no runner of its own: its targets each take only the flags their
    # verifier reads.  Built per call, because perfbench/spans.py's install
    # rebinds cli.verify_* after import and the table must use those names.
    commands = {
        "poly": ("one statistic polynomial", _run_poly, {
            **walk, "--stat": {"choices": tuple(_STAT_NAMES), "default": "flag"},
            "--domain": {"choices": ("quotient", "full", "fixed"),
                         "default": "quotient"},
            "--beta": {"type": int, "default": 0,
                       "help": "last color for --domain fixed"}}),
        "table": ("flag count table over the quotient", _run_table, sweep),
        "verify": ("identity verification sweeps", None, {
            "symmetry": (verify_symmetry, walk),
            "product-identity": (verify_product_identity,
                                 {"--max-k": {"type": _sweep_bound}}),
            "abr-identity": (verify_abr_identity, {"--max-n": {"type": _sweep_bound}}),
            "coset-invariance": (verify_coset_invariance, walk),
            "involution": (verify_involution, walk)}),
        "report": ("shape verdicts for the flag polynomial over the quotient",
                   _run_report, sweep),
    }
    for name in argv[:1] if argv and argv[0] in commands else commands:
        about, run, flags = commands[name]
        p = sub.add_parser(name, help=about)
        if run:
            leaf(p, flags, run=run)
            continue
        targets = p.add_subparsers(dest="target", required=True)
        for target, (verifier, own) in flags.items():
            leaf(targets.add_parser(target), own, ("text",), run=_run_verify,
                 verifier=verifier)
    return parser


def _csv(header: list[str], rows) -> str:
    # Every field is a decimal integer, true/false or a fixed header name, so
    # none holds a comma, quote or line break and none needs CSV quoting.
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _record(command: str, report: StatReport, stat: str) -> dict:
    """One report as JSON writes it: keys in output order, coefficients and
    cardinality as decimal strings, verdicts as bools.  Reads each shape
    verdict once; the text and CSV renderings take their fields from it."""
    return {
        "command": command,
        "alpha": report.alpha,
        "n": report.n,
        "stat": stat,
        "domain": report.domain,
        "degree": report.polynomial.nominal_degree,
        "coefficients": [str(c) for c in report.polynomial.coefficients],
        "cardinality": str(report.cardinality),
        "palindromic": report.palindromic,
        "unimodal": report.unimodal,
        "real_rooted": report.real_rooted,
    }


# The record fields that ``poly`` text prints after the coefficients, and
# that each ``report`` text line and CSV row prints, in output order.
_SHAPE_KEYS = ("degree", "cardinality", "palindromic", "unimodal",
               "real_rooted")
_ROW_KEYS = ("alpha", "n", *_SHAPE_KEYS)


def _json(value) -> str:
    # Imported here, not at module level: only the json format pays for it.
    import json

    return json.dumps(value) + "\n"


def _sweep_json(args, rows: list[dict]) -> str:
    return _json({"command": args.command, "alpha": args.alpha,
                  "max_n": args.max_n, "rows": rows})


def _emit(text: str, out: str | None) -> None:
    if out is None:
        # Flushed here, so that a closed stdout fails inside main's guard.
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(
            f"cannot write --out {out}: {exc.strerror or exc}") from None


def _run_poly(args) -> tuple[str, int]:
    report = stat_report(args.alpha, args.n, _STAT_NAMES[args.stat],
                         args.domain, beta=args.beta, cap=args.cap)
    if args.format == "csv":
        return _csv(["k", "coefficient"],
                    enumerate(report.polynomial.coefficients)), EXIT_OK
    record = _record("poly", report, args.stat)
    if args.format == "json":
        return _json(record), EXIT_OK
    lines = [f"coefficients: {report.polynomial}"]
    lines += [f"{key}: {str(record[key]).lower()}" for key in _SHAPE_KEYS]
    return "\n".join(lines) + "\n", EXIT_OK


def _run_table(args) -> tuple[str, int]:
    rows = flag_table(args.alpha, args.max_n, cap=args.cap)
    triples = [(n, k, str(c))
               for n, row in enumerate(rows, start=1)
               for k, c in enumerate(row.coefficients)]
    if args.format == "json":
        return _sweep_json(args, [{"n": n, "k": k, "count": c}
                                  for n, k, c in triples]), EXIT_OK
    return _csv(["n", "k", "count"], triples), EXIT_OK


def _run_verify(args) -> tuple[str, int]:
    results = args.verifier(*[getattr(args, name) for name in args.reads], cap=args.cap)
    text = ""
    for result in results if isinstance(results, list) else [results]:
        text += f"{'PASS' if result.ok else 'FAIL'} {result.description}\n"
        if not result.ok:
            if result.counterexample is not None:
                text += f"counterexample: {result.counterexample}\n"
            return text, EXIT_COUNTEREXAMPLE
    return text, EXIT_OK


def _run_report(args) -> tuple[str, int]:
    records = [_record("report", report, "flag")
               for report in _reports(args.alpha, args.max_n, STAT_FLAG,
                                      "quotient", 0, args.cap)]
    if args.format == "json":
        return _sweep_json(args, records), EXIT_OK
    rows = [[str(record[key]).lower() for key in _ROW_KEYS]
            for record in records]
    if args.format == "csv":
        return _csv(list(_ROW_KEYS), rows), EXIT_OK
    lines = [" ".join(f"{key}={value}" for key, value in zip(_ROW_KEYS, row))
             for row in rows]
    return "\n".join(lines) + "\n", EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # Python's limit on int-str conversion guards servers that parse
    # untrusted text.  The CLI reads only its own argv and environment, and
    # its domain sizes, caps and coefficients pass 4,300 digits at ordinary
    # inputs, such as the (2, 1500) quotient.  So main lifts the limit and
    # puts it back on every way out: an in-process caller keeps its own.
    # ``limit`` is None where Python has no limit (before 3.10.7).
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser(argv).parse_args(argv)
        text, status = args.run(args)
        _emit(text, args.out)
        return status
    except SystemExit as exc:
        # argparse exits only through ArgumentParser.exit, with an int.
        return exc.code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError as exc:
        # The reader closed stdout.  Pointing it at os.devnull leaves the
        # flush at interpreter exit nothing to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    """The process entry point: :func:`main` on ``sys.argv``, then exit with
    its status.  Freezing first moves every object alive at that point into
    the permanent generation, so the collections at interpreter exit skip
    objects that die with the process anyway.  Nothing needs the collector
    to finish: ``main`` closes what it opens, and the interpreter flushes
    stdout and stderr itself."""
    status = main(sys.argv[1:])
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
