"""Run benchmark jobs inside one process and report them as JSON.

Reads ``{"mode": "cli"|"shape", "trace": bool, "jobs": [...]}`` on stdin.
CLI jobs (``{"id", "argv"}``) go through ``wreath_eulerian.cli.main`` with
stdout and stderr captured; shape jobs (``{"id", "coefficients"}``) call the
three ``poly`` predicates once each.  Writes one JSON object to stdout with
each job's wall time and output, the process's peak RSS and, when traced,
the spans.  The program is imported from ``src`` next to this directory.
"""
from __future__ import annotations

import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402


def _cli_job(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            err.write(f"{type(exc).__name__}: {exc}")
            code = -1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _shape_job(poly, coefficients: list[int]) -> dict:
    try:
        p = poly.IntPolynomial(tuple(coefficients))
        return {"palindromic": poly.is_palindromic(p),
                "unimodal": poly.is_unimodal(p),
                "real_rooted": poly.is_real_rooted(p)}
    except Exception as exc:  # a crash is a failed job, not a failed run
        return {"error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    request = json.load(sys.stdin)
    import wreath_eulerian
    from wreath_eulerian import cli, poly

    if not wreath_eulerian.__file__.startswith(os.path.join(ROOT, "src")):
        print(f"wreath_eulerian imported from {wreath_eulerian.__file__}, "
              f"not from {ROOT}/src", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    if request["trace"]:
        spans.install(tracer)
    results = []
    for job in request["jobs"]:
        if request["mode"] == "cli":
            run, arg = _cli_job, (cli, job["argv"])
        else:
            run, arg = _shape_job, (poly, job["coefficients"])
        t0 = perf_counter()
        if request["trace"]:
            result = tracer.run_job(job["id"], run, *arg)
        else:
            result = run(*arg)
        result["wall_s"] = perf_counter() - t0
        result["id"] = job["id"]
        results.append(result)
    json.dump({"jobs": results,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "spans": [s.to_json() for s in tracer.spans]}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
