"""Record the golden stdout of every CLI menu entry in every format it
runs with, into golden.json.  Run from the repository root at a commit
whose outputs are trusted:

    python3 perfbench/record_golden.py

Each output must pass the independent oracle before it is recorded.
"""
from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    golden, bad = {}, 0
    for workload in workloads.CLI_WORKLOADS:
        for entry in workloads.MENUS[workload]:
            for fmt in workloads.formats(entry):
                job = workloads.Job(entry, fmt, 1)
                r = run.spawn_cli(job.argv, run.DEADLINE_S)
                problems = oracle.check_cli_job(list(entry), fmt, r["exit"],
                                                r["stdout"], r["stderr"], r["stdout"])
                print(f"{r['wall_s']:6.2f}s {job.key}: {problems or 'ok'}", flush=True)
                bad += bool(problems)
                golden[job.key] = r["stdout"]
    if bad:
        print(f"{bad} outputs rejected by the oracle; golden.json not written",
              file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
