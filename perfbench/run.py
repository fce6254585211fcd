"""The repository's benchmark.

    python3 perfbench/run.py --workload <census|shape|stream> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is used from ``src/`` there,
never from an installed copy.  Each workload is a closed loop with one
client.  With ``--trace 0`` the CLI workloads spawn one ``python -m
wreath_eulerian.cli`` process per job and ``shape`` spawns one worker per
round of in-process predicate calls; the end-to-end metrics are reported.
With ``--trace 1`` each menu entry runs in-process, in two untraced and two
traced passes, and the per-layer metrics are reported.  Every output is checked
against the golden bytes and the independent oracle; a failed job is
counted, never fatal.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  Metric names and units come from BENCHMARK.json.
Details of each run go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
START_REPEATS = 5
# Stop starting jobs after this many seconds, so a run ends within 180 s.
DEADLINE_S = 150.0


class SetupError(RuntimeError):
    pass


def remaining(t_start: float) -> float:
    """Seconds a process started now may run before it is killed."""
    return DEADLINE_S + 20 - (perf_counter() - t_start)


def child_env() -> dict[str, str]:
    """The caller's environment with the program on the path and WREATH_CAP
    dropped, so every job runs under the default cap."""
    env = {k: v for k, v in os.environ.items() if k != "WREATH_CAP"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], stdin: str | None, timeout: float) -> dict:
    """Run one process to its exit; wall time from spawn to exit, peak RSS
    from ``os.wait4``."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"wall_s": wall, "exit": proc.returncode, "stdout": stdout,
            "stderr": stderr, "rss_kb": usage.ru_maxrss}


def spawn_cli(args: list[str], timeout: float) -> dict:
    return spawn([sys.executable, "-m", "wreath_eulerian.cli", *args], None, timeout)


def spawn_inproc(request: dict, timeout: float) -> dict:
    r = spawn([sys.executable, os.path.join(HERE, "inproc.py")],
              json.dumps(request), timeout)
    if r["exit"] != 0:
        raise SetupError(f"in-process runner exited {r['exit']}: {r['stderr'][-500:]}")
    r.update(json.loads(r["stdout"]))
    return r


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    (N-10)-th smallest of N samples, at percentile 100*(N-10)/N.  With ten
    samples or fewer no such percentile exists and the maximum is given,
    at percentile 100."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, len(s)
    k = len(s) - 10
    return s[k - 1], 100.0 * k / len(s), len(s)


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Set-up

def setup(workload: str, seed: int, copies: int) -> dict:
    """Input generation and one warm-up process, so bytecode caches exist
    before timing."""
    oracle.clear_caches()
    if workload == "shape":
        inputs = workloads.shape_inputs()
        rounds = workloads.shape_rounds(seed, copies, len(inputs))
        spawn_inproc({"mode": "shape", "trace": False,
                      "jobs": [{"id": "warm-up", "coefficients": [1, 1]}]},
                     DEADLINE_S)
        return {"inputs": inputs, "rounds": rounds}
    rounds = workloads.job_list(workload, seed, copies)
    golden = load_golden()
    warm = spawn_cli([*workloads.NO_WORK_ARGS], DEADLINE_S)
    if warm["exit"] != 0:
        raise SetupError(f"warm-up job exited {warm['exit']}: {warm['stderr'][-500:]}")
    return {"rounds": rounds, "golden": golden}


def shape_request(inputs, order: list[int], trace: bool) -> dict:
    return {"mode": "shape", "trace": trace,
            "jobs": [{"id": inputs[i].label, "coefficients": list(inputs[i].coefficients)}
                     for i in order]}


def cli_request(jobs, trace: bool) -> dict:
    return {"mode": "cli", "trace": trace,
            "jobs": [{"id": f"{j.key} --threads {j.threads}", "argv": j.argv}
                     for j in jobs]}


def check_shape(inputs, results: list[dict]) -> list[list[str]]:
    by_label = {s.label: s for s in inputs}
    return [oracle.check_shape_job(list(by_label[r["id"]].coefficients),
                                   by_label[r["id"]].real_rooted, r)
            for r in results]


def check_cli(jobs, results: list[dict], golden: dict) -> list[list[str]]:
    return [oracle.check_cli_job(list(j.entry), j.fmt, r["exit"], r["stdout"],
                                 r["stderr"], golden.get(j.key))
            for j, r in zip(jobs, results)]


# ---------------------------------------------------------------------------
# End to end (tracing off)

def measure(workload: str, seed: int, seconds: float, t_start: float):
    copies = workloads.copies_for(workload, seconds)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = setup(workload, seed, copies)
        setups.append(perf_counter() - t0)

    # Outputs are checked after the loop, so the oracle's work is not timed.
    done, rates = [], []
    for round_ in state["rounds"]:
        if perf_counter() - t_start > DEADLINE_S:
            break
        t_round = perf_counter()
        if workload == "shape":
            worker = spawn_inproc(shape_request(state["inputs"], round_, False),
                                  remaining(t_start))
            results = [(None, r, worker["rss_kb"]) for r in worker["jobs"]]
        else:
            results = []
            for job in round_:
                if perf_counter() - t_start > DEADLINE_S:
                    break
                r = spawn_cli(job.argv, remaining(t_start))
                results.append((job, r, r["rss_kb"]))
        rates.append(len(results) / (perf_counter() - t_round))
        done += results

    results = [r for _, r, _ in done]
    if workload == "shape":
        checks = check_shape(state["inputs"], results)
        names = [r["id"] for r in results]
    else:
        jobs = [j for j, _, _ in done]
        checks = check_cli(jobs, results, state["golden"])
        names = [" ".join(j.argv) for j in jobs]
    records = [{"job": name, "wall_s": r["wall_s"], "rss_kb": rss, "problems": problems}
               for name, (_, r, rss), problems in zip(names, done, checks)]
    walls = [r["wall_s"] for r in records]
    tail_s, tail_pct, count = tail(walls)
    values = {
        "jobs_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
    }
    info = {"copies": copies, "jobs": len(records), "round_jobs_per_s": rates,
            "job_tail_percentile": tail_pct, "job_tail_samples": count,
            "setup_samples_s": setups}
    return values, records, info


# ---------------------------------------------------------------------------
# Per layer (traced)

def traced(workload: str, seed: int, seconds: float, t_start: float):
    copies = workloads.copies_for(workload, seconds)
    state = setup(workload, seed, copies)
    starts = [spawn_cli([*workloads.NO_WORK_ARGS], DEADLINE_S)["wall_s"]
              for _ in range(START_REPEATS)]
    if workload == "shape":
        inputs = state["inputs"]
        request = shape_request(inputs, state["rounds"][0], False)
    else:
        jobs = state["rounds"][0]
        request = cli_request(jobs, False)
    # Untraced, traced, traced, untraced: a slow drift in machine speed
    # cancels out of the overhead ratio.  Each pass is a fresh process, so
    # no pass reuses another's caches.
    passes = {False: [], True: []}
    for trace in (False, True, True, False):
        request["trace"] = trace
        passes[trace].append(spawn_inproc(request, remaining(t_start)))
    records = []
    for p in passes[False] + passes[True]:
        if workload == "shape":
            checks = check_shape(inputs, p["jobs"])
        else:
            checks = check_cli(jobs, p["jobs"], state["golden"])
        records += [{"job": r["id"], "wall_s": r["wall_s"], "problems": problems}
                    for r, problems in zip(p["jobs"], checks)]

    def job_seconds(trace: bool) -> float:
        return sum(r["wall_s"] for p in passes[trace] for r in p["jobs"])

    first = passes[True][0]
    values = spans.layer_metrics(first["spans"])
    values["cli.process_start_s"] = statistics.median(starts)
    values["cli.stdout_bytes"] = sum(len(r.get("stdout", "").encode())
                                     for r in first["jobs"])
    values["trace.overhead"] = job_seconds(True) / job_seconds(False)
    info = {"jobs": len(first["jobs"]),
            "maxrss_kb": {str(t): [p["maxrss_kb"] for p in passes[t]] for t in passes}}
    return values, records, info, first["spans"]


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wreath_eulerian", "cli.py")):
        print(f"error: no program at {SRC}/wreath_eulerian; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, records, info, trace = traced(args.workload, args.seed,
                                                  args.seconds, t_start)
        else:
            values, records, info = measure(args.workload, args.seed,
                                            args.seconds, t_start)
            trace = None
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED {r['job']}: {'; '.join(r['problems'])}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = environment()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, env=env)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"info": info, "metrics": metrics, "jobs": records}, handle, indent=1)
    if trace is not None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"env": env}) + "\n")
            for span in trace:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
