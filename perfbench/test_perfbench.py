"""Tests of the benchmark itself:  python3 -m pytest perfbench"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
import workloads


# ---------------------------------------------------------------------------
# Tail percentile

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]  # 1..40
    value, pct, count = run.tail(samples)
    assert (value, pct, count) == (30.0, 75.0, 40)
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    assert run.tail([5.0, *range(6, 16)])[:2] == (5.0, 100.0 / 11)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(i) for i in range(10)]) == (9.0, 100.0, 10)


# ---------------------------------------------------------------------------
# Oracle

POLY_ENTRY = ["poly", "--alpha", "2", "--n", "5", "--stat", "flag", "--domain", "quotient"]


def _poly_text(coefficients, real_rooted="true"):
    return ("coefficients: " + " ".join(map(str, coefficients)) + "\n"
            f"degree: {len(coefficients) - 1}\n"
            f"cardinality: {sum(coefficients)}\n"
            "palindromic: true\nunimodal: true\n"
            f"real_rooted: {real_rooted}\n")


def test_oracle_accepts_correct_output():
    good = _poly_text(oracle.product_polynomial(4, 5))
    assert oracle.check_cli_job(POLY_ENTRY, "text", 0, good, "", good) == []


def test_oracle_flags_corrupted_coefficient_even_when_golden_agrees():
    coefficients = oracle.product_polynomial(4, 5)
    coefficients[3] += 1
    bad = _poly_text(coefficients)
    problems = oracle.check_cli_job(POLY_ENTRY, "text", 0, bad, "", bad)
    assert any("coefficients differ" in p for p in problems)


def test_oracle_flags_stdout_that_differs_from_golden():
    good = _poly_text(oracle.product_polynomial(4, 5))
    problems = oracle.check_cli_job(POLY_ENTRY, "text", 0, good, "", good + " ")
    assert problems == ["stdout differs from the golden output"]


def test_oracle_flags_wrong_verdict():
    bad = _poly_text(oracle.product_polynomial(4, 5), real_rooted="false")
    problems = oracle.check_cli_job(POLY_ENTRY, "text", 0, bad, "", bad)
    assert any("real_rooted" in p for p in problems)


def test_oracle_flags_wrong_exit_code():
    good = _poly_text(oracle.product_polynomial(4, 5))
    assert oracle.check_cli_job(POLY_ENTRY, "text", 1, good, "", good)


def test_oracle_flags_refused_job():
    stderr = "error: enumeration of 92897280 elements exceeds the cap of 1000\n"
    problems = oracle.check_cli_job(POLY_ENTRY, "text", 3, "", stderr, "")
    assert problems and problems[0].startswith("exit 3")


def test_oracle_flags_failed_verification():
    entry = ["verify", "symmetry", "--alpha", "3", "--n", "6"]
    out = "FAIL flag(w) + flag(r(w)) != 15\ncounterexample: 1^0 2^0\n"
    assert oracle.check_cli_job(entry, "text", 0, out, "", out)


def test_shape_check_flags_wrong_verdict():
    c = oracle.product_polynomial(4, 5)
    ok = {"palindromic": True, "unimodal": True, "real_rooted": True}
    assert oracle.check_shape_job(c, True, ok) == []
    assert oracle.check_shape_job(c, True, {**ok, "real_rooted": False})
    assert oracle.check_shape_job(c, True, {"error": "ZeroDivisionError"})


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_routes_reproduce_the_closed_forms(n):
    assert oracle.flag_polynomial(1, n) == list(oracle.eulerian_row(n))
    assert oracle.flag_polynomial(2, n, "full") == oracle.product_polynomial(n, n)
    if n % 2:
        assert oracle.flag_polynomial(2, n) == oracle.product_polynomial(n - 1, n)
    for alpha in (1, 2, 3):
        q = oracle.quotient_cardinality(alpha, n)
        assert sum(oracle.flag_polynomial(alpha, n)) == q
        assert sum(oracle.flag_polynomial(alpha, n, "fixed", alpha - 1)) == q
        assert sum(oracle.descent_polynomial(alpha, n)) == q
        assert sum(oracle.descent_polynomial(alpha, n, "full")) == \
            oracle.full_cardinality(alpha, n)


def test_descent_set_counts_match_brute_force():
    import itertools
    n = 6
    counts = {}
    for w in itertools.permutations(range(n)):
        mask = sum(1 << i for i in range(n - 1) if w[i] > w[i + 1])
        counts[mask] = counts.get(mask, 0) + 1
    assert dict(oracle.descent_set_counts(n)) == counts


def test_newton_rejects_only_non_real_rooted():
    assert not oracle.newton_fails(oracle.product_polynomial(6, 7))
    assert oracle.newton_fails([1, 1, 1])  # roots are complex cube roots of 1


def test_every_shape_input_has_a_known_verdict():
    inputs = workloads.shape_inputs()
    assert len({s.label for s in inputs}) == len(inputs)
    assert all(s.real_rooted is not None for s in inputs)
    assert {s.real_rooted for s in inputs} == {True, False}


def test_golden_outputs_pass_the_oracle():
    golden = run.load_golden()
    keys = {workloads.Job(e, f, 1).key
            for w in workloads.CLI_WORKLOADS for e in workloads.MENUS[w]
            for f in workloads.formats(e)}
    assert set(golden) == keys
    for w in workloads.CLI_WORKLOADS:
        for entry in workloads.MENUS[w]:
            for fmt in workloads.formats(entry):
                stdout = golden[workloads.Job(entry, fmt, 1).key]
                assert oracle.check_cli_job(list(entry), fmt, 0, stdout, "",
                                            stdout) == [], (entry, fmt)


# ---------------------------------------------------------------------------
# Job lists

@pytest.mark.parametrize("workload", workloads.CLI_WORKLOADS)
@pytest.mark.parametrize("copies", (2, 3, 4))
def test_job_list_is_a_pure_function_of_workload_and_seed(workload, copies):
    a = workloads.job_list(workload, 7, copies)
    assert a == workloads.job_list(workload, 7, copies)
    b = workloads.job_list(workload, 8, copies)
    assert a != b
    menu = sorted(workloads.MENUS[workload])
    for rounds in (a, b):
        assert len(rounds) == copies
        assert all(sorted(j.entry for j in r) == menu for r in rounds)
        jobs = [j for r in rounds for j in r]
        for entry in menu:
            threads = [j.threads for j in jobs if j.entry == entry]
            assert abs(threads.count(1) - threads.count(2)) == copies % 2
        counts = [j.threads for j in jobs]
        assert abs(counts.count(1) - counts.count(2)) <= 1
        assert all(j.fmt == "text" for j in jobs if j.entry[0] == "verify")


def test_copies_scale_with_seconds():
    assert [workloads.copies_for(w, 25) for w in workloads.WORKLOADS] == [2, 3, 6]
    assert workloads.copies_for("census", 1) == 2
    assert workloads.copies_for("stream", 1) == 3
    assert workloads.copies_for("census", 50) == 4


def test_job_list_does_not_depend_on_process_state():
    code = ("import workloads; print([j.argv for j in "
            "workloads.job_list('census', 3, 2)[0]])")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": str(h)}).stdout
            for h in (1, 2)}
    assert len(outs) == 1


def test_shape_rounds_analyze_each_input_once_per_process():
    rounds = workloads.shape_rounds(5, 3, 25)
    assert rounds == workloads.shape_rounds(5, 3, 25)
    assert all(sorted(r) == list(range(25)) for r in rounds)


# ---------------------------------------------------------------------------
# Spans

def _span(i, parent, layer, start, end, agg=None, attrs=None):
    return {"id": i, "parent": parent, "job": "j", "name": layer, "layer": layer,
            "start": start, "end": end, "attrs": attrs or {}, "agg": agg or {}}


def test_self_time_subtracts_children_and_per_element_time():
    tree = [
        _span(0, None, spans.JOB, 0.0, 10.0),
        _span(1, 0, spans.CLI, 0.5, 9.5),
        _span(2, 1, spans.BUILD, 1.0, 5.0),
        _span(3, 2, spans.POLY, 4.0, 4.5,
              attrs={"degree": 4, "coeff_bits": 3, "result": True}),
        _span(4, 1, spans.VERIFY, 6.0, 9.0, {spans.STATS: [100, 1.5, 0]}),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 1.0, 1: 2.0, 2: 3.5, 3: 0.5, 4: 1.5})
    m = spans.layer_metrics(tree)
    assert m["enumeration.build.self_s"] == pytest.approx(3.5)
    assert m["enumeration.build.share"] == pytest.approx(0.35)
    assert m["stats.calls"] == 100
    assert m["stats.s"] == pytest.approx(1.5)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == \
        pytest.approx(4.0)


def test_traced_runner_attributes_layers():
    request = {"mode": "cli", "trace": True, "jobs": [
        {"id": "sym", "argv": ["verify", "symmetry", "--alpha", "2", "--n", "4"]},
        {"id": "poly", "argv": ["poly", "--alpha", "2", "--n", "5"]},
        {"id": "table", "argv": ["table", "--alpha", "2", "--max-n", "3"]},
        {"id": "coset", "argv": ["verify", "coset-invariance", "--alpha", "2", "--n", "3"]},
    ]}
    out = run.spawn_inproc(request, 60)
    assert [j["exit"] for j in out["jobs"]] == [0, 0, 0, 0]
    m = spans.layer_metrics(out["spans"])
    quotient = oracle.quotient_cardinality(2, 4)
    # symmetry walks the quotient once and calls flag twice and r once per element
    assert m["enumeration.stream.elements"] == quotient + oracle.full_cardinality(2, 3)
    assert m["stats.calls"] == 3 * quotient + oracle.full_cardinality(2, 3)
    assert m["core.canonical_rep.calls"] == oracle.full_cardinality(2, 3)
    assert m["enumeration.verify.calls"] == 2
    # poly, table (one call, three rows) and the builds inside two verifiers
    assert m["enumeration.build.calls"] == 4
    assert m["enumeration.build.elements"] == (
        quotient + oracle.quotient_cardinality(2, 5)
        + sum(oracle.quotient_cardinality(2, n) for n in (1, 2, 3))
        + oracle.quotient_cardinality(2, 3))
    assert m["poly.real_rooted.calls"] == 6
    assert 0 < m["cli.self_s"] < m["trace.job_s"]


# ---------------------------------------------------------------------------
# Whole runs

def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert p.stdout == ""


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = {m["name"] for m in bench["per_layer"]}
    tree = [_span(0, None, spans.JOB, 0.0, 1.0)]
    computed = set(spans.layer_metrics(tree)) | {
        "cli.process_start_s", "cli.stdout_bytes", "trace.overhead"}
    assert names == computed
    assert {m["name"] for m in bench["workloads"]} == set(workloads.WORKLOADS)
