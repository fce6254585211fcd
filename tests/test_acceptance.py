"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own ``ACCEPTANCE ... PASS`` line (shown
with ``-s``) after its assertions hold.
"""
import itertools
import json
import math
import random
import time

import pytest

from wreath_eulerian import (
    ColorSequence,
    ColoredPermutation,
    binomial_power,
    classical_eulerian,
    colored_eulerian,
    flag_descent,
    flag_eulerian_full,
    flag_eulerian_quotient,
    full_cardinality,
    is_palindromic,
    iterate_full_group,
    iterate_quotient_reps,
    parse,
    quotient_cardinality,
    reversal_map,
    reverse_winding_number,
    verify_coset_invariance,
    winding_number,
)
from wreath_eulerian.cli import main as cli_main

SWEEP = [(alpha, n)
         for alpha in range(1, 5)
         for n in range(1, 7)
         if quotient_cardinality(alpha, n) <= 10**6]


def report_pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_flag_of_paper_element():
    assert flag_descent(parse(3, "4^1 1^1 3^2 2^0")) == 7
    report_pass("C01", "flag(4^1 1^1 3^2 2^0) = 7")


def test_c02_counterclockwise_winding_values():
    s = ColorSequence(4, (1, 3, 1, 2, 0, 3, 0))
    assert winding_number(s, 0) == 3
    assert winding_number(s, 1) == 3
    report_pass("C02", "W((1,3,1,2,0,3,0), 0) = W(.., 1) = 3")


def test_c03_clockwise_winding_matches():
    s_fwd = ColorSequence(4, (1, 3, 1, 2, 0, 3, 0))
    s_rev = ColorSequence(4, (3, 2, 3, 1, 0, 2, 0))
    assert reverse_winding_number(s_rev, 0) == 3
    assert reverse_winding_number(s_rev, 0) == winding_number(s_fwd, 1)
    report_pass("C03", "W'((3,2,3,1,0,2,0), 0) = 3")


def test_c04_flag_symmetry_pointwise():
    start = time.monotonic()
    checked = 0
    for alpha, n in SWEEP:
        target = alpha * (n - 1)
        for w in iterate_quotient_reps(alpha, n):
            assert flag_descent(w) + flag_descent(reversal_map(w)) == target
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_pass("C04", f"{checked} elements across {len(SWEEP)} (alpha, n) "
                       f"pairs in {elapsed:.1f}s")


def test_c05_flag_polynomials_palindromic():
    for alpha, n in SWEEP:
        report = flag_eulerian_quotient(alpha, n)
        assert is_palindromic(report.polynomial), (alpha, n)
    report_pass("C05", f"palindromic for all {len(SWEEP)} (alpha, n) pairs")


def test_c06_quotient_product_identity():
    start = time.monotonic()
    for k in (1, 2, 3):
        n = 2 * k + 1
        lhs = flag_eulerian_quotient(2, n).polynomial
        rhs = binomial_power(2 * k) * classical_eulerian(n)
        assert lhs.coefficients == rhs.coefficients, k
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report_pass("C06", f"k = 1..3 (n = 7 covers 322560 representatives) "
                       f"in {elapsed:.1f}s")


def test_c07_full_group_product_identity():
    start = time.monotonic()
    for n in range(1, 7):
        lhs = flag_eulerian_full(2, n).polynomial
        rhs = binomial_power(n) * classical_eulerian(n)
        assert lhs.coefficients == rhs.coefficients, n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_pass("C07", f"n = 1..6 in {elapsed:.1f}s")


def test_c08_coset_partition_and_quotient_distribution():
    pairs = [(alpha, n)
             for alpha in range(1, 5)
             for n in range(1, 7)
             if full_cardinality(alpha, n) <= 10**5]
    for alpha, n in pairs:
        assert verify_coset_invariance(alpha, n).ok, (alpha, n)
    report_pass("C08", f"{len(pairs)} (alpha, n) pairs")


def test_c09_matrix_representation_multiplicative():
    for alpha, n in [(2, 2), (3, 2)]:
        elements = list(iterate_full_group(alpha, n))
        for w, y in itertools.product(elements, repeat=2):
            assert (w * y).to_matrix() == w.to_matrix() * y.to_matrix()
    rng = random.Random(20260824)
    alpha, n = 3, 5
    def random_element():
        window = list(range(1, n + 1))
        rng.shuffle(window)
        colors = tuple(rng.randrange(alpha) for _ in range(n))
        return ColoredPermutation(alpha, tuple(window), colors)
    for _ in range(10**4):
        w, y = random_element(), random_element()
        assert (w * y).to_matrix() == w.to_matrix() * y.to_matrix()
    report_pass("C09", "exhaustive at (2,2), (3,2); 10^4 random pairs at (3,5)")


def test_c10_enumeration_agrees_with_recurrence():
    for n in range(1, 9):
        assert colored_eulerian(1, n).polynomial.coefficients == \
            classical_eulerian(n).coefficients, n
    report_pass("C10", "n = 1..8")


def test_c11_conjecture_report_runs():
    for alpha in (2, 3, 4):
        code = cli_main(["report", "--alpha", str(alpha), "--max-n", "6",
                         "--format", "json", "--out", "/dev/null"])
        assert code == 0
        for n in range(2, 7):
            report = flag_eulerian_quotient(alpha, n)
            # Palindromicity is proved; unimodality is an open conjecture,
            # so a false verdict would be a finding, but the verdict must
            # exist as a bool either way.
            assert report.palindromic is True
            assert isinstance(report.unimodal, bool)
            assert isinstance(report.real_rooted, bool)
            assert report.unimodal is True
    report_pass("C11", "verdicts computed for (alpha, n) in {2,3,4} x {2..6}; "
                       "all palindromic and unimodal")


def test_c12_parallel_determinism(capsys):
    outputs = []
    argv = ["poly", "--alpha", "2", "--n", "7", "--stat", "flag",
            "--domain", "quotient", "--format", "json"]
    for threads in ("1", "4", "8"):
        assert cli_main(argv + ["--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])
    report_pass("C12", "byte-identical JSON with --threads 1, 4 and 8, which change "
                       "neither the output nor the parallelism")


def test_c13_large_quotient_performance():
    start = time.monotonic()
    report = flag_eulerian_quotient(2, 9, workers=8)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert report.cardinality == 2**8 * math.factorial(9)
    assert report.polynomial.nominal_degree == 16
    assert report.palindromic
    report_pass("C13", f"2^8 * 9! = {report.cardinality} elements in "
                       f"{elapsed:.1f}s in the calling thread; workers=8 is "
                       f"accepted and changes nothing")
