"""Independent output oracle for the benchmark.

Nothing here imports ``wreath_eulerian``.  Every expected polynomial comes
from a route the program does not use:

* Eulerian numbers by the alternating-sum formula
  A(n,k) = sum_j (-1)^j C(n+1,j) (k+1-j)^n, and (1+x)^m by ``math.comb``;
* descent-set counts beta_n(S) by inclusion-exclusion over multinomials
  (the program walks all n! windows instead);
* the flag polynomial as sum_S beta_n(S) * F_S(x), where F_S is a dynamic
  program over color vectors for a fixed window descent set S;
* the colored-descent polynomial in closed form,
  sum_k A(n,k) (alpha x)^k ((alpha-1) x + 1)^(n-1-k), times alpha over the
  full group.

Shape verdicts are checked against theory: products of (1+x)^m and A_n and
the colored-descent polynomials are real-rooted, and a failure of Newton's
inequalities proves a polynomial is not real-rooted.  Palindromicity and
unimodality are checked by their definitions.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from functools import lru_cache


# ---------------------------------------------------------------------------
# Polynomials as little-endian integer lists

def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def binomial_row(m: int) -> list[int]:
    return [math.comb(m, k) for k in range(m + 1)]


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """A(n,k) for k = 0..n-1 by the alternating-sum formula."""
    return tuple(
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n
            for j in range(k + 1))
        for k in range(n))


def quotient_cardinality(alpha: int, n: int) -> int:
    return alpha ** (n - 1) * math.factorial(n)


def full_cardinality(alpha: int, n: int) -> int:
    return alpha ** n * math.factorial(n)


@lru_cache(maxsize=None)
def descent_set_counts(n: int) -> tuple[tuple[int, int], ...]:
    """(mask, beta_n(mask)) for every descent set of S_n; bit i stands for a
    descent between positions i+1 and i+2.  alpha_n(T), the number of
    permutations whose descent set lies inside T, is the multinomial of the
    composition T cuts [n] into; beta follows by inclusion-exclusion."""
    fact = [math.factorial(i) for i in range(n + 1)]

    def alpha_n(mask: int) -> int:
        out, start = fact[n], 0
        for i in range(n - 1):
            if mask >> i & 1:
                out //= fact[i + 1 - start]
                start = i + 1
        return out // fact[n - start]

    alphas = {mask: alpha_n(mask) for mask in range(1 << (n - 1))}
    out = []
    for s in range(1 << (n - 1)):
        total, t = 0, s
        while True:
            sign = -1 if (s & ~t).bit_count() % 2 else 1
            total += sign * alphas[t]
            if t == 0:
                break
            t = (t - 1) & s
        if total:
            out.append((s, total))
    return tuple(out)


def _last_colors(alpha: int, domain: str, beta: int) -> range:
    if domain == "full":
        return range(alpha)
    last = 0 if domain == "quotient" else beta
    return range(last, last + 1)


def flag_polynomial(alpha: int, n: int, domain: str = "quotient",
                    beta: int = 0) -> list[int]:
    """Flag statistic c_1 + alpha*(#equal-color window descents)
    + alpha*(#color ascents), summed over the domain, padded to the nominal
    degree alpha*(n-1)+beta (alpha*n-1 over the full group)."""
    nominal = alpha * n - 1 if domain == "full" else alpha * (n - 1) + (
        beta if domain == "fixed" else 0)
    degree = alpha * n - 1
    total = [0] * (degree + 1)
    lasts = _last_colors(alpha, domain, beta)
    for mask, count in descent_set_counts(n):
        # vec[c][k]: color vectors of the prefix ending in color c with
        # flag contribution k so far.
        vec = [[0] * (degree + 1) for _ in range(alpha)]
        for c in range(alpha):
            vec[c][c] = 1
        for i in range(n - 1):
            descent = mask >> i & 1
            new = [[0] * (degree + 1) for _ in range(alpha)]
            for c, row in enumerate(vec):
                for d in range(alpha):
                    step = alpha if (c < d or (c == d and descent)) else 0
                    target = new[d]
                    for k in range(degree + 1 - step):
                        if row[k]:
                            target[k + step] += row[k]
            vec = new
        for c in lasts:
            for k, v in enumerate(vec[c]):
                total[k] += count * v
    if any(total[nominal + 1:]):
        raise ValueError(f"flag exceeds its nominal degree {nominal}")
    return total[:nominal + 1]


def descent_polynomial(alpha: int, n: int, domain: str = "quotient") -> list[int]:
    """Colored descents over the domain: walking right to left from the last
    color, each earlier color equals its right neighbour (one choice, a
    descent iff the window descends) or differs (alpha-1 choices, always a
    descent)."""
    total = [0] * n
    for k, a in enumerate(eulerian_row(n)):
        term = pmul([0] * k + [alpha ** k], _power([1, alpha - 1], n - 1 - k))
        for i, v in enumerate(term):
            total[i] += a * v
    if domain == "full":
        total = [alpha * v for v in total]
    return total


def _power(p: list[int], m: int) -> list[int]:
    out = [1]
    for _ in range(m):
        out = pmul(out, p)
    return out


def product_polynomial(m: int, n: int) -> list[int]:
    """(1+x)^m * A_n, real-rooted as a product of real-rooted factors."""
    return pmul(binomial_row(m), list(eulerian_row(n)))


def clear_caches() -> None:
    """Forget memoized results, so each benchmark set-up pays for its
    inputs."""
    eulerian_row.cache_clear()
    descent_set_counts.cache_clear()
    expected_poly.cache_clear()


# ---------------------------------------------------------------------------
# Shape

def is_palindromic(c: list[int]) -> bool:
    return list(c) == list(c)[::-1]


def is_unimodal(c: list[int]) -> bool:
    i = 1
    while i < len(c) and c[i - 1] <= c[i]:
        i += 1
    while i < len(c) and c[i - 1] >= c[i]:
        i += 1
    return i == len(c)


def newton_fails(c: list[int]) -> bool:
    """True when some a_k^2 < a_{k-1} a_{k+1} (1+1/k)(1+1/(D-k)), which
    proves the polynomial has a non-real root (Newton's inequalities hold
    for every real-rooted polynomial)."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    d = len(c) - 1
    return any(
        c[k] * c[k] * k * (d - k) < c[k - 1] * c[k + 1] * (k + 1) * (d - k + 1)
        for k in range(1, d))


def real_rooted_theory(stat: str, alpha: int, n: int, domain: str,
                       coefficients: list[int]) -> bool | None:
    """Real-rootedness known from theory, else None."""
    if stat == "descent" or alpha == 1:
        return True
    if alpha == 2 and stat == "flag" and (
            domain == "full" or (domain == "quotient" and n % 2 == 1)):
        return True
    if newton_fails(coefficients):
        return False
    return None


# ---------------------------------------------------------------------------
# Expected results per CLI job

def _flag_args(args: list[str]) -> dict[str, str]:
    out, i = {}, 0
    while i < len(args):
        if args[i].startswith("--"):
            out[args[i][2:]] = args[i + 1]
            i += 2
        else:
            out.setdefault("target", args[i])
            i += 1
    return out


@lru_cache(maxsize=None)
def expected_poly(stat: str, alpha: int, n: int, domain: str,
                  beta: int) -> tuple[int, ...]:
    if stat == "descent":
        return tuple(descent_polynomial(alpha, n, domain))
    return tuple(flag_polynomial(alpha, n, domain, beta))


def _cardinality(alpha: int, n: int, domain: str) -> int:
    return full_cardinality(alpha, n) if domain == "full" else quotient_cardinality(alpha, n)


def _check_poly_row(problems: list[str], label: str, stat: str, alpha: int,
                    n: int, domain: str, beta: int, got: dict) -> None:
    """got may carry coefficients, degree, cardinality and verdicts; each
    one present is checked."""
    want = list(expected_poly(stat, alpha, n, domain, beta))
    card = _cardinality(alpha, n, domain)
    if sum(want) != card:
        problems.append(f"{label}: oracle sum {sum(want)} != {card}")
    if "coefficients" in got and got["coefficients"] != want:
        problems.append(f"{label}: coefficients differ from the oracle")
    if "degree" in got and got["degree"] != len(want) - 1:
        problems.append(f"{label}: degree {got['degree']} != {len(want) - 1}")
    if "cardinality" in got and got["cardinality"] != card:
        problems.append(f"{label}: cardinality {got['cardinality']} != {card}")
    verdicts = {
        "palindromic": is_palindromic(want),
        "unimodal": is_unimodal(want),
        "real_rooted": real_rooted_theory(stat, alpha, n, domain, want),
    }
    for key, value in verdicts.items():
        if key in got and value is not None and got[key] != value:
            problems.append(f"{label}: {key} {got[key]} contradicts the oracle")


def _closed_form_checks(problems: list[str], stat: str, alpha: int, n: int,
                        domain: str) -> None:
    """The identities the oracle's own routes must reproduce."""
    want = list(expected_poly(stat, alpha, n, domain, 0))
    if stat == "flag" and alpha == 1 and want != list(eulerian_row(n)):
        problems.append(f"oracle: flag at alpha=1, n={n} is not A_{n}")
    if stat == "flag" and alpha == 2 and domain == "quotient" and n % 2 == 1 \
            and want != product_polynomial(n - 1, n):
        problems.append(f"oracle: quotient flag (2,{n}) is not (1+x)^{n - 1} A_{n}")
    if stat == "flag" and alpha == 2 and domain == "full" \
            and want != product_polynomial(n, n):
        problems.append(f"oracle: full flag (2,{n}) is not (1+x)^{n} A_{n}")


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a verdict: {text!r}")
    return text == "true"


def _parse_poly(fmt: str, stdout: str) -> dict:
    if fmt == "json":
        d = json.loads(stdout)
        return {"coefficients": [int(c) for c in d["coefficients"]],
                "degree": d["degree"], "cardinality": int(d["cardinality"]),
                "palindromic": d["palindromic"], "unimodal": d["unimodal"],
                "real_rooted": d["real_rooted"]}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["k", "coefficient"]:
            raise ValueError("bad csv header")
        if [int(r[0]) for r in rows[1:]] != list(range(len(rows) - 1)):
            raise ValueError("bad csv index column")
        return {"coefficients": [int(r[1]) for r in rows[1:]]}
    fields = dict(line.split(": ", 1) for line in stdout.splitlines())
    return {"coefficients": [int(c) for c in fields["coefficients"].split()],
            "degree": int(fields["degree"]),
            "cardinality": int(fields["cardinality"]),
            "palindromic": _bool(fields["palindromic"]),
            "unimodal": _bool(fields["unimodal"]),
            "real_rooted": _bool(fields["real_rooted"])}


def _parse_table(fmt: str, stdout: str) -> dict[int, list[int]]:
    if fmt == "json":
        triples = [(r["n"], r["k"], int(r["count"]))
                   for r in json.loads(stdout)["rows"]]
    else:
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["n", "k", "count"]:
            raise ValueError("bad csv header")
        triples = [(int(a), int(b), int(c)) for a, b, c in rows[1:]]
    table: dict[int, list[int]] = {}
    for n, k, count in triples:
        row = table.setdefault(n, [])
        if k != len(row):
            raise ValueError(f"table row {n} skips column {k}")
        row.append(count)
    return table


def _parse_report(fmt: str, stdout: str) -> dict[int, dict]:
    rows: dict[int, dict] = {}
    if fmt == "json":
        for r in json.loads(stdout)["rows"]:
            rows[r["n"]] = {
                "coefficients": [int(c) for c in r["coefficients"]],
                "degree": r["degree"], "cardinality": int(r["cardinality"]),
                "palindromic": r["palindromic"], "unimodal": r["unimodal"],
                "real_rooted": r["real_rooted"]}
    elif fmt == "csv":
        table = list(csv.reader(io.StringIO(stdout)))
        if table[0] != ["alpha", "n", "degree", "cardinality", "palindromic",
                        "unimodal", "real_rooted"]:
            raise ValueError("bad csv header")
        for _, n, deg, card, pal, uni, rr in table[1:]:
            rows[int(n)] = {"degree": int(deg), "cardinality": int(card),
                            "palindromic": _bool(pal), "unimodal": _bool(uni),
                            "real_rooted": _bool(rr)}
    else:
        for line in stdout.splitlines():
            f = dict(tok.split("=", 1) for tok in line.split())
            rows[int(f["n"])] = {
                "degree": int(f["degree"]), "cardinality": int(f["cardinality"]),
                "palindromic": _bool(f["palindromic"]),
                "unimodal": _bool(f["unimodal"]),
                "real_rooted": _bool(f["real_rooted"])}
    return rows


_VERIFY_COUNT = {
    "symmetry": re.compile(r"^PASS flag symmetric about \d+\*\(\d+-1\)/2 over (\d+) elements$"),
    "involution": re.compile(r"^PASS reversal is an involution on (\d+) elements$"),
    "coset-invariance": re.compile(r"^PASS (\d+) cosets of size (\d+) with constant descent count$"),
}


def _check_verify(problems: list[str], a: dict[str, str], stdout: str) -> None:
    lines = stdout.splitlines()
    target = a["target"]
    if target == "product-identity":
        k_max = int(a["max-k"])
        want = [f"PASS k={k}: 2-colored quotient flag polynomial at n={2 * k + 1} "
                f"matches (1+x)^{2 * k} * A_{2 * k + 1}" for k in range(1, k_max + 1)]
        for k in range(1, k_max + 1):
            _closed_form_checks(problems, "flag", 2, 2 * k + 1, "quotient")
        if lines != want:
            problems.append("product-identity lines differ from the oracle")
        return
    if target == "abr-identity":
        n_max = int(a["max-n"])
        want = [f"PASS n={n}: full 2-colored flag polynomial matches (1+x)^{n} * A_{n}"
                for n in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            _closed_form_checks(problems, "flag", 2, n, "full")
        if lines != want:
            problems.append("abr-identity lines differ from the oracle")
        return
    alpha, n = int(a["alpha"]), int(a["n"])
    match = _VERIFY_COUNT[target].match(lines[0]) if len(lines) == 1 else None
    if match is None:
        problems.append(f"{target}: unexpected output {stdout!r}")
        return
    if int(match.group(1)) != quotient_cardinality(alpha, n):
        problems.append(f"{target}: count {match.group(1)} != "
                        f"{quotient_cardinality(alpha, n)}")
    if target == "coset-invariance" and int(match.group(2)) != alpha:
        problems.append(f"coset-invariance: coset size {match.group(2)} != {alpha}")


def check_cli_job(args: list[str], fmt: str, exit_code: int, stdout: str,
                  stderr: str, golden: str | None) -> list[str]:
    """Problems with one CLI job's result; empty when it is correct.

    ``args`` is the menu entry (command and its flags, without --format and
    --threads).  A non-zero exit, including a cap refusal (exit 3), a stdout
    that differs from the golden bytes, or an output the oracle rejects is a
    problem.
    """
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}: {stderr.strip()[:200]}")
        return problems
    if golden is None:
        problems.append("no golden output recorded")
    elif stdout != golden:
        problems.append("stdout differs from the golden output")
    a = _flag_args(args[1:])
    try:
        if args[0] == "poly":
            alpha, n = int(a["alpha"]), int(a["n"])
            stat, domain = a.get("stat", "flag"), a.get("domain", "quotient")
            beta = int(a.get("beta", 0)) if domain == "fixed" else 0
            _closed_form_checks(problems, stat, alpha, n, domain)
            _check_poly_row(problems, "poly", stat, alpha, n, domain, beta,
                            _parse_poly(fmt, stdout))
        elif args[0] == "table":
            alpha, max_n = int(a["alpha"]), int(a["max-n"])
            table = _parse_table(fmt, stdout)
            if sorted(table) != list(range(1, max_n + 1)):
                problems.append("table rows are not n = 1..max-n")
            for n, row in table.items():
                _closed_form_checks(problems, "flag", alpha, n, "quotient")
                _check_poly_row(problems, f"table n={n}", "flag", alpha, n,
                                "quotient", 0, {"coefficients": row})
        elif args[0] == "report":
            alpha, max_n = int(a["alpha"]), int(a["max-n"])
            rows = _parse_report(fmt, stdout)
            if sorted(rows) != list(range(1, max_n + 1)):
                problems.append("report rows are not n = 1..max-n")
            for n, row in rows.items():
                _check_poly_row(problems, f"report n={n}", "flag", alpha, n,
                                "quotient", 0, row)
        elif args[0] == "verify":
            _check_verify(problems, a, stdout)
        else:
            problems.append(f"unknown command {args[0]!r}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable {args[0]} output: {exc}")
    return problems


def check_shape_job(coefficients: list[int], real_rooted: bool | None,
                    got: dict) -> list[str]:
    """Problems with one shape job's verdicts.  ``real_rooted`` is the
    theory's verdict for the input (None when theory is silent)."""
    want = {"palindromic": is_palindromic(coefficients),
            "unimodal": is_unimodal(coefficients),
            "real_rooted": real_rooted}
    return [f"{key} {got.get(key)} contradicts the oracle"
            for key, value in want.items()
            if value is not None and got.get(key) != value]
