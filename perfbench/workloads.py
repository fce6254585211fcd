"""Workload menus and the seeded job lists built from them.

A job list is a pure function of (workload, seed, copies).  It is a list of
rounds; each round runs every menu entry once, so every entry appears
``copies`` times whatever the seed.  An entry's copies take ``--threads`` 1
and 2 in turn (equal shares, so the process-pool path is always measured),
and the seed sets the job order within each round, which thread count each
entry starts with, and which ``--format`` each copy uses.  ``verify`` jobs
always use the default text format: ``verify --format json`` prints text,
and that defect must not be frozen into the golden outputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

ALL_FORMATS = ("text", "json", "csv")

# Menu entries: a CLI command with its flags, without --format and --threads.
MENUS: dict[str, list[tuple[str, ...]]] = {
    # The n! _descent_census walk is most of each job; the polynomials have
    # degree <= 17, so shape analysis is cheap.
    "census": [
        ("poly", "--alpha", "1", "--n", "10"),
        *[("poly", "--alpha", "2", "--n", "9", "--stat", stat, *domain)
          for stat in ("flag", "descent")
          for domain in (("--domain", "quotient"), ("--domain", "full"),
                         ("--domain", "fixed", "--beta", "1"))],
        ("table", "--alpha", "2", "--max-n", "9"),
        ("verify", "product-identity", "--max-k", "4"),
        ("verify", "abr-identity", "--max-n", "9"),
    ],
    # Per-element streams, validation and statistics are the work; the
    # coset dict (about 75 MB) sits beside constant-memory walks.  The two
    # involution entries take close times, between two shorter and
    # two longer entries, so with three copies each the median and the tail
    # of 18 jobs fall among their six copies.
    "stream": [
        ("verify", "symmetry", "--alpha", "4", "--n", "5"),
        ("verify", "symmetry", "--alpha", "3", "--n", "6"),
        ("verify", "symmetry", "--alpha", "2", "--n", "7"),
        ("verify", "involution", "--alpha", "3", "--n", "6"),
        ("verify", "involution", "--alpha", "6", "--n", "5"),
        ("verify", "coset-invariance", "--alpha", "3", "--n", "6"),
    ],
}

CLI_WORKLOADS = tuple(MENUS)
WORKLOADS = CLI_WORKLOADS + ("shape",)

# Copies of each menu (rounds) per run at --seconds 25, on a 2-CPU Xeon with
# Python 3.11: census about 18 s, stream about 55 s, shape about 25 s; other
# run lengths scale linearly.  Census takes an even number of copies, so
# every entry runs equally often at each thread count (verify ignores
# --threads, so stream need not); stream and shape take at least three, so
# the median over rounds can set one slow round aside.  Each workload's
# median job sits inside a group of copies of close times (census: the six
# (2,9) builds; stream: the two involution checks; shape: the middle inputs
# by degree), so one slowed job cannot move it far.  Stream's jobs are few
# and long, so its three rounds take longer than the others' runs.
COPIES_AT_25S = {"census": 2, "stream": 3, "shape": 6}
EVEN_COPIES = ("census",)

# A job that does no work: interpreter start, import and argument parsing.
NO_WORK_ARGS = ("poly", "--alpha", "1", "--n", "1")


@dataclass(frozen=True)
class Job:
    entry: tuple[str, ...]
    fmt: str
    threads: int

    @property
    def argv(self) -> list[str]:
        return [*self.entry, "--format", self.fmt, "--threads", str(self.threads)]

    @property
    def key(self) -> str:
        """Golden-output key: the output does not depend on --threads."""
        return " ".join(self.entry) + " --format " + self.fmt


def formats(entry: tuple[str, ...]) -> tuple[str, ...]:
    return ("text",) if entry[0] == "verify" else ALL_FORMATS


def copies_for(workload: str, seconds: float) -> int:
    scaled = COPIES_AT_25S[workload] * seconds / 25
    if workload in EVEN_COPIES:
        return max(2, 2 * round(scaled / 2))
    return max(3, round(scaled))


def job_list(workload: str, seed: int, copies: int) -> list[list[Job]]:
    """``copies`` rounds, each running every menu entry once in a seeded
    order."""
    rng = random.Random(f"{workload}:{seed}")
    menu = MENUS[workload]
    start = rng.randrange(2)
    plans = []
    for e, entry in enumerate(menu):
        fmts = list(formats(entry))
        rng.shuffle(fmts)
        plans.append((entry, fmts, (start + e) % 2))
    rounds = []
    for r in range(copies):
        jobs = [Job(entry, fmts[r % len(fmts)], 1 + (first + r) % 2)
                for entry, fmts, first in plans]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# shape: polynomial inputs for the poly predicates

@dataclass(frozen=True)
class ShapeInput:
    label: str
    coefficients: tuple[int, ...]
    real_rooted: bool | None  # the theory's verdict


def shape_inputs() -> list[ShapeInput]:
    """(1+x)^(2k) A_(2k+1) for k = 5..11 (degree 20-44) and (1+x)^n A_n for
    n = 10..22 carry a repeated (1+x) factor and are real-rooted; the
    quotient flag polynomials at alpha = 3..7 fail Newton's inequalities,
    so they are not."""
    out = [ShapeInput(f"(1+x)^{2 * k}*A_{2 * k + 1}",
                      tuple(oracle.product_polynomial(2 * k, 2 * k + 1)), True)
           for k in range(5, 12)]
    out += [ShapeInput(f"(1+x)^{n}*A_{n}", tuple(oracle.product_polynomial(n, n)), True)
            for n in range(10, 23)]
    for alpha, n in ((3, 7), (4, 6), (5, 5), (6, 5), (7, 4)):
        c = oracle.flag_polynomial(alpha, n)
        out.append(ShapeInput(f"flag({alpha},{n})", tuple(c),
                              False if oracle.newton_fails(c) else None))
    return out


def shape_rounds(seed: int, copies: int, count: int) -> list[list[int]]:
    """Per worker process, the order in which it analyzes the inputs; each
    input appears once per process."""
    rng = random.Random(f"shape:{seed}")
    rounds = []
    for _ in range(copies):
        order = list(range(count))
        rng.shuffle(order)
        rounds.append(order)
    return rounds
