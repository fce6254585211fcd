"""Exhaustive enumeration of colored permutation groups and their quotients,
with descent-statistic aggregation into exact polynomials.

Three computation routes coexist on purpose:

* the element streams (:func:`iterate_quotient_reps` and friends) yield every
  element in lexicographic order of (window, colors) and are the reference
  semantics, built without revalidation since their fields are valid by
  construction;
* the symmetry, involution and coset verifiers check raw (window, colors)
  tuples through the statistics' own kernels and build an element only for
  a counterexample.  Every rule they check reads the window only through
  its descent set D(w), and every subset of {1..n-1} is the descent set of
  some window, so they walk the n! windows once, recording each descent
  class's first window (in lex order) and size, and then check one
  representative per (class, coloring): 2^(n-1) * alpha^(n-1) checks for
  n! * alpha^(n-1) elements.  Symmetry reads the window and its reversal,
  so its walk reverses each window once and groups the (window, reversal)
  pairs by (D(w), D(r(w))) instead, checking a group at its first pair;
  the reversal complements and reverses D(w), so there are again 2^(n-1)
  groups.  Involution needs no classes: the reversal is the pair of its
  two halves, so it is an involution iff each half is.  The coset
  verifier walks the full group as representatives times shifts, and each
  coset holds alpha elements of one descent count, so it compares alpha
  times the representatives' distribution with the full group's
  colored-descent row, the paper's first result; building that row is its
  one admission.  Colorings are
  the outer loop and classes are checked in order of first appearance, so
  the first failing check's first window is the first failing element in
  (colors, window) order, the element walk's counterexample.  A class
  verdict equals the element verdict because ``_flag`` and ``_descents``
  read the window only through D(w) (``_descent_mask``); the test suite
  pins this on every element of the small full groups, and it is not
  checked at run time;
* the polynomial builders count by the transfer-matrix method (Stanley,
  *Enumerative Combinatorics I*, section 4.7).  Both the colored descent
  count and the flag statistic count adjacent pairs (does the window
  descend there, and how do the two colors compare), so placing entries
  right to left with the state (first color, rank of the first entry among
  those placed so far), each carrying its distribution of counted pairs
  packed into one integer, gives the coefficients in time and memory
  polynomial in alpha and n, never visiting an element.  The builders
  share no rule with the per-element statistics, and the test suite checks
  the two routes against each other.

Both routes name a domain by ``beta``: last color beta (0 is the quotient),
or ``None`` for the full group.  ``_admit`` owns the domain rule: check
alpha, n and beta, refuse a domain larger than the cap, and return the
size it admitted, which the builder packs by and the involution verifier
prints.  A domain is the product of two factors, ``_windows`` and
``_colorings``: ``_elements`` walks their lexicographic (window, colors)
product under every stream, and the verifiers walk the same two factors.

One pass serves a whole sweep over n, since after n entries its states hold
row n, and the cap refuses it up front on the largest domain.  Every row
that is printed takes one route, ``_reports``, which checks the arguments
and yields a :class:`StatReport` per n from one pass: the report builders
keep its last report, the table its polynomials, and the CLI's ``report``
renders every one.  Only the identity verifiers read the pass (``_rows``)
themselves.  A report computes its cardinality and shape verdicts when
read, so a sweep that reads only coefficients never runs a Sturm chain.

The builders' ``workers`` argument is accepted for compatibility; it changes
neither the result nor the parallelism, since every computation runs in the
calling thread.
"""
from __future__ import annotations

__all__ = ["CapExceededError", "StatReport", "Verification", "classical_eulerian",
           "colored_eulerian", "flag_eulerian_full", "flag_eulerian_quotient",
           "flag_table", "full_cardinality", "iterate_fixed_last_color",
           "iterate_full_group", "iterate_quotient_reps", "quotient_cardinality",
           "stat_report", "verify_abr_identity", "verify_coset_invariance",
           "verify_involution", "verify_product_identity", "verify_symmetry"]

import itertools
import math
import os
from collections import deque
from collections.abc import Iterator

from .core import (ColoredPermutation, ValidationError, _Record, _canonical_colors,
                   _decimal, _is_int, _require_color, _require_int, _shift_colors, _shown)
from .poly import IntPolynomial, binomial_power, is_palindromic, is_real_rooted, is_unimodal
from .stats import _descent_mask, _descents, _flag, _reversed_colors, _reversed_window
# Not called here: perfbench/spans.py wraps these three names on this module.
# ROADMAP item 19 deletes this line along with that file.
from .stats import colored_descent_count, flag_descent, reversal_map

DEFAULT_CAP = 10**9
# A cap refusal names the exact size of a domain of at most this many bits
# by _admit's estimate, and a lower bound on a larger one.  The (2, 1500)
# quotient, 15,168 bits and estimated at 19,498, is named exactly.
_EXACT_BITS = 1 << 15

STAT_DESCENT = "colored-descent"
STAT_FLAG = "flag"
# The domain names, written only here; the CLI offers them as --domain.
_DOMAINS = _QUOTIENT, _FULL, _FIXED = ("quotient", "full", "fixed")


class CapExceededError(RuntimeError):
    """Enumeration refused: the element count exceeds the cap.  ``required``
    is the exact count, or where ``exact`` is false a lower bound on it
    that already exceeds the cap."""

    def __init__(self, required: int, cap: int, exact: bool = True):
        super().__init__(required, cap, exact)
        self.required = required
        self.cap = cap
        self.exact = exact

    def __str__(self) -> str:
        # Formatted when read, not when raised, and through _shown, so a
        # domain size past the interpreter's int-str digit limit still
        # raises this error and reads as one line.
        return (f"enumeration of {'' if self.exact else 'at least '}"
                f"{_shown(self.required)} elements exceeds the cap of {_shown(self.cap)}")


def resolve_cap(cap: int | None) -> int:
    """Explicit cap, else the WREATH_CAP environment override, else the
    default.  A negative cap or a WREATH_CAP that is not an integer is a
    ValidationError naming its source."""
    source = "cap"
    if cap is None:
        env = os.environ.get("WREATH_CAP")
        if env is None:
            return DEFAULT_CAP
        source = "WREATH_CAP"
        try:
            cap = _decimal(env)
        except ValueError:
            raise ValidationError(
                f"WREATH_CAP must be an integer, got {_shown(env)}") from None
    _require_int(source, cap, 0)
    return cap


def _check_parameters(alpha: int, n: int) -> None:
    _require_int("alpha", alpha, 1)
    _require_int("n", n, 1)


def _admit(alpha: int, n: int, beta: int | None, cap: int | None) -> int:
    """The domain rule: check alpha and n, then beta (None is the full
    group), then refuse a domain larger than the resolved cap.  Returns the
    size it admitted.

    The size is the domain's public cardinality, ``full_cardinality`` or
    ``quotient_cardinality``: n! times alpha once per free color, with n
    free colors on the full group and n - 1 otherwise.  A running product
    of those factors, 1..n and then each alpha, meets the cap after each
    one and stops as soon as it passes it, so a refusal takes about
    log2(cap) multiplications at any n.  Admitted, the product is the exact
    size.  Refused, the error names the exact size, from the cardinality,
    when its bit length is at most ``_EXACT_BITS`` by the estimate
    n * bitlen(n) + free * bitlen(alpha), an upper bound, and otherwise the
    product so far, a lower bound."""
    _check_parameters(alpha, n)
    if beta is not None:
        _require_color("beta", beta, alpha)
    cap = resolve_cap(cap)
    free, cardinality = (n, full_cardinality) if beta is None else (n - 1, quotient_cardinality)
    size = 1
    # From 1, so that even a one-element domain meets the cap; alpha's
    # factors from a range, since itertools.repeat refuses a count past
    # sys.maxsize.
    for factor in itertools.chain(range(1, n + 1), (alpha for _ in range(free))):
        size *= factor
        if size > cap:
            exact = n * n.bit_length() + free * alpha.bit_length() <= _EXACT_BITS
            raise CapExceededError(cardinality(alpha, n) if exact else size, cap, exact)
    return size


def quotient_cardinality(alpha: int, n: int) -> int:
    _check_parameters(alpha, n)
    return alpha ** (n - 1) * math.factorial(n)


def full_cardinality(alpha: int, n: int) -> int:
    # alpha cosets of the quotient's size.
    return alpha * quotient_cardinality(alpha, n)


class StatReport(_Record):
    """One statistic's distribution over one domain.  The cardinality and
    the shape verdicts are computed from the polynomial each time they are
    read, so a caller that only wants the coefficients pays for none."""

    __slots__ = ("alpha", "n", "statistic", "domain", "polynomial")

    def __init__(self, alpha: int, n: int, statistic: str, domain: str,
                 polynomial: IntPolynomial) -> None:
        super().__init__(alpha, n, statistic, domain, polynomial)

    @property
    def cardinality(self) -> int:
        return self.polynomial.evaluate(1)

    @property
    def palindromic(self) -> bool:
        return is_palindromic(self.polynomial)

    @property
    def unimodal(self) -> bool:
        return is_unimodal(self.polynomial)

    @property
    def real_rooted(self) -> bool:
        return is_real_rooted(self.polynomial)


class Verification(_Record):
    """Outcome of an identity check; counterexample is set on failure."""

    __slots__ = ("ok", "description", "counterexample")

    def __init__(self, ok: bool, description: str,
                 counterexample: ColoredPermutation | None = None) -> None:
        super().__init__(ok, description, counterexample)


# ---------------------------------------------------------------------------
# Streams

def _windows(n: int) -> Iterator[tuple]:
    """Every window of length n, in lex order, from the identity."""
    return itertools.permutations(range(1, n + 1))


def _colorings(alpha: int, n: int, beta: int | None) -> Iterator[tuple]:
    """Every coloring of the domain, in lex order: last color beta, or any
    last color on the full group (beta None)."""
    lasts = range(alpha) if beta is None else (beta,)
    return itertools.product(*[range(alpha)] * (n - 1), lasts)


def _elements(alpha: int, n: int, beta: int | None,
              cap: int | None) -> Iterator[ColoredPermutation]:
    """The domain's elements, in lex order of (window, colors): the product
    of ``_windows`` and ``_colorings``, built without revalidation.
    Admission runs on the first ``next()``."""
    _admit(alpha, n, beta, cap)
    make = ColoredPermutation._trusted
    for window in _windows(n):
        for colors in _colorings(alpha, n, beta):
            yield make(alpha, window, colors)


def iterate_fixed_last_color(alpha: int, n: int, beta: int,
                             cap: int | None = None) -> Iterator[ColoredPermutation]:
    """All elements with last color beta, in lexicographic order of
    (window, colors)."""
    if beta is None:  # a color here, never _admit's name for the full group
        _check_parameters(alpha, n)
        _require_color("beta", beta, alpha)
    yield from _elements(alpha, n, beta, cap)


def iterate_quotient_reps(alpha: int, n: int,
                          cap: int | None = None) -> Iterator[ColoredPermutation]:
    """One representative per coset of the color-shift subgroup: the
    elements with last color 0, in lexicographic order."""
    return iterate_fixed_last_color(alpha, n, 0, cap=cap)


def iterate_full_group(alpha: int, n: int,
                       cap: int | None = None) -> Iterator[ColoredPermutation]:
    """Every element of the group, in lexicographic order of
    (window, colors)."""
    return _elements(alpha, n, None, cap)


# ---------------------------------------------------------------------------
# Transfer-matrix builder

def _rows(alpha: int, n_max: int, statistic: str, beta: int | None,
          cap: int | None) -> Iterator[IntPolynomial]:
    """The statistic's polynomial over the domain (beta=None means the full
    group, otherwise fixed last color) for each n = 1..n_max, from one pass
    that the cap refuses up front on the largest domain.

    Entries are placed right to left from the domain's last entry.  After n
    entries the state is (c, r): the first entry's color c and its rank r
    among the n window values; each state carries the distribution of the
    counted adjacent pairs over those suffixes.  A new first entry of color
    d and rank k among n + 1 values counts its pair with the old first entry
    (color c, rank j) if c != d for colored descents, if c > d for flag, and
    for both if c == d and j < k, a window descent.  Prefix sums over j, and
    a running sum over the colors, give each step in O(alpha * n)
    big-integer operations.  Colored descents read row n off the sum of all
    states; flag, the first color plus alpha per counted pair, reads its
    coefficient e off slot e // alpha of color e % alpha's total.

    A distribution is one int, its value at x = 2^w with w the bit length of
    the size ``_admit`` returns, the domain's at n_max: coefficient k is bits
    [k*w, (k+1)*w).  Every slot counts colored suffixes of that domain, so
    it holds at most the domain's size and sums never carry, and a total
    less a prefix sum of its own ranks never borrows.

    Row n is cut at its nominal degree, the statistic's maximum over the
    domain: n-1 for colored descents; for flag, alpha*(n-1) plus the
    largest admissible first color, ``top`` (beta on a fixed-last-color
    domain, alpha-1 over the full group).
    """
    w = _admit(alpha, n_max, beta, cap).bit_length()
    mask = (1 << w) - 1
    flag = statistic == STAT_FLAG
    top = alpha - 1 if beta is None else beta
    # states[c][r], seeded with the domain's last entry.
    states = [[1 if beta is None or c == beta else 0] for c in range(alpha)]
    for n in range(1, n_max + 1):
        totals = [sum(column) for column in states]
        grand = sum(totals)
        yield IntPolynomial(tuple(
            (totals[e % alpha] >> w * (e // alpha) if flag else grand >> w * e) & mask
            for e in range(alpha * (n - 1) + top + 1 if flag else n)))
        if n == n_max:
            return
        new_states = []
        above = grand  # the totals of the colors above d
        for d, total in enumerate(totals):
            above -= total
            # From another color: flag counts a color ascent, to an old
            # first color above d; colored descents count any change.
            cross = (above << w) + grand - above - total if flag else (grand - total) << w
            # Same color: below sums the old ranks j < k, each a window descent.
            new_states.append([
                cross + (below << w) + total - below
                for below in itertools.accumulate(states[d], initial=0)])
        states = new_states


def _reports(alpha: int, n_max: int, statistic: str, domain: str,
             beta: int, cap: int | None) -> Iterator[StatReport]:
    """The route every printed row takes: check the arguments, map the
    domain to its fixed last color (None for the full group) and label, and
    yield the report of each n = 1..n_max from one pass."""
    _check_parameters(alpha, n_max)
    if statistic not in (STAT_DESCENT, STAT_FLAG):
        raise ValidationError(f"unknown statistic {_shown(statistic)}")
    # Checked on every domain, so a beta that no domain reads is refused
    # rather than ignored.
    _require_color("beta", beta, alpha)
    if domain not in _DOMAINS:
        raise ValidationError(f"unknown domain {_shown(domain)}")
    fixed = {_QUOTIENT: 0, _FULL: None, _FIXED: beta}[domain]
    label = f"{domain}:{beta}" if domain == _FIXED else domain
    for n, polynomial in enumerate(_rows(alpha, n_max, statistic, fixed, cap), start=1):
        yield StatReport(alpha, n, statistic, label, polynomial)


def _build(alpha: int, n: int, statistic: str, domain: str,
           beta: int, cap: int | None) -> StatReport:
    """The route every report builder takes: the last report of a pass to
    n, holding one row at a time."""
    return deque(_reports(alpha, n, statistic, domain, beta, cap), maxlen=1)[0]


def colored_eulerian(alpha: int, n: int, cap: int | None = None,
                     workers: int = 1) -> StatReport:
    """Generating polynomial of colored descents over the quotient (one
    representative per coset, last color 0)."""
    return _build(alpha, n, STAT_DESCENT, _QUOTIENT, 0, cap)


def flag_eulerian_quotient(alpha: int, n: int, cap: int | None = None,
                           workers: int = 1) -> StatReport:
    """Flag Eulerian polynomial over the quotient, nominal degree
    alpha*(n-1)."""
    return _build(alpha, n, STAT_FLAG, _QUOTIENT, 0, cap)


def flag_eulerian_full(alpha: int, n: int, cap: int | None = None,
                       workers: int = 1) -> StatReport:
    """Flag Eulerian polynomial over the whole group, nominal degree
    alpha*n - 1."""
    return _build(alpha, n, STAT_FLAG, _FULL, 0, cap)


def stat_report(alpha: int, n: int, statistic: str, domain: str,
                beta: int = 0, cap: int | None = None,
                workers: int = 1) -> StatReport:
    """General entry point: statistic in {colored-descent, flag}, domain in
    {quotient, full, fixed} (fixed takes the last color beta)."""
    return _build(alpha, n, statistic, domain, beta, cap)


def classical_eulerian(n: int) -> IntPolynomial:
    """Eulerian polynomial by the triangle recurrence
    A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1), not by enumeration; the
    identity verifiers use it as an independent computation path."""
    _require_int("n", n, 1)
    row = [1]
    for m in range(2, n + 1):
        # Row m - 1 padded with a zero on either side: a = A(m-1, k) and
        # b = A(m-1, k-1), each 0 off the row.
        row = [(k + 1) * a + (m - k) * b
               for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return IntPolynomial(tuple(row))


def flag_table(alpha: int, n_max: int, cap: int | None = None,
               workers: int = 1) -> list[IntPolynomial]:
    """Rows n = 1..n_max of flag-statistic counts over the quotient; row n
    has columns k = 0..alpha*(n-1).  One transfer-matrix pass gives every
    row, so the cap refuses the sweep on its largest domain, n = n_max.
    An n_max below 1 is the empty sweep, as in the identity verifiers."""
    _require_int("alpha", alpha, 1)
    if not _sweeps("n_max", n_max):
        return []
    return [r.polynomial for r in _reports(alpha, n_max, STAT_FLAG, _QUOTIENT, 0, cap)]


# ---------------------------------------------------------------------------
# Identity verifiers

def _descent_classes(items, key) -> list[tuple]:
    """One walk of ``items``, grouped by ``key`` of each: (first item, class
    size) per class, in order of first appearance.  The verifiers pass the
    n! windows in lex order, keyed by their descent set (``_descent_mask``)
    or with their reversals by both descent sets; every subset of {1..n-1}
    is a descent set, so either way there are 2^(n-1) classes."""
    classes: dict = {}
    for item in items:
        seen = classes.setdefault(key(item), [item, 0])
        seen[1] += 1
    return [tuple(seen) for seen in classes.values()]


def verify_symmetry(alpha: int, n: int, cap: int | None = None) -> Verification:
    """Pointwise flag(w) + flag(r(w)) = alpha*(n-1) over the quotient, plus
    palindromicity of the flag polynomial.  The polynomial is built first,
    and its build admits the quotient.  The flag sum reads the window only
    through the pair (D(w), D(r(w))), so one walk reverses each window once
    and groups the (window, reversal) pairs by their descent sets, and each
    (group, coloring) is checked at the group's first pair; the partner's
    colors are computed once per coloring.  The first failing check names
    the first failing element in (colors, window) order, and the palindrome
    is checked only after every pointwise check holds."""
    report = flag_eulerian_quotient(alpha, n, cap=cap)
    target = alpha * (n - 1)
    classes = _descent_classes(((w, _reversed_window(w)) for w in _windows(n)),
                               lambda pair: tuple(map(_descent_mask, pair)))
    for colors in _colorings(alpha, n, 0):
        partner = _reversed_colors(alpha, colors)
        for (window, partner_window), _ in classes:
            if _flag(alpha, window, colors) + _flag(alpha, partner_window, partner) != target:
                return Verification(False, f"flag(w) + flag(r(w)) != {target}",
                                    ColoredPermutation._trusted(alpha, window, colors))
    if not report.palindromic:
        return Verification(False, "flag polynomial is not palindromic")
    return Verification(
        True, f"flag symmetric about {alpha}*({n}-1)/2 over {report.cardinality} elements")


def verify_involution(alpha: int, n: int, cap: int | None = None) -> Verification:
    """r(r(w)) = w over the quotient.  r is the pair of its two halves, so
    it is an involution iff each half is: n! window checks and alpha^(n-1)
    color checks.  The first failing element in (colors, window) order is
    the first window that fails under the first coloring, if that coloring
    holds, and otherwise the first failing coloring's identity window.  So
    one pass over the colorings checks each once and stops at the first
    coloring if a window fails, and the failing element's window is the
    identity exactly when its coloring fails its own check."""
    size = _admit(alpha, n, 0, cap)
    window = next((window for window in _windows(n)
                   if _reversed_window(_reversed_window(window)) != window), None)
    for colors in _colorings(alpha, n, 0):
        if _reversed_colors(alpha, _reversed_colors(alpha, colors)) != colors:
            window = tuple(range(1, n + 1))
        if window is not None:
            return Verification(False, "r(r(w)) != w",
                                ColoredPermutation._trusted(alpha, window, colors))
    return Verification(
        True, f"reversal is an involution on {size} elements")


def _against_eulerian(lhs: IntPolynomial, power: int, n: int,
                      subject: str) -> Verification:
    """Compare lhs with (1+x)^power * A_n from the triangle recurrence."""
    rhs = binomial_power(power) * classical_eulerian(n)
    ok = lhs.coefficients == rhs.coefficients
    return Verification(
        ok, f"{subject} {'matches' if ok else 'differs from'} (1+x)^{power} * A_{n}")


def _sweeps(name: str, bound: int) -> bool:
    """Whether a sweep to ``bound`` has rows: an int below 1 is the empty
    sweep, and a bound that is not an int, or is a bool, is rejected."""
    if not _is_int(bound) or bound > 0:
        _require_int(name, bound, 1)
    return bound > 0


def verify_product_identity(k_max: int, cap: int | None = None) -> list[Verification]:
    """Flag polynomial over the 2-colored quotient at n = 2k+1 equals
    (1+x)^(2k) times the classical Eulerian polynomial, per k = 1..k_max:
    the odd rows n >= 3 of one pass to n = 2*k_max + 1."""
    rows = _rows(2, 2 * k_max + 1, STAT_FLAG, 0, cap) if _sweeps("k_max", k_max) else ()
    return [_against_eulerian(lhs, n - 1, n, f"k={n // 2}: 2-colored quotient "
                                             f"flag polynomial at n={n}")
            for n, lhs in enumerate(rows, start=1) if n > 1 and n % 2]


def verify_abr_identity(n_max: int, cap: int | None = None) -> list[Verification]:
    """Flag polynomial over the full 2-colored group equals (1+x)^n times
    the classical Eulerian polynomial, per n = 1..n_max: the rows of one
    pass to n_max."""
    rows = _rows(2, n_max, STAT_FLAG, None, cap) if _sweeps("n_max", n_max) else ()
    return [_against_eulerian(lhs, n, n, f"n={n}: full 2-colored flag polynomial")
            for n, lhs in enumerate(rows, start=1)]


def verify_coset_invariance(alpha: int, n: int, cap: int | None = None) -> Verification:
    """Every coset of the color-shift subgroup is one quotient representative
    with its alpha - 1 nonzero shifts: a shift by s must give last color s,
    canonicalize back to the representative and keep its descent count.
    Then the cosets partition the full group into alpha elements of equal
    count each, so the full group's colored-descent row is alpha times the
    distribution over the representatives, the paper's first result, and
    that is the final check.  Each coloring's shifts are collected and then
    checked, then the descent counts once per (descent class, coloring),
    each class adding its size to the distribution.  A failed class check
    names the class's first window, the first failing element in (colors,
    window) order; a failed color check names the coloring's first element,
    the identity window.  The row is built before the walk, over the full
    group that the walk covers, and its build is the one admission.  A
    coloring's shifts are held only while it is checked, so the build never
    holds them and memory is O(2^n * n + alpha * n), never O(elements)."""
    row = stat_report(alpha, n, STAT_DESCENT, _FULL, cap=cap).polynomial
    classes = _descent_classes(_windows(n), _descent_mask)
    identity = tuple(range(1, n + 1))
    coeffs = [0] * n
    for colors in _colorings(alpha, n, 0):
        shifts = [_shift_colors(alpha, colors, shift) for shift in range(1, alpha)]
        for shift, shifted in enumerate(shifts, start=1):
            if shifted[-1] != shift:
                return Verification(False, "color shift does not move the last color",
                                    ColoredPermutation._trusted(alpha, identity, colors))
            if _canonical_colors(alpha, shifted) != colors:
                return Verification(
                    False, "color shift does not canonicalize to its representative",
                    ColoredPermutation._trusted(alpha, identity, shifted))
        for window, size in classes:
            count = _descents(window, colors)
            if any(_descents(window, shifted) != count for shifted in shifts):
                return Verification(False, "descent count varies within a coset",
                                    ColoredPermutation._trusted(alpha, window, colors))
            coeffs[count] += size
    if tuple(alpha * c for c in coeffs) != row.coefficients:
        return Verification(False, f"{alpha} times the descent distribution over "
                                   f"representatives differs from the full group's")
    return Verification(
        True, f"{sum(coeffs)} cosets of size {alpha} with constant descent count")
