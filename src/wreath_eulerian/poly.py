"""Exact integer polynomials and shape analysis.

Coefficients are arbitrary-precision Python ints throughout.  The nominal
degree is explicit (trailing zeros below it are kept), because palindromicity
of a descent polynomial must be tested against the statistic's maximum even
if a leading coefficient were zero.

Real-rootedness is decided exactly by Sturm chains over rational arithmetic
on the square-free part: a polynomial and its square-free part have the same
roots as a set, so the polynomial is real-rooted iff the square-free part has
as many distinct real roots as its degree.  No floating point anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: Sentinels for unbounded interval ends in root counting.
NEG_INF = object()
POS_INF = object()


@dataclass(frozen=True, slots=True)
class IntPolynomial:
    """Dense integer polynomial a_0 + a_1 x + ... + a_D x^D with explicit
    nominal degree D = len(coefficients) - 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coefficients, tuple):
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise ValueError("coefficient sequence must be nonempty")

    @property
    def nominal_degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPolynomial(tuple(out))

    def evaluate(self, x: int) -> int:
        result = 0
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coefficients)


def binomial_power(n: int) -> IntPolynomial:
    """(1 + x)^n, nominal degree n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return IntPolynomial(tuple(math.comb(n, k) for k in range(n + 1)))


def is_palindromic(p: IntPolynomial) -> bool:
    """a_k == a_{D-k} against the nominal degree D."""
    if p.is_zero():
        raise ValueError("zero polynomial has no shape")
    c = p.coefficients
    return c == c[::-1]


def is_unimodal(p: IntPolynomial) -> bool:
    """Coefficients rise (weakly) to a peak, then fall (weakly)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no shape")
    c = p.coefficients
    i = 1
    while i < len(c) and c[i - 1] <= c[i]:
        i += 1
    while i < len(c) and c[i - 1] >= c[i]:
        i += 1
    return i == len(c)


# ---------------------------------------------------------------------------
# Exact rational polynomial helpers (little-endian Fraction lists, trimmed so
# the last entry is nonzero; [] is the zero polynomial).

def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _from_int_poly(p: IntPolynomial) -> list[Fraction]:
    return _trim([Fraction(c) for c in p.coefficients])


def _derivative(c: list[Fraction]) -> list[Fraction]:
    return _trim([i * c[i] for i in range(1, len(c))])


def _divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while len(r) >= len(b):
        coef = r[-1] / lead
        shift = len(r) - len(b)
        q[shift] = coef
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
        _trim(r)
        if not r:
            break
    return _trim(q), r


def _monic(c: list[Fraction]) -> list[Fraction]:
    if not c:
        return c
    lead = c[-1]
    return [x / lead for x in c]


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    return _monic(a)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(c: list[Fraction], point) -> int:
    if not c:
        return 0
    if point is POS_INF:
        return _sign(c[-1])
    if point is NEG_INF:
        s = _sign(c[-1])
        return s if (len(c) - 1) % 2 == 0 else -s
    value = Fraction(0)
    for coef in reversed(c):
        value = value * point + coef
    return _sign(value)


def _sturm_chain(c: list[Fraction]) -> list[list[Fraction]]:
    chain = [c, _derivative(c)]
    while chain[-1]:
        _, r = _divmod(chain[-2], chain[-1])
        if not r:
            break
        # -r scaled to leading coefficient -1 or 1: a positive factor keeps
        # every sign, and a unit leading coefficient keeps the next
        # division's quotient coefficients from growing.
        scale = -1 / abs(r[-1])
        chain.append([x * scale for x in r])
    return chain


def _sign_variations(chain: list[list[Fraction]], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree_part(p: IntPolynomial) -> list[Fraction]:
    """Monic square-free part of a nonzero polynomial, leading zero
    coefficients trimmed; [1] for a constant."""
    c = _from_int_poly(p)
    if not c:
        raise ValueError("zero polynomial rejected")
    g = _gcd(c, _derivative(c))
    if len(g) <= 1:
        return _monic(c)
    q, _ = _divmod(c, g)
    return _monic(q)


def _distinct_real_roots(sf: list[Fraction], lower, upper) -> int:
    """Distinct real roots of a square-free polynomial in (lower, upper], by
    Sturm sign variations.  The finite bounds must not themselves be
    roots."""
    chain = _sturm_chain(sf)
    return _sign_variations(chain, lower) - _sign_variations(chain, upper)


def real_root_count(p: IntPolynomial, lower=NEG_INF, upper=POS_INF) -> int:
    """Number of distinct real roots in the interval (lower, upper], exact.
    Defaults to the whole real line."""
    return _distinct_real_roots(_squarefree_part(p), lower, upper)


def is_real_rooted(p: IntPolynomial) -> bool:
    """True iff every root is real: the square-free part has as many distinct
    real roots as its degree.  Leading zero coefficients are trimmed, and a
    nonzero constant counts as real-rooted."""
    sf = _squarefree_part(p)
    return _distinct_real_roots(sf, NEG_INF, POS_INF) == len(sf) - 1
