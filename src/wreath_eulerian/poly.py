"""Exact integer polynomials and shape analysis.

Coefficients are arbitrary-precision Python ints throughout.  The nominal
degree is explicit (trailing zeros below it are kept), because palindromicity
of a descent polynomial must be tested against the statistic's maximum even
if a leading coefficient were zero.

Real-rootedness is decided exactly by one integer Sturm chain of the
polynomial p itself.  Its last entry is gcd(p, p') up to a constant, and
the square-free part of p has the same roots as a set and degree
deg p - deg gcd(p, p'), so p is real-rooted iff the chain counts that many
distinct real roots.  No floating point anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
# Integer polynomial helpers (little-endian int lists, trimmed so the last
# entry is nonzero; [] is the zero polynomial).

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _derivative(c: list[int]) -> list[int]:
    return _trim([i * c[i] for i in range(1, len(c))])


def _sturm_chain(p: IntPolynomial) -> list[list[int]]:
    """Sturm chain of p and p' over the integers, leading zero coefficients
    of p trimmed.  Each later entry is the pseudo-remainder of the two
    before it, scaled by a power of |lc| of the divisor, then negated and
    divided by its content: both factors are positive, so every sign of
    the rational chain is kept, and the content division keeps the
    coefficients small.  The last entry is gcd(p, p') up to a constant."""
    chain = [_trim(list(p.coefficients))]
    if not chain[0]:
        raise ValueError("zero polynomial rejected")
    b = _derivative(chain[0])
    while b:
        chain.append(b)
        r = list(chain[-2])
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            # lead * r - lc(r) * sign * x^shift * b cancels the top term.
            factor = r[-1] * sign
            shift = len(r) - len(b)
            if lead != 1:
                r = [lead * x for x in r]
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
            _trim(r)
        content = math.gcd(*r)
        b = [-x // content for x in r]
    return chain


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over the rationals; by
    Gauss's lemma the quotient has integer coefficients."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        coef = r[shift + len(b) - 1] // b[-1]
        q[shift] = coef
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
    return q


def _sign_at(c: list[int], point) -> int:
    if point is POS_INF:
        value = c[-1]
    elif point is NEG_INF:
        value = c[-1] if len(c) % 2 else -c[-1]
    else:
        value = 0
        for coef in reversed(c):
            value = value * point + coef
    return (value > 0) - (value < 0)


def _sign_variations(chain: list[list[int]], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(p: IntPolynomial, lower=NEG_INF, upper=POS_INF) -> int:
    """Number of distinct real roots in the interval (lower, upper], exact.
    Defaults to the whole real line.  Every chain entry is divided by the
    primitive gcd(p, p'), which gives the square-free part's chain, so a
    finite bound may itself be a repeated root."""
    chain = _sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        content = math.gcd(*g)
        g = [x // content for x in g]
        chain = [_exact_quotient(c, g) for c in chain]
    return _sign_variations(chain, lower) - _sign_variations(chain, upper)


def is_real_rooted(p: IntPolynomial) -> bool:
    """True iff every root is real: p has deg p - deg gcd(p, p') distinct
    roots, its square-free part's degree, and the Sturm chain counts how
    many are real.  Leading zero coefficients are trimmed, and a nonzero
    constant counts as real-rooted."""
    chain = _sturm_chain(p)
    real = (_sign_variations(chain, NEG_INF)
            - _sign_variations(chain, POS_INF))
    return real == len(chain[0]) - len(chain[-1])
