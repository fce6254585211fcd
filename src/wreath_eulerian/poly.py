"""Exact integer polynomials and shape analysis.

Coefficients are arbitrary-precision Python ints throughout.  The nominal
degree is explicit (trailing zeros below it are kept), because palindromicity
of a descent polynomial must be tested against the statistic's maximum even
if a leading coefficient were zero.

Real-rootedness is decided exactly, in one sequence.  The real root x = 0
is divided out first, and the rest q is read as it is, with every (1 + x)
factor it holds.
(1) q is read at its middle coefficient alone: one of Newton's
    inequalities (Hardy, Littlewood and Pólya, *Inequalities*, §2.22),
    which hold for every real-rooted polynomial, so a break proves False
    in O(1).  Of the flag rows with 3 <= alpha <= 7 and n <= 30, it
    rejects every one past n = 1 but the (3, 3) rows of the quotient and
    of last color 2.
(2) A palindromic q is (1 + x)^j r with r(x) = x^m g(x + 1/x), g of half
    the degree of r (Petersen, *Eulerian Numbers*, ch. 4).  One packed
    Clenshaw sum over q gives P(z) = g(-2 - z), each (1 + x)^2 = -x z
    being a factor -z that it strips.  If P takes nonzero values of
    alternating sign at m + 1 points 0 = z_0 < ... < z_m, it has m
    distinct roots z > 0, so g has m below -2 and every root of q is
    real: True.  By Descartes' rule such points need P's m + 1
    coefficients to be nonzero and to alternate strictly in sign, which
    is checked first.  The points come from one search: its round 0 is
    the Newton-polygon seeds on P's coefficients, sorted, and each later
    round adds the midpoints of neighbouring points.  Eulerian
    polynomials have simple negative roots (Frobenius; Brändén,
    "Unimodality, log-concavity, real-rootedness and beyond", 2015), so
    the alpha <= 2 flag rows find such points, and they never reach the
    chain.
(3) Otherwise q's own square-free chain, read at -inf and +inf, decides
    (Sturm's theorem): the chain of q / gcd(q, q') has the roots of q as
    a set, as many as its degree, so q is real-rooted iff the chain
    counts that many distinct real roots.  A repeated root, -1 included,
    counts once on both sides.  ``real_root_count`` always takes the
    chain.
No floating point anywhere.
"""
from __future__ import annotations

__all__ = ["IntPolynomial", "binomial_power", "is_palindromic", "is_real_rooted",
           "is_unimodal", "real_root_count"]

import math

from .core import ValidationError, _Record, _as_tuple, _is_int, _require_int, _shown

#: Sentinels for unbounded interval ends in root counting.
NEG_INF = object()
POS_INF = object()


class IntPolynomial(_Record):
    """Dense integer polynomial a_0 + a_1 x + ... + a_D x^D with explicit
    nominal degree D = len(coefficients) - 1."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coefficients = _as_tuple("coefficients", coefficients)
        if not coefficients:
            raise ValidationError("coefficient sequence must be nonempty")
        # One pass over the types; the scan for a bool or a non-int runs
        # only when some coefficient's type is not int itself.
        if (not {*map(type, coefficients)} <= {int}
                and not all(map(_is_int, coefficients))):
            bad = next(c for c in coefficients if not _is_int(c))
            raise ValidationError(f"coefficient {_shown(bad)} is not an int")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def nominal_degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPolynomial(tuple(out))

    def evaluate(self, x: int) -> int:
        return _value(self.coefficients, x)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coefficients)


def binomial_power(n: int) -> IntPolynomial:
    """(1 + x)^n, nominal degree n."""
    _require_int("n", n, 0)
    return IntPolynomial(tuple(math.comb(n, k) for k in range(n + 1)))


def _value(c, x):
    """The value at x of the polynomial with coefficients c, constant
    first, by Horner's rule."""
    value = 0
    for coef in reversed(c):
        value = value * x + coef
    return value


def _coefficients(p: IntPolynomial) -> tuple[int, ...]:
    """p's coefficients; the zero polynomial is rejected."""
    if p.is_zero():
        raise ValueError("zero polynomial rejected")
    return p.coefficients


def is_palindromic(p: IntPolynomial) -> bool:
    """a_k == a_{D-k} against the nominal degree D, not the trimmed one."""
    c = _coefficients(p)
    return c == c[::-1]


def is_unimodal(p: IntPolynomial) -> bool:
    """Coefficients rise (weakly) to a peak, then fall (weakly)."""
    c = _coefficients(p)
    n = len(c)
    i = 1
    while i < n and c[i - 1] <= c[i]:
        i += 1
    while i < n and c[i - 1] >= c[i]:
        i += 1
    return i == n


# ---------------------------------------------------------------------------
# Integer polynomial helpers (little-endian int lists, trimmed so the last
# entry is nonzero; [] is the zero polynomial).

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _nonzero_coefficients(p: IntPolynomial) -> list[int]:
    """p's coefficients with leading zeros trimmed; the zero polynomial is
    rejected."""
    return _trim(list(_coefficients(p)))


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


def _square_free_chain(c: list[int]) -> list[list[int]]:
    """Sturm chain of a nonzero trimmed c and its derivative over the
    integers, every entry divided by the primitive gcd(c, c'): the chain of
    c's square-free part, so a finite point may itself be a repeated root
    of c.  Each later entry is the pseudo-remainder of the two before it,
    scaled by a power of |lc| of the divisor, then negated and divided by
    its content: both factors are positive, so every sign of the rational
    chain is kept, and the content division keeps the coefficients small.
    Before the gcd division the last entry is gcd(c, c') up to a constant.
    A constant gcd is +1 or -1 once primitive: dividing by it at most
    negates the whole chain, which changes no sign-variation count."""
    chain = [c]
    b = _trim([i * c[i] for i in range(1, len(c))])
    while b:
        chain.append(b)
        r = list(chain[-2])
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            # lead * r - lc(r) * sign * x^shift * b cancels the top term.
            factor = r[-1] * sign
            shift = len(r) - len(b)
            r = [lead * x for x in r]
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
            _trim(r)
        content = math.gcd(*r)
        b = [-x // content for x in r]
    content = math.gcd(*chain[-1])
    g = [x // content for x in chain[-1]]
    return [_exact_quotient(e, g) for e in chain]


def _palindromic_reduction(c: list[int]) -> list[int]:
    """P with q(x) = x^m P(z) at x + 1/x = y = -2 - z, for the rest q of
    degree 2m of a palindromic c without its (1 + x) factors; so
    P(z) = g(-2 - z) for the g with q(x) = x^m g(y), and P(0) != 0.
    At degree 2h, c(x) / x^h = c_h + sum_(j>=1) c_(h+j) F_j(y) with
    F_j = x^j + x^-j; at degree 2h - 1, c(x) / ((1 + x) x^(h-1)) =
    sum_(j>=0) c_(h+j) F_j(y) with F_j = (u^(2j+1) + u^-(2j+1)) / (u + 1/u)
    for u^2 = x.  Both obey F_(j+1) = y F_j - F_(j-1), from F_1 = y or
    y - 1, so Clenshaw's recurrence sums it at z = 2^bits, multiplying by y
    in two shifts and an add.  Its coefficients in z lie below
    sum |c_(h..)| 4^n < 2^(bits - 2) for n = floor(deg c / 2), so they are
    the signed base-2^bits digits.  Each (1 + x)^2 = -x z is a factor -z:
    its zero digits are stripped, and the sign flips if they are odd in
    number."""
    h, n = len(c) // 2, (len(c) - 1) // 2
    bits = sum(map(abs, c[h:])).bit_length() + 2 * n + 2
    # b1, b2 = b_(j+1), b_(j+2) of b_j = c_(h+j) + y b_(j+1) - b_(j+2).
    b1 = b2 = 0
    for a in c[:h:-1]:
        b1, b2 = a - (b1 << bits) - (b1 << 1) - b2, b1
    # c_h F_0 + F_1 b_1 - F_0 b_2, with c_h counted once at even degree.
    value = (c[h] - (b1 << bits) - (b1 << 1)
             - (2 * b2 if len(c) % 2 else b1 + b2))
    zeros = ((value & -value).bit_length() - 1) // bits
    value = (-value if zeros % 2 else value) >> zeros * bits
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    p = []
    for _ in range(n + 1 - zeros):
        value += half
        p.append((value & mask) - half)
        value >>= bits
    return p


def _newton_breaks(c: list[int], k: int) -> bool:
    """True iff c_k^2 k (d - k) < c_(k-1) c_(k+1) (k + 1) (d - k + 1) for
    the trimmed c of degree d and 1 <= k <= d - 1.  Newton's inequality
    e_k^2 >= e_(k-1) e_(k+1) for e_k = c_k / C(d, k) holds for every
    real-rooted polynomial, whatever the signs of its coefficients, so a
    k that breaks it proves c is not."""
    d = len(c) - 1
    return c[k] * c[k] * k * (d - k) < c[k - 1] * c[k + 1] * (k + 1) * (d - k + 1)


#: Rounds of midpoint refinement before the certificate search gives up.
_REFINEMENTS = 4


def _sign_change_points(p: list[int]) -> list[tuple[int, int]] | None:
    """Points 0 = z_0 < ... < z_d, as (numerator, denominator) pairs, at
    which p of degree d takes nonzero values of alternating sign, or None
    if the search finds none.  Between two such points lies a root, so p
    then has d distinct positive roots.

    By Descartes' rule, d distinct positive roots need d + 1 nonzero
    coefficients of strictly alternating sign, so any other p gets None
    in O(d), before any point is evaluated.  Then one search.  Its round 0
    is the Newton-polygon seeds, sorted: 0, sqrt|p_(i-1) / p_(i+1)|
    rounded down for i = 1..d-1, which lies between the i-th and (i+1)-th
    roots when they are far apart, and the power of two above
    |p_(d-1) / p_d|, the sum of the roots if all are positive.  Each round
    keeps the first point of each run of equal nonzero signs; with d + 1
    of them left, they are the points.  Otherwise the midpoints of
    neighbouring points join the round's points, for up to _REFINEMENTS
    rounds.  The seeds only place the points: the points are checked
    whatever they are."""
    positive, negative = (p[::2], p[1::2]) if p[0] > 0 else (p[1::2], p[::2])
    if (positive and min(positive) <= 0) or (negative and max(negative) >= 0):
        return None
    d = len(p) - 1
    # 2^-shift <= z_1 / 2^(_REFINEMENTS + 1), as
    # |p_0 / p_2| > 2^(bits(p_0) - 1 - bits(p_2)).
    shift = (max((p[2].bit_length() - p[0].bit_length()) // 2 + 2, 0)
             + _REFINEMENTS if d > 1 else 0)
    new = [0] + [math.isqrt((abs(a) << 2 * shift) // abs(b))
                 for a, b in zip(p, p[2:])]
    if d:
        new.append(1 << ((abs(p[-2]) // abs(p[-1])).bit_length() + shift))
    # Sorted, since alternation between points out of order proves nothing.
    new.sort()
    scaled = [a << shift * (d - i) for i, a in enumerate(p)][::-1]
    for refinement in range(_REFINEMENTS + 1):
        # p(z / 2^shift) * 2^(shift d) at each new z, by homogeneous
        # integer Horner.  Inline, not through _value: this loop is most of
        # a certificate's time, and the call cost 4.1% of a cold perfbench
        # shape job (2 CPUs, Python 3.11.7).
        fresh = []
        for z in new:
            value = 0
            for a in scaled:
                value = value * z + a
            fresh.append((value > 0) - (value < 0))
        if refinement:
            # Each midpoint goes between the two points it halves.
            zs = [z for pair in zip(zs, new) for z in pair] + zs[-1:]
            signs = [s for pair in zip(signs, fresh) for s in pair] + signs[-1:]
        else:
            zs, signs = new, fresh
        firsts = []
        last = 0
        for z, s in zip(zs, signs):
            if s and s != last:
                firsts.append(z)
                last = s
        if len(firsts) == d + 1:
            return [(z, 1 << shift) for z in firsts]
        new = [(a + b) >> 1 for a, b in zip(zs, zs[1:])]
    return None


def _sign_at(c: list[int], point) -> int:
    if point is POS_INF:
        value = c[-1]
    elif point is NEG_INF:
        value = c[-1] if len(c) % 2 else -c[-1]
    else:
        value = _value(c, point)
    return (value > 0) - (value < 0)


def _sign_variations(chain: list[list[int]], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _require_bound(name: str, value) -> None:
    """``value`` is exact: an int (not a bool), a Fraction, NEG_INF or
    POS_INF.  A float is refused: its value is not the number written, as
    the float 1/3 lies below 1/3, the root of 3x - 1."""
    # Imported here, not at module level: fractions pulls in decimal, which
    # would add milliseconds to every CLI start for a function it never calls.
    from fractions import Fraction

    if not (_is_int(value) or isinstance(value, Fraction)
            or value is NEG_INF or value is POS_INF):
        raise ValidationError(
            f"{name} must be an int, a Fraction, NEG_INF or POS_INF, "
            f"got {_shown(value)}")


def real_root_count(p: IntPolynomial, lower=NEG_INF, upper=POS_INF) -> int:
    """Number of distinct real roots in the interval (lower, upper], exact;
    0 when lower >= upper.  Defaults to the whole real line.  The chain is
    that of p's square-free part, so a finite bound may itself be a
    repeated root."""
    _require_bound("lower", lower)
    _require_bound("upper", upper)
    chain = _square_free_chain(_nonzero_coefficients(p))
    # On lower >= upper, sentinels included, the difference is minus the
    # count in (upper, lower], so it is at most 0.
    return max(_sign_variations(chain, lower) - _sign_variations(chain, upper), 0)


def is_real_rooted(p: IntPolynomial) -> bool:
    """True iff every root is real.  Leading zero coefficients are trimmed,
    and a nonzero constant counts as real-rooted.

    Stripping the low-order zeros, the root x = 0, keeps the verdict.
    The x^k-free rest q of degree d then takes one sequence, and the first
    step that settles the verdict gives it:
    (1) q breaks Newton's inequality at its middle index k = floor(d / 2)
        (``_newton_breaks``, O(1)): False.
    (2) q is palindromic, so q = (1 + x)^j r with r of even degree 2m and
        r(x) = x^m g(x + 1/x); each root y of g gives the two roots of
        x^2 - y x + 1, both real and distinct iff y is real with |y| > 2.
        If P(z) = g(-2 - z) (``_palindromic_reduction``, one packed sum in
        which each (1 + x)^2 is a factor -z, stripped) changes sign m
        times at points 0 = z_0 < ... < z_m (``_sign_change_points``: a
        P whose coefficients do not strictly alternate in sign is refused
        in O(m), and otherwise one search, whose round 0 is the
        Newton-polygon seeds and whose later rounds add midpoints, looks
        for them), g has m distinct roots below -2, each giving two
        distinct negative roots of r, so every root of q is real: True.
    (3) otherwise q's own square-free chain, read at -inf and +inf,
        decides.  Its degree is the number of distinct roots of q,
        repeated roots, -1 and roots on the unit circle included, and the
        division by gcd(q, q') flips every sign at -inf or +inf together,
        so the count of real roots is unchanged."""
    c = _nonzero_coefficients(p)
    k = 0
    while c[k] == 0:
        k += 1
    q = c[k:]
    if len(q) > 2 and _newton_breaks(q, (len(q) - 1) // 2):
        return False
    if q == q[::-1] and _sign_change_points(_palindromic_reduction(q)) is not None:
        return True
    chain = _square_free_chain(q)
    real = (_sign_variations(chain, NEG_INF)
            - _sign_variations(chain, POS_INF))
    return real == len(chain[0]) - 1
