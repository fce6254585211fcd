import functools
import math
import random
import re
from fractions import Fraction

import pytest
from conftest import record, refuse
from hypothesis import given
from hypothesis import strategies as st

from wreath_eulerian import (
    IntPolynomial,
    ValidationError,
    binomial_power,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
    real_root_count,
)
from wreath_eulerian import enumeration, poly
from wreath_eulerian.poly import NEG_INF, POS_INF


@st.composite
def known_roots(draw):
    """(p, roots): p = c * prod (x - r)^m over distinct small integer roots
    r with multiplicities m in 1..3."""
    roots = draw(st.lists(st.integers(-6, 6), max_size=4, unique=True))
    p = IntPolynomial((draw(st.sampled_from([-3, -1, 1, 2, 5])),))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * IntPolynomial((-r, 1))
    return p, roots


@st.composite
def palindromic_products(draw):
    """(p, real, distinct): p is a product of reciprocal pairs
    r x^2 - (r^2 + 1) x + r (roots r and 1/r), an optional unit-circle factor
    x^2 - t x + 1 with |t| < 2, an optional (1 - x)^2 (y = 2 under
    y = x + 1/x), (1 + x)^m and x^k.  real is True iff there is no
    unit-circle factor; distinct counts p's distinct real roots."""
    rs = draw(st.lists(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]),
                       max_size=4))
    unit = draw(st.sampled_from([None, -1, 0, 1]))
    one = draw(st.booleans())
    m, k = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    p = binomial_power(m) * IntPolynomial((0,) * k + (1,))
    for r in rs:
        p = p * IntPolynomial((r, -(r * r + 1), r))
    if unit is not None:
        p = p * IntPolynomial((1, -unit, 1))
    if one:
        p = p * IntPolynomial((1, -2, 1))
    distinct = 2 * len(set(rs)) + one + (m > 0) + (k > 0)
    return p, unit is None, distinct


def square_free_degree(p):
    """Degree of p's square-free part, from the direct chain of p."""
    return len(poly._square_free_chain(poly._trim(list(p.coefficients)))[0]) - 1


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(tuple))


def grid_root_count(coeffs, lo=-100, hi=100, step=Fraction(1, 64)):
    """Distinct real roots of a square-free polynomial by sign scanning on a
    fine rational grid; independent of the Sturm machinery.  Assumes all
    roots lie in (lo, hi) and are separated by more than ``step``."""
    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    roots = 0
    x = Fraction(lo)
    prev = ev(x)
    while x < hi:
        x += step
        cur = ev(x)
        if cur == 0:
            roots += 1
            x += step
            cur = ev(x)
        elif (prev < 0) != (cur < 0):
            roots += 1
        prev = cur
    return roots


class TestRingOperations:
    def test_square_of_binomial(self):
        p = IntPolynomial((1, 1))
        assert (p * p).coefficients == (1, 2, 1)

    def test_hand_product(self):
        lhs = IntPolynomial((1, 2, 1)) * IntPolynomial((1, 4, 1))
        assert lhs.coefficients == (1, 6, 10, 6, 1)

    def test_evaluate_counts_group_order(self):
        assert IntPolynomial((1, 4, 1)).evaluate(1) == 6

    def test_add_keeps_longer_degree(self):
        s = IntPolynomial((1, 2)) + IntPolynomial((0, 0, 3))
        assert s.coefficients == (1, 2, 3)

    def test_multiply_nominal_degree_adds(self):
        p = IntPolynomial((1, 0, 0))
        q = IntPolynomial((1, 0))
        assert (p * q).nominal_degree == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial(())

    @pytest.mark.parametrize("coeffs", [(1.5, 2), (1, 2.0), (True, 1),
                                        (1, False), ("1", 2), 5])
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError):
            IntPolynomial(coeffs)

    def test_non_integer_coefficient_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="coefficient 1.5 is not an int"):
            IntPolynomial((1.5, 2))
        # The message names the first coefficient that is not an int.
        with pytest.raises(ValidationError, match="coefficient 2.5 is not an int"):
            IntPolynomial((1, 2, 2.5, None))

    def test_int_subclass_coefficients_accepted(self):
        # A type other than int itself takes the per-coefficient scan,
        # which accepts every int subclass but bool.
        class Big(int):
            pass

        p = IntPolynomial((1, Big(2), Big(3)))
        assert p.coefficients == (1, 2, 3)
        assert is_real_rooted(p) == chain_verdict(p)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_bool_and_float_refused_by_name(self, bad):
        with pytest.raises(ValidationError,
                           match=f"^coefficient {re.escape(repr(bad))} is not an int$"):
            IntPolynomial((1, bad, 2))

    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, p, q, r):
        assert (p + q).coefficients == (q + p).coefficients
        assert ((p + q) + r).coefficients == (p + (q + r)).coefficients
        assert (p * q).coefficients == (q * p).coefficients
        assert ((p * q) * r).coefficients == (p * (q * r)).coefficients
        lhs = p * (q + r)
        rhs = (p * q) + (p * r)
        assert lhs.coefficients == rhs.coefficients

    @given(small_polys, small_polys, st.integers(-50, 50))
    def test_evaluate_is_multiplicative(self, p, q, x):
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestBinomialPower:
    def test_zeroth_power(self):
        assert binomial_power(0).coefficients == (1,)

    def test_square(self):
        assert binomial_power(2).coefficients == (1, 2, 1)

    def test_fifth_power(self):
        assert binomial_power(5).coefficients == (1, 5, 10, 10, 5, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial_power(-1)


class TestShapePredicates:
    def test_palindromic(self):
        assert is_palindromic(IntPolynomial((1, 6, 10, 6, 1)))
        assert not is_palindromic(IntPolynomial((1, 2)))
        assert not is_palindromic(IntPolynomial((1, 0)))

    def test_unimodal(self):
        assert is_unimodal(IntPolynomial((1, 6, 10, 6, 1)))
        assert not is_unimodal(IntPolynomial((1, 0, 2)))
        assert is_unimodal(IntPolynomial((7,)))
        assert is_unimodal(IntPolynomial((1, 2, 2, 1)))

    def test_untrimmed_coefficients_are_read(self):
        # Zeros above the last nonzero coefficient count against the
        # nominal degree, and a zero run is a plateau.
        assert not is_palindromic(IntPolynomial((1, 2, 1, 0)))
        assert is_palindromic(IntPolynomial((0, 1, 0)))
        assert is_unimodal(IntPolynomial((1, 2, 1, 0, 0)))
        assert not is_unimodal(IntPolynomial((0, 1, 0, 1)))

    def test_zero_polynomial_rejected(self):
        zero = IntPolynomial((0, 0))
        for predicate in (is_palindromic, is_unimodal, is_real_rooted,
                          real_root_count):
            with pytest.raises(ValueError, match="zero polynomial rejected"):
                predicate(zero)


class TestRealRootedness:
    def test_positive_discriminant_quadratic(self):
        assert is_real_rooted(IntPolynomial((1, 4, 1)))
        assert real_root_count(IntPolynomial((1, 4, 1))) == 2

    def test_negative_discriminant_quadratic(self):
        assert not is_real_rooted(IntPolynomial((1, 1, 1)))
        assert real_root_count(IntPolynomial((1, 1, 1))) == 0

    def test_product_of_real_rooted_factors(self):
        p = binomial_power(4) * IntPolynomial((1, 4, 1))
        assert is_real_rooted(p)
        # -1 is a quadruple root: 5 distinct roots would overcount it.
        assert real_root_count(p) == 3

    def test_repeated_roots(self):
        p = IntPolynomial((1, 2, 1))  # (1+x)^2
        assert is_real_rooted(p)
        assert real_root_count(p) == 1

    def test_mixed_multiplicity_fails_when_complex_pair_present(self):
        p = IntPolynomial((1, 2, 1)) * IntPolynomial((1, 1, 1))
        assert not is_real_rooted(p)
        assert real_root_count(p) == 1

    def test_constant_is_real_rooted(self):
        assert is_real_rooted(IntPolynomial((5,)))
        assert real_root_count(IntPolynomial((5,))) == 0

    def test_trailing_zeros_use_effective_degree(self):
        p = IntPolynomial((1, 2, 1, 0, 0))
        assert is_real_rooted(p)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_binomial_factor_preserves_real_rootedness(self, m):
        for base in (IntPolynomial((1, 4, 1)), IntPolynomial((2, 3, 1)),
                     IntPolynomial((1, 11, 11, 1))):
            assert is_real_rooted(base)
            assert is_real_rooted(base * binomial_power(m))

    def test_positive_coefficients_have_no_positive_roots(self):
        for p in (IntPolynomial((1, 6, 10, 6, 1)),
                  IntPolynomial((1, 1, 1)),
                  IntPolynomial((3, 5)),
                  IntPolynomial((1, 11, 11, 1))):
            assert real_root_count(p, 0, POS_INF) == 0

    def test_bounds_are_exact(self):
        # The float nearest 1/3 lies below 1/3, the root of 3x - 1: only an
        # exact bound places the root inside (0, 1/3].
        p = IntPolynomial((-1, 3))
        assert real_root_count(p, 0, Fraction(1, 3)) == 1
        assert real_root_count(p, Fraction(1, 3), 1) == 0
        assert real_root_count(p, -1, 1) == 1
        for bad in (1 / 3, 0.0, True, False, "1", None):
            with pytest.raises(ValidationError, match="upper"):
                real_root_count(p, 0, bad)
            with pytest.raises(ValidationError, match="lower"):
                real_root_count(p, bad, 1)

    @pytest.mark.parametrize("lower,upper", [
        (1, 0), (Fraction(1, 2), Fraction(1, 2)), (POS_INF, NEG_INF),
        (POS_INF, POS_INF), (NEG_INF, NEG_INF), (POS_INF, 0), (1, NEG_INF),
    ])
    def test_empty_interval_counts_zero(self, lower, upper):
        # Reversed or empty intervals, some of them around the root 1/2.
        assert real_root_count(IntPolynomial((-1, 2)), lower, upper) == 0

    @pytest.mark.parametrize("coeffs,expected", [
        # quadratics by discriminant sign
        ((1, 4, 1), 2),
        ((-3, 2, 1), 2),
        ((1, 1, 1), 0),
        ((4, -4, 1), 1),  # (x-2)^2
        # cubics by known root structure
        ((0, -1, 0, 1), 3),     # x(x-1)(x+1)
        ((1, 1, 1, 1), 1),      # one real root at -1
        ((-6, 11, -6, 1), 3),   # (x-1)(x-2)(x-3)
        ((2, 3, 0, 1), 1),
    ])
    def test_discriminant_battery(self, coeffs, expected):
        assert real_root_count(IntPolynomial(coeffs)) == expected

    @pytest.mark.parametrize("coeffs", [
        (1, 4, 1), (-3, 2, 1), (1, 1, 1),
        (0, -1, 0, 1), (1, 1, 1, 1), (-6, 11, -6, 1), (2, 3, 0, 1),
    ])
    def test_agrees_with_bisection(self, coeffs):
        assert real_root_count(IntPolynomial(coeffs)) == \
            grid_root_count(coeffs)

    @given(known_roots(), st.data(), st.integers(1, 9))
    def test_polynomials_from_known_roots(self, case, data, k):
        p, roots = case
        assert is_real_rooted(p)
        assert real_root_count(p) == len(roots)
        # Bounds at the (possibly repeated) roots and between them.
        points = [Fraction(r) for r in roots] + [
            Fraction(2 * r + 1, 2) for r in range(-7, 7)]
        # Drawn unsorted: on lo >= hi the interval (lo, hi] is empty.
        lo, hi = data.draw(st.lists(st.sampled_from(points),
                                    min_size=2, max_size=2))
        assert real_root_count(p, lo, hi) == \
            (sum(1 for r in roots if lo < r <= hi) if lo < hi else 0)
        assert not is_real_rooted(p * IntPolynomial((k, 0, 1)))


def chain_only(monkeypatch):
    """Switches off both fast routes of is_real_rooted, Newton's middle
    inequality and the sign-change certificate, so the Sturm chain of the
    rest decides every verdict.  Returns the recorded chain calls."""
    monkeypatch.setattr(poly, "_newton_breaks", lambda c, k: False)
    monkeypatch.setattr(poly, "_sign_change_points", lambda p: None)
    return record(monkeypatch, poly, "_square_free_chain")


#: Inputs with a palindromic rest, some with roots on the unit circle.
PALINDROMIC_EXAMPLES = [
    ((1, 0, 1), False),            # 1 + x^2: g = y, root 0
    ((1, 1, 1), False),            # g = y + 1
    ((1, -1, 1), False),           # g = y - 1
    ((1, -4, 6, -4, 1), True),     # (1 - x)^4: g = (y - 2)^2
    # (x^2 + x + 1)^2 (x^2 - 3x + 1): g = (y + 1)^2 (y - 3), a double
    # root in (-2, 2) beside a real pair
    ((1, -1, -2, -5, -2, -1, 1), False),
    # (1 - x)^2 (3x^2 - 10x + 3) (1 + x)^3 x^2: only real roots
    ((0, 0, 3, -7, -13, 17, 17, -13, -7, 3), True),
]


def list_reduction(q):
    """P for a palindromic q of degree 2m with no (1 + x) factor, by the
    list recurrence: q(x) / x^m = q_m + sum_j q_(m+j) (-1)^j G_j(z), with
    G_0 = 2, G_1 = 2 + z and G_(j+1) = (2 + z) G_j - G_(j-1) built
    coefficient by coefficient."""
    m = (len(q) - 1) // 2
    p = [q[m]] + [0] * m
    prev, cur = [2], [2, 1]
    for j in range(1, m + 1):
        a = -q[m + j] if j % 2 else q[m + j]
        for i, d in enumerate(cur):
            p[i] += a * d
        # G_(j-1) is one term shorter than G_j: 2 G_j's top term goes alone.
        nxt = [0] + cur
        for i, e in enumerate(prev):
            nxt[i] += 2 * cur[i] - e
        nxt[-2] += 2 * cur[-1]
        prev, cur = cur, nxt
    return p


def divide_one_plus_x(c):
    """c / (1 + x) by synthetic division, or None if c(-1) != 0: the
    reference that the packed reduction's own (1 + x) stripping is checked
    against."""
    q = []
    carry = 0
    for a in c[:-1]:
        carry = a - carry
        q.append(carry)
    return q if carry == c[-1] else None


def without_one_plus_x(c):
    """c with every (1 + x) divided out."""
    while len(c) > 1 and (quotient := divide_one_plus_x(c)) is not None:
        c = quotient
    return c


@st.composite
def palindromes(draw, max_half, max_bits):
    """A palindrome of degree up to 2 max_half with mixed-sign coefficients
    of up to max_bits bits and a nonzero constant term."""
    big = 2 ** max_bits
    half = draw(st.lists(st.integers(-big, big), min_size=1,
                         max_size=max_half + 1))
    half[0] = half[0] or 1
    return half + half[-2::-1]


class TestReductions:
    """is_real_rooted strips x^k, and may certify a palindromic rest
    (1 + x)^j q with q(x) = x^m g(x + 1/x) from g, the packed reduction
    stripping (1 + x)^j; these cases know their answer by construction."""

    @given(palindromic_products())
    def test_palindromic_products(self, case):
        p, real, distinct = case
        assert is_real_rooted(p) == real
        assert real_root_count(p) == distinct
        assert (real_root_count(p) == square_free_degree(p)) == real

    @given(palindromic_products())
    def test_reduction_and_certificate_of_every_rest(self, case):
        # The rest that the packed reduction reads: x^k and every (1 + x) out.
        p, real, _ = case
        q = rest = x_free_rest(p)
        while len(q) > 1 and (quotient := divide_one_plus_x(q)) is not None:
            q = quotient
        assert q == q[::-1]
        P = poly._palindromic_reduction(q)
        check_reduction(p, P)
        # The packed sum divides out the (1 + x) factors itself.
        assert poly._palindromic_reduction(rest) == P
        points = poly._sign_change_points(P)
        if points is not None:
            check_points(P, points)
            assert real and chain_verdict(IntPolynomial(tuple(q)))

    @given(palindromes(40, 320))
    def test_packed_reduction_matches_the_list_recurrence(self, c):
        q = without_one_plus_x(c)
        assert poly._palindromic_reduction(q) == list_reduction(q)

    @given(palindromes(8, 64), st.integers(0, 7), st.integers(0, 3))
    def test_packed_reduction_strips_one_plus_x(self, r, j, k):
        # On x^k (1 + x)^j r, of either parity, the reduction of the
        # x^k-free rest is exact, sign included, and equals that of the
        # (1 + x)-free rest.
        p = IntPolynomial((0,) * k + tuple(r)) * binomial_power(j)
        rest = list(p.coefficients[k:])
        P = poly._palindromic_reduction(rest)
        check_reduction(p, P)
        assert P == list_reduction(without_one_plus_x(rest))

    @pytest.mark.parametrize("coeffs,expected", PALINDROMIC_EXAMPLES)
    def test_palindromic_examples(self, coeffs, expected):
        p = IntPolynomial(coeffs)
        assert is_real_rooted(p) == expected
        assert (real_root_count(p) == square_free_degree(p)) == expected

    @pytest.mark.parametrize("coeffs,expected", PALINDROMIC_EXAMPLES)
    def test_palindromic_examples_by_the_chain_alone(
            self, monkeypatch, coeffs, expected):
        # The chain of the square-free rest sees the double root x = 1 of
        # (1 - x)^4 and the double pair on the unit circle.
        chains = chain_only(monkeypatch)
        p = IntPolynomial(coeffs)
        assert is_real_rooted(p) == expected
        assert [q for (q,), _ in chains] == [x_free_rest(p)]

    @pytest.mark.parametrize("coeffs,expected", [
        ((-1, 0, 1), True),            # (x - 1)(x + 1): rest x - 1
        ((1, -3, 3, -1), True),        # (1 - x)^3
        ((1, 0, 0, 0, -1), False),     # 1 - x^4: rest (1 - x)(1 + x^2)
    ])
    def test_anti_palindromic_rest_takes_the_direct_chain(
            self, monkeypatch, coeffs, expected):
        monkeypatch.setattr(poly, "_palindromic_reduction",
                            refuse("palindromic reduction of a non-palindrome"))
        assert is_real_rooted(IntPolynomial(coeffs)) == expected

    @given(small_polys)
    def test_agrees_with_the_direct_chain(self, p):
        if p.is_zero():
            return
        for q in (p, p * IntPolynomial(p.coefficients[::-1])):
            assert is_real_rooted(q) == \
                (real_root_count(q) == square_free_degree(q))


@functools.cache
def flag_rows(alpha, n_max, beta=0):
    """Flag rows n = 1..n_max: last color beta (0 is the quotient), or the
    full group for beta=None."""
    return tuple(enumeration._rows(alpha, n_max, "flag", beta, 10 ** 600))


def fraction_value(coeffs, x):
    """The little-endian coeffs at the rational x, by Horner over Fraction."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def check_reduction(p, P):
    """p(x) = x^(k+m) (1 + x)^j P(-(1 + x)^2 / x) for P of degree m, with
    Fraction arithmetic alone at deg p + 1 points, where x^k and (1 + x)^j
    are the factors that is_real_rooted and the packed reduction strip.  Since x + 1/x = -2 - z
    at z = -(1 + x)^2 / x, a root z > 0 of P gives two negative roots of
    p."""
    m = len(P) - 1
    c = list(p.coefficients)
    while c[-1] == 0:
        c.pop()
    k = next(i for i, a in enumerate(c) if a)
    j = len(c) - 1 - k - 2 * m
    assert j >= 0
    for x in range(1, len(c) + 1):
        assert fraction_value(c, x) == x ** (k + m) * (1 + x) ** j \
            * fraction_value(P, Fraction(-(1 + x) ** 2, x))


def check_points(P, points):
    """P, of degree m, is nonzero with alternating signs at m + 1 points
    0 = z_0 < ... < z_m, so it has m distinct positive roots."""
    zs = [Fraction(a, b) for a, b in points]
    assert len(zs) == len(P) and zs == sorted(set(zs)) and zs[0] == 0
    # Descartes' rule, which the search's guard reads: P's coefficients
    # are nonzero and strictly alternate in sign.
    assert P[0] and all(a * b < 0 for a, b in zip(P, P[1:]))
    values = [fraction_value(P, z) for z in zs]
    assert values[0] != 0
    assert all(u * v < 0 for u, v in zip(values, values[1:]))


def check_certificate(p, P, points):
    """Re-check a sign-change certificate with Fraction arithmetic alone:
    P has m distinct positive roots (``check_points``), and they give the
    2m negative roots of p's palindromic rest (``check_reduction``), so
    every root of p is real."""
    check_points(P, points)
    check_reduction(p, P)


def seeds(P, points):
    """Round 0 of the certificate search on P of degree m, sorted, on the
    points' denominator 2^shift: 0, floor(2^shift sqrt|P_(i-1) / P_(i+1)|)
    and 2^shift times the power of two above |P_(m-1) / P_m|."""
    shift = points[0][1].bit_length() - 1
    zs = [0] + [math.isqrt((abs(a) << 2 * shift) // abs(b))
                for a, b in zip(P, P[2:])]
    if len(P) > 1:
        zs.append(1 << ((abs(P[-2]) // abs(P[-1])).bit_length() + shift))
    return sorted(zs)


def refined(zs):
    """The sorted zs and the midpoints, rounded down, of each neighbouring
    pair: one round of refinement."""
    return sorted(zs + [(a + b) >> 1 for a, b in zip(zs, zs[1:])])


def x_free_rest(p):
    """p's trimmed coefficients with x^k divided out: the rest that
    is_real_rooted reads."""
    c = poly._nonzero_coefficients(p)
    return c[next(i for i, a in enumerate(c) if a):]


def middle_breaks(q):
    """Whether the rest q of degree d breaks Newton's inequality at
    k = floor(d / 2), written out here."""
    d = len(q) - 1
    k = d // 2
    return d > 1 and (q[k] * q[k] * k * (d - k)
                      < q[k - 1] * q[k + 1] * (k + 1) * (d - k + 1))


def newton_fails(q):
    """Whether the rest q of degree d breaks Newton's inequality at some
    1 <= k <= d - 1, written out here."""
    d = len(q) - 1
    return any(q[k] * q[k] * k * (d - k)
               < q[k - 1] * q[k + 1] * (k + 1) * (d - k + 1)
               for k in range(1, d))


def numerators(points):
    return [z for z, _ in points]


def chain_verdict(p):
    """The verdict of p's own Sturm chain, with no reduction and no fast
    route: as many distinct real roots as distinct roots."""
    return real_root_count(p) == square_free_degree(p)


def random_products(seed, count, factors):
    """Seeded products of ``factors(rng)`` factors, each taken to a power
    1..3, times a unit; the zero polynomial is left out."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = IntPolynomial((rng.choice([1, -1, 2, 3]),))
        for f in factors(rng):
            for _ in range(rng.randint(1, 3)):
                p = p * IntPolynomial(f)
        if not p.is_zero():
            out.append(p)
    return out


#: Linear, (1 + x), x, (1 - x), real quadratic and unit-circle factors.
FACTORS = [(1, 1), (0, 1), (-1, 1), (1, -1), (2, 1), (-3, 1), (1, 3, 1),
           (1, 5, 6), (-2, 1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1),
           (2, 1, 1), (1, 4, 1), (3, -10, 3)]


def palindromic_mix(rng):
    """Up to four named factors; the caller multiplies every other product
    by its own reverse."""
    return rng.sample(FACTORS, rng.randint(0, 4))


def repeated_roots(rng):
    """A linear factor and up to two random quadratics: mostly not
    palindromic, with repeated roots."""
    return [(rng.randint(-6, 6), rng.choice([1, -1, 2]))] + [
        tuple(rng.randint(-5, 5) for _ in range(3))
        for _ in range(rng.randint(0, 2))]


class TestRoutes:
    """Which route decides is_real_rooted: Newton's middle inequality on
    the rest rejects, then, on a palindromic rest, a sign-change
    certificate, read in the frame z = -2 - (x + 1/x), accepts, and the
    Sturm chain runs only when neither settles the verdict.  Every
    certificate is re-checked with Fraction arithmetic that shares no code
    with poly."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Refuses the Sturm chain; records every certificate search as
        ((P,), points)."""
        monkeypatch.setattr(poly, "_square_free_chain", refuse("Sturm chain built"))
        return record(monkeypatch, poly, "_sign_change_points")

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("beta", [0, None, "last"],
                             ids=["quotient", "full", "fixed"])
    def test_flag_rows_are_certified(self, routes, alpha, beta):
        if beta == "last":
            beta = alpha - 1
        for p in flag_rows(alpha, 60, beta):
            del routes[:]
            assert is_real_rooted(p)
            [((P,), points)] = routes
            check_certificate(p, P, points)
            # At most one round of midpoints refines the seeds.
            assert set(numerators(points)) <= set(refined(seeds(P, points)))

    def test_newton_rejects_no_alpha_one_or_two_row(self, routes):
        # Real-rooted rows keep every Newton inequality, by the theorem.
        rows = flag_rows(1, 60) + flag_rows(2, 100)
        assert not any(newton_fails(x_free_rest(p)) for p in rows)
        # Each is certified, with no chain.
        for p in rows:
            assert is_real_rooted(p)
        assert len(routes) == 160
        assert None not in [points for _, points in routes]

    @pytest.mark.parametrize("alpha", range(3, 8))
    def test_newton_rejects_every_row_past_one_above_alpha_two(
            self, monkeypatch, alpha):
        # Past n = 1 on the quotient and on last color alpha - 1, and from
        # n = 1 on the full group, whose n = 1 row is [alpha]_x.
        rows = (flag_rows(alpha, 30)[1:] + flag_rows(alpha, 30, None)
                + flag_rows(alpha, 30, alpha - 1)[1:])
        assert len(rows) == 88
        assert all(newton_fails(x_free_rest(p)) for p in rows)
        # The middle inequality rejects all but the (3, 3) pair, whose
        # searches find no points; those two rows, and only those, reach
        # the chain, which rejects them.
        chains = record(monkeypatch, poly, "_square_free_chain")
        certificates = record(monkeypatch, poly, "_sign_change_points")
        for p in rows:
            assert not is_real_rooted(p)
        pair = ([x_free_rest(flag_rows(3, 30, beta)[2]) for beta in (0, 2)]
                if alpha == 3 else [])
        assert [q for (q,), _ in chains] == pair
        assert [points for _, points in certificates] == [None] * len(pair)

    @pytest.mark.parametrize("alpha", range(3, 8))
    def test_the_middle_inequality_rejects_all_but_the_three_three_pair(
            self, alpha):
        # The same rows, named by domain and n.
        rows = [(domain, n, p)
                for domain, beta, first in [("quotient", 0, 2), ("full", None, 1),
                                            ("fixed", alpha - 1, 2)]
                for n, p in enumerate(flag_rows(alpha, 30, beta), 1) if n >= first]
        kept = [(domain, n) for domain, n, p in rows
                if not middle_breaks(x_free_rest(p))]
        assert kept == ([("quotient", 3), ("fixed", 3)] if alpha == 3 else [])
        assert all(poly._newton_breaks(q, (len(q) - 1) // 2) == middle_breaks(q)
                   for q in map(x_free_rest, (p for _, _, p in rows)))

    def test_the_three_three_pair_stops_at_the_guard(self, monkeypatch):
        # P = 2 + 3z - z^3 has a zero coefficient and two of one sign, so
        # the guard refuses it before any seed: with no math module, the
        # seeds could not be computed.
        monkeypatch.setattr(poly, "math", None)
        for beta in (0, 2):
            P = poly._palindromic_reduction(x_free_rest(flag_rows(3, 3, beta)[2]))
            assert P == [2, 3, 0, -1]
            assert poly._sign_change_points(P) is None

    @given(st.lists(st.integers(1, 2 ** 40), min_size=2, max_size=12),
           st.booleans(), st.data())
    def test_the_guard_refuses_what_does_not_alternate(
            self, magnitudes, negate, data):
        # A strictly alternating P with one coefficient made 0 or given its
        # neighbours' sign: fewer than deg P sign variations, so fewer
        # positive roots (Descartes), and the guard refuses it at once.
        sign = -1 if negate else 1
        P = [sign * (-1) ** i * a for i, a in enumerate(magnitudes)]
        i = data.draw(st.integers(0, len(P) - 1))
        P[i] = data.draw(st.sampled_from([0, -P[i]]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(poly, "math", None)
            assert poly._sign_change_points(P) is None

    @given(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=1, max_size=8))
    def test_every_certificate_alternates(self, P):
        points = poly._sign_change_points(P)
        if points is not None:
            check_points(P, points)

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("beta", [0, None, "last"],
                             ids=["quotient", "full", "fixed"])
    def test_seeds_alone_certify_the_flag_rows_to_36(
            self, routes, alpha, beta):
        # The points are the sorted seeds themselves: round 0 settles it.
        if beta == "last":
            beta = alpha - 1
        for p in flag_rows(alpha, 60, beta)[:36]:
            assert is_real_rooted(p)
        for (P,), points in routes:
            check_points(P, points)
            assert numerators(points) == seeds(P, points)

    def test_the_grid_certifies_a_row_the_seeds_miss(self):
        # Row 37 is the last whose points are its seeds, on every alpha 1-2
        # domain; row 38's points take a round of midpoints.
        for alpha, beta in [(1, 0), (1, None), (2, 0), (2, None), (2, 1)]:
            for n in (37, 38):
                c = x_free_rest(flag_rows(alpha, 60, beta)[n - 1])
                P = poly._palindromic_reduction(c)
                points = poly._sign_change_points(P)
                check_points(P, points)
                zs = seeds(P, points)
                assert len(zs) == len(P)
                assert (numerators(points) == zs) == (n == 37)
                assert set(numerators(points)) <= set(refined(zs))

    @pytest.mark.parametrize("beta", [0, None], ids=["quotient", "full"])
    def test_colored_descent_rows_are_real_rooted(self, monkeypatch, beta):
        # The paper's first result: the colored-descent polynomials, over the
        # quotient as over the full group, are real-rooted.  So no row breaks
        # a Newton inequality.
        rows = [p for alpha in range(1, 6) for p in enumeration._rows(
            alpha, 30, enumeration.STAT_DESCENT, beta, 10 ** 60)]
        assert [p.nominal_degree for p in rows] == list(range(30)) * 5
        assert not any(newton_fails(x_free_rest(p)) for p in rows)
        # The chain reads each rest at most once, as it is, and never a
        # certified one.
        chains = record(monkeypatch, poly, "_square_free_chain")
        found = record(monkeypatch, poly, "_sign_change_points")
        for p in rows:
            del chains[:], found[:]
            assert is_real_rooted(p)
            certified = found != [] and found[-1][1] is not None
            assert [q for (q,), _ in chains] == ([] if certified else [x_free_rest(p)])

    def test_certificate_reaches_the_quotient_rows_101_to_150(self, routes):
        for p in flag_rows(2, 150)[100:]:
            assert is_real_rooted(p)
        assert len(routes) == 50
        for (P,), points in routes[::10]:
            check_points(P, points)

    @given(st.one_of(palindromes(8, 16),
                     st.lists(st.integers(-50, 50), min_size=1, max_size=12)),
           st.integers(0, 5), st.integers(0, 3))
    def test_the_chain_reads_the_x_free_rest_as_it_is(self, r, j, k):
        # On x^k (1 + x)^j r, palindromic or not, the chain runs once, on
        # the x^k-free rest as it is, no (1 + x) divided out, exactly when
        # neither the middle inequality nor a certificate settles it.
        r[0], r[-1] = r[0] or 1, r[-1] or 1
        p = IntPolynomial((0,) * k + tuple(r)) * binomial_power(j)
        with pytest.MonkeyPatch.context() as patch:
            calls = record(patch, poly, "_square_free_chain")
            verdict = is_real_rooted(p)
        rest = list(p.coefficients[k:])
        settled = middle_breaks(rest) or rest == rest[::-1] and (
            poly._sign_change_points(poly._palindromic_reduction(rest)) is not None)
        assert [q for (q,), _ in calls] == ([] if settled else [rest])
        assert verdict == chain_verdict(p)

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=12))
    def test_newton_is_read_once_at_the_middle_of_any_rest(self, c):
        # Palindromic or not, the rest is read at its middle inequality
        # alone, and one that breaks it is rejected there, with no
        # reduction and no chain.
        c[0], c[-1] = c[0] or 1, c[-1] or 1
        p = IntPolynomial(tuple(c))
        with pytest.MonkeyPatch.context() as patch:
            reads = record(patch, poly, "_newton_breaks")
            if middle_breaks(c):
                for name in ("_palindromic_reduction", "_square_free_chain"):
                    patch.setattr(poly, name, refuse("read past the middle inequality"))
            verdict = is_real_rooted(p)
        assert [args for args, _ in reads] == [(c, (len(c) - 1) // 2)]
        assert verdict == chain_verdict(p)

    def test_newton_inequalities_by_hand(self):
        assert not poly._newton_breaks([1, 4, 1], 1)    # real roots
        assert poly._newton_breaks([1, 1, 1], 1)        # 1 * 1 * 1 < 1 * 1 * 2 * 2
        assert not poly._newton_breaks([1, 2, 1], 1)    # (1 + x)^2, equality
        # x^3 - x: zero and mixed-sign coefficients keep every inequality.
        assert not any(poly._newton_breaks([0, -1, 0, 1], k) for k in (1, 2))
        # 1 + 4x^2 + x^4 keeps its middle inequality, 16 * 2 * 2 >= 0, and
        # breaks k = 1 and 3, 0 < 1 * 4 * 2 * 4: the chain rejects it.
        c = [1, 0, 4, 0, 1]
        assert [poly._newton_breaks(c, k) for k in (1, 2, 3)] == [True, False, True]
        assert not is_real_rooted(IntPolynomial(tuple(c)))

    # The ids keep the names these cases had when they were written in y.
    @pytest.mark.parametrize("P", [
        [5],                 # m = 0: the point 0 alone
        [1, -1],             # 1 - z: y + 3 at y = -2 - z, root y = -3
        [2, -3, 1],          # (1 - z)(2 - z): (y + 3)(y + 4)
        [-2, 3, -1],         # negated
    ], ids=[f"g{i}" for i in range(4)])
    def test_certificate_examples(self, P):
        points = poly._sign_change_points(P)
        assert points is not None
        check_points(P, points)

    @pytest.mark.parametrize("P", [
        [5, 4, 1],           # y^2 + 1: no real root
        [0, -1],             # y + 2: the root -2 itself, z = 0
        [-1, -1],            # y + 1: root inside (-2, 2)
        [-5, -1],            # y - 3: a real root above 2
        [1, -2, 1],          # (y + 3)^2: a double root
        [4, 4, 1],           # y^2
        # One sign variation, so one positive root: the guard refuses it.
        [-48, -28, 52, 36],
        # Alternating, so past the guard, with one real root, though its
        # unsorted seeds 0, 61, 42, 64 (over 2^6) take alternating signs.
        [-25, 22, -27, 51],
    ], ids=[f"g{i}" for i in range(8)])
    def test_no_certificate_without_distinct_roots_below_minus_two(self, P):
        assert poly._sign_change_points(P) is None

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_verdicts_and_the_chain_alone_match_the_theorem(
            self, monkeypatch, alpha):
        # A flag quotient row is real-rooted iff alpha <= 2 or n = 1: on
        # every report row to n = 40, then with the chain alone to n = 20.
        rows = flag_rows(alpha, 40)
        theorem = [alpha <= 2 or n == 1 for n in range(1, 41)]
        assert [is_real_rooted(p) for p in rows] == theorem
        chains = chain_only(monkeypatch)
        assert [is_real_rooted(p) for p in rows[:20]] == theorem[:20]
        assert [q for (q,), _ in chains] == [x_free_rest(p) for p in rows[:20]]

    @pytest.mark.parametrize("alpha,n_max", [
        (1, 40), (2, 40), (3, 20), (4, 20), (5, 20), (6, 20), (7, 20)])
    def test_verdicts_match_the_direct_chain(self, alpha, n_max):
        for p in flag_rows(alpha, n_max):
            assert is_real_rooted(p) == chain_verdict(p)

    def test_random_products_match_the_direct_chain(self):
        products = random_products(7, 3500, palindromic_mix)
        products = [p * IntPolynomial(p.coefficients[::-1]) if i % 2 else p
                    for i, p in enumerate(products)]
        products += random_products(9, 3600, repeated_roots)
        verdicts = [is_real_rooted(p) for p in products]
        assert verdicts == [chain_verdict(p) for p in products]
        # Both kinds of verdict occur often.
        assert 2000 < sum(verdicts) < len(verdicts) - 2000
