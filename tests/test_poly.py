from fractions import Fraction

import pytest
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
from wreath_eulerian import poly
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

    def test_zero_polynomial_rejected(self):
        zero = IntPolynomial((0, 0))
        with pytest.raises(ValueError):
            is_palindromic(zero)
        with pytest.raises(ValueError):
            is_unimodal(zero)
        with pytest.raises(ValueError):
            is_real_rooted(zero)
        with pytest.raises(ValueError):
            real_root_count(zero)


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
        lo, hi = sorted(data.draw(st.lists(st.sampled_from(points),
                                           min_size=2, max_size=2)))
        assert real_root_count(p, lo, hi) == \
            sum(1 for r in roots if lo < r <= hi)
        assert not is_real_rooted(p * IntPolynomial((k, 0, 1)))


class TestReductions:
    """is_real_rooted strips x^k and (1 + x)^m and decides a palindromic
    rest q(x) = x^m g(x + 1/x) from g; these cases know their answer by
    construction."""

    @given(palindromic_products())
    def test_palindromic_products(self, case):
        p, real, distinct = case
        assert is_real_rooted(p) == real
        assert real_root_count(p) == distinct
        assert (real_root_count(p) == square_free_degree(p)) == real

    @pytest.mark.parametrize("coeffs,expected", [
        ((1, 0, 1), False),            # 1 + x^2: g = y, root 0
        ((1, 1, 1), False),            # g = y + 1
        ((1, -1, 1), False),           # g = y - 1
        ((1, -4, 6, -4, 1), True),     # (1 - x)^4: g = (y - 2)^2
        # (x^2 + x + 1)^2 (x^2 - 3x + 1): g = (y + 1)^2 (y - 3), a double
        # root in (-2, 2) beside a real pair
        ((1, -1, -2, -5, -2, -1, 1), False),
        # (1 - x)^2 (3x^2 - 10x + 3) (1 + x)^3 x^2: only real roots
        ((0, 0, 3, -7, -13, 17, 17, -13, -7, 3), True),
    ])
    def test_palindromic_examples(self, coeffs, expected):
        p = IntPolynomial(coeffs)
        assert is_real_rooted(p) == expected
        assert (real_root_count(p) == square_free_degree(p)) == expected

    @pytest.mark.parametrize("coeffs,expected", [
        ((-1, 0, 1), True),            # (x - 1)(x + 1): rest x - 1
        ((1, -3, 3, -1), True),        # (1 - x)^3
        ((1, 0, 0, 0, -1), False),     # 1 - x^4: rest (1 - x)(1 + x^2)
    ])
    def test_anti_palindromic_rest_takes_the_direct_chain(
            self, monkeypatch, coeffs, expected):
        def refuse(c):
            raise AssertionError("palindromic reduction of a non-palindrome")

        monkeypatch.setattr(poly, "_palindromic_reduction", refuse)
        assert is_real_rooted(IntPolynomial(coeffs)) == expected

    @given(small_polys)
    def test_agrees_with_the_direct_chain(self, p):
        if p.is_zero():
            return
        for q in (p, p * IntPolynomial(p.coefficients[::-1])):
            assert is_real_rooted(q) == \
                (real_root_count(q) == square_free_degree(q))
