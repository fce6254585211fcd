import itertools
import math
import sys

import pytest
from conftest import decimal_and_int
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_eulerian import (
    CapExceededError,
    ColoredPermutation,
    ColorSequence,
    GenPermMatrix,
    IntPolynomial,
    ValidationError,
    binomial_power,
    classical_eulerian,
    color_shift_generator,
    delete_equal_color_descent,
    flag_eulerian_quotient,
    flag_table,
    identity,
    iterate_full_group,
    parse,
    quotient_cardinality,
    reversal_map,
    stat_report,
    validate,
    verify_abr_identity,
    verify_product_identity,
    verify_symmetry,
    winding_number,
)
from wreath_eulerian.cli import main
from wreath_eulerian.enumeration import resolve_cap

SMALL_GROUPS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2)]


def all_elements(alpha, n):
    return list(iterate_full_group(alpha, n))


@st.composite
def colored_permutations(draw, max_alpha=4, max_n=5):
    alpha = draw(st.integers(1, max_alpha))
    n = draw(st.integers(1, max_n))
    window = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.lists(st.integers(0, alpha - 1),
                                 min_size=n, max_size=n)))
    return ColoredPermutation(alpha, window, colors)


class TestValidate:
    def test_valid_element(self):
        w = validate(2, [2, 1], [1, 0])
        assert w.window == (2, 1)
        assert w.colors == (1, 0)

    def test_window_not_bijective(self):
        with pytest.raises(ValidationError):
            validate(2, [2, 2], [0, 0])

    def test_color_out_of_range(self):
        with pytest.raises(ValidationError):
            validate(3, [1, 2], [0, 3])

    def test_alpha_below_one(self):
        with pytest.raises(ValidationError):
            validate(0, [1], [0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            validate(2, [1, 2], [0])

    def test_empty_window(self):
        with pytest.raises(ValidationError):
            validate(2, [], [])

    @pytest.mark.parametrize("alpha,window,colors", [
        (2, [1.0, 2.0], [0.5, 0]),
        (2.5, [1, 2], [2, 0]),
        (True, [2, 1], [0, False]),
        (2, [2, 1], [0, True]),
        (2, ["1", "2"], [0, 0]),
    ], ids=["float-entries", "float-alpha", "bool-alpha", "bool-color",
            "str-window"])
    def test_non_integer_data_rejected(self, alpha, window, colors):
        with pytest.raises(ValidationError):
            validate(alpha, window, colors)
        with pytest.raises(ValidationError):
            ColoredPermutation(alpha, tuple(window), tuple(colors))

    def test_parsed_and_cli_elements_still_accepted(self, capsys):
        w = parse(2, "2^1 1^0")
        assert (w.alpha, w.window, w.colors) == (2, (2, 1), (1, 0))
        assert w * w.inverse() == identity(2, 2)
        assert main(["verify", "symmetry", "--alpha", "2", "--n", "3"]) == 0
        assert capsys.readouterr().out.startswith("PASS")


class TestMultiply:
    def test_hand_computed_product(self):
        w = validate(2, [2, 1], [1, 0])
        y = validate(2, [2, 1], [0, 1])
        assert w * y == validate(2, [1, 2], [0, 0])

    def test_right_identity(self):
        w = parse(3, "4^1 1^1 3^2 2^0")
        assert w * identity(3, 4) == w

    def test_generator_has_order_alpha(self):
        for alpha, n in [(2, 3), (3, 2), (4, 4), (1, 3)]:
            g = color_shift_generator(alpha, n)
            acc = identity(alpha, n)
            for _ in range(alpha):
                acc = acc * g
            assert acc == identity(alpha, n)

    def test_mismatched_parameters(self):
        with pytest.raises(ValidationError):
            identity(2, 2) * identity(2, 3)
        with pytest.raises(ValidationError):
            identity(2, 2) * identity(3, 2)

    @pytest.mark.parametrize("call", [
        lambda: IntPolynomial((1,)) * 2,
        lambda: IntPolynomial((1,)) + 2,
        lambda: identity(2, 2) * 5,
        lambda: identity(2, 2).to_matrix() * 3,
        lambda: identity(2, 2).same_coset(3),
    ], ids=["poly*int", "poly+int", "element*int", "matrix*int", "same_coset(int)"])
    def test_another_type_is_a_type_error(self, call):
        # The operators return NotImplemented, so Python raises; same_coset,
        # a method, raises itself, as NotImplemented would read as true.
        with pytest.raises(TypeError):
            call()

    def test_generator_is_central(self):
        for alpha, n in [(2, 3), (3, 2), (4, 2)]:
            g = color_shift_generator(alpha, n)
            for w in all_elements(alpha, n):
                assert g * w == w * g


class TestIdentityAndInverse:
    def test_identity_form(self):
        e = identity(2, 3)
        assert e.window == (1, 2, 3)
        assert e.colors == (0, 0, 0)

    def test_identity_two_sided_exhaustive(self):
        for alpha in (1, 2, 3):
            for n in (1, 2, 3):
                e = identity(alpha, n)
                for w in all_elements(alpha, n):
                    assert e * w == w
                    assert w * e == w

    def test_identity_self_inverse(self):
        e = identity(3, 4)
        assert e.inverse() == e

    def test_inverse_by_brute_force_search(self):
        w = validate(2, [2, 1], [1, 0])
        e = identity(2, 2)
        matches = [z for z in all_elements(2, 2) if w * z == e]
        assert matches == [w.inverse()]

    def test_inverse_involution_z3s3(self):
        for w in all_elements(3, 3):
            assert w.inverse().inverse() == w

    def test_two_sided_inverses(self):
        for alpha, n in SMALL_GROUPS:
            e = identity(alpha, n)
            for w in all_elements(alpha, n):
                assert w * w.inverse() == e
                assert w.inverse() * w == e


class TestGroupAxioms:
    @pytest.mark.parametrize("alpha,n", [(1, 3), (2, 2), (3, 2)])
    def test_associativity_exhaustive(self, alpha, n):
        elements = all_elements(alpha, n)
        for a, b, c in itertools.product(elements, repeat=3):
            assert (a * b) * c == a * (b * c)

    @given(st.data())
    @settings(max_examples=200)
    def test_associativity_random(self, data):
        alpha = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 5))
        perms = st.permutations(list(range(1, n + 1)))
        cols = st.lists(st.integers(0, alpha - 1), min_size=n, max_size=n)
        a, b, c = (
            ColoredPermutation(alpha, tuple(data.draw(perms)),
                               tuple(data.draw(cols)))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


class TestMatrixRepresentation:
    def test_identity_matrix(self):
        m = identity(3, 4).to_matrix()
        assert m.entries == tuple((j, 0) for j in range(1, 5))

    def test_generator_is_scaled_identity(self):
        m = color_shift_generator(3, 4).to_matrix()
        assert m.entries == tuple((j, 1) for j in range(1, 5))

    def test_transposition_matrix(self):
        m = validate(2, [2, 1], [1, 0]).to_matrix()
        assert m.entries == ((2, 1), (1, 0))

    def test_identity_absorbs(self):
        a = parse(3, "4^1 1^1 3^2 2^0").to_matrix()
        e = identity(3, 4).to_matrix()
        assert a * e == a
        assert e * a == a

    def test_scalar_matrices_multiply_by_exponent_addition(self):
        zi = color_shift_generator(3, 2).to_matrix()
        sq = zi * zi
        assert sq.entries == ((1, 2), (2, 2))

    def test_multiplicative_on_z2s2(self):
        elements = all_elements(2, 2)
        for w, y in itertools.product(elements, repeat=2):
            assert (w * y).to_matrix() == w.to_matrix() * y.to_matrix()

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValidationError):
            GenPermMatrix(2, 2, ((1, 0), (1, 1)))
        with pytest.raises(ValidationError):
            GenPermMatrix(2, 2, ((1, 0), (2, 2)))
        with pytest.raises(ValidationError):
            GenPermMatrix(2.5, 1, ((1, 0),))
        with pytest.raises(ValidationError):
            GenPermMatrix(2, 1, ((1.0, 0),))
        with pytest.raises(ValidationError):
            GenPermMatrix(2, 1, ((1, 0.5),))

    def test_matrix_parameter_mismatch(self):
        a = identity(2, 2).to_matrix()
        b = identity(2, 3).to_matrix()
        with pytest.raises(ValidationError):
            a * b

    def test_list_entries_are_stored_as_tuples(self):
        # The matrix of 2^0 1^1: column 1 holds zeta^0 at row 2.
        from_lists = GenPermMatrix(2, 2, [[2, 0], [1, 1]])
        from_tuples = GenPermMatrix(2, 2, ((2, 0), (1, 1)))
        assert from_lists.entries == ((2, 0), (1, 1))
        assert all(type(entry) is tuple for entry in from_lists.entries)
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert ColoredPermutation(2, [2, 1], [0, 1]).to_matrix() == from_lists

    def test_iterator_entries_are_read_once(self):
        assert GenPermMatrix(2, 1, [iter([1, 0])]) == GenPermMatrix(2, 1, ((1, 0),))
        entries = ((2, 0), (1, 1))
        assert (GenPermMatrix(2, 2, (iter(entry) for entry in entries))
                == GenPermMatrix(2, 2, entries))

    def test_one_entry_per_column(self):
        with pytest.raises(ValidationError, match="^one entry required per column$"):
            GenPermMatrix(2, 2, ((1, 0),))


class TestCosets:
    def test_canonical_rep_shifts_last_color_to_zero(self):
        assert validate(2, [2, 1], [1, 1]).canonical_rep() == \
            validate(2, [2, 1], [0, 0])

    def test_canonical_rep_idempotent_example(self):
        w = parse(3, "4^1 1^1 3^2 2^0")
        assert w.canonical_rep() == w

    def test_canonical_rep_hand_example(self):
        w = validate(3, [1, 2, 3], [2, 0, 1])
        rep = w.canonical_rep()
        assert rep == validate(3, [1, 2, 3], [1, 2, 0])
        assert rep.same_coset(w)

    def test_same_coset_by_shift(self):
        assert validate(2, [1, 2], [0, 1]).same_coset(validate(2, [1, 2], [1, 0]))

    def test_different_windows_not_same_coset(self):
        assert not validate(2, [1, 2], [0, 0]).same_coset(
            validate(2, [2, 1], [0, 0]))

    def test_coset_partition_z3s2(self):
        elements = all_elements(3, 2)
        classes: dict[ColoredPermutation, list] = {}
        for w in elements:
            classes.setdefault(w.canonical_rep(), []).append(w)
        assert len(classes) == 6
        for rep, members in classes.items():
            assert len(members) == 3
            assert rep.is_quotient_rep()
            for a, b in itertools.product(members, repeat=2):
                assert a.same_coset(b)

    def test_same_coset_equivalence_relation(self):
        elements = all_elements(2, 2)
        for a in elements:
            assert a.same_coset(a)
        for a, b in itertools.product(elements, repeat=2):
            assert a.same_coset(b) == b.same_coset(a)
        for a, b, c in itertools.product(elements, repeat=3):
            if a.same_coset(b) and b.same_coset(c):
                assert a.same_coset(c)

    @pytest.mark.parametrize("alpha,n", itertools.product(range(1, 4), range(1, 4)))
    def test_same_coset_is_the_shift_orbit(self, alpha, n):
        # b is in a's coset iff b = g**s * a for some s, with the powers of
        # the shift generator g taken by the group product alone.
        g = color_shift_generator(alpha, n)
        powers = [identity(alpha, n)]
        while len(powers) < alpha:
            powers.append(g * powers[-1])
        elements = all_elements(alpha, n)
        for a in elements:
            coset = {p * a for p in powers}
            assert len(coset) == alpha
            for b in elements:
                assert a.same_coset(b) == (b in coset)

    @given(colored_permutations())
    def test_canonical_rep_properties(self, w):
        rep = w.canonical_rep()
        assert rep.is_quotient_rep()
        assert rep.same_coset(w)
        assert rep.canonical_rep() == rep

    def test_is_quotient_rep(self):
        assert parse(3, "4^1 1^1 3^2 2^0").is_quotient_rep()
        assert not validate(2, [1, 2], [0, 1]).is_quotient_rep()


class TestRendering:
    def test_str_round_trip(self):
        text = "4^1 1^1 3^2 2^0"
        assert str(parse(3, text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse(2, "1 2")
        with pytest.raises(ValidationError):
            parse(2, "")
        with pytest.raises(ValidationError):
            parse(2, "a^b")

    @given(colored_permutations())
    def test_parse_inverts_str(self, w):
        assert parse(w.alpha, str(w)) == w


class TestDecimal:
    """``_decimal`` reads decimal text as ``int`` does; test_enumeration.py
    pins it on strs past the digit limit."""

    @given(st.text(alphabet="0123456789\u0663_+- x"))
    def test_reads_as_int_reads(self, text):
        got, want = decimal_and_int(text)
        assert got == want


class TestParameterChecks:
    """A parameter that is not an int, or is a bool, and a container that is
    not a sequence of the right shape, are a ValidationError at every public
    entry point: never a value computed from them and never a bare TypeError
    from deeper in."""

    @pytest.mark.parametrize("call", [
        lambda: flag_eulerian_quotient(True, 3),
        lambda: flag_eulerian_quotient(2.0, 3),
        lambda: flag_table(2, 3.0),
        lambda: identity(2, 2.0),
        lambda: color_shift_generator(2, 2.0),
        lambda: classical_eulerian(3.0),
        lambda: binomial_power(True),
        lambda: ColorSequence(2.5, (0, 1)),
        lambda: ColorSequence(2, (0.5, 1)),
        lambda: delete_equal_color_descent(validate(2, [2, 1], [0, 0]), 1.0),
        lambda: verify_symmetry(2, 3.0),
        lambda: verify_abr_identity(2.5),
        lambda: resolve_cap(2.5),
        lambda: validate(2, 5, [0]),
        lambda: validate(2, [1], 0),
        lambda: ColoredPermutation(2, (1,), 0),
        lambda: GenPermMatrix(2, 1, (1,)),
        lambda: GenPermMatrix(2, 1, 5),
        lambda: GenPermMatrix(2, 1, ((1, 0, 0),)),
        lambda: ColorSequence(2, 5),
        lambda: verify_symmetry(None, 3),
        lambda: verify_symmetry(2, None),
        lambda: color_shift_generator(0, 2),
        lambda: color_shift_generator(True, 2),
        lambda: color_shift_generator("2", 2),
        lambda: color_shift_generator(2.0, 2),
    ], ids=["bool-alpha", "float-alpha", "float-n-max", "identity-n",
            "generator-n", "eulerian-n", "bool-power", "sequence-alpha",
            "sequence-color", "deletion-position", "symmetry-n", "abr-n-max",
            "cap", "int-window", "int-colors", "element-int-colors",
            "int-entry", "int-entries", "triple-entry", "int-sequence-colors",
            "symmetry-no-alpha", "symmetry-no-n", "generator-zero-alpha",
            "generator-bool-alpha", "generator-str-alpha", "generator-float-alpha"])
    def test_non_int_parameter_rejected(self, call):
        with pytest.raises(ValidationError):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: verify_product_identity(True), "k_max"),
        (lambda: verify_product_identity(1.5), "k_max"),
        (lambda: verify_abr_identity(-0.5), "n_max"),
        (lambda: verify_abr_identity(2.5), "n_max"),
    ], ids=["bool-k-max", "float-k-max", "negative-float-n-max", "float-n-max"])
    def test_sweep_bound_rejected_by_name(self, call, name):
        with pytest.raises(ValidationError, match=name):
            call()


class TestPastTheDigitLimit:
    """Under Python's default limit of 4,300 digits on int-str conversion, a
    rule that shows a value still raises its own one-line error: an int past
    the limit is named by its bit length, and any other value holding one by
    its type.  With the limit lifted, as the CLI lifts it, the value prints
    in full."""

    @pytest.mark.parametrize("call,message", [
        (lambda: ColoredPermutation(2, (10**5000,), (0,)),
         "window <tuple holding an int of too many digits> is not a permutation of 1..1"),
        (lambda: ColoredPermutation(10**5000, (1,), (-1,)),
         "color -1 out of range for alpha=<int of 16610 bits>"),
        (lambda: ColoredPermutation(2, 10**5000, (0,)),
         "window <int of 16610 bits> is not a sequence"),
        (lambda: GenPermMatrix(2, 1, [(1, 10**5000, 0)]),
         "entry <tuple holding an int of too many digits> is not a (row, exponent) pair"),
        (lambda: quotient_cardinality(2, -10**5000),
         "n must be >= 1, got <negative int of 16610 bits>"),
        (lambda: stat_report(2, 3, "flag", "fixed", beta=10**5000),
         "beta <int of 16610 bits> out of range for alpha=2"),
        (lambda: winding_number(ColorSequence(2, (0, 1)), 10**5000),
         "mark <int of 16610 bits> out of range for alpha=2"),
        (lambda: delete_equal_color_descent(validate(2, (2, 1), (0, 0)), 10**5000),
         "position <int of 16610 bits> out of range 1..1"),
        (lambda: reversal_map(validate(10**5000, (1,), (10**4999,))),
         "reversal map needs last color 0, got "
         "<ColoredPermutation holding an int of too many digits>"),
        (lambda: flag_table(2, 1500),
         "enumeration of <int of 15168 bits> elements exceeds the cap of 1000000000"),
        (lambda: parse(2, "1" * 5000 + "^0"),
         "window <tuple holding an int of too many digits> is not a permutation of 1..1"),
        (lambda: parse(2, "1^" + "1" * 5000),
         "color <int of 16607 bits> out of range for alpha=2"),
    ], ids=["window", "alpha", "window-int", "entry", "n", "beta", "mark",
            "position", "reversal", "cap", "parse-entry", "parse-color"])
    def test_one_line_message(self, monkeypatch, default_digit_limit, call, message):
        monkeypatch.delenv("WREATH_CAP", raising=False)
        with pytest.raises((ValidationError, CapExceededError)) as exc:
            call()
        assert str(exc.value) == message

    def test_lifted_limit_prints_in_full(self, monkeypatch, default_digit_limit):
        monkeypatch.delenv("WREATH_CAP", raising=False)
        sys.set_int_max_str_digits(0)
        with pytest.raises(ValidationError) as exc:
            quotient_cardinality(2, -10**5000)
        assert str(exc.value) == f"n must be >= 1, got {-10**5000}"
        with pytest.raises(CapExceededError) as exc:
            flag_table(2, 1500)
        required = 2**1499 * math.factorial(1500)
        assert str(exc.value) == (f"enumeration of {required} elements "
                                  f"exceeds the cap of 1000000000")
