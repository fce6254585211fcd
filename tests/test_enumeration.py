import itertools
import math
import pickle
import tracemalloc
import weakref

import pytest
from conftest import decimal_and_int, stream_distribution
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wreath_eulerian
from wreath_eulerian import enumeration
from wreath_eulerian import (
    CapExceededError,
    ColoredPermutation,
    IntPolynomial,
    ValidationError,
    binomial_power,
    classical_eulerian,
    color_shift_generator,
    colored_eulerian,
    flag_eulerian_full,
    flag_eulerian_quotient,
    flag_table,
    full_cardinality,
    identity,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
    iterate_fixed_last_color,
    iterate_full_group,
    iterate_quotient_reps,
    parse,
    quotient_cardinality,
    reversal_map,
    stat_report,
    validate,
    verify_abr_identity,
    verify_coset_invariance,
    verify_involution,
    verify_product_identity,
    verify_symmetry,
)


class TestStreams:
    def test_quotient_z2s2_listing(self):
        got = [str(w) for w in iterate_quotient_reps(2, 2)]
        assert got == ["1^0 2^0", "1^1 2^0", "2^0 1^0", "2^1 1^0"]

    def test_alpha_one_is_symmetric_group(self):
        windows = [w.window for w in iterate_quotient_reps(1, 4)]
        assert windows == sorted(itertools.permutations(range(1, 5)))

    def test_quotient_z3s3(self):
        reps = list(iterate_quotient_reps(3, 3))
        assert len(reps) == 54
        assert all(w.is_quotient_rep() for w in reps)
        for a, b in itertools.combinations(reps, 2):
            assert not a.same_coset(b)

    def test_full_group_length(self):
        assert len(list(iterate_full_group(2, 2))) == 8
        assert full_cardinality(2, 9) == 2**9 * math.factorial(9)

    def test_fixed_beta_zero_matches_quotient(self):
        assert list(iterate_fixed_last_color(2, 2, 0)) == \
            list(iterate_quotient_reps(2, 2))

    def test_fixed_beta_one(self):
        elements = list(iterate_fixed_last_color(3, 2, 1))
        # 3 choices of first color x 2 windows
        assert len(elements) == 6
        assert all(w.colors[-1] == 1 for w in elements)

    def test_streams_duplicate_free(self):
        for alpha, n in [(2, 3), (3, 2)]:
            full = list(iterate_full_group(alpha, n))
            assert len(set(full)) == len(full) == full_cardinality(alpha, n)
            reps = list(iterate_quotient_reps(alpha, n))
            assert len(set(reps)) == len(reps) == quotient_cardinality(alpha, n)

    def test_lexicographic_order(self):
        # Each stream is sorted, and the full group is the sorted union of
        # the fixed-last-color streams.
        for alpha, n in itertools.product(range(1, 4), range(1, 5)):
            seen = [(w.window, w.colors) for w in iterate_full_group(alpha, n)]
            assert seen == sorted(seen)
            union = []
            for beta in range(alpha):
                fixed = [(w.window, w.colors)
                         for w in iterate_fixed_last_color(alpha, n, beta)]
                assert fixed == sorted(fixed)
                union += fixed
            assert seen == sorted(union)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            list(iterate_quotient_reps(0, 2))
        with pytest.raises(ValidationError):
            list(iterate_full_group(2, 0))
        with pytest.raises(ValidationError):
            list(iterate_fixed_last_color(2, 2, 2))

    @pytest.mark.parametrize("cardinality", [quotient_cardinality, full_cardinality])
    @pytest.mark.parametrize("alpha,n", [(2, 0), (2, -1), (0, 3), (2.5, 3), (2, 2.0)])
    def test_cardinality_rejects_bad_parameters(self, cardinality, alpha, n):
        with pytest.raises(ValidationError):
            cardinality(alpha, n)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError) as exc:
            list(iterate_quotient_reps(2, 9, cap=1000))
        assert exc.value.required == quotient_cardinality(2, 9)

    # Each call reaches the cap on its domain: the full group for the full
    # stream, the coset verifier and the full report, otherwise the
    # elements with one last color.  Only the beta-reading calls vary beta.
    ADMITTED = {
        "full-stream": (True, False,
                        lambda a, n, b, cap: next(iterate_full_group(a, n, cap=cap))),
        "quotient-stream": (False, False,
                            lambda a, n, b, cap: next(iterate_quotient_reps(a, n, cap=cap))),
        "fixed-stream": (False, True,
                         lambda a, n, b, cap: next(iterate_fixed_last_color(a, n, b, cap=cap))),
        "symmetry": (False, False, lambda a, n, b, cap: verify_symmetry(a, n, cap=cap).ok),
        "involution": (False, False, lambda a, n, b, cap: verify_involution(a, n, cap=cap).ok),
        "coset-invariance": (True, False,
                             lambda a, n, b, cap: verify_coset_invariance(a, n, cap=cap).ok),
        "report-quotient": (False, False,
                            lambda a, n, b, cap: stat_report(a, n, "flag", "quotient", cap=cap)),
        "report-full": (True, False,
                        lambda a, n, b, cap: stat_report(a, n, "flag", "full", cap=cap)),
        "report-fixed": (False, True, lambda a, n, b, cap: stat_report(
            a, n, "colored-descent", "fixed", beta=b, cap=cap)),
    }

    @pytest.mark.parametrize("alpha,n", [(1, 3), (2, 1), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("name", list(ADMITTED))
    def test_cap_admits_exactly_the_domain(self, name, alpha, n):
        full, reads_beta, call = self.ADMITTED[name]
        size = (full_cardinality if full else quotient_cardinality)(alpha, n)
        for beta in range(alpha) if reads_beta else (0,):
            with pytest.raises(CapExceededError) as exc:
                call(alpha, n, beta, size - 1)
            assert (exc.value.required, exc.value.cap) == (size, size - 1)
            assert call(alpha, n, beta, size)
            # _admit returns the size it admitted, which the builder packs by.
            assert enumeration._admit(alpha, n, None if full else beta, size) == size

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("WREATH_CAP", "10")
        with pytest.raises(CapExceededError):
            list(iterate_quotient_reps(2, 4))

    # Decimal strs past Python's default limit of 4,300 digits on int-str
    # conversion, well formed and not, with int's own rules: whitespace
    # around, a sign, single underscores between digits, any decimal digits.
    # Then short strs that int reads or refuses.  The property test of
    # core._decimal on short strs is in test_core.py.
    DECIMALS = ["1" + "0" * 4400, " +1_" + "0" * 4400 + "\n", "-" + "9" * 4401,
                "1_" * 3000 + "1", "\u0663" * 4400, "1" * 4401 + "x", "1__" + "0" * 4400,
                "_1" + "0" * 4400, "1" * 4401 + "_", "x" * 4401, "+-" + "1" * 4401,
                " 12 ", "+1_000", "-0", "\u0661\u0662\u0663", "", "-", "1__0", "_1",
                "1_", "0x10", "\u00b2"]

    @pytest.mark.parametrize("text", DECIMALS, ids=range(len(DECIMALS)))
    def test_long_decimal_is_read_as_int_reads_it(self, default_digit_limit, text):
        got, want = decimal_and_int(text)
        assert got == want

    def test_long_cap_env(self, monkeypatch, default_digit_limit):
        # The library leaves the digit limit as it is, and still reads a
        # 4,401-digit WREATH_CAP exactly.
        monkeypatch.setenv("WREATH_CAP", "1" + "0" * 4400)
        assert enumeration.resolve_cap(None) == 10**4400
        assert flag_eulerian_quotient(2, 3).polynomial.coefficients == (1, 6, 10, 6, 1)
        monkeypatch.setenv("WREATH_CAP", "-" + "9" * 4401)
        with pytest.raises(ValidationError) as exc:
            enumeration.resolve_cap(None)
        assert str(exc.value) == "WREATH_CAP must be >= 0, got <negative int of 14620 bits>"
        # A refused value is quoted to its first 40 characters.
        monkeypatch.setenv("WREATH_CAP", "1" * 4401 + "x")
        with pytest.raises(ValidationError) as exc:
            enumeration.resolve_cap(None)
        assert str(exc.value) == f"WREATH_CAP must be an integer, got {'1' * 40!r}..."


def assert_checked(w):
    """w equals, and hashes like, the checked element with its fields."""
    assert type(w.window) is tuple and type(w.colors) is tuple
    checked = validate(w.alpha, w.window, w.colors)
    assert w == checked and hash(w) == hash(checked)


def assert_valid_colors(alpha, colors):
    """colors is a tuple of colors in 0..alpha-1."""
    assert type(colors) is tuple
    validate(alpha, range(1, len(colors) + 1), colors)


class TestUncheckedConstruction:
    """The streams and the maps they feed build their elements without the
    checks of public construction; every one must still be a valid element."""

    SIZES = [(alpha, n) for alpha in range(1, 5) for n in range(1, 6)]

    def test_streamed_elements(self):
        for alpha, n in self.SIZES:
            for w in iterate_full_group(alpha, n):
                assert_checked(w)
            for beta in range(alpha):
                for w in iterate_fixed_last_color(alpha, n, beta):
                    assert_checked(w)
            for w in iterate_quotient_reps(alpha, n):
                assert_checked(w)
                assert_checked(reversal_map(w))

    def test_coset_shifts(self, monkeypatch):
        # The verifier canonicalizes each color shift it builds, once per
        # shifted coloring, so a recording canonicalization kernel sees
        # every shift and every result: each coloring whose last color is
        # not 0, and its coset representative's coloring.
        canonical_colors = enumeration._canonical_colors
        calls = 0

        def recording(alpha, colors):
            nonlocal calls
            rep = canonical_colors(alpha, colors)
            assert_valid_colors(alpha, colors)
            assert_valid_colors(alpha, rep)
            calls += 1
            return rep

        monkeypatch.setattr(enumeration, "_canonical_colors", recording)
        for alpha, n in self.SIZES:
            assert verify_coset_invariance(alpha, n).ok
        assert calls == sum((alpha - 1) * alpha ** (n - 1) for alpha, n in self.SIZES)

    def test_public_construction_stays_checked(self):
        assert not [name for name in wreath_eulerian.__all__ if "trusted" in name]
        with pytest.raises(ValidationError):
            ColoredPermutation(2, (1, 1), (0, 0))
        with pytest.raises(ValidationError):
            parse(2, "1^0 1^0")

    @pytest.mark.parametrize("beta", [True, 1.0, None])
    def test_stream_checks_beta_before_it_yields(self, beta):
        # A beta equal to a valid color but not an int would otherwise
        # reach the unchecked elements, which would print as 1^0 2^True;
        # None, the full group's name inside the module, is no color either.
        with pytest.raises(ValidationError):
            next(iterate_fixed_last_color(2, 2, beta))


class TestPolynomials:
    def test_colored_eulerian_small(self):
        assert colored_eulerian(2, 2).polynomial.coefficients == (1, 3)
        assert colored_eulerian(1, 3).polynomial.coefficients == (1, 4, 1)
        for alpha in (1, 2, 5):
            assert colored_eulerian(alpha, 1).polynomial.coefficients == (1,)

    def test_flag_quotient_values(self):
        report = flag_eulerian_quotient(2, 3)
        assert report.polynomial.coefficients == (1, 6, 10, 6, 1)
        assert report.cardinality == 24
        assert report.palindromic and report.unimodal

    def test_flag_quotient_alpha_one_is_eulerian(self):
        for n in range(1, 6):
            assert flag_eulerian_quotient(1, n).polynomial.coefficients == \
                classical_eulerian(n).coefficients

    def test_flag_quotient_alpha_one_is_eulerian_at_scale(self):
        cap = quotient_cardinality(1, 30)
        for n in range(1, 31):
            assert flag_eulerian_quotient(1, n, cap=cap).polynomial \
                .coefficients == classical_eulerian(n).coefficients

    def test_flag_quotient_cardinality(self):
        assert flag_eulerian_quotient(3, 2).cardinality == 6

    def test_flag_full_values(self):
        report = flag_eulerian_full(2, 2)
        assert report.polynomial.coefficients == (1, 3, 3, 1)
        assert flag_eulerian_full(1, 4).polynomial.coefficients == \
            classical_eulerian(4).coefficients
        assert flag_eulerian_full(2, 3).cardinality == 48

    def test_classical_eulerian_triangle(self):
        assert classical_eulerian(1).coefficients == (1,)
        assert classical_eulerian(2).coefficients == (1, 1)
        assert classical_eulerian(3).coefficients == (1, 4, 1)
        assert classical_eulerian(4).coefficients == (1, 11, 11, 1)

    def test_classical_eulerian_by_the_explicit_sum(self):
        # A(n, k) = sum_(j <= k) (-1)^j C(n + 1, j) (k + 1 - j)^n (Petersen,
        # *Eulerian Numbers*, ch. 1), a route shared with neither the
        # triangle nor the transfer-matrix count.
        for n in range(1, 61):
            assert classical_eulerian(n).coefficients == tuple(
                sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n
                    for j in range(k + 1))
                for k in range(n))

    def test_report_invariants(self):
        for alpha, n in [(2, 4), (3, 3), (4, 2)]:
            report = flag_eulerian_quotient(alpha, n)
            assert report.cardinality == report.polynomial.evaluate(1)
            assert report.cardinality == quotient_cardinality(alpha, n)
            assert report.polynomial.nominal_degree == alpha * (n - 1)

    @pytest.mark.parametrize("statistic", ["colored-descent", "flag"])
    @pytest.mark.parametrize("alpha,n", [(1, 4), (2, 3), (3, 3), (4, 2)])
    def test_aggregated_matches_streaming_quotient(self, statistic, alpha, n):
        report = stat_report(alpha, n, statistic, "quotient")
        streamed = stream_distribution(alpha, n, statistic, "quotient")
        # streamed drops trailing zeros below the nominal degree
        assert report.polynomial.coefficients[: len(streamed)] == streamed
        assert all(c == 0 for c in report.polynomial.coefficients[len(streamed):])

    @pytest.mark.parametrize("alpha,n", [(2, 3), (3, 2), (3, 3)])
    def test_aggregated_matches_streaming_full(self, alpha, n):
        report = flag_eulerian_full(alpha, n)
        streamed = stream_distribution(alpha, n, "flag", "full")
        assert report.polynomial.coefficients[: len(streamed)] == streamed
        assert all(c == 0 for c in report.polynomial.coefficients[len(streamed):])

    def test_aggregated_matches_streaming_fixed_beta(self):
        report = stat_report(3, 3, "flag", "fixed", beta=2)
        streamed = stream_distribution(3, 3, "flag", "fixed", beta=2)
        assert report.polynomial.coefficients[: len(streamed)] == streamed
        assert report.polynomial.nominal_degree == 3 * 2 + 2
        assert report.cardinality == quotient_cardinality(3, 3)

    def test_parallel_matches_sequential(self):
        seq = flag_eulerian_quotient(2, 7, workers=1)
        par = flag_eulerian_quotient(2, 7, workers=4)
        assert seq == par

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.integers(1, 4), n=st.integers(1, 5),
           statistic=st.sampled_from(["colored-descent", "flag"]),
           domain=st.sampled_from(["quotient", "full", "fixed"]),
           beta=st.integers(0, 3))
    @example(alpha=1, n=1, statistic="flag", domain="full", beta=0)
    @example(alpha=1, n=5, statistic="colored-descent", domain="quotient", beta=0)
    @example(alpha=4, n=1, statistic="flag", domain="fixed", beta=2)
    @example(alpha=3, n=1, statistic="flag", domain="full", beta=0)
    def test_builder_matches_streaming(self, alpha, n, statistic, domain, beta):
        beta %= alpha
        report = stat_report(alpha, n, statistic, domain, beta=beta)
        streamed = stream_distribution(alpha, n, statistic, domain, beta=beta)
        assert report.polynomial.coefficients[: len(streamed)] == streamed
        assert all(c == 0 for c in report.polynomial.coefficients[len(streamed):])

    def test_stat_report_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            stat_report(2, 3, "flag", "nowhere")
        with pytest.raises(ValidationError):
            stat_report(2, 3, "major-index", "quotient")
        with pytest.raises(ValidationError):
            stat_report(2, 3, "flag", "fixed", beta=2)
        with pytest.raises(ValidationError):
            stat_report(3, 2, "flag", "fixed", beta=1.0)
        # beta is checked on every domain, not only the one that reads it.
        with pytest.raises(ValidationError, match="beta 7 out of range"):
            stat_report(2, 3, "flag", "quotient", beta=7)


class TestFlagTable:
    def test_alpha_two_rows(self):
        rows = flag_table(2, 3)
        assert [r.coefficients for r in rows] == [
            (1,), (1, 2, 1), (1, 6, 10, 6, 1)]

    def test_alpha_one_is_eulerian_triangle(self):
        rows = flag_table(1, 5)
        for n, row in enumerate(rows, start=1):
            assert row.coefficients == classical_eulerian(n).coefficients

    def test_row_sums_and_shape(self):
        for alpha in (2, 3):
            for n, row in enumerate(flag_table(alpha, 4), start=1):
                assert row.evaluate(1) == quotient_cardinality(alpha, n)
                assert row.coefficients[0] == 1
                assert row.coefficients == row.coefficients[::-1]

    # Large alpha at large n, and the same alphas at the small n where the
    # packed slots are tightest: at (3, 4), (4, 3) and (8, 3) the full-group
    # descent pass fills every bit of the width, while the large passes
    # leave 2 to 5 bits spare.  A slot that spilled into the next would
    # change a row's value at 1.
    @pytest.mark.parametrize("alpha,n_max",
                             [(3, 40), (4, 40), (8, 20), (3, 4), (4, 3), (8, 3)])
    def test_large_alpha_row_sums_and_shape(self, alpha, n_max):
        cap = full_cardinality(alpha, n_max)
        for statistic in ("flag", "colored-descent"):
            for beta, cardinality in ((0, quotient_cardinality),
                                      (None, full_cardinality)):
                rows = enumeration._rows(alpha, n_max, statistic, beta, cap)
                for n, row in enumerate(rows, start=1):
                    assert row.evaluate(1) == cardinality(alpha, n)
                    if statistic == "flag" and beta == 0:
                        assert is_palindromic(row)

    # A state carries the distribution of counted pairs, at most n slots,
    # so the alpha * n states of a pass hold O(alpha * n^2) slots and the
    # builder's memory grows linearly in alpha.
    @pytest.mark.parametrize("alpha,n_max", [(3000, 1), (1000, 2)])
    def test_builder_memory_grows_like_alpha_n(self, alpha, n_max):
        cap = quotient_cardinality(alpha, n_max)
        tracemalloc.start()
        try:
            rows = list(enumeration._rows(alpha, n_max, "flag", 0, cap))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[-1].evaluate(1) == cap
        assert peak < 2 * 2**20, f"peak {peak} bytes"

    def test_empty_range_rejected(self):
        # The verifiers' sweep rule: a bound below 1 is the empty sweep,
        # refused by no cap, and a bound that is not an int is rejected
        # under its own name.
        assert flag_table(2, 0, cap=0) == []
        assert flag_table(2, -1, cap=0) == []
        for bound in (2.0, True):
            with pytest.raises(ValidationError, match="n_max"):
                flag_table(2, bound)

    def test_alpha_checked_before_the_pass(self):
        with pytest.raises(ValidationError):
            flag_table(0, 3)
        with pytest.raises(ValidationError, match="alpha"):
            flag_table(0, 0)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_rows_match_streaming(self, alpha):
        # Each row is cut to its own nominal degree from one pass sized for
        # n_max; the element streams are the independent reference.
        for n, row in enumerate(flag_table(alpha, 5), start=1):
            assert row.coefficients == \
                stream_distribution(alpha, n, "flag", "quotient")
            assert row.nominal_degree == alpha * (n - 1)


class TestSweeps:
    """A sweep over n reads every row from one transfer-matrix pass, and the
    cap refuses it on its largest domain."""

    def test_one_pass_per_sweep(self, monkeypatch):
        calls = []
        rows = enumeration._rows

        def counted(*args):
            calls.append(args[:2])
            return rows(*args)

        monkeypatch.setattr(enumeration, "_rows", counted)
        assert len(flag_table(2, 6)) == 6
        assert calls == [(2, 6)]
        assert len(verify_abr_identity(5)) == 5
        assert calls[1:] == [(2, 5)]
        assert len(verify_product_identity(3)) == 3
        assert calls[2:] == [(2, 7)]
        assert flag_eulerian_quotient(2, 4).cardinality == 192
        assert calls[3:] == [(2, 4)]

    def test_a_build_holds_one_row(self, monkeypatch):
        # A stand-in pass checks, as it makes row k, that row k - 2 is gone.
        class Row:
            pass

        def rows(alpha, n_max, statistic, beta, cap):
            made = []
            for k in range(n_max):
                assert k < 2 or made[k - 2]() is None, f"row {k - 2} is still held"
                row = Row()
                made.append(weakref.ref(row))
                yield row

        monkeypatch.setattr(enumeration, "_rows", rows)
        assert type(flag_eulerian_quotient(2, 6).polynomial) is Row
        assert type(stat_report(3, 5, "colored-descent", "full").polynomial) is Row

    def test_empty_sweeps(self):
        assert verify_abr_identity(0) == []
        assert verify_product_identity(0) == []
        assert verify_abr_identity(-1) == []
        assert verify_product_identity(-1) == []
        assert verify_abr_identity(0, cap=0) == []
        assert verify_product_identity(0, cap=0) == []

    @pytest.mark.parametrize("sweep,required", [
        (lambda cap: flag_table(2, 9, cap=cap), quotient_cardinality(2, 9)),
        (lambda cap: verify_abr_identity(9, cap=cap), full_cardinality(2, 9)),
        (lambda cap: verify_product_identity(4, cap=cap),
         quotient_cardinality(2, 9)),
    ], ids=["table", "abr", "product"])
    def test_refusal_names_the_largest_domain(self, sweep, required):
        for cap in (required - 1, 100):
            with pytest.raises(CapExceededError) as exc:
                sweep(cap)
            assert (exc.value.required, exc.value.cap) == (required, cap)
        assert sweep(required)

    def test_refusal_past_the_digit_limit(self, monkeypatch, default_digit_limit):
        # 2^1499 * 1500! has 4,566 digits, past the default int-str limit,
        # so the refusal is raised without formatting it.
        monkeypatch.delenv("WREATH_CAP", raising=False)
        required = 2**1499 * math.factorial(1500)
        with pytest.raises(CapExceededError) as exc:
            flag_table(2, 1500)
        assert (exc.value.required, exc.value.cap) == (required, enumeration.DEFAULT_CAP)
        restored = pickle.loads(pickle.dumps(exc.value))
        assert type(restored) is CapExceededError
        assert (restored.required, restored.cap) == (required, enumeration.DEFAULT_CAP)


def rotate_window(window):
    """A stand-in for the reversal map's window kernel that is no involution
    for n >= 3."""
    return window[1:] + window[:1]


def keep_last(*fields):
    """A stand-in for either half of the reversal map: the identity on the
    window, or on the colors."""
    return fields[-1]


def reverse_then_swap_front(window):
    """A stand-in for the reversal map's window kernel that swaps the first
    two entries of the reversed window when the window starts with its
    largest entry and does not end with its smallest.  The first window of
    each descent class, in lex order, is the identity with each run of
    descents reversed, so none is swapped: a check at each descent class's
    first window misses the fault, and only grouping the windows by their
    own and their partner's descent sets sees it, for n >= 3."""
    backwards = window[::-1]
    if window[0] != len(window) or window[-1] == 1:
        return backwards
    return backwards[1:2] + backwards[:1] + backwards[2:]


def rotate_colors(alpha, colors):
    """A stand-in for the reversal map's color kernel that is no involution
    for n >= 3."""
    return colors[1:] + colors[:1]


REVERSAL_HALVES = ("_reversed_window", "_reversed_colors")

# (verifier, kernels replaced, stand-in) rows that each verifier must catch.
KERNEL_FAULTS = [
    pytest.param(verify, kernels, broken, id=name) for name, verify, kernels, broken in [
        ("symmetry-identity", verify_symmetry, REVERSAL_HALVES, keep_last),
        ("symmetry-rotation", verify_symmetry, ("_reversed_window",), rotate_window),
        ("symmetry-flag", verify_symmetry, ("_flag",), lambda alpha, window, colors: 0),
        ("symmetry-swap-front", verify_symmetry, ("_reversed_window",),
         reverse_then_swap_front),
        ("involution-rotation", verify_involution, ("_reversed_window",), rotate_window),
        ("involution-color-rotation", verify_involution, ("_reversed_colors",),
         rotate_colors),
        ("coset-canonical", verify_coset_invariance, ("_canonical_colors",),
         lambda alpha, colors: colors),
        ("coset-shift", verify_coset_invariance, ("_shift_colors",),
         lambda alpha, colors, shift: colors[:-1] + ((colors[-1] + shift) % alpha,)),
        ("coset-descents", verify_coset_invariance, ("_descents",),
         lambda window, colors: colors[0]),
        ("coset-no-shift", verify_coset_invariance, ("_shift_colors",),
         lambda alpha, colors, shift: colors),
    ]]


class TestVerifiers:
    def test_symmetry(self):
        assert verify_symmetry(3, 4).ok
        assert verify_symmetry(1, 5).ok

    def test_involution(self):
        assert verify_involution(3, 3).ok

    def test_product_identity(self):
        results = verify_product_identity(2)
        assert len(results) == 2
        assert all(r.ok for r in results)
        lhs = flag_eulerian_quotient(2, 3).polynomial.coefficients
        rhs = (binomial_power(2) * classical_eulerian(3)).coefficients
        assert lhs == rhs == (1, 6, 10, 6, 1)

    def test_abr_identity(self):
        results = verify_abr_identity(5)
        assert all(r.ok for r in results)

    def test_product_identity_at_scale(self):
        # Degree up to 120; each lhs is real-rooted because the rhs is.
        cap = quotient_cardinality(2, 61)
        results = verify_product_identity(30, cap=cap)
        assert len(results) == 30
        assert all(r.ok for r in results)
        rows = flag_table(2, 61, cap=cap)
        for k in range(1, 31):
            assert is_real_rooted(rows[2 * k])

    def test_abr_identity_at_scale(self):
        results = verify_abr_identity(30, cap=full_cardinality(2, 30))
        assert len(results) == 30
        assert all(r.ok for r in results)

    def test_abr_identity_rows_are_real_rooted(self):
        # (1+x)^n A_n: ABR's identity makes every full-group row real-rooted.
        rows = list(enumeration._rows(2, 30, "flag", None, full_cardinality(2, 30)))
        assert len(rows) == 30
        assert all(is_real_rooted(row) for row in rows)

    def test_coset_invariance(self):
        for alpha, n in [(2, 3), (3, 2), (1, 4)]:
            assert verify_coset_invariance(alpha, n).ok

    def test_coset_invariance_catches_wrong_canonical_rep(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_canonical_colors", lambda alpha, colors: colors)
        result = verify_coset_invariance(2, 3)
        assert not result.ok
        assert result.counterexample is not None

    def test_coset_invariance_catches_a_shift_that_does_nothing(self, monkeypatch):
        # Every "shift" would canonicalize back and keep its descent count.
        monkeypatch.setattr(enumeration, "_shift_colors", lambda alpha, colors, shift: colors)
        result = verify_coset_invariance(3, 4)
        assert not result.ok
        assert result.description == "color shift does not move the last color"
        assert result.counterexample == identity(3, 4)

    @pytest.mark.parametrize("kernels,broken", [(REVERSAL_HALVES, keep_last),
                                                (("_reversed_window",), rotate_window)],
                             ids=["identity", "rotation"])
    def test_symmetry_catches_wrong_reversal_map(self, monkeypatch, kernels, broken):
        for kernel in kernels:
            monkeypatch.setattr(enumeration, kernel, broken)
        result = verify_symmetry(2, 3)
        assert not result.ok
        assert result.counterexample == identity(2, 3)

    def test_symmetry_catches_a_polynomial_that_is_not_palindromic(self, monkeypatch):
        # Every pointwise pair sums right, so only the polynomial can fail.
        monkeypatch.setattr(
            enumeration, "flag_eulerian_quotient", lambda alpha, n, cap=None:
            enumeration.StatReport(alpha, n, "flag", "quotient", IntPolynomial((1, 2))))
        result = verify_symmetry(2, 3)
        assert not result.ok
        assert result.description == "flag polynomial is not palindromic"
        assert result.counterexample is None

    def test_coset_invariance_catches_a_wrong_quotient_row(self, monkeypatch):
        row = colored_eulerian(2, 3).polynomial
        wrong = IntPolynomial(row.coefficients[:-1] + (row.coefficients[-1] + 1,))
        monkeypatch.setattr(
            enumeration, "colored_eulerian", lambda alpha, n, cap=None:
            enumeration.StatReport(alpha, n, "colored-descent", "quotient", wrong))
        result = verify_coset_invariance(2, 3)
        assert not result.ok
        assert result.description.startswith(
            "descent distribution over representatives differs")
        assert result.counterexample is None

    def test_involution_catches_wrong_reversal_map(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_reversed_window", rotate_window)
        result = verify_involution(2, 3)
        assert not result.ok
        assert result.counterexample == identity(2, 3)

    def test_cap_propagates(self):
        with pytest.raises(CapExceededError):
            verify_symmetry(2, 9, cap=100)

    def test_coset_verifier_memory_grows_like_alpha_n(self):
        # One coloring's alpha - 1 shifts are held at a time: at (300, 2)
        # all 300 colorings' shifts would be about 90,000 tuples, some 7 MB.
        # At (10^5, 1) the quotient polynomial is built before the walk, so
        # its build and the shifts are never held together, and the peak
        # stays within 1.5 times that of alpha * n one-tuples.
        def peak(run):
            tracemalloc.start()
            try:
                assert run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alpha, n = 10**5, 1
        yardstick = peak(lambda: [(i,) for i in range(alpha * n)])
        verifier = peak(lambda: verify_coset_invariance(alpha, n).ok)
        assert verifier <= 1.5 * yardstick, f"peak {verifier} bytes against {yardstick}"
        verifier = peak(lambda: verify_coset_invariance(300, 2).ok)
        assert verifier < 2**20, f"peak {verifier} bytes"

    def test_verdicts_are_computed_when_read(self, monkeypatch):
        # The table and the identity verifiers compare coefficients only,
        # so none of them may run a Sturm chain.
        def refuse(polynomial):
            raise AssertionError("is_real_rooted called")

        monkeypatch.setattr(enumeration, "is_real_rooted", refuse)
        assert len(flag_table(2, 6)) == 6
        assert all(r.ok for r in verify_product_identity(3))
        assert all(r.ok for r in verify_abr_identity(5))
        assert verify_symmetry(2, 3).ok
        assert verify_coset_invariance(2, 3).ok
        monkeypatch.undo()
        for statistic in ("colored-descent", "flag"):
            for domain in ("quotient", "full", "fixed"):
                report = stat_report(3, 3, statistic, domain, beta=2)
                p = report.polynomial
                assert report.cardinality == p.evaluate(1)
                assert report.palindromic == is_palindromic(p)
                assert report.unimodal == is_unimodal(p)
                assert report.real_rooted == is_real_rooted(p)


class TestKernels:
    """The verifiers walk raw (window, colors) fields through one kernel per
    rule; each kernel must agree with its rule, stated here on the fields,
    on every element of the full group, which holds every other domain."""

    def test_kernels_agree_with_public_functions(self):
        shift_by = enumeration._shift_colors
        for alpha, n in TestUncheckedConstruction.SIZES:
            generator = color_shift_generator(alpha, n)
            for w in iterate_full_group(alpha, n):
                window, colors = w.window, w.colors
                # A shift by 1 is the product with the generator; a shift by
                # s is s shifts by 1.
                assert shift_by(alpha, colors, 1) == (generator * w).colors
                shifted = colors
                for shift in range(alpha):
                    assert shift_by(alpha, colors, shift) == shifted
                    shifted = shift_by(alpha, shifted, 1)
                steps = list(zip(window, window[1:], colors, colors[1:]))
                # flag = c_1 + alpha * #{i : c_i < c_(i+1), or c_i = c_(i+1)
                # and w_i > w_(i+1)}.
                flag = colors[0] + alpha * sum(c < d or c == d and v > u
                                               for v, u, c, d in steps)
                assert enumeration._flag(alpha, window, colors) == flag
                # des = #{i : c_i != c_(i+1) or w_i > w_(i+1)}.
                descents = sum(c != d or v > u for v, u, c, d in steps)
                assert enumeration._descents(window, colors) == descents
                # The coset representative: every color shifted by -c_n.
                assert enumeration._canonical_colors(alpha, colors) == \
                    tuple((c - colors[-1]) % alpha for c in colors)
                # The reversal: the window reversed, and the colors reversed
                # and shifted by -c_1.
                assert enumeration._reversed_window(window) == window[::-1]
                assert enumeration._reversed_colors(alpha, colors) == \
                    tuple((c - colors[0]) % alpha for c in colors[::-1])

    def test_kernels_per_descent_class_and_coloring(self, monkeypatch):
        # The verifiers walk the n! windows once and then check one window
        # per (descent class, coloring): 2^(n-1) classes, each checked at its
        # first window, and a kernel that reads only the colors once per
        # coloring.  Symmetry reverses each of the n! windows once, in the
        # walk that pairs it with its reversal and keys the pair by both
        # descent sets; each class keeps its first pair, so no window is
        # reversed again.  Involution checks each half on its own factor.
        calls = dict.fromkeys(("_flag", "_descents", "_reversed_window",
                               "_reversed_colors"), 0)
        for name in calls:
            def recording(*fields, name=name, kernel=getattr(enumeration, name)):
                calls[name] += 1
                return kernel(*fields)

            monkeypatch.setattr(enumeration, name, recording)
        for alpha, n in TestUncheckedConstruction.SIZES:
            windows, colorings = math.factorial(n), alpha ** (n - 1)
            checks = 2 ** (n - 1) * colorings
            for verify, expected in [
                    (verify_symmetry, (2 * checks, 0, windows, colorings)),
                    (verify_involution, (0, 0, 2 * windows, 2 * colorings)),
                    (verify_coset_invariance, (0, alpha * checks, 0, 0))]:
                calls.update(dict.fromkeys(calls, 0))
                assert verify(alpha, n).ok
                assert tuple(calls.values()) == expected, (verify.__name__, alpha, n)

    @pytest.mark.parametrize("verify,kernels,broken", KERNEL_FAULTS)
    def test_broken_kernel_counterexample_is_checked(self, monkeypatch, verify,
                                                     kernels, broken):
        # Counterexamples are the only elements the verifiers build.
        for kernel in kernels:
            monkeypatch.setattr(enumeration, kernel, broken)
        for alpha, n in [(2, 3), (3, 4)]:
            result = verify(alpha, n)
            assert not result.ok
            assert_checked(result.counterexample)

    @pytest.mark.parametrize("verify,kernels,broken", [
        *(pytest.param(verify, (), None, id=verify.__name__)
          for verify in (verify_symmetry, verify_involution, verify_coset_invariance)),
        *KERNEL_FAULTS])
    def test_class_checks_agree_with_the_element_walk(self, monkeypatch, verify,
                                                      kernels, broken):
        # The class checks name the first failing element themselves, so
        # the result must be the element walk's, counterexample and
        # description too, under every fault.
        for kernel in kernels:
            monkeypatch.setattr(enumeration, kernel, broken)
        for alpha in range(1, 4):
            for n in range(1, 6):
                assert verify(alpha, n) == element_walk(verify, alpha, n), (alpha, n)

    def test_descent_classes_group_the_windows_by_their_key(self):
        # By D(w), and each window paired with its reversal by the pair
        # (D(w), D(r(w))) that the symmetry verifier reads, the n! windows
        # fall into 2^(n-1) classes, each named by its first item in lex
        # order and counting its items.
        def pair(item):
            return tuple(map(enumeration._descent_mask, item))

        for n in range(1, 7):
            windows = list(itertools.permutations(range(1, n + 1)))
            for key, items in [(enumeration._descent_mask, windows),
                               (pair, [(w, w[::-1]) for w in windows])]:
                classes = enumeration._descent_classes(items, key)
                groups = {}
                for item in items:
                    groups.setdefault(key(item), []).append(item)
                assert classes == [(group[0], len(group)) for group in groups.values()]
                assert len(classes) == 2 ** (n - 1)

    def test_kernels_read_the_window_through_its_descent_set(self):
        # The class checks rest on flag and the colored descent count
        # depending on the window only through D(w).  The reversed window's
        # descent set is D(w) complemented and read backwards, so the
        # symmetry verifier's groups number 2^(n-1) too.
        for alpha, n in TestUncheckedConstruction.SIZES:
            for w in iterate_full_group(alpha, n):
                window, colors = w.window, w.colors
                mask = enumeration._descent_mask(window)
                pairs = list(zip(colors, colors[1:]))
                both = sum(c == d and mask >> i & 1 for i, (c, d) in enumerate(pairs))
                assert enumeration._flag(alpha, window, colors) == \
                    colors[0] + alpha * sum(c < d for c, d in pairs) + alpha * both
                assert enumeration._descents(window, colors) == \
                    sum(c != d for c, d in pairs) + both
                reversed_mask = enumeration._descent_mask(enumeration._reversed_window(window))
                assert reversed_mask == sum(1 << (n - 2 - i) for i in range(n - 1)
                                            if not mask >> i & 1)


def element_walk(verify, alpha, n):
    """The verifier's result, one element at a time through the kernels it
    calls: the first failing element in (colors, window) order, then the
    polynomial check."""
    E = enumeration
    windows = list(itertools.permutations(range(1, n + 1)))
    colorings = [(*c, 0) for c in itertools.product(range(alpha), repeat=n - 1)]

    def fail(description, window, colors):
        return E.Verification(False, description, ColoredPermutation(alpha, window, colors))

    if verify is verify_symmetry:
        target = alpha * (n - 1)
        for colors in colorings:
            partner = E._reversed_colors(alpha, colors)
            for window in windows:
                if E._flag(alpha, window, colors) + \
                        E._flag(alpha, E._reversed_window(window), partner) != target:
                    return fail(f"flag(w) + flag(r(w)) != {target}", window, colors)
        if not E.flag_eulerian_quotient(alpha, n).palindromic:
            return E.Verification(False, "flag polynomial is not palindromic")
        return E.Verification(True, f"flag symmetric about {alpha}*({n}-1)/2 over "
                                    f"{len(colorings) * len(windows)} elements")
    if verify is verify_involution:
        for colors in colorings:
            for window in windows:
                if E._reversed_window(E._reversed_window(window)) != window or \
                        E._reversed_colors(alpha, E._reversed_colors(alpha, colors)) != colors:
                    return fail("r(r(w)) != w", window, colors)
        return E.Verification(
            True, f"reversal is an involution on {len(colorings) * len(windows)} elements")
    coeffs = [0] * n
    for colors in colorings:
        shifts = [E._shift_colors(alpha, colors, shift) for shift in range(1, alpha)]
        for shift, shifted in enumerate(shifts, start=1):
            if shifted[-1] != shift:
                return fail("color shift does not move the last color", windows[0], colors)
            if E._canonical_colors(alpha, shifted) != colors:
                return fail("color shift does not canonicalize to its representative",
                            windows[0], shifted)
        for window in windows:
            count = E._descents(window, colors)
            if any(E._descents(window, shifted) != count for shifted in shifts):
                return fail("descent count varies within a coset", window, colors)
            coeffs[count] += 1
    if tuple(coeffs) != E.colored_eulerian(alpha, n).polynomial.coefficients:
        return E.Verification(False, "descent distribution over representatives differs "
                                     "from the fixed-last-color-0 distribution")
    return E.Verification(True, f"{sum(coeffs)} cosets of size {alpha} with constant "
                                f"descent count")


def power(p, exponent):
    out = IntPolynomial((1,))
    for _ in range(exponent):
        out = out * p
    return out


class TestClosedForms:
    """Every row the builder gives has a closed form at every alpha.  With
    [alpha] = 1 + x + ... + x^(alpha-1) and A_n the Eulerian polynomial from
    the triangle recurrence:

    * flag: x^beta [alpha]^(n-1) A_n at last color beta (the quotient is
      beta = 0), and [alpha]^n A_n on the full group;
    * colored descents: D_n = sum_k A(n,k) (alpha x)^k (1+(alpha-1)x)^(n-1-k)
      at every last color, and alpha D_n on the full group.

    They share no code with the transfer matrix, so they pin its every
    coefficient, where row sums and palindromy do not."""

    N_MAX = 10

    @staticmethod
    def expected(alpha, n, statistic, beta):
        eulerian = classical_eulerian(n)
        if statistic == "flag":
            bracket = IntPolynomial((1,) * alpha)
            if beta is None:
                return power(bracket, n) * eulerian
            return IntPolynomial((0,) * beta + (1,)) * power(bracket, n - 1) * eulerian
        descents = IntPolynomial((0,))
        for k, count in enumerate(eulerian.coefficients):
            descents = descents + IntPolynomial((0,) * k + (count * alpha**k,)) \
                * power(IntPolynomial((1, alpha - 1)), n - 1 - k)
        return descents if beta is not None else IntPolynomial((alpha,)) * descents

    @pytest.mark.parametrize("alpha", range(1, 9))
    def test_rows_match_closed_forms(self, alpha):
        cap = full_cardinality(alpha, self.N_MAX)
        for statistic in ("flag", "colored-descent"):
            for beta in (None, *range(alpha)):
                rows = enumeration._rows(alpha, self.N_MAX, statistic, beta, cap)
                for n, row in enumerate(rows, start=1):
                    assert row.coefficients == \
                        self.expected(alpha, n, statistic, beta).coefficients, \
                        (statistic, beta, n)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
    def test_flag_lemma_pointwise(self, alpha, n, data):
        """flag(w) = c_n + alpha * cdes(w) - sum_i ((c_{i+1} - c_i) mod alpha)
        on the fields of the walk's elements, over the full group and every
        last color."""
        beta = data.draw(st.none() | st.integers(0, alpha - 1), label="beta")
        size = (full_cardinality if beta is None else quotient_cardinality)(alpha, n)
        start = data.draw(st.integers(0, size - 1), label="start")
        walk = enumeration._elements(alpha, n, beta, size)
        for w in itertools.islice(walk, start, start + 100):
            window, colors = w.window, w.colors
            winding = sum((b - a) % alpha for a, b in zip(colors, colors[1:]))
            assert enumeration._flag(alpha, window, colors) == \
                colors[-1] + alpha * enumeration._descents(window, colors) - winding
