import itertools

import pytest

from wreath_eulerian import (
    ColorSequence,
    IntPolynomial,
    ValidationError,
    colored_descent_count,
    colored_descent_set,
    delete_equal_color_descent,
    flag_descent,
    identity,
    iterate_fixed_last_color,
    iterate_full_group,
    iterate_quotient_reps,
    parse,
    reversal_map,
    reverse_winding_number,
    validate,
    winding_number,
)


def no_equal_adjacent(colors):
    return all(a != b for a, b in zip(colors, colors[1:]))


class TestColoredDescents:
    def test_identity_has_none(self):
        assert colored_descent_set(identity(3, 5)) == frozenset()

    def test_color_change_is_a_descent(self):
        assert colored_descent_set(validate(2, [1, 2], [0, 1])) == {1}

    def test_paper_element(self):
        w = parse(3, "4^1 1^1 3^2 2^0")
        assert colored_descent_set(w) == {1, 2, 3}
        assert colored_descent_count(w) == 3

    def test_classical_case(self):
        assert colored_descent_count(validate(1, [3, 1, 2], [0, 0, 0])) == 1

    def test_constant_on_cosets(self):
        for alpha, n in [(2, 3), (3, 2), (4, 2)]:
            for w in iterate_full_group(alpha, n):
                assert colored_descent_count(w) == \
                    colored_descent_count(w.canonical_rep())

    def test_bounds(self):
        for w in iterate_quotient_reps(3, 3):
            assert 0 <= colored_descent_count(w) <= 2


class TestFlagDescent:
    def test_paper_example(self):
        assert flag_descent(parse(3, "4^1 1^1 3^2 2^0")) == 7

    def test_identity(self):
        assert flag_descent(identity(3, 4)) == 0

    def test_reversed_identity_is_maximal(self):
        for alpha, n in [(1, 4), (2, 4), (3, 3), (4, 2)]:
            w = validate(alpha, list(range(n, 0, -1)), [0] * n)
            assert flag_descent(w) == alpha * (n - 1)

    def test_alpha_one_collapses_to_descent_count(self):
        for w in iterate_full_group(1, 4):
            assert flag_descent(w) == colored_descent_count(w)

    def test_bounds_and_residue(self):
        for alpha, n in [(2, 4), (3, 3)]:
            for w in iterate_quotient_reps(alpha, n):
                f = flag_descent(w)
                assert 0 <= f <= alpha * (n - 1)
                assert f % alpha == w.colors[0] % alpha


class TestReversalMap:
    def test_zero_color_reversal(self):
        w = identity(2, 4)
        assert reversal_map(w) == validate(2, [4, 3, 2, 1], [0] * 4)

    def test_paper_element(self):
        w = parse(3, "4^1 1^1 3^2 2^0")
        r = reversal_map(w)
        assert r == parse(3, "2^2 3^1 1^0 4^0")
        assert flag_descent(w) + flag_descent(r) == 3 * (4 - 1)

    def test_rejects_nonzero_last_color(self):
        with pytest.raises(ValidationError):
            reversal_map(validate(2, [1, 2], [0, 1]))

    def test_involution_z3s3(self):
        for w in iterate_quotient_reps(3, 3):
            assert reversal_map(reversal_map(w)) == w

    @pytest.mark.parametrize("alpha,n", [(alpha, n) for alpha in range(1, 6)
                                         for n in range(1, 6 if alpha < 4 else 5)])
    def test_flag_symmetry_small(self, alpha, n):
        # The paper's symmetry at every fixed last color beta: r_beta
        # reverses the window, then reverses the colors and shifts them by
        # beta - c_1, so it keeps last color beta, and flag(w) +
        # flag(r_beta(w)) = alpha*(n-1) + 2*beta.  r_0 is the reversal map.
        for beta in range(alpha):
            target = alpha * (n - 1) + 2 * beta
            for w in iterate_fixed_last_color(alpha, n, beta):
                shift = beta - w.colors[0]
                r = validate(alpha, w.window[::-1],
                             [(c + shift) % alpha for c in w.colors[::-1]])
                assert r.colors[-1] == beta
                assert flag_descent(w) + flag_descent(r) == target
                if beta == 0:
                    assert r == reversal_map(w)


class TestDeletion:
    def test_hand_example(self):
        w = validate(2, [2, 1, 3], [0, 0, 0])
        reduced = delete_equal_color_descent(w, 1)
        assert reduced == validate(2, [1, 2], [0, 0])
        assert flag_descent(w) - flag_descent(reduced) == 2

    def test_relabel_example(self):
        w = validate(1, [3, 2, 1], [0, 0, 0])
        assert delete_equal_color_descent(w, 2) == validate(1, [2, 1], [0, 0])

    def test_rejects_non_descent_position(self):
        w = validate(2, [1, 2], [0, 0])
        with pytest.raises(ValidationError):
            delete_equal_color_descent(w, 1)

    def test_rejects_last_position(self):
        w = validate(2, [2, 1], [0, 0])
        with pytest.raises(ValidationError):
            delete_equal_color_descent(w, 2)

    def test_rejects_non_representative(self):
        w = validate(2, [2, 1], [1, 1])
        with pytest.raises(ValidationError):
            delete_equal_color_descent(w, 1)

    def test_rejects_a_single_entry(self):
        with pytest.raises(ValidationError, match="^deletion needs n >= 2$"):
            delete_equal_color_descent(validate(2, [1], [0]), 1)

    @pytest.mark.parametrize("alpha,n", [(1, 5), (2, 4), (3, 4)])
    def test_induction_step_exhaustive(self, alpha, n):
        # Deleting an equal-color descent drops exactly one side's flag by
        # alpha; the sum over (w, r(w)) drops by alpha either way.
        for w in iterate_quotient_reps(alpha, n):
            before = flag_descent(w) + flag_descent(reversal_map(w))
            for i in range(1, n):
                if w.colors[i - 1] == w.colors[i] and w.window[i - 1] > w.window[i]:
                    reduced = delete_equal_color_descent(w, i)
                    assert reduced.is_quotient_rep()
                    after = flag_descent(reduced) + flag_descent(reversal_map(reduced))
                    assert after == before - alpha
                    drop_here = flag_descent(w) - flag_descent(reduced)
                    drop_rev = (flag_descent(reversal_map(w))
                                - flag_descent(reversal_map(reduced)))
                    assert sorted([drop_here, drop_rev]) == [0, alpha]


class TestWindingNumbers:
    def test_figure_values(self):
        s = ColorSequence(4, (1, 3, 1, 2, 0, 3, 0))
        assert winding_number(s, 0) == 3
        assert winding_number(s, 1) == 3

    def test_reverse_figure_value(self):
        s = ColorSequence(4, (3, 2, 3, 1, 0, 2, 0))
        assert reverse_winding_number(s, 0) == 3

    def test_singleton(self):
        s = ColorSequence(4, (0,))
        assert winding_number(s, 0) == 0
        assert reverse_winding_number(s, 0) == 0

    def test_constant_sequence(self):
        s = ColorSequence(3, (2, 2, 2))
        assert winding_number(s, 2) == 0
        assert winding_number(s, 0) == 0

    def test_clockwise_full_revolution(self):
        for alpha in (2, 3, 4, 5):
            s = ColorSequence(alpha, tuple(range(alpha)) + (0,))
            assert reverse_winding_number(s, 0) == 1

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError, match="^color sequence must be nonempty$"):
            ColorSequence(2, ())

    def test_empty_polynomial_rejected(self):
        # Refused like every other empty sequence.
        with pytest.raises(ValidationError, match="^coefficient sequence must be nonempty$"):
            IntPolynomial(())

    def test_mark_out_of_range(self):
        s = ColorSequence(3, (0, 1))
        with pytest.raises(ValidationError):
            winding_number(s, 3)
        with pytest.raises(ValidationError):
            reverse_winding_number(s, -1)
        with pytest.raises(ValidationError):
            winding_number(ColorSequence(3, (0, 2, 1)), 1.0)
        with pytest.raises(ValidationError):
            reverse_winding_number(ColorSequence(3, (0, 2, 1)), True)

    @staticmethod
    def clock_walk(alpha, colors, mark, step):
        """The hand starts on the first color; at each later color it steps
        one mark at a time (step -1 counterclockwise, +1 clockwise) until it
        arrives there.  Every arrival at ``mark`` is a visit."""
        hand = colors[0]
        visits = int(hand == mark)
        for target in colors[1:]:
            while hand != target:
                hand = (hand + step) % alpha
                visits += hand == mark
        return max(visits - 1, 0)

    def test_both_directions_match_the_clock_walk(self):
        # Summed over the marks, each direction reads its sweep: the hand
        # makes S + 1 visits to consecutive marks, S the total
        # counterclockwise sweep sum((c_i - c_(i+1)) mod alpha), so it
        # touches min(alpha, S + 1) marks and the sum of the visits less
        # one per touched mark is max(S - alpha + 1, 0); clockwise,
        # the same with W = sum((c_(i+1) - c_i) mod alpha).  S is the sweep
        # term of flag(w) = c_n + alpha * (#equal-color window descents) + S.
        for alpha in range(1, 6):
            for n in range(1, 6):
                for colors in itertools.product(range(alpha), repeat=n):
                    s = ColorSequence(alpha, colors)
                    for mark in range(alpha):
                        assert winding_number(s, mark) == self.clock_walk(
                            alpha, colors, mark, -1)
                        assert reverse_winding_number(s, mark) == self.clock_walk(
                            alpha, colors, mark, +1)
                    pairs = list(zip(colors, colors[1:]))
                    sweep = sum((a - b) % alpha for a, b in pairs)
                    back = sum((b - a) % alpha for a, b in pairs)
                    assert sum(winding_number(s, m) for m in range(alpha)) == \
                        max(sweep - alpha + 1, 0)
                    assert sum(reverse_winding_number(s, m) for m in range(alpha)) == \
                        max(back - alpha + 1, 0)

    def test_counts_color_ascents(self):
        # W(s, 0) equals the ascent count for no-equal-adjacent sequences
        # ending in 0.
        for alpha in (2, 3, 4):
            for n in range(1, 7):
                for head in itertools.product(range(alpha), repeat=n - 1):
                    colors = head + (0,)
                    if not no_equal_adjacent(colors):
                        continue
                    s = ColorSequence(alpha, colors)
                    ascents = sum(1 for a, b in zip(colors, colors[1:]) if a < b)
                    assert winding_number(s, 0) == ascents

    def test_mark_zero_equals_mark_first_color(self):
        for alpha in (2, 3, 4):
            for head in itertools.product(range(alpha), repeat=4):
                colors = head + (0,)
                if not no_equal_adjacent(colors):
                    continue
                s = ColorSequence(alpha, colors)
                assert winding_number(s, 0) == winding_number(s, colors[0])

    def test_reverse_winding_of_reversal(self):
        # W' of the reversed, shifted color sequence at 0 equals W of the
        # original at its first color.
        for alpha, n in [(2, 5), (3, 4), (4, 4)]:
            for w in iterate_quotient_reps(alpha, n):
                if not no_equal_adjacent(w.colors):
                    continue
                r = reversal_map(w)
                assert reverse_winding_number(
                    ColorSequence(alpha, r.colors), 0) == winding_number(
                    ColorSequence(alpha, w.colors), w.colors[0])

    def test_ascent_descent_split(self):
        # No equal adjacent colors: every position is an ascent or a descent.
        for alpha in (2, 3, 4):
            for head in itertools.product(range(alpha), repeat=4):
                colors = (0,) + head
                if not no_equal_adjacent(colors):
                    continue
                asc = sum(1 for a, b in zip(colors, colors[1:]) if a < b)
                des = sum(1 for a, b in zip(colors, colors[1:]) if a > b)
                assert asc + des == len(colors) - 1
