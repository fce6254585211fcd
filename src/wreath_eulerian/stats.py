"""Descent statistics and combinatorial maps on colored permutations.

Colors are ordered linearly 0 < 1 < ... < alpha-1 wherever a comparison
appears; none of the functions here ever wraps a comparison around the
cyclic structure.  Winding numbers, by contrast, are genuinely cyclic: they
trace a clock hand across the color marks and count visits to a chosen mark.

The private kernels (``_flag``, ``_descents``, the two halves of the
reversal) take raw (window, colors) fields, so the verifiers in
``enumeration`` can check tuples without building elements.  ``_flag`` and
``_descents`` read the window only through its descent set, which
``_descent_mask`` gives as bits, so the verifiers check one window per
descent class.  The reversed window's descent set is the window's ascent
set read backwards, so the symmetry verifier's groups, keyed by the
descent sets of a window and of its reversal, number 2^(n-1) as well.
"""
from __future__ import annotations

__all__ = ["ColorSequence", "colored_descent_count", "colored_descent_set",
           "delete_equal_color_descent", "flag_descent", "reversal_map",
           "reverse_winding_number", "winding_number"]

from .core import (ColoredPermutation, ValidationError, _Record, _as_tuple,
                   _canonical_colors, _require_color, _require_int, _shown)


class ColorSequence(_Record):
    """A bare color vector in (Z_alpha)^n, the input of winding numbers."""

    __slots__ = ("alpha", "colors")

    def __init__(self, alpha: int, colors: tuple[int, ...]) -> None:
        colors = _as_tuple("colors", colors)
        _require_int("alpha", alpha, 1)
        if not colors:
            raise ValidationError("color sequence must be nonempty")
        for c in colors:
            _require_color("color", c, alpha)
        super().__init__(alpha, colors)


def colored_descent_set(w: ColoredPermutation) -> frozenset[int]:
    """Positions i (1-based, i < n) where the colors differ, or the colors
    agree and the window descends."""
    win, col = w.window, w.colors
    return frozenset(
        i + 1
        for i in range(len(win) - 1)
        if col[i] != col[i + 1] or win[i] > win[i + 1]
    )


def _descent_mask(window: tuple) -> int:
    """The window's descent set as bits: bit i is set iff window[i] >
    window[i + 1].  ``_descents`` and ``_flag`` read the window only through
    this set, so the windows that share a mask form a descent class on
    which both are constant for fixed colors."""
    mask = 0
    for i in range(len(window) - 1):
        if window[i] > window[i + 1]:
            mask |= 1 << i
    return mask


def _descents(window: tuple, colors: tuple) -> int:
    """Colored descent count of the element with these fields."""
    count = 0
    for i in range(len(window) - 1):
        if colors[i] != colors[i + 1] or window[i] > window[i + 1]:
            count += 1
    return count


def colored_descent_count(w: ColoredPermutation) -> int:
    return _descents(w.window, w.colors)


def _flag(alpha: int, window: tuple, colors: tuple) -> int:
    """Flag statistic of the element with these fields."""
    total = colors[0]
    for i in range(len(window) - 1):
        c, d = colors[i], colors[i + 1]
        if c < d or c == d and window[i] > window[i + 1]:
            total += alpha
    return total


def flag_descent(w: ColoredPermutation) -> int:
    """alpha * (#equal-color window descents) + alpha * (#color ascents)
    + first color, the last term added as an ordinary integer."""
    return _flag(w.alpha, w.window, w.colors)


def _reversed_window(window: tuple) -> tuple:
    """The window half of the reversal map: the window read backwards."""
    return window[::-1]


def _reversed_colors(alpha: int, colors: tuple) -> tuple:
    """The color half of the reversal map: the colors read backwards and
    canonicalized, so the last color is 0 again."""
    return _canonical_colors(alpha, colors[::-1])


def reversal_map(w: ColoredPermutation) -> ColoredPermutation:
    """Reverse the window and shift all colors by -c_1, landing back in the
    last-color-0 set.  An involution pairing each representative with a
    partner of complementary flag statistic (the two flags sum to
    alpha*(n-1)).  Each half of the image comes from its own kernel,
    ``_reversed_window`` and ``_reversed_colors``, which the verifiers call
    on raw fields.

    Only defined on quotient representatives; other inputs are rejected
    rather than silently canonicalized.
    """
    if not w.is_quotient_rep():
        raise ValidationError(f"reversal map needs last color 0, got {_shown(w, str)}")
    return ColoredPermutation._trusted(
        w.alpha, _reversed_window(w.window), _reversed_colors(w.alpha, w.colors))


def delete_equal_color_descent(w: ColoredPermutation, i: int) -> ColoredPermutation:
    """Remove position i (1-based) from a quotient representative at an
    equal-color window descent, relabeling the remaining window
    order-isomorphically onto {1..n-1}.  Colors at the surviving positions
    are unchanged; the result is again a quotient representative."""
    n = w.n
    if not w.is_quotient_rep():
        raise ValidationError(f"deletion needs last color 0, got {_shown(w, str)}")
    if n < 2:
        raise ValidationError("deletion needs n >= 2")
    _require_int("position", i, 1)
    if i >= n:
        raise ValidationError(f"position {_shown(i)} out of range 1..{n - 1}")
    if w.colors[i - 1] != w.colors[i] or w.window[i - 1] <= w.window[i]:
        raise ValidationError(
            f"position {i} of {_shown(w, str)} is not an equal-color descent")
    removed = w.window[i - 1]
    rest = w.window[: i - 1] + w.window[i:]
    window = tuple(v - 1 if v > removed else v for v in rest)
    colors = w.colors[: i - 1] + w.colors[i:]
    return ColoredPermutation(w.alpha, window, colors)


def winding_number(s: ColorSequence, mark: int) -> int:
    """Counterclockwise colored winding number at ``mark``.

    Place the marks 0..alpha-1 clockwise on a clock.  The hand starts at the
    first color (one visit), then for each change of color sweeps
    counterclockwise (through decreasing labels mod alpha) to the next
    color, visiting every mark strictly after the start of the sweep up to
    and including its end.  Equal adjacent colors sweep nothing.  The result
    is the visit count at ``mark`` minus one, floored at zero for marks the
    hand never touches.
    """
    a = s.alpha
    _require_color("mark", mark, a)
    c = s.colors
    visits = 1 if c[0] == mark else 0
    for x, y in zip(c, c[1:]):
        if 1 <= (x - mark) % a <= (x - y) % a:
            visits += 1
    return max(visits - 1, 0)


def reverse_winding_number(s: ColorSequence, mark: int) -> int:
    """Clockwise variant: each sweep runs through increasing labels mod
    alpha.  Same visit-counting convention as :func:`winding_number`.
    Reflecting the clock (c -> -c mod alpha) turns every clockwise sweep into
    a counterclockwise one, so this is the counterclockwise number of the
    reflected sequence at the reflected mark."""
    a = s.alpha
    _require_color("mark", mark, a)
    return winding_number(ColorSequence(a, [-c % a for c in s.colors]), -mark % a)
