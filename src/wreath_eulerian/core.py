"""Colored permutations: the group Z_alpha wr S_n and its cyclic-shift cosets.

An element is written in one-line notation with a color superscript on each
entry, e.g. ``4^1 1^1 3^2 2^0`` is the permutation 4132 with colors (1,1,2,0)
taken mod alpha.  The subgroup of constant color shifts (generated by the
identity permutation with all colors 1) is never materialized.  Cosets are
decided by ``_canonical_colors``, the shift to last color 0, which gives
``canonical_rep`` and, with the window, ``same_coset``.

This module owns the input rules.  ``_decimal`` reads decimal text of any
length, a token of :func:`parse` or a ``WREATH_CAP``.  ``_require_int``
(alpha, n, a cap), ``_require_color`` (a color, beta, a mark) and
``_require_permutation`` (a window, a matrix's rows) check parameters.
Every public entry point checks its arguments through them, so a value
that is not an int, or is a bool, is a :class:`ValidationError` like one
out of range.  An operand of another class is a ``TypeError``: the
products return ``NotImplemented``, and ``same_coset`` raises it.

Public construction is always checked: :func:`validate`, :func:`parse`, a
direct ``ColoredPermutation(...)``, the group product and the inverse.  The
private ``ColoredPermutation._trusted`` skips the check and is only for
fields known to be valid.  It builds the elements of the streams, the
reversal map's images, canonical representatives and the counterexamples
of the stream verifiers.
"""
from __future__ import annotations

__all__ = ["ColoredPermutation", "GenPermMatrix", "ValidationError",
           "color_shift_generator", "identity", "parse", "validate"]


class ValidationError(ValueError):
    """Malformed element data or mismatched group parameters."""


def _is_int(value) -> bool:
    """An int that is not a bool: a float, or True and False, would compare
    equal to a valid entry and slip past the value checks."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shown(value, form=repr) -> str:
    """``form(value)`` for an error message, kept short: a str is cut at 40
    characters, and where ``form`` would convert an int past the
    interpreter's int-str digit limit (4,300 digits by default), the int is
    named by its bit length and any other value by its type.  The CLI lifts
    that limit, so there every value but a long str prints in full."""
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:40]!r}..."
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int of too many digits>"


def _decimal(text: str) -> int:
    """``int(text)`` for a decimal str of any length, by int's own rule:
    decimal digits, single underscores between them, a sign and whitespace
    around.  The digits are read in pieces of 640, the lowest int-str digit
    limit the interpreter allows, so its limit is left as it is."""
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    body = body[1:] if body[:1] in ("+", "-") else body
    digits = body.replace("_", "")
    if not digits.isdecimal() or "__" in body or "_" in (body[0], body[-1]):
        raise ValueError("not a decimal integer")
    value = 0
    for start in range(0, len(digits), 640):
        piece = digits[start:start + 640]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def _require_int(name: str, value, low: int) -> None:
    """``value`` is an int, not a bool, and at least ``low``."""
    if not _is_int(value) or value < low:
        raise ValidationError(f"{name} must be >= {low}, got {_shown(value)}")


def _require_color(name: str, value, alpha: int) -> None:
    """``value`` is an int, not a bool, in 0..alpha-1."""
    if not _is_int(value) or not 0 <= value < alpha:
        raise ValidationError(
            f"{name} {_shown(value)} out of range for alpha={_shown(alpha)}")


def _as_tuple(name: str, value) -> tuple:
    """``value`` as a tuple; a value that is not iterable is rejected."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{name} {_shown(value)} is not a sequence") from None


def _require_permutation(name: str, values) -> None:
    """``values`` are ints, not bools, that permute 1..len(values).  The
    message is formatted only on failure."""
    n = len(values)
    if not all(map(_is_int, values)) or sorted(values) != list(range(1, n + 1)):
        raise ValidationError(
            f"{name} {_shown(tuple(values))} is not a permutation of 1..{n}")


def _shift_colors(alpha: int, colors: tuple, shift: int) -> tuple:
    """The constant color shift: every color plus ``shift``, mod alpha."""
    return tuple([(c + shift) % alpha for c in colors])


def _canonical_colors(alpha: int, colors: tuple) -> tuple:
    """The coset representative's colors: a shift by minus the last color."""
    return _shift_colors(alpha, colors, -colors[-1])


class _Record:
    """Immutable value whose ``__slots__`` name its fields in order.
    ``_Record.__init__`` sets them, in that order, through
    ``object.__setattr__``, since assignment is refused; a subclass checks
    its input, if it takes any, and then calls it.  Two paths set the slots
    directly.  ``ColoredPermutation._trusted`` runs once per element of the
    public streams (``iterate_*``); no CLI command walks them, but through
    ``__init__`` a walk of the (3, 6) full group took 2.7 times as long,
    and through the checked constructor about 12 times (2.5 s against
    0.21 s, Python 3.11.7, 2 CPUs), which also took tier-1's four
    stream-heavy modules from 26-29 s to 40-44 s.
    ``IntPolynomial.__init__`` runs once per polynomial built or analyzed,
    and stores a plain tuple like every checked constructor.  Equality
    (same class only), hash, repr, ``match`` and pickling read the fields;
    unpickling and ``copy`` rerun ``__init__``."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class ColoredPermutation(_Record):
    """An element of Z_alpha wr S_n.

    ``window`` is the underlying permutation of {1..n} in one-line notation;
    ``colors`` assigns each position a color in {0..alpha-1}.  Constructing
    one checks both, and that alpha and every entry is an int (not a bool);
    only ``_trusted`` skips that, for tuples derived from elements already
    known to be valid.
    """

    __slots__ = ("alpha", "window", "colors")

    def __init__(self, alpha: int, window: tuple[int, ...],
                 colors: tuple[int, ...]) -> None:
        window = _as_tuple("window", window)
        colors = _as_tuple("colors", colors)
        _require_int("alpha", alpha, 1)
        n = len(window)
        if n < 1:
            raise ValidationError("window must be nonempty")
        if len(colors) != n:
            raise ValidationError(
                f"window has {n} entries but colors has {len(colors)}")
        _require_permutation("window", window)
        for c in colors:
            _require_color("color", c, alpha)
        super().__init__(alpha, window, colors)

    @classmethod
    def _trusted(cls, alpha: int, window: tuple[int, ...],
                 colors: tuple[int, ...]) -> "ColoredPermutation":
        """Unchecked construction.  The caller guarantees that ``window`` is
        a tuple permuting 1..n and ``colors`` a tuple of n colors in
        0..alpha-1, as when both are derived from a valid element."""
        w = object.__new__(cls)
        _set_alpha(w, alpha)
        _set_window(w, window)
        _set_colors(w, colors)
        return w

    @property
    def n(self) -> int:
        return len(self.window)

    def __str__(self) -> str:
        return " ".join(f"{w}^{c}" for w, c in zip(self.window, self.colors))

    def _check_compatible(self, other: "ColoredPermutation") -> None:
        if self.alpha != other.alpha:
            raise ValidationError(
                f"alpha mismatch: {_shown(self.alpha)} vs {_shown(other.alpha)}")
        if self.n != other.n:
            raise ValidationError(f"size mismatch: {self.n} vs {other.n}")

    def __mul__(self, other: "ColoredPermutation") -> "ColoredPermutation":
        """Group product: entry i of ``self * other`` is self applied to
        other's i-th entry, with other's color added to the color self
        carries at that entry (mod alpha)."""
        if not isinstance(other, ColoredPermutation):
            return NotImplemented
        self._check_compatible(other)
        w, c, a = self.window, self.colors, self.alpha
        window = tuple(w[y - 1] for y in other.window)
        colors = tuple((d + c[y - 1]) % a
                       for y, d in zip(other.window, other.colors))
        return ColoredPermutation(a, window, colors)

    def inverse(self) -> "ColoredPermutation":
        n, a = self.n, self.alpha
        pos = [0] * n
        for idx, v in enumerate(self.window):
            pos[v - 1] = idx + 1
        window = tuple(pos)
        colors = tuple((-self.colors[p - 1]) % a for p in pos)
        return ColoredPermutation(a, window, colors)

    def to_matrix(self) -> "GenPermMatrix":
        """Generalized permutation matrix: column j carries root-of-unity
        exponent c_j at row w_j."""
        entries = tuple(zip(self.window, self.colors))
        return GenPermMatrix(self.alpha, self.n, entries)

    def canonical_rep(self) -> "ColoredPermutation":
        """The coset representative under constant color shifts with last
        color 0.  Idempotent."""
        return ColoredPermutation._trusted(
            self.alpha, self.window, _canonical_colors(self.alpha, self.colors))

    def same_coset(self, other: "ColoredPermutation") -> bool:
        """True iff the two elements differ by a constant color shift."""
        if not isinstance(other, ColoredPermutation):
            raise TypeError(f"not a ColoredPermutation: {type(other).__name__}")
        self._check_compatible(other)
        a = self.alpha
        return (self.window == other.window and
                _canonical_colors(a, self.colors) == _canonical_colors(a, other.colors))

    def is_quotient_rep(self) -> bool:
        """True iff the last color is 0."""
        return self.colors[-1] == 0


# A slot's own descriptor sets it past the frozen __setattr__, at half the
# cost of object.__setattr__.
_set_alpha = ColoredPermutation.alpha.__set__
_set_window = ColoredPermutation.window.__set__
_set_colors = ColoredPermutation.colors.__set__


class GenPermMatrix(_Record):
    """n x n generalized permutation matrix with root-of-unity entries.

    Stored exactly: ``entries[j]`` is the pair (row, exponent) of the single
    nonzero entry zeta^exponent in column j+1, each entry a tuple whatever
    sequence it was given as.  The root of unity is never evaluated;
    products are exponent additions mod alpha.
    """

    __slots__ = ("alpha", "size", "entries")

    def __init__(self, alpha: int, size: int,
                 entries: tuple[tuple[int, int], ...]) -> None:
        entries = _as_tuple("entries", entries)
        _require_int("alpha", alpha, 1)
        _require_int("size", size, 1)
        if len(entries) != size:
            raise ValidationError("one entry required per column")
        entries = tuple([_as_tuple("entry", entry) for entry in entries])
        for entry in entries:
            if len(entry) != 2:
                raise ValidationError(f"entry {_shown(entry)} is not a (row, exponent) pair")
        _require_permutation("rows", [r for r, _ in entries])
        for _, e in entries:
            _require_color("exponent", e, alpha)
        super().__init__(alpha, size, entries)

    def __mul__(self, other: "GenPermMatrix") -> "GenPermMatrix":
        if not isinstance(other, GenPermMatrix):
            return NotImplemented
        if self.alpha != other.alpha or self.size != other.size:
            raise ValidationError("matrix parameter mismatch")
        a = self.alpha
        entries = []
        for rb, eb in other.entries:
            ra, ea = self.entries[rb - 1]
            entries.append((ra, (ea + eb) % a))
        return GenPermMatrix(a, self.size, tuple(entries))


def validate(alpha: int, window, colors) -> ColoredPermutation:
    """Build a checked ColoredPermutation from raw input."""
    return ColoredPermutation(alpha, window, colors)


def identity(alpha: int, n: int) -> ColoredPermutation:
    """The identity element 1^0 2^0 ... n^0."""
    _require_int("n", n, 1)
    return ColoredPermutation(alpha, tuple(range(1, n + 1)), (0,) * n)


def color_shift_generator(alpha: int, n: int) -> ColoredPermutation:
    """The identity permutation with all colors 1; generates the central
    subgroup of constant color shifts (order alpha)."""
    _require_int("n", n, 1)
    # Checked here, before 1 % alpha can divide by zero or by a non-int.
    _require_int("alpha", alpha, 1)
    return ColoredPermutation(alpha, tuple(range(1, n + 1)), (1 % alpha,) * n)


def parse(alpha: int, text: str) -> ColoredPermutation:
    """Parse one-line colored notation, e.g. ``4^1 1^1 3^2 2^0``."""
    window, colors = [], []
    tokens = text.split()
    if not tokens:
        raise ValidationError("empty element text")
    for tok in tokens:
        value, sep, color = tok.partition("^")
        if not sep:
            raise ValidationError(f"token {_shown(tok)} is missing a color (w^c)")
        try:
            window.append(_decimal(value))
            colors.append(_decimal(color))
        except ValueError:
            raise ValidationError(f"token {_shown(tok)} is not of the form w^c") from None
    return ColoredPermutation(alpha, tuple(window), tuple(colors))
