"""The contract of the six immutable value classes: equality within one
class, hash, repr, refused assignment, keyword construction, pickling and
copying, and positional ``match``."""
import collections
import copy
import pickle

import pytest

from wreath_eulerian import (
    ColoredPermutation,
    ColorSequence,
    GenPermMatrix,
    IntPolynomial,
    StatReport,
    Verification,
    is_palindromic,
)

ELEMENT = ColoredPermutation(2, (2, 1), (1, 0))

# (class, fields, make a value, make a different value of the same class,
#  the value's repr)
RECORDS = [
    (ColoredPermutation, ("alpha", "window", "colors"),
     lambda: ColoredPermutation(3, (2, 1, 3), (1, 0, 2)),
     lambda: ColoredPermutation(3, (2, 1, 3), (1, 0, 0)),
     "ColoredPermutation(alpha=3, window=(2, 1, 3), colors=(1, 0, 2))"),
    (GenPermMatrix, ("alpha", "size", "entries"),
     lambda: GenPermMatrix(2, 2, ((2, 1), (1, 0))),
     lambda: GenPermMatrix(2, 2, ((1, 1), (2, 0))),
     "GenPermMatrix(alpha=2, size=2, entries=((2, 1), (1, 0)))"),
    (IntPolynomial, ("coefficients",),
     lambda: IntPolynomial((1, 2, 1)),
     lambda: IntPolynomial((1, 2, 1, 0)),
     "IntPolynomial(coefficients=(1, 2, 1))"),
    (ColorSequence, ("alpha", "colors"),
     lambda: ColorSequence(3, (0, 2, 1)),
     lambda: ColorSequence(4, (0, 2, 1)),
     "ColorSequence(alpha=3, colors=(0, 2, 1))"),
    (StatReport, ("alpha", "n", "statistic", "domain", "polynomial"),
     lambda: StatReport(2, 2, "flag", "quotient", IntPolynomial((1, 2, 1))),
     lambda: StatReport(2, 2, "flag", "full", IntPolynomial((1, 2, 1))),
     "StatReport(alpha=2, n=2, statistic='flag', domain='quotient', "
     "polynomial=IntPolynomial(coefficients=(1, 2, 1)))"),
    (Verification, ("ok", "description", "counterexample"),
     lambda: Verification(True, "x"),
     lambda: Verification(False, "x", ELEMENT),
     "Verification(ok=True, description='x', counterexample=None)"),
]
IDS = [record[0].__name__ for record in RECORDS]


def positional(value):
    """The fields of ``value`` read back by a positional class pattern."""
    match value:
        case ColoredPermutation(alpha, window, colors):
            return alpha, window, colors
        case GenPermMatrix(alpha, size, entries):
            return alpha, size, entries
        case IntPolynomial(coefficients):
            return (coefficients,)
        case ColorSequence(alpha, colors):
            return alpha, colors
        case StatReport(alpha, n, statistic, domain, polynomial):
            return alpha, n, statistic, domain, polynomial
        case Verification(ok, description, counterexample):
            return ok, description, counterexample
    raise AssertionError(f"no pattern matched {value!r}")


@pytest.mark.parametrize("cls,fields,make,other,text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_equal_values_hash_equal(self, cls, fields, make, other, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other() and not a == other()
        assert len({a, b, other()}) == 2

    def test_no_equality_across_classes(self, cls, fields, make, other, text):
        value = make()
        for _, _, make_other, _, _ in RECORDS:
            if make_other is not make:
                assert value != make_other()
        assert value != tuple(getattr(value, name) for name in fields)
        assert value.__eq__(object()) is NotImplemented

    def test_repr(self, cls, fields, make, other, text):
        assert repr(make()) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, make, other,
                                                  text):
        value = make()
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, before)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
            assert getattr(value, name) == before
        assert value == make()

    def test_keyword_construction(self, cls, fields, make, other, text):
        value = make()
        values = {name: getattr(value, name) for name in fields}
        assert cls(**values) == value
        assert cls(*values.values()) == value

    @pytest.mark.parametrize("round_trip", [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"])
    def test_round_trip(self, cls, fields, make, other, text, round_trip):
        for value in (make(), other()):
            restored = round_trip(value)
            assert type(restored) is cls
            assert restored == value and hash(restored) == hash(value)

    def test_positional_match(self, cls, fields, make, other, text):
        value = make()
        assert cls.__match_args__ == fields
        assert positional(value) == tuple(getattr(value, name) for name in fields)


def test_checked_constructors_store_plain_tuples():
    class Row(tuple):
        pass

    Coefficients = collections.namedtuple("Coefficients", "a b c")
    w = ColoredPermutation(2, Row((2, 1)), Row((1, 0)))
    m = GenPermMatrix(2, 2, Row((Row((2, 1)), Row((1, 0)))))
    s = ColorSequence(3, Row((0, 2, 1)))
    p = IntPolynomial(Row((1, 2, 1)))
    q = IntPolynomial(Coefficients(1, 2, 1))
    assert type(w.window) is tuple and type(w.colors) is tuple
    assert type(m.entries) is tuple and {type(e) for e in m.entries} == {tuple}
    assert type(s.colors) is tuple
    assert type(p.coefficients) is tuple and type(q.coefficients) is tuple
    assert (w, m, s, p, q) == (ELEMENT, GenPermMatrix(2, 2, ((2, 1), (1, 0))),
                               ColorSequence(3, (0, 2, 1)), IntPolynomial((1, 2, 1)),
                               IntPolynomial((1, 2, 1)))
    # A namedtuple leaves no trace in the repr or in a copy.
    for copied in (copy.copy(q), pickle.loads(pickle.dumps(q))):
        assert type(copied.coefficients) is tuple
    assert repr(q) == "IntPolynomial(coefficients=(1, 2, 1))"

    # Nor does a subclass's own equality reach the shape predicates.
    class Unequal(tuple):
        def __eq__(self, other):
            return False

    assert is_palindromic(IntPolynomial(Unequal((1, 2, 1))))


def test_verification_counterexample_defaults_to_none():
    assert Verification(True, "x").counterexample is None
    assert Verification(ok=False, description="y",
                        counterexample=ELEMENT).counterexample == ELEMENT
