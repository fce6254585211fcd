"""Shared oracles for the test suite.

The streaming distribution here deliberately goes element by element through
the public iterators and statistic functions; it is the independent route
checked against the aggregated polynomial builders.
"""
from __future__ import annotations

import sys

import pytest

from wreath_eulerian import (
    colored_descent_count,
    flag_descent,
    iterate_fixed_last_color,
    iterate_full_group,
)
from wreath_eulerian.core import _decimal


def stream_distribution(alpha: int, n: int, statistic: str,
                        domain: str, beta: int = 0) -> tuple[int, ...]:
    """Coefficient vector computed one element at a time."""
    if domain == "full":
        elements = iterate_full_group(alpha, n)
    elif domain == "quotient":
        elements = iterate_fixed_last_color(alpha, n, 0)
    else:
        elements = iterate_fixed_last_color(alpha, n, beta)
    stat = flag_descent if statistic == "flag" else colored_descent_count
    counts: dict[int, int] = {}
    for w in elements:
        k = stat(w)
        counts[k] = counts.get(k, 0) + 1
    degree = max(counts)
    return tuple(counts.get(k, 0) for k in range(degree + 1))


def record(monkeypatch, owner, name):
    """Swaps ``owner.name`` for a wrapper that calls it and appends
    ``(args, result)`` to the list it returns: how a test pins which private
    step a route takes, and with what."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def refuse(reason):
    """A stand-in that raises ``AssertionError(reason)`` when called: how a
    test pins a step that a route must not take."""
    def refused(*args):
        raise AssertionError(reason)

    return refused


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4,300 digits on int-str conversion for the
    test, restored after it.  The CLI lifts the limit for its process, so
    without this an earlier in-process run would hide a conversion past it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def decimal_and_int(text: str) -> tuple:
    """``(_decimal(text), int(text))``, each ValueError where it refuses
    the text.  ``_decimal`` reads under the digit limit in force, and
    ``int`` with the limit lifted, so that it reads any length."""
    try:
        got = _decimal(text)
    except ValueError:
        got = ValueError
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = int(text)
    except ValueError:
        want = ValueError
    finally:
        sys.set_int_max_str_digits(before)
    return got, want
