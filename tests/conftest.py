"""Shared oracles and the child-process runner for the test suite.

The streaming distribution here deliberately goes element by element through
the public iterators and statistic functions; it is the independent route
checked against the aggregated polynomial builders.

Every child process starts through the ``cli`` fixture: the command under
test, ``python -m wreath_eulerian.cli`` over ``src/`` unless ``--cli``
names an installed one, or a ``python -c`` check in the same environment.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys

import pytest

from wreath_eulerian import (
    colored_descent_count,
    flag_descent,
    iterate_fixed_last_color,
    iterate_full_group,
)
from wreath_eulerian.core import _decimal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_addoption(parser):
    parser.addoption("--cli", type=shlex.split, default=None,
                     help="the installed command to check, such as wreath-eulerian; "
                          "by default python -m wreath_eulerian.cli over src/")


def child_env(installed: bool = False, **extra) -> dict:
    """The test's environment for a child: ``WREATH_CAP`` dropped, ``src/``
    first on ``PYTHONPATH`` unless an installed command is checked, then
    ``extra``."""
    env = {k: v for k, v in os.environ.items() if k != "WREATH_CAP"}
    if not installed:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return {**env, **extra}


class Runner:
    """Starts a child from ``cwd`` with text capture and a timeout, so an
    uncaught exception shows as a traceback on stderr.  ``env`` holds
    ``child_env``'s extras, ``memory`` caps the child's address space in
    bytes, and every other keyword goes to ``subprocess.run``."""

    def __init__(self, command: list, installed: bool, cwd) -> None:
        self.command, self.installed, self.cwd = command, installed, cwd

    def __call__(self, *argv, **options) -> subprocess.CompletedProcess:
        """The command under test on ``argv``."""
        return self.start([*self.command, *argv], **options)

    def python(self, code: str, *flags, **options) -> subprocess.CompletedProcess:
        """``python [flags] -c code``, this interpreter, in the same environment."""
        return self.start([sys.executable, *flags, "-c", code], **options)

    def start(self, args, env=None, memory=None, **options) -> subprocess.CompletedProcess:
        if memory is not None:
            import resource

            options["preexec_fn"] = lambda: resource.setrlimit(
                resource.RLIMIT_AS, (memory, memory))
        options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
                   "timeout": 60, **options}
        return subprocess.run(args, env=child_env(self.installed, **(env or {})),
                              cwd=self.cwd, **options)


@pytest.fixture
def cli(request, tmp_path):
    """The runner of the command under test, from an empty directory."""
    command = request.config.getoption("cli")
    return Runner(command or [sys.executable, "-m", "wreath_eulerian.cli"],
                  command is not None, tmp_path)


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
    test, restored after it, whatever limit the interpreter was started
    with (``PYTHONINTMAXSTRDIGITS``, ``-X int_max_str_digits``).  ``main``
    lifts the limit only while it runs, so the test sees the default on
    both sides of an in-process run."""
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
