"""The console script's declared target.

``tests/test_installed.py`` checks the command as a user runs it; CI runs
it on the console script that pip installed.
"""
from __future__ import annotations

import importlib
import os

import pytest

from wreath_eulerian import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_console_script_is_cli_run():
    # The workflow's installed script is the only run of this entry; here
    # the declared target is read and resolved instead.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["wreath-eulerian"]
    assert target == "wreath_eulerian.cli:run"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
