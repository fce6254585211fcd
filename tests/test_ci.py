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
    # the declared target is read and resolved instead.  The Python floor
    # is pinned too: cli.main lifts the int-str digit limit with no branch
    # for a Python before 3.10.7, which has none.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["requires-python"] == ">=3.10.7"
    target = project["scripts"]["wreath-eulerian"]
    assert target == "wreath_eulerian.cli:run"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
