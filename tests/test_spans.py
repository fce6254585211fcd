"""The benchmark's span hooks, installed on the program in the suite.

``perfbench/spans.py`` rebinds names on ``cli`` and ``enumeration`` after
import, among them ``enumeration``'s re-imported ``flag_descent``,
``reversal_map`` and ``colored_descent_count``, which that module does not
call itself.  Outside this test only ``python -m pytest perfbench``, which
is not part of the suite, runs the install.  ROADMAP item 19 deletes this
test along with ``spans.py``.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_spans_install_on_the_program(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src"),
         *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
