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

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_spans_install_on_the_program(cli):
    result = cli.python(f"import sys; sys.path.insert(0, {PERFBENCH!r}); "
                        "import spans; spans.install(spans.Tracer())", timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
