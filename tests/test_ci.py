"""The CI workflow's installed-script checks, run here against src/.

The workflow runs ``ci/installed.sh`` on the console script that pip
installed; this test runs the same file on the module entry point, so both
check the same bytes.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_installed_script_checks_pass_on_the_module_entry_point(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "WREATH_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    # The script's own `python -c` check must run this interpreter.
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    result = subprocess.run(
        ["bash", os.path.join(ROOT, "ci", "installed.sh"),
         sys.executable, "-m", "wreath_eulerian.cli"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert (tmp_path / "walk.txt").read_text().startswith("PASS ")
