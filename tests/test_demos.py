"""The quick demos run to completion against the current API, from a
working directory outside the repository, so none depends on it.

Left out: ``frictions_and_timing.py`` (minutes of numeric solves),
``synthetic_battery.py`` and ``nyse_table.py`` (they write ``demos/out/``, the
latter when the NYSE data is present).
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

QUICK_DEMOS = ("fund_separation", "learning_rules", "market_data", "pattern_matching",
               "universal_portfolio")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
