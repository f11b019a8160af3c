"""Drift of the engine and learner across OpenBLAS kernels.

OpenBLAS picks its kernel when numpy loads, so each kernel gets its own
subprocess: once with the build's default and once with
``OPENBLAS_CORETYPE`` forcing an older one.  The selections are integer
row lists and must not move; the controls and wealth come from BLAS sums
taken in another order, so they may move in the last bits, within the
bounds below.  ``OPENBLAS_VERBOSE=2`` prints the kernel each run got.
"""

import os
import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import REPO_ROOT

FORCED = "Nehalem"  # SSE4.2 only: a kernel every current x86-64 CPU runs

# Measured against SkylakeX on SDC3 10 x 300: controls 3.0e-8 apart, portfolio
# wealth 1.5e-9 and agent wealth 5.8e-9 relative.  The controls bound is the
# benchmark's one-agent tolerance (PATH_TOL in benchmarks/checks.py).
CONTROLS_ATOL = 1e-6
WEALTH_RTOL = 1e-7

SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from zeroport import synth
    from zeroport.learner import MODES, run_backtest
    from zeroport.patterns import MatchConfig, PatternAgents, agent_grid

    x = synth.generate(synth.SynthSpec(case="SDC3", assets=10, periods=300, seed=11)).values
    engine = PatternAgents(agent_grid(5, 10), 10, config=MatchConfig(rule="gyorfi_nn"))
    stacks = engine.controls_series(x, MODES)
    out = {}
    for mode in MODES:
        track = run_backtest(x, stacks[mode], mode)
        out.update({f"{mode}_controls": stacks[mode], f"{mode}_wealth": track.wealth,
                    f"{mode}_agents": track.agent_wealth})
    rows = [rows for t in (40, 150, 299) for group in engine._groups[0].values()
            for rows in engine._group_selections(np.ascontiguousarray(x[:t]), group)]
    np.savez(sys.argv[1], selected=np.concatenate(rows), lengths=[len(r) for r in rows], **out)
""")


def _run(path, coretype=None):
    """The outputs of SCRIPT and the kernel OpenBLAS reported for the run."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    core = re.search(r"^Core: (\S+)", proc.stdout + proc.stderr, re.MULTILINE)
    return np.load(path), core and core.group(1)


def test_selections_equal_and_drift_bounded_across_kernels(tmp_path):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86-64 kernels; this machine is "
                    f"{platform.machine()}")
    default, default_core = _run(tmp_path / "default.npz")
    if default_core is None:
        pytest.skip("numpy's BLAS printed no 'Core:' line: not an OpenBLAS that reports "
                    "its kernel")
    if default_core == FORCED:
        pytest.skip(f"the default kernel is already {FORCED}")
    forced, forced_core = _run(tmp_path / "forced.npz", FORCED)
    if forced_core != FORCED:
        pytest.skip(f"OPENBLAS_CORETYPE={FORCED} ran the {forced_core} kernel: this "
                    "OpenBLAS build ignores it (no DYNAMIC_ARCH)")

    for name in ("selected", "lengths"):
        assert default[name].tobytes() == forced[name].tobytes(), name
    for mode in ("absolute", "active"):
        np.testing.assert_allclose(forced[f"{mode}_controls"], default[f"{mode}_controls"],
                                   rtol=0, atol=CONTROLS_ATOL, err_msg=mode)
        for name in ("wealth", "agents"):
            key = f"{mode}_{name}"
            np.testing.assert_allclose(forced[key], default[key], rtol=WEALTH_RTOL, atol=0,
                                       err_msg=key)
