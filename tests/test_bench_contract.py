"""The benchmark's hooks into the package still fit it.

``benchmarks/`` wraps public functions by name and calls a few engine
internals (``_group_selections``, ``_stable_smallest``); a refactor that
renames or reshapes them would break the benchmark without failing any
other test.  This runs the benchmark's tracer and engine checks on a small
input, and the benchmark's own self-test, which shows that its checks can
still fail.
"""

import subprocess
import sys

import numpy as np
import pytest

from zeroport import fundsep, learner, patterns, synth
from zeroport.patterns import MatchConfig, PatternAgents, agent_grid
from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import checks  # noqa: E402
import tracing  # noqa: E402

MODES = ("absolute", "active")
PERIODS = 60


@pytest.fixture
def market():
    return synth.generate(synth.SynthSpec(case="SDC3", assets=4, periods=PERIODS, seed=4)).values


def test_benchmark_selftest_passes():
    # Every clean tiny round passes its checks and every planted fault is caught.
    done = subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "selftest.py")],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "self-test passed" in done.stdout


def test_tracer_installs_counts_and_uninstalls(market):
    engine = PatternAgents(agent_grid(3, 4), 4, config=MatchConfig(rule="gyorfi_nn"))
    originals = (patterns.PatternAgents.controls_series, fundsep.fund_solution,
                 patterns.sample_moments, learner.run_backtest)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        stacks = engine.controls_series(market, MODES)
        learner.run_backtest(market, stacks["absolute"], "absolute")
        tracer.op = None
    finally:
        tracer.uninstall()
    assert (patterns.PatternAgents.controls_series, fundsep.fund_solution,
            patterns.sample_moments, learner.run_backtest) == originals
    counts = tracer.counts[0]
    assert counts["patterns.agent_periods"] == PERIODS * engine.n_agents
    assert counts["patterns.sample_moments_calls"] == 0
    assert counts["fundsep.batches"] >= 1
    assert counts["learner.periods"] == PERIODS
    names = {span[0] for span in tracer.spans}
    assert {"patterns.controls_series", "fundsep.fund_solution",
            "learner.run_backtest"} <= names


@pytest.mark.parametrize("rule", ["trivial", "gyorfi_nn"])
def test_engine_checks_pass(market, rule):
    def make_engine():
        return PatternAgents(agent_grid(3, 4), 4, config=MatchConfig(rule=rule))

    stacks = make_engine().controls_series(market, MODES)
    tracks = {mode: learner.run_backtest(market, stacks[mode], mode) for mode in MODES}
    ck = checks.Checks(rule)
    checks.check_engine(ck, market, make_engine, stacks, tracks, [8, 30, PERIODS - 1])
    assert ck.ok, ck.failures
    assert np.all(np.isfinite(stacks["active"]))


@pytest.mark.parametrize("rule", ["trivial", "gyorfi_nn"])
def test_series_selects_through_stable_smallest(market, monkeypatch, rule):
    # benchmarks/selftest.py injects its engine fault at patterns._stable_smallest;
    # every live (period, tau, k) group of a trivial-partition series must pass
    # through it once, as a 1-D row or as one row of a 2-D block.
    rows = []
    original = patterns._stable_smallest

    def counted(scores, n_smallest):
        rows.extend([scores.shape[-1]] * (scores.shape[0] if scores.ndim == 2 else 1))
        return original(scores, n_smallest)

    monkeypatch.setattr(patterns, "_stable_smallest", counted)
    clusters = patterns.ClusterMap(members=((0, 1), (2, 3)), names=("A", "B"))
    specs = agent_grid(3, 4, n_clusters=2, horizons=(1, 2))
    engine = PatternAgents(specs, 4, clusters=clusters, config=MatchConfig(rule=rule))
    engine.controls_series(market, MODES)
    live = sum(1 for spec in specs if spec.ell == 1
               for t in range(PERIODS) if t - spec.tau - spec.k + 1 > 0)
    assert len(rows) == live
    assert all(n > 0 for n in rows)
