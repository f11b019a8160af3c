"""The fork pool and its engine callers: results do not depend on the
worker count, errors keep their type, and the in-process rules hold."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest
import yaml

from zeroport import cli, forkpool, synth
from zeroport.learner import BankruptcyError
from zeroport.patterns import ClusterMap, MatchConfig, PatternAgents, agent_grid

from conftest import REPO_ROOT

CLUSTERS = ClusterMap(members=((0, 1, 2), (3, 4, 5)), names=("L", "R"))


def _history(periods, assets=6):
    return synth.generate(synth.SynthSpec(case="SDC3", assets=assets, periods=periods,
                                          seed=9)).values


def _engine(rule="trivial", partition="trivial", windows=3, levels=4):
    specs = agent_grid(windows, levels, n_clusters=2, horizons=(1, 2))
    return PatternAgents(specs, 6, clusters=CLUSTERS,
                         config=MatchConfig(rule=rule, partition=partition))


@pytest.fixture
def block_pids(monkeypatch, tmp_path):
    """Record the pid of every process that solves a block."""
    path, solve = tmp_path / "pids", PatternAgents._solve_block

    def recording(engine, *args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(engine, *args)

    monkeypatch.setattr(PatternAgents, "_solve_block", recording)
    return lambda: [int(pid) for pid in path.read_text().split()]


@pytest.mark.parametrize("rule, partition", [
    ("trivial", "trivial"), ("gyorfi_nn", "trivial"), ("trivial", "overlapping"),
])
def test_series_bytes_do_not_depend_on_workers(monkeypatch, rule, partition):
    x = _history(400)  # 2 clusters x 13 blocks: 3 workers at 8 blocks each
    got, counts = [], []
    for cores in (1, 2, 3):
        monkeypatch.setattr(forkpool, "usable_cores", lambda: cores)
        engine = _engine(rule, partition)
        stacks = engine.controls_series(x)
        got.append(b"".join(stacks[mode].tobytes() for mode in ("absolute", "active")))
        counts.append(engine.fallback_count)
    assert got[0] == got[1] == got[2]
    assert counts[0] == counts[1] == counts[2] > 0
    assert multiprocessing.active_children() == []


def test_series_blocks_run_in_workers(monkeypatch, block_pids):
    monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
    _engine().controls_series(_history(400))
    pids = block_pids()
    assert len(pids) == 26 and os.getpid() not in pids


def test_few_blocks_stay_in_process(monkeypatch, block_pids):
    monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
    _engine().controls_series(_history(224))  # 2 clusters x 7 blocks: under 8 per worker
    assert set(block_pids()) == {os.getpid()}


def test_numeric_bytes_do_not_depend_on_workers(monkeypatch):
    x = _history(50)
    got = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(forkpool, "usable_cores", lambda: cores)
        got.append(_engine(windows=2, levels=3).controls_numeric(x).tobytes())
    assert got[0] == got[1] == got[2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("blocker", ["parent_process", "thread"])
def test_in_process_inside_a_worker_or_beside_a_thread(monkeypatch, block_pids, blocker):
    monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if blocker == "parent_process":  # as seen from inside a forked worker
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    else:
        other.start()
    try:
        assert forkpool.worker_count(100) == 1
        _engine().controls_series(_history(400))
    finally:
        release.set()
        if other.is_alive():
            other.join(timeout=10)
    assert set(block_pids()) == {os.getpid()}


def test_worker_error_keeps_its_type(monkeypatch):
    def fail(engine, *args):
        raise LookupError(os.getpid())

    monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
    monkeypatch.setattr(PatternAgents, "_solve_block", fail)
    with pytest.raises(LookupError) as excinfo:
        _engine().controls_series(_history(400))
    assert excinfo.value.args[0] != os.getpid()
    assert multiprocessing.active_children() == []


def test_closing_early_leaves_no_worker():
    results = forkpool.imap(abs, [-1, -2, -3, -4], 2)
    assert next(results) == 1
    results.close()
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="parent-death signal is Linux's")
def test_killed_parent_leaves_no_worker():
    script = textwrap.dedent("""
        import multiprocessing, os, threading, time
        from zeroport import forkpool

        main = threading.get_ident()
        os.register_at_fork(before=lambda: print("fork from calling thread",
                                                 threading.get_ident() == main, flush=True))

        def task(i):
            if i:
                time.sleep(120)

        for _ in forkpool.imap(task, range(4), 2):
            print("workers", *(p.pid for p in multiprocessing.active_children()), flush=True)
    """)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              text=True, env=env)
    pids = []
    stuck = threading.Timer(60, parent.kill)  # ends the reads below if the script hangs
    stuck.start()
    try:
        lines = [parent.stdout.readline() for _ in range(3)]
        assert lines[:2] == ["fork from calling thread True\n"] * 2
        pids = [int(pid) for pid in lines[2].split()[1:]]
        assert len(pids) == 2
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        stuck.cancel()
        stuck.join(timeout=10)
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_engine_worker_bankruptcy_exit_four(tmp_path, monkeypatch, capsys):
    """A BankruptcyError raised in a block's worker reaches the CLI as exit 4."""
    def ruin(engine, *args):
        raise BankruptcyError(3, f"pid {os.getpid()}", -0.1)

    monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
    monkeypatch.setattr(PatternAgents, "_solve_block", ruin)
    doc = yaml.safe_load((REPO_ROOT / "configs" / "synth_run.yaml").read_text())
    doc["data"]["periods"] = 520  # 17 blocks: two workers
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = cli.main(["run", str(config)])
    err = capsys.readouterr().err
    assert code == 4
    assert "bankruptcy: pid " in err and f"pid {os.getpid()} " not in err
    assert multiprocessing.active_children() == []

