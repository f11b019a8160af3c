"""Harness self-test: a corrupted output must make its check fail.

    python3 benchmarks/selftest.py

Runs every workload on tiny inputs and requires its checks to pass on the
clean outputs.  Then, one case at a time, it corrupts a single output (a
control row, a wealth entry, a p-value, an artifact) or injects a fault
into one program function, and requires the check named in the case to
report a failed operation.  A fault in the engine's partial sort stands
for a wrong change to the program: it is active while the damaged round
runs and while it is checked; a second case leaves it active only while
the round runs, so only the round's outputs are wrong.  A fault in
``patterns.match``, which no timed operation calls, is active only during
the checks.  Exits 0 when every corruption is caught and every clean
round passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from zeroport import patterns  # noqa: E402

WORKDIR = HERE / "out" / f"selftest-{os.getpid()}"


def tiny(name):
    make = {"battery": lambda: workloads.Battery(3, WORKDIR / "b", periods=80),
            "long_history": lambda: workloads.LongHistory(3, WORKDIR / "l", periods=160),
            "intraday_cli": lambda: workloads.IntradayCli(3, WORKDIR / "i", sessions=2)}
    return make[name]()


# -- corruptions: each takes (workload, round output) and damages the output ---


def agent_row(wl, out):
    stacks, _ = out
    t = wl.periods_to_check[0]
    stacks["absolute"][t, 7] = np.roll(stacks["absolute"][t, 7], 1)


def wealth_entry(wl, out):
    _, tracks = out
    tracks["active"].wealth[50] *= 1.0 + 1e-6


def mode_rule(wl, out):
    stacks, _ = out
    stacks["active"][20, 3, 0] += 0.01


def one_ulp(wl, out):
    stacks, _ = out
    t = wl.periods_to_check[-1]
    stacks["active"][t, 12, 4] = np.nextafter(stacks["active"][t, 12, 4], 2.0)


def p_value(wl, out):
    out["battery"]["absolute"]["SDC2"][0].p_values[1] += 1e-6


def best_stock(wl, out):
    out["triples"]["active"]["SDC3"][0].best_stock[-1] *= 1.0 + 1e-9


def batch_wealth(wl, out):
    case, s = wl.ops[wl.deep_op]
    out["triples"]["absolute"][case][wl.case_seeds.index(s)].portfolio[-1] *= 1.0 + 1e-12


def cross_cell(wl, out):
    out["cross"]["active"][1][0, 2] += 1e-6


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def agents_csv(wl, out):
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[100].split(",")
        cells[10] = repr(float(cells[10]) * (1.0 + 1e-9))
        lines[100] = ",".join(cells)
        return "".join(lines)
    _rewrite(out[2] / "agents.csv", edit)


def cleaning_count(wl, out):
    def edit(text):
        doc = json.loads(text)
        doc["total"] += 1
        return json.dumps(doc)
    _rewrite(out[2] / "cleaning_report.json", edit)


def net_wealth(wl, out):
    def edit(text):
        doc = json.loads(text)
        doc["frictions"]["terminal_wealth"] *= 1.0 + 1e-6
        return json.dumps(doc)
    _rewrite(out[2] / "summary.json", edit)


def exit_code(wl, out):
    return (3,) + tuple(out[1:])


# -- faults: each wraps a patterns function and is injected in one phase ------


def swapped_match(fn):
    """patterns.match returns its two nearest matches swapped."""
    def faulty(*args, **kwargs):
        res = fn(*args, **kwargs)
        times = res.times.copy()
        if times.size > 1:
            times[[0, 1]] = times[[1, 0]]
        return patterns.MatchResult(times=times, agent_tuple=res.agent_tuple)
    return faulty


def swapped_selection(fn):
    """The engine's partial sort returns its two nearest candidates swapped."""
    def faulty(scores, n_smallest):
        order = fn(scores, n_smallest).copy()
        if order.size > 1:
            order[[0, 1]] = order[[1, 0]]
        return order
    return faulty


FAULTS = {
    # name: (patterns attribute, wrapper, phases: "run" (the round) and/or "checks")
    "match": ("match", swapped_match, ("checks",)),
    "engine": ("_stable_smallest", swapped_selection, ("run", "checks")),
    "engine_in_round": ("_stable_smallest", swapped_selection, ("run",)),
}


@contextlib.contextmanager
def injected(fault, phase):
    """Replace the fault's patterns function while ``phase`` runs."""
    if fault not in FAULTS or phase not in FAULTS[fault][2]:
        yield
        return
    attr, wrap, _ = FAULTS[fault]
    original = getattr(patterns, attr)
    setattr(patterns, attr, wrap(original))
    try:
        yield
    finally:
        setattr(patterns, attr, original)


CASES = [
    # (workload, corruption, round it applies to, check expected to fire)
    ("long_history", agent_row, 0, "agent wealth differs from its replay"),
    ("long_history", agent_row, 0, "one-agent path differs"),
    ("long_history", wealth_entry, 0, "portfolio wealth differs from its replay"),
    ("long_history", mode_rule, 0, "break the mode rule"),
    ("long_history", one_ulp, 0, "differ from controls_multi"),
    ("long_history", agent_row, 1, "differ from the first round"),
    ("battery", best_stock, 1, "differ from the first round"),
    ("long_history", "match", 0, "matched times differ from the exhaustive scan"),
    ("long_history", "engine", 0, "engine selections differ from the exhaustive scan"),
    ("intraday_cli", "engine", 0, "engine selections differ from the exhaustive scan"),
    ("long_history", "engine_in_round", 0, "one-agent path differs"),
    ("battery", p_value, 0, ": p "),
    ("battery", p_value, 0, "mean p differs"),
    ("battery", best_stock, 0, "best-stock wealth"),
    ("battery", batch_wealth, 0, "not reproduced by the one-pass path"),
    ("battery", cross_cell, 0, "cross active"),
    ("intraday_cli", agents_csv, 0, "agents.csv not reproduced"),
    ("intraday_cli", cleaning_count, 0, "cleaning report counts"),
    ("intraday_cli", net_wealth, 0, "net terminal wealth"),
    ("intraday_cli", exit_code, 0, "exit code 3"),
    ("intraday_cli", agents_csv, 1, "artifacts differ from the first round"),
]


def run_case(name, corrupt, round_index):
    """The damaged round's per-operation checks."""
    wl = tiny(name)
    wl.setup()
    for index in range(round_index + 1):
        with injected(corrupt if index == round_index else None, "run"):
            out = wl.run_round()
        if index < round_index:
            failures = [f for ck in wl.check_round(out, index) for f in ck.failures]
            if failures:
                raise AssertionError(f"clean round of {name} failed: {failures}")
    if not isinstance(corrupt, str):
        out = corrupt(wl, out) or out
    with injected(corrupt, "checks"):
        results = wl.check_round(out, round_index)
    wl.cleanup()
    return results


def main() -> int:
    ok = True
    try:
        for name in workloads.WORKLOADS:
            results = run_case(name, lambda wl, out: None, 1)
            failures = [f for ck in results for f in ck.failures]
            ok &= not failures
            print(f"{'ok  ' if not failures else 'FAIL'} {name} clean: "
                  f"0/{len(results)} operations may fail, {len(failures)} did {failures[:2]}")
        for name, corrupt, round_index, expected in CASES:
            results = run_case(name, corrupt, round_index)
            failed = [ck for ck in results if not ck.ok]
            caught = any(expected in f for ck in failed for f in ck.failures)
            ok &= caught
            label = corrupt if isinstance(corrupt, str) else corrupt.__name__
            print(f"{'ok  ' if caught else 'FAIL'} {name} {label} (round {round_index}): "
                  f"{len(failed)}/{len(results)} operations failed, '{expected}' "
                  + ("reported" if caught else
                     f"missing; got {[f for ck in failed for f in ck.failures][:3]}"))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
