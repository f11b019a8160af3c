"""zeroport benchmark: seeded workloads through the public API and CLI.

    python3 benchmarks/run.py --workload battery --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One run builds its inputs from ``--seed`` (set-up, timed several times),
then repeats rounds of the workload's operations until the next round would
end past ``--seconds`` of operation time; every round is checked against
independent computations after it ends, outside every timer.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced (``--trace 0``)
or the per-layer metrics from wrapped public functions (``--trace 1``).
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("battery", "long_history", "intraday_cli")
SETUP_REPEATS = 3


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(_spec()["run_seconds"]),
                        help="operation time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "zeroport" / "__init__.py").is_file():
        print(f"benchmark: no zeroport sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed with the program's imports)
    import zeroport
    import workloads
    from checks import Checks
    import_s = time.perf_counter() - t0
    if Path(zeroport.__file__).resolve().parent != SRC / "zeroport":
        print(f"benchmark: zeroport imported from {zeroport.__file__}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            if tracer is not None and i == SETUP_REPEATS - 1:
                tracer.op = tracing.SETUP
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.op = None

        # elapsed: every round, for the run length; rounds: those that
        # returned, the only ones timed; completed: their round numbers.
        elapsed, rounds, completed, attempted, raised, failures = [], [], [], 0, 0, []
        while not elapsed or sum(elapsed) + elapsed[-1] <= args.seconds:
            gc.collect()
            if tracer is not None:
                tracer.op = len(elapsed)
            start = time.perf_counter()
            try:
                out = wl.run_round()
            except Exception:  # an operation that raises is a failed one
                out = None
                traceback.print_exc()
            elapsed.append(time.perf_counter() - start)
            attempted += len(wl.ops)
            if tracer is not None:
                if out is not None:
                    tracer.count("run.artifact_bytes", wl.artifact_bytes(out))
                tracer.op = None
            if len(elapsed) == 1:  # before any check: the program's own peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if out is None:
                raised += len(wl.ops)
                continue
            rounds.append(elapsed[-1])
            completed.append(len(elapsed) - 1)
            try:
                results = wl.check_round(out, len(rounds) - 1)
            except Exception:
                results = [Checks(f"{op}") for op in wl.ops]
                for ck in results:
                    ck.expect(False, traceback.format_exc())
            del out
            failures += [ck for ck in results if not ck.ok]
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.cleanup()

    for ck in failures:
        for what in ck.failures:
            print(f"FAILED {args.workload} {ck.label}: {what}", file=sys.stderr)
    ops_per_round = len(wl.ops)
    failed = raised + len(failures)
    if not rounds:
        print(f"benchmark: every round of {args.workload} raised ({failed} of {attempted} "
              "operations); no metric to report", file=sys.stderr)
        return 1
    measured = sum(rounds)
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "agent_periods_per_s": wl.agent_periods_per_round * len(rounds) / measured,
            "op_p50_s": statistics.median(rounds) / ops_per_round,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = tracer.layer_metrics(completed, ops_per_round, measured)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    units = _declared(args.trace)
    if set(metrics) != set(units):
        print(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} not declared as in "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(elapsed)} "
          f"operations/round={ops_per_round} measured_s={measured:.3f} "
          f"op_p50_s samples={len(rounds)} (one per round that returned; median only)")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"attempted={attempted} failed={failed} (raised {raised}, wrong outputs {len(failures)})")
    print(json.dumps({
        "correct": not failures and raised == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
