"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 [--trace 0] [--json benchmarks/out/spread.json]

Runs ``run.py`` for ``run_seconds`` once per seed on every workload of
``BENCHMARK.json``, one process at a time, and prints per workload and
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the bound in ``BENCHMARK.json``.  The environment
(numpy and BLAS versions, BLAS threads, cores, git revision) is printed
first, for reference figures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy

    env = {"numpy": numpy.__version__, "cores": os.cpu_count(), "python": sys.version.split()[0]}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            env["blas_threads"] = getter()
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    env["git"] = proc.stdout.strip() or "unknown"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write every run's result here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(json.dumps(environment()))

    runs = {}
    for name in [w["name"] for w in spec["workloads"]]:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(name, []).append({"seed": seed, **result})
            print(f"{name} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    print("\n| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | bound | runs |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, results in runs.items():
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            print(f"| {name} | {metric} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {share:.4f} | {bounds.get(metric, '-')} | {len(values)} |")
        failed = {r["failed"] / r["attempted"] for r in results}
        print(f"| {name} | failed share | - | {sorted(failed)} | | | | | {len(results)} |")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
