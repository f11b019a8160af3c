"""Wall-clock comparison of the analytic and numeric control strategies.

Criterion c7 asserts the ordering this harness measures: the analytic
absolute and active maps against the numeric growth-optimal solver, each
strategy one full backtest whose controls come from one series call.
"""

import gc
import statistics
import time

import numpy as np

from zeroport.learner import run_backtest
from zeroport.patterns import MatchConfig, PatternAgents, agent_grid
from zeroport.run import GridConfig


class TimingOrderError(AssertionError):
    pass


def _run_strategy_once(x, specs, matching, strategy):
    engine = PatternAgents(specs, x.shape[1], config=matching)
    if strategy == "numeric":
        controls, mode = engine.controls_numeric(x), "absolute"
    else:
        controls, mode = engine.controls_series(x, (strategy,))[strategy], strategy
    return run_backtest(x, controls, mode, record_agents=False, label=strategy)


def timing_report(x, strategies=("absolute", "active"), repeats: int = 3,
                  grid: GridConfig = GridConfig(), matching: MatchConfig = MatchConfig(),
                  enforce_order: bool = False, warmup_periods: int | None = None) -> list:
    """Median wall-clock per strategy over interleaved repeated runs.

    Order of ``strategies`` fixes the expected cost ranking when
    ``enforce_order`` is set: each successive strategy's median must not be
    faster than its predecessor's.  Per-round spreads are reported, never
    asserted.  Every strategy gets one uncounted warmup run first (full
    length unless ``warmup_periods`` trims it) so allocator and cache state
    do not bias whichever strategy runs first.
    """
    if len(strategies) < 1:
        raise ValueError("need at least one strategy")
    x = np.asarray(getattr(x, "values", x), dtype=float)
    specs = agent_grid(grid.windows, grid.levels, 1, grid.horizons)
    warm_len = x.shape[0] if warmup_periods is None else min(warmup_periods, x.shape[0])
    warm_x = x[:warm_len]
    for strategy in strategies:
        _run_strategy_once(warm_x, specs, matching, strategy)
    samples = {s: [] for s in strategies}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            for strategy in strategies:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                _run_strategy_once(x, specs, matching, strategy)
                samples[strategy].append(time.perf_counter() - t0)
                if gc_was_enabled:
                    gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = []
    for strategy in strategies:
        runs = samples[strategy]
        rows.append({
            "strategy": strategy,
            "median_seconds": statistics.median(runs),
            "runs": runs,
            "spread": max(runs) - min(runs),
        })
    # Ordering violations inside the run-to-run noise band are reported,
    # not asserted; only medians inverted beyond the measured spread fail.
    for prev, cur in zip(rows, rows[1:]):
        gap = prev["median_seconds"] - cur["median_seconds"]
        noise = max(prev["spread"], cur["spread"])
        if enforce_order and gap > noise:
            raise TimingOrderError(
                f"{prev['strategy']} ({prev['median_seconds']:.3f}s) slower than "
                f"{cur['strategy']} ({cur['median_seconds']:.3f}s) beyond the "
                f"noise band ({noise:.3f}s)"
            )
    return rows
