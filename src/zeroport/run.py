"""Configuration-driven backtests: single runs, seed batteries, comparisons.

A run config is one declarative YAML/JSON document (versioned by
``spec_version``); CLI flags override keys one-for-one.  Artifacts per run:
``wealth.csv`` (portfolio plus enabled baselines), ``agents.csv`` (per-agent
wealth), ``summary.json`` (terminal wealths, best agent, runtimes) and,
for CSV-backed data, ``cleaning_report.json``.  Batch mode sweeps seeds and
cases, then writes the KS battery and cross-case tables as ``stats*.csv``.
"""

from __future__ import annotations

import csv
import gc
import json
import multiprocessing
import os
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import baselines, ksstats, marketdata, synth
from .learner import BankruptcyError, MixtureRule, WealthTrack, run_backtest
from .patterns import ClusterMap, MatchConfig, PatternAgents, agent_grid

SPEC_VERSION = 1

ROOT_KEYS = ("spec_version", "data", "mode", "rule", "grid", "matching", "clusters",
             "frictions", "baselines", "output", "record_agents")
DATA_KEYS = {
    "synth": ("kind", "case", "assets", "periods", "seed", "variance"),
    "relatives_csv": ("kind", "path", "delimiter", "tickers"),
    "ohlc_csv": ("kind", "path", "delimiter", "tickers", "schema", "convention", "clean",
                 "clean_lo", "clean_hi"),
}
FRICTION_KEYS = ("cost_bps", "flat_turnover")
BASELINE_KEYS = ("best_stock", "universal_portfolio")

DEFAULT_PAIRS = (("IROQU", "KINAR"), ("COMME", "MEICO"), ("COMME", "KINAR"), ("IBM", "COKE"))


class ConfigError(ValueError):
    """Invalid run configuration; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.message)


class TimingOrderError(AssertionError):
    pass


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _number(value, path) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"must be a number, got {value!r}") from None


def _check_keys(section: dict, keys, prefix=""):
    for key in section:
        _expect(key in keys, f"{prefix}{key}", f"unknown key; expected one of {', '.join(keys)}")


def _section(doc: dict, name: str, keys) -> dict:
    """``doc[name]`` (empty when absent), a mapping of known keys only."""
    section = doc.get(name, {})
    _expect(isinstance(section, dict), name, "must be a mapping")
    _check_keys(section, keys, f"{name}.")
    return section


def _from_section(doc: dict, name: str, cls):
    """Dataclass ``cls`` from ``doc[name]``: keys are its fields, values of
    float fields are parsed as numbers, absent fields take their defaults."""
    defaults = {f.name: f.default for f in fields(cls)}
    section = _section(doc, name, tuple(defaults))
    kwargs = {key: _number(value, f"{name}.{key}") if isinstance(defaults[key], float) else value
              for key, value in section.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


@dataclass(frozen=True)
class GridConfig:
    windows: int = 5
    levels: int = 10
    horizons: tuple = (1,)


@dataclass(frozen=True)
class RunConfig:
    data: dict
    mode: str = "absolute"
    rule: MixtureRule = field(default_factory=MixtureRule.universal)
    grid: GridConfig = field(default_factory=GridConfig)
    matching: MatchConfig = field(default_factory=MatchConfig)
    clusters: dict | None = None
    baselines: dict = field(default_factory=dict)
    cost_bps: float = 0.0
    flat_turnover: float | None = None
    output: str | None = None
    record_agents: bool = True


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a mapping")
    version = doc.get("spec_version")
    _expect(version == SPEC_VERSION, "spec_version", f"must be {SPEC_VERSION}, got {version!r}")
    _check_keys(doc, ROOT_KEYS)

    data = doc.get("data")
    _expect(isinstance(data, dict), "data", "must be a mapping")
    data = dict(data)
    kind = data.get("kind")
    _expect(isinstance(kind, str) and kind in DATA_KEYS, "data.kind",
            f"must be {' | '.join(DATA_KEYS)}, got {kind!r}")
    _check_keys(data, DATA_KEYS[kind], "data.")
    if kind == "synth":
        case = data.get("case")
        _expect(case in synth.CASES, "data.case", f"must be one of {synth.CASES}")
        for key, least in (("assets", 1), ("periods", 2), ("seed", 1)):
            if key in data:
                _expect(isinstance(data[key], int) and data[key] >= least, f"data.{key}",
                        f"must be an integer >= {least}")
        if "variance" in data:
            data["variance"] = _number(data["variance"], "data.variance")
            _expect(data["variance"] >= 0.0, "data.variance", "must be >= 0")
    else:
        _expect(isinstance(data.get("path"), str), "data.path", "must name a file")
        if kind == "ohlc_csv":
            conv = data.get("convention", "close_to_close")
            _expect(conv in marketdata.CONVENTIONS, "data.convention",
                    f"must be one of {marketdata.CONVENTIONS}")

    mode = doc.get("mode", "absolute")
    _expect(mode in ("absolute", "active"), "mode", "must be absolute | active")
    rule = _from_section(doc, "rule", MixtureRule)

    grid_doc = _section(doc, "grid", tuple(f.name for f in fields(GridConfig)))
    windows = grid_doc.get("windows", GridConfig.windows)
    levels = grid_doc.get("levels", GridConfig.levels)
    horizons = grid_doc.get("horizons", GridConfig.horizons)
    _expect(isinstance(windows, int) and windows >= 1, "grid.windows",
            "must be an integer >= 1")
    _expect(isinstance(levels, int) and levels >= 1, "grid.levels",
            "must be an integer >= 1")
    _expect(isinstance(horizons, (list, tuple)) and horizons
            and all(isinstance(h, int) and h >= 1 for h in horizons), "grid.horizons",
            "must be a nonempty list of integers >= 1")
    matching = _from_section(doc, "matching", MatchConfig)

    clusters = doc.get("clusters")
    if clusters is not None:
        _expect(isinstance(clusters, dict) and clusters, "clusters",
                "must be a nonempty mapping of name -> ticker list")
        for name, group in clusters.items():
            _expect(isinstance(group, list) and group, f"clusters.{name}",
                    "must be a nonempty list of tickers")

    frictions = _section(doc, "frictions", FRICTION_KEYS)
    cost_bps = _number(frictions.get("cost_bps", 0.0), "frictions.cost_bps")
    _expect(cost_bps >= 0.0, "frictions.cost_bps", "must be >= 0")
    flat = frictions.get("flat_turnover")
    if flat is not None:
        flat = _number(flat, "frictions.flat_turnover")
        _expect(flat >= 0.0, "frictions.flat_turnover", "must be >= 0")

    base = _section(doc, "baselines", BASELINE_KEYS)
    if isinstance(base.get("universal_portfolio"), dict):
        _check_keys(base["universal_portfolio"], ("resolution",), "baselines.universal_portfolio.")

    return RunConfig(
        data=data,
        mode=mode,
        rule=rule,
        grid=GridConfig(windows=windows, levels=levels, horizons=tuple(horizons)),
        matching=matching,
        clusters=clusters,
        baselines=dict(base),
        cost_bps=cost_bps,
        flat_turnover=flat,
        output=doc.get("output"),
        record_agents=bool(doc.get("record_agents", True)),
    )


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides onto a raw config document."""
    out = json.loads(json.dumps(doc))  # deep copy, plain types only
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("<override>", f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        value = yaml.safe_load(raw)
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-mapping")
        node[parts[-1]] = value
    return out


def load_config(path, overrides=None) -> RunConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return config_from_dict(doc)


def build_dataset(cfg: RunConfig) -> marketdata.PriceRelativeMatrix:
    data = cfg.data
    if data["kind"] == "synth":
        down = synth.SynthSpec.down_assets
        _expect(data["case"] != "SDC4" or data.get("assets", 10) > max(down), "data.assets",
                f"SDC4 drifts assets {down} down, so it needs at least {max(down) + 1} assets")
        spec = synth.SynthSpec(
            case=data["case"],
            assets=data.get("assets", 10),
            periods=data.get("periods", 1000),
            seed=data.get("seed", 1),
            variance=data.get("variance", synth.DEFAULT_VARIANCE),
        )
        return synth.generate(spec)
    if data["kind"] == "relatives_csv":
        matrix = marketdata.load_relatives_csv(data["path"],
                                               delimiter=data.get("delimiter", ","))
    else:
        series = marketdata.load_csv(data["path"], schema=data.get("schema"),
                                     delimiter=data.get("delimiter", ","))
        matrix = marketdata.to_relatives(series, data.get("convention", "close_to_close"))
        if data.get("clean", True):
            matrix = marketdata.clean_relatives(
                matrix,
                lo=data.get("clean_lo", marketdata.SPLIT_LO),
                hi=data.get("clean_hi", marketdata.SPLIT_HI),
            )
    tickers = data.get("tickers")
    if tickers:
        matrix = marketdata.select_tickers(matrix, tickers)
    return matrix


def build_engine(cfg: RunConfig, matrix) -> PatternAgents:
    if cfg.clusters:
        for name, group in cfg.clusters.items():
            missing = [tck for tck in group if tck not in matrix.tickers]
            _expect(not missing, f"clusters.{name}", f"unknown tickers {missing}")
        cmap = ClusterMap.from_tickers(cfg.clusters, matrix.tickers)
    else:
        cmap = ClusterMap.trivial(len(matrix.tickers))
    specs = agent_grid(cfg.grid.windows, cfg.grid.levels, len(cmap), cfg.grid.horizons)
    return PatternAgents(specs, len(matrix.tickers), clusters=cmap, config=cfg.matching)


def pattern_controls(x, engine: PatternAgents, modes) -> dict:
    """Precompute (T, N, M) control stacks for each mode in one matching pass."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    return engine.controls_series(x, modes)


def apply_frictions(track: WealthTrack, cost_bps: float,
                    flat_turnover: float | None = None) -> WealthTrack:
    """Deduct proportional execution costs from a wealth track.

    Each period's growth factor is multiplied by (1 - cost_bps * 1e-4 *
    turnover); ``flat_turnover`` overrides the recorded per-period turnover
    with a constant, reproducing flat-assumption arithmetic exactly.
    """
    if cost_bps < 0:
        raise ValueError("cost_bps must be >= 0")
    if cost_bps == 0:
        return track
    turnover = (np.full(track.n_periods, float(flat_turnover))
                if flat_turnover is not None else track.turnover)
    growth = track.growth_factors()
    net = growth * (1.0 - cost_bps * 1e-4 * turnover)
    bad = np.flatnonzero(net <= 0)
    if bad.size:
        raise BankruptcyError(int(bad[0]), f"{track.label} after frictions", float(net[bad[0]]))
    return replace(track, wealth=np.cumprod(net), label=f"{track.label}+frictions")


def run(cfg: RunConfig, outdir=None) -> dict:
    """Single backtest with baselines; writes artifacts when outdir given."""
    t0 = time.perf_counter()
    matrix = build_dataset(cfg)
    engine = build_engine(cfg, matrix)
    controls = pattern_controls(matrix, engine, (cfg.mode,))[cfg.mode]
    track = run_backtest(matrix, controls, cfg.mode, cfg.rule,
                         record_agents=cfg.record_agents, label=cfg.mode)
    runtime_main = time.perf_counter() - t0

    extra_tracks = {}
    runtimes = {cfg.mode: runtime_main}
    base = cfg.baselines
    if base.get("best_stock", True):
        t1 = time.perf_counter()
        idx, bs_track = baselines.best_stock(matrix)
        runtimes["best_stock"] = time.perf_counter() - t1
        extra_tracks["best_stock"] = bs_track
    if base.get("universal_portfolio", False) or isinstance(base.get("universal_portfolio"), dict):
        up_cfg = base.get("universal_portfolio")
        resolution = up_cfg.get("resolution", baselines.DEFAULT_RESOLUTION) \
            if isinstance(up_cfg, dict) else baselines.DEFAULT_RESOLUTION
        t1 = time.perf_counter()
        extra_tracks["universal_portfolio"] = baselines.universal_portfolio(
            matrix, resolution=resolution)
        runtimes["universal_portfolio"] = time.perf_counter() - t1

    net_track = None
    if cfg.cost_bps > 0:
        net_track = apply_frictions(track, cfg.cost_bps, cfg.flat_turnover)

    summary = {
        "config": {"mode": cfg.mode, "rule": cfg.rule.name,
                   "grid": {"windows": cfg.grid.windows, "levels": cfg.grid.levels},
                   "matching": {"rule": cfg.matching.rule,
                                "partition": cfg.matching.partition}},
        "data": {"tickers": list(matrix.tickers), "periods": int(matrix.shape[0])},
        "portfolio": track.summary(),
        "baselines": {name: tr.summary() for name, tr in extra_tracks.items()},
        "agent_fallbacks": engine.fallback_count,
        "agent_periods": int(matrix.shape[0]) * engine.n_agents,
        "runtime_seconds": runtimes,
    }
    if net_track is not None:
        summary["frictions"] = {
            "cost_bps": cfg.cost_bps,
            "flat_turnover": cfg.flat_turnover,
            "terminal_wealth": net_track.terminal,
        }

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_wealth_csv(outdir / "wealth.csv", track, extra_tracks, net_track)
        if cfg.record_agents:
            track.to_csv(outdir / "agents.csv", include_agents=True)
        if cfg.data["kind"] != "synth":
            marketdata.write_cleaning_report(matrix, outdir / "cleaning_report.json")
        with open(outdir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def _write_wealth_csv(path, track, extra_tracks, net_track):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", "portfolio"] + list(extra_tracks)
        if net_track is not None:
            header.append("portfolio_net")
        writer.writerow(header)
        for t in range(track.n_periods):
            row = [t + 1, repr(float(track.wealth[t]))]
            row += [repr(float(tr.wealth[t])) for tr in extra_tracks.values()]
            if net_track is not None:
                row.append(repr(float(net_track.wealth[t])))
            writer.writerow(row)


# -- batch mode -------------------------------------------------------------


def run_case_seed(cfg: RunConfig, case: str, seed: int, modes=("absolute", "active")):
    """Both portfolio modes on one seeded case, sharing the matching pass.

    Returns {mode: (track, triple)} where triple holds the trajectories the
    KS battery consumes.
    """
    data = dict(cfg.data)
    data.update(kind="synth", case=case, seed=seed)
    cfg_seed = replace(cfg, data=data)
    matrix = build_dataset(cfg_seed)
    engine = build_engine(cfg_seed, matrix)
    stacks = pattern_controls(matrix, engine, modes)
    _, stock_track = baselines.best_stock(matrix)
    out = {}
    for mode in modes:
        track = run_backtest(matrix, stacks[mode], mode, cfg.rule, label=f"{case}:{mode}")
        best_idx, _ = baselines.best_agent(track)
        triple = ksstats.RunTriple(
            portfolio=track.wealth.copy(),
            best_agent=track.agent_wealth[:, best_idx].copy(),
            best_stock=stock_track.wealth.copy(),
        )
        out[mode] = (track, triple)
    return out


def _case_seed_triples(cfg: RunConfig, case: str, seed: int, modes) -> dict:
    """{mode: RunTriple} of one case-seed: all that a batch keeps of it."""
    return {mode: triple for mode, (_, triple) in run_case_seed(cfg, case, seed, modes).items()}


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_jobs(cfg: RunConfig, jobs, modes, workers: int) -> list:
    """Triples of every (case, seed) in ``jobs``, in order.

    More than one worker runs the jobs in a pool of forked processes, which
    inherit the loaded modules and BLAS set-up, so their trajectories are
    bit-identical to an in-process run.  A job that raises cancels the
    jobs not yet started, and no worker outlives the call.
    """
    if workers == 1:
        return [_case_seed_triples(cfg, case, seed, modes) for case, seed in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_case_seed_triples, cfg, case, seed, modes)
                   for case, seed in jobs]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def batch(cfg: RunConfig, outdir=None, cases=synth.CASES, seeds=range(1, 31),
          modes=("absolute", "active")) -> dict:
    """Seed sweep over synthetic cases plus the KS battery and cross tables.

    The (case, seed) runs go to forked worker processes, one per usable core
    and at most one per run; the results do not depend on their number.  The
    runs stay in this process on one core, where ``fork`` is missing, or
    while this process has other Python threads: a forked child could
    inherit a lock one of them holds and hang.
    """
    seeds = list(seeds)
    if cfg.data.get("kind") != "synth":
        raise ConfigError("data.kind", "batch mode sweeps synthetic cases")
    unknown = [case for case in cases if case not in synth.CASES]
    _expect(not unknown, "cases", f"unknown synthetic cases {unknown}; "
            f"expected some of {', '.join(synth.CASES)}")
    jobs = [(case, seed) for case in cases for seed in seeds]
    workers = max(1, min(_usable_cores(), len(jobs)))
    if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    t0 = time.perf_counter()
    triples = {mode: {case: [] for case in cases} for mode in modes}
    for (case, _), result in zip(jobs, _run_jobs(cfg, jobs, modes, workers)):
        for mode in modes:
            triples[mode][case].append(result[mode])
    runtime = time.perf_counter() - t0

    terminals = {mode: {case: [float(tr.portfolio[-1]) for tr in runs]
                        for case, runs in by_case.items()} for mode, by_case in triples.items()}
    best_agents = {mode: {case: [float(tr.best_agent[-1]) for tr in runs]
                          for case, runs in by_case.items()} for mode, by_case in triples.items()}
    battery = {mode: {case: ksstats.hypothesis_battery(triples[mode][case])
                      for case in cases} for mode in modes}
    cross = {mode: ksstats.cross_case_comparison(
        {case: [tr.portfolio for tr in triples[mode][case]] for case in cases})
        for mode in modes}

    summary = {"cases": list(cases), "seeds": seeds, "runtime_seconds": runtime,
               "workers": workers, "wealth": {}}
    for mode in modes:
        summary["wealth"][mode] = {
            case: {
                "best": float(np.max(terminals[mode][case])),
                "avg": float(np.mean(terminals[mode][case])),
                "best_agent_best": float(np.max(best_agents[mode][case])),
                "best_agent_avg": float(np.mean(best_agents[mode][case])),
            }
            for case in cases
        }

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for mode in modes:
            ksstats.battery_to_csv(battery[mode], outdir / f"stats_{mode}.csv")
            names, grid = cross[mode]
            ksstats.cross_case_to_csv(names, grid, outdir / f"cross_case_{mode}.csv")
        combined = {f"{case} ({mode})": battery[mode][case]
                    for mode in modes for case in cases}
        ksstats.battery_to_csv(combined, outdir / "stats.csv")
        with open(outdir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return {"summary": summary, "battery": battery, "cross": cross,
            "terminals": terminals, "triples": triples}


# -- NYSE comparison table ---------------------------------------------------


def nyse_table(data_path, pairs=DEFAULT_PAIRS, resolution=baselines.DEFAULT_RESOLUTION,
               grid=GridConfig(), outdir=None) -> list:
    """Strategy comparison rows for pairs from a wide relatives file.

    For each pair: absolute and active pattern portfolios (trivial rule),
    the nearest-neighbour recovery (absolute, gyorfi_nn rule), the grid
    universal portfolio, and buy-and-hold of the best stock.
    """
    data_path = Path(data_path)
    if data_path.is_dir():
        candidates = sorted(data_path.glob("*.csv"))
        if not candidates:
            raise marketdata.DataError(f"no CSV files under {data_path}")
        data_path = candidates[0]
    matrix = marketdata.load_relatives_csv(data_path)
    rows = []
    for pair in pairs:
        sub = marketdata.select_tickers(matrix, list(pair))
        row = {"stocks": "/".join(pair), "strategies": {}}

        def _time(fn):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

        specs = agent_grid(grid.windows, grid.levels, 1, grid.horizons)
        for label, mode, rule in (("absolute", "absolute", "trivial"),
                                  ("active", "active", "trivial"),
                                  ("nn_recovery", "absolute", "gyorfi_nn")):
            def _strategy(mode=mode, rule=rule, label=label):
                engine = PatternAgents(specs, len(pair), config=MatchConfig(rule=rule))
                controls = pattern_controls(sub, engine, (mode,))[mode]
                return run_backtest(sub, controls, mode, label=label)

            track, secs = _time(_strategy)
            _, best = baselines.best_agent(track)
            row["strategies"][label] = {"wealth": track.terminal, "best_agent": best,
                                        "seconds": secs}
        up_track, secs = _time(lambda: baselines.universal_portfolio(sub, resolution=resolution))
        row["strategies"]["universal_portfolio"] = {"wealth": up_track.terminal,
                                                    "seconds": secs}
        idx, bs_track = baselines.best_stock(sub)
        row["strategies"]["best_stock"] = {"wealth": bs_track.terminal,
                                           "ticker": pair[idx]}
        rows.append(row)

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "nyse_table.json", "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        with open(outdir / "nyse_table.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stocks", "strategy", "wealth", "best_agent"])
            for row in rows:
                for name, cell in row["strategies"].items():
                    writer.writerow([row["stocks"], name, cell.get("wealth"),
                                     cell.get("best_agent", "")])
    return rows


# -- timing -------------------------------------------------------------------


def _run_strategy_once(x, specs, matching, strategy):
    engine = PatternAgents(specs, x.shape[1], config=matching)
    if strategy == "numeric":
        warm = {}
        t_total = x.shape[0]
        controls = np.empty((t_total, engine.n_agents, engine.n_assets))
        for t in range(t_total):
            controls[t] = engine.controls_numeric(x[:t], warm=warm)
        mode = "absolute"
    else:
        mode = strategy
        controls = pattern_controls(x, engine, (mode,))[mode]
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
        cur["ordered_after_previous"] = gap <= 0
        cur["inversion_within_noise"] = 0 < gap <= noise
        if enforce_order and gap > noise:
            raise TimingOrderError(
                f"{prev['strategy']} ({prev['median_seconds']:.3f}s) slower than "
                f"{cur['strategy']} ({cur['median_seconds']:.3f}s) beyond the "
                f"noise band ({noise:.3f}s)"
            )
    return rows
