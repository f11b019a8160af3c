"""Configuration-driven backtests: single runs, seed batteries, comparisons.

A run config is one declarative YAML/JSON document (versioned by
``spec_version``); CLI flags override keys one-for-one.  Artifacts per run:
``wealth.csv`` (portfolio plus enabled baselines), ``agents.csv`` (per-agent
wealth), ``summary.json`` (terminal wealths, best agent, runtimes) and,
for CSV-backed data, ``cleaning_report.json``.  Every backtest streams the
engine's control blocks into the learner as they are solved, one matching
pass for all of its modes, so no run holds a (T, N, M) control stack.
Batch mode sweeps seeds and cases, each case-seed running both modes,
then writes the KS battery and cross-case tables as ``stats*.csv``.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import baselines, forkpool, ksstats, marketdata, synth
from .learner import MODES, BankruptcyError, MixtureRule, WealthTrack, run_backtest, write_csv
from .patterns import ClusterMap, MatchConfig, PatternAgents, agent_grid

SPEC_VERSION = 1

DEFAULT_PAIRS = (("IROQU", "KINAR"), ("COMME", "MEICO"), ("COMME", "KINAR"), ("IBM", "COKE"))


class ConfigError(ValueError):
    """Invalid run configuration; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.message)


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


@dataclass(frozen=True)
class GridConfig:
    windows: int = 5
    levels: int = 10
    horizons: tuple = (1,)


class _Switch(dict):
    """A section that is off (reads None) unless given as ``true`` or a mapping."""


# Sections built into a dataclass: its fields are the keys, its defaults the defaults.
SECTION_TYPES = {"rule": MixtureRule, "grid": GridConfig, "matching": MatchConfig}

# Every config key but spec_version, with its default or, where it has none,
# its type (an absent or null key then reads None).  A mapping is a section
# of further keys; a tuple is a nonempty list of values like its first item.
KEYS = {
    "data": dict,  # checked against DATA_KEYS[data.kind]
    "mode": "absolute",
    **{name: {f.name: f.default for f in fields(cls)} for name, cls in SECTION_TYPES.items()},
    "clusters": dict,
    "frictions": {"cost_bps": 0.0, "flat_turnover": float},
    "baselines": {"best_stock": True,
                  "universal_portfolio": _Switch(resolution=baselines.DEFAULT_RESOLUTION)},
    "output": str,
    "record_agents": True,
}
_CSV_KEYS = {"kind": str, "path": str, "delimiter": ",", "tickers": list}
DATA_KEYS = {
    "synth": {"kind": str, "case": str, "assets": 10, "periods": 1000, "seed": 1,
              "variance": synth.DEFAULT_VARIANCE},
    "relatives_csv": _CSV_KEYS,
    "ohlc_csv": {**_CSV_KEYS, "schema": dict(marketdata.DEFAULT_SCHEMA),
                 "convention": "close_to_close", "clean": True,
                 "clean_lo": marketdata.SPLIT_LO, "clean_hi": marketdata.SPLIT_HI},
}

# What a value of each type must satisfy, unless LIMITS names its key.
_RULES = {
    bool: (lambda v: True, "must be true or false"),
    int: (lambda v: v >= 1, "must be an integer >= 1"),
    float: (lambda v: 0.0 <= v < math.inf, "must be a finite number >= 0"),
    str: (lambda v: True, "must be a string"),
    list: (lambda v: True, "must be a list"),
    dict: (lambda v: True, "must be a mapping"),
}
LIMITS = {
    "mode": (lambda v: v in MODES, f"must be {' | '.join(MODES)}"),
    "data.case": (lambda v: v in synth.CASES, f"must be one of {synth.CASES}"),
    "data.periods": (lambda v: v >= 2, "must be an integer >= 2"),
    "data.delimiter": (lambda v: len(v) == 1, "must be one character"),
    "data.convention": (lambda v: v in marketdata.CONVENTIONS,
                        f"must be one of {marketdata.CONVENTIONS}"),
    "data.clean_lo": (lambda v: 0.0 <= v < 1.0, "must be a number in [0, 1)"),
    "data.clean_hi": (lambda v: 1.0 < v < math.inf, "must be a finite number > 1"),
}


def _value(raw, spec, path):
    """A present value checked against its table entry: typed, within LIMITS."""
    if isinstance(spec, tuple):
        _expect(isinstance(raw, (list, tuple)) and raw, path, "must be a nonempty list")
        return tuple(_value(item, spec[0], path) for item in raw)
    kind = spec if isinstance(spec, type) else type(spec)
    test, message = LIMITS.get(path) or _RULES[kind]
    value = raw
    if kind is float and not isinstance(raw, bool):  # ints and numeric strings too
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    # A bool is an int to isinstance, but no number here.
    is_kind = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    _expect(is_kind and test(value), path, f"{message}, got {raw!r}")
    return value


def _section(doc, table, path=""):
    """Mapping ``doc`` checked against ``table``, with every default filled in."""
    if isinstance(table, _Switch) and (doc is None or isinstance(doc, bool)):
        if not doc:
            return None
        doc = {}
    doc = {} if doc is None else doc
    _expect(isinstance(doc, dict), path, "must be a mapping")
    prefix = f"{path}." if path else ""
    for key in doc:
        _expect(key in table, f"{prefix}{key}",
                f"unknown key; expected one of {', '.join(table)}")
    out = {}
    for key, spec in table.items():
        value = doc.get(key)
        if isinstance(spec, dict):
            out[key] = _section(value, spec, prefix + key)
        elif value is None:
            out[key] = None if isinstance(spec, type) else spec
        else:
            out[key] = _value(value, spec, prefix + key)
    return out


@dataclass(frozen=True)
class RunConfig:
    """A checked run config with every default filled in; see :func:`config_from_dict`."""

    data: dict
    mode: str
    rule: MixtureRule
    grid: GridConfig
    matching: MatchConfig
    clusters: dict | None
    baselines: dict
    cost_bps: float
    flat_turnover: float | None
    output: str | None
    record_agents: bool


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document against :data:`KEYS` into a RunConfig.

    Checks that need more than one key stay here: the spec version, the
    ``data.kind`` dispatch, required data keys and ticker lists.
    """
    _expect(isinstance(doc, dict), "<root>", "config must be a mapping")
    doc = dict(doc)
    version = doc.pop("spec_version", None)
    _expect(type(version) is int and version == SPEC_VERSION, "spec_version",
            f"must be {SPEC_VERSION}, got {version!r}")
    values = _section(doc, KEYS)

    data = values["data"]
    _expect(data is not None, "data", "must be a mapping")
    kind = data.get("kind")
    _expect(isinstance(kind, str) and kind in DATA_KEYS, "data.kind",
            f"must be {' | '.join(DATA_KEYS)}, got {kind!r}")
    values["data"] = data = _section(data, DATA_KEYS[kind], "data")
    required = "case" if kind == "synth" else "path"
    _expect(data[required] is not None, f"data.{required}", "is required")
    _expect(all(isinstance(tck, str) for tck in data.get("tickers") or ()), "data.tickers",
            "must be a list of tickers")

    clusters = values["clusters"]
    if clusters is not None:
        _expect(clusters, "clusters", "must be a nonempty mapping of name -> ticker list")
        for name, group in clusters.items():
            _expect(isinstance(group, list) and group and all(isinstance(t, str) for t in group)
                    and len(set(group)) == len(group),
                    f"clusters.{name}", "must be a nonempty list of distinct tickers")

    for name, cls in SECTION_TYPES.items():
        try:
            values[name] = cls(**values[name])
        except ValueError as exc:
            raise ConfigError(name, str(exc)) from exc
    frictions = values.pop("frictions")  # its keys are RunConfig fields
    return RunConfig(**values, **frictions)


def _yaml(text, path):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(path, "unparsable YAML: " + " ".join(str(exc).split())) from None


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides onto a raw config document."""
    _expect(isinstance(doc, dict), "<root>", "config must be a mapping")
    out = copy.deepcopy(doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("<override>", f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        value = _yaml(raw, key)
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-mapping")
        node[parts[-1]] = value
    return out


def load_config(path, overrides=None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from None
    doc = _yaml(text, "<root>")
    if overrides:
        doc = apply_overrides(doc, overrides)
    return config_from_dict(doc)


def _synth_spec(data: dict) -> synth.SynthSpec:
    down = synth.DOWN_ASSETS
    _expect(data["case"] != "SDC4" or data["assets"] > max(down), "data.assets",
            f"SDC4 drifts assets {down} down, so it needs at least {max(down) + 1} assets")
    return synth.SynthSpec(**{key: value for key, value in data.items() if key != "kind"})


def build_dataset(cfg: RunConfig) -> marketdata.PriceRelativeMatrix:
    data = cfg.data
    if data["kind"] == "synth":
        return synth.generate(_synth_spec(data))
    if data["kind"] == "relatives_csv":
        matrix = marketdata.load_relatives_csv(data["path"], delimiter=data["delimiter"])
    else:
        series = marketdata.load_csv(data["path"], schema=data["schema"],
                                     delimiter=data["delimiter"])
        matrix = marketdata.to_relatives(series, data["convention"])
        if data["clean"]:
            matrix = marketdata.clean_relatives(matrix, lo=data["clean_lo"], hi=data["clean_hi"])
    if data["tickers"]:
        matrix = marketdata.select_tickers(matrix, data["tickers"])
    _expect_periods(matrix, data["path"])
    return matrix


def _expect_periods(matrix, path):
    if matrix.shape[0] < 2:
        raise marketdata.DataError(
            f"{path}: a backtest needs at least 2 periods of relatives, got {matrix.shape[0]}")


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
    """:meth:`PatternAgents.controls_series`; kept only for ``benchmarks/workloads.py``."""
    return engine.controls_series(x, modes)


def _backtest(x, engine: PatternAgents, modes: dict, rule: MixtureRule = MixtureRule(),
              **kwargs) -> dict:
    """{mode: :func:`run_backtest`} for ``modes``, a {mode: label} mapping, all fed
    from one stream of the engine's control blocks.  Later modes read the blocks the
    first buffered, and each mode takes its array out of a block as it reads it.  The
    stream, and any worker pool behind it, is closed when the backtests return or raise."""
    with contextlib.closing(engine.control_blocks(x, tuple(modes))) as blocks:
        return {mode: run_backtest(x, (block.pop(mode) for block in feed), mode, rule,
                                   label=label, **kwargs)
                for (mode, label), feed in zip(modes.items(), itertools.tee(blocks, len(modes)))}


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
    track = _backtest(matrix, engine, {cfg.mode: cfg.mode}, cfg.rule,
                      record_agents=cfg.record_agents)[cfg.mode]
    runtimes = {cfg.mode: time.perf_counter() - t0}

    extra_tracks = {}
    chosen = {"best_stock": lambda: baselines.best_stock(matrix)[1],
              "universal_portfolio": lambda: baselines.universal_portfolio(
                  matrix, **cfg.baselines["universal_portfolio"])}
    for name, make in chosen.items():
        if cfg.baselines[name]:
            t1 = time.perf_counter()
            try:
                extra_tracks[name] = make()
            except baselines.GridTooLargeError as exc:  # resolution too fine for the assets
                raise ConfigError(f"baselines.{name}.resolution", str(exc)) from exc
            runtimes[name] = time.perf_counter() - t1

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
        summary["frictions"] = {"cost_bps": cfg.cost_bps, "flat_turnover": cfg.flat_turnover,
                                "terminal_wealth": net_track.terminal}

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
    columns = {"portfolio": track, **extra_tracks}
    if net_track is not None:
        columns["portfolio_net"] = net_track
    wealth = [tr.wealth[:track.n_periods].tolist() for tr in columns.values()]
    write_csv(path, ["t", *columns], ([t + 1, *row] for t, row in
                                      enumerate(zip(*wealth, strict=True))))


# -- batch mode -------------------------------------------------------------


def run_case_seed(cfg: RunConfig, case: str, seed: int, modes=MODES):
    """Both portfolio modes on one seeded case, sharing the matching pass.

    Returns {mode: RunTriple}, the trajectories the KS battery consumes:
    all that a batch keeps of a case-seed.
    """
    cfg_seed = replace(cfg, data=dict(cfg.data, kind="synth", case=case, seed=seed))
    matrix = build_dataset(cfg_seed)
    engine = build_engine(cfg_seed, matrix)
    tracks = _backtest(matrix, engine, {mode: f"{case}:{mode}" for mode in modes}, cfg.rule)
    _, stock_track = baselines.best_stock(matrix)
    out = {}
    for mode, track in tracks.items():
        best_idx, _ = baselines.best_agent(track)  # a copied column frees the agent wealth
        out[mode] = ksstats.RunTriple(portfolio=track.wealth, best_stock=stock_track.wealth,
                                      best_agent=track.agent_wealth[:, best_idx].copy())
    return out


def batch(cfg: RunConfig, outdir=None, cases=synth.CASES, seeds=range(1, 31),
          modes=MODES) -> dict:
    """Seed sweep over synthetic cases plus the KS battery and cross tables.

    The (case, seed) runs go to :mod:`forkpool` workers, one per usable core
    and at most one per run; the results do not depend on their number.
    """
    seeds = list(seeds)
    if cfg.data.get("kind") != "synth":
        raise ConfigError("data.kind", "batch mode sweeps synthetic cases")
    unknown = [case for case in cases if case not in synth.CASES]
    _expect(not unknown, "cases", f"unknown synthetic cases {unknown}; "
            f"expected some of {', '.join(synth.CASES)}")
    for case in cases:  # each case's data checks, then the battery's, before any run
        _synth_spec(dict(cfg.data, case=case))
    _expect(len(seeds) >= 2, "seeds", f"the KS battery needs at least 2 seeds, got {len(seeds)}")
    jobs = [(case, seed) for case in cases for seed in seeds]
    workers = forkpool.worker_count(len(jobs))
    t0 = time.perf_counter()
    triples = {mode: {case: [] for case in cases} for mode in modes}
    for (case, _), result in zip(jobs, forkpool.imap(
            lambda job: run_case_seed(cfg, *job, modes), jobs, workers)):
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

    For each pair: absolute and active pattern portfolios off one trivial-rule matching
    pass (both report its ``seconds``), the nearest-neighbour recovery (absolute, gyorfi_nn
    rule), the grid universal portfolio, and buy-and-hold of the best stock.
    """
    _expect(resolution >= 1, "resolution", f"must be an integer >= 1, got {resolution!r}")
    for pair in pairs:
        try:
            baselines.SimplexGrid(resolution, len(pair))
        except baselines.GridTooLargeError as exc:
            raise ConfigError("resolution", str(exc)) from exc
    data_path = Path(data_path)
    if data_path.is_dir():
        candidates = sorted(data_path.glob("*.csv"))
        if not candidates:
            raise marketdata.DataError(f"no CSV files under {data_path}")
        data_path = candidates[0]
    matrix = marketdata.load_relatives_csv(data_path)
    _expect_periods(matrix, data_path)
    specs = agent_grid(grid.windows, grid.levels, 1, grid.horizons)
    rows = []
    for pair in pairs:
        sub = marketdata.select_tickers(matrix, list(pair))
        row = {"stocks": "/".join(pair), "strategies": {}}
        for rule, labels in (("trivial", {"absolute": "absolute", "active": "active"}),
                             ("gyorfi_nn", {"absolute": "nn_recovery"})):
            t0 = time.perf_counter()
            engine = PatternAgents(specs, len(pair), config=MatchConfig(rule=rule))
            tracks = _backtest(sub, engine, labels)
            secs = time.perf_counter() - t0
            for track in tracks.values():
                _, best = baselines.best_agent(track)
                row["strategies"][track.label] = {"wealth": track.terminal, "best_agent": best,
                                                  "seconds": secs}
        t0 = time.perf_counter()
        up_track = baselines.universal_portfolio(sub, resolution=resolution)
        row["strategies"]["universal_portfolio"] = {"wealth": up_track.terminal,
                                                    "seconds": time.perf_counter() - t0}
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
