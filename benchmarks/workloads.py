"""The benchmark's three workloads: inputs made from a seed, rounds, checks.

A workload object builds its inputs in ``setup()``, runs one round of
operations in ``run_round()`` and checks a round's outputs afterwards in
``check_round()``, which returns one :class:`checks.Checks` per operation.
Every round of a run repeats the same operations on the same inputs, so a
later round must reproduce the first one bit for bit (compared by digest).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import yaml

import checks
from checks import Checks
from zeroport import cli, learner, run, synth
from zeroport.patterns import MatchConfig, PatternAgents, agent_grid

MODES = ("absolute", "active")
WINDOWS, LEVELS = 5, 10
CASE_SEEDS = 2                 # battery: case-seeds per synthetic case in a round


def _digest(buffers):
    """SHA-256 over a sequence of arrays or bytes; later rounds are compared
    with the first by digest, so no round's outputs need to be kept."""
    h = hashlib.sha256()
    for buf in buffers:
        h.update(np.ascontiguousarray(buf) if isinstance(buf, np.ndarray) else buf)
    return h.hexdigest()


def _check_periods(rng, t_total, count):
    """History lengths at which the sampled engine checks run: the last one
    plus ``count - 1`` drawn from the seed, spread over the run."""
    edges = np.linspace(WINDOWS + 2, t_total - 1, count, dtype=int)
    picks = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    return picks + [t_total - 1]


class Battery:
    """Synthetic battery: cases SDC1-4 x a few seeds through ``run.batch``."""

    name = "battery"

    def __init__(self, seed: int, workdir: Path, periods: int = 1000):
        self.periods = periods
        self.case_seeds = [CASE_SEEDS * seed + 1 + i for i in range(CASE_SEEDS)]
        self.cfg = run.config_from_dict({
            "spec_version": 1,
            "data": {"kind": "synth", "case": "SDC1", "assets": 10, "periods": periods},
            "grid": {"windows": WINDOWS, "levels": LEVELS},
            "matching": {"rule": "gyorfi_nn"},
        })
        self.ops = [(case, s) for case in synth.CASES for s in self.case_seeds]
        self.agent_periods_per_round = WINDOWS * LEVELS * periods * len(MODES) * len(self.ops)
        rng = np.random.default_rng(seed)
        self.deep_op = int(rng.integers(len(self.ops)))
        self.periods_to_check = _check_periods(rng, periods, 2)
        self.first = None

    def setup(self):
        warm = replace(self.cfg, data=dict(self.cfg.data, periods=60))
        run.batch(warm, cases=synth.CASES, seeds=[1, 2])

    def run_round(self):
        return run.batch(self.cfg, cases=synth.CASES, seeds=self.case_seeds, modes=MODES)

    def artifact_bytes(self, out):
        return 0

    def check_round(self, out, index):
        per_op = [Checks(f"{case} seed {s}") for case, s in self.ops]
        whole = Checks("round")
        triples, battery = out["triples"], out["battery"]
        for ck, (case, s) in zip(per_op, self.ops):
            j = self.case_seeds.index(s)
            x = synth.generate(synth.SynthSpec(case=case, periods=self.periods, seed=s)).values
            for mode in MODES:
                triple = triples[mode][case][j]
                checks.check_best_stock(ck, x, triple.best_stock, mode)
                checks.check_battery_run(ck, triple, battery[mode][case], j, mode)
        for mode in MODES:
            for case in synth.CASES:
                checks.check_battery_rows(whole, battery[mode][case], f"{mode} {case}")
            cases, grid = out["cross"][mode]
            portfolios = {c: [tr.portfolio for tr in triples[mode][c]] for c in cases}
            checks.check_cross_case(whole, portfolios, cases, grid, f"cross {mode}")
        digest = _digest(getattr(tr, f) for mode in MODES for case in synth.CASES
                         for tr in triples[mode][case]
                         for f in ("portfolio", "best_agent", "best_stock"))
        if self.first is None:
            self.first = digest
            self._deep_check(per_op[self.deep_op], out)
        else:
            whole.expect(digest == self.first, "trajectories differ from the first round")
        for ck in per_op:
            ck.failures += whole.failures
        return per_op

    def _deep_check(self, ck, out):
        """Rerun one case-seed through the public one-pass path: it must
        reproduce the batch's trajectories, then face the engine checks."""
        case, s = self.ops[self.deep_op]
        cfg = replace(self.cfg, data=dict(self.cfg.data, case=case, seed=s))
        matrix = run.build_dataset(cfg)
        stacks = run.pattern_controls(matrix, run.build_engine(cfg, matrix), MODES)
        tracks = {}
        for mode in MODES:
            tracks[mode] = learner.run_backtest(matrix, stacks[mode], mode, cfg.rule)
            triple = out["triples"][mode][case][self.case_seeds.index(s)]
            best = int(np.argmax(tracks[mode].agent_wealth[-1]))
            ck.expect(tracks[mode].wealth.tobytes() == triple.portfolio.tobytes(),
                      f"{mode}: batch portfolio wealth not reproduced by the one-pass path")
            ck.expect(tracks[mode].agent_wealth[:, best].tobytes() == triple.best_agent.tobytes(),
                      f"{mode}: batch best-agent wealth not reproduced")
        checks.check_engine(ck, matrix.values, lambda: run.build_engine(cfg, matrix),
                            stacks, tracks, self.periods_to_check)

    def cleanup(self):
        pass


class LongHistory:
    """One SDC3 backtest at 10 x 2000 with 50 gyorfi_nn agents, both modes."""

    name = "long_history"

    def __init__(self, seed: int, workdir: Path, periods: int = 2000):
        self.seed = seed
        self.periods = periods
        self.ops = [("SDC3", seed)]
        self.agent_periods_per_round = WINDOWS * LEVELS * periods * len(MODES)
        rng = np.random.default_rng(seed)
        self.periods_to_check = _check_periods(rng, periods, 3)
        self.first = None

    def _engine(self):
        return PatternAgents(agent_grid(WINDOWS, LEVELS), 10, config=MatchConfig(rule="gyorfi_nn"))

    def setup(self):
        self.market = synth.generate(synth.SynthSpec(case="SDC3", periods=self.periods,
                                                     seed=self.seed))
        head = self.market.values[:120]
        stacks = run.pattern_controls(head, self._engine(), MODES)
        for mode in MODES:
            learner.run_backtest(head, stacks[mode], mode)

    def run_round(self):
        stacks = run.pattern_controls(self.market, self._engine(), MODES)
        tracks = {mode: learner.run_backtest(self.market, stacks[mode], mode) for mode in MODES}
        return stacks, tracks

    def artifact_bytes(self, out):
        return 0

    def check_round(self, out, index):
        ck = Checks(f"SDC3 seed {self.seed}")
        stacks, tracks = out
        digest = _digest(a for mode in MODES for a in (stacks[mode], tracks[mode].wealth,
                                                       tracks[mode].agent_wealth))
        if self.first is None:
            self.first = digest
            checks.check_engine(ck, self.market.values, self._engine, stacks, tracks,
                                self.periods_to_check)
        else:
            ck.expect(digest == self.first, "controls or wealth differ from the first round")
        return [ck]

    def cleanup(self):
        pass


# -- intraday CLI ----------------------------------------------------------------

TICKERS = 12
BARS_PER_SESSION = 96          # 09:00-17:00 in 5-minute bars
MISSING_SHARE = 0.005          # planted missing bars, share of all cells
SPLITS = 8                     # planted out-of-threshold bars
SPLIT_FACTORS = (0.5, 0.6, 1.5, 2.0)   # strictly outside the [0.7, 1.3] thresholds


def make_bars(seed: int, sessions: int):
    """Seeded 5-minute OHLC bars with planted missing and out-of-threshold bars.

    Returns a dict with the calendar, tickers, open/close arrays (T, M) and
    the planted masks: ``absent`` (row left out of the file), ``blank``
    (row kept with empty prices) and ``split`` (close/open outside the
    cleaning thresholds).  No timestamp loses more than two tickers, so the
    union calendar keeps every bar.
    """
    rng = np.random.default_rng(seed)
    days, day = [], date(2024, 3, 4)
    while len(days) < sessions:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    stamps = [datetime(d.year, d.month, d.day, 9, 0) + timedelta(minutes=5 * i)
              for d in days for i in range(BARS_PER_SESSION)]
    t_total, m = len(stamps), TICKERS
    names = [f"J{i + 1:02d}" for i in range(m)]

    ret = rng.normal(0.0, 0.002, (t_total, m))
    gap = rng.normal(0.0, 0.0005, (t_total, m))
    gap[::BARS_PER_SESSION] = rng.normal(0.0, 0.01, (sessions, m))  # overnight
    split = np.zeros((t_total, m), dtype=bool)
    cells = rng.choice(t_total * m, size=SPLITS, replace=False)
    split.flat[cells] = True
    ret[split] = np.log(rng.choice(SPLIT_FACTORS, size=SPLITS))
    log_close = np.log(rng.uniform(20.0, 500.0, m)) + np.cumsum(gap + ret, axis=0)
    close = np.exp(log_close)
    open_ = np.exp(log_close - ret)
    wick = np.exp(np.abs(rng.normal(0.0, 0.0005, (2, t_total, m))))
    high = np.maximum(open_, close) * wick[0]
    low = np.minimum(open_, close) / wick[1]

    missing = np.zeros((t_total, m), dtype=bool)
    for cell in rng.permutation(t_total * m):
        if missing.sum() >= int(MISSING_SHARE * t_total * m):
            break
        t, j = divmod(int(cell), m)
        if not split[t, j] and missing[t].sum() < 2:
            missing[t, j] = True
    blank = missing & (rng.random((t_total, m)) < 0.5)
    return {"stamps": stamps, "tickers": names, "open": open_, "high": high, "low": low,
            "close": close, "absent": missing & ~blank, "blank": blank, "split": split}


def write_bars_csv(bars, path, periods=None):
    """Long-format CSV, one row per ticker per bar, prices in repr form."""
    t_total = len(bars["stamps"]) if periods is None else periods
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "ticker", "open", "high", "low", "close"])
        for t in range(t_total):
            stamp = bars["stamps"][t].isoformat()
            for j, ticker in enumerate(bars["tickers"]):
                if bars["absent"][t, j]:
                    continue
                if bars["blank"][t, j]:
                    writer.writerow([stamp, ticker, "", "", "", ""])
                    continue
                writer.writerow([stamp, ticker] + [repr(float(bars[f][t, j]))
                                                   for f in ("open", "high", "low", "close")])


def intraday_config(bars, csv_path, cost_bps):
    half = len(bars["tickers"]) // 2
    return {
        "spec_version": 1,
        "data": {"kind": "ohlc_csv", "path": str(csv_path), "convention": "open_to_close"},
        "mode": "active",
        "grid": {"windows": WINDOWS, "levels": LEVELS},
        "matching": {"rule": "trivial"},
        "clusters": {"A": bars["tickers"][:half], "B": bars["tickers"][half:]},
        "baselines": {"best_stock": True},
        "frictions": {"cost_bps": cost_bps},
    }


class IntradayCli:
    """One in-process ``zeroport run`` on seeded 5-minute bars, all artifacts."""

    name = "intraday_cli"
    cost_bps = 5.0

    def __init__(self, seed: int, workdir: Path, sessions: int = 20):
        self.seed = seed
        self.sessions = sessions
        self.workdir = Path(workdir)
        self.ops = [("intraday", seed)]
        periods = sessions * BARS_PER_SESSION
        self.agent_periods_per_round = 2 * WINDOWS * LEVELS * periods
        rng = np.random.default_rng([seed, 1])
        self.periods_to_check = _check_periods(rng, periods, 2)
        self.first = None
        self.rounds = 0

    def _write(self, name, bars, periods=None):
        csv_path = self.workdir / f"{name}.csv"
        cfg_path = self.workdir / f"{name}.yaml"
        write_bars_csv(bars, csv_path, periods)
        cfg_path.write_text(yaml.safe_dump(intraday_config(bars, csv_path, self.cost_bps)))
        return cfg_path

    def _cli_run(self, cfg_path, outdir):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", str(cfg_path), "--output", str(outdir)])
        return code, stdout.getvalue()

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.bars = make_bars(self.seed, sessions=self.sessions)
        self.cfg_path = self._write("bars", self.bars)
        warm_cfg = self._write("warm", self.bars, periods=2 * BARS_PER_SESSION)
        self._cli_run(warm_cfg, self.workdir / "warm-out")

    def run_round(self):
        outdir = self.workdir / f"round-{self.rounds}"
        self.rounds += 1
        code, printed = self._cli_run(self.cfg_path, outdir)
        return code, printed, outdir

    def artifact_bytes(self, out):
        return sum(p.stat().st_size for p in out[2].iterdir())

    def check_round(self, out, index):
        code, printed, outdir = out
        ck = Checks(f"intraday seed {self.seed}")
        if ck.expect(code == 0, f"exit code {code}"):
            self._check_artifacts(ck, printed, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return [ck]

    def _check_artifacts(self, ck, printed, outdir):
        bars = self.bars
        planted = bars["absent"] | bars["blank"] | bars["split"]
        expected = np.where(planted, 1.0, bars["close"] / bars["open"])
        summary = json.loads((outdir / "summary.json").read_text())
        report = json.loads((outdir / "cleaning_report.json").read_text())
        ck.expect(json.loads(printed) == summary, "printed summary differs from summary.json")
        ck.expect(report["replaced"] == dict(zip(bars["tickers"], planted.sum(axis=0).tolist()))
                  and report["total"] == int(planted.sum())
                  and report["periods"] == expected.shape[0],
                  "cleaning report counts differ from the planted cells")

        agents = np.loadtxt(outdir / "agents.csv", delimiter=",", skiprows=1, ndmin=2)
        wealth = np.loadtxt(outdir / "wealth.csv", delimiter=",", skiprows=1, ndmin=2)
        with open(outdir / "wealth.csv") as fh:
            header = fh.readline().strip().split(",")
        port, turnover = agents[:, 1], agents[:, 2]
        ck.expect(np.array_equal(wealth[:, header.index("portfolio")], port),
                  "wealth.csv and agents.csv disagree on portfolio wealth")
        checks.check_best_stock(ck, expected, wealth[:, header.index("best_stock")], "best_stock")
        growth = port / np.concatenate([[1.0], port[:-1]])
        net = float(np.prod(growth * (1.0 - self.cost_bps * 1e-4 * turnover)))
        ck.expect(checks.rel_close(summary["frictions"]["terminal_wealth"], net, checks.REPLAY_RTOL)
                  and checks.rel_close(float(wealth[-1, header.index("portfolio_net")]), net,
                                        checks.REPLAY_RTOL),
                  "net terminal wealth differs from growth x (1 - cost x turnover)")

        files = {name: _digest([(outdir / name).read_bytes()])
                 for name in ("wealth.csv", "agents.csv", "cleaning_report.json")}
        summary.pop("runtime_seconds", None)
        if self.first is None:
            self.first = (files, summary)
            self._deep_check(ck, expected, planted, agents)
        else:
            ck.expect((files, summary) == self.first, "artifacts differ from the first round")

    def _deep_check(self, ck, expected, planted, agents):
        """Relatives through the program's loader, then the engine checks on a
        rerun of the run's controls, which must reproduce agents.csv."""
        cfg = run.load_config(self.cfg_path)
        matrix = run.build_dataset(cfg)
        ck.expect(matrix.tickers == self.bars["tickers"], "ticker order differs")
        ck.expect(np.array_equal(matrix.values, expected),
                  "relatives differ from close/open of the generated prices")
        ck.expect(np.array_equal(matrix.cleaned, planted), "cleaned mask differs from planted cells")
        stacks = run.pattern_controls(matrix, run.build_engine(cfg, matrix), (cfg.mode,))
        track = learner.run_backtest(matrix, stacks[cfg.mode], cfg.mode, cfg.rule)
        ck.expect(np.array_equal(track.wealth, agents[:, 1])
                  and np.array_equal(track.turnover, agents[:, 2])
                  and np.array_equal(track.agent_wealth, agents[:, 4:]),
                  "agents.csv not reproduced by the public one-pass path")
        checks.check_engine(ck, matrix.values, lambda: run.build_engine(cfg, matrix),
                            stacks, {cfg.mode: track}, self.periods_to_check)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Battery, LongHistory, IntradayCli)}
