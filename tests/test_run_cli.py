import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import yaml

from zeroport import baselines, cli, forkpool, marketdata, synth
from zeroport.baselines import DEFAULT_RESOLUTION
from zeroport import run as run_module
from zeroport.fundsep import SolverError
from zeroport.learner import MODES, BankruptcyError, MixtureRule, WealthTrack, run_backtest
from zeroport.marketdata import DataError
from zeroport.patterns import MatchConfig, PatternAgents, agent_grid
from zeroport.run import (
    ConfigError,
    GridConfig,
    apply_frictions,
    apply_overrides,
    batch,
    config_from_dict,
    nyse_table,
    run,
    run_case_seed,
)
import timing_harness
from conftest import FIXTURE_DIR, HUGE_RELATIVES, REPO_ROOT, write_relatives_csv
from timing_harness import TimingOrderError, timing_report

BASE_DOC = {
    "spec_version": 1,
    "data": {"kind": "synth", "case": "SDC1", "assets": 3, "periods": 60, "seed": 2},
    "mode": "absolute",
    "grid": {"windows": 2, "levels": 3},
}


def make_doc(**updates):
    doc = json.loads(json.dumps(BASE_DOC))
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


class TestConfig:
    def test_valid_document(self):
        cfg = config_from_dict(make_doc())
        assert cfg.mode == "absolute"
        assert cfg.grid.windows == 2

    def test_spec_version_required(self):
        doc = make_doc()
        del doc["spec_version"]
        with pytest.raises(ConfigError, match="spec_version"):
            config_from_dict(doc)

    def test_zero_windows_rejected_with_path(self):
        with pytest.raises(ConfigError, match="grid.windows"):
            config_from_dict(make_doc(grid={"windows": 0, "levels": 3}))

    def test_bad_mode_path(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict(make_doc(mode="leveraged"))

    def test_bad_case_path(self):
        with pytest.raises(ConfigError, match="data.case"):
            config_from_dict(make_doc(data={"kind": "synth", "case": "SDC9"}))

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError, match="frictions.cost_bps"):
            config_from_dict(make_doc(frictions={"cost_bps": -1}))

    def test_bad_matching_rule(self):
        with pytest.raises(ConfigError, match="matching"):
            config_from_dict(make_doc(matching={"rule": "psychic"}))

    def test_unknown_matching_key_rejected(self):
        with pytest.raises(ConfigError, match=r"matching\.rul:"):
            config_from_dict(make_doc(matching={"rul": "gyorfi_nn"}))

    def test_matching_must_be_mapping(self):
        with pytest.raises(ConfigError, match="matching: must be a mapping"):
            config_from_dict(make_doc(matching="gyorfi_nn"))

    def test_overrides_dotted_paths(self):
        doc = apply_overrides(make_doc(), ["data.seed=9", "mode=active",
                                           "grid.levels=5"])
        cfg = config_from_dict(doc)
        assert cfg.data["seed"] == 9
        assert cfg.mode == "active"
        assert cfg.grid.levels == 5

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides(make_doc(), ["mode active"])

    def test_defaults_filled_in(self):
        cfg = config_from_dict(make_doc(data={"kind": "synth", "case": "SDC2"}))
        assert cfg.data == {"kind": "synth", "case": "SDC2", "assets": 3, "periods": 60,
                            "seed": 2, "variance": synth.DEFAULT_VARIANCE}
        assert cfg.baselines == {"best_stock": True, "universal_portfolio": None}
        assert (cfg.cost_bps, cfg.flat_turnover, cfg.output, cfg.record_agents) == \
            (0.0, None, None, True)
        assert cfg.grid == GridConfig(windows=2, levels=3)
        ohlc = config_from_dict({"spec_version": 1, "data": {"kind": "ohlc_csv", "path": "x.csv"}})
        assert ohlc.data == {"kind": "ohlc_csv", "path": "x.csv", "delimiter": ",",
                             "tickers": None, "schema": marketdata.DEFAULT_SCHEMA,
                             "convention": "close_to_close", "clean": True,
                             "clean_lo": marketdata.SPLIT_LO, "clean_hi": marketdata.SPLIT_HI}

    @pytest.mark.parametrize("given, expected", [
        (None, None),
        (False, None),
        (True, {"resolution": DEFAULT_RESOLUTION}),
        ({}, {"resolution": DEFAULT_RESOLUTION}),
        ({"resolution": 40}, {"resolution": 40}),
    ])
    def test_universal_portfolio_switch(self, given, expected):
        cfg = config_from_dict(make_doc(baselines={"universal_portfolio": given}))
        assert cfg.baselines["universal_portfolio"] == expected

    def test_numbers_parsed_from_strings_and_ints(self):
        cfg = config_from_dict(make_doc(matching={"ridge": "1e-6", "gamma": 2},
                                        frictions={"cost_bps": 5}))
        assert (cfg.matching.ridge, cfg.matching.gamma, cfg.cost_bps) == (1e-6, 2.0, 5.0)
        assert isinstance(cfg.cost_bps, float)


@pytest.mark.parametrize("exc", [
    ConfigError("grid.windows", "must be an integer >= 1"),
    BankruptcyError(3, "x", -0.1),
    DataError("unparsable price", row=7),
    DataError("no rows"),
    SolverError("covariance not positive definite", condition=3.5e17),
    SolverError("singular"),
], ids=lambda exc: type(exc).__name__)
def test_error_survives_pickle(exc):
    """Errors raised in a batch worker reach the parent through a pickle."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


class TestRun:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = config_from_dict(make_doc(baselines={"best_stock": True}))
        summary = run(cfg, outdir=tmp_path)
        wealth_lines = (tmp_path / "wealth.csv").read_text().strip().splitlines()
        assert wealth_lines[0] == "t,portfolio,best_stock"
        assert len(wealth_lines) == 61
        saved = json.loads((tmp_path / "summary.json").read_text())
        last_value = float(wealth_lines[-1].split(",")[1])
        assert saved["portfolio"]["terminal_wealth"] == last_value
        assert (tmp_path / "agents.csv").exists()
        assert summary["portfolio"]["terminal_wealth"] == last_value

    def test_byte_identical_reruns(self, tmp_path):
        cfg = config_from_dict(make_doc())
        run(cfg, outdir=tmp_path / "a")
        run(cfg, outdir=tmp_path / "b")
        assert (tmp_path / "a/wealth.csv").read_bytes() == (tmp_path / "b/wealth.csv").read_bytes()
        assert (tmp_path / "a/agents.csv").read_bytes() == (tmp_path / "b/agents.csv").read_bytes()

    def test_relatives_csv_inputs(self, tmp_path):
        cfg = config_from_dict({
            "spec_version": 1,
            "data": {"kind": "relatives_csv",
                     "path": str(FIXTURE_DIR / "pair_synthetic.csv")},
            "grid": {"windows": 2, "levels": 2},
        })
        summary = run(cfg, outdir=tmp_path)
        assert summary["data"]["tickers"] == ["PAIRA", "PAIRB"]
        assert (tmp_path / "cleaning_report.json").exists()


def _ohlc_csv(path, periods=150, tickers=("A1", "A2", "B1", "B2")):
    """Seeded 5-minute bars, one row per ticker per bar, with a few left out."""
    rng = np.random.default_rng(5)
    close = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (periods, len(tickers))), axis=0))
    open_ = close * np.exp(rng.normal(0, 0.003, close.shape))
    lines = ["timestamp,ticker,open,high,low,close"]
    for t in range(periods):
        stamp = f"2024-03-04T{9 + t // 12:02d}:{5 * (t % 12):02d}:00"
        for j, name in enumerate(tickers):
            if (7 * t + j) % 53 == 0:
                continue
            o, c = float(open_[t, j]), float(close[t, j])
            lines.append(f"{stamp},{name},{o!r},{max(o, c)!r},{min(o, c)!r},{c!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _stacked_backtest(x, engine, modes, rule=MixtureRule(), **kwargs):
    """The stacked path: whole (T, N, M) stacks first, then the array learner per mode."""
    stacks = engine.controls_series(x, tuple(modes))
    return {mode: run_backtest(x, stacks[mode], mode, rule, label=label, **kwargs)
            for mode, label in modes.items()}


class TestStreamedRun:
    @pytest.mark.parametrize("mode, rule", [("active", "universal"), ("absolute", "eg")])
    def test_artifacts_equal_the_stacked_path(self, tmp_path, monkeypatch, mode, rule):
        cfg = config_from_dict({
            "spec_version": 1,
            "data": {"kind": "ohlc_csv", "path": str(_ohlc_csv(tmp_path / "bars.csv")),
                     "convention": "open_to_close"},
            "mode": mode, "rule": {"name": rule},
            "grid": {"windows": 3, "levels": 4},
            "clusters": {"A": ["A1", "A2"], "B": ["B1", "B2"]},
            "frictions": {"cost_bps": 5.0},
        })
        streamed = run(cfg, outdir=tmp_path / "streamed")
        monkeypatch.setattr(run_module, "_backtest", _stacked_backtest)
        stacked = run(cfg, outdir=tmp_path / "stacked")
        for name in ("wealth.csv", "agents.csv", "cleaning_report.json"):
            assert (tmp_path / "streamed" / name).read_bytes() == \
                (tmp_path / "stacked" / name).read_bytes(), name
        assert streamed["data"]["periods"] == 150
        assert streamed["agent_fallbacks"] == stacked["agent_fallbacks"] > 0

    def test_learner_raising_mid_stream_leaves_no_worker(self, monkeypatch):
        pools = []

        def failing(x, controls, mode, *args, **kwargs):
            blocks = iter(controls)
            next(blocks)
            next(blocks)
            pools.append(len(multiprocessing.active_children()))
            raise RuntimeError("learner failed")

        monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
        monkeypatch.setattr(run_module, "run_backtest", failing)
        cfg = config_from_dict(make_doc(data={"periods": 520}))  # 17 blocks: two workers
        with pytest.raises(RuntimeError) as excinfo:
            run(cfg)
        assert pools == [2]
        # Checked while the traceback, and every frame on it, is still held.
        assert multiprocessing.active_children() == []
        assert str(excinfo.value) == "learner failed"

    def test_learner_raising_on_the_second_mode_leaves_no_worker(self, monkeypatch):
        modes, pools = [], []

        def failing(x, controls, mode, *args, **kwargs):
            modes.append(mode)
            if len(modes) == 1:
                return run_backtest(x, controls, mode, *args, **kwargs)
            next(iter(controls))
            pools.append(len(multiprocessing.active_children()))
            raise RuntimeError("learner failed")

        monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
        monkeypatch.setattr(run_module, "run_backtest", failing)
        cfg = config_from_dict(make_doc(data={"periods": 520}))  # 17 blocks: two workers
        with pytest.raises(RuntimeError) as excinfo:
            run_case_seed(cfg, "SDC1", seed=2)
        assert modes == ["absolute", "active"]
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert str(excinfo.value) == "learner failed"

    def test_run_never_holds_the_control_stack(self, monkeypatch):
        # Blocks solved in this process, so their work is traced too.
        monkeypatch.setattr(forkpool, "usable_cores", lambda: 1)
        t, m, names = 1000, 12, [f"S{i:02d}" for i in range(1, 13)]
        cfg = config_from_dict(make_doc(
            data={"assets": m, "periods": t}, mode="active", grid={"windows": 5, "levels": 10},
            clusters={"A": names[:6], "B": names[6:]}))
        n_agents = 100
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t * n_agents * m * 8


class TestFrictions:
    def _track(self, growths, turnover=None):
        growths = np.asarray(growths, dtype=float)
        wealth = np.cumprod(growths)
        t = len(growths)
        return WealthTrack(
            wealth=wealth,
            controls=np.zeros((t, 2)),
            turnover=np.ones(t) if turnover is None else np.asarray(turnover, float),
            hold_cash=np.zeros(t, dtype=bool),
            mode="active",
        )

    def test_zero_cost_is_identity(self):
        track = self._track([1.001] * 5)
        assert apply_frictions(track, 0.0) is track

    def test_single_period_arithmetic(self):
        track = self._track([1.0015])
        net = apply_frictions(track, 10.0, flat_turnover=1.0)
        assert net.wealth[0] == pytest.approx(1.0015 * (1 - 0.001), rel=1e-15)

    def test_turnover_scales_cost(self):
        track = self._track([1.002, 1.002], turnover=[0.5, 2.0])
        net = apply_frictions(track, 10.0)
        assert net.wealth[0] == pytest.approx(1.002 * (1 - 0.0005), rel=1e-14)
        assert net.wealth[1] == pytest.approx(
            1.002 * (1 - 0.0005) * 1.002 * (1 - 0.002), rel=1e-14)

    def test_annualized_compounding_example(self):
        # 250 periods netting 5 bps/period compounds to ~13.3%
        gross = 1.0005 / (1 - 0.001)
        net = apply_frictions(self._track([gross] * 250), 10.0, flat_turnover=1.0)
        assert net.terminal == pytest.approx(1.0005**250, rel=1e-12)
        assert net.terminal == pytest.approx(1.1331, abs=2e-4)

    def test_ruinous_cost_raises(self):
        track = self._track([1.01])
        with pytest.raises(BankruptcyError):
            apply_frictions(track, 20000.0, flat_turnover=10.0)


class TestBatch:
    def test_small_sweep_outputs(self, tmp_path):
        cfg = config_from_dict(make_doc(data={"kind": "synth", "case": "SDC1",
                                              "assets": 3, "periods": 80}))
        result = batch(cfg, outdir=tmp_path, cases=("SDC1", "SDC4"), seeds=range(1, 4))
        assert (tmp_path / "stats_absolute.csv").exists()
        assert (tmp_path / "stats_active.csv").exists()
        assert (tmp_path / "cross_case_active.csv").exists()
        stats = (tmp_path / "stats.csv").read_text().splitlines()
        assert len(stats) == 1 + 4  # header + case x mode rows
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["wealth"]["absolute"]) == {"SDC1", "SDC4"}
        for mode in ("absolute", "active"):
            for case in ("SDC1", "SDC4"):
                assert len(result["terminals"][mode][case]) == 3

    def test_worker_count_changes_no_output(self, tmp_path, monkeypatch):
        cfg = config_from_dict(make_doc(data={"kind": "synth", "case": "SDC1",
                                              "assets": 3, "periods": 80}))
        kwargs = dict(cases=("SDC2", "SDC3"), seeds=(4, 5))
        results = {}
        for cores, name in ((1, "one"), (2, "two")):
            monkeypatch.setattr(forkpool, "usable_cores", lambda: cores)
            results[name] = batch(cfg, outdir=tmp_path / name, **kwargs)
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in names:
            if name != "summary.json":
                assert (tmp_path / "one" / name).read_bytes() == \
                    (tmp_path / "two" / name).read_bytes(), name
        summaries = [json.loads((tmp_path / d / "summary.json").read_text())
                     for d in ("one", "two")]
        assert [s.pop("workers") for s in summaries] == [1, 2]
        for s in summaries:
            s.pop("runtime_seconds")
        assert summaries[0] == summaries[1]
        for mode, by_case in results["one"]["triples"].items():
            for case, triples in by_case.items():
                for a, b in zip(triples, results["two"]["triples"][mode][case], strict=True):
                    for field in ("portfolio", "best_agent", "best_stock"):
                        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert multiprocessing.active_children() == []

    def test_workers_capped_at_case_seeds(self, monkeypatch):
        monkeypatch.setattr(forkpool, "usable_cores", lambda: 4)
        result = batch(config_from_dict(make_doc()), cases=("SDC1",), seeds=(1, 2))
        assert result["summary"]["workers"] == 2

    def test_other_thread_keeps_batch_in_process(self, monkeypatch):
        """No fork while another thread runs: the child could inherit a held lock."""
        monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            result = batch(config_from_dict(make_doc()), cases=("SDC1",), seeds=(1, 2))
        finally:
            release.set()
            other.join()
        assert result["summary"]["workers"] == 1

    def test_batch_requires_synth(self):
        cfg = config_from_dict({
            "spec_version": 1,
            "data": {"kind": "relatives_csv", "path": "x.csv"},
        })
        with pytest.raises(ConfigError, match="data.kind"):
            batch(cfg)

    def test_run_case_seed_shares_modes(self):
        cfg = config_from_dict(make_doc())
        out = run_case_seed(cfg, "SDC4", seed=3)
        assert set(out) == {"absolute", "active"}
        triple = out["absolute"]
        assert len(triple.portfolio) == 60
        assert len(triple.best_stock) == 60

    @pytest.mark.parametrize("rule", ["universal", "eg"])
    def test_run_case_seed_equals_the_stacked_path(self, monkeypatch, rule):
        cfg = config_from_dict(make_doc(data={"periods": 150}, rule={"name": rule},
                                        matching={"rule": "gyorfi_nn"}))
        streamed = run_case_seed(cfg, "SDC3", seed=5)
        monkeypatch.setattr(run_module, "_backtest", _stacked_backtest)
        stacked = run_case_seed(cfg, "SDC3", seed=5)
        for mode in MODES:
            for name in ("portfolio", "best_agent", "best_stock"):
                assert getattr(streamed[mode], name).tobytes() == \
                    getattr(stacked[mode], name).tobytes(), (mode, name)


class TestNyseTable:
    def test_rows_on_bundled_fixture(self, tmp_path):
        rows = nyse_table(FIXTURE_DIR / "pair_synthetic.csv",
                          pairs=(("PAIRA", "PAIRB"),), resolution=60,
                          grid=GridConfig(windows=2, levels=3), outdir=tmp_path)
        assert len(rows) == 1
        strategies = rows[0]["strategies"]
        assert {"absolute", "active", "nn_recovery", "universal_portfolio",
                "best_stock"} <= set(strategies)
        assert (tmp_path / "nyse_table.csv").exists()
        table = (tmp_path / "nyse_table.csv").read_text()
        assert "PAIRA/PAIRB" in table

    def test_two_matching_passes_equal_three_one_mode_passes(self, monkeypatch):
        passes, control_blocks = [], PatternAgents.control_blocks

        def counted(engine, history, modes=MODES):
            passes.append((engine.config.rule, tuple(modes)))
            return control_blocks(engine, history, modes)

        monkeypatch.setattr(PatternAgents, "control_blocks", counted)
        pairs, grid = (("PAIRA", "PAIRB"), ("PAIRB", "PAIRA")), GridConfig(windows=2, levels=3)
        rows = nyse_table(FIXTURE_DIR / "pair_synthetic.csv", pairs=pairs, resolution=40,
                          grid=grid)
        assert passes == [("trivial", ("absolute", "active")), ("gyorfi_nn", ("absolute",))] * 2
        matrix = marketdata.load_relatives_csv(FIXTURE_DIR / "pair_synthetic.csv")
        specs = agent_grid(grid.windows, grid.levels)
        for pair, row in zip(pairs, rows):
            sub = marketdata.select_tickers(matrix, list(pair))
            for label, mode, rule in (("absolute", "absolute", "trivial"),
                                      ("active", "active", "trivial"),
                                      ("nn_recovery", "absolute", "gyorfi_nn")):
                engine = PatternAgents(specs, 2, config=MatchConfig(rule=rule))
                track = run_backtest(sub, engine.controls_series(sub, (mode,))[mode], mode)
                cell = row["strategies"][label]
                assert cell["wealth"] == track.terminal, label
                assert cell["best_agent"] == baselines.best_agent(track)[1], label
        for row in rows:
            cells = row["strategies"]
            assert cells["absolute"]["seconds"] == cells["active"]["seconds"]

    def test_missing_tickers_is_data_error(self):
        from zeroport.marketdata import DataError
        with pytest.raises(DataError):
            nyse_table(FIXTURE_DIR / "pair_synthetic.csv", pairs=(("IROQU", "KINAR"),))


class TestTiming:
    def test_report_shape_and_interleaving(self):
        x = synth.generate(synth.SynthSpec(case="SDC1", assets=3, periods=60, seed=1))
        rows = timing_report(x, strategies=("absolute", "active", "numeric"), repeats=2,
                             grid=GridConfig(windows=2, levels=2), warmup_periods=20)
        assert [r["strategy"] for r in rows] == ["absolute", "active", "numeric"]
        assert all(len(r["runs"]) == 2 for r in rows)
        assert all(r["median_seconds"] > 0 for r in rows)

    def test_enforce_order_raises_on_violation(self, monkeypatch):
        # "absolute" is listed first, so it may not be slower than "active".
        def strategy_once(x, specs, matching, strategy):
            if strategy == "absolute":
                time.sleep(0.05)

        monkeypatch.setattr(timing_harness, "_run_strategy_once", strategy_once)
        x = synth.generate(synth.SynthSpec(case="SDC1", assets=3, periods=60, seed=1))
        with pytest.raises(TimingOrderError, match="absolute .* slower than active"):
            timing_report(x, strategies=("absolute", "active"), repeats=3, enforce_order=True)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["run", str(config), "--output", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["portfolio"]["terminal_wealth"] > 0

    def test_overflowing_controls_fall_back(self, capsys):
        # gamma=1e-300 overflows the active fund; those agents keep the
        # fallback and are counted, in both modes.
        for mode in ("absolute", "active"):
            code = cli.main(["run", str(REPO_ROOT / "configs" / "synth_run.yaml"),
                             "--set", "data.periods=200", "--set", f"mode={mode}",
                             "--set", "matching.gamma=1e-300"])
            assert code == 0
            captured = capsys.readouterr()
            out = json.loads(captured.out)
            assert math.isfinite(out["portfolio"]["terminal_wealth"])
            assert 2 * out["agent_fallbacks"] > out["agent_periods"], mode
            # Most of these fallbacks are non-finite controls, not a short history.
            assert (f"warning: {out['agent_fallbacks']} of {out['agent_periods']} agent-periods "
                    "fell back to the default control: the history is short for the agent "
                    "grid, or their controls were not finite") in captured.err

    def test_cli_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["run", str(config), "--set", "data.periods=40"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["data"]["periods"] == 40

    def test_config_error_exit_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc(mode="wrong")))
        assert cli.main(["run", str(config)]) == 2

    def test_dropped_matching_knob_exit_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        assert cli.main(["run", str(config), "--set", "matching.metric=euclidean"]) == 2
        assert "matching.metric" in capsys.readouterr().err

    @pytest.mark.parametrize("override, path", [
        ("mdoe=active", "mdoe"),
        ("data.asets=3", "data.asets"),
        ("data.horizons=[2000]", "data.horizons"),
        ("data.path=x.csv", "data.path"),
        ("grid.window=3", "grid.window"),
        ("rule.eta2=1", "rule.eta2"),
        ("frictions.cost=5", "frictions.cost"),
        ("baselines.univ=1", "baselines.univ"),
        ("baselines.universal_portfolio.res=10", "baselines.universal_portfolio.res"),
    ])
    def test_unknown_key_exit_two(self, tmp_path, override, path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        assert cli.main(["run", str(config), "--set", override]) == 2
        assert f"config error: {path}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, override, path", [
        ("relatives_csv", "data.convention=open_to_close", "data.convention"),
        ("relatives_csv", "data.case=SDC1", "data.case"),
        ("ohlc_csv", "data.seed=3", "data.seed"),
    ])
    def test_unknown_data_key_per_kind_exit_two(self, tmp_path, kind, override, path, capsys):
        config = tmp_path / "cfg.yaml"
        doc = make_doc()
        doc["data"] = {"kind": kind, "path": "x.csv"}
        config.write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(config), "--set", override]) == 2
        assert f"config error: {path}: unknown key" in capsys.readouterr().err

    def test_misspelt_matching_key_exit_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc(matching={"rul": "gyorfi_nn"})))
        assert cli.main(["run", str(config)]) == 2
        assert "matching.rul" in capsys.readouterr().err

    def test_data_error_exit_three(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "spec_version": 1,
            "data": {"kind": "relatives_csv", "path": str(tmp_path / "nope.csv")},
        }))
        assert cli.main(["run", str(config)]) == 3

    def test_batch_small(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc(data={"kind": "synth", "case": "SDC1",
                                                        "assets": 2, "periods": 50})))
        code = cli.main(["batch", str(config), "--seeds", "2", "--cases", "SDC1",
                         "--output", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "stats_absolute.csv").exists()
        workers = json.loads(capsys.readouterr().out)["workers"]
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["workers"] == workers

    def test_batch_unknown_case_exit_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["batch", str(config), "--seeds", "1", "--cases", "SDC1,SDC9"])
        assert code == 2
        assert "config error: cases: unknown synthetic cases ['SDC9']" in capsys.readouterr().err

    def test_batch_worker_bankruptcy_exit_four(self, tmp_path, monkeypatch, capsys):
        """A BankruptcyError raised inside a forked worker exits 4, and the
        pool leaves no process behind."""
        def ruin(*args, **kwargs):
            raise BankruptcyError(3, f"pid {os.getpid()}", -0.1)

        monkeypatch.setattr(run_module, "run_backtest", ruin)  # forked workers inherit it
        monkeypatch.setattr(forkpool, "usable_cores", lambda: 2)
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["batch", str(config), "--seeds", "2", "--cases", "SDC1"])
        err = capsys.readouterr().err
        assert code == 4
        assert "bankruptcy: pid " in err and f"pid {os.getpid()} " not in err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("override, path", [
        ("frictions.cost_bps=abc", "frictions.cost_bps"),
        ("frictions.flat_turnover=abc", "frictions.flat_turnover"),
        ("grid.horizons=3", "grid.horizons"),
        ("grid.horizons=[]", "grid.horizons"),
        ("grid=3", "grid"),
        ("frictions=3", "frictions"),
    ])
    def test_malformed_value_exit_two(self, tmp_path, override, path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        assert cli.main(["run", str(config), "--set", override]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, path", [
        (["data.variance=-1"], "data.variance"),
        (["data.variance=abc"], "data.variance"),
        (["data.case=SDC4", "data.assets=1"], "data.assets"),
        (["data.case=SDC4", "data.assets=2"], "data.assets"),
        (["data.periods=1"], "data.periods"),
        (["data.tickers=[ZZZ]"], "data.tickers"),
        (["clusters.A=[ZZZ]"], "clusters.A"),
        (["clusters.A=[S01]", "clusters.B=[]"], "clusters.B"),
        (["clusters.A=[S01, S01]"], "clusters.A"),
    ])
    def test_bad_data_or_cluster_exit_two(self, tmp_path, overrides, path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        argv = ["run", str(config)] + [arg for item in overrides for arg in ("--set", item)]
        assert cli.main(argv) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind, override, path", [
        ("relatives_csv", "baselines.universal_portfolio.resolution=abc",
         "baselines.universal_portfolio.resolution"),
        ("relatives_csv", "data.delimiter=5", "data.delimiter"),
        ("ohlc_csv", "data.clean_lo=abc", "data.clean_lo"),
        ("ohlc_csv", "data.clean_lo=2", "data.clean_lo"),
        ("ohlc_csv", "data.schema=5", "data.schema"),
        ("relatives_csv", "output=5", "output"),
        ("relatives_csv", "baselines.best_stock=maybe", "baselines.best_stock"),
        ("ohlc_csv", "data.clean=maybe", "data.clean"),
        ("relatives_csv", "record_agents=maybe", "record_agents"),
        ("relatives_csv", "grid.levels=true", "grid.levels"),
        ("synth", "data.seed=true", "data.seed"),
        ("relatives_csv", "matching.ridge=-1", "matching.ridge"),
        ("relatives_csv", "data.tickers=PAIRA", "data.tickers"),
        ("ohlc_csv", "data.schema.volume=vol", "data.schema.volume"),
    ])
    def test_mistyped_value_exit_two(self, tmp_path, kind, override, path, capsys):
        """Each value is typed and bounded by the key table, not by where it is used."""
        doc = make_doc(baselines={"best_stock": True, "universal_portfolio": {"resolution": 20}})
        if kind != "synth":
            doc["data"] = {"kind": kind, "path": str(FIXTURE_DIR / "pair_synthetic.csv")}
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(config), "--set", override]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["absolute", "active"])
    def test_unknown_projection_exit_two(self, tmp_path, mode, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc(mode=mode)))
        assert cli.main(["run", str(config), "--set", "matching.projection=foo"]) == 2
        assert "config error: matching: unknown projection 'foo'" in capsys.readouterr().err

    def test_universal_portfolio_grid_too_large_exit_two(self, tmp_path, capsys):
        """The resolution that fits depends on the asset count, so run() checks it."""
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        argv = ["run", str(config), "--set", "data.assets=4",
                "--set", "baselines.universal_portfolio=true"]
        assert cli.main(argv) == 2
        assert "config error: baselines.universal_portfolio.resolution: simplex grid" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["relatives_csv", "ohlc_csv"])
    def test_unreadable_data_path_exit_three(self, tmp_path, kind, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({"spec_version": 1,
                                          "data": {"kind": kind, "path": str(tmp_path)}}))
        assert cli.main(["run", str(config)]) == 3
        assert "data error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("text, overrides, path", [
        ("spec_version: 1\ndata: [\n", [], "<root>"),
        ("", ["mode=active"], "<root>"),
        (yaml.safe_dump(BASE_DOC), ["mode=["], "mode"),
    ], ids=["bad-file", "empty-file-with-override", "bad-override"])
    def test_unparsable_yaml_exit_two(self, tmp_path, text, overrides, path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        argv = ["run", str(config)] + [arg for item in overrides for arg in ("--set", item)]
        assert cli.main(argv) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "batch"])
    @pytest.mark.parametrize("name", ["", "missing.yaml"], ids=["directory", "missing"])
    def test_unreadable_config_path_exit_two(self, tmp_path, command, name, capsys):
        config = tmp_path / name
        assert cli.main([command, str(config)]) == 2
        assert f"config error: {config}: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1", "0"])
    def test_batch_too_few_seeds_exit_two_before_any_run(self, tmp_path, monkeypatch, seeds,
                                                         capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_case_seed called")

        monkeypatch.setattr(run_module, "run_case_seed", never)
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["batch", str(config), "--seeds", seeds, "--cases", "SDC1"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: seeds: the KS battery needs at least 2 seeds, got {seeds}" in err

    def test_table5_zero_resolution_exit_two_before_reading_data(self, tmp_path, capsys):
        code = cli.main(["table5", str(tmp_path / "missing.csv"), "--resolution", "0"])
        assert code == 2  # not 3: the data file is never opened
        assert "config error: resolution: must be an integer >= 1, got 0" in \
            capsys.readouterr().err

    def test_table5_grid_too_large_exit_two_before_any_strategy(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a strategy ran")

        monkeypatch.setattr(run_module, "_backtest", never)
        code = cli.main(["table5", str(FIXTURE_DIR / "pair_synthetic.csv"),
                         "--pairs", "PAIRA:PAIRB", "--resolution", "3000000"])
        assert code == 2
        assert "config error: resolution: simplex grid would hold 3000001 points" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind, text", [
        ("relatives_csv", "PAIRA,PAIRB\n1.01,0.99\n"),
        ("ohlc_csv", "ticker,timestamp,open,high,low,close\n"
                     "A,2024-01-02T00:00:00,10,11,9,10.5\n"
                     "A,2024-01-03T00:00:00,10.5,11,10,10.8\n"),
    ], ids=["relatives_csv", "ohlc_csv"])
    def test_one_period_csv_exit_three(self, tmp_path, kind, text, capsys):
        data = tmp_path / "one.csv"
        data.write_text(text)
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({"spec_version": 1,
                                          "data": {"kind": kind, "path": str(data)}}))
        assert cli.main(["run", str(config)]) == 3
        assert (f"data error: {data}: a backtest needs at least 2 periods of relatives, got 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rule", ["trivial", "gyorfi_nn"])
    def test_huge_relative_exit_zero_or_four(self, tmp_path, mode, rule, capsys):
        # The agents whose moments overflow fall back; no traceback.
        data = write_relatives_csv(tmp_path / "huge.csv", HUGE_RELATIVES)
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "spec_version": 1, "data": {"kind": "relatives_csv", "path": str(data)},
            "mode": mode, "grid": {"windows": 2, "levels": 3}, "matching": {"rule": rule}}))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["run", str(config)])
        captured = capsys.readouterr()
        assert code in (0, 4)
        if code == 0:
            assert json.loads(captured.out)["agent_fallbacks"] > 0
        else:
            assert captured.err.startswith("bankruptcy: ")

    def test_table5_one_period_csv_exit_three(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("PAIRA,PAIRB\n1.01,0.99\n")
        assert cli.main(["table5", str(data), "--pairs", "PAIRA:PAIRB"]) == 3
        assert f"data error: {data}: a backtest needs at least 2" in capsys.readouterr().err

    def test_non_finite_eg_mixture_exit_four(self, capsys):
        # A large EG step overflows the mixture; the run stops instead of
        # reporting a NaN terminal wealth.
        code = cli.main(["run", str(REPO_ROOT / "configs" / "synth_run.yaml"),
                         "--set", "data.periods=200", "--set", "rule.name=eg",
                         "--set", "rule.eta=10"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("bankruptcy: mixture weight ")
        assert "is not finite" in captured.err

    def test_batch_sdc4_with_two_assets_exit_two(self, tmp_path, capsys):
        # The config names SDC1, which takes two assets; the batch sweep adds SDC4.
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        code = cli.main(["batch", str(config), "--seeds", "1", "--set", "data.assets=2"])
        assert code == 2
        assert "config error: data.assets: " in capsys.readouterr().err

    def test_mostly_fallback_run_warns(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        assert cli.main(["run", str(config), "--set", "grid.horizons=[2000]"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["agent_fallbacks"] == summary["agent_periods"] == 60 * 2 * 3
        assert captured.err.count("warning: ") == 1
        assert f"{summary['agent_fallbacks']} of {summary['agent_periods']}" in captured.err

    def test_mostly_matched_run_does_not_warn(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(make_doc()))
        assert cli.main(["run", str(config)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert 0 < summary["agent_fallbacks"] < summary["agent_periods"] / 2
        assert captured.err == ""

    def test_table5_on_fixture(self, tmp_path, capsys):
        code = cli.main(["table5", str(FIXTURE_DIR / "pair_synthetic.csv"),
                         "--pairs", "PAIRA:PAIRB", "--resolution", "40",
                         "--output", str(tmp_path)])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["stocks"] == "PAIRA/PAIRB"


def test_import_leaves_scipy_unloaded():
    # Every CLI call pays the package import; scipy loads only where the
    # numeric solver or the two-sided KS p-value runs.
    code = ("import sys, zeroport, zeroport.cli, zeroport.run; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
