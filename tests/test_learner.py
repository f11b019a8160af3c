import csv

import numpy as np
import pytest

from zeroport import learner
from zeroport.learner import (
    BankruptcyError,
    LearnerState,
    MixtureRule,
    WealthTrack,
    mixture_update,
    renormalize_mixture,
    run_backtest,
    step,
)
from conftest import scalar_learner_trace


class TestMixtureUpdate:
    def test_universal_copies_wealth(self):
        q = np.array([0.2, 0.8])
        s = np.array([1.5, 0.7])
        np.testing.assert_array_equal(mixture_update(q, s, MixtureRule("universal")), s)

    def test_eg_equal_wealth_scales_uniformly(self):
        q = np.array([0.5, 0.5])
        s = np.array([1.0, 1.0])
        out = mixture_update(q, s, MixtureRule("eg", eta=0.1))
        np.testing.assert_allclose(out, 0.5 * np.exp(0.1), rtol=1e-15)

    def test_ewma_lambda_one_is_identity(self):
        q = np.array([0.3, 0.7])
        out = mixture_update(q, np.array([2.0, 1.0]), MixtureRule("ewma", lam=1.0))
        np.testing.assert_array_equal(out, q)

    def test_ewma_formula(self):
        q = np.array([0.5, 0.5])
        s = np.array([2.0, 1.0])
        out = mixture_update(q, s, MixtureRule("ewma", lam=0.6))
        denom = 0.5 * 2.0 + 0.5 * 1.0
        expected = 0.6 * q + 0.4 * q * s / denom
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_zero_inner_product_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            mixture_update(np.zeros(2), np.ones(2), MixtureRule("eg"))

    def test_nonpositive_wealth_rejected(self):
        with pytest.raises(ValueError):
            mixture_update(np.ones(2), np.array([1.0, 0.0]), MixtureRule("universal"))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            MixtureRule("eg", eta=0.0)
        with pytest.raises(ValueError):
            MixtureRule("ewma", lam=1.5)
        with pytest.raises(ValueError):
            MixtureRule("sideways")


class TestRenormalize:
    def test_absolute_probability_vector(self):
        out = renormalize_mixture(np.array([2.0, 1.0, 1.0]), "absolute")
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-15)

    def test_active_worked_example(self):
        out = renormalize_mixture(np.array([2.0, 1.0, 1.0, 0.0]), "active")
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0, -0.5], atol=1e-15)

    def test_active_flat_mixture_holds_cash(self):
        out = renormalize_mixture(np.full(5, 3.3), "active")
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_active_invariants_random(self, rng):
        for _ in range(100):
            q = rng.normal(size=8)
            out = renormalize_mixture(q, "active")
            assert abs(out.sum()) < 1e-12
            lev = np.abs(out).sum()
            assert lev == 0.0 or abs(lev - 1.0) < 1e-12


class TestStep:
    def _state(self, mode, b, n_agents=2):
        state = LearnerState.initial(n_agents, len(b), mode)
        state.b = np.asarray(b, dtype=float)
        return state

    def test_absolute_symmetric_growth(self):
        state = self._state("absolute", [0.5, 0.5])
        h = np.full((2, 2), 0.5)
        step(state, np.array([1.1, 0.9]), h, h)
        assert state.s_port == pytest.approx(1.0, abs=1e-15)

    def test_active_long_short_growth(self):
        state = self._state("active", [0.5, -0.5])
        h = np.zeros((2, 2))
        step(state, np.array([1.1, 0.9]), h, h)
        assert state.s_port == pytest.approx(1.1, abs=1e-15)

    def test_portfolio_bankruptcy_detected(self):
        state = self._state("active", [-0.5, 0.5])
        h = np.zeros((2, 2))
        with pytest.raises(BankruptcyError, match="portfolio"):
            step(state, np.array([3.2, 0.5]), h, h)

    def test_agent_bankruptcy_identifies_culprit(self):
        state = self._state("active", [0.0, 0.0])
        h = np.array([[0.5, -0.5], [-0.5, 0.5]])
        with pytest.raises(BankruptcyError, match="agent 1"):
            step(state, np.array([3.2, 0.5]), h, h)

    def test_non_finite_agent_wealth_is_bankruptcy(self):
        state = self._state("absolute", [0.5, 0.5])
        h = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(BankruptcyError,
                           match=r"^agent 1 wealth is not finite \(nan\) at period 0$"):
            step(state, np.array([1.1, 0.9]), h, h)

    def test_non_finite_mixture_is_bankruptcy(self):
        # exp(eta * S / (q.S)) overflows for a large EG step.
        state = LearnerState.initial(2, 2, "absolute", MixtureRule("eg", eta=1000.0))
        h = np.eye(2)
        with pytest.raises(BankruptcyError,
                           match=r"^mixture weight 0 is not finite \(inf\) at period 0$"):
            step(state, np.array([1.0, 1.0]), h, h)

    def test_leverage_correction_rescales_b_and_q(self):
        state = self._state("active", [0.0, 0.0])
        # Unequal agent wealth drives a non-unit aggregate leverage.
        state.s_agents = np.array([1.0, 1.0])
        h_next = np.array([[0.5, -0.5], [0.25, -0.25]])
        x = np.array([1.2, 0.8])
        h_now = np.array([[0.5, -0.5], [-0.5, 0.5]])
        step(state, x, h_now, h_next)
        lev = np.abs(state.b).sum()
        assert lev == 0.0 or abs(lev - 1.0) < 1e-12

    def test_hold_cash_when_aggregate_vanishes(self):
        state = self._state("active", [0.0, 0.0])
        h = np.zeros((2, 2))
        report = step(state, np.array([1.05, 0.97]), h, h)
        assert report.hold_cash
        np.testing.assert_array_equal(state.b, np.zeros(2))

    def test_rejects_nonpositive_relatives(self):
        state = self._state("absolute", [0.5, 0.5])
        with pytest.raises(ValueError):
            step(state, np.array([1.0, 0.0]), np.full((2, 2), 0.5))


class TestRunBacktest:
    def test_flat_market_wealth_stays_one(self):
        x = np.ones((10, 3))
        h = np.full((10, 2, 3), 1 / 3)
        for mode, hh in (("absolute", h), ("active", np.zeros((10, 2, 3)))):
            track = run_backtest(x, hh, mode)
            np.testing.assert_allclose(track.wealth, 1.0, atol=1e-12)

    def test_single_asset_absolute_tracks_stock(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(40, 1)))
        h = np.ones((40, 3, 1))
        track = run_backtest(x, h, "absolute")
        np.testing.assert_allclose(track.wealth, np.cumprod(x[:, 0]), rtol=1e-12)

    def test_matches_scalar_trace_absolute_and_active(self, rng):
        # Independent pure-Python replay of the five-step loop.
        t, n, m = 6, 2, 2
        x = np.round(np.exp(rng.normal(0, 0.05, size=(t, m))), 4)
        h = np.empty((t, n, m))
        h[:, 0] = [1.0, 0.0]
        h[:, 1] = [0.0, 1.0]
        track = run_backtest(x, h, "absolute")
        expected = scalar_learner_trace(x.tolist(), h.tolist(), "absolute", n)
        np.testing.assert_allclose(track.wealth, expected, rtol=1e-12)

        h_act = np.empty((t, n, m))
        h_act[:, 0] = [0.5, -0.5]
        h_act[:, 1] = [-0.5, 0.5]
        track = run_backtest(x, h_act, "active")
        expected = scalar_learner_trace(x.tolist(), h_act.tolist(), "active", n)
        np.testing.assert_allclose(track.wealth, expected, rtol=1e-12)

    def test_dominant_agent_takes_the_mixture(self):
        # Asset 0 compounds up; agent 0 rides it, agent 1 rides the loser.
        t = 120
        x = np.tile([1.02, 0.99], (t, 1))
        h = np.empty((t, 2, 2))
        h[:, 0] = [1.0, 0.0]
        h[:, 1] = [0.0, 1.0]
        track = run_backtest(x, h, "absolute")
        # universal rule: the mixture ends proportional to wealth
        q_final = track.agent_wealth[-1] / track.agent_wealth[-1].sum()
        assert q_final[0] > 0.95
        late_growth = track.wealth[-1] / track.wealth[-2]
        assert late_growth == pytest.approx(1.02, abs=1e-3)

    def test_aggregation_consistency_and_normalization(self, rng):
        t, n, m = 30, 4, 3
        x = np.exp(rng.normal(0, 0.02, size=(t, m)))
        h = rng.dirichlet(np.ones(m), size=(t, n))
        track = run_backtest(x, h, "absolute")
        # every period's held controls live on the simplex
        np.testing.assert_allclose(track.controls.sum(axis=1)[1:], 1.0, atol=1e-12)
        assert np.all(track.controls >= -1e-15)
        # active: leverage is one or zero after correction
        h_act = rng.normal(size=(t, n, m))
        h_act -= h_act.mean(axis=2, keepdims=True)
        h_act /= np.abs(h_act).sum(axis=2, keepdims=True)
        track = run_backtest(x, h_act, "active")
        lev = np.abs(track.controls).sum(axis=1)
        assert np.all((lev < 1e-12) | (np.abs(lev - 1.0) < 1e-12))

    def test_determinism_bit_identity(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(25, 2)))
        h = rng.dirichlet(np.ones(2), size=(25, 3))
        a = run_backtest(x, h, "absolute")
        b = run_backtest(x.copy(), h.copy(), "absolute")
        assert a.wealth.tobytes() == b.wealth.tobytes()
        assert a.agent_wealth.tobytes() == b.agent_wealth.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()

    def test_agent_wealth_underflow_is_bankruptcy(self):
        # An agent held in an asset that quarters every period has wealth
        # 2**-(2t + 2) after period t: the smallest subnormal at t = 536,
        # zero at t = 537, where the run stops.
        x = np.tile([0.25, 1.0], (600, 1))
        h = np.broadcast_to(np.eye(2), (600, 2, 2))
        with pytest.raises(BankruptcyError, match="^agent 0 wealth is 0 at period 537$"):
            run_backtest(x, h, "absolute")

    def test_too_short_history(self):
        with pytest.raises(ValueError):
            run_backtest(np.ones((1, 2)), np.full((1, 1, 2), 0.5), "absolute")


class TestWealthTrack:
    def test_csv_round_trip(self, tmp_path, rng):
        x = np.exp(rng.normal(0, 0.02, size=(9, 2)))
        h = rng.dirichlet(np.ones(2), size=(9, 2))
        track = run_backtest(x, h, "absolute")
        path = tmp_path / "wealth.csv"
        track.to_csv(path, include_agents=True)
        rows = path.read_text().strip().splitlines()
        assert rows[0].split(",")[:2] == ["t", "wealth"]
        assert len(rows) == 10
        last = rows[-1].split(",")
        assert float(last[1]) == track.terminal

    @pytest.mark.parametrize("include_agents", [True, False])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, rng, include_agents):
        # Negative, subnormal, huge, integral and signed-zero floats; bool hold_cash.
        special = [-1.5, 5e-324, -2.2250738585072014e-309, 1e308, 3.0, -0.0, 0.1 + 0.2]
        wealth = np.concatenate([special, rng.uniform(0.5, 2.0, 5)])
        n = wealth.size
        track = WealthTrack(wealth=wealth, controls=np.zeros((n, 2)),
                            turnover=-rng.uniform(0.0, 1e-310, n),
                            hold_cash=rng.random(n) < 0.5, mode="active",
                            agent_wealth=rng.permutation(np.resize(special, (n, 3))))
        path, ref = tmp_path / "agents.csv", tmp_path / "ref.csv"
        track.to_csv(path, include_agents=include_agents)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "wealth", "turnover", "hold_cash"]
                            + ["agent_0", "agent_1", "agent_2"] * include_agents)
            for t in range(n):
                writer.writerow([t + 1, repr(float(track.wealth[t])),
                                 repr(float(track.turnover[t])), int(track.hold_cash[t])]
                                + [repr(float(v)) for v in track.agent_wealth[t]]
                                * include_agents)
        assert path.read_bytes() == ref.read_bytes()

    def test_write_csv_bytes_equal_csv_writer(self, tmp_path):
        rows = [[1, -0.5, 5e-324], [-7, 2**70, 1e-310], [0, True, False]]
        path, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        learner.write_csv(path, ["t", "a b", "c"], rows)
        with open(ref, "w", newline="") as fh:
            csv.writer(fh).writerows([["t", "a b", "c"], *rows])
        assert path.read_bytes() == ref.read_bytes()

    def test_summary_contains_best_agent(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(9, 2)))
        h = rng.dirichlet(np.ones(2), size=(9, 3))
        summary = run_backtest(x, h, "absolute").summary()
        assert summary["terminal_wealth"] > 0
        assert 0 <= summary["best_agent"]["index"] < 3
