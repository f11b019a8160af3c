import csv

import numpy as np
import pytest

from zeroport import learner
from zeroport.learner import (
    MODES,
    BankruptcyError,
    MixtureRule,
    WealthTrack,
    mixture_update,
    renormalize_mixture,
    run_backtest,
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


# Opposite long-short agents: after a period-0 move of x = [1.1, 0.9] or
# [1.2, 0.8] the active mixture is [0.5, -0.5], so period 1 holds q @ h[1].
LONG_SHORT = np.array([[0.5, -0.5], [-0.5, 0.5]])


class TestStep:
    """One learner period, run through run_backtest on two- and three-period histories."""

    def test_absolute_symmetric_growth(self):
        h = np.full((2, 2, 2), 0.5)
        track = run_backtest(np.array([[1.1, 0.9], [1.0, 1.0]]), h, "absolute")
        np.testing.assert_array_equal(track.controls[0], [0.5, 0.5])
        assert track.wealth[0] == pytest.approx(1.0, abs=1e-15)

    def test_active_long_short_growth(self):
        x = np.array([[1.1, 0.9], [1.1, 0.9]])
        track = run_backtest(x, np.stack([LONG_SHORT, LONG_SHORT]), "active")
        np.testing.assert_array_equal(track.controls[1], [0.5, -0.5])
        assert track.wealth[1] == pytest.approx(1.1, abs=1e-15)

    def test_portfolio_bankruptcy_detected(self):
        # Agent 0 also goes bankrupt in period 1; the portfolio is checked first.
        x = np.array([[1.1, 0.9], [3.2, 0.5]])
        with pytest.raises(BankruptcyError, match="^portfolio wealth is -0.35 at period 1$"):
            run_backtest(x, np.stack([LONG_SHORT, -LONG_SHORT]), "active")

    def test_agent_bankruptcy_identifies_culprit(self):
        x = np.array([[3.2, 0.5], [1.0, 1.0]])
        with pytest.raises(BankruptcyError, match="^agent 1 wealth is -0.35 at period 0$"):
            run_backtest(x, np.stack([LONG_SHORT, LONG_SHORT]), "active")

    def test_non_finite_agent_wealth_is_bankruptcy(self):
        h = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(BankruptcyError,
                           match=r"^agent 1 wealth is not finite \(nan\) at period 0$"):
            run_backtest(np.array([[1.1, 0.9], [1.0, 1.0]]), np.stack([h, h]), "absolute")

    def test_non_finite_mixture_is_bankruptcy(self):
        # exp(eta * S / (q.S)) overflows for a large EG step.
        h = np.broadcast_to(np.eye(2), (2, 2, 2))
        with pytest.raises(BankruptcyError,
                           match=r"^mixture weight 0 is not finite \(inf\) at period 0$"):
            run_backtest(np.ones((2, 2)), h, "absolute", MixtureRule("eg", eta=1000.0))

    def test_leverage_correction_rescales_b_and_q(self):
        # Active: q = [0.5, -0.5] aggregates to leverage 0.25, rescaled to one.
        h_next = np.array([[0.5, -0.5], [0.25, -0.25]])
        track = run_backtest(np.array([[1.2, 0.8], [1.0, 1.0]]),
                             np.stack([LONG_SHORT, h_next]), "active")
        np.testing.assert_array_equal(track.controls[1], [0.5, -0.5])
        # Absolute EG, agents at leverage 2: controls and the mixture carried
        # into period 1 are both halved, which moves period 2's controls.
        x = np.array([[1.1, 0.9], [1.0, 1.05], [1.0, 1.0]])
        track = run_backtest(x, np.broadcast_to(2.0 * np.eye(2), (3, 2, 2)), "absolute",
                             MixtureRule("eg", eta=0.5))
        s0, s1 = np.array([1.2, 0.8]), np.array([1.2, 0.88])
        q0 = 0.5 * np.exp(0.5 * s0)
        q0 /= q0.sum()
        np.testing.assert_allclose(track.controls[1], q0, rtol=1e-15)

        def period_2_controls(q):
            q = q * np.exp(0.5 * s1 / (q @ s1))
            return q / q.sum()

        np.testing.assert_allclose(track.controls[2], period_2_controls(q0 / 2.0), rtol=1e-14)
        assert np.abs(period_2_controls(q0) - period_2_controls(q0 / 2.0)).max() > 1e-3

    def test_hold_cash_when_aggregate_vanishes(self):
        track = run_backtest(np.array([[1.05, 0.97], [1.0, 1.0]]), np.zeros((2, 2, 2)), "active")
        np.testing.assert_array_equal(track.hold_cash, [True, False])
        np.testing.assert_array_equal(track.controls[1], np.zeros(2))

    def test_rejects_nonpositive_relatives(self):
        with pytest.raises(ValueError, match="price relatives must be positive"):
            run_backtest(np.array([[1.0, 0.0], [1.0, 1.0]]), np.full((2, 2, 2), 0.5), "absolute")


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
        # Independent pure-Python replay of the loop, for all three rules.
        # Agent 2 holds twice the leverage of the others, so the aggregate
        # is rescaled (controls and mixture); in active mode every agent
        # holds cash in period 0, so the mixture is flat (hold-cash) and EG
        # and EWMA restart from uniform in period 1.
        t, n, m = 9, 3, 3
        x = np.round(np.exp(rng.normal(0, 0.05, size=(t, m))), 4)
        h = rng.dirichlet(np.ones(m), size=(t, n))
        h[:, 2] *= 2.0
        h_act = rng.normal(size=(t, n, m))
        h_act -= h_act.mean(axis=2, keepdims=True)
        h_act /= np.abs(h_act).sum(axis=2, keepdims=True)
        h_act[0] = 0.0
        for rule in (MixtureRule("universal"), MixtureRule("eg", eta=0.3),
                     MixtureRule("ewma", lam=0.6)):
            for mode, hh in (("absolute", h), ("active", h_act)):
                track = run_backtest(x, hh, mode, rule)
                wealth, held = scalar_learner_trace(x.tolist(), hh.tolist(), mode, n,
                                                    rule.name, rule.eta, rule.lam)
                np.testing.assert_allclose(track.wealth, wealth, rtol=1e-12)
                np.testing.assert_allclose(track.controls, held, rtol=1e-12, atol=1e-15)
                assert np.isfinite(track.wealth).all()
                assert not track.hold_cash[1:].any()
                if mode == "active":
                    assert track.hold_cash[0]

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

    @pytest.mark.parametrize("n_agents", [1, 2, 3, 5, 13])
    def test_prefixes_and_block_edges_are_byte_identical(self, rng, monkeypatch, n_agents):
        # 12 agent-periods a block puts block edges every 12 // N periods
        # (every period for N = 13) inside the 23-period history.
        t, m = 23, 3
        fields = ("wealth", "agent_wealth", "controls", "turnover", "hold_cash")
        x = np.exp(rng.normal(0, 0.03, size=(t, m)))
        h_act = rng.normal(size=(t, n_agents, m))
        h_act -= h_act.mean(axis=2, keepdims=True)
        h_act /= np.abs(h_act).sum(axis=2, keepdims=True)
        stacks = {"absolute": rng.dirichlet(np.ones(m), size=(t, n_agents)), "active": h_act}
        rules = (MixtureRule("universal"), MixtureRule("eg", eta=0.1), MixtureRule("ewma"))
        whole = {(mode, rule): run_backtest(x, stacks[mode], mode, rule)
                 for mode in MODES for rule in rules}
        monkeypatch.setattr(learner, "BLOCK_AGENT_PERIODS", 12)
        for (mode, rule), one_block in whole.items():
            full = run_backtest(x, stacks[mode], mode, rule)
            for f in fields:
                assert getattr(full, f).tobytes() == getattr(one_block, f).tobytes(), f
            lean = run_backtest(x, stacks[mode], mode, rule, record_agents=False)
            assert lean.agent_wealth is None
            assert lean.wealth.tobytes() == full.wealth.tobytes()
            for p in range(2, t):
                part = run_backtest(x[:p], stacks[mode][:p], mode, rule)
                for f in fields[:-1]:
                    assert getattr(part, f).tobytes() == getattr(full, f)[:p].tobytes(), (p, f)
                # A history's last period aggregates no next controls, so it never holds cash.
                assert part.hold_cash.tobytes() == full.hold_cash[:p - 1].tobytes() + b"\x00"
        # A bankruptcy inside a later block names its own period; a lone
        # agent's portfolio goes with it and is checked first.
        x = np.tile([0.25, 1.0], (600, 1))
        h = np.zeros((600, n_agents, 2))
        h[:, 0, 0] = h[:, 1:, 1] = 1.0
        culprit = "portfolio wealth" if n_agents == 1 else "agent 0 wealth"
        with pytest.raises(BankruptcyError, match=f"^{culprit} is 0 at period 537$"):
            run_backtest(x, h, "absolute")

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


def _blocks(stack, size):
    """A stack as a generator of row blocks of ``size`` periods."""
    return (stack[t:t + size] for t in range(0, len(stack), size))


class TestControlStreams:
    FIELDS = ("wealth", "agent_wealth", "controls", "turnover", "hold_cash")

    @pytest.mark.parametrize("size", [1, 5, 32, 70])
    def test_streams_equal_the_array_call_byte_for_byte(self, rng, size):
        t, m, n_agents = 70, 3, 4
        x = np.exp(rng.normal(0, 0.03, size=(t, m)))
        h_act = rng.normal(size=(t, n_agents, m))
        h_act -= h_act.mean(axis=2, keepdims=True)
        h_act /= np.abs(h_act).sum(axis=2, keepdims=True)
        h_act[10:13, 1:] = h_act[10:13, :1]  # equal agents: an active mixture of cash
        stacks = {"absolute": rng.dirichlet(np.ones(m), size=(t, n_agents)), "active": h_act}
        for rule in (MixtureRule("universal"), MixtureRule("eg", eta=0.1), MixtureRule("ewma")):
            for mode in MODES:
                whole = run_backtest(x, stacks[mode], mode, rule)
                streamed = run_backtest(x, _blocks(stacks[mode], size), mode, rule)
                for f in self.FIELDS:
                    assert getattr(streamed, f).tobytes() == getattr(whole, f).tobytes(), \
                        (rule.name, mode, f)

    def test_learner_blocks_inside_a_stream_block(self, rng, monkeypatch):
        x = np.exp(rng.normal(0, 0.03, size=(40, 2)))
        h = rng.dirichlet(np.ones(2), size=(40, 3))
        whole = run_backtest(x, h, "absolute")
        monkeypatch.setattr(learner, "BLOCK_AGENT_PERIODS", 12)  # 4 periods a learner block
        streamed = run_backtest(x, _blocks(h, 10), "absolute")
        for f in self.FIELDS:
            assert getattr(streamed, f).tobytes() == getattr(whole, f).tobytes(), f

    @pytest.mark.parametrize("rule", [MixtureRule("universal"), MixtureRule("eg", eta=0.1)])
    def test_bankruptcy_in_a_later_block(self, rule):
        x = np.tile([0.25, 1.0], (600, 1))
        h = np.zeros((600, 2, 2))
        h[:, 0, 0] = h[:, 1, 1] = 1.0
        for controls in (h, _blocks(h, 32), _blocks(h, 7)):
            with pytest.raises(BankruptcyError, match="^agent 0 wealth is 0 at period 537$"):
                run_backtest(x, controls, "absolute", rule)

    def test_stream_shorter_than_history(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(20, 2)))
        h = rng.dirichlet(np.ones(2), size=(19, 3))
        with pytest.raises(ValueError, match="^controls end after 19 of 20 periods$"):
            run_backtest(x, _blocks(h, 5), "absolute")
        with pytest.raises(ValueError, match="^controls end after 0 of 20 periods$"):
            run_backtest(x, iter(()), "absolute")

    def test_stream_read_no_further_than_the_history(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(20, 2)))
        h = rng.dirichlet(np.ones(2), size=(40, 3))
        blocks = _blocks(h, 8)
        track = run_backtest(x, blocks, "absolute")
        assert track.wealth.tobytes() == run_backtest(x, h, "absolute").wealth.tobytes()
        assert next(blocks).tobytes() == h[24:32].tobytes()  # blocks 0-2 cover 20 periods

    @pytest.mark.parametrize("shapes", [[(5, 3, 2), (5, 4, 2)], [(5, 3, 2), (5, 3, 3)],
                                        [(5, 3)]])
    def test_stream_block_shapes_checked(self, shapes):
        x = np.full((10, 2), 1.01)
        with pytest.raises(ValueError, match="control blocks must be"):
            run_backtest(x, (np.full(shape, 0.5) for shape in shapes), "absolute")


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
