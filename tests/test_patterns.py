import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from zeroport import fundsep, patterns, synth
from zeroport.patterns import (
    MATCH_RULES,
    AgentSpec,
    ClusterMap,
    MatchConfig,
    NoMatchError,
    PatternAgents,
    _prefix_moments,
    agent_grid,
    gyorfi_match_count,
    make_partitions,
    match,
    sample_moments,
)
from conftest import REPO_ROOT, brute_match_times, brute_partition_matches


def random_history(rng, t=None, m=None):
    t = t if t is not None else int(rng.integers(8, 50))
    m = m if m is not None else int(rng.integers(1, 4))
    return np.exp(rng.normal(0.0, 0.03, size=(t, m)))


class TestPartitions:
    def test_trivial_single_mask(self):
        p = make_partitions(5, "trivial", 3)
        assert p.dtype == bool and p.shape == (1, 5)
        np.testing.assert_array_equal(p, [[True] * 5])

    def test_overlapping_literature_example(self):
        p = make_partitions(3, "overlapping", 3)
        expected = np.array([[0, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(p, expected)

    def test_overlapping_all_contain_last_period(self):
        p = make_partitions(11, "overlapping", 4)
        assert p[:, -1].all()
        spans = p.sum(axis=1)
        assert np.all(np.diff(spans) > 0)
        assert spans[-1] == 11

    def test_exclusive_even_split(self):
        p = make_partitions(4, "exclusive", 2)
        expected = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(p, expected)

    def test_exclusive_covers_everything_disjointly(self):
        p = make_partitions(10, "exclusive", 3)
        assert p.sum(axis=0).tolist() == [1] * 10

    def test_exclusive_too_many_blocks(self):
        with pytest.raises(ValueError):
            make_partitions(3, "exclusive", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_partitions(3, "sideways", 1)


class TestGyorfiCount:
    def test_published_schedule_point(self):
        # ell=L=10 at t=10: p = 0.52, floor -> 5
        assert gyorfi_match_count(10, 10, 10) == 5

    def test_first_level_is_two_percent(self):
        assert gyorfi_match_count(1, 10, 100) == 2

    def test_single_level_degenerate(self):
        assert gyorfi_match_count(1, 1, 100) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gyorfi_match_count(11, 10, 50)
        with pytest.raises(ValueError):
            gyorfi_match_count(0, 10, np.arange(5))

    def test_array_t_equals_scalar_t(self):
        ts = np.arange(5001)
        for levels in range(1, 13):
            for ell in range(1, levels + 1):
                got = gyorfi_match_count(ell, levels, ts)
                assert got.dtype == np.intp and got.shape == ts.shape
                scalar = [gyorfi_match_count(ell, levels, t) for t in range(5001)]
                assert all(type(count) is int for count in scalar)
                assert got.tolist() == scalar, (ell, levels)


class TestMatch:
    def test_insufficient_history(self):
        with pytest.raises(NoMatchError):
            match(np.ones((2, 2)), AgentSpec(k=3, ell=1))

    def test_constant_history_earliest_ties(self):
        x = np.ones((12, 2))
        res = match(x, AgentSpec(k=2, ell=3))
        np.testing.assert_array_equal(res.times, [1, 2, 3])
        assert res.agent_tuple.shape == (3, 2)
        np.testing.assert_array_equal(res.agent_tuple, np.ones((3, 2)))

    def test_brute_force_twenty_period_fixture(self, rng):
        x = random_history(rng, t=20, m=2)
        for k in range(1, 4):
            for ell in range(1, 5):
                res = match(x, AgentSpec(k=k, ell=ell))
                expected = brute_match_times(x, k, ell)
                np.testing.assert_array_equal(res.times, expected)

    def test_gyorfi_rule_count_and_times(self, rng):
        x = random_history(rng, t=40, m=2)
        res = match(x, AgentSpec(k=2, ell=10), rule="gyorfi_nn", levels=10)
        expected = brute_match_times(x, 2, 10, rule="gyorfi_nn", levels=10)
        assert len(res.times) == gyorfi_match_count(10, 10, 40)
        np.testing.assert_array_equal(res.times, expected)

    def test_lookahead_bound_respected(self, rng):
        x = random_history(rng, t=30, m=2)
        for tau in (1, 2, 3):
            res = match(x, AgentSpec(k=2, ell=30, tau=tau))
            assert res.times.max() + tau <= 29

    def test_agent_tuple_rows_are_outcomes(self, rng):
        x = random_history(rng, t=25, m=3)
        res = match(x, AgentSpec(k=2, ell=4, tau=2))
        np.testing.assert_array_equal(res.agent_tuple, x[res.times + 2])

    def test_multi_partition_best_per_partition(self, rng):
        x = random_history(rng, t=30, m=2)
        for kind in ("overlapping", "exclusive"):
            res = match(x, AgentSpec(k=2, ell=3), partition=kind)
            expected = brute_partition_matches(x, 2, make_partitions(30, kind, 3))
            np.testing.assert_array_equal(res.times, expected)

    def test_match_count_clamps_to_candidates(self, rng):
        x = random_history(rng, t=6, m=2)
        res = match(x, AgentSpec(k=2, ell=50))
        # candidates: ends 1..4 -> 4 of them
        assert len(res.times) == 4


class TestGrid:
    def test_fifty_agents_default(self):
        assert len(agent_grid(5, 10)) == 50

    def test_three_clusters_scale_to_150(self):
        assert len(agent_grid(5, 10, n_clusters=3)) == 150

    def test_unique_combinations(self):
        grid = agent_grid(3, 4, n_clusters=2, horizons=(1, 2))
        assert len(grid) == 48
        assert len(set(grid)) == 48

    def test_cluster_map_from_tickers(self):
        cmap = ClusterMap.from_tickers({"FIN": ["B", "C"], "RES": ["A"]}, ["A", "B", "C"])
        assert cmap.members == ((1, 2), (0,))
        with pytest.raises(ValueError):
            ClusterMap.from_tickers({"FIN": ["Z"]}, ["A"])
        with pytest.raises(ValueError, match="repeats an asset"):
            ClusterMap.from_tickers({"FIN": ["A", "A"]}, ["A"])


class TestMatchConfig:
    @pytest.mark.parametrize("field", ["rule", "partition", "projection", "absolute_tilt"])
    def test_unknown_choice_rejected(self, field):
        with pytest.raises(ValueError, match="unknown .*'foo'"):
            MatchConfig(**{field: "foo"})

    def test_projections_accepted(self):
        for projection in ("euclidean", "clip"):
            assert MatchConfig(projection=projection).projection == projection


class TestSampleMoments:
    def test_against_numpy(self, rng):
        y = np.exp(rng.normal(0, 0.05, size=(12, 3)))
        mu, cov = sample_moments(y)
        np.testing.assert_allclose(mu, np.mean(y - 1.0, axis=0), atol=1e-14)
        np.testing.assert_allclose(cov, np.cov((y - 1.0).T, ddof=1), atol=1e-14)

    def test_single_row_zero_covariance(self):
        mu, cov = sample_moments(np.array([[1.1, 0.9]]))
        np.testing.assert_allclose(mu, [0.1, -0.1])
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))


class TestGenerateControls:
    def test_no_history_all_fallback(self, rng):
        specs = agent_grid(2, 2)
        h = PatternAgents(specs, 3).controls_multi(np.ones((1, 3)))
        np.testing.assert_allclose(h["absolute"], np.full((4, 3), 1 / 3))
        np.testing.assert_array_equal(h["active"], np.zeros((4, 3)))

    def test_single_match_ridge_path_finite(self, rng):
        # ell=1 leaves a single outcome row: zero covariance, ridge kicks in.
        x = random_history(rng, t=8, m=2)
        h = PatternAgents([AgentSpec(k=1, ell=1)], 2).controls_multi(x, ("active",))["active"]
        assert np.all(np.isfinite(h))
        assert abs(np.abs(h).sum() - 1.0) < 1e-12 or np.all(h == 0)

    def test_drift_sign_check_active(self, rng):
        # Asset 0 drifts up, asset 1 down; late-history active controls
        # should be long the winner and short the loser.  The gyorfi rule
        # keeps every matched sample large enough to average out the noise.
        t = 300
        up = np.exp(rng.normal(0.006, 0.002, size=t))
        down = np.exp(rng.normal(-0.006, 0.002, size=t))
        x = np.column_stack([up, down])
        cfg = MatchConfig(rule="gyorfi_nn")
        engine = PatternAgents(agent_grid(2, 10), 2, config=cfg)
        h = engine.controls_multi(x, ("active",))["active"]
        live = np.abs(h).sum(axis=1) > 0
        assert live.any()
        assert np.all(h[live, 0] > 0)
        assert np.all(h[live, 1] < 0)

    def test_cluster_locality(self, rng):
        x = random_history(rng, t=40, m=4)
        cmap = ClusterMap(members=((0, 1), (2, 3)), names=("L", "R"))
        specs = agent_grid(2, 2, n_clusters=2)
        for mode in ("absolute", "active"):
            h = PatternAgents(specs, 4, clusters=cmap).controls_multi(x, (mode,))[mode]
            for i, spec in enumerate(specs):
                outside = [m for m in range(4) if m not in cmap.members[spec.cluster]]
                np.testing.assert_array_equal(h[i, outside], 0.0)

    def test_cluster_without_agents(self, rng):
        x = random_history(rng, t=70, m=4)
        cmap = ClusterMap(members=((0, 1), (2, 3)), names=("L", "R"))
        engine = PatternAgents(agent_grid(2, 2), 4, clusters=cmap)
        stacks = engine.controls_series(x)
        assert np.all(stacks["absolute"][:, :, 2:] == 0.0)
        assert np.all(stacks["absolute"][-1, :, :2].sum(axis=1) > 0.99)
        assert np.all(engine.controls_numeric(x)[:, :, 2:] == 0.0)

    def test_control_blocks_are_the_series_in_period_order(self, rng):
        x = random_history(rng, t=75, m=4)
        cmap = ClusterMap(members=((0, 1), (2, 3)), names=("L", "R"))
        specs = agent_grid(2, 3, n_clusters=2)
        series_engine = PatternAgents(specs, 4, clusters=cmap)
        stacks = series_engine.controls_series(x)
        engine = PatternAgents(specs, 4, clusters=cmap)
        blocks = list(engine.control_blocks(x))
        assert [len(b["active"]) for b in blocks] == [32, 32, 11]
        for mode in ("absolute", "active"):
            joined = np.concatenate([b[mode] for b in blocks])
            assert joined.tobytes() == stacks[mode].tobytes()
        assert engine.fallback_count == series_engine.fallback_count > 0

    @pytest.mark.parametrize("rule", MATCH_RULES)
    def test_numeric_series_equals_per_period_solves(self, rule):
        # Each period re-solved from match() on its own prefix, each agent
        # warm-started from its previous matched solution.
        x = synth.generate(synth.SynthSpec(case="SDC3", assets=4, periods=60, seed=5)).values
        cmap = ClusterMap(members=((0, 1), (2, 3)), names=("L", "R"))
        specs = agent_grid(3, 4, n_clusters=2, horizons=(1, 2))
        engine = PatternAgents(specs, 4, clusters=cmap, config=MatchConfig(rule=rule))
        got = engine.controls_numeric(x)
        assert got.shape == (60, len(specs), 4)
        warm, fell_back = {}, 0
        for t in range(60):
            for i, spec in enumerate(specs):
                cols = list(cmap.members[spec.cluster])
                expected = np.zeros(4)
                try:
                    res = match(x[:t, cols], spec, rule=rule, levels=4)
                except NoMatchError:
                    expected[cols] = 0.5
                    fell_back += 1
                else:
                    warm[i] = fundsep.log_optimal_controls(res.agent_tuple, x0=warm.get(i))
                    expected[cols] = warm[i]
                assert got[t, i].tobytes() == expected.tobytes(), (t, spec)
        assert 0 < fell_back < 60 * len(specs)
        assert engine.fallback_count == fell_back

    def test_non_finite_controls_fall_back_per_mode(self, rng):
        # gamma=1e-300 overflows w_active / gamma for most agents; the rows
        # that turn non-finite keep the fallback, one mode at a time.
        x = random_history(rng, t=70, m=3)
        specs = agent_grid(3, 4)
        cfg = MatchConfig(gamma=1e-300)
        both = PatternAgents(specs, 3, config=cfg)
        stacks = both.controls_series(x)
        count = 0
        for mode in ("absolute", "active"):
            one = PatternAgents(specs, 3, config=cfg)
            alone = one.controls_series(x, (mode,))[mode]
            count += one.fallback_count
            assert np.isfinite(stacks[mode]).all()
            assert alone.tobytes() == stacks[mode].tobytes()
        assert both.fallback_count == count
        plain = PatternAgents(specs, 3)
        plain.controls_series(x)
        assert both.fallback_count > plain.fallback_count

    def test_non_finite_moments_fall_back(self, rng):
        # One matrix of the stacked solve holds a NaN, one an inf, and one mean
        # an inf: each of those agents falls back, and the others get the bits
        # of a stack without them.
        m, n = 3, 6
        a = rng.normal(size=(n, m, m))
        covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(m)
        mus = rng.normal(0.0, 0.01, size=(n, m))
        covs[1, 0, 2] = np.nan
        covs[3, 1, 1] = np.inf
        mus[4, 0] = np.inf
        engine = PatternAgents(agent_grid(2, 3), m)
        modes = ("absolute", "active")
        ctrl, ok = engine._map_controls(mus, covs, modes)
        good = [0, 2, 5]
        assert ok.tolist() == [i in good for i in range(n)]
        clean, clean_ok = engine._map_controls(mus[good], covs[good], modes)
        assert clean_ok.all()
        for mode in modes:
            assert ctrl[mode][good].tobytes() == clean[mode].tobytes()

    def test_mode_normalization_rows(self, rng):
        x = random_history(rng, t=50, m=3)
        specs = agent_grid(3, 4)
        h_abs = PatternAgents(specs, 3).controls_multi(x, ("absolute",))["absolute"]
        assert np.all(h_abs >= 0)
        np.testing.assert_allclose(h_abs.sum(axis=1), 1.0, atol=1e-12)
        h_act = PatternAgents(specs, 3).controls_multi(x, ("active",))["active"]
        np.testing.assert_allclose(h_act.sum(axis=1), 0.0, atol=1e-12)
        lev = np.abs(h_act).sum(axis=1)
        assert np.all((lev < 1e-12) | (np.abs(lev - 1.0) < 1e-12))

    def test_no_lookahead_truncation_bit_identity(self, rng):
        x = random_history(rng, t=60, m=2)
        specs = agent_grid(3, 3)
        engine = PatternAgents(specs, 2)
        for t in (10, 25, 59):
            full_view = engine.controls_multi(x[:t], ("absolute",))
            fresh = PatternAgents(specs, 2).controls_multi(x[:t].copy(), ("absolute",))
            np.testing.assert_array_equal(full_view["absolute"], fresh["absolute"])

    def test_engine_agrees_with_per_agent_composition(self, rng):
        # The batched engine must reproduce match() + sample_moments +
        # fundsep.agent_controls applied agent by agent.
        x = random_history(rng, t=45, m=3)
        specs = agent_grid(3, 4)
        engine = PatternAgents(specs, 3)
        for mode in ("absolute", "active"):
            h = engine.controls_multi(x, (mode,))[mode]
            for i, spec in enumerate(specs):
                res = match(x, spec, rule="trivial", levels=4)
                mu, cov = sample_moments(res.agent_tuple)
                expected = fundsep.agent_controls(mu, cov, mode)
                np.testing.assert_allclose(h[i], expected, atol=1e-12)

    def test_gyorfi_engine_agrees_with_match(self, rng):
        x = random_history(rng, t=50, m=2)
        specs = agent_grid(2, 10)
        cfg = MatchConfig(rule="gyorfi_nn")
        engine = PatternAgents(specs, 2, config=cfg)
        h = engine.controls_multi(x, ("absolute",))["absolute"]
        for i, spec in enumerate(specs):
            res = match(x, spec, rule="gyorfi_nn", levels=10)
            mu, cov = sample_moments(res.agent_tuple)
            np.testing.assert_allclose(h[i], fundsep.agent_controls(mu, cov, "absolute"),
                                       atol=1e-12)


def _sorted_branch_cases(width=96, n_smallest=40):
    """(scores, n_smallest, falls back) blocks for the sorted branch of
    ``_stable_smallest``; rows of 96 are long enough for numpy's vectorised
    sort to reorder ties."""
    rng = np.random.default_rng(7)
    rows = 8

    def distinct(size):
        return np.stack([rng.permutation(size) for _ in range(rows)]).astype(float)

    few_values = rng.integers(0, 6, size=(rows, width)).astype(float)
    past = np.full((rows, width), 1000.0)  # n distinct smallest, then one tied value
    past[:, :n_smallest] = distinct(n_smallest)
    past = rng.permuted(past, axis=1)
    across = np.where(past == n_smallest - 1, 1000.0, past)  # the n-th smallest ties the rest
    nan_tails = np.full((rows, width), np.nan)
    nan_tails[:, :n_smallest] = distinct(n_smallest)
    signed = distinct(width) - 20.0
    signed[signed == 1.0] = -0.0  # 0.0 and -0.0 both among the smallest
    return {
        "ties-in-head": (few_values, n_smallest, True),
        "ties-only-past-cut": (past, n_smallest, False),
        "tie-across-cut": (across, n_smallest, True),
        "nan-tail-at-cut": (nan_tails, n_smallest, True),
        "signed-zeros": (signed, n_smallest, True),
        "whole-row-distinct": (distinct(width), width, False),
        "whole-row-ties": (few_values, width, True),
    }


SORTED_BRANCH_CASES = _sorted_branch_cases()


def _recording_sorts(scores):
    """A view of ``scores`` that records the kind of every argsort called on
    it or on its rows."""
    kinds = []

    class Recorded(np.ndarray):
        def argsort(self, axis=-1, kind=None):
            kinds.append(kind)
            return np.asarray(self).argsort(axis=axis, kind=kind)

    return scores.view(Recorded), kinds


class TestEngineSelections:
    @pytest.mark.parametrize("kind", ["overlapping", "exclusive"])
    def test_partition_path_against_brute_force(self, rng, kind):
        specs = agent_grid(3, 6, horizons=(1, 2))
        engine = PatternAgents(specs, 2, config=MatchConfig(partition=kind))
        groups = {}
        for i, spec in enumerate(specs):
            groups.setdefault((spec.tau, spec.k), []).append((i, spec))
        for x in (random_history(rng, t=40, m=2), np.ones((20, 2))):
            for t in (3, 5, 12, x.shape[0]):
                for (tau, k), group in groups.items():
                    selections = engine._group_selections(x[:t], group)
                    for (_, spec), rows in zip(group, selections):
                        if kind == "exclusive" and spec.ell > t:
                            expected = []
                        else:
                            masks = make_partitions(t, kind, spec.ell)
                            expected = [j + tau for j in
                                        brute_partition_matches(x[:t], k, masks, tau)]
                        assert rows.tolist() == expected, (t, spec)

    @pytest.mark.parametrize("seed", range(24))
    def test_block_selections_equal_per_row_stable_argsort(self, monkeypatch, seed):
        # Prices on a 1/8 grid make every score exact in any summation order,
        # so the scan below gives the engine's bits; copied history rows plant
        # exact ties, also across the partition's cut.
        rng = np.random.default_rng([seed, 11])
        m, t1 = int(rng.integers(1, 4)), int(rng.integers(20, 140))
        t0 = max(t1 - int(rng.integers(1, 33)), 0)
        x = rng.integers(4, 13, size=(t1, m)) / 8.0
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, 8))
            src, dst = rng.integers(0, t1 - size, size=2)
            x[dst:dst + size] = x[src:src + size].copy()
        rule = ("trivial", "gyorfi_nn")[seed % 2]
        levels = int(rng.integers(1, 13)) if rule == "trivial" else 1 + seed % 3
        groups, n_agents = {}, 0
        for tau in (1, 2):
            for k in rng.choice(np.arange(1, 6), size=int(rng.integers(1, 4)), replace=False):
                ells = sorted(rng.choice(np.arange(1, levels + 1),
                                         size=int(rng.integers(1, levels + 1)), replace=False))
                groups[(tau, int(k))] = [(n_agents + a, AgentSpec(k=int(k), ell=int(ell), tau=tau))
                                         for a, ell in enumerate(ells)]
                n_agents += len(ells)

        calls, original = [], patterns._stable_smallest  # (ndim, n_smallest, width)
        monkeypatch.setattr(patterns, "_stable_smallest", lambda scores, n:
                            calls.append((scores.ndim, n, scores.shape[-1]))
                            or original(scores, n))
        seen = {}
        for periods, agents, rows, lens in patterns._block_selections(
                x, t0, t1, groups, rule, "trivial", levels):
            for p, t in enumerate(np.asarray(periods).tolist()):
                for (i, spec), n_rows in zip(agents, lens):
                    assert (t, i) not in seen
                    seen[(t, i)] = (spec, rows[p, :n_rows])
        assert len(seen) == (t1 - t0) * n_agents

        for (t, _), (spec, got) in seen.items():
            k, tau = spec.k, spec.tau
            n = t - tau - k + 1  # admissible candidates
            if n <= 0:
                assert got.size == 0
                continue
            if k == 1:
                scores = np.sqrt(((x[:n] - x[t - 1]) ** 2).sum(axis=1))
            else:
                scores = np.array([np.abs(x[j:j + k] - x[t - k:t]).sum() for j in range(n)])
            wanted = spec.ell if rule == "trivial" else gyorfi_match_count(spec.ell, levels, t)
            lhat = max(1, min(wanted, n))
            expected = np.argsort(scores, kind="stable")[:lhat] + k - 1 + tau
            assert got.tolist() == expected.tolist(), (t, spec)
            assert got.max() < n + k - 1 + tau  # no look-ahead candidate
        if t1 - t0 > 1 and (levels == 1 or rule == "trivial" and levels <= 3):
            assert any(ndim == 2 for ndim, _, _ in calls)  # the block path ran
        if rule == "gyorfi_nn" and max(spec.ell for spec, _ in seen.values()) > 1:
            # p >= 0.27 puts these ell-hats above a quarter of the candidates,
            # and periods that share them are sorted as one block.
            assert any(ndim == 2 and 4 * n > width for ndim, n, width in calls)

    @pytest.mark.parametrize("n_smallest", [1, 2, 3, 5, 8, 29])
    def test_stable_smallest_block_equals_argsort(self, rng, n_smallest):
        # Few distinct values: most rows tie across the cut, some do not; NaN
        # tails stand for the look-ahead candidates the engine masks.
        scores = rng.integers(0, 6, size=(40, 30)).astype(float)
        scores[5] = np.arange(30)[::-1]
        for row, tail in zip(scores, rng.integers(0, 10, size=40)):
            row[row.size - tail:] = np.nan
        got = patterns._stable_smallest(scores, n_smallest)
        np.testing.assert_array_equal(got, np.argsort(scores, axis=1, kind="stable")[:, :n_smallest])
        for row, picked in zip(scores, got):
            np.testing.assert_array_equal(picked, patterns._stable_smallest(row, n_smallest))

    @pytest.mark.parametrize("case", sorted(SORTED_BRANCH_CASES))
    def test_sorted_branch_equals_stable_argsort(self, case):
        # Above a quarter of the candidates each row takes the unstable sort
        # and falls back to a stable sort of its own exactly when its first
        # n_smallest + 1 sorted scores do not strictly increase.
        scores, n_smallest, falls_back = SORTED_BRANCH_CASES[case]
        assert n_smallest * 4 > scores.shape[1]
        expected = np.argsort(scores, axis=1, kind="stable")[:, :n_smallest]
        for block, want in [(scores, expected)] + list(zip(scores, expected)):
            recorded, kinds = _recording_sorts(block)
            np.testing.assert_array_equal(patterns._stable_smallest(recorded, n_smallest), want)
            assert ("stable" in kinds) == falls_back, kinds

    @pytest.mark.parametrize("rule, partition, t", [
        pytest.param("gyorfi_nn", "trivial", t, id=str(t)) for t in (400, 1400, 2000)
    ] + [
        pytest.param("trivial", kind, t, id=f"rule-trivial-partition-{kind}-{t}")
        for kind in ("trivial", "overlapping", "exclusive") for t in (400, 2000)
    ])
    def test_moments_equal_sample_moments_of_match(self, rule, partition, t):
        # One moments path at every size, including past the sizes where
        # matched samples reach ell-hat * m^2 > 65536 floats.
        x = synth.generate(synth.SynthSpec(case="SDC3", periods=t, seed=3)).values
        engine = PatternAgents(agent_grid(5, 10), 10,
                               config=MatchConfig(rule=rule, partition=partition))
        periods, rows, mus, covs, _ = engine._block_moments(x, t, t + 1, 0)
        assert periods.size == engine.n_agents  # every agent matched
        assert periods.tolist() == [t] * engine.n_agents
        assert sorted(rows.tolist()) == list(range(engine.n_agents))
        for i, mu, cov in zip(rows, mus, covs):
            res = match(x, engine.specs[i], partition=partition, rule=rule, levels=10)
            mu_ref, cov_ref = sample_moments(res.agent_tuple)
            np.testing.assert_allclose(mu, mu_ref, rtol=1e-10, atol=1e-15)
            np.testing.assert_allclose(cov, cov_ref, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("m, windows, levels, t0, t1", [
        pytest.param(3, 6, 2, 2, 34, id="clamped"),  # small t: groups differ in ell-hat
        pytest.param(10, 5, 10, 400, 432, id="long"),
    ])
    def test_block_moments_equal_one_list_calls(self, monkeypatch, m, windows, levels, t0, t1):
        # Stacking row lists by their prefix lengths changes no bits: each
        # list's moments equal a one-list _prefix_moments call.
        x = synth.generate(synth.SynthSpec(case="SDC3", assets=m, periods=t1, seed=5)).values
        engine = PatternAgents(agent_grid(windows, levels, horizons=(1, 2)), m,
                               config=MatchConfig(rule="gyorfi_nn"))
        calls = []
        monkeypatch.setattr(patterns, "_prefix_moments",
                            lambda *args: calls.append(args[0].shape) or _prefix_moments(*args))
        periods, agents, mus, covs, _ = engine._block_moments(x, t0, t1, 0)
        monkeypatch.undo()
        got = {(t, i): (mu, cov) for t, i, mu, cov in zip(periods, agents, mus, covs)}
        expected, long_lists, unmatched, lens_seen, long_lens = {}, 0, 0, set(), set()
        for t in range(t0, t1):
            for group in engine._groups[0].values():
                sels = engine._group_selections(x[:t], group)
                rows, lens = max(sels, key=len), np.array([sel.size for sel in sels])
                if not rows.size:
                    unmatched += len(group)
                    continue
                lens_seen.add(tuple(lens))
                if rows.size > levels:
                    long_lists += 1
                    long_lens.add(tuple(lens))
                cuts = np.unique(lens) if rows.size > levels else np.arange(1, rows.size + 1)
                ref = _prefix_moments(x[rows][None], np.zeros_like(lens), lens, cuts)
                for j, (i, _) in enumerate(group):
                    expected[(t, i)] = (ref[0][j], ref[1][j])
        assert sorted(got) == sorted(expected) and len(got) + unmatched == \
            (t1 - t0) * engine.n_agents
        for key, (mu, cov) in expected.items():
            assert got[key][0].tobytes() == mu.tobytes(), key
            assert got[key][1].tobytes() == cov.tobytes(), key
        assert len(long_lens) > 1 and long_lists > len(long_lens)
        # One call per set of prefix lengths, short lists included.
        assert len(calls) == len(lens_seen)

    @pytest.mark.parametrize("rule, partition", [
        ("trivial", "trivial"), ("gyorfi_nn", "trivial"),
        ("trivial", "overlapping"), ("trivial", "exclusive"),
    ])
    def test_series_fallback_count_equals_fresh_multi(self, rng, rule, partition):
        # The benchmark's patterns.fallback_agent_periods reads fallback_count.
        x = random_history(rng, t=80, m=3)
        cfg = MatchConfig(rule=rule, partition=partition)
        specs = agent_grid(4, 6, horizons=(1, 3))
        engine = PatternAgents(specs, 3, config=cfg)
        engine.controls_series(x)
        expected = 0
        for t in range(x.shape[0]):
            fresh = PatternAgents(specs, 3, config=cfg)
            fresh.controls_multi(x[:t])
            expected += fresh.fallback_count
        assert expected > 0
        assert engine.fallback_count == expected


class TestSolverRetry:
    FAIL = (1, 5, 14, 22)  # agents whose one-agent solve fails too

    def _patch(self, monkeypatch):
        """Make every stacked fund solve fail, then the retry's one-agent
        solves of the agents in FAIL; others solve as usual."""
        order, solve, block_moments = [], fundsep.fund_solution, PatternAgents._block_moments

        def recording(engine, *args):
            matched = block_moments(engine, *args)
            order[:] = [] if matched is None else matched[1].tolist()
            return matched

        def failing(mu, cov, *args, **kwargs):
            if np.ndim(mu) == 2:
                raise fundsep.SolverError("stacked solve failed")
            if order.pop(0) in self.FAIL:  # the retry solves the block's agents in order
                raise fundsep.SolverError("agent solve failed")
            return solve(mu, cov, *args, **kwargs)

        monkeypatch.setattr(PatternAgents, "_block_moments", recording)
        monkeypatch.setattr(fundsep, "fund_solution", failing)

    def test_failed_agents_keep_fallback(self, rng, monkeypatch):
        x = random_history(rng, t=60, m=5)
        cmap = ClusterMap(members=((0, 1, 2), (3, 4)), names=("L", "R"))
        specs = agent_grid(3, 4, n_clusters=2)
        modes = ("absolute", "active")
        plain = PatternAgents(specs, 5, clusters=cmap)
        expected = plain.controls_series(x, modes)
        self._patch(monkeypatch)
        engine = PatternAgents(specs, 5, clusters=cmap)
        got = engine.controls_series(x, modes)

        fail = list(self.FAIL)
        keep = [i for i in range(len(specs)) if i not in self.FAIL]
        fallback = np.zeros((len(fail), 5))
        for row, i in zip(fallback, fail):
            cols = list(cmap.members[specs[i].cluster])
            row[cols] = 1.0 / len(cols)
        for t in range(60):
            np.testing.assert_array_equal(got["absolute"][t, fail], fallback)
        np.testing.assert_array_equal(got["active"][:, fail], 0.0)
        for mode in modes:
            np.testing.assert_array_equal(got[mode][:, keep], expected[mode][:, keep])

        matched = 0
        for t in range(60):
            for i in fail:
                try:
                    match(x[:t, list(cmap.members[specs[i].cluster])], specs[i], levels=4)
                    matched += 1
                except NoMatchError:
                    pass
        assert matched > 0
        assert engine.fallback_count == plain.fallback_count + matched * len(modes)

        count = 0
        for t in range(60):
            fresh = PatternAgents(specs, 5, clusters=cmap)
            multi = fresh.controls_multi(x[:t], modes)
            count += fresh.fallback_count
            for mode in modes:
                np.testing.assert_array_equal(got[mode][t], multi[mode])
        assert count == engine.fallback_count


def test_gyorfi_series_leaves_numpy_ma_unloaded():
    # Segment ends past `levels` rows come from a set, not np.unique, which
    # imports numpy.ma (about 1.8 MB RSS) on its first call.
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from zeroport.patterns import MatchConfig, PatternAgents, agent_grid
        x = np.exp(np.random.default_rng(3).normal(0, 0.02, (120, 3)))
        engine = PatternAgents(agent_grid(2, 4), 3, config=MatchConfig(rule="gyorfi_nn"))
        engine.controls_series(x)
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
