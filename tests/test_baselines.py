import math

import numpy as np
import pytest

from zeroport import baselines
from zeroport.baselines import (
    GridTooLargeError,
    SimplexGrid,
    best_agent,
    best_stock,
    universal_portfolio,
)
from zeroport.learner import BankruptcyError, run_backtest


def brute_universal_wealth(x, resolution):
    """Direct double-loop evaluation of the grid universal portfolio."""
    grid = SimplexGrid(resolution, x.shape[1]).points()
    s_grid = [1.0] * len(grid)
    wealth = 1.0
    for t in range(x.shape[0]):
        total = sum(s_grid)
        b = [sum(s_grid[i] * grid[i][j] for i in range(len(grid))) / total
             for j in range(x.shape[1])]
        wealth *= sum(b[j] * x[t][j] for j in range(x.shape[1]))
        s_grid = [s_grid[i] * sum(grid[i][j] * x[t][j] for j in range(x.shape[1]))
                  for i in range(len(grid))]
    return wealth


class TestSimplexGrid:
    def test_count_matches_enumeration(self):
        for q, m in ((5, 2), (4, 3), (3, 4)):
            grid = SimplexGrid(q, m)
            pts = grid.points()
            assert len(pts) == grid.count == math.comb(q + m - 1, m - 1)

    def test_points_on_simplex_and_unique(self):
        pts = SimplexGrid(6, 3).points()
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0)
        assert len({tuple(p) for p in pts}) == len(pts)

    def test_two_asset_grid_is_linspace(self):
        pts = SimplexGrid(4, 2).points()
        np.testing.assert_allclose(sorted(pts[:, 0]), [0, 0.25, 0.5, 0.75, 1.0])


class TestUniversalPortfolio:
    def test_flat_market_wealth_one(self):
        track = universal_portfolio(np.ones((30, 2)), resolution=50)
        np.testing.assert_allclose(track.wealth, 1.0, atol=1e-12)

    def test_micro_case_matches_direct_sum(self):
        x = np.array([[1.1, 0.9], [0.95, 1.08]])
        track = universal_portfolio(x, resolution=25)
        assert track.terminal == pytest.approx(brute_universal_wealth(x, 25), rel=1e-12)

    def test_three_asset_micro_case(self):
        x = np.array([[1.05, 0.9, 1.0], [0.97, 1.1, 1.01], [1.0, 1.0, 0.95]])
        track = universal_portfolio(x, resolution=8)
        assert track.terminal == pytest.approx(brute_universal_wealth(x, 8), rel=1e-12)

    @pytest.mark.parametrize("periods, assets, resolution", [(60, 2, 100), (20, 3, 8)])
    def test_longer_histories_match_direct_sum(self, rng, periods, assets, resolution):
        x = np.exp(rng.normal(0, 0.03, size=(periods, assets)))
        track = universal_portfolio(x, resolution=resolution)
        assert track.terminal == pytest.approx(brute_universal_wealth(x, resolution), rel=1e-12)

    def test_permutation_invariance(self, rng):
        x = np.exp(rng.normal(0, 0.03, size=(25, 2)))
        a = universal_portfolio(x, resolution=120)
        b = universal_portfolio(x[:, ::-1], resolution=120)
        np.testing.assert_allclose(a.wealth, b.wealth, rtol=1e-10)

    def test_resolution_convergence_monotone_cauchy(self, rng):
        x = np.exp(rng.normal(0, 0.05, size=(60, 2)))
        w = {q: universal_portfolio(x, resolution=q).terminal for q in (100, 300, 1000)}
        first = abs(w[300] - w[100]) / w[1000]
        second = abs(w[1000] - w[300]) / w[1000]
        assert second <= first + 1e-12
        assert second < 1e-3

    def test_grid_too_large(self):
        with pytest.raises(GridTooLargeError):
            universal_portfolio(np.ones((2, 6)), resolution=1000)

    def test_never_beats_best_crp_on_average_sense(self, rng):
        # sanity: UP wealth lies between worst and best grid CRP wealth
        x = np.exp(rng.normal(0, 0.04, size=(40, 2)))
        pts = SimplexGrid(100, 2).points()
        crp = np.prod(pts @ x.T, axis=1)
        track = universal_portfolio(x, resolution=100)
        assert crp.min() - 1e-9 <= track.terminal <= crp.max() + 1e-9


class TestBestStock:
    def test_ties_take_lowest_index(self):
        x = np.tile([1.01, 1.01], (5, 1))
        idx, track = best_stock(x)
        assert idx == 0
        assert track.terminal == pytest.approx(1.01**5, rel=1e-12)

    def test_three_asset_drifts(self):
        x = np.tile([1.0, 1.02, 0.99], (8, 1))
        idx, track = best_stock(x)
        assert idx == 1
        assert track.terminal == pytest.approx(1.02**8, rel=1e-12)

    def test_dominates_every_single_asset(self, rng):
        x = np.exp(rng.normal(0, 0.05, size=(50, 4)))
        _, track = best_stock(x)
        terminals = np.prod(x, axis=0)
        assert track.terminal >= terminals.max() - 1e-12

    def test_underflow_raises_bankruptcy(self):
        x = np.full((4, 3), 1e-200)
        with pytest.raises(BankruptcyError, match=r"best_stock\[0\] wealth is 0 at period 1"):
            best_stock(x)

    def test_overflow_raises_bankruptcy(self):
        x = np.array([[1.0, 1e200], [1.0, 1e200], [1.0, 0.5]])
        with np.errstate(over="ignore"), pytest.raises(BankruptcyError) as info:
            best_stock(x)
        assert info.value.period == 1 and info.value.culprit == "best_stock[1] wealth"


class TestBestAgent:
    def test_single_agent(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(10, 2)))
        track = run_backtest(x, np.full((10, 1, 2), 0.5), "absolute")
        idx, wealth = best_agent(track)
        assert idx == 0
        assert wealth == pytest.approx(track.agent_wealth[-1, 0])

    def test_rigged_dominance(self):
        x = np.tile([1.03, 0.98], (30, 1))
        h = np.empty((30, 2, 2))
        h[:, 0] = [1.0, 0.0]
        h[:, 1] = [0.0, 1.0]
        track = run_backtest(x, h, "absolute")
        idx, _ = best_agent(track)
        assert idx == 0

    def test_flat_market_tie_takes_index_zero(self):
        x = np.ones((10, 2))
        h = np.full((10, 3, 2), 0.5)
        track = run_backtest(x, h, "absolute")
        idx, wealth = best_agent(track)
        assert idx == 0
        assert wealth == pytest.approx(1.0)

    def test_requires_agent_wealth(self, rng):
        x = np.exp(rng.normal(0, 0.02, size=(10, 2)))
        track = run_backtest(x, np.full((10, 1, 2), 0.5), "absolute", record_agents=False)
        with pytest.raises(ValueError):
            best_agent(track)
