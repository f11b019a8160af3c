"""Reference strategies: Cover's universal portfolio and buy-and-hold.

The universal portfolio is evaluated on a discretized simplex: weights
b = n/Q with nonnegative integer compositions of Q, a uniform prior, and

    b*_t = sum_b b S_{t-1}(b) / sum_b S_{t-1}(b),

where S_t(b) is the wealth of the constant-rebalanced portfolio b.  That
is the learner's universal rule in absolute mode over one agent per grid
point, each holding its b every period, so :func:`universal_portfolio` is
:func:`learner.run_backtest` on the grid.  The grid resolution Q replaces
the paper's continuum integral; convergence in Q is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .learner import BankruptcyError, WealthTrack, _not_positive, run_backtest

DEFAULT_RESOLUTION = 1000
MAX_POINTS = 2_000_000


class GridTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class SimplexGrid:
    """All weight vectors with entries n_i/Q on the M-asset simplex; a grid
    of more than ``MAX_POINTS`` points raises :class:`GridTooLargeError`."""

    resolution: int
    n_assets: int

    def __post_init__(self):
        if self.resolution < 1 or self.n_assets < 1:
            raise ValueError("resolution and asset count must be positive")
        if self.count > MAX_POINTS:
            raise GridTooLargeError(
                f"simplex grid would hold {self.count} points (> {MAX_POINTS}); "
                "reduce the resolution or the number of assets"
            )

    @property
    def count(self) -> int:
        return math.comb(self.resolution + self.n_assets - 1, self.n_assets - 1)

    def points(self) -> np.ndarray:
        """(count, M) grid in a fixed lexicographic order."""
        q, m = self.resolution, self.n_assets
        if m == 1:
            return np.ones((1, 1))
        # Stars and bars: divider positions among q + m - 1 slots.
        pts = np.empty((self.count, m))
        for row, dividers in enumerate(combinations(range(q + m - 1), m - 1)):
            prev = -1
            for i, d in enumerate(dividers):
                pts[row, i] = d - prev - 1
                prev = d
            pts[row, m - 1] = q + m - 2 - prev
        return pts / q


def universal_portfolio(x, resolution: int = DEFAULT_RESOLUTION) -> WealthTrack:
    """Wealth track of the grid universal portfolio under a uniform prior:
    the learner's universal rule over the grid's constant-rebalanced experts."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    t_total, m = x.shape
    pts = SimplexGrid(resolution, m).points()
    return run_backtest(x, np.broadcast_to(pts, (t_total, *pts.shape)), "absolute",
                        record_agents=False, label="universal_portfolio")


def best_stock(x):
    """Buy-and-hold champion: (asset index, its wealth track); ties -> lowest index.

    As in :func:`learner.run_backtest`, the first period whose wealth is not
    finite and positive (an underflow to 0, say) raises :class:`BankruptcyError`.
    """
    x = np.asarray(getattr(x, "values", x), dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need at least one period of relatives")
    cum = np.cumprod(x, axis=0)
    idx = int(np.argmax(cum[-1]))
    bad = np.flatnonzero(_not_positive(cum[:, idx]))
    if bad.size:
        raise BankruptcyError(int(bad[0]), f"best_stock[{idx}] wealth", float(cum[bad[0], idx]))
    t_total, m = x.shape
    controls = np.zeros((t_total, m))
    controls[:, idx] = 1.0
    turnover = np.zeros(t_total)
    turnover[0] = 1.0  # initial buy from cash
    track = WealthTrack(wealth=cum[:, idx].copy(), controls=controls,
                        turnover=turnover, hold_cash=np.zeros(t_total, dtype=bool),
                        mode="absolute", label=f"best_stock[{idx}]")
    return idx, track


def best_agent(track: WealthTrack):
    """(index, terminal wealth) of the best agent recorded in a track."""
    if track.agent_wealth is None:
        raise ValueError("track has no per-agent wealth recorded")
    idx = int(np.argmax(track.agent_wealth[-1]))
    return idx, float(track.agent_wealth[-1, idx])
