"""Online learning over competing agents.

An agent's wealth depends on its own controls alone, so the learner works
on blocks of whole periods: agent wealth, the mixture refreshed from it
(universal rule; EG and EWMA variants available) and renormalized per
mode, the next portfolio controls aggregated from the next agent controls
at unit leverage (or cash), then portfolio wealth, drift and turnover.
Under the universal rule each step is one array operation per block; EG
and EWMA carry the mixture through a loop over periods with the same row
rules.

Absolute mode keeps mixtures on the probability simplex; active mode
de-means them to unit L1 leverage (:func:`fundsep.unit_leverage`), so the
aggregate stays a self-funding zero-cost portfolio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .fundsep import ZERO_LEVERAGE_TOL, unit_leverage

MODES = ("absolute", "active")

# Periods run in blocks of about this many agent-periods, so that a block's
# (periods, agents) arrays stay near 2 MB each, even for the universal
# portfolio's up to 2 000 000 grid experts.
BLOCK_AGENT_PERIODS = 1 << 18


class BankruptcyError(RuntimeError):
    """A period's wealth is not finite and positive, or its mixture not finite."""

    def __init__(self, period: int, culprit: str, value: float):
        shown = f"{value:.6g}" if math.isfinite(value) else f"not finite ({value})"
        super().__init__(f"{culprit} is {shown} at period {period}")
        self.period = period
        self.culprit = culprit
        self.value = value

    def __reduce__(self):
        return type(self), (self.period, self.culprit, self.value)


@dataclass(frozen=True)
class MixtureRule:
    """Mixture update rule g(q, S): universal, eg(eta) or ewma(lam).

    The EG eta and EWMA lambda defaults are ours, not published values.
    """

    name: str = "universal"
    eta: float = 0.05
    lam: float = 0.99

    def __post_init__(self):
        if self.name not in ("universal", "eg", "ewma"):
            raise ValueError(f"unknown mixture rule {self.name!r}")
        if self.name == "eg" and self.eta <= 0:
            raise ValueError("eg rule needs eta > 0")
        if self.name == "ewma" and not 0.0 <= self.lam <= 1.0:
            raise ValueError("ewma rule needs lambda in [0, 1]")


def mixture_update(q, s_agents, rule: MixtureRule):
    """Raw mixture refresh before mode renormalization.

    universal: q <- S.  eg: q <- q * exp(eta * S / (q.S)).  ewma:
    q <- lam q + (1-lam) q S / (q.S).  The mode renormalization is a
    separate step and is not applied here.
    """
    q = np.asarray(q, dtype=float)
    s = np.asarray(s_agents, dtype=float)
    if np.any(s <= 0):
        raise ValueError("agent wealth must stay positive")
    if rule.name == "universal":
        return s
    denom = float(q @ s)
    if denom == 0.0:
        raise ValueError(f"{rule.name} update undefined: sum(q * S) is zero")
    if rule.name == "eg":
        return q * np.exp(rule.eta * s / denom)
    return rule.lam * q + (1.0 - rule.lam) * q * s / denom


def renormalize_mixture(q, mode: str):
    """Mode normalization of mixtures, one per row along the last axis.

    absolute: divide by the sum, keeping a probability vector.  active:
    subtract the mean and apply :func:`fundsep.unit_leverage`, giving sum 0
    and unit leverage; a flat mixture maps to all zeros (the portfolio
    holds cash).
    """
    q = np.asarray(q, dtype=float)
    if mode == "absolute":
        total = q.sum(axis=-1, keepdims=True)
        if np.any(total <= 0):
            raise ValueError("absolute mixture must have positive mass")
        return q / total
    if mode == "active":
        return unit_leverage(q - q.mean(axis=-1, keepdims=True))
    raise ValueError(f"unknown portfolio mode {mode!r}")


def _not_positive(a):
    """Mask of the entries that are not finite and positive (NaN included)."""
    return ~((a > 0.0) & (a < math.inf))


def _aggregate(q, h):
    """Portfolio controls ``q @ h``, one per row of mixtures ``q``, at unit
    L1 leverage, or all cash where the leverage is within the tolerance of
    zero.  Returns (controls, scale, hold_cash); a mixture carried to the
    next period is divided by ``scale`` too."""
    b = np.matmul(q[..., None, :], h)[..., 0, :]
    lev = np.abs(b).sum(axis=-1, keepdims=True)
    cash = lev <= ZERO_LEVERAGE_TOL
    scale = np.where(~cash & (np.abs(lev - 1.0) > ZERO_LEVERAGE_TOL), lev, 1.0)
    return np.where(cash, 0.0, b / scale), scale, cash[..., 0]


@dataclass
class WealthTrack:
    """Per-period wealth record of one strategy run."""

    wealth: np.ndarray
    controls: np.ndarray
    turnover: np.ndarray
    hold_cash: np.ndarray
    mode: str
    agent_wealth: np.ndarray | None = None
    label: str = "portfolio"

    @property
    def terminal(self) -> float:
        return float(self.wealth[-1])

    @property
    def n_periods(self) -> int:
        return len(self.wealth)

    def growth_factors(self):
        w = np.concatenate([[1.0], self.wealth])
        return w[1:] / w[:-1]

    def summary(self) -> dict:
        out = {
            "label": self.label,
            "mode": self.mode,
            "periods": int(self.n_periods),
            "terminal_wealth": self.terminal,
            "log_terminal_wealth": float(np.log(self.wealth[-1])),
            "mean_period_return": float(np.mean(self.growth_factors() - 1.0)),
        }
        if self.agent_wealth is not None:
            best = int(np.argmax(self.agent_wealth[-1]))
            out["best_agent"] = {
                "index": best,
                "terminal_wealth": float(self.agent_wealth[-1, best]),
            }
        return out

    def to_csv(self, path, include_agents: bool = False):
        header = ["t", "wealth", "turnover", "hold_cash"]
        agents = self.agent_wealth if include_agents else None
        if agents is not None:
            header += [f"agent_{i}" for i in range(agents.shape[1])]

        def rows():
            columns = zip(self.wealth.tolist(), self.turnover.tolist(),
                          self.hold_cash.astype(int).tolist())
            for t, fields in enumerate(columns):
                yield [t + 1, *fields, *(agents[t].tolist() if agents is not None else ())]

        write_csv(path, header, rows())


def write_csv(path, header, rows):
    """A CSV file of a header and rows of Python ints and floats, with the
    bytes ``csv.writer`` writes: each number's repr, comma-separated, no
    quotes, CRLF line ends.  Rows are written one at a time."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\r\n")


def run_backtest(x, controls, mode: str, rule: MixtureRule = MixtureRule(),
                 record_agents: bool = True, label: str = "portfolio") -> WealthTrack:
    """Run the learner over a full history of price relatives.

    ``controls`` is a (T, N, M) array: row t holds the agent control
    matrices formed from the first t periods.  Initial portfolio controls
    are uniform in absolute mode and all-cash in active mode.  The first
    period whose portfolio wealth or agent wealth is not finite and
    positive, or whose refreshed mixture is not finite, raises
    :class:`BankruptcyError`, checked in that order.
    """
    x = np.asarray(getattr(x, "values", x), dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two periods of relatives")
    if np.any(x <= 0):
        raise ValueError("price relatives must be positive")
    if mode not in MODES:
        raise ValueError(f"unknown portfolio mode {mode!r}")
    t_total, m = x.shape
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 3 or controls.shape[0] < t_total:
        raise ValueError(f"controls array must be (T, N, M) with T >= {t_total}")
    n_agents = controls.shape[1]

    wealth, growth = np.empty(t_total), np.empty(t_total)
    agent_wealth = np.empty((t_total, n_agents)) if record_agents else None
    b_hist = np.empty((t_total, m))
    hold_cash = np.zeros(t_total, dtype=bool)

    # A uniform initial mixture keeps EG/EWMA well-defined; the universal
    # rule discards it and active mode de-means it to hold-cash.
    uniform = np.full(n_agents, 1.0 / n_agents)
    q, s, s_port = uniform, np.ones(n_agents), 1.0
    b_hist[0] = 1.0 / m if mode == "absolute" else 0.0
    rows = max(1, BLOCK_AGENT_PERIODS // n_agents)
    # Values past a block's first bad period are computed, then discarded.
    with np.errstate(all="ignore"):
        for t0 in range(0, t_total, rows):
            k = min(rows, t_total - t0)
            dx = x[t0:t0 + k] - 1.0
            # Row by row: np.cumprod along axis 0 walks a wide block column
            # by column, and a sequential product keeps the loop's bits.
            s_rows = np.matmul(controls[t0:t0 + k], dx[:, :, None])[:, :, 0]
            for row in np.add(s_rows, 1.0, out=s_rows):
                s = np.multiply(s, row, out=row)
            bad = _not_positive(s_rows).any(axis=1)
            stop = int(bad.argmax()) if bad.any() else k  # the first bad agent period

            n_next = min(stop, t_total - 1 - t0)  # periods whose next controls are set here
            h_next, b_next, cash = (controls[t0 + 1:t0 + 1 + n_next],
                                    b_hist[t0 + 1:t0 + 1 + n_next], hold_cash[t0:t0 + n_next])
            if rule.name == "universal":
                b_next[:], _, cash[:] = _aggregate(
                    renormalize_mixture(mixture_update(q, s_rows[:n_next], rule), mode), h_next)
            else:
                for i in range(stop):
                    # A hold-cash (all-zero) mixture restarts from uniform:
                    # the multiplicative rules have nothing to propagate.
                    q = mixture_update(q if q.any() else uniform, s_rows[i], rule)
                    if not np.isfinite(q).all():
                        stop = i
                        break
                    q = renormalize_mixture(q, mode)
                    if i < n_next:
                        b_next[i], scale, cash[i] = _aggregate(q, h_next[i])
                        q = q / scale

            end = min(stop + 1, k)  # through the first bad period, if any
            growth[t0:t0 + end] = 1.0 + np.matmul(b_hist[t0:t0 + end, None, :],
                                                  dx[:end, :, None])[:, 0, 0]
            w = wealth[t0:t0 + end] = np.cumprod(np.append(s_port, growth[t0:t0 + end]))[1:]
            if _not_positive(w).any():
                i = int(_not_positive(w).argmax())
                raise BankruptcyError(t0 + i, "portfolio wealth", float(w[i]))
            if stop < k and np.isfinite(q).all():
                i = int(_not_positive(s_rows[stop]).argmax())
                raise BankruptcyError(t0 + stop, f"agent {i} wealth", float(s_rows[stop, i]))
            if stop < k:
                i = int(np.isfinite(q).argmin())
                raise BankruptcyError(t0 + stop, f"mixture weight {i}", float(q[i]))
            s_port = w[-1]
            if record_agents:
                agent_wealth[t0:t0 + k] = s_rows

    drift = b_hist * x / growth[:, None]
    turnover = np.abs(b_hist - np.vstack((np.zeros(m), drift[:-1]))).sum(axis=1)
    return WealthTrack(wealth=wealth, controls=b_hist, turnover=turnover,
                       hold_cash=hold_cash, mode=mode, agent_wealth=agent_wealth,
                       label=label)
