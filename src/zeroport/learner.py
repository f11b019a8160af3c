"""Online learning over competing agents.

One period of the learner, in order: realize portfolio wealth from the
controls held over the period, realize each agent's wealth from its own
controls, refresh the agent mixture from accumulated wealth (universal
rule; EG and EWMA variants available), renormalize the mixture for the
portfolio mode, aggregate next-period agent controls into next-period
portfolio controls, and rescale controls and mixture together whenever the
aggregate leverage drifts off one.

Absolute mode keeps mixtures on the probability simplex; active mode
de-means them and fixes unit L1 leverage, so the aggregate stays a
self-funding zero-cost portfolio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

MODES = ("absolute", "active")

NORMALIZATION_TOL = 1e-12


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
        return s.copy()
    denom = float(q @ s)
    if denom == 0.0:
        raise ValueError(f"{rule.name} update undefined: sum(q * S) is zero")
    if rule.name == "eg":
        with np.errstate(over="ignore", invalid="ignore"):  # the learner rejects a non-finite q
            return q * np.exp(rule.eta * s / denom)
    return rule.lam * q + (1.0 - rule.lam) * q * s / denom


def renormalize_mixture(q, mode: str):
    """Mode normalization of the mixture (learner step 4).

    absolute: divide by the sum, keeping a probability vector.  active:
    subtract the mean and divide by the L1 norm of the deviations, giving
    sum 0 and unit leverage; an exactly flat mixture maps to all zeros
    (the portfolio holds cash).
    """
    q = np.asarray(q, dtype=float)
    if mode == "absolute":
        total = q.sum()
        if total <= 0:
            raise ValueError("absolute mixture must have positive mass")
        return q / total
    if mode == "active":
        dev = q - q.mean()
        lev = np.abs(dev).sum()
        if lev <= NORMALIZATION_TOL:
            return np.zeros_like(q)
        return dev / lev
    raise ValueError(f"unknown portfolio mode {mode!r}")


@dataclass
class LearnerState:
    """Mutable learner state; single-owner, sequential in t."""

    q: np.ndarray
    s_agents: np.ndarray
    s_port: float
    b: np.ndarray
    mode: str
    rule: MixtureRule
    t: int = 0
    prev_drifted: np.ndarray = field(default=None)

    @classmethod
    def initial(cls, n_agents: int, n_assets: int, mode: str,
                rule: MixtureRule | None = None) -> "LearnerState":
        if mode not in MODES:
            raise ValueError(f"unknown portfolio mode {mode!r}")
        # Uniform initial mixture in both modes: the universal rule discards
        # it after one step and the active de-mean of a uniform vector is
        # identically zero, so the first active aggregate is hold-cash either
        # way, while EG/EWMA stay well-defined.
        q = np.full(n_agents, 1.0 / n_agents)
        b = np.full(n_assets, 1.0 / n_assets) if mode == "absolute" else np.zeros(n_assets)
        return cls(
            q=q,
            s_agents=np.ones(n_agents),
            s_port=1.0,
            b=b,
            mode=mode,
            rule=rule if rule is not None else MixtureRule(),
            prev_drifted=np.zeros(n_assets),
        )


@dataclass(frozen=True)
class PeriodReport:
    period: int
    growth: float
    turnover: float
    leverage: float
    hold_cash: bool


def step(state: LearnerState, x_t, h_now, h_next=None) -> PeriodReport:
    """Advance one period: realize x_t against held controls, then re-aggregate.

    ``h_now`` are the agent controls held over this period and ``h_next``
    the freshly generated ones for the next (None on the final period, in
    which case the portfolio controls are left in place).
    """
    x = np.asarray(x_t, dtype=float)
    if np.any(x <= 0):
        raise ValueError("price relatives must be positive")
    dx = x - 1.0

    turnover = float(np.abs(state.b - state.prev_drifted).sum())

    # A growth out of (0, inf), or an under- or overflow, leaves a wealth out of it.
    growth = 1.0 + float(state.b @ dx)
    s_port = state.s_port * growth
    if not 0.0 < s_port < math.inf:
        raise BankruptcyError(state.t, "portfolio wealth", s_port)
    s_agents = state.s_agents * (1.0 + h_now @ dx)
    if not 0.0 < s_agents.min() <= s_agents.max() < math.inf:  # NaN fails too
        i = np.flatnonzero(~((s_agents > 0.0) & (s_agents < math.inf)))[0]
        raise BankruptcyError(state.t, f"agent {i} wealth", float(s_agents[i]))
    state.s_port, state.s_agents = s_port, s_agents
    state.prev_drifted = state.b * x / growth

    q_prev = state.q
    if state.rule.name != "universal" and not q_prev.any():
        # Hold-cash degenerate state (all-zero active mixture): the
        # multiplicative rules have nothing to propagate, so they restart
        # from the uniform mixture instead of dividing by zero.
        q_prev = np.full_like(q_prev, 1.0 / q_prev.size)
    q = mixture_update(q_prev, state.s_agents, state.rule)
    if not np.isfinite(q).all():
        i = np.flatnonzero(~np.isfinite(q))[0]
        raise BankruptcyError(state.t, f"mixture weight {i}", float(q[i]))
    q = renormalize_mixture(q, state.mode)

    hold_cash = False
    leverage = float(np.abs(state.b).sum())
    if h_next is not None:
        b_next = q @ h_next
        leverage = float(np.abs(b_next).sum())
        if leverage <= NORMALIZATION_TOL:
            b_next = np.zeros_like(b_next)
            hold_cash = True
        elif abs(leverage - 1.0) > NORMALIZATION_TOL:
            b_next = b_next / leverage
            q = q / leverage
        state.b = b_next
    state.q = q
    state.t += 1
    return PeriodReport(period=state.t, growth=growth, turnover=turnover,
                        leverage=leverage, hold_cash=hold_cash)


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


def run_backtest(x, controls, mode: str, rule: MixtureRule | None = None,
                 record_agents: bool = True, label: str = "portfolio") -> WealthTrack:
    """Run the learner over a full history of price relatives.

    ``controls`` is a (T, N, M) array: row t holds the agent control
    matrices formed from the first t periods.  Initial portfolio controls
    are uniform in absolute mode and all-cash in active mode.
    """
    x = np.asarray(getattr(x, "values", x), dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two periods of relatives")
    t_total, m = x.shape
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 3 or controls.shape[0] < t_total:
        raise ValueError(f"controls array must be (T, N, M) with T >= {t_total}")
    n_agents = controls.shape[1]

    state = LearnerState.initial(n_agents, m, mode, rule)
    wealth = np.empty(t_total)
    agent_wealth = np.empty((t_total, n_agents)) if record_agents else None
    b_hist = np.empty((t_total, m))
    turnover = np.empty(t_total)
    hold_cash = np.zeros(t_total, dtype=bool)

    h_now = controls[0]
    for t in range(t_total):
        b_hist[t] = state.b
        h_next = controls[t + 1] if t + 1 < t_total else None
        report = step(state, x[t], h_now, h_next)
        wealth[t] = state.s_port
        if record_agents:
            agent_wealth[t] = state.s_agents
        turnover[t] = report.turnover
        hold_cash[t] = report.hold_cash
        if h_next is not None:
            h_now = h_next

    return WealthTrack(wealth=wealth, controls=b_hist, turnover=turnover,
                       hold_cash=hold_cash, mode=mode, agent_wealth=agent_wealth,
                       label=label)
