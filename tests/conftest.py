"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results through different routes
than the library (scalar loops, null-space optimization, direct sums) so
the tests check the math, not the implementation against itself.
"""

import math
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
NYSE_DIR = REPO_ROOT / "data" / "nyse"
FIXTURE_DIR = REPO_ROOT / "data" / "fixtures"

# Two tickers of small moves with one relative of 1e200, which overflows the
# matched moments of every agent that matches its row.
HUGE_RELATIVES = [[1.0 + 0.01 * ((3 * t) % 5 - 2), 1.0 - 0.01 * ((2 * t) % 3 - 1)]
                  for t in range(40)]
HUGE_RELATIVES[20][0] = 1e200


def write_relatives_csv(path, rows):
    """A wide relatives CSV, tickers S0, S1, ..., each value in repr form."""
    path.write_text(",".join(f"S{j}" for j in range(len(rows[0]))) + "\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return path


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {report.outcome.upper()}", flush=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# -- brute-force nearest-neighbour oracle ------------------------------------


def brute_match_times(x, k, ell, tau=1, rule="trivial", levels=10, metric="abs_sum"):
    """Exhaustive candidate scan with scalar arithmetic and (score, index) sort.

    Returns the matched 0-based end indices in ascending-distance order, or
    None when no candidate is admissible.
    """
    t, m = x.shape
    cands = list(range(k - 1, t - tau))
    if not cands:
        return None
    scores = []
    for j in cands:
        if k == 1:
            s = math.sqrt(sum((x[j, a] - x[t - 1, a]) ** 2 for a in range(m)))
        else:
            per_asset = []
            for a in range(m):
                if metric == "abs_sum":
                    per_asset.append(
                        sum(abs(x[j - k + 1 + i, a] - x[t - k + i, a]) for i in range(k))
                    )
                else:
                    per_asset.append(
                        math.sqrt(sum((x[j - k + 1 + i, a] - x[t - k + i, a]) ** 2
                                      for i in range(k)))
                    )
            s = sum(per_asset)
        scores.append(s)
    if rule == "trivial":
        lhat = ell
    else:
        p = 0.02 if levels == 1 else 0.02 + 0.5 * (ell - 1) / (levels - 1)
        lhat = math.floor(p * t)
    lhat = max(1, min(lhat, len(cands)))
    order = sorted(range(len(cands)), key=lambda i: (scores[i], i))
    return [cands[i] for i in order[:lhat]]


def brute_partition_matches(x, k, masks, tau=1, metric="abs_sum"):
    """Best candidate per partition, tuple fully inside the mask."""
    t, m = x.shape
    times = []
    for mask in masks:
        best, best_score = None, None
        for j in range(k - 1, t - tau):
            if not all(mask[j - k + 1 : j + 1]):
                continue
            if k == 1:
                s = math.sqrt(sum((x[j, a] - x[t - 1, a]) ** 2 for a in range(m)))
            else:
                s = sum(
                    sum(abs(x[j - k + 1 + i, a] - x[t - k + i, a]) for i in range(k))
                    for a in range(m)
                )
            if best_score is None or s < best_score:
                best, best_score = j, s
        if best is not None:
            times.append(best)
    return times


# -- numeric quadratic-programming oracle -------------------------------------


def numeric_budget_optimum(mu, sigma, gamma):
    """Maximize w'mu - (gamma/2) w'Sigma w s.t. sum(w) = 1, numerically.

    Null-space reduction to an unconstrained concave quadratic solved by
    BFGS; independent of the closed-form Lagrange route.
    """
    from scipy.linalg import null_space
    from scipy.optimize import minimize

    m = len(mu)
    z = null_space(np.ones((1, m)))
    w0 = np.full(m, 1.0 / m)

    def negated(v):
        w = w0 + z @ v
        return -(w @ mu - 0.5 * gamma * w @ sigma @ w)

    def grad(v):
        w = w0 + z @ v
        return -z.T @ (mu - gamma * sigma @ w)

    res = minimize(negated, np.zeros(m - 1), jac=grad, method="BFGS",
                   options={"gtol": 1e-13, "maxiter": 500})
    return w0 + z @ res.x


def scalar_learner_trace(x, h_by_period, mode, n_agents, rule="universal", eta=0.05, lam=0.99):
    """Pure-Python replay of the learning loop for tiny fixtures.

    ``h_by_period[t][n][m]`` are nested lists.  ``rule`` is "universal",
    "eg" (step ``eta``) or "ewma" (weight ``lam``); EG and EWMA restart
    from the uniform mixture after a hold-cash period, and a mixture is
    divided by the leverage that its controls are divided by.  Returns the
    per-period portfolio wealth and the controls held in each period, as
    plain floats.
    """
    t_total = len(x)
    m = len(x[0])
    q = [1.0 / n_agents] * n_agents
    s_agents = [1.0] * n_agents
    s_port = 1.0
    if mode == "absolute":
        b = [1.0 / m] * m
    else:
        b = [0.0] * m
    wealth, held = [], []
    for t in range(t_total):
        dx = [x[t][j] - 1.0 for j in range(m)]
        growth = 1.0 + sum(b[j] * dx[j] for j in range(m))
        s_port *= growth
        held.append(list(b))
        h_now = h_by_period[t]
        for n in range(n_agents):
            s_agents[n] *= 1.0 + sum(h_now[n][j] * dx[j] for j in range(m))
        if rule == "universal":
            q = list(s_agents)
        else:
            if not any(q):
                q = [1.0 / n_agents] * n_agents
            denom = sum(q[n] * s_agents[n] for n in range(n_agents))
            if rule == "eg":
                q = [q[n] * math.exp(eta * s_agents[n] / denom) for n in range(n_agents)]
            else:
                q = [lam * q[n] + (1.0 - lam) * q[n] * s_agents[n] / denom
                     for n in range(n_agents)]
        if mode == "absolute":
            total = sum(q)
            q = [v / total for v in q]
        else:
            mean = sum(q) / n_agents
            dev = [v - mean for v in q]
            lev = sum(abs(v) for v in dev)
            q = [0.0] * n_agents if lev <= 1e-12 else [v / lev for v in dev]
        if t + 1 < t_total:
            h_next = h_by_period[t + 1]
            b = [sum(q[n] * h_next[n][j] for n in range(n_agents)) for j in range(m)]
            nu = sum(abs(v) for v in b)
            if nu <= 1e-12:
                b = [0.0] * m
            elif abs(nu - 1.0) > 1e-12:
                b = [v / nu for v in b]
                q = [v / nu for v in q]
        wealth.append(s_port)
    return wealth, held
