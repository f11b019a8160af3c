"""Analytic semi-log-optimal portfolio construction.

The quadratic approximation to the growth-optimal problem,

    max_w  w' mu - (gamma/2) w' Sigma w   s.t.  w' 1 = 1,

separates into a minimum-risk benchmark fund and a self-funding active
fund.  Both are linear-solve closed forms, so agent controls can be
produced without a numeric optimizer:

    w_B = Sigma^-1 1 / (1' Sigma^-1 1)
    w_A = (1/gamma) Sigma^-1 (mu - 1 * (1' Sigma^-1 mu) / (1' Sigma^-1 1))

Fully-invested ("absolute") controls are w_B + w_A pushed back onto the
probability simplex; zero-cost ("active") controls are w_A rescaled to
unit L1 leverage (:func:`unit_leverage`, the learner's rule for active
mixtures too), which absorbs gamma.

All functions accept stacked inputs: ``sigma`` of shape (..., M, M) with
``mu`` of shape (..., M) solves every instance in one LAPACK call.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RIDGE = 1e-8

# Maps of an absolute-mode fund onto the simplex: project_to_simplex, clip_renormalize.
PROJECTIONS = ("euclidean", "clip")

# Leverage below this is treated as "no view": the agent holds cash.
ZERO_LEVERAGE_TOL = 1e-12


class SolverError(RuntimeError):
    """Covariance could not be factorized even after regularization."""

    def __init__(self, message: str, condition: float | None = None):
        self.message = message
        self.condition = condition
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.message, self.condition)


def regularize(sigma, eps: float = DEFAULT_RIDGE, assume_deficient=None):
    """Symmetrize ``sigma`` and ridge it only if it is near-singular.

    The ridge is ``eps * trace/M`` added to the diagonal, applied when the
    smallest eigenvalue falls below that same level; an all-zero matrix
    (single-sample covariance) falls back to ``eps * I``.  Well-conditioned
    input comes back unchanged apart from symmetrization.

    ``assume_deficient`` is a boolean mask over the stacked matrices that
    are known rank-deficient (sample covariances with no more samples than
    assets).  Those provably fail the eigenvalue test, so only the matrices
    it does not flag are tested, in one step: a batched Cholesky factor of
    ``sigma - eps * trace/M * I`` that succeeds shows that every one of
    them clears the floor.  Only when it does not are
    their smallest eigenvalues computed (``eigvalsh``).  The ridge added is
    identical either way.

    A matrix with a non-finite entry, or whose trace overflows, raises
    :class:`SolverError`: it has no eigenvalues to test or ridge to add.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValueError(f"covariance must be square, got shape {s.shape}")
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    m = s.shape[-1]
    trace = np.trace(s, axis1=-2, axis2=-1)
    if not (np.isfinite(trace).all() and np.isfinite(s).all()):
        raise SolverError("covariance is not finite")
    scale = np.where(trace > 0.0, trace / m, 1.0)
    deficient = False if assume_deficient is None else assume_deficient
    need = np.array(np.broadcast_to(deficient, s.shape[:-2]), dtype=bool)
    test = ~need
    if np.any(test):
        floor = eps * scale[test]
        shifted = s[test] - floor[:, None, None] * np.eye(m)
        try:  # s - floor * I factors: every tested matrix clears the floor
            np.linalg.cholesky(shifted)
            clear = True
        except np.linalg.LinAlgError:
            clear = False
        if not clear:
            need[test] = np.linalg.eigvalsh(s[test])[:, 0] < floor
    if np.any(need):
        bump = np.where(need, eps * scale, 0.0)
        s = s + bump[..., None, None] * np.eye(m)
    return s


def fund_solution(mu, sigma, eps: float = DEFAULT_RIDGE, assume_deficient=None):
    """Solve Sigma x = 1 and Sigma y = mu on the regularized covariance.

    Returns ``(a, b)`` with ``a = Sigma^-1 1`` and ``b = Sigma^-1 mu``
    (``b`` is None when ``mu`` is None).  Every public op goes through it,
    so the scalar API and the batched agent path produce identical numbers;
    backtest engines call it once per agent batch and derive absolute and
    active controls from the same solves via :func:`controls_from_solution`.
    """
    s = regularize(sigma, eps, assume_deficient=assume_deficient)
    m = s.shape[-1]
    ones = np.broadcast_to(np.ones(m), s.shape[:-1])[..., None]
    if mu is None:
        rhs = ones
    else:
        mu = np.asarray(mu, dtype=float)
        if mu.shape[-1] != m:
            raise ValueError(f"mu has {mu.shape[-1]} entries for {m} assets")
        rhs = np.concatenate([ones, mu[..., None]], axis=-1)
    try:
        x = np.linalg.solve(s, np.ascontiguousarray(rhs))
    except np.linalg.LinAlgError as exc:
        cond = float(np.max(np.linalg.cond(s)))
        raise SolverError("covariance singular after regularization", cond) from exc
    if not np.all(np.isfinite(x)):
        cond = float(np.max(np.linalg.cond(s)))
        raise SolverError("non-finite solve on regularized covariance", cond)
    if mu is None:
        return x[..., 0], None
    return x[..., 0], x[..., 1]


def _funds(a, b, gamma):
    """(w_B, w_A) from the solves ``a = Sigma^-1 1`` and ``b = Sigma^-1 mu``."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    sa = a.sum(axis=-1, keepdims=True)
    lam = b.sum(axis=-1, keepdims=True) / sa
    return a / sa, (b - a * lam) / gamma


def unit_leverage(w):
    """The zero-cost rule: each row of ``w`` over its L1 norm, or all zeros
    (cash) where that norm is at most ``ZERO_LEVERAGE_TOL``; a non-finite
    row stays non-finite.  Agent controls and active mixtures share it."""
    lev = np.abs(w).sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.divide(w, lev, out=np.zeros_like(w), where=~(lev <= ZERO_LEVERAGE_TOL))


def controls_from_solution(a, b, mode: str, gamma: float = 1.0,
                           projection: str = "euclidean",
                           absolute_tilt: str = "unit_leverage"):
    """Map fund solves to mode controls; see :func:`agent_controls`."""
    w_bench, w_active = _funds(a, b, gamma)
    if mode == "absolute":
        if absolute_tilt == "unit_leverage":
            tilt = unit_leverage(w_active)
        elif absolute_tilt == "gamma":
            tilt = w_active
        else:
            raise ValueError(f"unknown absolute_tilt {absolute_tilt!r}")
        raw = w_bench + tilt
        if projection == "euclidean":
            return project_to_simplex(raw)
        if projection == "clip":
            return clip_renormalize(raw)
        raise ValueError(f"unknown projection {projection!r}")
    if mode == "active":
        return unit_leverage(w_active - w_active.mean(axis=-1, keepdims=True))
    raise ValueError(f"unknown portfolio mode {mode!r}")


def benchmark_weights(sigma, eps: float = DEFAULT_RIDGE):
    """Minimum-risk fully-invested fund w_B = Sigma^-1 1 / (1' Sigma^-1 1).

    Entries sum to one but may be negative; projection onto the simplex is
    the caller's concern (see :func:`agent_controls`).
    """
    a, _ = fund_solution(None, sigma, eps)
    return a / a.sum(axis=-1, keepdims=True)


def active_weights(mu, sigma, gamma: float = 1.0, eps: float = DEFAULT_RIDGE):
    """Self-funding fund w_A; entries sum to zero by construction."""
    return _funds(*fund_solution(mu, sigma, eps), gamma)[1]


def lagrange_multiplier(mu, sigma, gamma: float = 1.0, eps: float = DEFAULT_RIDGE):
    """Multiplier of the budget constraint at the optimum.

    lambda = (1' Sigma^-1 mu - gamma) / (1' Sigma^-1 1); substituting it into
    the stationarity condition gamma Sigma w* = mu - lambda 1 recovers
    ``benchmark_weights + active_weights`` exactly.
    """
    a, b = fund_solution(mu, sigma, eps)
    sa = a.sum(axis=-1)
    return b.sum(axis=-1) / sa - gamma / sa


def mean_variance_weights(mu, sigma, gamma: float = 1.0, eps: float = DEFAULT_RIDGE):
    """Unconstrained-sign optimum w* = w_B + w_A of the quadratic problem."""
    w_bench, w_active = _funds(*fund_solution(mu, sigma, eps), gamma)
    return w_bench + w_active


def project_to_simplex(v):
    """Euclidean projection of each row of ``v`` onto the probability simplex.

    Standard sort-based algorithm; O(M log M) per row.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    u = -np.sort(-v, axis=-1)  # descending, contiguous
    css = np.cumsum(u, axis=-1) - 1.0
    ranks = np.arange(1, m + 1, dtype=float)
    positive = u - css / ranks > 0.0
    # rho = index of the last strictly positive entry; entry 0 always is.
    rho = m - 1 - np.argmax(positive[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho + 1.0)[..., None]
    return np.maximum(v - theta, 0.0)


def clip_renormalize(v):
    """Cheaper simplex repair: clip negatives and rescale; uniform if all clip."""
    v = np.asarray(v, dtype=float)
    w = np.clip(v, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    m = v.shape[-1]
    uniform = np.full_like(w, 1.0 / m)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), uniform)
    return out


def agent_controls(
    mu,
    sigma,
    mode: str,
    gamma: float = 1.0,
    eps: float = DEFAULT_RIDGE,
    projection: str = "euclidean",
    absolute_tilt: str = "unit_leverage",
):
    """Map moment estimates to portfolio controls for one agent.

    mode "active": w_A rescaled to unit L1 leverage, equivalent to
    re-picking gamma each period so leverage is one; a flat view (constant
    mu) yields the all-zero vector and the agent holds cash.

    mode "absolute": project(w_B + tilt) onto the simplex (weights >= 0,
    sum 1).  By default the tilt is the same leverage-one active fund the
    zero-cost case uses (``absolute_tilt="unit_leverage"``), i.e. the
    per-period gamma choice applies to both cases; ``absolute_tilt="gamma"``
    keeps the raw w_A at the fixed gamma instead.
    """
    a, b = fund_solution(mu, sigma, eps)
    return controls_from_solution(a, b, mode, gamma=gamma, projection=projection,
                                  absolute_tilt=absolute_tilt)


def log_optimal_controls(relatives, x0=None):
    """Numerically growth-optimal absolute weights over a sample of price
    relatives, starting from ``x0`` (equal weights by default).

    Maximizes the sample mean of log(1 + w'(x-1)) with SLSQP under the
    fully-invested constraints (weights >= 0, sum 1).  This is the optimizer
    the analytic route replaces; it exists for timing comparisons and as an
    independent check, not for production agent generation.
    """
    from scipy.optimize import minimize

    r = np.asarray(relatives, dtype=float) - 1.0
    if r.ndim != 2:
        raise ValueError("relatives must be a (samples, assets) array")
    n, m = r.shape

    def objective(w):
        z = 1.0 + r @ w
        if np.any(z <= 1e-12):
            return 1e6
        return -np.mean(np.log(z))

    def grad(w):
        z = 1.0 + r @ w
        z = np.maximum(z, 1e-12)
        return -(r.T @ (1.0 / z)) / n

    start = np.full(m, 1.0 / m) if x0 is None else np.asarray(x0, dtype=float)
    budget = np.ones(m)
    res = minimize(
        objective,
        start,
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=({"type": "eq", "fun": lambda w: w.sum() - 1.0,
                      "jac": lambda w: budget},),
        options={"maxiter": 100, "ftol": 1e-9},
    )
    w = np.clip(res.x, 0.0, None)
    return w / w.sum()
