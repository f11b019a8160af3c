"""Nearest-neighbour pattern-matching agents.

Each agent is a (window k, match level ell, cluster w, horizon tau) tuple.
At history length t the agent takes the most recent k rows of price
relatives for its cluster, searches the admissible past for the closest
k-row tuples, steps each matched time tau periods forward to collect an
"agent tuple" of outcomes, and maps the sample mean/covariance of
(outcome - 1) through the analytic fund-separation solver to produce its
portfolio controls for period t+1.

Distances: for k = 1 the score is the Euclidean norm of the one-row
difference across the cluster's assets (the same scalar for every asset);
for k > 1 the per-asset score is the window sum of absolute differences,
and candidate ranking uses the sum of per-asset scores.

Match counts: with a single (trivial) partition either ell-hat = ell
("trivial" rule) or ell-hat = floor((0.02 + 0.5 (ell-1)/(L-1)) t)
("gyorfi_nn" rule), clamped to [1, admissible candidates].  With multiple
partitions the single best match is taken in each.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fundsep

log = logging.getLogger(__name__)

MATCH_RULES = ("trivial", "gyorfi_nn")
PARTITION_KINDS = ("trivial", "overlapping", "exclusive")

# Periods whose moments are pushed through one stacked fund solve.
_SOLVE_CHUNK = 64

_NO_ROWS = np.empty(0, dtype=np.intp)


class NoMatchError(Exception):
    """History too short to produce any admissible candidate tuple."""


@dataclass(frozen=True)
class AgentSpec:
    """Identity of one agent in the grid."""

    k: int
    ell: int
    cluster: int = 0
    tau: int = 1

    def __post_init__(self):
        if self.k < 1 or self.ell < 1 or self.tau < 1 or self.cluster < 0:
            raise ValueError(f"invalid agent spec {self}")


def agent_grid(windows: int, levels: int, n_clusters: int = 1, horizons=(1,)):
    """Full (tau, w, k, ell) enumeration; tau outermost, ell innermost."""
    if windows < 1 or levels < 1 or n_clusters < 1:
        raise ValueError("grid dimensions must be at least 1")
    return [
        AgentSpec(k=k, ell=ell, cluster=w, tau=tau)
        for tau in horizons
        for w in range(n_clusters)
        for k in range(1, windows + 1)
        for ell in range(1, levels + 1)
    ]


@dataclass(frozen=True)
class ClusterMap:
    """Asset-index subsets each agent family is confined to."""

    members: tuple
    names: tuple

    def __post_init__(self):
        if len(self.members) != len(self.names) or not self.members:
            raise ValueError("cluster members and names must align and be nonempty")
        for name, idx in zip(self.names, self.members):
            arr = np.asarray(idx)
            if arr.size == 0:
                raise ValueError(f"cluster {name!r} is empty")
            if arr.min() < 0:
                raise ValueError(f"cluster {name!r} has negative asset indices")

    @classmethod
    def trivial(cls, n_assets: int) -> "ClusterMap":
        return cls(members=(tuple(range(n_assets)),), names=("ALL",))

    @classmethod
    def from_tickers(cls, groups: dict, tickers) -> "ClusterMap":
        """Build from {cluster name: [ticker, ...]} against an asset order."""
        order = {tck: i for i, tck in enumerate(tickers)}
        members, names = [], []
        for name, group in groups.items():
            missing = [tck for tck in group if tck not in order]
            if missing:
                raise ValueError(f"cluster {name!r} references unknown tickers {missing}")
            members.append(tuple(order[tck] for tck in group))
            names.append(name)
        return cls(members=tuple(members), names=tuple(names))

    def __len__(self):
        return len(self.members)

    def validate_assets(self, n_assets: int):
        for name, idx in zip(self.names, self.members):
            if max(idx) >= n_assets:
                raise ValueError(f"cluster {name!r} exceeds asset count {n_assets}")


@dataclass(frozen=True)
class Partition:
    """Boolean time-membership masks over a history of length t."""

    masks: np.ndarray  # (n_partitions, t)

    def __post_init__(self):
        if self.masks.ndim != 2:
            raise ValueError("partition masks must be 2-d")

    @property
    def n_partitions(self):
        return self.masks.shape[0]


def _block_bounds(t: int, kind: str, ell: int):
    """[lo, hi) bounds of the time blocks of a partition kind, in order.

    trivial: the whole history.  overlapping: ell blocks where the i-th
    covers the most recent ceil(i*t/ell) periods.  exclusive: ell disjoint
    contiguous blocks covering the history, earlier blocks taking the
    remainder (the split of ``np.array_split``).
    """
    if kind == "trivial":
        return [(0, t)]
    if kind == "overlapping":
        return [(t + (-i * t // ell), t) for i in range(1, ell + 1)]
    if kind == "exclusive":
        if ell > t:
            raise ValueError(f"cannot split {t} periods into {ell} exclusive blocks")
        q, r = divmod(t, ell)
        return [(i * q + min(i, r), (i + 1) * q + min(i + 1, r)) for i in range(ell)]
    raise ValueError(f"unknown partition kind {kind!r}")


def make_partitions(t: int, kind: str, ell: int) -> Partition:
    """Build the time partition used by one agent family.

    trivial: a single all-true mask.  overlapping: ell masks where the i-th
    covers the most recent ceil(i*t/ell) periods, so every mask contains
    the latest period.  exclusive: ell disjoint contiguous blocks covering
    the whole history (earlier blocks take the remainder).
    """
    if t < 1 or ell < 1:
        raise ValueError("t and ell must be at least 1")
    bounds = np.array(_block_bounds(t, kind, ell))
    rows = np.arange(t)
    return Partition((rows >= bounds[:, :1]) & (rows < bounds[:, 1:]))


def gyorfi_match_count(ell: int, levels: int, t: int) -> int:
    """Match count floor(p_ell * t) with p_ell = 0.02 + 0.5 (ell-1)/(L-1).

    With a single level the schedule degenerates to p = 0.02.  The result
    is not yet clamped to the admissible candidate count.
    """
    if not 1 <= ell <= levels:
        raise ValueError(f"ell={ell} outside 1..{levels}")
    p = 0.02 if levels == 1 else 0.02 + 0.5 * (ell - 1) / (levels - 1)
    return int(math.floor(p * t))


def tuple_distance(query, candidate):
    """Per-asset distance between two k x m tuples.

    k = 1 compares the rows as whole vectors: the Euclidean norm across
    assets, broadcast to every asset position.  k > 1 scores each asset
    column independently by the window sum of absolute differences.
    """
    q = np.atleast_2d(np.asarray(query, dtype=float))
    c = np.atleast_2d(np.asarray(candidate, dtype=float))
    if q.shape != c.shape:
        raise ValueError(f"tuple shapes differ: {q.shape} vs {c.shape}")
    diff = q - c
    k, m = diff.shape
    if k == 1:
        return np.full(m, float(np.sqrt((diff * diff).sum())))
    return np.abs(diff).sum(axis=0)


@dataclass(frozen=True)
class MatchResult:
    """Matched candidate end-positions and the outcome rows they select.

    ``times`` are 0-based end indices j of matched tuples, in ascending
    distance order (earliest index wins ties); every j + tau is a valid row
    of the history.  ``agent_tuple`` holds the outcome rows, one per match.
    """

    times: np.ndarray
    agent_tuple: np.ndarray


def _candidate_scores(xw, k, tau):
    """Ranking score of every admissible candidate tuple.

    Candidate i ends at row i + k - 1; its score is the sum of per-asset
    scores for k > 1 and the plain Euclidean row distance for k = 1, whose
    ordering equals the broadcast sum.
    """
    t, m = xw.shape
    n = t - tau - k + 1
    if n <= 0:
        return np.empty(0)
    if k == 1:
        diff = xw[:n] - xw[t - 1]
        return np.sqrt((diff * diff).sum(axis=1))
    windows = sliding_window_view(xw[: t - tau], (k, m)).reshape(n, k, m)
    return np.abs(windows - xw[t - k : t]).sum(axis=(1, 2))


def _clamped_count(rule, ell, levels, t, n_candidates):
    if rule == "trivial":
        lhat = ell
    elif rule == "gyorfi_nn":
        lhat = gyorfi_match_count(ell, levels, t)
    else:
        raise ValueError(f"unknown match rule {rule!r}")
    return max(1, min(lhat, n_candidates))


def _stable_smallest(scores, n_smallest):
    """Indices of the n smallest scores, earliest index first among ties.

    Equivalent to ``np.argsort(scores, kind="stable")[:n_smallest]`` but via
    argpartition when that is much smaller than the candidate count.
    """
    n = scores.shape[0]
    if n_smallest >= n or n_smallest * 4 > n:
        return np.argsort(scores, kind="stable")[:n_smallest]
    cut = np.partition(scores, n_smallest - 1)[n_smallest - 1]
    candidates = np.flatnonzero(scores <= cut)
    order = candidates[np.argsort(scores[candidates], kind="stable")]
    return order[:n_smallest]


def _select(xw, k, tau, ells, rule, partition, levels):
    """Matched outcome rows of agents that share window k and horizon tau.

    Returns one int array of history rows per entry of ``ells`` (empty = no
    match).  With the trivial partition each agent takes its ell-hat
    nearest candidates, all read off one stable partial sort; otherwise
    each takes the best candidate whose tuple fits inside each of its ell
    time blocks, earliest index first among ties.
    """
    t = xw.shape[0]
    scores = _candidate_scores(xw, k, tau)
    n = scores.shape[0]
    if n == 0:
        return [_NO_ROWS] * len(ells)
    shift = k - 1 + tau  # candidate index -> outcome row
    if partition == "trivial":
        lhats = [_clamped_count(rule, ell, levels, t, n) for ell in ells]
        rows = _stable_smallest(scores, max(lhats)) + shift
        return [rows[:lhat] for lhat in lhats]
    out = []
    for ell in ells:
        try:
            bounds = _block_bounds(t, partition, ell)
        except ValueError:
            out.append(_NO_ROWS)
            continue
        # Candidate i's tuple covers rows i..i+k-1, so it fits in [lo, hi)
        # for i in [lo, hi - k + 1).
        fits = [(lo, min(hi - k + 1, n)) for lo, hi in bounds]
        best = [a + int(scores[a:b].argmin()) for a, b in fits if a < b]
        out.append(np.asarray(best, dtype=np.intp) + shift)
    return out


def match(
    features,
    spec: AgentSpec,
    partition: str = "trivial",
    rule: str = "trivial",
    levels: int | None = None,
) -> MatchResult:
    """Find matching times for one agent on its cluster-sliced history.

    ``features`` is the (t, m) relatives slice the agent sees.  The trivial
    partition selects the ell-hat closest candidates under ``rule``; the
    overlapping and exclusive partitions select the best match in each of
    the agent's ell time blocks.  This is the engine's selection for a
    one-agent group.  Raises :class:`NoMatchError` when no admissible
    candidate exists, which callers translate into the fallback control.
    """
    xw = np.asarray(getattr(features, "values", features), dtype=float)
    if xw.ndim != 2:
        raise ValueError("features must be a (t, m) array")
    if partition not in PARTITION_KINDS:
        raise ValueError(f"unknown partition kind {partition!r}")
    levels = levels if levels is not None else spec.ell
    rows = _select(xw, spec.k, spec.tau, [spec.ell], rule, partition, levels)[0]
    if rows.size == 0:
        raise NoMatchError(f"history of {xw.shape[0]} periods admits no "
                           f"(k={spec.k}, tau={spec.tau}, {partition}) candidate")
    return MatchResult(times=rows - spec.tau, agent_tuple=xw[rows])


def sample_moments(outcomes):
    """Mean and covariance of (outcomes - 1) with an n-1 denominator.

    A single outcome row yields a zero covariance, which the fund solver's
    ridge turns positive definite.
    """
    y = np.asarray(outcomes, dtype=float) - 1.0
    n, m = y.shape
    mu = y.mean(axis=0)
    if n >= 2:
        r = y - mu
        cov = (r.T @ r) / (n - 1)
    else:
        cov = np.zeros((m, m))
    return mu, cov


def _prefix_moments(rows, lens):
    """Moments of (rows[:n] - 1) for every prefix length n in ``lens``.

    An (L, n) prefix-indicator matrix W gives every prefix's sums at once,
    S1 = W Y and S2 = (W[:, :, None] Y)ᵀ Y in one batched matmul, with the
    n-1 denominator of :func:`sample_moments`.  Y is taken about the first
    row, which every prefix holds, so a prefix of identical rows (a single
    row included) gets an exactly zero covariance.
    """
    y = rows - rows[0]
    lens = np.asarray(lens)
    counts = lens.astype(float)
    w = (np.arange(y.shape[0]) < lens[:, None]).astype(float)
    mus = (w @ y) / counts[:, None]
    s2 = np.matmul((w[:, :, None] * y).transpose(0, 2, 1), y)
    covs = (s2 - counts[:, None, None] * mus[:, :, None] * mus[:, None, :]) \
        / np.maximum(counts - 1.0, 1.0)[:, None, None]
    return mus + (rows[0] - 1.0), covs


@dataclass(frozen=True)
class MatchConfig:
    """Matching and control-mapping knobs shared by a whole agent family."""

    rule: str = "trivial"
    partition: str = "trivial"
    gamma: float = 1.0
    ridge: float = fundsep.DEFAULT_RIDGE
    projection: str = "euclidean"
    absolute_tilt: str = "unit_leverage"

    def __post_init__(self):
        if self.rule not in MATCH_RULES:
            raise ValueError(f"unknown match rule {self.rule!r}")
        if self.partition not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {self.partition!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.absolute_tilt not in ("unit_leverage", "gamma"):
            raise ValueError(f"unknown absolute_tilt {self.absolute_tilt!r}")


class PatternAgents:
    """Vectorized control generation for a whole agent grid.

    Groups agents by (cluster, tau, k) so candidate scores are computed
    once per group, then maps every agent's matched-sample moments through
    the fund-separation solver in one batched call per cluster.  Absolute
    and active controls for the same history share all matching work.
    """

    def __init__(self, specs, n_assets: int, clusters: ClusterMap | None = None,
                 config: MatchConfig | None = None, levels: int | None = None):
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("agent grid is empty")
        self.n_assets = n_assets
        self.clusters = clusters if clusters is not None else ClusterMap.trivial(n_assets)
        self.clusters.validate_assets(n_assets)
        self.config = config if config is not None else MatchConfig()
        # The gyorfi schedule needs the grid's L; infer it from a full grid
        # or take it explicitly when running a partial spec list.
        self.levels = levels if levels is not None else max(s.ell for s in self.specs)
        for spec in self.specs:
            if spec.cluster >= len(self.clusters):
                raise ValueError(f"{spec} references missing cluster")
            if spec.ell > self.levels:
                raise ValueError(f"{spec} exceeds levels={self.levels}")
        self._cols = [np.asarray(cols, dtype=np.intp) for cols in self.clusters.members]
        # Per cluster, the agents sharing (tau, k) as lists of (index, spec).
        self._groups = [{} for _ in self._cols]
        for i, spec in enumerate(self.specs):
            self._groups[spec.cluster].setdefault((spec.tau, spec.k), []).append((i, spec))
        self._fallbacks = 0

    @property
    def n_agents(self):
        return len(self.specs)

    @property
    def fallback_count(self):
        """Agent-periods that produced a fallback control so far."""
        return self._fallbacks

    # -- matching ---------------------------------------------------------

    def _group_selections(self, xw, group):
        """Matched outcome-row selections for agents sharing (cluster, tau, k).

        Returns a list aligned with ``group`` of int arrays of history row
        indices (empty = no match).
        """
        cfg = self.config
        tau, k = group[0][1].tau, group[0][1].k
        return _select(xw, k, tau, [spec.ell for _, spec in group], cfg.rule,
                       cfg.partition, self.levels)

    def _cluster_selections(self, x):
        """(cluster, cluster-sliced history, group, selections) per agent group."""
        for w, cols in enumerate(self._cols):
            xw = np.ascontiguousarray(x[:, cols])  # row-major for the window scans
            for group in self._groups[w].values():
                yield w, xw, group, self._group_selections(xw, group)

    def _cluster_blocks(self, x):
        """Stacked matched moments per cluster for one history.

        Returns ({cluster: (agent rows, mu stack, cov stack, deficient mask)},
        unmatched agent indices).  "Deficient" marks covariances built from no
        more samples than assets, which are rank-deficient by construction.
        Trivial-partition selections are nested prefixes of one sorted row
        list, so a group's moments come from one prefix-moments call; a
        partition agent's rows form a single prefix of their own.
        """
        trivial = self.config.partition == "trivial"
        parts = {}
        unmatched = []
        for w, xw, group, selections in self._cluster_selections(x):
            live = [(i, sel) for (i, _), sel in zip(group, selections) if sel.size]
            unmatched += [i for (i, _), sel in zip(group, selections) if not sel.size]
            for run in ([live] if trivial else [[agent] for agent in live]):
                if not run:
                    continue
                lens = [sel.size for _, sel in run]
                mus, covs = _prefix_moments(xw[max((sel for _, sel in run), key=len)], lens)
                parts.setdefault(w, []).append(([i for i, _ in run], mus, covs, lens))
        blocks = {}
        for w, items in parts.items():
            rows, mus, covs, lens = (np.concatenate(column) for column in zip(*items))
            blocks[w] = (rows.astype(np.intp), mus, covs, lens <= self._cols[w].size)
        return blocks, np.asarray(unmatched, dtype=np.intp)

    # -- control mapping --------------------------------------------------

    def _fallback_row(self, spec, mode):
        h = np.zeros(self.n_assets)
        if mode == "absolute":
            cols = self._cols[spec.cluster]
            h[cols] = 1.0 / cols.size
        return h

    def _history(self, history):
        x = np.asarray(getattr(history, "values", history), dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_assets:
            raise ValueError(f"history must be (t, {self.n_assets})")
        return x

    def controls_multi(self, history, modes=("absolute", "active")):
        """Control matrices for several portfolio modes off one matching pass."""
        x = self._history(history)
        stacks = self._controls(x, [x.shape[0]], modes)
        return {mode: stack[0] for mode, stack in stacks.items()}

    def controls_series(self, history, modes=("absolute", "active")):
        """(T, N, M) control stacks for every period, batching the solver.

        Period t's controls use only x[:t], exactly as repeated
        :meth:`controls_multi` calls would (bit-identically so).
        """
        x = self._history(history)
        return self._controls(x, range(x.shape[0]), modes)

    def _controls(self, x, periods, modes):
        """Control stacks, one slot per history length in ``periods``.

        Moments are buffered across up to ``_SOLVE_CHUNK`` periods per
        cluster and pushed through one stacked fund solve, which keeps
        per-period dispatch overhead out of long backtests.
        """
        out = {mode: np.zeros((len(periods), self.n_agents, self.n_assets)) for mode in modes}
        pending = {w: [] for w in range(len(self.clusters))}

        def flush():
            for w, items in pending.items():
                if not items:
                    continue
                cols = self._cols[w]
                mu_b = np.concatenate([item[2] for item in items])
                cov_b = np.concatenate([item[3] for item in items])
                deficient = np.concatenate([item[4] for item in items])
                ctrl = self._map_controls(mu_b, cov_b, modes, deficient)
                offset = 0
                for slot, rows, _, _, _ in items:
                    span = slice(offset, offset + len(rows))
                    for mode in modes:
                        out[mode][slot, rows[:, None], cols[None, :]] = ctrl[mode][span]
                    offset += len(rows)
                pending[w] = []

        for slot, t in enumerate(periods):
            blocks, unmatched = self._cluster_blocks(x[:t])
            for w, block in blocks.items():
                pending[w].append((slot,) + block)
            self._fallbacks += unmatched.size * len(modes)
            if unmatched.size:
                log.debug("fallback controls for %d agents at t=%d", unmatched.size, t)
            for mode in modes:
                for i in unmatched:
                    out[mode][slot, i] = self._fallback_row(self.specs[i], mode)
            if (slot + 1) % _SOLVE_CHUNK == 0:
                flush()
        flush()
        return out

    def _map_controls(self, mu_b, cov_b, modes, deficient=None):
        """Controls per mode from one batched fund solve over the agents."""
        cfg = self.config
        try:
            a, b = fundsep.fund_solution(mu_b, cov_b, eps=cfg.ridge,
                                         assume_deficient=deficient)
            return {
                mode: fundsep.controls_from_solution(a, b, mode, gamma=cfg.gamma,
                                                     projection=cfg.projection,
                                                     absolute_tilt=cfg.absolute_tilt)
                for mode in modes
            }
        except fundsep.SolverError:
            pass
        # Rare: isolate the offending agents and fall back just for them.
        out = {mode: np.zeros_like(mu_b) for mode in modes}
        m = mu_b.shape[1]
        for i in range(mu_b.shape[0]):
            try:
                a, b = fundsep.fund_solution(mu_b[i], cov_b[i], eps=cfg.ridge)
                for mode in modes:
                    out[mode][i] = fundsep.controls_from_solution(
                        a, b, mode, gamma=cfg.gamma, projection=cfg.projection,
                        absolute_tilt=cfg.absolute_tilt)
            except fundsep.SolverError:
                self._fallbacks += len(modes)
                log.debug("solver fallback for agent row %d", i)
                for mode in modes:
                    if mode == "absolute":
                        out[mode][i] = np.full(m, 1.0 / m)
        return out

    def controls(self, history, mode: str):
        """N x M control matrix for the next period in one mode."""
        return self.controls_multi(history, (mode,))[mode]

    def controls_numeric(self, history, warm=None):
        """Absolute controls from the numeric growth-optimal solver.

        Same matching as :meth:`controls`; each agent's matched outcomes are
        handed to SLSQP instead of the analytic map.  ``warm`` is an optional
        per-agent dict of starting points reused across periods.
        """
        x = self._history(history)
        out = np.zeros((self.n_agents, self.n_assets))
        for w, xw, group, selections in self._cluster_selections(x):
            for (i, spec), sel in zip(group, selections):
                if sel.size == 0:
                    out[i] = self._fallback_row(spec, "absolute")
                    continue
                x0 = None if warm is None else warm.get(i)
                h = fundsep.log_optimal_controls(xw[sel], "absolute", x0=x0)
                if warm is not None:
                    warm[i] = h
                out[i, self._cols[w]] = h
        return out
