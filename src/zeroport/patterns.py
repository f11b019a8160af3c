"""Nearest-neighbour pattern-matching agents.

Each agent is a (window k, match level ell, cluster w, horizon tau) tuple.
At history length t the agent takes the most recent k rows of price
relatives for its cluster, finds the closest k-row tuples in the
admissible past, steps each matched time tau periods forward to collect an
"agent tuple" of outcomes, and maps the sample mean/covariance of
(outcome - 1) through the analytic fund-separation solver to produce its
portfolio controls for period t+1.  A one-row tuple (k = 1) is scored
by the Euclidean norm of its row difference across the cluster's assets; a
longer tuple by the sum of absolute differences over its rows and assets.
Under the trivial partition an agent takes ell-hat = ell ("trivial" rule)
or :func:`gyorfi_match_count` ("gyorfi_nn") matches, clamped to
[1, candidates]; under the others, the best match per block.

The engine runs per cluster over blocks of periods.  Two distance matrices
between the block's query rows and every earlier row are built once and
every window's scores follow by lagged adds (:func:`_block_selections`);
each (tau, k) group then selects its rows.  Under the trivial partition the
periods that share their ell-hats share one selection (:func:`_nearest`),
which :func:`_stable_smallest` makes by a row-wise partition when the
ell-hats are at most a quarter of the candidates and otherwise by numpy's
vectorised sort, checked for ties.
The block's row lists are summed in one stacked call per set of prefix
lengths, which the groups and periods of a block normally share
(:func:`_prefix_moments`); one fund solve maps the block's moments to
controls.  Agents without a match, or whose solve fails, keep the fallback:
equal weights on their cluster in absolute mode, cash in active mode; so
does a mode's non-finite control row.  A period gets the same bits in any
block, so a series equals repeated one-period calls.

The (cluster, block) tasks are independent, so a series runs them in
forked workers (:mod:`forkpool`, one per usable core, with at least
``_TASKS_PER_WORKER`` blocks each); the numeric solver deals each group's
agents to workers instead.  Either way the bits do not depend on the
worker count.  The tasks run block by block, every cluster of a block
before the next block, and :meth:`PatternAgents.control_blocks` yields
each block's controls once its clusters are in, so a consumer such as
the learner never needs the whole (T, N, M) stack;
:meth:`PatternAgents.controls_series` fills the stacks from that stream.
"""

from __future__ import annotations

import contextlib
import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import forkpool, fundsep

log = logging.getLogger(__name__)

MATCH_RULES = ("trivial", "gyorfi_nn")
PARTITION_KINDS = ("trivial", "overlapping", "exclusive")

# Periods per block: scored, summed and solved together.  At 64 the score
# matrices raised the 10 x 2000 backtest's peak memory by about 8 MB.
_SOLVE_CHUNK = 32

# Blocks per forked worker, at least.  A pool costs about 15 ms, and its
# workers pay for their copy-on-write pages.  On 2 cores, with two 6-asset
# clusters and the trivial rule, 14 blocks took 108 ms forked against 82 ms
# in-process and 16 blocks 87 against 121 ms.
_TASKS_PER_WORKER = 8

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
            if len(set(arr.tolist())) < arr.size:
                raise ValueError(f"cluster {name!r} repeats an asset")

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


def _block_bounds(t: int, kind: str, ell: int):
    """[lo, hi) bounds of a partition kind's time blocks, in the order of
    :func:`make_partitions`; exclusive blocks split as ``np.array_split``."""
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


def make_partitions(t: int, kind: str, ell: int) -> np.ndarray:
    """The (blocks, t) bool time-membership masks of one agent family.

    trivial: a single all-true mask.  overlapping: ell masks where the i-th
    covers the most recent ceil(i*t/ell) periods, so every mask contains
    the latest period.  exclusive: ell disjoint contiguous blocks covering
    the whole history (earlier blocks take the remainder).
    """
    if t < 1 or ell < 1:
        raise ValueError("t and ell must be at least 1")
    bounds = np.array(_block_bounds(t, kind, ell))
    rows = np.arange(t)
    return (rows >= bounds[:, :1]) & (rows < bounds[:, 1:])


def gyorfi_match_count(ell: int, levels: int, t: int | np.ndarray) -> int | np.ndarray:
    """Match count floor(p_ell * t) with p_ell = 0.02 + 0.5 (ell-1)/(L-1).

    With a single level the schedule degenerates to p = 0.02.  ``t`` is an
    int, which gives an int, or an integer array, which gives an intp array
    of the counts at each t.  The result is not yet clamped to the
    admissible candidate count.
    """
    if not 1 <= ell <= levels:
        raise ValueError(f"ell={ell} outside 1..{levels}")
    p = 0.02 if levels == 1 else 0.02 + 0.5 * (ell - 1) / (levels - 1)
    counts = np.floor(p * np.asarray(t, dtype=float)).astype(np.intp)
    return int(counts) if counts.ndim == 0 else counts


@dataclass(frozen=True)
class MatchResult:
    """Matched candidate end-positions and the outcome rows they select.

    ``times`` are 0-based end indices j of matched tuples, in ascending
    distance order (earliest index wins ties); every j + tau is a valid row
    of the history.  ``agent_tuple`` holds the outcome rows, one per match.
    """

    times: np.ndarray
    agent_tuple: np.ndarray


def _stable_smallest(scores, n_smallest):
    """Indices of the n smallest scores along the last axis of a 1-D row or
    a 2-D block of rows, earliest index first among ties.

    Equivalent to ``np.argsort(scores, axis=-1, kind="stable")[..., :n_smallest]``,
    by one of two branches.  When n is more than a quarter of the candidate
    count, each row takes numpy's default argsort (unstable, vectorised) and
    keeps its first n indices if its first n + 1 sorted scores (all of them
    when n covers the row) strictly increase: the n smallest are then unique
    and in order, so a stable sort returns the same indices whatever the
    CPU's sort kernel.  A row with a tie there (0.0 against -0.0 included)
    or a NaN is stably sorted on its own.  Otherwise one row-wise
    partition: a row with exactly n scores at or below its cut takes them
    in index order and stably sorts their values; a row with ties across
    the cut is sorted whole.
    """
    n = scores.shape[-1]
    if n_smallest >= n or n_smallest * 4 > n:
        order = scores.argsort(axis=-1)
        if scores.ndim == 1:  # most gyorfi_nn calls: plain indexing costs the least per call
            top = scores[order[:n_smallest + 1]]
            if (top[1:] > top[:-1]).all():
                return order[:n_smallest]
            return scores.argsort(kind="stable")[:n_smallest]
        top = np.take_along_axis(scores, order[:, :n_smallest + 1], axis=1)
        order = order[:, :n_smallest]
        for p in np.flatnonzero(~(top[:, 1:] > top[:, :-1]).all(axis=1)):
            order[p] = scores[p].argsort(kind="stable")[:n_smallest]
        return order
    block = np.atleast_2d(scores)
    cut = np.partition(block, n_smallest - 1, axis=1)[:, n_smallest - 1, None]
    below = block <= cut
    exact = np.count_nonzero(below, axis=1) == n_smallest
    rows, cols = np.nonzero(below & exact[:, None])  # row-major: ascending j per row
    cols = cols.reshape(-1, n_smallest)
    order = np.argsort(block[rows, cols.ravel()].reshape(cols.shape), axis=1, kind="stable")
    out = np.empty((block.shape[0], n_smallest), dtype=np.intp)
    out[exact] = np.take_along_axis(cols, order, axis=1)
    for p in np.flatnonzero(~exact):
        out[p] = np.argsort(block[p], kind="stable")[:n_smallest]
    return out.reshape(scores.shape[:-1] + (n_smallest,))


def _nearest(scored, row0, t0, t1, k, tau, group, rule, levels):
    """Trivial-partition selections of one (tau, k) group in the format of
    :func:`_block_selections`: each agent's ell-hat nearest candidates,
    ell-hat clamped to [1, candidates].

    At history length t the n = t - tau - k + 1 candidates are scored in
    ``scored[t - row0, :n]``.  The block's (periods x agents) ell-hat table
    takes one :func:`gyorfi_match_count` call per ell.  The periods that
    share a row of it go to one :func:`_stable_smallest` call, each row's
    later candidates set to NaN, which sorts after every score; that call
    sorts each row when the largest ell-hat is above a quarter of the
    candidates, and partitions the rows otherwise.
    """
    shift = k - 1 + tau  # candidate index -> outcome row
    for t in range(t0, min(t1, shift + 1)):  # no admissible candidate
        yield [t], group, _NO_ROWS[None], (0,) * len(group)
    periods = np.arange(max(t0, shift + 1), t1)
    ells = [spec.ell for _, spec in group]
    wanted = np.stack([gyorfi_match_count(ell, levels, periods) for ell in ells], axis=1) \
        if rule == "gyorfi_nn" else np.array(ells)[None]
    blocks = {}
    for t, lhats in zip(periods.tolist(), np.clip(wanted, 1, (periods - shift)[:, None]).tolist()):
        blocks.setdefault(tuple(lhats), []).append(t)
    for lhats, ts in blocks.items():
        if len(ts) == 1:  # a view, and a 1-D call as benchmarks/selftest.py's fault expects
            rows = _stable_smallest(scored[ts[0] - row0, :ts[0] - shift], max(lhats))[None]
        else:
            ts = np.array(ts)
            block = scored[ts - row0, :ts[-1] - shift]
            block[np.arange(block.shape[1]) >= (ts - shift)[:, None]] = np.nan
            rows = _stable_smallest(block, max(lhats))
        yield ts, group, rows + shift, lhats


def _best_per_block(scored, row0, t0, t1, k, tau, group, partition):
    """Overlapping or exclusive selections of one (tau, k) group in the
    format of :func:`_block_selections`, one agent at a time: the best
    candidate in each of the agent's ell time blocks, earliest on ties."""
    shift = k - 1 + tau
    for t in range(t0, t1):
        n = t - shift
        for agent in group:
            try:
                bounds = _block_bounds(t, partition, agent[1].ell)
            except ValueError:
                bounds = []
            # Candidate i covers rows i..i+k-1, so it fits in [lo, hi) for lo <= i <= hi - k.
            fits = [(lo, min(hi - k + 1, n)) for lo, hi in bounds]
            best = [a + int(scored[t - row0, a:b].argmin()) for a, b in fits if a < b]
            yield [t], [agent], np.array([best], dtype=np.intp) + shift, (len(best),)


def _block_selections(xw, t0, t1, groups, rule, partition, levels):
    """Yield (periods, agents, rows, lens) for the history lengths
    t0 <= t < t1 and each group in ``groups``, {(tau, k): [(agent index,
    spec), ...]}: agent a of ``agents`` selects the outcome rows
    ``rows[p, :lens[a]]`` at t = periods[p], none if lens[a] is 0.  Under the
    trivial partition these are prefixes of one sorted row list
    (:func:`_nearest`); otherwise each agent has a list of its own
    (:func:`_best_per_block`).

    Built once over the block's query rows q and every candidate row j:
    D[q, j] = sum over assets of |x_q - x_j|, and the Euclidean row distance
    that scores k = 1.  Window scores follow by lagged adds, S_k[q, j] =
    S_{k-1}[q-1, j-1] + D[q, j], one k live at a time for every horizon.
    Each score sums the rows it covers in a fixed order: the same bits in
    any block.
    """
    if not groups:  # a cluster without agents
        return
    k_max = max(k for _, k in groups)
    lo = max(t0 - k_max, 0)  # first row that a window of the block's queries covers
    hi = max(t1 - 1, lo)     # queries end at rows t - 1 < hi; candidates end earlier
    dist, euclid = np.zeros((2, hi - lo, hi))
    for col in range(xw.shape[1]):
        diff = xw[lo:hi, col, None] - xw[None, :hi, col]
        dist += np.abs(diff)
        euclid += diff * diff
    np.sqrt(euclid, out=euclid)
    s, live = dist, 1
    for (tau, k), group in sorted(groups.items(), key=lambda item: item[0][1]):
        while live < k:
            live += 1  # s[a, b]: the window ending at row lo + a + live - 1 vs candidate b
            s = s[:-1, :-1] + dist[live - 1:, live - 1:]
        scored = euclid if k == 1 else s  # history length t scores in row t - k - lo
        if partition == "trivial":
            yield from _nearest(scored, k + lo, t0, t1, k, tau, group, rule, levels)
        else:
            yield from _best_per_block(scored, k + lo, t0, t1, k, tau, group, partition)


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
    the agent's ell time blocks.  This is the engine's kernel run on a
    one-agent group and a one-period block.  Raises :class:`NoMatchError`
    when no admissible candidate exists, which callers translate into the
    fallback control.
    """
    xw = np.asarray(getattr(features, "values", features), dtype=float)
    if xw.ndim != 2:
        raise ValueError("features must be a (t, m) array")
    MatchConfig(rule=rule, partition=partition)  # checks both
    levels = levels if levels is not None else spec.ell
    t = xw.shape[0]
    _, _, rows, lens = next(_block_selections(xw, t, t + 1, {(spec.tau, spec.k): [(0, spec)]},
                                              rule, partition, levels))
    rows = rows[0, :lens[0]]
    if rows.size == 0:
        raise NoMatchError(f"history of {t} periods admits no "
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


def _prefix_moments(rows, which, lens, cuts):
    """Moments of (rows[g, :n] - 1) for every (g, n) in zip(which, lens).

    ``rows`` stacks G outcome-row lists of equal length; ``cuts`` are
    increasing segment ends, every entry of ``lens`` among them.  Each
    segment's sums of y and y yᵀ take a reduceat and a matmul, and a
    running sum over segments gives every prefix's sums in O(n m²); the
    denominator is n-1 as in :func:`sample_moments`.  Y is taken about each
    list's first row, so a prefix of identical rows gets an exactly zero
    covariance.
    """
    y = rows - rows[:, :1]
    starts = np.concatenate(([0], cuts[:-1]))
    s1 = np.add.reduceat(y, starts, axis=1)
    s2 = np.empty(s1.shape + s1.shape[-1:])
    for seg, (a, b) in enumerate(zip(starts, cuts)):
        np.matmul(y[:, a:b].transpose(0, 2, 1), y[:, a:b], out=s2[:, seg])
    np.cumsum(s1, axis=1, out=s1)
    np.cumsum(s2, axis=1, out=s2)
    seg = np.searchsorted(cuts, lens)
    counts = lens.astype(float)
    mus = s1[which, seg] / counts[:, None]
    covs = (s2[which, seg] - counts[:, None, None] * mus[:, :, None] * mus[:, None, :]) \
        / np.maximum(counts - 1.0, 1.0)[:, None, None]
    return mus + (rows[which, 0] - 1.0), covs


@dataclass(frozen=True)
class MatchConfig:
    """Matching and control-mapping knobs shared by a whole agent family.

    ``gamma`` changes the controls only under ``absolute_tilt="gamma"``;
    elsewhere :func:`fundsep.unit_leverage` rescales it away, up to rounding.
    """

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
        if self.projection not in fundsep.PROJECTIONS:
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.absolute_tilt not in ("unit_leverage", "gamma"):
            raise ValueError(f"unknown absolute_tilt {self.absolute_tilt!r}")


class PatternAgents:
    """Vectorized control generation for a whole agent grid.

    Groups agents by (cluster, tau, k) for the block engine described in
    the module docstring.  Absolute and active controls for the same
    history share all matching work.
    """

    def __init__(self, specs, n_assets: int, clusters: ClusterMap | None = None,
                 config: MatchConfig | None = None):
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("agent grid is empty")
        self.n_assets = n_assets
        self.clusters = clusters if clusters is not None else ClusterMap.trivial(n_assets)
        self.clusters.validate_assets(n_assets)
        self.config = config if config is not None else MatchConfig()
        self.levels = max(s.ell for s in self.specs)  # the gyorfi schedule's L
        for spec in self.specs:
            if spec.cluster >= len(self.clusters):
                raise ValueError(f"{spec} references missing cluster")
        self._cols = [np.asarray(cols, dtype=np.intp) for cols in self.clusters.members]
        # Per cluster, the agents sharing (tau, k) as lists of (index, spec).
        self._groups = [{} for _ in self._cols]
        # Absolute controls of an agent without a match: equal weights on its cluster.
        self._fallback = np.zeros((self.n_agents, n_assets))
        for i, spec in enumerate(self.specs):
            self._groups[spec.cluster].setdefault((spec.tau, spec.k), []).append((i, spec))
            self._fallback[i, self._cols[spec.cluster]] = 1.0 / self._cols[spec.cluster].size
        self._fallbacks = 0
        self._match_args = (self.config.rule, self.config.partition, self.levels)

    @property
    def n_agents(self):
        return len(self.specs)

    @property
    def fallback_count(self):
        """Agent-periods that produced a fallback control so far."""
        return self._fallbacks

    # -- matching ---------------------------------------------------------

    def _group_selections(self, xw, group):
        """Matched rows (int arrays, empty = no match) of agents sharing
        (cluster, tau, k): the kernel's one-period block at t = len(xw)."""
        spec, t = group[0][1], xw.shape[0]
        block = _block_selections(xw, t, t + 1, {(spec.tau, spec.k): group}, *self._match_args)
        return [rows[0, :n] for _, _, rows, lens in block for n in lens]

    def _block_moments(self, xw, t0, t1, w):
        """(periods, agents, mus, covs, deficient) of the matched agents of
        cluster w at history lengths t0 <= t < t1, or None if none matched.

        "Deficient" covariances have no more samples than assets.  Each row
        list of :func:`_block_selections` serves its agents as prefixes.
        Lists are stacked by their agents' prefix lengths, one moments call
        per set, with a segment per row up to ``levels`` rows and a segment
        per prefix length beyond; each list's sums do not depend on which
        lists share its stack, so the bits equal a one-list call's.
        """
        stacks = {}
        for periods, agents, rows, lens in _block_selections(xw, t0, t1, self._groups[w],
                                                             *self._match_args):
            if max(lens):  # a trivial-partition group matches all or none
                stacks.setdefault(lens, []).append((periods, [i for i, _ in agents], rows))
        if not stacks:
            return None
        parts = []
        for key, chunks in stacks.items():
            periods, ids, rows = zip(*chunks)
            rows = np.concatenate(rows)
            which = np.repeat(np.arange(rows.shape[0]), len(key))  # entry -> its row list
            ids = np.repeat(ids, [len(ts) for ts in periods], axis=0).ravel()
            lens = np.tile(key, rows.shape[0])
            n = max(key)
            cuts = np.arange(1, n + 1) if n <= self.levels else np.array(sorted(set(key)))
            parts.append((np.concatenate(periods)[which], ids, lens,
                          *_prefix_moments(xw[rows], which, lens, cuts)))
        periods, agents, lens, mus, covs = (np.concatenate(col) for col in zip(*parts))
        return periods, agents, mus, covs, lens <= xw.shape[1]

    # -- control mapping --------------------------------------------------

    def _history(self, history):
        x = np.asarray(getattr(history, "values", history), dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_assets:
            raise ValueError(f"history must be (t, {self.n_assets})")
        return x

    def controls_multi(self, history, modes=("absolute", "active")):
        """Control matrices for several portfolio modes off one matching pass."""
        x = self._history(history)
        (block,) = self._controls(x, x.shape[0], x.shape[0] + 1, modes)
        return {mode: rows[0] for mode, rows in block.items()}

    def control_blocks(self, history, modes=("absolute", "active")):
        """Yield {mode: (k, N, M) controls} for every period, one block of
        ``_SOLVE_CHUNK`` periods at a time, in period order.

        Row t uses only x[:t], with the bits of :meth:`controls_series`.
        Close the generator if it is left before its end: a forked pool
        may be running behind it.
        """
        x = self._history(history)
        return self._controls(x, 0, x.shape[0], modes)

    def controls_series(self, history, modes=("absolute", "active")):
        """(T, N, M) control stacks for every period, batching the solver.

        Period t's controls use only x[:t], exactly as repeated
        :meth:`controls_multi` calls would (bit-identically so).  The
        stacks are filled from :meth:`control_blocks` one block at a time.
        """
        x = self._history(history)
        t_total = x.shape[0]
        out = {mode: np.empty((t_total, self.n_agents, self.n_assets)) for mode in modes}
        t0 = 0
        for block in self._controls(x, 0, t_total, modes):
            t1 = min(t0 + _SOLVE_CHUNK, t_total)
            for mode, rows in block.items():
                out[mode][t0:t1] = rows
            t0 = t1
        return out

    def _controls(self, x, t0, t1, modes):
        """Yield {mode: controls} for history lengths t0 <= t < t1, one block
        of ``_SOLVE_CHUNK`` periods at a time.

        Every slot of a block starts at the fallback; each (cluster, block)
        task of :meth:`_solve_block` overwrites the slots of its solved
        agents.  The tasks run block-major, so a block is complete after
        each ``len(clusters)`` results, and go to :mod:`forkpool` workers
        when each worker gets at least ``_TASKS_PER_WORKER``.  Closing the
        generator closes the pool.
        """
        xws = [np.ascontiguousarray(x[:, cols]) for cols in self._cols]  # row-major for the scans
        starts = range(t0, t1, _SOLVE_CHUNK)
        tasks = [(w, b0) for b0 in starts for w in range(len(self._cols))]
        workers = forkpool.worker_count(len(tasks), _TASKS_PER_WORKER)
        solve = functools.partial(self._solve_block, xws, t1, modes)
        with contextlib.closing(forkpool.imap(solve, tasks, workers)) as results:
            for b0 in starts:
                b1 = min(b0 + _SOLVE_CHUNK, t1)
                block = {mode: np.zeros((b1 - b0, self.n_agents, self.n_assets))
                         for mode in modes}
                if "absolute" in block:
                    block["absolute"][:] = self._fallback
                for w, groups in enumerate(self._groups):
                    fell_back = (b1 - b0) * len(modes) * sum(map(len, groups.values()))
                    for mode, (periods, agents, ctrl) in next(results).items():
                        block[mode][(periods - b0)[:, None], agents[:, None], self._cols[w]] = ctrl
                        fell_back -= periods.size
                    self._fallbacks += fell_back
                    if fell_back:
                        log.debug("%d fallback controls at t in [%d, %d)", fell_back, b0, b1)
                yield block

    def _solve_block(self, xws, t1, modes, task):
        """{mode: (periods, agents, controls)} of the agents of cluster w
        solved at history lengths b0 <= t < min(b0 + _SOLVE_CHUNK, t1), for
        ``task`` = (w, b0): one pass of the matching kernel, stacked moments
        and one fund solve.  A mode keeps only its finite control rows."""
        w, b0 = task
        matched = self._block_moments(xws[w], b0, min(b0 + _SOLVE_CHUNK, t1), w)
        if matched is None:
            return {}
        periods, agents, mus, covs, deficient = matched
        ctrl, ok = self._map_controls(mus, covs, modes, deficient)
        rows = {}
        for mode in modes:
            good = ok & np.isfinite(ctrl[mode]).all(axis=1)
            rows[mode] = periods[good], agents[good], ctrl[mode][good]
        return rows

    def _map_controls(self, mu_b, cov_b, modes, deficient=None):
        """Controls per mode from one batched fund solve over the agents,
        and a mask of the agents solved.

        Rarely the stacked solve fails (some agent's moments are not finite,
        say); then each agent is solved alone and those that still fail are
        left out of the mask, keeping the fallback.
        """
        cfg = self.config

        def solve(mu, cov, deficient=None):
            a, b = fundsep.fund_solution(mu, cov, eps=cfg.ridge, assume_deficient=deficient)
            # An overflowed row is not finite, so it keeps the fallback (_solve_block).
            with np.errstate(over="ignore", invalid="ignore"):
                return {mode: fundsep.controls_from_solution(
                    a, b, mode, gamma=cfg.gamma, projection=cfg.projection,
                    absolute_tilt=cfg.absolute_tilt) for mode in modes}

        ok = np.ones(mu_b.shape[0], dtype=bool)
        try:
            return solve(mu_b, cov_b, deficient), ok
        except fundsep.SolverError:
            pass
        out = {mode: np.zeros_like(mu_b) for mode in modes}
        for i in range(mu_b.shape[0]):
            try:
                row = solve(mu_b[i], cov_b[i])
            except fundsep.SolverError:
                ok[i] = False
                log.debug("solver fallback for agent row %d", i)
                continue
            for mode in modes:
                out[mode][i] = row[mode]
        return out, ok

    def controls_numeric(self, history):
        """(T, N, M) absolute controls from the numeric growth-optimal solver.

        Same blocked matching as :meth:`controls_series`; each matched
        agent-period's outcomes go to SLSQP instead of the analytic map, in t
        order, each agent warm-started from its previous solution.  Each
        (cluster, tau, k) group's agents are dealt round-robin to
        :mod:`forkpool` workers; an agent's warm starts stay in one worker,
        so the bits do not depend on their number.  Agent-periods without a
        match keep the fallback and add to :attr:`fallback_count`.
        """
        x = self._history(history)
        parts = forkpool.worker_count(self.n_agents)
        shares = [[{key: group[j::parts] for key, group in groups.items() if len(group) > j}
                   for groups in self._groups] for j in range(parts)]
        out = np.repeat(self._fallback[None], x.shape[0], axis=0)
        n_solved = 0
        for solved in forkpool.imap(functools.partial(self._numeric_share, x), shares, parts):
            for t, i, w, controls in solved:
                out[t, i, self._cols[w]] = controls
            n_solved += len(solved)
        self._fallbacks += out.shape[0] * self.n_agents - n_solved
        return out

    def _numeric_share(self, x, share):
        """The solved (t, agent, cluster, controls) rows of
        :meth:`controls_numeric` for the agents in ``share``: per cluster,
        {(tau, k): [(agent index, spec), ...]}."""
        t1 = x.shape[0]
        solved, warm = [], {}
        for w, (cols, groups) in enumerate(zip(self._cols, share)):
            xw = np.ascontiguousarray(x[:, cols])
            for b0 in range(0, t1, _SOLVE_CHUNK):
                block = _block_selections(xw, b0, min(b0 + _SOLVE_CHUNK, t1), groups,
                                          *self._match_args)
                found = [(t, i, rows[p, :n]) for periods, agents, rows, lens in block
                         for p, t in enumerate(periods) for (i, _), n in zip(agents, lens) if n]
                # A block's periods may come out of t order; warm starts follow t.
                for t, i, rows in sorted(found, key=lambda item: item[0]):
                    warm[i] = fundsep.log_optimal_controls(xw[rows], x0=warm.get(i))
                    solved.append((t, i, w, warm[i]))
        return solved
