"""Independent correctness checks for the benchmark's outputs.

Every check re-derives its expectation by another route than the program
(scalar loops, scipy, replays from recorded controls) or tests a property
the method guarantees; none compares against a stored copy of earlier
output.  Checks gather failure messages in a :class:`Checks` object, one per
benchmark operation; an operation with any message counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

from zeroport import fundsep, ksstats, patterns

MODE_TOL = 1e-12       # mode normalizations, as the learner and solver promise
PATH_TOL = 1e-6        # batched engine vs the one-agent public path
REPLAY_RTOL = 1e-9     # wealth replays accumulate a different summation order
EXACT_RTOL = 1e-12     # products and p-values recomputed by another route


class Checks:
    """Failure messages gathered for one operation."""

    def __init__(self, label: str):
        self.label = label
        self.failures: list[str] = []

    def expect(self, condition, what: str) -> bool:
        if not condition:
            self.failures.append(what)
        return bool(condition)

    @property
    def ok(self) -> bool:
        return not self.failures


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- matching -----------------------------------------------------------------


def scan_order(rows, k, tau=1):
    """Every admissible tuple end of a (t, m) history, nearest first.

    Pure-Python exhaustive scan: for k = 1 the Euclidean distance between
    rows, for k > 1 the sum over assets of window sums of absolute
    differences; ties go to the earlier end.  Returns [] when no candidate
    exists.
    """
    t = len(rows)
    query = rows[t - k:]
    scored = []
    for j in range(k - 1, t - tau):
        window = rows[j - k + 1: j + 1]
        if k == 1:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(window[0], query[0])))
        else:
            d = 0.0
            for col in range(len(query[0])):
                d += sum(abs(window[r][col] - query[r][col]) for r in range(k))
        scored.append((d, j))
    scored.sort()
    return [j for _, j in scored]


def match_count(rule, ell, levels, t, n_candidates):
    """ell-hat of the paper: ell itself, or floor((0.02 + 0.5 (ell-1)/(L-1)) t)."""
    if rule == "trivial":
        lhat = ell
    else:
        p = 0.02 if levels == 1 else 0.02 + 0.5 * (ell - 1) / (levels - 1)
        lhat = math.floor(p * t)
    return max(1, min(lhat, n_candidates))


def _cluster_cols(engine, spec):
    return np.asarray(engine.clusters.members[spec.cluster], dtype=np.intp)


def check_matched_times(ck, x, engine, t):
    """At history length t, the rows the engine selects for every agent, and
    patterns.match, equal the scalar scan, exactly.

    The engine's selections come from ``PatternAgents._group_selections``,
    the path ``controls_series`` takes, called per (cluster, tau, k) group
    as the engine groups its agents.
    """
    cfg = engine.config
    groups = {}
    for i, spec in enumerate(engine.specs):
        groups.setdefault((spec.cluster, spec.tau, spec.k), []).append((i, spec))
    for (_cluster, tau, k), group in groups.items():
        features = np.ascontiguousarray(x[:t, _cluster_cols(engine, group[0][1])])
        order = scan_order(features.tolist(), k, tau)
        selections = engine._group_selections(features, group)
        for (_, spec), rows in zip(group, selections):
            lhat = match_count(cfg.rule, spec.ell, engine.levels, t, len(order)) if order else 0
            ck.expect(rows.tolist() == [j + tau for j in order[:lhat]],
                      f"t={t} {spec}: engine selections differ from the exhaustive scan")
            try:
                got = patterns.match(features, spec, rule=cfg.rule, levels=engine.levels).times
            except patterns.NoMatchError:
                ck.expect(not order,
                          f"t={t} {spec}: match found no candidate, scan found {len(order)}")
                continue
            ck.expect(got.tolist() == order[:lhat],
                      f"t={t} {spec}: matched times differ from the exhaustive scan")


def check_one_agent_path(ck, x, engine, stacks, t):
    """Batched controls equal match -> sample_moments -> agent_controls per agent."""
    cfg = engine.config
    for i, spec in enumerate(engine.specs):
        cols = _cluster_cols(engine, spec)
        try:
            found = patterns.match(x[:t, cols], spec, rule=cfg.rule, levels=engine.levels)
        except patterns.NoMatchError:
            found = None
        if found is not None:
            mu, cov = patterns.sample_moments(found.agent_tuple)
        for mode, stack in stacks.items():
            expected = np.zeros(x.shape[1])
            if found is not None:
                expected[cols] = fundsep.agent_controls(
                    mu, cov, mode, gamma=cfg.gamma, eps=cfg.ridge,
                    projection=cfg.projection, absolute_tilt=cfg.absolute_tilt)
            elif mode == "absolute":
                expected[cols] = 1.0 / cols.size
            gap = float(np.abs(stack[t, i] - expected).max())
            ck.expect(gap <= PATH_TOL,
                      f"t={t} agent {i} {mode}: one-agent path differs by {gap:.3g}")


def check_no_lookahead(ck, fresh_engine, x, stacks, t):
    """Period t of the series is byte-identical to controls_multi(x[:t])."""
    alone = fresh_engine.controls_multi(x[:t].copy(), tuple(stacks))
    for mode, stack in stacks.items():
        ck.expect(stack[t].tobytes() == alone[mode].tobytes(),
                  f"t={t} {mode}: series controls differ from controls_multi(x[:t])")


# -- controls and wealth --------------------------------------------------------


def check_mode_rows(ck, rows, mode, what):
    """Absolute rows are >= 0 and sum to 1; active rows sum to 0 at L1 0 or 1."""
    rows = np.asarray(rows).reshape(-1, np.shape(rows)[-1])
    sums = rows.sum(axis=1)
    if mode == "absolute":
        ck.expect(bool(np.all(rows >= 0.0)), f"{what}: negative absolute weight")
        bad = np.abs(sums - 1.0) > MODE_TOL
    else:
        lev = np.abs(rows).sum(axis=1)
        bad = (np.abs(sums) > MODE_TOL) | ((lev != 0.0) & (np.abs(lev - 1.0) > MODE_TOL))
    ck.expect(not bad.any(), f"{what}: {int(bad.sum())} {mode} rows break the mode rule")


def replay_wealth(x, controls):
    """Cumulative product of 1 + b . (x - 1) over periods, per control row."""
    dx = x - 1.0
    if controls.ndim == 2:
        return np.cumprod(1.0 + np.einsum("tm,tm->t", controls, dx))
    return np.cumprod(1.0 + np.einsum("tnm,tm->tn", controls[: x.shape[0]], dx), axis=0)


def check_wealth_replay(ck, x, stack, track, what):
    """Portfolio and agent wealth equal a replay from the recorded controls."""
    ck.expect(np.allclose(track.wealth, replay_wealth(x, track.controls),
                          rtol=REPLAY_RTOL, atol=0.0),
              f"{what}: portfolio wealth differs from its replay")
    if track.agent_wealth is not None:
        ck.expect(np.allclose(track.agent_wealth, replay_wealth(x, stack),
                              rtol=REPLAY_RTOL, atol=0.0),
                  f"{what}: agent wealth differs from its replay")


def check_best_stock(ck, x, wealth, what):
    """Best-stock terminal wealth is the largest column product of the input."""
    best = max(math.prod(col) for col in np.asarray(x).T.tolist())
    ck.expect(rel_close(float(wealth[-1]), best, EXACT_RTOL),
              f"{what}: best-stock wealth {float(wealth[-1])!r} != largest product {best!r}")


def check_engine(ck, x, make_engine, stacks, tracks, periods):
    """The full set of engine checks on one backtest's controls and tracks."""
    engine = make_engine()
    for mode, stack in stacks.items():
        check_mode_rows(ck, stack, mode, f"agent controls ({mode})")
        check_mode_rows(ck, tracks[mode].controls, mode, f"portfolio controls ({mode})")
        check_wealth_replay(ck, x, stack, tracks[mode], mode)
    for t in periods:
        check_matched_times(ck, x, engine, t)
        check_one_agent_path(ck, x, engine, stacks, t)
        check_no_lookahead(ck, make_engine(), x, stacks, t)


# -- KS statistics ------------------------------------------------------------


def ks_expected(a, b):
    """(D+, p) for the one-sided test: D+ from scipy, p = exp(-2 n_eff D^2)."""
    from scipy.stats import ks_2samp

    d = float(ks_2samp(a, b, alternative="greater").statistic)
    n1, n2 = np.size(a), np.size(b)
    return d, math.exp(-2.0 * n1 * n2 / (n1 + n2) * d * d)


def check_ks_pair(ck, a, b, p_reported, what):
    """The program's KS statistic and p-value against scipy and the formula."""
    d, p = ks_expected(a, b)
    res = ksstats.ks_two_sample(a, b, "greater")
    ck.expect(abs(res.statistic - d) <= EXACT_RTOL, f"{what}: D+ {res.statistic!r} != scipy {d!r}")
    ck.expect(abs(p_reported - p) <= EXACT_RTOL, f"{what}: p {p_reported!r} != {p!r}")


_HYPOTHESIS_SAMPLES = {"S2>S1": ("best_agent", "portfolio"),
                       "S2>S3": ("best_agent", "best_stock"),
                       "S3>S1": ("best_stock", "portfolio")}


def check_battery_run(ck, triple, rows, index, what):
    """One run's p-values in every battery row."""
    for row in rows:
        first, second = _HYPOTHESIS_SAMPLES[row.hypothesis]
        check_ks_pair(ck, getattr(triple, first), getattr(triple, second),
                      float(row.p_values[index]), f"{what} {row.hypothesis}")


def check_battery_rows(ck, rows, what):
    """Mean p-values and the second-stage test of the runs against their mean."""
    for row in rows:
        ck.expect(rel_close(row.mean_p, float(np.mean(row.p_values)), EXACT_RTOL),
                  f"{what} {row.hypothesis}: mean p differs")
        _, p = ks_expected(row.p_values, np.array([row.mean_p]))
        ck.expect(abs(row.second_stage_p - p) <= EXACT_RTOL,
                  f"{what} {row.hypothesis}: second-stage p {row.second_stage_p!r} != {p!r}")


def check_cross_case(ck, trajectories, cases, grid, what):
    """Cross-case grid entries are seed-averaged one-sided p-values."""
    for i, ci in enumerate(cases):
        for j, cj in enumerate(cases):
            if i == j:
                ck.expect(math.isnan(grid[i, j]), f"{what}: diagonal {ci} not NaN")
                continue
            p = float(np.mean([ks_expected(a, b)[1]
                               for a, b in zip(trajectories[ci], trajectories[cj])]))
            ck.expect(abs(grid[i, j] - p) <= EXACT_RTOL, f"{what}: cell {ci}>{cj} differs")
