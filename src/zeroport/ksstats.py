"""Two-sample Kolmogorov-Smirnov testing and the wealth hypothesis battery.

Orientation convention, fixed once because it is the easiest place to get
this wrong: ``alternative="greater"`` tests the alternative that the CDF of
the FIRST sample is larger than the CDF of the second, i.e. that the first
sample is stochastically SMALLER.  A battery column labelled "S2>S1"
therefore asks whether the CDF of S2 lies above the CDF of S1, matching
the hypothesis wording the result tables use, not whether S2's values are
bigger.  Worked example: a = (1, 2), b = (10, 20) gives D+ = 1 under
"greater" and a tiny p-value, because a's CDF dominates b's.

P-values are asymptotic: exp(-2 n1 n2 D^2 / (n1 + n2)) one-sided and the
Kolmogorov series two-sided.  The battery's second-stage test compares 30
per-run p-values against the single scalar that is their mean; with n2 = 1
the KS statistic degenerates to the fraction of p-values below the mean,
which reproduces the published protocol literally.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

HYPOTHESES = ("S2>S1", "S2>S3", "S3>S1")


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    alternative: str
    n1: int
    n2: int


def ks_two_sample(a, b, alternative: str = "two-sided") -> KsResult:
    """Two-sample KS test with asymptotic p-values.

    "greater": alternative that CDF(a) > CDF(b) somewhere (a stochastically
    smaller); statistic D+ = sup(F_a - F_b).  "two-sided": D = sup|F_a - F_b|
    with the Kolmogorov-series p-value.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n1, n2 = a.size, b.size
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be nonempty")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    grid = np.concatenate([a_sorted, b_sorted])
    fa = np.searchsorted(a_sorted, grid, side="right") / n1
    fb = np.searchsorted(b_sorted, grid, side="right") / n2
    diff = fa - fb
    n_eff = n1 * n2 / (n1 + n2)
    if alternative == "greater":
        d = float(max(diff.max(), 0.0))
        p = float(min(1.0, math.exp(-2.0 * n_eff * d * d)))
    elif alternative == "two-sided":
        from scipy.special import kolmogorov  # slow to import; only this branch needs it

        d = float(np.abs(diff).max())
        p = float(min(1.0, max(0.0, kolmogorov(d * math.sqrt(n_eff)))))
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return KsResult(statistic=d, p_value=p, alternative=alternative, n1=n1, n2=n2)


@dataclass(frozen=True)
class RunTriple:
    """Wealth trajectories of one backtest run, for the battery."""

    portfolio: np.ndarray
    best_agent: np.ndarray
    best_stock: np.ndarray


@dataclass(frozen=True)
class BatteryRow:
    hypothesis: str
    p_values: np.ndarray
    mean_p: float
    second_stage_p: float


def hypothesis_battery(triples) -> list[BatteryRow]:
    """The three one-sided comparisons per run, their means, and the
    second-stage test of the run p-values against their own mean.

    S1 = portfolio wealth trajectory, S2 = best-agent trajectory, S3 =
    best-stock trajectory; each hypothesis "Si>Sj" tests CDF(Si) > CDF(Sj).
    """
    triples = list(triples)
    if len(triples) < 2:
        raise ValueError("battery needs at least two runs")
    columns = {name: [] for name in HYPOTHESES}
    for run in triples:
        columns["S2>S1"].append(ks_two_sample(run.best_agent, run.portfolio, "greater").p_value)
        columns["S2>S3"].append(ks_two_sample(run.best_agent, run.best_stock, "greater").p_value)
        columns["S3>S1"].append(ks_two_sample(run.best_stock, run.portfolio, "greater").p_value)
    rows = []
    for name in HYPOTHESES:
        ps = np.asarray(columns[name])
        mean_p = float(ps.mean())
        second = ks_two_sample(ps, np.array([mean_p]), "greater").p_value
        rows.append(BatteryRow(hypothesis=name, p_values=ps, mean_p=mean_p,
                               second_stage_p=second))
    return rows


def cross_case_comparison(trajectories_by_case: dict):
    """Pairwise seed-matched comparison across cases.

    Entry (i, j) is the mean over seeds s of the one-sided p-value testing
    CDF(case_i wealth at seed s) > CDF(case_j wealth at seed s); the
    diagonal is undefined (NaN, rendered "-").  Every case must supply the
    same number of seed runs.
    """
    cases = list(trajectories_by_case)
    sizes = {case: len(trajectories_by_case[case]) for case in cases}
    if len(set(sizes.values())) != 1:
        raise ValueError(f"seed counts differ across cases: {sizes}")
    n_seeds = sizes[cases[0]]
    grid = np.full((len(cases), len(cases)), np.nan)
    for i, ci in enumerate(cases):
        for j, cj in enumerate(cases):
            if i == j:
                continue
            ps = [
                ks_two_sample(trajectories_by_case[ci][s], trajectories_by_case[cj][s],
                              "greater").p_value
                for s in range(n_seeds)
            ]
            grid[i, j] = float(np.mean(ps))
    return cases, grid


def battery_to_csv(rows_by_case: dict, path):
    """Serialize battery results case-per-row in the result tables' layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["case"]
        for name in HYPOTHESES:
            header += [f"{name} mean_p", f"{name} p>mean_p"]
        writer.writerow(header)
        for case, rows in rows_by_case.items():
            record = [case]
            by_name = {row.hypothesis: row for row in rows}
            for name in HYPOTHESES:
                row = by_name[name]
                record += [f"{row.mean_p:.6f}", f"{row.second_stage_p:.6f}"]
            writer.writerow(record)


def cross_case_to_csv(cases, grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(cases))
        for i, case in enumerate(cases):
            row = [case]
            for j in range(len(cases)):
                row.append("-" if i == j else f"{grid[i, j]:.6f}")
            writer.writerow(row)
