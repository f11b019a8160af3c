"""Seeded lognormal synthetic market cases.

Four stock-market archetypes over 10 assets and 1000 periods: SDC1 flat
(mean relative 1.000), SDC2 all drifting up (1.001), SDC3 per-asset random
drifts clamped to [1.0, 1.001], SDC4 mixed with three assets drifting down
(0.999) and the rest up (1.001); every case uses variance 0.0002.  Each
relative is drawn from a lognormal whose underlying normal has

    mu_bar    = log(mu^2 / sqrt(v + mu^2))
    sigma_bar = sqrt(log(v / mu^2 + 1))

Draws ride a Mersenne-Twister stream per seed: SDC3's per-asset drift
normals come first, then the (T, M) standard normals row by row (time
outer, asset inner), so identical seeds reproduce identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marketdata import PriceRelativeMatrix

CASES = ("SDC1", "SDC2", "SDC3", "SDC4")

DEFAULT_VARIANCE = 0.0002

# The assets that drift down in SDC4; the others drift up.
DOWN_ASSETS = (0, 1, 2)


@dataclass(frozen=True)
class SynthSpec:
    case: str
    assets: int = 10
    periods: int = 1000
    seed: int = 1
    variance: float = DEFAULT_VARIANCE

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown synthetic case {self.case!r}")
        if self.assets < 1 or self.periods < 1:
            raise ValueError("assets and periods must be positive")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        if self.case == "SDC4" and self.assets <= max(DOWN_ASSETS):
            raise ValueError(f"SDC4 needs at least {max(DOWN_ASSETS) + 1} assets")


def lognormal_params(mu: float, v: float):
    """Parameters (mu_bar, sigma_bar) of the normal underlying a lognormal
    with mean ``mu`` and variance ``v``."""
    if mu <= 0:
        raise ValueError("mean relative must be positive")
    if v < 0:
        raise ValueError("variance must be nonnegative")
    mu_bar = math.log(mu * mu / math.sqrt(v + mu * mu))
    sigma_bar = math.sqrt(math.log(v / (mu * mu) + 1.0))
    return mu_bar, sigma_bar


def _case_means(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.case == "SDC1":
        return np.ones(spec.assets)
    if spec.case == "SDC2":
        return np.full(spec.assets, 1.001)
    if spec.case == "SDC3":
        delta = rng.standard_normal(spec.assets)
        return 1.0 + np.maximum(0.0, np.minimum(0.0005 + 0.0005 * delta, 0.001))
    means = np.full(spec.assets, 1.001)
    means[list(DOWN_ASSETS)] = 0.999
    return means


def generate(spec: SynthSpec) -> PriceRelativeMatrix:
    """One seeded relatives matrix for the given case."""
    rng = np.random.Generator(np.random.MT19937(spec.seed))
    means = _case_means(spec, rng)
    params = np.array([lognormal_params(m, spec.variance) for m in means])
    z = rng.standard_normal((spec.periods, spec.assets))
    values = np.exp(params[:, 0] + params[:, 1] * z)
    tickers = [f"S{m + 1:02d}" for m in range(spec.assets)]
    timestamps = [str(t + 1) for t in range(spec.periods)]
    return PriceRelativeMatrix(
        values=values,
        tickers=tickers,
        timestamps=timestamps,
        cleaned=np.zeros(values.shape, dtype=bool),
    )


def asset_means(spec: SynthSpec) -> np.ndarray:
    """The per-asset mean relatives a seed will use (draws SDC3's deltas)."""
    rng = np.random.Generator(np.random.MT19937(spec.seed))
    return _case_means(spec, rng)
