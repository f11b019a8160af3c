"""Sequential portfolio selection with pattern-matching agents.

Library layout:

- :mod:`zeroport.marketdata` — OHLC ingestion, price-relative features, cleaning
- :mod:`zeroport.fundsep` — analytic benchmark/active fund solvers and projections
- :mod:`zeroport.patterns` — nearest-neighbour matching and agent-control generation
- :mod:`zeroport.learner` — the wealth-weighted learner over blocks of whole periods
- :mod:`zeroport.baselines` — universal portfolio and buy-and-hold references
- :mod:`zeroport.synth` — seeded lognormal market cases SDC1-4
- :mod:`zeroport.ksstats` — two-sample KS tests and the hypothesis battery
- :mod:`zeroport.run` / :mod:`zeroport.cli` — config-driven runs, batches, tables
"""

from .fundsep import (
    SolverError,
    active_weights,
    agent_controls,
    benchmark_weights,
    lagrange_multiplier,
    mean_variance_weights,
    project_to_simplex,
    regularize,
)
from .learner import (
    BankruptcyError,
    MixtureRule,
    WealthTrack,
    mixture_update,
    renormalize_mixture,
    run_backtest,
)
from .marketdata import (
    DataError,
    OhlcSeries,
    PriceRelativeMatrix,
    clean_relatives,
    cleaning_report,
    load_csv,
    load_relatives_csv,
    to_relatives,
)
from .patterns import (
    AgentSpec,
    ClusterMap,
    MatchConfig,
    MatchResult,
    NoMatchError,
    PatternAgents,
    agent_grid,
    gyorfi_match_count,
    make_partitions,
    match,
)
from .baselines import SimplexGrid, best_agent, best_stock, universal_portfolio
from .ksstats import KsResult, RunTriple, cross_case_comparison, hypothesis_battery, ks_two_sample
from .synth import SynthSpec, generate as synth_generate, lognormal_params

__version__ = "0.1.0"
