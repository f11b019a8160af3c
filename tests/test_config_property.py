"""Property tests: a malformed config document ends in a ConfigError.

Documents start from a small valid synthetic config and get a few keys set
to values drawn from every YAML type (or, now and then, are replaced
outright).  The keys come from a list written out here, not from the key
table under test, plus unknown ones.  A small synthetic run that succeeds
must keep its mode's control rules in every period.  Small wide relatives
CSVs of extreme values through ``zeroport run`` end in an exit code.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

from zeroport import cli
from zeroport.learner import MODES, BankruptcyError, run_backtest
from zeroport.marketdata import DataError
from zeroport.patterns import MATCH_RULES
from zeroport.run import ConfigError, build_dataset, build_engine, config_from_dict, run
from conftest import HUGE_RELATIVES, write_relatives_csv

KNOWN = [
    "spec_version", "mode", "output", "record_agents", "clusters", "clusters.A", "clusters.B",
    "data", "data.kind", "data.case", "data.assets", "data.periods", "data.seed",
    "data.variance", "data.path", "data.delimiter", "data.tickers", "data.schema",
    "data.schema.close", "data.convention", "data.clean", "data.clean_lo", "data.clean_hi",
    "rule", "rule.name", "rule.eta", "rule.lam",
    "grid", "grid.windows", "grid.levels", "grid.horizons",
    "matching", "matching.rule", "matching.partition", "matching.gamma", "matching.ridge",
    "matching.projection", "matching.absolute_tilt",
    "frictions", "frictions.cost_bps", "frictions.flat_turnover",
    "baselines", "baselines.best_stock", "baselines.universal_portfolio",
    "baselines.universal_portfolio.resolution",
]
SECTIONS = ["", "data.", "data.schema.", "rule.", "grid.", "matching.", "frictions.",
            "baselines.", "baselines.universal_portfolio."]
# Strings that some key accepts, so that documents pass more often.
WORDS = ["SDC1", "SDC4", "synth", "ohlc_csv", "relatives_csv", "absolute", "active", "eg",
         "ewma", "gyorfi_nn", "overlapping", "exclusive", "clip", "gamma", "S01", "S02", "1e-3",
         ",", "open_to_close"]

TEXT = st.text("abc_.,", max_size=4)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.integers(),
    st.floats(), st.floats(0, 2), TEXT, st.sampled_from(WORDS),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.one_of(TEXT, st.sampled_from(WORDS), st.integers()), inner, max_size=3),
    max_leaves=6,
)
# Mostly values of the kind that some key takes, so that documents pass often.
LIKELY = st.one_of(st.integers(1, 6), st.sampled_from(WORDS), st.floats(0, 1), st.booleans(),
                   st.lists(st.sampled_from(["S01", "S02", "S03"]), max_size=2), VALUES)
KEYS = st.one_of(st.sampled_from(KNOWN), st.builds(str.__add__, st.sampled_from(SECTIONS),
                                                   st.text("abc", min_size=1, max_size=3)))


def _put(doc, dotted, value):
    *parents, last = dotted.split(".")
    for part in parents:
        if not isinstance(doc.get(part), dict):
            doc[part] = {}
        doc = doc[part]
    doc[last] = value


@st.composite
def documents(draw, keys=KEYS, most=3):
    if draw(st.integers(0, 19)) == 0:
        return draw(VALUES)
    doc = {"spec_version": 1,
           "data": {"kind": "synth", "case": "SDC1", "assets": 3, "periods": 12},
           "grid": {"windows": 2, "levels": 2}}
    for key, value in draw(st.lists(st.tuples(keys, LIKELY), max_size=most)):
        _put(doc, key, value)
    return doc


PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(documents())
def test_config_from_dict_raises_only_config_error(doc):
    try:
        config_from_dict(doc)
    except ConfigError:
        pass


def _small(cfg):
    data, grid = cfg.data, cfg.grid
    return (data["kind"] == "synth" and data["assets"] * data["periods"] <= 2_000
            and grid.windows * grid.levels * len(grid.horizons) <= 500)


@PROPERTY
@given(documents(st.sampled_from(KNOWN), most=2), st.sampled_from(MODES))
def test_small_synthetic_run_raises_only_config_data_or_bankruptcy_error(doc, mode):
    """Building the data and the engine, then the run itself, in ``mode``
    unless the document sets one."""
    if isinstance(doc, dict):
        doc.setdefault("mode", mode)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    if not _small(cfg):
        return
    try:
        build_engine(cfg, build_dataset(cfg))
        run(cfg)
    except (ConfigError, DataError, BankruptcyError):
        return
    _assert_control_rules(cfg)


def _assert_control_rules(cfg, tol=1e-12):
    """Every agent row and the portfolio controls of every period, built as
    :func:`run` builds them: on the simplex in absolute mode; sum 0 and unit
    L1 leverage, or exactly 0 (cash), in active mode."""
    matrix = build_dataset(cfg)
    agents = build_engine(cfg, matrix).controls_series(matrix, (cfg.mode,))[cfg.mode]
    portfolio = run_backtest(matrix, agents, cfg.mode, cfg.rule).controls
    for name, rows in (("agents", agents), ("portfolio", portfolio)):
        sums, lev = rows.sum(axis=-1), np.abs(rows).sum(axis=-1)
        if cfg.mode == "absolute":
            assert (rows >= 0.0).all(), name
            assert (np.abs(sums - 1.0) <= tol).all(), (name, np.abs(sums - 1.0).max())
        else:
            assert (np.abs(sums) <= tol).all(), (name, np.abs(sums).max())
            assert ((np.abs(lev - 1.0) <= tol) | (lev == 0.0)).all(), name


# 10 ** exponent, so that values spread log-uniformly over 1e-200 .. 1e200.
EXTREME = st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)


@st.composite
def relatives_tables(draw):
    """1-4 tickers by 2-60 rows of relatives, with exact 1.0 rows and rows
    repeated from elsewhere in the table mixed in."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 60))
    row = st.lists(EXTREME, min_size=m, max_size=m)
    rows = draw(st.lists(st.one_of(row, st.just([1.0] * m)), min_size=n, max_size=n))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n // 2)):
        rows[dst] = list(rows[src])
    return rows


@settings(PROPERTY, max_examples=40)
@given(relatives_tables(), st.sampled_from(MODES), st.sampled_from(MATCH_RULES))
@example(HUGE_RELATIVES, "absolute", "trivial")  # pinned, not left to the search
@example(HUGE_RELATIVES, "absolute", "gyorfi_nn")
@example(HUGE_RELATIVES, "active", "gyorfi_nn")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # floats at the edge of their range
def test_small_relatives_csv_run_ends_in_an_exit_code(rows, mode, rule):
    with tempfile.TemporaryDirectory() as tmp:
        data = write_relatives_csv(Path(tmp) / "relatives.csv", rows)
        config = Path(tmp) / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "spec_version": 1, "data": {"kind": "relatives_csv", "path": str(data)},
            "mode": mode, "grid": {"windows": 2, "levels": 3}, "matching": {"rule": rule}}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(config)])
    assert code in (0, 2, 3, 4)
