"""Property tests: a malformed config document ends in a ConfigError.

Documents start from a small valid synthetic config and get a few keys set
to values drawn from every YAML type (or, now and then, are replaced
outright).  The keys come from a list written out here, not from the key
table under test, plus unknown ones.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from zeroport.learner import BankruptcyError
from zeroport.marketdata import DataError
from zeroport.run import ConfigError, build_dataset, build_engine, config_from_dict, run

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
@given(documents(st.sampled_from(KNOWN), most=2))
def test_small_synthetic_run_raises_only_config_data_or_bankruptcy_error(doc):
    """Building the data and the engine, then the run itself."""
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
        pass
