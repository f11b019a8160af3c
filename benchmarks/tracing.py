"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps zeroport's public functions from outside the package: it
rebinds each one, in every loaded ``zeroport`` module that holds it, to a
wrapper that records a span (name, start, end, parent span, operation id)
or, for functions called tens of thousands of times, only counts calls.
Nothing is recorded while no operation is open, so the benchmark's own
checks stay out of the figures.  Spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from zeroport import baselines, cli, fundsep, ksstats, learner, marketdata, patterns, run, synth

# Timed functions: (module, attribute, per-layer metric their self time feeds).
TIMED = (
    (synth, "generate", "synth.generate_s"),
    (marketdata, "load_csv", "marketdata.load_s"),
    (marketdata, "to_relatives", "marketdata.load_s"),
    (marketdata, "clean_relatives", "marketdata.load_s"),
    (fundsep, "fund_solution", "fundsep.solve_s"),
    (fundsep, "regularize", "fundsep.regularize_s"),
    (fundsep, "controls_from_solution", "fundsep.map_s"),
    (learner, "run_backtest", "learner.backtest_s"),
    (baselines, "best_stock", "baselines.s"),
    (baselines, "best_agent", "baselines.s"),
    (ksstats, "hypothesis_battery", "ksstats.s"),
    (ksstats, "cross_case_comparison", "ksstats.s"),
    (run, "run", "run.self_s"),
    (run, "batch", "run.self_s"),
    (cli, "main", "run.self_s"),
)
SERIES_METRIC = "patterns.self_s"   # PatternAgents.controls_series, a method

COUNTS = ("patterns.agent_periods", "patterns.fallback_agent_periods",
          "patterns.sample_moments_calls", "fundsep.matrices", "fundsep.batches",
          "learner.periods", "marketdata.rows", "ksstats.tests", "run.artifact_bytes")
TIMES = tuple(dict.fromkeys((SERIES_METRIC,) + tuple(metric for _, _, metric in TIMED)))

SETUP = "setup"


def _periods(x):
    return len(getattr(x, "values", x))


def _span_name(module, attr):
    return f"{module.__name__.split('.')[-1]}.{attr}"


class Tracer:
    """Spans and counters of one traced benchmark run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op]
        self.counts = defaultdict(Counter)   # op -> counter
        self.op = None             # open operation id, SETUP, or None
        self._open = []
        self._undo = []

    def count(self, key, n=1):
        if self.op is not None:
            self.counts[self.op][key] += n

    def _timed(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._open[-1] if tracer._open else None, tracer.op]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, replacement):
        for module in [m for name, m in sys.modules.items()
                       if name == "zeroport" or name.startswith("zeroport.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        def fund_solution_done(result, mu, *args, **kwargs):
            self.count("fundsep.batches")
            self.count("fundsep.matrices", 1 if mu.ndim == 1 else mu.shape[0])

        def backtest_done(result, x, *args, **kwargs):
            self.count("learner.periods", _periods(x))

        def load_done(result, *args, **kwargs):
            self.count("marketdata.rows", sum(len(s) for s in result))

        after = {"fund_solution": fund_solution_done, "run_backtest": backtest_done,
                 "load_csv": load_done}
        for module, attr, _ in TIMED:
            fn = getattr(module, attr)
            self._rebind(fn, self._timed(_span_name(module, attr), fn, after.get(attr)))
        for module, attr, key in ((patterns, "sample_moments", "patterns.sample_moments_calls"),
                                  (ksstats, "ks_two_sample", "ksstats.tests")):
            fn = getattr(module, attr)
            self._rebind(fn, self._counted(key, fn))

        series = patterns.PatternAgents.controls_series

        def counted_series(engine, history, modes=("absolute", "active"), *args, **kwargs):
            before = engine.fallback_count
            out = series(engine, history, modes, *args, **kwargs)
            self.count("patterns.agent_periods", _periods(history) * engine.n_agents)
            self.count("patterns.fallback_agent_periods",
                       (engine.fallback_count - before) // len(modes))
            return out

        patterns.PatternAgents.controls_series = self._timed(
            "patterns.controls_series", functools.wraps(series)(counted_series))
        self._undo.append((patterns.PatternAgents, "controls_series", series))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, rounds, ops_per_round: int, traced_wall: float) -> dict:
        """Per-operation self times and counts over the given rounds.

        ``rounds`` are the numbers of the rounds that returned; a round that
        raised is left out.  ``synth.generate_s`` also takes in one set-up,
        where the inputs of the long-history workload are generated.
        ``traced_wall`` is the wall time of those rounds, of which
        ``trace.unaccounted_s`` is the part no layer's span covers.
        """
        rounds = set(rounds)
        n_ops = len(rounds) * ops_per_round
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        metric_of = {_span_name(m, attr): metric for m, attr, metric in TIMED}
        metric_of["patterns.controls_series"] = SERIES_METRIC
        measured = Counter()
        setup = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op == SETUP:
                setup[metric_of[name]] += end - start - child[i]
            elif op in rounds:
                measured[metric_of[name]] += end - start - child[i]
        counts = Counter()
        for op, counter in self.counts.items():
            if op in rounds:
                counts.update(counter)
        out = {key: measured[key] / n_ops for key in TIMES}
        out["synth.generate_s"] += setup["synth.generate_s"]
        out.update({key: counts[key] / n_ops for key in COUNTS})
        out["patterns.per_agent_moments_share"] = (
            counts["patterns.sample_moments_calls"] / counts["patterns.agent_periods"]
            if counts["patterns.agent_periods"] else 0.0)
        accounted = sum(measured.values())
        out["trace.wall_s"] = traced_wall / n_ops
        out["trace.unaccounted_s"] = (traced_wall - accounted) / n_ops
        out["trace.unaccounted_share"] = (traced_wall - accounted) / traced_wall
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
