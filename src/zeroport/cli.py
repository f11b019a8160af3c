"""Command-line entry points.

    zeroport run CONFIG [--output DIR] [--set key=value ...]
    zeroport batch CONFIG [--output DIR] [--seeds N] [--set key=value ...]
    zeroport table5 DATA [--output DIR] [--pairs A:B,C:D] [--resolution Q]

Exit codes: 0 success, 2 config error (also fewer than 2 batch seeds or a table5
resolution below 1), 3 data error, 4 bankruptcy (a wealth or mixture out of range).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import baselines, synth
from . import run as runner
from .learner import BankruptcyError
from .marketdata import DataError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zeroport", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single config-driven backtest")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="artifact directory")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dotted path)")

    p_batch = sub.add_parser("batch", help="seed sweep over synthetic cases + KS battery")
    p_batch.add_argument("config")
    p_batch.add_argument("--output", default=None)
    p_batch.add_argument("--seeds", type=int, default=30, help="seeds 1..N (default 30)")
    p_batch.add_argument("--cases", default=None,
                         help="comma-separated case subset (default all four)")
    p_batch.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE")

    p_tab = sub.add_parser("table5", help="NYSE pair comparison rows")
    p_tab.add_argument("data", help="wide relatives CSV (or a directory holding one)")
    p_tab.add_argument("--output", default=None)
    p_tab.add_argument("--pairs", default=None,
                       help="comma-separated TICKER:TICKER pairs")
    p_tab.add_argument("--resolution", type=int, default=baselines.DEFAULT_RESOLUTION,
                       help="universal-portfolio grid resolution")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = runner.load_config(args.config, args.overrides)
            summary = runner.run(cfg, outdir=args.output or cfg.output)
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            print()
            fell_back, total = summary["agent_fallbacks"], summary["agent_periods"]
            if 2 * fell_back > total:
                print(f"warning: {fell_back} of {total} agent-periods fell back to the default "
                      "control: the history is short for the agent grid, or their controls "
                      "were not finite", file=sys.stderr)
        elif args.command == "batch":
            cfg = runner.load_config(args.config, args.overrides)
            cases = tuple(args.cases.split(",")) if args.cases else synth.CASES
            result = runner.batch(cfg, outdir=args.output or cfg.output,
                                  cases=cases, seeds=range(1, args.seeds + 1))
            json.dump(result["summary"], sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            pairs = runner.DEFAULT_PAIRS
            if args.pairs:
                pairs = tuple(tuple(p.split(":")) for p in args.pairs.split(","))
            rows = runner.nyse_table(args.data, pairs=pairs,
                                     resolution=args.resolution, outdir=args.output)
            json.dump(rows, sys.stdout, indent=2, sort_keys=True)
            print()
    except runner.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BankruptcyError as exc:
        print(f"bankruptcy: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
