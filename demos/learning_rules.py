"""The online aggregation loop and its mixture-update rules.

One seeded market with a drift split (three losers, seven winners) is run
through the learner under the universal, EG, and EWMA updates, in both
portfolio modes.  The wealth-proportional universal rule is the reference;
EG and EWMA trade adaptivity for inertia.

Run:  python3 demos/learning_rules.py
"""

import numpy as np

from zeroport import synth
from zeroport.learner import MixtureRule, run_backtest
from zeroport.patterns import MatchConfig, PatternAgents, agent_grid
from zeroport.run import pattern_controls

market = synth.generate(synth.SynthSpec(case="SDC4", assets=10, periods=600, seed=3))
print("asset drifts:", synth.asset_means(synth.SynthSpec(case="SDC4", assets=10,
                                                         periods=600, seed=3)))

engine = PatternAgents(agent_grid(5, 10), 10, config=MatchConfig(rule="gyorfi_nn"))
stacks = pattern_controls(market, engine, ("absolute", "active"))

rules = [MixtureRule("universal"), MixtureRule("eg", eta=0.05), MixtureRule("ewma", lam=0.99)]
print(f"\n{'rule':<12}{'absolute':>12}{'active':>12}")
tracks = {}
for rule in rules:
    row = []
    for mode in ("absolute", "active"):
        track = run_backtest(market, stacks[mode], mode, rule)
        tracks[(rule.name, mode)] = track
        row.append(track.terminal)
    print(f"{rule.name:<12}{row[0]:>12.4f}{row[1]:>12.4f}")

track = tracks[("universal", "active")]
final_q = track.agent_wealth[-1] / track.agent_wealth[-1].sum()
print("\nuniversal-rule active run:")
print("  periods holding cash:", int(track.hold_cash.sum()))
print("  mean per-period turnover:", round(float(track.turnover.mean()), 4))
print("  top agents by final wealth share:",
      np.argsort(final_q)[::-1][:5].tolist())
print("  final long/short tilt:", np.round(track.controls[-1], 3))
