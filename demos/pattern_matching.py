"""How the nearest-neighbour agents see a price history.

Builds a tiny market with a planted repeating pattern, then shows the
pieces in order: time partitions, match counts, matched times under
both match-count rules, and finally the agent-control matrix a whole grid
produces for the next period.

Run:  python3 demos/pattern_matching.py
"""

import numpy as np

from zeroport import patterns
from zeroport.patterns import AgentSpec, MatchConfig, PatternAgents

rng = np.random.default_rng(11)

# Two assets that alternate leadership on a 4-period cycle, plus noise.
t = 48
cycle = np.array([0.02, -0.015, 0.01, -0.012])
drive = np.tile(cycle, t // 4)
x = np.exp(np.column_stack([drive, -drive]) + rng.normal(0, 0.002, size=(t, 2)))

print("== partitions over a 12-period history ==")
for kind, ell in (("trivial", 1), ("overlapping", 3), ("exclusive", 3)):
    masks = patterns.make_partitions(12, kind, ell).astype(int)
    print(f"{kind:>12}:", *("".join(map(str, row)) for row in masks))

print("\n== match counts ==")
for ell in (1, 5, 10):
    print(f"  gyorfi ell-hat at t={t}, L=10, ell={ell}:",
          patterns.gyorfi_match_count(ell, 10, t))

print("\n== matched times (0-based tuple ends) ==")
spec = AgentSpec(k=4, ell=3)
res = patterns.match(x, spec)
print("trivial rule, ell=3:  ", res.times.tolist())
res_nn = patterns.match(x, AgentSpec(k=4, ell=10), rule="gyorfi_nn", levels=10)
print("gyorfi rule, ell=10:  ", res_nn.times.tolist())
print("matched ends sit ~4 apart: the planted cycle is being recovered")

print("\n== agent controls for the next period ==")
grid = patterns.agent_grid(2, 3)
engine = PatternAgents(grid, 2, config=MatchConfig(rule="trivial"))
for mode, h in engine.controls_multi(x).items():
    print(f"{mode}:")
    for spec_i, row in zip(grid, h):
        print(f"   k={spec_i.k} ell={spec_i.ell}: {np.round(row, 3)}")
