"""Execution costs and the analytic-vs-numeric speed gap.

Part 1 reproduces the cost arithmetic behind the "12% a year unleveraged"
claim: 15 bps of daily gross edge, 10 bps of slippage at full turnover,
compounded over 250 trading days.

Part 2 times the controls of the same 10-asset market three ways, one run
each: analytic absolute, analytic active, and the numeric growth-optimal
solver the analytic route replaces.  The numeric leg is the whole point
of the quadratic approximation: expect an order of magnitude or two.

Run:  python3 demos/frictions_and_timing.py   (the timing part takes a while)
"""

import time

import numpy as np

from zeroport import synth
from zeroport.learner import WealthTrack
from zeroport.patterns import PatternAgents, agent_grid
from zeroport.run import apply_frictions

# -- part 1: cost arithmetic --------------------------------------------------

gross_edge = 1.0015            # 15 bps per day before costs
cost_bps = 10.0                # slippage + capital costs
track = WealthTrack(
    wealth=np.cumprod(np.full(250, gross_edge)),
    controls=np.zeros((250, 2)),
    turnover=np.ones(250),     # 100% of inventory turned over daily
    hold_cash=np.zeros(250, dtype=bool),
    mode="active",
)
net = apply_frictions(track, cost_bps, flat_turnover=1.0)
print("gross year:", round(track.terminal, 4))
print("net year:  ", round(net.terminal, 4),
      f"({(net.terminal - 1) * 100:.1f}% after {cost_bps:.0f} bps on full turnover)")
print("netting exactly 5 bps/day compounds to", round(1.0005**250, 4))

# -- part 2: timing -----------------------------------------------------------

print("\ntiming one control run per strategy on a 10-asset, 1000-period market")
print("(one run each, so expect some noise; the test suite's criterion 7")
print("takes interleaved medians)\n")
x = synth.generate(synth.SynthSpec(case="SDC3", assets=10, periods=1000, seed=5))
engine = PatternAgents(agent_grid(5, 10), 10)
legs = (("absolute", lambda: engine.controls_series(x, ("absolute",))),
        ("active", lambda: engine.controls_series(x, ("active",))),
        ("numeric", lambda: engine.controls_numeric(x)))
seconds = {}
for name, leg in legs:
    t0 = time.perf_counter()
    leg()
    seconds[name] = time.perf_counter() - t0
    print(f"  {name:<10} {seconds[name]:>8.2f}s")
print(f"\nnumeric / analytic ratio: {seconds['numeric'] / seconds['absolute']:.0f}x")
