"""Cover's universal portfolio on a grid, and its convergence in resolution.

The continuum average over all constant-rebalanced portfolios is
approximated by weights on a simplex grid b = n/Q.  This script runs the
bundled two-asset fixture and shows the wealth estimate settling as Q
grows, then compares against buy-and-hold of each asset.

Run:  python3 demos/universal_portfolio.py
"""

from pathlib import Path

import numpy as np

from zeroport import baselines
from zeroport.marketdata import load_relatives_csv

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixtures" / "pair_synthetic.csv"

matrix = load_relatives_csv(FIXTURE)
print(f"fixture: {matrix.shape[0]} periods x {matrix.tickers}")

print("\nresolution sweep:")
last = None
for q in (25, 100, 300, 1000):
    track = baselines.universal_portfolio(matrix, resolution=q)
    delta = "" if last is None else f"  (change {abs(track.terminal - last):.2e})"
    print(f"  Q = {q:>5}: terminal wealth {track.terminal:.6f}{delta}")
    last = track.terminal

idx, stock = baselines.best_stock(matrix)
print(f"\nbest stock: {matrix.tickers[idx]} at {stock.terminal:.4f}")
for j, ticker in enumerate(matrix.tickers):
    print(f"  buy-and-hold {ticker}: {np.prod(matrix.values[:, j]):.4f}")

track = baselines.universal_portfolio(matrix, resolution=1000)
print(f"\nUP final weights: {np.round(track.controls[-1], 4)}")
print("UP converges to the wealth-weighted average over constant-rebalanced")
print("portfolios: asymptotically it matches the best CRP, but over a short")
print("window the averaging drag can leave it just behind the best stock:")
print(f"  UP {track.terminal:.4f} vs best stock {stock.terminal:.4f}")
