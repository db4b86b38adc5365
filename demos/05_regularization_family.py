#!/usr/bin/env python3
"""Saturating the taxis mobility: the family converges as eps -> 0.

Sweeps the saturation parameter of the drift mobility u/(1 + eps*u)
over a halving sequence down to the unregularized flux, then compares
the final predator profiles pairwise in L1.  The gaps contract roughly
linearly in eps.
"""

from pathlib import Path

import numpy as np

from preytaxis import integrate_values, read_snapshot, scenario_items, sweep

OUT = Path("demo_out/05_regularization")
EPS = [0.2, 0.1, 0.05, 0.025, 0.0]

items = scenario_items("eps_family_1d")
summary = sweep(items, "params.eps", EPS, out_dir=str(OUT))
print(f"swept params.eps over {EPS}; summary at {summary}")

profiles = {}
for eps in EPS:
    field, t = read_snapshot(OUT / f"params_eps_{eps:g}" / "final_u.txt")
    profiles[eps] = field

limit = profiles[0.0]
print(f"\nL1 distance of the final predator profile to the eps = 0 limit (t = {t:g}):")
for eps in EPS[:-1]:
    gap = integrate_values(limit.grid, np.abs(profiles[eps].values - limit.values))
    print(f"  eps {eps:5g}: {gap:.6e}")

print("\nsuccessive gaps along the halving sequence:")
for hi, lo in zip(EPS[:-2], EPS[1:-1]):
    gap = integrate_values(limit.grid, np.abs(profiles[hi].values - profiles[lo].values))
    print(f"  eps {hi:5g} vs {lo:5g}: {gap:.6e}")
