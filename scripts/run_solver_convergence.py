#!/usr/bin/env python3
"""Grid-refinement study of the reduced-value solver.

Two benchmarks with known closed forms: the constant-rate value for
quadratic impact (small inventory) and the large-inventory value for the
pure convex power.  Each study solves all its grids with one
`solve_reduced_hjb_ladder` call, which marches them in lockstep under one
y_max, and prints the error at each refinement next to the control calls
that grid's march made (one for the first level and one per sub-step,
from `ValueSurface.substeps`), the empirical contraction factor,
and the study's wall time.
"""

import time

from optexec import (
    MixedPowerImpact,
    QuadraticImpact,
    mixed_power_solution,
    solve_reduced_hjb_ladder,
    twap_solution,
)


def study(name, model, decay, horizon, x0, x_max, exact, grids=(100, 200, 400, 800)):
    print(f"\n{name}: exact value {exact:.8f}")
    t0 = time.monotonic()
    surfaces = solve_reduced_hjb_ladder(model, decay, horizon, x_max, [(n, n) for n in grids])
    wall = time.monotonic() - t0
    prev = None
    prev_w = None
    for n, surf in zip(grids, surfaces):
        w = surf.value_at(horizon, x0)
        calls = 1 + int(surf.substeps.sum())
        line = f"  {n:4d}x{n:<4d} W={w:.8f}  rel err {abs(w - exact) / exact:.2e}  {calls:6d} control calls"
        if prev_w is not None:
            delta = abs(w - prev_w)
            if prev is not None and delta > 0:
                line += f"  contraction {prev / delta:.2f}"
            prev = delta
        prev_w = w
        print(line)
    print(f"  all {len(grids)} grids in lockstep: {wall:.1f}s")


def main():
    quad = QuadraticImpact(1.0)
    exact_small = twap_solution(0.0, 0.1, 1.0, quad, 0.04, 1.0).value
    study("quadratic, small inventory", quad, 0.04, 1.0, 0.1, 0.2, exact_small)

    pure = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
    sol = mixed_power_solution(0.0, 1.5, 1.0, pure, 0.04, 1.0)
    study("pure power, large inventory", pure, 0.04, 1.0, 1.5, 3.0, sol.value)


if __name__ == "__main__":
    main()
