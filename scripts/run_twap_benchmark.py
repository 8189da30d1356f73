#!/usr/bin/env python3
"""Constant-rate liquidation benchmark, four ways.

Quadratic impact g(x) = x**2, decay 0.04, inventory 0.1, price 100, one unit
of time.  The closed form, the PDE solver, the deterministic-schedule
optimizer, and a Monte Carlo run must all land on the same number: the
script exits 1 if the PDE value is off by more than 1e-2 relative
(acceptance criterion 4), the schedule search by more than 1e-3 relative
(criterion 9), or the Monte Carlo mean by 4 standard errors or more.
"""

import sys
import time

from optexec import (
    DeterministicStrategy,
    MarketParams,
    QuadraticImpact,
    optimize_deterministic_schedule,
    simulate,
    solve_reduced_hjb,
    twap_solution,
)

MODEL = QuadraticImpact(1.0)
DECAY, HORIZON, X0, S0 = 0.04, 1.0, 0.1, 100.0


def main():
    sol = twap_solution(0.0, X0, S0, MODEL, DECAY, HORIZON)
    print(f"closed form     : value {sol.value:.6f}  rate {sol.rate:.6f}  "
          f"sell duration {X0 / sol.rate:.3f}")

    t0 = time.monotonic()
    surf = solve_reduced_hjb(MODEL, DECAY, HORIZON, 2.0 * X0, nt=400, nx=400)
    v_pde = S0 * surf.value_at(HORIZON, X0)
    err_pde = abs(v_pde - sol.value) / sol.value
    print(f"pde solver      : value {v_pde:.6f}  rel err {err_pde:.2e}  "
          f"({time.monotonic() - t0:.1f}s, 400x400)")

    t0 = time.monotonic()
    v_opt, sched = optimize_deterministic_schedule(MODEL, DECAY, HORIZON, X0, n_pieces=8)
    err_opt = abs(S0 * v_opt - sol.value) / sol.value
    print(f"schedule search : value {S0 * v_opt:.6f}  rel err {err_opt:.2e}  "
          f"({time.monotonic() - t0:.1f}s, 8 pieces)")

    t0 = time.monotonic()
    res = simulate(
        DeterministicStrategy(sol.schedule),
        MarketParams.from_drift_vol(-0.085, 0.3),
        MODEL, 0.0, X0, S0, HORIZON,
        n_paths=50_000, n_steps=500, seed=1,
    )
    z = (res.mean_utility - sol.value) / res.std_error
    print(f"monte carlo     : value {res.mean_utility:.6f} +- {res.std_error:.6f}  "
          f"z {z:+.2f}  ({time.monotonic() - t0:.1f}s, 50k paths)")
    return 0 if err_pde <= 1e-2 and err_opt <= 1e-3 and abs(z) < 4.0 else 1


if __name__ == "__main__":
    sys.exit(main())
