#!/usr/bin/env python3
"""Free-selling threshold vs optimal constant rate.

With shifted-convex impact (zero cost at or below the threshold rate) the
tempting strategy is to sell exactly at the threshold and never pay impact.
The optimal rate is strictly faster: the timing cost of the slow strategy
outweighs the impact cost it saves.  Closed form first, then a common-random-
numbers Monte Carlo confirmation.
"""

from optexec import (
    DeterministicStrategy,
    MarketParams,
    Schedule,
    ShiftedConvexImpact,
    compare_strategies,
    extreme_comparison,
)

MODEL = ShiftedConvexImpact(power=3.0, threshold=1.0)
DECAY, HORIZON, X0, S0 = 0.05, 1.0, 0.5, 100.0


def main():
    comp = extreme_comparison(MODEL, X0, S0, DECAY, HORIZON)
    print(f"optimal rate        : {comp.rate:.6f} (threshold {MODEL.threshold})")
    print(f"impact at that rate : {MODEL.h(comp.rate):.6f} < decay/threshold = {DECAY / MODEL.threshold:.6f}")
    print(f"closed-form proceeds: optimal {comp.optimal_value:.5f}  threshold {comp.threshold_value:.5f}  "
          f"margin {comp.optimal_value - comp.threshold_value:.5f}")

    strategies = [
        ("optimal", DeterministicStrategy(Schedule.constant(comp.rate, X0 / comp.rate, HORIZON))),
        ("threshold", DeterministicStrategy(Schedule.constant(MODEL.threshold, X0 / MODEL.threshold, HORIZON))),
    ]
    tbl = compare_strategies(
        strategies,
        MarketParams.from_drift_vol(-(DECAY + 0.5 * 0.3**2), 0.3),
        MODEL, 0.0, X0, S0, HORIZON,
        n_paths=20_000, n_steps=500, seed=11,
    )
    for name, mean, se in zip(tbl.names, tbl.means, tbl.std_errors):
        print(f"simulated {name:9s} : {mean:.5f} +- {se:.5f}")
    _, _, diff, se = tbl.pairs[0]
    print(f"paired difference   : {diff:.5f} +- {se:.5f}  ({diff / se:.1f} standard errors)")


if __name__ == "__main__":
    main()
