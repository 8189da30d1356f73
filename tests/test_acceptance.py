"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import math
import time

import numpy as np
import pytest

from optexec.closed_form import (
    MarketParams,
    Schedule,
    extreme_comparison,
    linear_quasi_block,
    mixed_power_solution,
    twap_rate,
    twap_solution,
)
from optexec.hamiltonian import Gradient, closed_vs_brute_samples, optimal_speed
from optexec.hjb import (
    extract_policy,
    optimize_deterministic_schedule,
    solve_reduced_hjb,
)
from optexec.impact import (
    LevyEffectiveImpact,
    MixedPowerImpact,
    QuadraticImpact,
    ShiftedConvexImpact,
)
from optexec.simulate import (
    DeterministicStrategy,
    compare_strategies,
    simulate,
)

QUAD = QuadraticImpact(1.0)
MIXED = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
PURE = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
SHIFTED = ShiftedConvexImpact(power=3.0, threshold=1.0)
LEVY = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)
FAMILIES = [QUAD, MIXED, SHIFTED, LEVY]

TWAP_BENCH = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def quad_surface_400():
    return solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=400, nx=400)


@pytest.fixture(scope="module")
def mixed_surface_default():
    # large-inventory benchmark for the pure convex power on the default grid
    return solve_reduced_hjb(PURE, 0.04, 1.0, 3.0, nt=400, nx=400)


@pytest.fixture(scope="module")
def sweep_rows():
    t0 = time.monotonic()
    rows = {}
    for m in FAMILIES:
        rows[m.family] = closed_vs_brute_samples(m, 1000, seed=101)
    return rows, time.monotonic() - t0


def test_criterion_1_hamiltonian_equivalence(sweep_rows):
    rows, elapsed = sweep_rows
    worst = 0.0
    for m in FAMILIES:
        for r in rows[m.family]:
            worst = max(worst, abs(r[4] - r[5]) / (1.0 + abs(r[4])))
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"closed vs brute worst scaled diff {worst:.2e} over 4x1000 draws, {elapsed:.1f}s")


def test_criterion_2_speed_range(sweep_rows, quad_surface_400, mixed_surface_default):
    rows, _ = sweep_rows
    ok = True
    for m in FAMILIES:
        for r in rows[m.family]:
            y = r[6]
            ok = ok and (y == 0.0 or y > m.threshold)
    rng = np.random.default_rng(5)
    for _ in range(500):  # include non-positive price gradients
        p = Gradient(rng.normal(), rng.normal(), rng.uniform(-2.0, 2.0))
        for m in FAMILIES:
            y = optimal_speed(rng.uniform(0.1, 5.0), p, m)
            ok = ok and (y == 0.0 or y > m.threshold)
    mixed_surf = solve_reduced_hjb(MIXED, 0.05, 1.0, 1.0, nt=200, nx=200)
    for surf, m in (
        (quad_surface_400, QUAD),
        (mixed_surface_default, PURE),
        (mixed_surf, MIXED),
    ):
        pol = extract_policy(surf)
        ok = ok and bool(np.all((pol == 0.0) | (pol > m.threshold)))
    report(2, ok, "optimal speed in {0} u (threshold, inf) over sweeps and all surface nodes")


def test_criterion_3_twap_rate_correctness():
    r_quad = twap_rate(QUAD, 0.04)
    ok = abs(r_quad - 0.2) <= 1e-10
    r_mixed = twap_rate(MIXED, 0.05)
    nu_formula = ((0.05 + MIXED.gamma) / ((MIXED.p_convex - 1.0) * MIXED.alpha)) ** (
        1.0 / MIXED.p_convex
    )
    ok = ok and abs(r_mixed - nu_formula) <= 1e-10
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(40):
        decay = float(rng.uniform(1e-3, 2.0))
        models = [
            QuadraticImpact(float(rng.uniform(0.2, 3.0))),
            MixedPowerImpact(
                alpha=float(rng.uniform(0.2, 2.0)),
                p_convex=float(rng.uniform(1.3, 3.5)),
                p_concave=float(rng.uniform(0.2, 0.8)),
                threshold=float(rng.uniform(0.0, 2.0)),
            ),
            ShiftedConvexImpact(power=float(rng.uniform(1.5, 4.0)), threshold=float(rng.uniform(0.2, 2.0))),
            LEVY,
        ]
        for m in models:
            r = twap_rate(m, decay)
            worst = max(worst, abs(m.excess_impact(r) - decay) / (1.0 + decay))
    ok = ok and worst <= 1e-12
    report(3, ok, f"quad rate {r_quad:.12f}, mixed matches power formula, sweep residual {worst:.2e}")


def test_criterion_4_solver_vs_constant_rate(quad_surface_400):
    exact = TWAP_BENCH.value / 100.0
    t0 = time.monotonic()
    rel_400 = abs(quad_surface_400.value_at(1.0, 0.1) - exact) / exact
    t_400 = time.monotonic() - t0  # fixture already solved; re-time a fresh solve
    t0 = time.monotonic()
    surf_800 = solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=800, nx=800)
    t_800 = time.monotonic() - t0
    rel_800 = abs(surf_800.value_at(1.0, 0.1) - exact) / exact
    ok = rel_400 <= 1e-2 and rel_800 <= 3e-3 and t_800 < 60.0
    report(4, ok, f"rel err {rel_400:.2e} (400x400), {rel_800:.2e} (800x800), 800-grid solve {t_800:.1f}s")


def test_criterion_5_solver_vs_large_inventory(mixed_surface_default):
    sol = mixed_power_solution(0.0, 1.5, 100.0, PURE, 0.04, 1.0)
    got = 100.0 * mixed_surface_default.value_at(1.0, 1.5)
    rel = abs(got - sol.value) / sol.value
    ok = sol.regime == "large_inventory" and rel <= 1e-2
    report(5, ok, f"large-inventory value {got:.4f} vs closed form {sol.value:.4f}, rel {rel:.2e}")


def test_criterion_6_monte_carlo_consistency():
    strat = DeterministicStrategy(TWAP_BENCH.schedule)
    t0 = time.monotonic()
    res = simulate(
        strat,
        MarketParams.from_drift_vol(-0.085, 0.3),
        QUAD,
        0.0,
        0.1,
        100.0,
        1.0,
        n_paths=100_000,
        n_steps=1000,
        seed=2024,
    )
    elapsed = time.monotonic() - t0
    z = abs(res.mean_utility - TWAP_BENCH.value) / res.std_error
    flat = simulate(
        strat,
        MarketParams.from_drift_vol(-0.04, 0.0),
        QUAD,
        0.0,
        0.1,
        100.0,
        1.0,
        n_paths=1,
        n_steps=1000,
        seed=0,
    )
    rel_flat = abs(flat.mean_utility - TWAP_BENCH.value) / TWAP_BENCH.value
    ok = z <= 3.0 and rel_flat <= 1e-4 and elapsed < 120.0
    report(6, ok, f"MC mean {res.mean_utility:.4f} (z={z:.2f}), flat-vol rel {rel_flat:.1e}, {elapsed:.0f}s")


def test_criterion_7_extreme_impact_ordering():
    comp = extreme_comparison(SHIFTED, 0.5, 100.0, 0.05, 1.0)
    ok = comp.optimal_value > comp.threshold_value
    market = MarketParams.from_drift_vol(-0.095, 0.3)  # decay 0.05
    fast = DeterministicStrategy(Schedule.constant(comp.rate, 0.5 / comp.rate, 1.0))
    slow = DeterministicStrategy(Schedule.constant(1.0, 0.5, 1.0))
    tbl = compare_strategies(
        [("optimal", fast), ("threshold", slow)],
        market,
        SHIFTED,
        0.0,
        0.5,
        100.0,
        1.0,
        n_paths=20_000,
        n_steps=500,
        seed=404,
    )
    _, _, diff, se = tbl.pairs[0]
    ok = ok and diff > 3.0 * se
    report(
        7,
        ok,
        f"closed form {comp.optimal_value:.4f} > {comp.threshold_value:.4f}; "
        f"CRN diff {diff:.4f} ({diff / se:.1f} SE)",
    )


def test_criterion_8_levy_effective_rate():
    rate = twap_rate(LEVY, 0.1)
    u = rate * rate
    resid_display = abs(u + (2.0 * (1.0 - 1.0 / (1.0 + u)) - math.log1p(u)) - 0.1)
    resid_excess = abs(LEVY.excess_impact(rate) - 0.1)
    xs = np.linspace(0.01, 10.0, 500)
    step = 1e-4
    second = (LEVY.g(xs + step) - 2.0 * LEVY.g(xs) + LEVY.g(xs - step)) / step**2
    ok = (
        resid_display <= 1e-12 * 1.1
        and resid_excess <= 1e-10
        and bool(np.all(second >= -1e-9))
    )
    report(8, ok, f"rate {rate:.6f}, display residual {resid_display:.1e}, convexity min {second.min():.1e}")


def test_criterion_9_oracle_sandwich(quad_surface_400, mixed_surface_default):
    exact = TWAP_BENCH.value / 100.0
    val, _ = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 8)
    lower_ok = val >= exact * (1.0 - 1e-3)
    upper_ok = val <= quad_surface_400.value_at(1.0, 0.1) + 2e-3
    val_large, _ = optimize_deterministic_schedule(PURE, 0.04, 1.0, 1.5, 8)
    upper_ok = upper_ok and val_large <= mixed_surface_default.value_at(1.0, 1.5) + 2e-3
    ok = lower_ok and upper_ok
    report(9, ok, f"8-piece optimizer {val:.6f} vs closed form {exact:.6f} and solver upper bounds")


def test_criterion_10_quasi_block_limit():
    vals = [
        linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=d, decay=0.05).value
        for d in (0.1, 0.01, 0.001)
    ]
    limit = linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=0.001, decay=0.05).limit_value
    ok = vals[0] < vals[1] < vals[2] and abs(vals[2] - limit) <= 1e-3
    report(10, ok, f"burst values {vals[0]:.6f} < {vals[1]:.6f} < {vals[2]:.6f} -> limit {limit:.6f}")


def test_criterion_11_pathwise_dominance():
    strat = DeterministicStrategy(TWAP_BENCH.schedule)
    market = MarketParams.from_drift_vol(-0.085, 0.3)
    res = simulate(
        strat, market, QUAD, 0.0, 0.1, 100.0, 1.0, n_paths=1000, n_steps=200, seed=303, return_paths=True
    )
    # the impact-free reference: the zero schedule (drag g(0) = 0), never absorbed
    zero = DeterministicStrategy(Schedule.constant(0.0, 0.0, 1.0))
    ref = simulate(
        zero, market, QUAD, 0.0, 0.0, 100.0, 1.0, n_paths=1000, n_steps=200, seed=303,
        log_floor=-math.inf, return_paths=True,
    )
    gap = float(np.max(res.paths["S"] - ref.paths["S"]))
    ok = gap <= 1e-12
    report(11, ok, f"max (controlled - reference) price over 1000 paths: {gap:.2e}")


def test_criterion_12_surface_invariants(quad_surface_400):
    W = quad_surface_400.values
    xg = quad_surface_400.x_grid
    ok = bool(
        np.all(W >= 0.0)
        and np.all(W <= xg[None, :] + 1e-12)
        and np.all(np.diff(W, axis=0) >= -1e-12)
        and np.all(np.diff(W, axis=1) >= -1e-12)
        and np.all(W[0] == 0.0)
        and np.all(W[:, 0] == 0.0)
    )
    vals = {}
    for n in (100, 200):
        s = solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=n, nx=n)
        vals[n] = s.value_at(1.0, 0.1)
    vals[400] = quad_surface_400.value_at(1.0, 0.1)
    contraction = abs(vals[100] - vals[200]) / abs(vals[200] - vals[400])
    ok = ok and contraction >= 1.5
    report(12, ok, f"bounds/monotonicity/boundaries hold; refinement contraction {contraction:.2f}")
