import numpy as np
import pytest

from optexec.closed_form import mixed_power_solution, twap_rate, twap_solution
from optexec.errors import NumericalFailure
import optexec.hjb as hjb
from optexec.hjb import (
    _default_y_max,
    _march,
    _node_controls,
    extract_policy,
    full_value_from_reduced,
    hjb_residual,
    optimize_deterministic_schedule,
    solve_reduced_hjb,
)
from optexec.impact import LevyEffectiveImpact, MixedPowerImpact, QuadraticImpact

QUAD = QuadraticImpact(1.0)
MIXED = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
LEVY = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=2.0)

BENCH = dict(decay=0.04, horizon=1.0, x_max=0.2)


@pytest.fixture(scope="module")
def quad_surface():
    return solve_reduced_hjb(QUAD, nt=200, nx=200, **BENCH)


def test_boundary_rows_exactly_zero(quad_surface):
    assert np.all(quad_surface.values[0] == 0.0)
    assert np.all(quad_surface.values[:, 0] == 0.0)


def test_value_bounded_by_inventory(quad_surface):
    assert np.all(quad_surface.values >= 0.0)
    assert np.all(quad_surface.values <= quad_surface.x_grid[None, :] + 1e-12)


def test_value_monotone_in_time_and_inventory(quad_surface):
    assert np.all(np.diff(quad_surface.values, axis=0) >= -1e-12)
    assert np.all(np.diff(quad_surface.values, axis=1) >= -1e-12)


def test_matches_constant_rate_closed_form(quad_surface):
    exact = twap_solution(0.0, 0.1, 1.0, QUAD, 0.04, 1.0).value
    got = quad_surface.value_at(1.0, 0.1)
    assert abs(got - exact) / exact < 1e-2


def test_policy_range_and_plateau(quad_surface):
    pol = extract_policy(quad_surface)
    assert np.all((pol == 0.0) | (pol > quad_surface.threshold))
    # interior of the selling region: speeds sit within 5% of the TWAP rate
    rate = twap_rate(QUAD, 0.04)
    tg, xg = quad_surface.t_grid, quad_surface.x_grid
    sel = (tg[:, None] >= 0.5) & (xg[None, :] >= 0.02) & (xg[None, :] <= 0.6 * rate * tg[:, None])
    assert sel.sum() > 100
    assert np.all(np.abs(pol[sel] - rate) <= 0.05 * rate)


def test_policy_range_with_positive_threshold():
    surf = solve_reduced_hjb(MIXED, 0.05, 1.0, 1.0, nt=80, nx=80)
    pol = extract_policy(surf)
    assert np.all((pol == 0.0) | (pol > MIXED.threshold))


def test_monotone_update_in_neighbor_values():
    # raising any input value never lowers the updated value: evaluate one
    # explicit substep by hand on random rows and perturb
    rng = np.random.default_rng(3)
    dx = 0.01
    y_max = 1.0
    h_ymax = QUAD.h(y_max)
    dtau = 0.5 / (y_max / dx + 0.04 + QUAD.g(y_max))

    def step(W):
        _, psi, _, _ = _node_controls(QUAD, W, dx, y_max, h_ymax)
        out = W + dtau * (psi - 0.04 * W)
        out[0] = 0.0
        return out

    for _ in range(20):
        W = np.sort(rng.uniform(0.0, 0.01, 12))
        W[0] = 0.0
        base = step(W)
        j = int(rng.integers(1, 12))
        bumped = W.copy()
        bumped[j] += 1e-6
        assert np.all(step(bumped) >= base - 1e-15)


def test_refinement_contraction_on_benchmark():
    vals = {}
    for n in (100, 200, 400):
        s = solve_reduced_hjb(QUAD, nt=n, nx=n, **BENCH)
        vals[n] = s.value_at(1.0, 0.1)
    d_coarse = abs(vals[100] - vals[200])
    d_fine = abs(vals[200] - vals[400])
    assert d_coarse / d_fine >= 1.5


def test_residual_of_zero_surface_is_control_bound():
    surf = solve_reduced_hjb(QUAD, nt=10, nx=10, y_max=1.0, max_expansions=0, **BENCH)
    surf.values[:] = 0.0
    # with W = 0 everywhere the best gain at every node is y_max itself
    assert hjb_residual(surf, QUAD) == pytest.approx(1.0, rel=1e-12)


def test_residual_positive_and_converging_in_smooth_region():
    # the global max defect sits in the capped start-up band and at the
    # selling front; away from both, the defect drops at first order
    def smooth_max(s, model, nu):
        tg, xg, W = s.t_grid, s.x_grid, s.values
        dt, dx = tg[1] - tg[0], xg[1] - xg[0]
        hy = model.h(s.y_max)
        worst = 0.0
        for lvl in range(1, tg.size - 1):
            _, psi, _, _ = _node_controls(model, W[lvl], dx, s.y_max, hy)
            r = np.abs((W[lvl + 1] - W[lvl]) / dt - (psi - s.decay * W[lvl]))
            keep = (xg < 0.5 * s.y_max * tg[lvl]) & (np.abs(xg - nu * tg[lvl]) > 0.03)
            keep[0] = False
            if keep.any():
                worst = max(worst, float(r[keep].max()))
        return worst

    nu = twap_rate(QUAD, 0.04)
    res = []
    for n in (50, 100, 200):
        s = solve_reduced_hjb(QUAD, nt=n, nx=n, y_max=1.0, max_expansions=0, **BENCH)
        assert hjb_residual(s, QUAD) > 0.0
        res.append(smooth_max(s, QUAD, nu))
    assert res[0] > res[1] > res[2]
    order = np.log2(res[0] / res[2]) / 2.0
    assert order >= 0.8


def test_full_value_scaling(quad_surface):
    assert full_value_from_reduced(2.5, 0.0, quad_surface, 1.0, 0.1) == 2.5
    assert full_value_from_reduced(2.5, 100.0, quad_surface, 1.0, 0.0) == 2.5
    v = full_value_from_reduced(0.0, 100.0, quad_surface, 1.0, 0.1)
    assert v == pytest.approx(100.0 * quad_surface.value_at(1.0, 0.1), rel=1e-14)
    with pytest.raises(ValueError):
        full_value_from_reduced(0.0, 100.0, quad_surface, 1.0, 0.5)
    with pytest.raises(ValueError):
        full_value_from_reduced(0.0, 100.0, quad_surface, 2.0, 0.1)
    with pytest.raises(ValueError):
        full_value_from_reduced(0.0, -1.0, quad_surface, 1.0, 0.1)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=1, nx=10)
    with pytest.raises(ValueError):
        solve_reduced_hjb(QUAD, 0.04, -1.0, 0.2)
    with pytest.raises(ValueError):
        solve_reduced_hjb(MIXED, 0.05, 1.0, 1.0, y_max=0.5)  # below the threshold
    with pytest.raises(ValueError):
        solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=10, nx=10, max_expansions=-1)


def test_negative_decay_is_stable():
    surf = solve_reduced_hjb(QUAD, -0.3, 1.0, 0.2, nt=60, nx=60)
    bound = 0.2 * np.exp(0.3 * 1.0) * (1.0 + 1e-9)
    assert np.all(surf.values <= bound)
    assert np.all(np.diff(surf.values, axis=0) >= -1e-12)


def test_policy_zero_on_empty_inventory_guard(quad_surface):
    tampered = solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)
    tampered.policy[3, 0] = 0.5
    with pytest.raises(NumericalFailure):
        extract_policy(tampered)


class TestScheduleOptimizer:
    def test_rediscovers_constant_rate(self):
        val, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 8, seed=0)
        exact = twap_solution(0.0, 0.1, 1.0, QUAD, 0.04, 1.0).value
        assert val >= exact * (1.0 - 1e-3)
        rate = twap_rate(QUAD, 0.04)
        t, r = sched.sample(8)
        assert np.all(np.abs(r[:4] - rate) < 0.02 * rate)
        assert np.all(r[4:] < 0.02 * rate)

    def test_never_exceeds_solver_value(self, quad_surface):
        val, _ = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 8, seed=0)
        assert val <= quad_surface.value_at(1.0, 0.1) + 2e-3

    def test_zero_inventory(self):
        val, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.0, 4, seed=0)
        assert val == 0.0
        assert sched.total == 0.0

    def test_respects_inventory_budget(self):
        _, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.05, 6, seed=1)
        assert sched.total <= 0.05 * (1.0 + 1e-9)
        sched.check_admissible(0.05)

    def test_large_inventory_lower_bound(self):
        m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
        sol = mixed_power_solution(0.0, 1.5, 1.0, m, 0.04, 1.0)
        val, _ = optimize_deterministic_schedule(m, 0.04, 1.0, 1.5, 8, seed=0)
        # 8 constant pieces cannot follow the diverging tail exactly, but they
        # must come close from below
        assert val <= sol.value + 1e-9
        assert val >= 0.97 * sol.value

    def test_rejects_bad_pieces(self):
        with pytest.raises(ValueError):
            optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 0)


def test_saturation_reporting():
    surf = solve_reduced_hjb(QUAD, nt=60, nx=60, y_max=1.0, max_expansions=0, **BENCH)
    assert 0.0 <= surf.saturation_fraction <= 1.0
    # y_max kept as requested when expansion is disabled
    assert surf.y_max == 1.0
    expanded = solve_reduced_hjb(QUAD, nt=60, nx=60, y_max=1.0, max_expansions=2, **BENCH)
    assert expanded.y_max >= surf.y_max


def _solve_every_attempt(model, nt, nx, y_max, max_expansions, saturation_tol, decay, horizon, x_max):
    """The restart loop with every attempt run in full: the early stop's reference."""
    if y_max is None:
        y_max = _default_y_max(model, decay, horizon, x_max)
    for attempt in range(max_expansions + 1):
        surface = _march(model, decay, horizon, x_max, nt, nx, y_max)
        if surface.saturation_fraction <= saturation_tol or attempt == max_expansions:
            return surface
        y_max *= 2.0


@pytest.mark.parametrize("saturation_tol", [1e-3, 0.2, 1.0])
@pytest.mark.parametrize("max_expansions", [0, 1, 2])
@pytest.mark.parametrize("small_cap", [False, True], ids=["default_y_max", "small_y_max"])
@pytest.mark.parametrize("model", [QUAD, MIXED, LEVY], ids=["quadratic", "mixed_power", "levy"])
def test_early_stop_returns_the_same_surface(model, small_cap, max_expansions, saturation_tol):
    # the small cap is 1.0 above the threshold: 1.0 for the convex families
    y_max = model.threshold + 1.0 if small_cap else None
    kw = dict(nt=40, nx=40, y_max=y_max, max_expansions=max_expansions, saturation_tol=saturation_tol)
    got = solve_reduced_hjb(model, **kw, **BENCH)
    ref = _solve_every_attempt(model, **kw, **BENCH)
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.policy.tobytes() == ref.policy.tobytes()
    assert got.y_max == ref.y_max
    assert got.saturation_fraction == ref.saturation_fraction


def test_doomed_attempts_stop_early(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return _node_controls(*args)

    monkeypatch.setattr(hjb, "_node_controls", counted)
    surf = solve_reduced_hjb(QUAD, nt=100, nx=100, y_max=1.0, max_expansions=2, **BENCH)
    total = len(calls)
    assert surf.y_max == 4.0  # the y_max 1 and 2 attempts were both rejected
    calls.clear()
    # the last attempt alone, run in full: its nt*n_sub + 1 control calls
    last = solve_reduced_hjb(QUAD, nt=100, nx=100, y_max=4.0, max_expansions=0, **BENCH)
    assert last.values.tobytes() == surf.values.tobytes()
    assert len(calls) <= total <= len(calls) + 20
