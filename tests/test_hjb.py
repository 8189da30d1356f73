import math

import numpy as np
import pytest

from optexec.closed_form import mixed_power_solution, twap_rate, twap_solution
from optexec.errors import NumericalFailure
from optexec.hamiltonian import _best_response, best_response
import optexec.hjb as hjb
from optexec.hjb import (
    _default_y_max,
    _step,
    extract_policy,
    hjb_residual,
    optimize_deterministic_schedule,
    solve_reduced_hjb,
    solve_reduced_hjb_ladder,
)
from optexec.impact import LevyEffectiveImpact, MixedPowerImpact, QuadraticImpact, ShiftedConvexImpact

QUAD = QuadraticImpact(1.0)
MIXED = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
LEVY = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=2.0)
FAMILIES = {
    "quadratic": QUAD,
    "mixed_power": MIXED,
    "pure_power": MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0),
    "shifted": ShiftedConvexImpact(3, 1),
    "levy": LEVY,
}

BENCH = dict(decay=0.04, horizon=1.0, x_max=0.2)
QUIET = dict(divide="ignore", over="ignore", invalid="ignore")  # the errstate the march holds


def controls(model, y_max, W, dx, firsts=(0,)):
    """The controls of a row, or of rows laid end to end with x = 0 nodes at
    `firsts`, as the march takes them: kappa = 1 - Wx by backward differences,
    0 at each x = 0 node, then one control-kernel call under the march's
    errstate.  Returns (speed, psi, g_speed, tops): tops holds each row's
    fastest speed, the march's `np.maximum.reduceat`."""
    firsts = np.asarray(firsts)
    kappa = np.empty(W.size)
    kappa[1:] = 1.0 - (W[1:] - W[:-1]) / dx
    kappa[firsts] = 0.0
    with np.errstate(**QUIET):
        speed, psi, g_speed = _best_response(model, kappa, W, y_max, model.h(y_max))
    return speed, psi, g_speed, np.maximum.reduceat(speed, firsts).tolist()


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


@pytest.mark.parametrize(
    "model, decay, x0, x_max",
    [
        (MIXED, 0.04, 0.05, 0.2),
        (ShiftedConvexImpact(power=3.0, threshold=1.0), 0.05, 0.5, 1.0),
    ],
    ids=["mixed_power", "shifted_convex"],
)
def test_s_shaped_surface_matches_constant_rate_closed_form(model, decay, x0, x_max):
    # the paper's headline result on threshold > 0 curves: a small inventory
    # is sold at the constant TWAP rate, and the PDE value converges to it
    exact = twap_solution(0.0, x0, 1.0, model, decay, 1.0).value
    err = []
    for n in (100, 200):
        s = solve_reduced_hjb(model, decay, 1.0, x_max, nt=n, nx=n)
        err.append(abs(s.value_at(1.0, x0) - exact) / exact)
    assert err[0] <= 1e-2
    assert err[0] / err[1] >= 1.5


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


def _one_step(model, y_max, rows, dx, decay, hs=None):
    """One sub-step of equal-length rows, stacked as the march stacks its grids:
    one control call and one `_step` for all, each row's h sized from its own
    rate over a 0.05 time step as the solver sizes it unless `hs` gives them.
    Returns (hs, each row's speeds, each stepped row)."""
    W = np.concatenate(rows)
    firsts = np.arange(0, W.size, rows[0].size)
    speed, _, g_speed, tops = controls(model, y_max, W, dx, firsts)
    if hs is None:
        hs = [0.05 / max(1, math.ceil(0.05 * (top / dx))) for top in tops]
    out = _step(W, speed, g_speed, np.repeat(hs, rows[0].size), dx, decay, firsts)
    return hs, np.split(speed, len(rows)), np.split(out, len(rows))


def test_monotone_update_in_neighbor_values():
    # raising any input value never lowers the updated value: size one
    # sub-step on a random row as the solver does, then take a step
    # of that size from the row with one value raised.  Slopes below 1.2
    # mix zero, interior and capped speeds in each row.
    rng = np.random.default_rng(3)
    dx, decay, y_max = 0.01, 0.04, 100.0
    below_cap = 0
    for _ in range(20):
        W = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.2 * dx, 11))])
        h, (speed,), (base,) = _one_step(QUAD, y_max, [W], dx, decay)
        below_cap += speed.max() < y_max
        j = int(rng.integers(1, 12))
        bumped = W.copy()
        bumped[j] += 10.0 ** rng.uniform(-8.0, -3.0)
        _, _, (up,) = _one_step(QUAD, y_max, [bumped], dx, decay, h)
        assert np.all(up >= base - 1e-15)
    assert below_cap >= 10  # most steps are sized by speeds under the cap


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_is_monotone_under_stress(family):
    # one sub-step on 300 random rows per (decay, y_max, dx), each row then
    # stepped again, at the same h, with one value raised: no output may fall.
    # The rows of a case are stepped as one stack, one kernel call and one
    # `_step` for all; slopes below 1.2 mix zero, interior and capped speeds
    model = FAMILIES[family]
    rng = np.random.default_rng(sorted(FAMILIES).index(family))
    falls = 0
    seen = np.zeros(3, dtype=int)  # zero, interior and capped speeds at x > 0
    for decay in (0.04, -0.5, 1.0):
        for y_max in (3.0, 100.0, 1e4):
            for dx in (1e-3, 1e-2, 0.1):
                rows = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.2 * dx, 11))]) for _ in range(300)]
                hs, speeds, base = _one_step(model, y_max, rows, dx, decay)
                speed = np.concatenate([y[1:] for y in speeds])
                inner = (speed > 0.0) & (speed < y_max)
                seen += [np.count_nonzero(speed == 0.0), np.count_nonzero(inner), np.count_nonzero(speed == y_max)]
                bumped = []
                for W in rows:
                    W = W.copy()
                    W[rng.integers(1, 12)] += 10.0 ** rng.uniform(-8.0, -3.0) * dx
                    bumped.append(W)
                for up, out in zip(_one_step(model, y_max, bumped, dx, decay, hs)[2], base):
                    falls += np.any(up < out - 1e-15)
    assert falls == 0
    assert np.all(seen > 0)


def test_refinement_contraction_on_benchmark():
    vals = {}
    for n in (100, 200, 400):
        s = solve_reduced_hjb(QUAD, nt=n, nx=n, **BENCH)
        vals[n] = s.value_at(1.0, 0.1)
    d_coarse = abs(vals[100] - vals[200])
    d_fine = abs(vals[200] - vals[400])
    assert d_coarse / d_fine >= 1.5


def test_residual_of_zero_surface_is_control_bound():
    surf = solve_reduced_hjb(QUAD, nt=10, nx=10, y_max=1.0, **BENCH)
    surf.values[:] = 0.0
    # with W = 0 everywhere the best gain at every node is y_max itself
    assert hjb_residual(surf, QUAD) == pytest.approx(1.0, rel=1e-12)


def test_residual_positive_and_converging_in_smooth_region():
    # the global max defect sits in the capped start-up band and at the
    # selling front; away from both, the defect drops at first order.  The
    # level-by-level loop is the reference for `hjb_residual`'s one kernel call
    def smooth_and_global_max(s, model, nu):
        tg, xg, W = s.t_grid, s.x_grid, s.values
        dt, dx = tg[1] - tg[0], xg[1] - xg[0]
        worst, everywhere = 0.0, 0.0
        for lvl in range(1, tg.size - 1):
            _, psi, _, _ = controls(model, s.y_max, W[lvl], dx)
            r = np.abs((W[lvl + 1] - W[lvl]) / dt - (psi - s.decay * W[lvl]))
            everywhere = max(everywhere, float(r[1:].max()))
            keep = (xg < 0.5 * s.y_max * tg[lvl]) & (np.abs(xg - nu * tg[lvl]) > 0.03)
            keep[0] = False
            if keep.any():
                worst = max(worst, float(r[keep].max()))
        return worst, everywhere

    nu = twap_rate(QUAD, 0.04)
    res = []
    for n in (50, 100, 200):
        s = solve_reduced_hjb(QUAD, nt=n, nx=n, y_max=1.0, **BENCH)
        smooth, everywhere = smooth_and_global_max(s, QUAD, nu)
        assert hjb_residual(s, QUAD) == everywhere > 0.0
        res.append(smooth)
    assert res[0] > res[1] > res[2]
    order = np.log2(res[0] / res[2]) / 2.0
    assert order >= 0.8


def test_value_at_rejects_off_grid_queries(quad_surface):
    # the empty-inventory boundary is worth nothing and sells nothing; value and
    # policy queries past the grid fail loudly
    for lookup in (quad_surface.value_at, quad_surface.policy_at):
        assert lookup(1.0, 0.0) == 0.0
        with pytest.raises(ValueError, match=r"x = 0\.5 outside the solved grid"):
            lookup(1.0, 0.5)
        with pytest.raises(ValueError, match=r"t = 2 outside the solved grid"):
            lookup(2.0, 0.1)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=1, nx=10)
    with pytest.raises(ValueError):
        solve_reduced_hjb(QUAD, 0.04, -1.0, 0.2)
    with pytest.raises(ValueError):
        solve_reduced_hjb(MIXED, 0.05, 1.0, 1.0, y_max=0.5)  # below the threshold


@pytest.mark.parametrize("decay, n", [(-0.3, 60), (-3.0, 10), (-9.0, 10), (-20.0, 10)])
def test_negative_decay_is_stable(decay, n):
    # a negative decay stays explicit in the step (made implicit, it trips the
    # growth guard at -3 and breaks monotonicity in t at -20): W grows at most
    # like x*e^{|decay|*t}, and it does not fall in time-to-go or in inventory
    surf = solve_reduced_hjb(QUAD, decay, 1.0, 0.2, nt=n, nx=n)
    assert np.all(surf.values <= surf.x_grid * math.exp(-decay * 1.0) * (1.0 + 1e-9))
    assert np.all(np.diff(surf.values, axis=0) >= -1e-12)
    assert np.all(np.diff(surf.values, axis=1) >= -1e-12)


def test_substeps_do_not_grow_with_the_threshold():
    # g leaves the step bound, so a large threshold (g about 6*theta^2 at the
    # TWAP speed) costs no extra sub-steps, and the TWAP cone stays the
    # discrete steady state: the value at x_small is the closed form
    counts = set()
    for threshold in (10.0, 100.0, 1e3, 1e4):
        model = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=threshold)
        surf = solve_reduced_hjb(model, 0.04, 1.0, 2.0 * threshold, nt=10, nx=10)
        x_small = twap_rate(model, 0.04) * 1.0
        exact = twap_solution(0.0, x_small, 1.0, model, 0.04, 1.0).value
        assert abs(surf.value_at(1.0, x_small) - exact) <= 1e-12 * exact, threshold
        counts.add(int(surf.substeps.sum()))
    assert len(counts) == 1 and counts.pop() <= 20


def test_policy_zero_on_empty_inventory_guard(quad_surface):
    tampered = solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)
    tampered.policy[3, 0] = 0.5
    with pytest.raises(NumericalFailure):
        extract_policy(tampered)
    # a node in the forbidden concave interval (0, threshold]
    s_shaped = solve_reduced_hjb(MIXED, 0.05, 1.0, 0.5, nt=10, nx=10)
    s_shaped.policy[3, 2] = 0.5 * s_shaped.threshold
    with pytest.raises(NumericalFailure, match="forbidden concave speed interval"):
        extract_policy(s_shaped)


def _proceeds_loop(rates, model, decay, dt):
    """The scalar per-piece loop `_piecewise_proceeds` ran before it was
    vectorised: the reference for its value."""
    val = 0.0
    expo = 0.0
    for yk in rates:
        yk = float(yk)
        lam = decay + model.g(yk)
        w = lam * dt
        seg = yk * dt if abs(w) < 1e-14 else yk * (-math.expm1(-w)) / lam
        val += math.exp(-expo) * seg
        expo += w
    return val


class TestScheduleOptimizer:
    def test_rediscovers_constant_rate(self):
        val, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 8)
        exact = twap_solution(0.0, 0.1, 1.0, QUAD, 0.04, 1.0).value
        assert val >= exact * (1.0 - 1e-3)
        rate = twap_rate(QUAD, 0.04)
        t, r = sched.sample(8)
        assert np.all(np.abs(r[:4] - rate) < 0.02 * rate)
        assert np.all(r[4:] < 0.02 * rate)

    def test_never_exceeds_solver_value(self, quad_surface):
        val, _ = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 8)
        assert val <= quad_surface.value_at(1.0, 0.1) + 2e-3

    def test_zero_inventory(self):
        val, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.0, 4)
        assert val == 0.0
        assert sched.total == 0.0

    def test_respects_inventory_budget(self):
        _, sched = optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.05, 6)
        assert sched.total <= 0.05 * (1.0 + 1e-9)
        sched.check_admissible(0.05)

    def test_large_inventory_lower_bound(self):
        m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
        sol = mixed_power_solution(0.0, 1.5, 1.0, m, 0.04, 1.0)
        val, _ = optimize_deterministic_schedule(m, 0.04, 1.0, 1.5, 8)
        # 8 constant pieces cannot follow the diverging tail exactly, but they
        # must come close from below
        assert val <= sol.value + 1e-9
        assert val >= 0.97 * sol.value

    def test_rejects_bad_pieces(self):
        with pytest.raises(ValueError):
            optimize_deterministic_schedule(QUAD, 0.04, 1.0, 0.1, 0)
        for horizon, x0 in ((0.0, 0.1), (1.0, -0.1)):
            with pytest.raises(ValueError, match="need a positive horizon and x0 >= 0"):
                optimize_deterministic_schedule(QUAD, 0.04, horizon, x0, 8)

    # decay None stands for -g(0.8), which makes the 0.8 piece's w exactly 0;
    # at decay 0 so is every zero-rate piece's, where seg is 0 either way
    @pytest.mark.parametrize("model", [QUAD, MIXED, LEVY], ids=["quad", "mixed", "levy"])
    @pytest.mark.parametrize("decay", [0.0, 0.04, 0.2, None])
    def test_proceeds_match_the_scalar_loop(self, model, decay):
        decay = -model.g(0.8) if decay is None else decay
        rates = np.array([0.0, 0.3, 1.7, 0.05, 0.0, 2.5, 0.8, 0.0])
        val, _ = hjb._piecewise_proceeds(rates, model, decay, 0.125)
        ref = _proceeds_loop(rates, model, decay, 0.125)
        assert abs(val - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("model", [QUAD, MIXED, LEVY], ids=["quad", "mixed", "levy"])
    @pytest.mark.parametrize("decay", [0.0, 0.04, 0.2, None])
    def test_gradient_matches_central_differences(self, model, decay):
        decay = -model.g(0.8) if decay is None else decay
        rates = np.array([0.3, 1.7, 0.05, 2.5, 0.8, 0.2])
        _, grad = hjb._piecewise_proceeds(rates, model, decay, 0.125)
        step = 1e-6
        fd = np.empty_like(rates)
        for j in range(rates.size):
            up, down = rates.copy(), rates.copy()
            up[j] += step
            down[j] -= step
            fd[j] = _proceeds_loop(up, model, decay, 0.125) - _proceeds_loop(down, model, decay, 0.125)
        fd /= 2 * step
        assert np.all(np.abs(grad - fd) <= 1e-6 * np.abs(fd))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "m",
        [
            MixedPowerImpact(alpha=2.0, p_convex=3.0, p_concave=0.3, threshold=0.3),
            MixedPowerImpact(alpha=2.0, p_convex=2.0, p_concave=0.2, threshold=0.1),
        ],
        ids=["cubic", "quadratic"],
    )
    def test_twap_start_escapes_the_concave_band(self, m):
        # h(0+) = inf on both.  On the quadratic model the runs from the
        # uniform and front-loaded starts break down (best feasible points
        # 0.17548 and 0.17543, below the bound); only the TWAP start converges
        twap = twap_solution(0.0, 0.2, 1.0, m, 0.04, 1.0).value
        val, sched = optimize_deterministic_schedule(m, 0.04, 1.0, 0.2, 8)
        assert twap * (1.0 - 1e-3) <= val <= twap
        sched.check_admissible(0.2)

    @pytest.mark.parametrize("name", ["decay", "horizon", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, name, bad):
        args = dict(decay=0.04, horizon=1.0, x0=0.1)
        args[name] = bad
        with pytest.raises(ValueError, match="must be finite"):
            optimize_deterministic_schedule(QUAD, n_pieces=8, **args)


def test_saturation_reporting():
    surf = solve_reduced_hjb(QUAD, nt=60, nx=60, y_max=1.0, **BENCH)
    assert surf.y_max == 1.0
    assert surf.substeps.shape == (60,)
    assert np.all(surf.substeps >= 1)
    # the share of conditioned stored nodes whose speed sits at the cap
    live = surf.values > hjb._W_EPS
    live[:, 0] = False
    at_cap = live & (surf.policy == surf.y_max)
    assert surf.saturation_fraction == at_cap.sum() / live.sum()
    assert 0.0 < surf.saturation_fraction < 1.0
    wider = solve_reduced_hjb(QUAD, nt=60, nx=60, y_max=4.0, **BENCH)
    assert wider.saturation_fraction < surf.saturation_fraction


def _reference_march(model, nt, nx, y_max, decay, horizon, x_max):
    """The march with each sub-step sized by max_i(y_i/dx) over the whole row and
    each step written out with g from the public `model.g` at the chosen speeds:
    the reference for the solver's top-speed rate and the g it reads off the
    control call."""
    dt, dx = horizon / nt, x_max / nx

    def step(W, speed, h):
        r = h / dx * speed[1:]
        num = ((1.0 + h * max(-decay, 0.0)) - r) * W[1:] + r * W[:-1] + h * speed[1:]
        return np.concatenate(([0.0], num / ((1.0 + h * max(decay, 0.0)) + h * model.g(speed[1:]))))

    def speeds(W):  # the row's speeds; its rate and g come from the public formulas
        return controls(model, y_max, W, dx)[0]

    W = np.zeros(nx + 1)
    speed = speeds(W)
    values, policy, substeps = [W], [speed], []
    for _ in range(nt):
        left, count = dt, 0
        while True:
            n = max(1, math.ceil(left * float(np.max(speed / dx))))
            h = left / n
            W = step(W, speed, h)
            count += 1
            speed = speeds(W)
            if n == 1:
                break
            left -= h
        values.append(W)
        policy.append(speed)
        substeps.append(count)
    return np.array(values), np.array(policy), np.array(substeps)


@pytest.mark.parametrize("horizon", [1e-3, 0.2, 1.0])
@pytest.mark.parametrize("doublings", [0, 1, 2])
@pytest.mark.parametrize("small_cap", [False, True], ids=["default_y_max", "small_y_max"])
@pytest.mark.parametrize("model", [QUAD, MIXED, LEVY], ids=["quadratic", "mixed_power", "levy"])
def test_early_stop_returns_the_same_surface(model, small_cap, doublings, horizon):
    # the solver sizes a sub-step by the row's fastest speed alone and reads g
    # at the chosen speeds off the control call; neither may change a bit
    # against the reference, which takes both from their formulas.  The caps are
    # those the retired restart loop tried: a start doubled 0, 1 or 2 times
    # (the small start is 1.0 above the threshold: 1.0 for the convex families)
    decay, x_max = BENCH["decay"], BENCH["x_max"]
    start = model.threshold + 1.0 if small_cap else _default_y_max(model, decay, horizon, x_max)
    y_max = start * 2.0**doublings
    # two doublings of the default start are the solver's own default cap
    asked = None if not small_cap and doublings == 2 else y_max
    got = solve_reduced_hjb(model, decay, horizon, x_max, nt=40, nx=40, y_max=asked)
    values, policy, substeps = _reference_march(model, 40, 40, y_max, decay, horizon, x_max)
    assert got.y_max == y_max
    assert got.values.tobytes() == values.tobytes()
    assert got.policy.tobytes() == policy.tobytes()
    assert np.array_equal(got.substeps, substeps)
    live = values[:, 1:] > 1e-12
    at_cap = live & (policy[:, 1:] == y_max)
    assert got.saturation_fraction == at_cap.sum() / live.sum()


def test_control_calls_follow_the_substeps(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return _best_response(*args)

    monkeypatch.setattr(hjb, "_best_response", counted)
    surf = solve_reduced_hjb(QUAD, nt=60, nx=60, **BENCH)
    # one call for the first level and one per sub-step
    assert len(calls) == 1 + int(surf.substeps.sum())


@pytest.mark.parametrize(
    "sizes",
    [[(40, 40), (20, 20)], [(120, 120), (60, 60), (30, 30)], [(20, 30), (40, 15)], [(40, 40), (20, 20), (10, 10), (30, 6)]],
    ids=["two_rungs_40", "three_rungs_120", "unsorted_rungs", "four_rungs"],
)
@pytest.mark.parametrize("cap", [None, 1.0], ids=["default_y_max", "binding_y_max"])
@pytest.mark.parametrize("decay", [0.04, 0.05, -0.1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ladder_equals_standalone_solves(family, decay, cap, sizes):
    # every rung of a lockstep ladder is bit for bit the standalone solve of
    # its grid at the ladder's y_max, whichever rung finishes first; the four
    # rungs finish in four different rounds, from the middle of the stack first
    model = FAMILIES[family]
    y_max = None if cap is None else max(cap, model.threshold + 1.0)
    ladder = solve_reduced_hjb_ladder(model, decay, 1.0, 1.0, sizes, y_max=y_max)
    assert len(ladder) == len(sizes)
    if len(sizes) == 4:
        assert len({int(s.substeps.sum()) for s in ladder}) == 4
    assert (ladder[0].saturation_fraction > 0.0) == (cap is not None)
    for (nt, nx), got in zip(sizes, ladder):
        alone = solve_reduced_hjb(model, decay, 1.0, 1.0, nt=nt, nx=nx, y_max=ladder[0].y_max)
        assert got.values.shape == (nt + 1, nx + 1)
        assert got.y_max == alone.y_max
        assert got.values.tobytes() == alone.values.tobytes()
        assert got.policy.tobytes() == alone.policy.tobytes()
        assert np.array_equal(got.substeps, alone.substeps)
        assert got.saturation_fraction == alone.saturation_fraction


@pytest.mark.parametrize("decay", [0.04, -0.5])
def test_stacked_step_equals_the_rows_stepped_alone(decay):
    # rows of 12, 7 and 20 nodes with their own dx and h, laid end to end as
    # the march stacks its grids: one `_step` gives each row the bits of a
    # scalar `_step` on that row, and a NaN in one row (its last node too)
    # stays out of the next row's x = 0 node
    rng = np.random.default_rng(36)
    sizes, dxs, hs = [12, 7, 20], [0.05, 0.2, 0.01], [0.004, 0.03, 0.0007]
    rows = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.2 * dx, n - 1))]) for n, dx in zip(sizes, dxs)]
    speeds = [np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.5, 3.0, n)) for n in sizes]
    firsts = np.cumsum(sizes) - sizes
    for poison in (False, True):
        if poison:
            rows[0][[4, -1]] = np.nan
        alone = [_step(W, y, QUAD.g(y), h, dx, decay) for W, y, h, dx in zip(rows, speeds, hs, dxs)]
        speed = np.concatenate(speeds)
        stacked = _step(
            np.concatenate(rows), speed, QUAD.g(speed), np.repeat(hs, sizes), np.repeat(dxs, sizes), decay, firsts
        )
        assert stacked.tobytes() == np.concatenate(alone).tobytes()
        assert stacked[firsts].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(stacked[: sizes[0]]).any() == poison
        assert np.isfinite(stacked[sizes[0] :]).all()


@pytest.mark.parametrize("sizes", [[], [(40, 40), (1, 20)], [(40, 40), (20, 1)], [(1, 1)]])
def test_ladder_input_validation(monkeypatch, sizes):
    # a bad rung anywhere in the ladder is rejected before any rung marches
    def no_march(*args):
        raise AssertionError("a rung marched")

    monkeypatch.setattr(hjb, "_march", no_march)
    with pytest.raises(ValueError, match="grid"):
        solve_reduced_hjb_ladder(QUAD, sizes=sizes, **BENCH)


def test_ladder_makes_one_kernel_call_per_round(monkeypatch):
    rows = []

    def counted(model, a, b, y_max, h_ymax):
        rows.append(b.size)
        return _best_response(model, a, b, y_max, h_ymax)

    monkeypatch.setattr(hjb, "_best_response", counted)
    ladder = solve_reduced_hjb_ladder(QUAD, sizes=[(60, 60), (30, 30), (15, 15)], **BENCH)
    per_rung = sorted(1 + int(s.substeps.sum()) for s in ladder)
    assert len(rows) == per_rung[-1]
    # rounds with all three rungs live, then the two longer ones, then the finest alone
    assert rows.count(61 + 31 + 16) == per_rung[0]
    assert rows.count(61 + 31) == per_rung[1] - per_rung[0]
    assert rows.count(61) == per_rung[2] - per_rung[1]


def test_large_cap_costs_few_control_calls():
    # sub-steps follow the speeds the rows choose, so a 16x larger cap only
    # adds steps on the early levels where some node sells at the cap
    base = solve_reduced_hjb(QUAD, nt=400, nx=400, **BENCH)
    wide = solve_reduced_hjb(QUAD, nt=400, nx=400, y_max=16.0 * base.y_max, **BENCH)
    assert base.y_max == 4.0

    def calls(s):
        return 1 + int(s.substeps.sum())

    assert calls(wide) <= 1.25 * calls(base)


def test_non_finite_rate_raises(monkeypatch):
    # a cap whose impact overflows has no finite step bound
    with pytest.raises(NumericalFailure, match="rate"):
        solve_reduced_hjb(QUAD, nt=10, nx=10, y_max=1e200, **BENCH)

    # a NaN speed is argmax's pick, so the rate read off the control call is NaN
    kernel = hjb._best_response

    def poisoned(model, a, W, y_max, h_ymax):
        speed, gain, gy = kernel(model, a, W, y_max, h_ymax)
        if W[-1] > 0.0:
            speed[3] = np.nan
        return speed, gain, gy

    monkeypatch.setattr(hjb, "_best_response", poisoned)
    with pytest.raises(NumericalFailure, match="rate"):
        solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)


@pytest.mark.parametrize("decay", [0.04, -0.1])
@pytest.mark.parametrize(
    "model", [QUAD, MIXED, LEVY, ShiftedConvexImpact(3, 1)], ids=["quadratic", "mixed_power", "levy", "shifted"]
)
def test_rate_read_off_the_control_call_is_the_formula(model, decay):
    # the rate is max(y)/dx of the row's slice of a stacked control call, its
    # top by `np.maximum.reduceat`, and the g the step uses is the call's g at
    # each chosen speed: both must equal their formulas, g computed with the
    # public g (0 at speed 0), and each slice the row's own call bit for bit
    dx = 0.1
    y_max = 4.0 * _default_y_max(model, 0.04, 1.0, 4.0)
    x = np.arange(41) * dx
    mid = solve_reduced_hjb(model, decay, 1.0, 4.0, nt=40, nx=40, y_max=y_max).values[20]
    # the all-zero start row, a row selling at the cap, one selling nothing, a mid-march row
    rows = {"start": np.zeros(41), "at_cap": 1e-9 * x, "sells_nothing": 2.0 * x, "mid_march": mid}
    stacked = controls(model, y_max, np.concatenate(list(rows.values())), dx, np.arange(0, 4 * 41, 41))
    seen = set()
    for k, (name, W) in enumerate(rows.items()):
        speed, psi, g_speed = (a[41 * k : 41 * (k + 1)] for a in stacked[:3])
        rate = stacked[3][k] / dx
        assert rate == speed.max() / dx, name
        assert g_speed.tobytes() == model.g(speed).tobytes(), name
        alone = controls(model, y_max, W, dx)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((speed, psi, g_speed), alone[:3])), name
        seen.add("zero" if speed.max() == 0.0 else "cap" if speed.max() == y_max else "inner")
    assert seen == {"zero", "cap", "inner"}


def test_the_march_errstate_stays_scoped(monkeypatch):
    # the march and best_response hold their errstate only while they run,
    # whether they return or raise
    before = np.geterr()
    solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)
    assert np.geterr() == before
    with pytest.raises(NumericalFailure, match="rate"):
        solve_reduced_hjb(QUAD, nt=10, nx=10, y_max=1e200, **BENCH)
    assert np.geterr() == before
    with np.errstate(**QUIET):  # the capped kernel, as the march calls it
        speed, gain, _ = _best_response(MIXED, np.array([2.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]), 5.0, MIXED.h(5.0))
    assert np.geterr() == before and speed[1] == 0.0 and speed[2] == 5.0
    speed, gain = best_response(MIXED, [2.0, 0.0, 3.0], [1.0, 1.0, 0.5])
    assert np.geterr() == before and speed[1] == 0.0 and speed[2] > MIXED.threshold
    with pytest.raises(ValueError, match="unbounded"):
        best_response(QUAD, [1.0], [0.0])
    assert np.geterr() == before

    def inflated(*args):  # trips the growth guard on the first sub-step
        return _step(*args) + 1.0

    # so does a ladder's one errstate, around every rung's march
    solve_reduced_hjb_ladder(QUAD, sizes=[(10, 10), (5, 5)], **BENCH)
    assert np.geterr() == before
    with pytest.raises(NumericalFailure, match="rate"):
        solve_reduced_hjb_ladder(QUAD, sizes=[(10, 10), (5, 5)], y_max=1e200, **BENCH)
    assert np.geterr() == before

    monkeypatch.setattr(hjb, "_step", inflated)
    with pytest.raises(NumericalFailure, match="growth guard"):
        solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)
    assert np.geterr() == before
    with pytest.raises(NumericalFailure, match="growth guard"):
        solve_reduced_hjb_ladder(QUAD, sizes=[(10, 10), (5, 5)], **BENCH)
    assert np.geterr() == before

    def inflated_half_grid(W, *args):  # the 5-cell rung, stacked after the 10-cell one, alone trips the guard
        out = _step(W, *args)
        if W.size == 11 + 6:
            out[11:] += 1.0
        return out

    monkeypatch.setattr(hjb, "_step", inflated_half_grid)
    with pytest.raises(NumericalFailure, match="growth guard"):
        solve_reduced_hjb_ladder(QUAD, sizes=[(10, 10), (5, 5)], **BENCH)
    assert np.geterr() == before


@pytest.mark.parametrize(
    "name, bad",
    [("decay", -math.inf), ("decay", math.nan), ("horizon", math.nan), ("x_max", math.inf), ("y_max", math.nan)],
)
def test_solver_rejects_non_finite_inputs(name, bad):
    # checked before marching: unchecked, decay = -inf marches to a mostly-NaN
    # surface and the others end in NumericalFailure (exit code 4), the class
    # for numerical trouble, for what is an input error
    args = dict(BENCH, nt=10, nx=10, y_max=None)
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        solve_reduced_hjb(QUAD, **args)


def test_non_finite_surface_raises(monkeypatch):
    # a NaN value passes the growth guard (NaN > guard is False) and gives
    # speed 0, so the march goes on; the finished surface must not be returned
    def poisoned(*args):
        out = _step(*args)
        if out[-1] > 0.01:
            out[5] = np.nan
        return out

    monkeypatch.setattr(hjb, "_step", poisoned)
    with pytest.raises(NumericalFailure, match="non-finite"):
        solve_reduced_hjb(QUAD, nt=10, nx=10, **BENCH)
