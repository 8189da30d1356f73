"""Monotone finite-difference solver for the reduced inventory-value PDE.

In the risk-neutral Black-Scholes reduction the full value function is
c + s * W(t, x) with W solving (in the viscosity sense)

    dW/dt = sup_{y >= 0} { y * (1 - dW/dx) - W * (decay + g(y)) },
    W(0, x) = W(t, 0) = 0,

where t is time-to-go and x remaining inventory.  The scheme marches
forward in t with a backward (upwind) difference for dW/dx — the transport
term moves information toward larger inventory — and picks each row's
controls, and its sub-step rate, from one call of the control kernel
`hamiltonian._best_response` (W = 0 nodes too).  A march is a generator that
yields each row it needs controls for; `_lockstep` drives one or more marches
under one errstate, with one kernel call per round on the rows of every live
march concatenated, so `solve_reduced_hjb_ladder` marches several grids for
the kernel calls of its longest march.
Each time step is crossed in sub-steps of one implicit-reaction upwind stage
at the controls of the row it starts from,

    W_i <- ((1 - r_i + h*d-)*W_i + r_i*W_{i-1} + h*y_i) / (1 + h*(d+ + g(y_i))),

with r_i = h*y_i/dx, d+ = max(decay, 0) and d- = max(-decay, 0), sized so that
h*max(y)/dx <= 1: one control call per sub-step, and neither g nor the decay
in the step bound.  With the controls frozen every coefficient is
non-negative, so raising any input never lowers the update, and y_max costs
sub-steps only where used.  The stage's fixed point solves
(decay + g(y))*W = y*(1 - W_x), which with the kernel's first-order condition
g'(y) = (1 - W_x)/W is the TWAP-rate equation: the TWAP cone is a discrete
steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_form import Schedule, twap_rate
from .errors import NumericalFailure, require_finite
from .hamiltonian import _best_response
from .impact import ImpactModel

__all__ = [
    "ValueSurface",
    "solve_reduced_hjb",
    "solve_reduced_hjb_ladder",
    "extract_policy",
    "hjb_residual",
    "optimize_deterministic_schedule",
]

_W_EPS = 1e-12  # saturation counts skip W = 0 nodes, where every selling node is capped


def on_grid(v: float, lo: float, hi: float, name: str) -> float:
    """v clipped to a solved grid's range [lo, hi]; a v outside it by more
    than rounding, 1e-12 * (1 + |hi|), raises ValueError naming it."""
    lo, hi = float(lo), float(hi)
    if v < lo - 1e-12 * (1.0 + abs(hi)) or v > hi + 1e-12 * (1.0 + abs(hi)):
        raise ValueError(f"{name} = {v:g} outside the solved grid [{lo:g}, {hi:g}]")
    return min(max(v, lo), hi)


@dataclass
class ValueSurface:
    """Reduced value W and the induced optimal-speed policy on a (t, x) grid.

    `t_grid` is time-to-go in [0, horizon]; `values[l, i]` approximates
    W(t_grid[l], x_grid[i]) and `policy[l, i]` the maximizing speed there.
    `substeps[l]` counts the sub-steps from level l to l + 1 (one control call each).
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    policy: np.ndarray
    decay: float
    threshold: float
    y_max: float
    saturation_fraction: float
    substeps: np.ndarray

    def _lookup(self, field, t, x) -> float:
        """`field` (values or policy) at one (time-to-go, inventory) point:
        linear between grid rows, then between grid columns.  A point off the
        solved grid (beyond rounding) raises ValueError naming t or x."""
        t = on_grid(float(t), self.t_grid[0], self.t_grid[-1], "t")
        x = on_grid(float(x), self.x_grid[0], self.x_grid[-1], "x")
        lt = int(np.searchsorted(self.t_grid, t))
        lt = min(max(lt, 1), self.t_grid.size - 1)
        wt = (t - self.t_grid[lt - 1]) / (self.t_grid[lt] - self.t_grid[lt - 1])
        row = (1.0 - wt) * field[lt - 1] + wt * field[lt]
        return float(np.interp(x, self.x_grid, row))

    def value_at(self, t, x) -> float:
        """Bilinear value lookup at one (time-to-go, inventory) point."""
        return self._lookup(self.values, t, x)

    def policy_at(self, t, x) -> float:
        """Bilinear policy lookup at one (time-to-go, inventory) point."""
        return self._lookup(self.policy, t, x)


def _controls(W, dx):
    """A march's request for one row's controls, as a sub-generator: it yields
    (kappa, W) with kappa = 1 - Wx set to 0 at x = 0 so that node sells nothing, is
    sent `_best_response`'s (speed, gain, gy) for that row by the driver
    (`_lockstep`), and returns (speed, psi, g_speed, rate): the per-node argmax and max
    of psi(y) = y*(1 - Wx) - W*g(y) over {0} u (threshold, y_max], g at that speed read
    off the same call (g(0) = 0), and the row's sub-step rate max(y)/dx.  A non-finite
    rate, a NaN speed's too, raises."""
    kappa = np.empty(W.size)
    kappa[0] = 0.0
    kappa[1:] = 1.0 - (W[1:] - W[:-1]) / dx
    speed, psi, gy = yield kappa, W
    top = float(speed.max())
    rate = top / dx
    if not math.isfinite(rate):
        raise NumericalFailure(f"sub-step rate {rate} at speed {top}: the controls left the finite range")
    return speed, psi, np.where(speed > 0.0, gy, 0.0), rate


def _lockstep(model, y_max, h_ymax, marches):
    """Run march generators (see `_controls`) to their ends under one errstate and
    return what each returns, in order.  While two or more are live, each round
    gathers the row every live march waits on and makes one `_best_response` call on
    their concatenation, then sends each march its slice; the kernel is elementwise,
    so a slice is bit for bit the call on that row alone.  The last march left sends
    its rows to the kernel as they are."""
    out = [None] * len(marches)
    asks = {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the control kernel's
        for i, march in enumerate(marches):
            try:
                asks[i] = next(march)
            except StopIteration as stop:
                out[i] = stop.value
        while len(asks) > 1:
            kappa = np.concatenate([k for k, _ in asks.values()])
            W = np.concatenate([w for _, w in asks.values()])
            both = _best_response(model, kappa, W, y_max, h_ymax)
            lo = 0
            for i, (_, w) in list(asks.items()):
                try:
                    asks[i] = marches[i].send(tuple(a[lo : lo + w.size] for a in both))
                except StopIteration as stop:
                    out[i] = stop.value
                    del asks[i]
                lo += w.size
        for i, (kappa, W) in asks.items():
            try:
                while True:
                    kappa, W = marches[i].send(_best_response(model, kappa, W, y_max, h_ymax))
            except StopIteration as stop:
                out[i] = stop.value
    return out


def _step(W, speed, g_speed, h, dx, decay):
    """One implicit-reaction upwind step of size h from W at the frozen controls
    (speed, g_speed); a negative decay stays explicit.  x = 0 stays 0."""
    r = (h / dx) * speed
    out = ((1.0 + h * max(-decay, 0.0)) - r) * W
    out[1:] += r[1:] * W[:-1]
    out += h * speed
    out /= (1.0 + h * max(decay, 0.0)) + h * g_speed
    out[0] = 0.0
    return out


def _default_y_max(model, decay, horizon, x_max):
    guesses = [4.0 * x_max / horizon, 2.0 * model.threshold + 1.0]
    if decay > 0.0:
        guesses.append(4.0 * twap_rate(model, decay))
    return max(guesses)


def _march(model, decay, horizon, x_max, nt, nx, y_max):
    """One rung's march as a generator of control requests (see `_controls`);
    returns the rung's ValueSurface."""
    t_grid = np.linspace(0.0, horizon, nt + 1)
    x_grid = np.linspace(0.0, x_max, nx + 1)
    dt = horizon / nt
    dx = x_max / nx
    guard = x_max * math.exp(max(0.0, -decay) * horizon) * (1.0 + 1e-6) + 1e-9

    values = np.empty((nt + 1, nx + 1))
    policy = np.empty((nt + 1, nx + 1))
    substeps = np.zeros(nt, dtype=int)
    W = np.zeros(nx + 1)
    if not math.isfinite(y_max / dx + max(decay, 0.0) + model._g(np.array([y_max]))[0]):  # bounds every step
        raise NumericalFailure(f"sub-step rate at the cap y_max = {y_max} is not finite")
    speed, _, g_speed, rate = yield from _controls(W, dx)
    for lvl in range(nt + 1):
        values[lvl] = W
        policy[lvl] = speed
        if lvl == nt:
            break
        left = dt
        while True:
            n = max(1, math.ceil(left * rate))
            h = left / n
            W = _step(W, speed, g_speed, h, dx, decay)
            substeps[lvl] += 1
            if W[-1] > guard:
                raise NumericalFailure("reduced-value growth guard tripped: decay too negative for this impact")
            speed, _, g_speed, rate = yield from _controls(W, dx)
            if n == 1:
                break
            left -= h

    # NaN passes the growth guard and gives speed 0, so the march cannot see it
    if not np.isfinite(values).all():
        raise NumericalFailure("the value surface has non-finite entries")
    live = values[:, 1:] > _W_EPS
    at_cap = np.count_nonzero(live & (policy[:, 1:] == y_max))
    return ValueSurface(
        t_grid=t_grid,
        x_grid=x_grid,
        values=values,
        policy=policy,
        decay=decay,
        threshold=model.threshold,
        y_max=y_max,
        saturation_fraction=float(at_cap / max(np.count_nonzero(live), 1)),
        substeps=substeps,
    )


def solve_reduced_hjb_ladder(
    model: ImpactModel,
    decay: float,
    horizon: float,
    x_max: float,
    sizes,
    y_max: Optional[float] = None,
) -> list:
    """March the reduced equation on each (nt, nx) grid of `sizes` over
    [0, horizon] x [0, x_max] under one `y_max`, in lockstep: one control-kernel
    call per round serves every grid still marching (`_lockstep`).  Returns one
    ValueSurface per grid, in order, each bit for bit what `solve_reduced_hjb`
    gives for that grid at the same `y_max`.  Empty `sizes`, a grid with fewer
    than 2 cells a side and the inputs `solve_reduced_hjb` rejects raise
    ValueError before any march.
    """
    if not sizes:
        raise ValueError("need at least one (nt, nx) grid")
    if any(nt < 2 or nx < 2 for nt, nx in sizes):
        raise ValueError("need nt >= 2 and nx >= 2 grid cells")
    require_finite(decay=decay, horizon=horizon, x_max=x_max)
    if horizon <= 0.0 or x_max <= 0.0:
        raise ValueError("horizon and x_max must be positive")
    if y_max is None:
        y_max = 4.0 * _default_y_max(model, decay, horizon, x_max)
    require_finite(y_max=y_max)
    if y_max <= model.threshold:
        raise ValueError("y_max must exceed the impact threshold or the policy range is empty")
    marches = [_march(model, decay, horizon, x_max, nt, nx, y_max) for nt, nx in sizes]
    return _lockstep(model, y_max, model.h(y_max), marches)


def solve_reduced_hjb(
    model: ImpactModel,
    decay: float,
    horizon: float,
    x_max: float,
    nt: int = 400,
    nx: int = 400,
    y_max: Optional[float] = None,
) -> ValueSurface:
    """March the reduced equation on an (nt x nx)-cell grid over
    [0, horizon] x [0, x_max] and record the value and the policy.

    `y_max` caps the control (default 4 * `_default_y_max`).  Each time step
    is crossed in `_step`s sized by the row's fastest chosen speed, h*max(y)/dx <= 1.
    `saturation_fraction` is the share of conditioned stored nodes (W above
    the floor, x > 0) whose speed sits at the cap.  A non-finite decay,
    horizon, x_max or y_max raises ValueError before the march, and a
    non-finite value in the marched surface raises NumericalFailure.
    The one-grid case of `solve_reduced_hjb_ladder`.
    """
    return solve_reduced_hjb_ladder(model, decay, horizon, x_max, [(nt, nx)], y_max)[0]


def extract_policy(surface: ValueSurface) -> np.ndarray:
    """Validate and return the optimal-speed field.

    Every node must carry speed 0 or a speed strictly above the threshold
    (and the x = 0 column exactly 0); violations indicate a solver bug.
    """
    pol = surface.policy
    if np.any(pol[:, 0] != 0.0):
        raise NumericalFailure("policy must vanish on the empty-inventory boundary")
    bad = (pol > 0.0) & (pol <= surface.threshold)
    if np.any(bad):
        raise NumericalFailure("policy entered the forbidden concave speed interval")
    return pol


def hjb_residual(surface: ValueSurface, model: ImpactModel) -> float:
    """Max absolute defect of the stored surface in the discrete equation.

    Recomputes the per-node optimal gain at each stored level and compares
    it with the forward time difference; the t = 0 and x = 0 boundary rows
    are excluded.  The max is dominated by the start-up band (tiny
    time-to-go, where the control cap binds) and the selling front, so it
    does not shrink under refinement; it is not a convergence measure, and
    `solve-hjb` does not report it.
    """
    t_grid, x_grid, W = surface.t_grid, surface.x_grid, surface.values
    dt = float(t_grid[1] - t_grid[0])
    dx = float(x_grid[1] - x_grid[0])

    def rows():
        worst = 0.0
        for lvl in range(1, t_grid.size - 1):
            _, psi, _, _ = yield from _controls(W[lvl], dx)
            resid = (W[lvl + 1] - W[lvl]) / dt - (psi - surface.decay * W[lvl])
            worst = max(worst, float(np.max(np.abs(resid[1:]))))
        return worst

    return _lockstep(model, surface.y_max, model.h(surface.y_max), [rows()])[0]


# -- independent deterministic-schedule oracle --------------------------------


def _piecewise_proceeds(rates, model, decay, dt):
    """Exact discounted proceeds of a piecewise-constant schedule (s0 = 1) and
    their gradient in the rates.

    Piece k earns e^{-E_k}*seg_k, with w_k = (decay + g(y_k))*dt, E_k the sum
    of the earlier w and seg_k = y_k*(1 - e^{-w_k})/(decay + g(y_k)) (y_k*dt
    when |w_k| < 1e-14).  So dP/dy_j = e^{-E_j}*dseg_j/dy_j - dt*h(y_j)*
    sum_{k>j} e^{-E_k}*seg_k, with h taken as 0 at a zero rate.
    """
    y = np.asarray(rates, dtype=float)
    lam = decay + model.g(y)
    w = lam * dt
    disc = np.exp(-np.concatenate(([0.0], np.cumsum(w[:-1]))))
    hy = np.zeros_like(y)
    hy[y > 0.0] = model.h(y[y > 0.0])
    flat = np.abs(w) < 1e-14
    lam_safe = np.where(flat, 1.0, lam)
    # f = seg/y and df/dlam, with their lam -> 0 limits dt and -dt^2/2
    f = np.where(flat, dt, -np.expm1(-w) / lam_safe)
    df = np.where(flat, -0.5 * dt * dt, (dt * np.exp(-w) - f) / lam_safe)
    terms = disc * y * f
    later = np.concatenate((np.cumsum(terms[::-1])[-2::-1], [0.0]))
    return float(np.sum(terms)), disc * (f + y * hy * df) - dt * hy * later


def optimize_deterministic_schedule(
    model: ImpactModel, decay: float, horizon: float, x0: float, n_pieces: int
):
    """Maximize discounted proceeds over piecewise-constant schedules.

    SLSQP with the exact gradient of `_piecewise_proceeds` over `n_pieces`
    equal pieces, under the bounds y >= 0 and the budget dt*sum(y) <= x0,
    from three starts: the uniform rate x0/horizon, 2*x0/horizon over the
    first half, and, when x0 <= rate*horizon, the TWAP rate until x0 is sold.
    The objective is not concave (g is concave below its threshold), and
    where h(0+) = inf a tiny rate has a huge gradient that can break a run
    down; the TWAP start sells above the threshold, out of the concave band
    the other two may start in.  The result is the best feasible schedule
    any run evaluated.
    Serves as an independent lower-bound oracle for the solver: its value
    can never exceed W(horizon, x0) beyond discretization error.

    Returns (value, schedule) with the value normalized to c0 = 0, s0 = 1.
    """
    from scipy import optimize as sciopt  # loaded on first use: no CLI run needs it

    if n_pieces < 1:
        raise ValueError("need at least one schedule piece")
    require_finite(decay=decay, horizon=horizon, x0=x0)
    if horizon <= 0.0 or x0 < 0.0:
        raise ValueError("need a positive horizon and x0 >= 0")
    dt = horizon / n_pieces

    starts = [np.full(n_pieces, x0 / horizon)]
    front = np.zeros(n_pieces)
    front[: max(n_pieces // 2, 1)] = 2.0 * x0 / horizon
    starts.append(front)
    if decay > 0.0:
        rate = twap_rate(model, decay)
        if x0 <= rate * horizon:
            y = np.zeros(n_pieces)
            k_full = int(x0 / rate / dt)
            y[:k_full] = rate
            if k_full < n_pieces:
                y[k_full] = (x0 - rate * k_full * dt) / dt
            starts.append(y)

    best = [-math.inf, None]  # value and rates of the best feasible schedule evaluated

    def objective(y):
        val, grad = _piecewise_proceeds(y, model, decay, dt)
        if val > best[0] and dt * y.sum() <= x0 * (1.0 + 1e-12):  # check_admissible's tolerance
            best[:] = val, y.copy()
        return -val, -grad

    budget = {"type": "ineq", "fun": lambda y: x0 - dt * y.sum(), "jac": lambda y: np.full(y.size, -dt)}
    for s in starts:
        sciopt.minimize(objective, s, jac=True, method="SLSQP", bounds=[(0.0, None)] * n_pieces,
                        constraints=budget, options={"ftol": 1e-15})
    best_val, rates = best

    def fn(t, _rates=rates, _dt=dt, _T=horizon):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t / _dt).astype(int), 0, _rates.size - 1)
        return np.where(t < _T, _rates[idx], 0.0)

    schedule = Schedule(rate_fn=fn, horizon=horizon, total=float(rates.sum() * dt))
    return best_val, schedule
