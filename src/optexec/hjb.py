"""Monotone finite-difference solver for the reduced inventory-value PDE.

In the risk-neutral Black-Scholes reduction the full value function is
c + s * W(t, x) with W solving (in the viscosity sense)

    dW/dt = sup_{y >= 0} { y * (1 - dW/dx) - W * (decay + g(y)) },
    W(0, x) = W(t, 0) = 0,

where t is time-to-go and x remaining inventory.  The scheme marches
forward in t with a backward (upwind) difference for dW/dx — the transport
term moves information toward larger inventory — and picks each row's
controls, and its sub-step rate, from one call of the control kernel
`hamiltonian._best_response` (W = 0 nodes too).  `_march` marches every grid
of a ladder as one stacked vector, each grid's row end to end: a round is one
kernel call and one set of array ops for all live grids, so
`solve_reduced_hjb_ladder` marches several grids for the kernel calls of its
longest march.
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


def _step(W, speed, g_speed, h, dx, decay, firsts=0):
    """One implicit-reaction upwind step of size h from W at the frozen controls
    (speed, g_speed); a negative decay stays explicit.  On a stack of rows, h and
    dx are per-node arrays and `firsts` the rows' x = 0 nodes: those stay 0, so
    nothing crosses from one row into the next."""
    r = (h / dx) * speed
    out = ((1.0 + h * max(-decay, 0.0)) - r) * W
    out[1:] += r[1:] * W[:-1]
    out += h * speed
    out /= (1.0 + h * max(decay, 0.0)) + h * g_speed
    out[firsts] = 0.0
    return out


def _default_y_max(model, decay, horizon, x_max):
    guesses = [4.0 * x_max / horizon, 2.0 * model.threshold + 1.0]
    if decay > 0.0:
        guesses.append(4.0 * twap_rate(model, decay))
    return max(guesses)


class _Rung:
    """One grid's march: its stored levels, the level it stores next, and the
    time left to cross before that level (None once the level is reached)."""

    __slots__ = ("nt", "size", "dt", "dx", "values", "policy", "substeps", "lvl", "left")

    def __init__(self, nt, nx, horizon, x_max):
        self.nt, self.size, self.dt, self.dx = nt, nx + 1, horizon / nt, x_max / nx
        self.values = np.empty((nt + 1, nx + 1))
        self.policy = np.empty((nt + 1, nx + 1))
        self.substeps = [0] * nt
        self.lvl, self.left = 0, None

    def surface(self, model, decay, horizon, x_max, y_max):
        # NaN passes the growth guard and gives speed 0, so the march cannot see it
        if not np.isfinite(self.values).all():
            raise NumericalFailure("the value surface has non-finite entries")
        live = self.values[:, 1:] > _W_EPS
        at_cap = np.count_nonzero(live & (self.policy[:, 1:] == y_max))
        return ValueSurface(
            t_grid=np.linspace(0.0, horizon, self.nt + 1),
            x_grid=np.linspace(0.0, x_max, self.size),
            values=self.values,
            policy=self.policy,
            decay=decay,
            threshold=model.threshold,
            y_max=y_max,
            saturation_fraction=float(at_cap / max(np.count_nonzero(live), 1)),
            substeps=np.array(self.substeps),
        )


def _march(model, decay, horizon, x_max, sizes, y_max):
    """March every (nt, nx) grid of `sizes` at once; returns their ValueSurfaces, in order.

    The live grids' rows lie end to end in one stacked vector W, and each round
    runs one set of array ops on the stack: kappa = 1 - Wx by backward
    differences (0 at each row's x = 0 node, which sells nothing), one
    `_best_response` call for the speeds and g at them, each row's top speed by
    `np.maximum.reduceat`, and one `_step` that moves each row by its own
    sub-step h = left / ceil(left * max(y)/dx).  Each elementwise op sees the
    operands of that grid marched alone, so every grid gets its own march's
    bits.  A grid stores a level when its sub-steps reach it; once it has
    stored its last it drops out, and the stack is laid out again.  A
    non-finite rate (a NaN speed's too), the growth guard on a row's last node
    and a non-finite value in a finished surface raise NumericalFailure.
    """
    rungs = [_Rung(nt, nx, horizon, x_max) for nt, nx in sizes]
    h_ymax = model.h(y_max)
    guard = x_max * math.exp(max(0.0, -decay) * horizon) * (1.0 + 1e-6) + 1e-9
    out = [None] * len(rungs)
    live = rungs
    W = np.zeros(sum(r.size for r in rungs))

    def layout():
        """Index the stack of live rows: each row's first node (for reduceat), the
        nodes kappa and `_step` zero, the rows' last nodes (the growth guard's), dx
        per node and each node's row (to gather h).  On one row the last four are
        an index, a slice, dx and None, which numpy serves faster."""
        counts = np.array([r.size for r in live])
        firsts = np.cumsum(counts) - counts
        if len(live) == 1:
            return firsts, 0, slice(-1, None), live[0].dx, None
        dx = np.repeat([r.dx for r in live], counts)
        return firsts, firsts, firsts + counts - 1, dx, np.repeat(np.arange(len(live)), counts)

    firsts, zero, lasts, dx, row_of = layout()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the control kernel's
        g_cap = model._g(np.array([y_max]))[0]
        if not all(math.isfinite(y_max / r.dx + max(decay, 0.0) + g_cap) for r in rungs):  # bounds every step
            raise NumericalFailure(f"sub-step rate at the cap y_max = {y_max} is not finite")
        while True:
            kappa = np.empty(W.size)
            np.subtract(W[1:], W[:-1], out=kappa[1:])
            kappa /= dx
            np.subtract(1.0, kappa, out=kappa)
            kappa[zero] = 0.0
            speed, _, g_speed = _best_response(model, kappa, W, y_max, h_ymax)
            hs, kept = [], []
            for rung, lo, top in zip(live, firsts.tolist(), np.maximum.reduceat(speed, firsts).tolist()):
                rate = top / rung.dx
                if not math.isfinite(rate):
                    raise NumericalFailure(f"sub-step rate {rate} at speed {top}: the controls left the finite range")
                if rung.left is None:  # a level reached: store it, then cross to the next
                    rung.values[rung.lvl] = W[lo : lo + rung.size]
                    rung.policy[rung.lvl] = speed[lo : lo + rung.size]
                    if rung.lvl == rung.nt:
                        out[rungs.index(rung)] = rung.surface(model, decay, horizon, x_max, y_max)
                        continue
                    rung.left = rung.dt
                n = max(1, math.ceil(rung.left * rate))
                h = rung.left / n
                rung.substeps[rung.lvl] += 1
                if n == 1:
                    rung.lvl, rung.left = rung.lvl + 1, None
                else:
                    rung.left -= h
                kept.append(rung)
                hs.append(h)
            if len(kept) < len(live):
                if not kept:
                    return out
                rows = np.concatenate([np.arange(lo, lo + r.size) for r, lo in zip(live, firsts.tolist()) if r in kept])
                W, speed, g_speed = W[rows], speed[rows], g_speed[rows]
                live = kept
                firsts, zero, lasts, dx, row_of = layout()
            W = _step(W, speed, g_speed, hs[0] if row_of is None else np.array(hs).take(row_of), dx, decay, zero)
            if any(w > guard for w in W[lasts].tolist()):
                raise NumericalFailure("reduced-value growth guard tripped: decay too negative for this impact")


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
    call per round serves every grid still marching (`_march`).  Returns one
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
    return _march(model, decay, horizon, x_max, sizes, y_max)


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
    W = surface.values
    dt = float(surface.t_grid[1] - surface.t_grid[0])
    dx = float(surface.x_grid[1] - surface.x_grid[0])
    inner = W[1:-1]  # every interior level, through one elementwise kernel call
    kappa = np.empty(inner.shape)
    kappa[:, 0] = 0.0
    kappa[:, 1:] = 1.0 - (inner[:, 1:] - inner[:, :-1]) / dx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the control kernel's
        _, psi, _ = _best_response(model, kappa.ravel(), inner.ravel(), surface.y_max, model.h(surface.y_max))
    resid = (W[2:] - inner) / dt - (psi.reshape(inner.shape) - surface.decay * inner)
    return float(np.max(np.abs(resid[:, 1:]), initial=0.0))  # 0 with no interior level


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
