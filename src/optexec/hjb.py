"""Monotone finite-difference solver for the reduced inventory-value PDE.

In the risk-neutral Black-Scholes reduction the full value function is
c + s * W(t, x) with W solving (in the viscosity sense)

    dW/dt = sup_{y >= 0} { y * (1 - dW/dx) - W * (decay + g(y)) },
    W(0, x) = W(t, 0) = 0,

where t is time-to-go and x remaining inventory.  The scheme marches
forward in t with a backward (upwind) difference for dW/dx — the transport
term moves information toward larger inventory — and picks each row's
controls with one call of the control kernel `hamiltonian.best_response`,
which covers W = 0 nodes as well.
An explicit CFL bound dt * (y_max/dx + decay + g(y_max)) <= 1 is enforced by
internal sub-stepping, which keeps every update a monotone combination of
the previous level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize as sciopt

from .closed_form import Schedule, twap_rate
from .errors import NumericalFailure
from .hamiltonian import best_response
from .impact import ImpactModel, MarginalNotInvertibleError

__all__ = [
    "ValueSurface",
    "solve_reduced_hjb",
    "extract_policy",
    "full_value_from_reduced",
    "hjb_residual",
    "optimize_deterministic_schedule",
]

_W_EPS = 1e-12  # saturation counts skip W = 0 rows, where every selling node is capped


@dataclass
class ValueSurface:
    """Reduced value W and the induced optimal-speed policy on a (t, x) grid.

    `t_grid` is time-to-go in [0, horizon]; `values[l, i]` approximates
    W(t_grid[l], x_grid[i]) and `policy[l, i]` the maximizing speed there.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    policy: np.ndarray
    decay: float
    threshold: float
    y_max: float
    saturation_fraction: float

    def _locate(self, grid, v, name):
        lo, hi = float(grid[0]), float(grid[-1])
        if v < lo - 1e-12 * (1.0 + abs(hi)) or v > hi + 1e-12 * (1.0 + abs(hi)):
            raise ValueError(f"{name} = {v:g} outside the solved grid [{lo:g}, {hi:g}]")
        return min(max(v, lo), hi)

    def value_at(self, t, x) -> float:
        """Bilinear value lookup at one (time-to-go, inventory) point."""
        t = self._locate(self.t_grid, float(t), "t")
        x = self._locate(self.x_grid, float(x), "x")
        lt = int(np.searchsorted(self.t_grid, t))
        lt = min(max(lt, 1), self.t_grid.size - 1)
        wt = (t - self.t_grid[lt - 1]) / (self.t_grid[lt] - self.t_grid[lt - 1])
        row = (1.0 - wt) * self.values[lt - 1] + wt * self.values[lt]
        return float(np.interp(x, self.x_grid, row))

    def policy_row(self, t, x_query: np.ndarray) -> np.ndarray:
        """Bilinear policy lookup for many inventories at one time-to-go."""
        t = self._locate(self.t_grid, float(t), "t")
        lt = int(np.searchsorted(self.t_grid, t))
        lt = min(max(lt, 1), self.t_grid.size - 1)
        wt = (t - self.t_grid[lt - 1]) / (self.t_grid[lt] - self.t_grid[lt - 1])
        row = (1.0 - wt) * self.policy[lt - 1] + wt * self.policy[lt]
        x = np.clip(np.asarray(x_query, dtype=float), self.x_grid[0], self.x_grid[-1])
        return np.interp(x, self.x_grid, row)


def _node_controls(model, W, dx, y_max, h_ymax):
    """Per-node argmax of psi(y) = y*(1 - Wx) - W*g(y) over {0} u (threshold, y_max].

    One `best_response` call on the whole row, with the upwind coefficient
    kappa = 1 - Wx set to 0 at x = 0, so that node sells nothing.  Returns
    (speed, psi, saturated, conditioned): `conditioned` counts the interior
    nodes with W above the floor and `saturated` those of them whose
    interior candidate reached y_max.
    """
    kappa = np.empty(W.size)
    kappa[0] = 0.0
    kappa[1:] = 1.0 - (W[1:] - W[:-1]) / dx
    speed, psi, capped = best_response(model, kappa, W, y_max, h_ymax)
    live = W[1:] > _W_EPS
    return speed, psi, int(np.count_nonzero(capped[1:] & live)), int(np.count_nonzero(live))


def _default_y_max(model, decay, horizon, x_max):
    guesses = [4.0 * x_max / horizon, 2.0 * model.threshold + 1.0]
    if model.unbounded_marginal and decay > 0.0:
        try:
            guesses.append(4.0 * twap_rate(model, decay))
        except (ValueError, MarginalNotInvertibleError):
            pass
    return max(guesses)


def solve_reduced_hjb(
    model: ImpactModel,
    decay: float,
    horizon: float,
    x_max: float,
    nt: int = 400,
    nx: int = 400,
    y_max: Optional[float] = None,
    max_expansions: int = 2,
    saturation_tol: float = 1e-3,
) -> ValueSurface:
    """March the reduced equation on an (nt x nx)-cell grid over
    [0, horizon] x [0, x_max] and record the value and the policy.

    `y_max` truncates the control; if the interior candidate hits the cap on
    more than `saturation_tol` of the conditioned nodes, the solve is
    repeated with y_max doubled, up to `max_expansions` times, and the final
    saturation fraction is reported on the surface.  Every attempt but the
    last stops at the first sub-step where its saturated-node count alone
    exceeds `saturation_tol` of the most nodes the whole march can condition,
    since its verdict is then certain; the returned surface is the same as
    with every attempt run in full.  An abandoned attempt never runs its
    later growth-guard checks.
    """
    if nt < 2 or nx < 2:
        raise ValueError("need nt >= 2 and nx >= 2 grid cells")
    if horizon <= 0.0 or x_max <= 0.0:
        raise ValueError("horizon and x_max must be positive")
    if max_expansions < 0:
        raise ValueError("max_expansions must be non-negative")
    if y_max is None:
        y_max = _default_y_max(model, decay, horizon, x_max)
    if y_max <= model.threshold:
        raise ValueError("y_max must exceed the impact threshold or the policy range is empty")

    for _ in range(max_expansions):
        surface = _march(model, decay, horizon, x_max, nt, nx, y_max, saturation_tol)
        if surface is not None and surface.saturation_fraction <= saturation_tol:
            return surface
        y_max *= 2.0
    return _march(model, decay, horizon, x_max, nt, nx, y_max)


def _march(model, decay, horizon, x_max, nt, nx, y_max, abandon_above=None):
    """One attempt at a fixed y_max.  With `abandon_above`, return None as
    soon as the saturation fraction is sure to end above it."""
    t_grid = np.linspace(0.0, horizon, nt + 1)
    x_grid = np.linspace(0.0, x_max, nx + 1)
    dt = horizon / nt
    dx = x_max / nx

    h_ymax = model.h(y_max)
    cfl_rate = y_max / dx + max(decay, 0.0) + model.g(y_max)
    n_sub = max(1, math.ceil(dt * cfl_rate))
    dtau = dt / n_sub
    guard = x_max * math.exp(max(0.0, -decay) * horizon) * (1.0 + 1e-6) + 1e-9

    values = np.empty((nt + 1, nx + 1))
    policy = np.empty((nt + 1, nx + 1))
    W = np.zeros(nx + 1)
    saturated = 0
    conditioned = 0
    # each of the nt*n_sub + 1 control calls conditions at most nx nodes, and
    # float division is monotone, so once saturated / most_conditioned is
    # above the tolerance the final fraction is too
    most_conditioned = (nt * n_sub + 1) * nx

    for lvl in range(nt + 1):
        speed, psi, sat, cond = _node_controls(model, W, dx, y_max, h_ymax)
        values[lvl] = W
        policy[lvl] = speed
        saturated += sat
        conditioned += cond
        if lvl == nt:
            break
        for k in range(n_sub):
            if k > 0:
                speed, psi, sat, cond = _node_controls(model, W, dx, y_max, h_ymax)
                saturated += sat
                conditioned += cond
            if abandon_above is not None and saturated / most_conditioned > abandon_above:
                return None
            W = W + dtau * (psi - decay * W)
            W[0] = 0.0
            if W[-1] > guard:
                raise NumericalFailure(
                    "reduced-value growth guard tripped: decay too negative for this impact"
                )

    return ValueSurface(
        t_grid=t_grid,
        x_grid=x_grid,
        values=values,
        policy=policy,
        decay=decay,
        threshold=model.threshold,
        y_max=y_max,
        saturation_fraction=saturated / max(conditioned, 1),
    )


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


def full_value_from_reduced(c: float, s: float, surface: ValueSurface, t: float, x: float) -> float:
    """c + s * W(t, x) by bilinear interpolation; rejects off-grid queries."""
    if s < 0.0:
        raise ValueError("price must be non-negative")
    return c + s * surface.value_at(t, x)


def hjb_residual(surface: ValueSurface, model: ImpactModel) -> float:
    """Max absolute defect of the stored surface in the discrete equation.

    Recomputes the per-node optimal gain at each stored level and compares
    it with the forward time difference; the t = 0 and x = 0 boundary rows
    are excluded.  The max is dominated by the start-up band (tiny
    time-to-go, where the control cap binds) and the selling front, so it
    does not shrink under refinement; it is not a convergence measure.
    """
    t_grid, x_grid, W = surface.t_grid, surface.x_grid, surface.values
    dt = float(t_grid[1] - t_grid[0])
    dx = float(x_grid[1] - x_grid[0])
    h_ymax = model.h(surface.y_max)
    worst = 0.0
    for lvl in range(1, t_grid.size - 1):
        _, psi, _, _ = _node_controls(model, W[lvl], dx, surface.y_max, h_ymax)
        resid = (W[lvl + 1] - W[lvl]) / dt - (psi - surface.decay * W[lvl])
        worst = max(worst, float(np.max(np.abs(resid[1:]))))
    return worst


# -- independent deterministic-schedule oracle --------------------------------


def _piecewise_proceeds(rates, model, decay, dt):
    """Exact discounted proceeds of a piecewise-constant schedule (s0 = 1)."""
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


def optimize_deterministic_schedule(
    model: ImpactModel,
    decay: float,
    horizon: float,
    x0: float,
    n_pieces: int,
    n_random_starts: int = 4,
    seed: int = 0,
):
    """Maximize discounted proceeds over piecewise-constant schedules.

    A projected multi-start Nelder-Mead search over `n_pieces` equal pieces
    with rates clipped non-negative and scaled so total sales never exceed
    x0; the per-piece objective is evaluated in closed form.  Serves as an
    independent lower-bound oracle for the solver: its value can never
    exceed W(horizon, x0) beyond discretization error.

    Returns (value, schedule) with the value normalized to c0 = 0, s0 = 1.
    """
    if n_pieces < 1:
        raise ValueError("need at least one schedule piece")
    if horizon <= 0.0 or x0 < 0.0:
        raise ValueError("need a positive horizon and x0 >= 0")
    dt = horizon / n_pieces

    def project(raw):
        y = np.maximum(np.asarray(raw, dtype=float), 0.0)
        tot = y.sum() * dt
        if tot > x0:
            y = y * (x0 / tot) if tot > 0.0 else y
        return y

    def objective(raw):
        return -_piecewise_proceeds(project(raw), model, decay, dt)

    starts = [np.full(n_pieces, x0 / horizon)]
    front = np.zeros(n_pieces)
    front[: max(n_pieces // 2, 1)] = 2.0 * x0 / horizon
    starts.append(front)
    if model.unbounded_marginal and decay > 0.0:
        try:
            rate = twap_rate(model, decay)
            if x0 <= rate * horizon:
                y = np.zeros(n_pieces)
                k_full = int(x0 / rate / dt)
                y[:k_full] = rate
                rest = x0 - rate * k_full * dt
                if k_full < n_pieces:
                    y[k_full] = rest / dt
                starts.append(y)
        except (ValueError, MarginalNotInvertibleError):
            pass
    rng = np.random.default_rng(seed)
    for _ in range(n_random_starts):
        starts.append(rng.uniform(0.0, 2.0, n_pieces) * (x0 / horizon if x0 > 0 else 1.0))

    best_y = project(starts[0])
    best_val = _piecewise_proceeds(best_y, model, decay, dt)
    for s in starts:
        res = sciopt.minimize(
            objective,
            s,
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-13},
        )
        y = project(res.x)
        val = _piecewise_proceeds(y, model, decay, dt)
        if val > best_val:
            best_val, best_y = val, y

    rates = best_y

    def fn(t, _rates=rates, _dt=dt, _T=horizon):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t / _dt).astype(int), 0, _rates.size - 1)
        return np.where(t < _T, _rates[idx], 0.0)

    schedule = Schedule(rate_fn=fn, horizon=horizon, total=float(rates.sum() * dt))
    return best_val, schedule
