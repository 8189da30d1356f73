"""Optimal selling speed and the execution Hamiltonian.

The running gain of selling at speed y, given a price s and the value
gradient p = (p_c, p_x, p_s), is driven by

    f(y) = s * p_s * g(y) - (s * p_c - p_x) * y,

whose infimum over y >= 0 is the Hamiltonian.  For an S-shaped impact curve
the minimizer is either 0 or the point on the rising marginal branch where
h(y) equals the target ratio (s*p_c - p_x) / (s*p_s); it never falls in the
concave interval (0, threshold].  `best_response` is the one vectorised
implementation of that argmax (the HJB solver calls it on whole grid rows);
`optimal_speed` and `hamiltonian` are scalar wrappers over it, and
`hamiltonian_bruteforce` is the independent grid+golden-section oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .impact import ImpactModel

__all__ = [
    "Gradient",
    "target_marginal_impact",
    "best_response",
    "optimal_speed",
    "hamiltonian",
    "hamiltonian_bruteforce",
    "closed_vs_brute_samples",
]


@dataclass(frozen=True)
class Gradient:
    """Value gradient (marginal value of cash, inventory, price)."""

    p_c: float
    p_x: float
    p_s: float

    def __post_init__(self):
        for name in ("p_c", "p_x", "p_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def scaled(self, lam: float) -> "Gradient":
        return Gradient(lam * self.p_c, lam * self.p_x, lam * self.p_s)


def _check_price(s: float) -> None:
    if not s > 0.0:
        raise ValueError("price must be positive")


def target_marginal_impact(s: float, p: Gradient) -> float:
    """(s*p_c - p_x) / (s*p_s) when s*p_s > 0, else 0.

    The marginal-impact level an interior optimal speed equates h to.
    """
    _check_price(s)
    sps = s * p.p_s
    if sps > 0.0:
        return (s * p.p_c - p.p_x) / sps
    return 0.0


def running_gain_rate(y, s: float, p: Gradient, model: ImpactModel):
    """f(y) = s*p_s*g(y) - (s*p_c - p_x)*y; accepts scalar or array y."""
    return s * p.p_s * model.g(y) - (s * p.p_c - p.p_x) * np.asarray(y, dtype=float)


def best_response(model: ImpactModel, a, b, y_max: float = math.inf, h_ymax: float = math.inf):
    """Elementwise argmax of a*y - b*g(y) over y in {0} u (threshold, y_max], for b >= 0.

    The maximizer is 0 or the point above the threshold where h(y) = a/b,
    clipped to y_max; where b = 0 the ratio is +inf, -inf or NaN, giving
    y_max, 0 and 0.  Ties (ratio at the marginal floor, zero gain) resolve
    to 0.  `h_ymax` must be h(y_max); callers that solve many rows under one
    cap compute it once.

    Returns (speed, gain, capped): the maximizer, the maximal value (0 where
    selling nothing is optimal) and the mask of elements whose interior
    candidate reached the cap.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = a / b
    candidate = ratio > model.marginal_floor
    capped = candidate & (ratio >= h_ymax)
    y = np.where(capped, y_max, 0.0)
    inner = candidate & ~capped
    if inner.any():
        y[inner] = np.minimum(model.h_inverse(ratio[inner]), y_max)
    # guard against a candidate rounding down onto the threshold
    y[y <= model.threshold] = 0.0
    val = y * a - b * model.g(y)
    take = val > 0.0
    return np.where(take, y, 0.0), np.where(take, val, 0.0), capped


def optimal_speed(s: float, p: Gradient, model: ImpactModel) -> float:
    """Speed minimizing f over y >= 0: either 0 or strictly above the threshold.

    Ties (target exactly at the marginal floor, or zero net gain at the
    interior candidate) resolve to 0.
    """
    _check_price(s)
    if p.p_s <= 0.0:
        return 0.0
    return float(best_response(model, s * p.p_c - p.p_x, s * p.p_s)[0])


def hamiltonian(s: float, p: Gradient, model: ImpactModel) -> float:
    """inf_{y >= 0} f(y), the negated best-response gain; 0.0 (never -0.0) when no sale pays.

    Requires p_s > 0 (the regular region); always <= 0 since f(0) = 0.
    """
    _check_price(s)
    if p.p_s <= 0.0:
        raise ValueError("hamiltonian closed form needs p_s > 0")
    return 0.0 - float(best_response(model, s * p.p_c - p.p_x, s * p.p_s)[1])


def _grid_golden_min(f, y_max: float, n: int):
    """Min of f over [0, y_max]: dense grid, then golden-section around the argmin."""
    ys = np.linspace(0.0, y_max, n)
    vals = f(ys)
    i = int(np.argmin(vals))
    best_y, best_v = float(ys[i]), float(vals[i])

    a = float(ys[max(i - 1, 0)])
    b = float(ys[min(i + 1, n - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = float(f(c))
    fd = float(f(d))
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(f(d))
    for y, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_y, best_v = y, v
    return best_y, best_v


def hamiltonian_bruteforce(s: float, p: Gradient, model: ImpactModel, y_max: float, n: int = 4001) -> float:
    """Oracle: min of f over [0, y_max] by grid search with local refinement.

    Respects y_max literally; if the true minimizer lies beyond it the
    returned value exceeds the closed form, which the comparison harness
    treats as a truncation flag and handles by expanding y_max.
    """
    _check_price(s)
    if n < 2 or y_max <= 0.0:
        raise ValueError("brute-force grid needs n >= 2 and y_max > 0")
    return _grid_golden_min(lambda y: running_gain_rate(y, s, p, model), y_max, n)[1]


def _brute_min_expanding(s, p, model, y_max0, n, max_doublings=20):
    """Brute minimum with y_max doubled while the argmin sits at the right edge."""
    y_max = y_max0
    for _ in range(max_doublings + 1):
        y_star, v = _grid_golden_min(lambda y: running_gain_rate(y, s, p, model), y_max, n)
        if y_star < y_max * (1.0 - 2.0 / n):
            return y_star, v, y_max
        y_max *= 2.0
    return y_star, v, y_max


def closed_vs_brute_samples(model: ImpactModel, n_draws: int, seed: int = 0, n_grid: int = 4001):
    """Random sweep comparing the closed-form Hamiltonian with the oracle.

    Returns a list of rows (s, p_c, p_x, p_s, H_closed, H_brute, speed); the
    draws keep p_s positive so the closed form applies, and the brute y_max
    starts at max(2*threshold + 1, 1) and doubles (up to 2**20 times the
    start) whenever the grid argmin lands on the right endpoint.
    """
    rng = np.random.default_rng(seed)
    rows = []
    y_max0 = max(2.0 * model.threshold + 1.0, 1.0)
    for _ in range(n_draws):
        s = float(rng.uniform(0.2, 5.0))
        p = Gradient(float(rng.normal(1.0, 1.0)), float(rng.normal(0.0, 1.0)), float(rng.uniform(0.05, 3.0)))
        h_closed = hamiltonian(s, p, model)
        _, h_brute, _ = _brute_min_expanding(s, p, model, y_max0, n_grid)
        rows.append((s, p.p_c, p.p_x, p.p_s, h_closed, h_brute, optimal_speed(s, p, model)))
    return rows
