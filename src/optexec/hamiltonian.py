"""Optimal selling speed and the execution Hamiltonian.

The running gain of selling at speed y, given a price s and the value
gradient p = (p_c, p_x, p_s), is driven by

    f(y) = s * p_s * g(y) - (s * p_c - p_x) * y,

whose infimum over y >= 0 is the Hamiltonian.  For an S-shaped impact curve
the minimizer is either 0 or the point on the rising marginal branch where
h(y) equals the target ratio (s*p_c - p_x) / (s*p_s); it never falls in the
concave interval (0, threshold].  `_best_response` is the one vectorised
implementation of that argmax, the kernel the HJB march calls on its stacked
grid rows under its own errstate and a speed cap y_max; `best_response` is its
uncapped public shell, the paper's argmax over {0} u (threshold, inf), and
`optimal_speed` and `hamiltonian` are scalar wrappers over that, on 1-element
arrays: a 0-d `** power` can differ by an ulp from the array loop a sweep runs.

The independent check is `closed_vs_brute_samples`: random draws, each
compared with a brute-force minimum of f from a dense grid, a golden-section
refinement, and y_max doubled while the minimizer sits at the grid's right
edge.  One private kernel, `_brute_min`, runs that search in lockstep over
arrays of draws: each grid level is one call of the `_g` hook shared by all
draws, and so is each golden-section iteration, of which the grid alone sets
the count.  The hook runs under the public `g`'s overflow-only errstate and
skips its rate check, which every point in [0, y_max] passes.  Every draw
sees exactly the float operations of the one-draw search, so a one-draw
`_brute_min` call gives a sweep row's value bit for bit.  The oracle never
calls `best_response`, `h_inverse` or `_h_inverse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, require_finite
from .impact import ImpactModel

__all__ = [
    "Gradient",
    "best_response",
    "optimal_speed",
    "hamiltonian",
    "closed_vs_brute_samples",
]


@dataclass(frozen=True)
class Gradient:
    """Value gradient (marginal value of cash, inventory, price)."""

    p_c: float
    p_x: float
    p_s: float

    def __post_init__(self):
        require_finite(p_c=self.p_c, p_x=self.p_x, p_s=self.p_s)


def _check_price(s: float) -> None:
    if not s > 0.0:
        raise ValueError("price must be positive")


def _gain_rate(model, a, b, y):
    """f(y) = b*g(y) - a*y for a = s*p_c - p_x and b = s*p_s; the oracle minimizes it."""
    with np.errstate(over="ignore"):  # the public `g`'s errstate, around the hook alone
        gy = model._g(y)
    return b * gy - a * y


def best_response(model: ImpactModel, a, b):
    """Elementwise argmax of a*y - b*g(y) over y in {0} u (threshold, inf), for b >= 0.

    The maximizer is 0 or the point above the threshold where h(y) = a/b.
    Ties (ratio at the marginal floor, zero gain) resolve to 0.  Where b = 0
    the ratio is -inf or NaN for a <= 0, giving 0, and +inf for a > 0,
    whose gain is unbounded: that raises ValueError.

    Returns (speed, gain): the maximizer and the maximal value (0 where
    selling nothing is optimal).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _best_response(model, a, b, math.inf, math.inf)[:2]


def _best_response(model, a, b, y_max, h_ymax):
    """The argmax over {0} u (threshold, y_max], unchecked: float arrays a, b, a y_max
    above the threshold, `h_ymax` = h(y_max), and the caller's errstate ignoring divide,
    over and invalid.  Where b = 0 the ratio +inf, -inf or NaN gives y_max, 0 and 0; a
    capped element under y_max = inf raises ValueError.  Returns (speed, gain, g(speed)),
    each 0 where selling nothing is optimal."""
    ratio = a / b
    candidate = ratio > model.marginal_floor
    capped = candidate & (ratio >= h_ymax)
    if y_max == math.inf and capped.any():
        raise ValueError("the gain is unbounded: a capped element has y_max = inf")
    y = np.where(capped, y_max, 0.0)
    inner = candidate ^ capped  # capped lies inside candidate
    if np.count_nonzero(inner):
        # the private hook: every ratio here lies above the marginal floor.  Its root
        # lies above the threshold too, but rounds onto it where the gap is below an
        # ulp of the threshold: such a root moves to the next float up, and `take` decides
        root = np.maximum(model._h_inverse(ratio[inner]), math.nextafter(model.threshold, math.inf))
        y[inner] = np.minimum(root, y_max)
    # near the top of the float range y*a and b*g(y) can both overflow; inf - inf never sells
    gy = model._g(y)
    val = y * a - b * gy
    take = val > 0.0
    return np.where(take, y, 0.0), np.where(take, val, 0.0), np.where(take, gy, 0.0)


def optimal_speed(s: float, p: Gradient, model: ImpactModel) -> float:
    """Speed minimizing f over y >= 0: either 0 or strictly above the threshold.

    Ties (target exactly at the marginal floor, or zero net gain at the
    interior candidate) resolve to 0.
    """
    _check_price(s)
    if p.p_s <= 0.0:
        return 0.0
    return float(best_response(model, [s * p.p_c - p.p_x], [s * p.p_s])[0][0])


def hamiltonian(s: float, p: Gradient, model: ImpactModel) -> float:
    """inf_{y >= 0} f(y), the negated best-response gain; 0.0 (never -0.0) when no sale pays.

    Requires p_s > 0 (the regular region); always <= 0 since f(0) = 0.
    """
    _check_price(s)
    if p.p_s <= 0.0:
        raise ValueError("hamiltonian closed form needs p_s > 0")
    return 0.0 - float(best_response(model, [s * p.p_c - p.p_x], [s * p.p_s])[1][0])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_BLOCK = 1 << 15  # grid values per block of draws: 256 KB per buffer


def _golden(model, a, b, lo, hi, width):
    """Lockstep golden-section search of each draw's f on its own [lo, hi].

    Every draw sees the float operations of the scalar textbook loop: one
    `_g` call per iteration while `width`, the level's widest bracket shrunk
    by the golden ratio per iteration, exceeds 1e-10.  Returns each draw's
    better final interior point and its value, c on a tie.
    """
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = _gain_rate(model, a, b, c)
    fd = _gain_rate(model, a, b, d)
    while width > 1e-10:
        # keep [lo, d] and probe a new c; else keep [c, hi] and probe a new d.  Where
        # both probes overflow to +inf, nothing favours the right: keep the left
        left = (fc < fd) | (fd == np.inf)
        lo = np.where(left, lo, c)
        hi = np.where(left, d, hi)
        y = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        c, d = np.where(left, y, d), np.where(left, c, y)
        fy = _gain_rate(model, a, b, y)
        fc, fd = np.where(left, fy, fd), np.where(left, fc, fy)
        width *= _INVPHI
    take_c = fc <= fd
    return np.where(take_c, c, d), np.where(take_c, fc, fd)


def _brute_min(model, a, b, y_max, n):
    """Brute-force min of f(y) = b*g(y) - a*y over [0, y_max] for every draw (a, b) at once.

    Per y_max level: one `_g` hook call on the shared grid linspace(0, y_max, n),
    each draw's grid argmin (over blocks of draws, so temporaries stay
    small), then a golden-section refinement on the two grid cells around
    it, run for as many iterations as the grid sets.  Draws whose minimizer
    sits at the right edge go on to the next level with y_max doubled, until
    every draw is bracketed; a y_max that leaves the float range raises
    NumericalFailure.  On n = 2 points no draw leaves the right edge, so
    callers need n >= 3.  Never touches the closed form (`best_response`,
    `h_inverse`, `_h_inverse`): it is the oracle that checks it.
    Returns arrays (argmin, min, y_max reached).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    y_star, val, y_cap = np.empty(a.size), np.empty(a.size), np.full(a.size, float(y_max))
    todo = np.arange(a.size)
    rows = max(1, _GRID_BLOCK // n)
    while todo.size:
        if not math.isfinite(y_max):
            raise NumericalFailure(f"y_max overflowed with {todo.size} draw(s) not yet bracketed")
        ys = np.linspace(0.0, y_max, n)
        with np.errstate(over="ignore"):
            gs = model._g(ys)
        at, bt = a[todo], b[todo]
        i = np.empty(todo.size, dtype=np.intp)
        best_v = np.empty(todo.size)
        buf = np.empty((2, min(rows, todo.size), n))  # one allocation per level keeps peak RSS flat
        for lo in range(0, todo.size, rows):
            blk = slice(lo, lo + rows)
            k = bt[blk].size
            vals, ay = buf[0, :k], buf[1, :k]
            np.multiply(bt[blk, None], gs, out=vals)
            np.multiply(at[blk, None], ys, out=ay)
            vals -= ay
            i[blk] = vals.argmin(axis=1)
            best_v[blk] = vals[np.arange(k), i[blk]]
        best_y = ys[i]
        width = ys[min(2, n - 1)] - ys[0]  # the widest bracket, two cells, sets every draw's stop
        y, v = _golden(model, at, bt, ys[np.maximum(i - 1, 0)], ys[np.minimum(i + 1, n - 1)], width)
        better = v < best_v
        best_y = np.where(better, y, best_y)
        best_v = np.where(better, v, best_v)
        y_star[todo], val[todo] = best_y, best_v
        todo = todo[~(best_y < y_max * (1.0 - 2.0 / n))]
        y_max *= 2.0
        y_cap[todo] = y_max
    return y_star, val, y_cap


def closed_vs_brute_samples(model: ImpactModel, n_draws: int, seed: int = 0, n_grid: int = 4001):
    """Random sweep comparing the closed-form Hamiltonian with the oracle.

    Returns an (n_draws, 7) float array whose rows are (s, p_c, p_x, p_s,
    H_closed, H_brute, speed); s, p_c, p_x and p_s are array draws from
    default_rng(seed) in that order, with p_s > 0 so the closed form
    applies.  The closed values and speeds come from one
    `best_response` call over all draws, the brute values from one lockstep
    `_brute_min` run over all draws, whose y_max starts at 2*threshold + 1
    and doubles for each draw whose argmin lands on the right endpoint until
    every draw is bracketed (NumericalFailure if y_max overflows first).
    Every row is bit-identical to the one-draw calls `hamiltonian`,
    `_brute_min` and `optimal_speed`.  The grid needs n_grid >= 3 points: on
    two, the right-edge rule would keep every draw doubling.
    """
    if n_grid < 3:
        raise ValueError(f"the brute-force grid needs n_grid >= 3 points, got {n_grid}")
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 5.0, n_draws)
    p_c = rng.normal(1.0, 1.0, n_draws)
    p_x = rng.normal(0.0, 1.0, n_draws)
    p_s = rng.uniform(0.05, 3.0, n_draws)
    a, b = s * p_c - p_x, s * p_s
    speed, gain = best_response(model, a, b)
    _, h_brute, _ = _brute_min(model, a, b, 2.0 * model.threshold + 1.0, n_grid)
    return np.column_stack((s, p_c, p_x, p_s, 0.0 - gain, h_brute, speed))
