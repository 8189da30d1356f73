"""Analytic liquidation results: TWAP rates and values, mixed-power
strategies and limit comparisons.

All value formulas live in the risk-neutral Black-Scholes reduction, where
the only market input is the effective price decay rate

    decay = -mu - sigma**2 / 2   (> 0 for every analytic result here).

Selling x0 shares at the optimal constant rate nu (the root of
x*h(x) - g(x) = decay above the impact threshold) earns

    c0 + s0 * (1 - exp(-h(nu) * x0)) / h(nu)

whenever x0 <= nu * T; the mixed-power family additionally has closed forms
for large inventories, whose size threshold x_large is the integral of
(1 - exp(-v))**(-1/p) up to w = p*(decay+gamma)*T/(p-1), summed as one of
two fixed-length series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolation, NumericalFailure, require_finite
from .impact import ImpactModel, MixedPowerImpact, ShiftedConvexImpact

__all__ = [
    "MarketParams",
    "Schedule",
    "twap_rate",
    "TwapSolution",
    "twap_solution",
    "MixedPowerSolution",
    "mixed_power_solution",
    "proceeds_factor",
    "ExtremeComparison",
    "extreme_comparison",
    "QuasiBlock",
    "linear_quasi_block",
]


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes drift/volatility and the stored decay rate.

    The three fields satisfy mu + sigma**2/2 + decay == 0 bit-exactly; use
    the factory methods so the identity holds as stored.
    """

    mu: float
    sigma: float
    decay: float

    def __post_init__(self):
        require_finite(mu=self.mu, sigma=self.sigma, decay=self.decay)
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        if self.mu + 0.5 * self.sigma * self.sigma + self.decay != 0.0:
            raise ValueError("decay must equal -(mu + sigma**2/2) exactly as stored")

    @classmethod
    def from_drift_vol(cls, mu: float, sigma: float) -> "MarketParams":
        return cls(mu=mu, sigma=sigma, decay=-(mu + 0.5 * sigma * sigma))

    @classmethod
    def from_decay(cls, decay: float) -> "MarketParams":
        """Decay given directly; represented as a zero-volatility market."""
        return cls(mu=-decay, sigma=0.0, decay=decay)


@dataclass(frozen=True)
class Schedule:
    """A deterministic selling-rate path on [0, horizon].

    `rate_fn` must accept numpy arrays of times; `total` is the number of
    shares the schedule sells over the horizon.
    """

    rate_fn: Callable[[np.ndarray], np.ndarray]
    horizon: float
    total: float

    def rates(self, t):
        out = np.asarray(self.rate_fn(np.atleast_1d(np.asarray(t, dtype=float))), dtype=float)
        return float(out[0]) if np.ndim(t) == 0 else out

    def sample(self, n: int):
        """Left edges and rates of an n-piece piecewise-constant sampling."""
        if n < 1:
            raise ValueError("need at least one sample piece")
        edges = np.linspace(0.0, self.horizon, n, endpoint=False)
        return edges, self.rates(edges)

    def check_admissible(self, x0: float) -> None:
        _, r = self.sample(257)
        if np.any(r < 0.0):
            raise ValueError("schedule emits a negative selling rate")
        if self.total > x0 * (1.0 + 1e-12) + 1e-300:
            raise ValueError("schedule sells more than the initial inventory")

    @classmethod
    def constant(cls, rate: float, duration: float, horizon: float) -> "Schedule":
        require_finite(rate=rate, duration=duration, horizon=horizon)
        if rate < 0.0 or duration < 0.0 or duration > horizon * (1.0 + 1e-12):
            raise ValueError("constant schedule needs rate >= 0 and 0 <= duration <= horizon")

        def fn(t):
            return np.where(t < duration, rate, 0.0)

        return cls(rate_fn=fn, horizon=horizon, total=rate * duration)


def twap_rate(model: ImpactModel, decay: float) -> float:
    """The unique rate above the threshold with x*h(x) - g(x) = decay.

    The excess starts non-positive at the threshold, is strictly increasing
    and diverges.  The bracket [threshold, hi] starts 1 (or an ulp of the
    threshold, if wider) wide and grows by factors of 8 until the excess at
    hi reaches decay.  Each iteration returns x once |excess - decay| <=
    1e-12 * (1 + decay), hi tried first, else shrinks the bracket by the sign
    of the error and takes the Newton step with the derivative x*h'(x), or
    the midpoint where that step is not finite or leaves the open bracket.
    Where that tolerance is finer than the rounding of the excess (large
    thresholds), the bracket closes to two adjacent floats and the end with
    the smaller error is returned.  A NaN excess inside the bracket raises
    NumericalFailure.
    """
    if not decay > 0.0:  # a NaN decay fails here too
        raise ValueError("twap_rate needs a positive decay rate")
    require_finite(decay=decay)

    def hook(fn, x):
        # the hooks act on arrays; numpy scalars keep a zero slope's division
        # at inf or NaN under errstate instead of raising ZeroDivisionError
        return fn(np.array([x]))[0]

    target = float(decay)
    tol = 1e-12 * (1.0 + target)
    x = lo = np.float64(model.threshold)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hi = lo + max(1.0, np.spacing(lo))
        while (f_hi := hook(model._excess, hi)) < target:
            hi = lo + 8.0 * (hi - lo)
            if not np.isfinite(hi):
                raise NumericalFailure("TWAP rate target beyond float range")
        # Newton steps from the left of a convex excess overshoot a right end
        # that already meets the tolerance, and would bisect all the way to it
        if abs(f_hi - target) <= tol:
            x = hi
        e_lo, e_hi = math.inf, f_hi - target  # the first iteration evaluates x = lo
        while True:
            err = hook(model._excess, x) - target
            if abs(err) <= tol:
                return float(x)
            if err < 0.0:
                lo, e_lo = x, err
            elif err > 0.0:
                hi, e_hi = x, err
            elif x > lo:
                raise NumericalFailure(f"TWAP rate excess is NaN at x = {float(x)!r} inside the bracket")
            if np.nextafter(lo, hi) == hi:  # no float lies strictly inside the bracket
                return float(lo if abs(e_lo) < abs(e_hi) else hi)
            step = x - err / (x * hook(model._dh, x))
            x = step if lo < step < hi else 0.5 * (lo + hi)


def _check_problem(**named) -> None:
    """The closed forms' input check: every argument finite (in order), a positive decay if given, then the ranges."""
    require_finite(**named)
    if "decay" in named and not named["decay"] > 0.0:
        raise ValueError("needs a positive decay rate")
    if named["x0"] < 0.0 or named["s0"] < 0.0 or named["horizon"] <= 0.0:
        raise ValueError("need x0 >= 0, s0 >= 0 and a positive horizon")


@dataclass(frozen=True)
class TwapSolution:
    value: float
    schedule: Schedule
    rate: float
    marginal_at_rate: float


def twap_solution(
    c0: float, x0: float, s0: float, model: ImpactModel, decay: float, horizon: float
) -> TwapSolution:
    """Optimal value and schedule for a small inventory: constant-rate selling.

    Valid under x0 <= rate * horizon; outside that the constant-rate result
    does not apply and the caller is pointed at the HJB solver.
    """
    _check_problem(c0=c0, x0=x0, s0=s0, horizon=horizon)
    rate = twap_rate(model, decay)
    if x0 > rate * horizon:
        raise HypothesisViolation(
            f"x0 = {x0:g} exceeds rate * horizon = {rate * horizon:g}: "
            "small-inventory hypothesis violated; use the HJB solver"
        )
    m = model.h(rate)
    value = c0 + s0 * proceeds_factor(m, x0)
    duration = x0 / rate if rate > 0.0 else 0.0
    return TwapSolution(
        value=value,
        schedule=Schedule.constant(rate, duration, horizon),
        rate=rate,
        marginal_at_rate=m,
    )


_LN2 = math.log(2.0)
_SERIES_TERMS = 64  # both series below shrink by at least 1/2 a term


def _poly(coeffs, x: float) -> float:
    """sum of coeffs[k] * x**k, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _large_inventory_integral(w: float, s: float) -> float:
    """I(w), the integral of (1 - exp(-v))**(-s) over [0, w], for w >= 0 and 0 <= s < 1.

    Up to w = ln 2, u = 1 - exp(-v) turns I into the integral of
    u**(-s) / (1 - u) over [0, z], z = -expm1(-w), whose geometric series
    integrates to sum_{k>=0} z**(k+1-s) / (k+1-s).  Beyond ln 2 the binomial
    series (1 - q)**(-s) = sum_k (s)_k/k! q**k at q = exp(-v) integrates to

        I(w) = I(ln 2) + (w - ln 2) + T(1/2) - T(exp(-w)),
        T(q) = sum_{k>=1} (s)_k/k! q**k / k.

    z and q never exceed 1/2 and every coefficient is at most its
    predecessor, so a fixed `_SERIES_TERMS` terms leave a tail below 2**-64
    of the sum: no tolerance and no loop that can run on.
    """
    head = [1.0 / (k + 1.0 - s) for k in range(_SERIES_TERMS)]
    if w <= _LN2:
        z = -math.expm1(-w)
        return z ** (1.0 - s) * _poly(head, z)
    tail, c = [0.0], 1.0
    for k in range(1, _SERIES_TERMS):
        c *= (s + k - 1.0) / k  # (s)_k / k!
        tail.append(c / k)
    at_ln2 = 0.5 ** (1.0 - s) * _poly(head, 0.5)
    return at_ln2 + (w - _LN2) + _poly(tail, 0.5) - _poly(tail, math.exp(-w))


@dataclass(frozen=True)
class MixedPowerSolution:
    """Regime is 'large_inventory', 'small_inventory' or 'unsolved'; value and
    schedule are None in the unsolved gap (x_small, x_large)."""

    regime: str
    value: Optional[float]
    schedule: Optional[Schedule]
    x_large: float
    x_small: float
    rate: float
    delta: float


def mixed_power_solution(
    c0: float, x0: float, s0: float, model: MixedPowerImpact, decay: float, horizon: float
) -> MixedPowerSolution:
    """Closed-form solution for the mixed-power family.

    With gamma the family's convex-branch offset and p its convex exponent,

        rate  = ((decay + gamma) / ((p - 1) * alpha)) ** (1/p)
        delta = alpha**(1/p) * p * ((decay + gamma) / (p - 1)) ** ((p-1)/p)

    (delta equals h(rate)).  Large inventories (x0 >= x_large) sell along a
    decreasing-in-inventory rate that diverges at the horizon and the value
    is (s0/delta) * z**((p-1)/p) with z = 1 - exp(-w) and
    w = p*(decay+gamma)*T/(p-1).  x_large = I(w)/delta, with I(w) the
    integral of (1 - exp(-v))**(-1/p) over [0, w], is exactly the number of
    shares that schedule sells; I is summed as a fixed-length series
    (`_large_inventory_integral`).  Small inventories (x0 <= x_small =
    rate * T) reduce to constant selling at `rate`.  In between there is no
    analytic solution.
    """
    if not isinstance(model, MixedPowerImpact):
        raise ValueError("mixed_power_solution needs a mixed-power impact model")
    _check_problem(c0=c0, x0=x0, s0=s0, decay=decay, horizon=horizon)

    p = model.p_convex
    load = decay + model.gamma
    rate = (load / ((p - 1.0) * model.alpha)) ** (1.0 / p)
    delta = model.alpha ** (1.0 / p) * p * (load / (p - 1.0)) ** ((p - 1.0) / p)
    c = p * load / (p - 1.0)
    w = c * horizon
    z = -math.expm1(-w)
    x_large = _large_inventory_integral(w, 1.0 / p) / delta
    if not math.isfinite(x_large):  # w = c * horizon or the quotient left the float range
        raise NumericalFailure(f"x_large overflows the float range (w = {w:g})")
    x_small = rate * horizon

    if x0 >= x_large:
        value = c0 + (s0 / delta) * z ** ((p - 1.0) / p)

        def fn(t, _rate=rate, _c=c, _T=horizon, _p=p):
            t = np.asarray(t, dtype=float)
            ttg = _T - t
            out = np.zeros_like(t)
            live = ttg > 0.0
            out[live] = _rate * (-np.expm1(-_c * ttg[live])) ** (-1.0 / _p)
            return out

        schedule = Schedule(rate_fn=fn, horizon=horizon, total=x_large)
        return MixedPowerSolution("large_inventory", value, schedule, x_large, x_small, rate, delta)

    if x0 <= x_small:
        value = c0 + s0 * proceeds_factor(delta, x0)
        duration = x0 / rate
        schedule = Schedule.constant(rate, duration, horizon)
        return MixedPowerSolution("small_inventory", value, schedule, x_large, x_small, rate, delta)

    return MixedPowerSolution("unsolved", None, None, x_large, x_small, rate, delta)


def proceeds_factor(y: float, x: float) -> float:
    """(1 - exp(-x*y)) / y: discounted proceeds per unit price of selling x
    shares when each share sold decays the price log-linearly at rate y.
    Continuous at y = 0 with value x."""
    if y == 0.0:
        return x
    return -math.expm1(-x * y) / y


@dataclass(frozen=True)
class ExtremeComparison:
    optimal_value: float
    threshold_value: float
    rate: float


def extreme_comparison(
    model: ShiftedConvexImpact, x0: float, s0: float, decay: float, horizon: float
) -> ExtremeComparison:
    """Optimal constant-rate proceeds vs selling exactly at the free threshold.

    For the shifted-convex family the threshold strategy pays no impact at
    all, yet the optimal rate is strictly faster and, for x0 > 0, earns
    strictly more: decay = excess_impact(rate) > threshold * h(rate), so
    h(rate) < decay / threshold and the proceeds factor is evaluated at a
    smaller argument.  Both must fit the horizon; at x0 = 0 both earn 0.0.
    """
    if not isinstance(model, ShiftedConvexImpact):
        raise ValueError("extreme_comparison needs a shifted-convex impact model")
    _check_problem(x0=x0, s0=s0, decay=decay, horizon=horizon)
    rate = twap_rate(model, decay)
    if x0 > rate * horizon or x0 > model.threshold * horizon:
        raise HypothesisViolation(
            "x0 must satisfy x0 <= rate * horizon and x0 <= threshold * horizon "
            "so both strategies finish in time"
        )
    c_opt = s0 * proceeds_factor(model.h(rate), x0)
    c_thr = s0 * proceeds_factor(decay / model.threshold, x0)
    if x0 > 0.0 and not c_opt > c_thr:  # at x0 = 0 neither strategy sells: both earn exactly 0
        raise NumericalFailure("optimal proceeds failed to dominate the threshold strategy")
    return ExtremeComparison(optimal_value=c_opt, threshold_value=c_thr, rate=rate)


@dataclass(frozen=True)
class QuasiBlock:
    limit_value: float
    value: float


def linear_quasi_block(
    alpha: float, c0: float, x0: float, s0: float, delta: float, decay: float
) -> QuasiBlock:
    """Linear impact g(x) = alpha*x: block-liquidation limit vs finite burst.

    limit_value = c0 + s0*(1 - exp(-alpha*x0))/alpha is the supremum over
    strategies; `value` is the deterministic proceeds of selling at rate
    x0/delta over [0, delta], the integral of
    exp(-decay*t - alpha*x0*t/delta) * (x0/delta), and increases to the
    limit as delta -> 0.
    """
    require_finite(alpha=alpha, c0=c0, x0=x0, s0=s0, delta=delta, decay=decay)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if x0 < 0.0 or s0 < 0.0:
        raise ValueError("need x0 >= 0 and s0 >= 0")
    limit_value = c0 + s0 * proceeds_factor(alpha, x0)
    burst = x0 / delta
    value = c0 + s0 * burst * proceeds_factor(decay + alpha * burst, delta)
    return QuasiBlock(limit_value=limit_value, value=value)
