"""Analytic liquidation results: TWAP rates and values, mixed-power
strategies and limit comparisons.

All value formulas live in the risk-neutral Black-Scholes reduction, where
the only market input is the effective price decay rate

    decay = -mu - sigma**2 / 2   (> 0 for every analytic result here).

Selling x0 shares at the optimal constant rate nu (the root of
x*h(x) - g(x) = decay above the impact threshold) earns

    c0 + s0 * (1 - exp(-h(nu) * x0)) / h(nu)

whenever x0 <= nu * T; the mixed-power family additionally has closed forms
for large inventories, expressed through a reciprocal-integrand incomplete
Beta integral that is implemented exactly as written (it is not the
regularized Beta of the standard libraries).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolation, NumericalFailure, require_finite
from .impact import (
    ImpactModel,
    MixedPowerImpact,
    ShiftedConvexImpact,
    increasing_root,
)

__all__ = [
    "MarketParams",
    "Schedule",
    "twap_rate",
    "TwapSolution",
    "twap_solution",
    "incomplete_beta",
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

    def check_admissible(self, x0: float, n_probe: int = 257) -> None:
        _, r = self.sample(n_probe)
        if np.any(r < 0.0):
            raise ValueError("schedule emits a negative selling rate")
        if self.total > x0 * (1.0 + 1e-12) + 1e-300:
            raise ValueError("schedule sells more than the initial inventory")

    @classmethod
    def constant(cls, rate: float, duration: float, horizon: float) -> "Schedule":
        if rate < 0.0 or duration < 0.0 or duration > horizon * (1.0 + 1e-12):
            raise ValueError("constant schedule needs rate >= 0 and 0 <= duration <= horizon")

        def fn(t):
            return np.where(t < duration, rate, 0.0)

        return cls(rate_fn=fn, horizon=horizon, total=rate * duration)


def twap_rate(model: ImpactModel, decay: float) -> float:
    """The unique rate above the threshold with x*h(x) - g(x) = decay.

    The excess starts non-positive at the threshold, is strictly increasing
    and diverges, so `increasing_root` brackets it and solves it with the
    derivative x*h'(x).  Stops when |excess - decay| <= 1e-12 * (1 + decay).
    """
    if not decay > 0.0:  # a NaN decay fails here too
        raise ValueError("twap_rate needs a positive decay rate")
    require_finite(decay=decay)
    root = increasing_root(
        lambda x: x * model._h(x) - model._g(x),
        lambda x: x * model._dh(x),
        np.array([float(decay)]),
        model.threshold,
        "TWAP rate",
    )
    return float(root[0])


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
    require_finite(c0=c0, x0=x0, s0=s0, horizon=horizon)
    if x0 < 0.0 or s0 < 0.0 or horizon <= 0.0:
        raise ValueError("need x0 >= 0, s0 >= 0 and a positive horizon")
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


def _checked_quad(what: str, integrand, upper: float) -> float:
    """Integral of `integrand` over [0, upper] by adaptive quadrature at
    relative accuracy 1e-12; a non-finite value or an error estimate above
    1e-8 relative raises NumericalFailure."""
    from scipy import integrate  # loaded on first use: no CLI run but mixed-power needs it

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=400)
    if not math.isfinite(val) or (val != 0.0 and err > 1e-8 * abs(val)):
        raise NumericalFailure(f"{what} quadrature unreliable: value {val}, error {err}")
    return val


def incomplete_beta(z: float, a: float, b: float) -> float:
    """The reciprocal-integrand incomplete Beta: integral of
    1 / (x**(a-1) * (1-x)**(b-1)) from 0 to z.

    Not the regularized Beta function.  The integrand is x**(1-a) *
    (1-x)**(1-b); for a in (1, 2) the endpoint singularity at 0 is removed
    by substituting x = u**k with k = 2/(2-a) before adaptive quadrature.
    Relative accuracy 1e-10.
    """
    require_finite(z=z, a=a, b=b)
    if z < 0.0:
        raise ValueError("z must be non-negative")
    if z > 1.0:
        raise ValueError("z must not exceed 1")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if z > 0.0 and a >= 2.0:
        raise ValueError("integral diverges at 0 for a >= 2")
    if z == 1.0 and b >= 2.0:
        raise ValueError("integral diverges at 1 for b >= 2")
    if z == 0.0:
        return 0.0

    if a > 1.0:
        k = 2.0 / (2.0 - a)

        def integrand(u):
            return k * u * (1.0 - u**k) ** (1.0 - b)

        upper = z ** (1.0 / k)
    else:

        def integrand(x):
            return x ** (1.0 - a) * (1.0 - x) ** (1.0 - b)

        upper = z

    return _checked_quad("incomplete Beta", integrand, upper)


def _beta_via_log_substitution(w: float, a: float) -> float:
    """The same reciprocal Beta integral at z = 1 - exp(-w) and b = 2,
    rewritten through u = 1 - exp(-v) as the integral of (1 - exp(-v))**(1-a)
    over [0, w].  Stable for large w, where z rounds to 1 in floating point;
    the v**(1-a) endpoint singularity is removed by v = u**k exactly as in
    `incomplete_beta`."""
    k = 2.0 / (2.0 - a)

    def integrand(u):
        v = u**k
        return k * u ** (k - 1.0) * (-math.expm1(-v)) ** (1.0 - a)

    return _checked_quad("large-horizon Beta", integrand, w ** (1.0 / k))


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
    is (s0/delta) * z**((p-1)/p) with z = 1 - exp(-p*(decay+gamma)*T/(p-1));
    x_large itself is the reciprocal incomplete Beta of z at (1/p + 1, 2)
    divided by delta, and is exactly the number of shares that schedule
    sells.  Small inventories (x0 <= x_small = rate * T) reduce to constant
    selling at `rate`.  In between there is no analytic solution.
    """
    if not isinstance(model, MixedPowerImpact):
        raise ValueError("mixed_power_solution needs a mixed-power impact model")
    require_finite(c0=c0, x0=x0, s0=s0, decay=decay, horizon=horizon)
    if decay <= 0.0:
        raise ValueError("needs a positive decay rate")
    if x0 < 0.0 or s0 < 0.0 or horizon <= 0.0:
        raise ValueError("need x0 >= 0, s0 >= 0 and a positive horizon")

    p = model.p_convex
    load = decay + model.gamma
    rate = (load / ((p - 1.0) * model.alpha)) ** (1.0 / p)
    delta = model.alpha ** (1.0 / p) * p * (load / (p - 1.0)) ** ((p - 1.0) / p)
    c = p * load / (p - 1.0)
    w = c * horizon
    z = -math.expm1(-w)
    # the reciprocal Beta integral at (z, 1/p + 1, 2), computed through its
    # log substitution: near-singular directly once z approaches 1, exact and
    # tame in this form for every horizon
    x_large = _beta_via_log_substitution(w, 1.0 / p + 1.0) / delta
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
    all, yet the optimal rate is strictly faster and earns strictly more:
    decay = excess_impact(rate) > threshold * h(rate), so h(rate) <
    decay / threshold and the proceeds factor is evaluated at a smaller
    argument.  Both strategies must fit the horizon.
    """
    if not isinstance(model, ShiftedConvexImpact):
        raise ValueError("extreme_comparison needs a shifted-convex impact model")
    require_finite(x0=x0, s0=s0, decay=decay, horizon=horizon)
    if decay <= 0.0:
        raise ValueError("needs a positive decay rate")
    rate = twap_rate(model, decay)
    if x0 > rate * horizon or x0 > model.threshold * horizon:
        raise HypothesisViolation(
            "x0 must satisfy x0 <= rate * horizon and x0 <= threshold * horizon "
            "so both strategies finish in time"
        )
    c_opt = s0 * proceeds_factor(model.h(rate), x0)
    c_thr = s0 * proceeds_factor(decay / model.threshold, x0)
    if not c_opt > c_thr:
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
