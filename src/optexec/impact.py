"""S-shaped market impact curves and their marginals.

An impact model maps a selling rate x >= 0 to an instantaneous log-price
decay rate g(x).  "S-shaped" means the marginal impact h = g' first falls
and then rises, with the switch at a threshold rate: g is concave below the
threshold and convex above it.  Everything downstream (optimal speeds, TWAP
rates, the PDE solver) touches a model only through g, h, the inverse of h
on its rising branch, and the excess x*h(x) - g(x).

All curve evaluations accept scalars or numpy arrays and are pure; models
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "ImpactModel",
    "MixedPowerImpact",
    "ShiftedConvexImpact",
    "QuadraticImpact",
    "LevyEffectiveImpact",
]

_INVERSE_RTOL = 1e-12


def _match(x, out: np.ndarray):
    """Return a float for scalar input, the array otherwise."""
    return float(out[0]) if np.ndim(x) == 0 else out


def increasing_root(f, df, target: np.ndarray, lo, what: str, hi=None) -> np.ndarray:
    """Elementwise x >= lo with |f(x) - target| <= 1e-12 * (1 + target).

    f must be increasing on [lo, inf) with f(lo) <= target and f -> infinity,
    df its derivative (NaN where unknown); both act on float arrays.  `lo` is
    a scalar or an array like `target`, and so is `hi` if given, with
    f(hi) >= target.  Without `hi` the right end of each bracket [lo, hi]
    grows by factors of 8 until f(hi) >= target, and an element whose grown
    f(hi) already meets the tolerance starts at hi.  Starting from lo, each
    iteration evaluates f, shrinks the brackets by the sign of the error and
    moves each unconverged element by the Newton step x - err / df(x), or to
    its bracket midpoint where that step is not finite or leaves the open
    bracket.  Converged elements stay where they are.
    """
    tol = _INVERSE_RTOL * (1.0 + target)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape)
    x = np.array(lo)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if hi is None:
            hi = lo + 1.0
            for _ in range(500):
                f_hi = f(hi)
                short = f_hi < target
                if not short.any():
                    break
                hi = np.where(short, lo + 8.0 * (hi - lo), hi)
                if not np.isfinite(hi).all():
                    raise NumericalFailure(f"{what} target beyond float range")
            else:
                raise NumericalFailure(f"could not bracket the {what}")
            # start at a right end that already meets the tolerance: the loop
            # tests only x, and Newton steps from the left of a convex f
            # overshoot such an end, so it would bisect all the way to it
            x = np.where(np.abs(f_hi - target) <= tol, hi, x)
        for _ in range(200):
            err = f(x) - target
            lo = np.where(err < 0.0, x, lo)
            hi = np.where(err > 0.0, x, hi)
            done = np.abs(err) <= tol
            if done.all():
                return x
            step = x - err / df(x)
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            x = np.where(done, x, step)
        raise NumericalFailure(f"{what} bisection did not reach tolerance")


class ImpactModel:
    """Base class.  A family supplies `_g`, `_h`, `_dh` (= h') and `_h_inverse`.

    Every family is S-shaped in the paper's sense: h does not rise up to the
    threshold and rises without bound above it, so h has an inverse on its
    rising branch.  A constant marginal (linear impact) has no such branch;
    its quasi-block limit is `closed_form.linear_quasi_block`.

    Attributes
    ----------
    threshold : float
        Rate at which the marginal impact switches from falling to rising
        (the concave/convex switch of g).  Zero for purely convex models.
    """

    family = "base"
    threshold = 0.0

    # -- curve evaluation ---------------------------------------------------

    def g(self, x):
        """Log-price decay rate when selling at rate x (x >= 0)."""
        arr = self._rate_array(x, allow_zero=True)
        with np.errstate(over="ignore"):
            return _match(x, self._g(arr))

    def h(self, x):
        """Marginal impact g'(x) for x > 0."""
        arr = self._rate_array(x, allow_zero=False)
        with np.errstate(over="ignore"):
            return _match(x, self._h(arr))

    def excess_impact(self, x):
        """x*h(x) - g(x): how far marginal impact outruns average impact.

        Non-positive at the threshold and strictly increasing above it, so
        excess_impact(rate) = decay has a unique root there; that root is
        the optimal constant liquidation rate (see closed_form.twap_rate).
        """
        arr = self._rate_array(x, allow_zero=False)
        with np.errstate(over="ignore"):
            return _match(x, arr * self._h(arr) - self._g(arr))

    @cached_property
    def marginal_floor(self) -> float:
        """Smallest marginal impact on the rising branch, h(threshold); computed once."""
        if self.threshold > 0.0:
            return float(self._h(np.array([self.threshold]))[0])
        return 0.0

    def h_inverse(self, ybar):
        """Inverse of h on its rising branch: the x >= threshold with h(x) = ybar.

        The family's closed form, or `increasing_root` from its analytic
        bracket, run until |h(x) - ybar| <= 1e-12 * (1 + ybar).
        """
        arr = np.atleast_1d(np.asarray(ybar, dtype=float))
        floor = self.marginal_floor
        if arr.size and not arr.min() >= floor:  # a NaN makes the min NaN and fails
            raise ValueError(f"h_inverse needs ybar >= h(threshold) = {floor}")
        return _match(ybar, self._h_inverse(arr))

    # -- hooks ----------------------------------------------------------------

    def _g(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _h(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dh(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _h_inverse(self, ybar: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- plumbing ---------------------------------------------------------------

    def _rate_array(self, x, allow_zero: bool) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        # one reduction; a NaN makes the min NaN, which fails both tests
        lowest = arr.min() if arr.size else np.inf
        if allow_zero:
            if not lowest >= 0.0:
                raise ValueError("selling rate must be non-negative")
        elif not lowest > 0.0:
            raise ValueError("selling rate must be positive")
        return arr

    def params(self) -> dict:
        """The constructor arguments by name: a dataclass family's init fields, else {}."""
        if not is_dataclass(self):
            return {}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def _check_finite(self):
        bad = sorted(k for k, v in self.params().items() if not np.isfinite(v))
        if bad:
            raise ValueError(f"non-finite {self.family} parameter(s): {bad}")

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


@dataclass(frozen=True, repr=False)
class MixedPowerImpact(ImpactModel):
    """Concave power below the threshold, convex power above.

    g(x) = beta * x**p_concave       for x <= threshold
           alpha * x**p_convex + gamma  above,

    with beta and gamma the unique constants making g continuously
    differentiable at the threshold:

        beta  = (p_convex / p_concave) * alpha * threshold**(p_convex - p_concave)
        gamma = (p_convex / p_concave - 1) * alpha * threshold**p_convex

    threshold = 0 collapses to the pure convex power alpha * x**p_convex.
    """

    alpha: float
    p_convex: float
    p_concave: float
    threshold: float = 0.0
    beta: float = field(init=False)
    gamma: float = field(init=False)

    family = "mixed_power"

    def __post_init__(self):
        self._check_finite()
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.p_convex <= 1.0:
            raise ValueError("convex exponent must exceed 1")
        if not 0.0 < self.p_concave < 1.0:
            raise ValueError("concave exponent must lie in (0, 1)")
        if self.threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        ratio = self.p_convex / self.p_concave
        object.__setattr__(
            self, "beta", ratio * self.alpha * self.threshold ** (self.p_convex - self.p_concave)
        )
        object.__setattr__(
            self, "gamma", (ratio - 1.0) * self.alpha * self.threshold ** self.p_convex
        )

    def _g(self, x):
        out = np.empty_like(x)
        lo = x <= self.threshold
        out[lo] = self.beta * x[lo] ** self.p_concave
        out[~lo] = self.alpha * x[~lo] ** self.p_convex + self.gamma
        return out

    def _h(self, x):
        out = np.empty_like(x)
        lo = x <= self.threshold
        out[lo] = self.beta * self.p_concave * x[lo] ** (self.p_concave - 1.0)
        out[~lo] = self.alpha * self.p_convex * x[~lo] ** (self.p_convex - 1.0)
        return out

    def _dh(self, x):
        out = np.empty_like(x)
        lo = x <= self.threshold
        pc, px = self.p_concave, self.p_convex
        out[lo] = self.beta * pc * (pc - 1.0) * x[lo] ** (pc - 2.0)
        out[~lo] = self.alpha * px * (px - 1.0) * x[~lo] ** (px - 2.0)
        return out

    def _h_inverse(self, ybar):
        x = (ybar / (self.alpha * self.p_convex)) ** (1.0 / (self.p_convex - 1.0))
        return np.maximum(x, self.threshold)


@dataclass(frozen=True, repr=False)
class ShiftedConvexImpact(ImpactModel):
    """Zero impact up to the threshold, then a shifted convex power.

    g(x) = max(x - threshold, 0)**power.  Selling below the threshold is
    free, which makes this the boundary case of the S-shape: the marginal
    is identically zero on the concave side and h(threshold) = 0.
    """

    power: float
    threshold: float

    family = "shifted_convex"

    def __post_init__(self):
        self._check_finite()
        if self.power <= 1.0:
            raise ValueError("power must exceed 1")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")

    def _g(self, x):
        return np.maximum(x - self.threshold, 0.0) ** self.power

    def _h(self, x):
        return self.power * np.maximum(x - self.threshold, 0.0) ** (self.power - 1.0)

    def _dh(self, x):
        p = self.power
        return p * (p - 1.0) * np.maximum(x - self.threshold, 0.0) ** (p - 2.0)

    def _h_inverse(self, ybar):
        return self.threshold + (ybar / self.power) ** (1.0 / (self.power - 1.0))


@dataclass(frozen=True, repr=False)
class QuadraticImpact(ImpactModel):
    """g(x) = alpha0 * x**2, the simplest purely convex case."""

    alpha0: float

    family = "quadratic"

    def __post_init__(self):
        self._check_finite()
        if self.alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")

    def _g(self, x):
        return self.alpha0 * x * x

    def _h(self, x):
        return 2.0 * self.alpha0 * x

    def _dh(self, x):
        return np.full_like(x, 2.0 * self.alpha0)

    def _h_inverse(self, ybar):
        return ybar / (2.0 * self.alpha0)


@dataclass(frozen=True, repr=False)
class LevyEffectiveImpact(ImpactModel):
    """Effective impact of a quadratic base curve under a Gamma random clock.

    g(x) = gamma * alpha0 * x**2 + alpha1 * log(alpha0 * beta1 * x**2 + 1),
    where alpha0 is the base quadratic coefficient and (gamma, alpha1, beta1)
    are the clock's drift, shape rate and scale.  Convexity (and hence the
    rising marginal) requires alpha1 * beta1 <= 8 * gamma, which the
    constructor enforces.
    """

    gamma: float
    alpha0: float
    alpha1: float
    beta1: float

    family = "levy_effective"

    def __post_init__(self):
        self._check_finite()
        for name in ("gamma", "alpha0", "alpha1", "beta1"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.alpha1 * self.beta1 > 8.0 * self.gamma:
            raise ValueError(
                "alpha1 * beta1 must not exceed 8 * gamma (impact would lose convexity)"
            )

    def _g(self, x):
        u = self.alpha0 * self.beta1 * x * x
        return self.gamma * self.alpha0 * x * x + self.alpha1 * np.log1p(u)

    def _h(self, x):
        u = self.alpha0 * self.beta1 * x * x
        return 2.0 * self.gamma * self.alpha0 * x + 2.0 * self.alpha0 * self.alpha1 * self.beta1 * x / (u + 1.0)

    def _dh(self, x):
        u = self.alpha0 * self.beta1 * x * x
        c = 2.0 * self.alpha0 * self.alpha1 * self.beta1
        return 2.0 * self.gamma * self.alpha0 + c * (1.0 - u) / (u + 1.0) ** 2

    def _h_inverse(self, ybar):
        # 2*gamma*alpha0*x <= h(x) <= 2*alpha0*(gamma + alpha1*beta1)*x brackets the root
        slope = 2.0 * self.alpha0 * self.gamma
        lo = ybar / (slope + 2.0 * self.alpha0 * self.alpha1 * self.beta1)
        return increasing_root(self._h, self._dh, ybar, lo, "marginal inverse", hi=ybar / slope)
