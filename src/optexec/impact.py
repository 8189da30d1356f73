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

from .errors import NumericalFailure, require_finite

__all__ = [
    "ImpactModel",
    "MixedPowerImpact",
    "ShiftedConvexImpact",
    "QuadraticImpact",
    "LevyEffectiveImpact",
]

_INVERSE_RTOL = 1e-12
_TINY = np.finfo(float).tiny


def _match(x, out: np.ndarray):
    """Return a float for scalar input, the array otherwise."""
    return float(out[0]) if np.ndim(x) == 0 else out


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
            return _match(x, self._excess(arr))

    @cached_property
    def marginal_floor(self) -> float:
        """Smallest marginal impact on the rising branch, h(threshold); computed once."""
        if self.threshold > 0.0:
            return float(self._h(np.array([self.threshold]))[0])
        return 0.0

    def h_inverse(self, ybar):
        """Inverse of h on its rising branch: the x >= threshold with h(x) = ybar.

        Every family has a closed form; the Gamma-clock one (a cubic's real
        root) meets |h(x) - ybar| <= 1e-12 * (1 + ybar) or raises
        NumericalFailure.
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

    def _excess(self, x: np.ndarray) -> np.ndarray:
        """x*h(x) - g(x), the TWAP equation's left side, from the `_h` and `_g` hooks."""
        return x * self._h(x) - self._g(x)

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
        require_finite(**self.params())
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
        require_finite(**self.params())
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
        require_finite(**self.params())
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
        require_finite(**self.params())
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
        # c*(x/(u + 1)), not c*x/(u + 1): once u overflows to inf the fraction is 0,
        # where c*x/inf would be inf/inf = NaN for the largest x
        u = self.alpha0 * self.beta1 * x * x
        return 2.0 * self.gamma * self.alpha0 * x + 2.0 * self.alpha0 * self.alpha1 * self.beta1 * (x / (u + 1.0))

    def _dh(self, x):
        # (1 - u)/(u + 1)**2 = p*(2p - 1) with p = 1/(u + 1), which is 0, not NaN,
        # where u overflows (x above about 1e154)
        p = 1.0 / (self.alpha0 * self.beta1 * x * x + 1.0)
        c = 2.0 * self.alpha0 * self.alpha1 * self.beta1
        return 2.0 * self.gamma * self.alpha0 + c * p * (2.0 * p - 1.0)

    def _h_inverse(self, ybar):
        # Times alpha0*beta1*x**2 + 1 > 0, h(x) = ybar is the cubic
        # (k*x - ybar)*(alpha0*beta1*x**2 + 1) + 2*alpha0*alpha1*beta1*x = 0, with
        # k = 2*gamma*alpha0.  h' >= 0 leaves it one real root (a triple one where h'
        # touches 0).  In z = x/s, s = max(ybar/k, 1), the cubic is
        # z**3 + b*z**2 + c*z + d = 0 with coefficients bounded for every ybar.
        k = 2.0 * self.gamma * self.alpha0
        ab = self.alpha0 * self.beta1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = ybar / k
            s = np.maximum(r, 1.0)
            s2 = s * s
            b3 = r / s / -3.0  # b/3
            c = (self.gamma + self.alpha1 * self.beta1) / (self.gamma * ab) / s2
            d = 3.0 * b3 / (ab * s2)
            # Cardano on t**3 + 3*p3*t - 2*hq = 0, z = t - b/3; hq**2 + p3**3 stays
            # accurate where p3 and hq vanish (near a triple root).  With
            # w**3 = hq + sign(hq)*sqrt(hq**2 + p3**3), the root t = w - p3/w is taken
            # as 2*hq / (w**2 + p3 + (p3/w)**2), which does not cancel and needs only
            # |w|; that denominator is NaN only at an exact triple root, where hq = 0
            # makes t = 0.
            bb = b3 * b3
            p3 = c / 3.0 - bb
            hq = 0.5 * (b3 * (c - 2.0 * bb) - d)
            w = (np.abs(hq) + np.sqrt(np.maximum(hq * hq + p3 * p3 * p3, 0.0))) ** (1.0 / 3.0)
            v = p3 / w
            x = s * (2.0 * hq / np.fmax(w * w + v * v + p3, _TINY) - b3)
            if not (np.abs(self._h(x) - ybar) <= _INVERSE_RTOL * (1.0 + ybar)).all():  # NaN fails too
                raise NumericalFailure("marginal inverse missed its tolerance or the float range")
            return x
