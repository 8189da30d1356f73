import dataclasses
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from optexec.closed_form import twap_rate
from optexec.config import build_run_config, impact_from_config
from optexec.errors import ConfigError, NumericalFailure
from optexec.impact import (
    ImpactModel,
    LevyEffectiveImpact,
    MixedPowerImpact,
    QuadraticImpact,
    ShiftedConvexImpact,
)

ALL_INVERTIBLE = [
    QuadraticImpact(1.0),
    MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0),
    MixedPowerImpact(alpha=0.7, p_convex=3.0, p_concave=0.4, threshold=0.5),
    MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0),
    ShiftedConvexImpact(power=3.0, threshold=1.0),
    LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0),
]


def test_mixed_power_matching_constants():
    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    assert m.beta == 4.0
    assert m.gamma == 3.0


def test_mixed_power_zero_threshold_is_pure_power():
    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
    assert m.beta == 0.0
    assert m.gamma == 0.0
    assert m.g(3.0) == pytest.approx(9.0, abs=0.0)


@pytest.mark.parametrize("threshold", [0.25, 1.0, 2.7])
def test_mixed_power_c1_matching_at_threshold(threshold):
    m = MixedPowerImpact(alpha=1.3, p_convex=2.5, p_concave=0.6, threshold=threshold)
    g_concave = m.beta * threshold**m.p_concave
    g_convex = m.alpha * threshold**m.p_convex + m.gamma
    assert g_concave == pytest.approx(g_convex, abs=1e-10)
    h_concave = m.beta * m.p_concave * threshold ** (m.p_concave - 1.0)
    h_convex = m.alpha * m.p_convex * threshold ** (m.p_convex - 1.0)
    assert h_concave == pytest.approx(h_convex, abs=1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0, p_convex=2.0, p_concave=0.5, threshold=1.0),
        dict(alpha=1.0, p_convex=1.0, p_concave=0.5, threshold=1.0),
        dict(alpha=1.0, p_convex=2.0, p_concave=1.0, threshold=1.0),
        dict(alpha=1.0, p_convex=2.0, p_concave=0.0, threshold=1.0),
        dict(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=-0.1),
    ],
)
def test_mixed_power_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        MixedPowerImpact(**kwargs)


def test_curve_values():
    q = QuadraticImpact(1.0)
    assert q.g(0.0) == 0.0
    assert q.h(3.0) == 6.0

    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    assert m.g(2.0) == pytest.approx(7.0, abs=0.0)  # alpha*4 + gamma
    assert m.h(0.25) == pytest.approx(4.0, abs=0.0)  # beta * 0.5 * 0.25**-0.5

    sc = ShiftedConvexImpact(power=3.0, threshold=1.0)
    assert sc.g(0.5) == 0.0
    assert sc.h(0.5) == 0.0
    assert sc.h(1.0) == 0.0  # one-sided derivative at the threshold

    lv = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)
    assert lv.h(1e-9) == pytest.approx(0.0, abs=1e-8)  # marginal vanishes at 0


def test_domain_errors():
    q = QuadraticImpact(1.0)
    with pytest.raises(ValueError):
        q.g(-1.0)
    with pytest.raises(ValueError):
        q.h(0.0)
    with pytest.raises(ValueError):
        q.excess_impact(-2.0)


@pytest.mark.parametrize("curve", ["g", "h", "excess_impact"])
@pytest.mark.parametrize(
    "m",
    [QuadraticImpact(1.0), MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)],
    ids=["quadratic", "mixed_power"],
)
def test_curves_reject_nan_rate(m, curve):
    with pytest.raises(ValueError):
        getattr(m, curve)(float("nan"))
    with pytest.raises(ValueError):
        getattr(m, curve)(np.array([1.0, np.nan]))


def _old_rate_array(x, allow_zero):
    """The element-wise checks the one-reduction checks replaced: the reference."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if allow_zero:
        if not np.all(arr >= 0.0):
            raise ValueError("selling rate must be non-negative")
    elif not np.all(arr > 0.0):
        raise ValueError("selling rate must be positive")
    return arr


def _old_h_inverse_input(m, ybar):
    arr = np.atleast_1d(np.asarray(ybar, dtype=float))
    floor = m.marginal_floor
    if not np.all(arr >= floor):
        raise ValueError(f"h_inverse needs ybar >= h(threshold) = {floor}")
    return arr


def _old_excess_impact(m, x):
    arr = _old_rate_array(x, allow_zero=False)
    return arr * m._h(arr) - m._g(arr)


_OLD_CURVES = {
    "g": lambda m, x: m._g(_old_rate_array(x, allow_zero=True)),
    "h": lambda m, x: m._h(_old_rate_array(x, allow_zero=False)),
    "excess_impact": _old_excess_impact,
    "h_inverse": lambda m, x: m._h_inverse(_old_h_inverse_input(m, x)),
}


def _outcome(fn):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in excess_impact
        try:
            return fn()
        except ValueError as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize(
    "x",
    [0.5, np.array(0.5), np.array([]), float("nan"), np.array([0.5, np.nan]), -1.0, 0.0,
     np.inf, np.array([0.0, 2.0])],
    ids=["scalar", "0d", "empty", "nan", "nan_in_array", "minus_one", "zero", "inf", "zero_in_array"],
)
@pytest.mark.parametrize("curve", sorted(_OLD_CURVES))
@pytest.mark.parametrize(
    "m",
    [QuadraticImpact(1.0), MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)],
    ids=["quadratic", "mixed_power"],
)
def test_input_checks_are_unchanged(m, curve, x):
    got = _outcome(lambda: getattr(m, curve)(x))
    out = _outcome(lambda: _OLD_CURVES[curve](m, x))
    if isinstance(out, tuple):
        assert got == out
    elif np.ndim(x) == 0:
        assert type(got) is float and np.array_equal(got, out[0], equal_nan=True)
    else:
        assert type(got) is np.ndarray and got.shape == out.shape
        assert got.tobytes() == out.tobytes()


@pytest.mark.parametrize("m", ALL_INVERTIBLE)
def test_marginal_floor_is_h_at_threshold_once(m):
    expected = m.h(m.threshold) if m.threshold > 0.0 else 0.0
    assert m.marginal_floor == expected
    # computed on first access and kept on the instance
    assert vars(m)["marginal_floor"] == expected
    assert m.marginal_floor == expected


def test_h_inverse_closed_forms():
    q = QuadraticImpact(1.0)
    assert q.h_inverse(4.0) == 2.0

    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    # value at the branch point is the threshold itself
    assert m.h_inverse(m.h(1.0)) == 1.0
    with pytest.raises(ValueError):
        m.h_inverse(0.5 * m.marginal_floor)

    sc = ShiftedConvexImpact(power=3.0, threshold=1.0)
    assert sc.h_inverse(0.0) == 1.0


@pytest.mark.parametrize(
    "m",
    [QuadraticImpact(1.0), LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)],
    ids=["quadratic", "levy"],
)
def test_h_inverse_rejects_nan(m):
    # a closed form would return nan silently, the iteration would exhaust its budget
    with pytest.raises(ValueError):
        m.h_inverse(float("nan"))
    with pytest.raises(ValueError):
        m.h_inverse(np.array([1.0, np.nan]))


def test_h_inverse_cubic_residual():
    lv = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)
    for ybar in (0.3, 5.0, 120.0):
        x = lv.h_inverse(ybar)
        assert abs(lv.h(x) - ybar) <= 1e-12 * (1.0 + ybar)


def _within_inverse_tol(m, x, ybar):
    return np.all(np.abs(m.h(x) - ybar) <= 1e-12 * (1.0 + ybar))


@pytest.mark.parametrize(
    "lv",
    [
        LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=2.0),
        # convexity boundary alpha1 * beta1 == 8 * gamma: h' touches 0 at alpha0*beta1*x**2 = 3
        LevyEffectiveImpact(gamma=0.5, alpha0=3.0, alpha1=2.0, beta1=2.0),
    ],
)
def test_h_inverse_cubic_meets_tolerance(lv):
    ybar = np.logspace(-14, 8, 2000)
    assert _within_inverse_tol(lv, lv.h_inverse(ybar), ybar)
    x_flat = np.sqrt(3.0 / (lv.alpha0 * lv.beta1))
    y_flat = lv.h(x_flat)
    ybar = y_flat * (1.0 + np.linspace(-1e-3, 1e-3, 201))
    assert _within_inverse_tol(lv, lv.h_inverse(ybar), ybar)


_EXTREME_YBAR = np.concatenate(([0.0, 5e-324, 1e-300], np.logspace(-14, 8), [1e60, 1e200, 1e300]))


_LEVY_PARAMS = pytest.mark.parametrize(
    "params",
    [(1.0, 1.0, 2.0, 2.0), (0.5, 3.0, 2.0, 2.0), (0.3, 2.0, 0.7, 1.5)],
    ids=["levy", "convexity_boundary", "levy_mild"],
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_LEVY_PARAMS
def test_h_inverse_closed_form_over_the_float_range(params):
    # the cubic's root meets the tolerance from 0 through subnormal and huge
    # targets, and agrees with a per-target brentq root: h(x) >= k*x with
    # k = 2*gamma*alpha0, so [0, 2*ybar/k] brackets it
    lv = LevyEffectiveImpact(*params)
    ybar = _EXTREME_YBAR
    tol = 1e-12 * (1.0 + ybar)
    x = lv.h_inverse(ybar)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    k = 2.0 * lv.gamma * lv.alpha0
    with np.errstate(over="ignore"):
        assert np.all(np.abs(lv._h(x) - ybar) <= tol)
        oracle = [
            brentq(lambda v, y=y: lv._h(np.array([v]))[0] - y, 0.0, 2.0 * y / k, xtol=1e-300)
            if y > 0.0 else 0.0
            for y in ybar
        ]
    assert np.all(np.abs(x - oracle) <= tol)
    try:
        top = lv.h_inverse(1.7e308)
    except NumericalFailure:
        return
    assert math.isfinite(top)
    with np.errstate(over="ignore"):
        assert abs(lv._h(np.array([top]))[0] - 1.7e308) <= 1e-12 * (1.0 + 1.7e308)


def _decimal_h_root(params, ybar):
    """The root of the Gamma-clock h(x) = ybar to about 45 digits: a stdlib-decimal
    bisection on [ybar/(k + c), 2*ybar/k], which brackets it since k*x <= h(x) <= (k + c)*x
    with k = 2*gamma*alpha0 and c = 2*alpha0*alpha1*beta1."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        gamma, alpha0, alpha1, beta1 = (Decimal(v) for v in params)
        y = Decimal(ybar)
        k, c, ab = 2 * gamma * alpha0, 2 * alpha0 * alpha1 * beta1, alpha0 * beta1
        lo, hi = y / (k + c), 2 * y / k
        for _ in range(160):
            mid = (lo + hi) / 2
            if k * mid + c * mid / (ab * mid * mid + 1) < y:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@_LEVY_PARAMS
def test_h_inverse_stays_within_8_ulps_of_the_root(params):
    # the Cardano root against a 45-digit reference root over the float range of
    # targets (4 ulps at worst here, 7.1 near the convexity boundary's flat point)
    lv = LevyEffectiveImpact(*params)
    x = lv.h_inverse(_EXTREME_YBAR)
    for xi, y in zip(x, _EXTREME_YBAR):
        root = _decimal_h_root(params, y)
        assert abs(Decimal(xi) - root) <= 8 * Decimal(math.ulp(float(root))), y


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_clock_marginal_and_its_slope_stay_finite_at_huge_rates():
    # alpha0*beta1*x**2 overflows from x ~ 1e154; h and h' then tend to their
    # convex parts 2*gamma*alpha0*x and 2*gamma*alpha0 instead of turning NaN
    lv = LevyEffectiveImpact(1.0, 1.0, 2.0, 2.0)
    assert lv.h(8.5e307) == pytest.approx(1.7e308, rel=1e-15)
    assert lv.h(1e200) == pytest.approx(2e200, rel=1e-15)
    with np.errstate(over="ignore"):  # the hooks run under their callers' errstate
        assert np.all(lv._dh(np.array([1.4e154, 1e200, 8.5e307])) == 2.0)
    # x = 0 gives 0 and the largest slope 2*gamma*alpha0 + 2*alpha0*alpha1*beta1
    assert lv._h(np.array([0.0]))[0] == 0.0 and lv._dh(np.array([0.0]))[0] == 10.0
    # where the displayed fractions do not overflow, both forms agree to rounding
    x = np.logspace(-3.0, 50.0, 2001)
    u = 2.0 * x * x
    assert np.allclose(lv._h(x), 2.0 * x + 8.0 * x / (u + 1.0), rtol=1e-15, atol=0.0)
    assert np.allclose(lv._dh(x), 2.0 + 8.0 * (1.0 - u) / (u + 1.0) ** 2, rtol=1e-15, atol=0.0)


def test_h_inverse_near_a_triple_root():
    # at alpha1 * beta1 = 8 * gamma the cubic has a triple root where h' = 0;
    # the targets one ulp apart around h(flat point) must meet the tolerance.
    # With round parameters Cardano's depressed cubic can vanish exactly.
    rng = np.random.default_rng(0)
    models = [LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=4.0)]
    for gamma, alpha0, alpha1 in np.exp(rng.uniform(-3.0, 3.0, (40, 3))):
        models.append(LevyEffectiveImpact(gamma, alpha0, alpha1, 8.0 * gamma / alpha1 * (1.0 - 1e-15)))
    for lv in models:
        y_flat = lv.h(np.sqrt(3.0 / (lv.alpha0 * lv.beta1)))
        ybar = y_flat + np.arange(-50, 51) * np.spacing(y_flat)
        assert _within_inverse_tol(lv, lv.h_inverse(ybar), ybar)


class _NoDerivative(ImpactModel):
    """g(x) = x**2 + x**4 with a NaN h', as pure power's h'(0) = 0*inf is: the
    TWAP-rate root must fall back to the bracket midpoint."""

    family = "no_derivative"

    def _g(self, x):
        return x**2 + x**4

    def _h(self, x):
        return 2.0 * x + 4.0 * x**3

    def _dh(self, x):
        return np.full_like(x, np.nan)


def test_twap_rate_falls_back_to_the_midpoint_without_derivative():
    m = _NoDerivative()
    for decay in np.logspace(-10, 6, 60):
        rate = twap_rate(m, decay)
        assert rate > 0.0 and abs(m.excess_impact(rate) - decay) <= 1e-12 * (1.0 + decay)


class _Kinked(ImpactModel):
    """h rises steeply near x = 5 and is nearly flat elsewhere, so unguarded
    Newton steps on the excess overshoot and cycle; the grown bracket must
    catch them.  g is h's integral from 0."""

    family = "kinked"

    def _g(self, x):
        u = x - 5.0
        g_atan = u * np.arctan(u) - 0.5 * np.log1p(u * u) - 5.0 * np.arctan(5.0) + 0.5 * math.log(26.0)
        return 5e-4 * x * x + g_atan + x * np.arctan(5.0)

    def _h(self, x):
        return 1e-3 * x + np.arctan(x - 5.0) + np.arctan(5.0)

    def _dh(self, x):
        return 1e-3 + 1.0 / (1.0 + (x - 5.0) ** 2)


def test_twap_rate_bracket_catches_newton_overshoot():
    m = _Kinked()
    for decay in np.linspace(0.01, 14.0, 200):
        rate = twap_rate(m, decay)
        assert abs(m.excess_impact(rate) - decay) <= 1e-12 * (1.0 + decay)


class _NaNInside(ImpactModel):
    """g(x) = x**2 with a NaN marginal on (0.5, 2), where the excess x**2 = 1 has its root."""

    family = "nan_inside"

    def _g(self, x):
        return x * x

    def _h(self, x):
        return np.where((x > 0.5) & (x < 2.0), np.nan, 2.0 * x)

    def _dh(self, x):
        return np.full_like(x, 2.0)


def test_twap_rate_raises_on_a_nan_excess_inside_the_bracket():
    with pytest.raises(NumericalFailure, match="NaN"):
        twap_rate(_NaNInside(), 1.0)


def test_twap_rate_raises_when_the_bracket_leaves_the_float_range():
    # power 1.0001: the excess is about 1e-4 * x**1.0001, below 1e305 at every float x
    with pytest.raises(NumericalFailure, match="beyond float range"):
        twap_rate(ShiftedConvexImpact(1.0001, 1.0), 1e305)


def test_levy_h_inverse_raises_at_an_infinite_marginal():
    # at ybar = inf the cubic's scaled coefficients are NaN (inf/inf), so no root meets the tolerance
    with pytest.raises(NumericalFailure, match="float range"):
        LevyEffectiveImpact(1.0, 1.0, 2.0, 2.0).h_inverse(math.inf)


def test_h_inverse_evaluation_count():
    # the closed form evaluates h once per call, for its tolerance check, and
    # h' never; this pins the per-call cost
    lv = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=2.0)
    plain_h, plain_dh = lv._h, lv._dh
    calls, dh_calls = [], []

    def counting_h(x):
        calls.append(x.size)
        return plain_h(x)

    def counting_dh(x):
        dh_calls.append(x.size)
        return plain_dh(x)

    object.__setattr__(lv, "_h", counting_h)
    object.__setattr__(lv, "_dh", counting_dh)
    ratio = np.geomspace(0.05, 500.0, 151)
    x = lv.h_inverse(ratio)
    assert calls == [ratio.size] and dh_calls == []
    assert _within_inverse_tol(lv, x, ratio)


def _counted_twap_rate(model, decay):
    """twap_rate(model, decay) and the number of `_h` evaluations it made."""
    plain_h = model._h
    calls = []

    def counting_h(x):
        calls.append(x.size)
        return plain_h(x)

    object.__setattr__(model, "_h", counting_h)
    try:
        return twap_rate(model, decay), len(calls)
    finally:
        object.__setattr__(model, "_h", plain_h)


_TWAP_DECAYS = (1e-4, 0.04, 0.5, 2.0, 30.0)


@pytest.mark.parametrize("model", ALL_INVERTIBLE, ids=repr)
def test_twap_rate_evaluation_count(model):
    # every family has a closed-form h', so the TWAP-rate root takes Newton
    # steps: 6-14 evaluations of h (bracket growth included) on these decays,
    # where bisection needed 34-45
    for decay in _TWAP_DECAYS:
        rate, calls = _counted_twap_rate(model, decay)
        assert abs(model.excess_impact(rate) - decay) <= 1e-12 * (1.0 + decay)
        assert 0 < calls <= 16


_PURE_POWER_TWAP = [
    ("0.010000000025438577", 12),
    ("0.20000000000067114", 8),
    ("0.7071067811873449", 7),
    ("1.4142135623730951", 10),
    ("5.477225575052992", 8),
]
# (repr(rate), h evaluations) at _TWAP_DECAYS: any change to the iteration's
# float operations or its steps shows here
_TWAP_GOLDEN = {
    "QuadraticImpact(alpha0=1)": _PURE_POWER_TWAP,
    "MixedPowerImpact(alpha=1, p_convex=2, p_concave=0.5, threshold=1)": [
        ("1.732079674841778", 7),
        ("1.7435595774162693", 7),
        ("1.8708286933869722", 7),
        ("2.236067977499978", 9),
        ("5.744562646538029", 8),
    ],
    "MixedPowerImpact(alpha=0.7, p_convex=3, p_concave=0.4, threshold=0.5)": [
        ("0.7406674210939191", 8),
        ("0.7575947902866247", 8),
        ("0.9139365179679018", 7),
        ("1.224234463484758", 8),
        ("2.795009026805393", 10),
    ],
    "MixedPowerImpact(alpha=1, p_convex=2, p_concave=0.5, threshold=0)": _PURE_POWER_TWAP,
    "ShiftedConvexImpact(power=3, threshold=1)": [
        ("1.0057624447121951", 14),
        ("1.1114069740398624", 10),
        ("1.3660254037844386", 8),
        ("1.6776506988040598", 8),
        ("3.054317330590461", 10),
    ],
    "LevyEffectiveImpact(gamma=1, alpha0=1, alpha1=1, beta1=1)": [
        ("0.007071200395721897", 13),
        ("0.14248617437508093", 9),
        ("0.5482554916439423", 6),
        ("1.3182009874878355", 10),
        ("5.616408969631276", 9),
    ],
}


@pytest.mark.parametrize("model", ALL_INVERTIBLE, ids=repr)
def test_twap_rate_golden_bits(model):
    got = []
    for decay in _TWAP_DECAYS:
        rate, calls = _counted_twap_rate(model, decay)
        got.append((repr(rate), calls))
    assert got == _TWAP_GOLDEN[repr(model)]


@pytest.mark.parametrize("decay, most", [(0.04, 8), (1.0, 10), (30.0, 8)])
def test_twap_rate_accepts_bracket_end_root(decay, most):
    # at decay 1 the root of x**2 = decay is the first grown bracket end,
    # hi = threshold + 1 = 1; testing only x, the root finder used to bisect
    # all the way to it (42 evaluations of h) against 8 at the other decays
    model = QuadraticImpact(1.0)
    rate, calls = _counted_twap_rate(model, decay)
    assert 0 < calls <= most
    assert abs(model.excess_impact(rate) - decay) <= 1e-12 * (1.0 + decay)


def test_excess_impact_values():
    q = QuadraticImpact(1.0)
    assert q.excess_impact(0.5) == pytest.approx(0.25, abs=0.0)
    sc = ShiftedConvexImpact(power=3.0, threshold=1.0)
    assert sc.excess_impact(1.0) == 0.0


def test_excess_nonpositive_at_threshold():
    for m in ALL_INVERTIBLE:
        if m.threshold > 0.0:
            assert m.excess_impact(m.threshold) <= 0.0


@given(
    lo=st.floats(min_value=0.01, max_value=5.0),
    gap=st.floats(min_value=1e-3, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_excess_growth_inequality(lo, gap):
    # for x > y > threshold: excess(x) - excess(y) >= (h(x) - h(y)) * y > 0
    for m in ALL_INVERTIBLE:
        y = m.threshold + lo
        x = y + gap
        lhs = m.excess_impact(x) - m.excess_impact(y)
        rhs = (m.h(x) - m.h(y)) * y
        assert lhs >= rhs - 1e-10 * (1.0 + abs(rhs))
        assert lhs > 0.0


@given(x=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=80, deadline=None)
def test_h_inverse_roundtrip(x):
    for m in ALL_INVERTIBLE:
        xq = m.threshold + x
        back = m.h_inverse(m.h(xq))
        assert back == pytest.approx(xq, rel=1e-10, abs=1e-10)


@given(x=st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_marginal_matches_finite_difference(x):
    for m in ALL_INVERTIBLE:
        span_lo = m.threshold / 2.0 if m.threshold > 0 else 0.05
        xq = span_lo + x * (10.0 * m.threshold + 10.0 - span_lo) / 30.0
        step = 1e-7 * max(xq, 1.0)
        fd = (m.g(xq + step) - m.g(xq - step)) / (2.0 * step)
        assert m.h(xq) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@given(x=st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_marginal_derivative_matches_finite_difference(x):
    with_dh = [m for m in ALL_INVERTIBLE if type(m)._dh is not ImpactModel._dh]
    assert with_dh
    for m in with_dh:
        span_lo = m.threshold / 2.0 if m.threshold > 0 else 0.05
        xq = span_lo + x * (10.0 * m.threshold + 10.0 - span_lo) / 30.0
        step = 1e-6 * max(xq, 1.0)
        fd = (m.h(xq + step) - m.h(xq - step)) / (2.0 * step)
        assert m._dh(np.array([xq]))[0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_levy_effective_convexity():
    lv = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)
    xs = np.linspace(0.01, 10.0, 400)
    step = 1e-4
    second = (lv.g(xs + step) - 2.0 * lv.g(xs) + lv.g(xs - step)) / step**2
    assert (second >= -1e-9).all()


@pytest.mark.parametrize(
    "model, params, message",
    [
        (ShiftedConvexImpact, dict(power=1.0, threshold=1.0), "power must exceed 1"),
        (ShiftedConvexImpact, dict(power=2.0, threshold=0.0), "threshold must be positive"),
        (QuadraticImpact, dict(alpha0=0.0), "alpha0 must be positive"),
        (LevyEffectiveImpact, dict(gamma=1.0, alpha0=1.0, alpha1=-1.0, beta1=1.0), "alpha1 must be positive"),
    ],
    ids=["shifted-power", "shifted-threshold", "quadratic-alpha0", "levy-alpha1"],
)
def test_constructors_reject_out_of_range_parameters(model, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        model(**params)


def test_levy_effective_rejects_nonconvex_parameters():
    with pytest.raises(ValueError):
        LevyEffectiveImpact(gamma=0.1, alpha0=1.0, alpha1=1.0, beta1=1.0)


def test_small_trade_cost_vanishes():
    for m in ALL_INVERTIBLE:
        x = 1e-8
        assert x * m.h(x) < 1e-2


SHAPE_GRID = np.logspace(-6.0, 3.0, 512)


def _shape_conditions(m):
    """The S-shape conditions on SHAPE_GRID, as (nonneg, v_shaped_marginal, diverging_marginal).

    nonneg: g(0) = 0, g non-decreasing and h >= 0.  v_shaped_marginal: h
    non-increasing up to the threshold and strictly increasing above it.
    diverging_marginal: h still growing along the tail of the grid.
    """
    g, h = m.g(SHAPE_GRID), m.h(SHAPE_GRID)
    nonneg = (
        m.g(0.0) == 0.0
        and np.all(h >= -1e-12)
        and np.all(np.diff(g) >= -1e-12 * (1.0 + np.abs(g[:-1])))
    )
    below = SHAPE_GRID <= m.threshold
    h_below, h_above = h[below], h[~below]
    v_shaped = np.all(np.diff(h_below) <= 1e-12 * (1.0 + np.abs(h_below[:-1]))) and np.all(
        np.diff(h_above) > 0.0
    )
    diverging = h_above[-1] > h_above[h_above.size // 2]
    return bool(nonneg), bool(v_shaped), bool(diverging)


@pytest.mark.parametrize("m", ALL_INVERTIBLE, ids=repr)
def test_s_shape_conditions(m):
    # the small-trade condition is test_small_trade_cost_vanishes
    assert _shape_conditions(m) == (True, True, True)
    if m.threshold > 0.0:
        # the marginal's minimum reaches the threshold (the boundary family's h is 0 up to it)
        h = m.h(SHAPE_GRID)
        assert SHAPE_GRID[h == h.min()].max() == pytest.approx(m.threshold, rel=0.05)


class _ConstantMarginal(ImpactModel):
    """g(x) = 2x: linear impact, which no family of the library models."""

    def _g(self, x):
        return 2.0 * x

    def _h(self, x):
        return np.full_like(x, 2.0)


def test_constant_marginal_is_not_s_shaped():
    # the negative control: a constant marginal is neither strictly increasing nor divergent
    assert _shape_conditions(_ConstantMarginal()) == (True, False, False)


def test_repr_of_a_subclass_that_is_not_a_dataclass():
    assert repr(_ConstantMarginal()) == "_ConstantMarginal()"
    assert _ConstantMarginal().params() == {}


def test_vectorized_evaluation_matches_scalar():
    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    xs = np.array([0.2, 1.0, 3.5])
    assert np.array_equal(m.g(xs), np.array([m.g(float(v)) for v in xs]))
    assert np.array_equal(m.h(xs), np.array([m.h(float(v)) for v in xs]))


# each family's model with its [impact] manifest strings, in manifest key order
MANIFEST_IMPACT = [
    (QuadraticImpact(1.0), {"family": "quadratic", "alpha0": "1.0"}),
    (
        MixedPowerImpact(alpha=0.7, p_convex=3.0, p_concave=0.4, threshold=0.5),
        {
            "family": "mixed_power",
            "alpha": "0.7",
            "p_convex": "3.0",
            "p_concave": "0.4",
            "threshold": "0.5",
        },
    ),
    (
        ShiftedConvexImpact(power=3.0, threshold=1.0),
        {"family": "shifted_convex", "power": "3.0", "threshold": "1.0"},
    ),
    (
        LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0),
        {"family": "levy_effective", "gamma": "1.0", "alpha0": "1.0", "alpha1": "1.0", "beta1": "1.0"},
    ),
]


def test_config_round_trip():
    zero_threshold = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5)
    zero_strings = {
        "family": "mixed_power",
        "alpha": "1.0",
        "p_convex": "2.0",
        "p_concave": "0.5",
        "threshold": "0.0",
    }
    for model, strings in MANIFEST_IMPACT + [(zero_threshold, zero_strings)]:
        cfg = build_run_config({"impact": strings})
        assert type(cfg.model) is type(model)
        assert cfg.model.params() == model.params()
        assert list(cfg.resolved["impact"].items()) == list(strings.items())


@pytest.mark.parametrize("model, strings", MANIFEST_IMPACT, ids=[m.family for m, _ in MANIFEST_IMPACT])
def test_config_round_trip_of_numpy_scalars(model, strings):
    held = type(model)(**{k: np.float64(v) for k, v in model.params().items()})
    cfg = dataclasses.replace(build_run_config({"impact": strings}), model=held)
    assert cfg.resolved["impact"] == strings
    back = build_run_config({"impact": cfg.resolved["impact"]}).model
    assert type(back) is type(model)
    assert back.params() == held.params() == model.params()


def test_config_rejects_unknown():
    with pytest.raises(ConfigError, match=r"\[impact\] family = 'cubic': choose from"):
        impact_from_config({"family": "cubic"})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[impact\]: \['zeta'\]"):
        impact_from_config({"family": "quadratic", "alpha0": "1.0", "zeta": "2"})
    with pytest.raises(ConfigError, match=r"\[impact\] family = None: choose from"):
        impact_from_config({"alpha0": "1.0"})
    with pytest.raises(ConfigError, match=r"\[impact\] missing key\(s\): \['p_concave'\]"):
        impact_from_config({"family": "mixed_power", "alpha": "1", "p_convex": "2"})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("model", [m for m, _ in MANIFEST_IMPACT], ids=lambda m: m.family)
def test_constructors_reject_non_finite_parameters(model, bad):
    for name in model.params():
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
            type(model)(**{**model.params(), name: bad})
