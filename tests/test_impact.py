import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optexec.config import build_run_config, impact_from_config
from optexec.errors import ConfigError
from optexec.impact import (
    ImpactModel,
    LevyEffectiveImpact,
    MixedPowerImpact,
    QuadraticImpact,
    ShiftedConvexImpact,
    increasing_root,
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


def test_h_inverse_bisection_residual():
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
def test_h_inverse_newton_meets_tolerance(lv):
    ybar = np.logspace(-14, 8, 2000)
    assert _within_inverse_tol(lv, lv.h_inverse(ybar), ybar)
    x_flat = np.sqrt(3.0 / (lv.alpha0 * lv.beta1))
    y_flat = lv.h(x_flat)
    ybar = y_flat * (1.0 + np.linspace(-1e-3, 1e-3, 201))
    assert _within_inverse_tol(lv, lv.h_inverse(ybar), ybar)


class _NoDerivative(ImpactModel):
    """g(x) = x**2 + x**4 with only `_g`/`_h`: a NaN derivative makes the root bisect."""

    family = "no_derivative"

    def _g(self, x):
        return x**2 + x**4

    def _h(self, x):
        return 2.0 * x + 4.0 * x**3


def test_h_inverse_bisection_fallback_without_derivative():
    m = _NoDerivative()
    ybar = np.logspace(-10, 6, 300)
    x = increasing_root(m._h, lambda x: np.full_like(x, np.nan), ybar, 0.0, "marginal inverse")
    assert _within_inverse_tol(m, x, ybar)
    assert np.all(x > 0.0)


class _Kinked(ImpactModel):
    """h rises steeply near x = 5 and is nearly flat elsewhere, so unguarded
    Newton steps from 0 overshoot and cycle; the grown bracket must catch them."""

    family = "kinked"

    def _h(self, x):
        return 1e-3 * x + np.arctan(x - 5.0) + np.arctan(5.0)

    def _dh(self, x):
        return 1e-3 + 1.0 / (1.0 + (x - 5.0) ** 2)


def test_h_inverse_bracket_catches_newton_overshoot():
    m = _Kinked()
    ybar = np.linspace(0.01, 4.0, 200)
    x = increasing_root(m._h, m._dh, ybar, 0.0, "marginal inverse")
    assert _within_inverse_tol(m, x, ybar)


def test_h_inverse_evaluation_count():
    # Newton from the analytic bracket needs 6 evaluations of h on this
    # vector, where bisection to the same tolerance needed about 44; this
    # pins the per-call cost.
    lv = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=2.0, beta1=2.0)
    plain_h = lv._h
    calls = []

    def counting_h(x):
        calls.append(x.size)
        return plain_h(x)

    object.__setattr__(lv, "_h", counting_h)
    ratio = np.geomspace(0.05, 500.0, 151)
    x = lv.h_inverse(ratio)
    assert _within_inverse_tol(lv, x, ratio)
    assert 0 < len(calls) <= 12


@pytest.mark.parametrize("model", ALL_INVERTIBLE, ids=repr)
def test_twap_rate_evaluation_count(model):
    # every family has a closed-form h', so the TWAP-rate root takes Newton
    # steps: 6-14 evaluations of h (bracket growth included) on these decays,
    # where bisection needed 34-45
    from optexec.closed_form import twap_rate

    plain_h = model._h
    for decay in (1e-4, 0.04, 0.5, 2.0, 30.0):
        calls = []

        def counting_h(x):
            calls.append(x.size)
            return plain_h(x)

        object.__setattr__(model, "_h", counting_h)
        try:
            rate = twap_rate(model, decay)
        finally:
            object.__setattr__(model, "_h", plain_h)
        assert abs(model.excess_impact(rate) - decay) <= 1e-12 * (1.0 + decay)
        assert 0 < len(calls) <= 16


@pytest.mark.parametrize("decay, most", [(0.04, 8), (1.0, 10), (30.0, 8)])
def test_twap_rate_accepts_bracket_end_root(decay, most):
    # at decay 1 the root of x**2 = decay is the first grown bracket end,
    # hi = threshold + 1 = 1; testing only x, the root finder used to bisect
    # all the way to it (42 evaluations of h) against 8 at the other decays
    from optexec.closed_form import twap_rate

    model = QuadraticImpact(1.0)
    plain_h = model._h
    calls = []

    def counting_h(x):
        calls.append(x.size)
        return plain_h(x)

    object.__setattr__(model, "_h", counting_h)
    rate = twap_rate(model, decay)
    assert 0 < len(calls) <= most
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
        match = rf"non-finite {model.family} parameter\(s\): \['{name}'\]"
        with pytest.raises(ValueError, match=match):
            type(model)(**{**model.params(), name: bad})
