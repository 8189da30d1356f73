import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optexec.closed_form import (
    MarketParams,
    Schedule,
    _large_inventory_integral,
    extreme_comparison,
    linear_quasi_block,
    mixed_power_solution,
    proceeds_factor,
    twap_rate,
    twap_solution,
)
from optexec.errors import HypothesisViolation, NumericalFailure
from optexec.impact import (
    LevyEffectiveImpact,
    MixedPowerImpact,
    QuadraticImpact,
    ShiftedConvexImpact,
)

QUAD = QuadraticImpact(1.0)
MIXED = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
SHIFTED = ShiftedConvexImpact(power=3.0, threshold=1.0)
LEVY = LevyEffectiveImpact(gamma=1.0, alpha0=1.0, alpha1=1.0, beta1=1.0)

# independent root of the hand-expanded shifted-convex excess
# (v-1)^2 * (2v+1) = 0.05, scipy.optimize.brentq at machine tolerance
SHIFTED_RATE_005 = 1.124070233912695
# independent root of the displayed effective-rate equation at unit
# parameters and decay 0.1 (scipy.optimize.brentq)
LEVY_RATE_01 = 0.22783872846490094
# composite Gauss-Legendre oracles for the integral of u**(-s)/(1-u) over
# [0, z], which is I(-log(1 - z)) at the same s
BETA_HALF_15_2 = 1.7627471740390865  # z = 1/2, s = 1/2: 2*artanh(sqrt(0.5))
BETA_03_125_2 = 0.6270772138771548  # z = 0.3, s = 1/4
LN2 = math.log(2.0)


def _p2_integral(w):
    """I(w) at s = 1/2 (p = 2), exactly: w + 2*log1p(sqrt(z)) with z = 1 - exp(-w)."""
    return w + 2.0 * math.log1p(math.sqrt(-math.expm1(-w)))


def _alg_weight_quadrature(w, s):
    """I(w) as the integral of u**(-s)/(1-u) over [0, z], by QUADPACK's algebraic weight."""
    from scipy.integrate import quad

    val, _ = quad(lambda u: 1.0 / (1.0 - u), 0.0, -math.expm1(-w), weight="alg", wvar=(-s, 0.0))
    return val


class TestMarketParams:
    def test_identity_exact(self):
        m = MarketParams.from_drift_vol(-0.085, 0.3)
        assert m.mu + 0.5 * m.sigma**2 + m.decay == 0.0
        assert m.decay == pytest.approx(0.04, abs=1e-15)

    def test_from_decay(self):
        m = MarketParams.from_decay(0.04)
        assert m.decay == 0.04
        assert m.sigma == 0.0
        assert m.mu == -0.04

    def test_rejects_inconsistent_storage(self):
        with pytest.raises(ValueError):
            MarketParams(mu=0.0, sigma=0.1, decay=0.0)
        with pytest.raises(ValueError):
            MarketParams(mu=0.0, sigma=-0.1, decay=-0.005)


class TestTwapRate:
    def test_quadratic(self):
        assert twap_rate(QUAD, 0.04) == pytest.approx(0.2, abs=1e-10)

    def test_mixed_power_matches_power_formula(self):
        rate = twap_rate(MIXED, 0.05)
        formula = math.sqrt((0.05 + MIXED.gamma) / MIXED.alpha)
        assert rate == pytest.approx(formula, abs=1e-10)

    def test_shifted_convex_against_brentq_oracle(self):
        assert twap_rate(SHIFTED, 0.05) == pytest.approx(SHIFTED_RATE_005, abs=1e-9)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            twap_rate(QUAD, 0.0)

    def test_rejects_nan_decay(self):
        with pytest.raises(ValueError, match="needs a positive decay rate"):
            twap_rate(QUAD, math.nan)

    @given(decay=st.floats(min_value=1e-4, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_residual_bound_and_threshold_gap(self, decay):
        for m in (QUAD, MIXED, SHIFTED, LEVY):
            r = twap_rate(m, decay)
            assert abs(m.excess_impact(r) - decay) <= 1e-12 * (1.0 + decay)
            assert r > m.threshold


class TestTwapSolution:
    def test_benchmark_value(self):
        sol = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)
        target = 100.0 * (1.0 - math.exp(-0.4 * 0.1)) / 0.4
        assert sol.value == pytest.approx(target, rel=1e-12)
        assert sol.value == pytest.approx(9.8026402, abs=1e-6)
        assert sol.rate == pytest.approx(0.2, abs=1e-10)

    def test_schedule_shape(self):
        sol = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)
        t, r = sol.schedule.sample(100)
        assert np.all(r[t < 0.5 - 1e-9] == sol.rate)
        assert np.all(r[t >= 0.5] == 0.0)
        assert sol.schedule.total == pytest.approx(0.1, rel=1e-10)
        sol.schedule.check_admissible(0.1)

    def test_zero_inventory_earns_cash_only(self):
        sol = twap_solution(3.25, 0.0, 100.0, QUAD, 0.04, 1.0)
        assert sol.value == 3.25

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolation, match="HJB"):
            twap_solution(0.0, 0.5, 100.0, QUAD, 0.04, 1.0)

    def test_value_monotone_in_price_and_inventory(self):
        base = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0).value
        assert twap_solution(0.0, 0.1, 101.0, QUAD, 0.04, 1.0).value > base
        assert twap_solution(0.0, 0.11, 100.0, QUAD, 0.04, 1.0).value > base

    def test_linear_limit_coincides_with_quasi_block(self):
        # with a constant marginal alpha the same formula gives the
        # linear-impact value, which is the quasi-block limit
        alpha, x0, s0 = 1.3, 0.8, 50.0
        manual = s0 * (1.0 - math.exp(-alpha * x0)) / alpha
        qb = linear_quasi_block(alpha, 0.0, x0, s0, delta=0.01, decay=0.04)
        assert qb.limit_value == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("name", ["c0", "x0", "s0", "horizon"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, name, bad):
        args = dict(c0=0.0, x0=0.1, s0=100.0, horizon=1.0)
        args[name] = bad
        with pytest.raises(ValueError, match="must be finite"):
            twap_solution(model=QUAD, decay=0.04, **args)


class TestLargeInventoryIntegral:
    """I(w), the integral of (1 - exp(-v))**(-s) over [0, w] behind x_large."""

    def test_empty_integral(self):
        assert _large_inventory_integral(0.0, 0.5) == 0.0

    def test_unit_parameters_give_identity(self):
        # s = 0 integrates 1: both series reduce to I(w) = w
        for w in (0.37, LN2, 3.0, 700.0):
            assert _large_inventory_integral(w, 0.0) == pytest.approx(w, rel=1e-15)

    def test_against_gauss_legendre_oracle(self):
        assert _large_inventory_integral(LN2, 0.5) == pytest.approx(BETA_HALF_15_2, rel=1e-15)
        at_03 = _large_inventory_integral(-math.log(0.7), 0.25)
        assert at_03 == pytest.approx(BETA_03_125_2, rel=1e-14)

    def test_closed_form_cross_check(self):
        # p = 2 on both sides of ln 2, ln 2 +- 1 ulp included
        below, above = math.nextafter(LN2, 0.0), math.nextafter(LN2, 1.0)
        for w in (1e-12, 0.01, 0.5, below, LN2, above, 0.7, 2.0, 40.0, 700.0):
            assert _large_inventory_integral(w, 0.5) == pytest.approx(_p2_integral(w), rel=1e-15), w

    @pytest.mark.parametrize("s", [1.0 / 1.001, 0.8, 1.0 / 3.0, 0.05])
    @pytest.mark.parametrize("w", [0.05, 0.6, LN2, 0.8, 3.0, 8.0])
    def test_both_sides_of_ln2_against_weighted_quadrature(self, s, w):
        reference = _alg_weight_quadrature(w, s)
        assert _large_inventory_integral(w, s) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("s", [1.0 / 1.01, 0.5, 0.05])
    @pytest.mark.parametrize("w", [1e-300, 1e-12])
    def test_small_w_leading_terms(self, s, w):
        # I = z**(1-s) * (1/(1-s) + z/(2-s) + ...): the z**2 term is below 1e-23 relative
        z = -math.expm1(-w)
        lead = z ** (1.0 - s) * (1.0 / (1.0 - s) + z / (2.0 - s))
        assert _large_inventory_integral(w, s) == pytest.approx(lead, rel=1e-15)

    @pytest.mark.parametrize("s", [1.0 / 1.01, 0.5, 0.25, 0.05])
    def test_w_700_is_finite_and_adds_the_width(self, s):
        # past w = 50 the integrand is 1 to within 2e-22, so I grows by the width
        far = _large_inventory_integral(700.0, s)
        assert math.isfinite(far)
        assert far == pytest.approx(_large_inventory_integral(50.0, s) + 650.0, rel=1e-15)


class TestMixedPowerSolution:
    def test_pure_power_constants(self):
        m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
        sol = mixed_power_solution(0.0, 0.05, 100.0, m, 0.04, 1.0)
        assert sol.rate == pytest.approx(0.2, abs=1e-14)
        assert sol.delta == pytest.approx(0.4, abs=1e-14)
        assert sol.regime == "small_inventory"

    def test_delta_equals_marginal_at_rate(self):
        for m, decay in ((MIXED, 0.05), (MixedPowerImpact(0.7, 3.0, 0.4, 0.5), 0.02)):
            sol = mixed_power_solution(0.0, 0.0, 1.0, m, decay, 1.0)
            assert sol.delta == pytest.approx(m.h(sol.rate), rel=1e-12)
            assert sol.rate == pytest.approx(twap_rate(m, decay), abs=1e-10)

    def test_small_regime_agrees_with_twap(self):
        for m, decay in ((MIXED, 0.05), (MixedPowerImpact(1.0, 2.0, 0.5, 0.0), 0.04)):
            x0 = 0.5 * twap_rate(m, decay)
            a = mixed_power_solution(0.0, x0, 100.0, m, decay, 1.0)
            b = twap_solution(0.0, x0, 100.0, m, decay, 1.0)
            assert a.regime == "small_inventory"
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_regime_thresholds_ordering(self):
        sol = mixed_power_solution(0.0, 0.0, 1.0, MIXED, 0.05, 1.0)
        assert sol.x_small < sol.x_large

    def test_unsolved_gap(self):
        sol = mixed_power_solution(0.0, 0.0, 1.0, MIXED, 0.05, 1.0)
        mid = 0.5 * (sol.x_small + sol.x_large)
        gap = mixed_power_solution(0.0, mid, 1.0, MIXED, 0.05, 1.0)
        assert gap.regime == "unsolved"
        assert gap.value is None and gap.schedule is None

    def test_large_regime_value_and_schedule(self):
        m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
        sol = mixed_power_solution(0.0, 1.5, 100.0, m, 0.04, 1.0)
        assert sol.regime == "large_inventory"
        z = 1.0 - math.exp(-2.0 * 0.04 * 1.0)
        assert sol.value == pytest.approx(100.0 / 0.4 * math.sqrt(z), rel=1e-12)
        # rate path stays above nu, increases in t, and is nu-scaled far
        # from the horizon; it diverges as t approaches the horizon
        t, r = sol.schedule.sample(256)
        assert np.all(np.diff(r) >= -1e-12)
        assert np.all(r >= sol.rate - 1e-12)
        assert r[-1] > 2.0 * sol.rate
        # the schedule sells exactly the large-inventory threshold; integrate
        # with t = T - u**2 so the endpoint divergence becomes a smooth factor
        # whose u -> 0 limit is 2*rate/sqrt(c) for c = p*(decay+gamma)/(p-1)
        u = np.linspace(0.0, 1.0, 20001)
        integrand = sol.schedule.rates(1.0 - u**2) * 2.0 * u
        integrand[0] = 2.0 * sol.rate / math.sqrt(2.0 * 0.04)
        quadrature = np.trapezoid(integrand, u)
        assert quadrature == pytest.approx(sol.x_large, rel=1e-6)
        assert sol.schedule.total == pytest.approx(sol.x_large, rel=1e-12)

    def test_large_threshold_matches_direct_beta_integral(self):
        # x_large = I(w)/delta with w = p*(decay + gamma)*T/(p - 1); MIXED has p = 2,
        # where I is elementary, and p = 3 is checked against weighted quadrature
        other = MixedPowerImpact(0.7, 3.0, 0.4, 0.5)
        for m, decay, horizon, reference, rel in (
            (MIXED, 0.05, 1.0, _p2_integral, 1e-14),
            (MIXED, 0.05, 0.01, _p2_integral, 1e-14),
            (other, 0.02, 1.0, lambda w: _alg_weight_quadrature(w, 1.0 / 3.0), 1e-12),
        ):
            sol = mixed_power_solution(0.0, 0.0, 1.0, m, decay, horizon)
            p = m.p_convex
            w = p * (decay + m.gamma) / (p - 1.0) * horizon
            assert sol.x_large == pytest.approx(reference(w) / sol.delta, rel=rel)

    def test_overflowing_x_large_fails_loudly(self):
        # c * horizon overflows to inf: an infinite x_large would reach summary.json
        m = MixedPowerImpact(alpha=1.0, p_convex=1.5, p_concave=0.5, threshold=0.0)
        with pytest.raises(NumericalFailure, match="^x_large overflows the float range"):
            mixed_power_solution(0.0, 1.5, 100.0, m, 1.0, 1e308)

    def test_large_horizon_limit(self):
        m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=0.0)
        sol = mixed_power_solution(0.0, 1e6, 1.0, m, 0.04, 2000.0)
        assert sol.regime == "large_inventory"
        assert sol.value == pytest.approx(1.0 / sol.delta, rel=1e-9)

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        p=st.floats(min_value=1.2, max_value=4.0),
        pt=st.floats(min_value=0.1, max_value=0.9),
        thr=st.floats(min_value=0.0, max_value=2.0),
        decay=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_strictly_above_threshold(self, alpha, p, pt, thr, decay):
        m = MixedPowerImpact(alpha=alpha, p_convex=p, p_concave=pt, threshold=thr)
        sol = mixed_power_solution(0.0, 0.0, 1.0, m, decay, 1.0)
        assert sol.rate > m.threshold

    def test_rejects_wrong_family(self):
        with pytest.raises(ValueError):
            mixed_power_solution(0.0, 0.1, 1.0, QUAD, 0.04, 1.0)


class TestLevyEffectiveRate:
    def test_against_brentq_oracle(self):
        rate = twap_rate(LEVY, 0.1)
        assert rate == pytest.approx(LEVY_RATE_01, abs=1e-9)

    def test_displayed_equation_residual(self):
        rate = twap_rate(LEVY, 0.1)
        u = rate * rate
        resid = u + (2.0 * (1.0 - 1.0 / (1.0 + u)) - math.log(u + 1.0)) - 0.1
        assert abs(resid) <= 1e-12 * 1.1

    def test_excess_identity(self):
        rate = twap_rate(LEVY, 0.1)
        assert LEVY.excess_impact(rate) == pytest.approx(0.1, abs=1e-10)

    def test_vanishes_with_decay(self):
        rates = [twap_rate(LEVY, d) for d in (0.1, 1e-3, 1e-6)]
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] < 1e-2

    def test_rejects_constraint_violation(self):
        with pytest.raises(ValueError, match=r"alpha1 \* beta1 must not exceed 8 \* gamma"):
            LevyEffectiveImpact(gamma=0.1, alpha0=1.0, alpha1=1.0, beta1=1.0)


class TestExtremeComparison:
    def test_benchmark_ordering(self):
        comp = extreme_comparison(SHIFTED, 0.5, 100.0, 0.05, 1.0)
        assert comp.rate == pytest.approx(SHIFTED_RATE_005, abs=1e-9)
        # optimal marginal beats the naive decay-per-share level
        assert SHIFTED.h(comp.rate) < 0.05 / SHIFTED.threshold
        assert comp.optimal_value > comp.threshold_value

    def test_values_from_proceeds_factor(self):
        comp = extreme_comparison(SHIFTED, 0.5, 100.0, 0.05, 1.0)
        assert comp.optimal_value == pytest.approx(
            100.0 * proceeds_factor(SHIFTED.h(comp.rate), 0.5), rel=1e-12
        )
        assert comp.threshold_value == pytest.approx(
            100.0 * proceeds_factor(0.05 / 1.0, 0.5), rel=1e-12
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            extreme_comparison(QUAD, 0.5, 100.0, 0.05, 1.0)
        with pytest.raises(HypothesisViolation):
            extreme_comparison(SHIFTED, 5.0, 100.0, 0.05, 1.0)


def test_proceeds_factor_limits():
    assert proceeds_factor(0.0, 0.7) == 0.7
    assert proceeds_factor(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert proceeds_factor(1e-12, 0.7) == pytest.approx(0.7, rel=1e-9)


class TestQuasiBlock:
    def test_limit_value(self):
        qb = linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=0.01, decay=0.05)
        assert qb.limit_value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_monotone_approach(self):
        vals = [
            linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=d, decay=0.05).value
            for d in (0.1, 0.01, 0.001)
        ]
        limit = linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=0.001, decay=0.05).limit_value
        assert vals[0] < vals[1] < vals[2] < limit
        assert limit - vals[2] < 1e-3

    def test_quadrature_against_closed_form(self):
        # the burst integral has the exact value x0*(1-exp(-decay*d-a*x0))/(decay*d+a*x0)
        a, x0, d, dec = 1.0, 1.0, 0.05, 0.05
        qb = linear_quasi_block(a, 0.0, x0, 1.0, delta=d, decay=dec)
        w = dec * d + a * x0
        assert qb.value == pytest.approx(x0 * (1.0 - math.exp(-w)) / w, rel=1e-10)

    def test_zero_inventory(self):
        qb = linear_quasi_block(1.0, 2.0, 0.0, 1.0, delta=0.01, decay=0.05)
        assert qb.limit_value == 2.0
        assert qb.value == 2.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            linear_quasi_block(0.0, 0.0, 1.0, 1.0, delta=0.01, decay=0.05)


def test_schedule_constant_validation():
    with pytest.raises(ValueError):
        Schedule.constant(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        Schedule.constant(1.0, 2.0, 1.0)
    sched = Schedule.constant(0.0, 0.0, 1.0)
    assert sched.rates(0.5) == 0.0
    with pytest.raises(ValueError):
        sched.sample(0)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: twap_rate(QUAD, _INF), "decay"),
        (lambda: extreme_comparison(SHIFTED, 0.1, 100.0, _INF, 1.0), "decay"),
        (lambda: mixed_power_solution(0.0, 0.1, 100.0, MIXED, _NAN, 1.0), "decay"),
        (lambda: mixed_power_solution(0.0, 0.1, 100.0, MIXED, 0.05, _NAN), "horizon"),
        (lambda: mixed_power_solution(0.0, _NAN, 100.0, MIXED, 0.05, 1.0), "x0"),
        (lambda: linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=0.01, decay=_NAN), "decay"),
        (lambda: Schedule.constant(_NAN, 0.5, 1.0), "rate"),
        (lambda: Schedule.constant(1.0, _NAN, 1.0), "duration"),
        (lambda: Schedule.constant(0.1, 0.5, _INF), "horizon"),
    ],
    ids=["twap_rate-inf", "extreme-inf", "mixed-nan-decay", "mixed-nan-horizon", "mixed-nan-x0",
         "quasi-block-nan-decay", "schedule-nan-rate", "schedule-nan-duration",
         "schedule-inf-horizon"],
)
def test_closed_forms_reject_non_finite_inputs(call, name):
    # unchecked, these return a number, report `unsolved` or divide by zero;
    # a constant schedule would sell a NaN total
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


_RANGE = "need x0 >= 0, s0 >= 0 and a positive horizon"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Schedule(np.negative, 1.0, 0.0).check_admissible(1.0), "schedule emits a negative selling rate"),
        (lambda: Schedule.constant(1.0, 0.5, 1.0).check_admissible(0.1), "schedule sells more than the initial inventory"),
        (lambda: twap_solution(0.0, -0.1, 100.0, QUAD, 0.04, 1.0), _RANGE),
        (lambda: mixed_power_solution(0.0, 0.1, 100.0, MIXED, 0.0, 1.0), "needs a positive decay rate"),
        (lambda: mixed_power_solution(0.0, 0.1, 100.0, MIXED, 0.05, 0.0), _RANGE),
        (lambda: extreme_comparison(SHIFTED, 0.1, 100.0, -0.05, 1.0), "needs a positive decay rate"),
        (lambda: extreme_comparison(SHIFTED, -0.1, 100.0, 0.04, 1.0), _RANGE),
        (lambda: extreme_comparison(SHIFTED, 0.1, -100.0, 0.04, 1.0), _RANGE),
        (lambda: extreme_comparison(SHIFTED, 0.1, 100.0, 0.04, -1.0), _RANGE),
        (lambda: linear_quasi_block(1.0, 0.0, 1.0, 1.0, delta=0.0, decay=0.05), "delta must be positive"),
        (lambda: linear_quasi_block(1.0, 0.0, 1.0, -1.0, delta=0.01, decay=0.05), "need x0 >= 0 and s0 >= 0"),
    ],
    ids=["schedule-negative-rate", "schedule-oversells", "twap-negative-x0",
         "mixed-zero-decay", "mixed-zero-horizon", "extreme-negative-decay", "extreme-negative-x0",
         "extreme-negative-s0", "extreme-negative-horizon", "quasi-block-zero-delta",
         "quasi-block-negative-s0"],
)
def test_closed_forms_reject_out_of_range_inputs(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
