import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import optexec
from optexec.errors import NumericalFailure
from optexec.hamiltonian import (
    Gradient,
    _best_response,
    _brute_min,
    _gain_rate,
    best_response,
    closed_vs_brute_samples,
    hamiltonian,
    optimal_speed,
)
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
FAMILIES = [QUAD, MIXED, SHIFTED, LEVY]
QUIET = dict(divide="ignore", over="ignore", invalid="ignore")  # the errstate the HJB march holds


def test_gradient_requires_finite():
    with pytest.raises(ValueError, match=r"^p_c must be finite, got nan$"):
        Gradient(float("nan"), 0.0, 1.0)


def test_optimal_speed_quadratic_example():
    p = Gradient(2.0, 0.0, 1.0)
    y = optimal_speed(1.0, p, QUAD)
    assert y == pytest.approx(1.0, abs=1e-12)
    # brute confirmation: grid argmin of the running gain
    ys = np.linspace(0.0, 10.0, 100001)
    f = 1.0 * 1.0 * QUAD.g(ys) - (1.0 * 2.0 - 0.0) * ys
    assert ys[np.argmin(f)] == pytest.approx(1.0, abs=1e-3)


def test_optimal_speed_zero_branches():
    assert optimal_speed(1.0, Gradient(5.0, 0.0, -1.0), QUAD) == 0.0
    assert optimal_speed(1.0, Gradient(5.0, 0.0, 0.0), QUAD) == 0.0
    # target below the marginal floor: h(threshold) = 2 for MIXED
    p = Gradient(1.0, 0.0, 1.0)  # ratio = 1 < 2
    assert optimal_speed(1.0, p, MIXED) == 0.0


def test_hamiltonian_values():
    assert hamiltonian(1.0, Gradient(2.0, 0.0, 1.0), QUAD) == pytest.approx(-1.0, abs=1e-12)
    assert hamiltonian(1.0, Gradient(1.0, 0.0, 1.0), MIXED) == 0.0
    assert hamiltonian(1.0, Gradient(0.0, 0.0, 1.0), QUAD) == 0.0
    with pytest.raises(ValueError):
        hamiltonian(1.0, Gradient(1.0, 0.0, 0.0), QUAD)
    with pytest.raises(ValueError):
        hamiltonian(-1.0, Gradient(1.0, 0.0, 1.0), QUAD)


def test_hamiltonian_never_positive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = Gradient(rng.normal(), rng.normal(), rng.uniform(0.01, 3.0))
        s = rng.uniform(0.1, 5.0)
        for m in FAMILIES:
            assert hamiltonian(s, p, m) <= 0.0


def _one_draw(model, s, p, y_max, n):
    """The oracle kernel on the single draw (s, p): (argmin, min, y_max reached)."""
    out = _brute_min(model, [s * p.p_c - p.p_x], [s * p.p_s], y_max, n)
    return tuple(float(v[0]) for v in out)


def test_bruteforce_matches_closed_form():
    p = Gradient(2.0, 0.0, 1.0)
    _, brute, _ = _one_draw(QUAD, 1.0, p, 10.0, 10001)
    assert brute == pytest.approx(-1.0, abs=1e-6)


def test_bruteforce_zero_when_selling_never_pays():
    p = Gradient(-5.0, 1.0, 1.0)
    assert _one_draw(QUAD, 1.0, p, 10.0, 1001)[1] == 0.0


def test_sample_sweep_rejects_a_one_point_grid():
    # one grid point is y = 0 alone: every draw's search would end at the origin;
    # on two, no argmin lies below y_max*(1 - 2/n) = 0, so every draw would keep doubling
    for n_grid in (1, 2):
        with pytest.raises(ValueError, match="n_grid"):
            closed_vs_brute_samples(QUAD, 5, n_grid=n_grid)


def test_oracle_fails_loudly_when_y_max_overflows():
    # the start 2*threshold + 1 is already inf: no draw can be bracketed
    with pytest.raises(NumericalFailure, match="5 draw"):
        closed_vs_brute_samples(ShiftedConvexImpact(3.0, 1e308), 5, n_grid=101)


_SMALL_IMPACT_SWEEP = """
import numpy as np
from optexec.hamiltonian import closed_vs_brute_samples
from optexec.impact import QuadraticImpact

rows = closed_vs_brute_samples(QuadraticImpact(1e-6), 20, seed=0, n_grid=101)
worst = np.max(np.abs(rows[:, 4] - rows[:, 5]) / (1.0 + np.abs(rows[:, 4])))
print(rows.shape[0], bool(np.isfinite(rows).all()), bool(worst <= 1e-6))
"""


def test_oracle_ends_where_1e_10_is_below_the_brackets_resolution():
    # at alpha0 = 1e-6 the doublings carry brackets near 1e6, where an ulp is
    # 1.2e-10: a search stopped by its own bracket width would never end.  Some
    # minimizers lie beyond 2**20 times the start y_max, so the doubling must not
    # stop before them.  A fresh interpreter, so a hang fails the test by its timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(optexec.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _SMALL_IMPACT_SWEEP], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["20", "True", "True"]


def test_expansion_reaches_interior_minimizer():
    p = Gradient(50.0, 0.0, 1.0)  # minimizer y = 25 for quadratic
    y_star, val, y_max = _one_draw(QUAD, 1.0, p, 1.0, 2001)
    assert y_star == pytest.approx(25.0, rel=1e-4)
    assert y_max >= 32.0
    assert val == pytest.approx(hamiltonian(1.0, p, QUAD), rel=1e-9)


@given(
    s=st.floats(min_value=0.05, max_value=10.0),
    p_c=st.floats(min_value=-5.0, max_value=5.0),
    p_x=st.floats(min_value=-5.0, max_value=5.0),
    p_s=st.one_of(
        st.floats(min_value=-2.0, max_value=0.0),
        st.floats(min_value=1e-6, max_value=5.0),
    ),
)
@settings(max_examples=150, deadline=None)
def test_speed_range_is_exact(s, p_c, p_x, p_s):
    p = Gradient(p_c, p_x, p_s)
    for m in FAMILIES:
        y = optimal_speed(s, p, m)
        assert y == 0.0 or y > m.threshold


@given(lam=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_degree_one_homogeneity_in_the_gradient(lam):
    # scaling the whole gradient rescales the Hamiltonian and keeps the speed
    s = 1.7
    p = Gradient(2.0, -0.5, 0.8)
    scaled = Gradient(lam * p.p_c, lam * p.p_x, lam * p.p_s)
    for m in FAMILIES:
        h1 = hamiltonian(s, p, m)
        h2 = hamiltonian(s, scaled, m)
        assert h2 == pytest.approx(lam * h1, rel=1e-12, abs=1e-300)
        y1 = optimal_speed(s, p, m)
        y2 = optimal_speed(s, scaled, m)
        assert y2 == pytest.approx(y1, rel=1e-12, abs=0.0)


def test_unit_hamiltonian_nonincreasing_in_target():
    # with s = p_s = 1 and p_x = 0 the target ratio equals p_c
    targets = np.linspace(-1.0, 8.0, 60)
    for m in FAMILIES:
        vals = [hamiltonian(1.0, Gradient(float(t), 0.0, 1.0), m) for t in targets]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_factorization_through_unit_gradient():
    # H(s, p) = s * p_s * H(1, (ratio, 0, 1)) wherever p_s > 0
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = rng.uniform(0.1, 4.0)
        p = Gradient(rng.normal(1.0, 1.0), rng.normal(), rng.uniform(0.05, 2.0))
        ratio = (s * p.p_c - p.p_x) / (s * p.p_s)
        for m in FAMILIES:
            lhs = hamiltonian(s, p, m)
            rhs = s * p.p_s * hamiltonian(1.0, Gradient(ratio, 0.0, 1.0), m)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


_EDGE_A = np.array([1.0, -1.0, 0.0, 3.0, -2.0, 0.5])
_EDGE_B = np.array([0.0, 0.0, 0.0, 1e-300, 1e-300, 1e-12])


@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=-5.0, max_value=20.0),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-300, max_value=1e-8),
                st.floats(min_value=1e-3, max_value=10.0),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    span=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_best_response_matches_dense_grid_argmax(rows, span):
    # the control kernel, capped as the march calls it, against a dense-grid argmax
    # over {0} u (threshold, y_max], including b = 0 (the HJB's W = 0 nodes), tiny b
    # and negative a
    a = np.concatenate([_EDGE_A, [r[0] for r in rows]])
    b = np.concatenate([_EDGE_B, [r[1] for r in rows]])
    n = 20000
    for m in FAMILIES:
        y_max = m.threshold + span
        with np.errstate(**QUIET):
            speed, gain, _ = _best_response(m, a, b, y_max, m.h(y_max))
        assert np.all((speed == 0.0) | ((speed > m.threshold) & (speed <= y_max)))
        assert np.array_equal(gain, np.where(speed > 0.0, speed * a - b * m.g(speed), 0.0))
        assert np.all(gain >= 0.0)

        ys = np.concatenate([[0.0], m.threshold + span * np.arange(1, n + 1) / n])
        gs = m.g(ys)
        best = np.max(a[:, None] * ys[None, :] - b[:, None] * gs[None, :], axis=1)
        rounding = 1e-12 * (1.0 + np.abs(a) * y_max + b * gs[-1])
        # a grid point misses a smooth interior maximum by at most b * max|g''| * step**2 / 8;
        # the bound below leaves out the 1/8
        grid_loss = b * np.max(np.abs(np.diff(gs[1:], 2)))
        assert np.all(gain >= best - rounding)
        assert np.all(gain <= best + grid_loss + rounding)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_best_response_rejects_an_unbounded_gain(model):
    # b = 0 with a > 0 is capped, and with no cap its gain is unbounded
    with pytest.raises(ValueError, match="unbounded"):
        best_response(model, [1.0, 2.0], [0.0, 1.0])
    # without a capped element the uncapped argmax stays usable
    speed, gain = best_response(model, [2.0, -1.0], [1.0, 0.0])
    assert np.all(np.isfinite(speed)) and np.all(np.isfinite(gain)) and speed[1] == 0.0
    # under the march's finite cap the node takes y_max
    y_max = model.threshold + 2.0
    with np.errstate(**QUIET):
        speed, gain, _ = _best_response(model, np.array([1.0, 2.0]), np.array([0.0, 1.0]), y_max, model.h(y_max))
    assert speed[0] == y_max and gain[0] == y_max


def _bits(rows):
    return np.asarray(rows, dtype=float).view(np.uint64)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_sample_rows_equal_one_draw_calls(model):
    # the lockstep sweep gives every row the bits of the one-draw oracle and
    # closed-form calls, including draws whose search doubled y_max
    n_draws, seed = 80, 5
    rows = closed_vs_brute_samples(model, n_draws, seed=seed, n_grid=1001)
    y_max0 = 2.0 * model.threshold + 1.0
    expected, doubled = [], 0
    for s, p_c, p_x, p_s in rows[:, :4].tolist():
        p = Gradient(p_c, p_x, p_s)
        _, h_brute, y_max = _one_draw(model, s, p, y_max0, 1001)
        doubled += y_max > y_max0
        expected.append((s, p.p_c, p.p_x, p.p_s, hamiltonian(s, p, model), h_brute, optimal_speed(s, p, model)))
    assert np.array_equal(_bits(rows), _bits(expected))
    if model is QUAD:
        assert doubled >= 10


def test_oracle_never_uses_the_closed_form(monkeypatch):
    import importlib

    from optexec.impact import ImpactModel

    ham = importlib.import_module("optexec.hamiltonian")  # the package's `hamiltonian` is the function

    p = Gradient(2.0, -0.5, 0.8)
    before = [(_one_draw(m, 1.3, p, 5.0, 501), _one_draw(m, 1.3, p, 0.5, 501)) for m in FAMILIES]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the closed form")

    monkeypatch.setattr(ImpactModel, "h_inverse", forbidden)
    monkeypatch.setattr(ham, "best_response", forbidden)
    for m in FAMILIES:
        monkeypatch.setattr(type(m), "_h_inverse", forbidden)
    after = [(_one_draw(m, 1.3, p, 5.0, 501), _one_draw(m, 1.3, p, 0.5, 501)) for m in FAMILIES]
    assert after == before


def test_oracle_hides_only_the_overflow_inside_g():
    # g overflowing to inf is the hook's own result, under the errstate the public
    # `g` holds; an overflow in the gain arithmetic around it still warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _gain_rate(QUAD, np.ones(1), np.ones(1), np.array([1e200]))[0] == np.inf
        _brute_min(QUAD, [1.0], [1.0], 1e200, 11)  # g = inf on the grid and in the search
    with pytest.warns(RuntimeWarning, match="overflow"):
        _gain_rate(QUAD, np.zeros(1), np.array([1e300]), np.array([1e100]))  # g = 1e200, b*g = inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        _brute_min(QUAD, [0.0], [1e300], 1e5, 11)  # b*g overflows on the grid alone, from y = 2e4


def test_golden_search_keeps_the_left_bracket_where_both_probes_overflow():
    # on [0, 2e199] both golden probes give g = inf; the search must not walk right
    # past the minimizer at y = 0.5, where f = y**2 - y = -0.25
    y, v, y_cap = _brute_min(QUAD, [1.0], [1.0], 1e200, 11)
    assert y[0] == pytest.approx(0.5, abs=1e-6)
    assert v[0] == -0.25
    assert y_cap[0] == 1e200


class _OffInverse(MixedPowerImpact):
    """The mixed-power curve with a marginal inverse that is 0.1% too large."""

    def _h_inverse(self, ybar):
        return 1.001 * super()._h_inverse(ybar)


def test_sample_sweep_detects_a_slightly_wrong_inverse():
    def worst(model):
        rows = closed_vs_brute_samples(model, 300, seed=3)
        return max(abs(r[4] - r[5]) / (1.0 + abs(r[4])) for r in rows)

    assert worst(MIXED) <= 1e-6
    assert worst(_OffInverse(**MIXED.params())) > 1e-6


def _textbook_min(f, y_max, n):
    # scalar grid + golden-section search with y_max doubling, one float at a time
    invphi = (5.0**0.5 - 1.0) / 2.0
    while True:
        ys = np.linspace(0.0, y_max, n)
        vals = f(ys)
        i = int(np.argmin(vals))
        best_y, best_v = float(ys[i]), float(vals[i])
        a, b = float(ys[max(i - 1, 0)]), float(ys[min(i + 1, n - 1)])
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = float(f(c)), float(f(d))
        width = float(ys[min(2, n - 1)] - ys[0])  # the grid, not the bracket, sets the stop
        while width > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = float(f(c))
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = float(f(d))
            width *= invphi
        for y, v in ((c, fc), (d, fd)):
            if v < best_v:
                best_y, best_v = y, v
        if best_y < y_max * (1.0 - 2.0 / n):
            return best_y, best_v, y_max
        y_max *= 2.0


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_oracle_matches_textbook_scalar_search(model):
    # the lockstep kernel does, per draw, the float operations of the scalar loop
    rng = np.random.default_rng(11)
    got, want = [], []
    for _ in range(25):
        s = float(rng.uniform(0.2, 5.0))
        p = Gradient(float(rng.normal(1.0, 2.0)), float(rng.normal(0.0, 1.0)), float(rng.uniform(0.05, 3.0)))
        a, b = s * p.p_c - p.p_x, s * p.p_s
        got.append(_one_draw(model, s, p, 1.0, 501))
        want.append(_textbook_min(lambda y: b * model.g(np.asarray(y, dtype=float)) - a * y, 1.0, 501))
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_oracle_argmin_respects_the_speed_theorem(model):
    # criterion 1's sweep, with the oracle's argmin kept: it never lies in
    # (0, threshold], it sells exactly where the closed form does, and it finds
    # the same speed to well within the sqrt(eps) resolution of a minimizer
    rows = closed_vs_brute_samples(model, 1000, seed=101)
    s, p_c, p_x, p_s, speed = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 6]
    y_brute, _, _ = _brute_min(model, s * p_c - p_x, s * p_s, 2.0 * model.threshold + 1.0, 4001)
    assert not np.any((y_brute > 0.0) & (y_brute <= model.threshold))
    assert np.array_equal(y_brute > 0.0, speed > 0.0)
    both = speed > 0.0
    assert both.any()
    assert np.all(np.abs(y_brute[both] - speed[both]) <= 1e-6 * speed[both])


_SCALED_FAMILIES = [
    (lambda theta: ShiftedConvexImpact(3.0, theta), 3.0),
    (lambda theta: MixedPowerImpact(1.0, 2.0, 0.5, theta), 2.0),
]


@pytest.mark.parametrize("make, p", _SCALED_FAMILIES, ids=["shifted_convex", "mixed_power"])
def test_best_response_is_scale_covariant(make, p):
    # both S-shaped families satisfy g_{k*theta}(k*y) = k**p * g_theta(y), p the
    # convex exponent, so best_response at threshold k with b / k**(p - 1) is k
    # times the one at threshold 1 with b.  With k a power of two every rescaling
    # is exact, so speeds and gains agree bit for bit, at thresholds the oracle
    # could not reach
    rng = np.random.default_rng(0)
    n = 20_000
    a = rng.uniform(0.2, 5.0, n) * rng.normal(1.0, 1.0, n) - rng.normal(0.0, 1.0, n)
    b = rng.uniform(0.2, 5.0, n) * rng.uniform(0.05, 3.0, n)
    speed, gain = best_response(make(1.0), a, b)
    assert np.count_nonzero(speed) > 1000  # draws on the model's scale sell, so the check has content
    for k in (-300, -60, -20, 20, 50, 100, 300):
        kappa = 2.0**k
        y, v = best_response(make(kappa), a, b / kappa ** (p - 1.0))
        assert np.array_equal(y, kappa * speed), k
        assert np.array_equal(v, kappa * gain), k
