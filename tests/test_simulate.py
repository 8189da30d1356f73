import importlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from optexec.closed_form import MarketParams, Schedule, twap_solution
from optexec.hamiltonian import closed_vs_brute_samples
from optexec.hjb import solve_reduced_hjb
from optexec.impact import MixedPowerImpact, QuadraticImpact
from optexec.simulate import (
    QUANTILE_LEVELS,
    DeterministicStrategy,
    FeedbackStrategy,
    compare_strategies,
    simulate,
)

# the module, not the function `optexec.simulate` re-exported by the package
SIM_MODULE = importlib.import_module("optexec.simulate")

QUAD = QuadraticImpact(1.0)
BS = MarketParams.from_drift_vol(-0.085, 0.3)  # decay 0.04
FLAT = MarketParams.from_drift_vol(-0.04, 0.0)


def twap_strategy(x0=0.1, horizon=1.0):
    sol = twap_solution(0.0, x0, 100.0, QUAD, 0.04, horizon)
    return DeterministicStrategy(sol.schedule), sol


def reference(s0, horizon, n_paths, n_steps, seed, return_paths=False):
    """The impact-free reference price: the zero schedule (drag g(0) = 0),
    never absorbed."""
    zero = DeterministicStrategy(Schedule.constant(0.0, 0.0, horizon))
    return simulate(
        zero, BS, QUAD, 0.0, 0.0, s0, horizon, n_paths, n_steps, seed,
        log_floor=-math.inf, return_paths=return_paths,
    )


def test_zero_strategy_changes_nothing():
    strat = DeterministicStrategy(Schedule.constant(0.0, 0.0, 1.0))
    res = simulate(strat, BS, QUAD, 2.5, 0.1, 100.0, 1.0, 64, 32, seed=5)
    assert np.all(res.utilities == 2.5)
    assert res.cash.variance == 0.0
    assert res.inventory.quantiles[0] == 0.1
    assert res.inventory.quantiles[-1] == 0.1
    assert res.absorption_count == 0


def test_deterministic_run_matches_quadrature():
    strat, sol = twap_strategy()
    res = simulate(strat, FLAT, QUAD, 0.0, 0.1, 100.0, 1.0, 1, 1000, seed=0)
    assert res.mean_utility == pytest.approx(sol.value, rel=1e-4)
    assert res.std_error == 0.0


def test_inventory_depletes_exactly():
    strat, _ = twap_strategy()
    res = simulate(strat, FLAT, QUAD, 0.0, 0.1, 100.0, 1.0, 1, 500, seed=0)
    assert res.inventory.mean == 0.0


def test_left_inventory_reports_exact_stats():
    # every path holds the same inventory, so its stats are that one number:
    # no rounding from averaging or interpolating 2000 copies of it
    strat = DeterministicStrategy(Schedule.constant(0.05, 1.0, 1.0))
    res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 2000, 100, seed=0)
    x_T = res.inventory.mean
    assert 0.0 < x_T < 0.1
    assert res.inventory.variance == 0.0
    assert res.inventory.quantiles == (x_T,) * len(QUANTILE_LEVELS)


def test_stochastic_mean_near_closed_form():
    strat, sol = twap_strategy()
    res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 4000, 250, seed=21)
    assert abs(res.mean_utility - sol.value) <= 3.0 * res.std_error + 5e-3


def test_bit_identical_reruns():
    strat, _ = twap_strategy()
    a = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 600, 100, seed=42)
    b = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 600, 100, seed=42)
    assert a.mean_utility == b.mean_utility
    assert a.std_error == b.std_error
    assert np.array_equal(a.utilities, b.utilities)
    assert a.cash.quantiles == b.cash.quantiles
    c = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 600, 100, seed=43)
    assert not np.array_equal(a.utilities, c.utilities)


def test_random_streams_golden_bits():
    # both random streams are plain default_rng(seed) draws; a numpy change to
    # either moves these numbers, and every seeded result with them
    strat, _ = twap_strategy()
    res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 3, 4, seed=0)
    assert repr(res.utilities.tolist()) == "[9.938429894697528, 9.472007918163595, 9.360678336665998]"
    rows = closed_vs_brute_samples(QUAD, 3, seed=0, n_grid=11)
    assert repr(rows[:, :4].tolist()) == (
        "[[3.2574160991429806, 1.1049001171530397, 1.3040000451301372, 2.808463650173916], "
        "[1.4949762260665773, 0.46433062683888904, 0.9470809631292422, 2.4567679846585198], "
        "[0.3966729148937345, 1.3615950549094848, -0.7037352358069926, 0.05807857550193688]]"
    )


def _twap_and_feedback():
    strat, _ = twap_strategy()
    surf = solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=40, nx=40)
    return [("twap", strat), ("feedback", FeedbackStrategy(surf))]


def test_compare_strategies_equals_separate_simulate_runs():
    named = _twap_and_feedback()
    n_paths = SIM_MODULE._NOISE_CELLS // 16 + 17  # a full chunk and a partial one
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, n_paths, 16)
    comp = compare_strategies(named, *run, seed=19)
    utils = [simulate(strat, *run, seed=19).utilities for _, strat in named]

    def se(u):
        return float(u.std(ddof=1) / math.sqrt(n_paths))

    assert comp.means == [float(u.mean()) for u in utils]
    assert comp.std_errors == [se(u) for u in utils]
    d = utils[0] - utils[1]
    assert comp.pairs == [("twap", "feedback", float(d.mean()), se(d))]


def test_results_do_not_depend_on_chunking(monkeypatch):
    named = _twap_and_feedback()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, 50, 30)

    def everything():
        res = simulate(named[1][1], *run, seed=23, return_paths=True)
        ref = reference(100.0, 1.0, 50, 30, seed=23, return_paths=True)
        return res, ref, compare_strategies(named, *run, seed=23)

    res, ref, comp = everything()
    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)  # 7 chunks of 7 paths and one of 1
    res7, ref7, comp7 = everything()
    assert np.array_equal(res7.utilities, res.utilities)
    for key in ("S", "C", "X"):
        assert np.array_equal(res7.paths[key], res.paths[key])
    assert (res7.cash, res7.inventory, res7.price) == (res.cash, res.inventory, res.price)
    assert res7.absorption_count == res.absorption_count
    assert np.array_equal(ref7.paths["S"], ref.paths["S"])
    assert comp7 == comp


def test_a_run_is_the_start_of_a_longer_run(monkeypatch):
    # paths are drawn in order from one stream, so path i's noise does not
    # depend on n_paths, even when the chunks fall differently
    strat, _ = twap_strategy()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0)
    short = simulate(strat, *run, 10, 30, seed=3).utilities
    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)
    assert np.array_equal(simulate(strat, *run, 50, 30, seed=3).utilities[:10], short)


def test_a_noise_block_filled_in_place_has_the_drawn_bits():
    # the pipeline fills preallocated blocks; the stream must not notice
    block = np.empty((3, 5, 7))
    gen = np.random.default_rng(11)
    gen.standard_normal(out=block[1, :4])
    gen.standard_normal(out=block[0, :5])
    drawn = np.random.default_rng(11)
    assert np.array_equal(block[1, :4], drawn.standard_normal((4, 7)))
    assert np.array_equal(block[0, :5], drawn.standard_normal((5, 7)))


def _rng_calling(monkeypatch, before_draw):
    """Make every run's generator call before_draw(k) ahead of its k-th block draw."""
    plain_rng = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self.gen, self.draws = plain_rng(seed), 0

        def standard_normal(self, out):
            self.draws += 1
            before_draw(self.draws)
            return self.gen.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", Rng)


def test_a_failing_chunk_propagates_and_joins_the_helper(monkeypatch):
    named = _twap_and_feedback()
    plain = SIM_MODULE._factorised_chunk
    calls = []

    def second_fails(*args):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("chunk 2")
        return plain(*args)

    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)
    monkeypatch.setattr(SIM_MODULE, "_factorised_chunk", second_fails)
    # chunk 3's block is still being drawn when chunk 2 fails
    _rng_calling(monkeypatch, lambda k: time.sleep(0.2) if k == 3 else None)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk 2"):
        compare_strategies(named, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 50, 30, seed=1)
    assert len(calls) == 2
    assert threading.active_count() == baseline


def test_a_failing_draw_is_raised_in_the_caller(monkeypatch):
    def second_fails(k):
        if k == 2:
            raise MemoryError("draw 2")

    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)
    _rng_calling(monkeypatch, second_fails)
    strat, _ = twap_strategy()
    baseline = threading.active_count()
    with pytest.raises(MemoryError, match="draw 2"):
        simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 50, 30, seed=1)
    assert threading.active_count() == baseline


def test_a_run_starts_one_draw_worker_and_leaves_none(monkeypatch):
    named = _twap_and_feedback()
    plain_start = threading.Thread.start
    started = []

    def counted_start(thread):
        started.append(thread.name)
        plain_start(thread)

    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)  # 8 chunks, 8 draws
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    baseline = threading.active_count()
    compare_strategies(named, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 50, 30, seed=1)
    assert len(started) == 1, started
    assert threading.active_count() == baseline


def test_a_path_longer_than_the_budget_is_its_own_chunk(monkeypatch):
    named = _twap_and_feedback()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, 5, 300)

    def everything():
        res = simulate(named[1][1], *run, seed=31, return_paths=True)
        return res, compare_strategies(named, *run, seed=31)

    res, comp = everything()
    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)  # under one 300-step path
    draws = []
    _rng_calling(monkeypatch, draws.append)
    res1, comp1 = everything()
    assert draws == [1, 2, 3, 4, 5] * 2  # one block per path, in each of the two runs
    assert np.array_equal(res1.utilities, res.utilities)
    for key in ("S", "C", "X"):
        assert np.array_equal(res1.paths[key], res.paths[key])
    assert comp1 == comp


def test_a_comparison_holds_a_few_noise_blocks_at_most():
    # two double-buffered blocks and the cash sum's temporary, each at most
    # _NOISE_CELLS floats, whatever the path count
    named = _twap_and_feedback()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0)
    compare_strategies(named, *run, 2, 500, seed=5)  # the draw worker's imports, untraced
    tracemalloc.start()
    try:
        compare_strategies(named, *run, 2000, 500, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * SIM_MODULE._NOISE_CELLS * 8, peak


def test_concurrent_runs_under_fast_thread_switching_keep_their_bits(monkeypatch):
    # more runs than cores, each with its own helper thread, switching threads
    # every microsecond: noise blocks shared between runs would move the bits
    named = _twap_and_feedback()
    monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", 7 * 30)
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, 60, 30)
    want = compare_strategies(named, *run, seed=29)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: got.append(compare_strategies(named, *run, seed=29)))
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4


def _euler_loop(sells, drags, market, c0, s0, dt, n_paths, seed, log_floor, return_paths):
    """The per-step Euler-Maruyama loop `_price_paths` ran before the
    factorised march, on one block: the reference for it."""
    m, n_steps = sells.shape
    noise = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    Y = np.full((m, n_paths), math.log(s0) if s0 > 0.0 else -math.inf)
    S = np.full((m, n_paths), float(s0))
    C = np.full((m, n_paths), float(c0))
    alive = np.full((m, n_paths), True)
    hist = np.empty((2, m, n_paths, n_steps + 1))
    hist[:, :, :, 0] = C, S
    for k in range(n_steps):
        C += sells[:, k : k + 1] * S
        dY = (market.mu - drags[:, k : k + 1]) * dt + market.sigma * math.sqrt(dt) * noise[:, k]
        np.add(Y, dY, out=Y, where=alive)
        alive &= Y >= log_floor
        S = np.where(alive, np.exp(Y), 0.0)
        hist[:, :, :, k + 1] = C, S
    return C, S, np.count_nonzero(~alive, axis=1), hist if return_paths else None


@pytest.mark.parametrize(
    "name, s0, log_floor, absorbed",
    [
        ("twap", 100.0, -60.0, 0),
        ("threshold", 100.0, -60.0, 0),
        ("feedback", 100.0, -60.0, 0),
        ("feedback", 0.0, -60.0, 60),
        ("feedback", 0.0, -math.inf, 0),  # log-price -inf from the start, and -inf never absorbs
        ("crush", 100.0, -20.0, 60),
        ("crush", 100.0, -45.7, None),  # about half the paths reach -45.7
        ("crush", 100.0, -math.inf, 0),
    ],
)
def test_factorised_march_matches_the_euler_loop(mixed_zoo, monkeypatch, name, s0, log_floor, absorbed):
    model, zoo = mixed_zoo
    if name == "crush":
        strat, model, x0 = DeterministicStrategy(Schedule.constant(50.0, 0.02, 1.0)), QUAD, 1.0
    else:
        strat, x0 = zoo[name], 0.5
    run = (strat, BS, model, 0.0, x0, s0, 1.0, 60, 400, 2)
    res = simulate(*run, log_floor=log_floor, return_paths=True)
    assert np.array_equal(simulate(*run, log_floor=log_floor).utilities, res.utilities)
    monkeypatch.setattr(SIM_MODULE, "_price_paths", _euler_loop)
    ref = simulate(*run, log_floor=log_floor, return_paths=True)
    assert res.absorption_count == ref.absorption_count
    if absorbed is None:  # the floor splits the paths
        assert 0 < ref.absorption_count < 60
    else:
        assert ref.absorption_count == absorbed
    for key in ("S", "C"):
        np.testing.assert_allclose(res.paths[key], ref.paths[key], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.utilities, ref.utilities, rtol=1e-12, atol=0.0)


class _CountingStrategy:
    def __init__(self, inner):
        self.inner, self.horizon, self.calls = inner, inner.horizon, 0

    def speeds(self, t, remaining):
        self.calls += 1
        return self.inner.speeds(t, remaining)


@pytest.fixture(scope="module")
def mixed_zoo():
    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    return m, {
        "twap": DeterministicStrategy(twap_solution(0.0, 0.5, 100.0, m, 0.04, 1.0).schedule),
        "threshold": DeterministicStrategy(Schedule.constant(m.threshold, 0.5 / m.threshold, 1.0)),
        "feedback": FeedbackStrategy(solve_reduced_hjb(m, 0.04, 1.0, 1.0, nt=40, nx=40)),
    }


@pytest.mark.parametrize("name", ["twap", "threshold", "feedback"])
def test_every_path_holds_the_same_inventory(mixed_zoo, name):
    # speeds see (t, remaining) only and every path starts at x0, so the
    # inventory path is shared; the simulator marches it once
    model, zoo = mixed_zoo
    res = simulate(zoo[name], BS, model, 0.0, 0.5, 100.0, 1.0, 40, 50, seed=3, return_paths=True)
    X = res.paths["X"]
    assert X.shape == (40, 51)
    assert np.all(X == X[0])
    assert X[0, 0] == 0.5 and X[0, -1] < 0.5
    assert res.inventory.quantiles[0] == res.inventory.quantiles[-1] == X[0, -1]


def test_strategy_and_impact_calls_do_not_depend_on_paths(monkeypatch):
    n_steps = 30
    counts = []
    base = _twap_and_feedback()
    for n_paths, chunk in ((1, 4096), (50, 4096), (50, 7)):
        monkeypatch.setattr(SIM_MODULE, "_NOISE_CELLS", chunk * n_steps)
        model = QuadraticImpact(1.0)
        g_calls = []
        plain_g = model.g

        def counting_g(x):
            g_calls.append(np.shape(x))
            return plain_g(x)

        object.__setattr__(model, "g", counting_g)
        named = [(name, _CountingStrategy(s)) for name, s in base]
        run = (BS, model, 0.0, 0.1, 100.0, 1.0, n_paths, n_steps)
        simulate(named[0][1], *run, seed=4)
        assert named[0][1].calls == n_steps
        compare_strategies(named, *run, seed=4)
        assert [s.calls for _, s in named] == [2 * n_steps, n_steps]
        counts.append(g_calls)
    # one g call per run, on every step's rate of every strategy at once
    assert counts == [[(1, n_steps), (2, n_steps)]] * 3


def test_pathwise_dominance_under_shared_noise():
    strat, _ = twap_strategy()
    n_paths, n_steps = 300, 200
    res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, n_paths, n_steps, seed=11, return_paths=True)
    ref = reference(100.0, 1.0, n_paths, n_steps, seed=11, return_paths=True)
    assert res.paths["S"].shape == (n_paths, n_steps + 1)
    assert np.all(res.paths["S"] <= ref.paths["S"] + 1e-12)


def test_unimpacted_lognormal_moment():
    ref = reference(100.0, 1.0, 20000, 100, seed=3)
    target = 100.0 * math.exp((-0.085 + 0.5 * 0.3**2) * 1.0)
    se = math.sqrt(ref.price.variance / 20000)
    assert abs(ref.price.mean - target) <= 3.0 * se


def test_absorption_is_permanent_and_counted():
    # a crushing constant selling rate drives the log-price below the floor
    crush = DeterministicStrategy(Schedule.constant(50.0, 0.02, 1.0))
    res = simulate(crush, BS, QUAD, 0.0, 1.0, 100.0, 1.0, 40, 400, seed=2, return_paths=True, log_floor=-20.0)
    assert res.absorption_count == 40
    S = res.paths["S"]
    for i in range(S.shape[0]):
        dead = np.nonzero(S[i] == 0.0)[0]
        assert dead.size > 0
        assert np.all(S[i, dead[0] :] == 0.0)


def test_cash_monotone_and_inventory_bounds():
    strat, _ = twap_strategy()
    res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 30, 100, seed=17, return_paths=True)
    assert np.all(np.diff(res.paths["C"], axis=1) >= 0.0)
    assert np.all(np.diff(res.paths["X"], axis=1) <= 0.0)
    assert np.all(res.paths["X"] >= 0.0)
    assert np.all(res.paths["X"] <= 0.1)


def test_feedback_strategy_tracks_closed_form():
    surf = solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=150, nx=150)
    fb = FeedbackStrategy(surf)
    speeds = np.array([fb.speeds(0.3, x) for x in (0.0, 0.03, 0.08, 0.15)])
    assert speeds[0] == 0.0
    assert np.all((speeds == 0.0) | (speeds > surf.threshold))
    sol = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)
    res = simulate(fb, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 4000, 200, seed=31)
    assert abs(res.mean_utility - sol.value) <= 3.0 * res.std_error + 5e-3


def test_feedback_speed_projection_out_of_forbidden_interval():
    m = MixedPowerImpact(alpha=1.0, p_convex=2.0, p_concave=0.5, threshold=1.0)
    surf = solve_reduced_hjb(m, 0.05, 1.0, 1.0, nt=60, nx=60)
    fb = FeedbackStrategy(surf)
    for t in (0.0, 0.25, 0.6, 0.99):
        sp = np.array([fb.speeds(t, x) for x in np.linspace(0.0, 1.0, 257).tolist()])
        assert np.all((sp == 0.0) | (sp > m.threshold))


def test_compare_strategies_crn():
    strat, _ = twap_strategy()
    dup = DeterministicStrategy(strat.schedule)
    comp = compare_strategies(
        [("a", strat), ("b", dup)], BS, QUAD, 0.0, 0.1, 100.0, 1.0, 200, 64, seed=13
    )
    (first, second, diff, se) = comp.pairs[0]
    assert (first, second) == ("a", "b")
    assert diff == 0.0
    assert se == 0.0
    assert comp.best() in ("a", "b")


def test_compare_strategies_honours_log_floor():
    # the crush case of the Euler-loop check: at log_floor = -20 every crush
    # path is absorbed, in compare exactly as in simulate
    crush = DeterministicStrategy(Schedule.constant(50.0, 0.02, 1.0))
    slow = DeterministicStrategy(Schedule.constant(1.0, 1.0, 1.0))
    run = (BS, QUAD, 0.0, 1.0, 100.0, 1.0, 60, 400, 2)
    comp = compare_strategies([("crush", crush), ("slow", slow)], *run, log_floor=-20.0)
    for j, strat in enumerate((crush, slow)):
        res = simulate(strat, *run, log_floor=-20.0)
        assert (comp.means[j], comp.std_errors[j]) == (res.mean_utility, res.std_error)
    assert simulate(crush, *run, log_floor=-20.0).absorption_count == 60
    assert simulate(crush, *run).absorption_count == 0


def test_compare_reports_each_strategys_absorptions():
    # a floor 0.2 below the start log-price absorbs some paths of every strategy
    named = _twap_and_feedback()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, 200, 64, 6)
    floor = math.log(100.0) - 0.2
    comp = compare_strategies(named, *run, log_floor=floor)
    want = [simulate(strat, *run, log_floor=floor).absorption_count for _, strat in named]
    assert comp.absorption_counts == want
    assert all(count > 0 for count in want)
    assert compare_strategies(named, *run).absorption_counts == [0, 0]


def test_compare_strategies_guards():
    strat, _ = twap_strategy()
    with pytest.raises(ValueError):
        compare_strategies([("a", strat)], BS, QUAD, 0.0, 0.1, 100.0, 1.0, 10, 10, seed=0)
    other = DeterministicStrategy(Schedule.constant(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="horizon"):
        compare_strategies(
            [("a", strat), ("b", other)], BS, QUAD, 0.0, 0.1, 100.0, 1.0, 10, 10, seed=0
        )


def test_constant_rate_beats_fast_variant_on_average():
    sol = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)
    slow = DeterministicStrategy(sol.schedule)
    fast = DeterministicStrategy(Schedule.constant(2.0 * sol.rate, 0.1 / (2.0 * sol.rate), 1.0))
    comp = compare_strategies(
        [("twap", slow), ("double", fast)], BS, QUAD, 0.0, 0.1, 100.0, 1.0, 8000, 250, seed=29
    )
    _, _, diff, se = comp.pairs[0]
    assert diff >= -3.0 * se  # constant-rate variant is weakly better


def test_strategy_zoo_never_beats_solver_value():
    # the reduced value is a supremum over admissible strategies: every
    # simulated risk-neutral value stays below it, up to noise and grid error
    surf = solve_reduced_hjb(QUAD, 0.04, 1.0, 0.2, nt=200, nx=200)
    upper = 100.0 * surf.value_at(1.0, 0.1)
    sol = twap_solution(0.0, 0.1, 100.0, QUAD, 0.04, 1.0)
    zoo = [
        DeterministicStrategy(sol.schedule),
        DeterministicStrategy(Schedule.constant(2.0 * sol.rate, 0.1 / (2.0 * sol.rate), 1.0)),
        DeterministicStrategy(Schedule.constant(1.0, 0.1, 1.0)),
        DeterministicStrategy(Schedule.constant(0.0, 0.0, 1.0)),
        FeedbackStrategy(surf),
    ]
    for strat in zoo:
        res = simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 3000, 250, seed=47)
        tol = 3.0 * res.std_error + 0.01 * upper
        assert res.mean_utility <= upper + tol


def test_utility_is_terminal_cash():
    # the risk-neutral trader: each path's utility is its terminal cash, and
    # compare's pair differences are those of the per-path cash
    strat, sol = twap_strategy()
    fast = DeterministicStrategy(Schedule.constant(2.0 * sol.rate, 0.1 / (2.0 * sol.rate), 1.0))
    run = (BS, QUAD, 1.5, 0.1, 100.0, 1.0, 300, 80, 11)
    res = simulate(strat, *run)
    assert res.mean_utility == res.cash.mean
    history = simulate(strat, *run, return_paths=True).paths["C"]
    assert np.allclose(res.utilities, history[:, -1], rtol=1e-12, atol=0.0)
    assert res.cash.quantiles == tuple(np.quantile(res.utilities, SIM_MODULE.QUANTILE_LEVELS))
    comp = compare_strategies([("twap", strat), ("fast", fast)], *run)
    cash = [simulate(s, *run).utilities for s in (strat, fast)]
    assert comp.means == [float(c.mean()) for c in cash]
    (_, _, diff, se) = comp.pairs[0]
    d = cash[0] - cash[1]
    assert diff == float(d.mean())
    assert se == float(d.std(ddof=1) / math.sqrt(run[6]))


@pytest.mark.parametrize(
    "mu, sigma", [(math.nan, 0.3), (-0.085, math.nan), (math.inf, 0.3), (-0.085, math.inf)]
)
def test_black_scholes_rejects_non_finite_coefficients(mu, sigma):
    with pytest.raises(ValueError, match="must be finite"):
        MarketParams.from_drift_vol(mu, sigma)


@pytest.mark.parametrize("decay", [math.nan, math.inf])
def test_market_from_decay_rejects_non_finite_decay(decay):
    with pytest.raises(ValueError, match="must be finite"):
        MarketParams.from_decay(decay)


def test_input_validation():
    strat, _ = twap_strategy()
    with pytest.raises(ValueError):
        simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 10, 10, seed=-1)
    with pytest.raises(ValueError):
        simulate(strat, BS, QUAD, 0.0, -0.1, 100.0, 1.0, 10, 10, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        simulate(strat, BS, QUAD, 0.0, 0.1, 100.0, 0.0, 10, 10, seed=0)
    wrong_horizon = DeterministicStrategy(Schedule.constant(0.1, 0.5, 2.0))
    with pytest.raises(ValueError):
        simulate(wrong_horizon, BS, QUAD, 0.0, 0.1, 100.0, 1.0, 10, 10, seed=0)


@pytest.mark.parametrize("name, value", [("seed", True), ("n_steps", 10.0), ("n_paths", True)])
def test_sizes_and_seed_must_be_integers(name, value):
    # a bool is an int to Python: seed=True would silently run as seed 1
    strat, _ = twap_strategy()
    args = {"n_paths": 10, "n_steps": 10, "seed": 0, name: value}
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, args["n_paths"], args["n_steps"])
    with pytest.raises(ValueError, match=name):
        simulate(strat, *run, seed=args["seed"])
    with pytest.raises(ValueError, match=name):
        compare_strategies([("a", strat), ("b", strat)], *run, seed=args["seed"])


def test_numpy_integer_sizes_give_the_int_run():
    named = _twap_and_feedback()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0)
    sizes = (np.int64(12), np.int64(30))
    res = simulate(named[1][1], *run, *sizes, seed=np.int64(8), return_paths=True)
    want = simulate(named[1][1], *run, 12, 30, seed=8, return_paths=True)
    assert res.utilities.tobytes() == want.utilities.tobytes()
    assert type(res.n_paths) is int and res.n_paths == 12
    for key in ("S", "C", "X"):
        assert res.paths[key].tobytes() == want.paths[key].tobytes()
    assert compare_strategies(named, *run, *sizes, seed=np.int64(8)) == compare_strategies(
        named, *run, 12, 30, seed=8
    )


def test_log_floor_may_be_infinite_but_not_nan():
    strat, _ = twap_strategy()
    run = (BS, QUAD, 0.0, 0.1, 100.0, 1.0, 10, 10)
    assert simulate(strat, *run, seed=0, log_floor=-math.inf).absorption_count == 0
    assert simulate(strat, *run, seed=0, log_floor=math.inf).absorption_count == 10
    # every comparison with NaN is false, so an unchecked NaN floor would never absorb
    with pytest.raises(ValueError, match="log_floor"):
        simulate(strat, *run, seed=0, log_floor=math.nan)
    with pytest.raises(ValueError, match="log_floor"):
        compare_strategies([("a", strat), ("b", strat)], *run, seed=0, log_floor=math.nan)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["c0", "x0", "s0", "horizon"])
def test_non_finite_inputs_are_rejected(name, value):
    strat, _ = twap_strategy()
    args = {"c0": 0.0, "x0": 0.1, "s0": 100.0, "horizon": 1.0, name: value}
    run = (args["c0"], args["x0"], args["s0"], args["horizon"], 10, 10)
    with pytest.raises(ValueError, match="must be finite"):
        simulate(strat, BS, QUAD, *run, seed=0)
    with pytest.raises(ValueError, match="must be finite"):
        compare_strategies([("a", strat), ("b", strat)], BS, QUAD, *run, seed=0)
