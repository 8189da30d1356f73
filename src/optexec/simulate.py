"""Monte Carlo simulation of controlled liquidation in the Black-Scholes market.

Paths evolve in log-price space, dY = (mu - g(x_t)) dt + sigma dW, and are
exponentiated back, which keeps prices non-negative; once Y falls below a
configurable floor the price is absorbed at zero for the rest of the path.
Cash and inventory integrate with the explicit left-point rule, and a step
that would oversell is clipped to the remaining inventory.

A strategy's `speeds(t, remaining)` must be price-blind, as the optimal
feedback of the risk-neutral reduction (value c + s*W(t, x)) is.  Every path
then holds the same inventory, so it is marched once as a float: `speeds`
takes that inventory as a float and returns one speed, called once per step,
and one `g` call covers all steps.  The per-path work advances only price
and cash.

The impact drift is then the same on every path, so strategy j's log-price
is the unimpacted one minus a deterministic drag, Y_j,k = Yref_k - G_j,k with
G_j,k = sum_{l<k} g(sell_j,l/dt)*dt.  Each chunk builds Yref once, as one
running sum over its noise block in place (the float operations of the
zero-drag Euler step), and reads every strategy's price S_j,k =
exp(Yref_k)*exp(-G_j,k) and terminal cash off it, with no per-step loop.
G >= 0, so exp(-G) <= 1 and no controlled price exceeds the impact-free
reference price of the same path: the price of the zero schedule, whose drag
is g(0) = 0, simulated with log_floor = -inf.  Only paths whose lowest
Yref minus G's largest value falls below the floor can be absorbed, and only
those get the per-step floor check.

Noise is one np.random.default_rng(seed) stream per run, drawn in path
order, so results are bit-reproducible for a given (seed, n_steps, strategy)
whatever the chunking, a run's paths are the first paths of any longer run,
and distinct strategies simulated with the same seed share noise
path-by-path (common random numbers).  The draw is pipelined: numpy fills a
block with the GIL released, so a helper thread draws the next block of that
same stream while the current block is priced.  Memory is two blocks of
_CHUNK x n_steps floats, and the results are bit-identical to a serial draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_form import MarketParams, Schedule
from .errors import require_finite
from .hjb import ValueSurface
from .impact import ImpactModel

__all__ = [
    "DeterministicStrategy",
    "FeedbackStrategy",
    "TerminalStats",
    "SimResult",
    "simulate",
    "StrategyComparison",
    "compare_strategies",
    "QUANTILE_LEVELS",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
_CHUNK = 1024  # paths per noise block: 4 MB at 500 steps, two blocks live
_CASH_ROWS = 256  # rows per cash sub-block: a 1 MB temporary at 500 steps


class DeterministicStrategy:
    """Open-loop selling along a fixed schedule; price-blind, so the
    simulator calls `speeds` once per step, on the inventory all paths share."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.horizon = float(schedule.horizon)

    def speeds(self, t: float, remaining: float) -> float:
        return max(float(self.schedule.rates(t)), 0.0)


class FeedbackStrategy:
    """Closed-loop selling read off a solved value surface's policy.

    The surface is indexed by time-to-go, so at calendar time t the speed is
    the bilinear policy at (horizon - t, remaining); an inventory above the
    grid's x_max raises ValueError.  Interpolated speeds that land in the
    forbidden interval (0, threshold] are projected to 0, so every emitted
    speed is 0 or strictly above the threshold.  The policy
    reads (t, remaining) only: price-blind, so the simulator calls `speeds`
    once per step, on the inventory all paths share.
    """

    def __init__(self, surface: ValueSurface):
        self.surface = surface
        self.horizon = float(surface.t_grid[-1])
        self.threshold = float(surface.threshold)

    def speeds(self, t: float, remaining: float) -> float:
        y = self.surface.policy_at(self.horizon - t, remaining)
        # every policy node is 0 or above the threshold, but interpolating
        # between such a pair can land in (0, threshold]; the x = 0 column is 0
        return 0.0 if 0.0 < y <= self.threshold else y


@dataclass
class TerminalStats:
    mean: float
    variance: float
    quantiles: tuple


def _std_error(arr: np.ndarray) -> float:
    return float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0


def _stats(arr: np.ndarray) -> TerminalStats:
    return TerminalStats(
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)) if arr.size > 1 else 0.0,
        quantiles=tuple(float(q) for q in np.quantile(arr, QUANTILE_LEVELS)),
    )


@dataclass(eq=False)
class SimResult:
    """One strategy's run; `utilities` is the per-path terminal cash of the
    risk-neutral trader and `mean_utility` its mean."""

    mean_utility: float
    std_error: float
    n_paths: int
    cash: TerminalStats
    inventory: TerminalStats
    price: TerminalStats
    absorption_count: int
    utilities: np.ndarray
    paths: Optional[dict] = None


def simulate(
    strategy,
    market: MarketParams,
    model: ImpactModel,
    c0: float,
    x0: float,
    s0: float,
    horizon: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    log_floor: float = -60.0,
    return_paths: bool = False,
) -> SimResult:
    """Monte Carlo estimate of E[C_T], the risk-neutral trader's terminal cash,
    under the given strategy.  A path whose log-price falls below `log_floor`
    is absorbed at price 0; -inf never absorbs, and a NaN floor raises."""
    xs, cash, price, absorbed, hist = _simulate_all(
        [strategy], market, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
        log_floor, return_paths,
    )
    paths = None
    if return_paths:
        t = np.linspace(0.0, horizon, n_steps + 1)
        paths = {"t": t, "S": hist[1, 0], "C": hist[0, 0], "X": np.tile(xs[0], (n_paths, 1))}
    x_T = float(xs[0, -1])  # every path holds the same inventory
    return SimResult(
        mean_utility=float(cash[0].mean()),
        std_error=_std_error(cash[0]),
        n_paths=n_paths,
        cash=_stats(cash[0]),
        inventory=TerminalStats(x_T, 0.0, (x_T,) * len(QUANTILE_LEVELS)),
        price=_stats(price[0]),
        absorption_count=int(absorbed[0]),
        utilities=cash[0],
        paths=paths,
    )


def _price_paths(sells, drags, market, c0, s0, dt, n_paths, seed, log_floor, return_paths):
    """Cash and price of n_paths paths for each row of `sells` (the amount
    sold at each step) and `drags` (its impact drift g(sell/dt)), all rows
    on the same noise.  Returns the terminal cash and price, (rows, n_paths)
    each, the absorbed-path count of each row, and the (cash/price, rows,
    n_paths, n_steps + 1) history.

    Chunk k's noise is drawn into block k % 2 on a helper thread while chunk
    k - 1 is priced on this one; a failed draw is re-raised here, and the
    helper is joined on every way out.
    """
    m, n_steps = sells.shape
    hist = np.empty((2, m, n_paths, n_steps + 1)) if return_paths else None
    gen = np.random.default_rng(seed)
    cash, price = np.empty((m, n_paths)), np.empty((m, n_paths))
    absorbed = np.zeros(m, dtype=int)
    chunks = [slice(start, min(start + _CHUNK, n_paths)) for start in range(0, n_paths, _CHUNK)]
    blocks = np.empty((2, chunks[0].stop, n_steps))
    noise = [blocks[k % 2, : rows.stop - rows.start] for k, rows in enumerate(chunks)]
    failed = []

    def draw(block):
        try:
            gen.standard_normal(out=block)
        except BaseException as exc:
            failed.append(exc)

    def spawn(block):  # bound once started, so `finally` never joins an unstarted thread
        helper = threading.Thread(target=draw, args=(block,))
        helper.start()
        return helper

    helper = spawn(noise[0])
    try:
        for k, rows in enumerate(chunks):
            helper.join()
            if failed:
                raise failed[0]
            if k + 1 < len(chunks):  # chunk k - 1 has returned, so its block is free
                helper = spawn(noise[k + 1])
            absorbed += _factorised_chunk(
                noise[k], sells, drags, market, c0, s0, dt, log_floor,
                cash[:, rows], price[:, rows], None if hist is None else hist[:, :, rows],
            )
    finally:
        helper.join()
    return cash, price, absorbed, hist


def _factorised_chunk(noise, sells, drags, market, c0, s0, dt, log_floor, cash, price, hist):
    """One chunk: the noise block becomes the unimpacted log-price Yref in
    place, and each strategy's price and cash are read off it through its
    drag G.  Fills `cash`, `price` and `hist` and returns each strategy's
    absorbed-path count."""
    mu, sigma = market.mu, market.sigma
    m, n = sells.shape
    # Yref_k = y0 + dY_0 + ... + dY_{k-1}, summed in order, dY_l = mu*dt + (sigma*sqdt)*xi_l
    noise *= sigma * math.sqrt(dt)
    noise += mu * dt
    noise[:, 0] += math.log(s0) if s0 > 0.0 else -math.inf  # s0 = 0 starts at log-price -inf
    Y = np.add.accumulate(noise, axis=1, out=noise)
    G = np.zeros((m, n + 1))  # G_j,k = sum_{l<k} drag_j,l*dt
    np.add.accumulate(drags * dt, axis=1, out=G[:, 1:])
    # float subtraction is monotone, so fl(Yref_k - G_j,k) >= fl(min Yref - max G_j):
    # only rows where that bound crosses the floor can be absorbed
    y_low = Y.min(axis=1)
    alive = {}
    for j, g_top in enumerate(G.max(axis=1)):
        at_risk = np.flatnonzero(y_low - g_top < log_floor)
        if at_risk.size:
            ok = Y[at_risk] - G[j, 1:] >= log_floor
            alive[j] = at_risk, np.logical_and.accumulate(ok, axis=1)
    Z = np.exp(Y, out=Y)
    discount = np.exp(-G)
    # cash_j = c0 + sum_k sell_j,k*S_j,k with S_j,k = Z_k*discount_j,k and S_j,0 = s0
    weights = sells * discount[:, :n]
    absorbed = np.zeros(m, dtype=int)
    for j in range(m):
        head, w = c0 + sells[j, 0] * s0, weights[j, 1:]
        # per-row pairwise sums, a few hundred rows at a time: no block-sized temporary,
        # and no BLAS mat-vec, whose summation order could depend on the row count
        for lo in range(0, Z.shape[0], _CASH_ROWS):
            block = Z[lo : lo + _CASH_ROWS, : n - 1]
            cash[j, lo : lo + _CASH_ROWS] = head + (block * w).sum(axis=1)
        price[j] = Z[:, -1] * discount[j, -1]
        if hist is not None:
            hist[1, j, :, 0] = s0
            np.multiply(Z, discount[j, 1:], out=hist[1, j, :, 1:])
        if j in alive:
            at_risk, ok = alive[j]
            live = np.where(ok, Z[at_risk], 0.0)
            cash[j, at_risk] = head + (live[:, : n - 1] * w).sum(axis=1)
            price[j, at_risk] = live[:, -1] * discount[j, -1]
            if hist is not None:
                hist[1, j, at_risk, 1:] = live * discount[j, 1:]
            absorbed[j] = np.count_nonzero(~ok[:, -1])
        if hist is not None:
            # the running left-point cash; its last column is the terminal cash up to rounding
            C = hist[0, j]
            C[:, 0] = c0
            np.multiply(hist[1, j, :, :-1], sells[j], out=C[:, 1:])
            np.add.accumulate(C, axis=1, out=C)
    return absorbed


def _simulate_all(
    strategies, market, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
    log_floor=-60.0, return_paths=False,
):
    """All strategies driven by the same noise: each strategy's inventory
    path is marched once as a float, one `g` call gives every step's impact
    drift, then `_price_paths` runs all strategies at once.  Returns the
    inventory paths, (rows, n_steps + 1), then `_price_paths`' cash, price,
    absorbed counts and history."""
    if n_paths < 1 or n_steps < 1:
        raise ValueError("need n_paths >= 1 and n_steps >= 1")
    require_finite(c0=c0, x0=x0, s0=s0, horizon=horizon)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if x0 < 0.0 or s0 < 0.0:
        raise ValueError("need x0 >= 0 and s0 >= 0")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if math.isnan(log_floor):  # -inf never absorbs, +inf absorbs every path
        raise ValueError("log_floor must not be NaN")
    for strategy in strategies:
        if abs(strategy.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError("strategy horizon does not match the simulation horizon")

    dt = horizon / n_steps
    sells = np.empty((len(strategies), n_steps))
    xs = np.empty((len(strategies), n_steps + 1))
    for j, strategy in enumerate(strategies):
        x = xs[j, 0] = float(x0)  # the inventory every path holds
        for k in range(n_steps):
            speed = strategy.speeds(k * dt, x)
            sells[j, k] = sell = min(speed * dt, x) if x > 0.0 else 0.0
            x = xs[j, k + 1] = x - sell
    drags = model.g(sells / dt)
    return (xs, *_price_paths(sells, drags, market, c0, s0, dt, n_paths, seed, log_floor, return_paths))


@dataclass
class StrategyComparison:
    names: list
    means: list
    std_errors: list
    pairs: list  # (name_i, name_j, mean_diff, se_diff)

    def best(self) -> str:
        return self.names[int(np.argmax(self.means))]


def compare_strategies(
    strategies,
    market: MarketParams,
    model: ImpactModel,
    c0: float,
    x0: float,
    s0: float,
    horizon: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    log_floor: float = -60.0,
) -> StrategyComparison:
    """Simulate named strategies under common random numbers and rank them.

    `strategies` is a sequence of (name, strategy) pairs sharing the same
    horizon.  Each path's noise stream is drawn once and shared by every
    compared strategy, so each strategy's terminal cash equals that of its own
    `simulate` call with the same seed, bit for bit.  The pairwise
    differences are computed path-by-path, so their standard errors reflect
    the variance reduction of the shared noise.
    """
    strategies = list(strategies)
    if len(strategies) < 2:
        raise ValueError("need at least two strategies to compare")

    names = [name for name, _ in strategies]
    _, cash, _, _, _ = _simulate_all(
        [s for _, s in strategies], market, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
        log_floor,
    )
    means = [float(u.mean()) for u in cash]
    ses = [_std_error(u) for u in cash]
    pairs = []
    for i in range(len(cash)):
        for j in range(i + 1, len(cash)):
            d = cash[i] - cash[j]
            pairs.append((names[i], names[j], float(d.mean()), _std_error(d)))
    return StrategyComparison(names=names, means=means, std_errors=ses, pairs=pairs)
