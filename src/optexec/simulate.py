"""Euler-Maruyama simulation of controlled liquidation.

Paths evolve in log-price space, dY = (b(Y) - g(x_t)) dt + vol(Y) dW, and
are exponentiated back, which keeps prices non-negative; once Y falls below
a configurable floor the price is absorbed at zero for the rest of the path.
Cash and inventory integrate with the explicit left-point rule, and a step
that would oversell is clipped to the remaining inventory.

A strategy's `speeds(t, remaining)` must be price-blind, as the optimal
feedback of the risk-neutral reduction (value c + s*W(t, x)) is.  Every path
then holds the same inventory, so it is marched once, with one `speeds` call
per step on a length-1 array and one `g` call for all steps, and the
per-path kernel advances only price and cash.

Noise comes from counter-based Philox streams keyed by (seed, path_index),
so results are bit-reproducible for a given (seed, n_paths, n_steps,
strategy) regardless of chunking, and distinct strategies simulated with the
same seed share noise path-by-path (common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import Schedule
from .hjb import ValueSurface
from .impact import ImpactModel

__all__ = [
    "CoefficientSet",
    "DeterministicStrategy",
    "FeedbackStrategy",
    "Utility",
    "TerminalStats",
    "SimResult",
    "UnimpactedResult",
    "simulate",
    "simulate_unimpacted",
    "StrategyComparison",
    "compare_strategies",
    "QUANTILE_LEVELS",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
_CHUNK = 4096


@dataclass(frozen=True)
class CoefficientSet:
    """Bounded Lipschitz log-price coefficients with caller-declared bounds;
    `drift` and `vol` act elementwise on float arrays of any shape."""

    drift: Callable[[np.ndarray], np.ndarray]
    vol: Callable[[np.ndarray], np.ndarray]
    drift_bound: float
    vol_bound: float

    @classmethod
    def black_scholes(cls, mu: float, sigma: float) -> "CoefficientSet":
        def drift(y):
            return np.full_like(np.asarray(y, dtype=float), mu)

        def vol(y):
            return np.full_like(np.asarray(y, dtype=float), sigma)

        return cls(drift=drift, vol=vol, drift_bound=abs(mu), vol_bound=abs(sigma))

    def spot_check(self, ys) -> None:
        """Verify the declared bounds on a sample of log-prices."""
        ys = np.asarray(ys, dtype=float)
        b = np.asarray(self.drift(ys), dtype=float)
        v = np.asarray(self.vol(ys), dtype=float)
        if np.any(np.abs(b) > self.drift_bound * (1.0 + 1e-12) + 1e-15):
            raise ValueError("drift exceeds its declared bound")
        if np.any(np.abs(v) > self.vol_bound * (1.0 + 1e-12) + 1e-15):
            raise ValueError("volatility exceeds its declared bound")


class DeterministicStrategy:
    """Open-loop selling along a fixed schedule; price-blind, so the
    simulator calls `speeds` once per step, on the inventory all paths share."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.horizon = float(schedule.horizon)

    def speeds(self, t: float, remaining: np.ndarray) -> np.ndarray:
        rate = max(float(self.schedule.rates(t)), 0.0)
        return np.full(remaining.shape, rate)


class FeedbackStrategy:
    """Closed-loop selling read off a solved value surface's policy.

    The surface is indexed by time-to-go, so at calendar time t the speed is
    the bilinear policy at (horizon - t, remaining).  Interpolated speeds
    that land in the forbidden interval (0, threshold] are projected to 0,
    so every emitted speed is 0 or strictly above the threshold.  The policy
    reads (t, remaining) only: price-blind, so the simulator calls `speeds`
    once per step, on the inventory all paths share.
    """

    def __init__(self, surface: ValueSurface):
        if surface.policy is None:
            raise ValueError("surface carries no policy")
        self.surface = surface
        self.horizon = float(surface.t_grid[-1])
        self.threshold = float(surface.threshold)

    def speeds(self, t: float, remaining: np.ndarray) -> np.ndarray:
        ttg = min(max(self.horizon - t, 0.0), self.horizon)
        y = self.surface.policy_row(ttg, remaining)
        # every policy node is 0 or above the threshold, but interpolating
        # between such a pair can land in (0, threshold]; the x = 0 column is 0
        return np.where((y > 0.0) & (y <= self.threshold), 0.0, y)


@dataclass(frozen=True)
class Utility:
    """Terminal utility u(c, x, s).  None means risk-neutral: u = c.

    Custom callables are the caller's responsibility (declared non-decreasing
    with polynomial growth); `spot_check_monotone` probes that claim.
    """

    fn: Optional[Callable] = None

    def evaluate(self, c, x, s) -> np.ndarray:
        if self.fn is None:
            return np.array(c, dtype=float, copy=True)
        return np.asarray(self.fn(c, x, s), dtype=float)

    def spot_check_monotone(self, points, bumps=1e-3) -> None:
        for c, x, s in points:
            base = float(self.evaluate(np.array([c]), np.array([x]), np.array([s]))[0])
            for dc, dx, ds in ((bumps, 0, 0), (0, bumps, 0), (0, 0, bumps)):
                up = float(
                    self.evaluate(np.array([c + dc]), np.array([x + dx]), np.array([s + ds]))[0]
                )
                if up < base - 1e-12:
                    raise ValueError("utility decreased along a coordinate bump")


@dataclass
class TerminalStats:
    mean: float
    variance: float
    quantiles: tuple


def _stats(arr: np.ndarray) -> TerminalStats:
    return TerminalStats(
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)) if arr.size > 1 else 0.0,
        quantiles=tuple(float(q) for q in np.quantile(arr, QUANTILE_LEVELS)),
    )


@dataclass(eq=False)
class SimResult:
    mean_utility: float
    std_error: float
    n_paths: int
    cash: TerminalStats
    inventory: TerminalStats
    price: TerminalStats
    absorption_count: int
    utilities: np.ndarray
    paths: Optional[dict] = None


@dataclass(eq=False)
class UnimpactedResult:
    price: TerminalStats
    paths: Optional[np.ndarray] = None


def _path_noise(seed: int, start: int, count: int, n_steps: int) -> np.ndarray:
    """Standard normals for paths start .. start+count-1, one Philox stream each."""
    out = np.empty((count, n_steps))
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state  # a fresh stream's: empty buffer, no cached uint32
    for i in range(count):
        # this state with counter 0 and the path's key equals a fresh
        # np.random.Philox(key=[seed, start + i]) bit for bit, without its set-up
        state["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, start + i], dtype=np.uint64),
        }
        bits.state = state
        gen.standard_normal(out=out[i])
    return out


def _validate_common(n_paths, n_steps, seed, horizon):
    if n_paths < 1 or n_steps < 1:
        raise ValueError("need n_paths >= 1 and n_steps >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if not isinstance(seed, (int, np.integer)) or seed < 0 or seed >= 2**63:
        raise ValueError("seed must be a non-negative integer below 2**63")


def simulate(
    strategy,
    coeffs: CoefficientSet,
    model: ImpactModel,
    c0: float,
    x0: float,
    s0: float,
    horizon: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    utility: Optional[Utility] = None,
    log_floor: float = -60.0,
    return_paths: bool = False,
) -> SimResult:
    """Monte Carlo estimate of E[u(C_T, X_T, S_T)] under the given strategy."""
    (res,) = _simulate_all(
        [strategy], coeffs, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
        utility, log_floor, return_paths,
    )
    return res


def _price_paths(sells, drags, coeffs, c0, s0, dt, n_paths, seed, log_floor, return_paths):
    """Cash and price of n_paths paths for each row of `sells` (the amount
    sold at each step) and `drags` (its impact drift g(sell/dt)), all rows
    on the same noise, as one (rows, paths) array per step.  Returns the
    terminal cash and price, (rows, n_paths) each, the absorbed-path count
    of each row, and the (cash/price, rows, n_paths, n_steps + 1) history.
    Spot-checks the coefficients' declared bounds around log(s0) first.
    """
    probe = math.log(s0) if s0 > 0.0 else 0.0
    coeffs.spot_check(np.linspace(probe - 5.0, probe + 5.0, 9))
    m, n_steps = sells.shape
    sqdt = math.sqrt(dt)
    y0 = math.log(s0) if s0 > 0.0 else log_floor - 1.0
    cash, price = np.empty((m, n_paths)), np.empty((m, n_paths))
    absorbed = np.zeros(m, dtype=int)
    hist = np.empty((2, m, n_paths, n_steps + 1)) if return_paths else None
    for start in range(0, n_paths, _CHUNK):
        count = min(_CHUNK, n_paths - start)
        rows = slice(start, start + count)
        noise = _path_noise(seed, start, count, n_steps)
        Y = np.full((m, count), y0)
        S = np.full((m, count), float(s0))
        C = np.full((m, count), float(c0))
        alive = np.full((m, count), s0 > 0.0)
        if hist is not None:
            hist[:, :, rows, 0] = C, S
        for k in range(n_steps):
            xi = noise[:, k].copy()  # one contiguous copy of the strided column for all rows
            C += sells[:, k : k + 1] * S
            dY = (coeffs.drift(Y) - drags[:, k : k + 1]) * dt + coeffs.vol(Y) * sqdt * xi
            np.add(Y, dY, out=Y, where=alive)
            alive &= Y >= log_floor
            S = np.where(alive, np.exp(Y), 0.0)
            if hist is not None:
                hist[:, :, rows, k + 1] = C, S
        cash[:, rows] = C
        price[:, rows] = S
        absorbed += np.count_nonzero(~alive, axis=1)
        # release this block before the next one is drawn, so one block is live at a time
        del noise
    return cash, price, absorbed, hist


def _simulate_all(
    strategies, coeffs, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
    utility=None, log_floor=-60.0, return_paths=False,
) -> list:
    """One SimResult per strategy, all driven by the same noise: each
    strategy's inventory path is marched once, one `g` call gives every
    step's impact drift, then `_price_paths` runs all strategies at once."""
    _validate_common(n_paths, n_steps, seed, horizon)
    if x0 < 0.0 or s0 < 0.0:
        raise ValueError("need x0 >= 0 and s0 >= 0")
    for strategy in strategies:
        if abs(strategy.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError("strategy horizon does not match the simulation horizon")
    utility = utility or Utility()

    dt = horizon / n_steps
    sells = np.empty((len(strategies), n_steps))
    xs = np.full((len(strategies), n_steps + 1), float(x0))
    for j, strategy in enumerate(strategies):
        for k in range(n_steps):
            X = xs[j, k : k + 1]  # the inventory every path holds
            sp = np.where(X > 0.0, np.asarray(strategy.speeds(k * dt, X), dtype=float), 0.0)
            sells[j, k] = np.minimum(sp * dt, X)[0]
            xs[j, k + 1] = X[0] - sells[j, k]
    cash, price, absorbed, hist = _price_paths(
        sells, model.g(sells / dt), coeffs, c0, s0, dt, n_paths, seed, log_floor, return_paths
    )

    results = []
    for j in range(len(strategies)):
        inventory = np.full(n_paths, xs[j, -1])
        utilities = utility.evaluate(cash[j], inventory, price[j])
        se = float(utilities.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        paths = None
        if return_paths:
            t = np.linspace(0.0, horizon, n_steps + 1)
            paths = {"t": t, "S": hist[1, j], "C": hist[0, j], "X": np.tile(xs[j], (n_paths, 1))}
        results.append(
            SimResult(
                mean_utility=float(utilities.mean()),
                std_error=se,
                n_paths=n_paths,
                cash=_stats(cash[j]),
                inventory=_stats(inventory),
                price=_stats(price[j]),
                absorption_count=int(absorbed[j]),
                utilities=utilities,
                paths=paths,
            )
        )
    return results


def simulate_unimpacted(
    coeffs: CoefficientSet,
    s0: float,
    horizon: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    return_paths: bool = False,
) -> UnimpactedResult:
    """Impact-free reference price driven by the same noise streams as
    `simulate` with matching (seed, path_index): under shared noise the
    controlled price never exceeds this one."""
    _validate_common(n_paths, n_steps, seed, horizon)
    if s0 < 0.0:
        raise ValueError("s0 must be non-negative")
    # a row that sells nothing, has zero drag and is never absorbed: the
    # controlled step with g = 0 (drift - 0.0 is drift), so a zero-impact run
    # reproduces this price bit for bit; s0 = 0 stays at Y = -inf, S = 0
    zero = np.zeros((1, n_steps))
    _, price, _, hist = _price_paths(
        zero, zero, coeffs, 0.0, s0, horizon / n_steps, n_paths, seed, -math.inf, return_paths
    )
    return UnimpactedResult(price=_stats(price[0]), paths=None if hist is None else hist[1, 0])


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
    coeffs: CoefficientSet,
    model: ImpactModel,
    c0: float,
    x0: float,
    s0: float,
    horizon: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    utility: Optional[Utility] = None,
) -> StrategyComparison:
    """Simulate named strategies under common random numbers and rank them.

    `strategies` is a sequence of (name, strategy) pairs sharing the same
    horizon.  Each path's noise stream is drawn once and shared by every
    compared strategy, so each strategy's utilities equal those of its own
    `simulate` call with the same seed, bit for bit.  The pairwise
    differences are computed path-by-path, so their standard errors reflect
    the variance reduction of the shared noise.
    """
    strategies = list(strategies)
    if len(strategies) < 2:
        raise ValueError("need at least two strategies to compare")
    for name, s in strategies:
        if abs(s.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError(f"strategy {name!r} has a mismatched horizon")

    names = [name for name, _ in strategies]
    results = _simulate_all(
        [s for _, s in strategies], coeffs, model, c0, x0, s0, horizon, n_paths, n_steps, seed,
        utility=utility,
    )
    utils = [res.utilities for res in results]
    means = [res.mean_utility for res in results]
    ses = [res.std_error for res in results]
    pairs = []
    for i in range(len(utils)):
        for j in range(i + 1, len(utils)):
            d = utils[i] - utils[j]
            se = float(d.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            pairs.append((names[i], names[j], float(d.mean()), se))
    return StrategyComparison(names=names, means=means, std_errors=ses, pairs=pairs)
