"""Command-line harness: one config file in, JSON summaries and CSV tables out.

Every run writes `summary.json` (deterministic: identical configs give
byte-identical bytes), the requested CSV tables, and `manifest.json`
(resolved config, version, dependency versions and timestamp) from which
`optexec rerun` can reproduce the run exactly.  Exit codes: 0 ok, 2 config
error, 3 hypothesis violation, 4 numerical failure (including a
`hamiltonian-check` whose own check fails, after its artifacts are written).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .closed_form import (
    Schedule,
    extreme_comparison,
    mixed_power_solution,
    twap_rate,
    twap_solution,
)
from .config import RunConfig, apply_overrides, build_run_config, read_config_file
from .errors import ConfigError, HypothesisViolation, NumericalFailure
from .hamiltonian import closed_vs_brute_samples
from .hjb import on_grid, solve_reduced_hjb, solve_reduced_hjb_ladder
from .impact import LevyEffectiveImpact, MixedPowerImpact, ShiftedConvexImpact
from .simulate import (
    QUANTILE_LEVELS,
    DeterministicStrategy,
    FeedbackStrategy,
    compare_strategies,
    simulate,
)

OUTPUT_ENV_VAR = "OPTEXEC_OUTPUT_DIR"


_CSV_CELLS = 2048  # cells per write, one `_g17` call: the most whole rows or grid levels that fit, at least one


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles


def _two_product(a, b):
    """(p, e) with p + e == a*b exactly: p the rounded product, e its error (Dekker's TwoProduct)."""
    p = a * b
    c = 134217729.0 * a  # 2**27 + 1: splits a significand into halves whose products are exact
    a1 = c - (c - a)
    c = 134217729.0 * b
    b1 = c - (c - b)
    return p, ((a1 * b1 - p) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)


@functools.cache
def _g17_tables():
    """The block formatter's lookup tables, built on first use (136 kB).

    `quads` holds the 4 ASCII digits of each of 0..9999 as one uint32, `zeros`
    its trailing zero digits (4 for 0).  `layout` has a row per (sign, decimal
    exponent X in -4..15, index of the last non-zero digit): the source byte of
    each of the 23 output bytes in a 24-byte row ['000', 17 digits, '.', '-', NUL].
    """
    d = np.arange(48, 58, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    quads[..., 0], quads[..., 1], quads[..., 2], quads[..., 3] = d[:, None, None, None], d[:, None, None], d[:, None], d
    z = (d == 48).astype(np.intp)
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    x, last, j = np.ix_(range(-4, 16), range(17), range(23))
    w = np.where
    # X >= 0: X + 1 integer digits, then '.' and the fraction if any is left; X < 0: '0.', zeros, the digits
    fixed = w(j <= x, j + 3, w((j == x + 1) & (last > x), 20, w((x + 1 < j) & (j <= last + 1), j + 2, 22)))
    small = w(j == 1, 20, w(j < 1 - x, 0, w(j <= last + 1 - x, j + x + 2, 22)))
    layout = np.full((2, 20 * 17, 23), 21, np.int8)  # int8 rows take 4x faster than intp rows
    layout[0] = w(x >= 0, fixed, small).reshape(-1, 23)
    layout[1, :, 1:] = layout[0, :, :-1]  # a '-' first; the unsigned text is at most 22 bytes
    return quads.reshape(-1, 4).view(np.uint32).ravel(), zeros.ravel(), layout.reshape(-1, 23)


def _digits17(a):
    """(E, N) for finite a in [1e-4, 1e16): a = N * 10**(E - 16) rounded half-even, N a 17-digit integer.

    With E = floor(log10(a)) (log10's estimate, corrected by one where the
    product below leaves [1e16, 1e17)), 10**(16 - E) is an exact double, so
    TwoProduct gives a * 10**(16 - E) exactly as p + e.  p is an even integer
    (past 2**53), so p + rint(e) is the half-even rounding of the exact value.
    It never carries to 1e17: no double in that range lies within half a unit
    of the 17th digit below a power of ten.
    """
    x = np.floor(np.log10(a)).astype(np.intp)
    p, e = _two_product(a, _POW10[16 - x])
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))  # where p + e may lie outside [1e16, 1e17)
    if off.size:
        po, eo = p[off], e[off]
        x[off] += ((po > 1e17) | ((po == 1e17) & (eo >= 0))) * 1 - ((po < 1e16) | ((po == 1e16) & (eo < 0)))
        p[off], e[off] = _two_product(a[off], _POW10[16 - x[off]])
    return x, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _spell(v, x, digits):
    """The (n, 23) NUL-padded ASCII of each v in .17g fixed notation, from its `_digits17` (E, N).

    The digits are read 4 at a time from `quads`, then each output byte is
    taken from its row by `layout`, which places the point and drops trailing
    fraction zeros.  A zero v spells 0 or -0.  `digits` is overwritten.
    """
    quads, zeros, layout = _g17_tables()
    n = len(digits)
    digits[v == 0.0] = 0
    groups = np.empty((n, 5), np.intp)  # the first digit, then four groups of 4
    groups[:, 0] = digits // 10**16
    digits -= groups[:, 0] * 10**16
    upper = digits // 10**8
    digits -= upper * 10**8
    groups[:, 1] = upper // 10**4
    groups[:, 2] = upper - groups[:, 1] * 10**4
    groups[:, 3] = digits // 10**4
    groups[:, 4] = digits - groups[:, 3] * 10**4
    t = zeros.take(groups[:, 1:])  # a group's trailing zeros, 4 if it is all zeros
    last = 16 - (t[:, 3] + (t[:, 3] == 4) * (t[:, 2] + (t[:, 2] == 4) * (t[:, 1] + (t[:, 1] == 4) * t[:, 0])))
    key = (np.signbit(v) * 20 + x + 4) * 17 + last
    src = np.empty((n, 6), np.uint32)
    src[:, :5] = quads.take(groups)
    src[:, 5] = int.from_bytes(b".-\0\0", "little")
    del upper, groups, t  # the gather's (n, 23) index is the memory peak: free what it does not need
    return src.view(np.uint8).ravel().take(layout.take(key, axis=0) + np.arange(0, 24 * n, 24)[:, None])


def _g17(values) -> list:
    """`format(v, ".17g").encode()` for each v of a float array, computed in numpy in one pass.

    For finite |v| in [1e-4, 1e16), .17g is fixed notation with the 17 digits
    of `_digits17`, spelled by `_spell`.  Zeros print as '0' or '-0'; the
    other values (tiny, huge, inf, nan) go through `format`.  The working set
    is about 0.3 kB per cell, so `_write_csv` passes one block at a time.
    """
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0  # any stand-in: zeros are spelled 0 and the other cells replaced below
    texts = _spell(v, *_digits17(a)).view("S23").ravel().tolist()
    for i in np.flatnonzero(~fast & (v != 0.0)).tolist():
        texts[i] = format(float(v[i]), ".17g").encode()
    return texts


def _cells(cols) -> list:
    """The cells of equal-length columns in row order, as ASCII texts: the arguments of one block's template.

    The float arrays' cells are formatted together, by one `_g17` call; the
    other cells (list cells, other arrays) by `_fmt`.
    """
    floats = [j for j, c in enumerate(cols) if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    args = [None] * (len(cols) * len(cols[0]))
    if floats:
        texts = _g17(np.stack([cols[j] for j in floats], axis=-1).ravel())
        for i, j in enumerate(floats):
            args[j :: len(cols)] = texts[i :: len(floats)]
    for j, c in enumerate(cols):
        if j not in floats:
            args[j :: len(cols)] = [_fmt(v).encode() for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
    return args


def _write_csv(path: str, header, columns) -> None:
    """Header plus one row per index of the equal-length columns, comma-separated with CRLF ends.

    Both table shapes use one mechanism: rows are written a block at a time,
    each block one `%` call on a template of %s slots whose arguments are the
    block's cell texts (`_cells`), so no table is held as text, and a % in a
    text cell, an argument, needs no escaping.  A block holds up to
    `_CSV_CELLS` cells: a flat table's block is the most whole rows that fit.
    A grid table, whose columns are an outer axis, an inner axis and fields
    shaped (outer, inner), has a row per (outer, inner) pair; its block is the
    most whole outer levels whose field cells fit (at least one), with one
    template per level that holds the axis texts, %-escaped.  The file is UTF-8.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        if np.ndim(columns[-1]) == 2:
            outer, inner, *fields = columns
            slots = b",%s" * len(fields)
            body = [x.replace(b"%", b"%%") + slots for x in _cells([inner])]
            heads = [t.replace(b"%", b"%%") + b"," for t in _cells([outer])]
            m = len(body) * len(fields)
            step = max(1, _CSV_CELLS // m)
            for lo in range(0, len(heads), step):
                cells = _cells([f[lo : lo + step].ravel() for f in fields])
                for k, t in enumerate(heads[lo : lo + step]):
                    block = t + (b"\r\n" + t).join(body) + b"\r\n"
                    fh.write(block % tuple(cells[k * m : (k + 1) * m]))
        else:
            row = b",".join([b"%s"] * len(columns)) + b"\r\n"
            step = max(1, _CSV_CELLS // len(columns))
            for lo in range(0, len(columns[0]), step):
                cells = _cells([c[lo : lo + step] for c in columns])
                fh.write(row * (len(cells) // len(columns)) % tuple(cells))


def _write_artifacts(name: str, cfg: RunConfig, out_dir: str, summary: dict, tables: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if "json" in cfg.output.formats:
        doc = {"subcommand": name, "version": __version__}
        doc.update(summary)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "csv" in cfg.output.formats:
        for tname, (header, columns) in tables.items():
            _write_csv(os.path.join(out_dir, f"{tname}.csv"), header, columns)
    manifest = {
        "subcommand": name,
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.resolved,
        # bit-identical reruns rest on numpy's PCG64 (default_rng) and its normal and uniform draws
        "dependencies": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _schedule_table(schedule: Schedule, n: int):
    return ["t", "rate"], schedule.sample(n)


def _stats_dict(stats) -> dict:
    return {
        "mean": stats.mean,
        "variance": stats.variance,
        "quantiles": {str(q): v for q, v in zip(QUANTILE_LEVELS, stats.quantiles)},
    }


def _build_strategy(spec: str, cfg: RunConfig):
    """Map a strategy spec string to a simulation strategy.

    twap           constant selling at the optimal rate
    threshold      constant selling at the impact threshold
    rate:<v>       constant selling at rate v until inventory is gone
    zero           no trading
    feedback       closed-loop policy from a fresh HJB solve
    """
    model, prob, market = cfg.model, cfg.problem, cfg.market
    horizon, x0 = prob.horizon, prob.x0
    if spec == "twap":
        sol = twap_solution(prob.c0, x0, prob.s0, model, market.decay, horizon)
        return DeterministicStrategy(sol.schedule)
    if spec == "threshold":
        if model.threshold <= 0.0:
            raise ConfigError("threshold strategy needs a model with a positive threshold")
        if x0 > model.threshold * horizon:
            raise HypothesisViolation("threshold strategy cannot finish: x0 > threshold * horizon")
        return DeterministicStrategy(
            Schedule.constant(model.threshold, x0 / model.threshold, horizon)
        )
    if spec.startswith("rate:"):
        rate = float(spec.split(":", 1)[1])
        if not (np.isfinite(rate) and rate >= 0.0):
            raise ConfigError("rate strategy needs a finite non-negative rate")
        duration = min(x0 / rate, horizon) if rate > 0.0 else 0.0
        return DeterministicStrategy(Schedule.constant(rate, duration, horizon))
    if spec == "zero":
        return DeterministicStrategy(Schedule.constant(0.0, 0.0, horizon))
    if spec == "feedback":
        surface = _solve_surface(cfg)
        return FeedbackStrategy(surface)
    raise ConfigError(f"unknown strategy spec {spec!r}")


def _grid_x_max(cfg: RunConfig) -> float:
    """The solved grid's inventory range, checked to hold x0 before any solve."""
    x_max = cfg.solver.x_max if cfg.solver.x_max is not None else 2.0 * cfg.problem.x0
    if x_max <= 0.0:
        raise ConfigError("solver.x_max must be positive (set it explicitly when x0 = 0)")
    on_grid(cfg.problem.x0, 0.0, x_max, "x")  # every caller reads the surface at x0: fail before the solve
    return x_max


def _solve_surface(cfg: RunConfig):
    solver = cfg.solver
    return solve_reduced_hjb(
        cfg.model,
        cfg.market.decay,
        cfg.problem.horizon,
        _grid_x_max(cfg),
        nt=solver.nt,
        nx=solver.nx,
        y_max=solver.y_max,
    )


# -- subcommands: each maps a config to (summary, tables) -------------------------


def _twap(cfg: RunConfig):
    p = cfg.problem
    sol = twap_solution(p.c0, p.x0, p.s0, cfg.model, cfg.market.decay, p.horizon)
    summary = {
        "value": sol.value,
        "rate": sol.rate,
        "marginal_at_rate": sol.marginal_at_rate,
        "sell_duration": sol.schedule.total / sol.rate if sol.rate > 0 else 0.0,
        "decay": cfg.market.decay,
    }
    return summary, {"schedule": _schedule_table(sol.schedule, cfg.output.schedule_samples)}


def _mixed_power(cfg: RunConfig):
    if not isinstance(cfg.model, MixedPowerImpact):
        raise ConfigError("mixed-power needs [impact] family = mixed_power")
    p = cfg.problem
    sol = mixed_power_solution(p.c0, p.x0, p.s0, cfg.model, cfg.market.decay, p.horizon)
    summary = {
        "regime": sol.regime,
        "value": sol.value,
        "x_large": sol.x_large,
        "x_small": sol.x_small,
        "rate": sol.rate,
        "delta": sol.delta,
    }
    tables = {}
    if sol.schedule is not None:
        tables["schedule"] = _schedule_table(sol.schedule, cfg.output.schedule_samples)
    return summary, tables


def _levy_nu(cfg: RunConfig):
    if not isinstance(cfg.model, LevyEffectiveImpact):
        raise ConfigError("levy-nu needs [impact] family = levy_effective")
    m = cfg.model
    rate = twap_rate(m, cfg.market.decay)
    residual = m.excess_impact(rate) - cfg.market.decay
    return {"rate": rate, "residual": residual, "decay": cfg.market.decay}, {}


def _extreme_compare(cfg: RunConfig):
    if not isinstance(cfg.model, ShiftedConvexImpact):
        raise ConfigError("extreme-compare needs [impact] family = shifted_convex")
    p = cfg.problem
    comp = extreme_comparison(cfg.model, p.x0, p.s0, cfg.market.decay, p.horizon)
    summary = {
        "optimal_value": comp.optimal_value,
        "threshold_value": comp.threshold_value,
        "rate": comp.rate,
        "margin": comp.optimal_value - comp.threshold_value,
    }
    return summary, {}


def _solve_hjb(cfg: RunConfig):
    p, solver = cfg.problem, cfg.solver
    sizes = [(solver.nt, solver.nx)]
    if solver.refine:
        if min(solver.nt, solver.nx) < 4:
            raise ConfigError("solver.refine needs solver.nt >= 4 and solver.nx >= 4: the half grid must be coarser")
        sizes.append((solver.nt // 2, solver.nx // 2))
    surface, *coarse = solve_reduced_hjb_ladder(
        cfg.model, cfg.market.decay, p.horizon, _grid_x_max(cfg), sizes, y_max=solver.y_max
    )
    w_term = surface.value_at(p.horizon, p.x0)
    value = p.c0 + p.s0 * w_term
    summary = {
        "W_terminal": w_term,
        "value": value,
        "saturation_fraction": surface.saturation_fraction,
        "y_max": surface.y_max,
        "policy_zero_fraction": float(np.mean(surface.policy == 0.0)),
    }
    if coarse:
        summary["refinement_delta"] = abs(coarse[0].value_at(p.horizon, p.x0) - w_term)
    columns = (surface.t_grid, surface.x_grid, surface.values, surface.policy)
    return summary, {"surface": (["t", "x", "W", "speed"], columns)}


def _simulate(cfg: RunConfig):
    p, sim = cfg.problem, cfg.sim
    strategy = _build_strategy(sim.strategy, cfg)
    run = (strategy, cfg.market, cfg.model, p.c0, p.x0, p.s0, p.horizon)
    res = simulate(*run, sim.n_paths, sim.n_steps, sim.seed, log_floor=sim.log_floor)
    summary = {
        "strategy": sim.strategy,
        "mean": res.mean_utility,
        "std_error": res.std_error,
        "n_paths": res.n_paths,
        "n_steps": sim.n_steps,
        "seed": sim.seed,
        "absorption_count": res.absorption_count,
        "cash": _stats_dict(res.cash),
        "inventory": _stats_dict(res.inventory),
        "price": _stats_dict(res.price),
    }
    tables = {}
    if sim.path_csv_cap > 0:
        n_small = min(sim.path_csv_cap, sim.n_paths)
        small = simulate(
            *run, n_small, sim.n_steps, sim.seed, log_floor=sim.log_floor, return_paths=True
        )
        columns = [np.arange(small.n_paths)] + [small.paths[k] for k in ("t", "S", "C", "X")]
        tables["paths"] = (["path", "t", "S", "C", "X"], columns)
    return summary, tables


def _compare(cfg: RunConfig):
    p, sim = cfg.problem, cfg.sim
    named = [(name, _build_strategy(name, cfg)) for name in cfg.compare.strategies]
    comp = compare_strategies(
        named,
        cfg.market,
        cfg.model,
        p.c0,
        p.x0,
        p.s0,
        p.horizon,
        sim.n_paths,
        sim.n_steps,
        sim.seed,
        log_floor=sim.log_floor,
    )
    summary = {
        "strategies": list(comp.names),
        "means": comp.means,
        "std_errors": comp.std_errors,
        "best": comp.best(),
        "pairs": [
            {"first": a, "second": b, "mean_diff": d, "se_diff": se}
            for a, b, d, se in comp.pairs
        ],
    }
    columns = (comp.names, comp.means, comp.std_errors)
    return summary, {"comparison": (["strategy", "mean", "std_error"], columns)}


_CHECK_TOL = 1e-6  # hamiltonian-check's bound on the scaled closed-vs-brute difference


def _hamiltonian_check(cfg: RunConfig):
    table = closed_vs_brute_samples(
        cfg.model, cfg.check.draws, seed=cfg.check.seed, n_grid=cfg.check.grid_points
    )
    h_closed, h_brute = table[:, 4], table[:, 5]
    worst = float(np.max(np.abs(h_closed - h_brute) / (1.0 + np.abs(h_closed))))
    summary = {
        "draws": cfg.check.draws,
        "max_scaled_diff": worst,
        "within_tol": bool(worst <= _CHECK_TOL),
    }
    header = ["s", "p_c", "p_x", "p_s", "H_closed", "H_brute", "speed"]
    return summary, {"hamiltonian": (header, table.T)}


def _impact_plot(cfg: RunConfig):
    model, plot = cfg.model, cfg.plot
    x_hi = plot.x_max if plot.x_max is not None else 2.5 * model.threshold + 2.0
    if plot.spacing == "log":
        xs = np.logspace(np.log10(plot.x_min), np.log10(x_hi), plot.points)
    else:
        xs = np.linspace(plot.x_min, x_hi, plot.points)
    hs = [model.h(float(x)) if x > 0.0 else "" for x in xs]
    summary = {"family": model.family, "threshold": model.threshold, "x_max": float(x_hi)}
    return summary, {"impact": (["x", "g", "h"], (xs, model.g(xs), hs))}


_PROBLEM = ("impact", "market", "problem")

# subcommand -> (handler, sections it requires)
_HANDLERS = {
    "twap": (_twap, _PROBLEM),
    "mixed-power": (_mixed_power, _PROBLEM),
    "levy-nu": (_levy_nu, ("impact", "market")),
    "extreme-compare": (_extreme_compare, _PROBLEM),
    "solve-hjb": (_solve_hjb, _PROBLEM),
    "simulate": (_simulate, _PROBLEM),
    "compare": (_compare, _PROBLEM),
    "hamiltonian-check": (_hamiltonian_check, ("impact",)),
    "impact-plot": (_impact_plot, ("impact",)),
}


def _run(name: str, mapping: dict, overrides, output) -> int:
    """Load the config, check its sections, run the subcommand and write its artifacts."""
    mapping = apply_overrides(mapping, overrides)
    if not mapping:
        raise ConfigError("no configuration given; pass --config FILE or --set section.key=value")
    cfg = build_run_config(mapping)
    handler, sections = _HANDLERS[name]
    cfg.require(*sections)
    summary, tables = handler(cfg)
    out_dir = output or os.environ.get(OUTPUT_ENV_VAR) or cfg.output.directory
    _write_artifacts(name, cfg, out_dir, summary, tables)
    if summary.get("within_tol") is False:  # a failed check keeps its artifacts, then exits 4
        raise NumericalFailure(
            f"closed form and brute-force oracle disagree: max_scaled_diff "
            f"{summary['max_scaled_diff']:.6g} exceeds {_CHECK_TOL:g}"
        )
    return 0


def _rerun(path: str, output) -> int:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError("manifest is not a JSON object")
    sub, config = manifest.get("subcommand"), manifest.get("config")
    if sub not in _HANDLERS:
        raise ConfigError(f"manifest names unknown subcommand {sub!r}")
    sections = config.values() if isinstance(config, dict) else [None]
    if not all(
        isinstance(kv, dict) and all(isinstance(v, str) for v in kv.values()) for kv in sections
    ):
        raise ConfigError("manifest config must map sections to string-valued keys")
    return _run(sub, config, None, output)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand; `main` rejects the options a subcommand does not take."""
    parser = argparse.ArgumentParser(
        prog="optexec",
        description="Optimal liquidation with S-shaped market impact: closed forms, "
        "an HJB solver, and a Monte Carlo simulator.",
    )
    choices = [*_HANDLERS, "rerun"]
    parser.add_argument("subcommand", choices=choices, metavar="SUBCOMMAND", help="one of %(choices)s")
    parser.add_argument("manifest", nargs="?", help="rerun only: the manifest.json of the run to re-execute")
    parser.add_argument("--config", help="path to the INI-style run configuration")
    parser.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config value (repeatable)"
    )
    parser.add_argument("--output", help="output directory (overrides config and environment)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)  # `rerun --output DIR MANIFEST` puts the manifest last
    rerun = args.subcommand == "rerun"
    if rerun == (args.manifest is None):
        parser.error("rerun takes one MANIFEST; the other subcommands take no positional argument")
    if rerun and (args.config is not None or args.set is not None):
        parser.error("rerun reads its config from the manifest: --config and --set are not allowed")
    try:
        if rerun:
            return _rerun(args.manifest, args.output)
        mapping = read_config_file(args.config) if args.config else {}
        return _run(args.subcommand, mapping, args.set, args.output)
    except ConfigError as exc:
        return _report_failure(2, "config_error", exc)
    except HypothesisViolation as exc:
        return _report_failure(3, "hypothesis_violation", exc)
    except NumericalFailure as exc:
        return _report_failure(4, "numerical_failure", exc)
    except ValueError as exc:
        return _report_failure(2, "config_error", exc)


def _report_failure(code: int, kind: str, exc: Exception) -> int:
    json.dump({"error": kind, "message": str(exc), "exit_code": code}, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
