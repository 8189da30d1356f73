"""Command-line harness: one config file in, JSON summaries and CSV tables out.

Every run writes `summary.json` (deterministic: identical configs give
byte-identical bytes), the requested CSV tables, and `manifest.json`
(resolved config, version, dependency versions and timestamp) from which
`optexec rerun` can reproduce the run exactly.  Exit codes: 0 ok, 2 config
error, 3 hypothesis violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
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
from .hjb import on_grid, solve_reduced_hjb
from .impact import LevyEffectiveImpact, MixedPowerImpact, ShiftedConvexImpact
from .simulate import (
    DeterministicStrategy,
    FeedbackStrategy,
    compare_strategies,
    simulate,
)

OUTPUT_ENV_VAR = "OPTEXEC_OUTPUT_DIR"


_CSV_ROWS = 1024  # rows formatted per write


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv_column(col):
    """(format field, values) of one table column; float arrays take the fast .17g path."""
    if isinstance(col, np.ndarray):
        return ("{:.17g}" if col.dtype.kind == "f" else "{}"), col
    return "{}", [_fmt(v) for v in col]


def _csv_texts(col) -> list:
    """The cell texts of one column, %-escaped for use inside a template."""
    fmt, vals = _csv_column(col)
    vals = vals.tolist() if isinstance(vals, np.ndarray) else vals
    return [fmt.format(v).replace("%", "%%") for v in vals]


def _write_csv(path: str, header, columns) -> None:
    """Header plus one row per index of the equal-length columns, comma-separated with CRLF ends.

    Each row is one format string; rows are formatted and written a block at
    a time, so no table is ever held as text.  A grid table, whose columns
    are an outer axis, an inner axis and fields shaped (outer, inner), has a
    row per (outer, inner) pair: the axis texts are formatted once, and each
    outer level is one `%` call on a template of .17g slots.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if np.ndim(columns[-1]) == 2:
            outer, inner, *fields = columns
            slots = "".join(",%.17g" if f.dtype.kind == "f" else ",%s" for f in fields)
            body = [x + slots for x in _csv_texts(inner)]
            args = [None] * (len(body) * len(fields))
            for i, t in enumerate(_csv_texts(outer)):
                for j, f in enumerate(fields):
                    args[j :: len(fields)] = f[i].tolist()
                fh.write((t + "," + ("\r\n" + t + ",").join(body) + "\r\n") % tuple(args))
        else:
            fields, cols = zip(*map(_csv_column, columns))
            row = ",".join(fields) + "\r\n"
            for lo in range(0, len(cols[0]), _CSV_ROWS):
                block = [c[lo : lo + _CSV_ROWS] for c in cols]
                block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
                fh.writelines(map(row.format, *block))


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
    from .simulate import QUANTILE_LEVELS

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


def _solve_surface(cfg: RunConfig):
    prob, solver = cfg.problem, cfg.solver
    x_max = solver.x_max if solver.x_max is not None else 2.0 * prob.x0
    if x_max <= 0.0:
        raise ConfigError("solver.x_max must be positive (set it explicitly when x0 = 0)")
    on_grid(prob.x0, 0.0, x_max, "x")  # every caller reads the surface at x0: fail before the solve
    return solve_reduced_hjb(
        cfg.model,
        cfg.market.decay,
        prob.horizon,
        x_max,
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
    p = cfg.problem
    surface = _solve_surface(cfg)
    w_term = surface.value_at(p.horizon, p.x0)
    value = p.c0 + p.s0 * w_term
    pol = surface.policy
    summary = {
        "W_terminal": w_term,
        "value": value,
        "saturation_fraction": surface.saturation_fraction,
        "y_max": surface.y_max,
        "policy_zero_fraction": float(np.mean(pol == 0.0)),
        "policy_max": float(pol.max()),
    }
    if cfg.solver.refine:
        coarse = solve_reduced_hjb(
            cfg.model,
            cfg.market.decay,
            p.horizon,
            float(surface.x_grid[-1]),
            nt=max(cfg.solver.nt // 2, 2),
            nx=max(cfg.solver.nx // 2, 2),
            y_max=surface.y_max,
        )
        summary["refinement_delta"] = abs(coarse.value_at(p.horizon, p.x0) - w_term)
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


def _hamiltonian_check(cfg: RunConfig):
    table = closed_vs_brute_samples(
        cfg.model, cfg.check.draws, seed=cfg.check.seed, n_grid=cfg.check.grid_points
    )
    h_closed, h_brute = table[:, 4], table[:, 5]
    worst = float(np.max(np.abs(h_closed - h_brute) / (1.0 + np.abs(h_closed))))
    summary = {
        "draws": cfg.check.draws,
        "max_scaled_diff": worst,
        "within_tol": bool(worst <= 1e-6),
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
    return 0


def _cmd_run(args) -> int:
    mapping = read_config_file(args.config) if args.config else {}
    return _run(args.subcommand, mapping, args.set, args.output)


def _cmd_rerun(args) -> int:
    try:
        with open(args.manifest) as fh:
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
    return _run(sub, config, None, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optexec",
        description="Optimal liquidation with S-shaped market impact: closed forms, "
        "an HJB solver, and a Monte Carlo simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the INI-style run configuration")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--output", help="output directory (overrides config and environment)")
        p.set_defaults(func=_cmd_run)
    rerun = sub.add_parser("rerun", help="re-execute a run from its manifest")
    rerun.add_argument("manifest")
    rerun.add_argument("--output", help="output directory override")
    rerun.set_defaults(func=_cmd_rerun)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
