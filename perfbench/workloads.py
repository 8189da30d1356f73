"""The benchmark's fixed `optexec` CLI workloads.

Each workload is one subcommand on one config.  The benchmark seed goes into
`sim.seed` and `check.seed` of every config; only `mc_compare` and
`hamiltonian_check` draw random numbers, so the `hjb_*` workloads give the
same outputs for every seed.  Why each workload was chosen is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    sections: dict
    work_unit: str  # what one unit of `work` is; names the printed throughput, e.g. grid_nodes_per_s

    def mapping(self, seed: int) -> dict:
        """Config sections as strings, with the seed and output formats filled in."""
        out = {s: {k: str(v) for k, v in kv.items()} for s, kv in self.sections.items()}
        out.setdefault("sim", {})["seed"] = str(seed)
        out.setdefault("check", {})["seed"] = str(seed)
        out["output"] = {"formats": "json,csv"}
        return out

    def ini_text(self, seed: int) -> str:
        lines = []
        for section, kv in self.mapping(seed).items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in kv.items())
            lines.append("")
        return "\n".join(lines)

    @property
    def work(self) -> int:
        """Units of work one run does: grid nodes, path steps or draws."""
        s = self.sections
        if self.subcommand == "solve-hjb":
            return (s["solver"]["nt"] + 1) * (s["solver"]["nx"] + 1)
        if self.subcommand == "compare":
            n_strategies = len(s["compare"]["strategies"].split(","))
            return n_strategies * s["sim"]["n_paths"] * s["sim"]["n_steps"]
        return s["check"]["draws"]

    def reference(self) -> dict:
        """Closed-form numbers the gates compare the run's outputs with."""
        from optexec import extreme_comparison, twap_solution
        from optexec.config import build_run_config

        if self.subcommand == "hamiltonian-check":
            return {}
        cfg = build_run_config(self.mapping(DEFAULT_SEED))
        p, decay = cfg.problem, cfg.market.decay
        if self.subcommand == "solve-hjb":
            sol = twap_solution(p.c0, p.x0, p.s0, cfg.model, decay, p.horizon)
            return {"value": sol.value, "threshold": cfg.model.threshold}
        if self.subcommand == "compare":
            comp = extreme_comparison(cfg.model, p.x0, p.s0, decay, p.horizon)
            return {
                "twap": p.c0 + comp.optimal_value,
                "threshold": p.c0 + comp.threshold_value,
            }
        raise ValueError(f"no reference for subcommand {self.subcommand!r}")


_PROBLEM_T1 = {"c0": 0.0, "s0": 100.0, "horizon": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hjb_quadratic",
            "solve-hjb",
            {
                "impact": {"family": "quadratic", "alpha0": 1.0},
                "market": {"mu": -0.085, "sigma": 0.3},  # decay 0.04
                "problem": {**_PROBLEM_T1, "x0": 0.1},
                "solver": {"nt": 400, "nx": 400, "x_max": 0.2, "refine": "true"},
            },
            "grid_nodes",
        ),
        Workload(
            "hjb_gamma_clock",
            "solve-hjb",
            {
                "impact": {
                    "family": "levy_effective",
                    "gamma": 1.0,
                    "alpha0": 1.0,
                    "alpha1": 2.0,
                    "beta1": 2.0,
                },
                "market": {"decay": 0.04},
                "problem": {**_PROBLEM_T1, "x0": 0.05},
                "solver": {"nt": 150, "nx": 150, "x_max": 0.2},
            },
            "grid_nodes",
        ),
        Workload(
            "mc_compare",
            "compare",
            {
                "impact": {"family": "shifted_convex", "power": 3.0, "threshold": 1.0},
                "market": {"mu": -0.095, "sigma": 0.3},
                "problem": {**_PROBLEM_T1, "x0": 0.5},
                "sim": {"n_paths": 30000, "n_steps": 500},
                "compare": {"strategies": "twap,threshold,feedback"},
                "solver": {"nt": 200, "nx": 200},
            },
            "path_steps",
        ),
        Workload(
            "hamiltonian_check",
            "hamiltonian-check",
            {
                "impact": {
                    "family": "mixed_power",
                    "alpha": 1.0,
                    "p_convex": 2.0,
                    "p_concave": 0.5,
                    "threshold": 1.0,
                },
                "check": {"draws": 3000},
            },
            "draws",
        ),
    )
}
