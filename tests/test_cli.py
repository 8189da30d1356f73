import json
import math
import platform

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import optexec.cli as cli
import optexec.hjb as hjb
from optexec.cli import main
from optexec.config import apply_overrides, build_run_config
from optexec.errors import ConfigError

BENCH_INI = """
[impact]
family = quadratic
alpha0 = 1.0

[market]
decay = 0.04

[problem]
c0 = 0.0
x0 = 0.1
s0 = 100.0
horizon = 1.0

[solver]
nt = 60
nx = 60
refine = false

[sim]
n_paths = 200
n_steps = 100
seed = 7

[output]
directory = out
"""


@pytest.fixture()
def bench_config(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(BENCH_INI)
    return str(path)


def _summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_twap_artifacts(bench_config, tmp_path):
    out = tmp_path / "run"
    assert main(["twap", "--config", bench_config, "--output", str(out)]) == 0
    doc = _summary(out)
    assert doc["subcommand"] == "twap"
    assert doc["value"] == pytest.approx(9.8026402, abs=1e-6)
    assert doc["rate"] == pytest.approx(0.2, abs=1e-9)
    rows = (out / "schedule.csv").read_text().strip().splitlines()
    assert rows[0] == "t,rate"
    assert len(rows) == 201
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["impact"]["family"] == "quadratic"
    assert "created" in manifest


def test_summaries_are_byte_identical(bench_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["twap", "--config", bench_config, "--output", str(a)]) == 0
    assert main(["twap", "--config", bench_config, "--output", str(b)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()


_QUADRATIC = "family = quadratic\nalpha0 = 1.0"
_MIXED_POWER = "family = mixed_power\nalpha = 1.0\np_convex = 2.0\np_concave = 0.5\nthreshold = 1.0"

# per subcommand: the body of [impact] in BENCH_INI, and --set overrides
_RERUN_CASES = {
    "twap": (_QUADRATIC, []),
    "mixed-power": (_MIXED_POWER, ["impact.threshold=0.0", "problem.x0=1.5"]),
    "levy-nu": ("family = levy_effective\ngamma = 1.0\nalpha0 = 1.0\nalpha1 = 1.0\nbeta1 = 1.0", []),
    "extreme-compare": ("family = shifted_convex\npower = 3.0\nthreshold = 1.0", ["problem.x0=0.5"]),
    "solve-hjb": (_QUADRATIC, []),
    "simulate": (_QUADRATIC, ["sim.path_csv_cap=3", "sim.strategy=feedback"]),
    "compare": (_QUADRATIC, ["compare.strategies=twap,rate:0.4,zero"]),
    "hamiltonian-check": (_MIXED_POWER, ["check.draws=20"]),
    "impact-plot": (_MIXED_POWER, ["plot.points=64"]),
}


@pytest.mark.parametrize("subcommand", sorted(_RERUN_CASES))
def test_rerun_from_manifest(subcommand, tmp_path):
    impact, sets = _RERUN_CASES[subcommand]
    config = tmp_path / "run.ini"
    config.write_text(BENCH_INI.replace(_QUADRATIC, impact))
    first = tmp_path / "first"
    again = tmp_path / "again"
    args = [subcommand, "--config", str(config), "--output", str(first)]
    assert main(args + [a for s in sets for a in ("--set", s)]) == 0
    assert main(["rerun", str(first / "manifest.json"), "--output", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    assert "summary.json" in names
    for name in names:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (first, again)]
    assert manifests[0]["config"] == manifests[1]["config"]
    # provenance goes into the manifest only, so summary.json stays byte-identical
    versions = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    assert manifests[0]["dependencies"] == manifests[1]["dependencies"] == versions
    assert "dependencies" not in _summary(first)


def test_solve_hjb_summary(bench_config, tmp_path):
    out = tmp_path / "hjb"
    assert main(["solve-hjb", "--config", bench_config, "--output", str(out)]) == 0
    doc = _summary(out)
    assert doc["value"] == pytest.approx(9.8, abs=0.2)
    assert "residual" not in doc
    assert 0.0 <= doc["policy_zero_fraction"] <= 1.0
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header == "t,x,W,speed"


def test_solve_hjb_runs_the_control_kernel_only_in_its_marches(bench_config, tmp_path, monkeypatch):
    rows, ladders = [], []
    kernel, ladder = hjb._best_response, cli.solve_reduced_hjb_ladder

    def counted(model, a, b, y_max, h_ymax):
        rows.append(b.size)
        return kernel(model, a, b, y_max, h_ymax)

    def captured(*args, **kwargs):
        ladders.append(ladder(*args, **kwargs))
        return ladders[-1]

    monkeypatch.setattr(hjb, "_best_response", counted)
    monkeypatch.setattr(cli, "solve_reduced_hjb_ladder", captured)
    sets = ("solver.nt=40", "solver.nx=40", "solver.refine=true")
    args = ["solve-hjb", "--config", bench_config, "--output", str(tmp_path / "hjb")]
    assert main(args + [a for s in sets for a in ("--set", s)]) == 0
    # one ladder marches the main grid and the half grid in lockstep: each round
    # is one kernel call for both, so the calls are the longer march's count,
    # one at t = 0 and one per sub-step, not the sum of the two
    ((fine, coarse),) = ladders
    assert (fine.x_grid.size, coarse.x_grid.size) == (41, 21)
    per_march = [1 + int(surf.substeps.sum()) for surf in (fine, coarse)]
    assert len(rows) == max(per_march)
    assert per_march[1] < per_march[0]
    assert rows.count(41 + 21) == per_march[1] and rows.count(41) == per_march[0] - per_march[1]


@pytest.mark.parametrize("nt, nx", [(2, 2), (400, 2), (3, 40)])
def test_refine_on_a_grid_without_a_coarser_half_exits_2(bench_config, tmp_path, capsys, nt, nx):
    # the half grid is clamped to 2 cells, so below 4 it is the same grid (or
    # coarser in one axis only) and refinement_delta would read ~0 for nothing
    args = ["solve-hjb", "--config", bench_config, "--output", str(tmp_path / "hjb")]
    sets = _sets(f"solver.nt={nt}", f"solver.nx={nx}", "solver.refine=true")
    assert main(args + sets) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_error" and "solver.refine" in err["message"]
    assert main(args + _sets(f"solver.nt={nt}", f"solver.nx={nx}")) == 0  # refine = false runs


def test_refine_at_4_cells_runs(bench_config, tmp_path):
    out = tmp_path / "hjb"
    args = ["solve-hjb", "--config", bench_config, "--output", str(out)]
    assert main(args + _sets("solver.nt=4", "solver.nx=4", "solver.refine=true")) == 0
    assert _summary(out)["refinement_delta"] > 0.0


def test_refinement_delta_is_the_half_grid_solve_at_the_same_cap(bench_config, tmp_path):
    # the lockstep half grid gives the number a separate half-grid run gives
    # at the main run's resolved y_max
    def run(name, *sets):
        args = ["solve-hjb", "--config", bench_config, "--output", str(tmp_path / name)]
        assert main(args + _sets(*sets)) == 0
        return _summary(tmp_path / name)

    refined = run("refined", "solver.nt=40", "solver.nx=30", "solver.refine=true")
    main_grid = run("main", "solver.nt=40", "solver.nx=30")
    half = run("half", "solver.nt=20", "solver.nx=15", f"solver.y_max={main_grid['y_max']!r}")
    assert half["y_max"] == main_grid["y_max"] == refined["y_max"]
    assert refined["W_terminal"] == main_grid["W_terminal"]
    assert refined["refinement_delta"] == abs(main_grid["W_terminal"] - half["W_terminal"])
    assert refined["refinement_delta"] > 0.0


@pytest.mark.parametrize("fault, message", [("nan", "non-finite"), ("growth", "growth guard")])
def test_a_failure_in_the_half_grid_alone_exits_4(bench_config, tmp_path, monkeypatch, capsys, fault, message):
    step = hjb._step

    def poisoned(W, *args):
        out = step(W, *args)
        if W.size == 21:  # the 20-cell half grid only
            if fault == "nan":
                out[1] = np.nan
            else:
                out += 1.0
        return out

    monkeypatch.setattr(hjb, "_step", poisoned)
    args = ["solve-hjb", "--config", bench_config, "--output", str(tmp_path / "hjb")]
    assert main(args + _sets("solver.nt=40", "solver.nx=40", "solver.refine=true")) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical_failure" and message in err["message"]
    assert not (tmp_path / "hjb").exists()


def test_solve_hjb_exits_4_on_a_non_finite_surface(bench_config, tmp_path, monkeypatch, capsys):
    step = hjb._step

    def poisoned(*args):
        out = step(*args)
        out[1] = np.nan
        return out

    monkeypatch.setattr(hjb, "_step", poisoned)
    args = ["solve-hjb", "--config", bench_config, "--output", str(tmp_path / "hjb")]
    assert main(args + ["--set", "solver.nt=10", "--set", "solver.nx=10"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical_failure" and "non-finite" in err["message"]


def test_simulate_and_paths_csv(bench_config, tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--config",
            bench_config,
            "--output",
            str(out),
            "--set",
            "sim.path_csv_cap=3",
        ]
    )
    assert rc == 0
    doc = _summary(out)
    assert doc["n_paths"] == 200
    assert doc["mean"] == pytest.approx(9.8, abs=0.3)
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path,t,S,C,X"
    assert len(lines) == 1 + 3 * 101


def test_compare_with_crn(bench_config, tmp_path):
    out = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--config",
            bench_config,
            "--output",
            str(out),
            "--set",
            "compare.strategies=twap,rate:0.4,zero",
        ]
    )
    assert rc == 0
    doc = _summary(out)
    assert doc["strategies"] == ["twap", "rate:0.4", "zero"]
    assert doc["best"] == "twap"
    assert len(doc["pairs"]) == 3


def test_hamiltonian_check(tmp_path):
    out = tmp_path / "ham"
    rc = main(
        [
            "hamiltonian-check",
            "--set",
            "impact.family=mixed_power",
            "--set",
            "impact.alpha=1.0",
            "--set",
            "impact.p_convex=2.0",
            "--set",
            "impact.p_concave=0.5",
            "--set",
            "impact.threshold=1.0",
            "--set",
            "check.draws=60",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    doc = _summary(out)
    assert doc["within_tol"] is True
    lines = (out / "hamiltonian.csv").read_text().strip().splitlines()
    assert lines[0] == "s,p_c,p_x,p_s,H_closed,H_brute,speed"
    assert len(lines) == 61
    # the summary's worst scaled difference is the row-by-row one over the table
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert doc["max_scaled_diff"] == max(abs(r[4] - r[5]) / (1.0 + abs(r[4])) for r in rows)


def test_impact_plot_s_shape(tmp_path):
    out = tmp_path / "plot"
    rc = main(
        [
            "impact-plot",
            "--set",
            "impact.family=mixed_power",
            "--set",
            "impact.alpha=1.0",
            "--set",
            "impact.p_convex=2.0",
            "--set",
            "impact.p_concave=0.5",
            "--set",
            "impact.threshold=1.0",
            "--set",
            "plot.points=401",
            "--set",
            "plot.x_max=2.0",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    rows = (out / "impact.csv").read_text().strip().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    gs = np.array([float(r.split(",")[1]) for r in rows])
    # concave below the threshold, convex above: sign of second differences
    second = np.diff(gs, 2)
    below = xs[1:-1] < 0.9
    above = xs[1:-1] > 1.1
    assert np.all(second[below] <= 1e-9)
    assert np.all(second[above] >= -1e-9)


def test_levy_and_extreme_subcommands(tmp_path):
    out = tmp_path / "levy"
    rc = main(
        [
            "levy-nu",
            "--set",
            "impact.family=levy_effective",
            "--set",
            "impact.gamma=1.0",
            "--set",
            "impact.alpha0=1.0",
            "--set",
            "impact.alpha1=1.0",
            "--set",
            "impact.beta1=1.0",
            "--set",
            "market.decay=0.1",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    doc = _summary(out)
    assert abs(doc["residual"]) <= 1e-12 * 1.1

    out2 = tmp_path / "ext"
    rc = main(
        [
            "extreme-compare",
            "--set",
            "impact.family=shifted_convex",
            "--set",
            "impact.power=3.0",
            "--set",
            "impact.threshold=1.0",
            "--set",
            "market.decay=0.05",
            "--set",
            "problem.c0=0.0",
            "--set",
            "problem.x0=0.5",
            "--set",
            "problem.s0=100.0",
            "--set",
            "problem.horizon=1.0",
            "--output",
            str(out2),
        ]
    )
    assert rc == 0
    doc2 = _summary(out2)
    assert doc2["optimal_value"] > doc2["threshold_value"]


def test_mixed_power_subcommand(tmp_path):
    out = tmp_path / "mp"
    rc = main(
        [
            "mixed-power",
            "--set",
            "impact.family=mixed_power",
            "--set",
            "impact.alpha=1.0",
            "--set",
            "impact.p_convex=2.0",
            "--set",
            "impact.p_concave=0.5",
            "--set",
            "impact.threshold=0.0",
            "--set",
            "market.decay=0.04",
            "--set",
            "problem.c0=0.0",
            "--set",
            "problem.x0=1.5",
            "--set",
            "problem.s0=100.0",
            "--set",
            "problem.horizon=1.0",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    doc = _summary(out)
    assert doc["regime"] == "large_inventory"
    assert doc["value"] == pytest.approx(100.0 / 0.4 * math.sqrt(1.0 - math.exp(-0.08)), rel=1e-9)


_SMALL_SIM = ["sim.n_paths=20", "sim.n_steps=10"]


def _sets(*items):
    return [a for s in items for a in ("--set", s)]


def test_simulate_takes_a_seed_above_2_63(bench_config, tmp_path):
    # default_rng takes any non-negative integer, so the simulator sets no upper bound
    first, again = tmp_path / "first", tmp_path / "again"
    sets = _sets(*_SMALL_SIM, "sim.seed=9223372036854775808", "sim.path_csv_cap=3")
    assert main(["simulate", "--config", bench_config, "--output", str(first), *sets]) == 0
    assert _summary(first)["seed"] == 2**63
    assert main(["rerun", str(first / "manifest.json"), "--output", str(again)]) == 0
    for name in ("summary.json", "paths.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_twap_at_a_large_threshold(tmp_path):
    # the excess rounds coarser than twap_rate's tolerance here; the rate is the
    # closed-form root sqrt(decay + 3 * threshold**2)
    config = tmp_path / "run.ini"
    config.write_text(BENCH_INI.replace(_QUADRATIC, _MIXED_POWER))
    sets = _sets("impact.threshold=1000", "market.decay=0.04")
    assert main(["twap", "--config", str(config), *sets, "--output", str(tmp_path / "twap")]) == 0
    root = math.sqrt(3000000.04)
    assert abs(_summary(tmp_path / "twap")["rate"] - root) <= 2.0 * math.ulp(root)


_DEFAULT_COMPARE_FAMILIES = {
    "quadratic": ["impact.family=quadratic", "impact.alpha0=1.0"],
    "levy_effective": ["impact.family=levy_effective", "impact.gamma=1.0", "impact.alpha0=1.0",
                       "impact.alpha1=1.0", "impact.beta1=1.0"],
    "mixed_power": ["impact.family=mixed_power", "impact.alpha=1.0", "impact.p_convex=2.0",
                    "impact.p_concave=0.5", "impact.threshold=0.0"],
    "shifted_convex": ["impact.family=shifted_convex", "impact.power=3.0", "impact.threshold=1.0"],
}


@pytest.mark.parametrize("family", sorted(_DEFAULT_COMPARE_FAMILIES))
def test_compare_default_strategies_run_on_every_family(family, tmp_path):
    # no [compare] section: the default twap,feedback needs no positive threshold
    config = tmp_path / "run.ini"
    config.write_text(BENCH_INI.replace(_QUADRATIC, "family = quadratic"))
    sets = _sets(*_DEFAULT_COMPARE_FAMILIES[family], *_SMALL_SIM, "solver.nt=10", "solver.nx=10")
    assert main(["compare", "--config", str(config), *sets, "--output", str(tmp_path / "cmp")]) == 0
    assert _summary(tmp_path / "cmp")["strategies"] == ["twap", "feedback"]


def test_hamiltonian_check_exits_4_when_y_max_overflows(tmp_path, capsys):
    sets = _sets("impact.family=shifted_convex", "impact.power=3", "impact.threshold=1e308",
                 "check.draws=5", "check.grid_points=101")
    assert main(["hamiltonian-check", *sets, "--output", str(tmp_path / "ham")]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical_failure" and "y_max" in err["message"]


def test_hamiltonian_check_resolves_roots_that_round_onto_a_large_threshold(tmp_path):
    # at threshold 1e15 some draws' optimal speeds lie less than an ulp above it;
    # zeroing them (in place of the next float up) read max_scaled_diff 4.95e13
    sets = _sets("impact.family=shifted_convex", "impact.power=3", "impact.threshold=1e15",
                 "check.draws=200")
    assert main(["hamiltonian-check", *sets, "--output", str(tmp_path / "ham")]) == 0
    doc = _summary(tmp_path / "ham")
    assert doc["max_scaled_diff"] <= 1e-6 and doc["within_tol"] is True


def test_hamiltonian_check_exits_4_when_its_check_fails(tmp_path, capsys):
    # at threshold 1e100 no float lies between the threshold and the optimal speed
    # of an order-1 draw, so the oracle and the closed form disagree; the run still
    # writes its summary and table, then fails like any other numerical failure
    sets = _sets("impact.family=shifted_convex", "impact.power=3", "impact.threshold=1e100",
                 "check.draws=200")
    assert main(["hamiltonian-check", *sets, "--output", str(tmp_path / "ham")]) == 4
    doc = _summary(tmp_path / "ham")
    assert doc["within_tol"] is False and doc["max_scaled_diff"] > 1e100
    assert len((tmp_path / "ham" / "hamiltonian.csv").read_text().strip().splitlines()) == 201
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("numerical_failure", 4)
    assert "max_scaled_diff" in err["message"]


def test_mixed_power_near_unit_convex_exponent(tmp_path):
    # p = 1.01: the old quadrature substitution's u**202 underflowed to 0 and
    # raised ZeroDivisionError (exit 1 with a traceback); the series stays finite
    config = tmp_path / "run.ini"
    config.write_text(BENCH_INI.replace(_QUADRATIC, _MIXED_POWER))
    sets = _sets(*_RERUN_CASES["mixed-power"][1], "impact.p_convex=1.01")
    out = tmp_path / "mp"
    assert main(["mixed-power", "--config", str(config), *sets, "--output", str(out)]) == 0
    doc = _summary(out)
    assert math.isfinite(doc["x_large"]) and doc["x_large"] > 0.0


def test_exit_codes(bench_config, tmp_path):
    out = ["--output", str(tmp_path / "run")]
    # 2: config errors
    assert main(["twap", "--config", str(tmp_path / "missing.ini")]) == 2
    malformed = tmp_path / "malformed.ini"
    malformed.write_text("alpha0 = 1.0\n")  # a key before any section header
    assert main(["twap", "--config", str(malformed)]) == 2
    assert main(["twap"]) == 2  # no configuration at all
    assert main(["twap", "--config", bench_config, "--set", "problem.x0=abc"]) == 2
    assert main(["twap", "--config", bench_config, "--set", "solver.bogus=1"]) == 2
    for wrong_family in ("levy-nu", "mixed-power", "extreme-compare"):
        assert main([wrong_family, "--config", bench_config]) == 2, wrong_family
    # strategy specs: threshold runs on a shifted-convex model; it needs a positive
    # threshold (2) and x0 <= threshold * horizon (3); an unknown spec is 2
    shifted = tmp_path / "shifted.ini"
    shifted.write_text(BENCH_INI.replace(_QUADRATIC, _RERUN_CASES["extreme-compare"][0]))
    for config, sets, code in (
        (shifted, ["problem.x0=0.5", "sim.strategy=threshold"], 0),
        (bench_config, ["sim.strategy=threshold"], 2),
        (shifted, ["problem.x0=1.5", "sim.strategy=threshold"], 3),
        (bench_config, ["sim.strategy=bogus"], 2),
    ):
        args = ["simulate", "--config", str(config), *out, *_sets(*_SMALL_SIM, *sets)]
        assert main(args) == code, sets
    for bad in ("problem.x0=nan", "problem.horizon=inf", "solver.y_max=nan", "impact.alpha0=nan"):
        assert main(["twap", "--config", bench_config, "--set", bad]) == 2, bad
    plot_range = ["--set", "plot.x_min=2", "--set", "plot.x_max=1"]
    assert main(["impact-plot", "--config", bench_config, *plot_range]) == 2
    assert main(["simulate", "--config", bench_config, "--set", "sim.strategy=rate:nan"]) == 2
    # rerun of a manifest that is missing or not JSON
    manifest = tmp_path / "manifest.json"
    assert main(["rerun", str(manifest)]) == 2
    manifest.write_text("{not json")
    assert main(["rerun", str(manifest)]) == 2
    # malformed manifests: not an object, unknown subcommand, no config,
    # non-mapping or non-string values
    for doc in (
        [1, 2],
        {"subcommand": "bogus", "config": {}},
        {"subcommand": "twap"},
        {"subcommand": "twap", "config": {"problem": 5}},
        {"subcommand": "twap", "config": {"solver": {"refine": True}}},
    ):
        manifest.write_text(json.dumps(doc))
        assert main(["rerun", str(manifest)]) == 2, doc
    # 3: hypothesis violations
    assert main(["twap", "--config", bench_config, "--set", "problem.x0=0.5"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["rerun"],
        ["rerun", "m.json", "--config", "x.ini"],
        ["rerun", "m.json", "--set", "a.b=1"],
        ["twap", "stray"],
        ["twap", "--set", "a.b=1", "stray"],
        ["bogus"],
    ],
    ids=["no_subcommand", "rerun_without_manifest", "rerun_config", "rerun_set", "stray_positional",
         "stray_positional_after_options", "unknown_subcommand"],
)
def test_cli_misuse_exits_2(argv, capsys):
    # argparse's usage error: exit 2 before any config is read or any file written
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: optexec" in capsys.readouterr().err


def test_rerun_takes_its_manifest_after_the_options(bench_config, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["twap", "--config", bench_config, "--output", str(first)]) == 0
    assert main(["rerun", "--output", str(again), str(first / "manifest.json")]) == 0
    assert (first / "summary.json").read_bytes() == (again / "summary.json").read_bytes()


@pytest.mark.parametrize(
    "subcommand, sets",
    [
        ("compare", ["compare.strategies=twap,feedback"]),
        ("simulate", ["sim.strategy=feedback"]),
        ("solve-hjb", []),
    ],
)
def test_off_grid_feedback_exits_2(bench_config, tmp_path, capsys, monkeypatch, subcommand, sets):
    # x0 = 0.1 lies above the grid's x_max: the run fails before it solves, with
    # the message the first surface lookup would raise, instead of clipping
    solves = []
    monkeypatch.setattr(cli, "solve_reduced_hjb", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(cli, "solve_reduced_hjb_ladder", lambda *a, **k: solves.append(a))
    args = [subcommand, "--config", bench_config, "--output", str(tmp_path / "run")]
    assert main(args + _sets("solver.x_max=0.05", *_SMALL_SIM, *sets)) == 2
    assert solves == []
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("config_error", "x = 0.1 outside the solved grid [0, 0.05]")


def test_missing_impact_parameter_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "no_alpha0.ini"
    path.write_text(BENCH_INI.replace("alpha0 = 1.0\n", ""))
    assert main(["twap", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_error"
    assert err["message"] == "[impact] missing key(s): ['alpha0']"


def test_retired_solver_key_is_a_config_error(bench_config, tmp_path, capsys):
    # a config written for the retired y_max restart loop fails loudly,
    # like any other unknown key
    path = tmp_path / "old.ini"
    path.write_text(BENCH_INI.replace("refine = false", "refine = false\nmax_expansions = 2"))
    assert main(["solve-hjb", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    assert "unknown key(s) in [solver]: ['max_expansions']" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="max_expansions"):
        build_run_config({"solver": {"max_expansions": "2"}})


def test_linear_family_is_a_config_error(bench_config, tmp_path, capsys):
    # a constant marginal is no S-shaped family; its limit is closed_form.linear_quasi_block
    families = "['levy_effective', 'mixed_power', 'quadratic', 'shifted_convex']"
    expected = f"[impact] family = 'linear': choose from {families}"
    args = ["twap", "--config", bench_config, "--set", "impact.family=linear"]
    assert main(args + ["--output", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"], err["exit_code"]) == ("config_error", expected, 2)
    # rerun parses a manifest's [impact] through the same family table
    first = tmp_path / "first"
    assert main(["twap", "--config", bench_config, "--output", str(first)]) == 0
    doc = json.loads((first / "manifest.json").read_text())
    doc["config"]["impact"] = {"family": "linear", "alpha": "1.0"}
    manifest = tmp_path / "linear.json"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rerun", str(manifest), "--output", str(tmp_path / "again")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == expected


def test_negative_check_seed_is_named(tmp_path, capsys):
    sets = ["impact.family=quadratic", "impact.alpha0=1.0", "check.draws=5", "check.seed=-1"]
    args = ["hamiltonian-check", *(a for s in sets for a in ("--set", s))]
    assert main(args + ["--output", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("config_error", "check.seed must be non-negative")


_MODEL_SETS = ("impact.family=quadratic", "impact.alpha0=1.0", "market.decay=0.04")
_PROBLEM = ("problem.c0=0.0", "problem.x0=0.1", "problem.s0=100.0", "problem.horizon=1.0")


@pytest.mark.parametrize(
    "subcommand, sets, key",
    [
        ("twap", [*_PROBLEM, "problem.x0=-0.1"], "problem.x0"),
        ("twap", [*_PROBLEM, "problem.s0=-1"], "problem.s0"),
        ("twap", [*_PROBLEM, "problem.horizon=0"], "problem.horizon"),
        ("twap", [], "[problem]"),  # a required section left out
        ("hamiltonian-check", ["solver.nt=1"], "solver.nt"),
        ("hamiltonian-check", ["solver.x_max=0"], "solver.x_max"),
        ("hamiltonian-check", ["solver.y_max=-1"], "solver.y_max"),
        ("hamiltonian-check", ["sim.n_paths=0"], "sim.n_paths"),
        ("hamiltonian-check", ["sim.seed=-1"], "sim.seed"),
        ("hamiltonian-check", ["sim.path_csv_cap=-1"], "sim.path_csv_cap"),
        ("hamiltonian-check", ["check.draws=0"], "check.draws"),
        ("hamiltonian-check", ["check.grid_points=1"], "check.grid_points"),
        ("hamiltonian-check", ["plot.points=1"], "plot.points"),
        ("hamiltonian-check", ["plot.spacing=cubic"], "plot.spacing"),
        ("hamiltonian-check", ["plot.spacing=log"], "plot.x_min"),
        ("hamiltonian-check", ["plot.x_min=-1"], "plot.x_min"),
        ("hamiltonian-check", ["output.formats=json,xml"], "output.formats"),
        ("hamiltonian-check", ["output.schedule_samples=0"], "output.schedule_samples"),
        ("hamiltonian-check", ["impact.alpha0=-1"], "alpha0"),
        ("hamiltonian-check", ["bogus.key=1"], "bogus"),
        ("solve-hjb", [*_PROBLEM, "problem.x0=0"], "solver.x_max"),  # the default x_max is 2*x0 = 0
        ("hamiltonian-check", ["check.grid_points=2"], "check.grid_points"),  # no draw could leave the right edge
    ],
)
def test_out_of_range_settings_exit_2_and_name_the_key(tmp_path, capsys, subcommand, sets, key):
    args = [subcommand, *_sets(*_MODEL_SETS, *sets), "--output", str(tmp_path / "run")]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_error" and key in err["message"], err


def test_impact_plot_log_spacing(tmp_path):
    sets = (*_MODEL_SETS, "plot.spacing=log", "plot.x_min=0.01", "plot.x_max=10", "plot.points=7")
    out = tmp_path / "plot"
    assert main(["impact-plot", *_sets(*sets), "--output", str(out)]) == 0
    rows = [r.split(",") for r in (out / "impact.csv").read_text().strip().splitlines()[1:]]
    xs = np.array([float(r[0]) for r in rows])
    assert xs.size == 7
    np.testing.assert_allclose(xs[[0, -1]], [0.01, 10.0], rtol=1e-12)
    np.testing.assert_allclose(xs[1:] / xs[:-1], math.sqrt(10.0), rtol=1e-12)  # 10**(3/6) per step
    assert all(r[2] for r in rows)  # every x > 0, so every h is written


def test_output_env_var(bench_config, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("OPTEXEC_OUTPUT_DIR", str(target))
    assert main(["twap", "--config", bench_config]) == 0
    assert (target / "summary.json").exists()


def test_market_section_validation():
    base = {"impact": {"family": "quadratic", "alpha0": "1.0"}}
    with pytest.raises(ConfigError):
        build_run_config({**base, "market": {"mu": "0.1"}})
    with pytest.raises(ConfigError):
        build_run_config({**base, "market": {}})
    with pytest.raises(ConfigError):
        build_run_config(
            {**base, "market": {"mu": "-0.085", "sigma": "0.3", "decay": "0.05"}}
        )
    cfg = build_run_config(
        {**base, "market": {"mu": "-0.085", "sigma": "0.3", "decay": "0.04"}}
    )
    assert cfg.market.mu + 0.5 * cfg.market.sigma**2 + cfg.market.decay == 0.0


# sets every key of every section, with spellings the resolved mapping normalises
FULL_MAPPING = {
    "impact": {
        "family": "mixed_power",
        "alpha": "2",
        "p_convex": "3.0",
        "p_concave": "0.5",
        "threshold": "1e-1",
    },
    "market": {"mu": "-0.085", "sigma": "0.3", "decay": "0.04"},
    "problem": {"c0": "1", "x0": "0.1", "s0": "100", "horizon": "2.5"},
    "solver": {
        "nt": "050",
        "nx": "60",
        "x_max": "0.2",
        "y_max": "5",
        "refine": "off",
    },
    "sim": {
        "n_paths": "300",
        "n_steps": "40",
        "seed": "7",
        "strategy": "rate:0.2",
        "log_floor": "-30",
        "path_csv_cap": "2",
    },
    "compare": {"strategies": " twap, zero ,"},
    "check": {"draws": "20", "seed": "3", "grid_points": "101"},
    "plot": {"x_min": "0.5", "x_max": "3", "points": "64", "spacing": "log"},
    "output": {"directory": "runs/full", "formats": " csv , json", "schedule_samples": "25"},
}

DEFAULT_RESOLVED = {
    "solver": {"nt": "400", "nx": "400", "refine": "true"},
    "sim": {
        "n_paths": "10000",
        "n_steps": "1000",
        "seed": "0",
        "strategy": "twap",
        "log_floor": "-60.0",
        "path_csv_cap": "0",
    },
    "compare": {"strategies": "twap,feedback"},
    "check": {"draws": "1000", "seed": "0", "grid_points": "4001"},
    "plot": {"x_min": "0.0", "points": "512", "spacing": "linear"},
    "output": {"directory": "out", "formats": "json,csv", "schedule_samples": "200"},
}

FULL_RESOLVED = {
    "impact": {
        "family": "mixed_power",
        "alpha": "2.0",
        "p_convex": "3.0",
        "p_concave": "0.5",
        "threshold": "0.1",
    },
    "market": {"mu": "-0.085", "sigma": "0.3", "decay": "0.04000000000000001"},
    "problem": {"c0": "1.0", "x0": "0.1", "s0": "100.0", "horizon": "2.5"},
    "solver": {
        "nt": "50",
        "nx": "60",
        "x_max": "0.2",
        "y_max": "5.0",
        "refine": "false",
    },
    "sim": {
        "n_paths": "300",
        "n_steps": "40",
        "seed": "7",
        "strategy": "rate:0.2",
        "log_floor": "-30.0",
        "path_csv_cap": "2",
    },
    "compare": {"strategies": "twap,zero"},
    "check": {"draws": "20", "seed": "3", "grid_points": "101"},
    "plot": {"x_min": "0.5", "x_max": "3.0", "points": "64", "spacing": "log"},
    "output": {"directory": "runs/full", "formats": "csv,json", "schedule_samples": "25"},
}


def test_resolved_mapping_golden():
    assert build_run_config({}).resolved == DEFAULT_RESOLVED
    assert build_run_config(FULL_MAPPING).resolved == FULL_RESOLVED
    refine_yes = {**FULL_MAPPING, "solver": {**FULL_MAPPING["solver"], "refine": "yes"}}
    assert build_run_config(refine_yes).resolved["solver"]["refine"] == "true"


def test_overrides_parsing():
    merged = apply_overrides({"a": {"k": "1"}}, ["a.k=2", "b.x=3"])
    assert merged == {"a": {"k": "2"}, "b": {"x": "3"}}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["nodots"])


@pytest.mark.parametrize("blocks, extra", [(2, 3), (1, 0), (0, 1)], ids=["2_blocks_plus_3", "one_block", "one_row"])
def test_csv_tables_match_the_csv_module(tmp_path, blocks, extra):
    # the column writer gives the bytes csv.writer gave for rows of .17g floats,
    # ints and strings, across block boundaries and for mixed list columns; text
    # cells are template arguments, so a % in them is written as it is
    import csv

    from optexec.cli import _CSV_CELLS, _fmt, _write_csv

    n = blocks * (_CSV_CELLS // 4) + extra  # a block holds the whole 4-cell rows that fit
    rng = np.random.default_rng(4)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    floats[:4] = [0.0, -0.0, 0.1, 1e16][:n]
    ints = np.arange(n)
    mixed = ["" if i % 7 == 0 else float(v) for i, v in enumerate(floats)]
    texts = ["twap", "50%", "%s", "%%", "%(x)s", "%.17g"]
    names = [f"rate:{i}" if i % 2 else texts[i // 2 % len(texts)] for i in range(n)]
    if n == 1:
        names = ["50% %s %%"]
    path = tmp_path / "t.csv"
    _write_csv(str(path), ["a", "b", "c", "d"], (floats, ints, mixed, names))

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d"])
        for row in zip(floats, ints.tolist(), mixed, names):
            writer.writerow([_fmt(v) for v in row])
    assert path.read_bytes() == ref.read_bytes()


def test_grid_tables_match_the_csv_module(tmp_path):
    # a grid table (outer axis, inner axis, fields shaped (outer, inner)) gives the
    # bytes csv.writer gives for one .17g row per (outer, inner) pair, outer-major
    rng = np.random.default_rng(9)
    inner = rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, size=7)
    inner[:3] = [-0.0, 0.1, 1e16]
    fields = rng.normal(size=(2, 4, 7)) * 10.0 ** rng.integers(-300, 300, size=(2, 4, 7))
    fields[0, 0, :] = [-0.0, 0.1, 1e16, np.inf, -np.inf, np.nan, 5e-324]
    fields[1, 1, :] = [1e300, -1e-300, 1.7976931348623157e308, 2.2250738585072014e-308, 0.0, 1.0, 3.0]
    for outer in (np.arange(4), np.array([0.0, -0.0, 0.1, 1e-300])):
        _assert_grid_matches_the_csv_module(tmp_path, outer, inner, fields)


def _assert_grid_matches_the_csv_module(tmp_path, outer, inner, fields):
    import csv

    from optexec.cli import _fmt, _write_csv

    path = tmp_path / "grid.csv"
    _write_csv(str(path), ["o", "i", "u", "v"], (outer, inner, *fields))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["o", "i", "u", "v"])
        for k, o in enumerate(outer.tolist()):
            for j, x in enumerate(inner.tolist()):
                writer.writerow([_fmt(v) for v in (o, x, fields[0, k, j].item(), fields[1, k, j].item())])
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n_outer, n_inner", [(10, 292), (2, 1025)], ids=["several_blocks", "level_wider_than_a_block"])
def test_grid_table_blocks_match_the_csv_module(tmp_path, n_outer, n_inner):
    # a grid block is the whole outer levels whose field cells fit in _CSV_CELLS,
    # at least one: 3 levels of 584 cells in a block and a last block of one
    # level, or one 2050-cell level per block
    from optexec.cli import _CSV_CELLS

    assert _CSV_CELLS // (2 * n_inner) in (3, 0)
    rng = np.random.default_rng(11)
    outer = rng.normal(size=n_outer) * 10.0 ** rng.integers(-20, 20, size=n_outer)
    inner = np.linspace(0.0, 1.0, n_inner)
    fields = rng.normal(size=(2, n_outer, n_inner)) * 10.0 ** rng.integers(-300, 300, size=(2, n_outer, n_inner))
    fields[:, -1, :5] = [[0.0, -0.0, np.inf, np.nan, 1e16], [5e-324, 1e-4, -1e300, 0.1, 1.0]]
    _assert_grid_matches_the_csv_module(tmp_path, outer, inner, fields)


def _format17(values):
    return [format(v, ".17g").encode() for v in values.tolist()]


def test_block_formatter_matches_format_on_a_deterministic_sweep():
    # every text equals format(v, ".17g"): 10**k +- up to 2**20 ulps (where log10
    # misplaces the decimal exponent), the fast path's ends, exact ties, and the
    # values the fast path hands back to format
    from optexec.cli import _g17

    steps = np.array([2**j + d for j in range(8, 21) for d in (-1, 0, 1)])
    ulps = np.concatenate([np.arange(-256, 257), steps, -steps])
    decades = np.array([float(f"1e{k}") for k in range(-4, 17)])
    near = (decades.view(np.int64)[:, None] + ulps).ravel().view(np.float64)
    ends = np.nextafter([1e-4, 1e-4, 1e16, 1e16], [0.0, np.inf, 0.0, np.inf])
    ties = 1e15 + np.arange(-64, 65) / 8  # every other one lies half-way between two 17-digit texts
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308, 1e300, 1.7976931348623157e308]
    values = np.concatenate([near, ends, ties, special])
    values = np.concatenate([values, -values])
    assert _g17(values) == _format17(values)
    assert _g17(np.array([1e15 + 0.25, 1e15 + 0.75, 0.5, -0.0])) == [b"1000000000000000.2", b"1000000000000000.8", b"0.5", b"-0"]


_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(0, 40),
        elements=st.one_of(st.floats(), st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4), _BITS),
    )
)
def test_block_formatter_matches_format_on_any_float_array(values):
    from optexec.cli import _g17

    assert _g17(values) == _format17(values)


def test_grid_tables_match_the_repeated_column_form(bench_config, tmp_path):
    # surface.csv and paths.csv keep the bytes of their old column form: the outer
    # axis repeated, the inner axis tiled and the fields raveled
    from optexec.cli import _simulate, _solve_hjb, _write_csv
    from optexec.config import read_config_file

    cap = "sim.path_csv_cap=3"
    cfg = build_run_config(apply_overrides(read_config_file(bench_config), [cap]))
    for cmd, handler, table in (("solve-hjb", _solve_hjb, "surface"), ("simulate", _simulate, "paths")):
        out = tmp_path / cmd
        assert main([cmd, "--config", bench_config, "--output", str(out), "--set", cap]) == 0
        header, (outer, inner, *fields) = handler(cfg)[1][table]
        columns = [np.repeat(outer, inner.size), np.tile(inner, outer.size)] + [f.ravel() for f in fields]
        ref = tmp_path / f"{table}_ref.csv"
        _write_csv(str(ref), header, columns)
        assert (out / f"{table}.csv").read_bytes() == ref.read_bytes()
