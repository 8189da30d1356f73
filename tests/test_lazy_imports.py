"""scipy's submodules load on first use, not with the package.

Each check runs in a fresh interpreter, because the test process itself
may have imported anything already.
"""

import json
import os
import subprocess
import sys

import optexec
from optexec.closed_form import mixed_power_solution
from optexec.hjb import optimize_deterministic_schedule
from optexec.impact import MixedPowerImpact, QuadraticImpact

SRC = os.path.dirname(os.path.dirname(os.path.abspath(optexec.__file__)))
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.special")

_CLI_RUNS = """
import json, sys
import optexec, optexec.cli

market = ["market.decay=0.04", "problem.c0=0.0", "problem.s0=100.0", "problem.horizon=1.0"]
problem = market + ["impact.family=quadratic", "impact.alpha0=1.0", "problem.x0=0.1",
                    "solver.nt=30", "solver.nx=30", "solver.refine=false",
                    "sim.n_paths=100", "sim.n_steps=50", "check.draws=20",
                    "compare.strategies=twap,zero,feedback"]
# a large inventory, whose x_large and schedule take the mixed-power series
large = market + ["impact.family=mixed_power", "impact.alpha=1.0", "impact.p_convex=2.0",
                  "impact.p_concave=0.5", "impact.threshold=0.0", "problem.x0=1.5"]
runs = [(sub, problem) for sub in ("solve-hjb", "compare", "hamiltonian-check", "twap", "simulate")]
for sub, sets in runs + [("mixed-power", large)]:
    out = sys.argv[1] + "/" + sub
    if optexec.cli.main([sub, "--output", out] + [a for s in sets for a in ("--set", s)]) != 0:
        sys.exit(f"{sub} failed")
if json.load(open(sys.argv[1] + "/mixed-power/summary.json"))["regime"] != "large_inventory":
    sys.exit("mixed-power did not take the large-inventory branch")
print(json.dumps({m: m in sys.modules for m in ("scipy",) + %r}))
""" % (LAZY,)

_COLD_CALLS = """
import json, sys
from optexec.closed_form import mixed_power_solution
from optexec.hjb import optimize_deterministic_schedule
from optexec.impact import MixedPowerImpact, QuadraticImpact

loaded_at_import = [m for m in %r if m in sys.modules]
mp = mixed_power_solution(0.0, 1.5, 100.0, MixedPowerImpact(1.0, 2.0, 0.5, 0.5), 0.04, 1.0)
value, schedule = optimize_deterministic_schedule(QuadraticImpact(1.0), 0.04, 1.0, 0.1, 8)
print(json.dumps({"loaded_at_import": loaded_at_import,
                  "mixed_power": [mp.regime, repr(mp.value), repr(mp.x_large)],
                  "schedule": [repr(value), repr(schedule.total)]}))
""" % (LAZY,)


def _fresh(script, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_runs_leave_scipy_submodules_unloaded(tmp_path):
    loaded = _fresh(_CLI_RUNS, str(tmp_path))
    assert loaded == {"scipy": True, **dict.fromkeys(LAZY, False)}


def test_cold_calls_load_scipy_and_match_in_process():
    cold = _fresh(_COLD_CALLS)
    assert cold["loaded_at_import"] == []
    mp = mixed_power_solution(0.0, 1.5, 100.0, MixedPowerImpact(1.0, 2.0, 0.5, 0.5), 0.04, 1.0)
    value, schedule = optimize_deterministic_schedule(QuadraticImpact(1.0), 0.04, 1.0, 0.1, 8)
    assert cold["mixed_power"] == [mp.regime, repr(mp.value), repr(mp.x_large)]
    assert cold["schedule"] == [repr(value), repr(schedule.total)]
