"""Correctness gates on one run's artifacts.

Each gate reads the output directory of one `optexec` run and returns a
list of failure messages; an empty list means the run passed.  A run that
exits non-zero, fails a gate, or writes a `summary.json` whose bytes differ
from an earlier run with the same seed counts as failed.
"""

from __future__ import annotations

import json
import os

# |value - twap_solution| allowed on the hjb workloads, in currency units
# (s0 = 100).  Measured errors: 9.6e-4 (hjb_quadratic), 2.9e-3 (hjb_gamma_clock).
VALUE_TOL = 1e-2

# Monte Carlo means must lie within this many standard errors of the
# closed forms.  Over seeds 1-8 the largest |z| seen was 1.24.
MC_SE_TOL = 4.0


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def hjb_gate(out_dir: str, ref: dict) -> list[str]:
    """`value` near the closed form; every speed 0 or above the threshold; x = 0 column 0."""
    fails = []
    err = abs(_summary(out_dir)["value"] - ref["value"])
    if not err <= VALUE_TOL:
        fails.append(f"value is {err:.3g} from the twap_solution reference (tolerance {VALUE_TOL})")
    threshold = ref["threshold"]
    forbidden = boundary = 0
    with open(os.path.join(out_dir, "surface.csv")) as fh:
        header = fh.readline().strip().split(",")
        ix, ispeed = header.index("x"), header.index("speed")
        for line in fh:
            cols = line.split(",")
            speed = float(cols[ispeed])
            if speed != 0.0 and not speed > threshold:
                forbidden += 1
            if float(cols[ix]) == 0.0 and speed != 0.0:
                boundary += 1
    if forbidden:
        fails.append(f"{forbidden} surface speeds are neither 0 nor above the threshold {threshold}")
    if boundary:
        fails.append(f"{boundary} surface speeds on the x = 0 column are not 0")
    return fails


def compare_gate(out_dir: str, ref: dict) -> list[str]:
    """twap and threshold means near the extreme_comparison closed forms; twap beats threshold."""
    s = _summary(out_dir)
    fails = []
    for name in ("twap", "threshold"):
        i = s["strategies"].index(name)
        z = (s["means"][i] - ref[name]) / s["std_errors"][i]
        if not abs(z) <= MC_SE_TOL:
            fails.append(f"{name} mean is {z:+.2f} standard errors from its closed form")
    pair = next(p for p in s["pairs"] if (p["first"], p["second"]) == ("twap", "threshold"))
    if not pair["mean_diff"] > 0.0:
        fails.append(f"paired twap - threshold difference {pair['mean_diff']:.3g} is not positive")
    return fails


def hamiltonian_gate(out_dir: str, ref: dict) -> list[str]:
    """The closed-form Hamiltonian agrees with the brute-force oracle."""
    if _summary(out_dir)["within_tol"] is not True:
        return ["hamiltonian-check reports within_tol = false"]
    return []


GATES = {
    "solve-hjb": hjb_gate,
    "compare": compare_gate,
    "hamiltonian-check": hamiltonian_gate,
}
