#!/usr/bin/env python3
"""optexec benchmark: fixed CLI workloads, correctness gates, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload hjb_quadratic --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

The load is a closed loop with one caller: one child interpreter at a time
runs one subcommand through `optexec.cli.main`, with BLAS/OpenMP thread
counts set to 1 in the child's environment.  Each run first starts one
child that only sets up (import optexec, parse and validate the config) to
warm caches; untraced, SETUP_RUNS more follow, each between two reference
start-ups.  Then it runs the workload repeatedly for `--seconds` seconds,
at least twice, all with the same seed.  Every run is gated (gates.py) and its
`summary.json` must match the first run's byte for byte.

`--trace 0` reports the end-to-end metrics, as medians over the run:

    wall_norm    the subcommand's wall time divided by the mean time of a
                 fixed reference kernel sampled before, during and after it
                 in the same process (child.SpeedProbe)
    setup_s      interpreter start, `import optexec`, config parse+validate,
                 divided by the mean time of the reference start-ups
                 (REFERENCE_START: a fresh interpreter that imports numpy)
                 just before and after it, times NOMINAL_REFERENCE_S; that
                 is, set-up seconds at the machine speed at which the
                 reference start-up takes NOMINAL_REFERENCE_S
    peak_rss_mb  the child's peak resident set size

On a shared 2-core machine the CPU speed swings by up to 2x over seconds
and can stay slow for a whole run, so raw `wall_s` (printed, with the
per-workload throughput) spreads 10-30% between runs while `wall_norm`
stays within a few percent.  The raw set-up time spreads as much, and the
in-process kernel tracks it poorly (start-up is imports in a fresh
process), so set-up is compared with a start-up of the same kind; the
median of SETUP_RUNS such ratios spreads 3-6% between runs.

`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics from the traced ones (tracing.py), plus `trace.overhead_s`, the
traced minus the untraced wall time.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Everything measured
goes to .perfbench_work/result.json, with provenance (src hash and line
count, git sha when run in a git checkout, nproc, Python/numpy/scipy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_RUNS = 12  # set-up-only children per untraced benchmark run, after one warm-up
# fixed, and independent of optexec; prints when it is ready, as child.py does
REFERENCE_START = "import time, numpy; print(time.monotonic())"
NOMINAL_REFERENCE_S = 0.12  # about REFERENCE_START's time on a 2-vCPU KVM guest; keep it fixed
RUN_LIMIT_S = 160  # children of one workload are killed past this; a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _spawn(child_args: list, src: str, result_path: str, deadline: float):
    """Run one child; return (exit code or None on timeout, start clock, result dict)."""
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", src, "--result", result_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + child_args,
            env=_child_env(src),
            stdout=subprocess.DEVNULL,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, start, {}
    result = {}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    return proc.returncode, start, result


def provenance(root: str) -> dict:
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    lines = 0
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    data = fh.read()
                digest.update(f.encode() + b"\0" + data)
                lines += data.count(b"\n")
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def run_workload(wl, seed: int, seconds: int, trace: bool, root: str) -> dict:
    src = os.path.join(root, "src")
    work = os.path.join(root, WORK_DIR, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(wl.ini_text(seed))
    ref = wl.reference()
    result_path = os.path.join(work, "child.json")
    out_dir = os.path.join(work, "out")
    deadline = time.monotonic() + RUN_LIMIT_S

    def set_up_only() -> float:
        rc, start, res = _spawn(["--config", cfg_path], src, result_path, deadline)
        if rc != 0:
            raise BenchError(f"set-up child exited with {rc}")
        return res["ready"] - start

    def reference_start() -> float:
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", REFERENCE_START],
                env=_child_env(src),
                check=True,
                capture_output=True,
                text=True,
                timeout=max(deadline - start, 1.0),
            )
            return float(proc.stdout) - start
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            raise BenchError(f"reference start-up failed: {exc!r}") from exc

    set_up_only()  # warms caches and compiles bytecode; not counted
    setups_raw, references = [], []
    if not trace:
        references.append(reference_start())
        for _ in range(SETUP_RUNS):
            setups_raw.append(set_up_only())
            references.append(reference_start())
    setups = [
        s * NOMINAL_REFERENCE_S / statistics.fmean(references[i : i + 2])
        for i, s in enumerate(setups_raw)
    ]

    plain, traced, failures = [], [], []
    first_summary = None
    attempted = 0
    t_start = time.monotonic()
    while (attempted < 2 or time.monotonic() - t_start < seconds) and time.monotonic() < deadline:
        with_trace = trace and attempted % 2 == 1
        attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["--config", cfg_path, "--subcommand", wl.subcommand, "--output", out_dir]
        if with_trace:
            args += ["--spans", os.path.join(work, "spans.json")]
        rc, start, res = _spawn(args, src, result_path, deadline)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                problems += gates.GATES[wl.subcommand](out_dir, ref)
                with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
                    summary = fh.read()
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                problems.append(f"artifacts unreadable: {exc!r}")
            else:
                if first_summary is None:
                    first_summary = summary
                elif summary != first_summary:
                    problems.append("summary.json differs from the first run with this seed")
        if problems:
            failures.append({"run": attempted, "problems": problems})
            print(f"{wl.name} run {attempted} FAILED: {'; '.join(problems)}", file=sys.stderr)
            continue
        (traced if with_trace else plain).append(res)

    if not plain or (trace and not traced):
        raise BenchError(f"{wl.name}: no run passed its gates")
    walls = [r["wall_s"] for r in plain]
    norms = [r["wall_s"] / r["reference_s"] for r in plain]
    e2e = {
        "wall_norm": statistics.median(norms),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }
    if setups:  # untraced only
        e2e["setup_s"] = statistics.median(setups)
    layers = {}
    if trace:
        layers = {
            name: statistics.median([r["layers"][name] for r in traced])
            for name in tracing.LAYER_UNITS
            if name != "trace.overhead_s"
        }
        # compared in reference units, then converted back to seconds at the
        # run's mean machine speed, so a slow spell during one side does not
        # show up as tracing cost
        traced_norm = statistics.median([r["wall_s"] / r["reference_s"] for r in traced])
        ref_s = statistics.fmean(r["reference_s"] for r in plain + traced)
        layers["trace.overhead_s"] = (traced_norm - e2e["wall_norm"]) * ref_s

    info = {
        "workload": wl.name,
        "seed": seed,
        "seed_default": DEFAULT_SEED,
        "versions": plain[0]["versions"],
        "wall_s": statistics.median(walls),
        f"{wl.work_unit}_per_s": wl.work / statistics.median(walls),
        "reference_s": statistics.median([r["reference_s"] for r in plain]),
        "samples": {
            "wall_s": walls,
            "wall_norm": norms,
            "setup_s": setups,
            "setup_raw_s": setups_raw,
            "reference_start_s": references,
            "probe_samples": [r["probe_samples"] for r in plain],
        },
        "failures": failures,
        "error_rate": len(failures) / attempted,
    }
    if "value" in ref and first_summary is not None:
        info["value_abs_err"] = abs(json.loads(first_summary)["value"] - ref["value"])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": e2e,
        "per_layer": layers,
        "info": info,
    }


# metrics printed but not in BENCHMARK.json: raw wall time and throughput
# swing with the machine's speed (see SpeedProbe in child.py)
_INFO_UNITS = {
    "wall_s": "s",
    "grid_nodes_per_s": "1/s",
    "path_steps_per_s": "1/s",
    "draws_per_s": "1/s",
    "reference_s": "s",
    "value_abs_err": "currency",
    "error_rate": "fraction",
}


def _report(wl, res: dict, trace: bool) -> None:
    info = res["info"]
    print(f"== {wl.name} ({wl.subcommand}), seed {info['seed']} (default {info['seed_default']})")
    for name, unit in END_TO_END_UNITS.items():
        if name in res["end_to_end"]:
            print(f"  {name:<26} {res['end_to_end'][name]:.6g} {unit}")
    for name, unit in _INFO_UNITS.items():
        if name in info:
            print(f"  {name:<26} {info[name]:.6g} {unit}")
    walls = info["samples"]["wall_s"]
    print(f"  {'runs':<26} {res['attempted']} attempted, {res['failed']} failed; "
          f"wall_s min {min(walls):.4g} max {max(walls):.4g} over {len(walls)} untraced")
    if trace:
        for name, unit in tracing.LAYER_UNITS.items():
            print(f"  {name:<26} {res['per_layer'][name]:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "optexec", "__init__.py")):
        print("perfbench: no ./src/optexec here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(root)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    key = "per_layer" if args.trace else "end_to_end"
    record = {"provenance": prov, "trace": args.trace, "workloads": {}}
    metrics = {}
    for name, res in results.items():
        _report(WORKLOADS[name], res, bool(args.trace))
        prov.setdefault("versions", res["info"]["versions"])
        record["workloads"][name] = res
        prefix = "" if len(results) == 1 else f"{name}."
        for m, unit in units.items():
            metrics[prefix + m] = {"value": res[key][m], "unit": unit}
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(os.path.join(root, WORK_DIR, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
