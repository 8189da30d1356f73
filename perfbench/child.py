"""One timed `optexec` run in a fresh interpreter, started by run.py.

The parent takes the clock just before it starts this process; `ready`
below is taken once optexec is imported and the config parsed and
validated, so `ready - start` is the set-up time.  The subcommand then runs
through `optexec.cli.main`, timed on its own.  Results go to `--result` as
JSON.  With `--spans`, every layer's public functions are wrapped first and
the span list is written there at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np


def reference_block() -> np.ndarray:
    """The 8 MB array `reference_kernel` reads column by column."""
    return np.random.default_rng(0).standard_normal((4096, 256))


def reference_kernel(block: np.ndarray) -> float:
    """Seconds taken by a small fixed mix of the kinds of work the workloads do.

    Ufuncs on 401-element arrays, float formatting, scalar numpy calls and
    strided column reads of `block`.  On a shared machine these slow down
    by different amounts, so the mix matters: the strided reads track
    mc_compare and the scalar calls hamiltonian_check.  It does not touch
    optexec, so its time tracks only the speed of the machine at that
    moment.  Keep it as it is: changing it rescales every `wall_norm`.
    """
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 401)
    acc = 0.0
    for i in range(500):
        y = np.where(x > 0.5, x * x, 0.0) - np.minimum(x, 0.3)
        acc += float(y[i % 401])
    ",".join(format(v, ".17g") for v in x.tolist() * 6)
    for i in range(300):
        a = np.atleast_1d(np.asarray(i * 0.01, dtype=float))
        if not np.any(a < 0.0):
            acc += float(a[0] * a[0])
    for k in range(0, 256, 8):
        acc += float(block[:, k].sum())
    return time.perf_counter() - t0


class SpeedProbe:
    """Times `reference_kernel` before, after, and every PERIOD_S seconds during a call.

    The samples taken during the call come from a SIGALRM handler, which
    runs in the main thread between bytecodes, so the call is paused, not
    shared with a second thread.  `spent` is the handler's time during the
    call; it is also left out of the spans of `recorder`, when given.
    """

    PERIOD_S = 0.2
    EDGE_SAMPLES = 5

    def __init__(self, recorder=None):
        self.samples: list[float] = []
        self.spent = 0.0
        self.recorder = recorder
        self._block = reference_block()
        self.block_mb = self._block.nbytes / 2**20

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(reference_kernel(self._block))
        dt = time.perf_counter() - t0
        self.spent += dt
        if self.recorder is not None:
            self.recorder.paused_s += dt

    def __enter__(self):
        for _ in range(self.EDGE_SAMPLES):
            self._tick()
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        spent = self.spent
        for _ in range(self.EDGE_SAMPLES):
            self._tick()
        self.spent = spent


def _bytes_under(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--subcommand")
    ap.add_argument("--output")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import optexec
    import optexec.cli

    here = os.path.realpath(optexec.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"child: imported optexec from {here}, not from {args.src}", file=sys.stderr)
        return 2

    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    config = sys.modules["optexec.config"]
    config.build_run_config(config.read_config_file(args.config))
    ready = time.monotonic()

    result = {"ready": ready}
    rc = 0
    if args.subcommand:
        with SpeedProbe(recorder) as probe:
            t0 = time.monotonic()
            rc = optexec.cli.main([args.subcommand, "--config", args.config, "--output", args.output])
            elapsed = time.monotonic() - t0
        result["wall_s"] = elapsed - probe.spent
        result["reference_s"] = statistics.fmean(probe.samples)
        result["probe_samples"] = len(probe.samples)
        # the probe's block is resident for the whole call, so it sits under the peak
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["peak_rss_mb"] = rss_mb - probe.block_mb
        result["versions"] = {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        }
        if recorder is not None:
            result["layers"] = tracing.layer_metrics(recorder.spans, _bytes_under(args.output))
            with open(args.spans, "w") as fh:
                json.dump([[s.name, s.start, s.end, s.parent, s.work, s.note] for s in recorder.spans], fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
