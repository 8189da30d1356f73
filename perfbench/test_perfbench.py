"""Tests of the benchmark's own gates, span arithmetic and speed probe."""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

# -- gates on doctored artifacts --------------------------------------------------


def _write(out_dir, summary, surface_rows=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    if surface_rows is not None:
        with open(os.path.join(out_dir, "surface.csv"), "w") as fh:
            fh.write("t,x,W,speed\n")
            for row in surface_rows:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


HJB_REF = {"value": 9.8, "threshold": 1.0}
GOOD_SURFACE = [(0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.5, 0.1, 0.05, 1.5), (0.5, 0.2, 0.09, 0.0)]


def test_hjb_gate_passes_good_artifacts(tmp_path):
    _write(tmp_path, {"value": 9.8 + 0.5 * gates.VALUE_TOL}, GOOD_SURFACE)
    assert gates.hjb_gate(str(tmp_path), HJB_REF) == []


def test_hjb_gate_fails_shifted_value(tmp_path):
    _write(tmp_path, {"value": 9.8 + 2.0 * gates.VALUE_TOL}, GOOD_SURFACE)
    (msg,) = gates.hjb_gate(str(tmp_path), HJB_REF)
    assert "twap_solution" in msg


@pytest.mark.parametrize("speed", [0.5, 1.0])
def test_hjb_gate_fails_speed_in_forbidden_interval(tmp_path, speed):
    rows = GOOD_SURFACE + [(1.0, 0.1, 0.05, speed)]
    _write(tmp_path, {"value": 9.8}, rows)
    (msg,) = gates.hjb_gate(str(tmp_path), HJB_REF)
    assert "neither 0 nor above the threshold" in msg


def test_hjb_gate_fails_nonzero_boundary_column(tmp_path):
    rows = GOOD_SURFACE + [(1.0, 0.0, 0.0, 2.0)]
    _write(tmp_path, {"value": 9.8}, rows)
    (msg,) = gates.hjb_gate(str(tmp_path), HJB_REF)
    assert "x = 0 column" in msg


COMPARE_REF = {"twap": 49.43, "threshold": 49.38}


def _compare_summary(twap_mean=49.43, threshold_mean=49.38, diff=0.046):
    return {
        "strategies": ["twap", "threshold", "feedback"],
        "means": [twap_mean, threshold_mean, 49.42],
        "std_errors": [0.033, 0.035, 0.033],
        "pairs": [
            {"first": "twap", "second": "threshold", "mean_diff": diff, "se_diff": 0.004},
            {"first": "twap", "second": "feedback", "mean_diff": 0.002, "se_diff": 0.0001},
        ],
    }


def test_compare_gate_passes_good_artifacts(tmp_path):
    _write(tmp_path, _compare_summary())
    assert gates.compare_gate(str(tmp_path), COMPARE_REF) == []


def test_compare_gate_fails_mean_far_from_closed_form(tmp_path):
    _write(tmp_path, _compare_summary(threshold_mean=49.38 - 5.0 * gates.MC_SE_TOL * 0.035))
    (msg,) = gates.compare_gate(str(tmp_path), COMPARE_REF)
    assert msg.startswith("threshold mean")


def test_compare_gate_fails_nonpositive_paired_difference(tmp_path):
    _write(tmp_path, _compare_summary(diff=-0.001))
    (msg,) = gates.compare_gate(str(tmp_path), COMPARE_REF)
    assert "not positive" in msg


def test_hamiltonian_gate(tmp_path):
    _write(tmp_path, {"within_tol": True})
    assert gates.hamiltonian_gate(str(tmp_path), {}) == []
    _write(tmp_path, {"within_tol": False})
    assert len(gates.hamiltonian_gate(str(tmp_path), {})) == 1


# -- span arithmetic on a synthetic tree ------------------------------------------


def test_covered_merges_overlaps():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0


def test_self_times_on_synthetic_tree():
    # cli [0, 10] -> solve [1, 7] -> g [2, 3], g [4, 6]
    #             -> config [8, 9]
    spans = [
        Span("cli", 0.0, 10.0, -1),
        Span("hjb.solve", 1.0, 7.0, 0),
        Span("impact.g", 2.0, 3.0, 1, work=5),
        Span("impact.g", 4.0, 6.0, 1, work=7),
        Span("config", 8.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 2.0, 1.0])
    m = tracing.layer_metrics(spans, bytes_written=123)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["hjb.solve.self_s"] == pytest.approx(3.0)
    assert m["impact.g.calls"] == 2
    assert m["impact.g.elems"] == 12
    assert m["impact.g.s"] == pytest.approx(3.0)
    assert m["config.s"] == pytest.approx(1.0)
    assert m["cli.bytes_written"] == 123
    assert m["simulate.calls"] == 0


def test_nested_spans_of_one_layer_count_once_in_busy_time():
    spans = [
        Span("closed_form", 0.0, 4.0, -1),
        Span("closed_form", 1.0, 2.0, 0),
    ]
    m = tracing.layer_metrics(spans, bytes_written=0)
    assert m["closed_form.calls"] == 2
    assert m["closed_form.s"] == pytest.approx(4.0)


def test_install_records_cli_call_tree_and_restores(tmp_path):
    optexec_cli = pytest.importorskip("optexec.cli")
    import importlib

    hjb = importlib.import_module("optexec.hjb")
    original = hjb.solve_reduced_hjb
    rec = tracing.Recorder()
    inst = tracing.install(rec)
    try:
        assert optexec_cli.solve_reduced_hjb is hjb.solve_reduced_hjb
        assert hjb.solve_reduced_hjb is not original
        # the wrapped cli.main is reached through the module attribute
        rc = optexec_cli.main(
            ["twap", "--output", str(tmp_path)]
            + ["--set", "impact.family=quadratic", "--set", "impact.alpha0=1"]
            + ["--set", "market.decay=0.04"]
            + [f"--set=problem.{k}" for k in ("c0=0", "x0=0.1", "s0=100", "horizon=1")]
        )
    finally:
        inst.restore()
    assert rc == 0
    assert hjb.solve_reduced_hjb is original
    assert optexec_cli.solve_reduced_hjb is original
    names = [s.name for s in rec.spans]
    assert names[0] == "cli" and rec.spans[0].parent == -1
    assert {"config", "closed_form", "impact.h"} <= set(names)
    assert all(s.parent >= 0 for s in rec.spans[1:])


def test_probe_time_is_left_out_of_wall_time_and_spans():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    rec = tracing.Recorder()
    busy = rec.wrap("busy", spin)
    with child.SpeedProbe(rec) as probe:
        t0 = time.perf_counter()
        busy(0.5)
        elapsed = time.perf_counter() - t0
    assert len(probe.samples) > 2 * child.SpeedProbe.EDGE_SAMPLES
    assert probe.spent > 0.0
    (span,) = rec.spans
    assert span.end - span.start == pytest.approx(elapsed - probe.spent, abs=5e-3)
