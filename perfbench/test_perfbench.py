"""Self-checks of the benchmark; run with

    PYTHONPATH=src python3 -m pytest -q perfbench

They use the cheap cases only: the exact counts a traced pass records
repeat between two passes, a traced run_expansion reproduces the
untraced fit bit for bit and leaves curvex.expansion as it found it,
each case is scaled by the calibrations on its two sides, span self
times and memory peaks nest, and the metric names match BENCHMARK.json.
"""

import json
from pathlib import Path

import curvex.expansion as expansion
import numpy as np
import pytest

from cases import COUNTS, PER_LAYER, WORKLOADS, case_name, layer_metrics, run_pass
from run import END_TO_END
from spans import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _cases(workload, names=None):
    return [c for c in WORKLOADS[workload]
            if names is None or case_name(c) in names]


def _traced_pass(cases, memory=False):
    tr = Tracer(memory=memory)
    tr.start()
    try:
        res = run_pass(cases, 7, tr)
    finally:
        tr.stop()
    return res, layer_metrics(tr.finished())


def test_counts_repeat_exactly_on_probes():
    first, lay1 = _traced_pass(_cases("probes"))
    second, lay2 = _traced_pass(_cases("probes"))
    assert all(op["ok"] for op in first["ops"] + second["ops"])
    for name in COUNTS:
        assert lay1[name]["value"] == lay2[name]["value"], name
    assert lay1["rigidity.checks"]["value"] > 0
    assert lay1["mu_solver.iterations"]["value"] > 0
    assert lay1["isoperimetry.kernel_pts"]["value"] > 0


@pytest.mark.parametrize(
    "workload,case",
    [("series_hermite", "H3_L_hermite40"), ("series_ode", "S2xR_L_radial16")],
)
def test_traced_fit_matches_run_expansion_bit_for_bit(workload, case):
    cases = _cases(workload, [case])
    steps = vars(expansion).copy()
    plain = run_pass(cases, 7, None)
    traced, layers = _traced_pass(cases)
    assert vars(expansion) == steps  # every swapped step is restored
    assert plain["ops"][0]["ok"]
    assert traced["ops"][0]["outputs"] == plain["ops"][0]["outputs"]
    assert layers["functionals.evals"]["value"] > 0
    assert layers["functionals.eval_s"]["value"] > 0
    assert layers["expansion.fit_s"]["value"] > 0
    assert layers["functionals.kernel_pts"]["value"] > 0
    assert layers["functionals.peak_mb"]["value"] is None
    memory, layers2 = _traced_pass(cases, memory=True)
    assert memory["ops"][0]["outputs"] == plain["ops"][0]["outputs"]
    assert layers2["functionals.peak_mb"]["value"] > 0
    for name in COUNTS:
        assert layers[name]["value"] == layers2[name]["value"], name
    if workload == "series_ode":
        assert layers["charts.metric_calls"]["value"] > 0


def test_each_case_records_the_calibration_on_its_two_sides():
    speeds = iter([0.1, 0.3, 0.5])
    res = run_pass(_cases("probes", ["c09_mu", "c10_volume_ratio"]), 7, None,
                   lambda: next(speeds))
    assert [op["cal_s"] for op in res["ops"]] == pytest.approx([0.2, 0.4])
    assert res["wall_s"] == sum(op["wall_s"] for op in res["ops"])
    assert next(speeds, None) is None  # once before the first case, once after each


def test_self_time_and_peaks_nest():
    tr = Tracer(memory=True)
    tr.start()
    try:
        with tr.span("outer"):
            held = np.ones(2**20)  # 8 MiB for the whole outer span
            with tr.span("inner"):
                np.ones(2**22)  # 32 MiB, freed at once
            np.ones(2**21)  # 16 MiB after the inner span
            del held
    finally:
        tr.stop()
    outer, inner = tr.finished()
    assert inner["parent"] == outer["id"]
    assert outer["self_s"] == pytest.approx(outer["dur_s"] - inner["dur_s"])
    assert inner["peak_bytes"] / 2**20 == pytest.approx(32, abs=1)
    assert outer["peak_bytes"] / 2**20 == pytest.approx(40, abs=1)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        name for name, _ in END_TO_END
    ]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [
        name for name, _ in PER_LAYER
    ] + ["bench.trace_overhead_s"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
