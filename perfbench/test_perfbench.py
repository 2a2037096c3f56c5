"""Self-tests of the benchmark's checks and tracer.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _op(ops, name):
    return [op for op in ops if op.name == name]


def test_wrong_expected_value_counts_as_failure(tmp_path):
    wrong = dict(workloads.EXPECTED_SWEEPS)
    wrong["bode_reference_loop"] = {**wrong["bode_reference_loop"], "dc_gain": 961.0}
    ops = _op(workloads.sweep_presets(0, expected=wrong), "bode_reference_loop")
    seconds, attempted, failures = worker.run_iteration(ops, tmp_path / "work")
    assert attempted == 1
    assert len(failures) == 1 and "dc_gain" in failures[0]
    assert seconds > 0


def test_seed_commit_values_pass(tmp_path):
    ops = _op(workloads.sweep_presets(0), "bode_reference_loop")
    ops += _op(workloads.kp4_oracle(0), "ber_19db")
    assert worker.run_iteration(ops, tmp_path / "work")[1:] == (2, [])


def test_wrong_penalty_and_exception_count_as_failures(tmp_path):
    ops = _op(workloads.kp4_oracle(0, ber_19db="2.4000e-04"), "ber_19db")
    raising = workloads.Op("raises", lambda outdir: 1 / 0, lambda out: [])
    _, attempted, failures = worker.run_iteration([*ops, raising], tmp_path / "work")
    assert attempted == 2
    assert "expected 2.4000e-04" in failures[0]
    assert "ZeroDivisionError" in failures[1]


def test_tracer_self_time_and_counts(tmp_path):
    tracer = spans.Tracer()
    tracer.iteration = 1
    ops = _op(workloads.sweep_presets(0), "ber_offset_4qam")
    _, _, failures = worker.run_iteration(ops, tmp_path / "work", tracer)
    assert failures == []
    s = tracer.summary(1)
    assert s["cli.run_scenario.calls"] == 1
    assert s["ber.snr_sweep.calls"] == 4
    assert s["ber.snr_points"] == 4 * 49
    assert s["reports.csv_rows"] == 4 * 49
    # sigma = 0: no quadrature, one semi-analytic call per grid point
    assert s["ber.semi_analytic_ser.calls"] == 4 * 49
    assert "ber.quad_nodes.calls" not in s
    total = s["cli.run_scenario.s"]
    parts = s["cli.run_scenario.self_s"] + sum(
        s[f"{name}.s"] for name in ("config.validate_config", "ber.snr_sweep", "reports.write_csv",
                                    "svgplot.emit_svg", "analysis.bode_metrics")
    )
    assert abs(total - parts) < 1e-9
    # wrappers are gone after the iteration
    assert workloads.cli.run_scenario.__name__ == "run_scenario"
    assert not hasattr(workloads.cli.run_scenario, "__wrapped__")
    tracer.write(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert len(doc["spans"]) == s["trace.spans"]
    rates = worker.layer_metrics(s, 1.0)
    assert rates["ber.ms_per_snr_point"] > 0 and rates["cpr.us_per_block"] == 0


def test_every_declared_layer_metric_has_a_source():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    known = set(worker.layer_metrics({}, 1.0)) | {"trace.overhead_s", "trace.spans"}
    known |= {"cpr.blocks", "ber.snr_points", "reports.csv_rows"}
    known |= {f"{name}.{kind}" for name in spans.WRAPPED for kind in ("calls", "s", "self_s")}
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in known] == []
