"""Self-test of the benchmark, on shortened schedules.

    PYTHONPATH=src python -m pytest bench/tests

Each workload runs twice with tracing; every metric the benchmark names
must come out with its unit, and the counts must repeat exactly.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SHORT_SCHEDULES = {
    "verify": (),
    "star5_1600": (25.0, 50.0),
    "figure1_v1": (25.0, 50.0),
}
COUNTS = [k for k, unit in run.PER_LAYER_UNITS.items() if unit in ("count", "bytes")]
SECONDS = [k for k, unit in run.LAYER_UNITS.items() if unit == "s"]


@pytest.fixture(scope="module")
def results():
    return {
        name: [
            run.measure(name, lambdas, 0.0, trace=True, min_setups=1)
            for _ in range(2)
        ]
        for name, lambdas in SHORT_SCHEDULES.items()
    }


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.PER_LAYER_UNITS


def test_every_metric_present_with_unit(results):
    for name, pair in results.items():
        for result in pair:
            assert result["correct"], (name, result["problems"])
            assert result["failed"] == 0
            for trace in (False, True):
                units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
                metrics = run.metrics(result, trace)
                assert set(metrics) == set(units), name
                for key, metric in metrics.items():
                    assert metric["unit"] == units[key]
                    assert math.isfinite(metric["value"]), (name, key)


def test_counts_repeat_exactly(results):
    for name, (first, second) in results.items():
        for key in COUNTS:
            assert first["per_layer"][key] == second["per_layer"][key], (name, key)


def test_layer_times_add_up_to_traced_run(results):
    for name, pair in results.items():
        for result in pair:
            layers = result["per_layer"]
            total = sum(layers[k] for k in SECONDS)
            assert total == pytest.approx(layers["trace.run_s"], rel=1e-9), name


def test_workload_layers(results):
    verify = results["verify"][0]["per_layer"]
    star5 = results["star5_1600"][0]["per_layer"]
    assert verify["acceptance.criterion_1_s"] > 0.0
    assert verify["reduced.critical_points_s"] > 0.0
    assert verify["cli.artifact_bytes"] == 0
    assert star5["cli.artifact_files"] > 0
    assert star5["acceptance.criterion_1_s"] == 0.0
    assert star5["solve.newton_iters"] == 2 + 5
    assert results["figure1_v1"][0]["end_to_end"]["success_ratio"] == 0.0


def test_seed_scales_only_seeded_schedules():
    star5 = run.WORKLOADS["star5_1600"]
    assert run.schedule(star5, 0) == star5.schedule
    scaled = run.schedule(star5, 7)
    assert scaled == run.schedule(star5, 7)
    factors = {b / a for a, b in zip(star5.schedule, scaled)}
    assert len({round(f, 12) for f in factors}) == 1
    assert 1.0 < factors.pop() < 1.1
    figure1 = run.WORKLOADS["figure1_v1"]
    assert run.schedule(figure1, 7) == figure1.schedule


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    argv = ["--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
