"""Smoke test of the benchmark itself: every workload at tiny budgets.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

It checks that each workload, untraced and traced, exits 0, passes its
output checks and emits exactly the metrics BENCHMARK.json declares (every
end-to-end metric untraced, every per-layer metric traced) and its own
named detail metrics.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ["experiment", "train_fixed", "posterior"]
DETAIL = {
    "experiment": ["run_s", "bll_s", "blr_s", "vi_s", "bll_test_exp_lpd"],
    "train_fixed": ["epoch_us.bll", "epoch_us.mse", "epoch_us.blr", "epoch_us.vi"],
    "posterior": [
        "tune_alpha_ms",
        "alpha_sweep_ms",
        "predict_rows_per_s",
        "predict_one_us.p50",
        "predict_one_us.p99",
        "score_one_us.p50",
    ],
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_declared_workloads_and_end_to_end_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from run import END_TO_END

    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_its_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads((HERE / "out" / f"result_{workload}_seed3_trace{trace}.json").read_text())
    assert set(record["detail"]) == set(DETAIL[workload])
    assert all(value > 0 for value in record["detail"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "posterior", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_instrument_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import importlib

    import tracing

    bindings = [b for group in (tracing.SPANS, tracing.TRAINERS) for bs in group.values() for b in bs]
    bindings += tracing.FIT_LOOPS + tracing.TUNE_ALPHA + tracing.PREDICT_BATCH
    bindings += ["lastlayer.linalg:cholesky", "lastlayer.cli:run_experiment"]

    def current():
        out = {}
        for binding in bindings:
            module, attr = binding.split(":")
            out[binding] = getattr(importlib.import_module(module), attr)
        return out

    before = current()
    with tracing.instrument(tracing.Tracer()):
        during = current()
    assert all(during[b] is not before[b] for b in bindings)
    assert current() == before
