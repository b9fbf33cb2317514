"""The benchmark's own test: schema, smoke runs and the output checks.

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import proxdenoise as pd  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "denoise-nonlocal":
        assert values["grouping.block_match.self_s"] > 0
        assert values["grouping.block_match.candidates"] > values["grouping.block_match.sites"] > 0
    else:
        assert all(v == 0 for name, v in values.items() if name.startswith("grouping."))


def run_in_process(workload):
    result, _ = workloads.execute(workload, seed=3, seconds=0.2, trace=False, smoke=True, root=ROOT)
    return result


def test_corrupted_denoised_image_counts_as_failed(monkeypatch):
    forward = pd.network_forward
    monkeypatch.setattr(pd, "network_forward", lambda *a, **k: forward(*a, **k) + 300.0)
    result = run_in_process("denoise-local")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_non_finite_training_loss_counts_as_failed(monkeypatch):
    train_full = pd.train_full
    monkeypatch.setattr(pd, "train_full",
                        lambda *a, **k: (train_full(*a, **k)[0], [float("nan")]))
    result = run_in_process("train-local")
    assert result["failed"] == result["attempted"] > 0


def test_output_checks():
    good = np.full((4, 4, 1), 128.0, dtype=np.float32)
    assert workloads.output_ok(good, (4, 4, 1))
    assert not workloads.output_ok(good, (4, 4, 3))
    for bad in (np.nan, -1.0, 255.5):
        corrupt = good.copy()
        corrupt[1, 2, 0] = bad
        assert not workloads.output_ok(corrupt, (4, 4, 1))
    radius = 10.0
    assert workloads.inside_noise_balls([(radius, radius), (radius * (1 + 1e-7), radius)])
    assert not workloads.inside_noise_balls([(radius, radius), (radius * 1.001, radius)])


def test_tracer_wraps_every_binding_and_reports_missing_names(monkeypatch):
    import proxdenoise.conv
    import proxdenoise.network

    original = proxdenoise.conv.conv_forward
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("proxdenoise.conv", "renamed_away", "conv.renamed", "conv.weight_backward.self_s", None),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert proxdenoise.conv.conv_forward is not original
        assert proxdenoise.network.conv_forward is proxdenoise.conv.conv_forward
        tracer.phase = "round0"
        tracer.span(tracing.ROUND, pd.network_forward, np.full((8, 8, 1), 100.0, np.float32), 10.0,
                    pd.init_network(pd.desk_architecture(stages=1, filters=2, kernel=(3, 3))))
    finally:
        tracer.uninstall()
    assert proxdenoise.network.conv_forward is original
    metrics = tracer.metrics(["round0"])
    assert metrics["conv.forward.self_s"] > 0 and metrics["network.stage.calls"] == 1
    assert tracer.absent_metrics() == ["conv.weight_backward.self_s"]
