"""Smoke test of the benchmark at tiny shapes.

Run from the repository root with ``python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import envinfo  # noqa: E402
import layertrace  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_benchmark_json_declares_the_emitted_metrics():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == layertrace.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def results() -> dict:
    """Each workload at the tiny shape, untraced once and traced twice."""
    return {
        (name, trace): run.run(name, seed=5, seconds=0, trace=bool(trace),
                               shape=workloads.TINY)
        for name in workloads.WORKLOADS
        for trace in (0, 1, 2)
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_emits_every_metric(results, name, trace):
    result = results[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric][0]
        assert isinstance(entry["value"], float)
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_structural_counts_repeat_exactly(results, name):
    first, second = results[(name, 1)]["metrics"], results[(name, 2)]["metrics"]
    for metric in layertrace.STRUCTURAL:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_supervised_bypasses_the_unlabeled_layers(results):
    metrics = {k: v["value"] for k, v in results[("supervised_b4", 1)]["metrics"].items()}
    assert metrics["networks.teacher_forward.grad.calls"] > 0
    assert metrics["training.Adam.step.calls"] > 0
    for bypassed in ("networks.reference_forward.grad.calls",
                     "networks.reference_forward.nograd.calls",
                     "memory.ConfidenceMemory.maybe_write.calls",
                     "memory.ConfidenceMemory.read.calls",
                     "training.ema_update.calls"):
        assert metrics[bypassed] == 0, bypassed


def test_trs_full_runs_every_training_layer(results):
    metrics = {k: v["value"] for k, v in results[("trs_full_b4", 1)]["metrics"].items()}
    for layer in ("networks.reference_forward.grad", "networks.reference_forward.nograd",
                  "networks.teacher_forward.nograd", "training.ema_update",
                  "training.augment", "memory.ConfidenceMemory.maybe_write",
                  "memory.ConfidenceMemory.read"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_tracer_restores_every_wrapped_name():
    from trscore import cli, evaluation, networks, training

    before = (training.teacher_forward, evaluation.teacher_forward, cli.evaluate,
              training.Adam.step, networks.teacher_forward)
    tracer = layertrace.Tracer(layertrace.SpanRecorder())
    tracer.install()
    try:
        assert training.teacher_forward is not before[0]
        assert evaluation.teacher_forward is training.teacher_forward
        assert cli.evaluate is evaluation.evaluate
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    after = (training.teacher_forward, evaluation.teacher_forward, cli.evaluate,
             training.Adam.step, networks.teacher_forward)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    spans = [["outer", 0.0, 10.0, -1, "timed"], ["inner", 2.0, 5.0, 0, "timed"],
             ["inner", 6.0, 7.0, 0, "timed"]]
    stats = layertrace.layer_stats(spans, "timed")
    assert stats["outer"]["self_s"] == pytest.approx(6.0)
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["self_s"] == pytest.approx(4.0)


def test_probe_samples_during_a_call_and_leaves_its_own_time_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    before = signal.getsignal(signal.SIGALRM)
    probe = refspeed.Probe()
    with probe:
        start = time.perf_counter()
        measured, _ = probe.measure(lambda: busy(4 * refspeed.PERIOD_S))
        wall = time.perf_counter() - start
    assert len(probe.unit_times) >= 2
    assert probe.spent > 0.0
    assert measured == pytest.approx(wall - probe.spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_reference_seconds_scale_by_the_mean_unit_time():
    unit = refspeed.REFERENCE_UNIT_S
    assert refspeed.reference_seconds(3.0, [unit, unit]) == pytest.approx(3.0)
    assert refspeed.reference_seconds(3.0, [unit, 3 * unit]) == pytest.approx(1.5)


def test_blas_threads_within_nproc():
    record = envinfo.machine_record()
    assert record["blas_threads_within_nproc"], record


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "supervised_b4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
