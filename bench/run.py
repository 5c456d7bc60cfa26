"""Benchmark of trscore's training and scoring paths.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The untraced run (``--trace 0``) sets the workload up several times, then
repeats its timed call for about S seconds and prints the end-to-end metrics.
Their times are in reference seconds: each is scaled by the time of a fixed
calibration unit sampled while it was measured (see ``refspeed.py``), so that
the drifting speed of a shared host cancels out.
The traced run (``--trace 1``) alternates untraced calls with calls that run
under span wrappers on every layer for about S seconds, then makes one call
under a profiler that counts Python calls, and prints the per-layer metrics. Every call's output is
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the machine
record and the spans go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# what a workload imports before its set-up, in a fresh interpreter
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, 'src'); "
                  "from trscore import cli, data, evaluation, training")
MIN_CALLS = 2  # so that every run checks that a repeated call gives the same Spearman

# End-to-end metrics of the untraced run: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "samples_per_s": ("samples/s", "higher"),
    "test_spearman": ("rho", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_program() -> None:
    """Import ``trscore`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trscore

    found = Path(trscore.__file__).resolve().parent.parent
    if found != src.resolve():
        raise ImportError(f"trscore was imported from {found}, not {src}")


def _call(prepared):
    """The timed call: its result, or the exception it raised."""
    try:
        return prepared.call()
    except Exception as exc:  # a failed call is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        return exc


def _judge(prepared, result):
    """The Outcome of one call, from its output check."""
    if isinstance(result, Exception):
        return prepared.failure(result)
    try:
        return prepared.check(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return prepared.failure(exc)


def _rep(prepared, recorder=None, run="timed"):
    """One timed call and its output check: (wall seconds, Outcome).

    With a recorder, the call's spans are recorded under the run id ``run``.
    """
    if recorder is not None:
        recorder.run = run
    start = time.perf_counter()
    try:
        result = _call(prepared)
    finally:
        if recorder is not None:
            recorder.run = ""
    wall = time.perf_counter() - start
    return wall, _judge(prepared, result)


def _tally(outcomes) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all calls, with their problems.

    Repeated calls run the same deterministic computation, so a call whose
    Spearman differs from the first call's fails one more operation.
    """
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    first = outcomes[0].rho
    for o in outcomes[1:]:
        if math.isfinite(first) and math.isfinite(o.rho) and o.rho != first:
            failed += 1
            problems.append(f"spearman {o.rho!r} differs from the first call's {first!r}")
    return attempted, failed, problems


def _import_seconds() -> float:
    """Wall seconds of a fresh interpreter that imports the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def _timed(setup, seed, seconds, shape, workdir) -> dict:
    """End-to-end metrics over the run, in reference seconds.

    Set-up time is the median time to import the program in a fresh
    interpreter plus the median set-up. A ``refspeed.Probe`` samples the
    machine's speed throughout. The imports and set-ups are short, so
    calibrations between them add samples; they are scaled by the samples
    taken among them, and the calls by those taken during the calls.
    """
    import refspeed

    probe = refspeed.Probe()
    probe.sample()
    raw_imports = []
    for _ in range(IMPORT_REPEATS):  # outside the probe's timer: the child runs alongside
        raw_imports.append(_import_seconds())
        probe.sample()
    raw_setups, raw_walls, outcomes = [], [], []
    with probe:
        for _ in range(SETUP_REPEATS):
            measured, prepared = probe.measure(lambda: setup(seed, shape, workdir))
            raw_setups.append(measured)
            probe.sample()
        setup_units, probe.unit_times = probe.unit_times, []
        start = time.perf_counter()
        while True:
            measured, result = probe.measure(lambda: _call(prepared))
            raw_walls.append(measured)
            outcomes.append(_judge(prepared, result))
            # start another call only if it is expected to end within the budget
            expected_end = time.perf_counter() - start + statistics.median(raw_walls)
            if len(raw_walls) >= MIN_CALLS and expected_end > seconds:
                break
        if not probe.unit_times:  # calls shorter than the probe's period
            probe.sample()
        call_units = probe.unit_times
    setup_s = refspeed.reference_seconds(
        statistics.median(raw_imports) + statistics.median(raw_setups), setup_units)
    wall = refspeed.reference_seconds(statistics.fmean(raw_walls), call_units)
    rho = outcomes[0].rho
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "samples_per_s": outcomes[0].samples / wall,
        "test_spearman": rho if math.isfinite(rho) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "reference_unit_s": refspeed.REFERENCE_UNIT_S,
        "setup_unit_s": setup_units, "call_unit_s": call_units,
        "import_s": raw_imports, "setup_s": raw_setups, "wall_s": raw_walls,
    }
    return {"metrics": metrics, "outcomes": outcomes, "detail": detail}


def _python_calls(prepared, backward_code) -> tuple[int, int]:
    """Python function calls and optimizer steps (backward passes) in one call."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        prepared.call()
    finally:
        profile.disable()
    entries = [e for e in profile.getstats() if not isinstance(e.code, str)]
    calls = sum(e.callcount for e in entries)
    steps = sum(e.callcount for e in entries if e.code is backward_code)
    return calls, steps


def _traced(setup, seed, seconds, shape, workdir) -> dict:
    """Per-layer metrics from one traced call, overhead from alternating calls.

    Untraced and traced calls alternate until the next pair would end after
    ``seconds``. The per-layer metrics come from the first traced call only,
    so that their counts repeat exactly; the later traced calls (run id
    ``repeat``) serve the overhead estimate alone.
    """
    import layertrace
    from trscore import autodiff

    recorder = layertrace.SpanRecorder()
    tracer = layertrace.Tracer(recorder)
    tracer.install()
    try:
        recorder.run = "setup"
        prepared = setup(seed, shape, workdir)
    finally:
        recorder.run = ""
        tracer.uninstall()

    walls = {"untraced": [], "traced": []}
    outcomes = []
    start = time.perf_counter()
    while True:
        wall, outcome = _rep(prepared)
        walls["untraced"].append(wall)
        outcomes.append(outcome)
        tracer.install()
        try:
            run_id = "repeat" if walls["traced"] else "timed"
            wall, outcome = _rep(prepared, recorder, run_id)
        finally:
            tracer.uninstall()
        walls["traced"].append(wall)
        outcomes.append(outcome)
        pair = walls["untraced"][-1] + walls["traced"][-1]
        if time.perf_counter() - start + pair > seconds:
            break

    backward = getattr(getattr(autodiff, "Tensor", None), "backward", None)
    py_calls, steps = _python_calls(prepared, getattr(backward, "__code__", None))
    metrics = layertrace.per_layer_metrics(
        recorder, py_calls, steps,
        statistics.median(walls["traced"]), statistics.median(walls["untraced"]),
    )
    return {
        "metrics": metrics,
        "outcomes": outcomes,
        "detail": {
            **{f"{kind}_wall_s": values for kind, values in walls.items()},
            "py_calls": py_calls,
            "steps": steps,
            "untraced_targets": tracer.missing,
            "trace": recorder.dump(),
        },
    }


def run(name: str, seed: int, seconds: float, trace: bool, shape=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import envinfo
    import layertrace
    import workloads

    setup = workloads.WORKLOADS[name]
    shape = shape or workloads.FULL
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        if trace:
            body = _traced(setup, seed, seconds, shape, workdir)
        else:
            body = _timed(setup, seed, seconds, shape, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = _tally(body["outcomes"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = layertrace.PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": body["metrics"][metric], "unit": unit}
            for metric, (unit, _) in declared.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shape": vars(shape), "machine": envinfo.machine_record(),
        "result": result, "problems": problems, "detail": body["detail"],
    }
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import trscore from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
