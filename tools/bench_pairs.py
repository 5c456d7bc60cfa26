"""Benchmark two checkouts of ``trscore`` in alternating pairs and write the
before/after record.

Usage, from the repository root:

    python3 tools/bench_pairs.py --baseline OTHER [--workloads W ...] [--pairs N]
        [--seconds S] [--change TEXT] [--tiny] -o FILE

``OTHER`` is the root of the baseline checkout (the parent); this checkout
is the change. For each workload and each seed 1 to N, both checkouts run
their own ``bench/run.py --workload W --seed N --seconds S --trace 0`` in a
fresh interpreter, one after the other: the parent first for odd seeds, the
change first for even ones. Right after its benchmark run, each checkout
makes one plain call of the same workload in another fresh interpreter: its
own ``bench/workloads.py`` set-up at the same seed and shape, then the timed
call once, with no calibration probe running, judged by the workload's own
output check. ``--tiny`` runs each checkout's benchmark and plain call at
the smoke-test shape (``bench/workloads.py``'s ``TINY``) instead, which takes
seconds.

The record is the JSON object of ``BENCH_14.json`` and ``BENCH_15.json``:
per workload and side, the first quartile, median and third quartile of
each end-to-end metric (numpy's linear method), with the attempted and
failed operations summed over the side's runs; per metric other than
``test_spearman``, the pairs the change won (by the direction
``BENCHMARK.json`` declares) and the change of the median in percent;
whether ``test_spearman`` was bit-equal in every pair; and every run. The
metrics are in reference seconds. Beside them each side has the quartiles of
two wall-clock figures that each run's ``.bench_results/W-seedN-trace0.json``
holds: ``raw_wall_s``, the mean raw wall seconds of the run's calls, and
``call_unit_s``, the mean seconds of the calibration unit sampled during
them. It also has the quartiles of the plain call's figures (``PLAIN``):
``plain_wall_s``, its wall seconds; ``plain_cpu_s``, the user plus system
CPU seconds of its interpreter; ``plain_child_cpu_s``, those of the child
processes the call reaped (``train``'s worker, ``train_supervised``'s
validator, ``evaluate``'s scorer); ``plain_minflt``, the interpreter's minor
page faults during the call; ``plain_peak_rss_mb``, the interpreter's peak
resident memory, set-up included; and ``plain_spearman``, the Spearman the
call's check measured. Each plain figure but the Spearman also gets the
change's wins (lower is better) and median change, and ``plain_failed_ops``
sums the operations the plain calls failed. A reference-second figure moves
when either the raw wall or the calibration unit moves, so a claim on a time
metric should hold in the plain walls too. The script prints one line per
run and exits 1 unless every run and every plain call completed with no
failed operation, and ``test_spearman`` and ``plain_spearman`` were each
bit-equal in every pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import envinfo  # noqa: E402  (the benchmark's machine record)

METRICS = ["setup_s", "wall_s", "samples_per_s", "test_spearman", "peak_rss_mb"]
# wall-clock seconds of a run's timed calls, from its results file: their mean raw
# wall and the mean calibration unit sampled during them
RAW = ["raw_wall_s", "call_unit_s"]
# the figures of a checkout's plain call (see the module docstring)
PLAIN = ["plain_wall_s", "plain_cpu_s", "plain_child_cpu_s", "plain_minflt",
         "plain_peak_rss_mb", "plain_spearman"]
FIELDS = METRICS + RAW + PLAIN  # a run's row, after its seed and side
SPEARMAN = ("test_spearman", "plain_spearman")  # must be bit-equal in every pair
SIDES = ("parent", "change")
# a checkout's own benchmark at the smoke-test shape; argv: workload, seed, seconds
TINY_PROGRAM = (
    "import json, sys; sys.path.insert(0, 'bench'); import run; run.import_program(); "
    "import workloads; name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]); "
    "print(json.dumps(run.run(name, seed, seconds, False, workloads.TINY), allow_nan=False))"
)
# a checkout's plain call; argv: workload, seed, shape (FULL or TINY). It prints the
# PLAIN figures and the failed operations as one JSON object
PLAIN_PROGRAM = """
import json, os, resource, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, 'bench')
import run
run.import_program()
import workloads
name, seed, shape = sys.argv[1], int(sys.argv[2]), getattr(workloads, sys.argv[3])
run.SCRATCH.mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=run.SCRATCH) as workdir:
    prepared = workloads.WORKLOADS[name](seed, shape, Path(workdir))
    faults, started = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, os.times()
    start = time.perf_counter()
    result = run._call(prepared)
    wall = time.perf_counter() - start
    ended, usage = os.times(), resource.getrusage(resource.RUSAGE_SELF)
    outcome = run._judge(prepared, result)
for problem in outcome.problems:
    print(f"check failed: {problem}", file=sys.stderr)
print(json.dumps({
    "plain_wall_s": wall,
    "plain_cpu_s": ended.user - started.user + ended.system - started.system,
    "plain_child_cpu_s": ended.children_user - started.children_user
    + ended.children_system - started.children_system,
    "plain_minflt": usage.ru_minflt - faults,
    "plain_peak_rss_mb": usage.ru_maxrss / 1024.0,
    "plain_spearman": outcome.rho,
    "failed": outcome.failed,
}))
"""


def _describe(checkout: Path) -> str:
    """The checkout's commit (marked when it has uncommitted changes), or its
    directory name outside git."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def _last_line(checkout: Path, argv: list[str], what: str):
    """The JSON object on the last line that ``argv`` prints, run in ``checkout``;
    what it printed to standard error, such as a failed check, is passed on."""
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {what} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The result object of one run of ``checkout``'s benchmark, with the
    run's ``RAW`` figures under ``raw`` and those of the plain call made
    right after it under ``plain``, with that call's failed operations."""
    if tiny:
        argv = [sys.executable, "-c", TINY_PROGRAM, workload, str(seed), str(seconds)]
    else:
        argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
    result = _last_line(checkout, argv, f"{workload} seed {seed}")
    record = checkout / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    detail = json.loads(record.read_text(encoding="utf-8"))["detail"]
    result["raw"] = {"raw_wall_s": statistics.fmean(detail["wall_s"]),
                     "call_unit_s": statistics.fmean(detail["call_unit_s"])}
    plain = [sys.executable, "-c", PLAIN_PROGRAM, workload, str(seed),
             "TINY" if tiny else "FULL"]
    result["plain"] = _last_line(checkout, plain, f"the plain {workload} seed {seed}")
    return result


def _figures(result: dict) -> dict:
    """Every figure of one run's result object, by name."""
    return {m: result["metrics"][m]["value"] for m in METRICS} | result["raw"] | result["plain"]


def summarize(runs: list[list], results: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """One workload's entry of the record from its ``runs`` rows and each
    side's result objects, in seed order."""
    seeds = [row[0] for row in runs if row[1] == "parent"]
    values = {
        side: {m: [_figures(r)[m] for r in results[side]] for m in FIELDS} for side in SIDES
    }
    entry: dict = {"pairs": len(seeds), "seeds": seeds}
    for side in SIDES:
        entry[side] = {
            m: dict(zip(("q1", "median", "q3"),
                        np.round(np.percentile(values[side][m], [25, 50, 75]), 4).tolist()))
            for m in FIELDS
        }
        entry[side]["failed_ops"] = sum(r["failed"] for r in results[side])
        entry[side]["attempted_ops"] = sum(r["attempted"] for r in results[side])
        entry[side]["plain_failed_ops"] = sum(r["plain"]["failed"] for r in results[side])
    compared = [m for m in METRICS + PLAIN if m not in SPEARMAN]
    entry["change_wins"] = {
        m: sum((c < p) if better.get(m, "lower") == "lower" else (c > p)
               for p, c in zip(values["parent"][m], values["change"][m]))
        for m in compared
    }
    entry["median_change_pct"] = {}
    for m in compared:  # none from a zero median, such as no child process at TINY
        before, after = (float(np.median(values[side][m])) for side in SIDES)
        change = round((after - before) / before * 100.0, 2) if before else None
        entry["median_change_pct"][m] = change
    for m in SPEARMAN:
        entry[f"{m}_bit_equal_every_pair"] = values["parent"][m] == values["change"][m]
    entry["run_fields"] = ["seed", "side", *FIELDS]
    entry["runs"] = runs
    return entry


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="root of the baseline (parent) checkout")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--change", help="what the change is (default: its commit)")
    parser.add_argument("--tiny", action="store_true",
                        help="run the benchmark's smoke-test shape")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.baseline.resolve(), "change": ROOT}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record: dict = {
        "change": args.change or _describe(ROOT),
        "parent": _describe(checkouts["parent"]),
        "command": (
            f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0"
            f"{' at the TINY shape' if args.tiny else ''}, each followed by one plain call "
            "of the workload in a fresh interpreter, parent and change alternating which "
            "runs first (odd seeds: parent first)"
        ),
        "units": {},
        "machine": envinfo.machine_record(),
        "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        runs, results = [], {side: [] for side in SIDES}
        for seed in range(1, args.pairs + 1):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = bench_once(checkouts[side], workload, seed, args.seconds, args.tiny)
                results[side].append(result)
                row = [seed, side, *(round(_figures(result)[m], 5) for m in FIELDS)]
                runs.append(row)
                print(workload, *row, f"failed {result['failed']}",
                      f"plain failed {result['plain']['failed']}", flush=True)
                ok &= result["failed"] == 0 and result["plain"]["failed"] == 0
        record["units"] = {m: results["change"][0]["metrics"][m]["unit"] for m in METRICS}
        entry = summarize(runs, results, better)
        ok &= all(entry[f"{m}_bit_equal_every_pair"] for m in SPEARMAN)
        record["workloads"][workload] = entry
    args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
