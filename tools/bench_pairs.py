"""Benchmark two checkouts of ``trscore`` in alternating pairs and write the
before/after record.

Usage, from the repository root:

    python3 tools/bench_pairs.py --baseline OTHER [--workloads W ...] [--pairs N]
        [--seconds S] [--change TEXT] [--tiny] -o FILE

``OTHER`` is the root of the baseline checkout (the parent); this checkout
is the change. For each workload and each seed 1 to N, both checkouts run
their own ``bench/run.py --workload W --seed N --seconds S --trace 0`` in a
fresh interpreter, one after the other: the parent first for odd seeds, the
change first for even ones. ``--tiny`` runs each checkout's benchmark at its
smoke-test shape (``bench/workloads.py``'s ``TINY``) instead, which takes
seconds.

The record is the JSON object of ``BENCH_14.json`` and ``BENCH_15.json``:
per workload and side, the first quartile, median and third quartile of
each end-to-end metric (numpy's linear method), with the attempted and
failed operations summed over the side's runs; per metric other than
``test_spearman``, the pairs the change won (by the direction
``BENCHMARK.json`` declares) and the change of the median in percent;
whether ``test_spearman`` was bit-equal in every pair; and every run. Beside
the metrics, which are in reference seconds, each side has the quartiles of
two wall-clock figures that each run's ``.bench_results/W-seedN-trace0.json``
holds: ``raw_wall_s``, the mean raw wall seconds of the run's calls, and
``call_unit_s``, the mean seconds of the calibration unit sampled during
them. A reference-second figure moves when either moves, so a claim on a
time metric should hold in the raw walls too. The script prints one line per
run and exits 1 unless every run completed with no failed operation and
``test_spearman`` was bit-equal in every pair.
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
SIDES = ("parent", "change")
# a checkout's own benchmark at the smoke-test shape; argv: workload, seed, seconds
TINY_PROGRAM = (
    "import json, sys; sys.path.insert(0, 'bench'); import run; run.import_program(); "
    "import workloads; name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]); "
    "print(json.dumps(run.run(name, seed, seconds, False, workloads.TINY), allow_nan=False))"
)


def _describe(checkout: Path) -> str:
    """The checkout's commit (marked when it has uncommitted changes), or its
    directory name outside git."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The result object of one run of ``checkout``'s benchmark, with the
    run's ``RAW`` figures under ``raw``."""
    if tiny:
        argv = [sys.executable, "-c", TINY_PROGRAM, workload, str(seed), str(seconds)]
    else:
        argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    detail = json.loads(record.read_text(encoding="utf-8"))["detail"]
    result["raw"] = {"raw_wall_s": statistics.fmean(detail["wall_s"]),
                     "call_unit_s": statistics.fmean(detail["call_unit_s"])}
    return result


def summarize(runs: list[list], results: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """One workload's entry of the record from its ``runs`` rows and each
    side's result objects, in seed order."""
    seeds = [row[0] for row in runs if row[1] == "parent"]
    values = {
        side: {m: [r["metrics"][m]["value"] for r in results[side]] for m in METRICS}
        | {m: [r["raw"][m] for r in results[side]] for m in RAW}
        for side in SIDES
    }
    entry: dict = {"pairs": len(seeds), "seeds": seeds}
    for side in SIDES:
        entry[side] = {
            m: dict(zip(("q1", "median", "q3"),
                        np.round(np.percentile(values[side][m], [25, 50, 75]), 4).tolist()))
            for m in METRICS + RAW
        }
        entry[side]["failed_ops"] = sum(r["failed"] for r in results[side])
        entry[side]["attempted_ops"] = sum(r["attempted"] for r in results[side])
    compared = [m for m in METRICS if m != "test_spearman"]
    entry["change_wins"] = {
        m: sum((c < p) if better[m] == "lower" else (c > p)
               for p, c in zip(values["parent"][m], values["change"][m]))
        for m in compared
    }
    entry["median_change_pct"] = {}
    for m in compared:
        before, after = (float(np.median(values[side][m])) for side in SIDES)
        entry["median_change_pct"][m] = round((after - before) / before * 100.0, 2)
    entry["test_spearman_bit_equal_every_pair"] = (
        values["parent"]["test_spearman"] == values["change"]["test_spearman"]
    )
    entry["run_fields"] = ["seed", "side", *METRICS, *RAW]
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
            f"{' at the TINY shape' if args.tiny else ''}, parent and change alternating "
            "which runs first (odd seeds: parent first)"
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
                row = [seed, side, *(round(result["metrics"][m]["value"], 4) for m in METRICS),
                       *(round(result["raw"][m], 5) for m in RAW)]
                runs.append(row)
                print(workload, *row, f"failed {result['failed']}", flush=True)
                ok &= result["failed"] == 0
        record["units"] = {m: results["change"][0]["metrics"][m]["unit"] for m in METRICS}
        entry = summarize(runs, results, better)
        ok &= entry["test_spearman_bit_equal_every_pair"]
        record["workloads"][workload] = entry
    args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
