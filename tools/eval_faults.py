"""Time fresh-interpreter ``trscore eval`` runs of two checkouts, in seconds,
minor page faults and the CPU seconds of child processes.

Usage, from the repository root:

    python3 tools/eval_faults.py --baseline OTHER/src [--src src] [--runs N]

The set-up, run with the checkout under test, writes an 8,000-sample labeled
10 x 64 AQAF file and a checkpoint from a 4-epoch ``trscore train`` (2 burn-in
epochs) on the 400-sample training split, the shapes of the benchmark's
``eval_bulk``. Then, ``N`` times (default 10), each checkout runs
``trscore eval`` on them once in a fresh interpreter, the two alternating
which runs first. A run measures wall time (``time.perf_counter``), minor
page faults (``resource.getrusage(RUSAGE_SELF).ru_minflt``, this process
only) and the user plus system CPU seconds of the child processes it reaped
(``os.times``, such as a forked scorer) around the one ``cli.main`` call,
after the imports, and hashes the predictions CSV it wrote. The script
prints every run, then each checkout's median seconds, faults and child CPU
seconds, and exits 1 unless every run wrote the same predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BULK = ["--n", "8000", "--t", "10", "--d", "64", "--label-frac", "1", "--seed", "1",
        "--split", "bulk-1"]
TRAIN = ["--n", "400", "--t", "10", "--d", "64", "--label-frac", "0.1", "--seed", "0"]
CHECKPOINT = ["--epochs", "4", "--burn-in", "2", "--lr", "3e-3", "--batch-size", "4"]


def _set_up(workdir: Path) -> list[str]:
    """Write the data and the checkpoint; the ``trscore eval`` argv to time."""
    from trscore import cli

    bulk, train = workdir / "bulk.aqaf", workdir / "train.aqaf"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["synth", *BULK, "-o", str(bulk)], ["synth", *TRAIN, "-o", str(train)],
                     ["train", "--data", str(train), "--out-dir", str(workdir / "run"),
                      *CHECKPOINT]):
            if cli.main(argv) != 0:
                sys.exit(f"trscore {' '.join(argv)} failed")
    return ["eval", "--data", str(bulk), "--checkpoint", str(workdir / "run" / "checkpoint"),
            "-o", str(workdir / "predictions.csv")]


def _time_one(argv: list[str]) -> dict:
    """One timed ``cli.main(argv)`` in this (fresh) interpreter."""
    from trscore import cli

    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    children = os.times()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall_s = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    ended = os.times()
    child_cpu_s = (ended.children_user - children.children_user
                   + ended.children_system - children.children_system)
    if code != 0:
        sys.exit(f"trscore {' '.join(argv)} exited with {code}: {out.getvalue()}")
    csv = Path(argv[argv.index("-o") + 1])
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    csv.unlink()
    return {"wall_s": wall_s, "minflt": faults, "child_cpu_s": child_cpu_s,
            "predictions": digest}


def _run(src: Path, argv: list[str]) -> dict:
    """``_time_one`` in a fresh interpreter that imports the package from ``src``."""
    done = subprocess.run(
        [sys.executable, __file__, "--time", "--src", str(src), "--", *argv],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"the timed eval failed for {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout under test (default: this one)")
    parser.add_argument("--baseline", type=Path,
                        help="the src directory of the checkout to compare against")
    parser.add_argument("--runs", type=int, default=10, help="runs of each checkout")
    parser.add_argument("--time", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    if args.time:
        print(json.dumps(_time_one(args.argv)))
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    sides = {"src": args.src, "baseline": args.baseline}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        argv = _set_up(Path(tmp))
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                run = _run(sides[side], argv)
                runs[side].append(run)
                print(f"run {i + 1} {side:<8} {run['wall_s']:.3f} s "
                      f"{run['minflt']:>7} minor faults "
                      f"{run['child_cpu_s']:.3f} s child CPU")
    for side, src in sides.items():
        wall = statistics.median(r["wall_s"] for r in runs[side])
        faults = statistics.median(r["minflt"] for r in runs[side])
        child = statistics.median(r["child_cpu_s"] for r in runs[side])
        print(f"{side:<8} median {wall:.3f} s, {faults:.0f} minor faults, "
              f"{child:.3f} s child CPU ({src})")
    digests = {r["predictions"] for side in runs.values() for r in side}
    print("predictions: " + ("identical in every run" if len(digests) == 1 else "DIFFERENT"))
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
