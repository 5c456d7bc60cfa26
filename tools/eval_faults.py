"""Time fresh-interpreter ``trscore eval`` or ``trscore train`` runs of two
checkouts, in seconds, minor page faults, peak resident memory and the CPU
seconds of this process and of its child processes.

Usage, from the repository root:

    python3 tools/eval_faults.py --baseline OTHER/src [--src src] [--runs N]
                                 [--mode eval|train]

The set-up, run with the checkout under test, writes the 400-sample 10 x 64
training split of criterion 6 (seed 0, a tenth of it labeled). In ``eval``
mode (the default) it also writes an 8,000-sample labeled 10 x 64 AQAF file
and a checkpoint from a 4-epoch ``trscore train`` (2 burn-in epochs) on the
training split, the shapes of the benchmark's ``eval_bulk``, and the timed
command is ``trscore eval`` on them. In ``train`` mode the timed command is
``trscore train`` on the training split with criterion 6's settings (150
epochs, 30 of burn-in, learning rate 3e-3, batch size 4). Then, ``N`` times
(default 10), each checkout runs the timed command once in a fresh
interpreter, the two alternating which runs first. A run measures wall time
(``time.perf_counter``), minor page faults
(``resource.getrusage(RUSAGE_SELF).ru_minflt``, this process only), this
process's user plus system CPU seconds and those of the child processes it
reaped (``os.times``, such as a forked scorer or ``train``'s worker) around
the one ``cli.main`` call, after the imports, then the interpreter's peak
resident memory (``ru_maxrss``, this process only, imports included), and
hashes the file it wrote (the predictions CSV, or ``metrics.csv``). The
script prints every run, then each checkout's medians, and exits 1 unless
every run wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
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
CRITERION_6 = ["--epochs", "150", "--burn-in", "30", "--lr", "3e-3", "--batch-size", "4"]


def _set_up(workdir: Path, mode: str) -> list[str]:
    """Write the data (and, for ``eval``, the checkpoint); the argv to time."""
    from trscore import cli

    bulk, train = workdir / "bulk.aqaf", workdir / "train.aqaf"
    steps = [["synth", *TRAIN, "-o", str(train)]]
    if mode == "eval":
        steps += [["synth", *BULK, "-o", str(bulk)],
                  ["train", "--data", str(train), "--out-dir", str(workdir / "run"),
                   *CHECKPOINT]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            if cli.main(argv) != 0:
                sys.exit(f"trscore {' '.join(argv)} failed")
    if mode == "train":
        return ["train", "--data", str(train), "--out-dir", str(workdir / "timed"),
                *CRITERION_6]
    return ["eval", "--data", str(bulk), "--checkpoint", str(workdir / "run" / "checkpoint"),
            "-o", str(workdir / "predictions.csv")]


def _written(argv: list[str]) -> Path:
    """The file whose bytes a run of ``argv`` is checked by."""
    if argv[0] == "train":
        return Path(argv[argv.index("--out-dir") + 1]) / "metrics.csv"
    return Path(argv[argv.index("-o") + 1])


def _time_one(argv: list[str]) -> dict:
    """One timed ``cli.main(argv)`` in this (fresh) interpreter."""
    from trscore import cli

    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    started = os.times()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall_s = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    ended = os.times()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu_s = ended.user - started.user + ended.system - started.system
    child_cpu_s = (ended.children_user - started.children_user
                   + ended.children_system - started.children_system)
    if code != 0:
        sys.exit(f"trscore {' '.join(argv)} exited with {code}: {out.getvalue()}")
    written = _written(argv)
    digest = hashlib.sha256(written.read_bytes()).hexdigest()
    if argv[0] == "train":
        shutil.rmtree(written.parent)
    else:
        written.unlink()
    return {"wall_s": wall_s, "cpu_s": cpu_s, "minflt": faults, "child_cpu_s": child_cpu_s,
            "maxrss_mb": maxrss_mb, "output": digest}


_FIELDS = ("wall_s", "cpu_s", "minflt", "child_cpu_s", "maxrss_mb")


def _line(run: dict) -> str:
    return (f"{run['wall_s']:.3f} s wall, {run['cpu_s']:.3f} s CPU, "
            f"{run['minflt']:>7.0f} minor faults, {run['child_cpu_s']:.3f} s child CPU, "
            f"{run['maxrss_mb']:.1f} MB peak RSS")


def _run(src: Path, argv: list[str]) -> dict:
    """``_time_one`` in a fresh interpreter that imports the package from ``src``."""
    done = subprocess.run(
        [sys.executable, __file__, "--time", "--src", str(src), "--", *argv],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"the timed {argv[0]} failed for {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout under test (default: this one)")
    parser.add_argument("--baseline", type=Path,
                        help="the src directory of the checkout to compare against")
    parser.add_argument("--runs", type=int, default=10, help="runs of each checkout")
    parser.add_argument("--mode", choices=("eval", "train"), default="eval",
                        help="the command to time (default: eval)")
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
        argv = _set_up(Path(tmp), args.mode)
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                run = _run(sides[side], argv)
                runs[side].append(run)
                print(f"run {i + 1} {side:<8} {_line(run)}", flush=True)
    for side, src in sides.items():
        medians = {key: statistics.median(r[key] for r in runs[side]) for key in _FIELDS}
        print(f"{side:<8} median {_line(medians)} ({src})")
    digests = {r["output"] for side in runs.values() for r in side}
    print(f"{_written(argv).name}: "
          + ("identical in every run" if len(digests) == 1 else "DIFFERENT"))
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
