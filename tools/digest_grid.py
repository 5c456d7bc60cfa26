"""Check that two checkouts of ``trscore`` train bit-identically.

Usage, from the repository root:

    python3 tools/digest_grid.py --baseline OTHER/src [--src src]

For every case of the grid, each checkout trains in a fresh interpreter and
hashes (SHA-256) what the run leaves behind: the metrics CSV and, for
``train``, the checkpoint files ``params_{t,s,f}.bin``, ``memory_{t,r}.tsv``
and ``state.json``; for ``train_supervised``, the student's parameter file;
for both, the predictions CSV of ``evaluate`` with the trained student on a
held-out split of ``HELD_OUT`` samples, whose 256-sample chunks (four of
256, then 76) cross the chunk edge and are more than ``evaluate`` scores in
this process alone, so that a forked scorer scores chunks while this process
parses the next ones. One ``trscore eval`` run on the first shape's ``full``
checkpoint adds the CLI's predictions CSV. The AQAF bytes that
``save_features`` writes are hashed too: each shape's training split, and the
held-out file that ``trscore eval`` reads. A case is one of the five
ablation configurations of ``trscore ablate`` or the labeled-only baseline,
on each of the shapes below. The baseline runs three times: validated on
its labeled set, on the first ``VALIDATION`` held-out samples, and on those
samples with every score set equal, whose Spearman is undefined (NaN). The
script prints one line per file and exits 1 unless every file is
bit-identical.

Each checkout also checks that ``state.json`` has one format: every ``train``
checkpoint is loaded and saved again into a second directory, and the grid
fails, with one line naming each file, unless every re-saved file equals the
original.

The shapes differ in the batch arithmetic they exercise: full batches of 4
at the benchmark's feature size; fewer unlabeled than labeled samples, so
the unlabeled pass wraps around, with a last batch of one; and a batch size
that does not divide the labeled count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HELD_OUT = 1100
VALIDATION = 150  # one validation chunk, scored in the validating process

# name -> (synthetic spec, training settings)
SHAPES = {
    "t10d64-b4": (
        dict(num_samples=400, t=10, d=64, label_fraction=0.1, noise_std=1.0, seed=0),
        dict(burn_in_epochs=6, max_epochs=16, batch_size=4, learning_rate=3e-3, seed=0),
    ),
    "t4d8-wrap-b4": (
        dict(num_samples=30, t=4, d=8, label_fraction=0.7, noise_std=0.2, seed=1),
        dict(burn_in_epochs=3, max_epochs=12, batch_size=4, learning_rate=1e-3, seed=1),
    ),
    "t7d5-b6": (
        dict(num_samples=50, t=7, d=5, label_fraction=0.3, noise_std=0.5, seed=2),
        dict(burn_in_epochs=3, max_epochs=12, batch_size=6, learning_rate=2e-3, seed=2),
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _contents(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def emit(workdir: Path, resave_dir: Path) -> dict[str, str]:
    """Digest of every output file of the grid, keyed shape/case/file. Exits
    1 unless every ``train`` checkpoint survives a load and a save unchanged."""
    from dataclasses import replace

    from trscore import cli, data, evaluation, training

    def score(student, held_out, out: Path) -> None:
        _, predictions = evaluation.evaluate(student, held_out.samples)
        evaluation.write_predictions_csv(predictions, out / "predictions.csv")

    def round_trip(checkpoint: Path, resaved: Path) -> list[str]:
        # the files, a missing one included, that a load and a save change
        training.save_checkpoint(resaved, *training.load_checkpoint(checkpoint))
        before, after = _contents(checkpoint), _contents(resaved)
        return sorted(name for name in before.keys() | after.keys()
                      if before.get(name) != after.get(name))

    digests, changed = {}, []
    for shape, (spec, settings) in SHAPES.items():
        dataset = data.generate_synthetic(data.SyntheticSpec(**spec))
        (workdir / shape).mkdir()
        data.save_features(dataset, workdir / shape / "train.aqaf")
        labeled, unlabeled = dataset.labeled_samples, dataset.unlabeled_samples
        held_out = data.generate_synthetic(
            data.SyntheticSpec(**{**spec, "num_samples": HELD_OUT, "label_fraction": 1.0}),
            split="held-out",
        )
        config = training.TrainConfig(**settings)
        for case, toggles in cli.ABLATION_GRID:
            out = workdir / shape / case
            _, student, rows = training.train(
                replace(config, component_toggles=toggles), labeled, unlabeled,
                checkpoint_dir=out,
            )
            changed += [f"{shape}/{case}/{name}"
                        for name in round_trip(out, resave_dir / shape / case)]
            training.write_metrics_csv(rows, out / "metrics.csv")
            score(student, held_out, out)
        validation = held_out.samples[:VALIDATION]
        tied = [replace(s, score=1.0) for s in validation]
        for case, val in (("supervised", None), ("supervised-val", validation),
                          ("supervised-tied", tied)):
            out = workdir / shape / case
            out.mkdir(parents=True)
            student, rows = training.train_supervised(config, labeled, val)
            training.write_metrics_csv(rows, out / "metrics.csv")
            training.save_parameter_set(student.params, out / "params_s.bin")
            score(student, held_out, out)
        if shape == next(iter(SHAPES)):
            aqaf = workdir / "held-out.aqaf"
            data.save_features(held_out, aqaf)
            cli_out = workdir / shape / "cli-eval"
            cli_out.mkdir()
            argv = ["eval", "--data", str(aqaf), "--checkpoint", str(workdir / shape / "full"),
                    "-o", str(cli_out / "predictions.csv")]
            if cli.main(argv) != 0:
                sys.exit(f"trscore {' '.join(argv)} failed")
    for name in changed:
        print(f"re-saved checkpoint file differs: {name}", file=sys.stderr)
    if changed:
        sys.exit(1)
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = _sha256(path)
    return digests


def _digests_of(src: Path) -> dict[str, str]:
    """Run the grid against the package in ``src`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--emit", "--src", str(src)],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"the grid failed for {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout under test (default: this one)")
    parser.add_argument("--baseline", type=Path,
                        help="the src directory of the checkout to compare against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        sys.path.insert(0, str(args.src.resolve()))
        with tempfile.TemporaryDirectory() as grid, tempfile.TemporaryDirectory() as resaved:
            print(json.dumps(emit(Path(grid), Path(resaved))))
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")

    ours, theirs = _digests_of(args.src), _digests_of(args.baseline)
    same = 0
    for name in sorted(ours.keys() | theirs.keys()):
        verdict = "identical" if ours.get(name) == theirs.get(name) else "DIFFERENT"
        same += verdict == "identical"
        print(f"{verdict:<10} {name}")
    total = len(ours.keys() | theirs.keys())
    print(f"{same} of {total} files bit-identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
