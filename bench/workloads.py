"""The three benchmark workloads and the output checks that run after each call.

Every workload drives ``trscore`` through its public API only. The training
problem is the criterion-6 experiment at seed 0 (a 400 x 10 x 64 synthetic
train split with 40 labeled samples, lr 3e-3, batch 4, burn-in 30, 150
epochs), so every run times the same training work. The benchmark seed draws
the held-out samples from the same task: the test split that
``test_spearman`` is measured on, and the bulk file that ``eval_bulk`` scores.
A seed therefore changes what accuracy is measured on, never how much work
the timed call does.

A workload's ``setup`` builds its inputs and returns a ``Prepared`` whose
``call`` is the timed call and whose ``check`` validates that call's output
afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trscore import cli, data, evaluation, training

TRAIN_SEED = 0  # the criterion-6 seed-0 task, train split and run seed
RHO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Shape:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    t: int = 10
    d: int = 64
    train_samples: int = 400
    label_fraction: float = 0.1
    test_samples: int = 4000
    bulk_samples: int = 8000
    burn_in_epochs: int = 30
    max_epochs: int = 150
    checkpoint_epochs: int = 4


FULL = Shape()
TINY = Shape(
    t=4, d=8, train_samples=40, label_fraction=0.25, test_samples=40,
    bulk_samples=60, burn_in_epochs=2, max_epochs=4, checkpoint_epochs=2,
)


@dataclass
class Outcome:
    """What one timed call produced, as judged by its output check."""

    attempted: int
    failed: int
    samples: int  # samples pushed through the networks
    rho: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    failure: Callable[[BaseException], Outcome]


def experiment_config(burn_in: int, epochs: int) -> training.TrainConfig:
    """The criterion-6 training configuration, every TRS component on."""
    return training.TrainConfig(
        alpha=0.99,
        burn_in_epochs=burn_in,
        max_epochs=epochs,
        learning_rate=3e-3,
        seed=TRAIN_SEED,
        batch_size=4,
        component_toggles=training.ComponentToggles(),
        augment_noise_std=0.4,
        beta_peak=0.2,
    )


def _synthetic(shape: Shape, n: int, label_fraction: float, split: str):
    spec = data.SyntheticSpec(
        num_samples=n, t=shape.t, d=shape.d, label_fraction=label_fraction,
        noise_std=1.0, seed=TRAIN_SEED,
    )
    return data.generate_synthetic(spec, split=split)


def _train_split(shape: Shape):
    return _synthetic(shape, shape.train_samples, shape.label_fraction, "train")


def _held_out(shape: Shape, n: int, split: str, seed: int):
    return _synthetic(shape, n, 1.0, f"{split}-{seed}")


def _rho_problems(rho: float, truth, mu) -> list[str]:
    """The program's Spearman must match an independent computation."""
    from scipy import stats  # imported here so that set-up time excludes it

    reference = stats.spearmanr(truth, mu).statistic
    if not math.isfinite(rho) or abs(rho - reference) > RHO_TOLERANCE:
        return [f"spearman {rho!r} differs from scipy's {reference!r}"]
    return []


def _bad_rows(expected, ids, truth, mu, sigma) -> int:
    """Prediction rows that do not match their sample or are not finite.

    Every row counts as bad when the rows do not list the expected samples
    in order.
    """
    if list(ids) != [s.sample_id for s in expected]:
        return len(expected)
    ok = (
        np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0.0)
        & (truth == np.array([s.score for s in expected]))
    )
    return int((~ok).sum())


def _metrics_failures(rows, workdir: Path, epochs: int, burn_in: int) -> set[int]:
    """Epochs whose metrics-CSV row is missing or not finite.

    Validation Spearman is undefined (NaN) before the student exists, so it
    is checked from the end of burn-in on; every loss column always.
    """
    path = workdir / "metrics.csv"
    training.write_metrics_csv(rows, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    failed = set(range(epochs))
    for line in lines:
        row = dict(zip(columns, line.split(",")))
        epoch = int(row.pop("epoch"))
        if epoch < burn_in:
            row.pop("val_spearman")
        if all(math.isfinite(float(v)) for v in row.values()):
            failed.discard(epoch)
    return failed


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _training_check(shape: Shape, test, workdir: Path, samples: int):
    """Output check for a training call; an operation is an epoch."""
    epochs = shape.max_epochs

    def check(result) -> Outcome:
        rows, (rho, predictions) = result
        failed = _metrics_failures(rows, workdir, epochs, shape.burn_in_epochs)
        problems = [f"epochs {sorted(failed)} have non-finite metrics"] if failed else []
        ids = [r.sample_id for r in predictions]
        truth, mu, sigma = (
            np.array([[r.truth, r.mu, r.sigma] for r in predictions]).reshape(-1, 3).T
        )
        bad = _bad_rows(test.samples, ids, truth, mu, sigma)
        final = [f"{bad} bad prediction rows"] if bad else _rho_problems(rho, truth, mu)
        if final:
            problems += final
            failed.add(epochs - 1)  # the final evaluation belongs to the last epoch
        return Outcome(epochs, len(failed), samples, rho, problems)

    def failure(exc: BaseException) -> Outcome:
        return Outcome(epochs, epochs, samples, math.nan, [_describe(exc)])

    return check, failure


def setup_supervised(seed: int, shape: Shape, workdir: Path) -> Prepared:
    """Labeled-only training: teacher forward/backward, the tape and Adam."""
    labeled = _train_split(shape).labeled_samples
    test = _held_out(shape, shape.test_samples, "test", seed)
    config = experiment_config(shape.burn_in_epochs, shape.max_epochs)

    def call():
        net, rows = training.train_supervised(config, labeled)
        return rows, evaluation.evaluate(net, test.samples)

    samples = len(labeled) * shape.max_epochs
    return Prepared(call, *_training_check(shape, test, workdir, samples))


def setup_trs_full(seed: int, shape: Shape, workdir: Path) -> Prepared:
    """Full TRS training: every layer runs, unlabeled path included."""
    split = _train_split(shape)
    labeled, unlabeled = split.labeled_samples, split.unlabeled_samples
    test = _held_out(shape, shape.test_samples, "test", seed)
    config = experiment_config(shape.burn_in_epochs, shape.max_epochs)

    def call():
        _, student, rows = training.train(config, labeled, unlabeled)
        return rows, evaluation.evaluate(student, test.samples)

    # each TRS step pairs its labeled batch with an equal-sized unlabeled batch
    trs_epochs = shape.max_epochs - shape.burn_in_epochs
    samples = len(labeled) * shape.burn_in_epochs + 2 * len(labeled) * trs_epochs
    return Prepared(call, *_training_check(shape, test, workdir, samples))


def setup_eval_bulk(seed: int, shape: Shape, workdir: Path) -> Prepared:
    """Bulk scoring through ``trscore eval``; an operation is a scored sample.

    The set-up writes the labeled AQAF file and a checkpoint from a short
    ``train``; the timed call parses the file, loads the checkpoint, runs the
    no-grad student forward in chunks and writes the predictions CSV.
    """
    bulk = _held_out(shape, shape.bulk_samples, "bulk", seed)
    data_path = workdir / "bulk.aqaf"
    data.save_features(bulk, data_path)
    split = _train_split(shape)
    checkpoint = workdir / "checkpoint"
    epochs = shape.checkpoint_epochs
    training.train(
        experiment_config(epochs // 2, epochs),
        split.labeled_samples,
        split.unlabeled_samples,
        checkpoint_dir=checkpoint,
    )
    predictions = workdir / "predictions.csv"
    argv = ["eval", "--data", str(data_path), "--checkpoint", str(checkpoint),
            "-o", str(predictions)]
    n = len(bulk.samples)

    def call():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        return code, printed.getvalue()

    def check(result) -> Outcome:
        code, printed = result
        if code != 0:
            return Outcome(n, n, n, math.nan, [f"trscore eval exited with {code}"])
        rows = [line.split(",") for line in
                predictions.read_text(encoding="utf-8").splitlines()[1:]]
        predictions.unlink()  # the next call must write its own
        ids = [row[0] for row in rows]
        truth, mu, sigma = (
            np.array([[float(v) for v in row[1:]] for row in rows]).reshape(-1, 3).T
        )
        bad = _bad_rows(bulk.samples, ids, truth, mu, sigma)
        if bad:
            return Outcome(n, bad, n, math.nan, [f"{bad} bad prediction rows"])
        rho = evaluation.spearman(truth, mu)
        problems = _rho_problems(rho, truth, mu)
        if f"spearman: {rho:.6f} over {n} samples" not in printed:
            problems.append(f"printed summary disagrees with the predictions: {printed!r}")
        return Outcome(n, n if problems else 0, n, rho, problems)

    def failure(exc: BaseException) -> Outcome:
        return Outcome(n, n, n, math.nan, [_describe(exc)])

    return Prepared(call, check, failure)


WORKLOADS: dict[str, Callable[[int, Shape, Path], Prepared]] = {
    "supervised_b4": setup_supervised,
    "trs_full_b4": setup_trs_full,
    "eval_bulk": setup_eval_bulk,
}
