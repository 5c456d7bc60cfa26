"""Rank-correlation metric and student-only test evaluation."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, MetricUndefinedError
from .networks import FeatureSequence, Network, teacher_forward

_EVAL_CHUNK = 256


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks.

    NaNs never tie. ``return_index`` makes ``np.unique`` sort stably, so NaNs
    are ranked in input order.
    """
    _, _, inverse, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True,
        equal_nan=False,
    )
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation: Pearson correlation of the rank series.

    A NaN in either series raises ``MetricUndefinedError``, so that diverged
    predictions never report a finite correlation.
    """
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(y, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise MetricUndefinedError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise MetricUndefinedError(f"need at least 2 values, got {a.size}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise MetricUndefinedError("rank correlation is undefined for a series holding NaN")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise MetricUndefinedError("rank correlation is undefined for a constant series")
    ra = _ranks(a) - (a.size + 1) / 2.0
    rb = _ranks(b) - (b.size + 1) / 2.0
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra * ra) * np.sum(rb * rb)))


@dataclass(frozen=True)
class PredictionRow:
    sample_id: str
    truth: float
    mu: float
    sigma: float


def evaluate(
    student: Network, test_set: Iterable[FeatureSequence]
) -> tuple[float, list[PredictionRow]]:
    """Score a labeled test set with the student network only, unaugmented.

    Returns Spearman's correlation against the ground truth and one
    prediction row per sample. Parameters are read, never mutated.
    ``test_set`` may be any iterable, a stream of parsed samples included; it
    is consumed ``_EVAL_CHUNK`` samples at a time, so only one chunk's
    features are held at once. A sample without a score raises
    ``ContractError`` and one whose shape is not the network's (T, D) raises
    ``DimensionError``, each when its chunk is reached; so does an error the
    iterable itself raises.
    """
    shape = (student.arch.t, student.arch.d)
    ids: list[str] = []
    truths: list[float] = []
    mus: list[np.ndarray] = []
    sigmas: list[np.ndarray] = []
    samples = iter(test_set)
    with ad.no_grad():
        while batch := list(islice(samples, _EVAL_CHUNK)):
            for s in batch:
                if s.score is None:
                    raise ContractError(f"test sample {s.sample_id!r} has no score")
                if s.features.shape != shape:
                    raise DimensionError(
                        f"test sample {s.sample_id!r} is {s.features.shape}, not {shape}"
                    )
            pred = teacher_forward(
                student, Tensor(np.stack([s.features.array for s in batch]))
            )
            mus.append(pred.mu_values)
            sigmas.append(pred.sigma_values)
            ids.extend(s.sample_id for s in batch)
            truths.extend(s.score for s in batch)
    mu = np.concatenate(mus) if mus else np.empty(0)
    sigma = np.concatenate(sigmas) if sigmas else np.empty(0)
    truth = np.array(truths, dtype=np.float64)
    rho = spearman(truth, mu)
    rows = [
        PredictionRow(*row)
        for row in zip(ids, truth.tolist(), mu.tolist(), sigma.tolist())
    ]
    return rho, rows


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """RFC 4180: a field holding a comma, a quote or a line break is quoted."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_predictions_csv(rows: Sequence[PredictionRow], path) -> None:
    """One row per sample; every line ends in ``\\n``."""
    lines = ["sample_id,truth,mu,sigma\n"]
    for r in rows:
        lines.append(f"{_csv_field(r.sample_id)},{r.truth!r},{r.mu!r},{r.sigma!r}\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))
