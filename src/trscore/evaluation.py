"""Rank-correlation metric and student-only test evaluation.

``evaluate`` scores a test set in chunks of ``_EVAL_CHUNK`` samples, each
with one ``teacher_forward`` over the chunk's rows, so the bits do not
depend on the process that scores a chunk. That forward runs under
``no_grad`` and encodes the chunk in row blocks (``networks.mixer_forward``):
a full chunk of 10 x 64 samples allocates at most about 3.3 MiB while it is
scored, 2.6x its 1.25 MiB of features, where one pass over its rows took
11.3 MiB, and the bits stay those of one pass. When the stream holds at least
``_FORK_FROM`` samples and this process may fork (``workers._may_fork``), a
forked scorer scores chunks while this process parses and checks the next
ones. This process stacks each checked chunk straight into a free one of
``_SLOTS`` slots of shared memory (its rows in, its mu and sigma out) and
sends the slot number; it scores a chunk itself only when every slot is
busy, and places each result by its chunk index. The two processes share no
interpreter lock, so parsing and scoring use two cores. A shorter stream, a
daemonic caller, such as the validator of ``train_supervised``, and a
platform without ``fork`` score every chunk in this process, and so does a
call made while a worker of this process runs, such as ``train``'s
per-epoch validation, whatever its size, since that worker already uses the
second core. The scorer runs the package's one fork protocol (``workers``),
so its error comes back here with its type, text and attributes, and it
ends before ``evaluate`` returns or raises.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, MetricUndefinedError
from .networks import FeatureSequence, Network, teacher_forward
from .workers import _Exchange, _may_fork, _Worker

_EVAL_CHUNK = 256
# chunks handed to the forked scorer at once at most, each in its own slot
_SLOTS = 3
# a shorter stream is scored in this process. The fork is decided on the
# chunks the stream may be drawn ahead, the slots' and one more, and made
# whenever those four are full, even when they end the stream, as 1,024
# samples do: in a warm ``trscore eval`` the scorer loses to this process
# alone by up to 30 ms at four chunks, is about even at five to seven (its
# fork's fixed cost, mostly copy-on-write faults) and wins from eight, but
# deciding at six chunks, with the first two scored here to keep the
# stream's bound, was slower at every size it forks
_FORK_FROM = (_SLOTS + 1) * _EVAL_CHUNK


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
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


_Prediction = tuple[np.ndarray, np.ndarray]  # a chunk's mu and sigma


def _score_here(student: Network, batch: list[FeatureSequence]) -> _Prediction:
    pred = teacher_forward(student, np.stack([s.features for s in batch]))
    return pred.mu_values, pred.sigma_values


def _score(exchange: _Exchange, inbox, outbox, student: Network) -> None:
    """The forked scorer: each message is a slot and its row count, and each
    reply says that the slot's mu and sigma are written, from one
    ``teacher_forward`` over the slot's rows."""
    while True:
        slot, rows = inbox.recv()
        pred = teacher_forward(student, exchange.x[slot, :rows])
        exchange.mu[slot, :rows] = pred.mu_values
        exchange.sigma[slot, :rows] = pred.sigma_values
        outbox.send(("done",))


def _predictions(student: Network, chunks: Iterator[list[FeatureSequence]]) -> list[_Prediction]:
    """Every chunk's prediction, in chunk order (see the module docstring).

    An error surfaces in chunk order: before a chunk's check error or an error
    of the stream is raised, every earlier chunk is scored, and the first of
    their errors is raised instead.
    """
    held: list[list[FeatureSequence]] = []
    try:
        for batch in islice(chunks, _SLOTS + 1 if _may_fork() else 0):
            held.append(batch)
    except Exception:
        for batch in held:
            _score_here(student, batch)
        raise
    if sum(map(len, held)) < _FORK_FROM:
        return [_score_here(student, batch) for batch in chain(held, chunks)]

    exchange = _Exchange(
        x=(_SLOTS, _EVAL_CHUNK, *held[0][0].features.shape),
        mu=(_SLOTS, _EVAL_CHUNK),
        sigma=(_SLOTS, _EVAL_CHUNK),
    )
    batches = chain(held, chunks)
    del held  # ``batches`` lets go of the held chunks once past the last
    predicted: dict[int, _Prediction] = {}
    free = list(range(_SLOTS))
    in_flight: deque[tuple[int, int, int]] = deque()  # (slot, chunk, rows), in sending order

    def collect(wait: bool) -> None:
        """Take the scorer's replies: every one due with ``wait``, else those
        already sent."""
        while in_flight and (wait or exchange.to_parent[0].poll()):
            slot, index, rows = in_flight.popleft()
            try:
                scorer.reply()
            except Exception:
                in_flight.clear()  # the scorer ends at its error
                raise
            predicted[index] = exchange.mu[slot, :rows].copy(), exchange.sigma[slot, :rows].copy()
            free.append(slot)

    with _Worker("scoring", exchange, _score, (student,)) as scorer:
        try:
            for index, batch in enumerate(batches):
                collect(wait=False)
                if not free:
                    predicted[index] = _score_here(student, batch)
                    continue
                slot = free.pop()
                np.stack([s.features for s in batch], out=exchange.x[slot, : len(batch)])
                in_flight.append((slot, index, len(batch)))
                scorer.send((slot, len(batch)))
        except Exception:
            collect(wait=True)  # the chunks handed over come first
            raise
        collect(wait=True)
    return [predicted[index] for index in range(len(predicted))]


def evaluate(
    student: Network, test_set: Iterable[FeatureSequence]
) -> tuple[float, list[PredictionRow]]:
    """Score a labeled test set with the student network only, unaugmented.

    Returns Spearman's correlation against the ground truth and one
    prediction row per sample. Parameters are read, never mutated.
    ``test_set`` may be any iterable, a stream of parsed samples included; it
    is consumed ``_EVAL_CHUNK`` samples at a time, and drawn at most
    ``_SLOTS`` + 1 chunks ahead of the scored ones, so the features held at
    once do not grow with the stream. A sample without a score raises
    ``ContractError`` and one whose shape is not the network's (T, D) raises
    ``DimensionError``, each when its chunk is reached; so does an error the
    iterable itself raises. Errors surface in chunk order.

    Each chunk is one ``teacher_forward``, in this process or in a forked
    scorer (see the module docstring), so the bits do not depend on where it
    runs. The scorer is forked inside this call's ``no_grad`` and the
    caller's ``np.errstate``, which hold there too. An error it raises is
    raised here with the same type, text and attributes; one that pickle
    cannot rebuild, or a scorer that ends without a reply, raises
    ``WorkerError``. No scorer outlives the call.
    """
    shape = (student.arch.t, student.arch.d)
    ids: list[str] = []
    truths: list[float] = []

    def chunks() -> Iterator[list[FeatureSequence]]:
        samples = iter(test_set)
        while batch := list(islice(samples, _EVAL_CHUNK)):
            for s in batch:
                if s.score is None:
                    raise ContractError(f"test sample {s.sample_id!r} has no score")
                if s.features.shape != shape:
                    raise DimensionError(
                        f"test sample {s.sample_id!r} is {s.features.shape}, not {shape}"
                    )
            ids.extend(s.sample_id for s in batch)
            truths.extend(s.score for s in batch)
            yield batch

    with ad.no_grad():
        predicted = _predictions(student, chunks())
    mu = np.concatenate([mu for mu, _ in predicted]) if predicted else np.empty(0)
    sigma = np.concatenate([sigma for _, sigma in predicted]) if predicted else np.empty(0)
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
