"""Confidence memories: per-sample stores of the most confident prediction.

One memory tracks the teacher's direct score predictions, another tracks the
reference network's recovered absolute scores. Lower sigma means higher
confidence (a prediction with sigma near zero is a confident one), so a write
replaces an entry only when it strictly lowers sigma; stored sigma is
therefore the running minimum over a sample's lifetime and never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, ContractError, FusionUnavailableError, ParseError

TEACHER = "teacher"
REFERENCE = "reference"


@dataclass
class MemoryEntry:
    score: float
    sigma: float
    epoch_written: int


class ConfidenceMemory:
    """Map from sample id to the most confident (score, sigma) seen so far."""

    def __init__(self, kind: str):
        if kind not in (TEACHER, REFERENCE):
            raise ContractError(f"memory kind must be teacher or reference, got {kind!r}")
        self.kind = kind
        self.entries: dict[str, MemoryEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self.entries

    def maybe_write(self, sample_id: str, score: float, sigma: float, epoch: int) -> bool:
        """Insert or replace the entry if this prediction is more confident.

        Returns True when written, False when the existing entry is kept.
        Ties keep the old entry. A sigma that is not positive (NaN included)
        raises ``ContractError``.
        """
        if not sigma > 0.0:
            raise ContractError(f"sigma must be strictly positive, got {sigma}")
        current = self.entries.get(sample_id)
        if current is not None and sigma >= current.sigma:
            return False
        self.entries[sample_id] = MemoryEntry(float(score), float(sigma), int(epoch))
        return True

    def read(self, sample_id: str) -> MemoryEntry | None:
        return self.entries.get(sample_id)

    def clear(self) -> None:
        self.entries.clear()

    # -- checkpoint serialization -------------------------------------------

    def save_tsv(self, path) -> None:
        """One line per entry: id, score, sigma, epoch (tab-separated).

        Floats use 17 significant digits so the round-trip is exact. Lines
        end in ``\\n`` and the id is everything before the last three tabs,
        so an id may hold any character but ``\\n``; one that holds ``\\n``
        raises ``ConfigurationError``.
        """
        lines = []
        for sample_id, e in self.entries.items():
            if "\n" in sample_id:
                raise ConfigurationError(
                    f"{path}: sample id {sample_id!r} contains a newline"
                )
            lines.append(
                f"{sample_id}\t{e.score:.17g}\t{e.sigma:.17g}\t{e.epoch_written}\n"
            )
        Path(path).write_bytes("".join(lines).encode("utf-8"))

    @classmethod
    def load_tsv(cls, path, kind: str) -> "ConfidenceMemory":
        """Inverse of ``save_tsv``.

        A malformed line (not UTF-8, fewer than four fields, a bad number, a
        non-finite score, a sigma that is not finite and positive, a negative
        epoch or a repeated id) raises ``ParseError`` naming the file, at the
        line's byte offset.
        """
        mem = cls(kind)
        lines = Path(path).read_bytes().split(b"\n")
        if not lines[-1]:
            lines.pop()  # the terminator of the last line
        offset = 0
        for raw in lines:
            start, offset = offset, offset + len(raw) + 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: line is not UTF-8", start) from None
            try:
                sample_id, score, sigma, epoch = line.rsplit("\t", 3)
                score, sigma, epoch = float(score), float(sigma), int(epoch)
            except ValueError:
                raise ParseError(
                    f"{path}: expected id, score, sigma and epoch separated by "
                    f"tabs, got {line[:80]!r}", start,
                ) from None
            if not (math.isfinite(score) and math.isfinite(sigma) and sigma > 0.0):
                raise ParseError(
                    f"{path}: {sample_id!r} needs a finite score and a finite "
                    f"positive sigma, got {score!r} and {sigma!r}", start,
                )
            if epoch < 0:
                raise ParseError(f"{path}: {sample_id!r} has negative epoch {epoch}", start)
            if sample_id in mem.entries:
                raise ParseError(f"{path}: duplicate sample id {sample_id!r}", start)
            mem.entries[sample_id] = MemoryEntry(score, sigma, epoch)
        return mem


def fuse_pseudo_label(mt_entry: MemoryEntry | None, mr_entry: MemoryEntry | None) -> float:
    """Average the two memory scores into the final pseudo-label."""
    if mt_entry is None or mr_entry is None:
        raise FusionUnavailableError("fusion requires entries from both memories")
    return (mt_entry.score + mr_entry.score) / 2.0
