"""Dataset container, synthetic task generation and the AQAF binary format.

A sample is labeled exactly when it carries a score: the split between the
small labeled portion and the unlabeled pool is the samples' own, in memory
as on disk (AQAF's has_score flag).

AQAF layout (little-endian): magic "AQAF", u32 version=1, u32 sample count,
then per sample: u16 id length + UTF-8 id, u8 has_score flag, f64 score when
flagged, u32 T, u32 D, and T*D f64 features in row-major order.

Every path holds at most one copy of a dataset: synthesis computes bounded
blocks of rows and gives each sample its own copy of its row, so that a kept
subset does not pin a block, ``save_features`` hands each sample's arrays as
they are to ``_write_file``, the package's one writer, and ``iter_features``
parses the file as it reads it, each sample a view of its bytes, so a malformed
sample raises its ``ParseError`` only when the parser reaches it, after the
samples before it were yielded.
"""

from __future__ import annotations

import math
import os
import re
import struct
import uuid
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import rng as streams
from .errors import ConfigurationError, NonFiniteFeaturesError, ParseError
from .networks import FeatureSequence, check_field_types

AQAF_MAGIC = b"AQAF"
AQAF_VERSION = 1

LATENT_DIM = 24
SIGNAL_DIMS = 8  # scoring function reads only these latent dimensions
NUISANCE_SCALE = 2.5  # the remaining dimensions are louder distractors
SCORE_SCALE = 2.0
NONLINEAR_WEIGHT = 0.5
SCORE_RANGE = (-9.0, 9.0)

# the size of a synthesis block of feature rows and of the file buffers
_BLOCK_BYTES = 1 << 18


@dataclass
class Dataset:
    """Feature sequences, each labeled exactly when it carries a score.

    Each sample checks itself; the ids are unique and every sample has the
    first one's feature shape, or ``ConfigurationError`` names the sample.
    """

    samples: list[FeatureSequence]

    def __post_init__(self):
        seen: set[str] = set()
        for s in self.samples:
            if s.sample_id in seen:
                raise ConfigurationError(f"duplicate sample id {s.sample_id!r}")
            seen.add(s.sample_id)
            if s.features.shape != self.samples[0].features.shape:
                raise ConfigurationError(
                    f"sample {s.sample_id!r} has shape {s.features.shape}, "
                    f"expected {self.samples[0].features.shape}"
                )

    @property
    def labeled_samples(self) -> list[FeatureSequence]:
        return [s for s in self.samples if s.score is not None]

    @property
    def unlabeled_samples(self) -> list[FeatureSequence]:
        return [s for s in self.samples if s.score is None]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic score-regression dataset."""

    num_samples: int
    t: int = 10
    d: int = 64
    label_fraction: float = 0.1
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.num_samples < 1 or self.t < 1 or self.d < 1:
            raise ConfigurationError("num_samples, t and d must be positive")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigurationError(
                f"label_fraction must lie in (0, 1], got {self.label_fraction}"
            )
        if round(self.num_samples * self.label_fraction) < 1:
            raise ConfigurationError("label_fraction yields zero labeled samples")
        if self.noise_std < 0.0:
            raise ConfigurationError(f"noise_std must be nonnegative, got {self.noise_std}")


def generate_synthetic(spec: SyntheticSpec, split: str = "train") -> Dataset:
    """Draw a dataset from a hidden latent scoring task.

    The task (latent-to-feature projection, per-snippet modulation and the
    linear-plus-tanh scoring function) depends only on ``spec.seed``; the
    sample draw additionally depends on ``split``, so different splits of the
    same seed share the task but not the samples. Scores read only the quiet
    signal dimensions of the latent while the nuisance dimensions are scaled
    up, so an arbitrary projection of the features correlates weakly with the
    score, yet scores stay recoverable in principle: mean-pooled features are
    a full-rank linear image of the latent.
    """
    task = streams.derive(spec.seed, streams.SYNTH_TASK)
    projection = task.normal(size=(LATENT_DIM, spec.d)) / math.sqrt(LATENT_DIM)
    modulation = task.uniform(0.5, 1.5, size=(spec.t, LATENT_DIM))
    w_linear = task.normal(size=SIGNAL_DIMS)
    w_linear /= np.linalg.norm(w_linear)
    w_tanh = task.normal(size=SIGNAL_DIMS)
    w_tanh /= np.linalg.norm(w_tanh)
    gains = np.concatenate(
        [np.ones(SIGNAL_DIMS), NUISANCE_SCALE * np.ones(LATENT_DIM - SIGNAL_DIMS)]
    )

    draw = streams.derive(spec.seed, streams.SYNTH_SAMPLES, streams.id_hash(split))
    latent = draw.normal(size=(spec.num_samples, LATENT_DIM))
    # the noise is drawn block by block in row order, which consumes the stream
    # exactly as one N x T x D draw would, so the bits do not depend on the block
    rows = max(1, _BLOCK_BYTES // (8 * spec.t * spec.d))
    features: list[np.ndarray] = []
    for lo in range(0, spec.num_samples, rows):
        hi = min(lo + rows, spec.num_samples)
        noise = draw.normal(0.0, spec.noise_std, size=(hi - lo, spec.t, spec.d))
        trajectory = (latent[lo:hi] * gains)[:, None, :] * modulation[None, :, :]
        block = trajectory @ projection
        block += noise
        # each sample owns its row, so that a kept subset does not pin the block
        features.extend(x.copy() for x in block)
    signal = latent[:, :SIGNAL_DIMS]
    raw = signal @ w_linear + NONLINEAR_WEIGHT * np.tanh(signal @ w_tanh)
    scores = np.clip(SCORE_SCALE * raw, SCORE_RANGE[0], SCORE_RANGE[1])

    num_labeled = int(round(spec.num_samples * spec.label_fraction))
    labeled_positions = set(draw.permutation(spec.num_samples)[:num_labeled].tolist())

    return Dataset([
        FeatureSequence(x, f"{split}-{i:05d}", scores[i] if i in labeled_positions else None)
        for i, x in enumerate(features)
    ])


# -- AQAF serialization -------------------------------------------------------


class _Cursor:
    """Bounds-checked little-endian reader over the open binary file ``source``.

    Every read is checked against the file's size before anything is read or
    allocated. Its errors are ``ParseError``s that name the file and carry a
    byte offset.
    """

    def __init__(self, stream, source):
        self.stream = stream
        self.size = os.fstat(stream.fileno()).st_size
        self.offset = 0
        self.source = source

    def error(self, message: str, offset: int | None = None) -> ParseError:
        where = self.offset if offset is None else offset
        return ParseError(f"{self.source}: {message}", where)

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > self.size:
            raise self.error(f"truncated while reading {what}")
        out = self.stream.read(n)
        if len(out) != n:  # the file shrank while it was read
            raise self.error(f"truncated while reading {what}")
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _write_file(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to a temporary file beside the file that
    ``path`` names (the target, when ``path`` is a symlink, which stays), then
    replace that file; a write that fails leaves it as it was. A path that
    exists and is not a regular file, such as a FIFO, a device or a link to a
    pipe (whose ``/proc`` fd link resolves to no name), is written in place."""
    target = Path(os.path.realpath(path))
    in_place = os.path.exists(path) and not os.path.isfile(path)  # both follow links
    # a plain exclusive open, unlike tempfile's, gives the file the usual mode; the
    # name's length is fixed, so any name the target may have leaves room for it
    tmp = target.with_name(f".{uuid.uuid4().hex}.tmp")
    if in_place:
        tmp = target if target.exists() else Path(path)
    try:
        with open(tmp, "wb" if in_place else "xb", buffering=_BLOCK_BYTES) as out:
            for chunk in chunks:
                out.write(chunk)
        if not in_place:
            os.replace(tmp, target)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # name the file asked for
            exc.filename = os.fspath(path)
        if not in_place:
            tmp.unlink(missing_ok=True)
        raise


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """UTF-8 lines ending in ``\\n``; a field with a comma, quote or line break is quoted."""

    def line(fields: Sequence[str]) -> str:
        if _NEEDS_QUOTES.search("".join(fields)):  # one search for a row that needs none
            fields = ['"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES.search(f) else f
                      for f in fields]
        return ",".join(fields)

    _write_file(path, [("\n".join(map(line, chain([header], rows))) + "\n").encode("utf-8")])


def save_features(dataset: Dataset, path) -> None:
    """Write a dataset in AQAF; save/load round-trips bit-identically."""

    def records():
        yield struct.pack("<4sII", AQAF_MAGIC, AQAF_VERSION, len(dataset.samples))
        for s in dataset.samples:
            encoded = s.sample_id.encode("utf-8")
            yield struct.pack("<H", len(encoded))
            yield encoded
            if s.score is not None:
                yield struct.pack("<Bd", 1, s.score)
            else:
                yield struct.pack("<B", 0)
            yield struct.pack("<II", *s.features.shape)
            yield np.ascontiguousarray(s.features, dtype="<f8")

    _write_file(path, records())


def iter_features(path) -> Iterator[FeatureSequence]:
    """Parse an AQAF file as it is read, yielding its samples in file order.

    Malformed input raises ``ParseError`` with its offset when the parser
    reaches it; the samples before it have been yielded by then. The file is
    read through a bounded buffer, and each sample's features are a read-only
    view of the bytes read for it.
    """
    with open(path, "rb", buffering=_BLOCK_BYTES) as stream:
        cur = _Cursor(stream, path)
        magic = cur.take(4, "magic")
        if magic != AQAF_MAGIC:
            raise cur.error(f"bad magic {magic!r}, expected {AQAF_MAGIC!r}", 0)
        (version,) = cur.unpack("I", "version")
        if version != AQAF_VERSION:
            raise cur.error(f"unsupported version {version}", 4)
        (count,) = cur.unpack("I", "sample count")

        seen: set[str] = set()
        shape: tuple[int, int] | None = None
        for _ in range(count):
            id_offset = cur.offset
            (id_len,) = cur.unpack("H", "id length")
            try:
                sample_id = cur.take(id_len, "id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise cur.error(f"id is not valid UTF-8: {exc}", id_offset + 2) from exc
            if sample_id in seen:
                raise cur.error(f"duplicate sample id {sample_id!r}", id_offset)
            seen.add(sample_id)
            (has_score,) = cur.unpack("B", "score flag")
            if has_score not in (0, 1):
                raise cur.error(f"score flag must be 0 or 1, got {has_score}", cur.offset - 1)
            score_offset = cur.offset
            score = cur.unpack("d", "score")[0] if has_score else None
            if score is not None and not math.isfinite(score):
                raise cur.error(f"score of {sample_id!r} is {score}", score_offset)
            dims_offset = cur.offset
            t, d = cur.unpack("II", "dimensions")
            if t < 1 or d < 1:
                raise cur.error(f"dimensions must be positive, got {t} x {d}", dims_offset)
            if shape is None:
                shape = (t, d)
            elif (t, d) != shape:
                raise cur.error(
                    f"sample {sample_id!r} has {t} x {d} features, dataset uses "
                    f"{shape[0]} x {shape[1]}",
                    dims_offset,
                )
            features_offset = cur.offset
            raw = cur.take(8 * t * d, f"features of {sample_id!r}")
            flat = np.frombuffer(raw, dtype="<f8")
            try:
                sample = FeatureSequence(flat.reshape(t, d), sample_id, score)
            except NonFiniteFeaturesError:
                raise cur.error(
                    f"features of {sample_id!r} are not all finite", features_offset
                ) from None
            except ConfigurationError as exc:  # an id that a memory file cannot hold
                raise cur.error(str(exc), id_offset) from None
            yield sample
        if cur.offset != cur.size:
            raise cur.error("trailing bytes after last sample")


def load_features(path) -> Dataset:
    """Parse a whole AQAF file into a ``Dataset``; errors as ``iter_features``."""
    return Dataset(list(iter_features(path)))
