"""Dataset container, synthetic task generation and the AQAF binary format.

AQAF layout (little-endian): magic "AQAF", u32 version=1, u32 sample count,
then per sample: u16 id length + UTF-8 id, u8 has_score flag, f64 score when
flagged, u32 T, u32 D, and T*D f64 features in row-major order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as streams
from .autodiff import Tensor
from .errors import ConfigurationError, ParseError
from .networks import FeatureSequence

AQAF_MAGIC = b"AQAF"
AQAF_VERSION = 1

LATENT_DIM = 24
SIGNAL_DIMS = 8  # scoring function reads only these latent dimensions
NUISANCE_SCALE = 2.5  # the remaining dimensions are louder distractors
SCORE_SCALE = 2.0
NONLINEAR_WEIGHT = 0.5
SCORE_RANGE = (-9.0, 9.0)


@dataclass
class Dataset:
    """Feature sequences split into labeled and unlabeled id sets."""

    samples: list[FeatureSequence]
    labeled_ids: frozenset[str]
    unlabeled_ids: frozenset[str]
    score_range: tuple[float, float]

    def __post_init__(self):
        self.labeled_ids = frozenset(self.labeled_ids)
        self.unlabeled_ids = frozenset(self.unlabeled_ids)
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("sample ids must be unique")
        if self.labeled_ids & self.unlabeled_ids:
            raise ConfigurationError("labeled and unlabeled id sets must be disjoint")
        if (self.labeled_ids | self.unlabeled_ids) != set(ids):
            raise ConfigurationError("id sets must cover exactly the samples")
        lo, hi = self.score_range
        for s in self.samples:
            if s.sample_id in self.labeled_ids:
                if s.score is None:
                    raise ConfigurationError(f"labeled sample {s.sample_id!r} has no score")
                if not lo <= s.score <= hi:
                    raise ConfigurationError(
                        f"score {s.score} of {s.sample_id!r} outside range [{lo}, {hi}]"
                    )
            elif s.score is not None:
                raise ConfigurationError(
                    f"unlabeled sample {s.sample_id!r} carries a score"
                )
        shapes = {s.features.shape for s in self.samples}
        if len(shapes) > 1:
            raise ConfigurationError(f"inconsistent feature shapes: {sorted(shapes)}")

    @property
    def labeled_samples(self) -> list[FeatureSequence]:
        return [s for s in self.samples if s.sample_id in self.labeled_ids]

    @property
    def unlabeled_samples(self) -> list[FeatureSequence]:
        return [s for s in self.samples if s.sample_id in self.unlabeled_ids]

    @property
    def num_labeled(self) -> int:
        return len(self.labeled_ids)

    @property
    def num_unlabeled(self) -> int:
        return len(self.unlabeled_ids)

    @property
    def num_snippets(self) -> int:
        return self.samples[0].num_snippets

    @property
    def feature_dim(self) -> int:
        return self.samples[0].feature_dim


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
    noise = draw.normal(0.0, spec.noise_std, size=(spec.num_samples, spec.t, spec.d))
    trajectory = (latent * gains)[:, None, :] * modulation[None, :, :]
    features = trajectory @ projection + noise
    signal = latent[:, :SIGNAL_DIMS]
    raw = signal @ w_linear + NONLINEAR_WEIGHT * np.tanh(signal @ w_tanh)
    scores = np.clip(SCORE_SCALE * raw, SCORE_RANGE[0], SCORE_RANGE[1])

    num_labeled = int(round(spec.num_samples * spec.label_fraction))
    labeled_positions = set(draw.permutation(spec.num_samples)[:num_labeled].tolist())

    samples = []
    labeled_ids, unlabeled_ids = [], []
    for i in range(spec.num_samples):
        sample_id = f"{split}-{i:05d}"
        if i in labeled_positions:
            samples.append(FeatureSequence(Tensor(features[i]), sample_id, float(scores[i])))
            labeled_ids.append(sample_id)
        else:
            samples.append(FeatureSequence(Tensor(features[i]), sample_id, None))
            unlabeled_ids.append(sample_id)
    return Dataset(samples, frozenset(labeled_ids), frozenset(unlabeled_ids), SCORE_RANGE)


# -- AQAF serialization -------------------------------------------------------


class _Cursor:
    """Bounds-checked little-endian reader over the bytes of the file ``source``.

    Its errors are ``ParseError``s that name the file and carry a byte offset.
    """

    def __init__(self, blob: bytes, source):
        self.blob = blob
        self.offset = 0
        self.source = source

    def error(self, message: str, offset: int | None = None) -> ParseError:
        where = self.offset if offset is None else offset
        return ParseError(f"{self.source}: {message}", where)

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise self.error(f"truncated while reading {what}")
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def save_features(dataset: Dataset, path) -> None:
    """Write a dataset in AQAF; save/load round-trips bit-identically."""
    chunks = [struct.pack("<4sII", AQAF_MAGIC, AQAF_VERSION, len(dataset.samples))]
    for s in dataset.samples:
        encoded = s.sample_id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ConfigurationError(f"sample id too long: {s.sample_id!r}")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        if s.score is not None:
            chunks.append(struct.pack("<Bd", 1, s.score))
        else:
            chunks.append(struct.pack("<B", 0))
        t, d = s.features.shape
        chunks.append(struct.pack("<II", t, d))
        chunks.append(s.features.array.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


# the finiteness shortcut's sum of squares may overflow or meet a signalling NaN;
# the element-wise test behind it decides, so neither may warn
@np.errstate(over="ignore", invalid="ignore")
def load_features(path) -> Dataset:
    """Parse an AQAF file; malformed input raises ParseError with its offset."""
    cur = _Cursor(Path(path).read_bytes(), path)
    magic = cur.take(4, "magic")
    if magic != AQAF_MAGIC:
        raise cur.error(f"bad magic {magic!r}, expected {AQAF_MAGIC!r}", 0)
    (version,) = cur.unpack("I", "version")
    if version != AQAF_VERSION:
        raise cur.error(f"unsupported version {version}", 4)
    (count,) = cur.unpack("I", "sample count")

    samples: list[FeatureSequence] = []
    labeled_ids: list[str] = []
    unlabeled_ids: list[str] = []
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
        features = np.frombuffer(raw, dtype="<f8").reshape(t, d).copy()
        flat = features.reshape(-1)
        # one dot product is cheaper than an element-wise test; the sum of
        # squares is finite unless a value is non-finite or above ~1e154
        if not math.isfinite(flat @ flat) and not np.isfinite(flat).all():
            raise cur.error(f"features of {sample_id!r} are not all finite", features_offset)
        samples.append(FeatureSequence(Tensor(features), sample_id, score))
        (labeled_ids if has_score else unlabeled_ids).append(sample_id)
    if cur.offset != len(cur.blob):
        raise cur.error("trailing bytes after last sample")

    scores = [s.score for s in samples if s.score is not None]
    score_range = (min(scores), max(scores)) if scores else (0.0, 1.0)
    return Dataset(samples, frozenset(labeled_ids), frozenset(unlabeled_ids), score_range)
