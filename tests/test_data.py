"""Synthetic-task and AQAF-format tests."""

import math
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.autodiff import Tensor
from trscore import data as data_module
from trscore.data import (
    AQAF_MAGIC,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    iter_features,
    load_features,
    save_features,
)
from trscore.errors import ConfigurationError, ParseError
from trscore.evaluation import spearman
from trscore.networks import FeatureSequence


class TestSyntheticSpec:
    def test_rejects_zero_label_fraction_rounding(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(num_samples=3, label_fraction=0.1)

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(num_samples=0)
        with pytest.raises(ConfigurationError):
            SyntheticSpec(num_samples=10, label_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SyntheticSpec(num_samples=10, noise_std=-1.0)


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(num_samples=20, t=3, d=6, label_fraction=0.5, noise_std=0.0, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.sample_id == sb.sample_id
            assert sa.score == sb.score
            np.testing.assert_array_equal(sa.features.array, sb.features.array)

    def test_full_label_fraction_means_no_unlabeled(self):
        spec = SyntheticSpec(num_samples=15, t=3, d=6, label_fraction=1.0, seed=1)
        ds = generate_synthetic(spec)
        assert ds.num_unlabeled == 0
        assert ds.num_labeled == 15

    def test_splits_share_task_but_not_samples(self):
        spec = SyntheticSpec(num_samples=10, t=3, d=6, label_fraction=1.0, seed=2)
        train_ds = generate_synthetic(spec, split="train")
        test_ds = generate_synthetic(spec, split="test")
        assert {s.sample_id for s in train_ds.samples}.isdisjoint(
            {s.sample_id for s in test_ds.samples}
        )
        assert not np.array_equal(
            train_ds.samples[0].features.array, test_ds.samples[0].features.array
        )

    def test_ols_probe_recovers_ranking_without_noise(self):
        spec = SyntheticSpec(
            num_samples=300, t=10, d=64, label_fraction=1.0, noise_std=0.0, seed=3
        )
        ds = generate_synthetic(spec)
        pooled = np.stack([s.features.array.mean(axis=0) for s in ds.samples])
        scores = np.array([s.score for s in ds.samples])
        design = np.hstack([pooled, np.ones((len(scores), 1))])
        coef, *_ = np.linalg.lstsq(design, scores, rcond=None)
        fitted = design @ coef
        assert spearman(fitted, scores) > 0.9

    def test_bits_do_not_depend_on_the_block_size(self, monkeypatch):
        spec = SyntheticSpec(num_samples=50, t=3, d=5, label_fraction=0.4, noise_std=0.7, seed=6)
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 1 << 30)  # one block
        whole = generate_synthetic(spec)
        for rows in (1, 3, 7):
            monkeypatch.setattr(data_module, "_BLOCK_BYTES", rows * 8 * spec.t * spec.d)
            blocked = generate_synthetic(spec)
            assert blocked.labeled_ids == whole.labeled_ids
            for a, b in zip(blocked.samples, whole.samples):
                assert a.score == b.score
                assert a.features.array.tobytes() == b.features.array.tobytes()

    def test_scores_within_declared_range(self):
        ds = generate_synthetic(SyntheticSpec(num_samples=200, t=2, d=4, label_fraction=1.0, seed=4))
        lo, hi = ds.score_range
        assert all(lo <= s.score <= hi for s in ds.samples)


class TestDatasetValidation:
    def _seq(self, sample_id, score=None):
        return FeatureSequence(Tensor(np.zeros((2, 2))), sample_id, score)

    def test_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            Dataset([self._seq("a", 1.0), self._seq("a", 2.0)], {"a"}, set(), (0, 5))

    def test_overlapping_id_sets(self):
        with pytest.raises(ConfigurationError):
            Dataset([self._seq("a", 1.0)], {"a"}, {"a"}, (0, 5))

    def test_score_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Dataset([self._seq("a", 9.0)], {"a"}, set(), (0.0, 5.0))

    def test_labeled_without_score(self):
        with pytest.raises(ConfigurationError):
            Dataset([self._seq("a", None)], {"a"}, set(), (0.0, 5.0))

    def test_inconsistent_shapes(self):
        odd = FeatureSequence(Tensor(np.zeros((3, 2))), "b", None)
        with pytest.raises(ConfigurationError):
            Dataset([self._seq("a", 1.0), odd], {"a"}, {"b"}, (0.0, 5.0))

    @pytest.mark.parametrize("labeled, unlabeled", [({"a"}, set()), ({"a"}, {"b", "c"})])
    def test_id_sets_must_cover_the_samples(self, labeled, unlabeled):
        with pytest.raises(ConfigurationError, match="cover"):
            Dataset([self._seq("a", 1.0), self._seq("b")], labeled, unlabeled, (0.0, 5.0))

    def test_unlabeled_sample_with_score(self):
        with pytest.raises(ConfigurationError, match="carries a score"):
            Dataset([self._seq("a", 1.0)], set(), {"a"}, (0.0, 5.0))


def random_dataset(seed):
    gen = np.random.default_rng(seed)
    t = int(gen.integers(1, 6))
    d = int(gen.integers(1, 8))
    n = int(gen.integers(1, 20))
    samples, labeled, unlabeled = [], [], []
    for i in range(n):
        sample_id = f"v{i}-α{seed}" if i % 3 == 0 else f"v{i}"
        score = float(gen.normal()) if gen.random() < 0.6 else None
        samples.append(FeatureSequence(Tensor(gen.normal(size=(t, d))), sample_id, score))
        (labeled if score is not None else unlabeled).append(sample_id)
    scores = [s.score for s in samples if s.score is not None]
    rng_range = (min(scores), max(scores)) if scores else (0.0, 1.0)
    return Dataset(samples, frozenset(labeled), frozenset(unlabeled), rng_range)


class TestAqafRoundTrip:
    def test_bit_identical(self, tmp_path):
        for seed in range(20):
            ds = random_dataset(seed)
            path = tmp_path / f"rt{seed}.aqaf"
            save_features(ds, path)
            loaded = load_features(path)
            assert [s.sample_id for s in loaded.samples] == [s.sample_id for s in ds.samples]
            assert loaded.labeled_ids == ds.labeled_ids
            assert loaded.unlabeled_ids == ds.unlabeled_ids
            for a, b in zip(loaded.samples, ds.samples):
                assert a.score == b.score
                np.testing.assert_array_equal(a.features.array, b.features.array)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        ds = random_dataset(99)
        first = tmp_path / "a.aqaf"
        second = tmp_path / "b.aqaf"
        save_features(ds, first)
        save_features(load_features(first), second)
        assert first.read_bytes() == second.read_bytes()


def reference_parse(blob: bytes, source):
    """The AQAF grammar over a whole in-memory file, as a list of samples.

    This is the parser the streamed reader replaced; every input must give
    both the same samples or the same ``ParseError`` message and offset.
    """
    pos = 0

    def fail(message, offset=None):
        return ParseError(f"{source}: {message}", pos if offset is None else offset)

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise fail(f"truncated while reading {what}")
        pos += n
        return blob[pos - n : pos]

    def unpack(fmt, what):
        return struct.unpack("<" + fmt, take(struct.calcsize("<" + fmt), what))

    magic = take(4, "magic")
    if magic != AQAF_MAGIC:
        raise fail(f"bad magic {magic!r}, expected {AQAF_MAGIC!r}", 0)
    (version,) = unpack("I", "version")
    if version != 1:
        raise fail(f"unsupported version {version}", 4)
    (count,) = unpack("I", "sample count")
    samples, shape = [], None
    for _ in range(count):
        id_offset = pos
        (id_len,) = unpack("H", "id length")
        try:
            sample_id = take(id_len, "id").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise fail(f"id is not valid UTF-8: {exc}", id_offset + 2) from exc
        if sample_id in {s[0] for s in samples}:
            raise fail(f"duplicate sample id {sample_id!r}", id_offset)
        (flag,) = unpack("B", "score flag")
        if flag not in (0, 1):
            raise fail(f"score flag must be 0 or 1, got {flag}", pos - 1)
        score_offset = pos
        score = unpack("d", "score")[0] if flag else None
        if score is not None and not math.isfinite(score):
            raise fail(f"score of {sample_id!r} is {score}", score_offset)
        dims_offset = pos
        t, d = unpack("II", "dimensions")
        if t < 1 or d < 1:
            raise fail(f"dimensions must be positive, got {t} x {d}", dims_offset)
        if shape is not None and (t, d) != shape:
            raise fail(
                f"sample {sample_id!r} has {t} x {d} features, dataset uses "
                f"{shape[0]} x {shape[1]}",
                dims_offset,
            )
        shape = (t, d)
        features_offset = pos
        features = np.frombuffer(take(8 * t * d, f"features of {sample_id!r}"), "<f8")
        if not np.isfinite(features).all():
            raise fail(f"features of {sample_id!r} are not all finite", features_offset)
        samples.append((sample_id, score, features.reshape(t, d)))
    if pos != len(blob):
        raise fail("trailing bytes after last sample")
    return samples


def parse_outcome(parse):
    """What a parse gives: its samples, or its ParseError's message and offset."""
    try:
        return [(i, sc, f.tobytes()) for i, sc, f in parse()]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


def streamed_outcome(path):
    return parse_outcome(
        lambda: [(s.sample_id, s.score, s.features.array) for s in iter_features(path)]
    )


class TestAqafErrors:
    def _valid_bytes(self):
        ds = random_dataset(5)
        import io

        from pathlib import Path
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.aqaf"
            save_features(ds, path)
            return path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_byte_mutations_load_or_raise_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("aqaf") / "mutated.aqaf"
        blob = bytearray(self._valid_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcome = streamed_outcome(path)
            assert outcome == parse_outcome(lambda: reference_parse(bytes(blob), path))
            try:
                loaded = load_features(path)
            except ParseError:
                return
        for s in loaded.samples:
            assert np.isfinite(s.features.array).all()
            assert s.score is None or np.isfinite(s.score)

    def test_every_truncation_matches_the_reference(self, tmp_path):
        samples = [
            FeatureSequence(Tensor(np.arange(6.0).reshape(2, 3)), "a", 1.5),
            FeatureSequence(Tensor(-np.arange(6.0).reshape(2, 3)), "bé", None),
            FeatureSequence(Tensor(np.ones((2, 3))), "c", -2.0),
        ]
        path = tmp_path / "whole.aqaf"
        save_features(Dataset(samples, {"a", "c"}, {"bé"}, (-2.0, 1.5)), path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.aqaf"
        for end in range(len(blob)):
            cut.write_bytes(blob[:end])
            outcome = streamed_outcome(cut)
            assert outcome[0] == "ParseError" and "truncated" in outcome[1], end
            assert outcome == parse_outcome(lambda: reference_parse(blob[:end], cut)), end
            with pytest.raises(ParseError) as err:
                load_features(cut)
            assert (str(err.value), err.value.offset) == outcome[1:]

    def test_declared_size_beyond_the_file_raises_before_allocating(self, tmp_path):
        # 2^31 x 2^31 features would be 32 EiB; the reader must not try to read them
        blob = b"".join([
            struct.pack("<4sII", AQAF_MAGIC, 1, 1), struct.pack("<H", 1), b"a",
            struct.pack("<B", 0), struct.pack("<II", 2**31, 2**31), b"\0" * 16,
        ])
        path = tmp_path / "huge.aqaf"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="truncated while reading features") as err:
            load_features(path)
        assert err.value.offset == 24

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.aqaf"
        path.write_bytes(b"XXXX" + self._valid_bytes()[4:])
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.offset == 0

    def test_bad_version_offset_four(self, tmp_path):
        blob = bytearray(self._valid_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path = tmp_path / "v2.aqaf"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        blob = self._valid_bytes()
        path = tmp_path / "trunc.aqaf"
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert 0 < err.value.offset <= len(blob) - 5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.aqaf"
        path.write_bytes(b"")
        with pytest.raises(ParseError) as err:
            load_features(path)
        assert err.value.offset == 0

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.aqaf"
        path.write_bytes(self._valid_bytes() + b"\x00")
        with pytest.raises(ParseError):
            load_features(path)

    def test_inconsistent_dimensions(self, tmp_path):
        # two samples with differing T
        chunks = [struct.pack("<4sII", AQAF_MAGIC, 1, 2)]
        for sample_id, t in (("a", 2), ("b", 3)):
            encoded = sample_id.encode()
            chunks.append(struct.pack("<H", len(encoded)))
            chunks.append(encoded)
            chunks.append(struct.pack("<B", 0))
            chunks.append(struct.pack("<II", t, 2))
            chunks.append(np.zeros(t * 2).astype("<f8").tobytes())
        path = tmp_path / "dims.aqaf"
        path.write_bytes(b"".join(chunks))
        with pytest.raises(ParseError, match="3 x 2"):
            load_features(path)

    @pytest.mark.parametrize(
        "sample_id, flag, dims, offset, message",
        [
            (b"a", 2, (1, 1), 15, "score flag"),
            (b"a", 0, (0, 1), 16, "dimensions must be positive"),
            (b"a", 0, (1, 0), 16, "dimensions must be positive"),
            (b"\xffa", 0, (1, 1), 14, "UTF-8"),
        ],
    )
    def test_malformed_sample_header(self, tmp_path, sample_id, flag, dims, offset, message):
        blob = b"".join([
            struct.pack("<4sII", AQAF_MAGIC, 1, 1),
            struct.pack("<H", len(sample_id)), sample_id,
            struct.pack("<B", flag),
            struct.pack("<II", *dims),
            np.zeros(dims[0] * dims[1]).astype("<f8").tobytes(),
        ])
        path = tmp_path / "header.aqaf"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=message) as err:
            load_features(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("existing", [None, b"an earlier file"])
    def test_id_over_65535_bytes_rejected_on_save(self, tmp_path, existing):
        # the overlong id comes last, after every other sample was written
        samples = [FeatureSequence(Tensor(np.zeros((1, 1))), f"s{i}", None) for i in range(3)]
        samples.append(FeatureSequence(Tensor(np.zeros((1, 1))), "é" * 32768, None))
        dataset = Dataset(samples, set(), {s.sample_id for s in samples}, (0.0, 1.0))
        path = tmp_path / "long.aqaf"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ConfigurationError, match="too long"):
            save_features(dataset, path)
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing
        assert sorted(os.listdir(tmp_path)) == ([] if existing is None else ["long.aqaf"])

    def test_duplicate_id_in_file(self, tmp_path):
        chunks = [struct.pack("<4sII", AQAF_MAGIC, 1, 2)]
        for _ in range(2):
            chunks.append(struct.pack("<H", 1))
            chunks.append(b"a")
            chunks.append(struct.pack("<B", 0))
            chunks.append(struct.pack("<II", 1, 1))
            chunks.append(np.zeros(1).astype("<f8").tobytes())
        path = tmp_path / "dup.aqaf"
        path.write_bytes(b"".join(chunks))
        with pytest.raises(ParseError, match="duplicate"):
            load_features(path)


class TestGoldenFixture:
    def test_hand_built_file_loads(self, tmp_path):
        # one labeled sample, T=2, D=3, score 7.5, plus one unlabeled
        features_a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        features_b = np.array([[0.5, -0.5, 0.0], [9.0, 8.0, 7.0]])
        blob = b"".join(
            [
                struct.pack("<4sII", AQAF_MAGIC, 1, 2),
                struct.pack("<H", 5),
                b"dive1",
                struct.pack("<Bd", 1, 7.5),
                struct.pack("<II", 2, 3),
                features_a.astype("<f8").tobytes(),
                struct.pack("<H", 5),
                b"dive2",
                struct.pack("<B", 0),
                struct.pack("<II", 2, 3),
                features_b.astype("<f8").tobytes(),
            ]
        )
        path = tmp_path / "golden.aqaf"
        path.write_bytes(blob)
        ds = load_features(path)
        assert ds.num_labeled == 1 and ds.num_unlabeled == 1
        first = ds.samples[0]
        assert first.sample_id == "dive1"
        assert first.score == 7.5
        np.testing.assert_array_equal(first.features.array, features_a)
        assert ds.samples[1].score is None


class TestNonFiniteValues:
    """A NaN or infinite score or feature fails the load at its block."""

    @staticmethod
    def _blob(has_score: bool) -> bytearray:
        # one sample "a" with 2 x 3 features: header 12 bytes, id 3, flag 1
        chunks = [struct.pack("<4sII", AQAF_MAGIC, 1, 1), struct.pack("<H", 1), b"a"]
        chunks.append(struct.pack("<Bd", 1, 2.5) if has_score else struct.pack("<B", 0))
        chunks.append(struct.pack("<II", 2, 3))
        chunks.append(np.arange(6.0).astype("<f8").tobytes())
        return bytearray(b"".join(chunks))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score(self, tmp_path, value):
        blob = self._blob(has_score=True)
        struct.pack_into("<d", blob, 16, value)
        path = tmp_path / "score.aqaf"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="score") as err:
            load_features(path)
        assert err.value.offset == 16

    def test_huge_finite_features_load_without_warning(self, tmp_path):
        # their sum of squares overflows, which must not warn or reject them
        blob = self._blob(has_score=True)
        struct.pack_into("<6d", blob, 32, *[1e200, -1e200, 1e300, 0.0, 1.0, 1e154])
        path = tmp_path / "huge.aqaf"
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loaded = load_features(path)
        assert loaded.samples[0].features.array[1, 0] == 0.0

    def test_signalling_nan_feature_rejected_without_warning(self, tmp_path):
        blob = self._blob(has_score=False)
        struct.pack_into("<Q", blob, 24, 0x7FF0000000000001)
        path = tmp_path / "snan.aqaf"
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParseError) as err:
                load_features(path)
        assert err.value.offset == 24

    @pytest.mark.parametrize("has_score, block", [(True, 32), (False, 24)])
    @pytest.mark.parametrize("position", [0, 5])
    def test_non_finite_feature(self, tmp_path, has_score, block, position):
        blob = self._blob(has_score)
        struct.pack_into("<d", blob, block + 8 * position, float("nan"))
        path = tmp_path / "features.aqaf"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="features.aqaf") as err:
            load_features(path)
        assert err.value.offset == block


def traced_peak(fn):
    """The result of ``fn()`` and the peak of traced memory it added."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Each AQAF path holds at most one copy of a dataset's features.

    numpy reports its buffers to ``tracemalloc``, so the traced peak counts
    every feature array. The bounds are multiples of the feature bytes of a
    2,000 x 10 x 64 dataset (10.2 MB); the whole-array code these paths
    replaced peaked at 3.6x (synthesis) and 2.1x (save, load).
    """

    SPEC = SyntheticSpec(num_samples=2000, t=10, d=64, label_fraction=0.5, seed=0)
    FEATURE_BYTES = 2000 * 10 * 64 * 8

    def test_synthesis(self):
        _, peak = traced_peak(lambda: generate_synthetic(self.SPEC))
        assert peak <= 1.6 * self.FEATURE_BYTES

    def test_save_and_load(self, tmp_path):
        dataset = generate_synthetic(self.SPEC)
        path = tmp_path / "big.aqaf"
        _, peak = traced_peak(lambda: save_features(dataset, path))
        assert peak <= 0.25 * self.FEATURE_BYTES
        del dataset
        loaded, peak = traced_peak(lambda: load_features(path))
        assert len(loaded.samples) == 2000
        assert peak <= 1.3 * self.FEATURE_BYTES
