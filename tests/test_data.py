"""Synthetic-task and AQAF-format tests."""

import dataclasses
import errno
import math
import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from trscore.errors import (
    ConfigurationError,
    DimensionError,
    NonFiniteFeaturesError,
    ParseError,
)
from trscore.evaluation import spearman
from trscore.networks import FeatureSequence


def _ids(samples) -> list[str]:
    return [s.sample_id for s in samples]


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
            np.testing.assert_array_equal(sa.features, sb.features)

    def test_full_label_fraction_means_no_unlabeled(self):
        spec = SyntheticSpec(num_samples=15, t=3, d=6, label_fraction=1.0, seed=1)
        ds = generate_synthetic(spec)
        assert len(ds.unlabeled_samples) == 0
        assert len(ds.labeled_samples) == 15

    def test_splits_share_task_but_not_samples(self):
        spec = SyntheticSpec(num_samples=10, t=3, d=6, label_fraction=1.0, seed=2)
        train_ds = generate_synthetic(spec, split="train")
        test_ds = generate_synthetic(spec, split="test")
        assert {s.sample_id for s in train_ds.samples}.isdisjoint(
            {s.sample_id for s in test_ds.samples}
        )
        assert not np.array_equal(
            train_ds.samples[0].features, test_ds.samples[0].features
        )

    def test_ols_probe_recovers_ranking_without_noise(self):
        spec = SyntheticSpec(
            num_samples=300, t=10, d=64, label_fraction=1.0, noise_std=0.0, seed=3
        )
        ds = generate_synthetic(spec)
        pooled = np.stack([s.features.mean(axis=0) for s in ds.samples])
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
            assert _ids(blocked.labeled_samples) == _ids(whole.labeled_samples)
            for a, b in zip(blocked.samples, whole.samples):
                assert a.score == b.score
                assert a.features.tobytes() == b.features.tobytes()

    def test_a_kept_sample_views_no_block(self, monkeypatch):
        # a view would keep its whole synthesis block alive with the sample
        spec = SyntheticSpec(num_samples=50, t=3, d=5, label_fraction=0.2, seed=6)
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 7 * 8 * spec.t * spec.d)
        for s in generate_synthetic(spec).labeled_samples:
            assert s.features.base is None and s.features.flags.owndata
            assert s.features.nbytes == 8 * spec.t * spec.d

    def test_scores_within_declared_range(self):
        ds = generate_synthetic(SyntheticSpec(num_samples=200, t=2, d=4, label_fraction=1.0, seed=4))
        lo, hi = data_module.SCORE_RANGE
        assert all(lo <= s.score <= hi for s in ds.samples)


class TestDatasetValidation:
    def _seq(self, sample_id, score=None):
        return FeatureSequence(np.zeros((2, 2)), sample_id, score)

    def test_duplicate_ids(self):
        with pytest.raises(ConfigurationError, match="duplicate sample id 'a'"):
            Dataset([self._seq("a", 1.0), self._seq("b"), self._seq("a", 2.0)])

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score(self, score):
        with pytest.raises(ConfigurationError, match="'a'"):
            Dataset([self._seq("b", 1.0), self._seq("a", score)])

    def test_inconsistent_shapes(self):
        odd = FeatureSequence(np.zeros((3, 2)), "b", None)
        with pytest.raises(ConfigurationError, match=r"sample 'b' has shape \(3, 2\)"):
            Dataset([self._seq("a", 1.0), odd, self._seq("c")])

    def test_labeled_means_scored(self):
        ds = Dataset([self._seq("a", 1.0), self._seq("b"), self._seq("c", 0.0)])
        assert _ids(ds.labeled_samples) == ["a", "c"]
        assert _ids(ds.unlabeled_samples) == ["b"]


class TestSampleValidation:
    """A sample checks its own id, score and features, naming itself."""

    @pytest.mark.parametrize(
        "score",
        ["abc", "1.5", True, 10**400, 1j, [1.0]],
        ids=["text", "numeric text", "bool", "huge int", "complex", "list"],
    )
    def test_score_must_be_a_finite_real(self, score):
        with pytest.raises(ConfigurationError, match="sample 'a': score"):
            FeatureSequence(np.zeros((2, 2)), "a", score)

    @pytest.mark.parametrize("score", [2, np.int64(-3), np.float32(0.5), np.float64(1.25)])
    def test_score_is_stored_as_a_float(self, score):
        sample = FeatureSequence(np.zeros((2, 2)), "a", score)
        assert type(sample.score) is float and sample.score == score

    @pytest.mark.parametrize("sample_id", [5, None, b"a"])
    def test_id_must_be_a_str(self, sample_id):
        with pytest.raises(ConfigurationError, match="sample id must be a str"):
            FeatureSequence(np.zeros((2, 2)), sample_id, 1.0)

    @pytest.mark.parametrize("sample_id, message", [
        ("a\nb", "sample 'a\\\\nb': id contains a newline"),
        ("\ud800", "sample '\\\\ud800': id is not UTF-8 encodable"),
        ("é" * 32768, "id too long, 65536 UTF-8 bytes"),
    ], ids=["newline", "lone surrogate", "65,536 bytes"])
    def test_id_that_no_file_can_hold_is_rejected(self, sample_id, message):
        # AQAF stores an id's UTF-8 length in two bytes; a memory file is lines
        with pytest.raises(ConfigurationError, match=message):
            FeatureSequence(np.zeros((2, 2)), sample_id, 1.0)

    def test_id_of_65535_bytes_is_accepted(self):
        assert FeatureSequence(np.zeros((2, 2)), "é" * 32767 + "a").sample_id.endswith("a")

    @pytest.mark.parametrize("features", [[["a", "b"]], [[1.0, 2.0], [3.0]], {"x": 1}])
    def test_unreadable_features_name_the_sample(self, features):
        with pytest.raises(ConfigurationError, match="sample 'a': features"):
            FeatureSequence(features, "a", 1.0)

    def test_wrong_rank_names_the_sample(self):
        with pytest.raises(DimensionError, match="sample 'a': features must be 2-D"):
            FeatureSequence(np.zeros(3), "a")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_name_the_sample(self, value):
        features = np.zeros((2, 3))
        features[1, 2] = value
        with pytest.raises(NonFiniteFeaturesError, match="sample 'a': features are not all finite"):
            FeatureSequence(features, "a", 1.0)


class TestFrozenSample:
    """A sample cannot change after it checked itself."""

    @pytest.mark.parametrize("name, value", [
        ("features", np.ones((2, 2))), ("sample_id", "b"), ("score", math.nan),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        sample = FeatureSequence(np.zeros((2, 2)), "a", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, name, value)
        assert sample.sample_id == "a" and sample.score == 1.0

    def test_features_cannot_be_written(self):
        sample = FeatureSequence(np.zeros((2, 2)), "a")
        with pytest.raises(ValueError, match="read-only"):
            sample.features[0, 0] = math.nan
        assert not sample.features.any()

    def test_float64_array_is_adopted_read_only(self):
        features = np.arange(6.0).reshape(2, 3)
        sample = FeatureSequence(features, "a")
        assert np.shares_memory(sample.features, features)
        assert not sample.features.flags.writeable

    @pytest.mark.parametrize(
        "features", [[[0.0, 1.0], [2.0, 3.0]], np.arange(4).reshape(2, 2)], ids=["list", "int"]
    )
    def test_other_features_are_converted(self, features):
        sample = FeatureSequence(features, "a")
        assert type(sample.features) is np.ndarray and sample.features.dtype == np.float64
        assert not sample.features.flags.writeable
        assert not np.shares_memory(sample.features, features)
        np.testing.assert_array_equal(sample.features, [[0.0, 1.0], [2.0, 3.0]])

    def test_samples_compare_by_identity(self):
        a = FeatureSequence(np.zeros((1, 1)), "a")
        b = FeatureSequence(np.zeros((1, 1)), "a")
        assert a == a and a != b and len({a, b}) == 2

    def test_synthetic_and_parsed_samples_are_read_only(self, tmp_path):
        dataset = generate_synthetic(SyntheticSpec(num_samples=20, t=3, d=4, seed=1))
        path = tmp_path / "ro.aqaf"
        save_features(dataset, path)
        for sample in dataset.samples + list(iter_features(path)):
            assert not sample.features.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                sample.features[0, 0] = 1.0


class _FullDisk:
    """A binary file whose writes fail with ``ENOSPC`` once ``room`` bytes
    were written."""

    def __init__(self, file, room):
        self.file, self.room = file, room

    def write(self, data):
        size = memoryview(data).nbytes
        if size > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= size
        return self.file.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def full_disk_open(room):
    """An ``open`` for ``trscore.data`` whose files hold ``room`` bytes."""
    return lambda *args, **kwargs: _FullDisk(open(*args, **kwargs), room)


def random_dataset(seed):
    gen = np.random.default_rng(seed)
    t = int(gen.integers(1, 6))
    d = int(gen.integers(1, 8))
    n = int(gen.integers(1, 20))
    samples = []
    for i in range(n):
        sample_id = f"v{i}-α{seed}" if i % 3 == 0 else f"v{i}"
        score = float(gen.normal()) if gen.random() < 0.6 else None
        samples.append(FeatureSequence(gen.normal(size=(t, d)), sample_id, score))
    return Dataset(samples)


class TestAqafRoundTrip:
    def test_bit_identical(self, tmp_path):
        for seed in range(20):
            ds = random_dataset(seed)
            path = tmp_path / f"rt{seed}.aqaf"
            save_features(ds, path)
            loaded = load_features(path)
            assert [s.sample_id for s in loaded.samples] == [s.sample_id for s in ds.samples]
            assert _ids(loaded.labeled_samples) == _ids(ds.labeled_samples)
            assert _ids(loaded.unlabeled_samples) == _ids(ds.unlabeled_samples)
            for a, b in zip(loaded.samples, ds.samples):
                assert a.score == b.score
                np.testing.assert_array_equal(a.features, b.features)

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
        if "\n" in sample_id:
            raise fail(f"sample {sample_id!r}: id contains a newline", id_offset)
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
        lambda: [(s.sample_id, s.score, s.features) for s in iter_features(path)]
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
            assert np.isfinite(s.features).all()
            assert s.score is None or np.isfinite(s.score)

    def test_a_newline_written_into_an_id_matches_the_reference(self, tmp_path):
        blob = bytearray(self._valid_bytes())
        assert blob[14:16] == b"v0"
        blob[14] = 0x0A  # the first byte of the first sample's id
        path = tmp_path / "newline.aqaf"
        path.write_bytes(bytes(blob))
        outcome = streamed_outcome(path)
        assert outcome[0] == "ParseError" and "id contains a newline" in outcome[1]
        assert outcome[2] == 12
        assert outcome == parse_outcome(lambda: reference_parse(bytes(blob), path))

    def test_every_truncation_matches_the_reference(self, tmp_path):
        samples = [
            FeatureSequence(np.arange(6.0).reshape(2, 3), "a", 1.5),
            FeatureSequence(-np.arange(6.0).reshape(2, 3), "bé", None),
            FeatureSequence(np.ones((2, 3)), "c", -2.0),
        ]
        path = tmp_path / "whole.aqaf"
        save_features(Dataset(samples), path)
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
            (b"a\nb", 0, (1, 1), 12, "id contains a newline"),
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
    def test_failed_write_leaves_no_file_behind(self, tmp_path, monkeypatch, existing):
        # each record takes 2 + 2 id bytes, 1 flag byte, 8 dimension bytes and
        # 8 feature bytes; the disk fills in the second one
        samples = [FeatureSequence(np.zeros((1, 1)), f"s{i}", None) for i in range(4)]
        path = tmp_path / "full.aqaf"
        if existing is not None:
            path.write_bytes(existing)
        monkeypatch.setattr(data_module, "open", full_disk_open(12 + 21), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_features(Dataset(samples), path)
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing
        assert sorted(os.listdir(tmp_path)) == ([] if existing is None else ["full.aqaf"])

    def test_a_save_to_a_long_file_name(self, tmp_path, monkeypatch):
        # 245 bytes: the file system allows 255, which leaves no room to build a
        # temporary name on this one
        path = tmp_path / ("n" * 240 + ".aqaf")
        save_features(random_dataset(0), path)
        assert _ids(load_features(path).samples) == _ids(random_dataset(0).samples)
        saved = path.read_bytes()
        monkeypatch.setattr(data_module, "open", full_disk_open(12 + 21), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_features(random_dataset(1), path)
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == [path.name]

    def test_a_save_through_a_symlink_replaces_its_target(self, tmp_path, monkeypatch):
        real, link = tmp_path / "real.aqaf", tmp_path / "link.aqaf"
        save_features(random_dataset(0), real)
        link.symlink_to(real)
        save_features(random_dataset(1), link)
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert _ids(load_features(real).samples) == _ids(random_dataset(1).samples)
        saved = real.read_bytes()
        monkeypatch.setattr(data_module, "open", full_disk_open(12 + 21), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_features(random_dataset(2), link)
        assert link.is_symlink() and real.read_bytes() == saved
        assert sorted(os.listdir(tmp_path)) == ["link.aqaf", "real.aqaf"]

    def test_a_save_through_a_symlink_to_a_device_writes_in_place(self, tmp_path, monkeypatch):
        link = tmp_path / "null.aqaf"
        link.symlink_to(os.devnull)
        opened = []

        def guarded(file, *args, **kwargs):
            # the device itself, or a file in tmp_path: never a new file beside the device
            beside = Path(file).parent.resolve() == tmp_path.resolve()
            assert str(file) == os.devnull or beside, file
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data_module, "open", guarded, raising=False)
        save_features(random_dataset(0), link)
        assert opened == [os.devnull]
        assert link.is_symlink() and os.listdir(tmp_path) == ["null.aqaf"]

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
        assert len(ds.labeled_samples) == 1 and len(ds.unlabeled_samples) == 1
        first = ds.samples[0]
        assert first.sample_id == "dive1"
        assert first.score == 7.5
        np.testing.assert_array_equal(first.features, features_a)
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
        assert loaded.samples[0].features[1, 0] == 0.0

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_features_are_never_saved(self, tmp_path, value):
        path = tmp_path / "never.aqaf"
        with pytest.raises(NonFiniteFeaturesError, match="sample 'a'"):
            save_features(Dataset([FeatureSequence(np.array([[1.0, value]]), "a", 1.0)]), path)
        assert os.listdir(tmp_path) == []

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
