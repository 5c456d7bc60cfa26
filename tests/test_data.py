"""Synthetic-task and AQAF-format tests."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.autodiff import Tensor
from trscore.data import (
    AQAF_MAGIC,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
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
            try:
                loaded = load_features(path)
            except ParseError:
                return
        for s in loaded.samples:
            assert np.isfinite(s.features.array).all()
            assert s.score is None or np.isfinite(s.score)

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

    def test_id_over_65535_bytes_rejected_on_save(self, tmp_path):
        seq = FeatureSequence(Tensor(np.zeros((1, 1))), "é" * 32768, None)
        dataset = Dataset([seq], set(), {seq.sample_id}, (0.0, 1.0))
        with pytest.raises(ConfigurationError, match="too long"):
            save_features(dataset, tmp_path / "long.aqaf")
        assert not (tmp_path / "long.aqaf").exists()

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
