"""Spearman-metric and evaluation-path tests."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trscore import evaluation
from trscore.autodiff import no_grad
from trscore.data import SyntheticSpec, generate_synthetic
from trscore.errors import (
    ContractError,
    DimensionError,
    MetricUndefinedError,
    ParseError,
)
from trscore.evaluation import PredictionRow, evaluate, spearman, write_predictions_csv
from trscore.networks import (
    FeatureSequence,
    NetworkArch,
    init_teacher_params,
    teacher_forward,
)


class TestSpearman:
    def test_perfect_agreement(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inversion(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MetricUndefinedError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(MetricUndefinedError):
            spearman([1.0], [2.0])

    def test_constant_series(self):
        with pytest.raises(MetricUndefinedError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(MetricUndefinedError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_nan_in_either_series_rejected(self):
        with pytest.raises(MetricUndefinedError, match="NaN"):
            spearman([1, 2, np.nan, 4], [1, 2, 3, 4])
        with pytest.raises(MetricUndefinedError, match="NaN"):
            spearman([1, 2, 3, 4], [np.nan] * 4)
        assert spearman([1, 2, np.inf, 4], [1, 2, 3, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_ties_get_average_ranks(self):
        # with y tied in the middle, agreement is partial and symmetric
        assert spearman([1, 2, 3, 4], [1, 2, 2, 3]) == pytest.approx(
            stats.spearmanr([1, 2, 3, 4], [1, 2, 2, 3]).statistic, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 40))
    def test_matches_scipy_with_ties(self, seed, n):
        gen = np.random.default_rng(seed)
        x = gen.integers(0, 6, n).astype(float)  # many ties
        y = gen.normal(size=n)
        if np.all(x == x[0]):
            return
        assert spearman(x, y) == pytest.approx(
            float(stats.spearmanr(x, y).statistic), abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_monotone_transforms(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=12)
        y = gen.normal(size=12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-12)
        assert spearman(np.tanh(x / 10), y) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetry(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=9)
        y = gen.normal(size=9)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)


def labeled_samples(n, t=4, d=8, seed=0):
    ds = generate_synthetic(
        SyntheticSpec(num_samples=n, t=t, d=d, label_fraction=1.0, noise_std=0.2, seed=seed)
    )
    return ds.samples


class TestEvaluate:
    def test_single_sample_metric_undefined(self):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        with pytest.raises(MetricUndefinedError):
            evaluate(params, labeled_samples(1))

    def test_unlabeled_sample_rejected(self):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        bad = [FeatureSequence(np.zeros((4, 8)), "u", None)]
        with pytest.raises(ContractError):
            evaluate(params, bad)

    @pytest.mark.parametrize("t", [4, 5])
    def test_sample_of_another_shape_rejected(self, t):
        # a set of mixed shapes, and a set whose shape is not the network's
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(3, t=t) + [FeatureSequence(np.zeros((6, 8)), "odd", 1.0)]
        first_bad = samples[-1] if t == 4 else samples[0]
        with pytest.raises(DimensionError, match=repr(first_bad.sample_id)):
            evaluate(params, samples)

    def test_memorizing_network_scores_one(self):
        # a network whose predictions happen to order five samples exactly as
        # their labels do yields rho == 1; steal predictions as labels
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(1))
        samples = labeled_samples(5, seed=2)
        relabeled = [
            FeatureSequence(
                s.features, s.sample_id, teacher_forward(params, s.features).mu_value
            )
            for s in samples
        ]
        rho, rows = evaluate(params, relabeled)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert len(rows) == 5

    def test_untrained_network_near_zero_correlation(self):
        samples = labeled_samples(200, t=10, d=64, seed=3)
        for seed in range(5):
            params = init_teacher_params(NetworkArch(10, 64), np.random.default_rng(seed))
            rho, _ = evaluate(params, samples)
            assert abs(rho) < 0.3

    def test_diverged_network_metric_undefined(self):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        params.params["head.bias"].array[...] = [np.nan, 0.0]
        with pytest.raises(MetricUndefinedError, match="NaN"):
            evaluate(params, labeled_samples(5))

    def test_streams_its_input_one_chunk_at_a_time(self, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(2))
        samples = labeled_samples(600, seed=4)
        drawn, forwards = [], []

        def stream():
            for s in samples:
                drawn.append(s)
                yield s

        scored = evaluation._forward

        def forward(net, x):
            # never more than one chunk has been drawn beyond those scored
            forwards.append(len(drawn))
            assert len(drawn) <= 256 * len(forwards)
            return scored(net, x)

        monkeypatch.setattr(evaluation, "_forward", forward)
        streamed = evaluate(params, stream())
        monkeypatch.undo()
        assert forwards == [256, 512, 600]
        assert streamed == evaluate(params, samples)

    def test_never_mutates_parameters(self):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(4))
        version = params.params.version
        values = {n: p.array.copy() for n, p in params.params.items()}
        evaluate(params, labeled_samples(10, seed=5))
        assert params.params.version == version
        for n, p in params.params.items():
            np.testing.assert_array_equal(p.array, values[n])

    def test_prediction_rows_and_csv(self, tmp_path):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(6))
        samples = labeled_samples(6, seed=7)
        rho, rows = evaluate(params, samples)
        assert [r.sample_id for r in rows] == [s.sample_id for s in samples]
        assert all(r.sigma > 0 for r in rows)
        path = tmp_path / "pred.csv"
        write_predictions_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,truth,mu,sigma"
        assert len(lines) == 7


def per_chunk_reference(params, samples):
    """Spearman and rows from one ``teacher_forward`` per 256-sample chunk."""
    mus, sigmas = [], []
    with no_grad():
        for start in range(0, len(samples), 256):
            chunk = samples[start:start + 256]
            pred = teacher_forward(params, np.stack([s.features for s in chunk]))
            mus.extend(pred.mu_values.tolist())
            sigmas.extend(pred.sigma_values.tolist())
    truths = [s.score for s in samples]
    rows = [
        PredictionRow(s.sample_id, truth, mu, sigma)
        for s, truth, mu, sigma in zip(samples, truths, mus, sigmas)
    ]
    return spearman(truths, mus), rows


def bits(rows):
    return [(r.sample_id, r.truth.hex(), r.mu.hex(), r.sigma.hex()) for r in rows]


class TestTwoThreadEncoding:
    """``evaluate`` encodes the halves of a chunk of at least 128 samples on
    two threads and gives the bits of one ``teacher_forward`` per chunk."""

    @pytest.mark.parametrize("t,d", [(10, 64), (7, 5)])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
    def test_equals_one_teacher_forward_per_chunk(self, n, t, d):
        params = init_teacher_params(NetworkArch(t, d), np.random.default_rng(n))
        samples = labeled_samples(n, t=t, d=d, seed=n)
        if n < 2:
            with pytest.raises(MetricUndefinedError):
                evaluate(params, samples)
            return
        rho, rows = evaluate(params, samples)
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        assert rho.hex() == expected_rho.hex()
        assert bits(rows) == bits(expected_rows)

    def test_halves_run_on_two_threads_from_the_split_size(self, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        caller = threading.get_ident()
        passes = []

        def recording(forward):
            def record(net, x):
                passes.append((x.shape[0], threading.get_ident() == caller))
                return forward(net, x)
            return record

        for name in ("mixer_forward", "teacher_forward"):
            monkeypatch.setattr(evaluation, name, recording(getattr(evaluation, name)))
        # chunks of 256 and 129 split into halves, the first on the helper
        evaluate(params, labeled_samples(385, seed=1))
        assert sorted(passes) == [(64, False), (65, True), (128, False), (128, True)]
        passes.clear()
        evaluate(params, labeled_samples(127, seed=1))
        assert passes == [(127, True)]

    def test_neither_half_records_a_graph(self, monkeypatch):
        # ``no_grad`` holds per thread, so the helper must inherit the caller's
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        encode = evaluation.mixer_forward
        recorded = []

        def recording(net, x):
            out = encode(net, x)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(evaluation, "mixer_forward", recording)
        evaluate(params, labeled_samples(256, seed=1))
        assert recorded == [False, False]

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_an_error_in_either_half_keeps_its_type_and_text(self, monkeypatch, failing):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(300, seed=2)
        first_half = samples[0].features.tobytes()
        encode = evaluation.mixer_forward
        errors = {"first": ("bad first half", 7), "second": ("bad second half", 9)}

        def failing_half(net, x):
            half = "first" if x.array[0].tobytes() == first_half else "second"
            if failing in (half, "both"):
                raise ParseError(*errors[half])
            return encode(net, x)

        monkeypatch.setattr(evaluation, "mixer_forward", failing_half)
        before = threading.active_count()
        with pytest.raises(ParseError) as caught:
            evaluate(params, samples)
        assert threading.active_count() == before
        # when both halves fail, the first half's error is the one raised
        message, offset = errors["second" if failing == "second" else "first"]
        assert str(caught.value) == f"{message} (byte offset {offset})"
        assert caught.value.offset == offset

    def test_no_thread_outlives_the_call(self):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(600, seed=3)
        before = threading.active_count()
        evaluate(params, samples)
        assert threading.active_count() == before
        bad = samples[:300] + [FeatureSequence(np.zeros((5, 8)), "odd", 1.0)]
        with pytest.raises(DimensionError):
            evaluate(params, bad)
        assert threading.active_count() == before

    @pytest.mark.parametrize("row", [0, 127, 128, 255])
    def test_callers_errstate_holds_in_either_half(self, row):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(256, seed=4)
        huge = samples[row].features.copy()
        huge[0, 0] = 1e300
        samples[row] = FeatureSequence(huge, samples[row].sample_id, samples[row].score)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            evaluate(params, samples)


class TestPredictionsCsv:
    def test_ids_needing_quotes_read_back_with_csv_reader(self, tmp_path):
        import csv

        ids = ["plain", "clip,7", 'say "hi"', "cr\rinside", "two\nlines", ""]
        rows = [PredictionRow(sample_id, i + 0.5, i * 0.1, 1.0 + i) for i, sample_id in enumerate(ids)]
        path = tmp_path / "pred.csv"
        write_predictions_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["sample_id", "truth", "mu", "sigma"]
        assert [r[0] for r in table[1:]] == ids
        for row, read in zip(rows, table[1:]):
            assert [float(v) for v in read[1:]] == [row.truth, row.mu, row.sigma]
        blob = path.read_bytes()
        assert b"\r\n" not in blob.replace(b"cr\rinside", b"")
        assert blob.endswith(b"\n")
        # an id that needs no quoting keeps the unquoted row
        assert b"\nplain,0.5,0.0,1.0\n" in blob
        assert b'\n"clip,7",1.5,' in blob and b'\n"say ""hi""",2.5,' in blob
