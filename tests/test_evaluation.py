"""Spearman-metric and evaluation-path tests."""

import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trscore import evaluation, workers
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

    def test_streams_its_input_a_few_chunks_ahead(self, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(2))
        samples = labeled_samples(2100, seed=4)
        drawn, ahead = [], []
        scored = {"here": 0, "scorer": 0}

        def stream():
            for s in samples:
                drawn.append(s)
                # chunks drawn beyond the scored ones, this one included
                ahead.append(-(-len(drawn) // 256) - scored["here"] - scored["scorer"])
                yield s

        count_chunks(monkeypatch, scored, delay=0.02)
        rho, rows = evaluate(params, stream())
        assert len(worker_pids) == 1
        assert scored["here"] + scored["scorer"] == 9 and scored["scorer"] > 0
        # never more than ``_SLOTS`` + 1 chunks drawn beyond those scored
        assert max(ahead) == evaluation._SLOTS + 1
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        assert rho.hex() == expected_rho.hex()
        assert bits(rows) == bits(expected_rows)

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


PARENT = os.getpid()


def in_scorer() -> bool:
    return os.getpid() != PARENT


def count_chunks(monkeypatch, scored, delay=0.0):
    """Count in ``scored`` the chunks scored in this process ("here") and the
    replies of the forked scorer ("scorer"); the scorer sleeps ``delay``
    seconds before each chunk, so that this process scores some too."""
    forward = evaluation.teacher_forward
    reply = workers._Worker.reply

    def counted_forward(net, x):
        if in_scorer():
            time.sleep(delay)
        else:
            scored["here"] += 1
        return forward(net, x)

    def counted_reply(self):
        done = reply(self)
        scored["scorer"] += 1
        return done

    monkeypatch.setattr(evaluation, "teacher_forward", counted_forward)
    monkeypatch.setattr(workers._Worker, "reply", counted_reply)


def wait_for_the_end(exchange, inbox, outbox):
    """A worker that does nothing until its parent stops it."""
    inbox.recv()


def make_the_scorer_raise(monkeypatch, error):
    """The forked scorer raises ``error`` at its first chunk."""
    forward = evaluation.teacher_forward

    def failing(net, x):
        if in_scorer():
            raise error
        return forward(net, x)

    monkeypatch.setattr(evaluation, "teacher_forward", failing)


class TestForkedScorer:
    """A stream of at least four full chunks is scored by a forked scorer and
    this process together, with the bits of one ``teacher_forward`` per
    chunk; no scorer outlives the call."""

    @pytest.mark.parametrize("t,d", [(10, 64), (7, 5)])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 768, 769, 1023, 1024, 1025, 1800])
    def test_equals_one_teacher_forward_per_chunk(self, n, t, d, worker_pids):
        params = init_teacher_params(NetworkArch(t, d), np.random.default_rng(n))
        samples = labeled_samples(n, t=t, d=d, seed=n)
        if n < 2:
            with pytest.raises(MetricUndefinedError):
                evaluate(params, samples)
            return
        rho, rows = evaluate(params, samples)
        assert len(worker_pids) == (1 if n >= 1024 else 0)
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        assert rho.hex() == expected_rho.hex()
        assert bits(rows) == bits(expected_rows)

    @pytest.mark.parametrize("t,d", [(10, 64), (7, 5)])
    def test_equals_it_when_both_processes_score_chunks(self, t, d, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(t, d), np.random.default_rng(0))
        samples = labeled_samples(2000, t=t, d=d, seed=1)
        scored = {"here": 0, "scorer": 0}
        count_chunks(monkeypatch, scored, delay=0.05)
        rho, rows = evaluate(params, samples)
        assert len(worker_pids) == 1
        assert scored["here"] > 0 and scored["scorer"] >= evaluation._SLOTS
        assert scored["here"] + scored["scorer"] == 8
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        assert rho.hex() == expected_rho.hex()
        assert bits(rows) == bits(expected_rows)

    def test_where_the_chunks_are_scored(self, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        scored = {"here": 0, "scorer": 0}
        count_chunks(monkeypatch, scored)
        # fewer than four full chunks: each a ``teacher_forward`` in this process
        evaluate(params, labeled_samples(768, seed=1))
        assert scored == {"here": 3, "scorer": 0} and worker_pids == []
        scored.update(here=0, scorer=0)
        evaluate(params, labeled_samples(1000, seed=1))
        assert scored == {"here": 4, "scorer": 0} and worker_pids == []
        # more: the first three go to the slots, free when the scorer starts
        scored.update(here=0, scorer=0)
        evaluate(params, labeled_samples(1100, seed=1))
        assert scored["scorer"] >= 3 and scored["here"] + scored["scorer"] == 5
        assert len(worker_pids) == 1

    def test_the_scorer_records_no_graph(self, worker_pids, monkeypatch):
        # ``no_grad`` is per context; the scorer is forked inside the call's
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        forward = evaluation.teacher_forward

        def reporting(net, x):
            pred = forward(net, x)
            if in_scorer():
                raise ContractError(f"requires_grad={pred.mu.requires_grad}")
            return pred

        monkeypatch.setattr(evaluation, "teacher_forward", reporting)
        with pytest.raises(ContractError, match="^requires_grad=False$"):
            evaluate(params, labeled_samples(1025, seed=1))
        assert len(worker_pids) == 1

    @pytest.mark.parametrize("row", [0, 255, 300, 700])
    def test_callers_errstate_holds_in_the_scorer(self, row, worker_pids):
        # rows in the first three chunks, which always go to the scorer
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(1025, seed=4)
        huge = samples[row].features.copy()
        huge[0, 0] = 1e300
        samples[row] = FeatureSequence(huge, samples[row].sample_id, samples[row].score)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            evaluate(params, samples)
        assert len(worker_pids) == 1

    def test_a_scorer_error_keeps_its_type_text_and_attributes(self, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        make_the_scorer_raise(monkeypatch, ParseError("bad chunk", 7))
        with pytest.raises(ParseError) as caught:
            evaluate(params, labeled_samples(1025, seed=2))
        assert str(caught.value) == "bad chunk (byte offset 7)"
        assert caught.value.offset == 7
        assert len(worker_pids) == 1

    def test_errors_surface_in_chunk_order(self, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(1600, seed=3)
        samples[1500] = FeatureSequence(np.zeros((5, 8)), "odd", 1.0)
        # the scorer fails at chunk 0, handed over before chunk 5 is checked
        make_the_scorer_raise(monkeypatch, ParseError("bad chunk", 7))
        with pytest.raises(ParseError, match="bad chunk"):
            evaluate(params, samples)
        # a chunk scored here before a stream drawn ahead fails (chunk 2)
        monkeypatch.setattr(evaluation, "teacher_forward", teacher_forward)
        huge = samples[0].features.copy()
        huge[0, 0] = 1e300
        samples[0] = FeatureSequence(huge, samples[0].sample_id, samples[0].score)
        samples[600] = FeatureSequence(np.zeros((5, 8)), "odd", 1.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            evaluate(params, samples)
        assert len(worker_pids) == 1

    @pytest.mark.parametrize("fault", [
        None, "dimension", "stream", "scorer", "interrupt",
    ])
    def test_no_process_outlives_the_call(self, fault, worker_pids, monkeypatch):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(2000, seed=3)

        def stream():
            for i, s in enumerate(samples):
                if i == 1500 and fault == "stream":
                    raise ParseError("truncated", 99)
                if i == 1500 and fault == "interrupt":
                    raise KeyboardInterrupt
                yield s

        if fault == "dimension":
            samples[1500] = FeatureSequence(np.zeros((5, 8)), "odd", 1.0)
        if fault == "scorer":
            make_the_scorer_raise(monkeypatch, ParseError("bad chunk", 7))
        expected = {None: None, "dimension": DimensionError, "stream": ParseError,
                    "scorer": ParseError, "interrupt": KeyboardInterrupt}[fault]
        if expected is None:
            evaluate(params, stream())
        else:
            with pytest.raises(expected):
                evaluate(params, stream())
        assert len(worker_pids) == 1  # gone: the fixture checks it

    def test_a_daemonic_caller_scores_in_its_own_process(self, worker_pids):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(1025, seed=5)
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def daemon_body():
            rho, rows = evaluate(params, samples)
            send.send((len(worker_pids), rho.hex(), bits(rows)))

        daemon = context.Process(target=daemon_body, daemon=True)
        daemon.start()
        started, rho, rows = receive.recv()
        daemon.join()
        assert started == 0
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        assert rho == expected_rho.hex() and rows == bits(expected_rows)

    def test_a_call_beside_a_running_worker_scores_in_its_own_process(self, worker_pids):
        params = init_teacher_params(NetworkArch(4, 8), np.random.default_rng(0))
        samples = labeled_samples(evaluation._FORK_FROM, seed=6)
        expected_rho, expected_rows = per_chunk_reference(params, samples)
        with workers._Worker("unrelated", workers._Exchange(x=1), wait_for_the_end, ()):
            rho, rows = evaluate(params, samples)
            assert len(worker_pids) == 1  # the unrelated worker alone
        assert rho.hex() == expected_rho.hex() and bits(rows) == bits(expected_rows)
        rho, rows = evaluate(params, samples)
        assert len(worker_pids) == 2  # and now a scorer
        assert rho.hex() == expected_rho.hex() and bits(rows) == bits(expected_rows)


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
