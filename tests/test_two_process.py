"""``train`` in two processes, and ``train_supervised`` with a forked
validator: bit-identical to the one-process epochs, and no worker outlives a
call, whether it returns or raises."""

import importlib.util
import math
import multiprocessing
import os
import signal
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from trscore import cli, evaluation, training, workers
from trscore.data import SyntheticSpec, generate_synthetic
from trscore.errors import (
    DivergenceError,
    DomainError,
    MetricUndefinedError,
    ParseError,
    TrscoreError,
    WorkerError,
)
from trscore.evaluation import evaluate
from trscore.networks import NetworkArch
from trscore.objectives import beta_at

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("digest_grid", ROOT / "tools" / "digest_grid.py")
digest_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_grid)

PARENT = os.getpid()
SMALL = "t4d8-wrap-b4"  # wraps the unlabeled pass, and its last batch has one sample


def _in_worker() -> bool:
    return os.getpid() != PARENT


def _in_one_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def _sets(shape: str):
    spec, settings = digest_grid.SHAPES[shape]
    dataset = generate_synthetic(SyntheticSpec(**spec))
    return dataset.labeled_samples, dataset.unlabeled_samples, training.TrainConfig(**settings)


def _lockstep(config, labeled, unlabeled):
    """The epochs of ``train`` one by one in this process, validated on the
    labeled set as ``train`` does without a validation set."""
    state = training.init_state(config, NetworkArch(*labeled[0].features.shape))
    rows = []
    for epoch in range(config.max_epochs):
        if epoch < config.burn_in_epochs:
            row = training.burn_in_epoch(state, labeled, config)
        else:
            if epoch == config.burn_in_epochs:
                training.initialize_student(state, config)
            beta = beta_at(epoch, config.beta_peak)
            row = training.trs_epoch(state, labeled, unlabeled, beta, config)
        rho = math.nan
        if state.theta_s is not None:
            try:
                rho, _ = evaluate(state.theta_s, labeled)
            except MetricUndefinedError:
                pass
        rows.append(replace(row, val_spearman=rho))
    return state, rows


def _trained(config, labeled, unlabeled, monkeypatch, tmp_path):
    """``train``'s rows and its final state, taken where it is checkpointed."""
    seen = {}
    monkeypatch.setattr(training, "save_checkpoint", lambda d, state, c: seen.update(state=state))
    _, _, rows = training.train(config, labeled, unlabeled, checkpoint_dir=tmp_path)
    return seen["state"], rows


def _assert_same_state(ours, theirs):
    assert ours.epoch == theirs.epoch
    for net in ("theta_t", "theta_s", "theta_f"):
        mine, other = getattr(ours, net).params, getattr(theirs, net).params
        assert np.array_equal(mine.data, other.data) and mine.version == other.version, net
    for memory in ("m_t", "m_r"):
        # entries in insertion order: score, sigma and the epoch written
        assert list(getattr(ours, memory).entries.items()) == list(
            getattr(theirs, memory).entries.items()
        ), memory
    for opt in ("opt_trained", "opt_reference"):
        mine, other = getattr(ours, opt), getattr(theirs, opt)
        assert np.array_equal(mine._m, other._m) and np.array_equal(mine._v, other._v), opt


@pytest.mark.parametrize("shape", list(digest_grid.SHAPES))
@pytest.mark.parametrize("case", [name for name, _ in cli.ABLATION_GRID])
def test_two_processes_equal_the_lockstep_epochs(shape, case, worker_pids, monkeypatch, tmp_path):
    labeled, unlabeled, config = _sets(shape)
    config = replace(config, component_toggles=dict(cli.ABLATION_GRID)[case])
    state, rows = _trained(config, labeled, unlabeled, monkeypatch, tmp_path)
    assert len(worker_pids) == 1
    lock_state, lock_rows = _lockstep(config, labeled, unlabeled)
    assert np.array_equal(
        np.array([astuple(r) for r in rows]), np.array([astuple(r) for r in lock_rows]),
        equal_nan=True,
    )
    training.write_metrics_csv(rows, tmp_path / "ours.csv")
    training.write_metrics_csv(lock_rows, tmp_path / "lockstep.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "lockstep.csv").read_bytes()
    _assert_same_state(state, lock_state)


def _lockstep_error(config, labeled, unlabeled) -> TrscoreError:
    with pytest.raises(TrscoreError) as caught:
        _lockstep(config, labeled, unlabeled)
    return caught.value


def _student_hook(monkeypatch, action):
    """Run ``action(state)`` right after every ``initialize_student``."""
    real = training.initialize_student

    def hooked(state, config):
        real(state, config)
        action(state)
        return state

    monkeypatch.setattr(training, "initialize_student", hooked)


def test_nan_student_head_raises_the_lockstep_text(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)

    def poison(state):
        state.theta_s.params["head.weight"].array[...] = np.nan

    _student_hook(monkeypatch, poison)
    expected = _lockstep_error(config, labeled, unlabeled)
    assert isinstance(expected, DivergenceError)
    assert str(expected).startswith(
        f"epoch {config.burn_in_epochs}, batch 0: non-finite l_reg_s, l_unsup; "
    )
    with pytest.raises(DivergenceError) as caught:
        training.train(config, labeled, unlabeled)
    assert str(caught.value) == str(expected)
    assert worker_pids


def test_infinite_reference_bias_raises_the_lockstep_text(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)

    def poison(state):
        state.theta_f.params["head.bias"].array[...] = np.inf

    _student_hook(monkeypatch, poison)
    expected = _lockstep_error(config, labeled, unlabeled)
    assert str(expected).startswith(
        f"epoch {config.burn_in_epochs}, batch 0: non-finite l_reg_r, l_unsup; "
    )
    with pytest.raises(DivergenceError) as caught:
        training.train(config, labeled, unlabeled)
    assert str(caught.value) == str(expected)


def test_a_worker_error_comes_back_as_its_own_type(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)
    real = training.teacher_forward

    def faulty(net, x):
        if _in_worker():
            raise ParseError("a fault made in the worker", 17)
        return real(net, x)

    monkeypatch.setattr(training, "teacher_forward", faulty)
    with pytest.raises(ParseError) as caught:
        training.train(config, labeled, unlabeled)
    assert type(caught.value) is ParseError
    assert str(caught.value) == "a fault made in the worker (byte offset 17)"
    assert caught.value.offset == 17


def test_cli_train_exits_2_on_a_worker_error(worker_pids, monkeypatch, tmp_path, capsys):
    from trscore.errors import DomainError

    data = tmp_path / "train.aqaf"
    assert cli.main(["synth", "--n", "20", "--t", "3", "--d", "4", "--label-frac", "0.5",
                     "--seed", "2", "-o", str(data)]) == 0
    real = training.Adam.step

    def faulty(self):
        if _in_worker():
            raise DomainError("a fault made in the worker")
        real(self)

    monkeypatch.setattr(training.Adam, "step", faulty)
    capsys.readouterr()
    code = cli.main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
                     "--epochs", "4", "--burn-in", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: a fault made in the worker\n"


def test_validation_scores_in_this_process_however_large(worker_pids):
    # more chunks than ``evaluate`` scores without forking a scorer
    labeled, unlabeled, config = _sets(SMALL)
    spec, _ = digest_grid.SHAPES[SMALL]
    n = evaluation._FORK_FROM
    val = generate_synthetic(
        SyntheticSpec(**{**spec, "num_samples": n, "label_fraction": 1.0}), split="val"
    ).samples
    _, student, rows = training.train(config, labeled, unlabeled, val_set=val)
    assert len(worker_pids) == 1  # the training worker alone
    assert all(math.isfinite(r.val_spearman) for r in rows[config.burn_in_epochs:])
    # the same set does fork a scorer in a library ``evaluate``
    rho, _ = evaluate(student, val)
    assert len(worker_pids) == 2
    assert rho == rows[-1].val_spearman


class _Alarm(Exception):
    pass


def test_a_killed_worker_raises_promptly(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)

    def kill_worker(state):
        if _in_worker():
            os.kill(os.getpid(), signal.SIGKILL)

    _student_hook(monkeypatch, kill_worker)

    def alarm(signum, frame):
        raise _Alarm("train() still waits for a dead worker")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(60)
    try:
        with pytest.raises(WorkerError, match="exit code -9"):
            training.train(config, labeled, unlabeled)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_error_in_this_process_ends_the_worker(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)
    real = training._safe_val_spearman

    def faulty(net, val):
        if net is not None:
            raise KeyboardInterrupt
        return real(net, val)

    monkeypatch.setattr(training, "_safe_val_spearman", faulty)
    with pytest.raises(KeyboardInterrupt) as caught:
        training.train(config, labeled, unlabeled)
    # gone while the exception, and with it every frame of the call, is held
    assert workers._Worker.running == 0
    with pytest.raises(ProcessLookupError):
        os.kill(worker_pids[0], 0)
    assert caught.value is not None


@pytest.mark.parametrize("why", ["no fork", "daemonic"])
def test_one_process_where_no_worker_can_be_forked(why, worker_pids, monkeypatch, tmp_path):
    labeled, unlabeled, config = _sets(SMALL)
    forked_state, forked_rows = _trained(config, labeled, unlabeled, monkeypatch, tmp_path)
    assert len(worker_pids) == 1
    if why == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    state, rows = _trained(config, labeled, unlabeled, monkeypatch, tmp_path)
    assert len(worker_pids) == 1  # no second worker
    assert [astuple(r)[:-1] for r in rows] == [astuple(r)[:-1] for r in forked_rows]
    assert np.array_equal(
        [r.val_spearman for r in rows], [r.val_spearman for r in forked_rows], equal_nan=True
    )
    _assert_same_state(state, forked_state)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(5, 20),
    label_fraction=st.floats(0.1, 1.0),
    t=st.integers(1, 4),
    d=st.integers(1, 6),
    batch=st.integers(1, 16),
    burn_in=st.integers(1, 3),
    trs=st.integers(1, 4),
    toggles=st.builds(training.ComponentToggles, st.booleans(), st.booleans(), st.booleans()),
    seed=st.integers(0, 1000),
)
def test_forked_train_equals_one_process(
    n, label_fraction, t, d, batch, burn_in, trs, toggles, seed, worker_pids, tmp_path
):
    assume(round(n * label_fraction) >= 1)
    dataset = generate_synthetic(SyntheticSpec(n, t, d, label_fraction, 0.5, seed))
    labeled, unlabeled = dataset.labeled_samples, dataset.unlabeled_samples
    config = training.TrainConfig(
        burn_in_epochs=burn_in, max_epochs=burn_in + trs, learning_rate=1e-3, seed=seed,
        batch_size=batch, component_toggles=toggles,
    )
    started = len(worker_pids)
    with pytest.MonkeyPatch.context() as patch:
        forked_state, forked_rows = _trained(config, labeled, unlabeled, patch, tmp_path)
        assert len(worker_pids) == started + 1
        with pytest.raises(ProcessLookupError):
            os.kill(worker_pids[-1], 0)
        _in_one_process(patch)
        state, rows = _trained(config, labeled, unlabeled, patch, tmp_path)
    assert len(worker_pids) == started + 1  # no second worker
    assert np.array_equal(
        np.array([astuple(r) for r in rows]), np.array([astuple(r) for r in forked_rows]),
        equal_nan=True,
    )
    _assert_same_state(state, forked_state)


def test_a_slow_parent_gives_the_one_process_bits(worker_pids, monkeypatch, tmp_path):
    # the parent writes each TRS epoch's strong views one epoch ahead; made
    # slow there, it lets the worker reach epoch e + 1 before they are written
    labeled, unlabeled, config = _sets(SMALL)
    assert (len(labeled), len(unlabeled), len(labeled) % config.batch_size) == (21, 9, 1)
    real = training._augmented_stack

    def slow(samples, strength, epoch, config):
        time.sleep(0.005)
        return real(samples, strength, epoch, config)

    monkeypatch.setattr(training, "_augmented_stack", slow)

    def alarm(signum, frame):
        raise _Alarm("the worker and this process wait for each other")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(60)
    try:
        forked_state, forked_rows = _trained(config, labeled, unlabeled, monkeypatch, tmp_path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(worker_pids) == 1
    _in_one_process(monkeypatch)
    state, rows = _trained(config, labeled, unlabeled, monkeypatch, tmp_path)
    assert len(worker_pids) == 1  # no second worker
    assert np.array_equal(
        np.array([astuple(r) for r in rows]), np.array([astuple(r) for r in forked_rows]),
        equal_nan=True,
    )
    _assert_same_state(state, forked_state)


def test_the_worker_makes_no_views(worker_pids, monkeypatch):
    labeled, unlabeled, config = _sets(SMALL)
    real = training.augment
    made = []

    def here_only(*args):
        if _in_worker():
            raise AssertionError("the worker made a view")
        made.append(args[1])
        return real(*args)

    monkeypatch.setattr(training, "augment", here_only)
    training.train(config, labeled, unlabeled)
    assert len(worker_pids) == 1
    trs_epochs = config.max_epochs - config.burn_in_epochs
    assert made.count("strong") == made.count("weak") == trs_epochs * len(labeled)


class _TwoArgs(Exception):
    """Pickles, but pickle cannot rebuild it: ``args`` holds the message only."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fault_in(monkeypatch, where: str, error: Exception):
    """Make ``train``'s worker or ``train_supervised``'s validator raise
    ``error``; returns the call that runs it."""
    labeled, unlabeled, config = _sets(SMALL)
    if where == "validation":
        def faulty(net, val):
            if _in_worker():
                raise error
            raise AssertionError("validation ran in the parent")

        monkeypatch.setattr(training, "_safe_val_spearman", faulty)
        return lambda: training.train_supervised(config, labeled)
    real = training.teacher_forward

    def faulty(net, x):
        if _in_worker():
            raise error
        return real(net, x)

    monkeypatch.setattr(training, "teacher_forward", faulty)
    return lambda: training.train(config, labeled, unlabeled)


@pytest.mark.parametrize("where", ["training", "validation"])
@pytest.mark.parametrize("error", [
    FloatingPointError("overflow encountered in exp"),
    ParseError("a fault made in the worker", 17),
], ids=["FloatingPointError", "ParseError"])
def test_any_worker_error_comes_back_as_itself(where, error, worker_pids, monkeypatch):
    # as in one process: errstate's FloatingPointError is no package error
    run = _fault_in(monkeypatch, where, error)
    with pytest.raises(type(error)) as caught:
        run()
    assert type(caught.value) is type(error)
    assert str(caught.value) == str(error)
    assert caught.value.args == error.args and vars(caught.value) == vars(error)
    assert len(worker_pids) == 1


@pytest.mark.parametrize("where", ["training", "validation"])
@pytest.mark.parametrize("kind", ["local class", "no rebuild"])
def test_an_unpicklable_worker_error_becomes_a_worker_error(
    where, kind, worker_pids, monkeypatch
):
    class Local(Exception):
        pass

    error = Local("a local fault") if kind == "local class" else _TwoArgs("a coded fault", 3)
    run = _fault_in(monkeypatch, where, error)
    with pytest.raises(WorkerError) as caught:
        run()
    assert str(caught.value) == f"the {where} worker raised {type(error).__name__}: {error}"
    assert len(worker_pids) == 1


# -- train_supervised's forked validator --------------------------------------


def _held_out(shape: str, n: int = 150):
    spec, _ = digest_grid.SHAPES[shape]
    spec = {**spec, "num_samples": n, "label_fraction": 1.0}
    return generate_synthetic(SyntheticSpec(**spec), split="held-out").samples


def _validation_set(shape: str, which: str):
    return {"default": None, "explicit": _held_out(shape), "empty": []}[which]


def _supervised_outputs(config, labeled, val, path):
    """The metrics CSV bytes, the rows and the student's arena of one call."""
    student, rows = training.train_supervised(config, labeled, val)
    training.write_metrics_csv(rows, path)
    return path.read_bytes(), rows, student.params.data.copy()


@pytest.mark.parametrize("shape", list(digest_grid.SHAPES))
@pytest.mark.parametrize("which", ["default", "explicit", "empty"])
def test_forked_validator_equals_validating_here(shape, which, worker_pids, monkeypatch, tmp_path):
    labeled, _, config = _sets(shape)
    val = _validation_set(shape, which)
    csv, rows, arena = _supervised_outputs(config, labeled, val, tmp_path / "forked.csv")
    assert len(worker_pids) == (0 if which == "empty" else 1)
    _in_one_process(monkeypatch)
    here_csv, _, here_arena = _supervised_outputs(config, labeled, val, tmp_path / "here.csv")
    assert len(worker_pids) == (0 if which == "empty" else 1)  # no second validator
    assert csv == here_csv
    assert arena.tobytes() == here_arena.tobytes()
    if which == "empty":
        assert all(math.isnan(r.val_spearman) for r in rows)
    else:
        assert all(math.isfinite(r.val_spearman) for r in rows[config.burn_in_epochs:])


def test_tied_validation_scores_give_nan_rows_on_both_paths(worker_pids, monkeypatch, tmp_path):
    labeled, _, config = _sets(SMALL)
    tied = [replace(s, score=2.5) for s in _held_out(SMALL, 20)]
    csv, rows, arena = _supervised_outputs(config, labeled, tied, tmp_path / "forked.csv")
    assert len(worker_pids) == 1
    assert all(math.isnan(r.val_spearman) for r in rows)
    _in_one_process(monkeypatch)
    assert _supervised_outputs(config, labeled, tied, tmp_path / "here.csv")[0] == csv


def test_a_validator_error_comes_back_as_its_own_type(worker_pids, monkeypatch):
    labeled, _, config = _sets(SMALL)

    def faulty(net, val):
        if _in_worker():
            raise DomainError("a fault made in the validator")
        raise AssertionError("validation ran in the parent")

    monkeypatch.setattr(training, "_safe_val_spearman", faulty)
    with pytest.raises(DomainError) as caught:
        training.train_supervised(config, labeled)
    assert type(caught.value) is DomainError
    assert str(caught.value) == "a fault made in the validator"
    assert len(worker_pids) == 1


def test_a_killed_validator_raises_promptly(worker_pids, monkeypatch):
    labeled, _, config = _sets(SMALL)

    def kill_validator(net, val):
        if _in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("validation ran in the parent")

    monkeypatch.setattr(training, "_safe_val_spearman", kill_validator)

    def alarm(signum, frame):
        raise _Alarm("train_supervised() still waits for a dead validator")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(60)
    try:
        with pytest.raises(WorkerError, match="validation worker ended with exit code -9"):
            training.train_supervised(config, labeled)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(worker_pids) == 1


def test_an_interrupt_here_ends_the_validator(worker_pids, monkeypatch):
    labeled, _, config = _sets(SMALL)
    real = training._epoch

    def interrupted(state, *args):
        if state.epoch == config.burn_in_epochs + 2:
            raise KeyboardInterrupt
        return real(state, *args)

    monkeypatch.setattr(training, "_epoch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        training.train_supervised(config, labeled)
    assert len(worker_pids) == 1


@pytest.mark.parametrize("why", ["no fork", "daemonic"])
def test_validation_stays_here_where_no_validator_can_be_forked(
    why, worker_pids, monkeypatch, tmp_path
):
    labeled, _, config = _sets(SMALL)
    forked = _supervised_outputs(config, labeled, None, tmp_path / "forked.csv")
    assert len(worker_pids) == 1
    if why == "no fork":
        _in_one_process(monkeypatch)
    else:
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    here = _supervised_outputs(config, labeled, None, tmp_path / "here.csv")
    assert len(worker_pids) == 1  # no second validator
    assert here[0] == forked[0]
    assert here[2].tobytes() == forked[2].tobytes()
