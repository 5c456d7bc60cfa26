"""Training-loop tests: EMA, augmentation, stages, degeneration, checkpoints."""

import numpy as np
import pytest

from trscore.autodiff import ParameterSet, Tensor
from trscore.data import SyntheticSpec, generate_synthetic
from trscore.errors import ConfigurationError, ContractError, DivergenceError
from trscore.networks import FeatureSequence, NetworkArch, teacher_forward
from trscore.training import (
    ComponentToggles,
    TrainConfig,
    augment,
    burn_in_epoch,
    ema_update,
    init_state,
    initialize_student,
    load_checkpoint,
    save_checkpoint,
    save_parameter_set,
    load_parameter_set,
    train,
    train_supervised,
    trs_epoch,
    write_metrics_csv,
)


def toy_sets(n=30, t=4, d=8, frac=0.4, noise=0.2, seed=0):
    ds = generate_synthetic(
        SyntheticSpec(num_samples=n, t=t, d=d, label_fraction=frac, noise_std=noise, seed=seed)
    )
    return ds.labeled_samples, ds.unlabeled_samples


def quick_config(**kwargs):
    base = dict(
        burn_in_epochs=2,
        max_epochs=5,
        learning_rate=1e-3,
        seed=1,
        batch_size=16,
        augment_noise_std=0.1,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestEmaUpdate:
    def _sets(self):
        a = ParameterSet()
        a.new("w", [[2.0, -1.0]])
        b = ParameterSet()
        b.new("w", [[1.0, 3.0]])
        return a, b

    def test_fixed_point(self):
        a, _ = self._sets()
        same = ParameterSet()
        same.new("w", a["w"].array)
        out = ema_update(a, same, 0.9)
        np.testing.assert_array_equal(out["w"].array, a["w"].array)

    def test_single_blend(self):
        a, b = self._sets()
        out = ema_update(a, b, 0.99)
        assert out["w"].array[0, 0] == pytest.approx(1.99, abs=1e-15)

    def test_inputs_untouched(self):
        a, b = self._sets()
        ema_update(a, b, 0.5)
        np.testing.assert_array_equal(a["w"].array, [[2.0, -1.0]])
        np.testing.assert_array_equal(b["w"].array, [[1.0, 3.0]])

    def test_closed_form_repeated(self):
        alpha, k = 0.99, 50
        theta_t, theta_s = self._sets()
        current = theta_t
        for _ in range(k):
            current = ema_update(current, theta_s, alpha)
        expected = theta_s["w"].array + alpha**k * (theta_t["w"].array - theta_s["w"].array)
        np.testing.assert_allclose(current["w"].array, expected, atol=1e-10)

    def test_preserves_names_and_shapes(self):
        a, b = self._sets()
        out = ema_update(a, b, 0.5)
        assert out.names() == a.names()
        assert out["w"].tensor.shape == a["w"].tensor.shape

    def test_mismatched_sets_rejected(self):
        a, _ = self._sets()
        other = ParameterSet()
        other.new("v", [[1.0, 2.0]])
        with pytest.raises(ContractError):
            ema_update(a, other, 0.5)

    def test_alpha_out_of_range(self):
        a, b = self._sets()
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                ema_update(a, b, alpha)


class TestAugment:
    def _seq(self, arr):
        return FeatureSequence(Tensor(arr), "x", None)

    def _rng_with_first_draw(self, predicate):
        for seed in range(1000):
            if predicate(np.random.default_rng(seed).random()):
                return np.random.default_rng(seed)
        raise AssertionError("no such seed")

    def test_identity_when_no_flip_and_zero_noise(self):
        arr = np.random.default_rng(0).normal(size=(5, 3))
        rng = self._rng_with_first_draw(lambda u: u >= 0.5)  # no flip
        out = augment(self._seq(arr), "strong", rng, noise_std=0.0)
        np.testing.assert_array_equal(out.features.array, arr)

    def test_weak_flip_is_temporal_reversal(self):
        arr = np.arange(12.0).reshape(4, 3)
        rng = self._rng_with_first_draw(lambda u: u < 0.5)  # flip
        out = augment(self._seq(arr), "weak", rng, noise_std=0.7)
        np.testing.assert_array_equal(out.features.array, arr[::-1])

    def test_reversal_twice_is_identity(self):
        arr = np.random.default_rng(1).normal(size=(6, 2))
        once = self._rng_with_first_draw(lambda u: u < 0.5)
        twice = self._rng_with_first_draw(lambda u: u < 0.5)
        mid = augment(self._seq(arr), "weak", once)
        back = augment(mid, "weak", twice)
        np.testing.assert_array_equal(back.features.array, arr)

    def test_strong_noise_statistics(self):
        arr = np.zeros((100, 120))  # 12000 elements
        out = augment(self._seq(arr), "strong", np.random.default_rng(5), noise_std=0.1)
        flip_removed = out.features.array  # flipping zeros changes nothing
        sample_std = flip_removed.std()
        assert 0.08 <= sample_std <= 0.12

    def test_weak_never_adds_noise(self):
        arr = np.ones((4, 4))
        out = augment(self._seq(arr), "weak", np.random.default_rng(3), noise_std=5.0)
        assert set(np.unique(out.features.array)) == {1.0}

    def test_unknown_strength(self):
        with pytest.raises(ContractError):
            augment(self._seq(np.zeros((2, 2))), "medium", np.random.default_rng(0))

    def test_input_untouched(self):
        arr = np.arange(6.0).reshape(3, 2)
        seq = self._seq(arr)
        augment(seq, "strong", np.random.default_rng(11), noise_std=1.0)
        np.testing.assert_array_equal(seq.features.array, arr)


class TestBurnIn:
    def test_loss_halves_in_200_steps(self):
        labeled, _ = toy_sets(n=40, frac=1.0, noise=0.0, seed=2)
        config = quick_config(burn_in_epochs=300, max_epochs=301, learning_rate=2e-3)
        state = init_state(config, NetworkArch(t=4, d=8))
        first = burn_in_epoch(state, labeled, config)
        last = None
        for _ in range(199):
            last = burn_in_epoch(state, labeled, config)
        sup_first = first.l_reg_s + first.l_reg_r
        sup_last = last.l_reg_s + last.l_reg_r
        assert sup_last < 0.5 * sup_first

    def test_self_pair_reference_target_zero(self):
        from trscore.objectives import supervised_loss
        from trscore.networks import ScorePrediction

        _, l_r = supervised_loss(
            ScorePrediction(Tensor(1.0), Tensor(1.0)),
            ScorePrediction(Tensor(0.0), Tensor(1.0)),
            s=77.0,
            s_l=77.0,
        )
        assert l_r.item() == pytest.approx(0.0, abs=1e-12)

    def test_reference_toggle_off_updates_teacher_only(self):
        labeled, _ = toy_sets()
        config = quick_config(
            component_toggles=ComponentToggles(False, False, False)
        )
        state = init_state(config, NetworkArch(t=4, d=8))
        bd = burn_in_epoch(state, labeled, config)
        assert bd.l_reg_r == 0.0
        assert all(p.version == 0 for p in state.theta_f.params)
        assert all(p.version == 1 for p in state.theta_t.params)

    def test_requires_burn_in_stage(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        with pytest.raises(ContractError):
            burn_in_epoch(state, labeled, config)

    def test_empty_labeled_set_rejected(self):
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        with pytest.raises(ConfigurationError):
            burn_in_epoch(state, [], config)

    def test_non_finite_loss_raises_before_the_step(self):
        labeled, _ = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        state.theta_t.params["head.weight"].array[...] = np.nan
        with pytest.raises(DivergenceError, match=r"epoch 0, batch 0: non-finite l_reg_s\b"):
            burn_in_epoch(state, labeled, config)
        assert all(p.version == 0 for p in state.theta_t.params)
        assert all(p.version == 0 for p in state.theta_f.params)
        assert state.epoch == 0

    def test_non_finite_reference_and_unlabeled_terms_named(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        state.theta_f.params["head.bias"].array[...] = np.inf
        # the reference side of every pseudo-label is infinite too
        with pytest.raises(DivergenceError, match="epoch 2, batch 0: non-finite l_reg_r, l_unsup;"):
            trs_epoch(state, labeled, unlabeled, 0.1, config)
        state.theta_f.params["head.bias"].array[...] = 0.0
        state.theta_s.params["head.weight"].array[...] = np.nan
        with pytest.raises(DivergenceError, match="epoch 2, batch 0: non-finite l_reg_s, l_unsup;"):
            trs_epoch(state, labeled, unlabeled, 0.1, config)
        assert all(p.version == 0 for p in state.theta_s.params)


class TestInitializeStudent:
    def _state_at_boundary(self, config, labeled):
        state = init_state(config, NetworkArch(t=4, d=8))
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        return state

    def test_copy_semantics(self):
        labeled, _ = toy_sets()
        config = quick_config()
        state = self._state_at_boundary(config, labeled)
        initialize_student(state, config)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        assert (
            teacher_forward(state.theta_t, x).mu_value
            == teacher_forward(state.theta_s, x).mu_value
        )

    def test_student_step_leaves_teacher_alone(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = self._state_at_boundary(config, labeled)
        initialize_student(state, config)
        teacher_before = {n: p.array.copy() for n, p in state.theta_t.params.items()}
        # one student-only optimizer step (teacher changes only via EMA after it)
        trs_epoch(state, labeled, unlabeled, beta=0.1, config=config)
        student_after = state.theta_s.params
        assert any(
            not np.array_equal(teacher_before[n], student_after[n].array)
            for n in teacher_before
        )
        # the teacher moved only by the EMA blend of (teacher_before, student)
        for n, p in state.theta_t.params.items():
            expected = config.alpha * teacher_before[n] + (1 - config.alpha) * student_after[n].array
            np.testing.assert_array_equal(p.array, expected)

    def test_double_init_rejected(self):
        labeled, _ = toy_sets()
        config = quick_config()
        state = self._state_at_boundary(config, labeled)
        initialize_student(state, config)
        with pytest.raises(ContractError):
            initialize_student(state, config)

    def test_init_requires_boundary_epoch(self):
        labeled, _ = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        burn_in_epoch(state, labeled, config)  # epoch 1 of 2
        with pytest.raises(ContractError):
            initialize_student(state, config)

    def test_checkpoint_round_trip_preserves_equality(self, tmp_path):
        labeled, _ = toy_sets()
        config = quick_config()
        state = self._state_at_boundary(config, labeled)
        initialize_student(state, config)
        save_checkpoint(tmp_path / "ckpt", state, config)
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        x = Tensor(np.random.default_rng(3).normal(size=(4, 8)))
        assert (
            teacher_forward(loaded.theta_t, x).mu_value
            == teacher_forward(loaded.theta_s, x).mu_value
        )


class TestStateFacts:
    """The stage follows from the student; one optimizer steps the trained net."""

    def test_stage_and_optimizer_follow_the_student(self):
        labeled, _ = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        assert state.stage == "burn_in" and state.theta_s is None
        assert state.trained is state.theta_t
        assert state.opt_trained.params is state.theta_t.params
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        assert state.stage == "trs"
        assert state.trained is state.theta_s
        assert state.opt_trained.params is state.theta_s.params
        assert state.opt_trained._step == 0
        with pytest.raises(AttributeError):
            state.stage = "burn_in"

    def test_stage_errors_name_the_stage(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        with pytest.raises(ContractError, match="'trs'.*'burn_in'"):
            trs_epoch(state, labeled, unlabeled, 0.1, config)
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        with pytest.raises(ContractError, match="'burn_in'.*'trs'"):
            burn_in_epoch(state, labeled, config)
        with pytest.raises(ContractError, match="'trs'"):
            initialize_student(state, config)


class TestTrsEpoch:
    def _ready_state(self, config, labeled):
        state = init_state(config, NetworkArch(t=4, d=8))
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        return state

    def test_memory_covers_all_unlabeled_after_one_epoch(self):
        # more labeled than unlabeled, so the 1:1 pass touches the whole pool
        labeled, unlabeled = toy_sets(n=30, frac=0.7)
        assert len(unlabeled) < len(labeled)
        config = quick_config()
        state = self._ready_state(config, labeled)
        trs_epoch(state, labeled, unlabeled, beta=0.05, config=config)
        for s in unlabeled:
            assert s.sample_id in state.m_t
            assert s.sample_id in state.m_r

    def test_memory_sigma_is_running_minimum(self):
        labeled, unlabeled = toy_sets(n=30, frac=0.7)
        config = quick_config(max_epochs=8)
        state = self._ready_state(config, labeled)
        seen: dict[str, float] = {}
        for _ in range(4):
            epoch = state.epoch
            from trscore import autodiff as ad
            from trscore.training import _augmented_stack

            # teacher parameters are frozen within an epoch (EMA happens at
            # its end), so per-sample predictions can be replayed up front
            x_weak = _augmented_stack(unlabeled, "weak", epoch, config)
            with ad.no_grad():
                sigma_now = teacher_forward(state.theta_t, Tensor(x_weak)).sigma_values
            for s, sig in zip(unlabeled, sigma_now):
                seen[s.sample_id] = min(seen.get(s.sample_id, np.inf), sig)
            trs_epoch(state, labeled, unlabeled, beta=0.05, config=config)
        for s in unlabeled:
            assert state.m_t.read(s.sample_id).sigma == pytest.approx(
                seen[s.sample_id], abs=1e-9
            )

    def test_teacher_never_touched_by_gradients(self):
        labeled, unlabeled = toy_sets()
        config = quick_config(max_epochs=8)
        state = self._ready_state(config, labeled)
        for _ in range(3):
            trs_epoch(state, labeled, unlabeled, beta=0.1, config=config)
        assert all(p.version == 0 for p in state.theta_t.params)
        assert all(p.version >= 1 for p in state.theta_s.params)

    def test_toggles_off_uses_current_predictions(self):
        labeled, unlabeled = toy_sets()
        config = quick_config(
            component_toggles=ComponentToggles(True, False, False)
        )
        state = self._ready_state(config, labeled)
        trs_epoch(state, labeled, unlabeled, beta=0.05, config=config)
        assert len(state.m_t) == 0
        assert len(state.m_r) == 0

    def test_requires_labeled_samples(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = self._ready_state(config, labeled)
        with pytest.raises(ConfigurationError):
            trs_epoch(state, [], unlabeled, beta=0.0, config=config)

    def test_wrong_stage_rejected(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        with pytest.raises(ContractError):
            trs_epoch(state, labeled, unlabeled, beta=0.0, config=config)


def _reference_train_supervised(config, labeled_set, val_set=None, arch=None):
    """The labeled-only baseline as a loop of its own, kept as a test oracle.

    ``train_supervised`` runs through the same epoch body and driver as
    ``train``, so comparing the two no longer checks the baseline; this copy
    of the original loop does.
    """
    from trscore import autodiff as ad
    from trscore import rng as streams
    from trscore.networks import init_teacher_params
    from trscore.objectives import LossBreakdown
    from trscore.training import (
        EpochMetrics,
        _batch_bounds,
        _check_training_sets,
        _direct_nll,
        _labels,
        _safe_val_spearman,
        _stack,
        adam_for,
    )

    config.validate()
    _check_training_sets(labeled_set, [])
    t, d = labeled_set[0].features.shape
    arch = arch or NetworkArch(t=t, d=d)
    net = init_teacher_params(arch, streams.derive(config.seed, streams.INIT_TEACHER))
    opt = adam_for(net.params, config)
    x = _stack(labeled_set)
    s = _labels(labeled_set)
    n = len(labeled_set)
    val = list(val_set) if val_set is not None else list(labeled_set)

    metrics = []
    for epoch in range(config.max_epochs):
        if epoch == config.burn_in_epochs:
            net = net.copy()
            opt = adam_for(net.params, config)
        order = streams.derive(config.seed, streams.SHUFFLE_LABELED, epoch).permutation(n)
        sum_s = 0.0
        for lo, hi in _batch_bounds(n, config.batch_size):
            idx = order[lo:hi]
            opt.zero_grad()
            batch_s = _direct_nll(net, x[idx], s[idx])
            ad.mul(batch_s, Tensor(1.0 / idx.size)).backward()
            opt.step()
            sum_s += batch_s.item()
        rho = (
            _safe_val_spearman(net, val)
            if epoch >= config.burn_in_epochs
            else float("nan")
        )
        bd = LossBreakdown.from_terms(sum_s / n, 0.0, 0.0, 0.0)
        metrics.append(EpochMetrics.from_breakdown(epoch, bd, rho))
    return net, metrics


class TestDegeneration:
    def test_supervised_matches_reference_loop_with_toggles_on(self):
        # the baseline must ignore the toggles: every one is on here
        from dataclasses import astuple

        labeled, _ = toy_sets(n=40, frac=0.5, seed=4)
        val, _ = toy_sets(n=12, frac=1.0, seed=9)
        config = quick_config(burn_in_epochs=3, max_epochs=8, batch_size=6)
        assert config.component_toggles == ComponentToggles(True, True, True)
        net, metrics = train_supervised(config, labeled, val_set=val)
        ref_net, ref_metrics = _reference_train_supervised(config, labeled, val_set=val)
        np.testing.assert_equal(
            [astuple(row) for row in metrics], [astuple(row) for row in ref_metrics]
        )
        assert net.params.names() == ref_net.params.names()
        for name, p in net.params.items():
            assert np.array_equal(p.array, ref_net.params[name].array), name

    def test_beta_zero_toggles_off_matches_supervised(self):
        labeled, unlabeled = toy_sets(n=40, frac=0.5, seed=4)
        config = quick_config(
            burn_in_epochs=3,
            max_epochs=8,
            beta_peak=0.0,
            component_toggles=ComponentToggles(False, False, False),
        )
        _, student, trs_metrics = train(config, labeled, unlabeled)
        baseline, sup_metrics = train_supervised(config, labeled)
        for trs_row, sup_row in zip(trs_metrics, sup_metrics):
            assert trs_row.l_reg_s == pytest.approx(sup_row.l_reg_s, abs=1e-12)
        for name, p in student.params.items():
            np.testing.assert_allclose(
                p.array, baseline.params[name].array, atol=1e-12
            )


class TestTrain:
    def test_single_trs_epoch_when_e_is_b_plus_one(self):
        labeled, unlabeled = toy_sets()
        config = quick_config(burn_in_epochs=3, max_epochs=4)
        _, student, metrics = train(config, labeled, unlabeled)
        assert len(metrics) == 4
        assert [np.isnan(m.val_spearman) for m in metrics] == [True, True, True, False]
        assert metrics[-1].l_unsup != 0.0

    def test_determinism_bit_identical_metrics(self, tmp_path):
        labeled, unlabeled = toy_sets(seed=6)
        config = quick_config(max_epochs=6)
        runs = []
        for tag in ("a", "b"):
            _, _, metrics = train(config, labeled, unlabeled)
            path = tmp_path / f"{tag}.csv"
            write_metrics_csv(metrics, path)
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_invalid_config_rejected(self):
        labeled, unlabeled = toy_sets()
        with pytest.raises(ConfigurationError):
            train(quick_config(max_epochs=2, burn_in_epochs=2), labeled, unlabeled)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 1.0),
            ("burn_in_epochs", 0),
            ("learning_rate", 0.0),
            ("batch_size", 0),
            ("augment_noise_std", -0.1),
        ],
    )
    def test_each_invalid_field_rejected(self, field, value):
        labeled, unlabeled = toy_sets()
        with pytest.raises(ConfigurationError, match=field):
            train(quick_config(**{field: value}), labeled, unlabeled)

    @pytest.mark.parametrize("defect", ["no labeled", "labeled without score", "shape"])
    def test_malformed_training_sets_rejected(self, defect):
        labeled, unlabeled = toy_sets()
        if defect == "no labeled":
            labeled = []
        elif defect == "labeled without score":
            labeled = labeled[:-1] + [FeatureSequence(labeled[-1].features, "x", None)]
        else:
            unlabeled = unlabeled + [FeatureSequence(np.zeros((5, 8)), "x", None)]
        with pytest.raises(ConfigurationError, match="labeled sample|shape"):
            train(quick_config(), labeled, unlabeled)

    def test_duplicate_ids_rejected(self):
        labeled, _ = toy_sets()
        with pytest.raises(ConfigurationError):
            train(quick_config(), labeled, labeled)

    def test_beta_column_follows_schedule(self):
        from trscore.objectives import beta_at

        labeled, unlabeled = toy_sets()
        config = quick_config(burn_in_epochs=2, max_epochs=6)
        _, _, metrics = train(config, labeled, unlabeled)
        for row in metrics[config.burn_in_epochs :]:
            assert row.beta == pytest.approx(beta_at(row.epoch, config.schedule()))
        for row in metrics[: config.burn_in_epochs]:
            assert row.beta == 0.0


class TestCheckpoint:
    def test_parameter_set_round_trip(self, tmp_path):
        gen = np.random.default_rng(12)
        ps = ParameterSet()
        ps.new("a.scalarish", gen.normal(size=1))
        ps.new("b.matrix", gen.normal(size=(3, 5)))
        ps.new("c.vector", gen.normal(size=7))
        path = tmp_path / "params.bin"
        save_parameter_set(ps, path)
        loaded = load_parameter_set(path)
        assert loaded.names() == ps.names()
        for name, p in ps.items():
            np.testing.assert_array_equal(loaded[name].array, p.array)

    def test_full_checkpoint_round_trip(self, tmp_path):
        labeled, unlabeled = toy_sets()
        config = quick_config(max_epochs=5)
        _, _, _ = train(config, labeled, unlabeled, checkpoint_dir=tmp_path / "run")
        state, loaded_config = load_checkpoint(tmp_path / "run")
        assert loaded_config == config
        assert state.epoch == config.max_epochs
        assert state.stage == "trs"
        assert state.theta_s is not None
        assert len(state.m_t) == len(unlabeled)
        expected = {"params_t.bin", "params_s.bin", "params_f.bin",
                    "memory_t.tsv", "memory_r.tsv", "state.json"}
        assert {p.name for p in (tmp_path / "run").iterdir()} == expected
