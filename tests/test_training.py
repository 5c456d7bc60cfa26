"""Training-loop tests: EMA, augmentation, stages, degeneration, checkpoints."""

import errno
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from trscore.autodiff import ParameterSet, Tensor
from trscore.data import SyntheticSpec, generate_synthetic
from trscore.errors import (
    ConfigurationError,
    ContractError,
    DivergenceError,
    NonFiniteFeaturesError,
)
from trscore.memory import ConfidenceMemory
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


class TestTrainConfigDefaults:
    def test_the_specified_defaults(self):
        config = TrainConfig()
        assert (config.alpha, config.burn_in_epochs, config.max_epochs) == (0.99, 30, 150)
        assert (config.learning_rate, config.batch_size) == (2e-4, 4)
        assert (config.augment_noise_std, config.beta_peak) == (0.4, 0.2)
        assert config.component_toggles == ComponentToggles(True, True, True)


class TestEmaUpdate:
    def _sets(self):
        a = ParameterSet([("w", (1, 2))], np.array([2.0, -1.0]))
        b = ParameterSet([("w", (1, 2))], np.array([1.0, 3.0]))
        return a, b

    def test_fixed_point(self):
        a, _ = self._sets()
        same = ParameterSet([("w", (1, 2))], a.data.copy())
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
        assert out.layout == a.layout
        assert out["w"].shape == a["w"].shape

    @pytest.mark.parametrize(
        "other",
        [
            [("w", (1, 2)), ("c", (1,))],  # a name
            [("w", (2, 1)), ("b", (1,))],  # a shape only
            [("b", (1,)), ("w", (1, 2))],  # the order
        ],
        ids=["name", "shape", "order"],
    )
    def test_mismatched_sets_rejected(self, other):
        a = ParameterSet([("w", (1, 2)), ("b", (1,))], np.array([2.0, -1.0, 0.5]))
        with pytest.raises(ContractError, match="disagree"):
            ema_update(a, ParameterSet(other, np.array([1.0, 2.0, 3.0])), 0.5)

    def test_alpha_out_of_range(self):
        a, b = self._sets()
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                ema_update(a, b, alpha)


class TestAugment:
    def _rng_with_first_draw(self, predicate):
        for seed in range(1000):
            if predicate(np.random.default_rng(seed).random()):
                return np.random.default_rng(seed)
        raise AssertionError("no such seed")

    def test_identity_when_no_flip_and_zero_noise(self):
        arr = np.random.default_rng(0).normal(size=(5, 3))
        rng = self._rng_with_first_draw(lambda u: u >= 0.5)  # no flip
        out = augment(arr, "strong", rng, noise_std=0.0)
        np.testing.assert_array_equal(out, arr)

    def test_weak_flip_is_temporal_reversal(self):
        arr = np.arange(12.0).reshape(4, 3)
        rng = self._rng_with_first_draw(lambda u: u < 0.5)  # flip
        out = augment(arr, "weak", rng, noise_std=0.7)
        np.testing.assert_array_equal(out, arr[::-1])

    def test_reversal_twice_is_identity(self):
        arr = np.random.default_rng(1).normal(size=(6, 2))
        once = self._rng_with_first_draw(lambda u: u < 0.5)
        twice = self._rng_with_first_draw(lambda u: u < 0.5)
        mid = augment(arr, "weak", once)
        back = augment(mid, "weak", twice)
        np.testing.assert_array_equal(back, arr)

    def test_strong_noise_statistics(self):
        arr = np.zeros((100, 120))  # 12000 elements
        out = augment(arr, "strong", np.random.default_rng(5), noise_std=0.1)
        assert 0.08 <= out.std() <= 0.12  # flipping zeros changes nothing

    def test_weak_never_adds_noise(self):
        arr = np.ones((4, 4))
        out = augment(arr, "weak", np.random.default_rng(3), noise_std=5.0)
        assert set(np.unique(out)) == {1.0}

    def test_unknown_strength(self):
        with pytest.raises(ContractError):
            augment(np.zeros((2, 2)), "medium", np.random.default_rng(0))

    @pytest.mark.parametrize("noise_std", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("strength", ["weak", "strong"])
    def test_noise_std_must_be_finite_and_nonnegative(self, strength, noise_std):
        with pytest.raises(ContractError, match="noise_std"):
            augment(np.zeros((2, 2)), strength, np.random.default_rng(0), noise_std)

    @pytest.mark.parametrize("flip", [True, False])
    def test_strong_is_weak_plus_the_generators_next_normal_draw(self, flip):
        arr = np.random.default_rng(2).normal(size=(5, 3))
        first = (lambda u: u < 0.5) if flip else (lambda u: u >= 0.5)
        rng = self._rng_with_first_draw(first)
        weak = augment(arr, "weak", rng)
        expected = weak + rng.normal(0.0, 0.3, size=arr.shape)
        strong = augment(arr, "strong", self._rng_with_first_draw(first), noise_std=0.3)
        assert strong.tobytes() == expected.tobytes()

    def test_input_untouched(self):
        arr = np.arange(6.0).reshape(3, 2)
        seq = FeatureSequence(arr.copy(), "x")
        augment(seq.features, "strong", np.random.default_rng(11), noise_std=1.0)
        np.testing.assert_array_equal(seq.features, arr)


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
        assert state.theta_f.params.version == 0
        assert state.theta_t.params.version == 1

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
        assert state.theta_t.params.version == 0
        assert state.theta_f.params.version == 0
        assert state.epoch == 0

    def test_non_finite_reference_and_unlabeled_terms_named(self):
        labeled, unlabeled = toy_sets()
        config = quick_config()
        state = init_state(config, NetworkArch(t=4, d=8))
        for _ in range(config.burn_in_epochs):
            burn_in_epoch(state, labeled, config)
        initialize_student(state, config)
        state.theta_f.params["head.bias"].array[...] = np.inf

        def memories_finite():
            # a non-finite score would make the memory file unloadable
            return all(
                np.isfinite(e.score)
                for memory in (state.m_t, state.m_r)
                for e in memory.entries.values()
            )

        # the reference side of every pseudo-label is infinite too
        with pytest.raises(DivergenceError, match="epoch 2, batch 0: non-finite l_reg_r, l_unsup;"):
            trs_epoch(state, labeled, unlabeled, 0.1, config)
        assert len(state.m_t) > 0 and memories_finite()
        state.theta_f.params["head.bias"].array[...] = 0.0
        state.theta_s.params["head.weight"].array[...] = np.nan
        with pytest.raises(DivergenceError, match="epoch 2, batch 0: non-finite l_reg_s, l_unsup;"):
            trs_epoch(state, labeled, unlabeled, 0.1, config)
        assert state.theta_s.params.version == 0
        assert len(state.m_r) > 0 and memories_finite()


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
        assert state.opt_trained.params.version == 0
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
        assert state.theta_t.params.version == 0
        assert state.theta_s.params.version >= 1

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


def _per_batch_trs_epoch(state, labeled, unlabeled, beta, config):
    """A TRS epoch whose pseudo-labels run a whole teacher pass per batch, as
    the epoch body did before it ran the teacher's encoder once per epoch;
    kept as the oracle of that hoisting."""
    from trscore import autodiff as ad
    from trscore import rng as streams
    from trscore.memory import fuse_scores
    from trscore.networks import Network, reference_forward
    from trscore.objectives import (
        gaussian_nll, recovered_score, relative_target, unsupervised_loss,
    )
    from trscore.training import (
        _augmented_stack, _batch_bounds, _labels, _memory_side, _stack,
    )

    net, opt, epoch = state.theta_s, state.opt_trained, state.epoch
    toggles = config.component_toggles
    n, m = len(labeled), len(unlabeled)
    x_lab, s_lab = _stack(labeled), _labels(labeled)
    order = streams.derive(config.seed, streams.SHUFFLE_LABELED, epoch).permutation(n)
    partner = streams.derive(config.seed, streams.PAIR_LABELED, epoch).integers(0, n, n)
    unlab_order = streams.derive(config.seed, streams.SHUFFLE_UNLABELED, epoch).permutation(m)
    unlab_partner = streams.derive(config.seed, streams.PAIR_UNLABELED, epoch).integers(0, n, m)
    for lo, hi in _batch_bounds(n, config.batch_size):
        idx = order[lo:hi]
        opt.zero_grad()
        state.opt_reference.zero_grad()
        x, s = Tensor(x_lab[idx]), s_lab[idx]
        direct = ad.sum(gaussian_nll(s, teacher_forward(net, x)))
        pair = partner[idx]
        relative = ad.sum(gaussian_nll(
            relative_target(s, s_lab[pair]),
            reference_forward(state.theta_f, x, Tensor(x_lab[pair])),
        ))
        slots = unlab_order[np.arange(lo, hi) % m]
        batch = [unlabeled[int(j)] for j in slots]
        x_weak = Tensor(_augmented_stack(batch, "weak", epoch, config))
        with ad.no_grad():
            teacher_pred = teacher_forward(state.theta_t, x_weak)
            t_side = _memory_side(state.m_t, toggles.teacher_memory, batch,
                                  teacher_pred.mu_values, teacher_pred.sigma_values, epoch)
            pair = unlab_partner[slots]
            relative_pred = reference_forward(state.theta_f, x_weak, Tensor(x_lab[pair]))
            r_side = _memory_side(state.m_r, toggles.reference_memory, batch,
                                  recovered_score(s_lab[pair], relative_pred.mu_values),
                                  relative_pred.sigma_values, epoch)
        x_strong = Tensor(_augmented_stack(batch, "strong", epoch, config))
        s_bar = fuse_scores(t_side, r_side)
        unsup = ad.sum(unsupervised_loss(teacher_forward(net, x_strong), s_bar))
        ad.add(
            ad.add(ad.mul(direct, Tensor(1.0 / idx.size)), ad.mul(relative, Tensor(1.0 / idx.size))),
            ad.mul(unsup, Tensor(beta / len(batch))),
        ).backward()
        opt.step()
        state.opt_reference.step()
    state.epoch = epoch + 1
    state.theta_t = Network(state.theta_t.arch,
                            ema_update(state.theta_t.params, state.theta_s.params, config.alpha))


class TestOncePerEpochTeacherPass:
    @pytest.mark.parametrize("frac", [0.7, 0.3])  # with and without wrap-around
    def test_matches_per_batch_replay(self, frac):
        labeled, unlabeled = toy_sets(n=30, frac=frac)
        config = quick_config(batch_size=4, max_epochs=6)
        states = []
        for epoch_fn in (trs_epoch, _per_batch_trs_epoch):
            state = TestTrsEpoch()._ready_state(config, labeled)
            for _ in range(3):
                epoch_fn(state, labeled, unlabeled, 0.1, config)
            states.append(state)
        ours, replay = states
        if frac == 0.7:
            assert len(unlabeled) < len(labeled)  # the unlabeled pass wraps
        for memory in ("m_t", "m_r"):
            mine, theirs = getattr(ours, memory), getattr(replay, memory)
            assert len(mine) == len(theirs) > 0
            for s in unlabeled:
                assert mine.read(s.sample_id) == theirs.read(s.sample_id)
        for net in ("theta_t", "theta_s", "theta_f"):
            assert np.array_equal(getattr(ours, net).params.data,
                                  getattr(replay, net).params.data), net


class TestAdamBuffers:
    def test_two_instances_share_no_array(self):
        from trscore.training import Adam

        ps = ParameterSet(
            [("w", (3, 2)), ("b", (2,))], np.concatenate([np.ones(6), np.zeros(2)])
        )
        first, second = Adam(ps, 0.1), Adam(ps.copy(), 0.1)
        arrays = [
            [v for v in vars(opt).values() if isinstance(v, np.ndarray)]
            for opt in (first, second)
        ]
        assert len(arrays[0]) >= 4  # both moments and the work vectors
        for a in arrays[0]:
            for b in arrays[1]:
                assert not np.shares_memory(a, b)


def _reference_train_supervised(config, labeled_set, val_set=None):
    """The labeled-only baseline as a loop of its own, kept as a test oracle.

    ``train_supervised`` runs through the same epoch body and driver as
    ``train``, so comparing the two no longer checks the baseline; this copy
    of the original loop does.
    """
    from trscore import autodiff as ad
    from trscore import rng as streams
    from trscore.networks import init_teacher_params
    from trscore.objectives import gaussian_nll
    from trscore.training import (
        EpochMetrics,
        _batch_bounds,
        _check_training_sets,
        _labels,
        _safe_val_spearman,
        _stack,
        Adam,
    )

    _check_training_sets(labeled_set, [])
    t, d = labeled_set[0].features.shape
    arch = NetworkArch(t=t, d=d)
    net = init_teacher_params(arch, streams.derive(config.seed, streams.INIT_TEACHER))
    opt = Adam(net.params, config.learning_rate)
    x = _stack(labeled_set)
    s = _labels(labeled_set)
    n = len(labeled_set)
    val = list(val_set) if val_set is not None else list(labeled_set)

    metrics = []
    for epoch in range(config.max_epochs):
        if epoch == config.burn_in_epochs:
            net = net.copy()
            opt = Adam(net.params, config.learning_rate)
        order = streams.derive(config.seed, streams.SHUFFLE_LABELED, epoch).permutation(n)
        sum_s = 0.0
        for lo, hi in _batch_bounds(n, config.batch_size):
            idx = order[lo:hi]
            opt.zero_grad()
            batch_s = ad.sum(gaussian_nll(s[idx], teacher_forward(net, Tensor(x[idx]))))
            ad.mul(batch_s, Tensor(1.0 / idx.size)).backward()
            opt.step()
            sum_s += batch_s.item()
        rho = (
            _safe_val_spearman(net, val)
            if epoch >= config.burn_in_epochs
            else float("nan")
        )
        metrics.append(EpochMetrics(epoch, sum_s / n, 0.0, 0.0, 0.0, sum_s / n, rho))
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
        assert net.params.layout == ref_net.params.layout
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
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("batch_size", 0),
            ("augment_noise_std", -0.1),
            ("augment_noise_std", math.nan),
            ("augment_noise_std", math.inf),
            ("beta_peak", -0.1),
            ("beta_peak", math.nan),
            ("beta_peak", math.inf),
            ("seed", 1.5),
            ("max_epochs", 2.5),
            ("batch_size", 2.5),
            ("burn_in_epochs", True),
        ],
    )
    def test_each_invalid_field_rejected(self, field, value):
        labeled, unlabeled = toy_sets()
        with pytest.raises(ConfigurationError, match=field):
            train(quick_config(**{field: value}), labeled, unlabeled)

    @pytest.mark.parametrize(
        "defect", ["no labeled", "labeled without score", "NaN score", "inf score", "shape"]
    )
    def test_malformed_training_sets_rejected(self, defect):
        labeled, unlabeled = toy_sets()
        bad_score = {"labeled without score": None, "NaN score": math.nan, "inf score": math.inf}
        if defect == "no labeled":
            labeled = []
        elif defect in bad_score:
            if bad_score[defect] is not None:
                # the sample rejects its non-finite score itself
                with pytest.raises(ConfigurationError, match="sample 'x': score"):
                    FeatureSequence(labeled[-1].features, "x", bad_score[defect])
                return
            bad = FeatureSequence(labeled[-1].features, "x", bad_score[defect])
            labeled = labeled[:-1] + [bad]
        else:
            unlabeled = unlabeled + [FeatureSequence(np.zeros((5, 8)), "x", None)]
        with pytest.raises(ConfigurationError, match="labeled sample|shape"):
            train(quick_config(), labeled, unlabeled)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected_naming_the_sample(self, monkeypatch, value):
        from trscore import training

        labeled, unlabeled = toy_sets()
        features = np.array(unlabeled[0].features)
        features[2, 5] = value
        monkeypatch.setattr(training, "burn_in_epoch", lambda *a: pytest.fail("an epoch ran"))
        with pytest.raises(NonFiniteFeaturesError, match="sample 'x': features"):
            train(quick_config(), labeled, unlabeled + [FeatureSequence(features, "x")])

    @pytest.mark.parametrize("defect", ["no score", "NaN score", "inf score", "shape"])
    def test_malformed_validation_set_rejected_before_epoch_0(self, monkeypatch, defect):
        from trscore import training

        labeled, unlabeled = toy_sets()
        features = np.zeros((5, 8)) if defect == "shape" else labeled[0].features
        score = {"no score": None, "NaN score": math.nan, "inf score": math.inf}.get(defect, 1.0)
        if defect in ("NaN score", "inf score"):
            # the sample rejects its non-finite score itself
            with pytest.raises(ConfigurationError, match="'v'"):
                FeatureSequence(features, "v", score)
            return
        bad = FeatureSequence(features, "v", score)
        monkeypatch.setattr(training, "burn_in_epoch", lambda *a: pytest.fail("an epoch ran"))
        with pytest.raises(ConfigurationError, match="'v'"):
            train(quick_config(), labeled, unlabeled, val_set=labeled[:3] + [bad])

    def test_rows_total_their_terms(self):
        labeled, unlabeled = toy_sets()
        config = quick_config(burn_in_epochs=2, max_epochs=5)
        _, _, metrics = train(config, labeled, unlabeled)
        assert [row.epoch for row in metrics] == list(range(5))
        for row in metrics:
            assert row.total == (row.l_reg_s + row.l_reg_r) + row.beta * row.l_unsup
        assert all(np.isnan(row.val_spearman) for row in metrics[:2])
        assert not any(np.isnan(row.val_spearman) for row in metrics[2:])
        assert all(row.l_reg_r != 0.0 for row in metrics)
        assert all(row.l_unsup != 0.0 and row.beta > 0.0 for row in metrics[2:])

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
            assert row.beta == pytest.approx(beta_at(row.epoch, config.beta_peak))
        for row in metrics[: config.burn_in_epochs]:
            assert row.beta == 0.0


class TestCheckpoint:
    def test_parameter_set_round_trip(self, tmp_path):
        gen = np.random.default_rng(12)
        ps = ParameterSet(
            [("a.scalarish", (1,)), ("b.matrix", (3, 5)), ("c.vector", (7,))],
            gen.normal(size=1 + 15 + 7),
        )
        path = tmp_path / "params.bin"
        save_parameter_set(ps, path)
        loaded = load_parameter_set(path)
        assert loaded.layout == ps.layout
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

    def test_a_failed_save_leaves_a_directory_that_does_not_load(self, tmp_path, monkeypatch):
        # a second seed's save over a checkpoint fails at its first memory
        labeled, unlabeled = toy_sets()
        config = quick_config()
        run = tmp_path / "run"
        train(config, labeled, unlabeled, checkpoint_dir=run)
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError) as without_state:
            load_checkpoint(tmp_path / "empty")

        def full_disk(memory, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(ConfidenceMemory, "save_tsv", full_disk)
        with pytest.raises(OSError) as full:
            train(replace(config, seed=2), labeled, unlabeled, checkpoint_dir=run)
        assert full.value.errno == errno.ENOSPC
        with pytest.raises(FileNotFoundError) as failed:
            load_checkpoint(run)
        assert failed.value.filename == str(run / "state.json")
        assert failed.value.strerror == without_state.value.strerror
