"""Network-body tests: residual identities, equivariance, attention laws."""

import numpy as np
import pytest

from trscore import autodiff as ad
from trscore.autodiff import ParameterSet, Tensor
from trscore.errors import ConfigurationError, ContractError, DimensionError
from trscore.networks import (
    FeatureSequence,
    NetworkArch,
    ScorePrediction,
    attention_maps,
    init_reference_params,
    init_teacher_params,
    mixer_forward,
    reference_forward,
    regression_head,
    teacher_forward,
)
from trscore.objectives import gaussian_nll


def small_arch(t=4, d=8):
    return NetworkArch(t=t, d=d)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def zeroed(params, substrings):
    for p in params.params:
        if any(s in p.name for s in substrings):
            p.assign(np.zeros_like(p.array))


class TestMixer:
    def test_zero_mixing_weights_is_identity(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(0))
        zeroed(params, ["token_out", "channel_out"])
        x = rand((arch.t, arch.d), 1)
        np.testing.assert_allclose(mixer_forward(params, Tensor(x)).array, x, atol=1e-15)

    def test_paper_snippet_shape(self):
        arch = NetworkArch(t=10, d=1024)
        params = init_teacher_params(arch, np.random.default_rng(2))
        out = mixer_forward(params, Tensor(rand((10, 1024), 3)))
        assert out.shape == (10, 1024)

    def test_channel_permutation_equivariance(self):
        arch = small_arch(t=3, d=6)
        gen = np.random.default_rng(4)
        params = init_teacher_params(arch, gen)
        perm = np.random.default_rng(5).permutation(arch.d)

        permuted = ParameterSet()
        for name, p in params.params.items():
            values = p.array
            if "norm_" in name:
                values = values[perm]
            elif "channel_in" in name:
                values = values[perm, :]
            elif "channel_out" in name:
                values = values[:, perm]
            elif name.startswith("head."):
                pass
            permuted.new(name, values)
        from trscore.networks import TeacherParams

        params_perm = TeacherParams(arch, permuted)

        x = rand((arch.t, arch.d), 6)
        direct = mixer_forward(params, Tensor(x)).array[:, perm]
        via_perm = mixer_forward(params_perm, Tensor(x[:, perm])).array
        np.testing.assert_allclose(via_perm, direct, atol=1e-12)

    def test_batched_matches_per_sample(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(7))
        x = rand((3, arch.t, arch.d), 8)
        batched = mixer_forward(params, Tensor(x)).array
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], mixer_forward(params, Tensor(x[i])).array, atol=1e-12
            )

    def test_shape_mismatch(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            mixer_forward(params, Tensor(rand((arch.t + 1, arch.d))))


class TestRegressionHead:
    def _with_bias(self, arch, bias):
        params = init_teacher_params(arch, np.random.default_rng(0))
        params.params["head.weight"].assign(np.zeros((arch.d, 2)))
        params.params["head.bias"].assign(np.array(bias))
        return params

    def test_raw_outputs_exp_identity(self):
        arch = small_arch()
        params = self._with_bias(arch, [3.2, 0.0])
        pred = regression_head(params, Tensor(rand((arch.t, arch.d), 1)))
        assert pred.mu_value == pytest.approx(3.2, abs=1e-12)
        assert pred.sigma_value == pytest.approx(1.0, abs=1e-12)

    def test_log_sigma_inverse(self):
        arch = small_arch()
        params = self._with_bias(arch, [0.0, np.log(2.0)])
        pred = regression_head(params, Tensor(rand((arch.t, arch.d), 2)))
        assert pred.sigma_value == pytest.approx(2.0, abs=1e-12)

    def test_grad_check_head_with_nll(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(3))

        def f(enc):
            pred = regression_head(params, enc)
            return ad.mean(gaussian_nll(np.array([0.7, -0.4]), pred))

        assert ad.grad_check(f, Tensor(rand((2, arch.t, arch.d), 4))) < 1e-4

    def test_sigma_positive_enforced(self):
        with pytest.raises(ContractError):
            ScorePrediction(Tensor(1.0), Tensor(0.0))
        with pytest.raises(ContractError):
            ScorePrediction(Tensor(1.0), Tensor(-2.0))


class TestTeacherForward:
    def test_determinism(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(1))
        x = Tensor(rand((arch.t, arch.d), 2))
        a = teacher_forward(params, x)
        b = teacher_forward(params, x)
        assert a.mu_value == b.mu_value and a.sigma_value == b.sigma_value

    def test_student_copy_predicts_identically(self):
        arch = small_arch()
        teacher = init_teacher_params(arch, np.random.default_rng(1))
        student = teacher.copy()
        x = Tensor(rand((arch.t, arch.d), 3))
        assert teacher_forward(teacher, x).mu_value == teacher_forward(student, x).mu_value

    def test_random_instance_is_finite(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(9))
        pred = teacher_forward(params, Tensor(rand((arch.t, arch.d), 10)))
        assert np.isfinite(pred.mu_value)
        assert pred.sigma_value > 0.0

    def test_accepts_feature_sequence(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(1))
        seq = FeatureSequence(Tensor(rand((arch.t, arch.d), 5)), "a", 1.0)
        assert np.isfinite(teacher_forward(params, seq).mu_value)


class TestReferenceForward:
    def test_zero_query_projection_gives_uniform_attention(self):
        arch = small_arch()
        params = init_reference_params(arch, np.random.default_rng(0))
        params.params["attn.0.w_query"].assign(np.zeros((arch.d, arch.d_k)))
        weights = attention_maps(
            params, Tensor(rand((arch.t, arch.d), 1)), Tensor(rand((arch.t, arch.d), 2))
        )[0]
        np.testing.assert_allclose(weights, np.full((arch.t, arch.t), 1.0 / arch.t), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        arch = small_arch()
        params = init_reference_params(arch, np.random.default_rng(3))
        weights = attention_maps(
            params, Tensor(rand((arch.t, arch.d), 4)), Tensor(rand((arch.t, arch.d), 5))
        )[0]
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(arch.t), atol=1e-12)

    def test_paper_snippet_shapes(self):
        arch = NetworkArch(t=10, d=1024)
        params = init_reference_params(arch, np.random.default_rng(6))
        pred = reference_forward(
            params, Tensor(rand((10, 1024), 7)), Tensor(rand((10, 1024), 8))
        )
        assert pred.mu.shape == ()
        assert np.isfinite(pred.mu_value)

    def test_pair_shape_mismatch(self):
        arch = small_arch()
        params = init_reference_params(arch, np.random.default_rng(0))
        good = Tensor(rand((arch.t, arch.d)))
        with pytest.raises(DimensionError):
            reference_forward(params, good, Tensor(rand((arch.t + 1, arch.d))))

    def test_zero_weights_reduce_to_residual_head(self):
        # zeroed output projections leave only the residual stream, so the
        # prediction depends on the mean-pooled raw input alone
        arch = small_arch()
        params = init_reference_params(arch, np.random.default_rng(1))
        zeroed(params, ["w_out", "mlp_out"])
        x = rand((arch.t, arch.d), 2)
        shuffled = x[np.random.default_rng(3).permutation(arch.t)]
        a = reference_forward(params, Tensor(x), Tensor(rand((arch.t, arch.d), 4)))
        b = reference_forward(params, Tensor(shuffled), Tensor(rand((arch.t, arch.d), 5)))
        assert a.mu_value == pytest.approx(b.mu_value, abs=1e-12)

    def test_grad_check_full_reference_with_relative_loss(self):
        arch = NetworkArch(t=3, d=6)
        params = init_reference_params(arch, np.random.default_rng(7))
        exemplar = Tensor(rand((2, 3, 6), 8))

        def f(xq):
            pred = reference_forward(params, xq, exemplar)
            return ad.mean(gaussian_nll(np.abs(np.array([1.5, -0.5])), pred))

        assert ad.grad_check(f, Tensor(rand((2, 3, 6), 9))) < 1e-4


class TestNetworkArch:
    @pytest.mark.parametrize("value", [10.7, 4.0, True, "4", None])
    def test_from_dict_accepts_only_ints(self, value):
        with pytest.raises(ConfigurationError, match="mixer_layers"):
            NetworkArch.from_dict({"t": 4, "d": 8, "mixer_layers": value})

    @pytest.mark.parametrize(
        "fields",
        [
            dict(t=0), dict(d=0), dict(mixer_layers=0), dict(attn_blocks=0),
            dict(token_hidden=-1), dict(channel_hidden=-1), dict(d_k=-1),
            dict(attn_mlp_hidden=-1),
        ],
    )
    def test_out_of_range_sizes_rejected(self, fields):
        with pytest.raises(DimensionError):
            NetworkArch(**{"t": 4, "d": 8, **fields})

    def test_zero_sizes_take_defaults(self):
        arch = NetworkArch(4, 8, token_hidden=0, d_k=0)
        assert (arch.token_hidden, arch.d_k) == (4, 2)


class TestNetworkType:
    def test_role_names_are_one_type(self):
        from trscore import Network, ReferenceParams, TeacherParams

        assert TeacherParams is ReferenceParams is Network
        arch = small_arch()
        teacher = init_teacher_params(arch, np.random.default_rng(0))
        reference = init_reference_params(arch, np.random.default_rng(1))
        assert type(teacher) is type(reference) is Network
