"""Network-body tests: residual identities, equivariance, attention laws."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from trscore import autodiff as ad
from trscore import networks
from trscore.autodiff import ParameterSet, Tensor
from trscore.data import SyntheticSpec
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
    reference_layout,
    regression_head,
    teacher_forward,
    teacher_layout,
)
from trscore.objectives import gaussian_nll
from trscore.training import ComponentToggles, TrainConfig

import unfused


def small_arch(t=4, d=8):
    return NetworkArch(t=t, d=d)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def zeroed(params, substrings):
    for name, p in params.params.items():
        if any(s in name for s in substrings):
            p.array[...] = 0.0


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

        layout, values_of = [], []
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
            layout.append((name, p.shape))
            values_of.append(values.reshape(-1))
        permuted = ParameterSet(layout, np.concatenate(values_of))
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
        params.params["head.weight"].array[...] = 0.0
        params.params["head.bias"].array[...] = bias
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
            return unfused.mean(gaussian_nll(np.array([0.7, -0.4]), pred))

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

    def test_accepts_sample_features(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(1))
        seq = FeatureSequence(rand((arch.t, arch.d), 5), "a", 1.0)
        assert np.isfinite(teacher_forward(params, seq.features).mu_value)

    def test_leaves_a_writable_input_writable_and_unchanged(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(1))
        x = rand((3, arch.t, arch.d), 6)
        before = x.copy()
        teacher_forward(params, x)
        assert x.flags.writeable
        np.testing.assert_array_equal(x, before)

    def test_values_are_read_only_views(self):
        arch = small_arch()
        params = init_teacher_params(arch, np.random.default_rng(1))
        pred = teacher_forward(params, rand((3, arch.t, arch.d), 7))
        for values, tensor in ((pred.mu_values, pred.mu), (pred.sigma_values, pred.sigma)):
            assert values.shape == (3,) and np.shares_memory(values, tensor.array)
            assert not values.flags.writeable


def _rows(t, d):
    """Rows of one no-grad encoding block at T x D."""
    return max(1, networks._ENCODE_BYTES // (8 * t * d))


class TestRowBlocks:
    """A no-grad stacked batch is encoded in blocks of ``_ENCODE_BYTES`` of
    features; a budget patched large encodes it in one pass, the oracle."""

    @staticmethod
    def _bits(params, x):
        with ad.no_grad():
            pred = teacher_forward(params, x)
        return pred.mu_values.tobytes().hex(), pred.sigma_values.tobytes().hex()

    @pytest.mark.parametrize(
        "t, d, n",
        [(t, d, n) for t, d in ((10, 64), (7, 5)) for n in
         sorted({1, _rows(t, d) - 1, _rows(t, d), _rows(t, d) + 1, 256, 1025})]
        + [(16, 2100, 3)],  # one row is more than the budget: a block per row
    )
    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch, t, d, n):
        params = init_teacher_params(NetworkArch(t=t, d=d), np.random.default_rng(t))
        x = rand((n, t, d), n)
        blocked = self._bits(params, x)
        monkeypatch.setattr(networks, "_ENCODE_BYTES", 1 << 40)
        assert blocked == self._bits(params, x)

    def test_a_batch_with_grad_on_is_one_block(self, monkeypatch):
        arch, n = NetworkArch(t=10, d=64), 2 * _rows(10, 64) + 3
        x, targets = rand((n, 10, 64), 1), rand(n, 2)
        grads = []
        for budget in (networks._ENCODE_BYTES, 1 << 40):
            monkeypatch.setattr(networks, "_ENCODE_BYTES", budget)
            params = init_teacher_params(arch, np.random.default_rng(3))
            ad.sum(gaussian_nll(targets, teacher_forward(params, x))).backward()
            grads.append({name: p.grad.tobytes().hex() for name, p in params.params.items()})
        assert grads[0] == grads[1]

    def test_the_transient_memory_of_a_chunk_is_bounded(self):
        params = init_teacher_params(NetworkArch(t=10, d=64), np.random.default_rng(0))
        x = rand((256, 10, 64), 1)
        with ad.no_grad():
            teacher_forward(params, x)  # one-off allocations stay out of the peak
            tracemalloc.start()
            try:
                teacher_forward(params, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # one pass over all 256 rows peaks at about 9x the input's bytes
        assert peak <= 4 * x.nbytes


class TestReferenceForward:
    def test_zero_query_projection_gives_uniform_attention(self):
        arch = small_arch()
        params = init_reference_params(arch, np.random.default_rng(0))
        params.params["attn.0.w_query"].array[...] = 0.0
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

    @pytest.mark.parametrize("query, exemplar", [((4, 6), (4, 6)), ((5, 8), (4, 8)),
                                                 ((4, 8), (3, 8)), ((2, 4, 8), (4, 8))])
    def test_attention_maps_checks_inputs_like_reference_forward(self, query, exemplar):
        params = init_reference_params(small_arch(), np.random.default_rng(0))
        x, ex = Tensor(rand(query, 1)), Tensor(rand(exemplar, 2))
        for fn in (reference_forward, attention_maps):
            with pytest.raises(DimensionError):
                fn(params, x, ex)

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
            return unfused.mean(gaussian_nll(np.abs(np.array([1.5, -0.5])), pred))

        assert ad.grad_check(f, Tensor(rand((2, 3, 6), 9))) < 1e-4


# each settings record with the arguments of a valid instance
_RECORDS = {
    TrainConfig: {},
    ComponentToggles: {},
    NetworkArch: dict(t=4, d=8),
    SyntheticSpec: dict(num_samples=20),
}
_WRONG_VALUES = {
    "int": [2.5, True],
    "float": [True, "0.1", 10**400, float("inf")],
    "bool": [1, "no"],
    "ComponentToggles": ["x", None],
}
_NUMPY = {"int": np.int64, "float": np.float64}


@pytest.mark.parametrize(
    "record, field",
    [
        pytest.param(record, f, id=f"{record.__name__}.{f.name}")
        for record in _RECORDS
        for f in fields(record)
        if f.type in _WRONG_VALUES
    ],
)
def test_settings_records_check_field_types(record, field):
    valid = _RECORDS[record]
    expected = f"^{field.name}: expected (a finite )?{field.type}"
    for value in _WRONG_VALUES[field.type]:
        with pytest.raises(ConfigurationError, match=expected):
            record(**{**valid, field.name: value})
    if field.type in _NUMPY:
        # a numpy number is accepted and stored as the builtin one
        value = getattr(record(**valid), field.name)
        built = record(**{**valid, field.name: _NUMPY[field.type](value)})
        assert built == record(**valid) and type(getattr(built, field.name)) is type(value)


class TestNetworkArch:
    @pytest.mark.parametrize("value", [10.7, 4.0, True, "4", None])
    def test_from_dict_accepts_only_ints(self, value):
        with pytest.raises(ConfigurationError, match="mixer_layers"):
            NetworkArch(t=4, d=8, mixer_layers=value)

    @pytest.mark.parametrize(
        "fields",
        [dict(t=0), dict(d=0), dict(mixer_layers=0), dict(attn_blocks=0)],
    )
    def test_out_of_range_sizes_rejected(self, fields):
        with pytest.raises(DimensionError):
            NetworkArch(**{"t": 4, "d": 8, **fields})

    def test_widths_follow_t_and_d(self):
        arch = NetworkArch(4, 9)
        assert arch.d_k == 2 and NetworkArch(4, 3).d_k == 1
        shapes = dict(teacher_layout(arch) + reference_layout(arch))
        assert shapes["mixer.1.token_in"] == (4, 4) and shapes["mixer.1.channel_out"] == (9, 9)
        assert shapes["attn.0.w_out"] == (2, 9) and shapes["attn.0.mlp_in"] == (9, 9)


class TestNetworkType:
    def test_role_names_are_one_type(self):
        from trscore import Network, ReferenceParams, TeacherParams

        assert TeacherParams is ReferenceParams is Network
        arch = small_arch()
        teacher = init_teacher_params(arch, np.random.default_rng(0))
        reference = init_reference_params(arch, np.random.default_rng(1))
        assert type(teacher) is type(reference) is Network
