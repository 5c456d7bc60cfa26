"""Engine-level tests: op semantics, backward rules, grad_check contract."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore import autodiff as ad
from trscore.autodiff import ParameterSet, Tensor
from trscore.errors import ContractError, DimensionError, DomainError

import unfused


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestTensorStructure:
    def test_flat_row_major_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0, 4.0])
        assert int(np.prod(t.shape)) == t.data.size

    def test_grad_same_length_as_data(self):
        t = Tensor(rand((3, 4)), requires_grad=True)
        ad.sum(ad.mul(t, t)).backward()
        assert t.grad is not None
        assert t.grad.size == t.data.size

    def test_op_outputs_are_write_locked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = ad.mul(t, t)
        with pytest.raises(ValueError):
            out.array[0] = 99.0

    def test_backward_requires_scalar(self):
        t = Tensor(rand((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            ad.mul(t, t).backward()

    def test_finite_after_forward_backward(self):
        x = Tensor(rand((4, 5), seed=3), requires_grad=True)
        y = unfused.mean(unfused.gelu(unfused.softmax_last_dim(unfused.exp(x))))
        y.backward()
        assert np.all(np.isfinite(y.array))
        assert np.all(np.isfinite(x.grad))


class TestConstants:
    def test_a_constant_views_a_float64_c_contiguous_array(self):
        x = rand((3, 4))
        t = Tensor(x)
        assert np.shares_memory(t.array, x)
        assert not t.array.flags.writeable and x.flags.writeable
        with pytest.raises(ValueError):
            t.array[0, 0] = 1.0
        probe = Tensor(x, requires_grad=True)
        assert not np.shares_memory(probe.array, x) and probe.array.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [[[1.0, 2.0], [3.0, 4.0]], np.arange(4).reshape(2, 2), rand((2, 2)).T],
        ids=["list", "int array", "transposed view"],
    )
    def test_anything_else_is_converted_into_a_new_array(self, values):
        t = Tensor(values)
        assert t.array.dtype == np.float64 and t.array.flags.c_contiguous
        assert not t.array.flags.writeable
        assert not np.shares_memory(t.array, values)
        np.testing.assert_array_equal(t.array, np.asarray(values, dtype=np.float64))

    def test_as_tensor_passes_a_tensor_through(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert ad.as_tensor(t) is t
        x = rand(3)
        assert np.shares_memory(ad.as_tensor(x).array, x)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(unfused.matmul(eye, m).array, m.array)
        np.testing.assert_array_equal(unfused.matmul(m, eye).array, m.array)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(unfused.matmul(a, b).array, [[11.0]], atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(rand((2, 3)))
        b = Tensor(rand((4, 2)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            unfused.matmul(a, b)

    def test_backward_both_operands(self):
        a0, b0 = rand((3, 4), 1), rand((4, 2), 2)
        err_a = ad.grad_check(lambda a: ad.sum(unfused.matmul(a, Tensor(b0))), Tensor(a0))
        err_b = ad.grad_check(lambda b: ad.sum(unfused.matmul(Tensor(a0), b)), Tensor(b0))
        assert err_a < 1e-7 and err_b < 1e-7

    def test_batched_against_per_sample(self):
        a = rand((5, 3, 4), 1)
        b = rand((4, 2), 2)
        batched = unfused.matmul(Tensor(a), Tensor(b)).array
        for i in range(5):
            np.testing.assert_array_equal(batched[i], a[i] @ b)

    def test_batched_backward(self):
        b0 = rand((4, 2), 7)
        err = ad.grad_check(
            lambda a: ad.sum(unfused.matmul(a, Tensor(b0))), Tensor(rand((2, 3, 4), 6))
        )
        assert err < 1e-7
        a0 = rand((2, 3, 4), 8)
        err = ad.grad_check(lambda b: ad.sum(unfused.matmul(Tensor(a0), b)), Tensor(b0))
        assert err < 1e-7


class TestElementwise:
    def test_layer_norm_constant_vector_returns_shift(self):
        x = Tensor(np.full((3, 4), 7.0))
        scale = Tensor(rand(4, 1))
        shift = Tensor(rand(4, 2))
        out = unfused.layer_norm(x, scale, shift)
        np.testing.assert_allclose(out.array, np.broadcast_to(shift.array, (3, 4)), atol=1e-12)

    def test_softmax_uniform_on_constant(self):
        out = unfused.softmax_last_dim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.array, [1 / 3] * 3, atol=1e-15)

    def test_gelu_zero(self):
        assert unfused.gelu(Tensor([0.0])).array[0] == 0.0

    def test_gelu_matches_gaussian_cdf_form(self):
        from scipy.stats import norm

        x = rand(50, 5)
        np.testing.assert_allclose(
            unfused.gelu(Tensor(x)).array, x * norm.cdf(x), atol=1e-12
        )

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            unfused.log(Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            unfused.log(Tensor([-1.0]))

    def test_div_by_zero_domain_error(self):
        with pytest.raises(DomainError):
            unfused.div(Tensor([1.0]), Tensor([0.0]))

    def test_transpose_last_two(self):
        x = rand((2, 3, 4))
        np.testing.assert_array_equal(
            unfused.transpose_last_two(Tensor(x)).array, np.swapaxes(x, -1, -2)
        )
        with pytest.raises(DimensionError):
            unfused.transpose_last_two(Tensor([1.0, 2.0]))

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: ad.sum(unfused.exp(x)),
            lambda x: ad.sum(unfused.log(ad.add(ad.mul(x, x), Tensor(1.0)))),
            lambda x: ad.sum(unfused.gelu(x)),
            lambda x: ad.sum(unfused.softmax_last_dim(x)),
            lambda x: unfused.mean(ad.mul(unfused.transpose_last_two(x), Tensor(2.0))),
            lambda x: ad.sum(unfused.mean(x, axis=1)),
            lambda x: unfused.mean(ad.sum(x, axis=0)),
            lambda x: ad.sum(unfused.reshape(x, (12,))),
            lambda x: ad.sum(unfused.select_index(x, 1)),
            lambda x: ad.sum(unfused.div(Tensor(np.ones((3, 4))), ad.add(ad.mul(x, x), Tensor(1.0)))),
            lambda x: unfused.mean(unfused.sub(ad.mul(x, x), unfused.exp(x))),
        ],
    )
    def test_grad_check_each_op(self, fn):
        assert ad.grad_check(fn, Tensor(rand((3, 4), 11))) < 1e-6

    def test_layer_norm_grads_all_inputs(self):
        x0, s0, b0 = rand((3, 5), 1), rand(5, 2), rand(5, 3)
        assert ad.grad_check(
            lambda x: ad.sum(ad.mul(unfused.layer_norm(x, Tensor(s0), Tensor(b0)), Tensor(x0))),
            Tensor(x0),
        ) < 1e-5
        assert ad.grad_check(
            lambda s: ad.sum(ad.mul(unfused.layer_norm(Tensor(x0), s, Tensor(b0)), Tensor(x0))),
            Tensor(s0),
        ) < 1e-6
        assert ad.grad_check(
            lambda b: ad.sum(ad.mul(unfused.layer_norm(Tensor(x0), Tensor(s0), b), Tensor(x0))),
            Tensor(b0),
        ) < 1e-6

    def test_broadcast_bias_backward(self):
        x0 = rand((4, 3), 5)
        assert ad.grad_check(
            lambda b: ad.sum(ad.mul(ad.add(Tensor(x0), b), ad.add(Tensor(x0), b))),
            Tensor(rand(3, 6)),
        ) < 1e-6


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        probe = Tensor(x.array, requires_grad=True)
        out = ad.sum(ad.mul(probe, probe))
        out.backward()
        np.testing.assert_allclose(probe.grad, [2.0, 4.0], atol=1e-12)
        assert ad.grad_check(lambda t: ad.sum(ad.mul(t, t)), x) < 1e-6

    def test_linear_is_near_exact(self):
        err = ad.grad_check(lambda t: ad.sum(t), Tensor(rand(7, 4)))
        assert err < 1e-10

    def test_rejects_nonscalar(self):
        with pytest.raises(ContractError):
            ad.grad_check(lambda t: ad.mul(t, t), Tensor([1.0, 2.0]))

    def test_rejects_step_out_of_range(self):
        with pytest.raises(ContractError):
            ad.grad_check(lambda t: ad.sum(t), Tensor([1.0]), h=1e-2)
        with pytest.raises(ContractError):
            ad.grad_check(lambda t: ad.sum(t), Tensor([1.0]), h=1e-9)


class TestGraphProperties:
    def test_forward_determinism(self):
        def run():
            x = Tensor(rand((4, 4), 42))
            return unfused.mean(unfused.gelu(unfused.matmul(x, unfused.transpose_last_two(x)))).item()

        assert run() == run()

    def test_gradient_linearity(self):
        x0 = rand((3, 3), 9)

        def losses(t):
            l1 = ad.sum(ad.mul(t, t))
            l2 = unfused.mean(unfused.gelu(t))
            return l1, l2

        joint = Tensor(x0, requires_grad=True)
        l1, l2 = losses(joint)
        ad.add(l1, l2).backward()

        separate = Tensor(x0, requires_grad=True)
        l1, l2 = losses(separate)
        l1.backward()
        l2.backward()
        np.testing.assert_allclose(joint.grad, separate.grad, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_gradient_linearity_random(self, seed):
        x0 = rand((2, 3), seed)
        one = Tensor(x0, requires_grad=True)
        a = ad.sum(unfused.exp(one))
        b = ad.sum(ad.mul(one, one))
        ad.add(a, b).backward()
        two = Tensor(x0, requires_grad=True)
        ad.sum(unfused.exp(two)).backward()
        ad.sum(ad.mul(two, two)).backward()
        np.testing.assert_allclose(one.grad, two.grad, atol=1e-12)

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        with pytest.raises(ContractError):
            y.backward()

    def test_no_grad_in_one_thread_leaves_another_recording(self):
        entered, done = threading.Event(), threading.Event()

        def idle_without_grad():
            with ad.no_grad():
                entered.set()
                done.wait(10)

        helper = threading.Thread(target=idle_without_grad)
        helper.start()
        try:
            assert entered.wait(10)
            x = Tensor([3.0], requires_grad=True)
            ad.sum(ad.mul(x, x)).backward()
        finally:
            done.set()
            helper.join()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_interleaved_no_grad_exits_leave_recording_on(self):
        # this thread enters, the helper enters, this thread exits, the helper exits
        helper_in, main_out = threading.Event(), threading.Event()
        recorded = []

        def helper_body():
            with ad.no_grad():
                helper_in.set()
                main_out.wait(10)
            recorded.append(ad.mul(Tensor([1.0], requires_grad=True), Tensor(2.0)))

        helper = threading.Thread(target=helper_body)
        with ad.no_grad():
            helper.start()
            assert helper_in.wait(10)
        main_out.set()
        helper.join()
        assert recorded[0].requires_grad
        assert ad.mul(Tensor([1.0], requires_grad=True), Tensor(2.0)).requires_grad

    def test_no_grad_holds_per_thread_under_rapid_switching(self):
        wrong = []

        def churn(index):
            x = Tensor([1.0], requires_grad=True)
            for _ in range(300):
                with ad.no_grad():
                    if ad.mul(x, x).requires_grad:
                        wrong.append(index)
                if not ad.mul(x, x).requires_grad:
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = ad.mul(x, x)  # x used twice
        ad.sum(y).backward()
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)


class TestParameters:
    def test_same_seed_identical_sets(self):
        def build(seed):
            gen = np.random.default_rng(seed)
            values = np.concatenate([gen.uniform(-1, 1, 9), np.zeros(3)])
            return ParameterSet([("w", (3, 3)), ("b", (3,))], values)

        a, b = build(11), build(11)
        for name, p in a.items():
            np.testing.assert_array_equal(p.array, b[name].array)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ContractError):
            ParameterSet([("w", (1,)), ("w", (1,))], np.array([1.0, 2.0]))

    def test_copy_is_deep(self):
        ps = ParameterSet([("w", (2,))], np.array([1.0, 2.0]))
        dup = ps.copy()
        dup["w"].array[...] = [9.0, 9.0]
        np.testing.assert_array_equal(ps["w"].array, [1.0, 2.0])
