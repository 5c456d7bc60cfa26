"""Equation-level tests for the losses and the warm-up schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trscore.autodiff import Tensor
from trscore.errors import ContractError
from trscore.networks import ScorePrediction
from trscore.objectives import beta_at, gaussian_nll, supervised_loss, unsupervised_loss


def pred(mu, sigma, grad=False):
    return ScorePrediction(Tensor(float(mu), requires_grad=grad), Tensor(float(sigma)))


class TestGaussianNll:
    def test_zero_residual_unit_sigma(self):
        assert gaussian_nll(4.0, pred(4.0, 1.0)).item() == pytest.approx(0.0, abs=1e-12)

    def test_unit_residual_unit_sigma(self):
        assert gaussian_nll(3.0, pred(4.0, 1.0)).item() == pytest.approx(0.5, abs=1e-12)

    def test_zero_residual_sigma_two(self):
        got = gaussian_nll(4.0, pred(4.0, 2.0)).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_vector_form(self):
        p = ScorePrediction(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))
        got = gaussian_nll(np.array([1.0, 4.0]), p).array
        np.testing.assert_allclose(got, [0.0, math.log(2.0) + 4.0 / 8.0], atol=1e-12)

    def test_leaves_a_writable_target_writable_and_unchanged(self):
        target = np.array([1.0, 4.0])
        gaussian_nll(target, ScorePrediction(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])))
        assert target.flags.writeable
        np.testing.assert_array_equal(target, [1.0, 4.0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0.05, 20),
    )
    def test_lower_bound_log_sigma(self, target, mu, sigma):
        value = gaussian_nll(target, pred(mu, sigma)).item()
        assert value >= math.log(sigma) - 1e-12
        if target == mu:
            assert value == pytest.approx(math.log(sigma), abs=1e-12)

    def test_sigma_scan_minimized_at_abs_residual(self):
        # with a fixed nonzero residual r, sigma -> log(sigma) + r^2/(2 sigma^2)
        # is minimized at sigma = |r|
        residual = 1.7
        sigmas = np.linspace(0.05, 6.0, 2000)
        values = np.log(sigmas) + residual**2 / (2 * sigmas**2)
        best = sigmas[np.argmin(values)]
        assert best == pytest.approx(abs(residual), abs=0.01)
        analytic = gaussian_nll(residual, pred(0.0, abs(residual))).item()
        assert analytic <= values.min() + 1e-9


class TestSupervisedLoss:
    def test_all_zero_residuals(self):
        l_s, l_r = supervised_loss(pred(90.0, 1.0), pred(5.0, 1.0), 90.0, 85.0)
        assert l_s.item() == pytest.approx(0.0, abs=1e-12)
        assert l_r.item() == pytest.approx(0.0, abs=1e-12)

    def test_reference_target_is_absolute_difference(self):
        _, l_r = supervised_loss(pred(90.0, 1.0), pred(5.0, 1.0), 90.0, 85.0)
        assert l_r.item() == pytest.approx(0.0, abs=1e-12)

    def test_reference_residual_squared_halved(self):
        _, l_r = supervised_loss(pred(90.0, 1.0), pred(3.0, 1.0), 90.0, 85.0)
        assert l_r.item() == pytest.approx(2.0, abs=1e-12)


class TestUnsupervisedLoss:
    def test_zero_residual(self):
        assert unsupervised_loss(pred(5.0, 1.0), 5.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_two_unit_residual(self):
        assert unsupervised_loss(pred(0.0, 1.0), 2.0).item() == pytest.approx(2.0, abs=1e-12)

    def test_grad_wrt_mu(self):
        p = pred(0.0, 1.0, grad=True)
        unsupervised_loss(p, 1.0).backward()
        assert p.mu.grad[0] == pytest.approx(-1.0, abs=1e-12)


class TestBetaSchedule:
    def test_peak_at_horizon(self):
        assert beta_at(200) == pytest.approx(0.2, abs=1e-15)

    def test_at_zero(self):
        assert beta_at(0) == pytest.approx(0.2 * math.exp(-5.0), abs=1e-12)

    def test_midpoint(self):
        assert beta_at(100) == pytest.approx(0.2 * math.exp(-1.25), abs=1e-12)

    def test_clamps_beyond_horizon(self):
        assert beta_at(500) == pytest.approx(0.2, abs=1e-15)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            beta_at(-1)

    def test_nondecreasing_then_constant(self):
        values = [beta_at(t) for t in range(0, 400, 5)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert beta_at(201) == beta_at(350) == 0.2

    def test_custom_schedule(self):
        assert beta_at(137, peak=0.0) == 0.0
