"""Gaussian-uncertainty losses, the unsupervised-weight warm-up schedule and
the relative-score convention of the reference network.

Every loss is the negative log of a Gaussian likelihood with the predicting
network's own sigma, reduced to ``log(sigma) + residual^2 / (2 sigma^2)``
(constant terms dropped; they carry no gradient).

``gaussian_nll`` is one fused tape node with a hand-derived backward. It
evaluates the same numpy expressions, in the same order, as the composition
``log(sigma) + (target - mu)^2 / ((sigma * sigma) * 2)`` of ``autodiff``
operations, which the tests keep as its oracle, so values and gradients are
bit-identical to that composition.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DomainError
from .networks import ScorePrediction


# the ramp-up of temporal ensembling (Laine & Aila, arXiv:1610.02242)
BETA_SHARPNESS, BETA_HORIZON = 5.0, 200.0
BETA_PEAK = 0.2


def beta_at(t: float, peak: float = BETA_PEAK) -> float:
    """Unsupervised-loss weight at training epoch ``t``.

    peak * exp(-BETA_SHARPNESS * (1 - t/BETA_HORIZON)^2), clamped to its peak
    once t reaches the horizon; nondecreasing on [0, horizon].
    """
    if t < 0:
        raise ContractError(f"schedule epoch must be nonnegative, got {t}")
    u = min(float(t), BETA_HORIZON)
    return peak * math.exp(-BETA_SHARPNESS * (1.0 - u / BETA_HORIZON) ** 2)


def relative_target(s, s_l) -> np.ndarray:
    """What the reference network regresses for a sample scored ``s`` against
    an exemplar scored ``s_l``: their absolute difference |s - s_l|."""
    return np.abs(np.asarray(s, dtype=np.float64) - np.asarray(s_l, dtype=np.float64))


def recovered_score(s_l, mu) -> np.ndarray:
    """The absolute score read from a predicted difference ``mu`` against an
    exemplar scored ``s_l``: s_l + mu."""
    return np.asarray(s_l, dtype=np.float64) + np.asarray(mu, dtype=np.float64)


def gaussian_nll(target, pred: ScorePrediction) -> Tensor:
    """log(sigma) + (target - mu)^2 / (2 sigma^2), elementwise.

    ``target`` is a tensor or a constant (scalar or an array matching a
    batched prediction, held as ``Tensor(target)``); the result stays in the
    autodiff graph of ``pred``.
    """
    target_t, mu_t, sigma_t = ad.as_tensor(target), pred.mu, pred.sigma
    sigma = sigma_t.array
    if np.any(sigma <= 0.0):
        raise ContractError("prediction sigma must be strictly positive")
    residual = target_t.array - mu_t.array
    squared = residual * residual
    var2 = (sigma * sigma) * 2.0
    if np.any(var2 == 0.0):
        raise DomainError("division by zero")
    ratio = squared / var2
    out = np.log(sigma) + ratio

    def backward(g) -> None:
        g_ratio = ad._unbroadcast(g, ratio.shape)
        g_squared = ad._unbroadcast(g_ratio / var2, squared.shape)
        g_var2 = ad._unbroadcast(-g_ratio * squared / (var2 * var2), var2.shape)
        # sigma's three terms (log, then both factors of sigma * sigma) are
        # summed in the order the unfused graph sums them
        t = (g_var2 * 2.0) * sigma
        sigma_t._accumulate((ad._unbroadcast(g, sigma.shape) / sigma + t) + t)
        u = ad._unbroadcast(g_squared * residual, residual.shape)
        g_residual = u + u
        target_t._accumulate(ad._unbroadcast(g_residual, target_t.shape))
        mu_t._accumulate(ad._unbroadcast(-g_residual, mu_t.shape))

    return Tensor._from_op(out, (target_t, mu_t, sigma_t), backward)


def supervised_loss(
    student_pred: ScorePrediction,
    reference_pred: ScorePrediction,
    s,
    s_l,
) -> tuple[Tensor, Tensor]:
    """Per-sample supervised terms (direct regression, relative regression).

    The first term scores the direct prediction against the ground truth s;
    the second scores the relative prediction against ``relative_target(s,
    s_l)``. During burn-in the caller passes the teacher's prediction in the
    student slot.
    """
    l_reg_s = gaussian_nll(s, student_pred)
    l_reg_r = gaussian_nll(relative_target(s, s_l), reference_pred)
    return l_reg_s, l_reg_r


def unsupervised_loss(student_pred: ScorePrediction, s_bar) -> Tensor:
    """Pseudo-label regression term for the student on unlabeled data."""
    return gaussian_nll(s_bar, student_pred)
