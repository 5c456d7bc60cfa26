"""Unfused ``autodiff`` operations, kept as test oracles.

The package records each Mixer sublayer, each cross-attention block, the
regression head and the Gaussian NLL as one fused tape node. The operations
below are the building blocks those nodes replaced: one tape node per numpy
expression, with the backward rules the fused nodes are derived from. They
share the array-level math of ``trscore.autodiff`` with the fused nodes, so
a composition of them must match a fused node bit for bit; the tests in
``test_fused.py`` check that, and ``test_autodiff.py`` checks each rule
against central differences.
"""

from __future__ import annotations

import numpy as np

from trscore import autodiff as ad
from trscore.autodiff import Array, Tensor
from trscore.errors import ContractError, DimensionError, DomainError


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.array - b.array

    def backward(g: Array) -> None:
        a._accumulate(ad._unbroadcast(g, a.shape))
        b._accumulate(ad._unbroadcast(-g, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.array == 0.0):
        raise DomainError("division by zero")
    out = a.array / b.array
    a_val, b_val = a.array, b.array

    def backward(g: Array) -> None:
        a._accumulate(ad._unbroadcast(g / b_val, a.shape))
        b._accumulate(ad._unbroadcast(-g * a_val / (b_val * b_val), b.shape))

    return Tensor._from_op(out, (a, b), backward)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.array)

    def backward(g: Array) -> None:
        x._accumulate(g * out)

    return Tensor._from_op(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    if np.any(x.array <= 0.0):
        raise DomainError("log of a non-positive operand")
    x_val = x.array
    out = np.log(x_val)

    def backward(g: Array) -> None:
        x._accumulate(g / x_val)

    return Tensor._from_op(out, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU in the exact Gaussian-CDF form x * Phi(x)."""
    x_val = x.array
    out, cdf = ad._gelu_forward(x_val)

    def backward(g: Array) -> None:
        x._accumulate(ad._gelu_backward(g, x_val, cdf))

    return Tensor._from_op(out, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through strictly inside."""
    if not lo < hi:
        raise ContractError(f"clip needs lo < hi, got [{lo}, {hi}]")
    x_val = x.array
    out = np.clip(x_val, lo, hi)

    def backward(g: Array) -> None:
        x._accumulate(g * ((x_val > lo) & (x_val < hi)))

    return Tensor._from_op(out, (x,), backward)


def transpose_last_two(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise DimensionError(
            f"transpose_last_two requires >= 2 dimensions, got shape {x.shape}"
        )
    out = np.swapaxes(x.array, -1, -2)

    def backward(g: Array) -> None:
        x._accumulate(np.swapaxes(g, -1, -2))

    return Tensor._from_op(out, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    new_shape = tuple(int(n) for n in shape)
    if int(np.prod(new_shape, dtype=np.int64)) != x.numel:
        raise DimensionError(f"cannot reshape {x.shape} into {new_shape}")
    old_shape = x.shape
    out = x.array.reshape(new_shape)

    def backward(g: Array) -> None:
        x._accumulate(g.reshape(old_shape))

    return Tensor._from_op(out, (x,), backward)


def select_index(x: Tensor, index: int) -> Tensor:
    """Pick one entry along the last axis (drops that axis)."""
    if x.ndim < 1:
        raise DimensionError("select_index requires at least one dimension")
    if not 0 <= index < x.shape[-1]:
        raise DimensionError(
            f"index {index} out of range for last axis of shape {x.shape}"
        )
    shape = x.shape
    out = x.array[..., index]

    def backward(g: Array) -> None:
        full = np.zeros(shape)
        full[..., index] = g
        x._accumulate(full)

    return Tensor._from_op(out, (x,), backward)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    shape = x.shape
    count = x.numel if axis is None else shape[axis]
    out = np.asarray(x.array.mean(axis=axis))
    scale = 1.0 / count

    def backward(g: Array) -> None:
        if axis is None:
            x._accumulate(np.broadcast_to(g * scale, shape))
        else:
            x._accumulate(np.broadcast_to(np.expand_dims(g * scale, axis), shape))

    return Tensor._from_op(out, (x,), backward)


def softmax_last_dim(x: Tensor) -> Tensor:
    out = ad._softmax_forward(x.array)

    def backward(g: Array) -> None:
        x._accumulate(ad._softmax_backward(g, out))

    return Tensor._from_op(out, (x,), backward)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the last dimension with learnable scale and shift."""
    d = x.shape[-1] if x.ndim >= 1 else 0
    if scale.shape != (d,) or shift.shape != (d,):
        raise DimensionError(
            f"layer_norm scale/shift must have shape ({d},), got "
            f"{scale.shape} and {shift.shape}"
        )
    out, xhat, inv = ad._layer_norm_forward(x.array, scale.array, shift.array)
    scale_val = scale.array

    def backward(g: Array) -> None:
        dx, d_scale, d_shift = ad._layer_norm_backward(g, xhat, inv, scale_val)
        shift._accumulate(d_shift)
        scale._accumulate(d_scale)
        x._accumulate(dx)

    return Tensor._from_op(out, (x, scale, shift), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires >= 2 dimensions on both operands, got "
            f"{a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise DimensionError(
            f"matmul leading dimensions incompatible: {a.shape} @ {b.shape}"
        ) from exc
    out = a.array @ b.array
    a_val, b_val = a.array, b.array

    def backward(g: Array) -> None:
        da, db = ad._matmul_backward(g, a_val, b_val)
        a._accumulate(ad._unbroadcast(da, a.shape))
        b._accumulate(ad._unbroadcast(db, b.shape))

    return Tensor._from_op(out, (a, b), backward)
