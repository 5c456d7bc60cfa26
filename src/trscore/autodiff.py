"""Reverse-mode automatic differentiation over dense float64 tensors.

Tape style: each operation wraps its result in a new Tensor that records its
differentiable inputs and a backward closure. ``Tensor.backward()`` walks the
recorded graph once in reverse topological order, accumulating gradients.
Graphs are rebuilt on every forward pass; tensors are immutable once created
(operation outputs are write-locked), so a finished tape can never be
corrupted by later code.

Storage is a C-contiguous float64 numpy array; ``Tensor.data`` and
``Tensor.grad`` expose the flat row-major buffers.

The code is dispatch-bound: a tape node costs more in Python than its tiny
arithmetic. So the networks record each Mixer sublayer and each
cross-attention block, and ``objectives`` records the Gaussian NLL, as one
fused node with a hand-derived backward. The fused nodes share the array-level
math below (``_layer_norm_forward``/``_backward``, ``_gelu_*``,
``_softmax_*``, ``_matmul_backward``) with the unfused operations, and compute
the same numpy expressions on operands of the same memory layout, so their
values and gradients are bit-identical to the unfused compositions. The
unfused operations stay public: they are the building blocks of small graphs
and the oracles that the fused nodes are tested against.

A ``ParameterSet`` keeps all its values in one contiguous float64 vector
(``ParameterSet.data``) of which every parameter's tensor is a reshaped view,
so whole-set updates (Adam, EMA, copies, checkpoint data) are single vector
expressions.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, DomainError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_NORM_EPS = 1e-5

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (values only)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient."""

    __slots__ = ("_array", "requires_grad", "_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self._array = np.array(values, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self._grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @classmethod
    def _from_op(
        cls,
        values: Array,
        parents: Sequence["Tensor"],
        backward: Callable[[Array], None],
    ) -> "Tensor":
        out = cls.__new__(cls)
        # asarray with order="C" copies only non-contiguous views and, unlike
        # ascontiguousarray, preserves 0-d shapes
        arr = np.asarray(values, dtype=np.float64, order="C")
        arr.setflags(write=False)
        out._array = arr
        out._grad = None
        live = tuple(p for p in parents if p.requires_grad)
        if _grad_enabled and live:
            out.requires_grad = True
            out._parents = live
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- structure ---------------------------------------------------------

    @property
    def array(self) -> Array:
        """The shaped float64 value."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._array.shape)

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def numel(self) -> int:
        return int(self._array.size)

    @property
    def data(self) -> Array:
        """Flat row-major view of the value."""
        return self._array.reshape(-1)

    @property
    def grad(self) -> Array | None:
        """Flat row-major view of the accumulated gradient, if any."""
        return None if self._grad is None else self._grad.reshape(-1)

    def item(self) -> float:
        if self._array.size != 1:
            raise ContractError(
                f"item() requires a single-element tensor, got shape {self.shape}"
            )
        return float(self._array.reshape(-1)[0])

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        grad = "grad" if self.requires_grad else "no-grad"
        return f"Tensor(shape={self.shape}, {grad})"

    # -- backward ----------------------------------------------------------

    def _accumulate(self, grad: Array) -> None:
        if not self.requires_grad:
            return
        if self._grad is None:
            # the first term is added to zero, bit for bit, without zero-filling
            self._grad = np.add(grad, 0.0, out=np.empty_like(self._array))
        else:
            self._grad += grad

    def backward(self) -> None:
        """Reverse-mode pass from this scalar through the recorded graph."""
        if self._array.size != 1:
            raise ContractError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no recorded graph")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self._array))
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)


def _transposed(a: Array) -> Array:
    """C-contiguous copy of ``a`` with its last two axes swapped.

    The layout that ``transpose_last_two`` hands to the next operation; a
    fused op that feeds a transposed operand to ``@`` copies it the same way,
    because ``@`` may round differently on a strided operand.
    """
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise and reduction operations -----------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.array + b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.array - b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.array * b.array
    a_val, b_val = a.array, b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g * b_val, a.shape))
        b._accumulate(_unbroadcast(g * a_val, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.array == 0.0):
        raise DomainError("division by zero")
    out = a.array / b.array
    a_val, b_val = a.array, b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g / b_val, a.shape))
        b._accumulate(_unbroadcast(-g * a_val / (b_val * b_val), b.shape))

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


def _gelu_forward(x: Array) -> tuple[Array, Array]:
    """GELU values and the Gaussian CDF that the backward pass reuses."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def _gelu_backward(g: Array, x: Array, cdf: Array) -> Array:
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def gelu(x: Tensor) -> Tensor:
    """GELU in the exact Gaussian-CDF form x * Phi(x)."""
    x_val = x.array
    out, cdf = _gelu_forward(x_val)

    def backward(g: Array) -> None:
        x._accumulate(_gelu_backward(g, x_val, cdf))

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


def sum(x: Tensor, axis: int | None = None) -> Tensor:
    shape = x.shape
    out = np.asarray(x.array.sum(axis=axis))

    def backward(g: Array) -> None:
        if axis is None:
            x._accumulate(np.broadcast_to(g, shape))
        else:
            x._accumulate(np.broadcast_to(np.expand_dims(g, axis), shape))

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


def _softmax_forward(x: Array) -> Array:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(g: Array, out: Array) -> Array:
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - inner)


def softmax_last_dim(x: Tensor) -> Tensor:
    out = _softmax_forward(x.array)

    def backward(g: Array) -> None:
        x._accumulate(_softmax_backward(g, out))

    return Tensor._from_op(out, (x,), backward)


def _layer_norm_forward(
    x: Array, scale: Array, shift: Array, eps: float = LAYER_NORM_EPS
) -> tuple[Array, Array, Array]:
    """Layer-norm values plus the normalized input and inverse std."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * scale + shift, xhat, inv


def _layer_norm_backward(
    g: Array, xhat: Array, inv: Array, scale: Array, need_dx: bool = True
) -> tuple[Array | None, Array, Array]:
    """Gradients for (x, scale, shift); the x term is None unless needed."""
    lead = tuple(range(g.ndim - 1))
    d_shift = g.sum(axis=lead)
    d_scale = (g * xhat).sum(axis=lead)
    if not need_dx:
        return None, d_scale, d_shift
    gx = g * scale
    dx = inv * (
        gx
        - gx.mean(axis=-1, keepdims=True)
        - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, d_scale, d_shift


def layer_norm(
    x: Tensor, scale: Tensor, shift: Tensor, eps: float = LAYER_NORM_EPS
) -> Tensor:
    """Normalize over the last dimension with learnable scale and shift."""
    d = x.shape[-1] if x.ndim >= 1 else 0
    if scale.shape != (d,) or shift.shape != (d,):
        raise DimensionError(
            f"layer_norm scale/shift must have shape ({d},), got "
            f"{scale.shape} and {shift.shape}"
        )
    out, xhat, inv = _layer_norm_forward(x.array, scale.array, shift.array, eps)
    scale_val = scale.array

    def backward(g: Array) -> None:
        dx, d_scale, d_shift = _layer_norm_backward(g, xhat, inv, scale_val)
        shift._accumulate(d_shift)
        scale._accumulate(d_scale)
        x._accumulate(dx)

    return Tensor._from_op(out, (x, scale, shift), backward)


def _matmul_backward(g: Array, a: Array, b: Array) -> tuple[Array, Array]:
    """Gradients of ``a @ b`` for both operands, before unbroadcasting."""
    return g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g


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
        da, db = _matmul_backward(g, a_val, b_val)
        a._accumulate(_unbroadcast(da, a.shape))
        b._accumulate(_unbroadcast(db, b.shape))

    return Tensor._from_op(out, (a, b), backward)


# -- gradient verification ---------------------------------------------------


def grad_check(
    f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5
) -> float:
    """Compare reverse-mode gradients of ``f`` at ``x`` to central differences.

    Returns the maximum per-component relative error, falling back to
    absolute error where the finite-difference reference is below 1e-8 in
    magnitude. ``f`` must map a tensor to a scalar tensor.
    """
    if not 1e-7 <= h <= 1e-4:
        raise ContractError(f"step h must lie in [1e-7, 1e-4], got {h}")
    probe = Tensor(x.array, requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.numel != 1:
        raise ContractError("grad_check requires f to return a scalar tensor")
    out.backward()
    if probe.grad is None:
        analytic = np.zeros(probe.numel)
    else:
        analytic = probe.grad.copy()

    base = x.array.reshape(-1).copy()
    shape = x.shape
    numeric = np.empty_like(base)
    with no_grad():
        for i in range(base.size):
            keep = base[i]
            base[i] = keep + h
            hi = f(Tensor(base.reshape(shape))).item()
            base[i] = keep - h
            lo = f(Tensor(base.reshape(shape))).item()
            base[i] = keep
            numeric[i] = (hi - lo) / (2.0 * h)

    diff = np.abs(analytic - numeric)
    ref = np.abs(numeric)
    errors = np.where(ref < 1e-8, diff, diff / np.maximum(ref, 1e-300))
    return float(errors.max()) if errors.size else 0.0


# -- named parameters ---------------------------------------------------------


class Parameter:
    """A named trainable tensor with an update counter.

    All in-place mutation goes through ``assign``; the counter makes update
    provenance checkable (e.g. that EMA-only parameters were never stepped).
    """

    __slots__ = ("name", "tensor", "version")

    def __init__(self, name: str, values):
        if not name:
            raise ContractError("parameter name must be non-empty")
        self.name = name
        self.tensor = Tensor(values, requires_grad=True)
        self.version = 0

    @property
    def array(self) -> Array:
        return self.tensor.array

    @property
    def grad(self) -> Array | None:
        return self.tensor.grad

    def assign(self, values: Array) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.tensor.shape:
            raise DimensionError(
                f"cannot assign shape {arr.shape} to parameter "
                f"{self.name!r} of shape {self.tensor.shape}"
            )
        self.tensor._array[...] = arr
        self.version += 1

    def zero_grad(self) -> None:
        self.tensor.zero_grad()

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class ParameterSet:
    """Ordered collection of uniquely named parameters in one flat arena.

    ``data`` is a contiguous float64 vector holding every value in insertion
    order; each parameter's tensor is a reshaped view into it, so writes
    through ``Parameter.assign`` and writes to ``data`` are the same writes.
    ``add``/``new`` grow the vector and re-point the existing views.
    """

    def __init__(self, params: Iterable[Parameter] = ()):
        self._params: dict[str, Parameter] = {}
        self.data: Array = np.zeros(0)
        for p in params:
            self.add(p)

    @classmethod
    def from_layout(
        cls, layout: Iterable[tuple[str, tuple[int, ...]]], data: Array
    ) -> "ParameterSet":
        """Parameters named and shaped by ``layout`` over the vector ``data``.

        ``data`` is adopted, not copied.
        """
        out = cls()
        size = 0  # the module's own ``sum`` shadows the builtin
        for name, shape in layout:
            if name in out._params:
                raise ContractError(f"duplicate parameter name {name!r}")
            out._params[name] = Parameter(name, np.empty(shape))
            size += out._params[name].tensor.numel
        if data.shape != (size,) or data.dtype != np.float64:
            raise ContractError(
                f"arena needs {size} float64 values, got {data.dtype} {data.shape}"
            )
        out._bind(data)
        return out

    def with_data(self, data: Array) -> "ParameterSet":
        """A new set with this set's names and shapes over ``data``."""
        return ParameterSet.from_layout(
            ((name, p.tensor.shape) for name, p in self.items()), data
        )

    def _bind(self, data: Array) -> None:
        self.data = data
        offset = 0
        for p in self._params.values():
            size = p.tensor.numel
            p.tensor._array = data[offset : offset + size].reshape(p.tensor.shape)
            offset += size

    def add(self, param: Parameter) -> Parameter:
        if param.name in self._params:
            raise ContractError(f"duplicate parameter name {param.name!r}")
        self._params[param.name] = param
        self._bind(np.concatenate([self.data, param.array.reshape(-1)]))
        return param

    def new(self, name: str, values) -> Parameter:
        return self.add(Parameter(name, values))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def copy(self) -> "ParameterSet":
        return self.with_data(self.data.copy())

    def assert_matches(self, other: "ParameterSet") -> None:
        """Raise unless both sets share names and shapes."""
        if self.names() != other.names():
            raise ContractError(
                f"parameter sets disagree: {self.names()} vs {other.names()}"
            )
        for name, p in self.items():
            if p.tensor.shape != other[name].tensor.shape:
                raise ContractError(
                    f"parameter {name!r} shape mismatch: "
                    f"{p.tensor.shape} vs {other[name].tensor.shape}"
                )

    def num_values(self) -> int:
        return int(self.data.size)
