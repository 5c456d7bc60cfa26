"""Reverse-mode automatic differentiation over dense float64 tensors.

Tape style: each operation wraps its result in a new Tensor that records its
differentiable inputs and a backward closure. ``Tensor.backward()`` walks the
recorded graph once in reverse topological order, accumulating gradients.
Graphs are rebuilt on every forward pass; tensors are immutable once created
(operation outputs and constants are read-only), so a finished tape can never
be corrupted through a tensor by later code.

Storage is a C-contiguous float64 numpy array; ``Tensor.data`` and
``Tensor.grad`` expose the flat row-major buffers.

The package records each Mixer sublayer, each cross-attention block, the
regression head and the Gaussian NLL as one fused tape node with a
hand-derived backward, because a tape node costs more in Python than its
tiny arithmetic. What is left of a B=4 teacher pass (T=10, D=64) is about
half arithmetic, GELU's erf, layer norm and the matrix products, and half
dispatch. The fused nodes share the array-level math below
(``_layer_norm_forward``/``_backward``, ``_gelu_*``, ``_softmax_*``,
``_matmul_backward``) and compute the same numpy expressions on operands of
the same memory layout as the unfused compositions they replace, so their
values and gradients are bit-identical to them. Only ``add``, ``mul`` and
``sum``, which combine a step's loss terms, remain as operations here; the
unfused building blocks live in the tests as the fused nodes' oracles.

A ``ParameterSet`` maps each name of its layout, the ``[(name, shape)]``
list, to a tensor that is a reshaped view of one contiguous float64 vector
(``ParameterSet.data``), so whole-set updates (Adam, EMA, copies, checkpoint
data, a forked worker's exchange) are single vector expressions. Its
``version`` is its optimizer's step count.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_NORM_EPS = 1e-5

# per context, so that one thread's ``no_grad`` leaves another thread recording
_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "grad_enabled", default=True
)


class no_grad:
    """Context manager that disables graph recording (values only) in the
    current thread, or the current ``contextvars`` context, alone."""

    def __enter__(self) -> "no_grad":
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc) -> bool:
        _grad_enabled.reset(self._token)
        return False


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient.

    ``Tensor(values)`` is a constant: a read-only view of ``values`` as
    C-contiguous float64, which copies no such array and leaves its flags as
    they were, so pass one that nothing writes while the tape is in use.
    ``Tensor(values, requires_grad=True)`` owns a writable copy.
    """

    __slots__ = ("_array", "requires_grad", "_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        if requires_grad:
            self._array = np.array(values, dtype=np.float64, order="C")
        else:
            # a view, so that locking it leaves the caller's array as it was
            self._array = np.asarray(values, dtype=np.float64, order="C").view()
            self._array.setflags(write=False)
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
        """An operation's output over ``parents``; ``values`` is locked in place."""
        out = cls.__new__(cls)
        # asarray with order="C" copies only non-contiguous views and, unlike
        # ascontiguousarray, preserves 0-d shapes
        arr = np.asarray(values, dtype=np.float64, order="C")
        arr.setflags(write=False)
        out._array = arr
        out._grad = None
        live = tuple(p for p in parents if p.requires_grad) if _grad_enabled.get() else ()
        out.requires_grad = bool(live)
        out._parents = live
        out._backward = backward if live else None
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
                # leaves have no backward to order: only recorded nodes are walked
                if parent._parents and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self._array))
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a tensor, else the constant ``Tensor(x)``."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _transposed(a: Array) -> Array:
    """C-contiguous copy of ``a`` with its last two axes swapped.

    The layout that an unfused transpose node hands to the next operation; a
    fused op that feeds a transposed operand to ``@`` copies it the same way,
    because ``@`` may round differently on a strided operand.
    """
    return np.ascontiguousarray(a.mT)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


# -- the operations the package records unfused -----------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.array + b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.array * b.array
    a_val, b_val = a.array, b.array

    def backward(g: Array) -> None:
        a._accumulate(_unbroadcast(g * b_val, a.shape))
        b._accumulate(_unbroadcast(g * a_val, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def sum(x: Tensor, axis: int | None = None) -> Tensor:
    out = np.add.reduce(x.array, axis=axis)

    def backward(g: Array) -> None:
        # the accumulation broadcasts g back over the summed axis
        x._accumulate(g if axis is None else np.expand_dims(g, axis))

    return Tensor._from_op(out, (x,), backward)


# -- array-level math shared by the fused nodes ------------------------------
#
# ``np.add.reduce(x, ...) / n`` is what ``ndarray.mean`` computes, bit for bit,
# without its Python wrapper; ``.mT`` is ``np.swapaxes(x, -1, -2)``.


def _gelu_forward(x: Array) -> tuple[Array, Array]:
    """GELU values and the Gaussian CDF that the backward pass reuses."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def _gelu_backward(g: Array, x: Array, cdf: Array) -> Array:
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def _softmax_forward(x: Array) -> Array:
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_backward(g: Array, out: Array) -> Array:
    inner = np.add.reduce(g * out, axis=-1, keepdims=True)
    return out * (g - inner)


def _layer_norm_forward(x: Array, scale: Array, shift: Array) -> tuple[Array, Array, Array]:
    """Layer-norm values plus the normalized input and inverse std."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * scale + shift, xhat, inv


def _layer_norm_backward(
    g: Array, xhat: Array, inv: Array, scale: Array, need_dx: bool = True
) -> tuple[Array | None, Array, Array]:
    """Gradients for (x, scale, shift); the x term is None unless needed."""
    lead = tuple(range(g.ndim - 1))
    d_shift = np.add.reduce(g, axis=lead)
    d_scale = np.add.reduce(g * xhat, axis=lead)
    if not need_dx:
        return None, d_scale, d_shift
    n = g.shape[-1]
    gx = g * scale
    dx = inv * (
        gx
        - np.add.reduce(gx, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n)
    )
    return dx, d_scale, d_shift


def _matmul_backward(g: Array, a: Array, b: Array) -> tuple[Array, Array]:
    """Gradients of ``a @ b`` for both operands, before unbroadcasting."""
    return g @ b.mT, a.mT @ g


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
    analytic = np.zeros(probe.numel) if probe.grad is None else probe.grad

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


class ParameterSet:
    """Uniquely named parameter tensors laid out in order over one flat arena.

    ``layout`` is the ``[(name, shape)]`` list and ``data`` the contiguous
    float64 vector, adopted, not copied, that holds every value in layout
    order. ``ps[name]`` is the tensor that views that name's slice of it, so
    a write through either is a write to both; ``ps[name] = probe`` swaps in
    a tensor to probe the gradient through, and an unknown name raises
    ``ContractError``. ``version`` is the optimizer's step count.
    """

    def __init__(self, layout: Iterable[tuple[str, Sequence[int]]], data: Array):
        self.layout = [(name, tuple(shape)) for name, shape in layout]
        bounds = np.cumsum([0] + [math.prod(shape) for _, shape in self.layout])
        if data.shape != (bounds[-1],) or data.dtype != np.float64:
            raise ContractError(
                f"arena needs {bounds[-1]} float64 values, got {data.dtype} {data.shape}"
            )
        self.data, self.version = data, 0
        self._tensors: dict[str, Tensor] = {}
        for (name, shape), lo, hi in zip(self.layout, bounds, bounds[1:]):
            if not name or name in self._tensors:
                raise ContractError(f"empty or duplicate parameter name {name!r}")
            tensor = Tensor(0.0, requires_grad=True)
            tensor._array = data[lo:hi].reshape(shape)  # a view into the arena
            self._tensors[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise ContractError(f"no parameter named {name!r}") from None

    def __setitem__(self, name: str, tensor: Tensor) -> None:
        self[name]  # an unknown name raises
        self._tensors[name] = tensor

    def __iter__(self):
        return iter(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for tensor in self._tensors.values():
            tensor.zero_grad()

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.layout, self.data.copy())
