"""Network bodies for score regression on snippet-feature sequences.

Two architectures share one Gaussian regression head:

* a Mixer encoder (alternating token mixing across snippets and channel
  mixing across feature dimensions, each with a pre-norm residual MLP) used
  by the teacher and, with its own parameter set, by the student;
* a cross-attention comparator that scores one sequence against a reference
  exemplar sequence and regresses their score difference.

Teacher, student and reference network are one type, ``Network``; the forward
function a network is passed to picks its body. ``TeacherParams`` and
``ReferenceParams`` stay as its aliases for code that names networks by role.

Forward functions accept a single ``T x D`` sequence or a stacked
``B x T x D`` batch, each held as the constant ``Tensor(x)`` unless it is a
tensor, and return predictions of matching rank. Under ``no_grad`` the Mixer
encodes a large stacked batch in cache-sized row blocks and the head then
runs once over all the rows, which keeps the bits of one pass: the encoder
treats each row on its own, and the head's 2-D product does not (see
``mixer_forward``).

Each Mixer sublayer (token mixing, channel mixing) and each cross-attention
block is recorded as one fused tape node with a hand-derived backward: about
20 unfused nodes per layer cost more in Python dispatch than their arithmetic.
The regression head is fused too: one node for the pooling, the linear map,
the clip and the exponential, plus one thin node per output column, 3 nodes
where the unfused head took 7. A fused node computes the same numpy
expressions, in the same order and on operands of the same layout, as the
composition of unfused operations it replaces, so values and gradients are
bit-identical to it; the tests keep those compositions as oracles. Fused
nodes read ``ps[name]`` when they are called, so a caller may swap in
another tensor for a parameter to probe its gradient.

The settings records (``NetworkArch`` here, ``TrainConfig``, ``ComponentToggles``
and ``SyntheticSpec``) share one field-type rule, ``check_field_types``: an
``int`` field takes an integer and a ``float`` field a finite real number,
neither a bool, each stored as the builtin type (so a numpy number too); any
other field takes an instance of its declared type, such as a bool.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import ConfigurationError, ContractError, DimensionError, NonFiniteFeaturesError

LOG_SIGMA_BOUND = 10.0
# the features of one row block of a no-grad stacked encoding (``mixer_forward``):
# 51 rows at 10 x 64, so a sublayer's arrays fit in a 2 MB L2 cache
_ENCODE_BYTES = 1 << 18
MAX_ID_BYTES = 0xFFFF  # AQAF stores an id's length in two bytes


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """T x D snippet-feature matrix with an id and an optional score label,
    checked as the settings records are: a ``str`` id that AQAF and a memory
    file can hold (UTF-8, no newline, at most 65,535 bytes), None or a finite
    float (``finite_float``) as the score, finite float64 features with T, D
    >= 1 (else ``NonFiniteFeaturesError``); an error names the sample. It is
    frozen and compared by identity. A float64 ``ndarray`` is adopted and made
    read-only in place, so pass one that nothing writes afterwards; anything
    else is converted into a new array."""

    features: np.ndarray
    sample_id: str
    score: float | None = None

    def __post_init__(self):
        if not isinstance(self.sample_id, str):
            raise ConfigurationError(f"sample id must be a str, got {self.sample_id!r}")
        where = f"sample {self.sample_id!r}"
        if self.score is not None:
            object.__setattr__(self, "score", finite_float(self.score, f"{where}: score"))
        features = self.features
        if type(features) is not np.ndarray or features.dtype != np.float64:
            try:
                features = np.array(features, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{where}: features are not float64: {exc}") from None
        if features.ndim != 2 or 0 in features.shape:
            raise DimensionError(
                f"{where}: features must be 2-D (T x D), T, D >= 1, got shape {features.shape}"
            )
        # one vdot, finite unless a value is non-finite or above ~1e154 and silent
        # on overflow or a signalling NaN, is cheaper than the test that decides
        if not math.isfinite(np.vdot(features, features)) and not np.isfinite(features).all():
            raise NonFiniteFeaturesError(f"{where}: features are not all finite")
        try:
            size = len(self.sample_id.encode("utf-8"))
        except UnicodeEncodeError:
            raise ConfigurationError(f"{where}: id is not UTF-8 encodable") from None
        if size > MAX_ID_BYTES:
            raise ConfigurationError(
                f"sample {self.sample_id[:40]!r}...: id too long, {size} UTF-8 bytes "
                f"(at most {MAX_ID_BYTES})"
            )
        if "\n" in self.sample_id:
            raise ConfigurationError(f"{where}: id contains a newline")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)


def finite_float(value, what: str) -> float:
    """``value``, a real number other than a bool that is finite as a float,
    as a ``float``; else ``ConfigurationError`` naming ``what``."""
    # float first: it is the common case, and the ABC check is slow
    if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigurationError(f"{what}: expected a finite float, got {value!r}")


def check_field_types(record) -> None:
    """Hold each field of the dataclass ``record`` to the field-type rule
    (see the module docstring); raise ``ConfigurationError`` naming the first
    field that breaks it."""
    for name, kind in get_type_hints(type(record)).items():
        value = getattr(record, name)
        if kind is float:
            object.__setattr__(record, name, finite_float(value, name))  # records may be frozen
        elif not isinstance(value, numbers.Integral if kind is int else kind) or (
            isinstance(value, bool) != (kind is bool)
        ):
            raise ConfigurationError(f"{name}: expected {kind.__name__}, got {value!r}")
        elif kind is int:
            object.__setattr__(record, name, int(value))


@dataclass(frozen=True)
class NetworkArch:
    """Shapes of both network bodies for a dataset with T snippets, D dims:
    the token-mixing MLP is T wide, the channel-mixing and attention MLPs are
    D wide, and attention projects to ``d_k`` = max(1, D // 4) dimensions."""

    t: int
    d: int
    mixer_layers: int = 2
    attn_blocks: int = 1

    def __post_init__(self):
        check_field_types(self)
        if min(self.t, self.d, self.mixer_layers, self.attn_blocks) < 1:
            raise DimensionError(f"need t, d, mixer_layers and attn_blocks >= 1, got {self}")

    @property
    def d_k(self) -> int:
        return max(1, self.d // 4)


@dataclass
class ScorePrediction:
    """Predicted score mu with Gaussian standard deviation sigma (> 0).

    ``mu`` and ``sigma`` stay in the autodiff graph (a value that is not a
    tensor is held as ``Tensor(value)``); the accessors detach, ``mu_values``
    and ``sigma_values`` as read-only flat views. For batched predictions
    both have shape ``(B,)``.
    """

    mu: Tensor
    sigma: Tensor

    def __post_init__(self):
        self.mu, self.sigma = ad.as_tensor(self.mu), ad.as_tensor(self.sigma)
        if self.mu.shape != self.sigma.shape:
            raise DimensionError(
                f"mu/sigma shapes disagree: {self.mu.shape} vs {self.sigma.shape}"
            )
        if np.any(self.sigma.array <= 0.0):
            raise ContractError("sigma must be strictly positive")

    @property
    def mu_value(self) -> float:
        return self.mu.item()

    @property
    def sigma_value(self) -> float:
        return self.sigma.item()

    @property
    def mu_values(self) -> np.ndarray:
        return self.mu.data

    @property
    def sigma_values(self) -> np.ndarray:
        return self.sigma.data


@dataclass
class Network:
    """A network body's parameters and the arch that shapes them."""

    arch: NetworkArch
    params: ParameterSet

    def copy(self) -> "Network":
        return Network(self.arch, self.params.copy())


TeacherParams = ReferenceParams = Network


Layout = list[tuple[str, tuple[int, ...]]]


def teacher_layout(arch: NetworkArch) -> Layout:
    """Names and shapes of the Mixer encoder + head parameters, in order."""
    layout = []
    for i in range(arch.mixer_layers):
        prefix = f"mixer.{i}"
        layout += [
            (f"{prefix}.norm_token.scale", (arch.d,)),
            (f"{prefix}.norm_token.shift", (arch.d,)),
            (f"{prefix}.token_in", (arch.t, arch.t)),
            (f"{prefix}.token_out", (arch.t, arch.t)),
            (f"{prefix}.norm_channel.scale", (arch.d,)),
            (f"{prefix}.norm_channel.shift", (arch.d,)),
            (f"{prefix}.channel_in", (arch.d, arch.d)),
            (f"{prefix}.channel_out", (arch.d, arch.d)),
        ]
    return layout + _head_layout(arch)


def reference_layout(arch: NetworkArch) -> Layout:
    """Names and shapes of the cross-attention + head parameters, in order."""
    layout = []
    for i in range(arch.attn_blocks):
        prefix = f"attn.{i}"
        layout += [
            (f"{prefix}.norm_in.scale", (arch.d,)),
            (f"{prefix}.norm_in.shift", (arch.d,)),
            (f"{prefix}.w_query", (arch.d, arch.d_k)),
            (f"{prefix}.w_key", (arch.d, arch.d_k)),
            (f"{prefix}.w_value", (arch.d, arch.d_k)),
            (f"{prefix}.w_out", (arch.d_k, arch.d)),
            (f"{prefix}.norm_mlp.scale", (arch.d,)),
            (f"{prefix}.norm_mlp.shift", (arch.d,)),
            (f"{prefix}.mlp_in", (arch.d, arch.d)),
            (f"{prefix}.mlp_out", (arch.d, arch.d)),
        ]
    return layout + _head_layout(arch)


def _head_layout(arch: NetworkArch) -> Layout:
    # two raw outputs: mu and the log of sigma
    return [("head.weight", (arch.d, 2)), ("head.bias", (2,))]


def _init_params(layout: Layout, rng: np.random.Generator) -> ParameterSet:
    """Scales start at one, shifts and biases at zero; weight matrices are
    uniform in +-1/sqrt(fan_in), drawn in layout order."""
    values = []
    for name, shape in layout:
        if name.endswith(".scale"):
            values.append(np.ones(shape))
        elif name.endswith((".shift", ".bias")):
            values.append(np.zeros(shape))
        else:
            limit = 1.0 / math.sqrt(shape[0])  # shape is (fan_in, fan_out)
            values.append(rng.uniform(-limit, limit, size=shape))
    return ParameterSet(layout, np.concatenate([v.reshape(-1) for v in values]))


def init_teacher_params(arch: NetworkArch, rng: np.random.Generator) -> Network:
    """Fresh encoder+head parameters; identical seeds give identical values."""
    return Network(arch, _init_params(teacher_layout(arch), rng))


def init_reference_params(arch: NetworkArch, rng: np.random.Generator) -> Network:
    return Network(arch, _init_params(reference_layout(arch), rng))


def _check_sequence_shape(x: Tensor, arch: NetworkArch, what: str) -> None:
    if x.ndim not in (2, 3) or x.shape[-2:] != (arch.t, arch.d):
        raise DimensionError(
            f"{what} must be (T x D) or (B x T x D) with T={arch.t}, "
            f"D={arch.d}, got shape {x.shape}"
        )


def _prenorm_mlp(x, scale, shift, w_in, w_out, across_tokens: bool):
    """Arrays only: ``x + MLP(layer_norm(x))`` with GELU between projections.

    With ``across_tokens`` the MLP mixes along the snippet axis (the
    normalized input is transposed before it and the result back after it).
    Returns the output and a function that maps the output gradient to the
    gradients of (x, scale, shift, w_in, w_out); the x term (residual plus
    layer norm) is None when ``need_dx`` is false.
    """
    normed, xhat, inv = ad._layer_norm_forward(x, scale, shift)
    h_in = ad._transposed(normed) if across_tokens else normed
    pre = h_in @ w_in
    act, cdf = ad._gelu_forward(pre)
    mixed = act @ w_out
    out = x + (mixed.mT if across_tokens else mixed)

    def backward(g, need_dx: bool = True):
        g_mixed = ad._transposed(g) if across_tokens else g
        g_act, d_w_out = ad._matmul_backward(g_mixed, act, w_out)
        g_pre = ad._gelu_backward(g_act, pre, cdf)
        g_h_in, d_w_in = ad._matmul_backward(g_pre, h_in, w_in)
        g_normed = ad._transposed(g_h_in) if across_tokens else g_h_in
        dx, d_scale, d_shift = ad._layer_norm_backward(
            g_normed, xhat, inv, scale, need_dx
        )
        return (
            g + dx if need_dx else None,
            d_scale,
            d_shift,
            ad._unbroadcast(d_w_in, w_in.shape),
            ad._unbroadcast(d_w_out, w_out.shape),
        )

    return out, backward


def _mixer_sublayer(ps: ParameterSet, prefix: str, kind: str, x: Tensor) -> Tensor:
    """One pre-norm residual Mixer MLP (``kind`` token or channel) as one node."""
    params = tuple(
        ps[f"{prefix}.{name}"]
        for name in (f"norm_{kind}.scale", f"norm_{kind}.shift", f"{kind}_in", f"{kind}_out")
    )
    out, mlp_backward = _prenorm_mlp(
        x.array, *(p.array for p in params), across_tokens=kind == "token"
    )

    def backward(g) -> None:
        dx, *grads = mlp_backward(g, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)
        for p, grad in zip(params, grads):
            p._accumulate(grad)

    return Tensor._from_op(out, (x, *params), backward)


def mixer_forward(params: Network, features) -> Tensor:
    """Encode a sequence through the Mixer layers (shape-preserving).

    Each layer applies a pre-norm token-mixing MLP across the snippet axis
    with a residual connection, then a pre-norm channel-mixing MLP across the
    feature axis with a residual connection. GELU sits between the paired
    projections. Each of the two sublayers is one fused tape node.

    Under ``no_grad`` a stacked batch of more rows than fit in
    ``_ENCODE_BYTES`` of features is encoded in blocks of that many rows,
    whose outputs are concatenated, so that each sublayer's arrays stay in
    cache: a 256-row scoring chunk allocates 2.6x its features' bytes, not
    9x. The bits are those of one pass, since every operation of a sublayer
    treats each row on its own (a row's 3-D products do not depend on the
    batch size, layer norm reduces along the last axis, the rest is
    elementwise). With grad on a batch is never split, since the parameter
    gradients would sum in another order.
    """
    x = ad.as_tensor(features)
    _check_sequence_shape(x, params.arch, "mixer input")
    rows = max(1, _ENCODE_BYTES // (8 * params.arch.t * params.arch.d))
    if x.ndim == 2 or len(x.array) <= rows or ad._grad_enabled.get():
        return _mixer_layers(params, x)
    return Tensor(np.concatenate([
        _mixer_layers(params, Tensor(x.array[i : i + rows])).array
        for i in range(0, len(x.array), rows)
    ]))


def _mixer_layers(params: Network, x: Tensor) -> Tensor:
    """``x`` through every Mixer layer, one fused node per sublayer."""
    ps = params.params
    for i in range(params.arch.mixer_layers):
        x = _mixer_sublayer(ps, f"mixer.{i}", "token", x)
        x = _mixer_sublayer(ps, f"mixer.{i}", "channel", x)
    return x


def regression_head(params: Network, encoded: Tensor) -> ScorePrediction:
    """Mean-pool over snippets, then a linear map to (mu, log sigma).

    sigma is the exponential of the second raw output, so positivity holds by
    construction. Both bodies' layouts end in ``head.weight`` and
    ``head.bias``, so every network shares this head. The pooling, the map,
    the clip of log sigma and the exponential are one fused node whose last
    axis holds (mu, sigma); ``mu`` and ``sigma`` are thin column nodes on it.
    """
    if encoded.ndim < 2:
        raise DimensionError(
            f"regression head needs >= 2 dimensions, got shape {encoded.shape}"
        )
    ps = params.params
    weight, bias = ps["head.weight"], ps["head.bias"]
    *lead, t, d = encoded.shape
    pooled = np.add.reduce(encoded.array, axis=-2) / t
    if not lead:
        pooled = pooled.reshape(1, d)
    out = pooled @ weight.array + bias.array
    log_sigma = out[..., 1].copy()
    # bounding log-sigma keeps sigma positive yet finite under extreme
    # optimizer excursions
    sigma = np.exp(np.clip(log_sigma, -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND))
    out[..., 1] = sigma

    def backward(g) -> None:
        # the chain rule of the unfused nodes, term for term: exp, then clip.
        # Each unfused node also added its gradient to 0.0, turning a -0.0
        # into 0.0; every use of g_raw ends in such a sum, so the bits agree.
        inside = (log_sigma > -LOG_SIGMA_BOUND) & (log_sigma < LOG_SIGMA_BOUND)
        g_raw = g.copy()
        g_raw[..., 1] = g[..., 1] * sigma * inside
        bias._accumulate(ad._unbroadcast(g_raw, bias.shape))
        d_pooled, d_weight = ad._matmul_backward(g_raw, pooled, weight.array)
        weight._accumulate(ad._unbroadcast(d_weight, weight.shape))
        if encoded.requires_grad:
            # (..., 1, D): the accumulation broadcasts it over the snippets
            encoded._accumulate(d_pooled.reshape(*lead, 1, d) * (1.0 / t))

    head = Tensor._from_op(out, (encoded, weight, bias), backward)
    shape = tuple(lead)
    return ScorePrediction(
        _column(head, out[..., 0], 0, shape), _column(head, sigma, 1, shape)
    )


def _column(head: Tensor, values: np.ndarray, index: int, shape) -> Tensor:
    """Column ``index`` of ``head``'s last axis, reshaped to ``shape``."""

    def backward(g) -> None:
        full = np.zeros(head.shape)
        full[..., index] = g
        head._accumulate(full)

    return Tensor._from_op(values.reshape(shape), (head,), backward)


def teacher_forward(params: Network, v) -> ScorePrediction:
    """Directly regress a quality score from one sequence (teacher/student)."""
    return regression_head(params, mixer_forward(params, v))


def _attention_block(
    params: Network, i: int, x: Tensor, exemplar: Tensor
) -> tuple[Tensor, Tensor]:
    """One cross-attention block; returns (output, attention weights).

    The block (shared pre-norm, attention of the query over the exemplar,
    residual, then a pre-norm residual MLP) is one fused tape node. The
    weights are returned as a constant tensor: no loss differentiates
    through them.
    """
    ps = params.params
    prefix = f"attn.{i}"
    scale, shift, w_query, w_key, w_value, w_out = (
        ps[f"{prefix}.{name}"]
        for name in (
            "norm_in.scale", "norm_in.shift", "w_query", "w_key", "w_value", "w_out"
        )
    )
    mlp_params = tuple(
        ps[f"{prefix}.{name}"]
        for name in ("norm_mlp.scale", "norm_mlp.shift", "mlp_in", "mlp_out")
    )
    q_in, xhat_q, inv_q = ad._layer_norm_forward(x.array, scale.array, shift.array)
    kv_in, xhat_kv, inv_kv = ad._layer_norm_forward(
        exemplar.array, scale.array, shift.array
    )
    q = q_in @ w_query.array
    k = kv_in @ w_key.array
    v = kv_in @ w_value.array
    k_t = ad._transposed(k)
    logit_scale = 1.0 / math.sqrt(params.arch.d_k)
    weights = ad._softmax_forward((q @ k_t) * logit_scale)
    mixed = weights @ v
    x1 = x.array + mixed @ w_out.array
    out, mlp_backward = _prenorm_mlp(
        x1, *(p.array for p in mlp_params), across_tokens=False
    )

    def backward(g) -> None:
        g_x1, *mlp_grads = mlp_backward(g)
        for p, grad in zip(mlp_params, mlp_grads):
            p._accumulate(grad)
        g_mixed, d_w_out = ad._matmul_backward(g_x1, mixed, w_out.array)
        w_out._accumulate(ad._unbroadcast(d_w_out, w_out.shape))
        g_weights, g_v = ad._matmul_backward(g_mixed, weights, v)
        g_scores = ad._softmax_backward(g_weights, weights) * logit_scale
        g_q, g_k_t = ad._matmul_backward(g_scores, q, k_t)
        g_kv_k, d_w_key = ad._matmul_backward(ad._transposed(g_k_t), kv_in, w_key.array)
        g_kv_v, d_w_value = ad._matmul_backward(g_v, kv_in, w_value.array)
        g_q_in, d_w_query = ad._matmul_backward(g_q, q_in, w_query.array)
        w_key._accumulate(ad._unbroadcast(d_w_key, w_key.shape))
        w_value._accumulate(ad._unbroadcast(d_w_value, w_value.shape))
        w_query._accumulate(ad._unbroadcast(d_w_query, w_query.shape))
        dx, d_scale_q, d_shift_q = ad._layer_norm_backward(
            g_q_in, xhat_q, inv_q, scale.array, x.requires_grad
        )
        d_ex, d_scale_kv, d_shift_kv = ad._layer_norm_backward(
            g_kv_k + g_kv_v, xhat_kv, inv_kv, scale.array, exemplar.requires_grad
        )
        scale._accumulate(d_scale_q + d_scale_kv)
        shift._accumulate(d_shift_q + d_shift_kv)
        if dx is not None:
            x._accumulate(g_x1 + dx)
        if d_ex is not None:
            exemplar._accumulate(d_ex)

    node = Tensor._from_op(
        out,
        (x, exemplar, scale, shift, w_query, w_key, w_value, w_out, *mlp_params),
        backward,
    )
    return node, Tensor(weights)


def _cross_attend(params: Network, v_query, v_exemplar) -> tuple[Tensor, list[Tensor]]:
    """The query after every attention block over the exemplar, and each
    block's weights; inputs of the wrong shape raise ``DimensionError``."""
    x = ad.as_tensor(v_query)
    ex = ad.as_tensor(v_exemplar)
    _check_sequence_shape(x, params.arch, "reference query")
    _check_sequence_shape(ex, params.arch, "reference exemplar")
    if x.shape != ex.shape:
        raise DimensionError(
            f"query and exemplar shapes disagree: {x.shape} vs {ex.shape}"
        )
    maps = []
    for i in range(params.arch.attn_blocks):
        x, weights = _attention_block(params, i, x, ex)
        maps.append(weights)
    return x, maps


def reference_forward(params: Network, v_query, v_exemplar) -> ScorePrediction:
    """Regress the relative score of ``v_query`` against a scored exemplar.

    The query sequence attends over the exemplar (queries from the first
    input, keys and values from the second), followed by a residual MLP and
    the shared regression head; mu is the predicted score difference.
    """
    x, _ = _cross_attend(params, v_query, v_exemplar)
    return regression_head(params, x)


def attention_maps(params: Network, v_query, v_exemplar) -> list[np.ndarray]:
    """Per-block attention weights (query snippets x exemplar snippets)."""
    with ad.no_grad():
        _, maps = _cross_attend(params, v_query, v_exemplar)
    return [weights.array.copy() for weights in maps]
