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
``B x T x D`` batch and return predictions of matching rank.

Each Mixer sublayer (token mixing, channel mixing) and each cross-attention
block is recorded as one fused tape node with a hand-derived backward: about
20 unfused nodes per layer cost more in Python dispatch than their arithmetic.
A fused node computes the same numpy expressions, in the same order and on
operands of the same layout, as the composition of ``autodiff`` operations it
replaces, so values and gradients are bit-identical to it; the tests keep
those compositions as oracles. Fused nodes read ``ps[name].tensor`` when they
are called, so a caller may swap a parameter's tensor to probe its gradient.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import ConfigurationError, ContractError, DimensionError

LOG_SIGMA_BOUND = 10.0


@dataclass
class FeatureSequence:
    """T x D snippet-feature matrix with an id and an optional score label."""

    features: Tensor
    sample_id: str
    score: float | None = None

    def __post_init__(self):
        if not isinstance(self.features, Tensor):
            self.features = Tensor(self.features)
        if self.features.ndim != 2:
            raise DimensionError(
                f"features must be 2-D (T x D), got shape {self.features.shape}"
            )
        t, d = self.features.shape
        if t < 1 or d < 1:
            raise DimensionError(f"features need T >= 1 and D >= 1, got {t} x {d}")
        if self.score is not None:
            self.score = float(self.score)

    @property
    def num_snippets(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled(self) -> bool:
        return self.score is not None


@dataclass(frozen=True)
class NetworkArch:
    """Shapes of both network bodies for a dataset with T snippets, D dims."""

    t: int
    d: int
    mixer_layers: int = 2
    token_hidden: int = 0  # 0 = default (T)
    channel_hidden: int = 0  # 0 = default (D)
    d_k: int = 0  # 0 = default (max(1, D // 4))
    attn_mlp_hidden: int = 0  # 0 = default (D)
    attn_blocks: int = 1

    def __post_init__(self):
        if min(self.t, self.d, self.mixer_layers, self.attn_blocks) < 1:
            raise DimensionError(
                f"need t, d, mixer_layers and attn_blocks >= 1, got {self}"
            )
        if min(self.token_hidden, self.channel_hidden, self.d_k, self.attn_mlp_hidden) < 0:
            raise DimensionError(f"hidden sizes and d_k must be >= 0 (0 = default), got {self}")
        object.__setattr__(self, "token_hidden", self.token_hidden or self.t)
        object.__setattr__(self, "channel_hidden", self.channel_hidden or self.d)
        object.__setattr__(self, "d_k", self.d_k or max(1, self.d // 4))
        object.__setattr__(self, "attn_mlp_hidden", self.attn_mlp_hidden or self.d)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkArch":
        """Inverse of ``to_dict``; every value must be an int (not a bool)."""
        for key, value in raw.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{key}: expected int, got {value!r}")
        return cls(**raw)


@dataclass
class ScorePrediction:
    """Predicted score mu with Gaussian standard deviation sigma (> 0).

    ``mu`` and ``sigma`` stay in the autodiff graph; scalar accessors detach.
    For batched predictions both have shape ``(B,)``.
    """

    mu: Tensor
    sigma: Tensor

    def __post_init__(self):
        if not isinstance(self.mu, Tensor):
            self.mu = Tensor(self.mu)
        if not isinstance(self.sigma, Tensor):
            self.sigma = Tensor(self.sigma)
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
        return self.mu.array.reshape(-1).copy()

    @property
    def sigma_values(self) -> np.ndarray:
        return self.sigma.array.reshape(-1).copy()


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
            (f"{prefix}.token_in", (arch.t, arch.token_hidden)),
            (f"{prefix}.token_out", (arch.token_hidden, arch.t)),
            (f"{prefix}.norm_channel.scale", (arch.d,)),
            (f"{prefix}.norm_channel.shift", (arch.d,)),
            (f"{prefix}.channel_in", (arch.d, arch.channel_hidden)),
            (f"{prefix}.channel_out", (arch.channel_hidden, arch.d)),
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
            (f"{prefix}.mlp_in", (arch.d, arch.attn_mlp_hidden)),
            (f"{prefix}.mlp_out", (arch.attn_mlp_hidden, arch.d)),
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
    return ParameterSet.from_layout(layout, np.concatenate([v.reshape(-1) for v in values]))


def init_teacher_params(arch: NetworkArch, rng: np.random.Generator) -> Network:
    """Fresh encoder+head parameters; identical seeds give identical values."""
    return Network(arch, _init_params(teacher_layout(arch), rng))


def init_reference_params(arch: NetworkArch, rng: np.random.Generator) -> Network:
    return Network(arch, _init_params(reference_layout(arch), rng))


def _as_tensor(x) -> Tensor:
    if isinstance(x, FeatureSequence):
        return x.features
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


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
    out = x + (np.swapaxes(mixed, -1, -2) if across_tokens else mixed)

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
        ps[f"{prefix}.{name}"].tensor
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
    """
    x = _as_tensor(features)
    _check_sequence_shape(x, params.arch, "mixer input")
    ps = params.params
    for i in range(params.arch.mixer_layers):
        x = _mixer_sublayer(ps, f"mixer.{i}", "token", x)
        x = _mixer_sublayer(ps, f"mixer.{i}", "channel", x)
    return x


def regression_head(params: Network, encoded: Tensor) -> ScorePrediction:
    """Mean-pool over snippets, then a linear map to (mu, log sigma).

    sigma is the exponential of the second raw output, so positivity holds by
    construction. Both bodies' layouts end in ``head.weight`` and
    ``head.bias``, so every network shares this head.
    """
    ps = params.params
    if encoded.ndim < 2:
        raise DimensionError(
            f"regression head needs >= 2 dimensions, got shape {encoded.shape}"
        )
    single = encoded.ndim == 2
    pooled = ad.mean(encoded, axis=-2)
    if single:
        pooled = ad.reshape(pooled, (1, pooled.shape[-1]))
    raw = ad.add(ad.matmul(pooled, ps["head.weight"].tensor), ps["head.bias"].tensor)
    mu = ad.select_index(raw, 0)
    # bounding log-sigma keeps sigma positive yet finite under extreme
    # optimizer excursions
    sigma = ad.exp(ad.clip(ad.select_index(raw, 1), -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND))
    if single:
        mu = ad.reshape(mu, ())
        sigma = ad.reshape(sigma, ())
    return ScorePrediction(mu, sigma)


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
        ps[f"{prefix}.{name}"].tensor
        for name in (
            "norm_in.scale", "norm_in.shift", "w_query", "w_key", "w_value", "w_out"
        )
    )
    mlp_params = tuple(
        ps[f"{prefix}.{name}"].tensor
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
    return node, Tensor._from_op(weights, (), None)


def reference_forward(params: Network, v_query, v_exemplar) -> ScorePrediction:
    """Regress the relative score of ``v_query`` against a scored exemplar.

    The query sequence attends over the exemplar (queries from the first
    input, keys and values from the second), followed by a residual MLP and
    the shared regression head; mu is the predicted score difference.
    """
    x = _as_tensor(v_query)
    ex = _as_tensor(v_exemplar)
    _check_sequence_shape(x, params.arch, "reference query")
    _check_sequence_shape(ex, params.arch, "reference exemplar")
    if x.shape != ex.shape:
        raise DimensionError(
            f"query and exemplar shapes disagree: {x.shape} vs {ex.shape}"
        )
    for i in range(params.arch.attn_blocks):
        x, _ = _attention_block(params, i, x, ex)
    return regression_head(params, x)


def attention_maps(params: Network, v_query, v_exemplar) -> list[np.ndarray]:
    """Per-block attention weights (query snippets x exemplar snippets)."""
    with ad.no_grad():
        x = _as_tensor(v_query)
        ex = _as_tensor(v_exemplar)
        maps = []
        for i in range(params.arch.attn_blocks):
            x, weights = _attention_block(params, i, x, ex)
            maps.append(weights.array.copy())
    return maps
