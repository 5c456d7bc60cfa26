"""Two-stage semi-supervised training loop.

Stage one (burn-in) trains the teacher and the reference comparator on
labeled data only. Stage two initializes the student as a copy of the teacher
and trains it on labeled data plus pseudo-labeled unlabeled data, where the
pseudo-label for each unlabeled sample is assembled from the teacher's
prediction on a weakly augmented view and the reference network's recovered
absolute score, both filtered through confidence memories. The teacher
receives no gradients after burn-in; it trails the student through a
per-epoch exponential moving average.

Both stages and the labeled-only baseline share one epoch body: a shuffled
pass over the labeled set in batches of ``batch_size``, where each batch
drives one optimizer step of the network being trained (the teacher during
burn-in, the student afterwards) and of the reference network when it is
enabled. Given unlabeled data, the body pairs every labeled batch with an
equal-sized unlabeled batch (a fixed 1:1 structure, drawn from a per-epoch
shuffled pass over the unlabeled pool, wrapping around when the pool is
small). ``burn_in_epoch`` runs the body on labeled data alone; ``trs_epoch``
runs it with the unlabeled pool and then the once-per-epoch EMA update; the
supervised baseline runs it on labeled data alone in both stages. ``train``
and ``train_supervised`` share one epoch driver.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import rng as streams
from .autodiff import ParameterSet, Tensor
from .data import _Cursor
from .errors import (
    ConfigurationError,
    ContractError,
    DivergenceError,
    MetricUndefinedError,
    ParseError,
)
from .memory import REFERENCE, TEACHER, ConfidenceMemory
from .networks import (
    FeatureSequence,
    Network,
    NetworkArch,
    init_reference_params,
    init_teacher_params,
    reference_forward,
    reference_layout,
    teacher_forward,
    teacher_layout,
)
from .objectives import (
    BETA_HORIZON,
    BETA_SHARPNESS,
    BetaSchedule,
    LossBreakdown,
    beta_at,
    gaussian_nll,
    supervised_loss,
    unsupervised_loss,
)

BURN_IN = "burn_in"
TRS = "trs"


@dataclass(frozen=True)
class ComponentToggles:
    """Ablation switches mirroring the component grid."""

    reference_network: bool = True
    teacher_memory: bool = True
    reference_memory: bool = True


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run. Adam's betas and epsilon and the shape of the
    unsupervised-weight ramp-up are constants; only its peak is a setting."""

    alpha: float = 0.99  # EMA momentum
    burn_in_epochs: int = 30
    max_epochs: int = 150
    learning_rate: float = 2e-4
    seed: int = 0
    batch_size: int = 4
    component_toggles: ComponentToggles = field(default_factory=ComponentToggles)
    augment_noise_std: float = 0.4
    beta_peak: float = 0.2

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.burn_in_epochs < 1:
            raise ConfigurationError(
                f"burn_in_epochs must be positive, got {self.burn_in_epochs}"
            )
        if self.max_epochs <= self.burn_in_epochs:
            raise ConfigurationError(
                f"max_epochs ({self.max_epochs}) must exceed burn_in_epochs "
                f"({self.burn_in_epochs})"
            )
        if self.learning_rate <= 0.0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.augment_noise_std < 0.0:
            raise ConfigurationError(
                f"augment_noise_std must be nonnegative, got {self.augment_noise_std}"
            )

    def schedule(self) -> BetaSchedule:
        return BetaSchedule(self.beta_peak)

    def to_dict(self) -> dict:
        """Flat key -> value map; the toggles sit beside the other fields."""
        flat = asdict(self)
        flat.update(flat.pop("component_toggles"))
        return flat

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Inverse of ``to_dict``; missing keys take their defaults."""
        flat = cls().to_dict()
        flat.update((key, coerce_config_value(key, value)) for key, value in raw.items())
        toggles = ComponentToggles(
            **{f.name: flat.pop(f.name) for f in fields(ComponentToggles)}
        )
        return cls(component_toggles=toggles, **flat)


# each flat key takes the type of its default value
_FLAT_KINDS = {key: type(value) for key, value in TrainConfig().to_dict().items()}
_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def coerce_config_value(key: str, value) -> bool | int | float:
    """Convert one flat config value to the type of that key's default.

    Config-file text, JSON values and parsed flags all go through their text
    form, so ``1.5`` for an integer key is rejected just like ``"1.5"``.
    """
    kind = _FLAT_KINDS.get(key)
    if kind is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    text = str(value).strip()
    try:
        parsed = _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"{key}: expected {kind.__name__}, got {value!r}"
        ) from None
    if kind is float and not np.isfinite(parsed):
        raise ConfigurationError(f"{key}: expected a finite float, got {value!r}")
    return parsed


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba, arXiv:1412.6980


class Adam:
    """Adam with bias correction over one parameter set.

    The moments are flat vectors parallel to the set's arena, so a step is a
    handful of vector expressions over every parameter at once.
    """

    def __init__(self, params: ParameterSet, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self._step = 0
        self._m = np.zeros(params.num_values())
        self._v = np.zeros(params.num_values())

    def zero_grad(self) -> None:
        self.params.zero_grad()

    def step(self) -> None:
        """Move every parameter, or none when no gradient arrived at all.

        Raises ``ContractError``, moving nothing, when only some parameters
        received a gradient since ``zero_grad``.
        """
        grads = [p.tensor.grad for p in self.params]
        missing = [p.name for p, g in zip(self.params, grads) if g is None]
        if missing and len(missing) < len(grads):
            raise ContractError(f"no gradient since zero_grad for {missing}")
        self._step += 1
        if missing:
            return
        g = np.concatenate(grads)
        correct1 = 1.0 - ADAM_BETA1 ** self._step
        correct2 = 1.0 - ADAM_BETA2 ** self._step
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        self.params.data -= self.learning_rate * (m / correct1) / (
            np.sqrt(v / correct2) + ADAM_EPSILON
        )
        for p in self.params:
            p.version += 1


def ema_update(theta_t: ParameterSet, theta_s: ParameterSet, alpha: float) -> ParameterSet:
    """Blend teacher toward student: alpha * theta_t + (1 - alpha) * theta_s.

    Returns a fresh parameter set; both inputs are left untouched.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must lie in (0, 1), got {alpha}")
    theta_t.assert_matches(theta_s)
    return theta_t.with_data(alpha * theta_t.data + (1.0 - alpha) * theta_s.data)


def augment(
    f: FeatureSequence,
    strength: str,
    rng: np.random.Generator,
    noise_std: float = 0.0,
) -> FeatureSequence:
    """Label-invariant feature augmentation.

    Weak: reverse the snippet order with probability 1/2. Strong: the weak
    transform plus zero-mean Gaussian noise (std ``noise_std``) on every
    feature. Returns a new sequence; the input is untouched.
    """
    if strength not in ("weak", "strong"):
        raise ContractError(f"strength must be 'weak' or 'strong', got {strength!r}")
    arr = f.features.array
    if rng.random() < 0.5:
        arr = arr[::-1]
    if strength == "strong":
        arr = arr + rng.normal(0.0, noise_std, size=arr.shape)
    return FeatureSequence(Tensor(arr), f.sample_id, f.score)


@dataclass
class TrsState:
    """Everything the two-stage loop mutates between epochs, each fact once:
    the stage is burn-in until ``theta_s`` exists, and ``opt_trained`` steps
    the ``trained`` network (the teacher in burn-in, the student after it).
    The run seed is not part of it: it lives in ``TrainConfig.seed``.
    """

    theta_t: Network
    theta_s: Network | None
    theta_f: Network
    epoch: int
    m_t: ConfidenceMemory
    m_r: ConfidenceMemory
    opt_trained: Adam
    opt_reference: Adam

    @property
    def stage(self) -> str:
        return BURN_IN if self.theta_s is None else TRS

    @property
    def trained(self) -> Network:
        return self.theta_t if self.theta_s is None else self.theta_s


def init_state(config: TrainConfig, arch: NetworkArch) -> TrsState:
    theta_t = init_teacher_params(arch, streams.derive(config.seed, streams.INIT_TEACHER))
    theta_f = init_reference_params(
        arch, streams.derive(config.seed, streams.INIT_REFERENCE)
    )
    return TrsState(
        theta_t=theta_t,
        theta_s=None,
        theta_f=theta_f,
        epoch=0,
        m_t=ConfidenceMemory(TEACHER),
        m_r=ConfidenceMemory(REFERENCE),
        opt_trained=Adam(theta_t.params, config.learning_rate),
        opt_reference=Adam(theta_f.params, config.learning_rate),
    )


# -- batched helpers ----------------------------------------------------------


def _stack(samples: Sequence[FeatureSequence]) -> np.ndarray:
    return np.stack([s.features.array for s in samples])


def _labels(samples: Sequence[FeatureSequence]) -> np.ndarray:
    return np.array([s.score for s in samples], dtype=np.float64)


def _augmented_stack(
    samples: Sequence[FeatureSequence], strength: str, epoch: int, config: TrainConfig
) -> np.ndarray:
    """Stack per-sample augmented views, one RNG stream per (strength, sample,
    epoch), so a sample repeated within an epoch gets the same view."""
    purpose = streams.AUGMENT_WEAK if strength == "weak" else streams.AUGMENT_STRONG
    out = []
    for s in samples:
        gen = streams.derive(config.seed, purpose, epoch, streams.id_hash(s.sample_id))
        out.append(augment(s, strength, gen, config.augment_noise_std).features.array)
    return np.stack(out)


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def _direct_nll(net: Network, x: np.ndarray, targets: np.ndarray) -> Tensor:
    """Summed Gaussian NLL of direct predictions over a stacked batch."""
    return ad.sum(gaussian_nll(targets, teacher_forward(net, Tensor(x))))


def _supervised_batch(
    direct_net: Network,
    reference_net: Network,
    x: np.ndarray,
    x_exemplar: np.ndarray,
    s: np.ndarray,
    s_exemplar: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Summed supervised terms over one labeled batch with its exemplars."""
    direct_pred = teacher_forward(direct_net, Tensor(x))
    relative_pred = reference_forward(reference_net, Tensor(x), Tensor(x_exemplar))
    l_reg_s, l_reg_r = supervised_loss(direct_pred, relative_pred, s, s_exemplar)
    return ad.sum(l_reg_s), ad.sum(l_reg_r)


# -- epochs -------------------------------------------------------------------


def _epoch(
    state: TrsState,
    labeled: Sequence[FeatureSequence],
    unlabeled: Sequence[FeatureSequence],
    beta: float,
    config: TrainConfig,
) -> LossBreakdown:
    """One shuffled pass over the labeled set; advances the epoch.

    Trains the teacher during burn-in and the student in the TRS stage, and
    the reference network on labeled pairs when enabled. With unlabeled data
    each labeled batch gets an unlabeled batch whose strong views learn,
    with weight ``beta``, from pseudo-labels made on their weak views.
    A non-finite loss term raises ``DivergenceError`` before its step.
    """
    if not labeled:
        raise ConfigurationError("an epoch requires at least one labeled sample")
    net, opt = state.trained, state.opt_trained
    use_reference = config.component_toggles.reference_network
    epoch = state.epoch
    n = len(labeled)
    m = len(unlabeled)
    x_lab = _stack(labeled)
    s_lab = _labels(labeled)

    order = streams.derive(config.seed, streams.SHUFFLE_LABELED, epoch).permutation(n)
    if use_reference:
        partner = streams.derive(config.seed, streams.PAIR_LABELED, epoch).integers(0, n, n)
    if m:
        unlab_order = streams.derive(
            config.seed, streams.SHUFFLE_UNLABELED, epoch
        ).permutation(m)
        if use_reference:
            unlab_partner = streams.derive(
                config.seed, streams.PAIR_UNLABELED, epoch
            ).integers(0, n, m)

    sums = {"l_reg_s": 0.0, "l_reg_r": 0.0, "l_unsup": 0.0}
    for b, (lo, hi) in enumerate(_batch_bounds(n, config.batch_size)):
        idx = order[lo:hi]
        opt.zero_grad()
        state.opt_reference.zero_grad()

        if use_reference:
            pair = partner[idx]
            batch_s, batch_r = _supervised_batch(
                net, state.theta_f, x_lab[idx], x_lab[pair], s_lab[idx], s_lab[pair]
            )
            total = ad.add(
                ad.mul(batch_s, Tensor(1.0 / idx.size)),
                ad.mul(batch_r, Tensor(1.0 / idx.size)),
            )
            terms = {"l_reg_s": batch_s.item(), "l_reg_r": batch_r.item()}
        else:
            batch_s = _direct_nll(net, x_lab[idx], s_lab[idx])
            total = ad.mul(batch_s, Tensor(1.0 / idx.size))
            terms = {"l_reg_s": batch_s.item()}

        if m:
            # 1:1 pairing: an unlabeled batch of the same size, wrapping over
            # the per-epoch shuffle when the pool runs out
            slots = unlab_order[np.arange(lo, hi) % m]
            batch = [unlabeled[int(j)] for j in slots]
            exemplars = None
            if use_reference:
                pair = unlab_partner[slots]
                exemplars = (x_lab[pair], s_lab[pair])
            s_bar = _pseudo_labels(state, batch, exemplars, config)
            x_strong = _augmented_stack(batch, "strong", epoch, config)
            strong_pred = teacher_forward(net, Tensor(x_strong))
            batch_u = ad.sum(unsupervised_loss(strong_pred, s_bar))
            total = ad.add(total, ad.mul(batch_u, Tensor(beta / len(batch))))
            terms["l_unsup"] = batch_u.item()

        diverged = [name for name, value in terms.items() if not math.isfinite(value)]
        if diverged:
            raise DivergenceError(
                f"epoch {epoch}, batch {b}: non-finite {', '.join(diverged)}; "
                "no parameter of this step was updated"
            )
        for name, value in terms.items():
            sums[name] += value
        total.backward()
        opt.step()
        if use_reference:
            state.opt_reference.step()

    state.epoch = epoch + 1
    # with unlabeled data every labeled sample was paired with one unlabeled
    return LossBreakdown.from_terms(
        **{name: value / n for name, value in sums.items()}, beta=beta
    )


def burn_in_epoch(
    state: TrsState, labeled: Sequence[FeatureSequence], config: TrainConfig
) -> LossBreakdown:
    """Supervised epoch for teacher (and reference, when enabled).

    The shared epoch body without unlabeled data: the teacher and the
    reference network learn from the labeled batches only. Advances the epoch.
    """
    if state.theta_s is not None:
        raise ContractError(f"burn_in_epoch requires stage {BURN_IN!r}, got {TRS!r}")
    return _epoch(state, labeled, (), 0.0, config)


def initialize_student(state: TrsState, config: TrainConfig) -> TrsState:
    """Copy the teacher into a fresh student and enter the TRS stage.

    Clears both confidence memories (they describe unlabeled data, which
    burn-in never touched); a fresh optimizer over the student replaces the teacher's.
    """
    if state.theta_s is not None:
        raise ContractError(f"student already initialized (stage {TRS!r})")
    if state.epoch != config.burn_in_epochs:
        raise ContractError(
            f"student must be initialized at epoch {config.burn_in_epochs}, "
            f"current epoch is {state.epoch}"
        )
    state.theta_s = state.theta_t.copy()
    state.opt_trained = Adam(state.theta_s.params, config.learning_rate)
    state.m_t.clear()
    state.m_r.clear()
    return state


def _memory_side(
    memory: ConfidenceMemory,
    enabled: bool,
    batch: Sequence[FeatureSequence],
    scores: np.ndarray,
    sigmas: np.ndarray,
    epoch: int,
) -> np.ndarray:
    """One side of the pseudo-label: the predicted ``scores`` themselves, or,
    with the memory on, each sample's stored score after the memory was
    offered the prediction. Scores holding a non-finite value pass through
    unoffered: the step's divergence check then names its loss term."""
    if not enabled or not np.isfinite(scores).all():
        return scores
    for sample, score, sigma in zip(batch, scores, sigmas):
        memory.maybe_write(sample.sample_id, score, sigma, epoch)
    return np.array([memory.read(sample.sample_id).score for sample in batch])


def _pseudo_labels(
    state: TrsState,
    batch: Sequence[FeatureSequence],
    exemplars: tuple[np.ndarray, np.ndarray] | None,
    config: TrainConfig,
) -> np.ndarray:
    """Pseudo-labels for one unlabeled batch, made on its weak views (no
    gradients).

    The teacher side is the teacher's prediction; the reference side, given
    the labeled ``exemplars`` (features and scores) the samples are compared
    with, is the exemplar's label plus the predicted difference. Each side
    passes through its own confidence memory when that memory is on, and the
    pseudo-label is the mean of the two sides (``fuse_pseudo_label``), or the
    teacher side alone without the reference network. A sample repeated
    within a batch has the same weak view, so its second write is a tie and
    the memory keeps the first.
    """
    toggles = config.component_toggles
    x_weak = Tensor(_augmented_stack(batch, "weak", state.epoch, config))
    with ad.no_grad():
        teacher_pred = teacher_forward(state.theta_t, x_weak)
    t_side = _memory_side(
        state.m_t, toggles.teacher_memory, batch,
        teacher_pred.mu_values, teacher_pred.sigma_values, state.epoch,
    )
    if exemplars is None:
        return t_side

    x_exemplar, s_exemplar = exemplars
    with ad.no_grad():
        relative_pred = reference_forward(state.theta_f, x_weak, Tensor(x_exemplar))
    r_side = _memory_side(
        state.m_r, toggles.reference_memory, batch,
        s_exemplar + relative_pred.mu_values, relative_pred.sigma_values, state.epoch,
    )
    return (t_side + r_side) / 2.0


def trs_epoch(
    state: TrsState,
    labeled: Sequence[FeatureSequence],
    unlabeled: Sequence[FeatureSequence],
    beta: float,
    config: TrainConfig,
) -> LossBreakdown:
    """One teacher-reference-student epoch.

    The shared epoch body trains the student and the reference network on the
    labeled batches, each paired with a pseudo-labeled unlabeled batch. The
    teacher receives no gradients; it trails the student by a single EMA
    update after the last step of the epoch.
    """
    if state.theta_s is None:
        raise ContractError(f"trs_epoch requires stage {TRS!r}, got {BURN_IN!r}")
    breakdown = _epoch(state, labeled, unlabeled, beta, config)
    state.theta_t = Network(
        state.theta_t.arch,
        ema_update(state.theta_t.params, state.theta_s.params, config.alpha),
    )
    return breakdown


# -- full runs ----------------------------------------------------------------


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    l_reg_s: float
    l_reg_r: float
    l_unsup: float
    beta: float
    total: float
    val_spearman: float

    @classmethod
    def from_breakdown(
        cls, epoch: int, bd: LossBreakdown, val_spearman: float
    ) -> "EpochMetrics":
        return cls(
            epoch, bd.l_reg_s, bd.l_reg_r, bd.l_unsup, bd.beta, bd.total, val_spearman
        )


METRICS_COLUMNS = tuple(f.name for f in fields(EpochMetrics))


def write_metrics_csv(rows: Sequence[EpochMetrics], path) -> None:
    """Metrics CSV with shortest-round-trip float formatting."""
    lines = [",".join(METRICS_COLUMNS) + "\n"]
    lines += [",".join(map(repr, astuple(r))) + "\n" for r in rows]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _check_training_sets(
    labeled: Sequence[FeatureSequence],
    unlabeled: Sequence[FeatureSequence],
    val: Sequence[FeatureSequence] = (),
) -> tuple[int, int]:
    """The (T, D) of every sample; the validation set may repeat training ids."""
    if not labeled:
        raise ConfigurationError("training requires at least one labeled sample")
    seen: set[str] = set()
    for sample in list(labeled) + list(unlabeled):
        if sample.sample_id in seen:
            raise ConfigurationError(f"duplicate sample id {sample.sample_id!r}")
        seen.add(sample.sample_id)
    for what, samples in (("labeled", labeled), ("validation", val)):
        for sample in samples:
            if sample.score is None:
                raise ConfigurationError(f"{what} sample {sample.sample_id!r} has no score")
    t, d = labeled[0].features.shape
    for sample in list(labeled) + list(unlabeled) + list(val):
        if sample.features.shape != (t, d):
            raise ConfigurationError(
                f"sample {sample.sample_id!r} has shape {sample.features.shape}, "
                f"expected ({t}, {d})"
            )
    return t, d


def _safe_val_spearman(net: Network | None, val_set) -> float:
    from .evaluation import evaluate

    if net is None or not val_set:
        return float("nan")
    try:
        rho, _ = evaluate(net, val_set)
    except MetricUndefinedError:
        return float("nan")
    return rho


def _run_epochs(
    config: TrainConfig,
    labeled_set: Sequence[FeatureSequence],
    unlabeled_set: Sequence[FeatureSequence],
    val_set: Sequence[FeatureSequence] | None,
    student_epoch: Callable[[TrsState, int], LossBreakdown],
) -> tuple[TrsState, list[EpochMetrics]]:
    """Burn-in epochs, the student at the boundary, then ``student_epoch``."""
    config.validate()
    val = list(val_set) if val_set is not None else list(labeled_set)
    t, d = _check_training_sets(labeled_set, unlabeled_set, val)
    state = init_state(config, NetworkArch(t=t, d=d))

    metrics: list[EpochMetrics] = []
    for epoch in range(config.max_epochs):
        if epoch < config.burn_in_epochs:
            bd = burn_in_epoch(state, labeled_set, config)
        else:
            if epoch == config.burn_in_epochs:
                initialize_student(state, config)
            bd = student_epoch(state, epoch)
        rho = _safe_val_spearman(state.theta_s, val)
        metrics.append(EpochMetrics.from_breakdown(epoch, bd, rho))
    return state, metrics


def train(
    config: TrainConfig,
    labeled_set: Sequence[FeatureSequence],
    unlabeled_set: Sequence[FeatureSequence],
    val_set: Sequence[FeatureSequence] | None = None,
    checkpoint_dir=None,
) -> tuple[Network, Network, list[EpochMetrics]]:
    """Run burn-in, student initialization and the TRS stage end to end.

    Returns the final teacher and student parameters and one metrics row per
    epoch. Validation Spearman is computed with the student only (NaN during
    burn-in, when no student exists); without an explicit validation set the
    labeled training samples are used. When ``checkpoint_dir`` is given the
    final run state is saved there.
    """
    schedule = config.schedule()

    def student_epoch(state: TrsState, epoch: int) -> LossBreakdown:
        beta = beta_at(epoch, schedule)
        return trs_epoch(state, labeled_set, unlabeled_set, beta, config)

    state, metrics = _run_epochs(config, labeled_set, unlabeled_set, val_set, student_epoch)
    if checkpoint_dir is not None:
        save_checkpoint(checkpoint_dir, state, config)
    return state.theta_t, state.theta_s, metrics


def train_supervised(
    config: TrainConfig,
    labeled_set: Sequence[FeatureSequence],
    val_set: Sequence[FeatureSequence] | None = None,
) -> tuple[Network, list[EpochMetrics]]:
    """Labeled-data-only baseline with the same epoch budget.

    Runs the same epochs as ``train`` (parameter copy and fresh optimizer at
    the burn-in boundary) so its loss trajectory is epoch-for-epoch
    comparable with a semi-supervised run, but with the component toggles
    forced off and no unlabeled data: no pseudo-labels, memories, EMA or
    reference network. Returns the student and one metrics row per epoch.
    """
    config = replace(config, component_toggles=ComponentToggles(False, False, False))

    def student_epoch(state: TrsState, epoch: int) -> LossBreakdown:
        return _epoch(state, labeled_set, (), 0.0, config)

    state, metrics = _run_epochs(config, labeled_set, (), val_set, student_epoch)
    return state.theta_s, metrics


# -- checkpointing ------------------------------------------------------------

_BIN_VERSION = 1


def save_parameter_set(params: ParameterSet, path) -> None:
    """Name table (name, shape per parameter) followed by raw float64 data."""
    chunks = [struct.pack("<II", _BIN_VERSION, len(params))]
    for name, p in params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", p.tensor.ndim))
        chunks.append(struct.pack(f"<{p.tensor.ndim}I", *p.tensor.shape))
    chunks.append(params.data.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_parameter_set(path) -> ParameterSet:
    """Inverse of ``save_parameter_set``.

    A malformed file (truncated anywhere, a bad version, name or shape, or
    bytes after the data section) raises ``ParseError`` naming the file and
    the byte offset.
    """
    with open(path, "rb") as stream:
        cur = _Cursor(stream, path)
        version, count = cur.unpack("II", "the header")
        if version != _BIN_VERSION:
            raise cur.error(f"unsupported parameter file version {version}", 0)
        layout: dict[str, tuple[int, ...]] = {}
        for _ in range(count):
            start = cur.offset
            (name_len,) = cur.unpack("H", "a name length")
            try:
                name = cur.take(name_len, "a parameter name").decode("utf-8")
            except UnicodeDecodeError:
                raise cur.error("parameter name is not UTF-8", start + 2) from None
            if not name or name in layout:
                raise cur.error(f"empty or duplicate parameter name {name!r}", start)
            (ndim,) = cur.unpack("B", "a rank")
            layout[name] = cur.unpack(f"{ndim}I", "a shape")
        size = sum(math.prod(shape) for shape in layout.values())
        raw = cur.take(8 * size, f"the data section ({size} values)")
        if cur.offset != cur.size:
            raise cur.error(f"{cur.size - cur.offset} bytes after the data section")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return ParameterSet.from_layout(layout.items(), data)


def save_checkpoint(directory, state: TrsState, config: TrainConfig) -> None:
    """Spec'd layout: params_{t,s,f}.bin, memory_{t,r}.tsv, state.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_parameter_set(state.theta_t.params, directory / "params_t.bin")
    if state.theta_s is not None:
        save_parameter_set(state.theta_s.params, directory / "params_s.bin")
    save_parameter_set(state.theta_f.params, directory / "params_f.bin")
    state.m_t.save_tsv(directory / "memory_t.tsv")
    state.m_r.save_tsv(directory / "memory_r.tsv")
    payload = {
        "epoch": state.epoch,
        "stage": state.stage,
        "config": config.to_dict(),
        "arch": state.theta_t.arch.to_dict(),
    }
    (directory / "state.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


_STATE_KEYS = {"epoch": int, "stage": str, "config": dict, "arch": dict}


def _read_state_json(path: Path) -> dict:
    """``state.json`` with every key ``load_checkpoint`` reads type-checked.

    Malformed JSON raises ``ParseError`` at its byte offset; a missing or
    mistyped key raises ``ConfigurationError`` naming the key and the file.
    """
    blob = path.read_bytes()
    try:
        payload = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8", exc.start) from None
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode("utf-8"))
        raise ParseError(f"{path}: {exc.msg}", offset) from None

    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    for key, kind in _STATE_KEYS.items():
        if key not in payload:
            raise ConfigurationError(f"{path}: key {key!r} is missing")
        value = payload[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigurationError(
                f"{path}: key {key!r} must be {kind.__name__}, got {value!r}"
            )
    if payload["stage"] not in (BURN_IN, TRS):
        raise ConfigurationError(
            f"{path}: key 'stage' must be {BURN_IN!r} or {TRS!r}, got {payload['stage']!r}"
        )
    if payload["epoch"] < 0:
        raise ConfigurationError(f"{path}: key 'epoch' must be >= 0, got {payload['epoch']}")
    return payload


# Settings that older state.json files carry and that are now constants: the
# value each still loads at, and for the arch keys the attribute it equals.
_RETIRED_CONFIG = {
    "adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_epsilon": ADAM_EPSILON,
    "beta_sharpness": BETA_SHARPNESS, "beta_horizon": BETA_HORIZON,
}
_RETIRED_ARCH = {"token_hidden": "t", "channel_hidden": "d", "d_k": "d_k", "attn_mlp_hidden": "d"}


def _retire(raw: dict, fixed: dict) -> dict:
    """``raw`` without its retired keys, each of which must hold its ``fixed``
    value; any other value raises ``ConfigurationError`` naming the key."""
    for key in fixed.keys() & raw.keys():
        if isinstance(raw[key], bool) or raw[key] != fixed[key]:
            raise ConfigurationError(f"{key} is now fixed at {fixed[key]!r}, got {raw[key]!r}")
    return {key: value for key, value in raw.items() if key not in fixed}


def load_checkpoint(directory) -> tuple[TrsState, TrainConfig]:
    """Restore a saved run state.

    Optimizer moments are not part of the checkpoint layout, so resumed
    optimizers start fresh. A malformed file, or a ``state.json`` that
    contradicts the others, raises ``ParseError`` or ``ConfigurationError``
    naming the file.
    """
    directory = Path(directory)
    state_path = directory / "state.json"
    payload = _read_state_json(state_path)
    try:
        config = TrainConfig.from_dict(_retire(payload["config"], _RETIRED_CONFIG))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{state_path}: config: {exc}") from None
    try:
        raw_arch = payload["arch"]
        arch = NetworkArch.from_dict({k: v for k, v in raw_arch.items() if k not in _RETIRED_ARCH})
        _retire(raw_arch, {key: getattr(arch, name) for key, name in _RETIRED_ARCH.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{state_path}: arch: {exc}") from None

    trs = payload["stage"] == TRS
    if trs != (directory / "params_s.bin").exists():
        where = "missing" if trs else "present"
        raise ConfigurationError(f"{state_path}: stage {payload['stage']!r}, params_s.bin {where}")

    def load(name: str, layout) -> Network:
        # the fused network ops index parameters by the arch's shapes
        params = load_parameter_set(directory / name)
        if [(key, p.tensor.shape) for key, p in params.items()] != layout:
            raise ConfigurationError(
                f"{directory / name}: parameter names or shapes do not match {arch}"
            )
        return Network(arch, params)

    theta_t = load("params_t.bin", teacher_layout(arch))
    theta_s = load("params_s.bin", teacher_layout(arch)) if trs else None
    theta_f = load("params_f.bin", reference_layout(arch))
    return TrsState(
        theta_t=theta_t,
        theta_s=theta_s,
        theta_f=theta_f,
        epoch=payload["epoch"],
        m_t=ConfidenceMemory.load_tsv(directory / "memory_t.tsv", TEACHER),
        m_r=ConfidenceMemory.load_tsv(directory / "memory_r.tsv", REFERENCE),
        opt_trained=Adam((theta_s if trs else theta_t).params, config.learning_rate),
        opt_reference=Adam(theta_f.params, config.learning_rate),
    ), config
