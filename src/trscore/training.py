"""Two-stage semi-supervised training loop.

Stage one (burn-in) trains the teacher and the reference comparator on
labeled data only. Stage two initializes the student as a copy of the teacher
and trains it on labeled data plus pseudo-labeled unlabeled data, where the
pseudo-label for each unlabeled sample is assembled from the teacher's
prediction on a weakly augmented view and the reference network's recovered
absolute score, both filtered through confidence memories. The teacher
receives no gradients after burn-in; it trails the student through a
per-epoch exponential moving average.

Both stages and the labeled-only baseline share one epoch: a shuffled pass
over the labeled set in batches of ``batch_size``, where each batch drives
one optimizer step of the network being trained (the teacher during
burn-in, the student afterwards) and of the reference network when it is
enabled. Given unlabeled data, every labeled batch is paired with an
equal-sized unlabeled batch (a fixed 1:1 structure, drawn from a per-epoch
shuffled pass over the unlabeled pool, wrapping around when the pool is
small). The epoch's draws (``_plan``) come from the seed once, and each step
has two halves. The trained network's half (``_trained_terms``) is its
direct term and its unsupervised term on the strong views. The
pseudo-label half (``_PseudoLabelHalf``) is the rest: the reference
network's term and step, the pseudo-labels, whose teacher side, head and
memory included, runs per batch, and the epoch's weak and strong views,
which depend on (seed, epoch, sample id) alone. Nothing of the trained
network's half reaches the other half within an epoch: the reference
network learns from labeled pairs only, and the teacher changes only
through the EMA at the epoch's end.

``burn_in_epoch``, ``trs_epoch`` and ``train_supervised`` run both halves
in this process through the one batch loop ``_steps``. ``train`` forks a
worker that owns the trained network and its optimizer and runs ``_steps``
over the pseudo-label half, which this process makes with the EMA, one
epoch ahead where it can. So this process makes every view: it writes each
TRS epoch's strong views to the worker one epoch ahead, into slot
``epoch % 2`` of shared memory, then sends "views ready", and then releases
the epoch's batches 1 ... nb with their pseudo-labels. The worker runs a
batch's forwards before it waits for that batch's release, and replies
with the epoch's row, which this process yields and validates while the
worker steps the next epoch (``_run_forked``, ``_validated_here``).
``train_supervised`` forks a validator that scores each epoch's student
while this process steps the next epoch. Where this process may not fork
(``workers._may_fork``), either call runs wholly in this process, and each
epoch's row is validated as it is stepped. Both ways give the same bits:
the forked process runs the same code on exact float64 copies of the same
values, passed through shared memory. No forked process outlives the call
that made it, whether the call returns or raises.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import struct
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import rng as streams
from .autodiff import ParameterSet, Tensor
from .data import Dataset, _Cursor, _write_csv, _write_file
from .errors import (
    ConfigurationError,
    ContractError,
    DivergenceError,
    MetricUndefinedError,
    ParseError,
)
from .memory import ConfidenceMemory, fuse_scores
from .networks import (
    FeatureSequence,
    Network,
    NetworkArch,
    check_field_types,
    finite_float,
    init_reference_params,
    init_teacher_params,
    reference_forward,
    reference_layout,
    teacher_forward,
    teacher_layout,
)
from .objectives import (
    BETA_PEAK,
    beta_at,
    gaussian_nll,
    recovered_score,
    relative_target,
    unsupervised_loss,
)
from .workers import _Exchange, _may_fork, _Worker

BURN_IN = "burn_in"
TRS = "trs"


@dataclass(frozen=True)
class ComponentToggles:
    """Ablation switches mirroring the component grid."""

    reference_network: bool = True
    teacher_memory: bool = True
    reference_memory: bool = True

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run, checked on construction: an invalid value
    raises ``ConfigurationError`` naming its key. Adam's betas and epsilon and
    the shape of the unsupervised-weight ramp-up are constants; only its peak
    is a setting."""

    alpha: float = 0.99  # EMA momentum
    burn_in_epochs: int = 30
    max_epochs: int = 150
    learning_rate: float = 2e-4
    seed: int = 0
    batch_size: int = 4
    component_toggles: ComponentToggles = field(default_factory=ComponentToggles)
    augment_noise_std: float = 0.4
    beta_peak: float = BETA_PEAK

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.burn_in_epochs < 1:
            raise ConfigurationError(f"burn_in_epochs must be positive, got {self.burn_in_epochs}")
        if self.max_epochs <= self.burn_in_epochs:
            raise ConfigurationError(
                f"max_epochs ({self.max_epochs}) must exceed burn_in_epochs "
                f"({self.burn_in_epochs})"
            )
        if self.learning_rate <= 0.0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        for key in ("augment_noise_std", "beta_peak"):
            if getattr(self, key) < 0.0:
                raise ConfigurationError(f"{key} must be nonnegative, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        """Flat key -> value map; the toggles sit beside the other fields."""
        flat = asdict(self)
        flat.update(flat.pop("component_toggles"))
        return flat

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Inverse of ``to_dict``; missing keys take their defaults, and the
        records check the values' types. An unknown key raises."""
        flat = cls().to_dict()
        for key in raw:
            if key not in flat:
                raise ConfigurationError(f"unknown config key {key!r}")
        flat.update(raw)
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


def coerce_config_value(key: str, text: str) -> bool | int | float:
    """Parse the text of one flat config value as the type of that key's
    default, so ``1.5`` for an integer key is rejected. Only config-file text
    is parsed here; typed values go to ``TrainConfig.from_dict`` as they are.
    """
    kind = _FLAT_KINDS.get(key)
    if kind is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    try:
        parsed = _BOOL_WORDS[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigurationError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    return finite_float(parsed, key) if kind is float else parsed


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba, arXiv:1412.6980


class Adam:
    """Adam with bias correction over one parameter set, whose ``version``
    is the step count. The moments are flat vectors parallel to the set's
    arena, so a step is a handful of vector expressions over every parameter
    at once. They write into two work vectors of the instance's own, so a
    step allocates nothing of the arena's size.
    """

    def __init__(self, params: ParameterSet, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        size = params.data.size
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._grad, self._work = np.empty(size), np.empty(size)

    def zero_grad(self) -> None:
        self.params.zero_grad()

    def step(self) -> None:
        """Move every parameter and advance the version, or change nothing
        when no gradient arrived at all.

        Raises ``ContractError``, moving nothing, when only some parameters
        received a gradient since ``zero_grad``.
        """
        grads = [p.grad for p in self.params]
        missing = [name for (name, _), g in zip(self.params.layout, grads) if g is None]
        if missing:
            if len(missing) < len(grads):
                raise ContractError(f"no gradient since zero_grad for {missing}")
            return
        step = self.params.version + 1
        correct1 = 1.0 - ADAM_BETA1 ** step
        correct2 = 1.0 - ADAM_BETA2 ** step
        m, v, g, work = self._m, self._v, self._grad, self._work
        np.concatenate(grads, out=g)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
        np.multiply(g, 1.0 - ADAM_BETA1, out=work)
        m *= ADAM_BETA1
        m += work
        np.multiply(g, g, out=g)
        g *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += g
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, correct1, out=work)
        work *= self.learning_rate
        np.divide(v, correct2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPSILON
        work /= g
        self.params.data -= work
        self.params.version += 1


def ema_update(theta_t: ParameterSet, theta_s: ParameterSet, alpha: float) -> ParameterSet:
    """Blend teacher toward student: alpha * theta_t + (1 - alpha) * theta_s.

    Returns a fresh parameter set; both inputs are left untouched.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must lie in (0, 1), got {alpha}")
    if theta_t.layout != theta_s.layout:
        raise ContractError(
            f"parameter sets disagree: {theta_t.layout} vs {theta_s.layout}"
        )
    return ParameterSet(theta_t.layout, alpha * theta_t.data + (1.0 - alpha) * theta_s.data)


def augment(
    features: np.ndarray,
    strength: str,
    rng: np.random.Generator,
    noise_std: float = 0.0,
) -> np.ndarray:
    """Label-invariant augmentation of a T x D feature array.

    Weak: reverse the snippet order with probability 1/2. Strong: the weak
    transform plus zero-mean Gaussian noise (std ``noise_std``, a finite
    number >= 0) on every feature. The input is untouched; a weak view may be
    a view of it.
    """
    if strength not in ("weak", "strong"):
        raise ContractError(f"strength must be 'weak' or 'strong', got {strength!r}")
    if not 0.0 <= noise_std < math.inf:
        raise ContractError(f"noise_std must be a finite number >= 0, got {noise_std!r}")
    if rng.random() < 0.5:
        features = features[::-1]
    if strength == "strong":
        features = features + rng.normal(0.0, noise_std, size=features.shape)
    return features


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
        m_t=ConfidenceMemory(),
        m_r=ConfidenceMemory(),
        opt_trained=Adam(theta_t.params, config.learning_rate),
        opt_reference=Adam(theta_f.params, config.learning_rate),
    )


# -- batched helpers ----------------------------------------------------------


def _stack(samples: Sequence[FeatureSequence]) -> np.ndarray:
    return np.stack([s.features for s in samples])


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
        out.append(augment(s.features, strength, gen, config.augment_noise_std))
    return np.stack(out)


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


# -- epochs -------------------------------------------------------------------


@dataclass(frozen=True)
class EpochMetrics:
    """One epoch's row: each loss term's mean per labeled sample, the
    unsupervised weight, total = (l_reg_s + l_reg_r) + beta * l_unsup, and
    the student's validation Spearman."""

    epoch: int
    l_reg_s: float
    l_reg_r: float
    l_unsup: float
    beta: float
    total: float
    val_spearman: float


# the loss terms of a step, in the order a step sums and names them
_TERMS = ("l_reg_s", "l_reg_r", "l_unsup")


@dataclass(frozen=True)
class _Pools:
    """The training samples as an epoch reads them: the labeled features and
    scores stacked, and the unlabeled pool."""

    x_lab: np.ndarray
    s_lab: np.ndarray
    unlabeled: Sequence[FeatureSequence]

    @classmethod
    def of(
        cls, labeled: Sequence[FeatureSequence], unlabeled: Sequence[FeatureSequence]
    ) -> "_Pools":
        """The pools, once every labeled sample has a score; there must be one."""
        if not labeled:
            raise ConfigurationError("training requires at least one labeled sample")
        for sample in labeled:
            if sample.score is None:
                raise ConfigurationError(f"labeled sample {sample.sample_id!r} has no score")
        return cls(_stack(labeled), _labels(labeled), unlabeled)


@dataclass(frozen=True)
class _Plan:
    """One epoch's draws, each derived once from (seed, purpose, epoch).

    ``order`` shuffles the labeled set, which ``bounds`` cuts into batches;
    with the reference network, ``partner`` is each labeled sample's
    exemplar. With unlabeled data, labeled position i meets the unlabeled
    sample ``slots[i]`` (a 1:1 pairing over the per-epoch shuffle of the
    pool, wrapping around when the pool runs out), whose reference side is
    made against the exemplar ``slot_partner[i]``.
    """

    epoch: int
    order: np.ndarray
    bounds: list[tuple[int, int]]
    partner: np.ndarray | None
    slots: np.ndarray | None
    slot_partner: np.ndarray | None


def _plan(config: TrainConfig, n: int, m: int, epoch: int) -> _Plan:
    use_reference = config.component_toggles.reference_network

    def draw(purpose: int) -> np.random.Generator:
        return streams.derive(config.seed, purpose, epoch)

    partner = draw(streams.PAIR_LABELED).integers(0, n, n) if use_reference else None
    slots = slot_partner = None
    if m:
        slots = draw(streams.SHUFFLE_UNLABELED).permutation(m)[np.arange(n) % m]
        if use_reference:
            slot_partner = draw(streams.PAIR_UNLABELED).integers(0, n, m)[slots]
    order = draw(streams.SHUFFLE_LABELED).permutation(n)
    return _Plan(
        epoch, order, _batch_bounds(n, config.batch_size), partner, slots, slot_partner
    )


def _trained_terms(
    net: Network,
    pools: _Pools,
    plan: _Plan,
    b: int,
    x_strong: np.ndarray | None,
    pseudo_labels: Callable[[], np.ndarray | None],
    beta: float,
) -> list[tuple[str, Tensor, float]]:
    """The trained network's half of batch ``b``: (name, loss summed over the
    batch, weight) of the direct term on the labeled batch and, given the
    strong views ``x_strong`` of the paired unlabeled batch (made by
    ``_PseudoLabelHalf``), of the unsupervised term on them. Both forwards
    run before ``pseudo_labels()`` is called for the batch's s_bar (None
    without unlabeled data), so that a caller may wait for it there."""
    lo, hi = plan.bounds[b]
    idx = plan.order[lo:hi]
    direct = gaussian_nll(pools.s_lab[idx], teacher_forward(net, Tensor(pools.x_lab[idx])))
    terms = [("l_reg_s", ad.sum(direct), 1.0 / idx.size)]
    strong_pred = None if x_strong is None else teacher_forward(net, Tensor(x_strong))
    s_bar = pseudo_labels()
    if strong_pred is not None:
        terms.append(
            ("l_unsup", ad.sum(unsupervised_loss(strong_pred, s_bar)), beta / len(x_strong))
        )
    return terms


class _PseudoLabelHalf:
    """Everything of one epoch's steps that the trained network does not
    touch: the reference network's term and step, the pseudo-labels, and the
    views of the unlabeled samples. ``_steps`` reads it through four members.

    ``x_strong``: with unlabeled data, construction makes the epoch's weak
    views (``x_weak``) and strong views, one row per labeled position, each
    from its sample's own stream (seed, strength, epoch, sample id); the
    trained network reads its batch's rows. None without unlabeled data.
    ``reference(b)`` returns batch ``b``'s relative term on its labeled pairs
    (none without the reference network) and, with unlabeled data, makes the
    reference side of the batch's pseudo-labels; both use the reference
    network before its step of batch ``b``, so call it for every batch in
    order, stepping in between. ``pseudo_labels(b)`` returns the batch's
    pseudo-labels (s_bar; None without unlabeled data), made after
    ``reference(b)`` on the weak views of its unlabeled samples by the
    teacher as it is at that call. Each side passes through its own
    confidence memory when that memory is on, and the two sides are fused
    (``fuse_scores``); a sample repeated within a batch has the same weak
    view, so its second write is a tie and the memory keeps the first.
    ``known(b)`` is empty: every term of the batch is made here.
    """

    x_strong = None

    def __init__(self, state: TrsState, pools: _Pools, plan: _Plan, config: TrainConfig):
        self.state, self.pools, self.plan = state, pools, plan
        self.toggles = config.component_toggles
        if plan.slots is not None:
            self.paired = [pools.unlabeled[int(j)] for j in plan.slots]
            self.x_weak = _augmented_stack(self.paired, "weak", plan.epoch, config)
            self.x_strong = _augmented_stack(self.paired, "strong", plan.epoch, config)
            self.r_side = np.empty(len(self.paired))

    def reference(self, b: int) -> list[tuple[str, Tensor, float]]:
        if not self.toggles.reference_network:
            return []
        plan, x_lab, s_lab = self.plan, self.pools.x_lab, self.pools.s_lab
        theta_f = self.state.theta_f
        lo, hi = plan.bounds[b]
        idx = plan.order[lo:hi]
        pair = plan.partner[idx]
        relative_pred = reference_forward(
            theta_f, Tensor(x_lab[idx]), Tensor(x_lab[pair])
        )
        relative = gaussian_nll(relative_target(s_lab[idx], s_lab[pair]), relative_pred)
        if plan.slots is not None:
            pair = plan.slot_partner[lo:hi]
            with ad.no_grad():
                pred = reference_forward(
                    theta_f, Tensor(self.x_weak[lo:hi]), Tensor(x_lab[pair])
                )
            self.r_side[lo:hi] = _memory_side(
                self.state.m_r, self.toggles.reference_memory, self.paired[lo:hi],
                recovered_score(s_lab[pair], pred.mu_values), pred.sigma_values, plan.epoch,
            )
        return [("l_reg_r", ad.sum(relative), 1.0 / idx.size)]

    def pseudo_labels(self, b: int) -> np.ndarray | None:
        if self.plan.slots is None:
            return None
        lo, hi = self.plan.bounds[b]
        with ad.no_grad():
            pred = teacher_forward(self.state.theta_t, Tensor(self.x_weak[lo:hi]))
        t_side = _memory_side(
            self.state.m_t, self.toggles.teacher_memory, self.paired[lo:hi],
            pred.mu_values, pred.sigma_values, self.plan.epoch,
        )
        if not self.toggles.reference_network:
            return t_side
        return fuse_scores(t_side, self.r_side[lo:hi])

    def known(self, b: int) -> dict[str, float]:
        return {}


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


def _checked(
    epoch: int, b: int, terms: list[tuple[str, Tensor, float]], known: dict[str, float]
) -> dict[str, float]:
    """Each term's value, with the ``known`` values of terms made elsewhere;
    any non-finite one raises ``DivergenceError`` naming every such term."""
    values = dict(known)
    values.update((name, loss.item()) for name, loss, _ in terms)
    diverged = [name for name in _TERMS if not math.isfinite(values.get(name, 0.0))]
    if diverged:
        raise DivergenceError(
            f"epoch {epoch}, batch {b}: non-finite {', '.join(diverged)}; "
            "no parameter of this step was updated"
        )
    return values


def _descend(terms: list[tuple[str, Tensor, float]], opt: Adam) -> None:
    """Backpropagate the weighted sum of ``terms`` and step ``opt``."""
    weighted = [ad.mul(loss, Tensor(weight)) for _, loss, weight in terms]
    functools.reduce(ad.add, weighted).backward()
    opt.step()


def _row(epoch: int, sums: dict[str, float], n: int, beta: float) -> EpochMetrics:
    # with unlabeled data every labeled sample was paired with one unlabeled
    means = {name: sums[name] / n for name in _TERMS}
    total = (means["l_reg_s"] + means["l_reg_r"]) + beta * means["l_unsup"]
    return EpochMetrics(epoch, **means, beta=beta, total=total, val_spearman=math.nan)


def _steps(state: TrsState, pools: _Pools, plan: _Plan, labels, beta: float) -> EpochMetrics:
    """The one batch loop: a shuffled pass over the labeled set that reads
    the pseudo-label half ``labels`` through its four members (see
    ``_PseudoLabelHalf``; ``_Released`` in ``train``'s worker); advances the
    epoch. Trains the teacher during burn-in and the student in the TRS
    stage, and the reference network when ``reference(b)`` returns its term.
    With unlabeled data each labeled batch gets an unlabeled batch whose
    strong views learn, with weight ``beta``, from pseudo-labels made on
    their weak views. Each network's loss is the weighted sum of its terms,
    in the order direct, relative, unsupervised. A non-finite loss term
    raises ``DivergenceError`` before the step. The row's Spearman is NaN.
    """
    sums = dict.fromkeys(_TERMS, 0.0)
    for b, (lo, hi) in enumerate(plan.bounds):
        state.opt_trained.zero_grad()
        state.opt_reference.zero_grad()
        relative = labels.reference(b)
        trained = _trained_terms(
            state.trained, pools, plan, b,
            None if labels.x_strong is None else labels.x_strong[lo:hi],
            functools.partial(labels.pseudo_labels, b), beta,
        )
        for name, value in _checked(plan.epoch, b, trained + relative, labels.known(b)).items():
            sums[name] += value
        _descend(trained, state.opt_trained)
        if relative:
            _descend(relative, state.opt_reference)
    state.epoch += 1
    return _row(plan.epoch, sums, len(pools.x_lab), beta)


def _epoch(
    state: TrsState, labeled: Sequence[FeatureSequence], unlabeled: Sequence[FeatureSequence],
    beta: float, config: TrainConfig,
) -> EpochMetrics:
    """``_steps`` with both halves of each step in lockstep in this process."""
    pools = _Pools.of(labeled, unlabeled)
    plan = _plan(config, len(labeled), len(unlabeled), state.epoch)
    return _steps(state, pools, plan, _PseudoLabelHalf(state, pools, plan, config), beta)


def burn_in_epoch(
    state: TrsState, labeled: Sequence[FeatureSequence], config: TrainConfig
) -> EpochMetrics:
    """Supervised epoch for teacher (and reference, when enabled).

    The shared epoch body without unlabeled data: the teacher and the
    reference network learn from the labeled batches only. Advances the epoch
    and returns its row, whose Spearman is NaN.
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


def _ema(state: TrsState, config: TrainConfig) -> None:
    state.theta_t = Network(
        state.theta_t.arch,
        ema_update(state.theta_t.params, state.theta_s.params, config.alpha),
    )


def trs_epoch(
    state: TrsState,
    labeled: Sequence[FeatureSequence],
    unlabeled: Sequence[FeatureSequence],
    beta: float,
    config: TrainConfig,
) -> EpochMetrics:
    """One teacher-reference-student epoch.

    The shared epoch body trains the student and the reference network on the
    labeled batches, each paired with a pseudo-labeled unlabeled batch. The
    teacher receives no gradients; it trails the student by a single EMA
    update after the last step of the epoch. Returns the epoch's row, whose
    Spearman is NaN.
    """
    if state.theta_s is None:
        raise ContractError(f"trs_epoch requires stage {TRS!r}, got {BURN_IN!r}")
    row = _epoch(state, labeled, unlabeled, beta, config)
    _ema(state, config)
    return row


# -- full runs ----------------------------------------------------------------


METRICS_COLUMNS = tuple(f.name for f in fields(EpochMetrics))


def write_metrics_csv(rows: Sequence[EpochMetrics], path) -> None:
    """Metrics CSV with shortest-round-trip float formatting."""
    _write_csv(path, METRICS_COLUMNS, ([repr(v) for v in astuple(r)] for r in rows))


def _check_training_sets(
    labeled: Sequence[FeatureSequence],
    unlabeled: Sequence[FeatureSequence],
    val: Sequence[FeatureSequence] = (),
) -> _Pools:
    """The training samples' pools, once they form a ``Dataset``; every
    validation sample has a score and the training shape, and may repeat a
    training id."""
    Dataset(list(labeled) + list(unlabeled))
    pools = _Pools.of(labeled, unlabeled)
    t, d = pools.x_lab.shape[1:]
    for sample in val:
        if sample.score is None:
            raise ConfigurationError(f"validation sample {sample.sample_id!r} has no score")
        if sample.features.shape != (t, d):
            raise ConfigurationError(
                f"sample {sample.sample_id!r} has shape {sample.features.shape}, "
                f"expected ({t}, {d})"
            )
    return pools


def _safe_val_spearman(net: Network | None, val_set) -> float:
    """The student's validation Spearman, NaN when undefined."""
    from .evaluation import evaluate

    if net is None or not val_set:
        return float("nan")
    try:
        rho, _ = evaluate(net, val_set)
    except MetricUndefinedError:
        return float("nan")
    return rho


def _start(
    config: TrainConfig,
    labeled_set: Sequence[FeatureSequence],
    unlabeled_set: Sequence[FeatureSequence],
    val_set: Sequence[FeatureSequence] | None,
) -> tuple[TrsState, _Pools, list[FeatureSequence]]:
    """The initial state, the pools and the checked validation set (the
    labeled set without one)."""
    val = list(val_set) if val_set is not None else list(labeled_set)
    pools = _check_training_sets(labeled_set, unlabeled_set, val)
    t, d = pools.x_lab.shape[1:]
    return init_state(config, NetworkArch(t=t, d=d)), pools, val


def _run_epochs(
    config: TrainConfig,
    state: TrsState,
    labeled_set: Sequence[FeatureSequence],
    student_epoch: Callable[[TrsState, int], EpochMetrics],
) -> Iterator[EpochMetrics]:
    """Burn-in epochs, the student at the boundary, then ``student_epoch``,
    all stepped in this process; yields each epoch's row once it is stepped,
    its Spearman NaN."""
    for epoch in range(config.max_epochs):
        if epoch < config.burn_in_epochs:
            yield burn_in_epoch(state, labeled_set, config)
        else:
            if epoch == config.burn_in_epochs:
                initialize_student(state, config)
            yield student_epoch(state, epoch)


def _validated_here(
    rows: Iterator[EpochMetrics], state: TrsState, val: Sequence[FeatureSequence], burn_in: int
) -> list[EpochMetrics]:
    """Each row as it is yielded, with the Spearman of the student it left
    (NaN before epoch ``burn_in``). ``rows`` is closed however this ends, so
    that a worker behind it stops with the call."""
    with contextlib.closing(rows):
        return [replace(row, val_spearman=_safe_val_spearman(
            state.theta_s if row.epoch >= burn_in else None, val)) for row in rows]


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

    The run uses two processes where this process may fork
    (``workers._may_fork``). A forked worker owns the trained network (the
    teacher in burn-in, the student after it) and its Adam state, and makes
    every step of it. This process makes everything else: the reference
    network's steps, the pseudo-labels, the EMA and the validation. While
    the worker steps an epoch, this process validates the previous epoch's
    student, with no scorer forked beside the worker, and makes the
    reference side of the next epoch. Elsewhere the run stays in this
    process, epoch by epoch through ``burn_in_epoch``,
    ``initialize_student`` and ``trs_epoch``; both ways give bit-identical
    outputs. An error the worker raises is raised here with the same type,
    text and attributes, as it would be in one process; one that pickle
    cannot rebuild, or a worker that ends without a reply, raises
    ``WorkerError``. No worker outlives the call.
    """
    state, pools, val = _start(config, labeled_set, unlabeled_set, val_set)
    if _may_fork():
        rows = _run_forked(config, state, pools)
    else:
        def student_epoch(state: TrsState, epoch: int) -> EpochMetrics:
            return trs_epoch(state, labeled_set, unlabeled_set, _beta(config, epoch), config)

        rows = _run_epochs(config, state, labeled_set, student_epoch)
    metrics = _validated_here(rows, state, val, config.burn_in_epochs)
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

    Every step runs in this process. Where this process may fork
    (``workers._may_fork``) and the validation set is not empty, a forked
    validator scores each epoch's student while this process steps the next
    epoch: it copies the student's arena from shared memory into its own
    network and runs the same ``evaluate``, so the rows are bit-identical to
    validating in this process, as happens elsewhere. An error the validator
    raises is raised here with the same type, text and attributes; one that
    pickle cannot rebuild, or a validator that ends without a reply, raises
    ``WorkerError``. No validator outlives the call.
    """
    config = replace(config, component_toggles=ComponentToggles(False, False, False))

    def student_epoch(state: TrsState, epoch: int) -> EpochMetrics:
        return _epoch(state, labeled_set, (), 0.0, config)

    state, _, val = _start(config, labeled_set, (), val_set)
    rows = _run_epochs(config, state, labeled_set, student_epoch)
    if not (val and _may_fork()):
        metrics = _validated_here(rows, state, val, config.burn_in_epochs)
        return state.theta_s, metrics
    exchange = _Exchange(arena=state.theta_t.params.data.size)
    metrics = []
    with _Worker("validation", exchange, _validate, (state.theta_t, val)) as validator:
        # epoch e's student is scored there while this process steps e + 1;
        # the last epoch is a student's, since max_epochs > burn_in_epochs
        for row in rows:
            if row.epoch > config.burn_in_epochs:
                metrics[-1] = replace(metrics[-1], val_spearman=validator.reply()[0])
            if row.epoch >= config.burn_in_epochs:
                exchange.arena[:] = state.theta_s.params.data
                validator.send(0)
            metrics.append(row)
        metrics[-1] = replace(metrics[-1], val_spearman=validator.reply()[0])
    return state.theta_s, metrics


# -- the forked workers -------------------------------------------------------


def _validate(exchange: _Exchange, inbox, outbox, net: Network, val) -> None:
    """``train_supervised``'s validator: at each message it copies the
    student's arena from the exchange into ``net``, which the fork made its
    own, and replies with the student's validation Spearman."""
    while True:
        inbox.recv()
        net.params.data[:] = exchange.arena
        outbox.send(("done", _safe_val_spearman(net, val)))


# -- the two-process train ----------------------------------------------------


def _beta(config: TrainConfig, epoch: int) -> float:
    return 0.0 if epoch < config.burn_in_epochs else beta_at(epoch, config.beta_peak)


class _Released:
    """The worker's pseudo-label half, read from the exchange the parent
    writes (``_run_forked``): the strong views once "views ready" came, each
    batch's s_bar once its release came, and then its relative term. The
    parent steps the reference network, so ``reference(b)`` has no term."""

    def __init__(self, exchange: _Exchange, inbox, plan: _Plan):
        self.exchange, self.inbox, self.plan = exchange, inbox, plan
        self.ready = 0  # how many of the epoch's batches the parent has released
        self.x_strong = None
        if plan.slots is not None:
            inbox.recv()  # "views ready"
            self.x_strong = exchange.x_strong[plan.epoch % 2]

    def reference(self, b: int) -> list[tuple[str, Tensor, float]]:
        return []

    def pseudo_labels(self, b: int) -> np.ndarray | None:
        while self.ready <= b:
            self.ready = self.inbox.recv()
        lo, hi = self.plan.bounds[b]
        return None if self.x_strong is None else self.exchange.s_bar[lo:hi]

    def known(self, b: int) -> dict[str, float]:
        return {"l_reg_r": float(self.exchange.relative[b])}


def _work(
    exchange: _Exchange, inbox, outbox, state: TrsState, pools: _Pools, config: TrainConfig
) -> None:
    """The worker process of ``train``: ``_steps`` over the parent's
    pseudo-label half (``_Released``; see ``_run_forked`` for the messages),
    whose batches each run their forwards before they wait for the release;
    it replies with each epoch's whole row."""
    n, m = len(pools.x_lab), len(pools.unlabeled)
    for epoch in range(config.max_epochs):
        if epoch == config.burn_in_epochs:
            initialize_student(state, config)
        plan = _plan(config, n, m if epoch >= config.burn_in_epochs else 0, epoch)
        row = _steps(state, pools, plan, _Released(exchange, inbox, plan), _beta(config, epoch))
        opt = state.opt_trained
        exchange.arena[:] = opt.params.data
        exchange.m[:] = opt._m
        exchange.v[:] = opt._v
        outbox.send(("done", row, opt.params.version))


def _reference_pass(labels: _PseudoLabelHalf, opt: Adam) -> np.ndarray:
    """Step the reference network through one epoch; returns each batch's
    relative term (0 without the reference network). The pass stops, without
    that step, at the first non-finite term, which the worker's divergence
    check of that batch then names."""
    values = np.zeros(len(labels.plan.bounds))
    for b in range(values.size):
        opt.zero_grad()
        relative = labels.reference(b)
        if not relative:
            continue
        values[b] = relative[0][1].item()
        if not math.isfinite(values[b]):
            break
        _descend(relative, opt)
    return values


def _run_forked(config: TrainConfig, state: TrsState, pools: _Pools) -> Iterator[EpochMetrics]:
    """``train``'s epochs, the trained network stepped by a forked worker
    that runs ``_steps``; yields each row, its Spearman NaN.

    Per epoch this process finishes the pseudo-labels with that epoch's
    teacher and releases the epoch to the worker. While the worker steps it,
    this process yields the previous epoch's row and makes the pseudo-label
    half of the next epoch: its views, then its reference pass. Then it
    copies the worker's arena into the teacher during burn-in and into the
    student after it, and makes the EMA. The teacher's side of the
    pseudo-labels and the EMA are all that the worker waits for between two
    epochs.

    The exchange holds the trained network's arena and Adam moments, which
    the worker writes at each epoch's end; the epoch's pseudo-labels (one
    per labeled position) and each batch's reference term, which this
    process writes before it releases the batches that read them; and two
    slots of strong views, one row per labeled position. This process makes
    the strong views: it writes TRS epoch e's into slot e % 2 while the
    worker steps epoch e - 1. By then it holds the worker's reply for epoch
    e - 2, the last epoch that read that slot.

    The messages to the worker, per TRS epoch e: "views ready" (0), sent
    during epoch e - 1 once slot e % 2 is written, then the batch releases
    1 ... nb, each the count of the epoch's batches whose s_bar is written.
    A burn-in epoch has no views and one release, nb. The worker replies once
    per epoch with the epoch's row and the trained set's version, which is
    its Adam step count.
    """
    n, m, burn_in = len(pools.x_lab), len(pools.unlabeled), config.burn_in_epochs

    def reference_half(epoch: int) -> tuple[_PseudoLabelHalf, np.ndarray]:
        if epoch == burn_in:
            initialize_student(state, config)
        labels = _PseudoLabelHalf(
            state, pools, _plan(config, n, m if epoch >= burn_in else 0, epoch), config
        )
        if labels.plan.slots is not None:
            exchange.x_strong[epoch % 2] = labels.x_strong
            worker.send(0)  # "views ready"
        return labels, _reference_pass(labels, state.opt_reference)

    arena = state.theta_t.params.data.size
    exchange = _Exchange(
        arena=arena, m=arena, v=arena, s_bar=n,
        relative=len(_batch_bounds(n, config.batch_size)),
        x_strong=(2, *pools.x_lab.shape),
    )
    with _Worker("training", exchange, _work, (state, pools, config)) as worker:
        labels, relative = reference_half(0)
        for epoch in range(config.max_epochs):
            exchange.relative[:] = relative
            if labels.plan.slots is None:
                worker.send(len(relative))
            else:
                for b, (lo, hi) in enumerate(labels.plan.bounds):
                    exchange.s_bar[lo:hi] = labels.pseudo_labels(b)
                    worker.send(b + 1)
            state.epoch = epoch + 1
            if epoch:
                yield row
            if epoch + 1 < config.max_epochs:
                labels, relative = reference_half(epoch + 1)
            row, version = worker.reply()
            trained = state.theta_t if epoch < burn_in else state.theta_s
            trained.params.data[:] = exchange.arena
            trained.params.version = version
            if epoch >= burn_in:
                _ema(state, config)
        state.opt_trained._m[:] = exchange.m
        state.opt_trained._v[:] = exchange.v
        yield row


# -- checkpointing ------------------------------------------------------------

_BIN_VERSION = 1


def save_parameter_set(params: ParameterSet, path) -> None:
    """Name table (name, shape per parameter) followed by raw float64 data."""
    chunks = [struct.pack("<II", _BIN_VERSION, len(params.layout))]
    for name, shape in params.layout:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", len(shape)))
        chunks.append(struct.pack(f"<{len(shape)}I", *shape))
    chunks.append(np.ascontiguousarray(params.data, dtype="<f8"))
    _write_file(path, chunks)


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
    return ParameterSet(layout.items(), data)


def save_checkpoint(directory, state: TrsState, config: TrainConfig) -> None:
    """Spec'd layout: params_{t,s,f}.bin, memory_{t,r}.tsv, state.json.

    Each file is replaced whole or left as it was (``data._write_file``), and
    ``state.json`` is removed first and written last, so a save that fails
    part-way leaves a directory that does not load, never one that mixes two
    states; a burn-in state removes a stale ``params_s.bin``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "state.json").unlink(missing_ok=True)
    save_parameter_set(state.theta_t.params, directory / "params_t.bin")
    if state.theta_s is not None:
        save_parameter_set(state.theta_s.params, directory / "params_s.bin")
    else:
        (directory / "params_s.bin").unlink(missing_ok=True)
    save_parameter_set(state.theta_f.params, directory / "params_f.bin")
    state.m_t.save_tsv(directory / "memory_t.tsv")
    state.m_r.save_tsv(directory / "memory_r.tsv")
    payload = {
        "epoch": state.epoch,
        "stage": state.stage,
        "config": config.to_dict(),
        "arch": asdict(state.theta_t.arch),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_file(directory / "state.json", [text.encode("utf-8")])


_STATE_KEYS = {"epoch": int, "stage": str, "config": dict, "arch": dict}
_ARCH_KEYS = [f.name for f in fields(NetworkArch)]


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


def load_checkpoint(directory) -> tuple[TrsState, TrainConfig]:
    """Restore a saved run state. ``state.json`` has one format, the one
    ``save_checkpoint`` writes, so a key it does not write is an error, and
    so is a missing one.

    Optimizer moments are not part of the checkpoint layout, so resumed
    optimizers start fresh. A malformed file, or a ``state.json`` that
    contradicts itself or the others, raises ``ParseError`` or
    ``ConfigurationError`` naming the file.
    """
    directory = Path(directory)
    state_path = directory / "state.json"
    payload = _read_state_json(state_path)
    for section, keys in (("config", _FLAT_KINDS), ("arch", _ARCH_KEYS)):
        for key in keys:
            if key not in payload[section]:
                raise ConfigurationError(f"{state_path}: {section}: key {key!r} is missing")
    try:
        config = TrainConfig.from_dict(payload["config"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{state_path}: config: {exc}") from None
    try:
        arch = NetworkArch(**payload["arch"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{state_path}: arch: {exc}") from None

    trs, epoch = payload["stage"] == TRS, payload["epoch"]
    if trs != (directory / "params_s.bin").exists():
        where = "missing" if trs else "present"
        raise ConfigurationError(f"{state_path}: stage {payload['stage']!r}, params_s.bin {where}")
    low, high = (config.burn_in_epochs, config.max_epochs) if trs else (0, config.burn_in_epochs)
    if not low <= epoch <= high:
        where = f"stage {payload['stage']!r} at epoch {epoch}"
        raise ConfigurationError(f"{state_path}: {where}, not in [{low}, {high}]")

    def load(name: str, layout) -> Network:
        # the fused network ops index parameters by the arch's shapes
        params = load_parameter_set(directory / name)
        if params.layout != layout:
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
        epoch=epoch,
        m_t=ConfidenceMemory.load_tsv(directory / "memory_t.tsv"),
        m_r=ConfidenceMemory.load_tsv(directory / "memory_r.tsv"),
        opt_trained=Adam((theta_s if trs else theta_t).params, config.learning_rate),
        opt_reference=Adam(theta_f.params, config.learning_rate),
    ), config
