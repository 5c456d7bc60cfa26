"""Semi-supervised teacher-reference-student score regression."""

from .autodiff import ParameterSet, Tensor, grad_check, no_grad
from .data import Dataset, SyntheticSpec, generate_synthetic, load_features, save_features
from .evaluation import evaluate, spearman
from .memory import ConfidenceMemory, MemoryEntry, fuse_pseudo_label
from .networks import (
    FeatureSequence,
    Network,
    NetworkArch,
    ReferenceParams,
    ScorePrediction,
    TeacherParams,
    init_reference_params,
    init_teacher_params,
    mixer_forward,
    reference_forward,
    regression_head,
    teacher_forward,
)
from .objectives import beta_at, gaussian_nll, supervised_loss, unsupervised_loss
from .training import (
    Adam,
    ComponentToggles,
    TrainConfig,
    TrsState,
    augment,
    burn_in_epoch,
    ema_update,
    init_state,
    initialize_student,
    load_checkpoint,
    save_checkpoint,
    train,
    train_supervised,
    trs_epoch,
    write_metrics_csv,
)

__version__ = "0.1.0"
