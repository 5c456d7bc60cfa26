"""Command-line surface: synth | train | eval | ablate.

``main`` first pins glibc's heap thresholds with ``mallopt``: blocks up to
32 MiB (``M_MMAP_THRESHOLD``, glibc's ceiling for its dynamic threshold) come
from the heap, and up to 64 MiB of free heap (``M_TRIM_THRESHOLD``) stays
mapped. Otherwise ``evaluate`` hands the temporaries of each row block of a
chunk's forward, arrays of about 255 KiB at 10 x 64, back to the kernel and
faults them in again for the next block: about 30 k minor faults for a fresh
8k-sample ``trscore eval`` scored in one process, about 2.8 k pinned (about
7.3 k with ``evaluate``'s forked scorer, whose fork makes this process's
later writes copy-on-write faults). Both are
set because setting either one switches glibc's dynamic thresholds off and
leaves the other at its 128 KiB default. Forked processes, ``evaluate``'s
scorer and ``train``'s worker among them, inherit the setting, no output
bit changes, and where the C library has no ``mallopt`` nothing is set.
Library callers of ``evaluate`` and ``train`` keep their allocator as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .data import (SyntheticSpec, _write_csv, generate_synthetic, iter_features,
                   load_features, save_features)
from .errors import ConfigurationError, TrscoreError
from .evaluation import evaluate, write_predictions_csv
from .training import (
    _FLAT_KINDS,
    ComponentToggles,
    TrainConfig,
    coerce_config_value,
    load_checkpoint,
    train,
    write_metrics_csv,
)


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and #-comments are ignored.

    Each value is converted to its key's type; an unknown or repeated key, a
    bad value or a non-UTF-8 byte raises ``ConfigurationError`` naming ``path:line``.
    """
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:  # "x" stands in for the bad byte's line
        lineno = len((blob[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigurationError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigurationError(f"{path}:{lineno}: {key} is set a second time")
        try:
            raw[key] = coerce_config_value(key, value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return raw


# every flat config key: its flag and help text, in --help order
_CONFIG_FLAGS = {
    "max_epochs": ("--epochs", "total training epochs"),
    "burn_in_epochs": ("--burn-in", "supervised-only epochs before the student starts"),
    "learning_rate": ("--lr", "Adam learning rate"),
    "alpha": ("--alpha", "teacher EMA momentum"),
    "seed": ("--seed", "run seed"),
    "batch_size": ("--batch-size", "labeled samples per optimizer step; each TRS step "
                   "pairs them with as many unlabeled samples"),
    "augment_noise_std": ("--augment-noise-std", "strong-augmentation noise std"),
    "beta_peak": ("--beta-peak", "peak unsupervised loss weight"),
    "reference_network": ("--reference-network", None),
    "teacher_memory": ("--teacher-memory", None),
    "reference_memory": ("--reference-memory", None),
}


def _build_config(args) -> TrainConfig:
    raw = parse_config_file(args.config) if args.config else {}
    for key, (flag, _) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # the flag's argparse dest
        if value is not None:
            raw[key] = value
    return TrainConfig.from_dict(raw)


def _add_config_flags(parser: argparse.ArgumentParser, with_toggles: bool = True) -> None:
    parser.add_argument("--config", help="key=value config file")
    for key, (flag, help_text) in _CONFIG_FLAGS.items():
        kind = _FLAT_KINDS[key]
        if kind is not bool:
            parser.add_argument(flag, type=kind, help=help_text)
        elif with_toggles:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, help=help_text)


def _labeled_only(path, what: str):
    """The samples of ``path`` as they are parsed; an unlabeled one raises."""
    for s in iter_features(path):
        if s.score is None:
            raise ConfigurationError(f"{what} {path} contains unlabeled samples")
        yield s


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_samples=args.n,
        t=args.t,
        d=args.d,
        label_fraction=args.label_frac,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec, split=args.split)
    save_features(dataset, args.out)
    t, d = dataset.samples[0].features.shape
    print(
        f"wrote {args.out}: {len(dataset.labeled_samples)} labeled + "
        f"{len(dataset.unlabeled_samples)} unlabeled samples of {t} x {d}"
    )
    return 0


def _cmd_train(args) -> int:
    config = _build_config(args)
    dataset = load_features(args.data)
    val_set = list(_labeled_only(args.val, "validation set")) if args.val else None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, _, metrics = train(
        config,
        dataset.labeled_samples,
        dataset.unlabeled_samples,
        val_set=val_set,
        checkpoint_dir=out_dir / "checkpoint",
    )
    metrics_path = out_dir / "metrics.csv"
    write_metrics_csv(metrics, metrics_path)
    last = metrics[-1]
    print(f"trained {len(metrics)} epochs; final total loss {last.total:.6f}")
    print(f"final validation spearman: {last.val_spearman:.4f}")
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {out_dir / 'checkpoint'}")
    return 0


def _cmd_eval(args) -> int:
    state, _ = load_checkpoint(args.checkpoint)
    if state.theta_s is None:
        raise ConfigurationError(
            "checkpoint has no student parameters (training never left burn-in)"
        )
    # the predictions CSV is written only after the whole stream has parsed
    rho, rows = evaluate(state.theta_s, _labeled_only(args.data, "test set"))
    print(f"spearman: {rho:.6f} over {len(rows)} samples")
    if args.out:
        write_predictions_csv(rows, args.out)
        print(f"predictions: {args.out}")
    return 0


# Component grid in increasing order: baseline, each memory/reference
# addition, then the full model.
ABLATION_GRID = (
    ("base", ComponentToggles(False, False, False)),
    ("base+tm", ComponentToggles(False, True, False)),
    ("base+rn", ComponentToggles(True, False, False)),
    ("base+rn+tm", ComponentToggles(True, True, False)),
    ("full", ComponentToggles(True, True, True)),
)


def _cmd_ablate(args) -> int:
    from dataclasses import astuple, fields, replace

    config = _build_config(args)
    dataset = load_features(args.data)
    test_set = list(_labeled_only(args.test, "test set"))
    results = []
    for name, toggles in ABLATION_GRID:
        run_config = replace(config, component_toggles=toggles)
        # no per-epoch validation: only the final student is scored
        _, student, _ = train(
            run_config, dataset.labeled_samples, dataset.unlabeled_samples, val_set=[]
        )
        rho, _ = evaluate(student, test_set)
        results.append((name, toggles, rho))
        print(f"{name}: spearman {rho:.4f}", file=sys.stderr)

    header = f"{'config':<12} {'rn':<4} {'tm':<4} {'rm':<4} {'spearman':>9}"
    print(header)
    print("-" * len(header))
    for name, toggles, rho in results:
        print(
            f"{name:<12} {'x' if toggles.reference_network else '':<4} "
            f"{'x' if toggles.teacher_memory else '':<4} "
            f"{'x' if toggles.reference_memory else '':<4} {rho:>9.4f}"
        )
    if args.out:
        header = ("config", *(f.name for f in fields(ComponentToggles)), "spearman")
        rows = ((name, *(str(int(on)) for on in astuple(toggles)), repr(rho))
                for name, toggles, rho in results)
        _write_csv(args.out, header, rows)
        print(f"table: {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trscore",
        description="Semi-supervised teacher-reference-student score regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset file")
    synth.add_argument("--n", type=int, required=True, help="number of samples")
    synth.add_argument("--t", type=int, default=10, help="snippets per sample")
    synth.add_argument("--d", type=int, default=64, help="feature dimensions")
    synth.add_argument("--label-frac", type=float, default=0.1)
    synth.add_argument("--noise-std", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--split", default="train", help="sample stream tag (train/test/...)")
    synth.add_argument("-o", "--out", required=True, help="output .aqaf path")
    synth.set_defaults(func=_cmd_synth)

    tr = sub.add_parser("train", help="train on a dataset file")
    tr.add_argument("--data", required=True, help="training .aqaf (labeled + unlabeled)")
    tr.add_argument("--val", help="labeled .aqaf for per-epoch validation")
    tr.add_argument("--out-dir", required=True, help="directory for metrics and checkpoint")
    _add_config_flags(tr)
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled dataset")
    ev.add_argument("--data", required=True, help="labeled .aqaf test set")
    ev.add_argument("--checkpoint", required=True, help="checkpoint directory")
    ev.add_argument("-o", "--out", help="predictions CSV path")
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("ablate", help="run the component grid on one dataset")
    ab.add_argument("--data", required=True, help="training .aqaf")
    ab.add_argument("--test", required=True, help="labeled .aqaf test set")
    ab.add_argument("-o", "--out", help="comparison table CSV path")
    _add_config_flags(ab, with_toggles=False)
    ab.set_defaults(func=_cmd_ablate)
    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _pin_heap_thresholds() -> None:
    """Keep freed heap in this process (see the module docstring); a no-op
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _pin_heap_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
