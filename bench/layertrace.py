"""Span recorder and per-layer wrappers for the traced benchmark run.

``Tracer.install`` wraps the public entry points of each ``trscore`` module
listed in ``TARGETS``. A module-level function is replaced in every
``trscore`` module that binds it, because callers look names up in their own
module (``teacher_forward`` is bound in ``training`` and ``evaluation``,
``evaluate`` and ``load_checkpoint`` in ``cli``); a method is replaced on its
class. ``Tracer.uninstall`` restores every original object.

Each wrapper records one span (name, start, end, parent span, run id). Spans
stay in memory until the run ends; ``layer_stats`` derives per-name call
counts, self time (span time minus the part covered by child spans) and
duration percentiles from them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public entry points wrapped per module. autodiff's per-operation functions
# are left out: a full run makes millions of them, so wrapping them would
# measure the tracer. Functions that are the body of a wrapped layer are left
# out too, so that the layer's self time keeps its work: mixer_forward and
# regression_head (the forwards), and the parameter-file and memory-file
# readers and writers (save_checkpoint and load_checkpoint).
TARGETS = {
    "autodiff": ("Tensor.backward",),
    "networks": (
        "teacher_forward", "reference_forward", "attention_maps",
        "init_teacher_params", "init_reference_params",
        "TeacherParams.copy", "ReferenceParams.copy",
    ),
    "objectives": ("gaussian_nll", "supervised_loss", "unsupervised_loss", "beta_at"),
    "training": (
        "train", "train_supervised", "init_state", "burn_in_epoch",
        "initialize_student", "trs_epoch", "Adam.step", "Adam.zero_grad",
        "ema_update", "augment", "write_metrics_csv", "save_checkpoint",
        "load_checkpoint",
    ),
    "memory": (
        "ConfidenceMemory.maybe_write", "ConfidenceMemory.read",
        "ConfidenceMemory.clear", "fuse_pseudo_label",
    ),
    "rng": ("derive", "id_hash"),
    "evaluation": ("evaluate", "spearman", "write_predictions_csv"),
    "data": ("generate_synthetic", "save_features", "load_features"),
    "cli": ("main", "parse_config_file"),
}

# Forwards whose spans are split by whether the prediction carries a graph.
SPLIT_BY_GRAD = ("networks.teacher_forward", "networks.reference_forward")

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "autodiff.Tensor.backward.calls": ("count", "lower"),
    "autodiff.Tensor.backward.p50_us": ("us", "lower"),
    "autodiff.Tensor.backward.self_s": ("s", "lower"),
    "autodiff.tape_nodes_per_step": ("count", "lower"),
    "autodiff.py_calls_per_step": ("count", "lower"),
    **{
        f"networks.{fn}.{split}.{stat}": unit
        for fn in ("teacher_forward", "reference_forward")
        for split in ("grad", "nograd")
        for stat, unit in (
            ("calls", ("count", "lower")),
            ("p50_us", ("us", "lower")),
            ("self_s", ("s", "lower")),
        )
    },
    "objectives.gaussian_nll.calls": ("count", "lower"),
    "objectives.gaussian_nll.self_s": ("s", "lower"),
    "training.Adam.step.calls": ("count", "lower"),
    "training.Adam.step.p50_us": ("us", "lower"),
    "training.Adam.step.self_s": ("s", "lower"),
    "training.ema_update.calls": ("count", "lower"),
    "training.ema_update.p50_us": ("us", "lower"),
    "training.augment.calls": ("count", "lower"),
    "training.augment.self_s": ("s", "lower"),
    "training.trs_epoch.p50_us": ("us", "lower"),
    "training.trs_epoch.p90_us": ("us", "lower"),
    "training.trs_epoch.self_s": ("s", "lower"),
    "training.burn_in_epoch.p50_us": ("us", "lower"),
    "memory.ConfidenceMemory.maybe_write.calls": ("count", "lower"),
    "memory.ConfidenceMemory.maybe_write.accepted": ("count", "higher"),
    "memory.ConfidenceMemory.maybe_write.self_s": ("s", "lower"),
    "memory.write_accept_ratio": ("ratio", "higher"),
    "memory.ConfidenceMemory.read.calls": ("count", "lower"),
    "rng.derive.calls": ("count", "lower"),
    "rng.derive.self_s": ("s", "lower"),
    "evaluation.evaluate.calls": ("count", "lower"),
    "evaluation.evaluate.self_s": ("s", "lower"),
    "evaluation.spearman.p50_us": ("us", "lower"),
    "data.load_features.self_s": ("s", "lower"),
    "data.load_features.mb_per_s": ("MB/s", "higher"),
    "training.load_checkpoint.self_s": ("s", "lower"),
    "data.generate_synthetic.self_s": ("s", "lower"),
    "data.save_features.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

# Layers that run in the set-up, so their metrics come from the set-up spans.
SETUP_LAYERS = ("data.generate_synthetic", "data.save_features")

# The structural counts that must repeat exactly from run to run.
STRUCTURAL = (
    "autodiff.tape_nodes_per_step",
    "autodiff.py_calls_per_step",
    "rng.derive.calls",
    "memory.ConfidenceMemory.maybe_write.calls",
)

NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    """In-memory spans of one benchmark process, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = ""  # spans and counts are recorded only while a run id is set
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self.run][key] += amount

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def dump(self) -> dict:
        """Spans in a compact form: times in seconds from the first span."""
        names = sorted({s[NAME] for s in self.spans})
        runs = sorted({s[RUN] for s in self.spans})
        name_index = {n: i for i, n in enumerate(names)}
        run_index = {r: i for i, r in enumerate(runs)}
        origin = self.spans[0][START] if self.spans else 0.0
        return {
            "names": names,
            "runs": runs,
            "fields": ["name", "run", "parent", "start_s", "end_s"],
            "spans": [
                [name_index[s[NAME]], run_index[s[RUN]], s[PARENT],
                 round(s[START] - origin, 7), round(s[END] - origin, 7)]
                for s in self.spans
            ],
            "counters": {run: dict(c) for run, c in self.counters.items()},
        }


def _graph_size(loss) -> int:
    """Nodes of the recorded graph behind ``loss``, the loss included.

    Reads ``Tensor._parents``, the one private attribute the benchmark uses:
    the graph has no public accessor.
    """
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _before_backward(recorder: SpanRecorder, args) -> None:
    with recorder.span("bench.tape_walk"):
        recorder.count("autodiff.tape_nodes", _graph_size(args[0]))


def _split_by_grad(recorder: SpanRecorder, index: int, name: str, args, result) -> None:
    split = "grad" if result.mu.requires_grad else "nograd"
    recorder.spans[index][NAME] = f"{name}.{split}"


def _count_accepted(recorder: SpanRecorder, index: int, name: str, args, result) -> None:
    if result:
        recorder.count(f"{name}.accepted")


def _count_bytes(recorder: SpanRecorder, index: int, name: str, args, result) -> None:
    recorder.count(f"{name}.bytes", os.path.getsize(args[0]))


_BEFORE = {"autodiff.Tensor.backward": _before_backward}
_AFTER = {
    **{name: _split_by_grad for name in SPLIT_BY_GRAD},
    "memory.ConfidenceMemory.maybe_write": _count_accepted,
    "data.load_features": _count_bytes,
}


def _wrap(fn, name: str, recorder: SpanRecorder):
    before = _BEFORE.get(name)
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.run:
            return fn(*args, **kwargs)
        if before is not None:
            before(recorder, args)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, index, name, args, result)
        return result

    return traced


class Tracer:
    """Installs and removes the span wrappers on the loaded package."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.missing: list[str] = []  # targets this version of trscore lacks
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "trscore" or n.startswith("trscore.")]
        for module_name, targets in TARGETS.items():
            module = importlib.import_module(f"trscore.{module_name}")
            for target in targets:
                name = f"{module_name}.{target}"
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    self._replace(owner, attr, _wrap(raw, name, self.recorder))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapped = _wrap(fn, name, self.recorder)
                for binder in modules:
                    for key, value in list(vars(binder).items()):
                        if value is fn:
                            self._replace(binder, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def layer_stats(spans: list[list], run: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, p50_us and p90_us over one run's spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            overlap = min(span[END], parent[END]) - max(span[START], parent[START])
            covered[span[PARENT]] += max(overlap, 0.0)
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span[RUN] != run:
            continue
        duration = span[END] - span[START]
        durations[span[NAME]].append(duration)
        self_time[span[NAME]] += duration - covered[index]
    stats = {}
    for name, values in durations.items():
        p50, p90 = np.percentile(values, [50, 90]) * 1e6
        stats[name] = {
            "calls": float(len(values)),
            "self_s": self_time[name],
            "p50_us": float(p50),
            "p90_us": float(p90),
        }
    return stats


def per_layer_metrics(
    recorder: SpanRecorder,
    py_calls: int,
    steps: int,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; a layer that never ran reads 0."""
    table = {}
    for run, layers in (("timed", None), ("setup", SETUP_LAYERS)):
        for name, stats in layer_stats(recorder.spans, run).items():
            if layers is None or name in layers:
                table.update({f"{name}.{stat}": value for stat, value in stats.items()})
    counters = recorder.counters["timed"]
    table.update(counters)
    backward_calls = table.get("autodiff.Tensor.backward.calls", 0.0)
    writes = table.get("memory.ConfidenceMemory.maybe_write.calls", 0.0)
    load_s = sum(s[END] - s[START] for s in recorder.spans
                 if s[NAME] == "data.load_features" and s[RUN] == "timed")
    table.update({
        "autodiff.tape_nodes_per_step":
            counters["autodiff.tape_nodes"] / backward_calls if backward_calls else 0.0,
        "autodiff.py_calls_per_step": py_calls / steps if steps else 0.0,
        "memory.write_accept_ratio":
            counters["memory.ConfidenceMemory.maybe_write.accepted"] / writes
            if writes else 0.0,
        "data.load_features.mb_per_s":
            counters["data.load_features.bytes"] / 1e6 / load_s if load_s else 0.0,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return {name: float(table.get(name, 0.0)) for name in PER_LAYER}
