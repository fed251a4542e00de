"""Two-stage adapter distillation training, baselines, and evaluation.

Stage 1 trains a fresh adapter + head on the tenant's data under binary
cross-entropy.  Stage 2 continues training the adapter jointly with the
fusion weights under cross-entropy plus the weighted distillation loss
against the frozen teacher set.  Baselines: full fine-tuning, head-only,
adapter-only, and AdapterFusion (which keeps the fusion layer at
inference).  Every minibatch is one taped forward over its stacked (B, T)
pairs; evaluation runs untaped forwards over chunks of EVAL_BATCH pairs,
and `predict_prob` is the one-row call of that same path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .adapter import AdapterWeights, init_adapter
from .backbone import (Backbone, HeadWeights, classify_logit, new_head, stack_batch,
                       tokenize_pair)
from .errors import ConfigurationError, UsageError
from .faq_data import Example
from .fusion import (FusionWeights, TeacherSet, combined_loss, init_fusion,
                     make_adapter_hook, make_teacher_set)
from .metrics import accuracy as _accuracy, auc as _auc
from .tensor import Tensor, no_grad

ETA_GRID_DEFAULT = [math.exp(-2), math.exp(-1), 1.0, math.e, math.e ** 2]

# Examples per forward in evaluation: bounds the activations of one chunk.
EVAL_BATCH = 64

MODES = ("full", "head", "adapter", "adapter_fusion", "adapter_distill", "adapter_distill_star")


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.5
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    batch_size: int = 8
    eta: list[float] = field(default_factory=lambda: list(ETA_GRID_DEFAULT))
    seed: int = 0
    mode: str = "adapter_distill"
    bottleneck_dim: int = 8

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if not isinstance(self.eta, list):
            self.eta = [self.eta]  # a single eta is a one-point grid
        if not self.eta and self.mode.startswith("adapter_distill"):
            raise ConfigurationError("eta grid must be nonempty for distillation modes")


@dataclass
class EvalReport:
    accuracy: float
    auc: float | None


@dataclass
class TrainedArtifact:
    """A tenant's serving weights, from training through persisting to
    loading; `predict_prob` runs them.  `hook` is their adapter hook, built
    once here: a fusion artifact stacks its members a single time."""
    mode: str
    adapter: AdapterWeights | None
    head: HeadWeights
    omega: FusionWeights | None = None          # kept only by adapter_fusion
    fusion_members: list[AdapterWeights] | None = None
    backbone: Backbone | None = None            # tenant-private copy (full mode)
    history: list[dict] = field(default_factory=list)
    eta: float | None = None
    hook: Callable | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.hook = make_adapter_hook(self.adapter, self.omega, self.fusion_members)


# ---------------------------------------------------------------------------
# plumbing

def encode_examples(examples: list[Example], config) -> list[tuple[np.ndarray, np.ndarray, int]]:
    return [tokenize_pair(e.query, e.candidate, config.max_seq_len, config.vocab_size)
            + (e.label,) for e in examples]


def _lr_at(step: int, total: int, cfg: TrainConfig) -> float:
    warm = max(1, int(cfg.warmup_frac * total))
    if step < warm:
        return cfg.learning_rate * (step + 1) / warm
    if total == warm:
        return cfg.learning_rate
    return cfg.learning_rate * max(0.0, 1.0 - (step - warm) / (total - warm))


def _sgd_step(groups: list[tuple[Tensor, bool]], lr: float, weight_decay: float) -> None:
    for p, decay in groups:
        g = p.grad
        if decay and weight_decay:
            g = g + weight_decay * p.data
        p.data -= lr * g


def _param_groups(adapter: AdapterWeights | None, head: HeadWeights | None,
                  omega: FusionWeights | None = None,
                  backbone: Backbone | None = None) -> list[tuple[Tensor, bool]]:
    """(tensor, weight-decay?) pairs; biases and gains are not decayed."""
    groups: list[tuple[Tensor, bool]] = []
    if adapter is not None:
        for layer in adapter.layers:
            groups += [(layer.down, True), (layer.down_bias, False),
                       (layer.up, True), (layer.up_bias, False)]
    if head is not None:
        groups += [(head.w, True), (head.b, False)]
    if omega is not None:
        for q, k, v in omega.layers:
            groups += [(q, True), (k, True), (v, True)]
    if backbone is not None:
        for p in backbone.params():
            groups.append((p, p.data.ndim > 1))
    return groups


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _fit(encoded, loss_fn, groups: list[tuple[Tensor, bool]], config: TrainConfig,
         rng: np.random.Generator) -> list[dict]:
    """The training loop every mode runs: shuffled minibatches, one backward
    pass and one SGD step per batch, warmup-then-linear-decay learning rate.

    loss_fn(batch) returns (loss, ce, distill); the two float parts are
    averaged per epoch into the history.
    """
    total_steps = config.epochs * math.ceil(len(encoded) / config.batch_size)
    history, step = [], 0
    for epoch in range(config.epochs):
        ce_sum = dl_sum = 0.0
        for idx in _epoch_batches(len(encoded), config.batch_size, rng):
            batch = [encoded[i] for i in idx]
            for p, _ in groups:
                p.zero_grad()
            loss, ce, dl = loss_fn(batch)
            T.backward(loss)
            _sgd_step(groups, _lr_at(step, total_steps, config), config.weight_decay)
            del loss  # free this batch's graph before the next batch builds its own
            ce_sum += ce * len(batch)
            dl_sum += dl * len(batch)
            step += 1
        history.append({"epoch": epoch, "ce_loss": ce_sum / len(encoded),
                        "distill_loss": dl_sum / len(encoded)})
    return history


def _ce_loss(bb: Backbone, head: HeadWeights, hook):
    """Mean binary cross-entropy over a batch, one taped forward per batch,
    as a loss_fn for `_fit`."""
    def loss_fn(batch):
        ids, mask, labels = stack_batch(batch)
        pooled = bb.forward(ids, mask, adapter_hook=hook)
        loss = T.bce_with_logits(classify_logit(pooled, head), labels)
        return loss, loss.item(), 0.0
    return loss_fn


# ---------------------------------------------------------------------------
# stage 1

def train_stage1(train_examples: list[Example], bb: Backbone, config: TrainConfig):
    """Train a fresh adapter + head on local data under cross-entropy.

    Returns (adapter with stage "first", head, per-epoch history).
    """
    if not train_examples:
        raise UsageError("train_stage1: empty training data")
    rng = np.random.default_rng(config.seed)
    adapter = init_adapter("", bb.config, config.bottleneck_dim, seed=config.seed)
    head = new_head(bb.config.hidden_dim, rng)
    history = _fit(encode_examples(train_examples, bb.config),
                   _ce_loss(bb, head, make_adapter_hook(adapter)),
                   _param_groups(adapter, head), config, rng)
    return adapter, head, history


# ---------------------------------------------------------------------------
# stage 2

def train_stage2(train_examples: list[Example], bb: Backbone,
                 student_first: AdapterWeights, teachers: TeacherSet,
                 config: TrainConfig, eta: float, head: HeadWeights):
    """Joint optimization of the student adapter and fusion weights under
    `fusion.combined_loss` (cross-entropy + eta * distillation).  Teachers
    stay frozen; the fusion weights are discarded after training.

    Returns (final adapter, head, per-epoch history).
    """
    if student_first.stage != "first":
        raise UsageError("train_stage2 needs a first-stage student adapter")
    if teachers.adapters and teachers.adapters[0].hidden_dim != bb.config.hidden_dim:
        raise ConfigurationError("teacher/backbone hidden dimension mismatch")
    if eta < 0:
        raise ConfigurationError(f"eta must be nonnegative, got {eta}")
    rng = np.random.default_rng(config.seed)
    student = student_first.copy(trainable=True)
    head = head.copy()
    omega = init_fusion(bb.config.hidden_dim, bb.config.num_layers, seed=config.seed)
    effective_eta = eta if len(teachers) > 0 else 0.0
    history = _fit(encode_examples(train_examples, bb.config),
                   lambda batch: combined_loss(batch, bb, student, head, teachers,
                                               omega, effective_eta),
                   _param_groups(student, head, omega=omega), config, rng)
    student.promote()
    return student, head, history


# ---------------------------------------------------------------------------
# eta selection

def select_eta(train_examples, val_examples, bb, student_first, teachers,
               config: TrainConfig, grid: list[float] | None = None,
               head: HeadWeights | None = None):
    """Train stage 2 once per grid point (same seed) and pick the eta with
    the best validation accuracy; ties go to larger AUC, then smaller eta.

    Returns (eta, trials, winner), where trials holds (eta, accuracy, auc)
    per grid point and winner is the chosen trial's train_stage2 result
    (adapter, head, history).  A one-point grid trains nothing: winner is
    None.
    """
    if grid is None:
        grid = config.eta
    if not grid:
        raise ConfigurationError("empty eta grid")
    if len(grid) == 1:
        return grid[0], [], None
    if not val_examples:
        raise UsageError("select_eta: empty validation split")
    if head is None:
        head = new_head(bb.config.hidden_dim, np.random.default_rng(config.seed))
    best = None
    trials = []
    for eta in grid:
        trained = train_stage2(train_examples, bb, student_first, teachers,
                               config, eta, head=head)
        adapter, head2, _ = trained
        report = evaluate_artifact(bb, TrainedArtifact(config.mode, adapter, head2),
                                   val_examples)
        trials.append((eta, report.accuracy, report.auc))
        key = (report.accuracy, report.auc if report.auc is not None else -1.0, -eta)
        if best is None or key > best[0]:
            best = (key, eta, trained)
    return best[1], trials, best[2]


# ---------------------------------------------------------------------------
# inference + evaluation

def _probabilities(bb: Backbone, artifact: TrainedArtifact, ids, mask) -> np.ndarray:
    """One untaped forward of a tenant's serving weights over ids and mask,
    (B, T) or one (T,) pair; returns the B positive-match probabilities.  A
    tenant-private encoder (full mode) replaces the shared encoder `bb`."""
    encoder = artifact.backbone if artifact.backbone is not None else bb
    with no_grad():
        logit = classify_logit(encoder.forward(ids, mask, adapter_hook=artifact.hook),
                               artifact.head)
    return 1.0 / (1.0 + np.exp(-logit.data[:, 0]))


def predict_prob(bb: Backbone, artifact: TrainedArtifact, ids, mask) -> float:
    """The positive-match probability of one (T,) pair: a one-row forward."""
    return float(_probabilities(bb, artifact, ids, mask)[0])


def predict_many(bb: Backbone, artifact: TrainedArtifact,
                 examples: list[Example]) -> list[float]:
    """Probabilities of every example, one forward per EVAL_BATCH examples."""
    encoded = encode_examples(examples, bb.config)
    probs: list[float] = []
    for start in range(0, len(encoded), EVAL_BATCH):
        ids, mask, _ = stack_batch(encoded[start:start + EVAL_BATCH])
        probs.extend(_probabilities(bb, artifact, ids, mask).tolist())
    return probs


def evaluate_predictions(probabilities: list[float], labels: list[int]) -> EvalReport:
    """Accuracy on thresholded labels, AUC on raw probabilities.  AUC is
    None when the set is single-class."""
    if not labels:
        raise UsageError("evaluate on empty test set")
    acc = _accuracy(probabilities, labels)
    try:
        area = _auc(probabilities, labels)
    except UsageError:
        area = None
    return EvalReport(accuracy=acc, auc=area)


def evaluate_artifact(bb: Backbone, artifact: TrainedArtifact,
                      examples: list[Example]) -> EvalReport:
    return evaluate_predictions(predict_many(bb, artifact, examples),
                                [e.label for e in examples])


# ---------------------------------------------------------------------------
# baselines + orchestration

def train_baseline(mode: str, train_examples, bb: Backbone, config: TrainConfig,
                   teacher_finals: list[AdapterWeights] | None = None) -> TrainedArtifact:
    if mode not in ("full", "head", "adapter", "adapter_fusion"):
        raise ConfigurationError(f"unknown baseline mode {mode!r}")
    rng = np.random.default_rng(config.seed)
    if mode == "adapter":
        adapter, head, history = train_stage1(train_examples, bb, config)
        adapter.set_trainable(False)
        return TrainedArtifact("adapter", adapter, head, history=history)
    encoded = encode_examples(train_examples, bb.config)
    if mode == "head":
        head = new_head(bb.config.hidden_dim, rng)
        history = _fit(encoded, _ce_loss(bb, head, None), _param_groups(None, head),
                       config, rng)
        return TrainedArtifact("head", None, head, history=history)
    if mode == "full":
        private = bb.unfrozen_copy()
        head = new_head(bb.config.hidden_dim, rng)
        history = _fit(encoded, _ce_loss(private, head, None),
                       _param_groups(None, head, backbone=private), config, rng)
        for p in private.params():
            p.requires_grad = False
            p.grad = None
        return TrainedArtifact("full", None, head, backbone=private, history=history)
    # adapter_fusion: stage 1, then train fusion + head over the frozen
    # member adapters (teachers plus the tenant's own); the fusion layer
    # stays in the inference artifact.
    adapter, head, history1 = train_stage1(train_examples, bb, config)
    adapter.set_trainable(False)
    adapter.promote()
    members = [a.copy() for a in (teacher_finals or [])] + [adapter]
    for a in members:
        a.set_trainable(False)
    omega = init_fusion(bb.config.hidden_dim, bb.config.num_layers, seed=config.seed)
    artifact = TrainedArtifact("adapter_fusion", adapter, head.copy(), omega=omega,
                               fusion_members=members)
    history2 = _fit(encoded, _ce_loss(bb, artifact.head, artifact.hook),
                    _param_groups(None, artifact.head, omega=omega), config, rng)
    omega.set_trainable(False)
    artifact.history = history1 + history2
    return artifact


def train_tenant(train_examples, val_examples, bb: Backbone, config: TrainConfig,
                 teacher_finals: list[AdapterWeights] | None = None) -> TrainedArtifact:
    """Run the full training procedure for one tenant in the configured mode.

    In the distillation modes, a grid of several etas keeps the eta
    search's winning stage-2 run as the result; otherwise stage 2 runs once
    at the single eta.
    """
    teacher_finals = teacher_finals or []
    mode = config.mode
    if mode in ("full", "head", "adapter", "adapter_fusion"):
        return train_baseline(mode, train_examples, bb, config, teacher_finals)

    student_first, head1, history1 = train_stage1(train_examples, bb, config)
    student_first.set_trainable(False)
    teachers = make_teacher_set(teacher_finals,
                                None if mode == "adapter_distill_star" else student_first)
    if len(config.eta) > 1 and len(teachers) > 0:
        eta, _, (adapter, head, history2) = select_eta(
            train_examples, val_examples, bb, student_first, teachers, config, head=head1)
    else:
        eta = config.eta[0]
        adapter, head, history2 = train_stage2(train_examples, bb, student_first,
                                               teachers, config, eta, head=head1)
    adapter.set_trainable(False)
    head.w.requires_grad = False
    head.b.requires_grad = False
    return TrainedArtifact(mode, adapter, head, history=history1 + history2, eta=eta)


# ---------------------------------------------------------------------------
# run reports

def write_report(path, header: dict, metrics: dict) -> None:
    """Structured text report: key=value header lines plus a metrics table."""
    lines = [f"{k}={v}" for k, v in header.items()]
    lines.append("")
    lines.append(f"{'metric':<20} value")
    for k, v in metrics.items():
        lines.append(f"{k:<20} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curves_csv(path, history: list[dict],
                     val_accuracy: float | None = None,
                     val_auc: float | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "ce_loss", "distill_loss", "val_accuracy", "val_auc"])
        for row in history:
            writer.writerow([row["epoch"], row["ce_loss"], row["distill_loss"],
                             val_accuracy if val_accuracy is not None else "",
                             val_auc if val_auc is not None else ""])
