"""Stage-2 machinery: fusion attention over teacher adapters + distillation loss.

Per layer, Query/Key/Value matrices attend from the backbone hidden state
over the outputs of N frozen teacher adapters; the fused output is pulled
toward the live student adapter output by a squared-difference loss.  A
minibatch runs as one taped forward: the hook folds the (B, T, d) hidden
state into B*T rows, the teachers run on them as one stacked adapter, and
their outputs are attended over as one (N, B*T, d) tensor, so a layer costs
the same number of tape ops whatever B and N are.  The fusion weights exist
only during training and are never part of a tenant's inference artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .adapter import (AdapterWeights, STAGE_FINAL, STAGE_FIRST, adapter_forward,
                      stack_adapters)
from .backbone import Backbone, classify_logit, real_length, stack_batch
from .errors import ConfigurationError, UsageError
from .tensor import Tensor


@dataclass
class FusionWeights:
    """Per-layer (Q, K, V), each hidden_dim x hidden_dim."""
    layers: list[tuple[Tensor, Tensor, Tensor]] = field(default_factory=list)

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer]

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params():
            p.requires_grad = trainable
            p.grad = np.zeros_like(p.data) if trainable else None


def init_fusion(hidden_dim: int, num_layers: int, seed: int = 0,
                trainable: bool = True) -> FusionWeights:
    """Q, K small uniform; V near identity, so early fused output is close
    to a plain average of the teacher outputs."""
    rng = np.random.default_rng(seed)
    d = hidden_dim
    omega = FusionWeights()
    for _ in range(num_layers):
        q = Tensor(rng.uniform(-1e-3, 1e-3, size=(d, d)))
        k = Tensor(rng.uniform(-1e-3, 1e-3, size=(d, d)))
        v = Tensor(np.eye(d) + rng.uniform(-1e-3, 1e-3, size=(d, d)))
        omega.layers.append((q, k, v))
    if trainable:
        omega.set_trainable(True)
    return omega


@dataclass
class TeacherSet:
    """Frozen teacher adapters, in registration order; optionally the
    student's own frozen first-stage copy as the last member.  `stacked`
    is all of them as one adapter (see `stack_adapters`), None when there
    are none."""
    adapters: list[AdapterWeights] = field(default_factory=list)
    include_self: bool = True
    stacked: AdapterWeights | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        for i, a in enumerate(self.adapters):
            for p in a.params():
                if p.requires_grad:
                    raise UsageError(f"teacher adapter {a.tenant_name!r} must be frozen")
            last = self.include_self and i == len(self.adapters) - 1
            if last and a.stage != STAGE_FIRST:
                raise UsageError("self-teacher must be the first-stage copy")
            if not last and a.stage != STAGE_FINAL:
                raise UsageError(f"teacher {a.tenant_name!r} must be a final adapter")
        if self.adapters:
            self.stacked = stack_adapters(self.adapters)

    def __len__(self) -> int:
        return len(self.adapters)


def make_teacher_set(finals: list[AdapterWeights], self_first: AdapterWeights | None) -> TeacherSet:
    teachers = [a.copy() for a in finals]
    include_self = self_first is not None
    if include_self:
        teachers.append(self_first.copy(stage=STAGE_FIRST))
    for a in teachers:
        a.set_trainable(False)
    return TeacherSet(adapters=teachers, include_self=include_self)


def fusion_attend(h: Tensor, z: Tensor,
                  omega_layer: tuple[Tensor, Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Attention over stacked teacher outputs z [N x T x d] for one layer.

    Per token: query = h Q, key_n = z_n K, value_n = z_n V; the weights p
    are a softmax over teachers of <query, key_n>, and the output is the
    p-weighted sum of values.  Returns (o [T x d], p [T x N]).
    """
    if z.data.ndim != 3 or z.data.shape[0] == 0:
        raise UsageError(f"fusion_attend needs stacked teacher outputs (N >= 1, T, d), "
                         f"got shape {z.data.shape}")
    q_mat, k_mat, v_mat = omega_layer
    n, tlen, d = z.data.shape
    zt = T.transpose(z, (1, 0, 2))                                   # (T, N, d)
    q = T.reshape(T.matmul(h, q_mat), (tlen, 1, d))
    p = T.softmax(T.matmul(q, T.transpose(T.matmul(zt, k_mat))))    # (T, 1, N)
    o = T.matmul(p, T.matmul(zt, v_mat))                             # (T, 1, d)
    return T.reshape(o, (tlen, d)), T.reshape(p, (tlen, n))


def distill_loss(o_per_layer: list[Tensor], z_per_layer: list[Tensor],
                 mask: np.ndarray) -> Tensor:
    """Mean over layers, unmasked tokens, and hidden dims of the squared
    difference between fused teacher output and student output.

    o and z are (T, d) with a (T,) mask, or (B, T, d) with a (B, T) mask:
    each row is averaged over its own real tokens, then the rows are
    averaged.
    """
    mask = np.asarray(mask, dtype=np.float64)
    n_tok = mask.sum(axis=-1, keepdims=True)
    if (n_tok == 0).any():
        raise UsageError("distill_loss: mask marks no tokens")
    if len(o_per_layer) != len(z_per_layer):
        raise UsageError("o and z layer lists differ in length")
    token_weight = Tensor((mask / n_tok)[..., None])
    total = None
    for o, z in zip(o_per_layer, z_per_layer):
        diff = o - z
        sq = T.tsum(T.mul(T.mul(diff, diff), token_weight))
        total = sq if total is None else total + sq
    rows = mask.size // mask.shape[-1]
    d = o_per_layer[0].data.shape[-1]
    return total * (1.0 / (len(o_per_layer) * rows * d))


def _fuse(h: Tensor, stacked: AdapterWeights, omega: FusionWeights,
          li: int) -> tuple[Tensor, Tensor]:
    """Fusion attention of layer li over the stacked adapters' outputs for
    h (B, T, d), on its B*T rows.  Returns (o (B, T, d), p (B*T, N))."""
    rows = T.reshape(h, (-1, h.shape[-1]))
    o, p = fusion_attend(rows, adapter_forward(rows, stacked, li), omega.layers[li])
    return T.reshape(o, h.shape), p


def make_adapter_hook(adapter: AdapterWeights | None = None,
                      omega: FusionWeights | None = None,
                      members: list[AdapterWeights] | None = None):
    """The `adapter_hook` for `Backbone.forward` on one serving path.

    Fusion when omega is given (attention over the member adapters'
    outputs, stacked once here), else the single adapter, else None (the
    bare encoder).
    """
    if omega is not None:
        if not members:
            raise UsageError("fusion path needs member adapters")
        stacked = stack_adapters(members)
        return lambda li, h: _fuse(h, stacked, omega, li)[0]
    if adapter is not None:
        return lambda li, h: adapter_forward(h, adapter, li)
    return None


def distill_example_forward(bb: Backbone, ids: np.ndarray, mask: np.ndarray,
                            student: AdapterWeights, teachers: TeacherSet,
                            omega: FusionWeights):
    """One stage-2 forward pass over a minibatch, ids and mask (B, T), or
    one (T,) example.

    The main (inference) path runs the student adapter; the stacked teacher
    outputs and the fused output are computed on the side at every layer.
    The encoder drops the padding after the batch's last real token, and so
    does the mask given to `distill_loss`.  Returns (pooled (B, d),
    distillation loss, p_per_layer), with p (B*T, N) per layer.
    """
    if teachers.stacked is None:
        raise UsageError("distillation needs at least one teacher")
    o_list: list[Tensor] = []
    z_list: list[Tensor] = []
    p_list: list[Tensor] = []

    def hook(li: int, h: Tensor) -> Tensor:
        z_student = adapter_forward(h, student, li)
        o, p = _fuse(h, teachers.stacked, omega, li)
        o_list.append(o)
        z_list.append(z_student)
        p_list.append(p)
        return z_student

    pooled = bb.forward(ids, mask, adapter_hook=hook)
    return pooled, distill_loss(o_list, z_list, mask[..., :real_length(mask)]), p_list


def combined_loss(batch, bb: Backbone, student: AdapterWeights, head,
                  teachers: TeacherSet, omega: FusionWeights,
                  eta: float) -> tuple[Tensor, float, float]:
    """The stage-2 objective: mean cross-entropy on the student path plus
    eta times the mean distillation loss over the batch.

    batch: sequence of (ids, mask, label).  One taped forward over the
    stacked (B, T) batch gives both the logits and the distillation terms.
    With eta == 0 the distillation term is skipped entirely, so the loss
    equals the stage-1 objective and the fusion weights receive no
    gradient.  Returns (loss, mean cross-entropy, mean distillation loss)
    with the two parts as floats.
    """
    if eta < 0:
        raise ConfigurationError(f"eta must be nonnegative, got {eta}")
    if not batch:
        raise UsageError("combined_loss: empty batch")
    ids, mask, labels = stack_batch(batch)
    if eta == 0:
        pooled = bb.forward(ids, mask, adapter_hook=make_adapter_hook(student))
    else:
        pooled, distill, _ = distill_example_forward(bb, ids, mask, student, teachers, omega)
    ce = T.bce_with_logits(classify_logit(pooled, head), labels)
    if eta == 0:
        return ce, ce.item(), 0.0
    return ce + distill * eta, ce.item(), distill.item()
