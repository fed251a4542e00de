"""Per-tenant bottleneck adapters.

One adapter block per transformer layer: down-projection, GELU,
up-projection, residual.  Up-projections start at zero so a fresh adapter
is an exact identity on the backbone output.  `stack_adapters` puts N
frozen adapters on one leading axis, so one `adapter_forward` runs them
all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig
from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor

STAGE_FIRST = "first"
STAGE_FINAL = "final"


@dataclass
class AdapterLayer:
    down: Tensor
    down_bias: Tensor
    up: Tensor
    up_bias: Tensor

    def params(self) -> list[Tensor]:
        return [self.down, self.down_bias, self.up, self.up_bias]


@dataclass
class AdapterWeights:
    tenant_name: str
    bottleneck_dim: int
    layers: list[AdapterLayer] = field(default_factory=list)
    stage: str = STAGE_FIRST

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.layers[0].down.data.shape[-2]

    def params(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params():
            p.requires_grad = trainable
            p.grad = np.zeros_like(p.data) if trainable else None

    def promote(self) -> None:
        """Stage transition; only first -> final is legal."""
        if self.stage == STAGE_FINAL:
            raise UsageError(f"adapter {self.tenant_name!r} is already final")
        self.stage = STAGE_FINAL

    def copy(self, stage: str | None = None, trainable: bool = False) -> "AdapterWeights":
        out = AdapterWeights(self.tenant_name, self.bottleneck_dim,
                             stage=self.stage if stage is None else stage)
        for layer in self.layers:
            out.layers.append(AdapterLayer(*[Tensor(p.data.copy()) for p in layer.params()]))
        if trainable:
            out.set_trainable(True)
        return out


def init_adapter(tenant_name: str, config: BackboneConfig, bottleneck_dim: int = 8,
                 seed: int = 0, trainable: bool = True) -> AdapterWeights:
    """Near-identity init: small uniform down-projection, zero up-projection."""
    d, m = config.hidden_dim, bottleneck_dim
    if m >= d:
        raise ConfigurationError(f"bottleneck_dim {m} must be smaller than hidden_dim {d}")
    rng = np.random.default_rng(seed)
    w = AdapterWeights(tenant_name, m)
    for _ in range(config.num_layers):
        w.layers.append(AdapterLayer(
            down=Tensor(rng.uniform(-1e-2, 1e-2, size=(d, m))),
            down_bias=Tensor(np.zeros(m)),
            up=Tensor(np.zeros((m, d))),
            up_bias=Tensor(np.zeros(d)),
        ))
    if trainable:
        w.set_trainable(True)
    return w


def stack_adapters(adapters: list[AdapterWeights]) -> AdapterWeights:
    """N frozen adapters as one, with (N, d, m), (N, 1, m), (N, m, d) and
    (N, 1, d) weights per layer: `adapter_forward` on the stack returns the
    N outputs as one (N, T, d) tensor.

    m is the largest member bottleneck; a narrower member is padded with
    zero down columns and zero up rows, which add exactly zero to its
    output.  The stack holds copies, named after its members.
    """
    if not adapters:
        raise UsageError("stack_adapters needs at least one adapter")
    if any(p.requires_grad for a in adapters for p in a.params()):
        raise UsageError("only frozen adapters can be stacked")
    first = adapters[0]
    if any((a.num_layers, a.hidden_dim) != (first.num_layers, first.hidden_dim)
           for a in adapters):
        raise DimensionError("stacked adapters must share layer count and hidden dim")
    n, d, m = len(adapters), first.hidden_dim, max(a.bottleneck_dim for a in adapters)
    out = AdapterWeights("+".join(a.tenant_name for a in adapters), m)
    for li in range(first.num_layers):
        down, down_bias = np.zeros((n, d, m)), np.zeros((n, 1, m))
        up, up_bias = np.zeros((n, m, d)), np.zeros((n, 1, d))
        for i, a in enumerate(adapters):
            lw, k = a.layers[li], a.bottleneck_dim
            down[i, :, :k], down_bias[i, 0, :k] = lw.down.data, lw.down_bias.data
            up[i, :k], up_bias[i, 0] = lw.up.data, lw.up_bias.data
        out.layers.append(AdapterLayer(Tensor(down), Tensor(down_bias),
                                       Tensor(up), Tensor(up_bias)))
    return out


def adapter_forward(h: Tensor, w: AdapterWeights, layer: int) -> Tensor:
    """z = h + up(gelu(down(h))) for the given layer (0-based).  One
    adapter keeps the shape of h, (..., d); a stack of N adapters takes rows
    h (R, d) and gives z (N, R, d)."""
    if not 0 <= layer < w.num_layers:
        raise UsageError(f"layer {layer} out of range 0..{w.num_layers - 1}")
    lw = w.layers[layer]
    mid = T.gelu(T.matmul(h, lw.down) + lw.down_bias)
    return h + (T.matmul(mid, lw.up) + lw.up_bias)


def adapter_layer_param_count(d: int, m: int) -> int:
    return d * m + m + m * d + d


def added_params_fraction(adapter: AdapterWeights | None, backbone: BackboneConfig,
                          include_fusion: bool = False,
                          bottleneck_dim: int | None = None) -> float:
    """Trainable added parameters as a percentage of backbone parameters.

    With include_fusion the per-layer Query/Key/Value matrices (3 d^2 per
    layer) are counted on top of the adapter.  Teacher count does not change
    the fusion size, so identical adapters report identical fractions with
    or without distillation.
    """
    d, L = backbone.hidden_dim, backbone.num_layers
    m = adapter.bottleneck_dim if adapter is not None else bottleneck_dim
    if m is None:
        raise ConfigurationError("need an adapter or an explicit bottleneck_dim")
    added = L * adapter_layer_param_count(d, m)
    if include_fusion:
        added += 3 * d * d * L
    return 100.0 * added / backbone_param_count(backbone)


def backbone_param_count(config: BackboneConfig) -> int:
    """Parameter count of the frozen encoder, from its construction recipe."""
    d, ffn, L = config.hidden_dim, config.ffn_dim, config.num_layers
    emb = config.vocab_size * d + config.max_seq_len * d
    per_layer = (4 * (d * d + d)          # attention projections
                 + 2 * 2 * d              # two layernorms
                 + d * ffn + ffn + ffn * d + d)
    pool = d * d + d
    return emb + L * per_layer + pool
