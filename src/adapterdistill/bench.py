"""Analytic FLOP accounting and wall-clock inference benchmarks.

FLOPs count multiply-accumulates in matrix products as 2 operations each;
softmax, layer norm, and activations are excluded (identical across the
compared paths, so they cancel in every ratio of interest).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .adapter import init_adapter
from .backbone import Backbone, BackboneConfig, new_head
from .errors import ConfigurationError, UsageError
from .fusion import init_fusion
from .tensor import no_grad
from .trainer import TrainedArtifact, predict_prob


def backbone_flops(config: BackboneConfig, seq_len: int) -> int:
    """One forward pass of the frozen encoder over one sequence."""
    d, ffn, L, T = config.hidden_dim, config.ffn_dim, config.num_layers, seq_len
    attn = 4 * 2 * T * d * d + 2 * 2 * T * T * d   # projections + scores + mix
    ffn_cost = 2 * T * d * ffn + 2 * T * ffn * d
    pool = 2 * d * d
    head = 2 * d
    return L * (attn + ffn_cost) + pool + head


def adapter_flops(config: BackboneConfig, seq_len: int, bottleneck_dim: int) -> int:
    """Extra cost of the serial bottleneck adapters, all layers."""
    T, d, m = seq_len, config.hidden_dim, bottleneck_dim
    return config.num_layers * (2 * T * d * m + 2 * T * m * d)


def fusion_flops(config: BackboneConfig, seq_len: int, n_members: int) -> int:
    """Extra cost of the fusion layer over n member adapter outputs."""
    T, d, L = seq_len, config.hidden_dim, config.num_layers
    per_layer = (2 * n_members + 1) * 2 * T * d * d + 4 * T * d * n_members
    return L * per_layer


def inference_flops(config: BackboneConfig, seq_len: int, mode: str,
                    bottleneck_dim: int = 8, n_members: int = 1) -> int:
    """Total FLOPs of one inference forward pass for the given serving path.

    adapter and adapter_distill are literally the same path, so they share
    one branch here by construction.
    """
    base = backbone_flops(config, seq_len)
    if mode in ("full", "head"):
        return base
    if mode in ("adapter", "adapter_distill", "adapter_distill_star"):
        return base + adapter_flops(config, seq_len, bottleneck_dim)
    if mode == "adapter_fusion":
        return (base + n_members * adapter_flops(config, seq_len, bottleneck_dim)
                + fusion_flops(config, seq_len, n_members))
    raise ConfigurationError(f"unknown mode {mode!r}")


@dataclass
class LatencyResult:
    mode: str
    batch_size: int
    median_ms: float
    iqr_ms: float
    flops: int


@dataclass
class CostReport:
    config: BackboneConfig
    seq_len: int
    n_members: int
    results: list[LatencyResult] = field(default_factory=list)

    def median(self, mode: str, batch_size: int) -> float:
        for r in self.results:
            if r.mode == mode and r.batch_size == batch_size:
                return r.median_ms
        raise UsageError(f"no result for {mode} @ batch {batch_size}")


def _time_batch(bb: Backbone, artifact: TrainedArtifact, ids, mask, batch_size: int) -> float:
    t0 = time.perf_counter()
    for _ in range(batch_size):
        predict_prob(bb, artifact, ids, mask)
    return (time.perf_counter() - t0) * 1000.0


def cost_report(config: BackboneConfig, batch_sizes: list[int],
                repetitions: int = 100, seq_len: int | None = None,
                bottleneck_dim: int = 8, n_members: int = 4,
                modes: tuple[str, ...] = ("full", "adapter", "adapter_distill", "adapter_fusion"),
                seed: int = 0) -> CostReport:
    """Analytic FLOPs plus measured median latencies per serving path.

    Asserts the structural identities that hold by construction:
    FLOPs(distill) == FLOPs(adapter), FLOPs(fusion) > FLOPs(adapter).
    """
    T = seq_len if seq_len is not None else config.max_seq_len
    fa = inference_flops(config, T, "adapter", bottleneck_dim)
    fd = inference_flops(config, T, "adapter_distill", bottleneck_dim)
    ff = inference_flops(config, T, "adapter_fusion", bottleneck_dim, n_members)
    if fd != fa:
        raise AssertionError("FLOPs(adapter_distill) != FLOPs(adapter)")
    if ff <= fa:
        raise AssertionError("FLOPs(adapter_fusion) not greater than FLOPs(adapter)")

    bb = Backbone(config)
    rng = np.random.default_rng(seed)
    head = new_head(config.hidden_dim, rng)
    head.w.requires_grad = False
    head.b.requires_grad = False
    plain = TrainedArtifact("head", None, head)
    adapted = TrainedArtifact("adapter", init_adapter("bench", config, bottleneck_dim,
                                                      seed=seed, trainable=False), head)
    fused = TrainedArtifact(
        "adapter_fusion", None, head,
        omega=init_fusion(config.hidden_dim, config.num_layers, seed=seed, trainable=False),
        fusion_members=[init_adapter(f"m{i}", config, bottleneck_dim, seed=seed + i,
                                     trainable=False) for i in range(n_members)])
    ids = rng.integers(3, config.vocab_size, size=T).astype(np.int64)
    mask = np.ones(T)
    runners = {"full": (plain, inference_flops(config, T, "full")),
               "head": (plain, inference_flops(config, T, "head")),
               "adapter": (adapted, fa),
               "adapter_distill": (adapted, fd),
               "adapter_fusion": (fused, ff)}

    # Every repetition times each mode once, so drift in machine speed hits
    # all modes alike; the order flips each repetition so that no mode
    # always runs right after the same neighbour.
    times: dict[tuple[str, int], list[float]] = {(m, bs): [] for m in modes for bs in batch_sizes}
    with no_grad():
        for mode in modes:
            _time_batch(bb, runners[mode][0], ids, mask, 1)  # warm up
        for bs in batch_sizes:
            for rep in range(repetitions):
                for mode in (modes if rep % 2 == 0 else modes[::-1]):
                    times[mode, bs].append(_time_batch(bb, runners[mode][0], ids, mask, bs))
    report = CostReport(config=config, seq_len=T, n_members=n_members)
    for mode in modes:
        for bs in batch_sizes:
            t = times[mode, bs]
            q = statistics.quantiles(t, n=4)
            report.results.append(LatencyResult(mode, bs, statistics.median(t), q[2] - q[0],
                                                runners[mode][1]))
    return report


def format_cost_report(report: CostReport) -> str:
    lines = [f"seq_len={report.seq_len} fusion_members={report.n_members}",
             f"{'mode':<18} {'batch':>5} {'flops':>12} {'median_ms':>10} {'iqr_ms':>8}"]
    for r in report.results:
        lines.append(f"{r.mode:<18} {r.batch_size:>5} {r.flops:>12} "
                     f"{r.median_ms:>10.3f} {r.iqr_ms:>8.3f}")
    return "\n".join(lines)
