"""Frozen pseudo-pretrained transformer encoder.

The encoder stands in for a real pretrained checkpoint: weights are drawn
from a seeded RNG once, then frozen.  Text goes through a deterministic
hashing tokenizer.  `Backbone.forward` runs a minibatch of sequences,
(B, T) with a mask per row, as one taped forward; it hands the
post-feed-forward hidden state of every layer, (B, T, d), to an adapter
hook, which is where per-tenant adapters plug in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .faq_data import text_tokens
from .tensor import Tensor

CLS_ID = 0
PAD_ID = 1
SEP_ID = 2
NUM_RESERVED = 3


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int = 8192
    hidden_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ffn_dim"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.vocab_size <= NUM_RESERVED:
            raise ConfigurationError(f"vocab_size must exceed the {NUM_RESERVED} "
                                     f"reserved ids, got {self.vocab_size}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.max_seq_len < 2:
            raise ConfigurationError(f"max_seq_len must be >= 2, got {self.max_seq_len}")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers, "num_heads": self.num_heads,
            "ffn_dim": self.ffn_dim, "max_seq_len": self.max_seq_len,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BackboneConfig":
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigurationError(f"unknown backbone config keys {unknown}")
        try:
            return cls(**{k: int(v) for k, v in d.items()})
        except ValueError:
            raise ConfigurationError(f"backbone config values must be integers: {d}") from None


def hash_token(token: str, vocab_size: int) -> int:
    """Stable token -> id mapping into [NUM_RESERVED, vocab_size)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    bucket = int.from_bytes(digest, "little") % (vocab_size - NUM_RESERVED)
    return NUM_RESERVED + bucket


def tokenize_pair(query: str, candidate: str, max_len: int, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint "classifier + query + separator + candidate" encoding.

    Text is lowercased, split on non-word characters and hashed into the
    vocabulary; the ids are padded to max_len.  Returns (ids, mask) with
    mask 1 on real tokens and 0 on padding.  A pair longer than max_len
    keeps both separator tokens: the query and the candidate each keep at
    least half of the remaining budget, or all of their tokens if fewer.
    """
    if max_len < 2:
        raise ConfigurationError(f"max_len must be >= 2, got {max_len}")
    q, c = text_tokens(query), text_tokens(candidate)
    budget = max_len - 2
    n_q = min(len(q), max(budget // 2, budget - len(c)))
    n_c = min(len(c), budget - n_q)
    ids = ([CLS_ID] + [hash_token(t, vocab_size) for t in q[:n_q]]
           + [SEP_ID] + [hash_token(t, vocab_size) for t in c[:n_c]])
    n = len(ids)
    return (np.array(ids + [PAD_ID] * (max_len - n), dtype=np.int64),
            np.array([1.0] * n + [0.0] * (max_len - n)))


@dataclass
class LayerWeights:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    def params(self) -> list[Tensor]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                self.wo, self.bo, self.ln1_g, self.ln1_b,
                self.w_ff1, self.b_ff1, self.w_ff2, self.b_ff2,
                self.ln2_g, self.ln2_b]


@dataclass
class HeadWeights:
    """Per-tenant binary classification head: sigmoid(pooled . w + b)."""
    w: Tensor
    b: Tensor

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def copy(self) -> "HeadWeights":
        out = HeadWeights(Tensor(self.w.data.copy(), True), Tensor(self.b.data.copy(), True))
        return out


class Backbone:
    """Seeded, frozen encoder.  Immutable after construction.

    `read(shape)`, when given, supplies every weight in `params()` order in
    place of the seeded draw: a loaded or copied encoder draws nothing.
    """

    def __init__(self, config: BackboneConfig, read=None):
        self.config = config
        rng = np.random.default_rng(config.seed) if read is None else None
        d, ffn = config.hidden_dim, config.ffn_dim

        def w(*shape, scale=None, fill=0.0):
            if read is not None:
                return Tensor(read(shape))
            if scale is None:
                scale = np.sqrt(2.0 / sum(shape)) if len(shape) > 1 else 0.0
            if scale == 0.0:
                return Tensor(np.full(shape, fill))
            return Tensor(rng.normal(0.0, scale, size=shape))

        self.token_emb = w(config.vocab_size, d, scale=0.5)
        self.pos_emb = w(config.max_seq_len, d, scale=0.1)
        self.layers: list[LayerWeights] = []
        for _ in range(config.num_layers):
            self.layers.append(LayerWeights(
                wq=w(d, d), bq=w(d), wk=w(d, d), bk=w(d), wv=w(d, d), bv=w(d),
                wo=w(d, d), bo=w(d),
                ln1_g=w(d, fill=1.0), ln1_b=w(d),
                w_ff1=w(d, ffn), b_ff1=w(ffn), w_ff2=w(ffn, d), b_ff2=w(d),
                ln2_g=w(d, fill=1.0), ln2_b=w(d),
            ))
        self.pool_w = w(d, d)
        self.pool_b = w(d)

    def params(self) -> list[Tensor]:
        out = [self.token_emb, self.pos_emb]
        for layer in self.layers:
            out.extend(layer.params())
        out.extend([self.pool_w, self.pool_b])
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def weights_hash(self) -> str:
        h = hashlib.sha256()
        for p in self.params():
            h.update(p.data.tobytes())
        return h.hexdigest()

    def unfrozen_copy(self) -> "Backbone":
        """Tenant-private trainable copy (full fine-tuning baseline)."""
        source = iter(self.params())
        other = Backbone(self.config, lambda shape: next(source).data.copy())
        for p in other.params():
            p.requires_grad = True
            p.grad = np.zeros_like(p.data)
        return other

    # -- forward ----------------------------------------------------------

    def _attention(self, x: Tensor, layer: LayerWeights, key_bias: Tensor) -> Tensor:
        """All heads of every row at once: q and v as (B, H, T, dh), k as
        (B, H, dh, T)."""
        cfg = self.config
        rows, tlen, d = x.shape
        H = cfg.num_heads
        dh = d // H

        def split(t: Tensor, axes) -> Tensor:
            return T.transpose(T.reshape(t, (rows, tlen, H, dh)), axes)

        q = split(T.matmul(x, layer.wq) + layer.bq, (0, 2, 1, 3))
        k = split(T.matmul(x, layer.wk) + layer.bk, (0, 2, 3, 1))
        v = split(T.matmul(x, layer.wv) + layer.bv, (0, 2, 1, 3))
        weights = T.softmax(T.matmul(q, k) * (1.0 / np.sqrt(dh)) + key_bias)
        merged = T.reshape(T.transpose(T.matmul(weights, v), (0, 2, 1, 3)), (rows, tlen, d))
        return T.matmul(merged, layer.wo) + layer.bo

    def forward(self, ids: np.ndarray, mask: np.ndarray, adapter_hook=None):
        """Run the encoder over a batch of sequences.

        ids and mask are (B, T), one sequence per row; a 1-D pair is one
        row.  adapter_hook(layer_index, h) may transform the post-FFN hidden
        state h, (B, T, d) (the adapter insertion point); identity when
        None.  Returns the pooled representation of every row, (B, d).

        The batch is cut to its longest real row (see `real_length`).  Each
        row masks its own padding with a -1e9 key bias, so a padded position
        gets attention weight exactly 0; only position 0 is pooled, so a
        row's result does not depend on its padding.
        """
        ids, mask = np.atleast_2d(ids), np.atleast_2d(mask)
        tlen = real_length(mask)
        ids, mask = ids[:, :tlen], mask[:, :tlen]
        key_bias = Tensor(np.where(mask > 0, 0.0, -1e9)[:, None, None, :])
        x = T.embedding(self.token_emb, ids) + T.rows(self.pos_emb, 0, tlen)
        for li, layer in enumerate(self.layers):
            a = T.layernorm(x + self._attention(x, layer, key_bias), layer.ln1_g, layer.ln1_b)
            f = T.matmul(T.gelu(T.matmul(a, layer.w_ff1) + layer.b_ff1), layer.w_ff2) + layer.b_ff2
            z = f if adapter_hook is None else adapter_hook(li, f)
            x = T.layernorm(a + z, layer.ln2_g, layer.ln2_b)
        first = T.reshape(T.cols(x, 0, 1), (len(ids), self.config.hidden_dim))
        return T.tanh(T.matmul(first, self.pool_w) + self.pool_b)


def real_length(mask: np.ndarray) -> int:
    """Length of `mask`, (T,) or (B, T), up to and including the last real
    (nonzero) position of any row.

    Padding after that position is masked out of every attention and never
    pooled, so a forward pass may drop it.  Interior zeros are kept.  A row
    with no real position keeps the full length.
    """
    mask = np.atleast_2d(mask)
    if not mask.any(axis=1).all():
        return mask.shape[1]
    return int(np.flatnonzero(mask.any(axis=0))[-1]) + 1


def stack_batch(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, mask, label) triples as (B, T) ids, a (B, T) mask and (B,) labels."""
    ids, mask, labels = zip(*batch)
    return np.stack(ids), np.stack(mask), np.asarray(labels, dtype=np.float64)


def classify_logit(pooled: Tensor, head: HeadWeights) -> Tensor:
    d = pooled.data.shape[-1]
    if head.w.data.shape[0] != d:
        raise DimensionError(
            f"head dimension {head.w.data.shape} does not match pooled dim {d}"
        )
    return T.matmul(pooled, head.w) + head.b


def new_head(dim: int, rng: np.random.Generator) -> HeadWeights:
    return HeadWeights(
        w=Tensor(rng.normal(0.0, 0.05, size=(dim, 1)), requires_grad=True),
        b=Tensor(np.zeros((1, 1)), requires_grad=True),
    )
