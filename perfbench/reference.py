"""Independent references the benchmark checks the program against.

Nothing here calls the program's tokenizer, loaders, forward pass or BM25.
Artifact files are parsed from their documented byte layout, the encoder
and its adapter or fusion hook are re-implemented in plain numpy, and BM25
ranking is brute force.  The frozen encoder's weights are not stored per
tenant, so they are taken from `Backbone(config)`, built from the
platform's `backbone.cfg`.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
from scipy.special import erf

from adapterdistill import Backbone, BackboneConfig

CLS_ID, PAD_ID, SEP_ID, NUM_RESERVED = 0, 1, 2, 3
HASH_LEN = 32
TOKEN_RE = re.compile(r"\w+", re.UNICODE)
ETA_GRID = (math.exp(-2), math.exp(-1), 1.0, math.e, math.e ** 2)
BM25_K1, BM25_B = 1.2, 0.75


class LayoutError(Exception):
    """An artifact does not follow its documented layout."""


# ---------------------------------------------------------------------------
# tokenizer

def token_id(token: str, vocab_size: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return NUM_RESERVED + int.from_bytes(digest, "little") % (vocab_size - NUM_RESERVED)


def encode_pair(query: str, candidate: str, max_len: int, vocab_size: int):
    ids = ([CLS_ID] + [token_id(t, vocab_size) for t in TOKEN_RE.findall(query.lower())]
           + [SEP_ID] + [token_id(t, vocab_size) for t in TOKEN_RE.findall(candidate.lower())])
    if len(ids) > max_len:
        raise LayoutError(f"pair of {len(ids)} tokens exceeds max_seq_len {max_len}")
    n = len(ids)
    ids = np.array(ids + [PAD_ID] * (max_len - n), dtype=np.int64)
    mask = np.array([1.0] * n + [0.0] * (max_len - n))
    return ids, mask


# ---------------------------------------------------------------------------
# artifact layouts: magic, u16 version, u16-prefixed name, body, SHA-256

class _Reader:
    def __init__(self, path: Path, magic: bytes):
        blob = Path(path).read_bytes()
        body, digest = blob[:-HASH_LEN], blob[-HASH_LEN:]
        if hashlib.sha256(body).digest() != digest:
            raise LayoutError(f"{path}: trailing SHA-256 does not match")
        if body[:4] != magic:
            raise LayoutError(f"{path}: magic {body[:4]!r}, expected {magic!r}")
        self.body, self.pos, self.path = body, 6, path
        (n,) = self.unpack("<H")
        self.name = self.take(n).decode("utf-8")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.body):
            raise LayoutError(f"{self.path}: truncated")
        out = self.body[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, *shape) -> np.ndarray:
        count = int(np.prod(shape))
        return np.frombuffer(self.take(8 * count), dtype="<f8").reshape(shape).astype(np.float64)

    def done(self) -> None:
        if self.pos != len(self.body):
            raise LayoutError(f"{self.path}: {len(self.body) - self.pos} trailing bytes")


def read_adapter(path) -> list[tuple[np.ndarray, ...]]:
    r = _Reader(path, b"ADPT")
    r.unpack("<B")  # stage
    L, d, m = r.unpack("<HII")
    layers = [(r.array(d, m), r.array(m), r.array(m, d), r.array(d)) for _ in range(L)]
    r.done()
    return layers


def read_head(path) -> tuple[np.ndarray, np.ndarray]:
    r = _Reader(path, b"HEAD")
    (d,) = r.unpack("<I")
    out = (r.array(d, 1), r.array(1, 1))
    r.done()
    return out


def read_fusion(path) -> list[tuple[np.ndarray, ...]]:
    r = _Reader(path, b"FUSN")
    L, d = r.unpack("<HI")
    layers = [(r.array(d, d), r.array(d, d), r.array(d, d)) for _ in range(L)]
    r.done()
    return layers


def adapter_file_size(name: str, L: int, d: int, m: int) -> int:
    """magic 4, version 2, name 2+len, stage 1, (L, d, m) 2+4+4, float64
    payload per layer (down d*m, bias m, up m*d, bias d), SHA-256 32."""
    return 4 + 2 + 2 + len(name.encode("utf-8")) + 1 + 10 + 8 * L * (2 * d * m + m + d) + HASH_LEN


def head_file_size(name: str, d: int) -> int:
    """magic 4, version 2, name 2+len, d 4, float64 w (d) and b (1), SHA-256 32."""
    return 4 + 2 + 2 + len(name.encode("utf-8")) + 4 + 8 * (d + 1) + HASH_LEN


def read_backbone_config(platform_root) -> BackboneConfig:
    values = {}
    for line in (Path(platform_root) / "backbone.cfg").read_text(encoding="utf-8").splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            values[k.strip()] = int(v)
    return BackboneConfig(**values)


# ---------------------------------------------------------------------------
# numpy forward pass

def _gelu(x):
    return x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layernorm(x, g, b, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps) * g + b


def _adapter(h, layer):
    down, down_b, up, up_b = layer
    return h + (_gelu(h @ down + down_b) @ up + up_b)


class ReferenceModel:
    """Plain-numpy serving forward over one platform's stored tenants."""

    def __init__(self, platform_root):
        self.root = Path(platform_root)
        self.config = read_backbone_config(self.root)
        bb = Backbone(self.config)
        self.tok = bb.token_emb.data.copy()
        self.pos = bb.pos_emb.data.copy()
        self.layers = [[p.data.copy() for p in layer.params()] for layer in bb.layers]
        self.pool_w, self.pool_b = bb.pool_w.data.copy(), bb.pool_b.data.copy()
        self._tenants: dict[str, dict] = {}

    def tenant(self, name: str) -> dict:
        if name not in self._tenants:
            tdir = self.root / "tenants" / name
            t = {"head": read_head(tdir / "head.bin")}
            if (tdir / "fusion.bin").exists():
                t["fusion"] = read_fusion(tdir / "fusion.bin")
                t["members"] = [read_adapter(f) for f in sorted(tdir.glob("member_*.bin"))]
            else:
                t["adapter"] = read_adapter(tdir / "adapter.bin")
            self._tenants[name] = t
        return self._tenants[name]

    def _hook(self, t: dict, li: int, h):
        if "adapter" in t:
            return _adapter(h, t["adapter"][li])
        q_mat, k_mat, v_mat = t["fusion"][li]
        zs = [_adapter(h, m[li]) for m in t["members"]]
        q = h @ q_mat
        logits = np.stack([(q * (z @ k_mat)).sum(axis=1) for z in zs], axis=1)
        p = _softmax(logits)
        return sum(p[:, n:n + 1] * (z @ v_mat) for n, z in enumerate(zs))

    def prob(self, name: str, query: str, candidate: str) -> float:
        cfg = self.config
        t = self.tenant(name)
        ids, mask = encode_pair(query, candidate, cfg.max_seq_len, cfg.vocab_size)
        dh = cfg.hidden_dim // cfg.num_heads
        bias = np.where(mask > 0, 0.0, -1e9)[None, :]
        x = self.tok[ids] + self.pos[:len(ids)]
        for li, (wq, bq, wk, bk, wv, bv, wo, bo, g1, b1, w1, c1, w2, c2, g2, b2) in enumerate(self.layers):
            q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
            heads = []
            for h in range(cfg.num_heads):
                s = slice(h * dh, (h + 1) * dh)
                heads.append(_softmax(q[:, s] @ k[:, s].T * (1.0 / np.sqrt(dh)) + bias) @ v[:, s])
            a = _layernorm(x + (np.concatenate(heads, axis=1) @ wo + bo), g1, b1)
            f = _gelu(a @ w1 + c1) @ w2 + c2
            x = _layernorm(a + self._hook(t, li, f), g2, b2)
        pooled = np.tanh(x[0:1] @ self.pool_w + self.pool_b)
        head_w, head_b = t["head"]
        logit = float((pooled @ head_w + head_b)[0, 0])
        return 1.0 / (1.0 + math.exp(-logit))


# ---------------------------------------------------------------------------
# stored datasets and BM25

def read_pairs(path) -> list[tuple[str, str, str, int, str]]:
    """(id, query, candidate, label, split) rows of a stored data.tsv."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            pid, q, c, y, split = line.split("\t")
            rows.append((pid, q, c, int(y), split))
    return rows


def bm25_ranking(query: str, corpus: list[tuple[str, str]], exclude_point: str) -> list[str]:
    """Candidates from other points, best first: BM25 score descending,
    then point_id, then candidate text; each candidate text once."""
    docs = [TOKEN_RE.findall(q.lower()) for _, q in corpus]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df: dict[str, int] = {}
    for d in docs:
        for t in set(d):
            df[t] = df.get(t, 0) + 1
    q_tokens = TOKEN_RE.findall(query.lower())
    scored = []
    for (pid, cand), doc in zip(corpus, docs):
        if pid == exclude_point:
            continue
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(doc) / avgdl)
        score = 0.0
        for t in q_tokens:
            f = doc.count(t)
            if f:
                idf = math.log(n / (df[t] + 0.5) + 1.0)
                score += idf * f * (BM25_K1 + 1.0) / (f + norm)
        scored.append((-score, pid, cand))
    scored.sort()
    out, seen = [], set()
    for _, _, cand in scored:
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out
