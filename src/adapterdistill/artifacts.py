"""Binary artifact formats with trailing SHA-256 integrity hashes.

All multi-byte fields are little-endian; tensor payloads are raw float64
in row-major order.  Every file ends with the SHA-256 of all preceding
bytes; loaders verify it and raise IntegrityError on mismatch.
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path

import numpy as np

from .adapter import (AdapterLayer, AdapterWeights, STAGE_FINAL, STAGE_FIRST,
                      backbone_param_count)
from .backbone import Backbone, BackboneConfig, HeadWeights
from .errors import ConfigurationError, FormatError, IntegrityError
from .tensor import Tensor

MAGIC_ADAPTER = b"ADPT"
MAGIC_HEAD = b"HEAD"
MAGIC_FUSION = b"FUSN"
MAGIC_BACKBONE = b"BKBN"
FORMAT_VERSION = 1
HASH_LEN = 32


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _finish(buf: io.BytesIO, path) -> str:
    body = buf.getvalue()
    digest = hashlib.sha256(body).digest()
    Path(path).write_bytes(body + digest)
    return digest.hex()


def _read_checked(path, magic: bytes) -> io.BytesIO:
    blob = Path(path).read_bytes()
    if len(blob) < len(magic) + 2 + HASH_LEN:
        raise FormatError(f"{path}: file too short")
    body, digest = blob[:-HASH_LEN], blob[-HASH_LEN:]
    if hashlib.sha256(body).digest() != digest:
        raise IntegrityError(f"{path}: SHA-256 mismatch")
    buf = io.BytesIO(body)
    if buf.read(4) != magic:
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    (version,) = struct.unpack("<H", buf.read(2))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    return buf


def _read_name(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<H", buf.read(2))
    return buf.read(n).decode("utf-8")


def _read_array(buf: io.BytesIO, *shape) -> np.ndarray:
    count = int(np.prod(shape))
    raw = buf.read(8 * count)
    if len(raw) != 8 * count:
        raise FormatError("truncated tensor payload")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


# ---------------------------------------------------------------------------
# adapter

def save_adapter(w: AdapterWeights, path) -> str:
    """Write the adapter file; returns the content hash (hex)."""
    buf = io.BytesIO()
    buf.write(MAGIC_ADAPTER)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(_pack_name(w.tenant_name))
    buf.write(struct.pack("<B", 1 if w.stage == STAGE_FINAL else 0))
    d = w.hidden_dim
    buf.write(struct.pack("<HII", w.num_layers, d, w.bottleneck_dim))
    for layer in w.layers:
        for p in layer.params():
            buf.write(p.data.astype("<f8").tobytes())
    return _finish(buf, path)


def load_adapter(path) -> AdapterWeights:
    buf = _read_checked(path, MAGIC_ADAPTER)
    name = _read_name(buf)
    (stage_byte,) = struct.unpack("<B", buf.read(1))
    if stage_byte not in (0, 1):
        raise FormatError(f"{path}: bad stage byte {stage_byte}")
    L, d, m = struct.unpack("<HII", buf.read(10))
    if m >= d or L == 0:
        raise FormatError(f"{path}: inconsistent dimensions L={L} d={d} m={m}")
    w = AdapterWeights(name, m, stage=STAGE_FINAL if stage_byte else STAGE_FIRST)
    for _ in range(L):
        w.layers.append(AdapterLayer(
            down=Tensor(_read_array(buf, d, m)),
            down_bias=Tensor(_read_array(buf, m)),
            up=Tensor(_read_array(buf, m, d)),
            up_bias=Tensor(_read_array(buf, d)),
        ))
    return w


def adapter_file_size(L: int, d: int, m: int, tenant_name: str) -> int:
    """Exact file size in bytes for a given configuration."""
    header = 4 + 2 + 2 + len(tenant_name.encode("utf-8")) + 1 + 10
    payload = 8 * (d * m + m + m * d + d) * L
    return header + payload + HASH_LEN


# ---------------------------------------------------------------------------
# classification head

def save_head(head: HeadWeights, tenant_name: str, path) -> str:
    buf = io.BytesIO()
    buf.write(MAGIC_HEAD)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(_pack_name(tenant_name))
    d = head.w.data.shape[0]
    buf.write(struct.pack("<I", d))
    buf.write(head.w.data.astype("<f8").tobytes())
    buf.write(head.b.data.astype("<f8").tobytes())
    return _finish(buf, path)


def load_head(path) -> HeadWeights:
    buf = _read_checked(path, MAGIC_HEAD)
    _read_name(buf)
    (d,) = struct.unpack("<I", buf.read(4))
    return HeadWeights(w=Tensor(_read_array(buf, d, 1)), b=Tensor(_read_array(buf, 1, 1)))


# ---------------------------------------------------------------------------
# fusion weights (debug dump / AdapterFusion baseline artifact)

def save_fusion(omega, tenant_name: str, path) -> str:
    buf = io.BytesIO()
    buf.write(MAGIC_FUSION)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(_pack_name(tenant_name))
    d = omega.layers[0][0].data.shape[0]
    buf.write(struct.pack("<HI", len(omega.layers), d))
    for q, k, v in omega.layers:
        for p in (q, k, v):
            buf.write(p.data.astype("<f8").tobytes())
    return _finish(buf, path)


def load_fusion(path):
    from .fusion import FusionWeights
    buf = _read_checked(path, MAGIC_FUSION)
    _read_name(buf)
    L, d = struct.unpack("<HI", buf.read(6))
    layers = []
    for _ in range(L):
        layers.append(tuple(Tensor(_read_array(buf, d, d)) for _ in range(3)))
    return FusionWeights(layers=layers)


# ---------------------------------------------------------------------------
# backbone copy (full fine-tuning baseline artifact)

def save_backbone(bb: Backbone, path) -> str:
    buf = io.BytesIO()
    buf.write(MAGIC_BACKBONE)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    c = bb.config
    buf.write(struct.pack("<7I", c.vocab_size, c.hidden_dim, c.num_layers,
                          c.num_heads, c.ffn_dim, c.max_seq_len, c.seed))
    for p in bb.params():
        buf.write(p.data.astype("<f8").tobytes())
    return _finish(buf, path)


def load_backbone(path) -> Backbone:
    buf = _read_checked(path, MAGIC_BACKBONE)
    header = buf.read(28)
    if len(header) != 28:
        raise FormatError(f"{path}: truncated backbone header")
    try:
        config = BackboneConfig(*struct.unpack("<7I", header))
    except ConfigurationError as exc:
        raise FormatError(f"{path}: bad backbone header: {exc}") from None
    # The header sizes the model: check it against the file before allocating.
    payload, want = len(buf.getbuffer()) - buf.tell(), 8 * backbone_param_count(config)
    if payload != want:
        raise FormatError(f"{path}: {payload} payload bytes, header implies {want}")
    bb = Backbone(config)
    for p in bb.params():
        p.data = _read_array(buf, *p.data.shape)
    return bb


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
