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
    (version,) = _unpack(buf, path, "<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    return buf


def _unpack(buf: io.BytesIO, path, fmt: str) -> tuple:
    """struct.unpack the next fields; FormatError if the body ends first."""
    raw = buf.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise FormatError(f"{path}: truncated header")
    return struct.unpack(fmt, raw)


def _read_name(buf: io.BytesIO, path) -> str:
    (n,) = _unpack(buf, path, "<H")
    (raw,) = _unpack(buf, path, f"{n}s")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: tenant name is not UTF-8") from None


def _check_payload(buf: io.BytesIO, path, count: int) -> None:
    """The rest of the body must be exactly `count` float64 values; checked
    before anything is allocated from header sizes."""
    payload, want = len(buf.getvalue()) - buf.tell(), 8 * count
    if payload != want:
        raise FormatError(f"{path}: {payload} payload bytes, header implies {want}")


def _read_array(buf: io.BytesIO, *shape) -> np.ndarray:
    raw = buf.read(8 * int(np.prod(shape)))  # length checked by _check_payload
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
    name = _read_name(buf, path)
    (stage_byte,) = _unpack(buf, path, "<B")
    if stage_byte not in (0, 1):
        raise FormatError(f"{path}: bad stage byte {stage_byte}")
    L, d, m = _unpack(buf, path, "<HII")
    if not 0 < m < d or L == 0:
        raise FormatError(f"{path}: inconsistent dimensions L={L} d={d} m={m}")
    _check_payload(buf, path, L * (2 * d * m + m + d))
    w = AdapterWeights(name, m, stage=STAGE_FINAL if stage_byte else STAGE_FIRST)
    for _ in range(L):
        w.layers.append(AdapterLayer(
            down=Tensor(_read_array(buf, d, m)),
            down_bias=Tensor(_read_array(buf, m)),
            up=Tensor(_read_array(buf, m, d)),
            up_bias=Tensor(_read_array(buf, d)),
        ))
    return w


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
    _read_name(buf, path)
    (d,) = _unpack(buf, path, "<I")
    if d == 0:
        raise FormatError(f"{path}: zero-width head")
    _check_payload(buf, path, d + 1)
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
    _read_name(buf, path)
    L, d = _unpack(buf, path, "<HI")
    if L == 0 or d == 0:
        raise FormatError(f"{path}: empty fusion layers L={L} d={d}")
    _check_payload(buf, path, 3 * L * d * d)
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
    try:
        config = BackboneConfig(*_unpack(buf, path, "<7I"))
    except ConfigurationError as exc:
        raise FormatError(f"{path}: bad backbone header: {exc}") from None
    _check_payload(buf, path, backbone_param_count(config))
    return Backbone(config, lambda shape: _read_array(buf, *shape))
