"""Binary artifact round-trips, exact sizes, and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adapterdistill.artifacts as artifacts
from adapterdistill.adapter import backbone_param_count, init_adapter
from adapterdistill.artifacts import (HASH_LEN, load_adapter, load_backbone,
                                      load_fusion, load_head, save_adapter,
                                      save_backbone, save_fusion, save_head)
from adapterdistill.backbone import Backbone, BackboneConfig, new_head
from adapterdistill.errors import FormatError, IntegrityError
from adapterdistill.fusion import init_fusion

SMALL = BackboneConfig(vocab_size=256, hidden_dim=8, num_layers=2,
                       num_heads=2, ffn_dim=16, max_seq_len=6)


def random_adapter(name="tenant-x", stage_final=True):
    a = init_adapter(name, SMALL, 4, seed=7, trainable=False)
    rng = np.random.default_rng(1)
    for layer in a.layers:
        for p in layer.params():
            p.data[:] = rng.normal(size=p.data.shape)
    if stage_final:
        a.promote()
    return a


def adapter_file_size(L: int, d: int, m: int, tenant_name: str) -> int:
    """Exact adapter file size in bytes for a given configuration."""
    header = 4 + 2 + 2 + len(tenant_name.encode("utf-8")) + 1 + 10
    payload = 8 * (d * m + m + m * d + d) * L
    return header + payload + HASH_LEN


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_signed(path, body: bytes) -> None:
    """A file whose trailing SHA-256 is valid, whatever the body holds."""
    path.write_bytes(body + hashlib.sha256(body).digest())


VERSION = struct.pack("<H", 1)
LOADERS = {"adapter": (load_adapter, b"ADPT"), "head": (load_head, b"HEAD"),
           "fusion": (load_fusion, b"FUSN"), "backbone": (load_backbone, b"BKBN")}


class TestAdapterFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        a = random_adapter()
        path = tmp_path / "a.bin"
        save_adapter(a, path)
        b = load_adapter(path)
        assert b.tenant_name == a.tenant_name
        assert b.stage == a.stage
        assert b.bottleneck_dim == a.bottleneck_dim
        assert all((p.data == q.data).all() for p, q in zip(a.params(), b.params()))

    def test_stage_byte_round_trip(self, tmp_path):
        a = random_adapter(stage_final=False)
        path = tmp_path / "a.bin"
        save_adapter(a, path)
        assert load_adapter(path).stage == "first"

    def test_exact_file_size(self, tmp_path):
        a = random_adapter(name="nine-char")
        path = tmp_path / "a.bin"
        save_adapter(a, path)
        assert path.stat().st_size == adapter_file_size(
            SMALL.num_layers, SMALL.hidden_dim, 4, "nine-char")

    def test_unicode_tenant_name(self, tmp_path):
        a = random_adapter(name="клиент-7")
        path = tmp_path / "a.bin"
        save_adapter(a, path)
        assert load_adapter(path).tenant_name == "клиент-7"

    def test_save_returns_verifiable_hash(self, tmp_path):
        path = tmp_path / "a.bin"
        digest = save_adapter(random_adapter(), path)
        assert path.read_bytes()[-32:].hex() == digest


class TestCorruption:
    @pytest.mark.parametrize("offset_frac", [0.3, 0.6, 0.95])
    def test_flipped_byte_rejected(self, tmp_path, offset_frac):
        path = tmp_path / "a.bin"
        save_adapter(random_adapter(), path)
        blob = bytearray(path.read_bytes())
        blob[int(offset_frac * len(blob))] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_adapter(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"ADPT")
        with pytest.raises(FormatError):
            load_adapter(path)

    def test_wrong_magic_rejected(self, tmp_path):
        head = new_head(SMALL.hidden_dim, np.random.default_rng(0))
        path = tmp_path / "h.bin"
        save_head(head, "t", path)
        with pytest.raises(FormatError, match="magic"):
            load_adapter(path)


class TestOtherFormats:
    def test_head_round_trip(self, tmp_path):
        head = new_head(SMALL.hidden_dim, np.random.default_rng(2))
        path = tmp_path / "h.bin"
        save_head(head, "t", path)
        loaded = load_head(path)
        assert (loaded.w.data == head.w.data).all()
        assert (loaded.b.data == head.b.data).all()

    def test_fusion_round_trip(self, tmp_path):
        omega = init_fusion(SMALL.hidden_dim, SMALL.num_layers, seed=4, trainable=False)
        path = tmp_path / "f.bin"
        save_fusion(omega, "t", path)
        loaded = load_fusion(path)
        assert all((p.data == q.data).all()
                   for p, q in zip(loaded.params(), omega.params()))

    def test_backbone_round_trip_preserves_forward(self, tmp_path):
        bb = Backbone(SMALL)
        bb.params()[0].data[0] += 0.25  # diverge from the seeded construction
        path = tmp_path / "b.bin"
        save_backbone(bb, path)
        loaded = load_backbone(path)
        assert loaded.config == SMALL
        assert loaded.weights_hash() == bb.weights_hash()

    def test_loaded_backbone_draws_no_weights(self, tmp_path, monkeypatch):
        bb = Backbone(SMALL)
        rng = np.random.default_rng(9)
        for p in bb.params():  # every weight away from the seeded draw
            p.data = p.data + rng.normal(size=p.data.shape)
        path = tmp_path / "b.bin"
        save_backbone(bb, path)
        draws = []
        real_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def normal(self, *args, **kwargs):
                draws.append(kwargs.get("size"))
                return self.rng.normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        loaded = load_backbone(path)
        assert draws == []
        assert all(p.data.tobytes() == q.data.tobytes()
                   for p, q in zip(loaded.params(), bb.params()))
        Backbone(SMALL)  # a seeded construction does draw
        assert draws

    @staticmethod
    def write_backbone(path, header, payload=b""):
        write_signed(path, b"BKBN" + VERSION + header + payload)

    @pytest.mark.parametrize("vocab_size", [300_000, 2**32 - 1])
    def test_oversized_backbone_header_rejected_before_allocating(self, tmp_path,
                                                                  monkeypatch, vocab_size):
        def refuse(config):
            raise AssertionError(f"load_backbone built a backbone for {config}")

        monkeypatch.setattr(artifacts, "Backbone", refuse)
        path = tmp_path / "b.bin"
        self.write_backbone(path, struct.pack("<7I", vocab_size, 8, 2, 2, 16, 6, 0),
                            bytes(8))
        with pytest.raises(FormatError, match="header implies"):
            load_backbone(path)

    @pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
    def test_backbone_payload_one_value_off_rejected(self, tmp_path, extra):
        path = tmp_path / "b.bin"
        save_backbone(Backbone(SMALL), path)
        body = path.read_bytes()[:-32]
        payload = body[34:extra] if extra < 0 else body[34:] + bytes(extra)
        self.write_backbone(path, body[6:34], payload)
        with pytest.raises(FormatError, match="header implies"):
            load_backbone(path)

    @pytest.mark.parametrize("header", [struct.pack("<7I", 256, 8, 2, 0, 16, 6, 0),
                                        struct.pack("<3I", 256, 8, 2)],
                             ids=["zero_heads", "truncated"])
    def test_malformed_backbone_header_is_format_error(self, tmp_path, header):
        path = tmp_path / "b.bin"
        self.write_backbone(path, header)
        with pytest.raises(FormatError):
            load_backbone(path)

    def test_backbone_header_with_reserved_ids_only(self, tmp_path):
        # vocab_size 3 holds only the reserved ids, so no token could be hashed;
        # the payload is the size such a header implies.
        header = (3, 8, 2, 2, 16, 6, 0)
        count = backbone_param_count(BackboneConfig(4, *header[1:])) - 8  # one row of d=8
        path = tmp_path / "b.bin"
        self.write_backbone(path, struct.pack("<7I", *header), bytes(8 * count))
        with pytest.raises(FormatError, match="reserved"):
            load_backbone(path)

    def test_file_hash_matches_trailing_digest_input(self, tmp_path):
        path = tmp_path / "a.bin"
        save_adapter(random_adapter(), path)
        assert file_hash(path) == file_hash(path)


class TestMalformedBodies:
    """Bodies with a valid trailer that the format still forbids."""

    @pytest.mark.parametrize("kind", ["adapter", "head", "fusion"])
    def test_header_ending_after_version(self, tmp_path, kind):
        loader, magic = LOADERS[kind]
        write_signed(tmp_path / "x.bin", magic + VERSION)
        with pytest.raises(FormatError, match="truncated"):
            loader(tmp_path / "x.bin")

    @pytest.mark.parametrize("kind", ["adapter", "head", "fusion"])
    def test_name_not_utf8(self, tmp_path, kind):
        loader, magic = LOADERS[kind]
        write_signed(tmp_path / "x.bin", magic + VERSION + struct.pack("<H", 2) + b"\xff\xfe")
        with pytest.raises(FormatError, match="UTF-8"):
            loader(tmp_path / "x.bin")

    def test_fusion_without_layers(self, tmp_path):
        write_signed(tmp_path / "f.bin",
                     b"FUSN" + VERSION + struct.pack("<H", 1) + b"t" + struct.pack("<HI", 0, 8))
        with pytest.raises(FormatError, match="L=0"):
            load_fusion(tmp_path / "f.bin")

    def test_zero_width_head(self, tmp_path):
        write_signed(tmp_path / "h.bin",
                     b"HEAD" + VERSION + struct.pack("<H", 1) + b"t" + struct.pack("<I", 0)
                     + np.zeros(1).tobytes())
        with pytest.raises(FormatError, match="zero-width"):
            load_head(tmp_path / "h.bin")

    def test_zero_width_adapter(self, tmp_path):
        L, d = 2, 8
        write_signed(tmp_path / "a.bin",
                     b"ADPT" + VERSION + struct.pack("<H", 1) + b"t" + struct.pack("<B", 1)
                     + struct.pack("<HII", L, d, 0) + np.zeros(L * d).tobytes())
        with pytest.raises(FormatError, match="m=0"):
            load_adapter(tmp_path / "a.bin")

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_trailing_bytes_after_payload(self, tmp_path, kind):
        path = tmp_path / "x.bin"
        if kind == "adapter":
            save_adapter(random_adapter(), path)
        elif kind == "head":
            save_head(new_head(SMALL.hidden_dim, np.random.default_rng(0)), "t", path)
        elif kind == "fusion":
            save_fusion(init_fusion(SMALL.hidden_dim, SMALL.num_layers, seed=1), "t", path)
        else:
            save_backbone(Backbone(SMALL), path)
        loader = LOADERS[kind][0]
        loader(path)
        write_signed(path, path.read_bytes()[:-32] + b"\x00")
        with pytest.raises(FormatError, match="payload bytes"):
            loader(path)

    @pytest.mark.parametrize("kind", list(LOADERS))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tail=st.binary(max_size=250), with_header=st.booleans())
    def test_any_signed_body_loads_or_is_rejected(self, tmp_path, kind, tail, with_header):
        loader, magic = LOADERS[kind]
        write_signed(tmp_path / "x.bin", magic + VERSION + tail if with_header else tail)
        try:
            loader(tmp_path / "x.bin")
        except (FormatError, IntegrityError):
            pass
