"""Binary artifact round-trips, exact sizes, and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest

import adapterdistill.artifacts as artifacts
from adapterdistill.adapter import init_adapter
from adapterdistill.artifacts import (adapter_file_size, file_hash,
                                      load_adapter, load_backbone,
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

    @staticmethod
    def write_backbone(path, header, payload=b""):
        body = b"BKBN" + struct.pack("<H", 1) + header + payload
        path.write_bytes(body + hashlib.sha256(body).digest())

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

    def test_file_hash_matches_trailing_digest_input(self, tmp_path):
        path = tmp_path / "a.bin"
        save_adapter(random_adapter(), path)
        assert file_hash(path) == file_hash(path)
