"""Multi-tenant platform: capacity accounting, registration, routing."""

import shutil

import numpy as np
import pytest

from adapterdistill.artifacts import load_adapter, save_adapter
from adapterdistill.backbone import BackboneConfig
from adapterdistill.errors import (ConfigurationError, ConflictError,
                                   IntegrityError, NotFoundError, UsageError)
from adapterdistill.faq_data import make_synthetic_tenants
from adapterdistill.platform import (Platform, StorageModel, TenantRecord,
                                     capacity_table, parse_space)
from adapterdistill.trainer import TrainConfig

SMALL = BackboneConfig(vocab_size=1024, hidden_dim=16, num_layers=2,
                       num_heads=2, ffn_dim=32, max_seq_len=10, seed=3)

# published tenant counts per storage budget
EXPECTED_FULL = [1, 2, 13, 26, 130, 261]
EXPECTED_DISTILL = [18, 109, 815, 1698, 8760, 17587]
EXPECTED_FUSION = [0, 6, 53, 111, 578, 1161]
SPACES_MB = [500.0, 1024.0, 5120.0, 10240.0, 51200.0, 102400.0]


def quick_config(seed=0):
    return TrainConfig(epochs=2, batch_size=8, bottleneck_dim=4, eta=1.0, seed=seed)


@pytest.fixture
def kbs():
    return make_synthetic_tenants(3, 6, 0.5, seed=2)


class TestCapacity:
    def test_full_and_distill_columns_exact(self):
        rows = capacity_table(StorageModel(), SPACES_MB)
        assert [r[1] for r in rows] == EXPECTED_FULL
        assert [r[3] for r in rows] == EXPECTED_DISTILL

    def test_fusion_column_within_one(self):
        rows = capacity_table(StorageModel(), SPACES_MB)
        assert all(abs(r[2] - want) <= 1
                   for r, want in zip(rows, EXPECTED_FUSION))

    def test_space_below_backbone_supports_no_shared_tenants(self):
        rows = capacity_table(StorageModel(), [100.0])
        assert rows[0][1:] == (0, 0, 0)

    def test_nonpositive_space_rejected(self):
        with pytest.raises(ConfigurationError):
            capacity_table(StorageModel(), [0.0])

    def test_storage_model_validation(self):
        with pytest.raises(ConfigurationError):
            StorageModel(base_mb=0.0)

    def test_parse_space(self):
        assert parse_space("500MB") == 500.0
        assert parse_space("1GB") == 1024.0
        assert parse_space("2.5gb") == 2560.0
        with pytest.raises(UsageError):
            parse_space("lots")


class TestRegistration:
    def test_register_and_route(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        record, report = plat.register_tenant("alpha", kbs[0], "adapter",
                                              quick_config())
        assert record.ordinal == 1 and record.mode == "adapter"
        prob = plat.route("alpha", "how are things", "how are things")
        assert 0.0 <= prob <= 1.0

    def test_duplicate_name_conflicts(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        with pytest.raises(ConflictError):
            plat.register_tenant("alpha", kbs[1], "adapter", quick_config())

    def test_lock_file_removed_after_registration(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        assert not (tmp_path / "platform.lock").exists()

    def test_stale_lock_blocks_registration(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        (tmp_path / "platform.lock").touch()
        with pytest.raises(ConflictError, match="platform.lock"):
            plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        assert (tmp_path / "platform.lock").exists()
        assert "alpha" not in plat.records

    def test_distill_uses_prior_tenants_as_teachers(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        before = plat.hash_snapshot()
        record, _ = plat.register_tenant("beta", kbs[1], "adapter_distill",
                                         quick_config(seed=1))
        assert record.ordinal == 2
        assert before.issubset(plat.hash_snapshot())
        # distill tenants serve through the plain adapter path
        assert not (plat.tenant_dir("beta") / "fusion.bin").exists()

    def test_fusion_tenant_keeps_member_copies(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter_fusion", quick_config(seed=1))
        tdir = plat.tenant_dir("beta")
        assert (tdir / "fusion.bin").exists()
        assert list(tdir.glob("member_*.bin"))

    def test_persisted_adapter_is_final_stage(self, tmp_path, kbs):
        from adapterdistill.artifacts import load_adapter
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        assert load_adapter(plat.tenant_dir("alpha") / "adapter.bin").stage == "final"

    def test_report_and_curves_written(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        tdir = plat.tenant_dir("alpha")
        assert "tenant=alpha" in (tdir / "report.txt").read_text()
        assert (tdir / "curves.csv").read_text().startswith("epoch,")


class TestRouting:
    def test_unknown_tenant(self, tmp_path):
        with pytest.raises(NotFoundError):
            Platform(tmp_path, SMALL).route("ghost", "q", "c")

    def test_tampered_artifact_rejected(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        path = plat.tenant_dir("alpha") / "adapter.bin"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            plat.route("alpha", "q", "c")

    def test_registry_reload_preserves_routing(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        probe = ("how s0a s1a", "how s0b s1b")
        before = plat.route("alpha", *probe)
        assert Platform(tmp_path).route("alpha", *probe) == before

    def test_cache_eviction_still_correct(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL, cache_capacity=1)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter", quick_config(seed=1))
        a1 = plat.route("alpha", "q", "c")
        plat.route("beta", "q", "c")  # evicts alpha
        assert plat.route("alpha", "q", "c") == a1

    def test_access_log_appends_reads(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.route("alpha", "q", "c")
        log = (tmp_path / "access.log").read_text()
        assert "alpha\tadapter.bin\tread" in log

    def test_routing_only_reads_own_tenant_files(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter_distill", quick_config(seed=1))
        (tmp_path / "access.log").unlink()
        plat._cache.clear()
        plat.route("beta", "q", "c")
        lines = (tmp_path / "access.log").read_text().splitlines()
        assert lines and all(line.split("\t")[1] == "beta" for line in lines)

    def test_fusion_route_on_cold_cache_skips_adapter_bin(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter_fusion", quick_config(seed=1))
        (tmp_path / "access.log").unlink()
        plat._cache.clear()
        plat.route("beta", "q", "c")
        files = [line.split("\t")[2] for line in
                 (tmp_path / "access.log").read_text().splitlines()]
        assert "fusion.bin" in files and "adapter.bin" not in files

    def test_hot_fusion_tenant_stacks_its_members_once(self, tmp_path, kbs, monkeypatch):
        import adapterdistill.fusion as fusion
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter_fusion", quick_config(seed=1))
        plat._cache.clear()
        stacks = []
        real = fusion.stack_adapters

        def counting(adapters):
            stacks.append(len(adapters))
            return real(adapters)

        monkeypatch.setattr(fusion, "stack_adapters", counting)
        first = plat.route("beta", "q", "c")  # the load stacks the members
        assert stacks == [2]
        assert all(plat.route("beta", "q", "c") == first for _ in range(10))
        assert stacks == [2]

    def test_fusion_tenant_adapter_bin_still_hash_checked(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        plat.register_tenant("beta", kbs[1], "adapter_fusion", quick_config(seed=1))
        path = plat.tenant_dir("beta") / "adapter.bin"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        plat._cache.clear()
        with pytest.raises(IntegrityError):
            plat.route("beta", "q", "c")

    def test_evaluate_tenant_matches_registration_report(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        _, report = plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        again = plat.evaluate_tenant("alpha")
        assert again.accuracy == report.accuracy and again.auc == report.auc


class TestTenantDirectory:
    """Artifacts are read from the tenant's directory under the platform
    root, not from the paths the registry held at registration."""

    def test_registry_holds_bare_file_names(self, tmp_path, kbs):
        rec, _ = Platform(tmp_path, SMALL).register_tenant("alpha", kbs[0], "adapter",
                                                           quick_config())
        assert (rec.adapter_path, rec.head_path) == ("adapter.bin", "head.bin")
        line = (tmp_path / "registry.txt").read_text().split("\t")
        assert line[2:4] == ["adapter.bin", "head.bin"]

    def test_relative_root_opened_from_another_directory(self, tmp_path, kbs, monkeypatch):
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        plat = Platform("plat", SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        before = plat.route("alpha", "q", "c")
        monkeypatch.chdir(tmp_path)
        moved = Platform("a/plat")
        assert moved.route("alpha", "q", "c") == before
        moved.register_tenant("beta", kbs[1], "adapter_distill", quick_config(seed=1))

    def test_copied_platform_reads_only_its_own_files(self, tmp_path, kbs):
        orig = Platform(tmp_path / "orig", SMALL)
        orig.register_tenant("alpha", kbs[0], "adapter", quick_config())
        before = orig.route("alpha", "q", "c")
        shutil.copytree(tmp_path / "orig", tmp_path / "copy")
        path = orig.tenant_dir("alpha") / "adapter.bin"
        changed = load_adapter(path)
        for p in changed.params():
            p.data += 0.1
        save_adapter(changed, path)
        with pytest.raises(IntegrityError):  # the original's hash no longer matches
            Platform(tmp_path / "orig").route("alpha", "q", "c")
        assert Platform(tmp_path / "copy").route("alpha", "q", "c") == before

    def test_records_with_full_paths_still_load(self, tmp_path, kbs):
        plat = Platform(tmp_path, SMALL)
        plat.register_tenant("alpha", kbs[0], "adapter", quick_config())
        before = plat.route("alpha", "q", "c")
        registry = tmp_path / "registry.txt"
        cols = registry.read_text().rstrip("\n").split("\t")
        cols[2:4] = ["/elsewhere/tenants/alpha/adapter.bin", "/elsewhere/tenants/alpha/head.bin"]
        registry.write_text("\t".join(cols) + "\n")
        assert Platform(tmp_path).route("alpha", "q", "c") == before


class TestRecord:
    def test_line_round_trip(self):
        rec = TenantRecord("t", 3, "a.bin", "h.bin", "ff" * 32, "adapter",
                           "2026-01-01T00:00:00+00:00")
        assert TenantRecord.from_line(rec.to_line()) == rec

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError):
            TenantRecord.from_line("too\tfew\tfields")

    def test_config_file_with_reserved_ids_only_rejected(self, tmp_path):
        Platform(tmp_path, SMALL)
        cfg = tmp_path / "backbone.cfg"
        cfg.write_text(cfg.read_text().replace("vocab_size=1024", "vocab_size=3"))
        with pytest.raises(ConfigurationError, match="reserved"):
            Platform(tmp_path)

    def test_config_persisted_and_reloaded(self, tmp_path):
        Platform(tmp_path, SMALL)
        assert Platform(tmp_path).backbone.config == SMALL
