"""Multi-tenant platform: streaming registration, routing, accounting.

Tenants register one at a time; each registration runs the two-stage
pipeline against the already-registered tenants as teachers, persists the
new artifacts, and must leave every prior tenant's bytes untouched (this
is asserted on every registration).  Inference routes by tenant name and
only ever touches that tenant's files.
"""

from __future__ import annotations

import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .adapter import AdapterWeights
from .artifacts import (load_adapter, load_backbone, load_fusion, load_head,
                        save_adapter, save_backbone, save_fusion, save_head)
from .backbone import Backbone, BackboneConfig, tokenize_pair
from .errors import (ConfigurationError, ConflictError, IntegrityError,
                     NotFoundError, UsageError)
from .faq_data import (KnowledgeBase, LabeledPairs, build_dataset,
                       load_labeled_pairs, save_labeled_pairs)
from .trainer import (TrainConfig, TrainedArtifact, evaluate_artifact,
                      predict_prob, train_tenant, write_curves_csv,
                      write_report)


@dataclass(frozen=True)
class StorageModel:
    """Per-component storage footprint in MB (measured at production scale)."""
    base_mb: float = 391.0
    fusion_mb: float = 82.0
    adapter_mb: float = 3.5
    head_mb: float = 2.3
    mb_per_gb: float = 1024.0

    def __post_init__(self):
        for name in ("base_mb", "fusion_mb", "adapter_mb", "head_mb", "mb_per_gb"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


def _floor(x: float) -> int:
    # guard against float noise just below an exact integer
    return int(math.floor(x + 1e-9))


def capacity_table(storage: StorageModel, spaces_mb: list[float]) -> list[tuple[float, int, int, int]]:
    """Rows of (space_mb, full_count, fusion_count, distill_count).

    Full fine-tuning carries its own backbone per tenant; fusion and
    distill tenants share one backbone and add per-tenant artifacts.
    """
    rows = []
    for s in spaces_mb:
        if s <= 0:
            raise ConfigurationError(f"space must be positive, got {s}")
        free = max(0.0, s - storage.base_mb)
        rows.append((
            s,
            _floor(s / storage.base_mb),
            _floor(free / (storage.fusion_mb + storage.adapter_mb + storage.head_mb)),
            _floor(free / (storage.adapter_mb + storage.head_mb)),
        ))
    return rows


def parse_space(text: str, storage: StorageModel | None = None) -> float:
    """'500MB' or '1GB' -> megabytes."""
    t = text.strip().upper()
    mb_per_gb = storage.mb_per_gb if storage else 1024.0
    try:
        if t.endswith("GB"):
            return float(t[:-2]) * mb_per_gb
        if t.endswith("MB"):
            return float(t[:-2])
        return float(t)
    except ValueError:
        raise UsageError(f"unparsable storage size {text!r}") from None


@dataclass
class TenantRecord:
    """One registry line.  `adapter_path` is nonempty when the tenant has an
    adapter; files are always opened in `Platform.tenant_dir(name)`."""
    name: str
    ordinal: int
    adapter_path: str
    head_path: str
    content_hash: str
    mode: str
    registered_at: str

    def to_line(self) -> str:
        return "\t".join([self.name, str(self.ordinal), self.adapter_path,
                          self.head_path, self.content_hash, self.mode,
                          self.registered_at])

    @classmethod
    def from_line(cls, line: str) -> "TenantRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 7:
            raise UsageError(f"malformed registry line: {line!r}")
        return cls(parts[0], int(parts[1]), parts[2], parts[3], parts[4],
                   parts[5], parts[6])


class Platform:
    """Adapter store + router rooted at a directory."""

    def __init__(self, root, backbone_config: BackboneConfig | None = None,
                 storage: StorageModel | None = None, cache_capacity: int = 8):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.storage = storage or StorageModel()
        cfg_path = self.root / "backbone.cfg"
        if backbone_config is None:
            if not cfg_path.exists():
                backbone_config = BackboneConfig()
            else:
                backbone_config = _read_config(cfg_path)
        if not cfg_path.exists():
            _write_config(cfg_path, backbone_config)
        self.backbone = Backbone(backbone_config)
        self.registry_path = self.root / "registry.txt"
        self.access_log_path = self.root / "access.log"
        self.records: "OrderedDict[str, TenantRecord]" = OrderedDict()
        self._cache: "OrderedDict[str, TrainedArtifact]" = OrderedDict()
        self._cache_capacity = cache_capacity
        self._load_registry()

    # -- registry ---------------------------------------------------------

    def _load_registry(self) -> None:
        self.records.clear()
        if not self.registry_path.exists():
            return
        for line in self.registry_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = TenantRecord.from_line(line)
                self.records[rec.name] = rec

    def _write_registry(self) -> None:
        tmp = self.registry_path.with_suffix(".tmp")
        tmp.write_text("".join(r.to_line() + "\n" for r in self.records.values()),
                       encoding="utf-8")
        os.replace(tmp, self.registry_path)

    def _log_access(self, tenant: str, filename: str, op: str) -> None:
        with open(self.access_log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{time.time():.6f}\t{tenant}\t{filename}\t{op}\n")

    def tenant_dir(self, name: str) -> Path:
        return self.root / "tenants" / name

    def _content_hash(self, name: str) -> str:
        """SHA-256 over all binary artifacts of a tenant, in name order."""
        import hashlib
        h = hashlib.sha256()
        for f in sorted(self.tenant_dir(name).glob("*.bin")):
            h.update(f.read_bytes())
        return h.hexdigest()

    def hash_snapshot(self) -> set[tuple[str, str]]:
        return {(r.name, self._content_hash(r.name)) for r in self.records.values()}

    # -- registration -----------------------------------------------------

    def register_tenant(self, name: str, data: KnowledgeBase | LabeledPairs,
                        mode: str, config: TrainConfig | None = None):
        """Run the pipeline for a new tenant; returns (record, eval report).

        Existing tenants' artifact hashes are snapshotted before training
        and re-verified after persisting; any change is fatal.
        """
        if name in self.records:
            raise ConflictError(f"tenant {name!r} already registered")
        config = replace(config or TrainConfig(), mode=mode)
        lock = self.root / "platform.lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConflictError(f"{lock} exists: another registration is running, "
                                "or a crashed one left it behind") from None
        try:
            prior = self.hash_snapshot()
            pairs = data if isinstance(data, LabeledPairs) else build_dataset(data)
            train = pairs.split_of("train")
            val = pairs.split_of("val")
            test = pairs.split_of("test")

            teacher_finals = self._teacher_adapters()
            artifact = train_tenant(train, val, self.backbone, config, teacher_finals)
            report = evaluate_artifact(self.backbone, artifact, test) if test else None

            tdir = self.tenant_dir(name)
            tdir.mkdir(parents=True, exist_ok=True)
            self._persist(name, tdir, artifact, pairs, report, config)

            record = TenantRecord(
                name=name,
                ordinal=len(self.records) + 1,
                adapter_path="adapter.bin" if artifact.adapter else "",
                head_path="head.bin",
                content_hash=self._content_hash(name),
                mode=mode,
                registered_at=datetime.now(timezone.utc).isoformat(),
            )
            self.records[name] = record
            self._write_registry()

            after = self.hash_snapshot() - {(record.name, record.content_hash)}
            if after != prior:
                raise IntegrityError(
                    "non-destructiveness violation: a prior tenant's artifacts changed")
            return record, report
        finally:
            os.close(fd)
            os.unlink(lock)

    def _load(self, name: str, filename: str, loader):
        """Every artifact read: logged, and opened in the tenant's own directory."""
        self._log_access(name, filename, "read")
        return loader(self.tenant_dir(name) / filename)

    def _teacher_adapters(self) -> list[AdapterWeights]:
        return [self._load(rec.name, "adapter.bin", load_adapter)
                for rec in self.records.values() if rec.adapter_path]

    def _persist(self, name, tdir, artifact: TrainedArtifact, pairs, report, config):
        if artifact.adapter is not None:
            artifact.adapter.tenant_name = name
            if artifact.adapter.stage == "first":
                artifact.adapter.promote()  # the tenant's final artifact
            save_adapter(artifact.adapter, tdir / "adapter.bin")
        save_head(artifact.head, name, tdir / "head.bin")
        if artifact.omega is not None:
            save_fusion(artifact.omega, name, tdir / "fusion.bin")
            for i, member in enumerate(artifact.fusion_members or []):
                save_adapter(member, tdir / f"member_{i:03d}.bin")
        if artifact.backbone is not None:
            save_backbone(artifact.backbone, tdir / "backbone.bin")
        save_labeled_pairs(pairs, tdir / "data.tsv")
        metrics = {}
        if report is not None:
            metrics = {"test_accuracy": report.accuracy,
                       "test_auc": report.auc if report.auc is not None else "undefined"}
        write_report(tdir / "report.txt",
                     {"tenant": name, "mode": artifact.mode, "seed": config.seed,
                      "eta": artifact.eta if artifact.eta is not None else "",
                      "n_train": len(pairs.split_of("train")),
                      "n_val": len(pairs.split_of("val")),
                      "n_test": len(pairs.split_of("test"))},
                     metrics)
        write_curves_csv(tdir / "curves.csv", artifact.history,
                         report.accuracy if report else None,
                         report.auc if report else None)

    # -- routing ----------------------------------------------------------

    def _load_bundle(self, name: str) -> TrainedArtifact:
        rec = self.records.get(name)
        if rec is None:
            raise NotFoundError(f"unknown tenant {name!r}")
        if name in self._cache:
            self._cache.move_to_end(name)
            return self._cache[name]
        if self._content_hash(name) != rec.content_hash:
            raise IntegrityError(f"tenant {name!r}: artifact hash mismatch")
        tdir = self.tenant_dir(name)
        head = self._load(name, "head.bin", load_head)
        adapter = omega = members = backbone = None
        if (tdir / "fusion.bin").exists():  # fusion routing never reads adapter.bin
            omega = self._load(name, "fusion.bin", load_fusion)
            members = [self._load(name, f.name, load_adapter)
                       for f in sorted(tdir.glob("member_*.bin"))]
        elif rec.adapter_path:
            adapter = self._load(name, "adapter.bin", load_adapter)
        if (tdir / "backbone.bin").exists():
            backbone = self._load(name, "backbone.bin", load_backbone)
        artifact = TrainedArtifact(rec.mode, adapter, head, omega=omega,
                                   fusion_members=members, backbone=backbone)
        self._cache[name] = artifact
        while len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
        return artifact

    def route(self, tenant_name: str, query: str, candidate: str) -> float:
        """Load (cached) the tenant's artifacts and classify the pair.

        Distill-mode and adapter-mode tenants go through the identical
        single-adapter path; only AdapterFusion tenants keep a fusion layer.
        """
        cfg = self.backbone.config
        ids, mask = tokenize_pair(query, candidate, cfg.max_seq_len, cfg.vocab_size)
        return predict_prob(self.backbone, self._load_bundle(tenant_name), ids, mask)

    def evaluate_tenant(self, name: str, split: str = "test"):
        """Re-evaluate a tenant's loaded artifact on its stored dataset split."""
        artifact = self._load_bundle(name)
        pairs = load_labeled_pairs(self.tenant_dir(name) / "data.tsv")
        return evaluate_artifact(self.backbone, artifact, pairs.split_of(split))


def _write_config(path: Path, config: BackboneConfig) -> None:
    lines = [f"{k}={v}" for k, v in config.to_dict().items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_config(path: Path) -> BackboneConfig:
    d = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            d[k.strip()] = v.strip()
    return BackboneConfig.from_dict(d)
