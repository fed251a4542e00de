"""Command-line entry point.

Subcommands: build-dataset, register, capacity, bench, reproduce.  Every
run writes a manifest before producing results; a run directory is
write-once.  Exit codes: 0 success, 2 usage/configuration, 3 conflict or
missing resource, 4 integrity or invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

from .acceptance import run_all
from .backbone import BackboneConfig
from .bench import cost_report, format_cost_report
from .errors import (AdapterDistillError, ConfigurationError, ConflictError,
                     FormatError, IntegrityError, NotFoundError, OracleError,
                     UsageError)
from .faq_data import build_dataset, load_knowledge_base, save_labeled_pairs
from .platform import Platform, StorageModel, capacity_table, parse_space
from .trainer import MODES, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFLICT = 3
EXIT_INTEGRITY = 4

DEFAULT_SPACES = "500MB,1GB,5GB,10GB,50GB,100GB"
DEFAULT_BATCH_SIZES = "10,20,30"


@dataclass
class RunManifest:
    command: str
    config_path: str
    seed: int
    output_dir: str
    inputs_hash: str

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in vars(self).items())


def _hash_inputs(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode("utf-8"))
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _start_run(args, input_paths: list[str]) -> Path | None:
    """Check that every input file exists, then create the write-once run
    directory and write the manifest first."""
    for p in input_paths:
        if not Path(p).is_file():
            raise NotFoundError(f"input file not found: {p}")
    if args.run_dir is None:
        return None
    run_dir = Path(args.run_dir)
    if run_dir.exists():
        raise UsageError(f"run directory {run_dir} already exists (runs are write-once)")
    run_dir.mkdir(parents=True)
    manifest = RunManifest(command=args.command,
                           config_path=args.config or "",
                           seed=getattr(args, "seed", 0),
                           output_dir=str(run_dir),
                           inputs_hash=_hash_inputs(input_paths))
    (run_dir / "manifest.txt").write_text(manifest.to_text(), encoding="utf-8")
    return run_dir


def _load_config_file(path: str | None) -> dict[str, str]:
    """Flat key=value text; '#' starts a comment line."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    out = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _resolve(args, config: dict[str, str], name: str, cast, default):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, name.replace("-", "_"))
    if flag is not None:
        return flag
    if name in config:
        try:
            return cast(config[name])
        except ValueError:
            raise ConfigurationError(f"config key {name}: cannot parse {config[name]!r}")
    return default


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_build_dataset(args, config) -> int:
    negatives = _resolve(args, config, "negatives", int, 1)
    seed = _resolve(args, config, "seed", int, 0)
    args.seed = seed  # recorded in the manifest
    run_dir = _start_run(args, [args.kb])
    kb = load_knowledge_base(args.kb)
    pairs = build_dataset(kb, negatives_per_positive=negatives)
    out = Path(args.out)
    save_labeled_pairs(pairs, out)
    if run_dir is not None:
        save_labeled_pairs(pairs, run_dir / out.name)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"tenant={kb.tenant_id} examples={len(pairs)} output={out}")
    for split in ("train", "val", "test"):
        print(f"{split}={len(pairs.split_of(split))}")
    print(f"sha256={digest}")
    return EXIT_OK


def _train_config_from(args, config) -> TrainConfig:
    eta_text = _resolve(args, config, "eta-grid", str, None)
    kwargs = dict(
        epochs=_resolve(args, config, "epochs", int, TrainConfig.epochs),
        learning_rate=_resolve(args, config, "learning-rate", float,
                               TrainConfig.learning_rate),
        batch_size=_resolve(args, config, "batch-size", int, TrainConfig.batch_size),
        seed=_resolve(args, config, "seed", int, 0),
        bottleneck_dim=_resolve(args, config, "bottleneck-dim", int,
                                TrainConfig.bottleneck_dim),
    )
    if eta_text is not None:
        kwargs["eta"] = _csv_floats(eta_text)
    return TrainConfig(**kwargs)


def cmd_register(args, config) -> int:
    train_config = _train_config_from(args, config)
    args.seed = train_config.seed
    run_dir = _start_run(args, [args.data])
    kb = load_knowledge_base(args.data, tenant_id=args.name)
    platform = Platform(args.root)
    record, report = platform.register_tenant(args.name, kb, args.mode, train_config)
    print(f"registered tenant={record.name} ordinal={record.ordinal} mode={record.mode}")
    print(f"content_hash={record.content_hash}")
    print("non_destructiveness=verified")  # register_tenant raises otherwise
    if report is not None:
        auc = report.auc if report.auc is not None else "undefined"
        print(f"test_accuracy={report.accuracy:.4f} test_auc={auc}")
    if run_dir is not None:
        (run_dir / "record.txt").write_text(record.to_line() + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_capacity(args, config) -> int:
    storage = StorageModel(
        base_mb=_resolve(args, config, "base-mb", float, StorageModel.base_mb),
        fusion_mb=_resolve(args, config, "fusion-mb", float, StorageModel.fusion_mb),
        adapter_mb=_resolve(args, config, "adapter-mb", float, StorageModel.adapter_mb),
        head_mb=_resolve(args, config, "head-mb", float, StorageModel.head_mb),
        mb_per_gb=_resolve(args, config, "mb-per-gb", float, StorageModel.mb_per_gb),
    )
    spaces_text = _resolve(args, config, "spaces", str, DEFAULT_SPACES)
    args.seed = 0
    run_dir = _start_run(args, [])
    spaces = [parse_space(s, storage) for s in spaces_text.split(",") if s.strip()]
    lines = [f"storage: base={storage.base_mb}MB fusion={storage.fusion_mb}MB "
             f"adapter={storage.adapter_mb}MB head={storage.head_mb}MB "
             f"1GB={storage.mb_per_gb}MB",
             f"{'space_mb':>10} {'full':>8} {'fusion':>8} {'distill':>8}"]
    for space, full, fusion, distill in capacity_table(storage, spaces):
        lines.append(f"{space:>10.1f} {full:>8} {fusion:>8} {distill:>8}")
    text = "\n".join(lines)
    print(text)
    if run_dir is not None:
        (run_dir / "capacity.txt").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_bench(args, config) -> int:
    batch_sizes = _csv_ints(_resolve(args, config, "batch-sizes", str, DEFAULT_BATCH_SIZES))
    repetitions = _resolve(args, config, "repetitions", int, 100)
    seq_len = _resolve(args, config, "seq-len", int, None)
    seed = _resolve(args, config, "seed", int, 0)
    args.seed = seed
    run_dir = _start_run(args, [])
    report = cost_report(BackboneConfig(), batch_sizes, repetitions=repetitions,
                         seq_len=seq_len, seed=seed)
    text = format_cost_report(report)
    print(text)
    print("note: latency medians are machine-specific; FLOP columns are analytic")
    if run_dir is not None:
        (run_dir / "bench.txt").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_reproduce(args, config) -> int:
    if args.suite != "paper":
        raise UsageError(f"unknown suite {args.suite!r}")
    args.seed = 0
    run_dir = _start_run(args, [])
    lines: list[str] = []

    def progress(msg: str) -> None:
        print(msg, flush=True)
        lines.append(msg)

    results = run_all(skip_slow=args.skip_slow, progress=progress)
    n_pass = sum(1 for r in results if r.passed)
    summary = f"{n_pass}/{len(results)} criteria passed"
    print(summary)
    lines.append(summary)
    if run_dir is not None:
        (run_dir / "reproduce.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK if n_pass == len(results) else EXIT_INTEGRITY


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapterdistill",
        description="Multi-tenant adapter training, distillation, and serving.")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags override it")
    parser.add_argument("--run-dir", default=None,
                        help="write-once results directory; a manifest is written "
                             "there before any results")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset",
                       help="build labeled pairs from a knowledge base (positives "
                            "within knowledge points, BM25 hard negatives across, "
                            "deterministic 8:1:1 splits)")
    p.add_argument("--kb", required=True, help="knowledge-base TSV file")
    p.add_argument("--out", required=True, help="output labeled-pairs TSV file")
    p.add_argument("--negatives", type=int, default=None,
                   help="negatives per positive (default 1)")
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("register",
                       help="register a tenant: train in the given mode against "
                            "already-registered tenants as teachers, persist artifacts")
    p.add_argument("--name", required=True)
    p.add_argument("--data", required=True, help="tenant knowledge-base TSV file")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--root", default="platform", help="platform directory (default ./platform)")
    p.add_argument("--eta-grid", default=None,
                   help="comma-separated distillation weights to grid-search "
                        "(default e^-2,e^-1,1,e,e^2)")
    p.add_argument("--epochs", type=int, default=None, help="epochs per stage (default 10)")
    p.add_argument("--learning-rate", type=float, default=None, help="peak rate (default 0.5)")
    p.add_argument("--batch-size", type=int, default=None, help="default 8")
    p.add_argument("--bottleneck-dim", type=int, default=None, help="default 8")
    p.add_argument("--seed", type=int, default=None, help="training seed (default 0)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("capacity",
                       help="tenants supported per storage budget under each serving strategy")
    p.add_argument("--spaces", default=None,
                   help=f"comma-separated sizes (default {DEFAULT_SPACES})")
    p.add_argument("--base-mb", type=float, default=None, help="shared backbone MB (default 391)")
    p.add_argument("--fusion-mb", type=float, default=None, help="fusion layer MB (default 82)")
    p.add_argument("--adapter-mb", type=float, default=None, help="adapter MB (default 3.5)")
    p.add_argument("--head-mb", type=float, default=None, help="head MB (default 2.3)")
    p.add_argument("--mb-per-gb", type=float, default=None, help="default 1024")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bench",
                       help="analytic FLOPs and measured latency per serving path")
    p.add_argument("--batch-sizes", default=None,
                   help=f"comma-separated (default {DEFAULT_BATCH_SIZES})")
    p.add_argument("--repetitions", type=int, default=None, help="default 100")
    p.add_argument("--seq-len", type=int, default=None, help="default: backbone max length")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reproduce", help="run the full reproduction suite")
    p.add_argument("--suite", default="paper", help="suite name (only 'paper')")
    p.add_argument("--skip-slow", action="store_true",
                   help="skip the multi-minute criteria (gradient check, latency "
                            "benchmark, end-to-end trend, sequential registrations)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config_file(args.config)
        return args.func(args, config)
    except (ConflictError, NotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (IntegrityError, FormatError, OracleError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except AdapterDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
