"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from pathlib import Path

from . import reference

PROB_TOL = 1e-9
CAP_PER_POINT = 10  # build_dataset's documented per-point positive cap


def probs_match_reference(routed: dict, expected: dict, tol: float = PROB_TOL) -> list[str]:
    """routed and expected map (tenant, query, candidate) -> probability."""
    out = []
    for key, p in routed.items():
        if key not in expected:
            out.append(f"{key}: no reference probability")
        elif not abs(p - expected[key]) <= tol:
            out.append(f"{key}: routed {p!r}, reference {expected[key]!r}")
    return out


def bit_identical(served: dict, baseline: dict) -> list[str]:
    return [f"{key}: {p!r} differs from {baseline.get(key)!r}"
            for key, p in served.items() if baseline.get(key) != p]


def accuracy_matches(reported: float, probs: list[float], labels: list[int]) -> list[str]:
    if not probs:
        return ["accuracy of an empty split"]
    recomputed = sum((p >= 0.5) == (y == 1) for p, y in zip(probs, labels)) / len(probs)
    if reported != recomputed:
        return [f"evaluate_tenant accuracy {reported!r}, recomputed {recomputed!r}"]
    return []


# ---------------------------------------------------------------------------
# registration

def snapshot(platform_root, tenants) -> dict[str, str]:
    """SHA-256 of every file under each named tenant's directory."""
    out = {}
    for name in tenants:
        for f in sorted((Path(platform_root) / "tenants" / name).rglob("*")):
            if f.is_file():
                out[str(f)] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def prior_unchanged(before: dict[str, str], after: dict[str, str]) -> list[str]:
    return [f"{path}: changed or removed" for path in sorted(set(before) | set(after))
            if before.get(path) != after.get(path)]


def distill_files_sized(tdir, name: str, L: int, d: int, m: int) -> list[str]:
    tdir = Path(tdir)
    want = {"adapter.bin": reference.adapter_file_size(name, L, d, m),
            "head.bin": reference.head_file_size(name, d)}
    out = []
    for fname, size in want.items():
        f = tdir / fname
        if not f.exists():
            out.append(f"{f}: missing")
        elif f.stat().st_size != size:
            out.append(f"{f}: {f.stat().st_size} bytes, layout gives {size}")
    extra = sorted(f.name for f in tdir.glob("*.bin") if f.name not in want)
    if extra:
        out.append(f"{tdir}: unexpected artifacts {extra}")
    return out


def eta_in_grid(report_path) -> list[str]:
    for line in Path(report_path).read_text(encoding="utf-8").splitlines():
        if line.startswith("eta="):
            value = line[4:]
            try:
                eta = float(value)
            except ValueError:
                return [f"{report_path}: eta {value!r} is not a number"]
            if eta not in reference.ETA_GRID:
                return [f"{report_path}: eta {eta!r} is not a grid value"]
            return []
    return [f"{report_path}: no eta line"]


# ---------------------------------------------------------------------------
# dataset build

def dataset_valid(kb, rows, sample_queries: list[str]) -> list[str]:
    """rows: (id, query, candidate, label, split) in dataset order."""
    out = []
    point_of = {q: p.point_id for p in kb.points for q in p.questions()}

    expected_pos = Counter()
    for p in kb.points:
        for pair in itertools.islice(itertools.combinations(p.questions(), 2), CAP_PER_POINT):
            expected_pos[pair] += 1
    got_pos = Counter((q, c) for _, q, c, y, _ in rows if y == 1)
    if got_pos != expected_pos:
        out.append(f"positives differ from the within-point pairs: "
                   f"{sum((got_pos - expected_pos).values())} unexpected, "
                   f"{sum((expected_pos - got_pos).values())} missing")
    for _, q, c, y, _ in rows:
        if q not in point_of or c not in point_of:
            out.append(f"pair ({q!r}, {c!r}) uses a question not in the knowledge base")
        elif y == 1 and point_of[q] != point_of[c]:
            out.append(f"positive ({q!r}, {c!r}) spans two points")
        elif y == 0 and point_of[q] == point_of[c]:
            out.append(f"negative ({q!r}, {c!r}) lies within one point")
        if len(out) > 20:
            return out

    for label in (0, 1):
        splits = Counter(s for _, _, _, y, s in rows if y == label)
        n = sum(splits.values())
        for split, share in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            if abs(splits[split] - share * n) > 1:
                out.append(f"label {label}: {splits[split]} {split} of {n}, expected {share * n:g} +-1")

    corpus = kb.all_questions()
    negatives: dict[str, list[str]] = {}
    for _, q, c, y, _ in rows:
        if y == 0:
            negatives.setdefault(q, []).append(c)
    for q, n_pos in Counter(q for _, q, _, y, _ in rows if y == 1).items():
        if len(negatives.get(q, [])) != n_pos:
            out.append(f"query {q!r}: {len(negatives.get(q, []))} negatives for {n_pos} positives")
    for q in sample_queries:
        mined = negatives.get(q, [])
        ranked = reference.bm25_ranking(q, corpus, point_of[q])[:len(mined)]
        if not mined or mined != ranked:
            out.append(f"negatives of {q!r}: {mined}, brute-force BM25 top: {ranked}")
    return out
