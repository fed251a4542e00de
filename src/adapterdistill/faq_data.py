"""Cold-start dataset pipeline for FAQ pair classification.

Knowledge bases hold knowledge points (a standard question plus similar
questions sharing one answer).  Positive pairs come from within a point;
hard negatives are mined across points with BM25.  Splits are 8:1:1,
deterministic, and stratified by label.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, UsageError

K1_DEFAULT = 1.2
B_DEFAULT = 0.75

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def text_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class KnowledgePoint:
    point_id: str
    standard_question: str
    similar_questions: list[str] = field(default_factory=list)

    def questions(self) -> list[str]:
        return [self.standard_question] + list(self.similar_questions)


@dataclass
class KnowledgeBase:
    tenant_id: str
    points: list[KnowledgePoint] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if p.point_id in seen:
                raise UsageError(f"duplicate point_id {p.point_id!r}")
            seen.add(p.point_id)
            if not p.questions():
                raise UsageError(f"point {p.point_id!r} has no questions")

    def all_questions(self) -> list[tuple[str, str]]:
        """(point_id, question) for every question in the base."""
        return [(p.point_id, q) for p in self.points for q in p.questions()]


@dataclass
class Example:
    id: str
    query: str
    candidate: str
    label: int
    split: str = ""


@dataclass
class LabeledPairs:
    examples: list[Example] = field(default_factory=list)

    def split_of(self, name: str) -> list[Example]:
        return [e for e in self.examples if e.split == name]

    def __len__(self) -> int:
        return len(self.examples)


# ---------------------------------------------------------------------------
# knowledge-base file format: point_id <TAB> standard <TAB> similar...

def load_knowledge_base(path, tenant_id: str | None = None) -> KnowledgeBase:
    points = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise FormatError(f"{path}:{lineno}: expected at least point_id and standard question")
        points.append(KnowledgePoint(parts[0], parts[1], parts[2:]))
    return KnowledgeBase(tenant_id or Path(path).stem, points)


def save_knowledge_base(kb: KnowledgeBase, path) -> None:
    lines = ["\t".join([p.point_id, p.standard_question] + p.similar_questions)
             for p in kb.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labeled_pairs(path) -> LabeledPairs:
    out = LabeledPairs()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields")
        out.examples.append(Example(parts[0], parts[1], parts[2], int(parts[3]), parts[4]))
    return out


def save_labeled_pairs(pairs: LabeledPairs, path) -> None:
    lines = [f"{e.id}\t{e.query}\t{e.candidate}\t{e.label}\t{e.split}"
             for e in pairs.examples]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# positives

def build_positives(kb: KnowledgeBase, cap_per_point: int = 10) -> list[tuple[str, str, int]]:
    """All unordered within-point question pairs, capped per point."""
    out = []
    for p in kb.points:
        qs = p.questions()
        for i, (a, b) in enumerate(itertools.combinations(qs, 2)):
            if i >= cap_per_point:
                break
            out.append((a, b, 1))
    return out


# ---------------------------------------------------------------------------
# BM25

@dataclass
class CorpusStats:
    num_docs: int
    doc_freq: Counter
    avgdl: float


def corpus_stats(docs: list[list[str]]) -> CorpusStats:
    if not docs:
        raise UsageError("empty corpus")
    df = Counter()
    for d in docs:
        for t in set(d):
            df[t] += 1
    avgdl = sum(len(d) for d in docs) / len(docs)
    return CorpusStats(len(docs), df, avgdl)


def bm25_idf(num_docs: int, doc_freq: int) -> float:
    # +1 inside the log keeps every score nonnegative, so top-k mining
    # never ranks on sign artifacts.
    return math.log(num_docs / (doc_freq + 0.5) + 1.0)


def bm25_score(query_tokens: list[str], doc_tokens: list[str], stats: CorpusStats,
               k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> float:
    if stats.num_docs <= 0:
        raise UsageError("empty corpus")
    tf = Counter(doc_tokens)
    dl = len(doc_tokens)
    norm = k1 * (1.0 - b + b * dl / stats.avgdl)
    score = 0.0
    for t in query_tokens:
        f = tf.get(t, 0)
        if f == 0:
            continue
        idf = bm25_idf(stats.num_docs, stats.doc_freq.get(t, 0))
        score += idf * f * (k1 + 1.0) / (f + norm)
    return score


# ---------------------------------------------------------------------------
# negatives

def build_negatives(kb: KnowledgeBase, per_positive: int = 1,
                    cap_per_point: int = 10,
                    k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> list[tuple[str, str, int]]:
    """Hard negatives: for each positive's query, the top BM25-scoring
    questions from other knowledge points.  Ties break by point_id, then
    candidate string."""
    if per_positive < 1:
        raise ConfigurationError(f"per_positive must be >= 1, got {per_positive}")
    if len(kb.points) < 2:
        raise UsageError("cannot mine negatives from a single knowledge point")
    corpus = kb.all_questions()
    docs = [text_tokens(q) for _, q in corpus]
    stats = corpus_stats(docs)
    point_of = {i: pid for i, (pid, _) in enumerate(corpus)}

    out = []
    used: dict[str, set[str]] = {}
    for query, _, _ in build_positives(kb, cap_per_point):
        q_tokens = text_tokens(query)
        q_point = next(pid for pid, q in corpus if q == query)
        ranked = sorted(
            ((bm25_score(q_tokens, docs[i], stats, k1, b), point_of[i], corpus[i][1])
             for i in range(len(corpus)) if point_of[i] != q_point),
            key=lambda t: (-t[0], t[1], t[2]))
        taken = used.setdefault(query, set())
        picked = 0
        for _, _, cand in ranked:
            if cand in taken:
                continue
            taken.add(cand)
            out.append((query, cand, 0))
            picked += 1
            if picked == per_positive:
                break
    return out


# ---------------------------------------------------------------------------
# splits

def _stable_hash(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


def assign_splits(pairs: LabeledPairs) -> None:
    """Deterministic stratified 8:1:1 split, exact to within one example
    per label stratum.  Examples are ordered by hash of their id inside
    each stratum, then sliced by position."""
    for label in (0, 1):
        stratum = [e for e in pairs.examples if e.label == label]
        stratum.sort(key=lambda e: (_stable_hash(e.id), e.id))
        n = len(stratum)
        for i, e in enumerate(stratum):
            bucket = (10 * i) // n
            e.split = "train" if bucket < 8 else ("val" if bucket == 8 else "test")


def build_dataset(kb: KnowledgeBase, negatives_per_positive: int = 1,
                  cap_per_point: int = 10) -> LabeledPairs:
    """Full cold-start pipeline: positives, BM25 negatives, 8:1:1 splits."""
    rows = build_positives(kb, cap_per_point) + build_negatives(
        kb, negatives_per_positive, cap_per_point)
    pairs = LabeledPairs([
        Example(f"{kb.tenant_id}-{i:06d}", q, c, y) for i, (q, c, y) in enumerate(rows)])
    assign_splits(pairs)
    return pairs


# ---------------------------------------------------------------------------
# synthetic multi-tenant corpus

_SURFACE_FORMS = 2


def _concept_tokens(prefix: str, idx: int) -> list[str]:
    return [f"{prefix}{idx}{chr(ord('a') + s)}" for s in range(_SURFACE_FORMS)]


def make_synthetic_tenants(num_tenants: int, points_per_tenant: int,
                           shared_structure_fraction: float, seed: int) -> list[KnowledgeBase]:
    """Generate tenant knowledge bases from templated token patterns.

    A knowledge point pairs two "concepts"; each concept has two surface
    forms (synonyms), and the point's questions vary the surface forms.
    Concepts are never reused across a tenant's points, so negatives share
    no content tokens with their query.  A configurable fraction of each
    tenant's points draws concepts from a pool shared by all tenants
    (cross-tenant transfer is learnable); the rest are tenant-unique.
    """
    if not 0.0 <= shared_structure_fraction <= 1.0:
        raise ConfigurationError("shared_structure_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    shared = [_concept_tokens("s", i) for i in range(2 * points_per_tenant)]
    out = []
    for t in range(num_tenants):
        unique = [_concept_tokens(f"t{t}u", i) for i in range(2 * points_per_tenant)]
        n_shared = round(shared_structure_fraction * points_per_tenant)
        shared_order = rng.permutation(len(shared))
        unique_order = rng.permutation(len(unique))
        points = []
        for j in range(points_per_tenant):
            if j < n_shared:
                ca, cb = shared[shared_order[2 * j]], shared[shared_order[2 * j + 1]]
            else:
                k = j - n_shared
                ca, cb = unique[unique_order[2 * k]], unique[unique_order[2 * k + 1]]
            questions = [f"how {ca[sa]} {cb[sb]}"
                         for sa, sb in [(0, 0), (1, 1), (0, 1), (1, 0)]]
            points.append(KnowledgePoint(f"t{t}p{j}", questions[0], questions[1:]))
        out.append(KnowledgeBase(f"tenant{t}", points))
    return out
