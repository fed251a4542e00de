"""Seeded benchmark inputs: knowledge bases, tenant population, request stream.

Every input is a pure function of the workload seed.  Each input family
draws from its own child of one `SeedSequence`, so adding a family never
shifts the others.  Questions are short (4 to 8 words), so a routed
pair never reaches the encoder's 32-token limit.

The tenant mix, the question lengths and the knowledge-base sizes are
unverified assumptions, not measured traffic; README.md ("Assumptions in
the inputs") says why each value was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adapterdistill import KnowledgeBase, KnowledgePoint

PREFIXES = ("how", "how do i", "why does", "can i", "where is", "what is")
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

# Serving population, in registration order.  The distill tenant learns
# from the adapter tenant; the fusion tenant keeps a 3-member fusion layer
# over both earlier adapters and its own.
POPULATION = (("t0", "adapter"), ("t1", "adapter_distill"), ("t2", "adapter_fusion"))
POINTS_PER_TENANT = 3
QUESTIONS_PER_POINT = 4
STREAM_PER_TENANT = 40
VOCAB_SIZE = 400
REGISTER_TENANT = "newcomer"


@dataclass(frozen=True)
class Inputs:
    tenant_kbs: dict[str, KnowledgeBase]
    stream: list[tuple[str, str, str]]
    register_kb: KnowledgeBase


def make_vocab(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct pronounceable pseudo-words of 2-3 syllables."""
    out: set[str] = set()
    while len(out) < n:
        syl = rng.integers(2, 4)
        out.add("".join(CONSONANTS[rng.integers(len(CONSONANTS))]
                        + VOWELS[rng.integers(len(VOWELS))] for _ in range(syl)))
    return sorted(out)


def make_kb(rng: np.random.Generator, tenant_id: str, n_points: int,
            n_questions: int) -> KnowledgeBase:
    """A knowledge base whose points share template and filler words.

    Each point owns three topic words; every question holds two of them, a
    template prefix and 1-3 filler words drawn Zipf-like from a vocabulary
    shared by all points.  Shared words give BM25 real scores to rank and
    ties to break.  All questions of the base are distinct.
    """
    vocab = make_vocab(rng, VOCAB_SIZE)
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    seen: set[str] = set()
    points = []
    for j in range(n_points):
        topic = [vocab[i] for i in rng.choice(len(vocab), 3, replace=False)]
        questions: list[str] = []
        while len(questions) < n_questions:
            words = [topic[i] for i in rng.choice(3, 2, replace=False)]
            words += [vocab[i] for i in rng.choice(len(vocab), rng.integers(1, 4), p=weights)]
            rng.shuffle(words)
            q = " ".join([PREFIXES[rng.integers(len(PREFIXES))]] + words)
            if q not in seen:
                seen.add(q)
                questions.append(q)
        points.append(KnowledgePoint(f"{tenant_id}-p{j:03d}", questions[0], questions[1:]))
    return KnowledgeBase(tenant_id, points)


def make_stream(rng: np.random.Generator, kbs: dict[str, KnowledgeBase],
                per_tenant: int) -> list[tuple[str, str, str]]:
    """Round-robin (tenant, query, candidate) requests.

    A query is one of the tenant's questions, sometimes with one filler
    word dropped; the candidate is a standard question of one of the
    tenant's points, so about a third of the pairs match.
    """
    names = list(kbs)
    out = []
    for _ in range(per_tenant):
        for name in names:
            kb = kbs[name]
            questions = [q for _, q in kb.all_questions()]
            query = questions[rng.integers(len(questions))]
            words = query.split()
            if len(words) > 4 and rng.random() < 0.3:
                del words[rng.integers(1, len(words))]
                query = " ".join(words)
            candidate = kb.points[rng.integers(len(kb.points))].standard_question
            out.append((name, query, candidate))
    return out


def make_inputs(seed: int) -> Inputs:
    kb_seq, stream_seq, reg_seq = np.random.SeedSequence(seed).spawn(3)
    kb_rngs = [np.random.default_rng(s) for s in kb_seq.spawn(len(POPULATION))]
    kbs = {name: make_kb(rng, name, POINTS_PER_TENANT, QUESTIONS_PER_POINT)
           for (name, _), rng in zip(POPULATION, kb_rngs)}
    return Inputs(
        tenant_kbs=kbs,
        stream=make_stream(np.random.default_rng(stream_seq), kbs, STREAM_PER_TENANT),
        register_kb=make_kb(np.random.default_rng(reg_seq), REGISTER_TENANT,
                            POINTS_PER_TENANT, QUESTIONS_PER_POINT),
    )
