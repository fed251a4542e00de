"""Reproduction suite: one callable check per headline claim.

Each criterion function returns a CriterionResult; `run_all` executes the
full battery (used by the `reproduce` CLI command and the acceptance
tests).  Expected values that can be recomputed independently are checked
against brute-force oracles defined in this module; published table values
are hard numbers.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapter import added_params_fraction, init_adapter
from .backbone import Backbone, BackboneConfig, new_head, tokenize_pair
from .bench import cost_report, inference_flops
from .errors import IntegrityError
from .faq_data import (bm25_score, build_dataset, corpus_stats,
                       make_synthetic_tenants, text_tokens)
from .fusion import (combined_loss, distill_loss, fusion_attend, init_fusion,
                     make_teacher_set)
from .metrics import auc as rank_auc
from .platform import Platform, StorageModel, capacity_table
from .tensor import Tensor, grad_check
from .trainer import TrainConfig, evaluate_artifact, train_tenant

# Published capacity table: six storage sizes, three serving strategies.
CAPACITY_SPACES_MB = [500.0, 1024.0, 5 * 1024.0, 10 * 1024.0, 50 * 1024.0, 100 * 1024.0]
CAPACITY_FULL = [1, 2, 13, 26, 130, 261]
CAPACITY_FUSION = [0, 6, 53, 111, 578, 1161]
CAPACITY_DISTILL = [18, 109, 815, 1698, 8760, 17587]

PRODUCTION_SCALE = dict(vocab_size=21128, hidden_dim=768, num_layers=12,
                        num_heads=12, ffn_dim=3072, max_seq_len=512, seed=0)
PUBLISHED_ADDED_PARAMS_PCT = 1.45


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str = ""
    seconds: float = 0.0


def _result(name: str, started: float, passed: bool, details: str) -> CriterionResult:
    return CriterionResult(name, passed, details, time.time() - started)


# ---------------------------------------------------------------------------
# independent oracles

def fusion_attend_oracle(h: np.ndarray, zs: list[np.ndarray], q_mat, k_mat, v_mat):
    """Scalar-arithmetic evaluation of the fusion attention equations."""
    tlen, d = h.shape
    n = len(zs)
    o = np.zeros((tlen, d))
    p = np.zeros((tlen, n))
    for t in range(tlen):
        query = np.array([sum(h[t, i] * q_mat[i, j] for i in range(d)) for j in range(d)])
        keys = [np.array([sum(z[t, i] * k_mat[i, j] for i in range(d)) for j in range(d)])
                for z in zs]
        vals = [np.array([sum(z[t, i] * v_mat[i, j] for i in range(d)) for j in range(d)])
                for z in zs]
        logits = np.array([sum(query[j] * keys[m][j] for j in range(d)) for m in range(n)])
        e = np.exp(logits - logits.max())
        p[t] = e / e.sum()
        for j in range(d):
            o[t, j] = sum(p[t, m] * vals[m][j] for m in range(n))
    return o, p


def distill_loss_oracle(o_layers, z_layers, mask) -> float:
    """Double-loop mean of squared differences over unmasked positions."""
    total = 0.0
    L = len(o_layers)
    d = o_layers[0].shape[1]
    n_tok = int(mask.sum())
    for o, z in zip(o_layers, z_layers):
        for t in range(o.shape[0]):
            if mask[t] == 0:
                continue
            for j in range(d):
                total += (o[t, j] - z[t, j]) ** 2
    return total / (L * n_tok * d)


def bm25_oracle(query: str, doc: str, corpus: list[str], k1=1.2, b=0.75) -> float:
    """From-scratch evaluation of the scoring formula."""
    docs = [text_tokens(c) for c in corpus]
    n_docs = len(docs)
    avgdl = sum(len(x) for x in docs) / n_docs
    doc_toks = text_tokens(doc)
    dl = len(doc_toks)
    score = 0.0
    for term in text_tokens(query):
        f = doc_toks.count(term)
        if f == 0:
            continue
        n_q = sum(1 for x in docs if term in x)
        idf = math.log(n_docs / (n_q + 0.5) + 1.0)
        score += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * dl / avgdl))
    return score


def auc_pairwise_oracle(probs, labels) -> float:
    """O(n^2) pairwise count: wins + half ties over positive-negative pairs."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    wins = 0.0
    for a in pos:
        for bb in neg:
            if a > bb:
                wins += 1.0
            elif a == bb:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# criteria

def c01_capacity_table() -> CriterionResult:
    t0 = time.time()
    rows = capacity_table(StorageModel(), CAPACITY_SPACES_MB)
    full = [r[1] for r in rows]
    fus = [r[2] for r in rows]
    dis = [r[3] for r in rows]
    ok = (full == CAPACITY_FULL and dis == CAPACITY_DISTILL
          and all(abs(a - b) <= 1 for a, b in zip(fus, CAPACITY_FUSION))
          and time.time() - t0 < 1.0)
    return _result("capacity-table", t0, ok,
                   f"full={full} fusion={fus} distill={dis}")


def c02_params_fraction() -> CriterionResult:
    t0 = time.time()
    desk = BackboneConfig()
    a = init_adapter("a", desk, 8, trainable=False)
    d = a.copy()
    d.promote()  # a distilled artifact: same dims, different stage/values
    f_adapter = added_params_fraction(a, desk)
    f_distill = added_params_fraction(d, desk)
    f_fusion = added_params_fraction(a, desk, include_fusion=True)
    prod = BackboneConfig(**PRODUCTION_SCALE)
    hits = [m for m in range(1, prod.hidden_dim)
            if abs(added_params_fraction(None, prod, bottleneck_dim=m)
                   - PUBLISHED_ADDED_PARAMS_PCT) <= 0.1]
    ok = (f_adapter == f_distill and f_fusion > f_adapter and len(hits) > 0)
    return _result("params-fraction", t0, ok,
                   f"adapter={f_adapter:.4f}% fusion={f_fusion:.4f}% production-scale m hits={hits}")


def _stage2_setup(seq_len=8, n_teachers=3, seed=0):
    cfg = BackboneConfig(max_seq_len=seq_len)
    bb = Backbone(cfg)
    rng = np.random.default_rng(seed)
    student = init_adapter("s", cfg, 8, seed=seed + 1)
    for layer in student.layers:  # nonzero up-projections: nontrivial gradients
        layer.up.data[:] = rng.normal(0, 0.05, layer.up.data.shape)
    head = new_head(cfg.hidden_dim, rng)
    finals = []
    for i in range(n_teachers - 1):
        a = init_adapter(f"t{i}", cfg, 8, seed=seed + 10 + i, trainable=False)
        for layer in a.layers:
            layer.up.data[:] = rng.normal(0, 0.05, layer.up.data.shape)
        a.stage = "final"
        finals.append(a)
    self_first = student.copy(stage="first")
    self_first.set_trainable(False)
    teachers = make_teacher_set(finals, self_first)
    omega = init_fusion(cfg.hidden_dim, cfg.num_layers, seed=seed)
    ids, mask = tokenize_pair("alpha beta gamma", "delta beta", seq_len, cfg.vocab_size)
    return bb, student, head, teachers, omega, [(ids, mask, 1)]


def c03_gradient_correctness(tolerance: float = 1e-4) -> CriterionResult:
    t0 = time.time()
    bb, student, head, teachers, omega, batch = _stage2_setup()

    def f():
        loss, _, _ = combined_loss(batch, bb, student, head, teachers, omega, eta=1.0)
        return loss

    params = student.params() + omega.params() + head.params()
    err = grad_check(f, params, step=1e-5)
    elapsed = time.time() - t0
    ok = err <= tolerance and elapsed < 300.0
    return _result("gradient-correctness", t0, ok,
                   f"max rel err {err:.3e} over {sum(p.size for p in params)} params, {elapsed:.0f}s")


def c04_fusion_attention_oracle() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    row_dev = 0.0
    for _ in range(20):
        tlen = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        h = rng.normal(size=(tlen, d))
        zs = [rng.normal(size=(tlen, d)) for _ in range(n)]
        q_mat, k_mat, v_mat = (rng.normal(size=(d, d)) for _ in range(3))
        o, p = fusion_attend(Tensor(h), Tensor(np.stack(zs)),
                             (Tensor(q_mat), Tensor(k_mat), Tensor(v_mat)))
        o_ref, p_ref = fusion_attend_oracle(h, zs, q_mat, k_mat, v_mat)
        worst = max(worst, float(np.abs(o.data - o_ref).max()),
                    float(np.abs(p.data - p_ref).max()))
        row_dev = max(row_dev, float(np.abs(p.data.sum(axis=1) - 1.0).max()))
    ok = worst <= 1e-12 and row_dev <= 1e-9
    return _result("fusion-attention-oracle", t0, ok,
                   f"max |impl-oracle| {worst:.2e}, row-sum dev {row_dev:.2e}")


def c05_distill_identity() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(3)
    d, tlen, L = 4, 3, 2
    # identity case: V = I, two identical teacher outputs
    z_star = [rng.normal(size=(tlen, d)) for _ in range(L)]
    omega_layer = (Tensor(rng.normal(size=(d, d))), Tensor(rng.normal(size=(d, d))),
                   Tensor(np.eye(d)))
    o_layers = []
    for z in z_star:
        o, _ = fusion_attend(Tensor(rng.normal(size=(tlen, d))),
                             Tensor(np.stack([z, z])), omega_layer)
        o_layers.append(o)
    mask = np.ones(tlen)
    identity_loss = distill_loss(o_layers, [Tensor(z) for z in z_star], mask).item()
    # random case vs the double-loop oracle
    o_rand = [rng.normal(size=(tlen, d)) for _ in range(L)]
    z_rand = [rng.normal(size=(tlen, d)) for _ in range(L)]
    mask2 = np.array([1.0, 1.0, 0.0])
    impl = distill_loss([Tensor(o) for o in o_rand], [Tensor(z) for z in z_rand], mask2).item()
    ref = distill_loss_oracle(o_rand, z_rand, mask2)
    ok = identity_loss == 0.0 and abs(impl - ref) <= 1e-12
    return _result("distill-identity", t0, ok,
                   f"identity loss {identity_loss!r}, |impl-oracle| {abs(impl - ref):.2e}")


def _small_platform_config():
    return BackboneConfig(vocab_size=2048, hidden_dim=32, num_layers=2,
                          num_heads=2, ffn_dim=64, max_seq_len=12, seed=5)


def _small_train_config(seed=0, mode="adapter_distill"):
    return TrainConfig(epochs=2, learning_rate=0.5, batch_size=8, eta=1.0,
                       seed=seed, mode=mode, bottleneck_dim=4)


def c06_non_destructiveness(workdir=None) -> CriterionResult:
    t0 = time.time()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        plat = Platform(tmp, _small_platform_config())
        kbs = make_synthetic_tenants(5, 6, 0.5, seed=11)
        reports = {}
        snapshots = []
        for i, kb in enumerate(kbs):
            snapshots.append(plat.hash_snapshot())
            _, rep = plat.register_tenant(f"tenant{i}", kb, "adapter_distill",
                                         _small_train_config(seed=i))
            reports[f"tenant{i}"] = rep
            after = plat.hash_snapshot()
            if not snapshots[-1].issubset(after):
                return _result("non-destructiveness", t0, False,
                               f"prior hashes changed at registration {i}")
        re_eval = plat.evaluate_tenant("tenant0")
        first = reports["tenant0"]
        ok = (re_eval.accuracy == first.accuracy and re_eval.auc == first.auc)
        return _result("non-destructiveness", t0, ok,
                       f"tenant0 acc {first.accuracy} re-run {re_eval.accuracy}")


def c07_inference_path(repetitions: int = 100) -> CriterionResult:
    t0 = time.time()
    cfg = BackboneConfig(max_seq_len=16)
    fa = inference_flops(cfg, 16, "adapter")
    fd = inference_flops(cfg, 16, "adapter_distill")
    exact = fd == fa
    # fusion overhead strictly greater and exactly linear in member count
    f1 = inference_flops(cfg, 16, "adapter_fusion", n_members=1)
    f2 = inference_flops(cfg, 16, "adapter_fusion", n_members=2)
    slope = f2 - f1
    linear = f1 > fa and all(
        inference_flops(cfg, 16, "adapter_fusion", n_members=n) == f1 + (n - 1) * slope
        for n in (3, 4, 8))
    rep = cost_report(cfg, [10, 20, 30], repetitions=repetitions, seq_len=16)
    ordering = True
    ratio_ok = True
    for bs in (10, 20, 30):
        ad = rep.median("adapter", bs)
        di = rep.median("adapter_distill", bs)
        fu = rep.median("adapter_fusion", bs)
        ordering = ordering and fu > ad and fu > di
        ratio_ok = ratio_ok and 0.5 <= di / ad <= 2.0
    ok = exact and linear and ordering and ratio_ok
    return _result("inference-path", t0, ok,
                   f"flops adapter={fa} distill={fd} fusion@4={inference_flops(cfg, 16, 'adapter_fusion', n_members=4)}; "
                   f"ordering_ok={ordering} distill~adapter_ok={ratio_ok}")


def _subsample(examples, frac, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    return [examples[i] for i in order[: max(1, int(frac * len(examples)))]]


def c08_end_to_end_trend(seeds=(0, 1, 2, 3, 4), progress=None) -> CriterionResult:
    """Synthetic 9-teacher + 1-student suite over several training seeds.

    Teachers are the platform's fixed existing tenants (trained once); only
    the student's training seed varies.  The student is data-starved so the
    teachers have something to add.
    """
    t0 = time.time()
    kbs = make_synthetic_tenants(10, 90, 0.5, seed=0)
    datasets = [build_dataset(kb) for kb in kbs]
    cfg = BackboneConfig(max_seq_len=16)
    bb = Backbone(cfg)
    teacher_finals = []
    for i in range(9):
        tr = _subsample(datasets[i].split_of("train"), 0.3, 1000 + i)
        art = train_tenant(tr, [], bb,
                           TrainConfig(epochs=8, mode="adapter", eta=1.0, seed=7))
        if art.adapter.stage == "first":
            art.adapter.promote()
        teacher_finals.append(art.adapter)
        if progress:
            progress(f"teacher {i} trained")
    student = datasets[9]
    train_small = _subsample(student.split_of("train"), 0.10, 42)
    val, test = student.split_of("val"), student.split_of("test")
    acc = {"adapter": [], "adapter_distill": [], "adapter_distill_star": []}
    for seed in seeds:
        for mode in acc:
            c = TrainConfig(epochs=8, mode=mode, eta=1.0, seed=seed)
            art = train_tenant(train_small, val, bb, c, teacher_finals=teacher_finals)
            rep = evaluate_artifact(bb, art, test)
            acc[mode].append(rep.accuracy * 100.0)
        if progress:
            progress(f"seed {seed}: " + " ".join(f"{m}={acc[m][-1]:.1f}" for m in acc))
    mean = {m: float(np.mean(v)) for m, v in acc.items()}
    wins = sum(1 for a, d in zip(acc["adapter"], acc["adapter_distill"]) if d >= a)
    ok = (mean["adapter_distill"] >= mean["adapter"] - 0.5
          and wins >= 3
          and abs(mean["adapter_distill_star"] - mean["adapter_distill"]) <= 2.0
          and time.time() - t0 < 1800.0)
    return _result("end-to-end-trend", t0, ok,
                   f"mean acc adapter={mean['adapter']:.2f} distill={mean['adapter_distill']:.2f} "
                   f"no-self={mean['adapter_distill_star']:.2f}, distill>=adapter on {wins}/5 seeds")


def c09_bm25_and_metric_oracles() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(30)]
    worst = 0.0
    for _ in range(10):
        n_docs = int(rng.integers(2, 100))
        corpus = [" ".join(rng.choice(vocab, size=rng.integers(2, 9)))
                  for _ in range(n_docs)]
        stats = corpus_stats([text_tokens(c) for c in corpus])
        query = " ".join(rng.choice(vocab, size=3))
        for doc in corpus[:10]:
            got = bm25_score(text_tokens(query), text_tokens(doc), stats)
            ref = bm25_oracle(query, doc, corpus)
            worst = max(worst, abs(got - ref))
    single = bm25_score(["x"], ["x"], corpus_stats([["x"]]))
    hand = math.log(5.0 / 3.0)
    auc_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        probs = np.round(rng.random(n), 2)  # coarse grid forces ties
        auc_worst = max(auc_worst, abs(rank_auc(probs, labels)
                                       - auc_pairwise_oracle(probs, labels)))
    pairs = build_dataset(make_synthetic_tenants(1, 30, 0.0, seed=2)[0])
    split_ok = True
    for label in (0, 1):
        sizes = {s: sum(1 for e in pairs.examples if e.label == label and e.split == s)
                 for s in ("train", "val", "test")}
        n = sum(sizes.values())
        for s, w in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            if abs(sizes[s] - w * n) > 1.0:
                split_ok = False
    ok = worst <= 1e-12 and abs(single - hand) <= 1e-12 and auc_worst == 0.0 and split_ok
    return _result("bm25-and-metric-oracles", t0, ok,
                   f"bm25 dev {worst:.2e}, single-doc {single:.6f} vs ln(5/3)={hand:.6f}, "
                   f"auc dev {auc_worst:.2e}, splits_ok={split_ok}")


def c10_persistence(workdir=None) -> CriterionResult:
    t0 = time.time()
    from .artifacts import load_adapter, save_adapter
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        cfg = _small_platform_config()
        rng = np.random.default_rng(0)
        w = init_adapter("roundtrip", cfg, 4, seed=1, trainable=False)
        for layer in w.layers:
            layer.up.data[:] = rng.normal(size=layer.up.data.shape)
        path = tmp / "a.bin"
        save_adapter(w, path)
        w2 = load_adapter(path)
        bit_exact = all((p.data == q.data).all() for p, q in zip(w.params(), w2.params()))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp / "corrupt.bin").write_bytes(bytes(blob))
        try:
            load_adapter(tmp / "corrupt.bin")
            corrupt_rejected = False
        except IntegrityError:
            corrupt_rejected = True
        plat = Platform(tmp / "plat", cfg)
        kbs = make_synthetic_tenants(2, 6, 0.5, seed=3)
        plat.register_tenant("alpha", kbs[0], "adapter", _small_train_config(mode="adapter"))
        probe = [("how s1a s2a", "how s1b s2b"), ("how s3a s4a", "how s5b s6b")]
        before = [plat.route("alpha", q, c) for q, c in probe]
        plat2 = Platform(tmp / "plat")  # reload registry from disk
        after = [plat2.route("alpha", q, c) for q, c in probe]
        reload_ok = before == after
        ok = bit_exact and corrupt_rejected and reload_ok
        return _result("persistence-round-trips", t0, ok,
                       f"bit_exact={bit_exact} corrupt_rejected={corrupt_rejected} reload_ok={reload_ok}")


ALL_CRITERIA = [
    ("1", c01_capacity_table, False),
    ("2", c02_params_fraction, False),
    ("3", c03_gradient_correctness, True),
    ("4", c04_fusion_attention_oracle, False),
    ("5", c05_distill_identity, False),
    ("6", c06_non_destructiveness, True),
    ("7", c07_inference_path, True),
    ("8", c08_end_to_end_trend, True),
    ("9", c09_bm25_and_metric_oracles, False),
    ("10", c10_persistence, False),
]


def run_all(skip_slow: bool = False, progress=None) -> list[CriterionResult]:
    results = []
    for num, fn, slow in ALL_CRITERIA:
        if skip_slow and slow:
            continue
        res = fn()
        if progress:
            progress(f"[{'PASS' if res.passed else 'FAIL'}] criterion {num}: "
                     f"{res.name} ({res.seconds:.1f}s) {res.details}")
        results.append(res)
    return results
