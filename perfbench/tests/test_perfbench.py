"""The benchmark's own checks reject wrong answers; its inputs are seeded."""

import math
import shutil

import numpy as np
import pytest

import adapterdistill.backbone as backbone_mod
import adapterdistill.faq_data as faq_mod
from adapterdistill import Platform, TrainConfig, build_dataset

from perfbench import checks, inputs, reference, workloads
from perfbench.trace import TraceError, Tracer


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """An adapter tenant and a 2-member fusion tenant, trained for one epoch."""
    root = tmp_path_factory.mktemp("platform")
    ins = inputs.make_inputs(7)
    platform = Platform(root)
    for name, mode in (("t0", "adapter"), ("t2", "adapter_fusion")):
        platform.register_tenant(name, ins.tenant_kbs[name], mode, TrainConfig(epochs=1))
    return root, ins


def _stream(ins):
    return [key for key in ins.stream if key[0] in ("t0", "t2")][:6]


def test_same_seed_same_inputs():
    assert inputs.make_inputs(3) == inputs.make_inputs(3)
    assert inputs.make_inputs(3) != inputs.make_inputs(4)


def test_routed_pairs_fit_the_encoder():
    ins = inputs.make_inputs(5)
    for _, q, c in ins.stream:
        reference.encode_pair(q, c, 32, 8192)
    for kb in list(ins.tenant_kbs.values()) + [ins.register_kb]:
        longest = max(kb.all_questions(), key=lambda pq: len(pq[1].split()))[1]
        reference.encode_pair(longest, longest, 32, 8192)


def test_reference_accepts_routed_and_rejects_perturbed(population):
    root, ins = population
    platform, ref = Platform(root), reference.ReferenceModel(root)
    keys = _stream(ins)
    routed = {key: platform.route(*key) for key in keys}
    expected = {key: ref.prob(*key) for key in keys}
    assert checks.probs_match_reference(routed, expected) == []
    bad = dict(routed)
    bad[keys[0]] += 1e-8
    assert len(checks.probs_match_reference(bad, expected)) == 1


def test_bit_identity_rejects_last_bit():
    served = {("t0", "q", "c"): 0.25}
    assert checks.bit_identical(served, {("t0", "q", "c"): 0.25}) == []
    assert checks.bit_identical(served, {("t0", "q", "c"): float(np.nextafter(0.25, 1))})


def test_accuracy_must_match_routed_probabilities():
    probs, labels = [0.9, 0.2, 0.5, 0.4], [1, 0, 1, 1]
    assert checks.accuracy_matches(0.75, probs, labels) == []
    assert checks.accuracy_matches(0.5, probs, labels)


def test_snapshot_sees_a_changed_prior_file(population, tmp_path):
    root, _ = population
    work = tmp_path / "copy"
    shutil.copytree(root, work)
    before = checks.snapshot(work, ["t0", "t2"])
    assert checks.prior_unchanged(before, checks.snapshot(work, ["t0", "t2"])) == []
    head = work / "tenants" / "t0" / "head.bin"
    blob = bytearray(head.read_bytes())
    blob[10] ^= 1
    head.write_bytes(bytes(blob))
    assert checks.prior_unchanged(before, checks.snapshot(work, ["t0", "t2"]))


def test_file_sizes_follow_the_layout(population, tmp_path):
    root, _ = population
    tdir = tmp_path / "t0"
    shutil.copytree(root / "tenants" / "t0", tdir)
    assert checks.distill_files_sized(tdir, "t0", 4, 64, 8) == []
    assert checks.distill_files_sized(tdir, "t0", 4, 64, 7)
    shutil.copy(tdir / "adapter.bin", tdir / "member_000.bin")
    assert checks.distill_files_sized(tdir, "t0", 4, 64, 8)


def test_eta_must_be_a_grid_value(tmp_path):
    report = tmp_path / "report.txt"
    report.write_text(f"tenant=x\neta={math.e}\n")
    assert checks.eta_in_grid(report) == []
    report.write_text("tenant=x\neta=0.5\n")
    assert checks.eta_in_grid(report)
    report.write_text("tenant=x\n")
    assert checks.eta_in_grid(report)


@pytest.fixture(scope="module")
def dataset():
    kb = inputs.make_kb(np.random.default_rng(11), "kb", 12, 4)
    rows = [(e.id, e.query, e.candidate, e.label, e.split) for e in build_dataset(kb).examples]
    queries = sorted({q for _, q, _, y, _ in rows if y == 0})
    return kb, rows, queries


def test_dataset_accepted(dataset):
    kb, rows, queries = dataset
    assert checks.dataset_valid(kb, rows, queries) == []


def test_moved_split_boundary_rejected(dataset):
    kb, rows, queries = dataset
    moved, n = [], 0
    for r in rows:
        if r[3] == 1 and r[4] == "train" and n < 2:
            r, n = r[:4] + ("test",), n + 1
        moved.append(r)
    assert any("test" in p for p in checks.dataset_valid(kb, moved, queries))


def test_swapped_negative_rejected(dataset):
    kb, rows, queries = dataset
    i = next(i for i, r in enumerate(rows) if r[3] == 0)
    q = rows[i][1]
    second = reference.bm25_ranking(q, kb.all_questions(), next(
        p.point_id for p in kb.points if q in p.questions()))[5]
    swapped = list(rows)
    swapped[i] = rows[i][:2] + (second,) + rows[i][3:]
    assert any("brute-force" in p for p in checks.dataset_valid(kb, swapped, [q]))


def test_cross_point_positive_and_within_point_negative_rejected(dataset):
    kb, rows, queries = dataset
    i = next(i for i, r in enumerate(rows) if r[3] == 1)
    j = next(i for i, r in enumerate(rows) if r[3] == 0)
    bad = list(rows)
    bad[i] = rows[i][:3] + (0,) + rows[i][4:]
    bad[j] = rows[j][:3] + (1,) + rows[j][4:]
    problems = checks.dataset_valid(kb, bad, [])
    assert any("lies within one point" in p for p in problems)
    assert any("spans two points" in p for p in problems)


def test_tracer_records_spans_and_restores(population):
    root, ins = population
    platform = Platform(root)
    original = Platform.route
    tracer = Tracer()
    tracer.install()
    try:
        for key in _stream(ins):
            platform.route(*key)
    finally:
        tracer.uninstall()
    assert Platform.route is original
    metrics = tracer.layer_metrics(len(_stream(ins)))
    assert metrics["backbone.forward.calls"][0] == 1.0
    assert metrics["trainer.predict.calls"][0] == 1.0
    assert metrics["platform.cache.misses"][0] > 0
    assert metrics["platform.miss.bytes_read"][0] >= metrics["platform.miss.artifact_bytes"][0] > 0
    assert metrics["backbone.tokens.padded"][0] == 32.0


def test_install_fails_when_a_traced_function_is_gone(monkeypatch):
    original = faq_mod.build_dataset
    monkeypatch.delattr(faq_mod, "build_negatives")
    with pytest.raises(TraceError, match="build_negatives"):
        Tracer().install()
    assert faq_mod.build_dataset is original


def test_install_wraps_an_alias_and_refuses_a_hidden_reference(monkeypatch):
    original = faq_mod.build_negatives
    monkeypatch.setattr(backbone_mod, "mine", original, raising=False)
    tracer = Tracer()
    tracer.install()
    try:
        assert backbone_mod.mine is faq_mod.build_negatives is not original
    finally:
        tracer.uninstall()
    assert backbone_mod.mine is faq_mod.build_negatives is original
    monkeypatch.setattr(backbone_mod, "miners", {"bm25": original}, raising=False)
    with pytest.raises(TraceError, match="adapterdistill.backbone.miners"):
        Tracer().install()
    assert faq_mod.build_negatives is original


def test_tail_quantile_keeps_ten_samples_beyond():
    q, _ = workloads.tail_quantile(list(range(200)))
    assert q == pytest.approx(0.95)
    q, _ = workloads.tail_quantile(list(range(5000)))
    assert q == 0.99
