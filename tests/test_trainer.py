"""Training loop mechanics and the two-stage procedure on tiny problems."""

import math

import numpy as np
import pytest

from adapterdistill import trainer
from adapterdistill.backbone import Backbone, BackboneConfig
from adapterdistill.errors import ConfigurationError, UsageError
from adapterdistill.faq_data import build_dataset, make_synthetic_tenants
from adapterdistill.fusion import make_teacher_set
from adapterdistill.trainer import (ETA_GRID_DEFAULT, TrainConfig, _lr_at,
                                    evaluate_artifact, evaluate_predictions,
                                    predict_many, select_eta, train_baseline,
                                    train_stage1, train_stage2, train_tenant)

SMALL = BackboneConfig(vocab_size=1024, hidden_dim=16, num_layers=2,
                       num_heads=2, ffn_dim=32, max_seq_len=10)


@pytest.fixture(scope="module")
def tiny_data():
    kb = make_synthetic_tenants(1, 6, 0.0, seed=0)[0]
    return build_dataset(kb)


@pytest.fixture(scope="module")
def backbone():
    return Backbone(SMALL)


def tiny_config(**kw):
    base = dict(epochs=2, batch_size=8, bottleneck_dim=4, eta=1.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_epochs_validated(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(mode="lora")

    def test_empty_eta_grid_rejected_for_distillation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(eta=[], mode="adapter_distill")

    def test_default_grid_spans_e_powers(self):
        assert ETA_GRID_DEFAULT == [np.exp(-2), np.exp(-1), 1.0, np.e, np.e ** 2]


class TestSchedule:
    def test_warmup_then_decay(self):
        cfg = TrainConfig(learning_rate=1.0, warmup_frac=0.1)
        lrs = [_lr_at(s, 100, cfg) for s in range(100)]
        assert lrs[0] < lrs[9]
        assert max(lrs) == lrs[9] == 1.0
        assert lrs[-1] < lrs[50] < lrs[10]
        assert all(lr >= 0 for lr in lrs)


class TestStage1:
    def test_empty_data_rejected(self, backbone):
        with pytest.raises(UsageError):
            train_stage1([], backbone, tiny_config())

    def test_loss_decreases_and_stage_is_first(self, backbone, tiny_data):
        adapter, head, history = train_stage1(
            tiny_data.split_of("train"), backbone, tiny_config(epochs=4))
        assert adapter.stage == "first"
        assert history[-1]["ce_loss"] < history[0]["ce_loss"]

    def test_backbone_untouched(self, backbone, tiny_data):
        before = backbone.weights_hash()
        train_stage1(tiny_data.split_of("train"), backbone, tiny_config())
        assert backbone.weights_hash() == before


class TestStage2:
    def _first_stage(self, backbone, tiny_data):
        adapter, head, _ = train_stage1(tiny_data.split_of("train"), backbone,
                                        tiny_config())
        adapter.set_trainable(False)
        return adapter, head

    def test_needs_first_stage_student(self, backbone, tiny_data):
        adapter, head = self._first_stage(backbone, tiny_data)
        final = adapter.copy()
        final.promote()
        teachers = make_teacher_set([], adapter)
        with pytest.raises(UsageError):
            train_stage2(tiny_data.split_of("train"), backbone, final, teachers,
                         tiny_config(), eta=1.0, head=head)

    def test_negative_eta_rejected(self, backbone, tiny_data):
        adapter, head = self._first_stage(backbone, tiny_data)
        teachers = make_teacher_set([], adapter)
        with pytest.raises(ConfigurationError):
            train_stage2(tiny_data.split_of("train"), backbone, adapter, teachers,
                         tiny_config(), eta=-1.0, head=head)

    def test_result_is_final_and_tracks_both_losses(self, backbone, tiny_data):
        adapter, head = self._first_stage(backbone, tiny_data)
        teachers = make_teacher_set([], adapter)
        student, head2, history = train_stage2(
            tiny_data.split_of("train"), backbone, adapter, teachers,
            tiny_config(), eta=1.0, head=head)
        assert student.stage == "final"
        assert adapter.stage == "first"  # input untouched
        assert all("distill_loss" in row for row in history)
        assert history[0]["distill_loss"] > 0.0

    def test_one_backbone_forward_per_minibatch(self, backbone, tiny_data, monkeypatch):
        adapter, head = self._first_stage(backbone, tiny_data)
        teachers = make_teacher_set([], adapter)
        calls = []
        real = Backbone.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Backbone, "forward", counting)
        train = tiny_data.split_of("train")
        cfg = tiny_config(epochs=2)
        train_stage2(train, backbone, adapter, teachers, cfg, eta=1.0, head=head)
        assert len(calls) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)

    def test_trains_through_combined_loss(self, backbone, tiny_data, monkeypatch):
        adapter, head = self._first_stage(backbone, tiny_data)
        teachers = make_teacher_set([], adapter)
        parts = []
        real = trainer.combined_loss

        def spying(batch, *args, **kwargs):
            loss, ce, distill = real(batch, *args, **kwargs)
            parts.append((len(batch), ce, distill))
            return loss, ce, distill

        monkeypatch.setattr(trainer, "combined_loss", spying)
        train = tiny_data.split_of("train")
        cfg = tiny_config(epochs=1)
        _, _, history = train_stage2(train, backbone, adapter, teachers, cfg,
                                     eta=1.0, head=head)
        assert len(parts) == -(-len(train) // cfg.batch_size)
        assert history[0]["ce_loss"] == sum(n * ce for n, ce, _ in parts) / len(train)
        assert history[0]["distill_loss"] == sum(n * d for n, _, d in parts) / len(train)

    def test_teachers_unchanged_by_training(self, backbone, tiny_data):
        adapter, head = self._first_stage(backbone, tiny_data)
        teachers = make_teacher_set([], adapter)
        before = [p.data.copy() for a in teachers.adapters for p in a.params()]
        train_stage2(tiny_data.split_of("train"), backbone, adapter, teachers,
                     tiny_config(), eta=1.0, head=head)
        after = [p.data for a in teachers.adapters for p in a.params()]
        assert all((b == a).all() for b, a in zip(before, after))


class TestSelectEta:
    def test_single_point_grid_short_circuits(self, backbone, tiny_data):
        eta, trials, winner = select_eta([], [], backbone, None, None, tiny_config(),
                                         grid=[2.5])
        assert eta == 2.5 and trials == [] and winner is None

    def test_empty_grid_rejected(self, backbone):
        with pytest.raises(ConfigurationError):
            select_eta([], [], backbone, None, None, tiny_config(), grid=[])

    def test_needs_validation_data_for_real_search(self, backbone, tiny_data):
        adapter, head, _ = train_stage1(tiny_data.split_of("train"), backbone,
                                        tiny_config())
        adapter.set_trainable(False)
        teachers = make_teacher_set([], adapter)
        with pytest.raises(UsageError):
            select_eta(tiny_data.split_of("train"), [], backbone, adapter,
                       teachers, tiny_config(), grid=[0.5, 1.0])

    def test_returns_grid_member_with_trials(self, backbone, tiny_data):
        adapter, head, _ = train_stage1(tiny_data.split_of("train"), backbone,
                                        tiny_config())
        adapter.set_trainable(False)
        teachers = make_teacher_set([], adapter)
        grid = [0.5, 2.0]
        eta, trials, (student, _, history) = select_eta(
            tiny_data.split_of("train"), tiny_data.split_of("val"), backbone, adapter,
            teachers, tiny_config(), grid=grid, head=head)
        assert eta in grid
        assert [t[0] for t in trials] == grid
        assert student.stage == "final" and len(history) == tiny_config().epochs

    def test_train_tenant_keeps_the_winning_trial(self, backbone, tiny_data, monkeypatch):
        calls = []
        real = trainer.train_stage2

        def counting(*args, **kwargs):
            calls.append(args[5])
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_stage2", counting)
        train, val = tiny_data.split_of("train"), tiny_data.split_of("val")
        cfg = tiny_config(eta=[0.5, 2.0])
        art = train_tenant(train, val, backbone, cfg)
        assert calls == [0.5, 2.0]  # one run per grid point, no retraining

        first, head, _ = train_stage1(train, backbone, cfg)
        first.set_trainable(False)
        direct, _, _ = real(train, backbone, first, make_teacher_set([], first),
                            cfg, art.eta, head=head)
        assert all((p.data == q.data).all()
                   for p, q in zip(art.adapter.params(), direct.params()))


class TestModes:
    @pytest.mark.parametrize("mode", ["head", "adapter", "full", "adapter_fusion"])
    def test_baselines_produce_working_artifacts(self, backbone, tiny_data, mode):
        art = train_baseline(mode, tiny_data.split_of("train"), backbone,
                             tiny_config(mode=mode))
        assert art.mode == mode
        report = evaluate_artifact(backbone, art, tiny_data.split_of("test"))
        assert 0.0 <= report.accuracy <= 1.0

    def test_adapter_fusion_keeps_fusion_layer(self, backbone, tiny_data):
        art = train_baseline("adapter_fusion", tiny_data.split_of("train"),
                             backbone, tiny_config(mode="adapter_fusion"))
        assert art.omega is not None and art.fusion_members

    def test_full_mode_uses_private_backbone(self, backbone, tiny_data):
        art = train_baseline("full", tiny_data.split_of("train"), backbone,
                             tiny_config(mode="full"))
        assert art.backbone is not None
        assert art.backbone.weights_hash() != backbone.weights_hash()

    def test_distill_without_teachers_succeeds_self_only(self, backbone, tiny_data):
        art = train_tenant(tiny_data.split_of("train"), tiny_data.split_of("val"),
                           backbone, tiny_config(mode="adapter_distill"))
        assert art.adapter.stage == "final"
        assert art.omega is None  # fusion weights discarded after training

    def test_star_variant_excludes_self(self, backbone, tiny_data):
        # With no prior tenants and no self-teacher the distillation term
        # vanishes; the run must still complete and produce a final adapter.
        art = train_tenant(tiny_data.split_of("train"), tiny_data.split_of("val"),
                           backbone, tiny_config(mode="adapter_distill_star"))
        assert art.adapter.stage == "final"

    def test_determinism_across_runs(self, backbone, tiny_data):
        cfg = tiny_config(mode="adapter_distill")
        a = train_tenant(tiny_data.split_of("train"), [], backbone, cfg)
        b = train_tenant(tiny_data.split_of("train"), [], backbone, cfg)
        assert all((p.data == q.data).all()
                   for p, q in zip(a.adapter.params(), b.adapter.params()))


class TestEvaluate:
    def test_single_class_auc_is_none(self):
        report = evaluate_predictions([0.9, 0.8], [1, 1])
        assert report.auc is None and report.accuracy == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            evaluate_predictions([], [])

    @pytest.mark.parametrize("mode", ["adapter", "adapter_fusion"])
    def test_predict_many_equals_one_pair_predictions(self, backbone, tiny_data,
                                                      monkeypatch, mode):
        from adapterdistill.backbone import real_length
        from adapterdistill.faq_data import Example
        art = train_baseline(mode, tiny_data.split_of("train"), backbone,
                             tiny_config(mode=mode))
        rng = np.random.default_rng(4)
        examples = [Example(f"e{i}", " ".join(f"q{w}" for w in rng.integers(0, 50, n)),
                            "how c1 c2", i % 2)
                    for i, n in enumerate(rng.integers(1, 9, size=40))]
        encoded = trainer.encode_examples(examples, backbone.config)
        assert len({real_length(mask) for _, mask, _ in encoded}) > 3  # ragged chunks
        monkeypatch.setattr(trainer, "EVAL_BATCH", 16)  # several chunks, one short
        batched = predict_many(backbone, art, examples)
        single = [trainer.predict_prob(backbone, art, ids, mask) for ids, mask, _ in encoded]
        assert len(batched) == len(examples)
        assert np.abs(np.array(batched) - np.array(single)).max() <= 1e-12

    def test_predict_many_matches_artifact_evaluation(self, backbone, tiny_data):
        art = train_baseline("adapter", tiny_data.split_of("train"), backbone,
                             tiny_config(mode="adapter"))
        test = tiny_data.split_of("test")
        probs = predict_many(backbone, art, test)
        report = evaluate_artifact(backbone, art, test)
        assert evaluate_predictions(probs, [e.label for e in test]).accuracy \
            == report.accuracy
