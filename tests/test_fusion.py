"""Fusion attention and the distillation loss, against scalar oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adapterdistill.acceptance import distill_loss_oracle, fusion_attend_oracle
from adapterdistill.adapter import init_adapter
from adapterdistill.backbone import (CLS_ID, NUM_RESERVED, PAD_ID, Backbone,
                                     BackboneConfig, new_head, tokenize_pair)
from adapterdistill.errors import ConfigurationError, UsageError
from adapterdistill.fusion import (TeacherSet, combined_loss,
                                   distill_example_forward, distill_loss,
                                   fusion_attend, init_fusion, make_adapter_hook,
                                   make_teacher_set)
from adapterdistill.tensor import Tensor, backward, grad_check
from adapterdistill.trainer import _ce_loss

SMALL = BackboneConfig(vocab_size=512, hidden_dim=16, num_layers=2,
                       num_heads=2, ffn_dim=32, max_seq_len=8)


def rand_layer(rng, d):
    return (Tensor(rng.normal(size=(d, d))), Tensor(rng.normal(size=(d, d))),
            Tensor(rng.normal(size=(d, d))))


class TestFusionAttend:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(0, 50))
    def test_matches_scalar_oracle(self, tlen, d, n, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(tlen, d))
        zs = [rng.normal(size=(tlen, d)) for _ in range(n)]
        q, k, v = (rng.normal(size=(d, d)) for _ in range(3))
        o, p = fusion_attend(Tensor(h), Tensor(np.stack(zs)),
                             (Tensor(q), Tensor(k), Tensor(v)))
        o_ref, p_ref = fusion_attend_oracle(h, zs, q, k, v)
        assert np.abs(o.data - o_ref).max() <= 1e-12
        assert np.abs(p.data - p_ref).max() <= 1e-12
        assert np.abs(p.data.sum(axis=1) - 1.0).max() <= 1e-9

    def test_identity_value_equal_teachers_reproduce_them(self):
        rng = np.random.default_rng(1)
        d = 4
        z = rng.normal(size=(3, d))
        o, p = fusion_attend(Tensor(rng.normal(size=(3, d))),
                             Tensor(np.stack([z, z])),
                             (Tensor(rng.normal(size=(d, d))),
                              Tensor(rng.normal(size=(d, d))),
                              Tensor(np.eye(d))))
        assert (o.data == z).all()
        assert (p.data == 0.5).all()

    def test_empty_teacher_list_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            fusion_attend(Tensor(rng.normal(size=(2, 4))), Tensor(np.zeros((0, 2, 4))),
                          rand_layer(rng, 4))

    def test_gradients_flow_to_all_weights(self):
        rng = np.random.default_rng(2)
        d = 4
        layer = tuple(Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(3))
        h = Tensor(rng.normal(size=(2, d)))
        zs = Tensor(rng.normal(size=(3, 2, d)))
        o, _ = fusion_attend(h, zs, layer)
        from adapterdistill import tensor as T
        backward(T.tsum(T.mul(o, o)))
        assert all(np.abs(w.grad).sum() > 0 for w in layer)


class TestDistillLoss:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 50))
    def test_matches_double_loop_oracle(self, L, tlen, d, seed):
        rng = np.random.default_rng(seed)
        o = [rng.normal(size=(tlen, d)) for _ in range(L)]
        z = [rng.normal(size=(tlen, d)) for _ in range(L)]
        mask = np.ones(tlen)
        mask[0] = 1.0
        got = distill_loss([Tensor(x) for x in o], [Tensor(x) for x in z], mask).item()
        assert abs(got - distill_loss_oracle(o, z, mask)) <= 1e-12

    def test_zero_when_outputs_agree(self):
        z = [Tensor(np.random.default_rng(0).normal(size=(3, 4)))]
        assert distill_loss(z, [Tensor(z[0].data.copy())], np.ones(3)).item() == 0.0

    def test_size_invariance_of_mean_square(self):
        # duplicating every layer leaves the mean unchanged
        rng = np.random.default_rng(3)
        o = [Tensor(rng.normal(size=(2, 3)))]
        z = [Tensor(rng.normal(size=(2, 3)))]
        one = distill_loss(o, z, np.ones(2)).item()
        two = distill_loss(o * 2, z * 2, np.ones(2)).item()
        assert abs(one - two) <= 1e-15

    def test_masked_tokens_excluded(self):
        rng = np.random.default_rng(4)
        o = [Tensor(rng.normal(size=(3, 2)))]
        z = [Tensor(rng.normal(size=(3, 2)))]
        mask = np.array([1.0, 1.0, 0.0])
        full = distill_loss([Tensor(o[0].data[:2])], [Tensor(z[0].data[:2])], np.ones(2)).item()
        assert abs(distill_loss(o, z, mask).item() - full) <= 1e-15

    def test_all_padding_rejected(self):
        o = [Tensor(np.zeros((2, 2)))]
        with pytest.raises(UsageError):
            distill_loss(o, o, np.zeros(2))


class TestTeacherSet:
    def _finals(self, n):
        out = []
        for i in range(n):
            a = init_adapter(f"t{i}", SMALL, 4, seed=i, trainable=False)
            a.promote()
            out.append(a)
        return out

    def test_make_teacher_set_orders_self_last(self):
        finals = self._finals(2)
        student = init_adapter("s", SMALL, 4, trainable=False)
        ts = make_teacher_set(finals, student)
        assert len(ts) == 3 and ts.include_self
        assert ts.adapters[-1].stage == "first"

    def test_without_self(self):
        ts = make_teacher_set(self._finals(2), None)
        assert len(ts) == 2 and not ts.include_self

    def test_trainable_teacher_rejected(self):
        a = init_adapter("t", SMALL, 4)
        a.promote()
        with pytest.raises(UsageError):
            TeacherSet(adapters=[a], include_self=False)

    def test_first_stage_teacher_rejected_in_final_slot(self):
        a = init_adapter("t", SMALL, 4, trainable=False)
        with pytest.raises(UsageError):
            TeacherSet(adapters=[a], include_self=False)


class TestCombinedLoss:
    def setup_method(self):
        self.bb = Backbone(SMALL)
        rng = np.random.default_rng(0)
        self.student = init_adapter("s", SMALL, 4, seed=1)
        self.head = new_head(SMALL.hidden_dim, rng)
        finals = []
        a = init_adapter("t0", SMALL, 4, seed=2, trainable=False)
        a.promote()
        finals.append(a)
        self.teachers = make_teacher_set(finals, self.student)
        self.omega = init_fusion(SMALL.hidden_dim, SMALL.num_layers, seed=0)
        ids, mask = tokenize_pair("a b", "c", SMALL.max_seq_len, SMALL.vocab_size)
        self.batch = [(ids, mask, 1)]

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigurationError):
            combined_loss(self.batch, self.bb, self.student, self.head,
                          self.teachers, self.omega, eta=-0.1)

    def test_eta_zero_is_bitwise_stage1_objective(self):
        from adapterdistill import tensor as T
        from adapterdistill.adapter import adapter_forward
        from adapterdistill.backbone import classify_logit
        got, ce, distill = combined_loss(self.batch, self.bb, self.student, self.head,
                                         self.teachers, self.omega, eta=0.0)
        ids, mask, label = self.batch[0]
        pooled = self.bb.forward(
            ids, mask, adapter_hook=lambda li, h: adapter_forward(h, self.student, li))
        want = T.bce_with_logits(classify_logit(pooled, self.head), float(label))
        assert got.item() == want.item() == ce and distill == 0.0

    def test_eta_zero_gives_fusion_no_gradient(self):
        loss, _, _ = combined_loss(self.batch, self.bb, self.student, self.head,
                                   self.teachers, self.omega, eta=0.0)
        backward(loss)
        assert all(np.abs(p.grad).sum() == 0 for p in self.omega.params())

    def test_positive_eta_reaches_fusion_weights(self):
        loss, ce, distill = combined_loss(self.batch, self.bb, self.student, self.head,
                                          self.teachers, self.omega, eta=2.0)
        assert distill > 0.0 and loss.item() == ce + distill * 2.0
        backward(loss)
        assert any(np.abs(p.grad).sum() > 0 for p in self.omega.params())

    def test_teachers_never_get_gradient(self):
        loss, _, _ = combined_loss(self.batch, self.bb, self.student, self.head,
                                   self.teachers, self.omega, eta=1.0)
        backward(loss)
        assert all(p.grad is None for t in self.teachers.adapters for p in t.params())

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            combined_loss([], self.bb, self.student, self.head,
                          self.teachers, self.omega, eta=1.0)

    def test_forward_returns_per_layer_outputs(self):
        ids, mask, _ = self.batch[0]
        pooled, dl, p_list = distill_example_forward(
            self.bb, ids, mask, self.student, self.teachers, self.omega)
        _, _, distill = combined_loss(self.batch, self.bb, self.student, self.head,
                                      self.teachers, self.omega, eta=1.0)
        assert dl.item() == distill > 0.0
        assert len(p_list) == SMALL.num_layers
        # 5 real tokens of 8: the trailing padding is dropped
        assert all(p.data.shape == (5, len(self.teachers)) for p in p_list)

    def test_gradients_on_padded_example(self):
        student = self.student.copy(trainable=True)
        for layer in student.layers:  # nonzero up-projections: nontrivial gradients
            layer.up.data[:] = np.random.default_rng(6).normal(0, 0.05, layer.up.data.shape)

        def f():
            return combined_loss(self.batch, self.bb, student, self.head,
                                 self.teachers, self.omega, eta=1.0)[0]

        params = student.params() + self.omega.params() + self.head.params()
        assert grad_check(f, params) <= 1e-4

    def test_all_padding_example_rejected(self):
        ids, mask, label = self.batch[0]
        with pytest.raises(UsageError, match="no tokens"):
            combined_loss([(ids, np.zeros_like(mask), label)], self.bb, self.student,
                          self.head, self.teachers, self.omega, eta=1.0)


class TestRaggedBatch:
    """One taped forward over a (B, T) batch equals B one-row forwards."""

    CONFIG = BackboneConfig(vocab_size=512, hidden_dim=16, num_layers=2,
                            num_heads=2, ffn_dim=32, max_seq_len=20)

    def setup_method(self):
        cfg = self.CONFIG
        rng = np.random.default_rng(11)
        self.bb = Backbone(cfg)
        self.student = init_adapter("s", cfg, 4, seed=1)
        for layer in self.student.layers:  # nonzero up-projections: nontrivial gradients
            layer.up.data[:] = rng.normal(0, 0.05, layer.up.data.shape)
        self.head = new_head(cfg.hidden_dim, rng)
        teacher = init_adapter("t0", cfg, 4, seed=2, trainable=False)
        for layer in teacher.layers:
            layer.up.data[:] = rng.normal(0, 0.05, layer.up.data.shape)
        teacher.promote()
        self_first = self.student.copy(stage="first")
        self.teachers = make_teacher_set([teacher], self_first)
        self.omega = init_fusion(cfg.hidden_dim, cfg.num_layers, seed=0)
        self.batch = []
        for n, label in ((5, 1), (9, 0), (16, 1)):
            ids = np.full(cfg.max_seq_len, PAD_ID)
            ids[:n] = rng.integers(NUM_RESERVED, cfg.vocab_size, size=n)
            ids[0] = CLS_ID
            mask = np.zeros(cfg.max_seq_len)
            mask[:n] = 1.0
            if n == 9:
                mask[3] = 0.0  # an interior zero
            self.batch.append((ids, mask, label))

    def params(self):
        return self.student.params() + self.omega.params() + self.head.params()

    def loss_and_grads(self, batch):
        for p in self.params():
            p.zero_grad()
        loss, ce, distill = combined_loss(batch, self.bb, self.student, self.head,
                                          self.teachers, self.omega, eta=1.5)
        backward(loss)
        return (loss.item(), ce, distill), [p.grad.copy() for p in self.params()]

    def test_combined_loss_equals_mean_of_one_row_calls(self):
        parts, grads = self.loss_and_grads(self.batch)
        rows = [self.loss_and_grads([row]) for row in self.batch]
        for i, part in enumerate(parts):
            assert abs(part - np.mean([r[0][i] for r in rows])) <= 1e-12
        for i, g in enumerate(grads):
            mean = sum(r[1][i] for r in rows) / len(rows)
            assert np.abs(g - mean).max() <= 1e-12
        assert any(np.abs(g).sum() > 0 for g in grads[-len(self.head.params()) - 1:])

    def test_stage1_ce_loss_gradients(self):
        loss_fn = _ce_loss(self.bb, self.head, make_adapter_hook(self.student))
        params = self.student.params() + self.head.params()
        assert grad_check(lambda: loss_fn(self.batch)[0], params) <= 1e-4
