"""Frozen encoder: tokenization, determinism, and the classification head."""

import numpy as np
import pytest

from adapterdistill import tensor as T
from adapterdistill.adapter import init_adapter
from adapterdistill.backbone import (CLS_ID, NUM_RESERVED, PAD_ID, SEP_ID,
                                     Backbone, BackboneConfig, classify_logit,
                                     hash_token, new_head, real_length, tokenize_pair)
from adapterdistill.errors import ConfigurationError, DimensionError
from adapterdistill.fusion import make_adapter_hook
from adapterdistill.tensor import grad_check
from adapterdistill.trainer import TrainedArtifact, _ce_loss, predict_prob

SMALL = BackboneConfig(vocab_size=512, hidden_dim=16, num_layers=2,
                       num_heads=2, ffn_dim=32, max_seq_len=10)


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(hidden_dim=10, num_heads=4)

    def test_zero_heads_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="num_heads must be positive"):
            BackboneConfig(num_heads=0)

    @pytest.mark.parametrize("vocab_size", range(1, NUM_RESERVED + 1))
    def test_vocab_must_exceed_reserved_ids(self, vocab_size):
        with pytest.raises(ConfigurationError, match="reserved"):
            BackboneConfig(vocab_size=vocab_size)

    def test_smallest_vocab_tokenizes(self):
        config = BackboneConfig(vocab_size=NUM_RESERVED + 1)
        ids, _ = tokenize_pair("a b", "c", 8, config.vocab_size)
        assert ids[1] == NUM_RESERVED

    def test_min_sequence_length(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(max_seq_len=1)

    def test_dict_round_trip(self):
        assert BackboneConfig.from_dict(SMALL.to_dict()) == SMALL


class TestTokenize:
    def test_reserved_ids_never_collide_with_content(self):
        ids, _ = tokenize_pair("hello", "world", 10, 512)
        assert ids[0] == CLS_ID and ids[2] == SEP_ID
        assert ids[1] >= 3 and ids[3] >= 3

    def test_case_insensitive(self):
        a, _ = tokenize_pair("Hello", "World", 10, 512)
        b, _ = tokenize_pair("hello", "world", 10, 512)
        assert (a == b).all()

    def test_padding_and_mask(self):
        ids, mask = tokenize_pair("one", "two", 6, 512)
        assert list(mask) == [1, 1, 1, 1, 0, 0]
        assert list(ids[4:]) == [PAD_ID] * 2

    def test_truncation(self):
        ids, mask = tokenize_pair("a b c d e f g h", "i j", 4, 512)
        assert len(ids) == 4 and mask.sum() == 4
        assert ids[0] == CLS_ID and ids[2] == SEP_ID
        with pytest.raises(ConfigurationError):
            tokenize_pair("a", "b", 1, 512)

    def test_long_query_keeps_separator_and_candidate(self):
        query = " ".join(f"word{i}" for i in range(40))
        a, _ = tokenize_pair(query, "alpha beta", 32, 512)
        b, _ = tokenize_pair(query, "gamma delta", 32, 512)
        assert SEP_ID in a and SEP_ID in b
        assert not (a == b).all()

    def test_pair_has_separator(self):
        ids, _ = tokenize_pair("ab", "cd", 10, 512)
        assert ids[0] == CLS_ID and SEP_ID in ids

    def test_hash_token_stable_and_in_range(self):
        assert hash_token("abc", 512) == hash_token("abc", 512)
        assert 3 <= hash_token("abc", 512) < 512


class TestBackbone:
    def test_same_seed_same_weights(self):
        assert Backbone(SMALL).weights_hash() == Backbone(SMALL).weights_hash()

    def test_different_seed_different_weights(self):
        other = BackboneConfig(**{**SMALL.to_dict(), "seed": 1})
        assert Backbone(SMALL).weights_hash() != Backbone(other).weights_hash()

    def test_forward_deterministic_and_finite(self):
        bb = Backbone(SMALL)
        ids, mask = tokenize_pair("alpha beta", "gamma", 10, SMALL.vocab_size)
        pooled1 = bb.forward(ids, mask)
        pooled2 = bb.forward(ids, mask)
        assert np.isfinite(pooled1.data).all()
        assert (pooled1.data == pooled2.data).all()

    def test_frozen_by_default(self):
        assert not any(p.requires_grad for p in Backbone(SMALL).params())

    def test_unfrozen_copy_is_independent(self):
        bb = Backbone(SMALL)
        private = bb.unfrozen_copy()
        assert all(p.requires_grad for p in private.params())
        private.params()[0].data += 1.0
        assert bb.weights_hash() == Backbone(SMALL).weights_hash()

    def test_adapter_hook_receives_every_layer(self):
        bb = Backbone(SMALL)
        ids, mask = tokenize_pair("x", "y", 10, SMALL.vocab_size)
        calls = []

        def hook(li, h):
            calls.append(li)
            return h

        bb.forward(ids, mask, adapter_hook=hook)
        assert calls == list(range(SMALL.num_layers))


class TestHead:
    def test_classify_probability_range(self):
        bb = Backbone(SMALL)
        head = new_head(SMALL.hidden_dim, np.random.default_rng(0))
        ids, mask = tokenize_pair("q", "r", 10, SMALL.vocab_size)
        pooled = bb.forward(ids, mask)
        p = T.sigmoid(classify_logit(pooled, head)).item()
        assert 0.0 < p < 1.0

    def test_dimension_mismatch(self):
        bb = Backbone(SMALL)
        head = new_head(SMALL.hidden_dim + 2, np.random.default_rng(0))
        ids, mask = tokenize_pair("q", "r", 10, SMALL.vocab_size)
        pooled = bb.forward(ids, mask)
        with pytest.raises(DimensionError):
            classify_logit(pooled, head)


class TestTrailingPadding:
    """`Backbone.forward` drops the positions after the last real token."""

    def setup_method(self):
        self.bb = Backbone(SMALL)
        rng = np.random.default_rng(5)
        self.adapter = init_adapter("t", SMALL, 4, seed=3, trainable=False)
        for layer in self.adapter.layers:
            layer.up.data[:] = rng.normal(0, 0.5, layer.up.data.shape)
        self.head = new_head(SMALL.hidden_dim, rng)
        self.head.w.data *= 20
        self.art = TrainedArtifact("adapter", self.adapter, self.head)
        # 6 real tokens, then 4 pads
        self.ids, self.mask = tokenize_pair("a b c", "d", SMALL.max_seq_len, SMALL.vocab_size)

    def test_real_length(self):
        assert real_length(self.mask) == 6
        inner = self.mask.copy()
        inner[2] = 0.0
        assert real_length(inner) == 6
        assert real_length(np.zeros(4)) == 4

    def test_padded_pair_equals_pair_cut_to_real_tokens(self):
        padded = predict_prob(self.bb, self.art, self.ids, self.mask)
        cut = predict_prob(self.bb, self.art, self.ids[:6], self.mask[:6])
        assert abs(padded - cut) <= 1e-12
        # the encoder before the trim gave this for the padded pair
        assert abs(padded - 0.8806719456116874) <= 1e-12

    def test_hook_sees_only_the_kept_positions(self):
        shapes = []
        self.bb.forward(self.ids, self.mask,
                        adapter_hook=lambda li, h: shapes.append(h.shape) or h)
        assert shapes == [(1, 6, SMALL.hidden_dim)] * SMALL.num_layers
        shorter = tokenize_pair("a", "b", SMALL.max_seq_len, SMALL.vocab_size)
        shapes.clear()
        self.bb.forward(np.stack([shorter[0], self.ids]), np.stack([shorter[1], self.mask]),
                        adapter_hook=lambda li, h: shapes.append(h.shape) or h)
        assert shapes == [(2, 6, SMALL.hidden_dim)] * SMALL.num_layers

    def test_interior_zeros_are_kept_and_masked(self):
        # expected values from the encoder before the trim, which ran every
        # padded position
        inner = self.mask.copy()
        inner[2] = 0.0
        assert abs(predict_prob(self.bb, self.art, self.ids, inner)
                   - 0.8286193109412836) <= 1e-12
        assert abs(predict_prob(self.bb, self.art, self.ids, np.zeros(SMALL.max_seq_len))
                   - 0.8772378240427193) <= 1e-12

    def test_stage1_ce_loss_gradients_on_padded_pairs(self):
        adapter = self.adapter.copy(trainable=True)
        head = self.head.copy()
        other = tokenize_pair("e", "f g", SMALL.max_seq_len, SMALL.vocab_size)
        batch = [(self.ids, self.mask, 1), (*other, 0)]
        loss_fn = _ce_loss(self.bb, head, make_adapter_hook(adapter))
        err = grad_check(lambda: loss_fn(batch)[0], adapter.params() + head.params())
        assert err <= 1e-4
