"""Frozen encoder: tokenization, determinism, and the classification head."""

import numpy as np
import pytest

from adapterdistill import tensor as T
from adapterdistill.backbone import (CLS_ID, NUM_RESERVED, PAD_ID, SEP_ID,
                                     Backbone, BackboneConfig, classify_logit,
                                     hash_token, new_head, tokenize_pair)
from adapterdistill.errors import ConfigurationError, DimensionError

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
