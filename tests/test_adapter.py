"""Bottleneck adapters: identity init, stages, and parameter accounting."""

import numpy as np
import pytest

from adapterdistill import tensor as T
from adapterdistill.adapter import (adapter_forward,
                                    adapter_layer_param_count,
                                    added_params_fraction,
                                    backbone_param_count, init_adapter,
                                    stack_adapters)
from adapterdistill.backbone import Backbone, BackboneConfig
from adapterdistill.errors import ConfigurationError, DimensionError, UsageError
from adapterdistill.tensor import Tensor, backward

DESK = BackboneConfig()


class TestInit:
    def test_fresh_adapter_is_exact_identity(self):
        # zero up-projection: z = h + 0, bit for bit
        a = init_adapter("t", DESK, 8)
        h = Tensor(np.random.default_rng(0).normal(size=(5, DESK.hidden_dim)))
        z = adapter_forward(h, a, 0)
        assert (z.data == h.data).all()

    def test_bottleneck_must_be_smaller_than_hidden(self):
        with pytest.raises(ConfigurationError):
            init_adapter("t", DESK, DESK.hidden_dim)

    def test_seed_determinism(self):
        a = init_adapter("t", DESK, 8, seed=3)
        b = init_adapter("t", DESK, 8, seed=3)
        assert all((p.data == q.data).all() for p, q in zip(a.params(), b.params()))

    def test_layer_out_of_range(self):
        a = init_adapter("t", DESK, 8)
        h = Tensor(np.zeros((2, DESK.hidden_dim)))
        with pytest.raises(UsageError):
            adapter_forward(h, a, DESK.num_layers)


class TestStack:
    def members(self, dims=(8, 8, 8)):
        rng = np.random.default_rng(4)
        out = []
        for i, m in enumerate(dims):
            a = init_adapter(f"t{i}", DESK, m, seed=i, trainable=False)
            for layer in a.layers:  # nonzero up-projections
                layer.up.data[:] = rng.normal(0, 0.1, layer.up.data.shape)
            out.append(a)
        return out

    @pytest.mark.parametrize("dims", [(8, 8, 8), (4, 8, 2)])
    def test_stack_equals_loop_outputs_and_input_gradient(self, dims):
        members = self.members(dims)
        stacked = stack_adapters(members)
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(len(members), 5, DESK.hidden_dim)))
        for li in range(DESK.num_layers):
            h1 = Tensor(rng.normal(size=(5, DESK.hidden_dim)), requires_grad=True)
            h2 = Tensor(h1.data.copy(), requires_grad=True)
            z = adapter_forward(h1, stacked, li)
            zs = [adapter_forward(h2, a, li) for a in members]
            assert z.shape == (len(members), 5, DESK.hidden_dim)
            assert np.abs(z.data - np.stack([x.data for x in zs])).max() <= 1e-12
            backward(T.tsum(T.mul(z, w)))
            loop = None
            for n, x in enumerate(zs):
                term = T.tsum(T.mul(x, Tensor(w.data[n])))
                loop = term if loop is None else loop + term
            backward(loop)
            assert np.abs(h1.grad - h2.grad).max() <= 1e-12

    def test_stack_rejects_empty_trainable_and_mismatched(self):
        with pytest.raises(UsageError):
            stack_adapters([])
        with pytest.raises(UsageError):
            stack_adapters([init_adapter("t", DESK, 8)])
        other = init_adapter("o", BackboneConfig(num_layers=2), 8, trainable=False)
        with pytest.raises(DimensionError):
            stack_adapters(self.members((8,)) + [other])


class TestStages:
    def test_promote_once(self):
        a = init_adapter("t", DESK, 8)
        assert a.stage == "first"
        a.promote()
        assert a.stage == "final"
        with pytest.raises(UsageError):
            a.promote()

    def test_copy_is_deep(self):
        a = init_adapter("t", DESK, 8)
        b = a.copy()
        b.layers[0].down.data += 1.0
        assert not (a.layers[0].down.data == b.layers[0].down.data).all()

    def test_copy_frozen_by_default(self):
        assert not any(p.requires_grad for p in init_adapter("t", DESK, 8).copy().params())


class TestParamAccounting:
    def test_layer_count_formula_vs_enumeration(self):
        a = init_adapter("t", DESK, 8)
        per_layer = sum(p.size for p in a.layers[0].params())
        assert adapter_layer_param_count(DESK.hidden_dim, 8) == per_layer == 1096

    def test_backbone_formula_vs_enumeration(self):
        # analytic recipe against actually constructing and counting tensors
        for cfg in (DESK, BackboneConfig(vocab_size=512, hidden_dim=16, num_layers=3,
                                         num_heads=2, ffn_dim=48, max_seq_len=9)):
            assert backbone_param_count(cfg) == Backbone(cfg).param_count()

    def test_fraction_same_for_equal_dims_regardless_of_stage(self):
        a = init_adapter("t", DESK, 8)
        b = a.copy()
        b.promote()
        assert added_params_fraction(a, DESK) == added_params_fraction(b, DESK)

    def test_fraction_with_fusion_strictly_greater(self):
        a = init_adapter("t", DESK, 8)
        assert added_params_fraction(a, DESK, include_fusion=True) > added_params_fraction(a, DESK)

    def test_fraction_needs_dims(self):
        with pytest.raises(ConfigurationError):
            added_params_fraction(None, DESK)

    def test_production_scale_fraction_near_published_value(self):
        cfg = BackboneConfig(vocab_size=21128, hidden_dim=768, num_layers=12,
                             num_heads=12, ffn_dim=3072, max_seq_len=512)
        fractions = [added_params_fraction(None, cfg, bottleneck_dim=m)
                     for m in range(1, 768)]
        assert any(abs(f - 1.45) <= 0.1 for f in fractions)
