"""Autodiff core: every op's analytic gradient against central differences."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adapterdistill import tensor as T
from adapterdistill.errors import ConfigurationError, DimensionError, OracleError, UsageError
from adapterdistill.tensor import Tensor, backward, grad_check, no_grad


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def check(f, params, tol=1e-6):
    assert grad_check(f, params, step=1e-5) <= tol


class TestOpGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_sub_mul(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 3, 4)
        check(lambda: T.tsum(T.mul(a + b, a - b)), [a, b])

    def test_broadcast_add(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 4)
        check(lambda: T.tsum(T.mul(a + b, a + b)), [a, b])

    def test_matmul(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 4, 2)
        check(lambda: T.tsum(T.matmul(a, b)), [a, b])

    def test_matmul_shape_error_names_both_shapes(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 3, 2)
        with pytest.raises(DimensionError, match=r"3, 4.*3, 2"):
            T.matmul(a, b)

    def test_matmul_broadcasts_leading_axes(self):
        cases = [((2, 3, 4), (4, 5)),          # stacked left operand
                 ((3, 4), (2, 4, 5)),          # stacked right operand
                 ((2, 1, 3, 4), (3, 4, 5)),    # size-1 and missing axes
                 ((2, 3, 4), (2, 4, 5))]       # same leading axes
        for sa, sb in cases:
            a, b = leaf(self.rng, *sa), leaf(self.rng, *sb)
            w = Tensor(self.rng.normal(size=np.matmul(a.data, b.data).shape))
            check(lambda a=a, b=b, w=w: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    def test_matmul_leading_axes_must_broadcast(self):
        a, b = leaf(self.rng, 2, 3, 4), leaf(self.rng, 3, 4, 5)
        with pytest.raises(DimensionError, match="broadcast"):
            T.matmul(a, b)
        with pytest.raises(DimensionError):
            T.matmul(leaf(self.rng, 4), b)

    def test_transpose_axes_and_reshape(self):
        a = leaf(self.rng, 2, 3, 4)
        w = Tensor(self.rng.normal(size=(4, 2, 3)))
        check(lambda: T.tsum(T.mul(T.transpose(a, (2, 0, 1)), w)), [a])
        w = Tensor(self.rng.normal(size=(2, 4, 3)))
        check(lambda: T.tsum(T.mul(T.transpose(a), w)), [a])
        w = Tensor(self.rng.normal(size=(6, 4)))
        check(lambda: T.tsum(T.mul(T.reshape(a, (6, 4)), w)), [a])
        assert T.transpose(a).shape == (2, 4, 3) and T.reshape(a, (4, 6)).shape == (4, 6)

    def test_activations(self):
        a = leaf(self.rng, 2, 5)
        for op in (T.gelu, T.tanh, T.sigmoid):
            check(lambda op=op: T.tsum(op(a)), [a])

    def test_sqrt(self):
        a = Tensor(self.rng.uniform(0.5, 2.0, size=(1, 1)), requires_grad=True)
        check(lambda: T.sqrt(T.tsum(T.mul(a, a))), [a])

    def test_softmax_rows(self):
        a = leaf(self.rng, 4, 6)
        w = Tensor(self.rng.normal(size=(4, 6)))
        check(lambda: T.tsum(T.mul(T.softmax(a), w)), [a])

    def test_layernorm(self):
        a, g, b = leaf(self.rng, 3, 8), leaf(self.rng, 8), leaf(self.rng, 8)
        check(lambda: T.tsum(T.layernorm(a, g, b)), [a, g, b])

    def test_layernorm_eps_must_be_positive(self):
        a, g, b = leaf(self.rng, 2, 4), leaf(self.rng, 4), leaf(self.rng, 4)
        with pytest.raises(ConfigurationError):
            T.layernorm(a, g, b, eps=0.0)

    def test_embedding(self):
        table = leaf(self.rng, 10, 4)
        ids = np.array([1, 3, 3, 0])
        check(lambda: T.tsum(T.embedding(table, ids)), [table])

    def test_rows_cols_concat(self):
        a = leaf(self.rng, 5, 6)
        check(lambda: T.tsum(T.rows(a, 1, 4)), [a])
        check(lambda: T.tsum(T.cols(a, 2, 5)), [a])
        b = leaf(self.rng, 5, 2)
        check(lambda: T.tsum(T.mul(T.concat_cols([a, b]), T.concat_cols([a, b]))), [a, b])

    def test_mean_and_transpose(self):
        a = leaf(self.rng, 3, 5)
        check(lambda: T.tmean(T.matmul(T.transpose(a), a)), [a])

    def test_bce_with_logits(self):
        z = leaf(self.rng, 1, 1)
        for label in (0.0, 1.0):
            check(lambda label=label: T.bce_with_logits(z, label), [z])


class TestBceStability:
    @pytest.mark.parametrize("logit", [-500.0, 500.0])
    def test_extreme_logits_finite(self, logit):
        z = Tensor(np.full((1, 1), logit), requires_grad=True)
        loss = T.bce_with_logits(z, 1.0)
        backward(loss)
        assert np.isfinite(loss.item())
        assert np.isfinite(z.grad).all()


class TestBackward:
    def test_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            backward(a)

    def test_interior_gradients_are_dropped_after_use(self):
        a = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        h = T.tanh(a)
        loss = T.tsum(T.mul(h, h))
        backward(loss)
        assert h.grad is None and loss.grad is None
        assert np.allclose(a.grad, 2 * h.data * (1 - h.data ** 2))

    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        backward(a + a)
        assert a.grad[0, 0] == 2.0

    def test_no_grad_blocks_taping(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = T.tsum(T.mul(a, a))
        backward(out)  # nothing was taped, so this is a no-op
        assert np.all(a.grad == 0.0)

    def test_frozen_leaf_gets_no_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)))
        backward(T.tsum(T.mul(a, b)))
        assert b.grad is None

    def test_no_grad_in_one_thread_leaves_another_taping(self):
        entered, done = threading.Event(), threading.Event()

        def serve():
            with no_grad():
                entered.set()
                done.wait(timeout=30)

        server = threading.Thread(target=serve)
        server.start()
        try:
            assert entered.wait(timeout=30)
            a = Tensor(np.array([[1.0]]), requires_grad=True)
            backward(T.tsum(T.mul(a, a)))
        finally:
            done.set()
            server.join(timeout=30)
        assert not server.is_alive()
        assert a.grad[0, 0] == 2.0

    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        rng = np.random.default_rng(0)
        table, a, g, b = leaf(rng, 5, 3), leaf(rng, 4, 3), leaf(rng, 3), leaf(rng, 3)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = T.layernorm(T.embedding(table, np.array([0, 2, 2, 4])) + a, g, b)
            h = T.mul(T.tanh(T.gelu(h) - T.sigmoid(a)), T.softmax(h))
            s = T.matmul(T.transpose(h), h)
            s = T.concat_cols([T.cols(s, 0, 1), T.cols(s, 1, 3)])
            loss = T.bce_with_logits(T.tsum(T.rows(s, 0, 1)), 1.0) \
                + T.tmean(T.sqrt(T.mul(s, s) + 1.0))
            del h, s
            probes, stack = {}, [loss]  # id -> weakref, one per taped node
            while stack:
                t = stack.pop()
                if t._backward is not None and id(t) not in probes:
                    probes[id(t)] = weakref.ref(t)
                    stack.extend(t._prev)
            del t
            backward(loss)
            assert len(probes) == 22 and all(p() is not None for p in probes.values())
            del loss
            assert [p() for p in probes.values() if p() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestGradCheck:
    def test_rejects_nondeterministic_function(self):
        a = Tensor(np.ones((1, 1)), requires_grad=True)
        state = {"n": 0.0}

        def f():
            state["n"] += 1.0
            return a * state["n"]

        with pytest.raises(OracleError):
            grad_check(f, [a])

    def test_step_must_be_positive(self):
        a = Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ConfigurationError):
            grad_check(lambda: T.tsum(a), [a], step=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=10.0, size=(rows, cols))
    p = T.softmax(Tensor(x)).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10))
def test_unbroadcast_roundtrip_gradient(seed):
    # row-vector bias broadcast against a matrix: grad must sum over rows
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    backward(T.tsum(a + b))
    assert b.grad.shape == (1, 4)
    assert np.allclose(b.grad, 3.0)
