"""Dense float64 tensors with tape-based reverse-mode autodiff.

Every differentiable op records its inputs and a backward closure on the
output node.  A closure takes the output gradient as its argument and holds
no reference to its own node, so a dropped graph is freed by reference
counting alone.  Nodes carry a global creation ordinal, so the backward
pass can walk the reachable subgraph in exact reverse execution order (a
topological order by construction) and visit every op exactly once; an
interior node's gradient is dropped as soon as its closure has run, so
only trainable leaves keep a `grad` after the pass.
Gradient mode is per thread (and per asyncio task): `no_grad` in one
thread never stops taping in another.

Ops take arrays of any rank where numpy does: `matmul` contracts the last
two axes and broadcasts the leading ones, as `np.matmul` does, and
elementwise ops broadcast as numpy does; backward sums each gradient back
over the axes its input was broadcast along.  A 2-D weight multiplied into
batched rows gets its gradient from one product over the folded rows.
`transpose` swaps the last two axes unless it is given an explicit
permutation.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import DimensionError, ConfigurationError, OracleError, UsageError

_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)
_ordinals = itertools.count(1)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev", "_ordinal",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self._ordinal = 0

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all routing goes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _needs(t: Tensor) -> bool:
    """True when gradient flows into t: a trainable leaf or a taped node."""
    return t.requires_grad or t._backward is not None


def _make_node(data: np.ndarray, inputs: Sequence[Tensor],
               bw: Callable[[np.ndarray], None]) -> Tensor:
    """Build an output node; records the backward closure bw(g), which gets
    the output gradient, only when needed (grad is allocated in backward)."""
    out = Tensor(data)
    if _grad_enabled.get() and any(_needs(t) for t in inputs):
        out._prev = tuple(inputs)
        out._backward = bw
        out._ordinal = next(_ordinals)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be another node's
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    nd = g.ndim - len(shape)
    if nd > 0:
        g = g.sum(axis=tuple(range(nd)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / broadcast ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.data.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make_node(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.data.shape))
        if _needs(b):
            _accum(b, -_unbroadcast(g, b.data.shape))

    return _make_node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make_node(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    try:
        data = a.data @ b.data
    except ValueError:
        raise DimensionError(
            f"matmul leading axes do not broadcast: {a.data.shape} x {b.data.shape}"
        ) from None

    def bw(g):
        if _needs(a):
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if _needs(b):
            if b.data.ndim == 2 and a.data.ndim > 2:
                # a 2-D weight under batched rows: one gemm over the folded
                # rows, not a (..., k, n) stack summed afterwards
                rows = a.data.reshape(-1, a.data.shape[-1])
                _accum(b, rows.T @ g.reshape(-1, g.shape[-1]))
            else:
                _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make_node(data, (a, b), bw)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes by `axes`; by default swap the last two."""
    nd = a.data.ndim
    if axes is None:
        axes = (*range(nd - 2), nd - 1, nd - 2)
    data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def bw(g):
        if _needs(a):
            _accum(a, np.transpose(g, inverse))

    return _make_node(data, (a,), bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g):
        if _needs(a):
            _accum(a, g.reshape(a.data.shape))

    return _make_node(data, (a,), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    data = table.data[ids]

    def bw(g):
        if _needs(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make_node(data, (table,), bw)


def _slice(a: Tensor, index) -> Tensor:
    data = a.data[index]

    def bw(g):
        if _needs(a):
            full = np.zeros_like(a.data)
            full[index] = g
            _accum(a, full)

    return _make_node(data, (a,), bw)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, np.s_[start:stop])


def cols(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, np.s_[:, start:stop])


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)
    widths = [p.data.shape[1] for p in parts]

    def bw(g):
        ofs = 0
        for p, w in zip(parts, widths):
            if _needs(p):
                _accum(p, g[:, ofs:ofs + w])
            ofs += w

    return _make_node(data, tuple(parts), bw)


def tsum(a: Tensor) -> Tensor:
    data = np.array(a.data.sum())

    def bw(g):
        if _needs(a):
            _accum(a, np.full_like(a.data, float(g)))

    return _make_node(data, (a,), bw)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.array(a.data.mean())

    def bw(g):
        if _needs(a):
            _accum(a, np.full_like(a.data, float(g) / n))

    return _make_node(data, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g):
        if _needs(a):
            _accum(a, g * 0.5 / np.sqrt(a.data))

    return _make_node(data, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * cdf

    def bw(g):
        if _needs(a):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            _accum(a, g * (cdf + x * pdf))

    return _make_node(data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bw(g):
        if _needs(a):
            _accum(a, g * (1.0 - data * data))

    return _make_node(data, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        if _needs(a):
            _accum(a, g * data * (1.0 - data))

    return _make_node(data, (a,), bw)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    if a.data.shape[-1] == 0:
        raise DimensionError(f"softmax over empty axis: shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        if _needs(a):
            dot = (g * data).sum(axis=-1, keepdims=True)
            _accum(a, data * (g - dot))

    return _make_node(data, (a,), bw)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    if eps <= 0:
        raise ConfigurationError(f"layernorm eps must be positive, got {eps}")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layernorm gain/bias {gain.data.shape}/{bias.data.shape} do not match last dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def bw(g):
        if _needs(x):
            gh = g * gain.data
            gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
            _accum(x, gx)
        if _needs(gain):
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        if _needs(bias):
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _make_node(data, (x, gain, bias), bw)


def bce_with_logits(logit: Tensor, target) -> Tensor:
    """Numerically stable binary cross-entropy, averaged over the logits.

    `target` holds one label per logit: a float for a single logit, or a
    (B,) array for a (B, 1) logit column.
    """
    x = logit.data
    y = np.asarray(target, dtype=np.float64)
    if y.size != x.size:
        raise DimensionError(f"bce_with_logits: {y.size} targets for {x.size} logits")
    y = y.reshape(x.shape)
    e = np.exp(-np.abs(x))
    loss = (np.maximum(x, 0.0) - x * y + np.log1p(e)).mean()
    p = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        if _needs(logit):
            _accum(logit, g * (p - y) / x.size)

    return _make_node(np.array(loss), (logit,), bw)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Accumulate into the grads of the trainable leaves reachable from a
    scalar loss."""
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # Collect reachable graph nodes; sort by creation ordinal = execution order.
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes.append(t)
            stack.extend(t._prev)
    nodes.sort(key=lambda t: t._ordinal)
    loss.grad = np.ones_like(loss.data)
    for t in reversed(nodes):
        if t.grad is not None:
            t._backward(t.grad)
            if not t.requires_grad:
                t.grad = None  # spent: every consumer of t has run before it


# ---------------------------------------------------------------------------
# finite-difference gradient checker

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Only parameters with requires_grad=True are checked; frozen tensors are
    excluded from the report.  Raises OracleError if f is not deterministic.
    """
    if step <= 0:
        raise ConfigurationError(f"step must be positive, got {step}")
    live = [p for p in params if p.requires_grad]
    with no_grad():
        v1 = f().item()
        v2 = f().item()
    if v1 != v2:
        raise OracleError("function under test is not deterministic")

    for p in live:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in live]

    worst = 0.0
    for p, an in zip(live, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                fp = f().item()
            flat[i] = orig - step
            with no_grad():
                fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * step)
            a = an_flat[i]
            rel = abs(a - num) / max(1.0, abs(a), abs(num))
            if rel > worst:
                worst = rel
    return worst
