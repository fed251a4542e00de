"""Span tracing from outside the program.

`Tracer.install()` replaces public functions of the program with wrappers
that record spans, and `uninstall()` puts the originals back.  A module
function is replaced under every name any module of the program holds it
by; a method is replaced on its class.  `install()` raises `TraceError`
when a function it should wrap is gone, or when the program keeps a
reference to one where the wrapper cannot reach it (a container, a class
attribute, a default argument): either would let calls bypass the
wrapper, so a per-layer figure would read too low without any error.

A span is (id, parent id, request id, name, start, end); a span opened
with no span open starts a new request.  Spans stay in memory until
`write()`.

Tensor ops and `bm25_score` run hundreds of thousands of times per
operation, so they are counted (calls, and busy time for tensor ops)
instead of spanned.  That keeps memory bounded and keeps a layer's self
time (its span minus its child spans) free of per-op bookkeeping.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import pkgutil
import time
from pathlib import Path

import numpy as np

import adapterdistill
import adapterdistill.adapter as adapter_mod
import adapterdistill.artifacts as artifacts_mod
import adapterdistill.backbone as backbone_mod
import adapterdistill.faq_data as faq_mod
import adapterdistill.fusion as fusion_mod
import adapterdistill.platform as platform_mod
import adapterdistill.tensor as tensor_mod
import adapterdistill.trainer as trainer_mod

TENSOR_OPS = ("add", "sub", "mul", "matmul", "transpose", "embedding", "rows", "cols",
              "concat_cols", "tsum", "tmean", "sqrt", "gelu", "tanh", "sigmoid",
              "softmax", "layernorm", "bce_with_logits")

# (span name, defining module or class, function name)
SPANNED = (
    ("adapter.forward", adapter_mod, "adapter_forward"),
    ("fusion.attend", fusion_mod, "fusion_attend"),
    ("fusion.distill_loss", fusion_mod, "distill_loss"),
    ("tensor.backward", tensor_mod, "backward"),
    ("trainer.stage1", trainer_mod, "train_stage1"),
    ("trainer.stage2", trainer_mod, "train_stage2"),
    ("trainer.select_eta", trainer_mod, "select_eta"),
    ("trainer.predict", trainer_mod, "predict_prob"),
    ("trainer.evaluate", trainer_mod, "evaluate_artifact"),
    ("trainer.evaluate", trainer_mod, "evaluate_predictions"),
    ("faq_data.build_dataset", faq_mod, "build_dataset"),
    ("faq_data.build_negatives", faq_mod, "build_negatives"),
    ("platform.evaluate", platform_mod.Platform, "evaluate_tenant"),
    ("platform.register", platform_mod.Platform, "register_tenant"),
    ("platform.hash_snapshot", platform_mod.Platform, "hash_snapshot"),
)
LOADS = ("load_adapter", "load_head", "load_fusion", "load_backbone")
SAVES = ("save_adapter", "save_head", "save_fusion", "save_backbone")


class TraceError(Exception):
    """The tracer cannot wrap every call of a function it should trace."""


def program_modules() -> list:
    """Every module of the program, imported, so none is missed."""
    return [adapterdistill] + [importlib.import_module(info.name) for info in
                               pkgutil.iter_modules(adapterdistill.__path__, "adapterdistill.")]


def _held(value):
    """The objects a module-level value holds that a wrapper cannot replace."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    if isinstance(value, type) and value.__module__.startswith("adapterdistill"):
        return [getattr(v, "__func__", v) for v in vars(value).values()]
    if callable(value) and hasattr(value, "__defaults__"):
        return list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
    return []


def _file_size(args, kwargs) -> int:
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return os.path.getsize(path)


def serving_bytes(tdir: Path) -> int:
    """Bytes of the artifact files a route of this tenant actually uses."""
    files = [tdir / "head.bin"]
    if (tdir / "fusion.bin").exists():
        files += [tdir / "fusion.bin"] + sorted(tdir.glob("member_*.bin"))
    else:
        files.append(tdir / "adapter.bin")
    if (tdir / "backbone.bin").exists():
        files.append(tdir / "backbone.bin")
    return sum(f.stat().st_size for f in files if f.exists())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.op_calls = 0
        self.op_s = 0.0
        self.bm25_calls = 0
        self._stack: list[tuple[int, int, str, dict]] = []
        self._next_id = 1
        self._next_request = 1
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _innermost(self, name: str) -> dict | None:
        for _, _, n, attrs in reversed(self._stack):
            if n == name:
                return attrs
        return None

    def _span(self, name: str, fn, args, kwargs, attrs: dict):
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent, request = self._stack[-1][0], self._stack[-1][1]
        else:
            parent, request = None, self._next_request
            self._next_request += 1
        self._stack.append((sid, request, name, attrs))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, request, name, start, end))
            if attrs:
                self.attrs[sid] = attrs

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs, {})
        return wrapper

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(bb, ids, mask, *args, **kwargs):
            attrs = {"tokens_real": float(np.sum(mask)), "tokens_padded": len(ids)}
            return self._span("backbone.forward", fn, (bb, ids, mask) + args, kwargs, attrs)
        return wrapper

    def _route(self, fn):
        @functools.wraps(fn)
        def wrapper(platform, tenant, *args, **kwargs):
            attrs = {"loads": 0, "bytes_read": 0}
            out = self._span("platform.route", fn, (platform, tenant) + args, kwargs, attrs)
            if attrs["loads"]:
                attrs["artifact_bytes"] = serving_bytes(platform.tenant_dir(tenant))
            return out
        return wrapper

    def _load(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            route = self._innermost("platform.route")
            if route is not None:
                route["loads"] += 1
            attrs = {"bytes": _file_size(args, kwargs)}
            return self._span("artifacts.load", fn, args, kwargs, attrs)
        return wrapper

    def _save(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {"bytes": 0}
            out = self._span("artifacts.save", fn, args, kwargs, attrs)
            attrs["bytes"] = _file_size(args, kwargs)
            return out
        return wrapper

    def _op(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_s += time.perf_counter() - start
                self.op_calls += 1
                self._in_op = False
        return wrapper

    def _bm25(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.bm25_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _read_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(path):
            data = fn(path)
            route = self._innermost("platform.route")
            if route is not None:
                route["bytes_read"] += len(data)
            return data
        return wrapper

    # -- patching -------------------------------------------------------------

    def _targets(self) -> list[tuple[object, str, object]]:
        """(defining module or class, function name, wrapper factory)."""
        out = [(tensor_mod, op, self._op) for op in TENSOR_OPS]
        out += [(owner, attr, functools.partial(self._spanned, name))
                for name, owner, attr in SPANNED]
        out += [(artifacts_mod, attr, self._load) for attr in LOADS]
        out += [(artifacts_mod, attr, self._save) for attr in SAVES]
        out += [(backbone_mod.Backbone, "forward", self._forward),
                (platform_mod.Platform, "route", self._route),
                (faq_mod, "bm25_score", self._bm25),
                (pathlib.Path, "read_bytes", self._read_bytes)]
        return out

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = program_modules()
        originals: dict[int, str] = {}
        try:
            for owner, attr, make in self._targets():
                where = f"{owner.__name__}.{attr}"
                original = owner.__dict__.get(attr)
                if original is None:
                    raise TraceError(f"{where} no longer exists; update perfbench/trace.py")
                wrapper = make(original)
                originals[id(original)] = where
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapper)
            for module in modules:
                for name, value in vars(module).items():
                    for held in [value] + _held(value):
                        if id(held) in originals:
                            raise TraceError(f"{module.__name__}.{name} holds "
                                             f"{originals[id(held)]} out of the tracer's reach")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                row = {"id": sid, "parent": parent, "request": request, "name": name,
                       "start": start - self._t0, "end": end - self._t0}
                row.update(self.attrs.get(sid, {}))
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, each divided by the number of operations."""
        parent_of = {s[0]: s[1] for s in self.spans}
        name_of = {s[0]: s[3] for s in self.spans}
        child_s: dict[int, float] = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)

        def outermost(sid: int, name: str) -> bool:
            p = parent_of[sid]
            while p is not None:
                if name_of[p] == name:
                    return False
                p = parent_of[p]
            return True

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if outermost(sid, name):
                busy[name] = busy.get(name, 0.0) + (end - start)
        forward_self = sum(end - start - child_s.get(sid, 0.0)
                           for sid, _, _, name, start, end in self.spans
                           if name == "backbone.forward")

        def attr_sum(name: str, key: str) -> float:
            return sum(self.attrs[s[0]].get(key, 0) for s in self.spans
                       if s[3] == name and s[0] in self.attrs)

        routes = [self.attrs.get(s[0], {}) for s in self.spans if s[3] == "platform.route"]
        misses = [a for a in routes if a.get("loads")]
        n = max(n_ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value / n, unit)

        put("backbone.forward.calls", calls.get("backbone.forward", 0), "calls/op")
        put("backbone.forward.self_ms", 1000 * forward_self, "ms/op")
        put("tensor.ops.calls", self.op_calls, "calls/op")
        put("tensor.ops.ms", 1000 * self.op_s, "ms/op")
        put("backbone.tokens.real", attr_sum("backbone.forward", "tokens_real"), "tokens/op")
        put("backbone.tokens.padded", attr_sum("backbone.forward", "tokens_padded"), "tokens/op")
        for name in ("adapter.forward", "fusion.attend", "tensor.backward",
                     "fusion.distill_loss", "trainer.predict", "artifacts.load",
                     "artifacts.save", "platform.hash_snapshot"):
            put(name + ".calls", calls.get(name, 0), "calls/op")
            put(name + ".ms", 1000 * busy.get(name, 0.0), "ms/op")
        put("artifacts.load.bytes", attr_sum("artifacts.load", "bytes"), "B/op")
        put("artifacts.save.bytes", attr_sum("artifacts.save", "bytes"), "B/op")
        put("trainer.stage1.s", busy.get("trainer.stage1", 0.0), "s/op")
        put("trainer.stage2.calls", calls.get("trainer.stage2", 0), "calls/op")
        put("trainer.stage2.s", busy.get("trainer.stage2", 0.0), "s/op")
        put("trainer.select_eta.s", busy.get("trainer.select_eta", 0.0), "s/op")
        put("trainer.evaluate.s", busy.get("trainer.evaluate", 0.0), "s/op")
        put("faq_data.build_dataset.s", busy.get("faq_data.build_dataset", 0.0), "s/op")
        put("faq_data.build_negatives.s", busy.get("faq_data.build_negatives", 0.0), "s/op")
        put("faq_data.bm25_score.calls", self.bm25_calls, "calls/op")
        put("platform.cache.hits", len(routes) - len(misses), "count/op")
        put("platform.cache.misses", len(misses), "count/op")
        put("platform.miss.bytes_read", sum(a["bytes_read"] for a in misses), "B/op")
        put("platform.miss.artifact_bytes", sum(a["artifact_bytes"] for a in misses), "B/op")
        put("platform.register.s", busy.get("platform.register", 0.0), "s/op")
        return out
