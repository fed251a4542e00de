"""The three workloads, their set-up, measurement loops and checks.

One closed-loop client in one process calls the program's public API;
`Platform.route` is a synchronous library call, so there is no server or
queue.  Every run sets up the same serving population five times
(`setup_s` is the median) and measures whole rounds of its workload's
operations until `seconds` have passed.  The output format asks
for every end-to-end metric on every workload, so a workload whose own
operation is not routing or registering takes that figure from its
set-up or from a serving probe (see README.md).
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import adapterdistill.faq_data as faq_data
from adapterdistill import Platform, TrainConfig

from . import checks, inputs, reference
from .trace import Tracer

# Set-up registers the serving population with one epoch and, for the
# distill tenant, a fixed eta; the register workload uses the default grid.
SETUP_CONFIG = TrainConfig(epochs=1, eta=1.0)
REGISTER_CONFIG = TrainConfig(epochs=1)
COLD_CACHE = len(inputs.POPULATION) - 1  # round-robin over one more tenant: every route misses
SPLITS = ("train", "val", "test")
PROBE_ROUNDS = 3
EXTRA_SETUPS = 4  # set-ups spread over the timed rounds, after the first


class SetupError(Exception):
    """Set-up failed, so the run cannot measure anything."""


class Run:
    """Counts operations and collects timings for one benchmark run."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.inputs = inputs.make_inputs(seed)
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # time inside operations, checks excluded
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.setup_build_s: list[float] = []
        self.setup_register_s: list[float] = []
        self.setup_rows: dict[str, list] = {}  # tenant -> first set-up's build_dataset rows
        self.route_ms: list[float] = []
        # pairs and time inside route / evaluate_tenant over the timed rounds
        self.route_pairs, self.route_s = 0, 0.0
        self.bulk_pairs, self.bulk_s = 0, 0.0
        self.register_s: list[float] = []

    def call(self, fn, *args):
        """Run one operation; returns (ok, result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            ok, result = False, None
        else:
            ok = True
        dt = time.perf_counter() - start
        self.busy_s += dt
        return ok, result, dt

    def setup(self, name: str) -> Path:
        """Build and register the serving population in a fresh directory."""
        root = self.workdir / name
        built = {}
        start = time.perf_counter()
        platform = Platform(root)
        for tenant, mode in inputs.POPULATION:
            ok, pairs, dt = self.call(faq_data.build_dataset, self.inputs.tenant_kbs[tenant])
            self.setup_build_s.append(dt)
            if not ok:
                raise SetupError(f"build_dataset for {tenant}")
            built[tenant] = pairs
            ok, _, dt = self.call(platform.register_tenant, tenant, pairs, mode, SETUP_CONFIG)
            if not ok:
                raise SetupError(f"register_tenant for {tenant}")
            if mode == "adapter_distill":
                self.setup_register_s.append(dt)
        self.setup_s.append(time.perf_counter() - start)
        self.check_builds(built)
        return root

    def check_builds(self, built: dict) -> None:
        """The first set-up's datasets are checked in full (every query's
        negatives against brute-force BM25); later set-ups must repeat them."""
        for tenant, pairs in built.items():
            rows = [(e.id, e.query, e.candidate, e.label, e.split) for e in pairs.examples]
            first = self.setup_rows.setdefault(tenant, rows)
            if first is rows:
                queries = sorted({q for _, q, _, y, _ in rows if y == 0})
                self.problems += checks.dataset_valid(self.inputs.tenant_kbs[tenant], rows, queries)
            elif rows != first:
                self.problems.append(f"build_dataset for {tenant} differs between set-ups")


# ---------------------------------------------------------------------------
# serving

class Serving:
    """The request stream plus evaluate_tenant on every stored split."""

    def __init__(self, run: Run, root: Path, cache_capacity: int | None = None):
        """`cache_capacity` None keeps the program's default bundle cache."""
        self.run = run
        self.root = root
        self.platform = (Platform(root) if cache_capacity is None
                         else Platform(root, cache_capacity=cache_capacity))
        self.stream = run.inputs.stream
        self.tenants = [name for name, _ in inputs.POPULATION]
        self.data = {name: reference.read_pairs(root / "tenants" / name / "data.tsv")
                     for name in self.tenants}
        self.routed: dict[tuple, float] = {}
        self.accuracy: dict[tuple, float] = {}
        self.split_sizes = {(name, split): sum(r[4] == split for r in rows)
                            for name, rows in self.data.items() for split in SPLITS}
        self.pairs_per_round = len(self.stream) + sum(self.split_sizes.values())

    def _keep(self, table: dict, key, value, what: str) -> None:
        first = table.setdefault(key, value)
        if first != value:
            self.run.problems.append(f"{what} {key}: {value!r} after {first!r}")

    def round(self, timed: bool) -> int:
        run = self.run
        for key in self.stream:
            ok, p, dt = run.call(self.platform.route, *key)
            if ok:
                self._keep(self.routed, key, p, "route")
                if timed:
                    run.route_ms.append(1000.0 * dt)
                    run.route_pairs += 1
                    run.route_s += dt
        for name in self.tenants:
            for split in SPLITS:
                ok, report, dt = run.call(self.platform.evaluate_tenant, name, split)
                if ok:
                    self._keep(self.accuracy, (name, split), report.accuracy, "accuracy")
                    if timed:
                        run.bulk_pairs += self.split_sizes[(name, split)]
                        run.bulk_s += dt
        return self.pairs_per_round

    def check(self, baseline: Platform | None = None) -> None:
        """Reference probabilities for every routed pair; evaluate_tenant
        accuracy from routed probabilities; optionally bit-identity with a
        platform whose cache holds every tenant."""
        run = self.run
        ref = reference.ReferenceModel(self.root)
        served = dict(self.routed)
        for name in self.tenants:
            for split in SPLITS:
                rows = [r for r in self.data[name] if r[4] == split]
                probs = []
                for _, q, c, _, _ in rows:
                    ok, p, _ = run.call(self.platform.route, name, q, c)
                    if ok:
                        served[(name, q, c)] = p
                        probs.append(p)
                if (name, split) in self.accuracy and len(probs) == len(rows):
                    run.problems += checks.accuracy_matches(
                        self.accuracy[(name, split)], probs, [r[3] for r in rows])
        run.problems += checks.probs_match_reference(
            served, {key: ref.prob(*key) for key in served})
        if baseline is not None:
            hot = {}
            for key in served:
                ok, p, _ = run.call(baseline.route, *key)
                if ok:
                    hot[key] = p
            run.problems += checks.bit_identical(served, hot)


# ---------------------------------------------------------------------------
# registration

class Register:
    """adapter_distill registrations onto copies of one teacher platform."""

    def __init__(self, run: Run, template: Path):
        self.run = run
        self.template = template
        self.prior = [name for name, _ in inputs.POPULATION]
        self.count = 0

    def round(self, timed: bool) -> int:
        run = self.run
        work = run.workdir / f"register-{self.count}"
        self.count += 1
        shutil.copytree(self.template, work)
        platform = Platform(work)
        before = checks.snapshot(work, self.prior)
        name = inputs.REGISTER_TENANT
        ok, _, dt = run.call(platform.register_tenant, name, run.inputs.register_kb,
                             "adapter_distill", REGISTER_CONFIG)
        if ok:
            if timed:
                run.register_s.append(dt)
            cfg = platform.backbone.config
            tdir = platform.tenant_dir(name)
            run.problems += checks.prior_unchanged(before, checks.snapshot(work, self.prior))
            run.problems += checks.distill_files_sized(
                tdir, name, cfg.num_layers, cfg.hidden_dim, REGISTER_CONFIG.bottleneck_dim)
            run.problems += checks.eta_in_grid(tdir / "report.txt")
        shutil.rmtree(work)
        return 1


# ---------------------------------------------------------------------------
# measurement

def _rounds(run: Run, step, seconds: float, timed: bool) -> tuple[float, int]:
    """Whole rounds until `seconds` have passed (at least one).  Returns
    the time spent inside operations and the units of work done."""
    units = 0
    start = time.perf_counter()
    busy = run.busy_s
    while time.perf_counter() - start < seconds or not units:
        units += step(timed)
    return run.busy_s - busy, units


def _measure(run: Run, step, seconds: float) -> None:
    """Timed whole rounds for `seconds`, not counting EXTRA_SETUPS more
    set-ups: one after the first round that ends past each k/EXTRA_SETUPS
    of `seconds`.  Spacing the set-ups out lets a fast or slow spell of the
    machine move the set-up figures less than set-ups in a row would."""
    start = time.perf_counter()
    setups_s = 0.0
    done = 0
    while done < EXTRA_SETUPS:
        step(True)
        measured = time.perf_counter() - start - setups_s
        while done < EXTRA_SETUPS and measured >= seconds * (done + 1) / EXTRA_SETUPS:
            t0 = time.perf_counter()
            shutil.rmtree(run.setup(f"setup-{done}"))
            setups_s += time.perf_counter() - t0
            done += 1


def tail_quantile(values: list[float]) -> tuple[float, float]:
    """(q, value) for the highest percentile up to 99 that keeps at least
    ten samples beyond it."""
    q = min(0.99, 1.0 - 10.0 / len(values))
    return q, float(np.quantile(values, q))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, trace_path: Path) -> tuple[Run, dict, list[str]]:
    """Returns (run, metrics name -> (value, unit), notes to print)."""
    run = Run(seed, workdir)
    template = run.setup("population")
    if workload in ("serve_hot", "serve_cold"):
        serving = Serving(run, template, COLD_CACHE if workload == "serve_cold" else None)
        serving.round(timed=False)  # warm-up
        step = serving.round
    else:
        main = Register(run, template)
        step = main.round
        serving = None if trace else Serving(run, template)
        if serving is not None:
            # The serving probe: PROBE_ROUNDS rounds after each operation,
            # so its samples spread over the whole run.
            serving.round(timed=False)

            def step(timed: bool) -> int:
                units = main.round(timed)
                for _ in range(PROBE_ROUNDS):
                    serving.round(timed)
                return units

    notes: list[str] = []
    if trace:
        plain_s, plain_units = _rounds(run, step, seconds / 2, timed=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced_units = _rounds(run, step, seconds / 2, timed=False)
        finally:
            tracer.uninstall()
        tracer.write(trace_path)
        metrics = tracer.layer_metrics(traced_units)
        overhead = (traced_s / traced_units) / (plain_s / plain_units) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        notes.append(f"traced {traced_units} ops in {traced_s:.2f} s, "
                     f"untraced {plain_units} ops in {plain_s:.2f} s; spans in {trace_path}")
    else:
        _measure(run, step, seconds)
        metrics = end_to_end(run, workload, notes)

    if serving is not None:
        baseline = Platform(template) if workload == "serve_cold" else None
        serving.check(baseline)
    return run, metrics, notes


def end_to_end(run: Run, workload: str, notes: list[str]) -> dict:
    q, tail = tail_quantile(run.route_ms)
    register = run.register_s if workload == "register" else run.setup_register_s
    notes.append(f"route samples {len(run.route_ms)}, tail percentile p{100 * q:.2f}; "
                 f"register samples {len(register)}; build samples {len(run.setup_build_s)}; "
                 f"setup samples {len(run.setup_s)}")
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "route_p50_ms": (statistics.median(run.route_ms), "ms"),
        "route_p99_ms": (tail, "ms"),
        "route_pairs_per_s": (run.route_pairs / run.route_s, "pairs/s"),
        "bulk_pairs_per_s": (run.bulk_pairs / run.bulk_s, "pairs/s"),
        "register_s": (statistics.median(register), "s"),
        "build_dataset_s": (statistics.median(run.setup_build_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
