"""Timed wrappers around the public functions of each layer.

The traced run of the benchmark patches every function listed in
:func:`_targets` at the name its caller looks it up by, records one
span per call and restores the originals afterwards.  Spans nest per
thread; a span's *self time* is its duration minus the time covered by
the spans it caused (its children on the same thread).

Nothing here touches ``src/``: the wrappers live only for the duration
of :meth:`SpanRecorder.installed`.
"""

import contextlib
import statistics
import threading
import time
from collections import defaultdict

from repro.telemetry import RingBufferSink, Tracer, tracing

#: Ring size of the per-compilation telemetry window.  The tracer's
#: ``pass.*`` spans are drained after every ``JitCompiler.compile``, so
#: a window holds one compilation's passes plus the sampling ticks and
#: controller events since the previous one.
RING_CAPACITY = 1 << 16

#: Span names whose individual durations are kept for percentiles.
SAMPLED = ("jit.compile", "ml.predict", "service.rpc")


def _targets():
    """(owner, attribute, span name) for every wrapped function.

    Each owner is the namespace the caller resolves the name in: a
    class for methods, the importing module for functions imported by
    name (``repro.jit.compiler.generate_il``, not its defining module).
    """
    import repro.collect.session as session
    import repro.ml.pipeline as pipeline
    from repro.codecache.store import CodeCache
    from repro.collect import archive
    from repro.jit import compiler
    from repro.jit.codegen.native import NativeCode
    from repro.jit.ir import ilgen
    from repro.jit.ir.block import ILMethod
    from repro.jit.opt.base import PassManager
    from repro.jvm.vm import VirtualMachine
    from repro.ml.dataset import Scaling
    from repro.ml.model import LevelModel, ModelSet
    from repro.ml.svm.linear import LinearSVC
    from repro.service.client import ModelClient
    return [
        (session.CollectionSession, "run", "collect.session"),
        (archive, "write_archive", "collect.archive_write"),
        (archive, "read_archive", "collect.archive_read"),
        (compiler.JitCompiler, "compile", "jit.compile"),
        (compiler, "generate_il", "jit.ilgen"),
        # The inliner imports generate_il from its module at call time.
        (ilgen, "generate_il", "jit.ilgen"),
        (compiler, "extract_features", "features.extract"),
        (PassManager, "optimize", "jit.opt"),
        (ILMethod, "count_nodes", "jit.opt.count_nodes"),
        (compiler, "lower_method", "jit.codegen"),
        (NativeCode, "superop", "jit.superop"),
        (VirtualMachine, "call", "jvm.call"),
        (NativeCode, "execute", "jvm.native"),
        (pipeline, "rank_records", "ml.rank"),
        (Scaling, "fit", "ml.scale"),
        (Scaling, "transform", "ml.scale"),
        (LinearSVC, "fit", "ml.svm.fit"),
        (ModelSet, "save", "ml.model_io"),
        (ModelSet, "load", "ml.model_io"),
        (LevelModel, "predict_modifier", "ml.predict"),
        (ModelClient, "predict", "service.rpc"),
        (CodeCache, "load", "codecache.load"),
        (CodeCache, "store", "codecache.store"),
    ]


class SpanRecorder:
    """Accumulates span time, self time, call counts and layer counters."""

    def __init__(self):
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.samples = {name: [] for name in SAMPLED}
        #: Free-form counters filled by the exit hooks (records, bytes,
        #: pass runs, per-level compile time, vm.stats deltas...).
        self.counts = defaultdict(int)
        #: Host ns of the ``pass.<name>`` telemetry spans, by pass name.
        self.pass_ns = defaultdict(int)
        #: Main-thread time covered by spans with no parent span: the
        #: sum of every main-thread self time.
        self.covered_ns = 0
        self.dropped_events = 0
        self.tracer = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, frame, dur):
        child_ns = frame[0]
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(dur)
        stack = self._stack()
        if stack:
            stack[-1][0] += dur
        elif threading.current_thread() is self._main:
            self.covered_ns += dur

    def wrap(self, name, fn):
        """*fn* timed as a span called *name*; hooks run on return."""
        enter = _ENTER_HOOKS.get(name)
        leave = _EXIT_HOOKS.get(name)
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = enter(args) if enter is not None else None
            stack = self._stack()
            frame = [0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                self._close(name, frame, dur)
            if leave is not None:
                leave(self, args, kwargs, result, dur, token)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function and run the repository tracer.

        The originals are restored on exit, in reverse order, even when
        the body raises.
        """
        self.tracer = Tracer(sink=RingBufferSink(RING_CAPACITY))
        try:
            for owner, attr, name in _targets():
                self._patch(owner, attr, name)
            with tracing(self.tracer):
                yield self
        finally:
            self.restore()
            self.drain()

    def _patch(self, owner, attr, name):
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def drain(self):
        """Fold the tracer's buffered ``pass.*`` spans into
        :attr:`pass_ns` and start an empty window."""
        tracer = self.tracer
        if tracer is None:
            return
        sink = tracer.sink
        for event in sink.events():
            if event["ph"] == "X" and event["name"].startswith("pass."):
                self.pass_ns[event["name"][5:]] += event["dur"]
        self.dropped_events += sink.dropped
        tracer.sink = RingBufferSink(RING_CAPACITY)


def originals():
    """The currently installed object behind every wrapped name."""
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _name in _targets()}


# -- exit hooks: counters read from arguments and results -----------------

def _compile_exit(rec, args, kwargs, result, dur, token):
    level = args[2] if len(args) > 2 else kwargs["level"]
    rec.counts["jit.compile_ns." + level.name.lower()] += dur
    rec.drain()


def _opt_exit(rec, args, kwargs, result, dur, token):
    log = result[2]
    rec.counts["jit.opt.pass_runs"] += len(log)
    rec.counts["jit.opt.pass_changed"] += sum(1 for _e, ch in log if ch)


def _session_exit(rec, args, kwargs, result, dur, token):
    rec.counts["collect.records"] += len(result.records)


def _archive_write_exit(rec, args, kwargs, result, dur, token):
    rec.counts["collect.archive_bytes"] += result


def _svm_exit(rec, args, kwargs, result, dur, token):
    rec.counts["ml.svm.epochs"] += result.epochs_run
    rec.counts["ml.svm.example_epochs"] += (len(args[1])
                                            * result.epochs_run)


_VM_STATS = ("retired_instructions", "interp_steps", "superop_blocks")


def _vm_enter(args):
    stats = args[0].stats
    return [stats[k] for k in _VM_STATS]


def _vm_exit(rec, args, kwargs, result, dur, token):
    stats = args[0].stats
    for key, before in zip(_VM_STATS, token):
        rec.counts["jvm." + key] += stats[key] - before


_ENTER_HOOKS = {"jvm.call": _vm_enter}
_EXIT_HOOKS = {
    "jit.compile": _compile_exit,
    "jit.opt": _opt_exit,
    "collect.session": _session_exit,
    "collect.archive_write": _archive_write_exit,
    "ml.svm.fit": _svm_exit,
    "jvm.call": _vm_exit,
}


# -- per-layer metrics -----------------------------------------------------

LEVELS = ("cold", "warm", "hot", "very_hot", "scorching")


def percentile(values, q):
    """The *q*-th percentile (1..99) of *values*, interpolated as
    ``statistics.quantiles(method="inclusive")`` does; 0.0 if empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, untraced_s, traced_s, cache):
    """Per-layer values of the traced passes, by metric name.

    *untraced_s* and *traced_s* are the wall times of the same passes
    run without and with the wrappers; *cache* sums the
    :class:`~repro.codecache.CacheStats` of the traced invocations.
    The set-up metrics (``startup.import_s``, ``workloads.generate_s``)
    are the caller's.
    """
    from repro.jit.opt.registry import transform_names

    def sec(name):
        return rec.total_ns[name] / 1e9

    calls, counts = rec.calls, rec.counts
    out = {}
    session_s = sec("collect.session")
    out["collect.session_s"] = session_s
    out["collect.records"] = counts["collect.records"]
    out["collect.records_per_s"] = _ratio(counts["collect.records"],
                                          session_s)
    out["collect.archive_write_s"] = sec("collect.archive_write")
    out["collect.archive_read_s"] = sec("collect.archive_read")
    out["collect.archive_bytes"] = counts["collect.archive_bytes"]

    compile_ms = [d / 1e6 for d in rec.samples["jit.compile"]]
    out["jit.compiles"] = calls["jit.compile"]
    out["jit.compile_s"] = sec("jit.compile")
    out["jit.compile_ms.p50"] = percentile(compile_ms, 50)
    out["jit.compile_ms.p99"] = percentile(compile_ms, 99)
    for level in LEVELS:
        out[f"jit.compile_s.{level}"] = \
            counts["jit.compile_ns." + level] / 1e9
    out["jit.ilgen_s"] = sec("jit.ilgen")
    out["jit.ilgen_calls"] = calls["jit.ilgen"]
    out["features.extract_s"] = sec("features.extract")
    out["features.calls"] = calls["features.extract"]
    out["jit.opt_s"] = sec("jit.opt")
    runs = counts["jit.opt.pass_runs"]
    changed = counts["jit.opt.pass_changed"]
    out["jit.opt.pass_runs"] = runs
    out["jit.opt.pass_changed"] = changed
    out["jit.opt.changed_ratio"] = _ratio(changed, runs)
    out["jit.opt.count_nodes_s"] = sec("jit.opt.count_nodes")
    out["jit.opt.count_nodes_calls"] = calls["jit.opt.count_nodes"]
    for name in transform_names():
        out[f"jit.pass.{name}_s"] = rec.pass_ns[name] / 1e9
    out["jit.codegen_s"] = sec("jit.codegen")
    out["jit.superop_s"] = sec("jit.superop")
    out["jit.superop_builds"] = calls["jit.superop"]

    # Guest execution: self time of the entry call (interpreter plus
    # controller bookkeeping) and of compiled bodies (native/superop).
    interp = rec.self_ns["jvm.call"] / 1e9
    native = rec.self_ns["jvm.native"] / 1e9
    retired = counts["jvm.retired_instructions"]
    steps = counts["jvm.interp_steps"]
    out["jvm.exec_s"] = interp + native
    out["jvm.native_s"] = native
    out["jvm.interp_s"] = interp
    out["jvm.retired_instructions"] = retired
    out["jvm.interp_steps"] = steps
    out["jvm.superop_blocks"] = counts["jvm.superop_blocks"]
    out["jvm.ns_per_instr"] = _ratio((interp + native) * 1e9,
                                     retired + steps)

    fit_s = sec("ml.svm.fit")
    out["ml.rank_s"] = sec("ml.rank")
    out["ml.scale_s"] = sec("ml.scale")
    out["ml.svm.fit_s"] = fit_s
    out["ml.svm.fits"] = calls["ml.svm.fit"]
    out["ml.svm.epochs"] = counts["ml.svm.epochs"]
    out["ml.svm.example_epochs_per_s"] = _ratio(
        counts["ml.svm.example_epochs"], fit_s)
    out["ml.model_io_s"] = sec("ml.model_io")
    out["ml.predict_s"] = sec("ml.predict")
    out["ml.predictions"] = calls["ml.predict"]
    out["ml.predict_us.p50"] = percentile(
        [d / 1e3 for d in rec.samples["ml.predict"]], 50)

    rpc_us = [d / 1e3 for d in rec.samples["service.rpc"]]
    out["service.rpc_s"] = sec("service.rpc")
    out["service.requests"] = calls["service.rpc"]
    out["service.rpc_us.p50"] = percentile(rpc_us, 50)
    out["service.rpc_us.p99"] = percentile(rpc_us, 99)

    probes = cache["hits"] + cache["misses"]
    out["codecache.load_s"] = sec("codecache.load")
    out["codecache.store_s"] = sec("codecache.store")
    out["codecache.probes"] = probes
    out["codecache.hit_rate"] = _ratio(cache["hits"], probes)
    out["codecache.stores"] = cache["stores"]
    out["codecache.bytes_written"] = cache["bytes_compressed"]

    out["trace.overhead"] = traced_s / untraced_s - 1.0
    out["trace.coverage"] = rec.covered_ns / 1e9 / traced_s
    out["trace.dropped_events"] = rec.dropped_events
    return out
