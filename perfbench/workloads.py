"""The benchmark's three workloads: set-up, timed pass, verification.

Every workload sets up once (imports, program generation, interpret-only
reference results, pre-built models), then runs a number of *passes*.  A
pass is the timed region; :meth:`Workload.verify` checks its outputs
afterwards and folds them into the pass's behaviour digest.

The programs are the fixed benchmark suite, generated with master seed
:data:`SUITE_SEED` exactly as ``repro figures`` generates them by
default.  The run's seed drives what the paper's methodology randomizes
between experiments: the collection modifier streams, the replication
jitter of the evaluation, and the sampling interval of each warm-start
invocation.  (Drawing new programs per seed moved the figures by 10-15%
from seed to seed, more than any change the benchmark should detect.)

* ``learn_cold`` -- Figure 6 from an empty cache: collect the five
  training programs, write the archives, train and save H1..H5,
  evaluate start-up on the eight SPEC-like programs, then read the
  archives and models back.
* ``throughput_warm`` -- Figure 10 with pre-built models: ten iterations
  per JVM invocation, baseline plus the applicable models.
* ``warmstart_service`` -- for each of the 20 programs, a cold start-up
  run storing into an empty code cache, then a warm run loading from
  it, with every prediction made over the model-service pipe protocol.
"""

import contextlib
import hashlib
import importlib
import os
import shutil
import time
from collections import Counter

import numpy as np

from repro import workloads
from repro.codecache import CodeCache, CodeCacheConfig
from repro.collect import archive
from repro.collect.session import CollectionSession
from repro.experiments.context import PRESETS, EvaluationContext
from repro.experiments.evaluation import evaluate_suite, format_results
from repro.experiments.figures import (STARTUP_ITERATIONS,
                                       THROUGHPUT_ITERATIONS)
from repro.jit.control import ControlConfig
from repro.jvm.vm import DEFAULT_SAMPLE_INTERVAL, VirtualMachine
from repro.ml.model import ModelSet
from repro.ml.pipeline import leave_one_out_models
from repro.rng import RngStreams
from repro.service.client import connected_pair
from repro.service.strategy import ServiceStrategy

# The package re-exports the ``measure`` function under the submodule's
# name, so the module itself is looked up by its full name.
measure = importlib.import_module("repro.experiments.measure")

PRESET = "quick"
#: Master seed of the benchmark programs and of the pre-built models.
SUITE_SEED = 0
#: ``MeasurementConfig.entry_arg``: the argument every invocation gets.
ENTRY_ARG = 3


def pass_seed(seed, k):
    """Master seed of pass *k* of a run with seed *seed*."""
    return seed * 1000 + k


def generate_suite(suites):
    """The benchmark programs of the named suites, in a fixed order."""
    programs = []
    if "specjvm" in suites:
        programs += [workloads.specjvm_program(n, master_seed=SUITE_SEED)
                     for n in workloads.SPECJVM_BENCHMARKS]
    if "dacapo" in suites:
        programs += [workloads.dacapo_program(n, master_seed=SUITE_SEED)
                     for n in workloads.DACAPO_BENCHMARKS]
    return programs


def reference_result(program, iterations):
    """The program's result from an interpret-only VM (no JIT attached).

    This is the independent reference every timed invocation must
    reproduce: it shares no compiler code with the runs it checks.
    """
    vm = VirtualMachine()
    vm.load_program(program)
    result = None
    for _ in range(iterations):
        result = vm.call(program.entry, ENTRY_ARG)
    return result


class Ledger:
    """Operations attempted and failed in one pass, plus its digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies_ms = []
        self.cache = Counter()
        self._hash = hashlib.sha256()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def feed(self, *items):
        for item in items:
            self._hash.update(repr(item).encode("utf-8"))
            self._hash.update(b"\0")

    def digest(self):
        return self._hash.hexdigest()


@contextlib.contextmanager
def probe_invocations(ledger, references):
    """Time and check every JVM invocation made through ``run_once``.

    ``measure()`` resolves ``run_once`` in its module at call time, so
    patching the module attribute reaches every invocation of the
    figure code as well as the workloads' direct calls.  *references*
    maps ``(id(program), iterations)`` to the interpret-only result.
    """
    original = measure.run_once

    def timed_run_once(program, *args, **kwargs):
        iterations = kwargs.get("iterations", 1)
        start = time.perf_counter()
        run = original(program, *args, **kwargs)
        ledger.latencies_ms.append((time.perf_counter() - start) * 1e3)
        expected = references[(id(program), iterations)]
        ledger.check(run.result_value == expected,
                     f"{program.name}: result {run.result_value!r} != "
                     f"reference {expected!r}")
        ledger.feed(program.name, run.total_cycles, run.compile_cycles,
                    run.compilations)
        if run.cache_stats:
            ledger.cache.update({k: v for k, v in run.cache_stats.items()
                                 if isinstance(v, int)})
        return run

    measure.run_once = timed_run_once
    try:
        yield
    finally:
        measure.run_once = original


def records_key(record_set):
    """A record set's content as the archive format stores it."""
    return [(r.signature, r.level, r.modifier_bits, r.compile_cycles,
             r.running_cycles, r.invocations,
             np.asarray(r.features, dtype=np.float32).tobytes())
            for r in record_set.records]


def load_models(models_dir):
    """The pre-built H1..H5 model sets under *models_dir*."""
    return {name: ModelSet.load(os.path.join(models_dir, name))
            for name in sorted(os.listdir(models_dir))}


def build_models(directory):
    """Collect and train H1..H5 once, as ``repro figures`` does.

    Returns the directory holding one sub-directory per model set.
    """
    ctx = EvaluationContext(preset=PRESET, master_seed=SUITE_SEED,
                            cache_dir=os.path.join(directory, "cache"))
    models_dir = os.path.join(directory, "models")
    for name, model_set in ctx.model_sets().items():
        model_set.save(os.path.join(models_dir, name))
    return models_dir


class Workload:
    """One workload of the benchmark (see the module docstring)."""

    name = None
    #: Approximate seconds of one pass; ``--seconds`` divided by this
    #: gives the number of passes (at least two).
    nominal_pass_s = None
    #: Benchmark suites whose programs the workload runs.
    suites = ("specjvm",)
    #: Internal iterations per JVM invocation.
    iterations = STARTUP_ITERATIONS

    def __init__(self, pass_seeds, work_dir, models_dir=None,
                 preset=PRESET):
        """*pass_seeds* gives the master seed of each pass; passes with
        the same seed must behave identically."""
        self.pass_seeds = list(pass_seeds)
        self.work_dir = work_dir
        self.models_dir = models_dir
        self.preset = preset
        self.programs = []
        #: (id(program), iterations) -> interpret-only result.
        self.references = {}
        self.generate_s = 0.0
        self.outputs = {}

    @classmethod
    def pass_count(cls, seconds):
        return max(2, int(seconds // cls.nominal_pass_s))

    def pass_dir(self, k):
        return os.path.join(self.work_dir, f"pass-{k}")

    def setup(self):
        started = time.perf_counter()
        self.programs = generate_suite(self.suites)
        self.generate_s = time.perf_counter() - started
        self.by_name = {p.name: p for p in self.programs}
        for program in self.programs:
            self.references[(id(program), self.iterations)] = \
                reference_result(program, self.iterations)

    def run_pass(self, k):
        """The timed region of pass *k*."""
        raise NotImplementedError

    def verify(self, k, ledger):
        """Check pass *k*'s outputs and digest them (untimed)."""

    def cleanup(self, k):
        self.outputs.pop(k, None)
        shutil.rmtree(self.pass_dir(k), ignore_errors=True)


class LearnCold(Workload):
    """What a cold ``repro figures figure6`` does, step by step."""

    name = "learn_cold"
    nominal_pass_s = 14.0

    def run_pass(self, k):
        seed = self.pass_seeds[k]
        directory = self.pass_dir(k)
        ctx = EvaluationContext(preset=self.preset, master_seed=seed,
                                cache_dir=directory)
        config = ctx.collection_config()
        os.makedirs(os.path.join(directory, "archives"))
        record_sets = {}
        for name in workloads.SPECJVM_TRAINING:
            session = CollectionSession(self.by_name[name], config,
                                        master_seed=seed)
            records = session.run()
            if session.crashed:
                continue  # not trained on; verify() counts it
            archive.write_archive(self._archive(k, name), records)
            record_sets[name] = records
        model_sets = leave_one_out_models(record_sets)
        for name, model_set in model_sets.items():
            model_set.save(self._models(k, name))
        results = evaluate_suite(self.programs, model_sets,
                                 iterations=self.iterations,
                                 replications=ctx.replications,
                                 master_seed=seed)
        # What the next ``repro figures`` run does: read them back.
        records_back = {name: archive.read_archive(self._archive(k, name))
                        for name in record_sets}
        models_back = {name: ModelSet.load(self._models(k, name))
                       for name in model_sets}
        self.outputs[k] = (record_sets, model_sets, results,
                           records_back, models_back)

    def _archive(self, k, name):
        return os.path.join(self.pass_dir(k), "archives", f"{name}.trca")

    def _models(self, k, name):
        return os.path.join(self.pass_dir(k), "models", name)

    def verify(self, k, ledger):
        record_sets, model_sets, results, records_back, models_back = \
            self.outputs[k]
        for name in workloads.SPECJVM_TRAINING:
            ledger.check(name in record_sets,
                         f"collection session {name} crashed")
        for name in sorted(record_sets):
            ledger.check(records_key(records_back[name])
                         == records_key(record_sets[name]),
                         f"archive {name} read back differently")
            with open(self._archive(k, name), "rb") as fh:
                ledger.feed(name, hashlib.sha256(fh.read()).hexdigest())
        for name in sorted(model_sets):
            digest = model_sets[name].digest()
            ledger.check(models_back[name].digest() == digest,
                         f"model set {name} loaded back differently")
            ledger.feed(name, digest)
        ledger.feed(format_results(results))


class ThroughputWarm(Workload):
    """Figure 10's evaluation on the pre-built models."""

    name = "throughput_warm"
    nominal_pass_s = 12.0
    iterations = THROUGHPUT_ITERATIONS

    def setup(self):
        super().setup()
        self.model_sets = load_models(self.models_dir)

    def run_pass(self, k):
        self.outputs[k] = evaluate_suite(
            self.programs, self.model_sets, iterations=self.iterations,
            replications=PRESETS[self.preset]["replications"],
            master_seed=self.pass_seeds[k])

    def verify(self, k, ledger):
        ledger.feed(format_results(self.outputs[k]))


class WarmstartService(Workload):
    """Cold then warm code-cache start-up, predictions over the pipe."""

    name = "warmstart_service"
    nominal_pass_s = 0.85
    suites = ("specjvm", "dacapo")
    #: The served model set (trained without compress).
    served_model = "H1"

    def setup(self):
        super().setup()
        self.model_set = ModelSet.load(
            os.path.join(self.models_dir, self.served_model))

    def run_pass(self, k):
        # Like measure()'s replications, each program's pair of runs
        # gets a jittered sampling interval: it changes JIT timing.
        rng = RngStreams(self.pass_seeds[k]).get("warmstart")
        jitter = measure.MeasurementConfig().sample_jitter
        client, server, thread = connected_pair(self.model_set)
        try:
            for i, program in enumerate(self.programs):
                interval = int(DEFAULT_SAMPLE_INTERVAL
                               * (1.0 + rng.uniform(-jitter, jitter)))
                directory = os.path.join(self.pass_dir(k), str(i))
                for config in (ControlConfig(cache_profiles=True),
                               ControlConfig(cache_tiering=True,
                                             cache_profiles=True)):
                    measure.run_once(
                        program, strategy=ServiceStrategy(client),
                        sample_interval=interval, control_config=config,
                        code_cache=CodeCache(CodeCacheConfig(
                            enabled=True, directory=directory)))
        finally:
            client.shutdown()
            thread.join(timeout=10)
            client.close()
            for fd in (server.read_fd, server.write_fd):
                os.close(fd)


WORKLOADS = {cls.name: cls
             for cls in (LearnCold, ThroughputWarm, WarmstartService)}
