"""Self-tests of the benchmark: failure accounting, metric names, wrappers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

from perfbench import spans
from perfbench.worker import run_passes
from perfbench.workloads import (
    WORKLOADS,
    Ledger,
    measure,
    probe_invocations,
    reference_result,
)
from repro.errors import VMError
from repro.experiments.context import EvaluationContext
from repro.jit.compiler import JitCompiler
from repro.jit.plans import OptLevel
from repro.jvm.vm import VirtualMachine
from repro.workloads import specjvm_program

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_crashed_collection_session_counts_as_failed(tmp_path, monkeypatch):
    original = EvaluationContext.collection_config

    def fragile(self, search=None):
        config = original(self, search)
        config.fragility = lambda modifier, level: True
        return config

    monkeypatch.setattr(EvaluationContext, "collection_config", fragile)
    workload = WORKLOADS["learn_cold"]([0], str(tmp_path),
                                       preset="tiny")
    workload.setup()
    ledger = Ledger()
    run_passes(workload, [0], [ledger])
    assert ledger.errors == [f"collection session {name} crashed"
                             for name in ("compress", "db", "mpegaudio",
                                          "mtrt", "raytrace")]
    assert ledger.failed == 5
    # The baseline evaluation still ran, and matched its references.
    assert ledger.attempted > ledger.failed


def test_result_mismatch_counts_as_failed():
    original = measure.run_once
    program = specjvm_program("compress")
    right = {(id(program), 1): reference_result(program, 1)}
    wrong = {(id(program), 1): "not the result"}
    config = measure.MeasurementConfig(replications=2)
    for references, failed in ((right, 0), (wrong, 2)):
        ledger = Ledger()
        with probe_invocations(ledger, references):
            measure.measure(program, None, config)
        assert (ledger.attempted, ledger.failed) == (2, failed)
        assert len(ledger.latencies_ms) == 2
    assert measure.run_once is original


def test_layer_metric_names_match_benchmark_json():
    values = spans.layer_metrics(spans.SpanRecorder(), 1.0, 1.0,
                                 {"hits": 0, "misses": 0, "stores": 0,
                                  "bytes_compressed": 0})
    values["startup.import_s"] = values["workloads.generate_s"] = 0.0
    assert sorted(values) == sorted(m["name"] for m in spec()["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "warmstart_service", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    for line in (m["name"] for m in wanted):
        assert line in proc.stdout


def test_wrappers_are_gone_after_a_traced_run():
    before = spans.originals()
    program = specjvm_program("compress")
    vm = VirtualMachine()
    vm.load_program(program)
    method = vm.lookup(program.entry)

    def resolver(signature):
        try:
            return vm.lookup(signature)
        except VMError:
            return None

    compiler = JitCompiler(method_resolver=resolver)
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed():
            assert spans.originals() != before
            compiler.compile(method, OptLevel.WARM)
            raise RuntimeError("pass aborted")
    assert spans.originals() == before
    assert recorder.calls["jit.compile"] == 1
    assert recorder.calls["jit.opt"] == 1
    assert recorder.dropped_events == 0
    assert sum(recorder.pass_ns.values()) > 0


def test_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: inner() + inner())
    outer()
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.self_ns["outer"] == (recorder.total_ns["outer"]
                                         - recorder.total_ns["inner"])
    assert recorder.covered_ns == recorder.total_ns["outer"]
