"""The repository benchmark: one workload, timed end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload learn_cold --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The measuring is done by worker processes (``perfbench/worker.py``),
one after the other.  Untraced, :data:`WORKERS` workers each set up and
run every :data:`WORKERS`-th pass, so process-level noise (hash seeds,
memory layout) is averaged into the medians; ``setup_s`` is the median
over the workers of the time from starting the process to the end of
its set-up.  Traced, one worker runs the untraced and the traced passes.
The model sets that ``throughput_warm`` and ``warmstart_service`` load
are built once per source tree under ``perfbench/.cache`` before any
timing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Worker processes of an untraced run; each is one ``setup_s`` sample.
WORKERS = 3
#: Workloads that load the pre-built model sets.
NEEDS_MODELS = ("throughput_warm", "warmstart_service")
#: Seconds a measuring worker may take; building the models may take
#: longer (first run in a checkout only).
WORKER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


def source_digest(src):
    """Content hash of the package under test; keys the model cache."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(src, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_worker(root, args, timeout=WORKER_TIMEOUT_S):
    """Run one worker; returns its JSON report and its start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root])
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args], cwd=root,
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def ensure_models(root):
    """The pre-built model sets for this source tree (built if absent)."""
    cache = os.path.join(HERE, ".cache")
    final = os.path.join(cache, "models-" + source_digest(
        os.path.join(root, "src")))
    if os.path.isdir(final):
        return final
    scratch = os.path.join(cache, f"build-{os.getpid()}")
    try:
        report, _ = run_worker(root, ["--build-models", scratch],
                               timeout=BUILD_TIMEOUT_S)
        os.replace(report["models"], final)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return final


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no source tree at src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, ".work", str(os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.workload in NEEDS_MODELS:
        common += ["--models", ensure_models(root)]
    try:
        if args.trace:
            reports = [run_worker(root, common + [
                "--trace", "--work", os.path.join(work, "trace")])[0]]
            values = dict(reports[0]["metrics"])
        else:
            reports, setups = [], []
            for i in range(WORKERS):
                report, started = run_worker(root, common + [
                    "--share", f"{i}/{WORKERS}",
                    "--work", os.path.join(work, str(i))])
                reports.append(report)
                setups.append(report["setup_end"] - started)
            values = end_to_end(reports, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError("worker metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = all(r["correct"] for r in reports)

    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':42s} {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    for report in reports:
        for seed, digests in report["digests"].items():
            shown = " != ".join(sorted(set(digests)))
            print(f"digest of seed {seed}: {shown}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(reports, setups):
    """The end-to-end metrics of an untraced run's worker reports."""
    walls = [w for r in reports for w in r["walls"]]
    latencies = [ms for r in reports for ms in r["latencies_ms"]]
    quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
    print(f"{'passes':42s} {len(walls)}")
    print(f"{'invocations':42s} {len(latencies)}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "run_ms.p50": quantiles[49],
        "run_ms.p90": quantiles[89],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports
                           if r["walls"]),
    }


if __name__ == "__main__":
    sys.exit(main())
