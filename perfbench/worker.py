"""One benchmark process: set up a workload, run its passes, report.

Started by ``perfbench/run.py`` from the root of the checkout with
``src`` and the root on ``PYTHONPATH``; prints one JSON object as the
last line of its standard output.  Modes:

* default: set up, then run this worker's share of the passes with
  tracing off (``--share i/n``: the passes ``k`` with ``k % n == i``;
  possibly none) and report their wall times and invocation latencies;
* ``--trace``: run the first half of the passes untraced and then
  traced, check that both give the same behaviour digests, and report
  the per-layer metrics;
* ``--build-models DIR``: collect and train the model sets once.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

# repro and the modules importing it are imported inside functions: the
# import is timed (``startup.import_s``) after the audit hook is set.

ROOT = os.getcwd()


def guard_committed_cache():
    """Record every file the process opens under the repository's
    committed ``.repro_cache``; the benchmark must read nothing there."""
    forbidden = os.path.join(os.path.realpath(ROOT), ".repro_cache")
    touched = []

    def hook(event, args):
        if event in ("open", "os.listdir", "os.scandir") and args:
            path = args[0]
            if isinstance(path, (str, bytes, os.PathLike)):
                path = os.path.realpath(os.fsdecode(path))
                if path == forbidden \
                        or path.startswith(forbidden + os.sep):
                    touched.append(path)

    sys.addaudithook(hook)
    return touched


def import_repro():
    """Import the layers under test; returns the seconds it took."""
    started = time.perf_counter()
    import repro
    from perfbench import spans, workloads  # noqa: F401  (imports repro)
    elapsed = time.perf_counter() - started
    source = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(source + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {source}")
    return elapsed


def run_passes(workload, indices, ledgers, recorder=None):
    """Run the given passes; returns their wall times in seconds.

    A pass that raises counts as one failed operation and the run goes
    on with the next pass.
    """
    from perfbench.workloads import probe_invocations
    walls = []
    for k in indices:
        ledger = ledgers[k]
        with probe_invocations(ledger, workload.references):
            started = time.perf_counter()
            try:
                if recorder is None:
                    workload.run_pass(k)
                else:
                    with recorder.installed():
                        workload.run_pass(k)
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            walls.append(time.perf_counter() - started)
        if ok:
            workload.verify(k, ledger)
        else:
            ledger.check(False, f"pass {k} raised")
        workload.cleanup(k)
    return walls


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--share", default="0/1", help="i/n")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--models", help="pre-built model sets")
    parser.add_argument("--work", help="scratch directory of this run")
    parser.add_argument("--build-models", metavar="DIR")
    args = parser.parse_args(argv)

    touched = guard_committed_cache()
    import_s = import_repro()
    from perfbench import spans
    from perfbench.workloads import (WORKLOADS, Ledger, build_models,
                                     pass_seed)

    if args.build_models:
        print(json.dumps({"models": build_models(args.build_models)}))
        return 0

    cls = WORKLOADS[args.workload]
    passes = cls.pass_count(args.seconds)
    if args.trace:
        # Each seed runs untraced, then traced: pass k and pass
        # pairs + k do the same work.
        pairs = passes // 2
        seeds = [pass_seed(args.seed, k) for k in range(pairs)] * 2
    else:
        index, count = (int(x) for x in args.share.split("/"))
        seeds = [pass_seed(args.seed, k)
                 for k in range(index, passes, count)]
    workload = cls(seeds, args.work, models_dir=args.models)
    workload.setup()
    out = {"setup_end": time.monotonic()}

    ledgers = [Ledger() for _ in seeds]
    if not args.trace:
        out["walls"] = run_passes(workload, range(len(seeds)), ledgers)
        out["latencies_ms"] = [ms for ledger in ledgers
                               for ms in ledger.latencies_ms]
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        recorder = spans.SpanRecorder()
        originals = spans.originals()
        untraced_s = sum(run_passes(workload, range(pairs), ledgers))
        traced_s = sum(run_passes(workload, range(pairs, 2 * pairs),
                                  ledgers, recorder))
        restored = spans.originals() == originals
        cache = Counter()
        for ledger in ledgers[pairs:]:
            cache.update(ledger.cache)
        metrics = spans.layer_metrics(recorder, untraced_s, traced_s,
                                      cache)
        metrics["startup.import_s"] = import_s
        metrics["workloads.generate_s"] = workload.generate_s
        out["metrics"] = metrics

    for ledger in ledgers:
        for error in ledger.errors[:10]:
            print(f"failed: {error}", file=sys.stderr)
    for path in sorted(set(touched))[:10]:
        print(f"read under the committed cache: {path}", file=sys.stderr)
    digests = {}
    for seed, ledger in zip(seeds, ledgers):
        digests.setdefault(seed, []).append(ledger.digest())
    out["digests"] = digests
    out["attempted"] = sum(ledger.attempted for ledger in ledgers)
    out["failed"] = sum(ledger.failed for ledger in ledgers)
    # Passes with the same seed -- the untraced and the traced one --
    # must behave identically.
    consistent = all(len(set(d)) == 1 for d in digests.values())
    out["correct"] = (out["failed"] == 0 and consistent and not touched
                      and (not args.trace or restored))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
