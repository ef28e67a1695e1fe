"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload library_hot --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer metrics.  The lines before it give the raw and
drift-corrected values, the correction factors, the operation accounting
and, when traced, a per-layer summary and the path of the span file.  The
exit code is 0 only when every checked answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("library_hot", "service_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.common import REFERENCE_NOMINAL_S
    from perfbench.workloads import WORKLOADS, Bench

    tracer = remove = None
    if args.trace:
        from perfbench.spans import Tracer, install

        tracer = Tracer()
        remove = install(tracer)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.seed, args.seconds, workdir, tracer)
        WORKLOADS[args.workload](bench)
    finally:
        if remove is not None:
            remove()
        shutil.rmtree(workdir, ignore_errors=True)

    log = bench.log
    corrected = log.end_to_end("corrected")
    raw = log.end_to_end("raw")
    tails = log.tail_descriptions()
    factors = sorted(log.factors)
    quartiles = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    print(f"workload {args.workload} seed {args.seed}: {log.rounds} rounds, "
          f"{log.reads} timed reads, {log.writes} timed writes")
    print(f"drift correction c_nominal/c_round (c_nominal={REFERENCE_NOMINAL_S} s): "
          f"median {statistics.median(factors):.4f}, quartiles "
          f"{quartiles[0]:.4f}..{quartiles[2]:.4f}, {len(factors)} intervals")
    print(f"{'metric':24} {'corrected':>12} {'raw':>12}  unit")
    for name, (value, unit) in corrected.items():
        extra = f"  ({tails[name]})" if name in tails else ""
        print(f"{name:24} {value:12.4f} {raw[name][0]:12.4f}  {unit}{extra}")
    print("timeline (wall s): " + ", ".join(
        f"{phase} {seconds:.1f}" for phase, seconds in bench.timeline.items()))
    print("raw metrics: " + json.dumps({name: value for name, (value, _) in raw.items()}))
    print("corrected metrics: " + json.dumps(
        {name: value for name, (value, _) in corrected.items()}))
    print(f"operations: attempted {log.attempted}, failed {log.failed} {log.failures or ''}")
    for error in bench.errors[:20]:
        print(f"WRONG ANSWER: {error}")
    if len(bench.errors) > 20:
        print(f"... {len(bench.errors) - 20} more wrong answers")

    if tracer is not None:
        from perfbench.spans import PER_LAYER, layer_metrics, span_summary

        spans = tracer.spans
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path))
        ctx = {
            "reads": log.reads, "writes": log.writes, "rounds": log.rounds,
            "factor": statistics.median(factors), "counters": bench.counters,
            "results": bench.results, "replayed": bench.replayed,
        }
        layers = layer_metrics(spans, tracer, ctx)
        print(f"traced run: {len(spans)} spans written to {path}")
        print(f"{'span':32} {'calls':>9} {'total s':>10} {'self s':>10}")
        for name, calls, total, own in span_summary(spans):
            print(f"{name:32} {calls:9d} {total:10.4f} {own:10.4f}")
        print("per-layer metrics:")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:40} {layers[name]:14.4f}  {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in corrected.items()}

    correct = not bench.errors
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
