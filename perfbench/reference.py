"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py

Runs every workload of BENCHMARK.json once per seed 1-10, one process at a
time and ``run_seconds`` long, for each of two run sets, and prints
markdown: per end-to-end metric the median and quartiles of the
drift-corrected values and of the raw values, the quartile spread as a share
of the median, and how far the second set's median moved from the first's.
It then makes one traced run per workload (seed 1) and prints its per-layer
metrics and the tracing overhead against the untraced medians.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    parsed = {"last": json.loads(lines[-1])}
    for line in lines:
        for tag in ("raw metrics: ", "corrected metrics: "):
            if line.startswith(tag):
                parsed[tag.split()[0]] = json.loads(line[len(tag):])
    return parsed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run(workload, seed, seconds, 0) for seed in SEEDS] for _ in range(SETS)]
        names = list(sets[0][0]["corrected"])
        print(f"\n### {workload} ({len(SEEDS)} seeds x {SETS} sets, {seconds} s runs)\n")
        header = "| metric | unit |"
        for i in range(SETS):
            header += f" set {i + 1} corrected median [q1, q3] | spread | raw median [q1, q3] |"
        print(header + " last vs first |")
        print("|---|---|" + "---|---|---|" * SETS + "---|")
        for name in names:
            unit = sets[0][0]["last"]["metrics"][name]["unit"]
            row = f"| `{name}` | {unit} |"
            medians = []
            for runs in sets:
                cor = quartiles([r["corrected"][name] for r in runs])
                raw = quartiles([r["raw"][name] for r in runs])
                medians.append(cor[1])
                spread = (cor[2] - cor[0]) / cor[1] if cor[1] else 0.0
                row += (f" {cor[1]:.4g} [{cor[0]:.4g}, {cor[2]:.4g}] | {spread:.3f} |"
                        f" {raw[1]:.4g} [{raw[0]:.4g}, {raw[2]:.4g}] |")
            drift = medians[-1] / medians[0] - 1.0 if medians[0] else 0.0
            print(row + f" {drift:+.3f} |")
        failed = {(r["last"]["failed"], r["last"]["attempted"]) for runs in sets for r in runs}
        print(f"\nfailed / attempted over all runs: {sorted(failed)}")
        traced = run(workload, TRACE_SEED, seconds, 1)
        print(f"\ntraced run, seed {TRACE_SEED}: overhead against the untraced "
              "corrected medians (traced / untraced - 1)\n")
        print("| metric | traced | overhead |\n|---|---|---|")
        for name in names:
            base = statistics.median(r["corrected"][name] for runs in sets for r in runs)
            value = traced["corrected"][name]
            print(f"| `{name}` | {value:.4g} | {value / base - 1.0:+.3f} |")
        print("\n| per-layer metric | value | unit |\n|---|---|---|")
        for name, item in traced["last"]["metrics"].items():
            print(f"| `{name}` | {item['value']:.4g} | {item['unit']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
