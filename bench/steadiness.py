"""Run each workload repeatedly and report how steady every metric is.

    python3 bench/steadiness.py --runs 10 [--workloads suites cli]
    python3 bench/steadiness.py --compare FIRST.json SECOND.json

Each run is a fresh `bench/run.py` process with its own --seed (1..runs) and
BENCHMARK.json's run_seconds. For every end-to-end metric this prints the
median, the quartiles (Python's statistics.quantiles(values, n=4)) and the
spread: the distance between the quartiles as a share of the median. The
failed share of every run is shown too; it must be identical across runs.
So are the median and range of the runs' reference-kernel medians, which
tell a slow machine from a slow program. The bounds in BENCHMARK.json are set from
this output: a bound should be at least three times the spread seen. The raw
results go to bench/results/steadiness-<time>.json.

--compare takes two such files, made from the same code at different times,
and prints for every workload and metric the change of the second median
against the first, as a share of the first, signed so that a positive
change is a worsening, next to the metric's bound; a change beyond the
bound either way is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def measure(spec, workloads, runs: int) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    worst = 0.0
    for workload in workloads:
        done = []
        for seed in range(1, runs + 1):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - started
            report = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace0.json")
                                .read_text())
            result["reference_ms"] = report["reference_kernel_ms"]["median"]
            done.append(result)
            print(f"{workload} seed {seed}: wall {result['wall_s']:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}, "
                  f"reference kernel {result['reference_ms']:.3f} ms", flush=True)
        results[workload] = done
        reference = [r["reference_ms"] for r in done]
        print(f"\n{workload}: failed shares {sorted({r['failed'] / r['attempted'] for r in done})}")
        print(f"  reference kernel: median {statistics.median(reference):.3f} ms, "
              f"range {min(reference):.3f}..{max(reference):.3f} ms")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        for metric in done[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in done]
            median, q1, q3, share = spread(values)
            bound = bounds.get(metric)
            flag = "" if bound is None or share < bound / 3 else "  <-- over a third of the bound"
            if metric != "setup_s":
                worst = max(worst, share / bound if bound else 0)
            print(f"  {metric:<14} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{100 * share:>7.2f}% {bound!s:>6}{flag}")
        print(flush=True)
    out = BENCH / "results" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"largest spread / bound (setup_s aside): {worst:.2f}; raw results in {out}")
    return 0


def compare(spec, first: Path, second: Path) -> int:
    sets = [json.loads(first.read_text()), json.loads(second.read_text())]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    print(f"{'workload':<16} {'metric':<14} {'first':>10} {'second':>10} {'change':>8} {'bound':>6}")
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        for name, metric in metrics.items():
            a, b = (statistics.median(r["metrics"][name]["value"] for r in s[workload])
                    for s in sets)
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            worst = max(worst, abs(change) / metric["bound"])
            flag = "  <-- differs by more than the bound" if abs(change) > metric["bound"] else ""
            print(f"{workload:<16} {name:<14} {a:>10.4g} {b:>10.4g} "
                  f"{100 * change:>+7.2f}% {metric['bound']!s:>6}{flag}")
        a, b = (statistics.median(r["reference_ms"] for r in s[workload]) for s in sets)
        shares = [sorted({r["failed"] / r["attempted"] for r in s[workload]}) for s in sets]
        print(f"{workload:<16} reference kernel median {a:.3f} -> {b:.3f} ms; "
              f"failed shares {shares[0]} -> {shares[1]}")
    print(f"largest change / bound: {worst:.2f}")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    return measure(spec, args.workloads, args.runs)


if __name__ == "__main__":
    sys.exit(main())
