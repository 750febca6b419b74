"""Reference figures for bench/README.md, printed as Markdown tables.

    python3 bench/figures.py

- coefficient bits against n: the largest numerator or denominator, in bits,
  of the lines of generate_closing(n, seed) and of the parameters of one dual
  chain on it, for seeds 0..2;
- candidates generate_closing draws per accepted configuration against n;
- ms per trial of each suite (run_trial, sequential, median of 5 repeats);
- the import split: bare interpreter, `import porism`, `import porism.cli`,
  `import numpy`, each the median of 7 fresh interpreters.

Takes a few minutes; nothing here is a gate.
"""
from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

BITS_N = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
TRIES_N = (8, 16, 32, 48, 64)
SEEDS = (0, 1, 2)


def coefficient_table(pz):
    print("| n | line bits (max over seeds) | chain-parameter bits | generate_closing ms (median) |")
    print("|---|---|---|---|")
    for n in BITS_N:
        line_bits, chain_bits, times = [], [], []
        for seed in SEEDS:
            t0 = time.perf_counter()
            config = pz.closure.generate_closing(n, seed)
            times.append(1000 * (time.perf_counter() - t0))
            chain = workloads.walk_chains(pz, config, random.Random(seed))[0]
            line_bits.append(workloads.coeff_bits(c for l in config.lines for c in l.coords))
            chain_bits.append(workloads.coeff_bits(t.value for t in chain.params))
        print(f"| {n} | {max(line_bits)} | {max(chain_bits)} | {statistics.median(times):.1f} |")


def tries_table(pz):
    print("| n | tries per accepted configuration, seeds 0..4 | mean |")
    print("|---|---|---|")
    for n in TRIES_N:
        tries = [workloads.generate_tries(pz, n, seed) for seed in range(5)]
        print(f"| {n} | {' '.join(map(str, tries))} | {statistics.mean(tries):.1f} |")


def suite_table():
    from porism import suites

    print("| suite | ms per trial (median of 5 x 20 trials) |")
    print("|---|---|")
    for name in workloads.SUITE_NAMES:
        per_trial = []
        for rep in range(5):
            t0 = time.perf_counter()
            for i in range(20):
                suites.run_trial(name, suites.trial_seed(rep, i))
            per_trial.append(1000 * (time.perf_counter() - t0) / 20)
        print(f"| {name} | {statistics.median(per_trial):.2f} |")


def import_table():
    modules = ("porism", "porism.cli", "numpy")
    work = workloads.WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        split = workloads.import_split(modules, 7, work)
    finally:
        shutil.rmtree(work)
    print("| what | ms (median of 7 fresh interpreters) |")
    print("|---|---|")
    print(f"| bare interpreter, start to exit | {split['startup']:.0f} |")
    for module in modules:
        print(f"| `import {module}` | {split[module]:.0f} |")


def main():
    pz = workloads.Porism()
    for table in (lambda: coefficient_table(pz), lambda: tries_table(pz), suite_table,
                  import_table):
        table()
        print()


if __name__ == "__main__":
    main()
