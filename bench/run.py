"""Benchmark of the porism engine: one workload per run, end-to-end metrics or,
with --trace 1, per-layer metrics.

    python3 bench/run.py --workload suites --seed 1 --seconds 25 --trace 0

The run measures whole passes over the workload's op pool until --seconds
have passed and, untraced, at least MIN_OPS ops are done (a traced run
reports no percentile). One thread issues ops one at a time (a closed
loop). Each op is timed alone; its check and a fixed reference kernel run
after it, outside the timed span. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The full
report (environment, reference-kernel timings, per-layer aggregates and the
recorded spans of a traced run) goes to bench/results/.

Exit status 2, without a result line, when the checkout has no src/porism.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle  # bench/ is on sys.path as the script's directory
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("suites", "porism-large-n", "primal-backends", "cli")
MIN_OPS = 105  # so that at least ten latencies lie beyond p90
SETUP_PROBES = 7
IMPORT_PROBES = 5

# per-layer metrics read from the trace aggregates: inclusive span time,
# calls, and calls that raised, each per op
SPAN_MS = {
    "fields.sqrt_scalar_ms": ["fields.sqrt_scalar"],
    "plane.triple_ms": ["plane.triple"],
    "plane.join_ms": ["plane.join"],
    "plane.meet_ms": ["plane.meet"],
    "plane.float_triple_ms": ["plane.float_triple"],
    "plane.mobius_apply_ms": ["plane.mobius_apply"],
    "involution.chain_product_ms": ["involution.InvolutionChain.product"],
    "involution.pascal_line_ms": ["involution.pascal_line"],
    "involution.moebius_check_ms": ["involution.moebius_check"],
    "involution.dual_moebius_check_ms": ["involution.dual_moebius_check"],
    "closure.generate_closing_ms": ["closure.generate_closing"],
    "closure.validate_ms": ["closure.validate"],
    "closure.porism_holds_ms": ["closure.porism_holds"],
    "closure.dual_chain_ms": ["closure.dual_chain"],
    "closure.primal_exact_ms": ["closure.primal_chain.exact"],
    "closure.primal_float_ms": ["closure.primal_chain.float"],
    "closure.concurrent_chain_ms": ["closure.concurrent_tangent_chain"],
    "scene.serialize_ms": ["scene.serialize"],
    "scene.parse_ms": ["scene.parse"],
    "svg.render_ms": ["svg.render_scene"],
}
SPAN_CALLS = {
    "fields.quadext_new": "fields.QuadExt",
    "fields.rational_sqrt_calls": "fields.rational_sqrt",
    "plane.triple_new": "plane.triple",
    "plane.float_triple_new": "plane.float_triple",
    "plane.mobius_new": "plane.MobiusMap",
    "algebra.mat2_mul_calls": "algebra.Mat2.__mul__",
    "involution.fregier_calls": "involution.fregier",
}
SPAN_ERRORS = {
    "closure.dual_chain_retries": "closure.dual_chain",
    "closure.primal_retries": "closure.primal_chain",
}
for _s in workloads.SUITE_NAMES:
    SPAN_MS[f"suites.{_s}.generate_ms"] = [f"suites.{_s}.generate"]
    SPAN_MS[f"suites.{_s}.check_ms"] = [f"suites.{_s}.check"]
SAMPLED = ["suites.pool_overhead_ms"] + [f"suites.{s}.resamples" for s in workloads.SUITE_NAMES]
CLI_COMMANDS = [op.label for op in workloads.cli_script(0, Path("."))]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_seconds(workload: str, work: Path) -> list[float]:
    """Fresh interpreter to ready-for-the-first-op, SETUP_PROBES times. The
    child prints the monotonic clock (system-wide on Linux) once its inputs
    are built."""
    argv = [sys.executable, str(BENCH / "workloads.py"), workload]
    samples = []
    for _ in range(SETUP_PROBES):
        text, t0, _ = workloads.spawn_and_read(argv, workloads.cli_env(), work)
        samples.append(float(text.strip()) - t0)
    return samples


def import_probes(work: Path) -> dict:
    """Median fresh-interpreter timings behind the cli op's start-up."""
    split = workloads.import_split(("porism.cli", "numpy"), IMPORT_PROBES, work)
    return {"cli.import_ms": split["porism.cli"], "cli.import_numpy_ms": split["numpy"],
            "cli.startup_ms": split["startup"]}


def measure(wl, seconds: float, seed: int, tracer=None, modules=()):
    """Whole passes over the pool, in an order drawn from `seed`, until the
    time is up and, untraced, MIN_OPS ops are done."""
    rng = random.Random(seed)
    rec = {
        "latency": [], "labels": [], "reference_ms": [], "failed": 0, "wrong": [],
        "bits": 0, "rss_kb": 0, "untraced": [], "traced": [], "samples": {},
        "inproc": {c: [] for c in CLI_COMMANDS},
    }
    start = time.monotonic()
    index = 0
    while True:
        order = list(range(len(wl.pool)))
        rng.shuffle(order)
        for i in order:
            for op in wl.pool[i]:
                _one_op(wl, op, index, rec, tracer, modules)
                index += 1
                t0 = time.perf_counter()
                oracle.reference_kernel()
                rec["reference_ms"].append(1000 * (time.perf_counter() - t0))
        enough = tracer is not None or len(rec["latency"]) >= MIN_OPS
        if enough and time.monotonic() - start >= seconds:
            return rec


def _one_op(wl, op, index, rec, tracer, modules):
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
        error = None
    except Exception:  # an op that raises is a failed op; the run goes on
        out, error = None, traceback.format_exc(limit=3)
    rec["latency"].append(time.perf_counter() - t0)
    rec["labels"].append(op.label)
    ok = error is None and wl.check(op, out)
    if not ok:
        rec["failed"] += 1
        if not (op.known_fault and error is None and wl.known_failure(op, out)):
            rec["wrong"].append({"op": op.label, "arg": repr(op.arg)[:200], "error": error})
    if error is None:
        rec["bits"] = max(rec["bits"], wl.bits(op, out))
        if wl.name == "cli":
            rec["rss_kb"] = max(rec["rss_kb"], out[2])
    if tracer is None or error is not None:
        return
    # traced run: the same call once more without wrappers, then with them
    call = wl.inproc or wl.run
    t0 = time.perf_counter()
    call(op)
    untraced = time.perf_counter() - t0
    tracer.op = index
    tracer.install(modules)
    try:
        t0 = time.perf_counter()
        call(op)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    rec["untraced"].append(untraced)
    rec["traced"].append(traced)
    if wl.name == "cli":
        rec["inproc"][op.label].append(1000 * untraced)
    for key, value in wl.layer_sample(op, out).items():
        count, total = rec["samples"].get(key, (0, 0.0))
        rec["samples"][key] = (count + 1, total + value)


def end_to_end(rec, setup_samples) -> dict:
    lat = rec["latency"]
    if rec["rss_kb"]:
        rss = rec["rss_kb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "op_ms_p50": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "op_ms_p90": {"value": 1000 * percentile(lat, 90), "unit": "ms"},
        "peak_rss_mib": {"value": rss / 1024, "unit": "MiB"},
    }


def per_layer(rec, agg, ops: int, probes: dict) -> dict:
    def get(name, field):
        return agg.get(name, [0, 0, 0.0, 0.0])[field]

    out = {}
    for metric, names in SPAN_MS.items():
        out[metric] = {"value": sum(get(n, 2) for n in names) / ops, "unit": "ms/op"}
    for metric, name in SPAN_CALLS.items():
        out[metric] = {"value": get(name, 0) / ops, "unit": "calls/op"}
    for metric, name in SPAN_ERRORS.items():
        out[metric] = {"value": get(name, 1) / ops, "unit": "calls/op"}
    conic = [v for k, v in agg.items() if k.startswith("conic.")]
    out["conic.calls"] = {"value": sum(v[0] for v in conic) / ops, "unit": "calls/op"}
    out["conic.self_ms"] = {"value": sum(v[3] for v in conic) / ops, "unit": "ms/op"}

    samples = rec["samples"]
    tries = samples.get("closure.generate_tries", (0, 0))[1]
    gens = samples.get("closure.generate_calls", (0, 0))[1]
    out["closure.generate_tries"] = {"value": tries / gens if gens else 0, "unit": "tries/call"}
    out["closure.generate_accept_ratio"] = {"value": gens / tries if tries else 0, "unit": "ratio"}
    out["closure.coeff_bits_max"] = {"value": rec["bits"], "unit": "bits"}
    for key in SAMPLED:
        total = samples.get(key, (0, 0.0))[1]
        unit = "ms/op" if key.endswith("_ms") else "count/op"
        out[key] = {"value": total / ops, "unit": unit}
    for key in ("scene.bytes", "svg.bytes"):
        count, total = samples.get(key, (0, 0.0))
        out[key] = {"value": total / count if count else 0, "unit": "bytes"}
    for key in ("cli.import_ms", "cli.import_numpy_ms", "cli.startup_ms"):
        out[key] = {"value": probes.get(key, 0), "unit": "ms"}
    for command, times in rec["inproc"].items():
        out[f"cli.{command}_ms"] = {
            "value": statistics.median(times) if times else 0, "unit": "ms"
        }
    overhead = 100 * (sum(rec["traced"]) / sum(rec["untraced"]) - 1)
    out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "porism" / "__init__.py").is_file():
        print(f"error: no porism package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    # One CPU for an untraced run and its children: run_suite's thread pool
    # would otherwise hand the GIL between two vCPUs whose speeds drift apart,
    # and that alone moved the suites p90 by a third between runs. So the
    # end-to-end suites figures leave out the cost of those cross-CPU
    # handoffs; a traced run keeps every CPU it was given, and its
    # suites.pool_overhead_ms includes them.
    if not args.trace:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    # temporary files of this run: probe output, and the cli op's scenes
    work = workloads.WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = [] if args.trace else setup_seconds(args.workload, work)
        probes = import_probes(work) if args.trace and args.workload == "cli" else {}
        wl = workloads.setup(args.workload)
        tracer, modules = None, ()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            modules = _porism_modules()
        rec = measure(wl, args.seconds, args.seed, tracer, modules)
    finally:
        shutil.rmtree(work)

    ops = len(rec["latency"])
    if args.trace:
        agg = tracer.aggregate()
        metrics = per_layer(rec, agg, len(rec["traced"]), probes)
    else:
        agg = {}
        metrics = end_to_end(rec, setup_samples)
    ref = rec["reference_ms"]
    quart = statistics.quantiles(ref, n=4)
    labels = sorted(set(rec["labels"]))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **env,
        "reference_kernel_ms": {"median": statistics.median(ref), "q1": quart[0],
                                "q3": quart[2], "min": min(ref), "max": max(ref),
                                "samples": len(ref)},
        "setup_samples_s": setup_samples,
        "op_ms_p50_by_label": {
            label: 1000 * statistics.median(
                [t for t, l in zip(rec["latency"], rec["labels"]) if l == label])
            for label in labels
        },
        "wrong": rec["wrong"],
        "latency_ms": [round(1000 * t, 3) for t in rec["latency"]],
        "metrics": metrics,
        "aggregates": agg,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({k: report[k] for k in
                      ("workload", "seed", "git_sha", "python", "nproc", "cpus_used")}))
    print(f"reference kernel: median {report['reference_kernel_ms']['median']:.3f} ms, "
          f"quartiles {quart[0]:.3f}..{quart[2]:.3f} ms over {len(ref)} samples")
    print(f"{args.workload}: attempted {ops} ops, failed {rec['failed']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not rec["wrong"],
        "attempted": ops,
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


def _porism_modules():
    import porism
    from porism import algebra, closure, conic, fields, involution, plane, scene, suites, svg

    modules = [porism, fields, algebra, plane, conic, involution, closure, suites, scene, svg]
    if "porism.cli" in sys.modules:
        modules.append(sys.modules["porism.cli"])
    return modules


if __name__ == "__main__":
    sys.exit(main())
