"""Run one dgla benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload bigon-sym --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the workload runs as a closed loop with one caller
for at least ``--seconds`` (whole rounds) and the last stdout line holds
the end-to-end metrics. With ``--trace 1`` a fixed amount of work runs,
alternating plain and traced tasks, and the last line holds the
per-layer metrics. The exit code is 1 when an output is wrong and 2 when
the benchmark cannot run. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7
IMPORT_PROBES = 5
# Traced runs run each task of a fixed number of rounds twice, plain and
# traced, so that call and size counts repeat exactly. Five cli-mix rounds
# cover every order once.
TRACE_ROUNDS = {"bigon-sym": 2, "bch-laws": 100, "cli-mix": 5}
TRACE_ROUNDS_TINY = {"bigon-sym": 1, "bch-laws": 3, "cli-mix": 1}
MAX_REPORTED_PROBLEMS = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bigon-sym", "bch-laws", "cli-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="order-4 bigon and a few tasks, for the self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE, help="reference hashes to check against")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(durations: list[float]) -> dict | None:
    """The highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    for percentile in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(percentile / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": percentile, "value": ordered[rank - 1]}
    return None


def timed(workload, i: int):
    gc.collect()  # each task starts from the same heap; callers drop the last output first
    start = time.perf_counter()
    try:
        out = workload.task(i)
    except Exception as exc:  # a failing task is counted, not fatal
        return time.perf_counter() - start, None, [f"task {i} raised {exc!r}"]
    return time.perf_counter() - start, out, None


def checked(workload, i: int, out, problems) -> list[str]:
    if problems is not None:
        return problems
    try:
        return workload.check(i, out)
    except Exception as exc:
        return [f"checking task {i} raised {exc!r}"]


def median_wall(command: list[str], runs: int, env: dict | None = None) -> float:
    """Median wall time of fresh processes running ``command``."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds: float) -> tuple[list[float], list[str], int]:
    """Closed loop: tasks one after another until ``seconds`` pass at a round end."""
    durations: list[float] = []
    problems: list[str] = []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        workload.prepare(i)
        duration, out, raised = timed(workload, i)
        durations.append(duration)
        found = checked(workload, i, out, raised)
        out = None
        if found:
            failed += 1
            problems += found
        if workload.round_done(i) and time.perf_counter() - start >= seconds:
            return durations, problems, failed
        i += 1


def end_to_end(args: argparse.Namespace, workload) -> tuple[dict, dict]:
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    setup_s = median_wall(probe, SETUP_PROBES)
    durations, problems, failed = measure(workload, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "task_p50_s": metric(statistics.median(durations), "s"),
        "tasks_per_s": metric(len(durations) / sum(durations), "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    detail = {
        "samples": len(durations),
        "task_tail_s": tail(durations),
        "task_min_s": min(durations),
        "task_max_s": max(durations),
        "problems": problems,
    }
    return metrics, {"attempted": len(durations), "failed": failed, **detail}


def per_layer(args: argparse.Namespace, workload) -> tuple[dict, dict]:
    import tracer as tracing
    from workloads import CliMix, child_env, run_cli_in_process

    if isinstance(workload, CliMix):
        workload.runner = run_cli_in_process  # a fresh process cannot be traced from here
    rounds = (TRACE_ROUNDS_TINY if args.tiny else TRACE_ROUNDS)[args.workload]
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    problems: list[str] = []
    failed = 0
    bits = out_bytes = 0
    terms: dict = {}
    i = 0
    while rounds:
        workload.prepare(i)
        for durations, trace_on in ((plain, False), (traced, True)):
            if trace_on:
                tracer.task = i
                with tracer.installed():
                    duration, out, raised = timed(workload, i)
            else:
                duration, out, raised = timed(workload, i)
            durations.append(duration)
            found = checked(workload, i, out, raised)
            if found:
                failed += 1
                problems += found
                continue
            bits = max(bits, workload.coeff_bits(out))
            if trace_on:
                out_bytes += len(out.get("stdout", b""))
                if hasattr(workload, "term_counts"):
                    terms = workload.term_counts(out)
            out = None
        rounds -= workload.round_done(i)
        i += 1
    tracer.write(Path.cwd() / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = {}
    for name, entry in tracer.summary().items():
        if name in tracing.SELF_TIMED:
            metrics[f"{name}.calls"] = metric(entry["calls"], "count")
            metrics[f"{name}.self_s"] = metric(entry["self_s"], "s")
        else:
            metrics[f"{name}.total_s"] = metric(entry["total_s"], "s")
    import_s = median_wall([sys.executable, "-c", "import dgla"], IMPORT_PROBES, env=child_env())
    metrics["cli.import_s"] = metric(import_s, "s")
    metrics["cli.out_bytes"] = metric(out_bytes, "bytes")
    for label in ("v", "x", "q", "Dg"):
        metrics[f"models.terms.{label}"] = metric(terms.get(label, 0), "count")
    metrics["models.coeff_bits_max"] = metric(bits, "bits")
    metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.spans"] = metric(len(tracer.spans), "count")
    detail = {"samples": len(traced), "plain_p50_s": statistics.median(plain), "problems": problems}
    return metrics, {"attempted": len(plain) + len(traced), "failed": failed, **detail}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the reference {args.reference}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, reference)
    if args.setup_probe:
        return 0

    started = time.perf_counter()
    metrics, counts = (per_layer if args.trace else end_to_end)(args, workload)
    problems = counts.pop("problems")
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"mismatch: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - started,
        "failed_ratio": counts["failed"] / counts["attempted"],
        **counts,
    }
    print(json.dumps(detail))
    correct = counts["failed"] == 0
    result = {"correct": correct, "attempted": counts["attempted"], "failed": counts["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
