"""Self-test of the benchmark harness at tiny size.

    python3 benchmarks/selftest.py

Runs every workload tiny (order-4 bigon, a few bch-laws tasks, part of
a cli-mix round) with and without tracing and checks that each metric
of ``BENCHMARK.json`` prints with its unit. Then checks that a tampered
reference hash fails the run, and that a directory without the program's
sources fails without printing a result. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_out" / "selftest"
WORKLOADS = ("bigon-sym", "bch-laws", "cli-mix")


def run(workload: str, trace: int, cwd: Path = ROOT, extra: tuple[str, ...] = ()) -> tuple[int, dict | None]:
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def tampered_reference() -> Path:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    def tamper(digest: str) -> str:
        return ("1" if digest[0] == "0" else "0") + digest[1:]

    hashes = reference["bigon-sym"]["4"]["hashes"]
    hashes["envelope"] = tamper(hashes["envelope"])
    reference["bch-laws"]["0"][0] = tamper(reference["bch-laws"]["0"][0])
    for entry in reference["cli-mix"].values():
        entry[1] = tamper(entry[1])
    path = WORKDIR / "tampered-reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}, result {result!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: not correct: {result}")
            metrics = result["metrics"]
            got = {name: m.get("unit") for name, m in metrics.items()}
            if got != expected[trace]:
                failures.append(f"{where}: metrics and units differ from BENCHMARK.json")
            if not all(isinstance(m.get("value"), (int, float)) for m in metrics.values()):
                failures.append(f"{where}: a metric value is not a number")

    WORKDIR.mkdir(parents=True, exist_ok=True)
    tampered = tampered_reference()
    for workload in WORKLOADS:
        code, result = run(workload, 0, extra=("--reference", str(tampered)))
        if code != 1 or result is None or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: a tampered reference did not fail the run (exit {code})")

    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("bch-laws", 0, cwd=bare)
    if code == 0 or result is not None:
        failures.append(f"a checkout without sources gave exit {code} and result {result!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
