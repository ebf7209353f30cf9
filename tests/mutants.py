"""The mutation gate: each row breaks the library on purpose, and the tests
it names must catch it.

Run it from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, as the tests do.  For each row it copies ``src/`` to a
temporary directory, replaces the row's old text, which must occur exactly
once in its file, by the new text, and runs pytest on the row's node ids
with that copy first on ``PYTHONPATH``.  It exits nonzero when an old text
no longer occurs exactly once, so that a refactor must keep the table
current, or when a named test passes on its mutant.  pytest does not
collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    label: str
    path: str  # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids that must fail or error


SYMMETRIC = "tests/test_models.py::TestSymmetricData"
SQUARE = "tests/test_models.py::TestCellSquare"
GUARD = f"{SQUARE}::test_a_non_lie_holonomy_is_refused_by_its_guard_alone"

MUTANTS = (
    Mutant(
        "v from +1/2 bch(e, f)",
        "src/dgla/models.py",
        "v = bch([-half * loop, e])",
        "v = bch([half * loop, e])",
        (
            f"{SYMMETRIC}::test_direction_bch_form[5]",
            f"{SYMMETRIC}::test_parity[5]",
            "tests/test_acceptance.py::test_criterion_1_v_series",
        ),
    ),
    Mutant(
        "q flowed by v for time -1/2",
        "src/dgla/models.py",
        "_exponential(-half, order)",
        "_exponential(half, order)",
        (
            f"{SYMMETRIC}::test_kernel_element_bch_form[5]",
            f"{SYMMETRIC}::test_kernel_element_flow_form[5]",
            f"{SYMMETRIC}::test_kernel_element_is_closed",
        ),
    ),
    Mutant(
        "the loop as bch(f, e)",
        "src/dgla/models.py",
        'loop = bch([e, context.gen("f")])',
        'loop = bch([context.gen("f"), e])',
        (
            f"{SYMMETRIC}::test_direction_bch_form[5]",
            f"{SYMMETRIC}::test_kernel_element_flow_form[5]",
            "tests/test_models.py::TestBuilders::test_all_models_verify[bigon-sym]",
        ),
    ),
    Mutant(
        "vertex differential +1/2 [a, a]",
        "src/dgla/models.py",
        "differential[v] = Fraction(-1, 2) * bracket",
        "differential[v] = Fraction(1, 2) * bracket",
        (
            "tests/test_models.py::TestBuilders::test_all_models_verify[point]",
            "tests/test_calculus.py::TestDerivationExtension::test_vertex_differential_squares_to_zero",
            "tests/test_acceptance.py::test_criterion_3_x_series",
        ),
    ),
    Mutant(
        "holonomy left out of the 2-cell route's Lie guard",
        "src/dgla/models.py",
        "(h, *images)",
        "images",
        (f"{GUARD}[bigon-a-5]", f"{GUARD}[bigon-sym-5]"),
    ),
    Mutant(
        "ending-mode prefix sign dropped",
        "src/dgla/algebra.py",
        "alone = [(w, -n if flips[w & mask] else n) for w, n",
        "alone = [(w, n) for w, n",
        (
            f"{SQUARE}::test_verdict_agrees_with_the_leibniz_square[bigon-sym-5]",
            "tests/test_models.py::TestBuilders::test_build_then_verify_computes_d_squared_once",
        ),
    ),
)


def _failed(output: str) -> set[str]:
    # the node ids of pytest's -rfE summary lines, "FAILED <id> - <reason>"
    found = set()
    for line in output.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("FAILED", "ERROR") and "::" in rest:
            found.add(rest.split(" - ", 1)[0])
    return found


def run(mutant: Mutant) -> str | None:
    """Patch a copy of ``src/`` and run the killers; the failure, if any."""
    if not mutant.killers:
        return "names no test to kill it"
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times in {mutant.path}, not once"
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        (Path(tmp) / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.killers],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
    if result.returncode not in (0, 1):
        return f"pytest exited with {result.returncode}:\n{result.stdout[-2000:]}{result.stderr[-2000:]}"
    survivors = [node for node in mutant.killers if node not in _failed(result.stdout)]
    return f"survived by {survivors}" if survivors else None


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        problem = run(mutant)
        status = "killed" if problem is None else f"FAILED: {problem}"
        print(f"{mutant.label}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
        failures += problem is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
