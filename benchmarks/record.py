"""Record the reference outputs that ``run.py`` checks against.

    python3 benchmarks/record.py

Writes ``benchmarks/reference.json``. Run it only on a commit whose
outputs are known to be right: every later run is compared with it.

- bigon-sym: SHA-256 of the canonical encoding of v, x, q and of each
  differential, of the verify and equivariance reports and of the model
  envelope, plus exact size counts, at orders 9 and 4 (the self-test);
- bch-laws: one SHA-256 per task over its outputs, sizes and law
  outcomes, for the first tasks of the default and a held-out seed;
- cli-mix: exit code and SHA-256 of stdout for every request any seed
  can draw.
"""

from __future__ import annotations

import json
import sys

import workloads

BCH_SEEDS = (0, 1)  # the default seed and a held-out one
BCH_TASKS = 600


def main() -> int:
    empty = {name: {} for name in workloads.WORKLOADS}
    reference: dict = {name: {} for name in workloads.WORKLOADS}
    for tiny in (True, False):
        bigon = workloads.BigonSym(0, tiny, empty)
        reference["bigon-sym"][str(bigon.order)] = bigon.digest(bigon.task(0))
    for seed in BCH_SEEDS:
        laws = workloads.BchLaws(seed, False, empty)
        digests = []
        for i in range(BCH_TASKS):
            laws.prepare(i)
            out = laws.task(i)
            if laws.check(i, out):
                raise SystemExit(f"bch-laws seed {seed} task {i} breaks a law; not recording")
            digests.append(laws.digest(out))
        reference["bch-laws"][str(seed)] = digests
    for argv in workloads.all_requests():
        code, stdout = workloads.run_cli(argv)
        reference["cli-mix"][workloads.request_key(argv)] = [code, workloads.sha256(stdout)]
    text = json.dumps(reference, indent=1, sort_keys=True)
    (workloads.ROOT / "benchmarks" / "reference.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
