"""Record the output digests and reports the current code writes for the
default seed and the held-out seed into bench/expected.json.

Usage: python3 bench/record.py

run.py fails any batch whose output digests differ from the record for
its seed.  The record was made once, at the commit that added the
benchmark; re-record only in a change that alters outputs on purpose and
says so.  The held-out seed is for re-checking a claimed gain on inputs
the change was not developed against.
"""

from __future__ import annotations

import json
import sys
import time

import run

HELD_OUT_SEED = 7331


def main() -> int:
    record: dict = {}
    for seed in (run.DEFAULT_SEED, HELD_OUT_SEED):
        for workload in run.WORKLOADS:
            batch = run.run_batch(workload, seed, 1.0, False, 0,
                                  time.monotonic() + run.BUDGET_S)
            if not batch.get("ok"):
                print(f"error: {workload} seed {seed}: {batch['errors']}", file=sys.stderr)
                return 1
            out = run.OUT / workload / "batch0"
            reports = {
                str(p.relative_to(out)): json.loads(p.read_text())
                for p in sorted(out.rglob("*.json"))
            }
            record.setdefault(str(seed), {})[workload] = {
                "digests": batch["digests"], "reports": reports}
            print(f"recorded {workload} seed {seed}")
    (run.BENCH / "expected.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
