"""Record the references that bench/run.py checks outputs against.

Usage (from the root of a source tree):

    python3 bench/make_references.py

Runs every operation once in a fresh interpreter and writes
bench/references.json: the decided fields of each seeded operation for
the dev and held-out seeds, and the whole payload of each operation whose
inputs do not depend on the seed.  Re-record only when a change alters an
output on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, run_child
from workloads import DEV_SEED, HELD_OUT_SEED, SEEDED, WORKLOADS, decided, full_argv


def _values(op, seed: int) -> dict:
    report = run_child(full_argv(op, seed), trace=False, timeout=600)
    if "error" in report:
        sys.exit(f"{op.name}: {report['error']}")
    return report["record"]["values"]


def main() -> int:
    data = {"recorded": {}, "seeded": {}}
    for workload, ops in WORKLOADS.items():
        for op in ops:
            if op.kind == "recorded":
                data["recorded"][op.name] = _values(op, DEV_SEED)
            elif workload in SEEDED and op.same_as is None:
                for seed in (DEV_SEED, HELD_OUT_SEED):
                    entry = data["seeded"].setdefault(str(seed), {}).setdefault(workload, {})
                    entry[op.name] = decided(op, _values(op, seed))
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
