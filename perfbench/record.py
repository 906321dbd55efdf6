"""Record the expected result fingerprints that ``run.py`` gates on.

Usage, from the repository root::

    python3 perfbench/record.py

Runs one untraced repetition per workload, size and recorded seed and
writes ``perfbench/fingerprints.json``.  Seed 0 is the default seed; seed 100
is held out: no tuning of the benchmark looked at it.  Re-record only when
a change to the simulator is *meant* to change what it simulates, and say
so in the change.
"""

from __future__ import annotations

import json

import run

RECORDED_SEEDS = (0, 100)


def main() -> None:
    table = {}
    for workload in run._workloads():
        table[workload] = {}
        for size in ("full", "tiny"):
            table[workload][size] = {
                str(seed): run.spawn(workload, seed, size)["fingerprint"]
                for seed in RECORDED_SEEDS}
            print(workload, size, table[workload][size], flush=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
