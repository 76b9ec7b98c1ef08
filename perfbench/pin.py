"""Pin the output digests that the benchmark checks every run against.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED

For each workload and seed in the range, generates the inputs, runs the
program once and records the sha256 of the report (`focusray run`) and of
the frame loop's winner sequence in `digests.json`, keeping pins of other
seeds. Run it only on purpose: after a change to `gen.py`, or a change of
the program that is meant to move its output.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def pin(workload: str, seed: int) -> dict[str, str]:
    workdir = run.WORK / f"pin-{workload}-{seed}"
    try:
        run.gen.generate(workload, seed, workdir)
        tally = run.Tally()
        gate = run.Gate(tally, {})
        if run.WORKLOADS[workload] is not None:
            run.run_cli(workload, workdir, gate)
        run.run_live(workload, workdir, gate)
        if tally.failures:
            raise SystemExit(f"pin: {workload} seed {seed}: {tally.failures}")
        return gate.expected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    pins = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    for workload in run.WORKLOADS:
        for seed in range(first, last + 1):
            pins.setdefault(workload, {})[str(seed)] = pin(workload, seed)
            run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"pinned {workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
