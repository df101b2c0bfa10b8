"""Rewrite ``pinned.json``: the stdout digest of every command of every
workload at the default seed, for the commands that pass their checks.

Run from the repository root after an intended output change:

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.load_program()
    pins = {}
    for workload in workloads.WORKLOADS:
        commands = workloads.build(workload, run.DEFAULT_SEED)
        warm = run.run_round(cli, commands, keep_outputs=True)
        verdicts, _, correct, problems = run.judge(commands, warm, [], None)
        if not correct:
            print(f"{workload}: not pinned, outputs are wrong: {problems}", file=sys.stderr)
            return 1
        pins[workload] = [digest if v.ok else None for digest, v in zip(warm.digests, verdicts)]
    run.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
