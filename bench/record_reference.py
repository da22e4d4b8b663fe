"""Record the SHA-256 of every hashed op's stdout into bench/reference.json.

    python3 bench/record_reference.py

Run it only on a commit whose output is known good: the benchmark then
fails any later op whose output differs by a byte.  Ops that pass every
other part of their gate are recorded; anything else aborts.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hashes = {}
    for name, build in sorted(WORKLOADS.items()):
        for smoke in (True, False):
            for op in build(0, work, smoke=smoke):
                if not op.hashed or op.id in hashes:
                    continue
                record = run.run_op(op, work, False, {}, run.OP_CAP_S)
                problems = [p for p in record["problems"] if "reference hash" not in p]
                if problems:
                    print(f"{name}: {op.id}: {problems}", file=sys.stderr)
                    return 1
                hashes[op.id] = run.oracles.sha256((work / op.out).read_bytes())
                print(f"{record['wall_s']:7.2f} s  {op.id}")
    context = run.run_context(0)
    doc = {"recorded_at": context["git_sha"], "python": context["python"],
           "numpy": context["numpy"], "sha256": dict(sorted(hashes.items()))}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(hashes)} reference hashes written to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
