"""Check every pooled `bound`, `count` and `dims` task of the benchmark
against `perfbench/reference.json`.

    python tools/pooled_reference.py

The `exact` workload draws 10 growth-bound points per base (1.3, 1.4 and
1.5) and 10 prefix-count points per base (golden and tribonacci) from
pools of 64 each, and the `localdim` workload draws `dims` points from a
golden pool of 128 and a tribonacci pool of 32; a seed sees only those.
This runs all 481 pooled tasks, the fixed `dims` point included,
each an in-process `betagrowth.cli.main` call judged by perfbench's own
output check, and exits 1 naming the tasks whose output is wrong.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

POOLED = ("bound", "count", "dims")


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())
    cli = run.load_program()
    tasks = [t for t in workloads.reference_tasks() if t.argv[0] in POOLED]
    failures = []
    for task in tasks:
        rc, stdout, _seconds = run.run_task(cli, task)
        reason = checks.check(task, rc, stdout, reference)
        if reason:
            failures.append(f"{task.key}: {reason}")
    print(f"{len(tasks)} tasks checked against the reference, {len(failures)} failed")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
