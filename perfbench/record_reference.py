"""Record reference.json: the checked outputs of every pooled task.

    python3 perfbench/record_reference.py

Run at the commit whose outputs are the reference (a few minutes on a
2-vCPU 2.1 GHz Xeon).  It refuses to record a task that fails or breaks an
invariant.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    cli = run.load_program()
    tasks = workloads.reference_tasks()
    entries = {}
    series = None
    for i, task in enumerate(tasks):
        rc, stdout, seconds = run.run_task(cli, task)
        reason = f"exit code {rc}" if rc else checks.invariant_failure(task, stdout)
        if reason:
            print(f"error: {task.key}: {reason}\n{stdout}", file=sys.stderr)
            return 1
        entries[task.key] = checks.reference_entry(stdout)
        if task == workloads.TRIB_SERIES:
            series = checks.series_gamma(stdout)
        print(f"[{i + 1}/{len(tasks)}] {seconds:6.2f}s  {task.key}", file=sys.stderr)
    doc = {
        "recorded_with": run.environment(seed=0) | {"seed": None},
        "tribonacci_series_gamma": series,
        "tasks": entries,
    }
    # one task per line keeps the file diffable
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items()))
    head = json.dumps({k: v for k, v in doc.items() if k != "tasks"}, sort_keys=True)[:-1]
    run.REFERENCE.write_text(f'{head}, "tasks": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
