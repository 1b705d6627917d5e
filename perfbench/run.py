"""Closed-loop benchmark of the betagrowth CLI.

    python3 perfbench/run.py --workload localdim --seed 1 --seconds 30 --trace 0

One caller runs the workload's task list (see workloads.py) back to back in
this process, each task an in-process `betagrowth.cli.main(argv)` call with
its output captured and checked (see checks.py).  With `--trace 0` the
list is repeated while another pass still fits in `--seconds`, and the
end-to-end metrics are reported; with `--trace 1` one untraced and one
traced pass are run and the per-layer metrics are reported (tracing.py).
Task and set-up times are scaled to the machine's quiet speed by a probe
timed around and during them (see `SpeedMeter`).

The program is imported from `src/` next to this directory.  The next to
last stdout line is the full report (environment, failures, tail latency,
failed_frac); the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
program could not be found; failed tasks still exit 0 with correct=false.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 9
TAIL_MIN_TASKS = 20      # tasks per pass before a tail latency is reported
TAIL_BEYOND = 10         # samples that must lie beyond the reported percentile
MAX_FAILURES_SHOWN = 5
PROBE_TERMS = 120        # Fraction additions in one probe
PROBE_KEYS = 1600        # dict insertions in one probe
QUIET_PROBE_S = 0.0006   # one probe on a quiet 2.1 GHz Xeon core
PROBE_INTERVAL_S = 0.05  # probe period while a timed call runs

END_TO_END = {"wall_s": "s", "setup_s": "s", "task_p50_ms": "ms", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Make `src/` importable and return the freshly imported betagrowth.cli."""
    if not (SRC / "betagrowth" / "__init__.py").is_file():
        raise ProgramMissing(f"no betagrowth package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "betagrowth" or n.startswith("betagrowth.")]:
        del sys.modules[name]
    cli = importlib.import_module("betagrowth.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"betagrowth imported from {cli.__file__}, not from {SRC}")
    return cli


def probe() -> float:
    """Seconds for fixed Fraction sums and dict insertions: how fast the machine is now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS):
        total += Fraction(1, k)
    table, x = {}, 1
    for i in range(PROBE_KEYS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x, i & 7] = total
    return time.perf_counter() - t0


class SpeedMeter:
    """The machine's speed around and during one timed call.

    Other tenants of a shared machine slow it by up to half for seconds to
    minutes at a time, which no number of passes within one run averages
    out.  So `probe()` runs just before and after the call and, from a
    SIGALRM timer, every PROBE_INTERVAL_S inside it; `quiet()` takes the
    in-call probes out of the call's time and scales the rest to a machine
    on which a probe takes QUIET_PROBE_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0

    def _tick(self, _signum, _frame):
        seconds = probe()
        self.samples.append(seconds)
        self.inside += seconds

    def __enter__(self):
        self.samples, self.inside = [probe()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def slowdown(self) -> float:
        """Probe time over its quiet time, as the harmonic mean of the samples."""
        return 1 / statistics.fmean(QUIET_PROBE_S / s for s in self.samples)

    def quiet(self, seconds: float) -> float:
        """`seconds` of the call, less its probes, at the quiet speed."""
        return (seconds - self.inside) / self.slowdown()


def run_task(cli, task: workloads.Task) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one CLI command; stderr is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(task.argv))
        except SystemExit as exc:          # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # noqa: BLE001 -- a crash is a failed task
            rc = -1
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


class Run:
    """Tasks attempted in this run and the reasons the failed ones failed."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failures: list[dict] = []

    def judge(self, task: workloads.Task, rc: int, stdout: str, reason: str | None = None):
        self.attempted += 1
        reason = reason or checks.check(task, rc, stdout, self.reference)
        if reason:
            self.failures.append({"task": task.key, "reason": reason})

    def run_pass(self, cli, tasks, tracer=None, expected=None,
                 meters=None) -> tuple[list[float], list[str]]:
        """Run every task once; returns (task seconds, stdouts).

        With `expected` (the stdouts of an untraced pass), a task whose
        output differs from it fails.  With a `meters` list, each task runs
        under a SpeedMeter appended to it, and its seconds include the
        meter's in-call probes.
        """
        gc.collect()
        results = []
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.begin_task(i)
            if meters is None:
                results.append(run_task(cli, task))
            else:
                with SpeedMeter() as meter:
                    results.append(run_task(cli, task))
                meters.append(meter)
            if tracer is not None:
                tracer.end_task()
        for i, (task, (rc, stdout, _s)) in enumerate(zip(tasks, results)):
            differs = expected is not None and stdout != expected[i]
            self.judge(task, rc, stdout, "tracing changed the output" if differs else None)
        return [s for _rc, _o, s in results], [o for _rc, o, _s in results]


def set_up(run: Run, workload: str, seed: int, smoke: bool):
    """Import the program, generate the inputs, run one warm-up task."""
    t0 = time.perf_counter()
    cli = load_program()
    tasks = workloads.build(workload, seed, smoke)
    warmup = workloads.WARMUP[workload]
    rc, stdout, _s = run_task(cli, warmup)
    seconds = time.perf_counter() - t0
    run.judge(warmup, rc, stdout)
    return cli, tasks, seconds


def tail_latency(samples: list[float]) -> dict:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    for p in range(99, 0, -1):
        beyond = sum(1 for s in ordered if s > cuts[p - 1])
        if beyond >= TAIL_BEYOND:
            return {"percentile": p, "value_ms": cuts[p - 1] * 1e3, "samples": len(ordered)}
    return {"percentile": None, "value_ms": None, "samples": len(ordered)}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "betagrowth").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "loadavg_at_start": _read("/proc/loadavg").strip(),
        "seed": seed,
    }


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(run: Run, args) -> tuple[dict, dict]:
    """Untraced passes: the end-to-end metrics and report extras."""
    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedMeter() as meter:
            cli, tasks, seconds = set_up(run, args.workload, args.seed, args.smoke)
        setups.append((seconds, meter))
    passes, raw, slowdown = [], [], []
    t_start = time.perf_counter()
    while True:
        meters: list[SpeedMeter] = []
        task_seconds, _outs = run.run_pass(cli, tasks, meters=meters)
        passes.append([m.quiet(s) for s, m in zip(task_seconds, meters)])
        raw.append([s - m.inside for s, m in zip(task_seconds, meters)])
        slowdown.append(statistics.fmean(m.slowdown() for m in meters))
        if time.perf_counter() - t_start + sum(task_seconds) > args.seconds:
            break
    # each task counts at its median over the passes
    per_task = [statistics.median(times) for times in zip(*passes)]
    samples = [s for times in raw for s in times]
    metrics = {
        "wall_s": sum(per_task),
        "setup_s": statistics.median(m.quiet(s) for s, m in setups),
        "task_p50_ms": statistics.median(per_task) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "passes_s": [sum(times) for times in passes],
        "raw_passes_s": [sum(times) for times in raw],
        "slowdown": slowdown,
        "raw_wall_s": sum(statistics.median(times) for times in zip(*raw)),
        "task_s": per_task,
        "setups_s": [s - m.inside for s, m in setups],
        "setup_slowdown": [m.slowdown() for _s, m in setups],
        "tasks_per_pass": len(tasks),
        "task_samples": len(samples),
        "task_tail_ms": tail_latency(samples) if len(tasks) >= TAIL_MIN_TASKS else None,
    }
    return _with_units(metrics, END_TO_END), extra


def measure_traced(run: Run, args) -> tuple[dict, dict]:
    """One untraced and one traced pass: the per-layer metrics."""
    cli, tasks, _s = set_up(run, args.workload, args.seed, args.smoke)
    untraced, untraced_out = run.run_pass(cli, tasks)
    tracer = tracing.Tracer()
    with tracer.installed():
        # the module attribute is wrapped too, so look it up again
        traced, _out = run.run_pass(sys.modules["betagrowth.cli"], tasks, tracer,
                                    expected=untraced_out)
    metrics = tracer.metrics(sum(traced), sum(untraced))
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans)
    extra = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.start),
             "tasks_per_pass": len(tasks)}
    return _with_units(metrics, tracing.METRICS), extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run only the seconds-long subset of the workload")
    args = ap.parse_args(argv)
    try:
        load_program()
        env = environment(args.seed)
        run = Run(json.loads(REFERENCE.read_text()))
        metrics, extra = (measure_traced if args.trace else measure)(run, args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = len(run.failures)
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = {"value": failed / run.attempted, "unit": "ratio"}
        tail = extra["task_tail_ms"]
        if tail is not None:
            shown["task_tail_ms"] = {"value": tail["value_ms"], "unit": "ms",
                                     "percentile": tail["percentile"],
                                     "samples": tail["samples"]}
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "smoke": args.smoke, "env": env, **extra,
        "attempted": run.attempted, "failed": failed,
        "failures": run.failures[:MAX_FAILURES_SHOWN],
        "metrics": shown,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
