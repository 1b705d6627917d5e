"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke-sized runs of every workload (a few seconds each), traced and
untraced, plus the output check against a corrupted value and the refusal
to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def _bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def _units(specs: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in specs}


def test_metric_lists_match_benchmark_json():
    assert run.END_TO_END == _units(BENCHMARK["end_to_end"])
    assert tracing.METRICS == _units(BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    report, result = _parse(_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["metrics"]["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert {"commit", "python", "numpy", "mpmath", "nproc", "cpu_model",
            "loadavg_at_start", "seed"} <= set(report["env"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_matches_untraced(workload):
    # the run fails a task whose traced output differs from its untraced one
    report, result = _parse(_bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0, report["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(tracing.METRICS)
    assert metrics["cli.main.self_s"] > 0
    assert 0.9 < metrics["trace.self_coverage"] <= 1.0
    assert (run.ROOT / report["spans_file"]).is_file()


def _smoke_output(workload: str, command: str) -> tuple[workloads.Task, str]:
    task = next(t for t in workloads.build(workload, 3, smoke=True) if t.argv[0] == command)
    rc, stdout, _s = run.run_task(run.load_program(), task)
    assert checks.check(task, rc, stdout, REFERENCE) is None
    return task, stdout


def test_output_check_fails_a_corrupted_exact_value():
    task, stdout = _smoke_output("localdim", "dims")
    last = stdout.splitlines()[-1]
    num, den = last.rsplit(",", 1)[1].split("/")
    corrupted = stdout.replace(last, last.replace(f"{num}/{den}", f"{int(num) + 1}/{den}"))
    assert corrupted != stdout
    assert checks.check(task, 0, corrupted, REFERENCE) == "exact output differs from the reference"


def test_output_check_fails_a_corrupted_count():
    task, stdout = _smoke_output("exact", "count")
    head, count = stdout.rstrip("\n").rsplit(",", 1)
    corrupted = f"{head},{int(count) + 1}\n"
    assert checks.check(task, 0, corrupted, REFERENCE) == "exact output differs from the reference"


def test_output_check_fails_a_float_outside_tolerance():
    task, stdout = _smoke_output("localdim", "dims")
    slope = json.loads(stdout.splitlines()[0][len("# config: "):])["slope"]
    corrupted = stdout.replace(slope, repr(float(slope) * (1 + 1e-6)))
    assert checks.check(task, 0, corrupted, REFERENCE).startswith("float #")


def test_output_check_fails_a_nonzero_integer_case_gamma():
    zero = next(t for t in workloads.build("gamma", 3, smoke=True) if t.check == workloads.MC_ZERO)
    rc, stdout, _s = run.run_task(run.load_program(), zero)
    assert checks.check(zero, rc, stdout, REFERENCE) is None
    corrupted = stdout.replace(",0.0,", ",1e-300,", 1)
    assert checks.check(zero, 0, corrupted, REFERENCE) == "gamma 1e-300 is not exactly 0.0"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("exact", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_pass_fails_a_task_whose_output_changed():
    task = next(t for t in workloads.build("exact", 3, smoke=True) if t.argv[0] == "count")
    bench_run = run.Run(REFERENCE)
    bench_run.run_pass(run.load_program(), [task], expected=["another output\n"])
    assert bench_run.failures == [{"task": task.key, "reason": "tracing changed the output"}]
