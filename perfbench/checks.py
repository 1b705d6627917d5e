"""Output checks: what makes a benchmark task count as failed.

A CLI output (CSV with a `# config:` line, or JSON) is split into an exact
part and a list of floats.  Every cell whose text reads as a float (it has
a decimal point or an exponent) goes to the float list; everything else
-- integers, Fractions written `p/q`, field coefficients, automaton states
and matrices, booleans, names -- stays in the exact part, which is
compared through its SHA-256.  Floats are compared within FLOAT_REL_TOL,
widened to the precision a value was printed with (table1 prints six
decimals).  Monte-Carlo gamma is judged by the acceptance suite's
3-standard-error rule instead of a stored value, and a few invariants
need no reference at all.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction

import workloads

FLOAT_REL_TOL = 1e-9
_FLOAT_TEXT = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(\.\d*)?[eE][-+]?\d+|inf|nan)")


def _is_float_text(text: str) -> bool:
    return bool(_FLOAT_TEXT.fullmatch(text))


def _printed_ulp(text: str) -> float:
    """One unit in the last printed digit of a float literal."""
    mantissa, _, exp = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def _split_value(value, floats: list[str]):
    if isinstance(value, dict):
        return {k: _split_value(v, floats) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_split_value(v, floats) for v in value]
    if isinstance(value, float):
        floats.append(repr(value))
        return "~f"
    if isinstance(value, str) and _is_float_text(value):
        floats.append(value)
        return "~f"
    return value


def split_output(text: str) -> tuple[str, list[str]]:
    """(SHA-256 of the exact part, float texts in output order)."""
    floats: list[str] = []
    if text.lstrip().startswith("{"):
        exact = _split_value(json.loads(text), floats)
    else:
        exact = []
        lines = text.splitlines()
        for line in lines:
            if line.startswith("# config: "):
                exact.append(_split_value(json.loads(line[len("# config: "):]), floats))
            else:
                exact.append(_split_value(next(csv.reader([line])), floats))
    blob = json.dumps(exact, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), floats


def reference_entry(text: str) -> dict:
    digest, floats = split_output(text)
    return {"sha256": digest, "floats": floats}


def _floats_differ(got: list[str], want: list[str]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} float values, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        gv, wv = float(g), float(w)
        if math.isnan(wv) and math.isnan(gv):
            continue
        tol = max(FLOAT_REL_TOL * abs(wv), 1.01 * _printed_ulp(w))
        if not abs(gv - wv) <= tol:
            return f"float #{i} is {g}, reference {w} (tolerance {tol:.1e})"
    return None


def _csv_rows(text: str) -> list[dict]:
    body = [ln for ln in text.splitlines() if not ln.startswith("# config: ")]
    return list(csv.DictReader(body))


def _csv_config(text: str) -> dict:
    for ln in text.splitlines():
        if ln.startswith("# config: "):
            return json.loads(ln[len("# config: "):])
    return {}


def invariant_failure(task: workloads.Task, text: str) -> str | None:
    """Checks that need no reference."""
    command = task.argv[0]
    if command == "dims":
        for row in _csv_rows(text):
            lower, upper = Fraction(row["mass_lower"]), Fraction(row["mass_upper"])
            if not 0 < lower <= upper:
                return f"mass bracket [{lower}, {upper}] at n={row['n']} is not 0 < lower <= upper"
    elif command == "bound":
        if _csv_config(text).get("passed") is not True:
            return "growth bound reported as not passed"
    return None


def series_gamma(text: str) -> str:
    """gamma_nats of a `gamma` CSV output, as printed."""
    (row,) = _csv_rows(text)
    return row["gamma_nats"]


def _mc_failure(task: workloads.Task, text: str, reference: dict) -> str | None:
    (row,) = _csv_rows(text)
    value, stderr = float(row["gamma_nats"]), float(row["gamma_error"])
    if task.check == workloads.MC_ZERO:
        return None if value == 0.0 else f"gamma {value!r} is not exactly 0.0"
    if task.check == workloads.MC_LOG2:
        target = math.log(2)
    else:
        target = float(reference["tribonacci_series_gamma"])
    if not abs(value - target) <= 3 * stderr:
        return f"MC gamma {value!r} is {abs(value - target):.2e} from {target!r}, over 3 stderr"
    return None


def check(task: workloads.Task, rc: int, stdout: str, reference: dict) -> str | None:
    """None if the task's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if task.check != workloads.REFERENCE:
            return _mc_failure(task, stdout, reference)
        failure = invariant_failure(task, stdout)
        if failure:
            return failure
        want = reference["tasks"].get(task.key)
        if want is None:
            return "no reference output recorded for this task"
        digest, floats = split_output(stdout)
        if digest != want["sha256"]:
            return "exact output differs from the reference"
        return _floats_differ(floats, want["floats"])
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        return f"unparsable output: {exc!r}"
