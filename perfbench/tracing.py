"""Traced run: spans around the calls into betagrowth's public functions.

The program is not changed.  While a Tracer is installed, the listed
functions are replaced in every betagrowth module namespace that holds them
(bconv imports `prefix_count_series` by name, cli imports `parse_beta`), and
the listed methods are replaced on their class, so intra-module calls and
method calls are caught too.  Each call records a span (name, parent span,
task, start, end); self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

MODULES = ("numberfield", "expansions", "netautomaton", "lyapunov", "bconv", "cli")


def _arg(name):
    return lambda bound, result: bound[name]


# (module, function, work counted per call from its arguments or result)
FUNCTIONS = (
    ("numberfield", "parse_beta", None),
    ("expansions", "prefix_count_series", _arg("n_max")),
    ("expansions", "verify_growth_bound", None),
    ("expansions", "garsia_report", lambda bound, rows: sum(r.count for r in rows)),
    ("netautomaton", "build_automaton", lambda bound, auto: auto.size),
    ("netautomaton", "essential_class", None),
    ("lyapunov", "estimate_gamma_mc", lambda bound, est: bound["path_len"] * bound["n_chains"]),
    ("lyapunov", "parry_chain", None),
    ("lyapunov", "gamma_multinacci_series", None),
    ("bconv", "local_dim_estimate", None),
    ("bconv", "interval_mass", _arg("level")),
    ("bconv", "level_atoms", lambda bound, atoms: atoms.size),
    ("bconv", "lq_spectrum_estimate", None),
    ("cli", "main", None),
)
# (module, class, method, span name); __rmul__ is the same function as __mul__
METHODS = (
    ("numberfield", "FieldElement", "sign", "numberfield.sign"),
    ("numberfield", "FieldElement", "__mul__", "numberfield.mul"),
    ("numberfield", "NumberField", "sign_of", "numberfield.sign_of"),
    ("numberfield", "NumberField", "sign_int_coeffs", "numberfield.sign_int_coeffs"),
)

# per-layer metrics of a traced run, with units, in report order
METRICS = {
    "numberfield.sign.calls": "count",
    "numberfield.sign.self_s": "s",
    "numberfield.sign_of.calls": "count",
    "numberfield.sign_of.self_s": "s",
    "numberfield.mul.calls": "count",
    "numberfield.mul.self_s": "s",
    "numberfield.bisections": "count",
    "numberfield.sign_int_coeffs.calls": "count",
    "numberfield.sign_int_coeffs.self_s": "s",
    "numberfield.screen_ratio": "ratio",
    "numberfield.parse_beta.self_s": "s",
    "expansions.prefix_count_series.calls": "count",
    "expansions.prefix_count_series.self_s": "s",
    "expansions.prefix_levels_per_s": "levels/s",
    "expansions.verify_growth_bound.self_s": "s",
    "expansions.garsia_report.self_s": "s",
    "expansions.sums_per_s": "sums/s",
    "netautomaton.build_automaton.self_s": "s",
    "netautomaton.essential_class.self_s": "s",
    "netautomaton.states": "count",
    "netautomaton.states_per_s": "states/s",
    "lyapunov.estimate_gamma_mc.self_s": "s",
    "lyapunov.mc_steps_per_s": "steps/s",
    "lyapunov.parry_chain.self_s": "s",
    "lyapunov.gamma_multinacci_series.self_s": "s",
    "bconv.local_dim_estimate.self_s": "s",
    "bconv.interval_mass.calls": "count",
    "bconv.interval_mass.self_s": "s",
    "bconv.mass_levels_per_s": "levels/s",
    "bconv.level_atoms.self_s": "s",
    "bconv.atoms_per_s": "atoms/s",
    "bconv.lq_spectrum_estimate.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{m}.failed": "count" for m in MODULES},
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_coverage": "ratio",
}

# rate metric -> (span whose self time is the denominator)
RATES = {
    "expansions.prefix_levels_per_s": "expansions.prefix_count_series",
    "expansions.sums_per_s": "expansions.garsia_report",
    "netautomaton.states_per_s": "netautomaton.build_automaton",
    "lyapunov.mc_steps_per_s": "lyapunov.estimate_gamma_mc",
    "bconv.mass_levels_per_s": "bconv.interval_mass",
    "bconv.atoms_per_s": "bconv.level_atoms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Tracer:
    """Spans kept in flat arrays in memory; summarised and written at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_task = -1
        self.work: dict[str, float] = {}
        self.failed = dict.fromkeys(MODULES, 0)
        self.bisections = 0
        self._stack: list[int] = []
        self._fields: list[tuple[object, Fraction]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, span: str, work=None):
        nid = len(self.names)
        self.names.append(span)
        self.work[span] = 0
        module = span.split(".", 1)[0]
        signature = inspect.signature(fn) if work is not None else None
        clock = time.perf_counter
        stack, name_id, parent, task = self._stack, self.name_id, self.parent, self.task
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            task.append(self.current_task)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[module] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work[span] += work(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Wrap the listed functions and methods; restore them on exit."""
        package = {name: sys.modules[f"betagrowth.{name}"] for name in MODULES}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "betagrowth" or n.startswith("betagrowth.")]
        try:
            for module, fname, work in FUNCTIONS:
                original = getattr(package[module], fname)
                traced = self._wrap(original, f"{module}.{fname}", work)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, attr, traced)
            for module, cname, meth, span in METHODS:
                cls = getattr(package[module], cname)
                original = vars(cls)[meth]
                traced = self._wrap(original, span)
                for attr, value in list(vars(cls).items()):
                    if value is original:
                        self._replace(cls, attr, traced)
            field_cls = package["numberfield"].NumberField
            init = field_cls.__init__
            fields = self._fields

            def registering_init(field, *args, **kwargs):
                init(field, *args, **kwargs)
                lo, hi = field.bracket()
                fields.append((field, hi - lo))

            self._replace(field_cls, "__init__", registering_init)
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    def begin_task(self, index: int) -> None:
        self.current_task = index

    def end_task(self) -> None:
        """Count root-bracket bisections of the fields the task created."""
        for field, width0 in self._fields:
            lo, hi = field.bracket()
            if width0 == 0:  # degree one: the root is rational and exact
                continue
            halvings = width0 / (hi - lo)  # bisection halves the width exactly
            self.bisections += halvings.numerator.bit_length() - 1
        self._fields.clear()
        self.current_task = -1

    # -- results -------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, parent, dur - child

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        names, parent, self_time = self._arrays()
        n_names = len(self.names)
        calls = dict(zip(self.names, np.bincount(names, minlength=n_names).tolist()))
        self_s = dict(zip(self.names, np.bincount(names, weights=self_time,
                                                  minlength=n_names).tolist()))
        values: dict[str, float] = {}
        for name in METRICS:
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                values[name] = calls[head]
            elif tail == "self_s":
                values[name] = self_s[head]
        for rate, span in RATES.items():
            values[rate] = _ratio(self.work[span], self_s[span])
        screened = calls["numberfield.sign_int_coeffs"]
        sic_id = self.names.index("numberfield.sign_int_coeffs")
        callers = parent[(names == self.names.index("numberfield.sign_of")) & (parent >= 0)]
        escalated = np.unique(callers[names[callers] == sic_id]).size
        values["numberfield.screen_ratio"] = _ratio(screened - escalated, screened)
        values["numberfield.bisections"] = self.bisections
        values["netautomaton.states"] = self.work["netautomaton.build_automaton"]
        for module in MODULES:
            values[f"{module}.failed"] = self.failed[module]
            module_self = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            values[f"{module}.self_share"] = _ratio(module_self, traced_wall_s)
        values["trace.wall_s"] = traced_wall_s
        values["trace.untraced_wall_s"] = untraced_wall_s
        values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        values["trace.self_coverage"] = _ratio(float(self_time.sum()), traced_wall_s)
        return {name: values[name] for name in METRICS}

    def write(self, path: Path) -> None:
        """All spans as arrays: names[name_id], parent index, task, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
