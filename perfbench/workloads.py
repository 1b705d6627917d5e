"""Task lists of the four benchmark workloads, generated from a seed.

Every seed-dependent input is drawn from a fixed pool (itself generated
from a constant pool seed), so `reference.json` can hold the expected
output of every task any workload seed can produce.  A task is one CLI
command line; `check` names the rule its output is judged by.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("localdim", "spectrum", "gamma", "exact")

# check kinds
REFERENCE = "reference"   # exact part identical, floats within tolerance
MC_SERIES = "mc_series"   # |mc - series gamma| <= 3 stderr
MC_LOG2 = "mc_log2"       # |mc - log 2| <= 3 stderr
MC_ZERO = "mc_zero"       # gamma exactly 0.0

POOL_SEED = 20260810
POOL_SIZE = 64


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    check: str = REFERENCE
    smoke: bool = False      # part of the seconds-long smoke run

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _task(cmd: str, check: str = REFERENCE, smoke: bool = False) -> Task:
    return Task(tuple(cmd.split()), check, smoke)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pool(name: str, draw, size: int = POOL_SIZE) -> list[str]:
    rng = random.Random(f"{POOL_SEED}-{name}")
    return [_frac(draw(rng)) for _ in range(size)]


def _switch_point(beta: float):
    # criterion 7's sampling: uniform in the switch region [1/b, 1/(b(b-1))],
    # cut to six decimals; the pointwise growth bound is stated there
    def draw(rng):
        xf = rng.uniform(1 / beta, 1 / (beta * (beta - 1)))
        return Fraction(int(xf * 10 ** 6), 10 ** 6)
    return draw


def _uniform(right_end: Fraction):
    return lambda rng: Fraction(rng.randrange(1, 10 ** 6), 10 ** 6) * right_end


# Lebesgue-random points of I_beta = [0, 1/(beta-1)], as in criterion 10;
# 161803/10^5 < phi and 119148/10^5 < 1/(tribonacci-1) keep them inside.
GOLDEN_POINTS = _pool("golden", _uniform(Fraction(161803, 10 ** 5)), 128)
TRIB_POINTS = _pool("tribonacci", _uniform(Fraction(119148, 10 ** 5)), 32)
BOUND_POINTS = {spec: _pool(f"bound-{spec}", _switch_point(float(spec)))
                for spec in ("1.3", "1.4", "1.5")}
COUNT_POINTS = {spec: _pool(f"count-{spec}", _uniform(Fraction(1)))
                for spec in ("golden", "multinacci:3")}

GOLDEN_DIMS = "dims --beta golden --x {} --levels 1..30 --margin 10"
TRIB_DIMS = "dims --beta multinacci:3 --x {} --levels 1..20 --margin 10"
BOUND = "bound --beta {} --x {} --n-max 24"
COUNT_N = {"golden": 30, "multinacci:3": 20}
COUNT = "count --beta {} --x {} --n {}"

# workload sizes: one pass of each takes 3.5-6 s on a 2-vCPU 2.1 GHz Xeon, so
# a 30-second run repeats it three to eight times
LOCALDIM_GOLDEN = 4
LOCALDIM_TRIB = 1
EXACT_PER_BOUND_BASE = 10
EXACT_PER_COUNT_BASE = 10
MC_SEEDS = 64

SPECTRUM_TASKS = [
    _task("tau --beta golden --q-list=-1,0,1,2 --levels 12..18 --margin 8"),
    _task("sums --beta golden --n-max 24"),
    _task("sums --beta multinacci:3 --n-max 18", smoke=True),
    _task("sums --beta 13/10 --n-max 18"),
]
AUTOMATA = [
    _task("automaton --beta poly:-1,0,-1,1"),
    _task("automaton --beta golden --m 3"),
    _task("automaton --beta golden --m 4"),
    _task("automaton --beta multinacci:3", smoke=True),
    _task("automaton --beta multinacci:4", smoke=True),
    _task("automaton --beta multinacci:5"),
]
TRIB_SERIES = _task("gamma --beta multinacci:3 --method series", smoke=True)

# one small untimed task per workload, run during set-up
WARMUP = {
    "localdim": _task("dims --beta golden --x 2/5 --levels 1..12 --margin 10"),
    "spectrum": _task("sums --beta golden --n-max 16"),
    "gamma": _task("gamma --beta int:2 --m 2 --method mc --paths 2000 --chains 2 --seed 0",
                   MC_ZERO),
    "exact": _task("automaton --beta multinacci:3"),
}


def _localdim(rng: random.Random) -> list[Task]:
    golden = rng.sample(GOLDEN_POINTS, LOCALDIM_GOLDEN)
    trib = rng.sample(TRIB_POINTS, LOCALDIM_TRIB)
    tasks = [_task(GOLDEN_DIMS.format(x), smoke=(i == 0)) for i, x in enumerate(golden)]
    tasks += [_task(TRIB_DIMS.format(x)) for x in trib]
    return tasks


def _spectrum(rng: random.Random) -> list[Task]:
    return rng.sample(SPECTRUM_TASKS, len(SPECTRUM_TASKS))


def _gamma(rng: random.Random) -> list[Task]:
    mc_seed = rng.randrange(MC_SEEDS)
    return [
        _task(f"gamma --beta multinacci:3 --method mc --paths 50000 --chains 16 --seed {mc_seed}",
              MC_SERIES),
        _task(f"gamma --beta int:2 --m 4 --method mc --paths 20000 --chains 8 --seed {mc_seed}",
              MC_LOG2, smoke=True),
        _task(f"gamma --beta int:2 --m 2 --method mc --paths 20000 --chains 8 --seed {mc_seed}",
              MC_ZERO, smoke=True),
        TRIB_SERIES,
        _task("table1 --n-range 2..10"),
    ]


def _exact(rng: random.Random) -> list[Task]:
    tasks = list(AUTOMATA)
    for spec, pool in BOUND_POINTS.items():
        for i, x in enumerate(rng.sample(pool, EXACT_PER_BOUND_BASE)):
            tasks.append(_task(BOUND.format(spec, x), smoke=(i == 0)))
    for spec, pool in COUNT_POINTS.items():
        for i, x in enumerate(rng.sample(pool, EXACT_PER_COUNT_BASE)):
            tasks.append(_task(COUNT.format(spec, x, COUNT_N[spec]), smoke=(i == 0)))
    rng.shuffle(tasks)
    return tasks


_BUILDERS = {"localdim": _localdim, "spectrum": _spectrum, "gamma": _gamma, "exact": _exact}


def build(workload: str, seed: int, smoke: bool = False) -> list[Task]:
    """The workload's task list for this seed (the smoke subset if asked)."""
    tasks = _BUILDERS[workload](random.Random(f"{workload}-{seed}"))
    return [t for t in tasks if t.smoke] if smoke else tasks


def reference_tasks() -> list[Task]:
    """Every task whose output is compared with `reference.json`."""
    tasks = [_task(GOLDEN_DIMS.format(x)) for x in GOLDEN_POINTS]
    tasks += [_task(TRIB_DIMS.format(x)) for x in TRIB_POINTS]
    tasks += SPECTRUM_TASKS + AUTOMATA + [TRIB_SERIES, _task("table1 --n-range 2..10")]
    for spec, pool in BOUND_POINTS.items():
        tasks += [_task(BOUND.format(spec, x)) for x in pool]
    for spec, pool in COUNT_POINTS.items():
        tasks += [_task(COUNT.format(spec, x, COUNT_N[spec])) for x in pool]
    tasks += [t for t in WARMUP.values() if t.check == REFERENCE]
    return list({t.key: t for t in tasks}.values())
