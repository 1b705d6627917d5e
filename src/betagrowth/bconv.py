"""Finite-level discretization of the Bernoulli convolution mu_{beta,m}.

A level-n digit word contributes the sum sum_{k<=n} eps_k beta^-k.  Both
mechanisms below run the lattice DP `expansions.Lattice.sweep` on these
sums scaled by beta^n: a state is a row c of an integer key matrix, standing
for (sum_i c_i beta^i) / lead^n with lead the leading coefficient of the
minimal polynomial, and a count vector holds the exact number of words
that reach each state.

  * level_atoms, an unwindowed sweep, enumerates the full level-n
    distribution (distinct digit sums with exact word counts) -- cheap for
    Pisot bases, capped otherwise; sorted floats back the L^q estimator.
  * interval_mass and ball_mass_brackets sweep in the prefix window of
    `Lattice.inside`, level 0 included, so certified two-sided ball-mass
    brackets at any depth come without enumerating the whole measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .expansions import Lattice, _coerce_point
from .numberfield import BetaSystem

DEFAULT_MARGIN = 10


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MeasureAtoms:
    """Level-n distribution of sum_{k<=n} eps_k beta^-k under uniform digits.

    Stored as level-n lattice keys (value * beta^n) with exact word counts;
    weights are counts / m^n.  `values` and `weights`, their floats, are
    sorted by value when the atoms are built.
    """

    sys: BetaSystem
    level: int
    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        lead = self.sys.minpoly.coeffs[-1]
        vals = self.sys.field.float_rows(self.keys)[0] / float(lead ** self.level)
        order = np.argsort(vals, kind="stable")
        self.values = vals[order] * float(self.sys.rho) ** self.level
        self.weights = self.counts[order].astype(float) / float(self.sys.m) ** self.level
        self._cells = {}

    @property
    def size(self) -> int:
        return len(self.counts)

    def total_weight(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.sys.m ** self.level)

    def cell_masses(self, width: float) -> np.ndarray:
        """Masses of the grid cells [j*width, (j+1)*width) that hold an atom,
        in increasing j, kept per width for every q of a tau table.  The
        values are sorted, so each cell's atoms are one run, and the run
        numbers are the labels a sort of the cells would give; bincount then
        adds each cell's weights in the same order (DECISIONS.md)."""
        if width not in self._cells:
            cells = np.floor(self.values / width)
            starts = np.flatnonzero(cells[1:] != cells[:-1]) + 1
            runs = np.diff(starts, prepend=0, append=len(cells))
            labels = np.repeat(np.arange(len(runs)), runs)
            self._cells[width] = np.bincount(labels, weights=self.weights)
        return self._cells[width]


def level_atoms(sys: BetaSystem, n: int) -> MeasureAtoms:
    """Exact level-n atoms of mu, merged by value."""
    lattice = Lattice(sys)
    level = lattice.start
    for level in lattice.sweep(n):
        pass
    return MeasureAtoms(sys, n, *level)


# ---------------------------------------------------------------------------
# windowed interval mass
# ---------------------------------------------------------------------------

def interval_mass(sys: BetaSystem, level: int, lo, hi) -> Fraction:
    """mu_level([lo, hi]) exactly: the fraction of length-level digit words
    whose value lies in the closed interval.

    With R = (m-1)/(beta-1), these are the words whose prefixes, the empty
    one included, pass the prefix window of [lo + R beta^-level, hi], so the
    live state count is proportional to the window width at the current scale.
    """
    if level < 0:
        raise InvalidInputError("level must be nonnegative")
    a = sys.element(lo) + sys.right_end * sys.rho_powers[level]
    hi = sys.element(hi)
    lattice = Lattice(sys)
    states = lattice.start
    for states in lattice.sweep(level, a, hi):
        pass
    inside = lattice.inside(states[0], level, a, hi)
    return Fraction(int(states[1][inside].sum()), sys.m ** level)


def _sorted_levels(levels: Sequence[int], margin: int, min_count: int = 0) -> list[int]:
    """The distinct levels in increasing order, checked before any DP runs."""
    levels = sorted(set(levels))
    if min(levels, default=0) < 0 or margin < 0:
        raise InvalidInputError("levels and margin must be nonnegative")
    if len(levels) < min_count:
        raise InvalidInputError(f"need at least {min_count} levels")
    return levels


def ball_mass_brackets(sys: BetaSystem, x, levels: Sequence[int],
                       margin: int) -> dict[int, tuple[Fraction, Fraction]]:
    """{n: certified (lower, upper) for mu([x - r_n, x + r_n])} for n in
    `levels`, r_n = R beta^-n, R = (m-1)/(beta-1), from words of length
    L = n + margin, in one sweep.

    A length-L word of value v codes the points of [v, v + R beta^-L], so
    mu_L([x - r_n, x + r_n - R beta^-L]) <= mu(ball) <= mu_L([x - r_n -
    R beta^-L, x + r_n]).  The sweep keeps the prefix window of the ball of
    the smallest unfinished n, which contains those of all larger n (why no
    word is lost: DECISIONS.md).  At level L its states give the upper
    count, and those within the level-L window of the lower interval, which
    lies inside the ball's, give the lower count.
    """
    levels = _sorted_levels(levels, margin)
    x = _coerce_point(x, sys)
    lattice = Lattice(sys)
    states, k = lattice.start, 0
    brackets = {}
    for n in levels:
        r = sys.right_end * sys.rho_powers[n]
        for states in lattice.sweep(n + margin, x - r, x + r, states, k):
            pass
        k = n + margin
        tail = sys.right_end * sys.rho_powers[k]
        inside = lattice.inside(states[0], k, x - r + tail, x + r - tail)
        lower, upper = int(states[1][inside].sum()), int(states[1].sum())
        brackets[n] = (Fraction(lower, sys.m ** k), Fraction(upper, sys.m ** k))
    return brackets


# ---------------------------------------------------------------------------
# local dimension estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalDimRow:
    n: int
    radius: float
    mass_lower: Fraction
    mass_upper: Fraction


@dataclass(frozen=True)
class LocalDimEstimate:
    slope: float
    residual: float        # rms regression residual in log-log space
    bracket_width: float   # max half-gap between the log-mass brackets
    rows: tuple[LocalDimRow, ...]


def _regression_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    resid = [y - ybar - slope * (x - xbar) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(e * e for e in resid) / n)
    return slope, rms


def _deepest_half(levels: Sequence[int]) -> list[int]:
    ordered = sorted(levels)
    keep = math.ceil(len(ordered) / 2)
    return ordered[-keep:]


def local_dim_estimate(x, sys: BetaSystem, levels: Sequence[int],
                       margin: int = DEFAULT_MARGIN) -> LocalDimEstimate:
    """Slope of log mu(ball) against log radius along r_n = (m-1)/(beta-1)*beta^-n.

    Ball masses are bracketed from level n+margin words in one sweep
    (`ball_mass_brackets`); the regression uses the deepest half of the
    requested levels (small n is transient).
    """
    if len(set(levels)) < 3:
        raise InvalidInputError("need at least 3 levels for a slope")
    rows = []
    for n, (lower, upper) in ball_mass_brackets(sys, x, levels, margin).items():
        if lower == 0:
            raise InvalidInputError(
                f"zero lower mass bracket at level {n}; increase margin"
            )
        rows.append(LocalDimRow(n, float(sys.right_end * sys.rho_powers[n]), lower, upper))
    used = set(_deepest_half([row.n for row in rows]))
    xs, ys, widths = [], [], []
    for row in rows:
        if row.n not in used:
            continue
        ll, lu = math.log(row.mass_lower), math.log(row.mass_upper)
        xs.append(math.log(row.radius))
        ys.append((ll + lu) / 2)
        widths.append((lu - ll) / 2)
    slope, rms = _regression_slope(xs, ys)
    return LocalDimEstimate(slope, rms, max(widths), tuple(rows))


# ---------------------------------------------------------------------------
# L^q spectrum estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauEstimate:
    q: float
    tau: float
    residual: float
    levels_used: tuple[int, ...]


def _check_q(q_list: Sequence[float]) -> None:
    if not all(-2 <= q <= 4 for q in q_list):
        raise InvalidInputError("q must lie in [-2, 4]")


def lq_spectrum_estimate(q: float, sys: BetaSystem, levels: Sequence[int],
                         margin: int = 8,
                         atoms: MeasureAtoms | None = None) -> TauEstimate:
    """Box-moment estimate of tau(q) on the grids of width 2*beta^-n.

    The sup over disjoint ball families is replaced by the grid partition
    moment; cells of zero mass are excluded (they only matter for q <= 0).
    Heuristic for q < 0, exact for the uniform calibration case.
    """
    _check_q([q])
    levels = _sorted_levels(levels, margin, min_count=3)
    if atoms is None:
        atoms = level_atoms(sys, max(levels) + margin)
    beta_f = float(sys.beta)
    used = _deepest_half(levels)
    xs, ys = [], []
    for n in used:
        r = beta_f ** (-n)
        width = 2 * r
        moment = float((atoms.cell_masses(width) ** q).sum())
        xs.append(math.log(r))
        ys.append(math.log(moment))
    slope, rms = _regression_slope(xs, ys)
    return TauEstimate(q, slope, rms, tuple(used))


def lq_spectrum_table(q_list: Sequence[float], sys: BetaSystem,
                      levels: Sequence[int], margin: int = 8) -> list[TauEstimate]:
    """tau-hat for several q sharing one atom construction."""
    _sorted_levels(levels, margin, min_count=3)
    _check_q(q_list)
    atoms = level_atoms(sys, max(levels) + margin)
    return [
        lq_spectrum_estimate(q, sys, levels, margin=margin, atoms=atoms)
        for q in q_list
    ]
