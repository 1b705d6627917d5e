"""Finite-level discretization of the Bernoulli convolution mu_{beta,m}.

A level-n digit word contributes the sum sum_{k<=n} eps_k beta^-k.  Both
mechanisms below run the lattice DP of `expansions.Lattice` on these sums
scaled by beta^n: a state is an integer vector c standing for
(sum_i c_i beta^i) / lead^n, with lead the leading coefficient of the
minimal polynomial; degree-one bases use the plain integer c.  Each state
carries the exact number of words that reach it.

  * level_atoms enumerates the full level-n distribution (distinct digit
    sums with exact word counts) -- cheap for Pisot bases, capped otherwise;
    it backs the L^q moment estimator.
  * interval_mass counts, by a windowed DP with exact pruning, the level-L
    words whose sum lands in a given interval; ball masses at any depth
    come from it without enumerating the whole measure.

Ball masses are certified two-sided: mu differs from its level-L
truncation by at most the tail diameter (m-1)/(beta-1)*beta^-L, so
shrinking/growing the radius by that amount brackets the true mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import HypothesisError, InvalidInputError
from .expansions import (Lattice, _coerce_point, _count_meets_bound, kappa,
                         prefix_count_series)
from .numberfield import BetaSystem, FieldElement

DEFAULT_ATOM_CAP = 4_000_000
DEFAULT_MARGIN = 10


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

@dataclass
class MeasureAtoms:
    """Level-n distribution of sum_{k<=n} eps_k beta^-k under uniform digits.

    Stored as level-n lattice keys (value * beta^n) with exact word counts;
    weights are counts / m^n.
    """

    sys: BetaSystem
    level: int
    counts: dict

    def __post_init__(self):
        self._lattice = Lattice(self.sys)
        self._sorted_cache = None

    @property
    def size(self) -> int:
        return len(self.counts)

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.sys.m ** self.level)

    def _sorted(self):
        if self._sorted_cache is None:
            keys = list(self.counts)
            vals = np.array(self._lattice.float_values(keys, self.level))
            order = np.argsort(vals, kind="stable")
            keys = [keys[i] for i in order]
            values = vals[order] * float(self.sys.rho) ** self.level
            cnts = np.array([float(self.counts[k]) for k in keys])
            weights = cnts / float(self.sys.m) ** self.level
            self._sorted_cache = (keys, values, weights)
        return self._sorted_cache

    def values_float(self) -> np.ndarray:
        return self._sorted()[1]

    def weights_float(self) -> np.ndarray:
        return self._sorted()[2]

    def items_exact(self):
        """(value FieldElement, weight Fraction) in increasing value order."""
        keys, _v, _w = self._sorted()
        rho_n = self.sys.rho ** self.level
        denom = self.sys.m ** self.level
        for key in keys:
            yield self._lattice.value(key, self.level) * rho_n, Fraction(self.counts[key], denom)

    def refine(self) -> "MeasureAtoms":
        """Push every atom through one more uniform digit and merge."""
        return MeasureAtoms(self.sys, self.level + 1,
                            self._lattice.step(self.counts, self.level))


def level_atoms(sys: BetaSystem, n: int, cap: int = DEFAULT_ATOM_CAP) -> MeasureAtoms:
    """Exact level-n atoms of mu, merged by value."""
    if n < 0:
        raise InvalidInputError("level must be nonnegative")
    lattice = Lattice(sys)
    counts = {lattice.zero: 1}
    for counts in lattice.levels(n, cap):
        pass
    return MeasureAtoms(sys, n, counts)


# ---------------------------------------------------------------------------
# windowed interval mass
# ---------------------------------------------------------------------------

def interval_mass(sys: BetaSystem, level: int, lo, hi,
                  cap: int = DEFAULT_ATOM_CAP) -> Fraction:
    """mu_level([lo, hi]) exactly: the fraction of length-level digit words
    whose value lies in the closed interval.

    States whose reachable completions cannot intersect [lo, hi] are pruned
    each level, so the live state count is proportional to the window width
    at the current scale, not to the full atom count.
    """
    lo = sys.element(lo)
    hi = sys.element(hi)
    if (hi - lo).sign() < 0:
        return Fraction(0)
    m = sys.m
    # after k digits a scaled sum t can still land in [lo, hi] iff
    # lo*beta^k - tails[level-k] <= t <= hi*beta^k, where
    # tails[j] = (m-1)*(rho + ... + rho^j) is the most the last j digits add
    tails = [sys.field.zero]
    power = sys.field.one
    for _ in range(level):
        power = power * sys.rho
        tails.append(tails[-1] + power * (m - 1))
    if hi.sign() < 0 or (lo - tails[level]).sign() > 0:
        return Fraction(0)  # the empty word's sum 0 is outside the level-0 window
    lattice = Lattice(sys)
    states = {lattice.zero: 1}
    lo_k, hi_k = lo, hi
    for k in range(level):
        lo_k = lo_k * sys.beta
        hi_k = hi_k * sys.beta
        states = lattice.step(states, k, lo_k - tails[level - k - 1], hi_k)
        lattice.check_cap(states, cap, k + 1)
        if not states:
            return Fraction(0)
    return Fraction(sum(states.values()), m ** level)


def tail_diameter(sys: BetaSystem, level: int) -> FieldElement:
    """(m-1)/(beta-1) * beta^-level: how far mu can move past level `level`."""
    return sys.right_end * sys.rho ** level


def ball_mass_bracket(sys: BetaSystem, x, r, level: int,
                      cap: int = DEFAULT_ATOM_CAP) -> tuple[Fraction, Fraction]:
    """Certified (lower, upper) for mu([x-r, x+r]) from level-`level` words."""
    x = sys.element(x)
    r = sys.element(r)
    tail = tail_diameter(sys, level)
    lower = interval_mass(sys, level, x - r, x + r - tail, cap=cap)
    upper = interval_mass(sys, level, x - r - tail, x + r, cap=cap)
    return lower, upper


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
                       margin: int = DEFAULT_MARGIN,
                       cap: int = DEFAULT_ATOM_CAP) -> LocalDimEstimate:
    """Slope of log mu(ball) against log radius along r_n = (m-1)/(beta-1)*beta^-n.

    Ball masses are bracketed from level n+margin words; the regression uses
    the deepest half of the requested levels (small n is transient).
    """
    if len(set(levels)) < 3:
        raise InvalidInputError("need at least 3 levels for a slope")
    x = _coerce_point(x, sys)
    rows = []
    for n in sorted(set(levels)):
        r = sys.right_end * sys.rho ** n
        lower, upper = ball_mass_bracket(sys, x, r, n + margin, cap=cap)
        if lower == 0:
            raise InvalidInputError(
                f"zero lower mass bracket at level {n}; increase margin"
            )
        rows.append(LocalDimRow(n, float(r), lower, upper))
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


def lq_spectrum_estimate(q: float, sys: BetaSystem, levels: Sequence[int],
                         margin: int = 8,
                         cap: int = DEFAULT_ATOM_CAP,
                         atoms: MeasureAtoms | None = None) -> TauEstimate:
    """Box-moment estimate of tau(q) on the grids of width 2*beta^-n.

    The sup over disjoint ball families is replaced by the grid partition
    moment; cells of zero mass are excluded (they only matter for q <= 0).
    Heuristic for q < 0, exact for the uniform calibration case.
    """
    if not -2 <= q <= 4:
        raise InvalidInputError("q must lie in [-2, 4]")
    if len(set(levels)) < 3:
        raise InvalidInputError("need at least 3 levels")
    levels = sorted(set(levels))
    if atoms is None:
        atoms = level_atoms(sys, max(levels) + margin, cap=cap)
    values = atoms.values_float()
    weights = atoms.weights_float()
    beta_f = float(sys.beta)
    used = _deepest_half(levels)
    xs, ys = [], []
    for n in used:
        r = beta_f ** (-n)
        width = 2 * r
        idx = np.floor(values / width).astype(np.int64)
        _cells, inverse = np.unique(idx, return_inverse=True)
        masses = np.bincount(inverse, weights=weights)
        masses = masses[masses > 0]
        moment = float((masses ** q).sum())
        xs.append(math.log(r))
        ys.append(math.log(moment))
    slope, rms = _regression_slope(xs, ys)
    return TauEstimate(q, slope, rms, tuple(used))


def lq_spectrum_table(q_list: Sequence[float], sys: BetaSystem,
                      levels: Sequence[int], margin: int = 8,
                      cap: int = DEFAULT_ATOM_CAP) -> list[TauEstimate]:
    """tau-hat for several q sharing one atom construction."""
    atoms = level_atoms(sys, max(levels) + margin, cap=cap)
    return [
        lq_spectrum_estimate(q, sys, levels, margin=margin, cap=cap, atoms=atoms)
        for q in q_list
    ]


# ---------------------------------------------------------------------------
# upper bound check (small beta, m = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperBoundRow:
    n: int
    count: int
    count_bound_ok: bool     # N_n >= 2^(kappa n - 1)
    mass_lower: Fraction
    sandwich_ok: bool        # mass_lower >= 2^-n * N_n
    finite_slope: float      # -(1/n) log_beta(2^-n * N_n)


@dataclass(frozen=True)
class UpperBoundReport:
    kappa: Fraction
    limit: float             # (1 - kappa) * log_beta(2)
    x: float
    rows: tuple[UpperBoundRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.count_bound_ok and r.sandwich_ok for r in self.rows)


def upper_dim_bound_check(sys: BetaSystem, x, n_max: int,
                          margin: int = 5,
                          cap: int = DEFAULT_ATOM_CAP) -> UpperBoundReport:
    """Finite-level form of the upper local-dimension bound for beta below
    the golden ratio with m = 2.

    Checks, for each n <= n_max, the chain  mu(ball(x, beta^-n/(beta-1)))
    >= 2^-n * N_n(x) >= (1/2) * 2^((kappa-1) n): the first inequality via
    the certified lower mass bracket, the second exactly.
    """
    if sys.m != 2:
        raise HypothesisError("upper bound check requires m = 2")
    kap = kappa(sys)  # raises HypothesisError for beta >= golden
    x = _coerce_point(x, sys)
    counts = prefix_count_series(x, n_max, sys)
    log_beta = math.log(float(sys.beta))
    rows = []
    for n in range(1, n_max + 1):
        count = counts[n]
        count_ok = _count_meets_bound(count, kap, n)
        r = sys.right_end * sys.rho ** n  # (m-1)/(beta-1) * beta^-n, m=2
        lower, _upper = ball_mass_bracket(sys, x, r, n + margin, cap=cap)
        sandwich_ok = lower >= Fraction(count, 2 ** n)
        slope = (n * math.log(2) - math.log(count)) / (n * log_beta)
        rows.append(UpperBoundRow(n, count, count_ok, lower, sandwich_ok, slope))
    limit = (1 - float(kap)) * math.log(2) / log_beta
    return UpperBoundReport(kap, limit, float(x), tuple(rows))
