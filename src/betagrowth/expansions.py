"""Counting and enumerating beta-expansion prefixes.

The central object is a level-synchronous DP over digit sums: `Lattice.sweep`
steps a whole level of states t -> beta*t + eps in numpy, merges states of
equal value with summed multiplicities and keeps those in one window.  With
R = (m-1)/(beta-1), a scaled sum t after k digits is a prefix of an
expansion of a point of [a, b] exactly when beta^k a - R <= t <= beta^k b;
N_n(x) is the window of [x, x].  Merging keeps the reachable state set
constant-size for Pisot bases (Garsia separation); for rational ones the
window bounds it, and when m <= p for beta = p/q no two words share a
state, so a windowed step skips the merge.  Degree-one keys stay int64,
windowed or not, as limbs, a format only this module reads or writes:
the merge packs limb rows in stages of dense ranks, `garsia_report` takes
its gaps from them and `Lattice.joined` turns them into Python ints for
the atoms.  `Lattice.window` derives a
window where a sweep starts, and the sweep carries its two ends from
level to level in integers, by the step's own map; `Lattice.narrowed`
shifts a carried window to that of a smaller interval.  `Lattice.inside` is
the one window test: `NumberField.compare_rows` (the vector float screen,
with a proven error bound and an exact fallback) from degree two on,
exact integer comparisons of limbs in degree one.  The random map K_beta
of `simulate` takes its digits off the same inequality, one digit at a
time.  `kappa` reads its floor of a logarithm off proven float bounds and
compares exact powers of beta only where those bounds hold an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, HypothesisError, InvalidInputError, InvariantError
from .numberfield import INT64_MAX, BetaSystem, FieldElement, Powers

# the most states any one level of a `Lattice.sweep` may hold
DEFAULT_ATOM_CAP = 4_000_000
# the largest power of beta that `kappa` compares exactly
KAPPA_EXACT_POWER = 2 ** 20
# the relative widening of each float step of `_log_bounds` (DECISIONS.md)
LOG_SLACK = 2.0 ** -48
# p times a limb, plus a limb and a carry, must fit int64 (DECISIONS.md)
LIMB_P_BOUND = 2 ** 30
GAP_BLOCK = 1024
# degree-one key rows are int64 limbs in base 2^LIMB_BITS
LIMB_BITS = 32
LIMB_MASK = (1 << LIMB_BITS) - 1
GOLDEN_COEFFS = (-1, -1, 1)


# ---------------------------------------------------------------------------
# the lattice DP kernel
# ---------------------------------------------------------------------------

Level = tuple[np.ndarray, np.ndarray]  # (keys, counts): distinct key rows, word counts
Window = tuple[np.ndarray, int]  # (ends, den): rows lo and hi of a prefix window, over den


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) for the distinct rows of a nonempty integer matrix:
    keys[order] puts equal rows next to each other, and starts indexes the
    first row of each group.  The order is the stable sort of the rows read
    from the last column.  The sort key reads a row in the mixed radix of
    the column spans (DECISIONS.md), one column too, as int64 offsets from
    the column minima: in one stage when the product of the spans fits,
    else in stages (`_staged_key`).  Python-int rows are packed when the
    input is dtype object and the spans do not fit, or when a column or a
    stage would leave int64.  An int64 matrix is read through a copy of
    its transpose; reductions along axis 0 step through it d entries at a
    time and cost many times more.
    """
    cols = keys.T if keys.dtype == object else keys.T.copy()
    lows = np.minimum.reduce(cols, axis=1)
    spans = [hi - lo + 1 for lo, hi in zip(lows.tolist(), np.maximum.reduce(cols, axis=1).tolist())]
    packed = None
    if math.prod(spans) <= INT64_MAX or keys.dtype != object and max(spans) <= INT64_MAX:
        # one matrix at a time stays alive through the sorts
        cols = cols - lows[:, None]
        if keys.dtype == object:
            cols = cols.astype(np.int64)
        packed = _staged_key(cols, spans)
    if packed is None:
        # Python ints read the rows in the same radix
        cols = cols.astype(object)
        packed = cols[-1]
        for i in range(len(spans) - 2, -1, -1):
            packed = packed * spans[i] + cols[i]
    order, new = _sorted_runs(packed)
    return order, new.nonzero()[0]


def _sorted_runs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of a nonempty key vector, and which places of the
    sorted keys start a run of equal keys."""
    order = packed.argsort(kind="stable")
    packed = packed.take(order)
    new = np.empty(len(packed), dtype=bool)
    new[0] = True
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    return order, new


def _staged_key(cols: np.ndarray, spans: list[int]) -> np.ndarray | None:
    """An int64 key whose stable argsort is that of the rows of the offset
    columns cols (each in [0, span)) read from the last column, or None
    when a stage would leave int64.  The columns are packed from the last
    down, key * span + column, while the key's range times the next span
    fits; then the key is replaced by its dense rank among the distinct
    keys, which orders the rows alike in fewer values (DECISIONS.md)."""
    packed, size = cols[-1], spans[-1]
    for i in range(len(spans) - 2, -1, -1):
        if size * spans[i] > INT64_MAX:
            order, new = _sorted_runs(packed)
            ranks = new.cumsum() - 1
            packed = np.empty_like(packed)
            packed[order] = ranks
            size = int(ranks[-1]) + 1
            if size * spans[i] > INT64_MAX:
                return None
        packed, size = packed * spans[i] + cols[i], size * spans[i]
    return packed


def _limbs(value: int, width: int) -> list[int]:
    """A nonnegative integer as width little-endian base-2^LIMB_BITS limbs,
    the last one taking what is left."""
    shift = LIMB_BITS * (width - 1)
    return [value >> (LIMB_BITS * i) & LIMB_MASK for i in range(width - 1)] + [value >> shift]


def _at_least(rows: np.ndarray, bound: int) -> np.ndarray:
    """Whether each degree-one row's integer is at least the bound.  Rows
    are one column of Python ints, or int64 limbs (`Lattice.step`), last
    limb first; a bound whose last limb leaves int64 settles every row,
    so no int64 column meets a Python int outside int64, which numpy 1.x
    would compare in floats."""
    if rows.dtype == object:
        return rows[:, 0] >= bound
    width = rows.shape[1]
    top = bound >> (LIMB_BITS * (width - 1))
    if not -INT64_MAX - 1 <= top <= INT64_MAX:
        return np.full(len(rows), top < 0)
    at_least = rows[:, -1] >= top
    if width > 1:
        # rows whose last limb equals the bound's are decided by the rest
        tied = (rows[:, -1] == top).nonzero()[0]
        rest = bound - (top << (LIMB_BITS * (width - 1)))
        at_least[tied] = _at_least(rows[tied, :-1], rest)
    return at_least


def check_int64_coefficients(sys: BetaSystem) -> None:
    """Reject a coefficient outside int64: the step's dtype bound keeps int64
    products in range only when the step matrix's entries are int64."""
    big, bound = max(map(abs, sys.minpoly.coeffs)), int(np.iinfo(np.int64).max)
    if big > bound:
        raise InvalidInputError(
            f"{sys.spec}: minimal polynomial coefficient {big} exceeds the int64 bound "
            f"2^63 - 1 = {bound} of the lattice steps")


class Lattice:
    """Digit sums scaled by beta^k, as integer vectors: the one DP state format.

    After k digits the scaled sum t = sum_{j<=k} eps_j beta^(k-j) is stored
    as the integer vector c with t = (sum_i c_i beta^i) / lead^k, where lead
    is the leading coefficient of the minimal polynomial (1 when it is
    monic, q for beta = p/q).  Since 1, beta, ..., beta^(d-1) is a basis of
    Q(beta), equal values at one level have equal vectors.  A `Level`
    holds each vector once, as a row of one key matrix, with a count
    vector.  Both are int64 while an a-priori bound taken before each step
    shows that the step cannot overflow, and Python ints (dtype object)
    from then on.  Degree one with p < 2^30 (`limbs`) is the exception,
    windowed or not: a key is one row of int64 limbs, little-endian base
    2^LIMB_BITS digits, each in [0, 2^LIMB_BITS) but the last, and a limb
    is added before a step that could overflow the last.  `joined` turns
    limb rows back into Python ints.

    A base is collision-free when beta = p/q in lowest terms (q >= 1) and
    m <= p: then distinct words have distinct keys (DECISIONS.md), every
    count is 1 and level k of an unwindowed `sweep` holds exactly m^k
    states, so its windowed steps skip the merge and an unwindowed `sweep`
    checks the cap up front.
    """

    def __init__(self, sys: BetaSystem):
        self.sys = sys
        coeffs = sys.minpoly.coeffs
        self.lead = coeffs[-1]
        self.row = row = [-c for c in coeffs[:-1]]  # lead*beta^d = sum row_i beta^i
        self.degree = d = len(row)
        check_int64_coefficients(sys)
        # c @ matrix is the key of lead * beta * (value of c), in c's dtype
        self._matrix = np.vstack([self.lead * np.eye(d - 1, d, 1, dtype=np.int64), row])
        self._object_matrix = self._matrix.astype(object)
        # no entry of times_beta(rows) exceeds growth * max|rows| in size
        self.growth = self.lead + max(map(abs, row))
        # (beta * lead) ** k scales a window derived at level k
        self.grow_powers = Powers(sys.beta * self.lead)
        # degree one: row = [p] for beta = p/q, so no step ever merges two words
        self.collision_free = d == 1 and sys.m <= row[0]
        # degree one with p < 2^30: keys stay int64, as limbs
        self.limbs = d == 1 and row[0] < LIMB_P_BOUND
        self.start = (np.zeros((1, d), dtype=np.int64), np.ones(1, dtype=np.int64))

    def window(self, k: int, a: FieldElement, b: FieldElement) -> Window:
        """The prefix window of [a, b] at level k: beta^k a - R <= t <= beta^k b
        for the scaled sums t it keeps, since the digits after a prefix add a
        tail in [0, R], R = (m-1)/(beta-1).  In key units (times lead^k) its
        ends are (beta lead)^k a - R lead^k and (beta lead)^k b, returned as
        the rows lo and hi of an object matrix over one denominator.  A sweep
        carries a window from level to level (`next_window`), and
        `narrowed` shifts it to the window of a smaller interval."""
        power = self.grow_powers[k]
        ends = (a * power - self.sys.right_end * self.lead ** k, b * power)
        den = math.lcm(*(end.den for end in ends))
        rows = [[c * (den // end.den) for c in end.num] for end in ends]
        return np.array(rows, dtype=object), den

    def next_window(self, window: Window, k: int) -> Window:
        """The level-(k+1) window from the level-k one, in integers and over
        the same denominator: its ends step like the digit-0 and digit-(m-1)
        children of a key, hi to lead beta hi and lo to lead beta lo +
        (m-1) lead^(k+1), since R (beta - 1) = m - 1 (DECISIONS.md)."""
        ends, den = window
        ends = self.times_beta(ends)
        ends[0, 0] += (self.sys.m - 1) * self.lead ** (k + 1) * den
        return ends, den

    def narrowed(self, window: Window, k: int, delta: FieldElement) -> Window:
        """The level-k window with both ends moved inward by delta lead^k in
        key units, over the lcm of the denominators: the window of
        [a + s, b - s] from that of [a, b] when delta = s beta^k
        (DECISIONS.md, "Ball brackets")."""
        ends, den = window
        lcm = math.lcm(den, delta.den)
        shift = [c * self.lead ** k * (lcm // delta.den) for c in delta.num]
        return ends * (lcm // den) + np.array([shift, [-c for c in shift]], dtype=object), lcm

    def inside(self, keys: np.ndarray, window: Window) -> np.ndarray:
        """Whether each key of the window's level lies in it, ends included:
        `NumberField.compare_rows` from degree two on; in degree one a key's
        integer c is in [lo, hi] exactly when ceil(lo) <= c <= floor(hi), on
        Python-int or limb rows."""
        ends, den = window
        lo, hi = ends.tolist()
        if self.degree > 1:
            (_, below), (above, _) = self.sys.field.compare_rows(keys, (lo, den), (hi, den))
            return ~(below | above)
        return _at_least(keys, -(-lo[0] // den)) & ~_at_least(keys, hi[0] // den + 1)

    def step(self, level: Level, k: int, window: Window | None = None) -> Level:
        """Level-k states -> level-(k+1) states under t -> beta*t + eps.

        Counts of merged states add up.  Given the level-(k+1) window, the
        step keeps the states `inside` it.  Keys on limbs stay on limbs,
        with or without a window.  A windowed step of a collision-free base
        has no equal rows to merge and returns them unsorted; an unwindowed
        step always returns its rows merged, in the order of
        `_distinct_rows`, which is increasing value in degree one.
        """
        keys, counts = level
        m, scale = self.sys.m, self.lead ** (k + 1)
        limbs = self.limbs and keys.dtype != object
        if limbs:
            keys = self._widened(keys, scale)
        elif keys.dtype != object:
            # a new entry is a sum of at most two products plus a digit term,
            # so |entry| <= max|key| * (lead + max|row|) + (m-1) * lead^(k+1)
            big = int(np.maximum.reduce(np.abs(keys), axis=None, initial=0))
            if big * self.growth + (m - 1) * scale > INT64_MAX:
                keys = keys.astype(object)
        # no count exceeds the m^(k+1) words of length k+1
        if counts.dtype != object and m ** (k + 1) > INT64_MAX:
            counts = counts.astype(object)
        # the rows of digit 0, then those of digit 1, ...: digit e adds
        # e * lead^(k+1) to column 0 of the e-th copy, or its limbs to the limbs
        keys = self.times_beta(keys)
        rows, width = len(keys), keys.shape[1]
        keys = np.concatenate((keys,) * m)
        for e in range(1, m):
            for i, digit in enumerate(_limbs(e * scale, width) if limbs else [e * scale]):
                if digit:
                    keys[e * rows:(e + 1) * rows, i] += digit
        if limbs:
            # carry each limb's excess into the next: every limb below the
            # last is back in [0, 2^LIMB_BITS)
            for i in range(width - 1):
                keys[:, i + 1] += keys[:, i] >> LIMB_BITS
                keys[:, i] &= LIMB_MASK
        # row i of every digit block has the count of row i of the level, so
        # counts are gathered with indices taken modulo the level's size
        if window is not None:
            inside = self.inside(keys, window).nonzero()[0]
            # take gathers rows about ten times faster than keys[inside]
            keys, counts = keys.take(inside, axis=0), counts.take(inside, mode="wrap")
            if self.collision_free:
                return keys, counts
        if len(keys) <= 1:
            return keys, counts
        order, starts = _distinct_rows(keys)
        if len(starts) == len(order):  # no two rows merge, as on a collision-free base
            return keys.take(order, axis=0), counts.take(order, mode="wrap")
        return keys.take(order[starts], axis=0), np.add.reduceat(counts.take(order, mode="wrap"),
                                                                 starts)

    def _widened(self, keys: np.ndarray, scale: int) -> np.ndarray:
        """Limb keys, a new last limb split off until the next step fits.
        Degree-one keys are nonnegative and below (top + 1) 2^shift, so the
        last limb of p c + e scale is at most (p (top + 1) 2^shift + (m-1)
        scale) >> shift; the limbs below stay under (p + 2) 2^LIMB_BITS.
        Once top is 0 and the digit term is below 2^shift the bound is p,
        which no further split shrinks: InvariantError if that does not fit."""
        while True:
            shift = LIMB_BITS * (keys.shape[1] - 1)
            top = int(keys[:, -1].max(initial=0))
            grown = (self.row[0] * (top + 1) << shift) + (self.sys.m - 1) * scale
            if grown >> shift <= INT64_MAX:
                return keys
            if grown >> shift == self.row[0]:
                raise InvariantError(f"no split of a limb fits a step of p = {self.row[0]} in int64")
            last = keys[:, -1:]
            keys = np.concatenate((keys[:, :-1], last & LIMB_MASK, last >> LIMB_BITS), axis=1)

    def joined(self, keys: np.ndarray) -> np.ndarray:
        """A level's keys with more than one limb as a one-column object
        matrix of Python ints, limbs joined; other keys as they are."""
        if not self.limbs or keys.dtype == object or keys.shape[1] == 1:
            return keys
        joined = keys[:, -1].astype(object)
        for i in reversed(range(keys.shape[1] - 1)):
            joined = (joined << LIMB_BITS) + keys[:, i].astype(object)
        return joined[:, None]

    def times_beta(self, rows: np.ndarray) -> np.ndarray:
        """Integer rows of lead * beta times the value of each row, in the
        rows' dtype: a sum of at most two products per entry.  In degree
        one that is p times each entry, limbs too (`step` carries them)."""
        if self.degree == 1:
            return rows * self.row[0]
        return rows @ (self._object_matrix if rows.dtype == object else self._matrix)

    def sweep(self, n: int, window: Window | None = None, level: Level | None = None, k: int = 0):
        """Step the level-k states `level` (the empty word's by default) to
        level n, yielding each level with its window: the states `inside`
        the window carried by `next_window` from the level-k `window` when
        one is given, unwindowed (window None) otherwise.  A level over
        DEFAULT_ATOM_CAP states raises CapExceededError."""
        if n < 0:
            raise InvalidInputError("level must be nonnegative")
        level = self.start if level is None else level
        if window is None and self.collision_free:
            # level j holds m^(j-k) states per level-k state, known before any step
            for j in range(k + 1, n + 1):
                self.check_cap(len(level[1]) * self.sys.m ** (j - k), j)
        for j in range(k, n):
            if window is not None:
                window = self.next_window(window, j)
            level = self.step(level, j, window)
            self.check_cap(len(level[1]), j + 1)
            yield level, window

    @staticmethod
    def check_cap(states: int, k: int) -> None:
        if states > DEFAULT_ATOM_CAP:
            raise CapExceededError(f"{states} DP states at level {k} exceed the cap {DEFAULT_ATOM_CAP}")


# ---------------------------------------------------------------------------
# prefix counts: `count`, `bound` and the branching tree of `tree`
# ---------------------------------------------------------------------------

def _coerce_point(x, sys: BetaSystem) -> FieldElement:
    x = sys.element(x)
    if not sys.in_interval(x):
        raise InvalidInputError("x lies outside I_beta")
    return x


def prefix_count_series(x, n_max: int, sys: BetaSystem) -> list[int]:
    """[N_0(x), N_1(x), ..., N_{n_max}(x)], all exact.

    N_k(x) counts the prefixes that pass the prefix window of the point
    interval [x, x]: after k digits with scaled sum t the remainder
    beta^k x - t must lie in [0, (m-1)/(beta-1)].  The length-k prefixes
    are the depth-k nodes of the branching tree of admissible digit choices,
    so the series is also the tree's node count per depth.
    """
    if n_max < 0:
        raise InvalidInputError("prefix length must be nonnegative")
    x = _coerce_point(x, sys)
    lattice = Lattice(sys)
    sweep = lattice.sweep(n_max, lattice.window(0, x, x))
    return [1] + [int(c.sum()) for (_keys, c), _window in sweep]


def count_prefixes(x, n: int, sys: BetaSystem) -> int:
    """Number of admissible length-n prefixes of beta-expansions of x."""
    return prefix_count_series(x, n, sys)[n]


# ---------------------------------------------------------------------------
# kappa and the growth bound
# ---------------------------------------------------------------------------

def kappa(sys: BetaSystem) -> Fraction:
    """Universal lower-bound exponent for beta below the golden ratio.

    kappa = (1/2) / (floor(log_beta(1/delta)) + 1) with
    delta = (1+beta-beta^2)/(beta^2-1) for beta > sqrt(2), else beta-1.
    The floor t is read off float bounds of the logarithm (`_log_bounds`);
    only where they hold an integer do exact powers of beta decide it,
    compared with 1/delta by `_power_at_most`.
    """
    beta = sys.beta
    one = sys.field.one
    if (beta * beta - beta - one).sign() >= 0:
        raise HypothesisError("kappa requires 1 < beta < (1+sqrt(5))/2")
    if (beta * beta - 2).sign() > 0:
        ratio = (beta * beta - one) / (one + beta - beta * beta)
    else:
        ratio = one / (beta - one)
    lo, hi = _log_bounds(sys, ratio)
    t = math.floor(lo)  # beta^t <= ratio
    if hi >= t + 1:
        if not hi <= KAPPA_EXACT_POWER:
            raise InvalidInputError(
                f"kappa: log_beta(1/delta) lies in [{lo:.6g}, {hi:.6g}], which floats do not "
                f"narrow to one integer, past the exact powers of beta up to {KAPPA_EXACT_POWER}")
        above = math.floor(hi) + 1  # ratio < beta^above
        while above - t > 1:
            mid = (t + above) // 2
            if _power_at_most(beta, mid, ratio):
                t = mid
            else:
                above = mid
    return Fraction(1, 2 * (t + 1))


def _log_bounds(sys: BetaSystem, ratio: FieldElement) -> tuple[float, float]:
    """Floats lo <= log(ratio) / log(beta) <= hi for ratio > 1 (DECISIONS.md):
    beta - 1 and ratio each widened to the ends of their `float_value`
    bounds, then libm's log1p and log, the quotient, and every rounding on
    the way widened by LOG_SLACK; (0, inf) where the floats bound nothing."""
    ends = []
    for x in (sys.beta - 1, ratio):
        val, err = sys.field.float_value(x.num, x.den)
        ends += [val - err, val + err]
    eps_lo, eps_hi, ratio_lo, ratio_hi = ends
    if not (eps_lo > 0 and ratio_lo > 1 and ratio_hi < math.inf):
        return 0.0, math.inf
    down, up = 1 - LOG_SLACK, 1 + LOG_SLACK
    lo = math.log(ratio_lo) * down / (math.log1p(eps_hi) * up) * down
    hi = math.log(ratio_hi) * up / (math.log1p(eps_lo) * down) * up
    return lo, hi


def _power_at_most(beta: FieldElement, n: int, ratio: FieldElement) -> bool:
    """beta^n <= ratio, exactly; in degree one beta = p/q and ratio = a/b are
    positive, so it is p^n b <= a q^n, in Python ints with no gcd."""
    if beta.field.degree == 1:
        return beta.num[0] ** n * ratio.den <= ratio.num[0] * beta.den ** n
    return (ratio - beta ** n).sign() >= 0


def _count_meets_bound(count: int, kap: Fraction, n: int) -> bool:
    """count >= 2^(kappa*n - 1), decided with integer arithmetic."""
    num = kap.numerator * n - kap.denominator
    if num <= 0:
        return count >= 1
    return count ** kap.denominator >= 2 ** num


@dataclass(frozen=True)
class GrowthBoundRow:
    n: int
    count: int
    bound: float
    ok: bool


@dataclass(frozen=True)
class GrowthBoundReport:
    kappa: Fraction
    rows: tuple[GrowthBoundRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_growth_bound(sys: BetaSystem, x, n_max: int) -> GrowthBoundReport:
    """Check N_n(x) >= 2^(kappa*n - 1) for 1 <= n <= n_max, exactly."""
    check_int64_coefficients(sys)  # an oversized base fails on its coefficients, not in kappa
    kap = kappa(sys)
    x = _coerce_point(x, sys)
    if x.sign() <= 0 or (sys.right_end - x).sign() <= 0:
        raise InvalidInputError("growth bound requires interior x")
    counts = prefix_count_series(x, n_max, sys)
    rows = []
    for n in range(1, n_max + 1):
        exponent = float(kap) * n - 1  # past the float range the bound is inf; `ok` is exact
        bound = 2.0 ** exponent if exponent < 1024 else math.inf
        rows.append(GrowthBoundRow(n, counts[n], bound, _count_meets_bound(counts[n], kap, n)))
    return GrowthBoundReport(kap, tuple(rows))


# ---------------------------------------------------------------------------
# the random transformation K_beta
# ---------------------------------------------------------------------------

def simulate_expansion(x, n: int, sys: BetaSystem, coin_bits: Iterable[int]) -> list[int]:
    """Digits emitted by n iterations of K_beta driven by the given coin bits.

    K_beta keeps the digits e with beta x - e in I_beta: the prefix window
    of [x, x], one digit at a time.  Two digits k-1 and k fit exactly on
    the switch region S_k = [k/beta, (R + k - 1)/beta], where a coin bit
    picks k and its absence k-1.  No third fits: R = floor(beta)/(beta-1)
    < 2 for floor(beta) >= 2, and m = 2 otherwise.  On an integer base two
    digits fit only at a cell boundary k/beta, which takes the larger with
    no coin.  K_beta needs m = floor(beta) + 1 digits, or m = beta on an
    integer base.
    """
    fb, integer = sys.beta_floor(), sys.is_integer_base()
    if integer:
        if sys.m != fb:
            raise InvalidInputError("integer base requires m = beta in K_beta mode")
    elif sys.m != fb + 1:
        raise InvalidInputError("K_beta requires m = floor(beta) + 1")
    bits = iter(coin_bits)
    digits = []
    cur = _coerce_point(x, sys)
    for _ in range(n):
        scaled = cur * sys.beta
        fits = [e for e in range(sys.m) if sys.in_interval(scaled - e)]
        digit = fits[0] if len(fits) > 1 and not integer and not next(bits) else fits[-1]
        digits.append(digit)
        cur = scaled - digit
    return digits


# ---------------------------------------------------------------------------
# distinct power sums (Garsia diagnostics)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GarsiaRow:
    n: int
    count: int
    count_over_beta_n: float
    min_gap_scaled: float


def garsia_report(sys: BetaSystem, n_max: int) -> list[GarsiaRow]:
    """Distinct-sum counts and minimum normalized gaps for n = 1..n_max.

    The reported gap is beta^n * (smallest difference between distinct
    level-n sums); Garsia separation predicts a positive lower bound for
    Pisot beta.  The minimum is certified.  In degree one the merged keys of
    an unwindowed `sweep` are integers in increasing order, as limbs or
    Python ints, so the least gap is the least exact difference of
    neighbours (`_least_gap`), checked positive.  Otherwise
    the sums are presorted by their float values (`NumberField.float_rows`),
    and every gap whose float value lies within the proven error bounds of
    the smallest one is compared exactly, so no gap left out can be smaller
    and a misordered presort is detected.  Tied candidates share one difference
    of two keys; the differences are merged by `_distinct_rows`, the
    lattice step's merge, so each distinct one is decided once (at golden
    n = 24, 75,024 candidates are one difference).
    """
    rows = []
    beta_f = float(sys.beta)
    lattice = Lattice(sys)
    field = sys.field
    for n, ((keys, _counts), _window) in enumerate(lattice.sweep(n_max), start=1):
        size = len(keys)
        if size < 2:
            rows.append(GarsiaRow(n, size, size / beta_f ** n, math.inf))
            continue
        if lattice.degree == 1:
            gap = _least_gap(keys)
            if gap <= 0:
                raise InvariantError(f"level-{n} keys of the unwindowed sweep out of order")
            best = FieldElement(field, (gap,), lattice.lead ** n)
            rows.append(GarsiaRow(n, size, size / beta_f ** n, float(best)))
            continue
        # gaps of the keys: the sums scaled by lead^n beta^n
        vals, errs = field.float_rows(keys)
        order = np.argsort(vals, kind="stable")
        gaps = np.diff(vals[order])
        # every true gap lies within slack of its float value: float_error is
        # over three times the evaluation error, which leaves room for the
        # rounding of the subtraction
        errs = errs[order]
        slack = errs[1:] + errs[:-1]
        cands = np.flatnonzero(gaps - slack <= (gaps + slack).min())
        # the step's bound covers the keys, and their differences fit int64
        # only when twice the largest candidate key does
        lows = np.take(keys, order[cands], axis=0)
        highs = np.take(keys, order[cands + 1], axis=0)
        if keys.dtype != object and 2 * max(int(np.abs(lows).max()),
                                            int(np.abs(highs).max())) > INT64_MAX:
            lows, highs = lows.astype(object), highs.astype(object)
        diffs = highs - lows
        rank, starts = _distinct_rows(diffs)
        diffs = np.take(diffs, rank[starts], axis=0)
        if (field.sign_rows(diffs, field.zero) <= 0).any():
            raise InvariantError(f"float presort put a larger level-{n} sum first")
        best = min(FieldElement(field, tuple(d), lattice.lead ** n) for d in diffs.tolist())
        rows.append(GarsiaRow(n, size, size / beta_f ** n, float(best)))
    return rows


def _least_gap(keys: np.ndarray) -> int:
    """The least difference of neighbouring rows of a level of increasing
    degree-one keys, exactly.  Python-int rows are differenced a block at a
    time, since a level of Python-int differences at once leaves the heap
    fragmented.  Limb rows are differenced limb by limb and the borrows
    carried up as in `Lattice.step`, all in int64, which gives each gap's
    limbs, the last one signed; the least gap is the least row read from
    its last limb (bounds: DECISIONS.md)."""
    if keys.dtype == object:
        return min(np.diff(keys[i:i + GAP_BLOCK + 1, 0]).min()
                   for i in range(0, len(keys) - 1, GAP_BLOCK))
    gaps, width = np.diff(keys, axis=0), keys.shape[1]
    for i in range(width - 1):
        gaps[:, i + 1] += gaps[:, i] >> LIMB_BITS
        gaps[:, i] &= LIMB_MASK
    for i in reversed(range(width)):
        gaps = gaps[gaps[:, i] == gaps[:, i].min()]
    return sum(limb << (LIMB_BITS * i) for i, limb in enumerate(gaps[0].tolist()))


# ---------------------------------------------------------------------------
# golden-ratio block counts and the sparse construction
# ---------------------------------------------------------------------------

def _require_golden(sys: BetaSystem) -> None:
    if sys.minpoly.coeffs != GOLDEN_COEFFS or sys.m != 2:
        raise InvalidInputError("this operation is specific to the golden ratio with m=2")


def count_X_m(m_param: int, sys: BetaSystem) -> int:
    """Number of {0,1} words of one compensation block summing to 1/beta.

    A block of the sparse construction contributes the words of length
    2*m_param whose value sum_{j} eps_j beta^-j equals 1/beta exactly; there
    are m_param of them (the chain 10^(2m-1), 0110^(2m-3), 01011 0^..., ...).
    Every prefix of such a word passes the prefix window of the point rho,
    and its level-2m scaled sum is beta^(2m-1), so the count is the weight
    of that one state in the lattice DP of x = rho.
    """
    _require_golden(sys)
    if m_param < 1:
        raise InvalidInputError("m_param must be >= 1")
    length = 2 * m_param
    lattice = Lattice(sys)
    for (keys, counts), _window in lattice.sweep(length, lattice.window(0, sys.rho, sys.rho)):
        pass
    # golden is monic, so a key is the integer vector of its value
    return int(counts[(keys == (sys.beta ** (length - 1)).num).all(axis=1)].sum())


@dataclass(frozen=True)
class SparseCheckpoint:
    n: int
    block_product: int
    prefix_count: int
    log_product_over_n: float
    log_prefix_over_n: float


def sparse_profile(m_seq: Sequence[int], sys: BetaSystem) -> list[SparseCheckpoint]:
    """Sparse-expansion checkpoints for x with expansion 1 0^(2m_1) 1 0^(2m_2) ...

    At checkpoint n_k = sum_{j<=k} (2 m_j + 1) reports the block-product
    count prod_j count_X_m(m_j) and, as a cross-check, the exact DP prefix
    count of the truncated point; the ratio log(count)/n should decay.
    """
    _require_golden(sys)
    if not m_seq or min(m_seq) < 1:
        raise InvalidInputError("m_seq must be a nonempty list of block sizes >= 1")
    if any(b <= a for a, b in zip(m_seq, m_seq[1:])):
        raise InvalidInputError("m_seq must be strictly increasing")
    # block k's 1 at p_k: p_1 = 1, p_(k+1) = p_k + 2 m_k + 1 = n_k + 1
    positions = [1]
    for mk in m_seq:
        positions.append(positions[-1] + 2 * mk + 1)
    x = sys.field.zero
    for p in positions[:-1]:
        x = x + sys.rho_powers[p]
    checkpoints = [p - 1 for p in positions[1:]]
    rows = []
    product = 1
    counts = prefix_count_series(x, checkpoints[-1], sys)
    for mk, n_k in zip(m_seq, checkpoints):
        product *= count_X_m(mk, sys)
        dp = counts[n_k]
        rows.append(
            SparseCheckpoint(
                n=n_k,
                block_product=product,
                prefix_count=dp,
                log_product_over_n=math.log(product) / n_k,
                log_prefix_over_n=math.log(dp) / n_k,
            )
        )
    return rows
