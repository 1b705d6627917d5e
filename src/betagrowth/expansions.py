"""Counting and enumerating beta-expansion prefixes.

The central object is a level-synchronous DP over digit sums: `Lattice`
steps a whole level of states t -> beta*t + eps in numpy, merges states of
equal value with summed multiplicities and keeps those in one window.  With
R = (m-1)/(beta-1), a scaled sum t after k digits is a prefix of an
expansion of a point of [a, b] exactly when beta^k a - R <= t <= beta^k b;
N_n(x) is the window of [x, x].  Merging keeps the reachable state set
small: constant-size for Pisot bases (Garsia separation) and
window-bounded for rational ones.  Membership uses the vector float screen
`NumberField.sign_rows`, with a proven error bound and an exact fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, HypothesisError, InvalidInputError, InvariantError
from .numberfield import BetaSystem, FieldElement

DEFAULT_NODE_CAP = 500_000
DEFAULT_SUM_CAP = 5_000_000
GOLDEN_COEFFS = (-1, -1, 1)
INT64_MAX = 2 ** 63 - 1


# ---------------------------------------------------------------------------
# the lattice DP kernel
# ---------------------------------------------------------------------------

Level = tuple[np.ndarray, np.ndarray]  # (keys, counts): distinct key rows, word counts


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
    from then on; keys leave the kernel as Python ints.
    """

    def __init__(self, sys: BetaSystem):
        self.sys = sys
        coeffs = sys.minpoly.coeffs
        self.lead = coeffs[-1]
        row = [-c for c in coeffs[:-1]]  # lead*beta^d = sum row_i beta^i
        self.degree = d = len(row)
        # c @ matrix is the key of lead * beta * (value of c)
        self._matrix = np.vstack([self.lead * np.eye(d - 1, d, 1, dtype=np.int64), row])
        # no entry of times_beta(rows) exceeds growth * max|rows| in size
        self.growth = self.lead + max(map(abs, row))
        self.start = (np.zeros((1, d), dtype=np.int64), np.ones(1, dtype=np.int64))

    def windowed(self, level: Level, k: int, n: int, a: FieldElement, b: FieldElement):
        """Step level-k states up to level n, yielding each level's states.

        Only prefixes of expansions of points in [a, b] are kept: the digits
        after a prefix add a tail in [0, R], R = (m-1)/(beta-1), so the
        prefix window at level j is beta^j a - R <= t <= beta^j b.
        """
        # the window at level j, times lead^j as the keys are
        grow = self.sys.beta * self.lead
        lo, hi = a * grow ** k, b * grow ** k
        tail = self.sys.right_end * self.lead ** k
        for j in range(k, n):
            lo, tail = lo * grow, tail * self.lead
            hi = lo if b is a else hi * grow
            level = self.step(level, j, (lo - tail, hi))
            yield level

    def step(self, level: Level, k: int, window=None) -> Level:
        """Level-k states -> level-(k+1) states under t -> beta*t + eps.

        Counts of merged states add up.  A window (lo, hi) of field elements
        keeps the states whose keys' values sum_i c_i beta^i lie in it.
        """
        keys, counts = level
        m, scale = self.sys.m, self.lead ** (k + 1)
        # a new entry is a sum of at most two products plus a digit term, so
        # |entry| <= max|key| * (lead + max|row|) + (m-1) * lead^(k+1); no
        # count exceeds the m^(k+1) words of length k+1
        if keys.dtype != object:
            big = int(np.abs(keys).max(initial=0))
            if big * self.growth + (m - 1) * scale > INT64_MAX:
                keys = keys.astype(object)
        if counts.dtype != object and m ** (k + 1) > INT64_MAX:
            counts = counts.astype(object)
        # the rows of digit 0, then those of digit 1, ...
        digits = np.zeros((m, 1, self.degree), dtype=keys.dtype)
        digits[:, 0, 0] = [e * scale for e in range(m)]
        keys = (self.times_beta(keys) + digits).reshape(-1, self.degree)
        counts = np.concatenate((counts,) * m)
        if window is not None:
            lo_sign, hi_sign = self.sys.field.sign_rows(keys, *window)
            inside = ((lo_sign >= 0) & (hi_sign <= 0)).nonzero()[0]
            keys, counts = keys[inside], counts[inside]
        if len(counts) <= 1:
            return keys, counts
        # merge equal rows: sort on the rows read in the mixed radix of the
        # column spans, which is injective; offsets from the column minima
        # make it fit int64 when the product of the spans does
        low, high = keys.min(axis=0), keys.max(axis=0)
        spans = [hi_i - lo_i + 1 for lo_i, hi_i in zip(low.tolist(), high.tolist())]
        fits = math.prod(spans) - 1 <= INT64_MAX
        offsets = (keys - low).astype(np.int64) if fits else keys.astype(object, copy=False)
        packed = offsets[:, 0]
        for i in range(1, self.degree):
            packed = packed + offsets[:, i] * math.prod(spans[:i])
        order = np.argsort(packed, kind="stable")
        packed = packed[order]
        new = np.empty(len(packed), dtype=bool)
        new[0] = True
        np.not_equal(packed[1:], packed[:-1], out=new[1:])
        starts = new.nonzero()[0]
        return keys[order[starts]], np.add.reduceat(counts[order], starts)

    def times_beta(self, rows: np.ndarray) -> np.ndarray:
        """Integer rows of lead * beta times the value of each row, in the
        rows' dtype: a sum of at most two products per entry."""
        return rows @ self._matrix.astype(rows.dtype)

    def levels(self, n: int, cap: int):
        """Yield the unwindowed states of levels 1..n, starting from the empty word."""
        if cap < 0:
            raise InvalidInputError("cap must be nonnegative")
        level = self.start
        for k in range(n):
            level = self.step(level, k)
            self.check_cap(level, cap, k + 1)
            yield level

    @staticmethod
    def check_cap(level: Level, cap: int, k: int) -> None:
        if len(level[1]) > cap:
            raise CapExceededError(f"{len(level[1])} DP states at level {k} exceed the cap {cap}")

    def value(self, key: Sequence[int], k: int) -> FieldElement:
        """The exact value of a level-k key, a sequence of Python ints."""
        return FieldElement(self.sys.field, tuple(key), self.lead ** k)


# ---------------------------------------------------------------------------
# prefix counts
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
    beta^k x - t must lie in [0, (m-1)/(beta-1)].
    """
    if n_max < 0:
        raise InvalidInputError("n must be nonnegative")
    x = _coerce_point(x, sys)
    lattice = Lattice(sys)
    return [1] + [int(c.sum()) for _keys, c in lattice.windowed(lattice.start, 0, n_max, x, x)]


def count_prefixes(x, n: int, sys: BetaSystem) -> int:
    """Number of admissible length-n prefixes of beta-expansions of x."""
    return prefix_count_series(x, n, sys)[n]


# ---------------------------------------------------------------------------
# branching tree
# ---------------------------------------------------------------------------

def tree_level_counts(x, depth: int, sys: BetaSystem,
                      node_cap: int = DEFAULT_NODE_CAP) -> list[int]:
    """Nodes per depth 0..depth of the tree of admissible digit choices.

    The nodes at depth k are the length-k prefixes, so the counts are
    N_0(x), ..., N_depth(x).  The levels are stepped one at a time and the
    first depth whose cumulative node count exceeds node_cap raises
    CapExceededError; the root alone is never held against the cap.
    """
    if depth < 0 or node_cap < 0:
        raise InvalidInputError("depth and node cap must be nonnegative")
    x = _coerce_point(x, sys)
    lattice = Lattice(sys)
    counts = [1]
    for _keys, level_counts in lattice.windowed(lattice.start, 0, depth, x, x):
        counts.append(int(level_counts.sum()))
        if sum(counts) > node_cap:
            raise CapExceededError(
                f"{max(node_cap, 1) + 1} branch-tree nodes at depth {len(counts) - 1} "
                f"exceed the cap {node_cap}"
            )
    return counts


# ---------------------------------------------------------------------------
# kappa and the growth bound
# ---------------------------------------------------------------------------

def kappa(sys: BetaSystem) -> Fraction:
    """Universal lower-bound exponent for beta below the golden ratio.

    kappa = (1/2) / (floor(log_beta(1/delta)) + 1) with
    delta = (1+beta-beta^2)/(beta^2-1) for beta > sqrt(2), else beta-1.
    The floor is computed exactly by comparing powers of beta with 1/delta.
    """
    beta = sys.beta
    one = sys.field.one
    if (beta * beta - beta - one).sign() >= 0:
        raise HypothesisError("kappa requires 1 < beta < (1+sqrt(5))/2")
    if (beta * beta - 2).sign() > 0:
        ratio = (beta * beta - one) / (one + beta - beta * beta)
    else:
        ratio = one / (beta - one)
    t = 0
    power = beta
    while (ratio - power).sign() >= 0:  # beta^(t+1) <= ratio
        t += 1
        power = power * beta
    return Fraction(1, 2 * (t + 1))


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
    kap = kappa(sys)
    x = _coerce_point(x, sys)
    if x.sign() <= 0 or (sys.right_end - x).sign() <= 0:
        raise InvalidInputError("growth bound requires interior x")
    counts = prefix_count_series(x, n_max, sys)
    rows = []
    for n in range(1, n_max + 1):
        bound = 2.0 ** (float(kap) * n - 1)
        rows.append(GrowthBoundRow(n, counts[n], bound, _count_meets_bound(counts[n], kap, n)))
    return GrowthBoundReport(kap, tuple(rows))


# ---------------------------------------------------------------------------
# switch regions and the random transformation K_beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchGeometry:
    """Switch intervals S_k (closed) and the equality regions between them."""

    sys: BetaSystem
    floor_beta: int
    switch: tuple[tuple[FieldElement, FieldElement], ...]  # S_k, k = 1..floor(beta)

    def classify(self, x: FieldElement) -> tuple[str, int]:
        """('switch', k) when x in S_k; otherwise ('equal', k) with the
        forced digit k.  Boundary points of S_k count as switch points."""
        x = _coerce_point(x, self.sys)
        for k, (lo, hi) in enumerate(self.switch, start=1):
            if (x - lo).sign() >= 0 and (hi - x).sign() >= 0:
                return ("switch", k)
        # equality region: digit k for x between S_k and S_{k+1}
        if not self.switch:
            # integer base: plain digit cells [k/beta, (k+1)/beta)
            k = 0
            while k + 1 < self.sys.m and (x * self.sys.beta - (k + 1)).sign() >= 0:
                k += 1
            return ("equal", k)
        for k, (lo, _hi) in enumerate(self.switch, start=1):
            if (x - lo).sign() < 0:
                return ("equal", k - 1)
        return ("equal", self.floor_beta)


def switch_geometry(sys: BetaSystem) -> SwitchGeometry:
    """Exact switch/equality intervals of the random transformation K_beta.

    Requires the K_beta digit convention m = floor(beta) + 1 for non-integer
    beta.  An integer base (with m = beta) has no switch region at all.
    """
    fb = sys.beta_floor()
    if sys.is_integer_base():
        if sys.m != fb:
            raise InvalidInputError("integer base requires m = beta in K_beta mode")
        return SwitchGeometry(sys, fb, ())
    if sys.m != fb + 1:
        raise InvalidInputError("K_beta requires m = floor(beta) + 1")
    one = sys.field.one
    base = sys.field.rational(fb) / (sys.beta * (sys.beta - one))
    intervals = []
    for k in range(1, fb + 1):
        lo = sys.field.rational(k) / sys.beta
        hi = base + sys.field.rational(k - 1) / sys.beta
        if (hi - lo).sign() < 0:
            raise InvalidInputError("empty switch interval; is beta < m - 1?")
        intervals.append((lo, hi))
    return SwitchGeometry(sys, fb, tuple(intervals))


def step_k_beta(omega_head: int, x, sys: BetaSystem) -> tuple[bool, int, FieldElement]:
    """One step of K_beta: (coin consumed?, emitted digit, beta*x - digit)."""
    x = _coerce_point(x, sys)
    kind, k = switch_geometry(sys).classify(x)
    if kind == "equal":
        return False, k, x * sys.beta - k
    digit = k if omega_head else k - 1
    return True, digit, x * sys.beta - digit


def simulate_expansion(x, n: int, sys: BetaSystem, coin_bits: Iterable[int]) -> list[int]:
    """Digits emitted by n iterations of K_beta driven by the given coin bits."""
    geom = switch_geometry(sys)
    bits = iter(coin_bits)
    digits = []
    cur = _coerce_point(x, sys)
    for _ in range(n):
        kind, k = geom.classify(cur)
        if kind == "equal":
            digit = k
        else:
            digit = k if next(bits) else k - 1
        digits.append(digit)
        cur = cur * sys.beta - digit
    return digits


# ---------------------------------------------------------------------------
# distinct power sums (Garsia diagnostics)
# ---------------------------------------------------------------------------

def distinct_sums_count(n: int, sys: BetaSystem, cap: int = DEFAULT_SUM_CAP) -> int:
    """Number of distinct values of sum_{j<=n} eps_j beta^-j, exact."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    for keys, _counts in Lattice(sys).levels(n, cap):
        pass
    return len(keys)


@dataclass(frozen=True)
class GarsiaRow:
    n: int
    count: int
    count_over_beta_n: float
    min_gap_scaled: float


def garsia_report(sys: BetaSystem, n_max: int, cap: int = DEFAULT_SUM_CAP) -> list[GarsiaRow]:
    """Distinct-sum counts and minimum normalized gaps for n = 1..n_max.

    The reported gap is beta^n * (smallest difference between distinct
    level-n sums); Garsia separation predicts a positive lower bound for
    Pisot beta.  The minimum is certified: the sums are presorted by their
    float values (`NumberField.float_rows`), and every gap whose float value
    lies within the proven error bounds of the smallest one is compared
    exactly, so no gap left out can be smaller and a misordered presort is
    detected.
    """
    rows = []
    beta_f = float(sys.beta)
    lattice = Lattice(sys)
    field = sys.field
    for n, (keys, _counts) in enumerate(lattice.levels(n_max, cap), start=1):
        size = len(keys)
        if size < 2:
            rows.append(GarsiaRow(n, size, size / beta_f ** n, math.inf))
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
        # tied gaps share one difference row, so each is decided once; the
        # step's bound covers the keys, and their differences fit int64 only
        # when twice the largest candidate key does
        lows, highs = keys[order[cands]], keys[order[cands + 1]]
        if keys.dtype != object and 2 * max(int(np.abs(lows).max()),
                                            int(np.abs(highs).max())) > INT64_MAX:
            lows, highs = lows.astype(object), highs.astype(object)
        diffs = highs - lows
        if diffs.dtype == object:
            diffs = np.array(list(set(map(tuple, diffs.tolist()))), dtype=object)
        else:
            diffs = np.unique(diffs, axis=0)
        if (field.sign_rows(diffs, field.zero) <= 0).any():
            raise InvariantError(f"float presort put a larger level-{n} sum first")
        best = min(FieldElement(field, tuple(d), lattice.lead ** n) for d in diffs.tolist())
        rows.append(GarsiaRow(n, size, size / beta_f ** n, float(best)))
    return rows


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
    for keys, counts in lattice.windowed(lattice.start, 0, length, sys.rho, sys.rho):
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
    if any(b <= a for a, b in zip(m_seq, m_seq[1:])):
        raise InvalidInputError("m_seq must be strictly increasing")
    if len(m_seq) > 8:
        raise CapExceededError("checkpoint cap: at most 8 blocks")
    positions = []
    pos = 1
    for mk in m_seq:
        positions.append(pos)
        pos += 2 * mk + 1
    x = sys.field.zero
    for p in positions:
        x = x + sys.rho ** p
    rows = []
    product = 1
    checkpoints = []
    n = 0
    for mk in m_seq:
        n += 2 * mk + 1
        checkpoints.append(n)
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
