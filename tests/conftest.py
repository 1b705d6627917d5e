"""Shared systems and independent oracles.

The oracles here deliberately avoid the library's DP/matrix machinery:
prefix counts come from enumerating all m^n words against the defining
remainder inequality, and covering counts from enumerating all composed
map images; rational roots come from trial division by the divisors of the
constant and leading coefficients.  Tests freeze values computed by these
oracles.  The Monte-Carlo reference walks one Parry chain at a time with
plain Python lists, against which the lockstep numpy walk is compared
exactly, and its word reference walks every k-step word from every state
by one searchsorted per step, against which the walk's k-step tables are
compared entry for entry, and its block reference takes one table lookup
per word in Python ints, against which the walk in segments is compared
entry for entry; the lattice reference steps the prefix-sum DP
one state at a time on a dict, against which the array kernel is compared
state for state; the automaton reference builds the coding automaton in
field elements, one cylinder and one breakpoint at a time, against which
the integer-row closure is compared state for state, with its essential
class taken as the states every state reaches; the per-state cylinder
reference ranks one state's integer rows at a time by a
`NumberField.rank_rows` call with one tag (the batched closure makes one
call per batch, a tag per state) and reads its covers off a dense
child x cylinder table, against which the batched closure is compared row for row, state, bound,
denominator and T alike; the net-interval reference
sorts every word's cylinder in field elements, against which the
automaton walk's intervals are compared end for end and its matrix
counts cover for cover.  The row merge is checked against
a dict of tuples, and the run-based grid-cell masses of the L^q estimate
against the sort-and-bincount form they replaced, bit for bit.  The
multinacci series kernels are checked bit for bit against the forms they
replaced: the inner log sums from int64 vectors built anew by stack and
concatenate at every level, and the Monte-Carlo middle segment stepped by
two `np.where` selections on an int64 (budget, 2) array.  The K_beta
oracle `step_k_beta` takes one step from the switch regions S_k written
out as intervals, against which `simulate_expansion`'s digit-by-digit
window test is compared digit for digit.  `screen_sign_rows` is the float
screen in its first form, fl(|d| - s_err) > err, against which
`NumberField.compare_rows` is compared row for row, settled rows and
exact fallbacks alike; `row_major_float_rows` is `NumberField.float_rows`
as a row-major pass, against which its column-major pass is compared bit
for bit; `kappa_walk` counts the powers of beta one exact product at a
time, against which `expansions.kappa` is compared; and `row_major_step`
is `Lattice.step` with row-major levels, m concatenated copies of
`times_beta` and a digit added to column 0 of each, against which the
step's one children block stored by column is compared level for level,
keys, counts and row order alike.

Some helpers here are thin readers of the library that only tests call:
`distinct_sums_count` (the size of the last level of `Lattice.sweep`,
checked against `brute_distinct_sums`), `field_element` (an element from its
rational coefficients), `as_fraction` (a rational element's exact
value), `atoms_items_exact` and `refine_atoms` (exact atoms in value
order, one more lattice step), `key_ints` and `key_value` (a level's
keys as Python ints, limbs joined, and the exact value of one key) and
`upper_dim_bound_check` (the finite-level upper local-dimension chain).
`derived_window` is the prefix window of an interval derived at any level
k in field elements, the oracle of the windows a sweep carries from level
0 and `Lattice.narrowed` shifts, and `derived_ball_brackets` is
`ball_mass_brackets` with every window derived from its interval by it.
`pisot_family` draws a Pisot base of Brauer's family with its m.
Two more read an automaton's edges: `is_admissible` (a word is a path from
the root) and `products_positive` (every row product from the root stays
entrywise >= 1).  `automaton_doc_text` is the `automaton` document as one
dict encoded by json.dumps, the oracle of the CLI's streamed writer.
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from betagrowth.bconv import MeasureAtoms, ball_mass_brackets
from betagrowth.errors import CapExceededError, HypothesisError, InvalidInputError, InvariantError
from betagrowth.expansions import (Lattice, _coerce_point, _count_meets_bound, _distinct_rows,
                                   kappa, prefix_count_series)
from betagrowth.lyapunov import RENORM_EVERY, mc_chunk_len
from betagrowth.netautomaton import Automaton, CharacteristicState
from betagrowth.numberfield import INT64_MAX, BetaSystem, FieldElement, NumberField, parse_beta

# (criterion, ok, detail) tuples filled in by test_acceptance.py
ACCEPTANCE_LOG: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion, ok, detail in ACCEPTANCE_LOG:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {criterion}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# the settings of the lattice and bracket properties
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# Pisot bases drawn by hypothesis: x^d - a_1 x^(d-1) - ... - a_d with
# 3 >= a_1 >= ... >= a_d >= 1 and d <= 4 (beta = a_1 >= 2 for d = 1) has one
# root above 1 and the others inside the unit circle (Brauer 1951), and
# a_1 < beta < a_1 + 1 for d >= 2, since p(a_1) < 0 < p(a_1 + 1); m is
# floor(beta) + 1 = a_1 + 1.  Every such automaton has at most 283 states.
pisot_family = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda a: sorted(a, reverse=True)).filter(lambda a: a != [1]).map(
    lambda a: parse_beta("poly:" + ",".join(str(-c) for c in reversed(a)) + ",1", a[0] + 1))


@pytest.fixture(scope="session")
def golden() -> BetaSystem:
    return parse_beta("golden", 2)


@pytest.fixture(scope="session")
def tribonacci() -> BetaSystem:
    return parse_beta("multinacci:3", 2)


@pytest.fixture(scope="session")
def binary() -> BetaSystem:
    return parse_beta("int:2", 2)


@pytest.fixture(scope="session")
def base2m4() -> BetaSystem:
    return parse_beta("int:2", 4)


@pytest.fixture(scope="session")
def b15() -> BetaSystem:
    return parse_beta("1.5", 2)


@pytest.fixture(scope="session")
def b14() -> BetaSystem:
    return parse_beta("1.4", 2)


@pytest.fixture(scope="session")
def b13() -> BetaSystem:
    return parse_beta("1.3", 2)


@pytest.fixture
def comparison_sorts(monkeypatch) -> list:
    """The compare functions of the exact comparison sorts that
    `NumberField.rank_rows` runs during a test, one per misordered tag."""
    sorts = []
    cmp_to_key = functools.cmp_to_key

    def counted(compare):
        sorts.append(compare)
        return cmp_to_key(compare)

    monkeypatch.setattr(functools, "cmp_to_key", counted)
    return sorts


@pytest.fixture
def no_large_arrays(monkeypatch) -> None:
    """numpy's ones, empty and zeros fail the test when asked for more than
    2^21 entries, so a test of a memory budget never allocates what the
    budget must reject."""
    for name in ("ones", "empty", "zeros"):

        def guarded(shape, *args, _make=getattr(np, name), **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 2 ** 21:
                raise AssertionError(f"an array of shape {shape} past the test's guard")
            return _make(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def brute_has_rational_root(coeffs) -> bool:
    """Whether an integer polynomial has a root in Q, by trial division: a
    root p/q in lowest terms has p | c_0 and q | c_d."""
    if coeffs[0] == 0:
        return True
    return any(sum(c * Fraction(sign * p, q) ** k for k, c in enumerate(coeffs)) == 0
               for p in _divisors(coeffs[0]) for q in _divisors(coeffs[-1]) for sign in (1, -1))


def _rho_powers(sys: BetaSystem, n: int):
    pows = [sys.field.one]
    for _ in range(n):
        pows.append(pows[-1] * sys.rho)
    return pows


def brute_prefix_count(x, n: int, sys: BetaSystem) -> int:
    """#{words of length n with 0 <= x - sum eps_k beta^-k <= tail}, exact."""
    x = sys.element(x)
    tail = sys.right_end * sys.rho ** n
    pows = _rho_powers(sys, n)
    count = 0
    for word in product(range(sys.m), repeat=n):
        s = sys.field.zero
        for j, eps in enumerate(word, start=1):
            if eps:
                s = s + eps * pows[j]
        d = x - s
        if d.sign() >= 0 and (tail - d).sign() >= 0:
            count += 1
    return count


def brute_distinct_sum_values(n: int, sys: BetaSystem) -> set:
    """The distinct values of sum_{j<=n} eps_j beta^-j, by full enumeration."""
    pows = _rho_powers(sys, n)
    seen = set()
    for word in product(range(sys.m), repeat=n):
        s = sys.field.zero
        for j, eps in enumerate(word, start=1):
            if eps:
                s = s + eps * pows[j]
        seen.add(s)
    return seen


def brute_distinct_sums(n: int, sys: BetaSystem) -> int:
    """#distinct values of sum_{j<=n} eps_j beta^-j by full enumeration."""
    return len(brute_distinct_sum_values(n, sys))


def distinct_sums_count(n: int, sys: BetaSystem) -> int:
    """Number of distinct values of sum_{j<=n} eps_j beta^-j: the states of
    level n of an unwindowed `Lattice.sweep`, which raises CapExceededError
    past its cap."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    for (keys, _counts), _window in Lattice(sys).sweep(n):
        pass
    return len(keys)


def step_k_beta(omega_head: int, x, sys: BetaSystem) -> tuple[bool, int, FieldElement]:
    """One step of K_beta: (coin consumed?, emitted digit, beta*x - digit).

    With f = floor(beta) and m = f + 1, the switch regions are the closed
    intervals S_k = [k/beta, f/(beta(beta-1)) + (k-1)/beta], k = 1..f
    (Dajani and Kraaikamp): on S_k the coin picks k (omega_head = 1) or
    k-1; between S_k and S_(k+1) the digit is k.  An integer base (m =
    beta) has no switch region: the digit is min(floor(beta x), m - 1).
    """
    x, beta = sys.element(x), sys.beta
    if sys.degree == 1 and beta.den == 1:
        digit = max(k for k in range(sys.m) if x * beta >= k)
        return False, digit, x * beta - digit
    # beta x against beta S_k = [k, f/(beta-1) + k - 1]
    f = max(k for k in range(1, sys.m) if beta >= k)
    top = sys.field.rational(f) / (beta - 1)
    for k in range(1, f + 1):
        if k <= x * beta <= top + (k - 1):
            digit = k if omega_head else k - 1
            return True, digit, x * beta - digit
    digit = sum(x * beta >= k for k in range(1, f + 1))
    return False, digit, x * beta - digit


def field_element(field: NumberField, coeffs) -> FieldElement:
    """The element sum_i coeffs[i] beta^i of `field`, one rational
    coefficient per degree."""
    vec = [Fraction(c) for c in coeffs]
    if len(vec) != field.degree:
        raise InvalidInputError("need one coefficient per field degree")
    den = math.lcm(*(c.denominator for c in vec))
    return FieldElement(field, tuple(c.numerator * (den // c.denominator) for c in vec), den)


def as_fraction(x: FieldElement) -> Fraction:
    """Exact value of a rational element; error otherwise."""
    if any(x.num[1:]):
        raise InvalidInputError("element is not rational")
    return Fraction(x.num[0], x.den)


def key_ints(lattice: Lattice, keys: np.ndarray) -> list[list[int]]:
    """A level's keys as rows of Python ints, limbs joined."""
    return lattice.joined(keys).tolist()


def key_value(lattice: Lattice, key, k: int) -> FieldElement:
    """The exact value of a level-k key, a sequence of Python ints."""
    return FieldElement(lattice.sys.field, tuple(key), lattice.lead ** k)


def atoms_items_exact(atoms: MeasureAtoms) -> list[tuple[FieldElement, Fraction]]:
    """(value, weight) of every atom in increasing value order, sorted by
    exact comparisons."""
    lattice = Lattice(atoms.sys)
    rho_n = atoms.sys.rho_powers[atoms.level]
    denom = atoms.sys.m ** atoms.level
    return sorted((key_value(lattice, key, atoms.level) * rho_n, Fraction(count, denom))
                  for key, count in zip(atoms.keys.tolist(), atoms.counts.tolist()))


def refine_atoms(atoms: MeasureAtoms) -> MeasureAtoms:
    """Every atom pushed through one more uniform digit and merged."""
    level = Lattice(atoms.sys).step((atoms.keys, atoms.counts), atoms.level)
    return MeasureAtoms(atoms.sys, atoms.level + 1, *level)


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


def upper_dim_bound_check(sys: BetaSystem, x, n_max: int, margin: int = 5) -> UpperBoundReport:
    """Finite-level form of the upper local-dimension bound for beta below
    the golden ratio with m = 2.

    Checks, for each n <= n_max, the chain  mu(ball(x, beta^-n/(beta-1)))
    >= 2^-n * N_n(x) >= (1/2) * 2^((kappa-1) n): the first inequality via
    the certified lower mass bracket of `ball_mass_brackets`, the second
    exactly.
    """
    if sys.m != 2:
        raise HypothesisError("upper bound check requires m = 2")
    kap = kappa(sys)  # raises HypothesisError for beta >= golden
    x = _coerce_point(x, sys)
    counts = prefix_count_series(x, n_max, sys)
    brackets = ball_mass_brackets(sys, x, range(1, n_max + 1), margin)
    log_beta = math.log(float(sys.beta))
    rows = []
    for n in range(1, n_max + 1):
        count = counts[n]
        lower, _upper = brackets[n]
        slope = (n * math.log(2) - math.log(count)) / (n * log_beta)
        rows.append(UpperBoundRow(n, count, _count_meets_bound(count, kap, n), lower,
                                  lower >= Fraction(count, 2 ** n), slope))
    limit = (1 - float(kap)) * math.log(2) / log_beta
    return UpperBoundReport(kap, limit, float(x), tuple(rows))


def derived_window(lattice: Lattice, k: int, a: FieldElement, b: FieldElement):
    """The prefix window of [a, b] at level k, derived in field elements:
    beta^k a - R <= t <= beta^k b for the scaled sums t it keeps,
    R = (m-1)/(beta-1).  In key units (times lead^k) its ends are
    (beta lead)^k a - R lead^k and (beta lead)^k b, the rows lo and hi of
    an object matrix over one denominator, as `Lattice.window` returns
    them at level 0."""
    lead = lattice.lead
    power = (lattice.sys.beta * lead) ** k
    ends = (a * power - lattice.sys.right_end * lead ** k, b * power)
    den = math.lcm(*(end.den for end in ends))
    rows = [[c * (den // end.den) for c in end.num] for end in ends]
    return np.array(rows, dtype=object), den


def derived_ball_brackets(sys: BetaSystem, x, levels, margin: int) -> dict:
    """`bconv.ball_mass_brackets` with every window derived from its
    interval in field elements: `derived_window` of the ball of radius
    r_n = R beta^-n where the sweep restarts, at the level k the last ball
    was read at, and again for the lower bracket at L = n + margin, of the
    ball shrunk by R beta^-L on both sides."""
    x = sys.element(x)
    lattice = Lattice(sys)
    states, k = lattice.start, 0
    brackets = {}
    for n in sorted(set(levels)):
        r = sys.right_end * sys.rho ** n
        window = derived_window(lattice, k, x - r, x + r)
        for states, _window in lattice.sweep(n + margin, window, states, k):
            pass
        k = n + margin
        tail = sys.right_end * sys.rho ** k
        inside = lattice.inside(states[0], derived_window(lattice, k, x - r + tail, x + r - tail))
        brackets[n] = tuple(Fraction(int(counts.sum()), sys.m ** k)
                            for counts in (states[1][inside], states[1]))
    return brackets


def brute_value_count(target, length: int, sys: BetaSystem) -> int:
    """#{0/1 words of the given length whose value equals target}, exact."""
    target = sys.element(target)
    pows = _rho_powers(sys, length)
    count = 0
    for word in product(range(2), repeat=length):
        s = sys.field.zero
        for j, eps in enumerate(word, start=1):
            if eps:
                s = s + pows[j]
        if (s - target).is_zero():
            count += 1
    return count


def multiplicity_direct(sys: BetaSystem, n: int, a: FieldElement, b: FieldElement) -> int:
    """#{words J of length n whose cylinder [S_J(0), S_J(0) + rho^n] covers
    the level-n net interval [a, b]}, by enumerating all m^n words."""
    step = (sys.field.one - sys.rho) / (sys.m - 1)
    starts = [step * eps for eps in range(sys.m)]  # S_eps(0)
    pows = _rho_powers(sys, n)
    count = 0
    for word in product(range(sys.m), repeat=n):
        v = sys.field.zero
        for j, eps in enumerate(word):
            v = v + pows[j] * starts[eps]
        if (a - v).sign() >= 0 and (v + pows[n] - b).sign() >= 0:
            count += 1
    return count


@dataclass(frozen=True)
class NetInterval:
    """A level-n net interval with one offset per covering word."""

    a: FieldElement
    b: FieldElement
    offsets: tuple[FieldElement, ...]  # beta^n*(a - S_J(0)), one per word J

    @property
    def multiplicity(self) -> int:
        return len(self.offsets)


def field_net_intervals(sys: BetaSystem, n: int) -> list[NetInterval]:
    """The level-n net intervals in field elements: every word's start S_J(0)
    by enumeration, the breakpoints by a comparison sort, and the covers of
    each interval by a scan of the starts, ascending."""
    step = (sys.field.one - sys.rho) / (sys.m - 1)
    pows = _rho_powers(sys, n)
    starts = {}
    for word in product(range(sys.m), repeat=n):
        v = sys.field.zero
        for j, eps in enumerate(word):
            v = v + pows[j] * step * eps
        starts[v] = starts.get(v, 0) + 1
    ordered = sorted(set(starts) | {v + pows[n] for v in starts})
    by_start = sorted(starts)
    out = []
    for a, b in zip(ordered, ordered[1:]):
        offsets = [(a - v) * sys.beta ** n for v in by_start
                   if v <= a and b <= v + pows[n] for _ in range(starts[v])]
        out.append(NetInterval(a, b, tuple(offsets)))
    return out


def dict_lattice_step(sys: BetaSystem, states: dict, k: int, lo=None, hi=None) -> dict:
    """Level-k states -> level-(k+1) states of `expansions.Lattice`, one state
    and one digit at a time on a dict {key tuple: word count}.

    A key c stands for (sum_i c_i beta^i) / lead^k.  With a window, a key is
    kept when lo <= its value <= hi, each side decided by one scalar
    `sign_int_coeffs` call; larger digits are skipped once a key passes hi.
    """
    coeffs = sys.minpoly.coeffs
    lead, row = coeffs[-1], tuple(-c for c in coeffs[:-1])  # lead*beta^d = sum row_i beta^i
    scale = lead ** (k + 1)
    if hi is not None:
        sign = sys.field.sign_int_coeffs
        lo_vec = [scale * b for b in lo.num]
        hi_vec = [scale * b for b in hi.num]
    new: dict = {}
    for c, cnt in states.items():
        top = c[-1]
        head = top * row[0]
        rest = tuple(lead * a + top * r for a, r in zip(c, row[1:]))
        for _ in range(sys.m):
            key = (head,) + rest
            if key in new:
                new[key] += cnt
            elif hi is None:
                new[key] = cnt
            else:
                if sign(tuple(hi.den * a - b for a, b in zip(key, hi_vec))) > 0:
                    break
                if sign(tuple(lo.den * a - b for a, b in zip(key, lo_vec))) >= 0:
                    new[key] = cnt
            head += scale
    return new


def dict_lattice_levels(sys: BetaSystem, n: int, a=None, b=None) -> list[dict]:
    """Levels 1..n of `dict_lattice_step` from the empty word; when [a, b] is
    given, windowed to the prefixes of expansions of its points."""
    states = {(0,) * sys.degree: 1}
    levels = []
    lo = hi = None
    if a is not None:
        lo, hi = sys.element(a), sys.element(b)
    for k in range(n):
        if a is None:
            states = dict_lattice_step(sys, states, k)
        else:
            lo, hi = lo * sys.beta, hi * sys.beta
            states = dict_lattice_step(sys, states, k, lo - sys.right_end, hi)
        levels.append(states)
    return levels


def row_major_step(lattice: Lattice, level, k: int, window=None):
    """`Lattice.step` as it was written with row-major levels, the oracle of
    its one children block: int64 keys stay int64 while max|key| (lead +
    max|row|) + (m-1) lead^(k+1) fits, m copies of `times_beta` are
    concatenated, and digit e adds e lead^(k+1) to column 0 of copy e.  Limb
    keys are joined into Python ints first.  The window test and the merge
    are the library's, so keys, counts and row order must match."""
    keys, counts = level
    m, scale = lattice.sys.m, lattice.lead ** (k + 1)
    if counts.dtype != object and m ** (k + 1) > INT64_MAX:
        counts = counts.astype(object)
    if lattice.limbs and keys.dtype != object:
        keys = lattice.joined(keys).astype(object)
    elif keys.dtype != object:
        big = int(np.abs(keys).max(initial=0))
        if big * lattice.growth + (m - 1) * scale > INT64_MAX:
            keys = keys.astype(object)
    keys = np.concatenate((lattice.times_beta(np.ascontiguousarray(keys)),) * m)
    rows = len(keys) // m
    for e in range(1, m):
        keys[e * rows:(e + 1) * rows, 0] += e * scale
    if window is not None:
        inside = lattice.inside(keys, window).nonzero()[0]
        keys, counts = keys[inside], counts.take(inside, mode="wrap")
        if lattice.collision_free:
            return keys, counts
    if len(keys) <= 1:
        return keys, counts
    order, starts = _distinct_rows(keys)
    return keys[order[starts]], np.add.reduceat(counts.take(order, mode="wrap"), starts)


def row_major_float_rows(field: NumberField, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`NumberField.float_rows` as a row-major pass, the oracle of its
    column-major one: the whole matrix cast to float, multiplied by the
    row of powers in place, and its columns added left to right."""
    try:
        terms = rows.astype(float)
    except OverflowError:
        return np.full(len(rows), math.nan), np.full(len(rows), math.inf)
    terms *= np.array(field.beta_float_powers())
    mags = np.abs(terms)
    val, mag = terms[:, 0], mags[:, 0]
    for i in range(1, field.degree):
        val = val + terms[:, i]
        mag = mag + mags[:, i]
    return val, field.float_error(mag)


def screen_sign_rows(field: NumberField, rows: np.ndarray, *shifts: FieldElement) -> np.ndarray:
    """The signs of rows against shifts under the float screen as it was
    first written, the oracle of `NumberField.compare_rows`: a row is
    settled when fl(|fl(val - s_val)| - s_err) > err and takes the sign of
    val - s_val; the rest go to `sign_int_coeffs`,
    shift by shift and rows in order, as in the screen it oracles."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan stay unsettled
        val, err = field.float_rows(rows)
        bounds = np.array([field.float_value(s.num, s.den) for s in shifts])
        diff = val - bounds[:, :1]
        signs = (diff > 0).view(np.int8) - (diff < 0)
        unsettled = ~(np.subtract(np.abs(diff, out=diff), bounds[:, 1:], out=diff) > err)
    for j, r in zip(*np.nonzero(unsettled)):
        s, row = shifts[j], rows[r].tolist()  # Python ints: den * c must not wrap
        signs[j, r] = field.sign_int_coeffs([s.den * c - b for c, b in zip(row, s.num)])
    return signs


def kappa_walk(sys: BetaSystem) -> Fraction:
    """kappa by the walk that `expansions.kappa` replaced, its oracle: t
    counts the powers beta, beta^2, ... up to 1/delta, one exact product and
    one exact sign at a time."""
    beta, one = sys.beta, sys.field.one
    if (beta * beta - 2).sign() > 0:
        ratio = (beta * beta - one) / (one + beta - beta * beta)
    else:
        ratio = one / (beta - one)
    t, power = 0, beta
    while (ratio - power).sign() >= 0:  # beta^(t+1) <= ratio
        t += 1
        power = power * beta
    return Fraction(1, 2 * (t + 1))


def dict_merge_rows(rows, counts) -> dict:
    """{row tuple: summed count} over equal integer rows, one row at a time."""
    merged: dict = {}
    for row, count in zip(rows, counts):
        merged[tuple(row)] = merged.get(tuple(row), 0) + count
    return merged


def bincount_cell_masses(values: np.ndarray, weights: np.ndarray, width: float) -> np.ndarray:
    """Masses of the grid cells [j*width, (j+1)*width) that hold an atom, in
    increasing j: the cell indices ranked by a sort (np.unique) and the
    weights of each rank added by bincount, in the order of the atoms."""
    idx = np.floor(values / width).astype(np.int64)
    _cells, inverse = np.unique(idx, return_inverse=True)
    masses = np.bincount(inverse, weights=weights)
    return masses[masses > 0]


def field_children(sys: BetaSystem, length, offsets):
    """Sub-intervals of a normalized state at the next level, in field
    elements: (u_lo, u_hi, child_length, child_offsets, T) left to right.

    Every (covering slot, digit) cylinder is tested against every
    breakpoint interval; T maps parent covering slots to child slots.
    """
    step = (sys.field.one - sys.rho) / (sys.m - 1)
    starts = [step * a for a in range(sys.m)]  # S_a(0)
    beta, rho, zero = sys.beta, sys.rho, sys.field.zero
    # child cylinder start positions, one per (covering slot, digit)
    cyl = [(ci, -c + starts[a]) for ci, c in enumerate(offsets) for a in range(sys.m)]
    breakpoints = {zero, length}
    for _ci, s in cyl:
        for point in (s, s + rho):
            if point.sign() > 0 and (length - point).sign() > 0:
                breakpoints.add(point)
    ordered = sorted(breakpoints)
    out = []
    for u_lo, u_hi in zip(ordered, ordered[1:]):
        covers = [(ci, (u_lo - s) * beta) for ci, s in cyl
                  if (u_lo - s).sign() >= 0 and (s + rho - u_hi).sign() >= 0]
        if not covers:
            raise InvariantError("child interval with no covering cylinder")
        distinct = sorted({off for _ci, off in covers})
        index = {off: w for w, off in enumerate(distinct)}
        rows = [[0] * len(distinct) for _ in range(len(offsets))]
        for ci, off in covers:
            rows[ci][index[off]] += 1
        T = tuple(tuple(r) for r in rows)
        out.append((u_lo, u_hi, (u_hi - u_lo) * beta, tuple(distinct), T))
    return out


def state_key(st: CharacteristicState):
    """Sort key of the canonical state order: Fraction coefficient tuples."""
    return st.length.coeffs, tuple(o.coeffs for o in st.offsets), st.rank


def field_automaton(sys: BetaSystem) -> Automaton:
    """The coding automaton by a breadth-first closure of `field_children`
    over field-element states, numbered like `build_automaton`: the root
    first, the rest in `state_key` order."""
    root = CharacteristicState(sys.field.one, (sys.field.zero,), 1)
    index = {root: 0}
    states = [root]
    raw_children = []
    while len(raw_children) < len(states):
        st = states[len(raw_children)]
        kids, seen = [], {}
        for u_lo, u_hi, c_len, c_offsets, T in field_children(sys, st.length, st.offsets):
            seen[c_len, c_offsets] = rank = seen.get((c_len, c_offsets), 0) + 1
            child = CharacteristicState(c_len, c_offsets, rank)
            if child not in index:
                index[child] = len(states)
                states.append(child)
            kids.append((index[child], u_lo, u_hi, T))
        raw_children.append(kids)
    order = [0] + sorted(range(1, len(states)), key=lambda i: state_key(states[i]))
    relabel = {old: new for new, old in enumerate(order)}
    children = [None] * len(states)
    for old, kids in enumerate(raw_children):
        children[relabel[old]] = [(relabel[j], lo, hi, T) for j, lo, hi, T in kids]
    auto = Automaton(sys, [states[old] for old in order], children, frozenset())
    auto.essential = brute_essential_class(auto)
    return auto


def cylinder_children(cylinders, den: int, flat: tuple[int, ...]) -> list:
    """Sub-intervals of one state geometry at the next level, left to right,
    as `netautomaton._Cylinders.children` gives them: (u_lo row, u_hi row,
    their denominator, child geometry, T).  One state at a time, its
    points ranked by `NumberField.rank_rows` and its covers read off a
    dense child x cylinder table; `cylinders` lends its fixed rows, field
    and lattice."""
    d, m, lattice = cylinders.d, cylinders.m, cylinders.lattice
    den_w = math.lcm(den, cylinders.den)
    scale, fixed_scale = den_w // den, den_w // cylinders.den
    big = max(map(abs, flat)) * scale + cylinders.fixed_big * fixed_scale
    dtype = np.int64 if 2 * big * lattice.growth <= INT64_MAX else object
    rows = np.array(flat, dtype=dtype).reshape(-1, d) * scale
    fixed = np.array(cylinders.fixed, dtype=dtype) * fixed_scale
    v = len(rows) - 1
    # cylinder (slot ci, digit a) is row ci * m + a: S_a(0) - offset_ci
    starts = (fixed[None, :-1] - rows[1:, None]).reshape(-1, d)
    points = np.concatenate((np.zeros((1, d), dtype=dtype), rows[:1], starts, starts + fixed[-1]))
    rank = cylinders.field.rank_rows(points, np.zeros(len(points), dtype=np.intp))
    distinct = np.empty((int(rank.max()) + 1, d), dtype=dtype)
    distinct[rank] = points
    lo, hi = int(rank[0]), int(rank[1])
    start_rank, end_rank = rank[2:2 + v * m], rank[2 + v * m:]
    n_kids = hi - lo
    levels = np.arange(lo, hi)[:, None]
    covers = (start_rank <= levels) & (end_rank > levels)
    # descending starts give ascending child offsets (b_k - start) * beta
    by_start = np.argsort(-start_rank, kind="stable")
    kid, pos = np.nonzero(covers[:, by_start])
    cyl = by_start[pos]
    new_kid = np.ones(len(kid), dtype=bool)
    new_kid[1:] = kid[1:] != kid[:-1]
    if np.count_nonzero(new_kid) < n_kids:
        raise InvariantError("child interval with no covering cylinder")
    new_col = new_kid.copy()
    new_col[1:] |= start_rank[cyl[1:]] != start_rank[cyl[:-1]]
    col = np.cumsum(new_col) - 1
    col -= col[new_kid][kid]
    width = int(col.max()) + 1
    T = np.bincount((kid * v + cyl // m) * width + col, minlength=n_kids * v * width)
    T = T.reshape(n_kids, v, width).tolist()
    bounds = distinct[lo:hi + 1]
    offsets = lattice.times_beta(bounds[kid[new_col]] - starts[cyl[new_col]]).reshape(-1).tolist()
    lengths = lattice.times_beta(bounds[1:] - bounds[:-1]).tolist()
    ends = (np.cumsum(np.bincount(kid[new_col], minlength=n_kids)) * d).tolist()
    bounds = bounds.tolist()
    den_child = den_w * lattice.lead
    out = []
    begin = 0
    for k, end in enumerate(ends):
        child = lengths[k] + offsets[begin:end]
        begin = end
        cols = len(child) // d - 1
        g = math.gcd(den_child, *child)
        geometry = (den_child // g, tuple(c // g for c in child))
        out.append((bounds[k], bounds[k + 1], den_w, geometry,
                    tuple(tuple(row[:cols]) for row in T[k])))
    return out


def cylinder_closure(cylinders, states: list, raw_children: list, state_cap: int) -> None:
    """`netautomaton._close` one parent at a time: extend states and
    raw_children in place, each geometry's children from `cylinder_children`."""
    index = {state: i for i, state in enumerate(states)}
    pieces: dict = {}
    while len(raw_children) < len(states):
        geometry, _rank = states[len(raw_children)]
        if geometry not in pieces:
            pieces[geometry] = cylinder_children(cylinders, *geometry)
        kids, seen = [], {}
        for u_lo, u_hi, den, c_geometry, T in pieces[geometry]:
            seen[c_geometry] = rank = seen.get(c_geometry, 0) + 1
            child = (c_geometry, rank)
            if child not in index:
                if len(states) >= state_cap:
                    raise CapExceededError(
                        f"automaton exceeds {state_cap} states; "
                        "likely a non-Pisot base or a cap set too small")
                index[child] = len(states)
                states.append(child)
            kids.append((index[child], u_lo, u_hi, den, T))
        raw_children.append(kids)


def brute_essential_class(auto: Automaton) -> frozenset:
    """The states reachable from every state: the intersection of the
    forward reach sets of all states, one depth-first search from each.
    Empty when the graph has more than one bottom class."""
    common = None
    for s in range(auto.size):
        seen, stack = {s}, [s]
        while stack:
            for j, _lo, _hi, _T in auto.children[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        common = seen if common is None else common & seen
    return frozenset(common)


def is_admissible(auto: Automaton, word) -> bool:
    """Whether word is a path of the automaton from its root state 0."""
    if not word or word[0] != 0:
        return False
    return all(j in auto.successors(i) for i, j in zip(word, word[1:]))


def products_positive(auto: Automaton, max_len: int) -> bool:
    """Check row products over all admissible words from the root up to the
    given length stay entrywise >= 1 (the strict-positivity property)."""
    frontier = [(0, (1,) * auto.v(0))]
    for _ in range(max_len):
        nxt = []
        for state, vec in frontier:
            for j, _lo, _hi, T in auto.children[state]:
                cols = len(T[0])
                out = tuple(
                    sum(vec[u] * T[u][w] for u in range(len(vec))) for w in range(cols)
                )
                if any(e < 1 for e in out):
                    return False
                nxt.append((j, out))
        frontier = nxt
    return True


def automaton_doc_text(args, auto: Automaton, chain) -> str:
    """The `automaton` document as the whole dict it once was, encoded by
    json.dumps(sort_keys=True, indent=2): the oracle of the streamed writer."""

    def elem_json(e: FieldElement) -> dict:
        return {"coeffs": [f"{c.numerator}/{c.denominator}" for c in e.coeffs],
                "approx": float(e)}

    n = auto.size
    adjacency = [[0] * n for _ in range(n)]
    for i, kids in enumerate(auto.children):
        for j, _lo, _hi, _T in kids:
            adjacency[i][j] = 1
    doc = {
        "config": {"beta": args.beta, "m": args.m, "format": "csv", "state_cap": args.state_cap},
        "size": n,
        "states": [
            {
                "index": i,
                "length": elem_json(st.length),
                "offsets": [elem_json(o) for o in st.offsets],
                "v": st.v,
                "rank": st.rank,
                "essential": i in auto.essential,
            }
            for i, st in enumerate(auto.states)
        ],
        "adjacency": adjacency,
        "matrices": {
            f"{i}->{j}": [list(row) for row in T]
            for i in range(n)
            for j, _lo, _hi, T in auto.children[i]
        },
        "essential": sorted(auto.essential),
        "parry_stationary": [repr(p) for p in chain.stationary],
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def mc_cdf_rows(chain, auto) -> tuple[list[np.ndarray], list[list]]:
    """Each essential state's cumulative Parry probabilities (the last set to
    1) and its edges as (local target, matrix), in child order."""
    local = {s: k for k, s in enumerate(chain.states)}
    cum_rows, edges = [], []
    for k, i in enumerate(chain.states):
        out = [(local[j], T) for j, _lo, _hi, T in auto.children[i]]
        cdf = np.cumsum([chain.matrix[k, child] for child, _T in out])
        cdf[-1] = 1.0
        cum_rows.append(cdf)
        edges.append(out)
    return cum_rows, edges


def mc_chain_values(chain, auto, path_len: int, n_chains: int, seed: int) -> list[float]:
    """Per-chain log-growth averages of `lyapunov.estimate_gamma_mc`, one
    chain at a time by a loop over Python lists.

    Chain c draws path_len + 1 uniforms from default_rng((seed, c)): the
    first picks the start state from the stationary vector, each further one
    an edge by its row of cumulative Parry probabilities.  The edge matrices
    of each run of h = `mc_chunk_len` steps (the last run may be shorter)
    are multiplied left to right in Python ints, and the vector is
    multiplied by that exact product in floats.
    """
    omega = chain.states
    cum_rows, edges = mc_cdf_rows(chain, auto)
    edges = [[(j, np.array(T, dtype=object)) for j, T in row] for row in edges]
    max_row_sum = max(int(T.sum(axis=1).max()) for row in edges for _j, T in row)
    h = mc_chunk_len(max_row_sum, max(auto.v(i) for i in omega), n_chains)
    start_cdf = np.cumsum(chain.stationary)
    start_cdf[-1] = 1.0
    values = []
    for c in range(n_chains):
        u = np.random.default_rng((seed, c)).random(path_len + 1)
        state = int(np.searchsorted(start_cdf, u[0], side="right"))
        vec = [1.0] * auto.v(omega[state])
        logscale = -math.log(sum(vec))
        for at in range(0, path_len, h):
            prod = None
            for step in range(at, min(at + h, path_len)):
                k = int(np.searchsorted(cum_rows[state], u[step + 1], side="right"))
                state, T = edges[state][k]
                prod = T if prod is None else prod @ T
            vec = [sum(vec[a] * prod[a, w] for a in range(len(vec))) for w in range(prod.shape[1])]
            if min(at + h, path_len) % RENORM_EVERY == 0:
                s = sum(vec)
                logscale += math.log(s)
                vec = [x / s for x in vec]
        logscale += math.log(sum(vec))
        values.append(logscale / path_len)
    return values


def mc_word_walks(chain, auto, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-step walk of the Parry chain, from every state on every word.

    K is the sorted set of all cumulative Parry probabilities, and a word w
    packs k ranks in base |K|, the first step most significant (a uniform
    below 1 = K[-1] has a rank below |K|).  Step j takes a uniform of the
    word's j-th rank r (0 for r = 0, K[r - 1] otherwise) and picks its edge
    by one searchsorted on the current state's cumulative row.  Returns
    states[s, w], the state reached from state s, and products[s, w], the
    product of the k edge matrices left to right in Python ints, zero-padded
    to the largest multiplicity.
    """
    cum_rows, edges = mc_cdf_rows(chain, auto)
    K = sorted({float(c) for row in cum_rows for c in row})
    n_ranks, n_words = len(K), len(K) ** k
    uniform = np.array([0.0, *K[:-1]])
    dim = max(auto.v(i) for i in chain.states)
    targets, mats = [], []
    for row in edges:
        targets.append(np.array([j for j, _T in row]))
        padded = np.zeros((len(row), dim, dim), dtype=object)
        for e, (_j, T) in enumerate(row):
            padded[e, :len(T), :len(T[0])] = np.array(T, dtype=object)
        mats.append(padded)
    state = np.repeat(np.arange(len(cum_rows)), n_words)
    word = np.tile(np.arange(n_words), len(cum_rows))
    products = None
    for j in range(k):
        u = uniform[word // n_ranks ** (k - 1 - j) % n_ranks]
        after = np.empty_like(state)
        step = np.empty((len(state), dim, dim), dtype=object)
        for s, row in enumerate(cum_rows):
            at = np.flatnonzero(state == s)
            picks = np.searchsorted(row, u[at], side="right")
            after[at] = targets[s][picks]
            step[at] = mats[s][picks]
        state = after
        products = step if products is None else products @ step
    return (state.reshape(len(cum_rows), n_words),
            products.reshape(len(cum_rows), n_words, dim, dim))


def walk_one_lookup_per_word(after: np.ndarray, words: np.ndarray,
                             cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table entries of a block of words, one lookup per word in Python
    ints: a chain in entry e takes word w into entry after[e] + w.  Returns
    every row's entries and the last row's (cur itself for no rows)."""
    after = after.tolist()
    cur, entries = cur.tolist(), []
    for row in words.tolist():
        cur = [after[e] + w for e, w in zip(cur, row)]
        entries.append(cur)
    return np.array(entries, dtype=np.intp).reshape(words.shape), np.array(cur)


def int64_inner_log_sums(k_max: int) -> list[float]:
    """S_k = sum over words J in {1,2}^k of log||M_J||, exactly enumerated.

    Propagates the family of vectors w_J = M_J (1,1)^t; extending words on
    the left maps the family through w -> M_1 w and w -> M_2 w, and
    ||M_J|| = (1,1) w_J.  Entries stay exact in int64 (they are bounded by
    Fibonacci-type growth, ~phi^k).
    """
    out = []
    w = np.array([[1], [1]], dtype=np.int64)  # columns are the vectors
    out.append(float(np.log(w.sum(axis=0))[0]))  # k=0: identity, norm 2
    for _k in range(1, k_max + 1):
        top, bot = w[0], w[1]
        w = np.concatenate(
            [np.stack([top + bot, bot]), np.stack([top, top + bot])], axis=1
        )
        out.append(float(np.log(w.sum(axis=0, dtype=np.int64)).sum()))
    return out


def where_mc_middle(beta_pow_n: float, k_lo: int, k_hi: int, budget: int,
                    seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of sum_{k=k_lo..k_hi} x^k E[log||M_J||].

    One family of random words is extended level by level; the per-path
    aggregate keeps the cross-level correlation inside the standard error.
    """
    rng = np.random.default_rng((seed, 0x5e1e))
    x = 2.0 / beta_pow_n
    w = np.ones((budget, 2), dtype=np.int64)
    agg = np.zeros(budget)
    for k in range(1, k_hi + 1):
        bits = rng.integers(0, 2, size=budget)
        top = w[:, 0].copy()
        w[:, 0] = np.where(bits == 1, top + w[:, 1], top)
        w[:, 1] = np.where(bits == 1, w[:, 1], top + w[:, 1])
        if k >= k_lo:
            agg += (x ** k) * np.log(w.sum(axis=1))
    mean = float(agg.mean())
    stderr = float(agg.std(ddof=1) / math.sqrt(budget))
    return mean, stderr
