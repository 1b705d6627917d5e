"""Shared systems and independent oracles.

The oracles here deliberately avoid the library's DP/matrix machinery:
prefix counts come from enumerating all m^n words against the defining
remainder inequality, and covering counts from enumerating all composed
map images.  Tests freeze values computed by these oracles.  The
Monte-Carlo reference walks one Parry chain at a time with plain Python
lists, against which the lockstep numpy walk is compared exactly; the
lattice reference steps the prefix-sum DP one state at a time on a dict,
against which the array kernel is compared state for state; the automaton
reference builds the coding automaton in field elements, one cylinder and
one breakpoint at a time, against which the integer-row closure is
compared state for state.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from betagrowth.errors import InvariantError
from betagrowth.lyapunov import RENORM_EVERY
from betagrowth.netautomaton import Automaton, CharacteristicState, essential_class
from betagrowth.numberfield import BetaSystem, parse_beta

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


def multiplicity_direct(sys: BetaSystem, interval) -> int:
    """#{words J of length n whose cylinder [S_J(0), S_J(0) + rho^n] covers
    the net interval}, by enumerating all m^n words."""
    n = interval.level
    step = (sys.field.one - sys.rho) / (sys.m - 1)
    starts = [step * eps for eps in range(sys.m)]  # S_eps(0)
    pows = _rho_powers(sys, n)
    count = 0
    for word in product(range(sys.m), repeat=n):
        v = sys.field.zero
        for j, eps in enumerate(word):
            v = v + pows[j] * starts[eps]
        if (interval.a - v).sign() >= 0 and (v + pows[n] - interval.b).sign() >= 0:
            count += 1
    return count


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


def field_automaton(sys: BetaSystem) -> Automaton:
    """The coding automaton by a breadth-first closure of `field_children`
    over field-element states, numbered like `build_automaton`: the root
    first, the rest in `CharacteristicState.key()` order."""
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
    order = [0] + sorted(range(1, len(states)), key=lambda i: states[i].key())
    relabel = {old: new for new, old in enumerate(order)}
    children = [None] * len(states)
    for old, kids in enumerate(raw_children):
        children[relabel[old]] = [(relabel[j], lo, hi, T) for j, lo, hi, T in kids]
    auto = Automaton(sys, [states[old] for old in order], children, frozenset())
    auto.essential = essential_class(auto)
    return auto


def mc_chain_values(chain, auto, path_len: int, n_chains: int, seed: int) -> list[float]:
    """Per-chain log-growth averages of `lyapunov.estimate_gamma_mc`, one
    chain at a time by a per-step loop over Python lists.

    Chain c draws path_len + 1 uniforms from default_rng((seed, c)): the
    first picks the start state from the stationary vector, each further one
    an edge by its row of cumulative Parry probabilities.
    """
    omega = chain.states
    local = {s: k for k, s in enumerate(omega)}
    cum_rows, edges = [], []
    for k, i in enumerate(omega):
        out = [(local[j], T) for j, _lo, _hi, T in auto.children[i]]
        cdf = np.cumsum([chain.matrix[k, child] for child, _T in out])
        cdf[-1] = 1.0
        cum_rows.append(cdf)
        edges.append(out)
    start_cdf = np.cumsum(chain.stationary)
    start_cdf[-1] = 1.0
    values = []
    for c in range(n_chains):
        u = np.random.default_rng((seed, c)).random(path_len + 1)
        state = int(np.searchsorted(start_cdf, u[0], side="right"))
        vec = [1.0] * auto.v(omega[state])
        logscale = -math.log(sum(vec))
        for step in range(path_len):
            k = int(np.searchsorted(cum_rows[state], u[step + 1], side="right"))
            state, T = edges[state][k]
            vec = [sum(vec[a] * T[a][w] for a in range(len(vec))) for w in range(len(T[0]))]
            if (step + 1) % RENORM_EVERY == 0:
                s = sum(vec)
                logscale += math.log(s)
                vec = [x / s for x in vec]
        logscale += math.log(sum(vec))
        values.append(logscale / path_len)
    return values
