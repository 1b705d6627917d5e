"""Shared systems and independent oracles.

The oracles here deliberately avoid the library's DP/matrix machinery:
prefix counts come from enumerating all m^n words against the defining
remainder inequality, and covering counts from enumerating all composed
map images.  Tests freeze values computed by these oracles.
"""

from fractions import Fraction
from itertools import product

import pytest

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
