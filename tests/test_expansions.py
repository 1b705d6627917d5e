import math
from fractions import Fraction

import numpy as np
import pytest

from betagrowth import expansions
from betagrowth.errors import CapExceededError, HypothesisError, InvalidInputError
from betagrowth.expansions import (
    count_X_m,
    count_prefixes,
    distinct_sums_count,
    garsia_report,
    kappa,
    prefix_count_series,
    simulate_expansion,
    sparse_profile,
    step_k_beta,
    switch_geometry,
    tree_level_counts,
    verify_growth_bound,
)
from betagrowth.numberfield import parse_beta

from conftest import (
    brute_distinct_sum_values,
    brute_distinct_sums,
    brute_prefix_count,
    brute_value_count,
)


# ---------------------------------------------------------------------------
# count_prefixes
# ---------------------------------------------------------------------------

def test_count_trivial_endpoints(golden):
    assert count_prefixes(0, 5, golden) == 1
    assert count_prefixes(golden.right_end, 5, golden) == 1


def test_count_golden_one(golden):
    # prefixes {01, 10, 11} of expansions of 1
    assert count_prefixes(1, 2, golden) == 3


def test_count_outside_interval(golden):
    with pytest.raises(InvalidInputError):
        count_prefixes(Fraction(-1, 2), 3, golden)
    with pytest.raises(InvalidInputError):
        count_prefixes(Fraction(7, 4), 3, golden)  # beyond beta


@pytest.mark.parametrize("spec,m,xs", [
    ("golden", 2, ["1", "1/2", "2/3", "13/11"]),
    ("multinacci:3", 2, ["1", "3/4"]),
    ("1.5", 2, ["1", "1/3", "9/7"]),
    ("1.3", 2, ["1", "5/2"]),
    ("int:2", 2, ["1/3", "1/2"]),
    ("1.4", 3, ["7/10", "2"]),
])
def test_count_matches_brute_force(spec, m, xs):
    sys_ = parse_beta(spec, m)
    for xs_text in xs:
        x = Fraction(xs_text)
        series = prefix_count_series(x, 7, sys_)
        for n in (1, 3, 5, 7):
            assert series[n] == brute_prefix_count(x, n, sys_)


def test_count_monotone_and_symmetric(golden, b15):
    for sys_ in (golden, b15):
        for x_text in ("1", "2/5", "5/4"):
            x = sys_.element(Fraction(x_text))
            series = prefix_count_series(x, 10, sys_)
            assert all(a <= b for a, b in zip(series, series[1:]))
            mirrored = prefix_count_series(sys_.right_end - x, 10, sys_)
            assert series == mirrored


# ---------------------------------------------------------------------------
# branch tree
# ---------------------------------------------------------------------------

def test_tree_zero_is_a_path(golden):
    assert tree_level_counts(0, 4, golden) == [1, 1, 1, 1, 1]


def test_tree_golden_one(golden):
    assert tree_level_counts(1, 2, golden)[-1] == 3


def test_tree_matches_dp(b15):
    counts = tree_level_counts(1, 10, b15)
    assert counts == [brute_prefix_count(1, n, b15) for n in range(11)]


def test_tree_node_cap(b13, golden):
    with pytest.raises(CapExceededError, match=r"^101 branch-tree nodes at depth 8 exceed the cap 100$"):
        tree_level_counts(1, 22, b13, node_cap=100)
    # depths 0..7 hold at most 100 nodes; the root alone is never over the cap
    assert sum(tree_level_counts(1, 7, b13, node_cap=100)) <= 100
    assert tree_level_counts(1, 0, golden, node_cap=0) == [1]
    with pytest.raises(CapExceededError, match=r"^2 branch-tree nodes at depth 1 exceed the cap 0$"):
        tree_level_counts(1, 3, golden, node_cap=0)


# ---------------------------------------------------------------------------
# kappa and the growth bound
# ---------------------------------------------------------------------------

def test_kappa_values(b13, b14, b15):
    # hand evaluation: 1.5^3 = 3.375 < 5 <= 1.5^4 = 5.0625
    assert kappa(b15) == Fraction(1, 8)
    # 1.4^2 = 1.96 < 2.5 <= 1.4^3 = 2.744
    assert kappa(b14) == Fraction(1, 6)
    # 1.3^4 = 2.8561 < 10/3 <= 1.3^5 = 3.71293
    assert kappa(b13) == Fraction(1, 10)


def test_kappa_rejects_golden_and_larger(golden):
    with pytest.raises(HypothesisError):
        kappa(golden)
    with pytest.raises(HypothesisError):
        kappa(parse_beta("int:2", 2))


def test_growth_bound_passes(b15, b14):
    assert verify_growth_bound(b15, 1, 24).passed
    # m = 3 with digits beyond {0,1} exercises the digit-pair reduction;
    # depth 20 keeps the exact count that backs the check near 10^6 states
    # (n=24 also passes but needs gigabytes for the exact m=3 count)
    sys_ = parse_beta("1.4", 3)
    report = verify_growth_bound(sys_, Fraction(7, 10), 20)
    assert report.passed


def test_growth_bound_requires_interior(b15):
    with pytest.raises(InvalidInputError):
        verify_growth_bound(b15, 0, 5)
    with pytest.raises(InvalidInputError):
        verify_growth_bound(b15, b15.right_end, 5)


# ---------------------------------------------------------------------------
# switch geometry and K_beta
# ---------------------------------------------------------------------------

def test_switch_golden(golden):
    geom = switch_geometry(golden)
    assert len(geom.switch) == 1
    lo, hi = geom.switch[0]
    assert lo == golden.field.one / golden.beta
    assert hi == golden.field.one / (golden.beta * (golden.beta - 1))


def test_switch_integer_base_empty(binary):
    geom = switch_geometry(binary)
    assert geom.switch == ()
    assert geom.classify(binary.element(Fraction(1, 3)))[0] == "equal"


def test_switch_beta_25_m3():
    sys_ = parse_beta("2.5", 3)
    geom = switch_geometry(sys_)
    assert len(geom.switch) == 2
    # S_k = [k/beta, floor(beta)/(beta(beta-1)) + (k-1)/beta] with floor = 2
    base = sys_.field.rational(2) / (sys_.beta * (sys_.beta - 1))
    for k, (lo, hi) in enumerate(geom.switch, start=1):
        assert lo == sys_.field.rational(k) / sys_.beta
        assert hi == base + sys_.field.rational(k - 1) / sys_.beta


def test_switch_requires_kbeta_digits(golden):
    with pytest.raises(InvalidInputError):
        switch_geometry(parse_beta("golden", 3))


def test_step_k_beta_golden(golden):
    x = golden.element(Fraction(3, 10))
    consumed, digit, nxt = step_k_beta(1, x, golden)
    assert (consumed, digit) == (False, 0)
    assert nxt == x * golden.beta
    one = golden.element(1)
    consumed, digit, nxt = step_k_beta(1, one, golden)
    assert (consumed, digit) == (True, 1)
    assert nxt == golden.beta - 1
    consumed, digit, nxt = step_k_beta(0, one, golden)
    assert (consumed, digit) == (True, 0)
    assert nxt == golden.beta


def test_simulate_reconstructs(golden):
    rng = np.random.default_rng(3)
    x = golden.element(Fraction(2, 5))
    n = 25
    digits = simulate_expansion(x, n, golden, iter(int(b) for b in rng.integers(0, 2, 200)))
    # exact remainder stays in I_beta and the partial sums converge to x
    partial = golden.field.zero
    for k, d in enumerate(digits, start=1):
        if d:
            partial = partial + d * golden.rho ** k
    resid = x - partial
    tail = golden.right_end * golden.rho ** n
    assert resid.sign() >= 0 and (tail - resid).sign() >= 0


# ---------------------------------------------------------------------------
# distinct sums / Garsia
# ---------------------------------------------------------------------------

def test_distinct_sums_examples(golden, binary):
    assert distinct_sums_count(3, binary) == 8
    assert distinct_sums_count(2, golden) == 4
    assert distinct_sums_count(3, golden) == 7


@pytest.mark.parametrize("spec,m,n_max", [("golden", 2, 8), ("multinacci:3", 2, 7), ("1.5", 2, 8)])
def test_distinct_sums_match_brute_force(spec, m, n_max):
    sys_ = parse_beta(spec, m)
    for n in range(1, n_max + 1):
        assert distinct_sums_count(n, sys_) == brute_distinct_sums(n, sys_)


def test_distinct_sums_cap(b13):
    with pytest.raises(CapExceededError):
        distinct_sums_count(24, b13, cap=1000)


def test_garsia_report_golden(golden):
    rows = garsia_report(golden, 12)
    counts = [r.count for r in rows]
    # Fibonacci structure: s_n = F(n+3) - 1
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    assert counts == [fib[n + 2] - 1 for n in range(1, 13)]
    # normalized minimum gap is exactly 1/beta at every level here
    for r in rows[2:]:
        assert abs(r.min_gap_scaled - 1 / float(golden.beta)) < 1e-12


@pytest.mark.parametrize("spec", ["golden", "1.4", "13/10"])
def test_garsia_min_gap_is_exact_minimum(spec):
    sys_ = parse_beta(spec, 2)
    for r in garsia_report(sys_, 10):
        sums = sorted(brute_distinct_sum_values(r.n, sys_))
        assert len(sums) == r.count
        exact = min(b - a for a, b in zip(sums, sums[1:])) * sys_.beta ** r.n
        assert r.min_gap_scaled == float(exact)


@pytest.mark.parametrize("spec", ["golden", "13/10"])
def test_garsia_report_python_int_rows(spec, monkeypatch):
    # with less room in int64, keys or only their differences become Python
    # ints at some level; the deduplicated gaps and the report must not move
    sys_ = parse_beta(spec, 2)
    want = garsia_report(sys_, 14)
    for room in (2 ** 4, 0):
        monkeypatch.setattr(expansions, "INT64_MAX", room)
        assert garsia_report(sys_, 14) == want


# ---------------------------------------------------------------------------
# golden block counts / sparse construction
# ---------------------------------------------------------------------------

def test_count_X_m_matches_brute_force(golden):
    for m_param in range(1, 7):
        block = count_X_m(m_param, golden)
        assert block == m_param
        if m_param <= 6:
            assert block == brute_value_count(golden.rho, 2 * m_param, golden)


def test_count_X_m_guards(golden, b15):
    with pytest.raises(InvalidInputError):
        count_X_m(2, b15)
    # no enumeration cap: long blocks are one lattice DP of x = rho
    assert count_X_m(13, golden) == 13
    assert count_X_m(20, golden) == 20


def test_sparse_profile_checkpoints(golden):
    rows = sparse_profile((1, 2, 3), golden)
    assert [r.n for r in rows] == [3, 8, 15]
    assert [r.block_product for r in rows] == [1, 2, 6]
    # frozen DP prefix counts of the truncated point (independent oracle in
    # test_count_matches_brute_force validates the DP itself)
    assert [r.prefix_count for r in rows] == [2, 8, 50]


def test_sparse_profile_small(golden):
    assert sparse_profile((1, 2), golden)[-1].block_product == 2
    assert sparse_profile((1,), golden)[-1].block_product == 1


def test_sparse_profile_rejects_nonincreasing(golden):
    with pytest.raises(InvalidInputError):
        sparse_profile((2, 2), golden)
