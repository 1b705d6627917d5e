import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from betagrowth import expansions
from betagrowth.errors import CapExceededError, HypothesisError, InvalidInputError, InvariantError
from betagrowth.expansions import (
    count_X_m,
    count_prefixes,
    garsia_report,
    kappa,
    prefix_count_series,
    simulate_expansion,
    sparse_profile,
    verify_growth_bound,
)
from betagrowth.numberfield import NumberField, parse_beta

from conftest import (
    PROPERTY_SETTINGS,
    brute_distinct_sum_values,
    brute_distinct_sums,
    brute_prefix_count,
    brute_value_count,
    distinct_sums_count,
    kappa_walk,
    step_k_beta,
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


# trinomials x^n - x^k - 1 (most irreducible) with a root in (1, golden)
trinomial_specs = st.tuples(st.integers(3, 10), st.integers(1, 9)).filter(
    lambda nk: nk[1] < nk[0]).map(
    lambda nk: "poly:-1," + ",".join("-1" if i == nk[1] else "0" for i in range(1, nk[0])) + ",1")
# p/q in (1, golden), q <= 60, so the walk of the oracle stays short
rational_specs = st.tuples(st.integers(2, 97), st.integers(2, 60)).filter(
    lambda pq: pq[1] < pq[0] < 1.618 * pq[1]).map(lambda pq: f"{pq[0]}/{pq[1]}")


@PROPERTY_SETTINGS
@given(spec=st.one_of(rational_specs, trinomial_specs))
def test_kappa_matches_power_walk(spec):
    # the floor read off float bounds of the logarithm, with exact powers
    # only where they hold an integer, against the walk over every power
    try:
        sys_ = parse_beta(spec, 2)
    except InvalidInputError:  # a reducible trinomial
        return
    assert kappa(sys_) == kappa_walk(sys_)


def test_kappa_exact_powers_decide_an_integer_logarithm(monkeypatch):
    # x^4 - x^3 - 1: beta^3 (beta - 1) = 1, so log_beta(1/delta) is exactly 3
    # and the float bounds hold it: one exact comparison decides t = 3
    sys_ = parse_beta("poly:-1,0,0,-1,1", 2)
    ratio = sys_.field.one / (sys_.beta - 1)
    assert ratio == sys_.beta ** 3
    lo, hi = expansions._log_bounds(sys_, ratio)
    assert lo < 3 <= hi < 4
    compared = []
    power_at_most = expansions._power_at_most
    monkeypatch.setattr(expansions, "_power_at_most",
                        lambda beta, n, r: compared.append(n) or power_at_most(beta, n, r))
    assert kappa(sys_) == kappa_walk(sys_) == Fraction(1, 8)
    assert compared == [3]


@PROPERTY_SETTINGS
@given(pq=st.tuples(st.integers(2, 1000), st.integers(1, 1000)).filter(lambda t: t[1] < t[0]),
       ab=st.tuples(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30)), n=st.integers(0, 200))
def test_power_at_most_in_integers(pq, ab, n):
    # degree one: p^n b <= a q^n in Python ints is beta^n <= a/b
    p, q = pq
    sys_ = parse_beta(f"{p}/{q}", max(2, -(-p // q)))
    ratio = sys_.element(Fraction(*ab))
    beta = sys_.beta
    want = Fraction(beta.num[0], beta.den) ** n <= Fraction(ratio.num[0], ratio.den)
    assert expansions._power_at_most(beta, n, ratio) is want


def test_kappa_near_one():
    # 1.0001: t = 92,108 from the floats alone, where the walk of the
    # oracle makes 92,108 exact products of rationals growing to 1.2 M bits
    sys_ = parse_beta("1.0001", 2)
    assert kappa(sys_) == Fraction(1, 2 * 92_109)
    ratio = sys_.field.one / (sys_.beta - 1)
    assert expansions._power_at_most(sys_.beta, 92_108, ratio)
    assert not expansions._power_at_most(sys_.beta, 92_109, ratio)
    # beta - 1 = 1/(2^63 + 28): the floats bound log_beta(1/delta) only to
    # within about 10^7, and no exact power of that size is tried
    with pytest.raises(InvalidInputError, match="exact powers of beta up to"):
        kappa(parse_beta("9223372036854775837/9223372036854775836", 2))


def test_growth_bound_passes(b15, b14):
    assert verify_growth_bound(b15, 1, 24).passed
    # m = 3 with digits beyond {0,1} exercises the digit-pair reduction;
    # depth 20 keeps the exact count that backs the check near 10^6 states
    # (n=24 also passes but needs gigabytes for the exact m=3 count)
    sys_ = parse_beta("1.4", 3)
    report = verify_growth_bound(sys_, Fraction(7, 10), 20)
    assert report.passed


def test_growth_bound_past_float_range(b15, monkeypatch):
    # 2^(n/8 - 1) passes the float range at n = 8200: from there the float
    # bound is inf, while `ok` stays the exact comparison
    n_max = 20_000
    counts = [2 ** (n // 8) for n in range(n_max + 1)]
    counts[n_max] = 2 ** (n_max // 8 - 1) - 1
    monkeypatch.setattr(expansions, "prefix_count_series", lambda _x, _n, _sys: counts)
    rows = verify_growth_bound(b15, 1, n_max).rows
    assert [r.bound for r in rows[:8199]] == [2.0 ** (n / 8 - 1) for n in range(1, 8200)]
    assert all(r.bound == math.inf for r in rows[8199:])
    assert all(r.ok for r in rows[:-1]) and not rows[-1].ok


def test_growth_bound_requires_interior(b15):
    with pytest.raises(InvalidInputError):
        verify_growth_bound(b15, 0, 5)
    with pytest.raises(InvalidInputError):
        verify_growth_bound(b15, b15.right_end, 5)


# ---------------------------------------------------------------------------
# K_beta
# ---------------------------------------------------------------------------

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


# K_beta bases with their digit counts m = floor(beta) + 1, or m = beta
K_BETA_BASES = (("golden", 2), ("2.5", 3), ("int:2", 2), ("int:3", 3), ("1.5", 2), ("13/10", 2),
                ("multinacci:3", 2), ("poly:-1,-1,0,1", 2), ("10.5", 11))


@pytest.fixture(scope="module")
def k_beta_systems():
    return {base: parse_beta(*base) for base in K_BETA_BASES}


@PROPERTY_SETTINGS
@given(base=st.sampled_from(K_BETA_BASES), data=st.data(), n=st.integers(0, 12))
@example(base=("golden", 2), data=None, n=6)
@example(base=("int:2", 2), data=None, n=6)
def test_simulate_matches_k_beta_oracle(k_beta_systems, base, data, n):
    # every digit and every coin against the switch regions of `step_k_beta`,
    # from their ends k/beta and (R + k - 1)/beta, 0, R and points between
    sys_ = k_beta_systems[base]
    beta, field = sys_.beta, sys_.field
    ends = [field.rational(k) / beta for k in range(sys_.m)]
    ends += [(sys_.right_end + k - 1) / beta for k in range(1, sys_.m)] + [sys_.right_end]
    if data is None:
        x, bits = ends[1], [1, 0] * n
    else:
        den = data.draw(st.integers(1, 997), label="den")
        between = st.integers(0, den).map(lambda num: sys_.right_end * Fraction(num, den))
        x = data.draw(st.one_of(st.sampled_from(ends), between), label="x")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="coins")
    coins = iter(bits)
    digits = simulate_expansion(x, n, sys_, coins)
    want, used, cur = [], 0, x
    for _ in range(n):
        consumed, digit, cur = step_k_beta(bits[used], cur, sys_)
        want.append(digit)
        used += consumed
    assert digits == want
    assert len(list(coins)) == len(bits) - used  # one coin per switch-region step


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
    # as for the atoms: 2^22 sums at level 22 pass the default cap before any step
    with pytest.raises(CapExceededError, match="4194304 DP states at level 22 exceed"):
        distinct_sums_count(24, b13)


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


def test_garsia_report_misordered_presort(golden, monkeypatch):
    # the float values of the 20 level-5 sums with the largest moved to the
    # front, every error bound infinite so that every gap is a candidate:
    # the exact screen finds the one difference that is not positive, and
    # the report names its level
    assert [r.count for r in garsia_report(golden, 6)][4] == 20
    float_rows = NumberField.float_rows

    def misordered(field, rows):
        val, err = float_rows(field, rows)
        if len(rows) == 20:
            val[val.argmax()] = -1.0
            err = np.full_like(err, np.inf)
        return val, err

    monkeypatch.setattr(NumberField, "float_rows", misordered)
    with pytest.raises(InvariantError, match="float presort put a larger level-5 sum first$"):
        garsia_report(golden, 6)


GOLDEN_GAP, TRIB_GAP = 0.6180339887498949, 0.5436890126920764


# the sums of the benchmark's spectrum tasks: distinct counts and minimum
# scaled gaps, frozen from the np.unique form of the gap dedupe
@pytest.mark.parametrize("spec, counts, gaps", [
    ("golden", [2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986, 1596, 2583, 4180,
                6764, 10945, 17710, 28656, 46367, 75024, 121392, 196417],
     [1.0] + [GOLDEN_GAP] * 23),
    ("multinacci:3", [2, 4, 8, 15, 28, 52, 96, 177, 326, 600, 1104, 2031, 3736, 6872,
                      12640, 23249, 42762, 78652],
     [1.0, 0.8392867552141612] + [TRIB_GAP] * 16),
    ("13/10", [2 ** n for n in range(1, 19)],
     [1.0, 0.3, 0.3, 0.103, 0.0309, 0.0309, 0.019291, 0.0048727, 0.00032821, 0.00032821,
      0.0001715119, 0.0001715119, 9.3307889e-05, 1.60557257e-05, 1.269281659e-05,
      8.872892653e-06, 7.6909183159e-06, 6.4319573777e-07]),
])
def test_garsia_report_frozen(spec, counts, gaps):
    sys_ = parse_beta(spec, 2)
    rows = garsia_report(sys_, len(counts))
    assert [r.count for r in rows] == counts
    assert [r.min_gap_scaled for r in rows] == gaps
    assert [r.count_over_beta_n for r in rows] == [
        c / float(sys_.beta) ** n for n, c in enumerate(counts, start=1)]


@pytest.mark.parametrize("spec, n", [pytest.param("golden", 14, id="golden"),
                                     pytest.param("13/10", 14, id="13/10"),
                                     pytest.param("13/10", 18, id="13/10-n18")])
def test_garsia_report_python_int_rows(spec, n, monkeypatch):
    # with limbs off and less room in int64, keys or only their differences
    # become Python ints at some level; the deduplicated gaps and the report
    # must not move.  13/10 keys pass 2^63 at level 17, where the limb
    # report meets the Python-int one at full room too
    sys_ = parse_beta(spec, 2)
    want = garsia_report(sys_, n)
    monkeypatch.setattr(expansions, "LIMB_P_BOUND", 0)
    for room in (expansions.INT64_MAX, 2 ** 4, 0):
        monkeypatch.setattr(expansions, "INT64_MAX", room)
        assert garsia_report(sys_, n) == want


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


def test_sparse_profile_takes_any_number_of_blocks(golden):
    # twelve blocks, n = 168: one prefix-count sweep and twelve block counts;
    # x has the expansion 1 0^(2 m_1) 1 0^(2 m_2) ..., with its ones at p_k
    m_seq = tuple(range(1, 13))
    ones = [1]
    for mk in m_seq:
        ones.append(ones[-1] + 2 * mk + 1)
    x = sum((golden.rho_powers[p] for p in ones[:-1]), golden.field.zero)
    series = prefix_count_series(x, ones[-1] - 1, golden)
    rows = sparse_profile(m_seq, golden)
    assert [r.n for r in rows] == [p - 1 for p in ones[1:]]
    assert [r.prefix_count for r in rows] == [series[r.n] for r in rows]
    assert [r.block_product for r in rows] == [math.factorial(k) for k in m_seq]


def test_sparse_profile_small(golden):
    assert sparse_profile((1, 2), golden)[-1].block_product == 2
    assert sparse_profile((1,), golden)[-1].block_product == 1


def test_sparse_profile_rejects_nonincreasing(golden):
    with pytest.raises(InvalidInputError):
        sparse_profile((2, 2), golden)


def test_sparse_profile_checks_m_seq_before_the_dp(golden, monkeypatch):
    def no_dp(*args):
        raise AssertionError("the prefix-count DP ran")
    monkeypatch.setattr(expansions, "prefix_count_series", no_dp)
    for m_seq in ((), (0, 1), (-3, 2)):
        with pytest.raises(InvalidInputError, match="nonempty"):
            sparse_profile(m_seq, golden)
