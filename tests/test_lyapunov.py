import math

import numpy as np
import pytest

from betagrowth.errors import HypothesisError, InvalidInputError
from betagrowth.lyapunov import (
    MC_STDERR_FLOOR,
    GammaEstimate,
    _inner_log_sums,
    dimension,
    estimate_gamma_mc,
    gamma_integer_case,
    gamma_multinacci_series,
    gamma_multinacci_table,
    parry_chain,
)
from betagrowth.netautomaton import build_automaton
from betagrowth.numberfield import parse_beta
from conftest import mc_chain_values

PAPER_GAMMA_OVER_LOG2 = {
    3: 0.102500, 4: 0.041560, 5: 0.018426, 6: 0.008590, 7: 0.004123,
    8: 0.002014, 9: 0.000993, 10: 0.000493,
}
PAPER_D = {
    4: 1.012318, 5: 1.006510, 6: 1.003341, 7: 1.001695,
    8: 1.000854, 9: 1.000429, 10: 1.000215,
}


@pytest.fixture(scope="module")
def tri_chain(tribonacci):
    auto = build_automaton(tribonacci)
    return auto, parry_chain(auto)


# ---------------------------------------------------------------------------
# Parry chain
# ---------------------------------------------------------------------------

def test_parry_rows_stochastic(tri_chain):
    _auto, chain = tri_chain
    assert np.allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-14)


def test_parry_stationary(tri_chain):
    _auto, chain = tri_chain
    resid = np.abs(chain.stationary @ chain.matrix - chain.stationary).max()
    assert resid < 1e-12
    assert (chain.stationary > 0).all()


def test_parry_exact_rows_sum_to_one(golden):
    auto = build_automaton(golden)
    chain = parry_chain(auto)
    one = golden.field.one
    for row in chain.exact_rows:
        total = golden.field.zero
        for _j, pij in row:
            total = total + pij
        assert total == one


def test_parry_binary(binary):
    auto = build_automaton(binary)
    chain = parry_chain(auto)
    # two unit-length states exchanging mass uniformly
    assert chain.matrix.shape == (2, 2)
    assert np.allclose(chain.matrix, 0.5)
    assert np.allclose(chain.stationary, 0.5)


# ---------------------------------------------------------------------------
# Monte-Carlo gamma
# ---------------------------------------------------------------------------

def test_mc_binary_exactly_zero(binary):
    auto = build_automaton(binary)
    chain = parry_chain(auto)
    est = estimate_gamma_mc(chain, auto, path_len=5000, n_chains=4, seed=11)
    assert est.value == 0.0
    assert est.stderr > 0  # error floor keeps the MC error bar nonzero


def test_mc_integer_case_log2(base2m4):
    auto = build_automaton(base2m4)
    chain = parry_chain(auto)
    est = estimate_gamma_mc(chain, auto, path_len=20000, n_chains=8, seed=11)
    closed = gamma_integer_case(base2m4)
    assert closed.value == math.log(2)
    assert abs(est.value - closed.value) <= 3 * est.stderr


@pytest.mark.parametrize("spec, m, path_len, n_chains", [
    ("multinacci:3", 2, 5003, 4),  # crosses a draw block, ends mid-renormalization
    ("golden", 3, 3000, 4),        # matrices padded to V = 8
    ("int:2", 4, 3000, 4),
])
def test_mc_matches_per_chain_reference(spec, m, path_len, n_chains):
    auto = build_automaton(parse_beta(spec, m))
    chain = parry_chain(auto)
    values = np.array(mc_chain_values(chain, auto, path_len, n_chains, seed=7))
    est = estimate_gamma_mc(chain, auto, path_len=path_len, n_chains=n_chains, seed=7)
    assert est.value == float(values.mean())
    assert est.stderr == max(float(values.std(ddof=1) / math.sqrt(n_chains)), MC_STDERR_FLOOR)


def test_mc_seed_determinism(tri_chain):
    auto, chain = tri_chain
    a = estimate_gamma_mc(chain, auto, path_len=5000, n_chains=4, seed=99)
    b = estimate_gamma_mc(chain, auto, path_len=5000, n_chains=4, seed=99)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = estimate_gamma_mc(chain, auto, path_len=5000, n_chains=4, seed=100)
    assert c.value != a.value


def test_mc_bad_params(tri_chain):
    auto, chain = tri_chain
    with pytest.raises(InvalidInputError):
        estimate_gamma_mc(chain, auto, path_len=10, n_chains=4)
    with pytest.raises(InvalidInputError):
        estimate_gamma_mc(chain, auto, path_len=5000, n_chains=1)


def test_mc_vs_series_small_multinacci():
    # cross-method agreement at modest path lengths for n = 3, 4, 5
    for n in (3, 4, 5):
        sys_ = parse_beta(f"multinacci:{n}", 2)
        auto = build_automaton(sys_)
        chain = parry_chain(auto)
        mc = estimate_gamma_mc(chain, auto, path_len=30000, n_chains=12, seed=5)
        series = gamma_multinacci_series(n)
        assert abs(mc.value - series.value) <= 3 * mc.stderr


def test_subadditivity_along_path(tri_chain):
    """||prod of n+m|| <= ||prod of n|| * ||segment|| with exact integers."""
    auto, chain = tri_chain
    rng = np.random.default_rng(2)
    omega = chain.states
    state = int(omega[0])
    path = [state]
    for _ in range(40):
        kids = auto.successors(path[-1])
        kids = [k for k in kids if k in auto.essential]
        path.append(int(kids[rng.integers(len(kids))]))

    def norm(seg):
        vec = [1] * auto.v(seg[0])
        for i, j in zip(seg, seg[1:]):
            T = auto.edge_matrix(i, j)
            vec = [sum(vec[u] * T[u][w] for u in range(len(vec))) for w in range(len(T[0]))]
        return sum(vec)

    for cut in (10, 20, 30):
        assert norm(path) <= norm(path[: cut + 1]) * norm(path[cut:])


def _parry_log_norm_mean(auto, chain, k: int) -> float:
    """a_k = E log||T_1...T_k|| over the Parry paths of length k from the
    stationary start, by exact enumeration; ||.|| is the max row sum."""
    local = {s: i for i, s in enumerate(chain.states)}
    paths = [(chain.stationary[local[s]], s, np.eye(auto.v(s), dtype=np.int64))
             for s in chain.states]
    for _ in range(k):
        paths = [(p * chain.matrix[local[i], local[j]], j, M @ np.array(T, dtype=np.int64))
                 for p, i, M in paths for j, _lo, _hi, T in auto.children[i]]
    return sum(p * math.log(M.sum(axis=1).max()) for p, _j, M in paths)


@pytest.mark.parametrize("spec, n", [("golden", 2), ("multinacci:3", 3)])
def test_gamma_below_subadditive_bound(spec, n):
    """a_k is subadditive under the stationary measure, so by Fekete's
    lemma gamma = inf a_k/k <= a_12/12 <= a_6/6."""
    auto = build_automaton(parse_beta(spec, 2))
    chain = parry_chain(auto)
    bound = _parry_log_norm_mean(auto, chain, 12) / 12
    assert bound <= _parry_log_norm_mean(auto, chain, 6) / 6
    assert gamma_multinacci_series(n).value <= bound
    mc = estimate_gamma_mc(chain, auto, path_len=30000, n_chains=12, seed=4)
    assert mc.value - 3 * mc.stderr <= bound


# ---------------------------------------------------------------------------
# multinacci series
# ---------------------------------------------------------------------------

def test_inner_sum_k0_is_log2():
    assert _inner_log_sums(0)[0] == pytest.approx(math.log(2), abs=1e-15)


def test_inner_sums_nonnegative_and_growing():
    inner = _inner_log_sums(12)
    assert all(v >= 0 for v in inner)
    # series partial sums increase in k for every n
    assert all(b > a for a, b in zip(inner, inner[1:]))


@pytest.mark.parametrize("n", sorted(PAPER_GAMMA_OVER_LOG2))
def test_series_matches_table(n):
    est = gamma_multinacci_series(n, k_exact=20)
    assert est.method == "series"
    assert abs(est.over_log2 - PAPER_GAMMA_OVER_LOG2[n]) < 2e-5


def test_series_golden_hybrid():
    est = gamma_multinacci_series(2, k_exact=20, mc_budget=20_000, seed=0)
    assert abs(est.over_log2 - 0.302) < 2e-3
    assert est.stderr > 0
    again = gamma_multinacci_series(2, k_exact=20, mc_budget=20_000, seed=0)
    assert est.value == again.value


def test_series_range():
    with pytest.raises(InvalidInputError):
        gamma_multinacci_series(1)
    with pytest.raises(InvalidInputError):
        gamma_multinacci_series(11)


# ---------------------------------------------------------------------------
# integer case and dimension
# ---------------------------------------------------------------------------

def test_integer_case_values(base2m4, binary):
    assert gamma_integer_case(base2m4).value == math.log(2)
    assert gamma_integer_case(binary).value == 0.0
    assert gamma_integer_case(parse_beta("int:3", 6)).value == math.log(2)


def test_integer_case_hypothesis(golden):
    with pytest.raises(HypothesisError):
        gamma_integer_case(golden)
    with pytest.raises(HypothesisError):
        gamma_integer_case(parse_beta("int:2", 3))


def test_dimension_binary(binary):
    d = dimension(gamma_integer_case(binary), binary)
    assert d.value == 1.0
    assert not d.out_of_range


@pytest.mark.parametrize("n", sorted(PAPER_D))
def test_dimension_matches_table(n):
    sys_ = parse_beta(f"multinacci:{n}", 2)
    d = dimension(gamma_multinacci_series(n), sys_)
    assert abs(d.value - PAPER_D[n]) < 5e-5
    assert not d.out_of_range


def test_dimension_n3_flags_misprint():
    sys_ = parse_beta("multinacci:3", 2)
    est = gamma_multinacci_series(3)
    d = dimension(est, sys_)
    # internal consistency of D with the series gamma, to 1e-6
    assert abs(d.value - (math.log(2) - est.value) / math.log(float(sys_.beta))) < 1e-6
    assert abs(d.value - 1.020876) < 5e-5
    # the printed table value is the suspected digit transposition
    assert abs(d.value - 1.028876) > 5e-3


def test_dimension_n2_within_printed_bar():
    sys_ = parse_beta("golden", 2)
    d = dimension(gamma_multinacci_series(2, seed=0), sys_)
    assert abs(d.value - 1.0054) < 1.5e-3
    # strict inequality gamma < log(m/beta) for the non-integer base
    assert d.value > 1.0


def test_theorem_dichotomy(tri_chain):
    """Non-integer Pisot bases stay strictly below log(m/beta)."""
    auto, chain = tri_chain
    mc = estimate_gamma_mc(chain, auto, path_len=30000, n_chains=12, seed=4)
    upper = math.log(2 / float(auto.sys.beta))
    assert mc.value + 3 * mc.stderr < upper


def test_table_matches_series_per_n():
    # one enumeration of the inner sums serves every row of the table
    ns = [2, 3, 5]
    table = gamma_multinacci_table(ns, k_exact=12, mc_budget=500, seed=4)
    assert table == [gamma_multinacci_series(n, 12, 500, 4) for n in ns]
    with pytest.raises(InvalidInputError):
        gamma_multinacci_table([3, 11])
