import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagrowth import lyapunov
from betagrowth.errors import HypothesisError, InvalidInputError
from betagrowth.lyapunov import (
    DRAW_BLOCK,
    MC_STDERR_FLOOR,
    SERIES_BYTES_MAX,
    SERIES_K_EXACT_MAX,
    GammaEstimate,
    ParryChain,
    _chunk_products,
    _edge_arrays,
    _inner_log_sums,
    _mc_middle,
    _rank_table,
    _run_tables,
    _walk,
    check_mc_params,
    dimension,
    estimate_gamma_mc,
    gamma_integer_case,
    gamma_multinacci_series,
    gamma_series_table,
    mc_chunk_len,
    mc_walk_segments,
    parry_chain,
)
from betagrowth.netautomaton import build_automaton
from betagrowth.numberfield import multinacci, parse_beta
from conftest import (PROPERTY_SETTINGS, int64_inner_log_sums, mc_cdf_rows, mc_chain_values,
                      mc_word_walks, pisot_family, walk_one_lookup_per_word, where_mc_middle)

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


def _assert_parry_rows_exact(sys_, auto):
    # P_ij = rho l_j / l_i sums to 1 over a row exactly when the children
    # lengths of each essential state i sum to beta l_i
    chain = parry_chain(auto)
    assert sorted(auto.essential) == list(chain.states)
    for i in chain.states:
        total = sys_.field.zero
        for j, _lo, _hi, _T in auto.children[i]:
            assert j in auto.essential
            total = total + auto.ell(j)
        assert total == sys_.beta * auto.ell(i)


@pytest.mark.parametrize("spec,m", [("golden", 2), ("golden", 3), ("multinacci:3", 2),
                                    ("poly:-1,-1,0,1", 2)])
def test_parry_rows_sum_to_one_exactly(spec, m):
    sys_ = parse_beta(spec, m)
    _assert_parry_rows_exact(sys_, build_automaton(sys_))


@PROPERTY_SETTINGS
@given(sys_=pisot_family)
def test_parry_rows_sum_to_one_exactly_on_pisot_family(sys_):
    # every automaton of the family has at most 283 states
    _assert_parry_rows_exact(sys_, build_automaton(sys_, state_cap=1000))


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
    ("multinacci:3", 2, 5003, 4),      # crosses a draw block, ends mid-renormalization; k = 1
    ("multinacci:3", 2, 4096 + 64, 4),  # crosses a draw block in words of k = 4 steps
    ("golden", 3, 3000, 4),            # matrices padded to V = 8
    ("int:2", 4, 3000, 4),
    ("int:2", 6, 3000, 4),             # row sum 5: chunks of 16 steps
])
def test_mc_matches_per_chain_reference(spec, m, path_len, n_chains):
    auto = build_automaton(parse_beta(spec, m))
    chain = parry_chain(auto)
    values = np.array(mc_chain_values(chain, auto, path_len, n_chains, seed=7))
    est = estimate_gamma_mc(chain, auto, path_len=path_len, n_chains=n_chains, seed=7)
    assert est.value == float(values.mean())
    assert est.stderr == max(float(values.std(ddof=1) / math.sqrt(n_chains)), MC_STDERR_FLOOR)


# unequal out-degrees (poly:-1,0,-1,1), padding to V = 8 (golden, m = 3) and
# chunks of 16 steps (int:2, m = 6)
MC_PROPERTY_BASES = [("golden", 3), ("multinacci:4", 2), ("int:2", 4), ("poly:-1,0,-1,1", 2),
                     ("int:2", 6)]


@pytest.fixture(scope="module")
def mc_chains():
    autos = {base: build_automaton(parse_beta(*base)) for base in MC_PROPERTY_BASES}
    return {base: (auto, parry_chain(auto)) for base, auto in autos.items()}


@settings(max_examples=10, deadline=None)
@given(base=st.sampled_from(MC_PROPERTY_BASES), seed=st.integers(0, 2 ** 64),
       path_len=st.integers(1000, 2 * DRAW_BLOCK + 33), n_chains=st.integers(2, 5))
def test_mc_equals_per_chain_loop(mc_chains, base, seed, path_len, n_chains):
    auto, chain = mc_chains[base]
    values = np.array(mc_chain_values(chain, auto, path_len, n_chains, seed))
    est = estimate_gamma_mc(chain, auto, path_len=path_len, n_chains=n_chains, seed=seed)
    assert est.value == float(values.mean())
    assert est.stderr == max(float(values.std(ddof=1) / math.sqrt(n_chains)), MC_STDERR_FLOOR)


@pytest.mark.parametrize("spec, m, path_len", [
    ("golden", 3, 3),             # one partial chunk, 8-entry vectors
    ("poly:1,0,-2,-1,1", 2, 37),  # a chunk of 32 steps and a partial one; gamma about 0.04
])
def test_mc_short_paths_match_per_chain_reference(monkeypatch, spec, m, path_len):
    # a long path's log sum of hundreds of nats has an ulp near 1e-13 and
    # swallows a change of one rounding in a chunk; over these paths each
    # chain's log sum is O(1), so == sees it.  The 1000-step floor guards the
    # estimate's statistics, not its arithmetic.
    monkeypatch.setattr(lyapunov, "check_mc_params", lambda *args: None)
    auto = build_automaton(parse_beta(spec, m))
    chain = parry_chain(auto)
    for seed in range(16):
        values = np.array(mc_chain_values(chain, auto, path_len, 4, seed))
        est = estimate_gamma_mc(chain, auto, path_len=path_len, n_chains=4, seed=seed)
        assert (np.abs(values) * path_len < 4).all()  # log sums of at most a few nats
        assert est.value == float(values.mean()), seed
        assert est.stderr == max(float(values.std(ddof=1) / 2), MC_STDERR_FLOOR), seed


def test_mc_chunk_len():
    # the largest power of two h <= 32 with r^h < 2^53
    for r, h in ((1, 32), (2, 32), (3, 32), (5, 16), (7, 16), (2 ** 53, 1)):
        assert mc_chunk_len(r, 2, 8) == h, r
    # one chunk's matrices fit in the memory of its uniforms: 16 * 12^2 <= DRAW_BLOCK
    assert mc_chunk_len(2, 12, 2) == 16
    # the plastic number's 27 x 27 matrices: the tree costs more than it saves
    for n_chains in (2, 8, 32):
        assert mc_chunk_len(2, 27, n_chains) == 1


def test_chunk_products_exact():
    # a random int:2, m = 6 path: row sum 5, so chunks of 16 steps
    auto = build_automaton(parse_beta("int:2", 6))
    rng = np.random.default_rng(3)
    state, path = min(auto.essential), []
    for _ in range(4 * 16):
        state, _lo, _hi, T = auto.children[state][rng.integers(len(auto.children[state]))]
        path.append(T)
    h = mc_chunk_len(5, 5, 4)
    assert h == 16
    got = _chunk_products(np.array(path, dtype=float)[:, None], h)[:, 0]
    for k, chunk in enumerate(range(0, len(path), h)):
        want = np.array(path[chunk], dtype=object)
        for T in path[chunk + 1:chunk + h]:
            want = want @ np.array(T, dtype=object)
        assert got[k].tolist() == want.tolist()


def _rank_table_picks(rows):
    """Assert `_rank_table` picks searchsorted(row, u, side="right") on every
    row, for u at each cumulative value of any row and at its neighbours."""
    width = max(len(row) for row in rows)
    cdf = np.full((len(rows), width), 2.0)
    for s, row in enumerate(rows):
        cdf[s, :len(row)] = row
    K, first = _rank_table(cdf)
    assert first.shape == (len(rows), len(K) + 1)
    values = np.concatenate([np.asarray(row) for row in rows])
    uniforms = [0.0, *values, *np.nextafter(values, 0.0), *np.nextafter(values, 2.0)]
    for u in (u for u in uniforms if u < 1.0):
        rank = np.searchsorted(K, u, side="right")
        for s, row in enumerate(rows):
            assert first[s, rank] == np.searchsorted(row, u, side="right"), (s, u)


def test_rank_table_on_ties():
    # 0.25 and 0.75 belong to one row each, 0.5 to two; the last row has one edge
    _rank_table_picks([[0.25, 0.5, 1.0], [0.5, 0.75, 1.0], [1.0]])


def test_rank_table_on_parry_rows(mc_chains):
    for base in MC_PROPERTY_BASES:
        auto, chain = mc_chains[base]
        _rank_table_picks(mc_cdf_rows(chain, auto)[0])


def _tie_chain():
    """A three-state chain on the rows of `test_rank_table_on_ties`, with
    random 2 x 2 edge matrices."""
    rng = np.random.default_rng(5)
    targets = [(1, 2, 0), (2, 0, 1), (0,)]
    P = np.zeros((3, 3))
    P[0, [1, 2, 0]] = 0.25, 0.25, 0.5
    P[1, [2, 0, 1]] = 0.5, 0.25, 0.25
    P[2, 0] = 1.0
    children = [[(j, None, None, rng.integers(0, 3, (2, 2)).tolist()) for j in row]
                for row in targets]
    return ParryChain((0, 1, 2), P, np.full(3, 1 / 3)), SimpleNamespace(children=children,
                                                                     v=lambda i: 2)


@pytest.mark.parametrize("spec, m, k_max, k", [
    ("golden", 3, 32, 4),
    ("multinacci:3", 2, 32, 4),
    ("int:2", 4, 32, 8),
    ("poly:-1,0,-1,1", 2, 32, 2),
    ("multinacci:3", 3, 16, 1),  # 447 states, |K| = 25, d = 16: the cap stops at 1
    ("ties", 2, 4, 4),           # k_max stops it
])
def test_run_tables_entry_by_entry(spec, m, k_max, k):
    if spec == "ties":
        chain, auto = _tie_chain()
    else:
        auto = build_automaton(parse_beta(spec, m))
        chain = parry_chain(auto)
    cdf, nxt, mats = _edge_arrays(chain, auto)
    K, got_k, jump, pick, prods = _run_tables(cdf, nxt, mats, k_max)
    assert got_k == k
    states, products = mc_word_walks(chain, auto, k)
    assert jump.shape == states.shape == (len(cdf), len(K) ** k)
    assert (jump == states).all()
    if k == 1:
        # no states x ranks copy of the edge stack
        assert prods is mats
    else:
        # above k = 1 each entry has its own row of prods
        assert (pick.ravel() == np.arange(len(prods))).all()
    assert pick.shape == jump.shape
    assert np.array_equal(prods[pick], products.astype(float))


@settings(max_examples=60, deadline=None)
@given(n_states=st.integers(1, 12), n_words=st.integers(1, 20), n_chains=st.integers(1, 6),
       n_rows=st.integers(1, 1100), segments=st.none() | st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_walk_in_segments_equals_one_lookup_per_word(n_states, n_words, n_chains, n_rows,
                                                     segments, seed):
    # a random flat table of `estimate_gamma_mc`'s form: entry s * n_words + w
    # holds the offset of a random state's row, and one more entry per state
    # that state's own offset; segments is the rule's B (None) or a forced one
    rng = np.random.default_rng(seed)
    after = n_words * np.concatenate((rng.integers(0, n_states, n_states * n_words),
                                      np.arange(n_states)))
    words = rng.integers(0, n_words, (n_rows, n_chains))
    cur = rng.integers(0, len(after), n_chains)
    want_entries, want_cur = walk_one_lookup_per_word(after, words, cur)
    rule = mc_walk_segments if segments is None else lambda *args: min(segments, n_rows)
    with mock.patch.object(lyapunov, "mc_walk_segments", rule):
        got_cur = _walk(after, words, cur, n_states, n_words)
    assert (words == want_entries).all()
    assert (got_cur == want_cur).all()


def test_mc_walk_segments():
    # the benchmark's bases, a block of DRAW_BLOCK steps in words of k steps:
    # multinacci:3 (9 states, k = 4, 16 chains), int:2 with m = 4 and m = 2
    # (2 states, k = 8 and 16, 8 chains)
    assert mc_walk_segments(DRAW_BLOCK // 4, 9, 16) == 16
    assert mc_walk_segments(DRAW_BLOCK // 8, 2, 8) == 8
    assert mc_walk_segments(DRAW_BLOCK // 16, 2, 8) == 8
    # the largest power of two with 4 B^2 <= n_rows; B = 2 never pays
    assert [mc_walk_segments(n, 1, 2) for n in (1, 3, 63, 64, 255, 256, 1024, 4096)] == [
        1, 1, 1, 4, 4, 8, 16, 32]
    # one segment once the speculative lanes cost more than the lookups they
    # save: at B = 16, 64 * 208 * 16 = 13 * NUMPY_CALL_MADDS
    assert mc_walk_segments(1024, 208, 1) == 16
    assert mc_walk_segments(1024, 209, 1) == 1
    # poly:-1,0,-1,1 (46 states, k = 2) at 8 chains, and the plastic number
    # (1,207 states) at any chain count
    assert mc_walk_segments(DRAW_BLOCK // 2, 46, 8) == 1
    for n_chains in (2, 8, 32):
        assert mc_walk_segments(DRAW_BLOCK, 1207, n_chains) == 1


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
    with pytest.raises(InvalidInputError, match="seed"):
        estimate_gamma_mc(chain, auto, path_len=5000, n_chains=4, seed=-1)
    with pytest.raises(InvalidInputError, match="seed"):
        gamma_series_table([multinacci(2), multinacci(3)], seed=-1)
    with pytest.raises(InvalidInputError, match="chains"):
        check_mc_params(n_chains=1)


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


def test_inner_sums_equal_int64_enumeration():
    # the in-place float64 levels hold the same integers in the same order
    # as the int64 levels built anew, so every log and every pairwise sum
    # agrees; each k_max puts its last level in place and the others in
    # the upper half of top
    for k in range(19):
        assert _inner_log_sums(k) == int64_inner_log_sums(k), k


def test_inner_sums_within_two_arrays():
    # top and bot, 16 bytes per level-16 vector: no third array
    tracemalloc.start()
    try:
        _inner_log_sums(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * 2 ** 16 <= peak <= 16 * 2 ** 16 + 2 ** 16


# beta_n^n as the series route computes it, for n = 2..10
BETA_POW_N = [float(multinacci(n).beta) ** n for n in range(2, 11)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), budget=st.integers(2, 3000),
       k_pair=st.lists(st.integers(1, 64), min_size=2, max_size=2).map(sorted),
       beta_pow_n=st.sampled_from(BETA_POW_N))
def test_mc_middle_equals_where_steps(seed, budget, k_pair, beta_pow_n):
    # the same random bits, the same integer norms and the same float steps
    k_lo, k_hi = k_pair
    assert (_mc_middle(beta_pow_n, k_lo, k_hi, budget, seed)
            == where_mc_middle(beta_pow_n, k_lo, k_hi, budget, seed))


def test_series_table_equals_oracle_kernels(monkeypatch):
    systems = [multinacci(n) for n in range(2, 11)]
    table = gamma_series_table(systems)
    monkeypatch.setattr(lyapunov, "_inner_log_sums", int64_inner_log_sums)
    monkeypatch.setattr(lyapunov, "_mc_middle", where_mc_middle)
    assert table == gamma_series_table(systems)


def test_series_k_exact_bound(monkeypatch):
    # the largest level-k norm is F_(k+3), an exact float64 integer while
    # F_(k+3) <= 2^53
    fib = [0, 1]
    while len(fib) < 80:
        fib.append(fib[-1] + fib[-2])
    vectors = [(1, 1)]
    for k in range(13):
        assert max(a + b for a, b in vectors) == fib[k + 3], k
        vectors = [(a + b, b) for a, b in vectors] + [(a, a + b) for a, b in vectors]
    assert fib[SERIES_K_EXACT_MAX + 3] <= 2 ** 53 < fib[SERIES_K_EXACT_MAX + 4]
    levels = []

    def no_enumeration(k_max):
        levels.append(k_max)
        return [0.0] * (k_max + 1)

    # the bound itself is accepted; beyond it nothing is enumerated
    monkeypatch.setattr(lyapunov, "_inner_log_sums", no_enumeration)
    est = gamma_series_table([multinacci(3)], k_exact=SERIES_K_EXACT_MAX)[0]
    assert levels == [SERIES_K_EXACT_MAX] and est.params["k_exact"] == SERIES_K_EXACT_MAX
    with pytest.raises(InvalidInputError, match="at most 75"):
        gamma_series_table([multinacci(3)], k_exact=SERIES_K_EXACT_MAX + 1)
    assert levels == [SERIES_K_EXACT_MAX]


def test_series_arrays_within_byte_budget(no_large_arrays):
    # the budget admits k_exact 25 and mc_budget 9,586,980, and rejects one
    # more of each before anything is allocated
    assert 2 * 8 * 2 ** 25 <= SERIES_BYTES_MAX < 2 * 8 * 2 ** 26
    assert 7 * 8 * 9_586_980 <= SERIES_BYTES_MAX < 7 * 8 * 9_586_981
    with pytest.raises(InvalidInputError,
                       match=r"^k_exact = 26 needs 1073741824 bytes, over the limit 536870912$"):
        _inner_log_sums(26)
    with pytest.raises(InvalidInputError,
                       match=r"^mc_budget = 9586981 needs 536870936 bytes, over the limit 536870912$"):
        _mc_middle(2.6, 21, 64, 9_586_981, 0)
    # the guard itself: a small level passes it, a large one does not
    assert len(_inner_log_sums(3)) == 4
    with pytest.raises(AssertionError, match="past the test's guard"):
        np.ones(2 ** 22)


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
    table = gamma_series_table([multinacci(n) for n in ns], k_exact=12, mc_budget=500, seed=4)
    assert table == [gamma_multinacci_series(n, 12, 500, 4) for n in ns]
    with pytest.raises(InvalidInputError):
        gamma_series_table([multinacci(3), parse_beta("golden", 3)])
    with pytest.raises(InvalidInputError):
        gamma_multinacci_series(11)
