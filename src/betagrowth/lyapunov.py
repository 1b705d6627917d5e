"""The growth exponent gamma by three routes, and the derived dimension.

Routes:
  * Kingman Monte-Carlo: sample the Parry chain on the essential class of
    the coding automaton and average the log-norm growth of the running
    row-vector product through the transition matrices.  All chains walk
    in lockstep in a single process: a block of path steps by table lookups
    on words of k steps (the ranks of the uniforms), walked in segments
    whose starts a speculative walk from every state resolves, then one
    numpy multiply per chunk of steps, by the chunk's k-step products (one
    product lookup per table entry) multiplied exactly in a pairwise tree
    (a chunk is one step where the tree would cost more), and the logs of
    a block's renormalisations taken together.
  * Multinacci series: the closed-form series for gamma_n over products of
    the two unimodular digit matrices, enumerated exactly up to a cutoff
    with an analytic geometric tail bound (and a Monte-Carlo middle segment
    for n = 2, where pure enumeration converges too slowly).
  * Integer case: gamma = log(m/beta) when beta is an integer dividing m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import HypothesisError, InvalidInputError, InvariantError
from .netautomaton import Automaton
from .numberfield import BetaSystem, multinacci

RENORM_EVERY = 32
# estimate_gamma_mc defaults, also for check_mc_params
MC_PATH_LEN = 100_000
MC_CHAINS = 32
# the fixed cost of one numpy call, counted in the float multiply-adds a
# batched matmul does in the same time (DECISIONS.md has the argument)
NUMPY_CALL_MADDS = 2 ** 14
POWER_ITER_TOL = 1e-14
POWER_ITER_MAX = 200_000
# each chain draws its uniforms in blocks of this many steps: the same stream
# as one long draw, with memory bounded by the block instead of the path
DRAW_BLOCK = 128 * RENORM_EVERY
# the k-step product table of the walk holds at most this many floats (4 MiB)
RUN_TABLE_FLOATS = 128 * DRAW_BLOCK
# accumulated float rounding along a renormalized product; the reported MC
# standard error is never below this, so degenerate chains (integer bases,
# where every path gives the same value) still carry an honest error bar
MC_STDERR_FLOOR = 1e-12
# last k of the Monte-Carlo middle segment of the n = 2 multinacci series
SERIES_K_TAIL = 64
# the last level whose series norms are exact in float64: a level-k norm is
# at most the Fibonacci number F_(k+3), and F_78 <= 2^53 < F_79
SERIES_K_EXACT_MAX = 75
# the most bytes the series route's arrays may take, checked before they are
# allocated: 16 per inner-sum vector (two float64 arrays, so k_exact <= 25)
# and 56 per Monte-Carlo path (five float64 arrays and one level's int64 draw
# with its float64 copy, so mc_budget <= 9,586,980)
SERIES_BYTES_MAX = 512 * 2 ** 20


# ---------------------------------------------------------------------------
# Parry chain
# ---------------------------------------------------------------------------

@dataclass
class ParryChain:
    """Markov chain P_ij = rho*l_j/l_i on the essential class."""

    states: tuple[int, ...]          # automaton state indices
    matrix: np.ndarray               # row-stochastic, len(states) square
    stationary: np.ndarray           # p with p @ P = p, p > 0


def parry_chain(auto: Automaton) -> ParryChain:
    sys = auto.sys
    omega = sorted(auto.essential)
    local = {s: k for k, s in enumerate(omega)}
    n = len(omega)
    # rows sum to 1 exactly: build_automaton has checked the length
    # identity ell_i = rho * sum_j ell_j at every state; the closure check
    # below guards automata built by other means
    P = np.zeros((n, n))
    for k, i in enumerate(omega):
        # each child state sits on one edge of i (ranks separate twins)
        scale = sys.rho / auto.ell(i)
        for j, _lo, _hi, _T in auto.children[i]:
            if j not in local:
                raise InvariantError("essential class not forward closed")
            P[k, local[j]] = float(auto.ell(j) * scale)
    # stationary vector by power iteration
    p = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_MAX):
        nxt = p @ P
        nxt /= nxt.sum()
        if np.abs(nxt - p).max() < POWER_ITER_TOL:
            p = nxt
            break
        p = nxt
    else:
        raise InvariantError("power iteration did not reach the residual target")
    if (p <= 0).any():
        raise InvariantError("stationary vector not strictly positive")
    return ParryChain(tuple(omega), P, p)


# ---------------------------------------------------------------------------
# gamma estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaEstimate:
    value: float                 # nats
    stderr: float                # nats; 0 for deterministic routes
    method: str                  # "mc" | "series" | "integer-case"
    params: dict = field(default_factory=dict)

    @property
    def over_log2(self) -> float:
        return self.value / math.log(2)

    @property
    def stderr_over_log2(self) -> float:
        return self.stderr / math.log(2)


def _rank_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cumulative probabilities K and the edge each rank picks.

    cdf[s] holds the cumulative probabilities of state s's edges, padded with
    2.  A uniform u of rank r = searchsorted(K, u, side="right"), the number
    of k with K[k] <= u, sits between K[r - 1] and K[r]; every cdf entry is
    some K[k], so cdf[s, e] > u exactly when cdf[s, e] > K[r - 1].  Hence
    first[s, r] = the first edge e with cdf[s, e] > K[r - 1] (edge 0 for
    r = 0) is the edge searchsorted(cdf[s], u, side="right") picks, found
    with no rounding.
    """
    # sorted(set()): numpy's unique imports numpy.ma (0.6 MB, DECISIONS.md)
    K = np.array(sorted(set(cdf[cdf < 2.0].tolist())))
    below = np.concatenate(([-np.inf], K))
    first = (cdf[:, :, None] > below).argmax(axis=1)
    return K, first


def _edge_arrays(chain: ParryChain, auto: Automaton) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cdf, nxt and mats of the Parry walk.

    Edge e out of local state s is numbered s * width + e; cdf[s, e] is the
    cumulative Parry probability of edges 0..e (the last set to 1), padded
    with 2 so a padded slot is never chosen; nxt and mats hold each edge's
    local target and its matrix, zero-padded to dim x dim for dim the largest
    multiplicity.
    """
    omega = chain.states
    local = {s: k for k, s in enumerate(omega)}
    width = max(len(auto.children[i]) for i in omega)
    dim = max(auto.v(i) for i in omega)
    cdf = np.full((len(omega), width), 2.0)
    nxt = np.zeros(len(omega) * width, dtype=np.intp)
    mats = np.zeros((len(omega) * width, dim, dim))
    for s, i in enumerate(omega):
        # each child state appears on exactly one edge (ranks separate twins)
        for e, (j, _lo, _hi, T) in enumerate(auto.children[i], s * width):
            nxt[e] = local[j]
            mats[e, :len(T), :len(T[0])] = T
        targets = nxt[s * width:s * width + len(auto.children[i])]
        cdf[s, :len(targets)] = np.cumsum(chain.matrix[s, targets])
        cdf[s, len(targets) - 1] = 1.0
    return cdf, nxt, mats


def _run_tables(cdf: np.ndarray, nxt: np.ndarray, mats: np.ndarray,
                k_max: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """K, k and the k-step tables (jump, pick, prods) of the walk on
    `_edge_arrays` (cdf, nxt, mats).

    k is the largest power of two <= k_max whose product table holds at most
    RUN_TABLE_FLOATS floats.  A word w packs k ranks in base |K|, the first
    step most significant: a uniform u < 1 = K[-1] has a rank below |K|, so
    `_rank_table`'s last column is never read.  jump[s, w] is the state the
    k steps of w reach from state s, and prods[s, w] the exact product of
    their edge matrices, first step on the left, at prods[pick[s, w]].  The
    one-step tables are jump = nxt[first] and pick = `first`, with prods
    mats itself, so no states x ranks copy of the edge stack is made.  Each
    squaring doubles k: jump[jump], and table[s, w1] @ table[jump[s, w1], w2]
    as a (w1, w2) table, for table = prods[pick]; the new prods is that
    table, flat, and pick numbers its entries.
    """
    K, first = _rank_table(cdf)
    first = first[:, :-1] + cdf.shape[1] * np.arange(len(cdf))[:, None]
    dim = mats.shape[1]
    k, jump, pick, prods = 1, nxt[first], first, mats
    while 2 * k <= k_max and jump.size * jump.shape[1] * dim * dim <= RUN_TABLE_FLOATS:
        table = prods.take(pick, axis=0)
        prods = (table[:, :, None] @ table.take(jump, axis=0)).reshape(-1, dim, dim)
        jump = jump.take(jump, axis=0).reshape(len(jump), -1)
        pick = np.arange(len(prods)).reshape(jump.shape)
        k *= 2
    return K, k, jump, pick, prods


def mc_chunk_len(max_row_sum: int, dim: int, n_chains: int) -> int:
    """Steps h that `estimate_gamma_mc` multiplies into one product: the
    largest power of two h <= RENORM_EVERY that is exact, and small enough
    that one chunk's matrices take no more memory than its uniforms
    (h * dim^2 <= DRAW_BLOCK); 1 where the product tree costs more than it
    saves.

    Exactness: the largest row sum r of nonnegative integer matrices is
    submultiplicative and bounds every entry of their product, partial sums
    included, so with r^h < 2^53 every product of h edge matrices is formed
    exactly in float64, in any order of summation.  Cost: the tree does
    about n_chains * dim^3 multiply-adds per step where the per-step
    multiply does n_chains * dim^2 and one numpy call; past
    NUMPY_CALL_MADDS of extra work per step the call is the cheaper.
    """
    if n_chains * dim * dim * (dim - 1) > NUMPY_CALL_MADDS:
        return 1
    h = RENORM_EVERY
    while h > 1 and (max_row_sum ** h >= 2 ** 53 or h * dim * dim > DRAW_BLOCK):
        h //= 2
    return h


def _chunk_products(mats: np.ndarray, h: int) -> np.ndarray:
    """The product of each run of h consecutive matrices along axis 0 (h a
    power of two dividing len(mats)), by a pairwise tree: log2 h batched
    matmuls cover every run at once."""
    prods = mats.reshape(-1, h, *mats.shape[1:])
    while prods.shape[1] > 1:
        prods = prods[:, 0::2] @ prods[:, 1::2]
    return prods[:, 0]


def _row_sums(vec: np.ndarray) -> np.ndarray:
    """Each row's sum, its columns added left to right as a per-chain loop
    over Python lists adds them (`vec.sum(axis=1)` may pair them otherwise)."""
    total = vec[:, 0].copy()
    for j in range(1, vec.shape[1]):
        total += vec[:, j]
    return total


def _add_logs(logscale: np.ndarray, totals: list[np.ndarray]) -> np.ndarray:
    """logscale plus the log of each of the renormalisation totals, added in
    step order: logs by math.log and one running sum down the rows, as a
    per-chain loop adds them one step at a time."""
    logs = np.fromiter(map(math.log, np.concatenate(totals).tolist()), float)
    rows = np.concatenate((logscale, logs)).reshape(-1, len(logscale))
    return np.add.accumulate(rows, axis=0)[-1]


def mc_walk_segments(n_rows: int, n_states: int, n_chains: int) -> int:
    """Segments B that `_walk` splits a block of n_rows words into: the
    largest power of two with 4 B^2 <= n_rows, if its speculative lanes pay
    for the lookups it saves, and 1 otherwise.

    One lookup per row takes n_rows numpy steps.  B segments take n_rows / B
    speculative steps of about two lookups each, n_rows / B lookups of the
    walk proper and B resolve steps, so per row they save about 1 - 3/B of
    a lookup; 4 B^2 <= n_rows keeps the resolve small beside that.  The
    speculation moves n_states * n_chains lanes per row, and a lookup costs
    about as much as NUMPY_CALL_MADDS / 64 lanes (DECISIONS.md, "the walk
    in segments"), which gives the test below.  A smaller B saves less, so
    none is tried; B = 2 never passes.
    """
    b = 1
    while 16 * b * b <= n_rows:
        b *= 2
    return b if 64 * n_states * n_chains * b <= NUMPY_CALL_MADDS * (b - 3) else 1


def _walk(after: np.ndarray, words: np.ndarray, cur: np.ndarray, n_states: int,
          n_words: int) -> np.ndarray:
    """Walk every chain through a block of words, in place: row r of words
    (one word per chain) becomes the table entry the chain takes it from,
    `after[entry] + word`, and the last row's entries are returned.

    The rows are split into B = `mc_walk_segments` segments of L rows, after
    n_rows mod B leading rows walked one at a time.  Each of the first B - 1
    segments is walked from every state at once, as n_states * (B - 1) *
    n_chains lanes, which gives its last entry from each start state; B - 1
    lookups then chain those maps from the known start into the entry each
    segment starts from, and all B segments are walked again together,
    L lookups on B * n_chains lanes, writing their entries.  A chain starts
    state s from entry n_states * n_words + s.  B = 1 is one lookup per row.
    """
    n_rows, n_chains = words.shape
    b = mc_walk_segments(n_rows, n_states, n_chains)
    head = n_rows % b
    for row in words[:head]:
        row += after[cur]
        cur = row
    segments = words[head:].reshape(b, -1, n_chains)
    # row j of every segment, contiguous: a copy for B > 1, and for B = 1
    # the words themselves
    rows = np.ascontiguousarray(segments.swapaxes(0, 1))
    starts = np.empty((b, n_chains), dtype=np.intp)
    starts[0] = cur
    if b > 1:
        ends = np.broadcast_to((n_states * n_words + np.arange(n_states))[:, None, None],
                               (n_states, b - 1, n_chains))
        for row in rows[:, :-1]:
            ends = after[ends]
            ends += row
        chains = np.arange(n_chains)
        for i in range(b - 1):
            starts[i + 1] = ends[after[starts[i]] // n_words, i, chains]
    cur = starts
    for row in rows:
        row += after[cur]
        cur = row
    if b > 1:
        segments[...] = rows.swapaxes(0, 1)
    return cur[-1]


def check_mc_params(path_len: int = MC_PATH_LEN, n_chains: int = MC_CHAINS,
                    seed: int = 0) -> None:
    """Reject parameters `estimate_gamma_mc` cannot run with, before any
    automaton is built for it."""
    if path_len < 1_000:
        raise InvalidInputError("path_len must be at least 1000")
    if n_chains < 2:
        raise InvalidInputError("need at least 2 chains for a standard error")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")


def estimate_gamma_mc(chain: ParryChain, auto: Automaton, path_len: int = MC_PATH_LEN,
                      n_chains: int = MC_CHAINS, seed: int = 0) -> GammaEstimate:
    """Kingman Monte-Carlo estimate of gamma over the Parry chain.

    Each chain samples a stationary path, pushes a row vector through the
    transition matrices with renormalization every RENORM_EVERY steps, and
    averages the accumulated log growth per step (relative to the starting
    vector).  All chains advance together, a block of DRAW_BLOCK steps at a
    time.  The ranks of a block's uniforms (`_rank_table`) are packed k to a
    word, and the block's paths are walked by table lookups on words, in
    segments walked together from starts found by a speculative walk
    (`_walk`), each word's entry the same as one lookup per word gives; each
    word's k edge matrices come multiplied exactly from a second table
    (`_run_tables`, k a power of two dividing both h and path_len).  Then, a
    slice of the block at a time, the h/k products of every run of
    h = `mc_chunk_len` steps are multiplied into one exact integer product
    (`_chunk_products`), and every vector is multiplied by its chunk's
    product.  The block's renormalisation totals are logged together and
    added in step order (`_add_logs`).  Chain c draws its uniforms from the
    generator seeded with (seed, c), so the result is fully determined by
    the master seed.
    """
    check_mc_params(path_len, n_chains, seed)
    omega = chain.states
    cdf, nxt, mats = _edge_arrays(chain, auto)
    dim = mats.shape[1]
    h = mc_chunk_len(int(mats.sum(axis=2).max()), dim, n_chains)
    # k divides path_len too, so no word runs past the end of a path
    K, k, jump, pick, prods = _run_tables(cdf, nxt, mats, math.gcd(h, path_len))
    n_ranks, (n_states, n_words), per_chunk = len(K), jump.shape, h // k
    # a word's ranks, first step most significant
    packing = n_ranks ** np.arange(k - 1, -1, -1)
    rank_dtype = np.min_scalar_type(n_ranks)
    # a slice of whole chunks whose gathered products take no more memory
    # than a block of uniforms (one chunk at the least)
    span = max(1, DRAW_BLOCK // (per_chunk * dim * dim)) * per_chunk
    # the walk runs on flat tables: a step from table entry s * n_words + w
    # (state s, word w) enters the row of state jump[s, w], whose offset the
    # raveled, scaled `after` holds; one more entry per state, after the
    # table, holds that state's own offset, so a chain starts from an entry
    # too, and the walk is one lookup per word from the start state on
    after = np.concatenate((jump.ravel(), np.arange(n_states)))
    after *= n_words
    del jump
    pick = pick.ravel()
    rngs = [np.random.default_rng((seed, c)) for c in range(n_chains)]
    start_cdf = np.cumsum(chain.stationary)
    start_cdf[-1] = 1.0
    state = np.searchsorted(start_cdf, [rng.random() for rng in rngs], side="right")
    cur = n_states * n_words + state
    vdim = np.array([auto.v(i) for i in omega])[state]
    vec = (np.arange(dim) < vdim[:, None]).astype(float)
    # growth is measured relative to the initial all-ones vector, which
    # removes the O(1/n) boundary bias (and makes integer bases exact);
    # logs are taken with math.log and row sums column by column, as a
    # per-chain loop over Python lists takes them, so each chain's value
    # matches that loop bit for bit
    logscale = np.array([-math.log(v) for v in vdim])
    done = 0
    for start in range(0, path_len, DRAW_BLOCK):
        u = np.stack([rng.random(min(DRAW_BLOCK, path_len - start)) for rng in rngs], axis=1)
        # the rank of u, searchsorted(K, u, side="right"), counted by
        # comparisons: u < 1 = K[-1], so K[-1] never counts, and a rank is
        # below |K| (in the smallest unsigned dtype that holds that)
        ranks = np.zeros(u.shape, dtype=rank_dtype)
        for below in K[:-1]:
            ranks += u >= below
        del u
        # each word is overwritten by its table entry, in place
        words = packing @ ranks.reshape(-1, k, n_chains)
        cur = _walk(after, words, cur, n_states, n_words)
        totals = []
        for at in range(0, len(words), span):
            entries = words[at:at + span]
            runs = prods.take(pick.take(entries), axis=0)
            # identities pad the path's last chunk to h steps
            pad = -len(runs) % per_chunk
            if pad:
                runs = np.concatenate((runs, np.broadcast_to(np.eye(dim), (pad, *runs.shape[1:]))))
            for prod in _chunk_products(runs, per_chunk):
                vec = np.einsum("cv,cvw->cw", vec, prod)
                done = min(done + h, path_len)
                if done % RENORM_EVERY == 0:
                    totals.append(_row_sums(vec))
                    vec /= totals[-1][:, None]
        if done == path_len:
            totals.append(_row_sums(vec))
        logscale = _add_logs(logscale, totals)
    arr = logscale / path_len
    mean = float(arr.mean())
    stderr = max(float(arr.std(ddof=1) / math.sqrt(n_chains)), MC_STDERR_FLOOR)
    return GammaEstimate(
        value=mean,
        stderr=stderr,
        method="mc",
        params={"path_len": path_len, "n_chains": n_chains, "seed": seed},
    )


# ---------------------------------------------------------------------------
# multinacci series (exact enumeration + hybrid tail)
# ---------------------------------------------------------------------------

def _inner_log_sums(k_max: int) -> list[float]:
    """S_k = sum over words J in {1,2}^k of log||M_J||, exactly enumerated.

    Propagates the family of vectors w_J = M_J (1,1)^t; extending words on
    the left maps the family through w -> M_1 w and w -> M_2 w, and
    ||M_J|| = (1,1) w_J.  The 2^k vectors of level k are held as the first
    2^k entries of two float64 arrays of 2^k_max entries, top and bot:
    level k writes the M_2 children (t, t + b) into the upper half and turns
    the lower half into the M_1 children (t + b, b) in place.  Its norms go
    into the next 2^k entries of top, which the next level overwrites, and
    at the last level into top's own entries.  A level-k entry is at most the
    Fibonacci number F_(k+2) and a norm at most F_(k+3), so every value is
    an exact integer for k <= SERIES_K_EXACT_MAX (DECISIONS.md, "The series
    route in float64, in place").
    """
    size = 1 << k_max
    if 16 * size > SERIES_BYTES_MAX:
        raise InvalidInputError(f"k_exact = {k_max} needs {16 * size} bytes, over the limit {SERIES_BYTES_MAX}")
    # every entry is written before it is read
    top, bot = np.empty(size), np.empty(size)
    top[0] = bot[0] = 1.0
    out = []
    for k in range(k_max + 1):
        half, width = (1 << k) >> 1, 1 << k
        if k:
            t, b = top[:half], bot[:half]
            top[half:width] = t
            np.add(t, b, out=bot[half:width])
            t += b
        level = top[width:2 * width] if k < k_max else top
        np.add(top[:width], bot[:width], out=level)
        out.append(float(np.log(level, out=level).sum()))
    return out


def _mc_middle(beta_pow_n: float, k_lo: int, k_hi: int, budget: int,
               seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of sum_{k=k_lo..k_hi} x^k E[log||M_J||].

    One family of random words is extended level by level; the per-path
    aggregate keeps the cross-level correlation inside the standard error.
    A path's vector (top, bot) goes to (top + bot, bot) on bit 1 and to
    (top, top + bot) on bit 0, by one multiply-add each on 0/1 floats; its
    norm at level k is at most F_(k+3), exact in float64 for
    k <= SERIES_K_EXACT_MAX.
    """
    if 56 * budget > SERIES_BYTES_MAX:
        raise InvalidInputError(f"mc_budget = {budget} needs {56 * budget} bytes, over the limit {SERIES_BYTES_MAX}")
    rng = np.random.default_rng((seed, 0x5e1e))
    x = 2.0 / beta_pow_n
    top, bot = np.ones(budget), np.ones(budget)
    moved, norms = np.empty(budget), np.empty(budget)
    agg = np.zeros(budget)
    for k in range(1, k_hi + 1):
        bits = rng.integers(0, 2, size=budget).astype(float)
        np.multiply(bits, bot, out=moved)
        # bits becomes (1 - bits) * top, the old top's share of the new bot
        np.subtract(1.0, bits, out=bits)
        bits *= top
        top += moved
        bot += bits
        if k >= k_lo:
            np.add(top, bot, out=norms)
            np.log(norms, out=norms)
            norms *= x ** k
            agg += norms
    mean = float(agg.mean())
    stderr = float(agg.std(ddof=1) / math.sqrt(budget))
    return mean, stderr


def _tail_bound(x: float, k_from: int) -> float:
    """Bound on sum_{k>=k_from} x^k * (k+1) * log 2, using ||M_J|| <= 2^(k+1)."""
    full = 1.0 / (1.0 - x) ** 2
    partial = sum((k + 1) * x ** k for k in range(k_from))
    return max(0.0, full - partial) * math.log(2)


def gamma_multinacci_series(n: int, k_exact: int = 20, mc_budget: int = 20_000,
                            seed: int = 0) -> GammaEstimate:
    """gamma_n from the series over products of the two digit matrices.

    Exact enumeration covers k <= k_exact.  For n = 2 the geometric ratio
    2/beta^2 is close enough to 1 that a Monte-Carlo middle segment
    k_exact < k <= SERIES_K_TAIL is added, with its standard error reported; for
    n >= 3 the analytic tail bound beyond k_exact is already negligible.
    """
    return gamma_series_table([multinacci(n)], k_exact, mc_budget, seed)[0]


def multinacci_index(sys: BetaSystem) -> int:
    """n when sys is the n-th multinacci base with m = 2, the series route's
    domain; InvalidInputError otherwise."""
    n = sys.minpoly.degree
    if n < 2 or sys.minpoly.coeffs != (-1,) * n + (1,):
        raise InvalidInputError("series route applies to multinacci bases")
    if sys.m != 2:
        raise InvalidInputError("series route requires m = 2")
    return n


def gamma_series_table(systems: Sequence[BetaSystem], k_exact: int = 20,
                       mc_budget: int = 20_000, seed: int = 0) -> list[GammaEstimate]:
    """The series gamma of each multinacci system; the exact inner sums
    depend on k_exact alone and are enumerated once."""
    n_values = [multinacci_index(sys) for sys in systems]
    if k_exact < 0 or mc_budget < 2:
        raise InvalidInputError("k_exact must be >= 0 and mc_budget >= 2")
    if k_exact > SERIES_K_EXACT_MAX:
        raise InvalidInputError(f"k_exact must be at most {SERIES_K_EXACT_MAX}: beyond it "
                                "the series norms pass 2^53 and are not exact in float64")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")
    inner = _inner_log_sums(k_exact)
    return [_series_estimate(n, float(sys.beta), inner, mc_budget, seed)
            for n, sys in zip(n_values, systems)]


def _series_estimate(n: int, beta: float, inner: list[float], mc_budget: int,
                     seed: int) -> GammaEstimate:
    k_exact = len(inner) - 1
    bn = beta ** n
    x = 2.0 / bn
    if x >= 1:
        raise InvariantError("2*beta^-n >= 1 cannot happen for n >= 2")
    series = sum(inner[k] / bn ** k for k in range(k_exact + 1))
    stderr_series = 0.0
    if n == 2:
        mid, mid_err = _mc_middle(bn, k_exact + 1, SERIES_K_TAIL, mc_budget, seed)
        series += mid
        stderr_series = mid_err
        trunc = _tail_bound(x, SERIES_K_TAIL + 1)
    else:
        trunc = _tail_bound(x, k_exact + 1)
    prefactor = (1.0 / bn) * (1.0 - 2.0 / bn) ** 2 / (2.0 - (n + 1) / bn)
    value = prefactor * (series + trunc / 2)
    return GammaEstimate(
        value=value,
        stderr=prefactor * stderr_series,
        method="series",
        params={
            "n": n,
            "k_exact": k_exact,
            "mc_budget": mc_budget if n == 2 else 0,
            "seed": seed,
            "truncation_bound": prefactor * trunc,
        },
    )


def gamma_integer_case(sys: BetaSystem) -> GammaEstimate:
    """Closed form gamma = log(m/beta) for integer beta dividing m."""
    if not sys.is_integer_base():
        raise HypothesisError("integer-case gamma requires an integer base")
    b = sys.beta.num[0]
    if sys.m % b != 0:
        raise HypothesisError(f"beta={b} does not divide m={sys.m}")
    return GammaEstimate(
        value=math.log(sys.m / b),
        stderr=0.0,
        method="integer-case",
        params={"beta": b, "m": sys.m},
    )


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    stderr: float
    out_of_range: bool  # outside [1, log_beta m] beyond the error bar


def dimension(g: GammaEstimate, sys: BetaSystem) -> DimensionEstimate:
    """D = (log m - gamma)/log beta with propagated error."""
    log_beta = math.log(float(sys.beta))
    value = (math.log(sys.m) - g.value) / log_beta
    stderr = g.stderr / log_beta
    upper = math.log(sys.m) / log_beta
    out = value < 1 - 3 * stderr - 1e-12 or value > upper + 3 * stderr + 1e-12
    return DimensionEstimate(value, stderr, out)
