"""The growth exponent gamma by three routes, and the derived dimension.

Routes:
  * Kingman Monte-Carlo: sample the Parry chain on the essential class of
    the coding automaton and average the log-norm growth of the running
    row-vector product through the transition matrices.  All chains walk
    in lockstep, one numpy step at a time, in a single process.
  * Multinacci series: the closed-form series for gamma_n over products of
    the two unimodular digit matrices, enumerated exactly up to a cutoff
    with an analytic geometric tail bound (and a Monte-Carlo middle segment
    for n = 2, where pure enumeration converges too slowly).
  * Integer case: gamma = log(m/beta) when beta is an integer dividing m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import HypothesisError, InvalidInputError, InvariantError
from .netautomaton import Automaton
from .numberfield import BetaSystem, FieldElement, multinacci

RENORM_EVERY = 32
POWER_ITER_TOL = 1e-14
POWER_ITER_MAX = 200_000
# each chain draws its uniforms in blocks of this many steps: the same stream
# as one long draw, with memory bounded by the block instead of the path
DRAW_BLOCK = 128 * RENORM_EVERY
# accumulated float rounding along a renormalized product; the reported MC
# standard error is never below this, so degenerate chains (integer bases,
# where every path gives the same value) still carry an honest error bar
MC_STDERR_FLOOR = 1e-12
# last k of the Monte-Carlo middle segment of the n = 2 multinacci series
SERIES_K_TAIL = 64


# ---------------------------------------------------------------------------
# Parry chain
# ---------------------------------------------------------------------------

@dataclass
class ParryChain:
    """Markov chain P_ij = rho*l_j/l_i on the essential class."""

    states: tuple[int, ...]          # automaton state indices
    matrix: np.ndarray               # row-stochastic, len(states) square
    stationary: np.ndarray           # p with p @ P = p, p > 0
    exact_rows: list[list[tuple[int, FieldElement]]]  # (local j, exact P_ij)


def parry_chain(auto: Automaton) -> ParryChain:
    sys = auto.sys
    omega = sorted(auto.essential)
    local = {s: k for k, s in enumerate(omega)}
    n = len(omega)
    exact_rows: list[list[tuple[int, FieldElement]]] = []
    P = np.zeros((n, n))
    for k, i in enumerate(omega):
        row = []
        total = sys.field.zero
        for j, _lo, _hi, _T in auto.children[i]:
            if j not in local:
                raise InvariantError("essential class not forward closed")
            pij = sys.rho * auto.ell(j) / auto.ell(i)
            row.append((local[j], pij))
            total = total + pij
        if not (total - sys.field.one).is_zero():
            raise InvariantError("Parry row does not sum to 1 exactly")
        merged: dict[int, FieldElement] = {}
        for lj, pij in row:
            merged[lj] = merged[lj] + pij if lj in merged else pij
        exact_rows.append(sorted(merged.items()))
        for lj, pij in merged.items():
            P[k, lj] = float(pij)
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
    return ParryChain(tuple(omega), P, p, exact_rows)


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


def estimate_gamma_mc(chain: ParryChain, auto: Automaton, path_len: int = 100_000,
                      n_chains: int = 32, seed: int = 0) -> GammaEstimate:
    """Kingman Monte-Carlo estimate of gamma over the Parry chain.

    Each chain samples a stationary path, pushes a row vector through the
    transition matrices with renormalization every RENORM_EVERY steps, and
    averages the accumulated log growth per step (relative to the starting
    vector).  All chains advance together: one step picks every chain's
    edge, multiplies every vector by its padded matrix and moves every
    state.  Chain c draws its uniforms from the generator seeded with
    (seed, c), so the result is fully determined by the master seed.
    """
    if path_len < 1_000:
        raise InvalidInputError("path_len must be at least 1000")
    if n_chains < 2:
        raise InvalidInputError("need at least 2 chains for a standard error")
    # edge e out of local state s is numbered s * width + e; cdf[s, e] is the
    # cumulative Parry probability of edges 0..e, padded with 2 so a padded
    # slot is never chosen; nxt and mats hold each edge's target and its
    # matrix, zero-padded to dim x dim for dim the largest multiplicity
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
    rngs = [np.random.default_rng((seed, c)) for c in range(n_chains)]
    start_cdf = np.cumsum(chain.stationary)
    start_cdf[-1] = 1.0
    state = np.searchsorted(start_cdf, [rng.random() for rng in rngs], side="right")
    vdim = np.array([auto.v(i) for i in omega])[state]
    vec = (np.arange(dim) < vdim[:, None]).astype(float)
    # growth is measured relative to the initial all-ones vector, which
    # removes the O(1/n) boundary bias (and makes integer bases exact);
    # logs are taken with math.log and row sums column by column, as a
    # per-chain loop over Python lists takes them, so each chain's value
    # matches that loop bit for bit
    logscale = np.array([-math.log(v) for v in vdim])
    for start in range(0, path_len, DRAW_BLOCK):
        u = np.stack([rng.random(min(DRAW_BLOCK, path_len - start)) for rng in rngs], axis=1)
        for step, ut in enumerate(u[:, :, None], start + 1):
            # the first edge whose cumulative probability exceeds u, as
            # searchsorted(side="right") finds it
            edge = (cdf[state] > ut).argmax(axis=1) + width * state
            vec = np.einsum("cv,cvw->cw", vec, mats[edge])
            state = nxt[edge]
            if step % RENORM_EVERY == 0:
                total = sum(vec.T)
                logscale += [math.log(t) for t in total]
                vec /= total[:, None]
    logscale += [math.log(t) for t in sum(vec.T)]
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


def _mc_middle(n: int, beta_pow_n: float, k_lo: int, k_hi: int,
               budget: int, seed: int) -> tuple[float, float]:
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
    return gamma_multinacci_table([n], k_exact, mc_budget, seed)[0]


def gamma_multinacci_table(n_values: Sequence[int], k_exact: int = 20,
                           mc_budget: int = 20_000, seed: int = 0) -> list[GammaEstimate]:
    """`gamma_multinacci_series` for every n in n_values; the exact inner
    sums depend on k_exact alone and are enumerated once."""
    if not all(2 <= n <= 10 for n in n_values):
        raise InvalidInputError("series formula implemented for 2 <= n <= 10")
    if k_exact < 0 or mc_budget < 2:
        raise InvalidInputError("k_exact must be >= 0 and mc_budget >= 2")
    inner = _inner_log_sums(k_exact)
    return [_series_estimate(n, inner, mc_budget, seed) for n in n_values]


def _series_estimate(n: int, inner: list[float], mc_budget: int, seed: int) -> GammaEstimate:
    k_exact = len(inner) - 1
    sys = multinacci(n)
    beta = float(sum(sys.field.refine_to(Fraction(1, 10 ** 40))) / 2)
    bn = beta ** n
    x = 2.0 / bn
    if x >= 1:
        raise InvariantError("2*beta^-n >= 1 cannot happen for n >= 2")
    series = sum(inner[k] / bn ** k for k in range(k_exact + 1))
    stderr_series = 0.0
    if n == 2:
        mid, mid_err = _mc_middle(n, bn, k_exact + 1, SERIES_K_TAIL, mc_budget, seed)
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
