"""Finite coding automaton for the net intervals of a Pisot base.

A net interval at level n is fingerprinted by its characteristic state:
the normalized length beta^n*(b-a), the sorted set of distinct covering
offsets beta^n*(a - S_J(0)), and a sibling rank that separates same-looking
children of one parent (the rank is what makes the coding maps bijective;
integer bases already need it).  For Pisot beta the closure of the initial
state [0,1] under the child construction is finite; a configurable cap
catches everything else.

The closure runs on integer rows: a state's length and offsets are
coefficient rows over one denominator, and one vector pass per state sorts
all its cylinder endpoints exactly (`NumberField.rank_rows`) and reads the
covers off their ranks.  Field elements are built once, for the final
states and edges, which keep the numbering of `CharacteristicState.key()`.

Transition matrices count digit extensions between covering slots; the
row-vector product along a coding word recovers the covering multiplicity
of the interval, which equals the prefix count of the rescaled point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceededError, InvalidInputError, InvariantError
from .expansions import INT64_MAX, Lattice
from .numberfield import BetaSystem, FieldElement

DEFAULT_STATE_CAP = 10_000
DIRECT_LEVEL_CAP = 14

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# concrete net intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetInterval:
    """A level-n net interval with one offset per covering word."""

    level: int
    a: FieldElement
    b: FieldElement
    offsets: tuple[FieldElement, ...]  # beta^n*(a - S_J(0)), one per word J

    @property
    def multiplicity(self) -> int:
        return len(self.offsets)

    def length_normalized(self) -> FieldElement:
        # beta^n * (b - a)
        sys_beta = self.a.field.beta
        return (self.b - self.a) * sys_beta ** self.level


def _digit_starts(sys: BetaSystem) -> list[FieldElement]:
    """S_a(0) = (a-1)(1-rho)/(m-1) for a = 1..m."""
    one = sys.field.one
    step = (one - sys.rho) / (sys.m - 1)
    return [step * (a - 1) for a in range(1, sys.m + 1)]


def net_intervals(sys: BetaSystem, n: int) -> list[NetInterval]:
    """The ordered list of level-n net intervals with covering offsets."""
    if n < 0:
        raise InvalidInputError("level must be nonnegative")
    if n > DIRECT_LEVEL_CAP:
        raise CapExceededError(f"net interval level {n} exceeds cap {DIRECT_LEVEL_CAP}")
    if n == 0:
        return [NetInterval(0, sys.field.zero, sys.field.one, (sys.field.zero,))]
    # S_J(0) = sum_j rho^(j-1) S_{eps_j}(0) = (1-rho)/(m-1) * rho^(n-1) * t_n,
    # with t_n the scaled digit sum of J
    lattice = Lattice(sys)
    keys, counts = lattice.start
    for k in range(n):
        keys, counts = lattice.step((keys, counts), k)
    unit = (sys.field.one - sys.rho) / (sys.m - 1) * sys.rho ** (n - 1)
    values = {unit * lattice.value(key, n): c for key, c in zip(keys.tolist(), counts.tolist())}
    rho_n = sys.rho ** n
    beta_n = sys.beta ** n
    points = set(values)
    points.update(v + rho_n for v in values)
    ordered = sorted(points)
    starts_sorted = sorted(values.items(), key=lambda kv: kv[0])
    out = []
    for a, b in zip(ordered, ordered[1:]):
        offsets = []
        for v, cnt in starts_sorted:
            if (a - v).sign() >= 0 and (v + rho_n - b).sign() >= 0:
                off = (a - v) * beta_n
                offsets.extend([off] * cnt)
            elif (v - a).sign() > 0:
                break
        if not offsets:
            raise InvariantError("net interval with empty covering list")
        out.append(NetInterval(n, a, b, tuple(offsets)))
    return out


# ---------------------------------------------------------------------------
# characteristic states and the automaton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicState:
    """(normalized length, distinct covering offsets, sibling rank)."""

    length: FieldElement
    offsets: tuple[FieldElement, ...]
    rank: int

    def key(self):
        """Sort key of the canonical state order: Fraction coefficient tuples."""
        return (
            self.length.coeffs,
            tuple(o.coeffs for o in self.offsets),
            self.rank,
        )

    @property
    def v(self) -> int:
        return len(self.offsets)


@dataclass
class Automaton:
    sys: BetaSystem
    states: list[CharacteristicState]
    # children[i] = list of (child_state_index, u_lo, u_hi, T matrix)
    children: list[list[tuple[int, FieldElement, FieldElement, Matrix]]]
    essential: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.states)

    def v(self, i: int) -> int:
        return self.states[i].v

    def ell(self, i: int) -> FieldElement:
        return self.states[i].length

    def edge_matrix(self, i: int, j: int) -> Matrix:
        for child, _lo, _hi, mat in self.children[i]:
            if child == j:
                return mat
        raise InvalidInputError(f"no edge {i} -> {j}")

    def adjacency(self) -> list[list[int]]:
        n = self.size
        A = [[0] * n for _ in range(n)]
        for i, kids in enumerate(self.children):
            for j, _lo, _hi, _m in kids:
                A[i][j] = 1
        return A

    def successors(self, i: int) -> list[int]:
        return [j for j, _lo, _hi, _m in self.children[i]]

    def is_admissible(self, word: Sequence[int]) -> bool:
        if not word or word[0] != 0:
            return False
        for i, j in zip(word, word[1:]):
            if j not in self.successors(i):
                return False
        return True


class _Cylinders:
    """The child construction on integer rows, one vector pass per state.

    A state's geometry is (den, flat): its normalized length and its sorted
    offsets as the integer rows flat[:d], flat[d:2d], ... of the values
    (sum_i row_i beta^i) / den, divided by gcd(den, every entry).  Equal
    geometries have equal keys (DECISIONS.md), so the closure's dicts need
    no field elements.
    """

    def __init__(self, sys: BetaSystem):
        self.field = sys.field
        self.m = sys.m
        self.lattice = Lattice(sys)
        self.d = self.lattice.degree
        # the digit starts S_a(0) and rho, as integer rows over one denominator
        fixed = _digit_starts(sys) + [sys.rho]
        self.den = math.lcm(*(e.den for e in fixed))
        self.fixed = [[c * (self.den // e.den) for c in e.num] for e in fixed]
        self.fixed_big = (max(abs(c) for row in self.fixed[:-1] for c in row)
                          + max(map(abs, self.fixed[-1])))

    def children(self, den: int, flat: tuple[int, ...]):
        """Sub-intervals of a state at the next level, left to right, as
        (u_lo row, u_hi row, their denominator, child geometry, T); T maps
        the parent's covering slots to the child's."""
        d, m = self.d, self.m
        den_w = math.lcm(den, self.den)
        scale, fixed_scale = den_w // den, den_w // self.den
        # over den_w no endpoint entry exceeds X = max|offset or length| +
        # max|start| + max|rho|, no difference of two exceeds 2X, and
        # times_beta multiplies that by at most growth
        big = max(map(abs, flat)) * scale + self.fixed_big * fixed_scale
        dtype = np.int64 if 2 * big * self.lattice.growth <= INT64_MAX else object
        rows = np.array(flat, dtype=dtype).reshape(-1, d) * scale
        fixed = np.array(self.fixed, dtype=dtype) * fixed_scale
        v = len(rows) - 1
        # cylinder (slot ci, digit a) is row ci * m + a: S_a(0) - offset_ci
        starts = (fixed[None, :-1] - rows[1:, None]).reshape(-1, d)
        points = np.concatenate((np.zeros((1, d), dtype=dtype), rows[:1],
                                 starts, starts + fixed[-1]))
        rank = self.field.rank_rows(points)
        distinct = np.empty((int(rank.max()) + 1, d), dtype=dtype)
        distinct[rank] = points
        # the breakpoints are the distinct points in [0, length]; child k is
        # [b_k, b_{k+1}], and as every cylinder has length rho, cylinder c
        # covers it exactly when start_c <= b_k and end_c >= b_{k+1}
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
        # a child's covers with one start share a column of T, numbered from
        # 0 in each child
        new_col = new_kid.copy()
        new_col[1:] |= start_rank[cyl[1:]] != start_rank[cyl[:-1]]
        col = np.cumsum(new_col) - 1
        col -= col[new_kid][kid]
        width = int(col.max()) + 1
        T = np.bincount((kid * v + cyl // m) * width + col, minlength=n_kids * v * width)
        T = T.reshape(n_kids, v, width).tolist()
        bounds = distinct[lo:hi + 1]
        offsets = self.lattice.times_beta(bounds[kid[new_col]] - starts[cyl[new_col]])
        offsets = offsets.reshape(-1).tolist()
        lengths = self.lattice.times_beta(bounds[1:] - bounds[:-1]).tolist()
        ends = (np.cumsum(np.bincount(kid[new_col], minlength=n_kids)) * d).tolist()
        bounds = bounds.tolist()
        den_child = den_w * self.lattice.lead
        out = []
        begin = 0
        for k, end in enumerate(ends):
            child = lengths[k] + offsets[begin:end]
            begin = end
            cols = len(child) // d - 1
            g = math.gcd(den_child, *child)
            geometry = (den_child // g, tuple(c // g for c in child))
            T_k = tuple(tuple(row[:cols]) for row in T[k])
            out.append((bounds[k], bounds[k + 1], den_w, geometry, T_k))
        return out


def build_automaton(sys: BetaSystem, state_cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Breadth-first closure of the characteristic-state construction.

    Terminates for Pisot beta; raises CapExceededError when the state count
    passes state_cap (expected for non-Pisot algebraic bases).  During the
    closure a state is a (geometry, rank) pair of integer rows
    (`_Cylinders`); field elements are built once, for the final states and
    for the edges.
    """
    if state_cap < 0:
        raise InvalidInputError("state cap must be nonnegative")
    cylinders = _Cylinders(sys)
    d = cylinders.d
    root = ((1, (1,) + (0,) * (2 * d - 1)), 1)
    index: dict = {root: 0}
    states = [root]
    raw_children: list = []
    geometry_cache: dict = {}
    while len(raw_children) < len(states):
        geometry, _rank = states[len(raw_children)]
        pieces = geometry_cache.get(geometry)
        if pieces is None:
            pieces = geometry_cache[geometry] = cylinders.children(*geometry)
        kid_entries = []
        seen_cv: dict = {}
        for u_lo, u_hi, den, c_geometry, T in pieces:
            rank = seen_cv.get(c_geometry, 0) + 1
            seen_cv[c_geometry] = rank
            child = (c_geometry, rank)
            if child not in index:
                if len(states) >= state_cap:
                    raise CapExceededError(
                        f"automaton exceeds {state_cap} states; "
                        "likely a non-Pisot base or a cap set too small"
                    )
                index[child] = len(states)
                states.append(child)
            kid_entries.append((index[child], u_lo, u_hi, den, T))
        raw_children.append(kid_entries)

    # canonical re-indexing: initial state first, the rest sorted by
    # (length, offsets, rank) with every row over one common denominator,
    # which is the order of CharacteristicState.key()
    common = math.lcm(*(den for (den, _flat), _rank in states))

    def key(i):
        (den, flat), rank = states[i]
        row = [c * (common // den) for c in flat]
        return tuple(row[:d]), tuple(tuple(row[j:j + d]) for j in range(d, len(row), d)), rank

    order = [0] + sorted(range(1, len(states)), key=key)
    relabel = {old: new for new, old in enumerate(order)}
    field = sys.field
    new_states = []
    for old in order:
        (den, flat), rank = states[old]
        elems = [FieldElement(field, flat[j:j + d], den) for j in range(0, len(flat), d)]
        new_states.append(CharacteristicState(elems[0], tuple(elems[1:]), rank))
    new_children: list = [None] * len(states)
    for old, kids in enumerate(raw_children):
        new_children[relabel[old]] = [
            (relabel[j], FieldElement(field, tuple(u_lo), den),
             FieldElement(field, tuple(u_hi), den), T)
            for j, u_lo, u_hi, den, T in kids
        ]
    auto = Automaton(sys, new_states, new_children, frozenset())
    _verify_length_identity(auto)
    auto.essential = essential_class(auto)
    _verify_length_identity(auto, restrict=auto.essential)
    return auto


def _verify_length_identity(auto: Automaton, restrict: frozenset[int] | None = None) -> None:
    """ell_i = rho * sum of children lengths, exactly (full set or essential)."""
    sys = auto.sys
    idx = range(auto.size) if restrict is None else sorted(restrict)
    for i in idx:
        total = sys.field.zero
        for j, _lo, _hi, _m in auto.children[i]:
            if restrict is not None and j not in restrict:
                raise InvariantError("essential class is not forward closed")
            total = total + auto.ell(j)
        if not (auto.ell(i) - sys.rho * total).is_zero():
            raise InvariantError(f"length identity fails at state {i}")


# ---------------------------------------------------------------------------
# essential class
# ---------------------------------------------------------------------------

def _strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan, iterative."""
    n = len(succ)
    indexv = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if indexv[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                indexv[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if indexv[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], indexv[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == indexv[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def essential_class(auto: Automaton) -> frozenset[int]:
    """The forward-closed, communicating class reachable from every state."""
    succ = [auto.successors(i) for i in range(auto.size)]
    comps = _strongly_connected_components(succ)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    bottoms = []
    for ci, comp in enumerate(comps):
        if all(comp_of[w] == ci for v in comp for w in succ[v]):
            bottoms.append(ci)
    if len(bottoms) != 1:
        raise InvariantError(f"expected one bottom class, found {len(bottoms)}")
    omega = frozenset(comps[bottoms[0]])
    # (i) forward closed
    for i in omega:
        if not set(succ[i]) <= omega:
            raise InvariantError("essential class not forward closed")
    # (ii) internal communication: strong connectivity within omega
    if len(omega) > 1:
        start = next(iter(omega))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in succ[v]:
                if w in omega and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != omega:
            raise InvariantError("essential class not internally communicating")
    # (iii) reachable from every state
    for s in range(auto.size):
        seen = {s}
        frontier = [s]
        hit = s in omega
        while frontier and not hit:
            v = frontier.pop()
            for w in succ[v]:
                if w in omega:
                    hit = True
                    break
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if not hit:
            raise InvariantError(f"essential class unreachable from state {s}")
    return omega


# ---------------------------------------------------------------------------
# codings and matrix products
# ---------------------------------------------------------------------------

def coding_of_point(z, n: int, auto: Automaton) -> list[int]:
    """The level-n coding word (n+1 state indices) of the net intervals
    containing z in [0,1]; errors if z hits a partition point."""
    sys = auto.sys
    z = sys.element(z)
    if z.sign() <= 0 or (sys.field.one - z).sign() <= 0:
        raise InvalidInputError("point must lie in the open interval (0,1)")
    word = [0]
    state = 0
    pos = z
    for _ in range(n):
        nxt = None
        for j, u_lo, u_hi, _T in auto.children[state]:
            s_lo = (pos - u_lo).sign()
            s_hi = (u_hi - pos).sign()
            if s_lo == 0 or s_hi == 0:
                raise InvalidInputError("point hits a net partition point; coding ambiguous")
            if s_lo > 0 and s_hi > 0:
                nxt = (j, u_lo)
                break
        if nxt is None:
            raise InvariantError("point escaped its net interval")
        state = nxt[0]
        pos = (pos - nxt[1]) * sys.beta
        word.append(state)
    return word


def count_via_matrices(auto: Automaton, word: Sequence[int]) -> int:
    """|| T(x1,x2) ... T(xn,x_{n+1}) || along an admissible coding word."""
    if not word or word[0] != 0:
        raise InvalidInputError("coding words start at the initial state")
    vec = [1] * auto.v(word[0])
    for i, j in zip(word, word[1:]):
        T = auto.edge_matrix(i, j)  # raises on inadmissible step
        cols = len(T[0])
        vec = [sum(vec[u] * T[u][w] for u in range(len(vec))) for w in range(cols)]
    return sum(vec)


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


def automaton_to_dot(auto: Automaton) -> str:
    """DOT digraph with the essential class highlighted."""
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for i, st in enumerate(auto.states):
        shape = "doublecircle" if i in auto.essential else "circle"
        label = f"{i}\\nl={float(st.length):.6f}\\nv={st.v},r={st.rank}"
        lines.append(f'  s{i} [shape={shape}, label="{label}"];')
    for i in range(auto.size):
        for j, _lo, _hi, T in auto.children[i]:
            lines.append(f'  s{i} -> s{j} [label="{_matrix_label(T)}"];')
    lines.append("}")
    return "\n".join(lines)


def _matrix_label(T: Matrix) -> str:
    return ";".join(",".join(str(e) for e in row) for row in T)
