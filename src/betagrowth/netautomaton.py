"""Finite coding automaton for the net intervals of a Pisot base.

A net interval at level n is fingerprinted by its characteristic state:
the normalized length beta^n*(b-a), the sorted set of distinct covering
offsets beta^n*(a - S_J(0)), and a sibling rank that separates same-looking
children of one parent (the rank is what makes the coding maps bijective;
integer bases already need it).  For Pisot beta the closure of the initial
state [0,1] under the child construction is finite; a configurable cap
catches everything else.

The closure runs on integer rows: a state's length and offsets are
coefficient rows over one denominator.  The breadth-first closure takes
its frontier in batches, and one vector pass per batch ranks the cylinder
endpoints of every state in it exactly, by one `NumberField.rank_rows`
call with the points tagged by state, and reads the covers off their
ranks.  Field elements are built once, for the final states and edges,
numbered in the canonical state order: the initial state first, the rest
by (length, offsets, rank) compared as coefficient tuples.

The automaton is the one construction of net intervals: each edge holds
its child's ends u_lo, u_hi in the parent's normalized coordinates, so
`net_intervals` lists the concrete level-n intervals with their coding
words by walking the edges from the initial state.

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

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# characteristic states and the automaton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicState:
    """(normalized length, distinct covering offsets, sibling rank)."""

    length: FieldElement
    offsets: tuple[FieldElement, ...]
    rank: int

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

    def successors(self, i: int) -> list[int]:
        return [j for j, _lo, _hi, _m in self.children[i]]


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of the consecutive segments of the given sizes begins."""
    return np.cumsum(counts) - counts


class _Cylinders:
    """The child construction on integer rows, one vector pass per batch of
    states, on rows of one dtype, its order decisions all made by one
    tagged `NumberField.rank_rows` call.

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
        # the digit starts S_eps(0) = eps(1-rho)/(m-1), eps = 0..m-1, and rho,
        # as integer rows over one denominator
        step = (sys.field.one - sys.rho) / (sys.m - 1)
        fixed = [step * eps for eps in range(sys.m)] + [sys.rho]
        self.den = math.lcm(*(e.den for e in fixed))
        self.fixed = [[c * (self.den // e.den) for c in e.num] for e in fixed]
        self.fixed_big = (max(abs(c) for row in self.fixed[:-1] for c in row)
                          + max(map(abs, self.fixed[-1])))

    def children(self, geometries: Sequence[tuple[int, tuple[int, ...]]]) -> dict:
        """Sub-intervals at the next level of each geometry, by geometry, left
        to right, as (u_lo row, u_hi row, their denominator, child geometry,
        T); T maps the parent's covering slots to the child's.  The batch
        runs as one pass, on int64 rows when every geometry fits int64 by the
        a-priori bound (DECISIONS.md) and on Python ints otherwise."""
        if not geometries:
            return {}
        dtype = np.int64
        for den, flat in geometries:
            den_w = math.lcm(den, self.den)
            big = max(map(abs, flat)) * (den_w // den) + self.fixed_big * (den_w // self.den)
            if 2 * big * self.lattice.growth > INT64_MAX:
                dtype = object
                break
        return dict(zip(geometries, self._pass(geometries, dtype)))

    def _pass(self, geometries, dtype) -> list[list]:
        """`children` of a nonempty batch of geometries on rows of one
        dtype, in order."""
        d, m, lattice = self.d, self.m, self.lattice
        n = len(geometries)
        den_w = [math.lcm(den, self.den) for den, _flat in geometries]
        rows = np.array([c * (w // den) for (den, flat), w in zip(geometries, den_w) for c in flat],
                        dtype=dtype).reshape(-1, d)
        # state s holds rows head[s] (its length) to head[s] + v[s] (its offsets)
        v = np.array([len(flat) // d - 1 for _den, flat in geometries])
        head = _starts(v + 1)
        off_state = np.repeat(np.arange(n), v)
        fixed = (np.array(self.fixed, dtype=dtype)[None]
                 * np.array([w // self.den for w in den_w], dtype=dtype)[:, None, None])
        # the cylinder of offset row r and digit a is row r * m + a of
        # starts: S_a(0) - offset, ending at start + rho
        starts = (fixed[off_state, :m] - np.delete(rows, head, axis=0)[:, None]).reshape(-1, d)
        cyl_state = np.repeat(off_state, m)
        n_cyl = len(starts)
        points = np.concatenate((np.zeros((n, d), dtype=dtype), rows[head], starts,
                                 starts + fixed[cyl_state, m]))
        tag = np.concatenate((np.arange(n), np.arange(n), cyl_state, cyl_state))
        rank = self.field.rank_rows(points, tag)
        distinct = np.empty((int(rank.max()) + 1, d), dtype=dtype)
        distinct[rank] = points
        # the breakpoints of s are its distinct points in [0, length]; child
        # k is [b_k, b_{k+1}], and as every cylinder has length rho,
        # cylinder c covers it exactly when start_c <= b_k and end_c >= b_{k+1}
        lo, hi = rank[:n], rank[n:2 * n]
        start_rank, end_rank = rank[2 * n:2 * n + n_cyl], rank[2 * n + n_cyl:]
        n_kids = hi - lo
        kid_start = _starts(n_kids)
        kid_state = np.repeat(np.arange(n), n_kids)
        first = np.maximum(start_rank, lo[cyl_state])
        runs = np.maximum(np.minimum(end_rank, hi[cyl_state]) - first, 0)
        # (cylinder, child) pairs, child numbered on through the states
        cyl = np.repeat(np.arange(n_cyl), runs)
        level = np.repeat(first, runs) + np.arange(len(cyl)) - np.repeat(_starts(runs), runs)
        kid = level + (kid_start - lo)[cyl_state[cyl]]
        # each child's covers by descending start, which are ascending
        # child offsets (b_k - start) * beta
        by_kid = np.lexsort((-start_rank[cyl], kid))
        kid, cyl, level = kid[by_kid], cyl[by_kid], level[by_kid]
        new_kid = np.ones(len(kid), dtype=bool)
        new_kid[1:] = kid[1:] != kid[:-1]
        if np.count_nonzero(new_kid) < len(kid_state):
            raise InvariantError("child interval with no covering cylinder")
        # a child's covers with one start share a column of T, numbered from
        # 0 in each child; T of child k is a v x cols block of one bincount
        new_col = new_kid.copy()
        new_col[1:] |= start_rank[cyl[1:]] != start_rank[cyl[:-1]]
        col = np.cumsum(new_col) - 1
        col -= col[new_kid][kid]
        cols = np.bincount(kid[new_col], minlength=len(kid_state))
        block = v[kid_state] * cols
        slot = cyl // m - _starts(v)[cyl_state[cyl]]
        T = np.bincount(_starts(block)[kid] + slot * cols[kid] + col, minlength=int(block.sum()))
        offsets = lattice.times_beta(distinct[level[new_col]] - starts[cyl[new_col]])
        kid_lo = lo[kid_state] + np.arange(len(kid_state)) - kid_start[kid_state]
        u_lo, u_hi = distinct[kid_lo], distinct[kid_lo + 1]
        lengths = lattice.times_beta(u_hi - u_lo)
        # T of a child is v rows of cols entries, and the children share few
        # distinct rows: each is made once, looked up by its bytes
        row_bytes = np.repeat(cols, v[kid_state]) * T.itemsize
        packed, made, rows = T.tobytes(), {}, []
        for end, size in zip(np.cumsum(row_bytes).tolist(), row_bytes.tolist()):
            key = packed[end - size:end]
            row = made.get(key)
            if row is None:
                row = made[key] = tuple(np.frombuffer(key, dtype=T.dtype).tolist())
            rows.append(row)
        u_lo, u_hi, v = u_lo.tolist(), u_hi.tolist(), v.tolist()
        lengths, offsets = lengths.tolist(), offsets.reshape(-1).tolist()
        out: list[list] = [[] for _ in geometries]
        at_off = at_T = 0
        for k, (s, c, length) in enumerate(zip(kid_state.tolist(), cols.tolist(), lengths)):
            child = length + offsets[at_off:at_off + c * d]
            at_off += c * d
            den_child = den_w[s] * lattice.lead
            g = math.gcd(den_child, *child)
            if g != 1:
                child = [x // g for x in child]
            out[s].append((u_lo[k], u_hi[k], den_w[s], (den_child // g, tuple(child)),
                           tuple(rows[at_T:at_T + v[s]])))
            at_T += v[s]
        return out


def _close(cylinders: _Cylinders, states: list, raw_children: list, state_cap: int) -> None:
    """Extend a breadth-first closure in place until every state has its
    entries (child index, u_lo row, u_hi row, den, T) in raw_children, or a
    new state would pass state_cap (CapExceededError).  The parents go
    through `_Cylinders.children` in batches of (state_cap - states + 1) //
    fanout, fanout the most children of a parent so far, so that a capped
    closure works out few children it never reaches (DECISIONS.md)."""
    index = {state: i for i, state in enumerate(states)}
    geometry_cache: dict = {}
    fanout = 1
    while len(raw_children) < len(states):
        done = len(raw_children)
        batch = states[done:done + max(1, (state_cap - len(states) + 1) // fanout)]
        made = cylinders.children(list(dict.fromkeys(
            geometry for geometry, _rank in batch if geometry not in geometry_cache)))
        geometry_cache.update(made)
        fanout = max(fanout, max(map(len, made.values()), default=0))
        for geometry, _rank in batch:
            kid_entries = []
            seen_cv: dict = {}
            for u_lo, u_hi, den, c_geometry, T in geometry_cache[geometry]:
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


def _check_lengths(lattice: Lattice, states: list, raw_children: list) -> None:
    """ell_i = rho * sum of children lengths at every state, exactly, on the
    integer rows: with the children's lengths summed over their lcm D, the
    rows of lead * beta * ell_i * D and of lead * den_i * sum agree."""
    d = lattice.degree
    parents, totals = [], []
    for i, kids in enumerate(raw_children):
        (den, flat), _rank = states[i]
        lengths = [states[j][0] for j, *_ in kids]
        common = math.lcm(*(c_den for c_den, _flat in lengths))
        parents.append([c * common for c in flat[:d]])
        totals.append([lattice.lead * den * sum(c_flat[t] * (common // c_den)
                                                for c_den, c_flat in lengths)
                       for t in range(d)])
    grown = lattice.times_beta(np.array(parents, dtype=object).reshape(-1, d)).tolist()
    for i, (lhs, rhs) in enumerate(zip(grown, totals)):
        if lhs != rhs:
            raise InvariantError(f"length identity fails at state {i}")


def build_automaton(sys: BetaSystem, state_cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Breadth-first closure of the characteristic-state construction.

    Terminates for Pisot beta; raises CapExceededError when the state count
    passes state_cap (expected for non-Pisot algebraic bases).  During the
    closure a state is a (geometry, rank) pair of integer rows
    (`_Cylinders`), and the length identity is checked on them; field
    elements are built once, for the final states and for the edges.
    """
    if state_cap < 0:
        raise InvalidInputError("state cap must be nonnegative")
    cylinders = _Cylinders(sys)
    d = cylinders.d
    states: list = [((1, (1,) + (0,) * (2 * d - 1)), 1)]
    raw_children: list = []
    _close(cylinders, states, raw_children, state_cap)
    _check_lengths(cylinders.lattice, states, raw_children)

    # canonical re-indexing: initial state first, the rest sorted by
    # (length, offsets, rank) with every row over one common denominator,
    # which orders them as their rational coefficient tuples would
    common = math.lcm(*(den for (den, _flat), _rank in states))

    def key(i):
        (den, flat), rank = states[i]
        scale = common // den
        if scale != 1:
            flat = tuple(c * scale for c in flat)
        # the offsets are rows of d entries, so flattened they compare as
        # their tuple of rows would
        return flat[:d], flat[d:], rank

    order = [0] + sorted(range(1, len(states)), key=key)
    relabel = {old: new for new, old in enumerate(order)}
    # the states share few distinct values: one element each
    elements: dict = {}

    def element(row: tuple[int, ...], den: int) -> FieldElement:
        elem = elements.get((row, den))
        if elem is None:
            elem = elements[row, den] = FieldElement(sys.field, row, den)
        return elem

    new_states = []
    for old in order:
        (den, flat), rank = states[old]
        elems = [element(flat[j:j + d], den) for j in range(0, len(flat), d)]
        new_states.append(CharacteristicState(elems[0], tuple(elems[1:]), rank))
    new_children: list = [None] * len(states)
    for old, kids in enumerate(raw_children):
        new_children[relabel[old]] = [
            (relabel[j], element(tuple(u_lo), den), element(tuple(u_hi), den), T)
            for j, u_lo, u_hi, den, T in kids
        ]
    auto = Automaton(sys, new_states, new_children, frozenset())
    auto.essential = essential_class(auto)
    return auto


# ---------------------------------------------------------------------------
# essential class
# ---------------------------------------------------------------------------

def _reach(edges: list[list[int]], s: int) -> set[int]:
    """The states reachable from s along edges, s included."""
    seen = {s}
    frontier = [s]
    while frontier:
        for w in edges[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def essential_class(auto: Automaton) -> frozenset[int]:
    """The forward-closed, communicating class reachable from every state.

    From s, the states ahead (reachable from s) and behind (reaching s):
    while some state t ahead does not reach s, s moves to t, and the set
    ahead shrinks.  Where it stops, the set ahead is s's class and nothing
    leaves it; with every state behind s it is the only such class
    (DECISIONS.md).
    """
    succ = [auto.successors(i) for i in range(auto.size)]
    pred: list[list[int]] = [[] for _ in succ]
    for i, kids in enumerate(succ):
        for j in kids:
            pred[j].append(i)
    s = 0
    while True:
        ahead, behind = _reach(succ, s), _reach(pred, s)
        escapes = ahead - behind
        if not escapes:
            break
        s = min(escapes)
    if len(behind) < auto.size:
        stray = min(set(range(auto.size)) - behind)
        raise InvariantError(f"essential class unreachable from state {stray}")
    return frozenset(ahead)


# ---------------------------------------------------------------------------
# codings and matrix products
# ---------------------------------------------------------------------------

def net_intervals(auto: Automaton, n: int) -> list[tuple[FieldElement, FieldElement, list[int]]]:
    """The level-n net intervals as (a, b, coding word), left to right,
    walked down the automaton: the children of a level-k interval at a are
    a + rho^k * [u_lo, u_hi] along its state's edges."""
    if n < 0:
        raise InvalidInputError("net interval level must be nonnegative")
    field, rho = auto.sys.field, auto.sys.rho
    level, scale = [(field.zero, field.one, [0])], field.one
    for _ in range(n):
        level = [(a + scale * u_lo, a + scale * u_hi, word + [j])
                 for a, _b, word in level for j, u_lo, u_hi, _T in auto.children[word[-1]]]
        scale = scale * rho
    return level


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
