"""Finite coding automaton for the net intervals of a Pisot base.

A net interval at level n is fingerprinted by its characteristic state:
the normalized length beta^n*(b-a), the sorted set of distinct covering
offsets beta^n*(a - S_J(0)), and a sibling rank that separates same-looking
children of one parent (the rank is what makes the coding maps bijective;
integer bases already need it).  For Pisot beta the closure of the initial
state [0,1] under the child construction is finite; a configurable cap
catches everything else.

Transition matrices count digit extensions between covering slots; the
row-vector product along a coding word recovers the covering multiplicity
of the interval, which equals the prefix count of the rescaled point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceededError, InvalidInputError, InvariantError
from .expansions import Lattice
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


def _children_of(sys: BetaSystem, length: FieldElement,
                 offsets: tuple[FieldElement, ...]):
    """Sub-intervals of a normalized state at the next level.

    Returns a list of (u_lo, u_hi, child_length, child_offsets, T) in
    left-to-right order; T maps parent covering slots to child slots.
    """
    starts = _digit_starts(sys)
    beta = sys.beta
    rho = sys.rho
    zero = sys.field.zero
    # child cylinder start positions, one per (covering slot, digit)
    cyl = [
        (ci, a, -c + starts[a])
        for ci, c in enumerate(offsets)
        for a in range(sys.m)
    ]
    breakpoints = {zero, length}
    for _ci, _a, s in cyl:
        for point in (s, s + rho):
            if point.sign() > 0 and (length - point).sign() > 0:
                breakpoints.add(point)
    ordered = sorted(breakpoints)
    out = []
    for u_lo, u_hi in zip(ordered, ordered[1:]):
        covers = []
        for ci, a, s in cyl:
            if (u_lo - s).sign() >= 0 and (s + rho - u_hi).sign() >= 0:
                covers.append((ci, (u_lo - s) * beta))
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


def build_automaton(sys: BetaSystem, state_cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Breadth-first closure of the characteristic-state construction.

    Terminates for Pisot beta; raises CapExceededError when the state count
    passes state_cap (expected for non-Pisot algebraic bases).
    """
    if state_cap < 0:
        raise InvalidInputError("state cap must be nonnegative")
    root = CharacteristicState(sys.field.one, (sys.field.zero,), 1)
    index: dict = {root: 0}
    states = [root]
    raw_children: list = [None]
    geometry_cache: dict = {}
    queue = [0]
    while queue:
        i = queue.pop(0)
        st = states[i]
        geo_key = (st.length, st.offsets)
        if geo_key in geometry_cache:
            rows = geometry_cache[geo_key]
        else:
            rows = _children_of(sys, st.length, st.offsets)
            geometry_cache[geo_key] = rows
        kid_entries = []
        seen_cv: dict = {}
        for u_lo, u_hi, c_len, c_offsets, T in rows:
            cv_key = (c_len, c_offsets)
            rank = seen_cv.get(cv_key, 0) + 1
            seen_cv[cv_key] = rank
            child = CharacteristicState(c_len, c_offsets, rank)
            if child not in index:
                if len(states) >= state_cap:
                    raise CapExceededError(
                        f"automaton exceeds {state_cap} states; "
                        "likely a non-Pisot base or a cap set too small"
                    )
                index[child] = len(states)
                states.append(child)
                raw_children.append(None)
                queue.append(index[child])
            kid_entries.append((index[child], u_lo, u_hi, T))
        raw_children[i] = kid_entries

    # canonical re-indexing: initial state first, the rest sorted by
    # (length, offsets, rank) on coefficient vectors
    order = [0] + sorted(range(1, len(states)), key=lambda i: states[i].key())
    relabel = {old: new for new, old in enumerate(order)}
    new_states = [states[old] for old in order]
    new_children: list = [None] * len(states)
    for old, kids in enumerate(raw_children):
        new_children[relabel[old]] = [
            (relabel[j], u_lo, u_hi, T) for j, u_lo, u_hi, T in kids
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
