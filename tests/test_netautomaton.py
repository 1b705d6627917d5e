import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betagrowth import netautomaton
from betagrowth.errors import CapExceededError, InvalidInputError, InvariantError
from betagrowth.expansions import count_prefixes
from betagrowth.netautomaton import (
    Automaton,
    automaton_to_dot,
    build_automaton,
    coding_of_point,
    count_via_matrices,
    essential_class,
    net_intervals,
)
from betagrowth.numberfield import NumberField, is_pisot, parse_beta
from conftest import (PROPERTY_SETTINGS, brute_essential_class, cylinder_closure, field_automaton,
                      field_net_intervals, is_admissible, multiplicity_direct, pisot_family,
                      products_positive, state_key)


@pytest.fixture(scope="module")
def golden_auto(golden):
    return build_automaton(golden)


@pytest.fixture(scope="module")
def tri_auto(tribonacci):
    return build_automaton(tribonacci)


# ---------------------------------------------------------------------------
# net intervals
# ---------------------------------------------------------------------------

def test_net_intervals_binary(binary):
    auto = build_automaton(binary)
    nis = net_intervals(auto, 2)
    assert len(nis) == 4
    assert all(count_via_matrices(auto, word) == 1 for _a, _b, word in nis)
    assert [float(a) for a, _b, _word in nis] == [0.0, 0.25, 0.5, 0.75]


def test_net_intervals_golden_level1(golden, golden_auto):
    nis = net_intervals(golden_auto, 1)
    rho = golden.rho
    endpoints = [a for a, _b, _word in nis] + [nis[-1][1]]
    assert endpoints == [
        golden.field.zero,
        golden.field.one - rho,
        rho,
        golden.field.one,
    ]
    assert [count_via_matrices(golden_auto, word) for _a, _b, word in nis] == [1, 2, 1]


def test_net_intervals_golden_level2_size(golden, golden_auto):
    # |F_2| = |P_2| - 1 with P_2 built by brute force
    rho = golden.rho
    starts = [golden.field.zero, golden.field.one - rho]
    p2 = set()
    for a in starts:
        for b in starts:
            v = a + rho * b
            p2.add(v)
            p2.add(v + rho * rho)
    assert len(net_intervals(golden_auto, 2)) == len(p2) - 1


@pytest.mark.parametrize("spec", ["golden", "multinacci:3"])
def test_net_structure(spec):
    sys_ = parse_beta(spec, 2)
    auto = build_automaton(sys_)
    prev = None
    for n in range(0, 6):
        nis = net_intervals(auto, n)
        # union is [0,1], interiors disjoint
        assert nis[0][0] == sys_.field.zero
        assert nis[-1][1] == sys_.field.one
        for (_a, b, _w), (a, _b, _v) in zip(nis, nis[1:]):
            assert b == a
        total = sys_.field.zero
        for a, b, _word in nis:
            total = total + (b - a)
        assert total == sys_.field.one
        # each interval nested in exactly one parent, the one its word extends
        if prev is not None:
            for a, b, word in nis:
                parents = [
                    p_word for p_a, p_b, p_word in prev
                    if (a - p_a).sign() >= 0 and (p_b - b).sign() >= 0
                ]
                assert parents == [word[:-1]]
        prev = nis
        # the state's length is beta^n (b - a), and its covering offsets stay
        # within [0, 1 - length]
        for a, b, word in nis:
            state = auto.states[word[-1]]
            assert state.length == (b - a) * sys_.beta ** n
            for off in state.offsets:
                assert off.sign() >= 0
                assert (1 - state.length - off).sign() >= 0


@pytest.mark.parametrize("spec,m", [("golden", 2), ("golden", 3), ("multinacci:3", 2),
                                    ("int:2", 2), ("int:2", 4), ("poly:-1,0,-1,1", 2)])
def test_net_intervals_match_field_reference(spec, m):
    """The walk's intervals are the field oracle's, end for end; each is
    the coding of its midpoint, and its matrix count and state offsets are
    the oracle's covers."""
    sys_ = parse_beta(spec, m)
    auto = build_automaton(sys_)
    for n in range(0, 8 if m == 2 else 5):
        walk, reference = net_intervals(auto, n), field_net_intervals(sys_, n)
        assert [(a, b) for a, b, _word in walk] == [(iv.a, iv.b) for iv in reference], n
        for (a, b, word), iv in zip(walk, reference):
            assert coding_of_point((a + b) / 2, n, auto) == word
            assert count_via_matrices(auto, word) == iv.multiplicity
            assert set(auto.states[word[-1]].offsets) == set(iv.offsets)


# ---------------------------------------------------------------------------
# automaton construction
# ---------------------------------------------------------------------------

def test_binary_automaton_shape(binary):
    auto = build_automaton(binary)
    # a single state beyond the root; every matrix is the 1x1 identity
    assert auto.size == 2
    assert all(auto.v(i) == 1 for i in range(auto.size))
    assert all(
        T == ((1,),) for i in range(auto.size) for _j, _lo, _hi, T in auto.children[i]
    )
    for word in [[0], [0, 0, 1, 0, 1, 1]]:
        if is_admissible(auto, word):
            assert count_via_matrices(auto, word) == 1


def test_root_state(golden_auto):
    root = golden_auto.states[0]
    assert root.v == 1
    assert root.length == golden_auto.sys.field.one
    assert root.offsets[0].is_zero()


def test_length_identities(golden_auto, tri_auto):
    # ell_i = rho * sum over children, for every state and on the essential
    # class alone (both already asserted inside build; re-check here)
    for auto in (golden_auto, tri_auto):
        sys_ = auto.sys
        for i in range(auto.size):
            total = sys_.field.zero
            for j, _lo, _hi, _T in auto.children[i]:
                total = total + auto.ell(j)
            assert (auto.ell(i) - sys_.rho * total).is_zero()
        for i in sorted(auto.essential):
            total = sys_.field.zero
            for j, _lo, _hi, _T in auto.children[i]:
                assert j in auto.essential
                total = total + auto.ell(j)
            assert (auto.ell(i) - sys_.rho * total).is_zero()


def test_row_products_strictly_positive(golden_auto, tri_auto):
    assert products_positive(golden_auto, 12)
    assert products_positive(tri_auto, 12)


def test_essential_class_properties(golden_auto, tri_auto, binary):
    for auto in (golden_auto, tri_auto, build_automaton(binary)):
        omega = essential_class(auto)
        assert omega == auto.essential
        assert omega
        for i in omega:
            assert set(auto.successors(i)) <= omega


def test_determinism(golden):
    a1 = build_automaton(golden)
    a2 = build_automaton(golden)
    assert [state_key(s) for s in a1.states] == [state_key(s) for s in a2.states]
    for i in range(a1.size):
        kids1 = [(j, T) for j, _lo, _hi, T in a1.children[i]]
        kids2 = [(j, T) for j, _lo, _hi, T in a2.children[i]]
        assert kids1 == kids2


def _assert_same_automaton(auto, ref):
    assert auto.size == ref.size
    for st, want in zip(auto.states, ref.states):
        assert (st.length, st.offsets, st.rank) == (want.length, want.offsets, want.rank)
    assert auto.children == ref.children  # (j, u_lo, u_hi, T), left to right
    assert auto.essential == ref.essential


ORACLE_BASES = [("golden", 2), ("golden", 3), ("golden", 4), ("multinacci:3", 2),
                ("multinacci:4", 2), ("multinacci:5", 2), ("poly:-1,0,-1,1", 2),
                ("int:2", 2), ("int:2", 4), ("int:3", 3)]


@pytest.mark.parametrize("spec,m", ORACLE_BASES)
def test_automaton_matches_field_element_closure(spec, m):
    sys_ = parse_beta(spec, m)
    _assert_same_automaton(build_automaton(sys_), field_automaton(sys_))


@pytest.mark.parametrize("spec,m", [("golden", 3), ("poly:-1,0,-1,1", 2), ("int:2", 4)])
def test_automaton_object_rows(spec, m, monkeypatch):
    # with no room in int64 every state takes the Python-int rows, which
    # must build the same automaton, without a numpy warning
    sys_ = parse_beta(spec, m)
    want = build_automaton(sys_)
    monkeypatch.setattr(netautomaton, "INT64_MAX", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_automaton(build_automaton(sys_), want)


def _closure(close, sys_, state_cap=netautomaton.DEFAULT_STATE_CAP):
    """A closure from the root by `netautomaton._close` or its per-state
    oracle: (states, raw_children, the CapExceededError text or None)."""
    cylinders = netautomaton._Cylinders(sys_)
    states, raw_children = [((1, (1,) + (0,) * (2 * cylinders.d - 1)), 1)], []
    try:
        close(cylinders, states, raw_children, state_cap)
    except CapExceededError as exc:
        return states, raw_children, str(exc)
    return states, raw_children, None


LAYER_BASES = [("golden", 2), ("golden", 3), ("golden", 4), ("multinacci:3", 2),
               ("multinacci:4", 2), ("multinacci:5", 2), ("poly:-1,0,-1,1", 2),
               ("int:2", 3), ("int:2", 4), ("poly:-1,-1,0,1", 2)]


@pytest.mark.parametrize("spec,m", LAYER_BASES)
def test_layer_pass_matches_per_state_oracle(spec, m):
    # the same states and ranks in discovery order, and per child the same
    # index, u_lo and u_hi rows, denominator and T
    sys_ = parse_beta(spec, m)
    batched = _closure(netautomaton._close, sys_)
    assert batched == _closure(cylinder_closure, sys_)
    assert batched[2] is None


@PROPERTY_SETTINGS
@given(sys_=pisot_family)
def test_pisot_family_closure_and_essential_class(sys_):
    # the batched closure against the per-state oracle, and the essential
    # class against brute force, on drawn Pisot bases; every automaton of
    # the family has at most 283 states, so the cap is never reached
    batched = _closure(netautomaton._close, sys_, state_cap=1000)
    assert batched == _closure(cylinder_closure, sys_, state_cap=1000)
    assert batched[2] is None
    auto = build_automaton(sys_, state_cap=1000)
    assert auto.essential == brute_essential_class(auto)


def test_layer_pass_capped_mixed_rows(monkeypatch):
    # 13/10 is not Pisot: the first 300 states of its capped closure, with
    # the int64 room cut so that its early batches run on int64 rows and its
    # later ones on Python ints
    dtypes = []
    run_pass = netautomaton._Cylinders._pass

    def spy(self, geometries, dtype):
        dtypes.append(dtype)
        return run_pass(self, geometries, dtype)

    monkeypatch.setattr(netautomaton._Cylinders, "_pass", spy)
    monkeypatch.setattr(netautomaton, "INT64_MAX", 2 ** 30)
    sys_ = parse_beta("13/10", 2)
    batched = _closure(netautomaton._close, sys_, state_cap=300)
    assert batched == _closure(cylinder_closure, sys_, state_cap=300)
    assert batched[2] == "automaton exceeds 300 states; likely a non-Pisot base or a cap set too small"
    assert len(batched[0]) == 300
    assert {np.int64, object} <= set(dtypes)


@pytest.mark.parametrize("spec,m", [("golden", 4), ("poly:-1,0,-1,1", 2), ("int:2", 3)])
def test_layer_pass_misordered_presort(spec, m, monkeypatch, comparison_sorts):
    # float values negated, with infinite error bounds: every state's
    # presort is reversed and the sign_rows screen settles nothing, so the
    # exact signs find every geometry misordered (0 < length) and the
    # comparison sort of rank_rows ranks each, to the same closure
    sys_ = parse_beta(spec, m)
    want = _closure(cylinder_closure, sys_)
    float_rows = NumberField.float_rows

    def reversed_rows(field, rows):
        val, err = float_rows(field, rows)
        return -val, np.full_like(err, np.inf)

    monkeypatch.setattr(NumberField, "float_rows", reversed_rows)
    del comparison_sorts[:]  # those of the oracle, if any
    assert _closure(netautomaton._close, sys_) == want
    assert len(comparison_sorts) == len({geometry for geometry, _rank in want[0]})


def test_length_identity_on_rows():
    # the closure passes the check; halving one child's length fails it at
    # that child's parent
    sys_ = parse_beta("golden", 3)
    states, raw_children, _message = _closure(netautomaton._close, sys_)
    lattice = netautomaton._Cylinders(sys_).lattice
    netautomaton._check_lengths(lattice, states, raw_children)
    j = raw_children[5][0][0]
    (den, flat), rank = states[j]
    states[j] = ((2 * den, flat), rank)
    parent = min(i for i, kids in enumerate(raw_children) if j in [kid[0] for kid in kids])
    with pytest.raises(InvariantError, match=f"length identity fails at state {parent}$"):
        netautomaton._check_lengths(lattice, states, raw_children)


def test_essential_class_matches_brute_force_plastic():
    # the oracle bases compare it in test_automaton_matches_field_element_closure;
    # the plastic number (1,809 states) is too large for the field-element closure
    auto = build_automaton(parse_beta("poly:-1,-1,0,1", 2))
    assert auto.essential == brute_essential_class(auto)


def _graph(succ: list[list[int]]) -> Automaton:
    """An automaton with the given edges and nothing else: the essential
    class reads only the state count and the successors."""
    return Automaton(None, [None] * len(succ),
                     [[(j, None, None, ()) for j in kids] for kids in succ], frozenset())


def test_essential_class_two_bottom_classes():
    auto = _graph([[1, 2], [1], [2]])
    assert brute_essential_class(auto) == frozenset()
    with pytest.raises(InvariantError, match="unreachable from state 2$"):
        essential_class(auto)


@pytest.mark.parametrize("succ,want", [
    # a transient state with a self-loop in front of the bottom class
    ([[0, 1], [2], [1]], {1, 2}),
    # a transient chain of 50 states, then the bottom class {50, 51}
    ([[k + 1] for k in range(50)] + [[51], [50]], {50, 51}),
    # the bottom class numbered below a transient state that enters it
    ([[3], [2], [1], [3, 1]], {1, 2}),
])
def test_essential_class_behind_transient_states(succ, want):
    auto = _graph(succ)
    assert essential_class(auto) == brute_essential_class(auto) == want


def test_non_pisot_hits_cap():
    sqrt3 = parse_beta("poly:-3,0,1", 2)
    with pytest.raises(CapExceededError):
        build_automaton(sqrt3, state_cap=500)


# ---------------------------------------------------------------------------
# codings and matrix counts
# ---------------------------------------------------------------------------

def test_coding_partition_point_errors(binary):
    auto = build_automaton(binary)
    with pytest.raises(InvalidInputError):
        coding_of_point(Fraction(1, 2), 3, auto)


def test_coding_nesting(golden_auto):
    z = Fraction(2, 5)
    word = coding_of_point(z, 5, golden_auto)
    assert len(word) == 6 and word[0] == 0
    assert is_admissible(golden_auto, word)
    # truncation yields the shallower coding (net structure preserved)
    assert coding_of_point(z, 3, golden_auto) == word[:4]


def test_empty_word_norm(golden_auto):
    assert count_via_matrices(golden_auto, [0]) == 1


def test_inadmissible_word_rejected(golden_auto):
    with pytest.raises(InvalidInputError):
        count_via_matrices(golden_auto, [1, 0])
    with pytest.raises(InvalidInputError):
        net_intervals(golden_auto, -1)
    bad = [0, golden_auto.size - 1]
    if not is_admissible(golden_auto, bad):
        with pytest.raises(InvalidInputError):
            count_via_matrices(golden_auto, bad)


@pytest.mark.parametrize("spec", ["golden", "multinacci:3"])
def test_oracle_equivalence(spec):
    """Matrix-product counts == brute-force covering counts == prefix DP."""
    sys_ = parse_beta(spec, 2)
    auto = build_automaton(sys_)
    for n in range(1, 7):
        for a, b, word in net_intervals(auto, n):
            mid = (a + b) / 2
            assert coding_of_point(mid, n, auto) == word
            by_matrix = count_via_matrices(auto, word)
            assert by_matrix == multiplicity_direct(sys_, n, a, b)
            # rescaling identity: N_n((m-1) z/(beta-1)) = covering count
            assert by_matrix == count_prefixes(sys_.right_end * mid, n, sys_)


@PROPERTY_SETTINGS
@given(sys_=pisot_family, num=st.integers(1, 9972))
def test_pisot_family_matrix_counts_match_prefix_counts(sys_, num):
    # criterion 5 on drawn bases.  z = num/9973 is no net partition point:
    # those are v (beta - 1)/(m - 1) and that plus beta^-n, v in
    # Z[beta, 1/beta], so a rational one has a denominator dividing
    # a_d^k (m - 1), and a_d and m - 1 = a_1 are at most 3
    assert is_pisot(sys_.minpoly) and sys_.beta_floor() == sys_.m - 1
    auto = build_automaton(sys_, state_cap=1000)
    z = Fraction(num, 9973)
    word = coding_of_point(z, 8, auto)
    assert count_via_matrices(auto, word) == count_prefixes(sys_.right_end * z, 8, sys_)


def test_multiplicity_direct_golden_level1(golden, golden_auto):
    nis = net_intervals(golden_auto, 1)
    assert [multiplicity_direct(golden, 1, a, b) for a, b, _word in nis] == [1, 2, 1]


@pytest.mark.parametrize("spec,m", [("golden", 2), ("multinacci:3", 2), ("int:2", 4)])
def test_rescaling_identity_direct(spec, m):
    """N_n((m-1)z/(beta-1)) equals the number of composed maps whose image
    contains z, by direct enumeration of all m^n compositions."""
    from itertools import product as iproduct

    sys_ = parse_beta(spec, m)
    step = (sys_.field.one - sys_.rho) / (sys_.m - 1)
    starts = [step * (a - 1) for a in range(1, sys_.m + 1)]
    for z_frac in (Fraction(2, 7), Fraction(3, 5)):
        z = sys_.element(z_frac)
        for n in (2, 4, 6):
            rho_n = sys_.rho ** n
            hits = 0
            for word in iproduct(range(sys_.m), repeat=n):
                v = sys_.field.zero
                scale = sys_.field.one
                for a in word:
                    v = v + scale * starts[a]
                    scale = scale * sys_.rho
                if (z - v).sign() >= 0 and (v + rho_n - z).sign() >= 0:
                    hits += 1
            assert hits == count_prefixes(sys_.right_end * z, n, sys_)


def test_dot_export(golden_auto):
    dot = automaton_to_dot(golden_auto)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot  # essential class highlighted
