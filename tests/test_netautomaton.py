import warnings
from fractions import Fraction

import pytest

from betagrowth import netautomaton
from betagrowth.errors import CapExceededError, InvalidInputError
from betagrowth.expansions import count_prefixes
from betagrowth.netautomaton import (
    automaton_to_dot,
    build_automaton,
    coding_of_point,
    count_via_matrices,
    essential_class,
    net_intervals,
    products_positive,
)
from betagrowth.numberfield import parse_beta
from conftest import field_automaton, multiplicity_direct


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
    nis = net_intervals(binary, 2)
    assert len(nis) == 4
    assert all(iv.multiplicity == 1 for iv in nis)
    assert [float(iv.a) for iv in nis] == [0.0, 0.25, 0.5, 0.75]


def test_net_intervals_golden_level1(golden):
    nis = net_intervals(golden, 1)
    rho = golden.rho
    endpoints = [iv.a for iv in nis] + [nis[-1].b]
    assert endpoints == [
        golden.field.zero,
        golden.field.one - rho,
        rho,
        golden.field.one,
    ]
    assert [iv.multiplicity for iv in nis] == [1, 2, 1]


def test_net_intervals_golden_level2_size(golden):
    # |F_2| = |P_2| - 1 with P_2 built by brute force
    rho = golden.rho
    starts = [golden.field.zero, golden.field.one - rho]
    p2 = set()
    for a in starts:
        for b in starts:
            v = a + rho * b
            p2.add(v)
            p2.add(v + rho * rho)
    assert len(net_intervals(golden, 2)) == len(p2) - 1


@pytest.mark.parametrize("spec", ["golden", "multinacci:3"])
def test_net_structure(spec):
    sys_ = parse_beta(spec, 2)
    prev = None
    for n in range(0, 6):
        nis = net_intervals(sys_, n)
        # union is [0,1], interiors disjoint
        assert nis[0].a == sys_.field.zero
        assert nis[-1].b == sys_.field.one
        for a, b in zip(nis, nis[1:]):
            assert a.b == b.a
        total = sys_.field.zero
        for iv in nis:
            total = total + (iv.b - iv.a)
        assert total == sys_.field.one
        # each interval nested in exactly one parent
        if prev is not None:
            for iv in nis:
                parents = [
                    p for p in prev
                    if (iv.a - p.a).sign() >= 0 and (p.b - iv.b).sign() >= 0
                ]
                assert len(parents) == 1
        prev = nis
        # covering offsets stay within [0, 1 - normalized length]
        for iv in nis:
            ell = iv.length_normalized()
            for off in iv.offsets:
                assert off.sign() >= 0
                assert (1 - ell - off).sign() >= 0


def test_net_level_cap(golden):
    with pytest.raises(CapExceededError):
        net_intervals(golden, 15)


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
        if auto.is_admissible(word):
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
    assert [s.key() for s in a1.states] == [s.key() for s in a2.states]
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
    assert golden_auto.is_admissible(word)
    # truncation yields the shallower coding (net structure preserved)
    assert coding_of_point(z, 3, golden_auto) == word[:4]


def test_empty_word_norm(golden_auto):
    assert count_via_matrices(golden_auto, [0]) == 1


def test_inadmissible_word_rejected(golden_auto):
    with pytest.raises(InvalidInputError):
        count_via_matrices(golden_auto, [1, 0])
    bad = [0, golden_auto.size - 1]
    if not golden_auto.is_admissible(bad):
        with pytest.raises(InvalidInputError):
            count_via_matrices(golden_auto, bad)


@pytest.mark.parametrize("spec", ["golden", "multinacci:3"])
def test_oracle_equivalence(spec):
    """Matrix-product counts == brute-force covering counts == prefix DP."""
    sys_ = parse_beta(spec, 2)
    auto = build_automaton(sys_)
    for n in range(1, 7):
        for iv in net_intervals(sys_, n):
            mid = (iv.a + iv.b) / 2
            word = coding_of_point(mid, n, auto)
            by_matrix = count_via_matrices(auto, word)
            assert by_matrix == iv.multiplicity
            assert by_matrix == multiplicity_direct(sys_, iv)
            # rescaling identity: N_n((m-1) z/(beta-1)) = covering count
            assert by_matrix == count_prefixes(sys_.right_end * mid, n, sys_)


def test_multiplicity_direct_golden_level1(golden):
    nis = net_intervals(golden, 1)
    assert multiplicity_direct(golden, nis[0]) == 1
    assert multiplicity_direct(golden, nis[1]) == 2
    assert multiplicity_direct(golden, nis[2]) == 1


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
