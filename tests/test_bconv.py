import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from betagrowth import expansions
from betagrowth.bconv import (
    ball_mass_brackets,
    interval_mass,
    level_atoms,
    local_dim_estimate,
    lq_spectrum_estimate,
    lq_spectrum_table,
)
from betagrowth.errors import CapExceededError, HypothesisError, InvalidInputError
from betagrowth.expansions import Lattice, count_prefixes
from betagrowth.numberfield import FieldElement, parse_beta

from conftest import (PROPERTY_SETTINGS, atoms_items_exact, bincount_cell_masses,
                      derived_ball_brackets, distinct_sums_count, pisot_family, refine_atoms,
                      upper_dim_bound_check)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def test_atoms_binary(binary):
    atoms = level_atoms(binary, 3)
    assert atoms.size == 8
    assert atoms.total_weight() == 1
    assert all(w == Fraction(1, 8) for _v, w in atoms_items_exact(atoms))


def test_atoms_golden_collision(golden):
    atoms = level_atoms(golden, 3)
    assert atoms.size == 7
    items = list(atoms_items_exact(atoms))
    collided = [(v, w) for v, w in items if w == Fraction(2, 8)]
    assert len(collided) == 1
    assert collided[0][0] == golden.rho  # the 100 == 011 value


def test_atom_count_matches_distinct_sums(golden, b15):
    for sys_ in (golden, b15):
        for n in (2, 4, 6, 8):
            assert level_atoms(sys_, n).size == distinct_sums_count(n, sys_)


def test_atoms_weight_conservation(golden, tribonacci, b15):
    for sys_, n in ((golden, 12), (tribonacci, 9), (b15, 10)):
        assert level_atoms(sys_, n).total_weight() == 1


def test_atoms_refinement_consistency(golden, b15):
    for sys_ in (golden, b15):
        for n in (3, 5, 7):
            refined, direct = refine_atoms(level_atoms(sys_, n)), level_atoms(sys_, n + 1)
            # the kernel's rows come out in one canonical order, so equal
            # levels have equal arrays, row for row
            assert refined.keys.tolist() == direct.keys.tolist()
            assert refined.counts.tolist() == direct.counts.tolist()


def test_atoms_values_sorted(golden):
    vals = level_atoms(golden, 8).values
    assert (np.diff(vals) > 0).all()


def test_atoms_cap(b13):
    # 13/10 has 2^k distinct level-k sums: the default cap stops level 24
    # at level 22, before any step
    with pytest.raises(CapExceededError, match="4194304 DP states at level 22 exceed"):
        level_atoms(b13, 24)


# ---------------------------------------------------------------------------
# interval mass and ball brackets
# ---------------------------------------------------------------------------

def test_interval_mass_full(golden, b15):
    for sys_ in (golden, b15):
        assert interval_mass(sys_, 8, 0, sys_.right_end) == 1


def test_interval_mass_against_atoms(golden, b15):
    # windowed DP agrees with direct atom summation on exact windows
    for sys_ in (golden, b15):
        atoms = level_atoms(sys_, 8)
        lo = sys_.element(Fraction(1, 4))
        hi = sys_.element(Fraction(4, 5))
        direct = Fraction(0)
        for v, w in atoms_items_exact(atoms):
            if (v - lo).sign() >= 0 and (hi - v).sign() >= 0:
                direct += w
        assert interval_mass(sys_, 8, lo, hi) == direct


def test_interval_mass_huge_denominator(golden):
    # a bound with a 400-digit denominator overflows the float sign screen
    lo = Fraction(1, 10 ** 400)
    direct = sum(w for v, w in atoms_items_exact(level_atoms(golden, 5))
                 if (v - lo).sign() >= 0 and (1 - v).sign() >= 0)
    assert interval_mass(golden, 5, lo, 1) == direct


@pytest.mark.parametrize("spec", ["golden", "1.5", "int:2", "poly:-3,0,2"])
def test_interval_mass_level_zero_and_disjoint_windows(spec):
    # level 0 holds the empty word, of value 0: mass 1 when the window holds
    # 0, an end included, and 0 when it does not
    sys_ = parse_beta(spec, 2)
    right = sys_.right_end
    for lo, hi, want in [(-1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, 0, 1),
                         (Fraction(1, 10), 1, 0), (-1, Fraction(-1, 10), 0), (right, right + 1, 0)]:
        assert interval_mass(sys_, 0, lo, hi) == want, (lo, hi)
    for n in (1, 2, 5):
        # windows disjoint from I_beta hold no word; one that touches its
        # left end holds the zero word alone, and words of value R do not exist
        assert interval_mass(sys_, n, -1, Fraction(-1, 10)) == 0
        assert interval_mass(sys_, n, right + Fraction(1, 10), right + 1) == 0
        assert interval_mass(sys_, n, right, right + 1) == 0
        assert interval_mass(sys_, n, -1, 0) == Fraction(1, 2 ** n)


def test_interval_mass_lebesgue(binary):
    # binary base: mass of [a, b] is (b - a) up to the level resolution
    got = interval_mass(binary, 12, Fraction(1, 3), Fraction(2, 3))
    assert abs(float(got) - 1 / 3) < 2 ** -11


def test_ball_bracket_orders(golden):
    lo, hi = ball_mass_brackets(golden, Fraction(2, 5), [8], 10)[8]
    assert 0 < lo <= hi <= 1


# each case is pinned as an example, at levels 0, 1, 2, 5 and 9; the draws
# on its base are a point of I_beta (0 and R included), a margin and levels
bracket_draws = st.tuples(
    st.one_of(st.sampled_from(("0", "R")), st.fractions(0, 1, max_denominator=97)),
    st.integers(0, 6),
    st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True))


@pytest.mark.parametrize("spec,m,x_text,margin", [
    ("golden", 2, "2/5", 0),
    ("golden", 2, "0", 6),
    ("golden", 3, "1/3", 4),
    ("multinacci:3", 2, "3/4", 5),
    ("1.5", 2, "2", 3),
    ("int:2", 2, "1", 0),
    ("int:2", 2, "1/3", 2),
    ("poly:-3,0,2", 2, "1/2", 4),
])
@PROPERTY_SETTINGS
@given(drawn=bracket_draws)
@example(drawn=None)
def test_ball_mass_brackets_match_interval_mass(spec, m, x_text, margin, drawn):
    # the one-sweep brackets equal mu_L of the ball shrunk on the right and
    # grown on the left by the tail R beta^-L, L = n + margin, exactly
    sys_ = parse_beta(spec, m)
    if drawn is None:
        x, levels = sys_.element(Fraction(x_text)), [0, 1, 2, 5, 9]
    else:
        point, margin, levels = drawn
        # R itself, or a fraction of a rational lower bound of R
        right = Fraction(math.floor(float(sys_.right_end) * 1000), 1000)
        x = sys_.right_end if point == "R" else sys_.element(Fraction(point) * right)
        levels = sorted(levels)
    got = ball_mass_brackets(sys_, x, levels[::-1], margin)
    assert list(got) == levels
    for n in levels:
        r = sys_.right_end * sys_.rho ** n
        tail = sys_.right_end * sys_.rho ** (n + margin)
        assert got[n] == (interval_mass(sys_, n + margin, x - r, x + r - tail),
                          interval_mass(sys_, n + margin, x - r - tail, x + r))


SHIFT_SPECS = (("golden", 2), ("multinacci:3", 2), ("poly:-1,-1,0,1", 2), ("poly:-3,0,2", 2),
               ("13/10", 2), ("3/2", 3))


@PROPERTY_SETTINGS
@given(sys_=st.one_of(st.sampled_from(SHIFT_SPECS).map(lambda spec: parse_beta(*spec)),
                      pisot_family),
       point=st.one_of(st.sampled_from(("0", "R")), st.fractions(0, 1, max_denominator=97)),
       margin=st.integers(0, 3),
       levels=st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True))
@example(sys_=parse_beta("golden", 2), point="1/3", margin=4, levels=[3, 9, 10, 30])
@example(sys_=parse_beta("poly:-3,0,2", 2), point="R", margin=0, levels=[0, 7])
def test_ball_mass_brackets_match_derived_windows(sys_, point, margin, levels):
    # every window after the first a shift of the carried one, against the
    # windows derived from each ball by `Lattice.window`: levels further
    # apart than the margin restart at a negative exponent k - n', and
    # margin 0 reads ball n at level n, ball 0 at level 0
    right = Fraction(math.floor(float(sys_.right_end) * 1000), 1000)
    x = sys_.right_end if point == "R" else sys_.element(Fraction(point) * right)
    assert ball_mass_brackets(sys_, x, levels, margin) == derived_ball_brackets(
        sys_, x, levels, margin)


def test_ball_mass_brackets_derive_one_window():
    # Lattice.window runs once per point, and the field products do not
    # grow with the number of levels: every other window is a shift by one
    # of a few elements, each made once
    windows, products, counts = [], [], []
    window, mul = Lattice.window, FieldElement.__mul__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Lattice, "window", lambda self, *args: windows.append(1) or window(self, *args))
        patch.setattr(FieldElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        for top in (10, 30):
            windows.clear(), products.clear()
            ball_mass_brackets(parse_beta("golden", 2), Fraction(2, 5), range(1, top + 1), 10)
            counts.append((len(windows), len(products)))
    assert counts[0] == counts[1] and counts[0][0] == 1, counts


def test_windowed_counts_check_atom_cap(b13, monkeypatch):
    monkeypatch.setattr(expansions, "DEFAULT_ATOM_CAP", 40)
    with pytest.raises(CapExceededError):
        ball_mass_brackets(b13, Fraction(1, 2), range(10, 14), 12)
    with pytest.raises(CapExceededError):
        interval_mass(b13, 24, 0, b13.right_end)


def test_negative_levels_rejected(golden):
    with pytest.raises(InvalidInputError):
        ball_mass_brackets(golden, Fraction(2, 5), [-1, 3], 4)
    with pytest.raises(InvalidInputError):
        ball_mass_brackets(golden, Fraction(2, 5), [3], -1)
    with pytest.raises(InvalidInputError):
        interval_mass(golden, -1, 0, 1)
    # the moment estimators check levels and margin before building atoms
    negative = "^levels and margin must be nonnegative$"
    with pytest.raises(InvalidInputError, match=negative):
        lq_spectrum_table([1.0], golden, [-3, -2, -1, 0], margin=-8)
    with pytest.raises(InvalidInputError, match=negative):
        lq_spectrum_estimate(1.0, golden, [-3, -2, -1, 0])
    with pytest.raises(InvalidInputError, match=negative):
        lq_spectrum_estimate(1.0, golden, [1, 2, 3], margin=-1)


# ---------------------------------------------------------------------------
# moment sandwich (finite-level form of the ball-mass inequality)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,m,x_text,n_max", [
    ("golden", 2, "2/5", 15),
    ("multinacci:3", 2, "3/4", 10),
    ("1.5", 2, "1", 8),
])
def test_moment_sandwich(spec, m, x_text, n_max):
    sys_ = parse_beta(spec, m)
    x = sys_.element(Fraction(x_text))
    brackets = ball_mass_brackets(sys_, x, range(1, n_max + 1), 10)
    for n in range(1, n_max + 1):
        lower, _upper = brackets[n]
        count = count_prefixes(x, n, sys_)
        assert lower >= Fraction(count, sys_.m ** n)


# ---------------------------------------------------------------------------
# local dimension
# ---------------------------------------------------------------------------

def test_local_dim_binary_is_one(binary):
    est = local_dim_estimate(Fraction(1, 3), binary, levels=range(6, 19), margin=10)
    assert abs(est.slope - 1.0) < 0.01


def test_local_dim_golden_at_zero(golden):
    est = local_dim_estimate(0, golden, levels=range(10, 21), margin=10)
    expected = math.log(2) / math.log(float(golden.beta))
    assert abs(est.slope - expected) < 0.02


def test_local_dim_needs_levels(golden):
    with pytest.raises(InvalidInputError):
        local_dim_estimate(Fraction(2, 5), golden, levels=[5, 6], margin=8)


def test_local_dim_powers_do_not_grow_with_levels(monkeypatch):
    # the radii and windows read their powers from tables, so the number of
    # powers by repeated squaring does not grow with the number of levels
    calls = []
    power = FieldElement.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    counts = []
    for top in (10, 30):
        calls.clear()
        local_dim_estimate(Fraction(2, 5), parse_beta("golden", 2), range(1, top + 1), margin=10)
        counts.append(len(calls))
    assert counts[1] <= counts[0], counts


def test_local_dim_golden_random_mean(golden):
    # a.e. point carries slope D = 1.0054...; average a few draws
    rng = np.random.default_rng(77)
    slopes = []
    for _ in range(6):
        x = Fraction(int(rng.integers(1, 10 ** 6)), 10 ** 6) * Fraction(8, 5)
        est = local_dim_estimate(x, golden, levels=range(1, 29), margin=10)
        slopes.append(est.slope)
    assert abs(float(np.mean(slopes)) - 1.0054) < 0.05


# ---------------------------------------------------------------------------
# L^q spectrum
# ---------------------------------------------------------------------------

def test_tau_fixed_points_golden(golden):
    rows = lq_spectrum_table([0.0, 1.0], golden, levels=range(12, 19), margin=8)
    by_q = {r.q: r.tau for r in rows}
    assert abs(by_q[1.0]) < 0.02
    assert abs(by_q[0.0] + 1.0) < 0.05


def test_tau_lebesgue_calibration(binary):
    rows = lq_spectrum_table([-1.0, 0.0, 0.5, 2.0, 3.0], binary,
                             levels=range(8, 15), margin=6)
    for r in rows:
        assert abs(r.tau - (r.q - 1.0)) < 0.02


def test_tau_concavity(golden):
    qs = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]
    rows = lq_spectrum_table(qs, golden, levels=range(12, 19), margin=8)
    taus = [r.tau for r in rows]
    for i in range(len(qs) - 2):
        left = (taus[i + 1] - taus[i]) / (qs[i + 1] - qs[i])
        right = (taus[i + 2] - taus[i + 1]) / (qs[i + 2] - qs[i + 1])
        assert left >= right - 0.05


def test_tau_rejects_bad_q(golden):
    with pytest.raises(InvalidInputError):
        lq_spectrum_estimate(5.0, golden, levels=range(10, 14))


# the used levels of tau on golden (levels 12..18, margin 8) and on 13/10
# (levels 4..10, margin 8); golden with m = 3 has weights that are not
# dyadic, so there the cell sums depend on the order of their terms
@pytest.mark.parametrize("spec, m, atom_level, used", [
    ("golden", 2, 26, (15, 16, 17, 18)),
    ("13/10", 2, 18, (7, 8, 9, 10)),
    ("golden", 3, 16, (6, 7, 8)),
])
def test_cell_masses_match_bincount(spec, m, atom_level, used):
    sys_ = parse_beta(spec, m)
    atoms = level_atoms(sys_, atom_level)
    values, weights = atoms.values, atoms.weights
    for n in used:
        width = 2 * float(sys_.beta) ** -n
        got = atoms.cell_masses(width)
        want = bincount_cell_masses(values, weights, width)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


def test_limb_atoms_match_python_int_atoms(monkeypatch):
    # level 18 of 13/10 holds two-limb keys, which `level_atoms` joins: the
    # atoms are bit for bit those built on Python-int keys
    sys_ = parse_beta("13/10", 2)
    atoms = level_atoms(sys_, 18)
    monkeypatch.setattr(expansions, "LIMB_P_BOUND", 0)
    want = level_atoms(sys_, 18)
    assert atoms.keys.dtype == want.keys.dtype == object
    assert atoms.keys.tolist() == want.keys.tolist()
    assert atoms.counts.tolist() == want.counts.tolist()
    for got, ref in ((atoms.values, want.values), (atoms.weights, want.weights)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# ---------------------------------------------------------------------------
# upper bound check
# ---------------------------------------------------------------------------

def test_upper_bound_b15(b15):
    report = upper_dim_bound_check(b15, 1, 24, margin=5)
    assert report.passed
    # (1 - kappa) log_beta 2 = (7/8) log 2 / log 1.5
    assert abs(report.limit - 0.875 * math.log(2) / math.log(1.5)) < 1e-12
    assert report.kappa == Fraction(1, 8)


def test_upper_bound_rejects_golden(golden):
    with pytest.raises(HypothesisError):
        upper_dim_bound_check(golden, Fraction(2, 5), 10)


def test_upper_bound_rejects_m3():
    with pytest.raises(HypothesisError):
        upper_dim_bound_check(parse_beta("1.4", 3), Fraction(1, 2), 8)
