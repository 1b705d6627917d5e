"""Property tests for the lattice DP kernel against the brute-force oracles
and against the dict form of its step (`conftest.dict_lattice_step`), and
for its row merge against a dict of tuples (`conftest.dict_merge_rows`)
and its order against `np.lexsort`, one packing for every width.

The bases cover degree one (1.5 and 13/10) and higher degrees, monic
(golden, tribonacci) and non-monic (poly:-3,0,2, whose root sqrt(3/2) has
a leading coefficient of 2).  Golden with m = 3 runs far enough that its
counts switch from int64 to Python ints mid-sweep, and a base with
p >= 2^30 that its keys do; 13/10 keeps its keys int64, as limbs, windowed
or not.
Random rational bases p/q check the collision-free lemma (DECISIONS.md):
distinct keys for m <= p, merges at m = p + 1, windowed counts against
the dict step either way, and the degree-one sign screen and limb
comparisons.  `Lattice.inside`, the one prefix-window test, is checked
against exact field comparisons of each key, on limb, int64 and object rows,
and the window a sweep carries in integers against the one derived from
its points at every level, restarts by `Lattice.narrowed` included.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from betagrowth import expansions
from betagrowth.bconv import ball_mass_brackets, interval_mass, level_atoms
from betagrowth.errors import CapExceededError, InvalidInputError, InvariantError
from betagrowth.expansions import INT64_MAX, Lattice, _at_least, _distinct_rows, prefix_count_series
from betagrowth.numberfield import FieldElement, parse_beta

from conftest import (PROPERTY_SETTINGS, atoms_items_exact, brute_distinct_sums, brute_prefix_count,
                      dict_lattice_levels, dict_merge_rows, distinct_sums_count, key_ints,
                      pisot_family)

SPECS = ("golden", "multinacci:3", "1.5", "poly:-3,0,2")
KERNEL_SPECS = SPECS + ("13/10",)


@pytest.fixture(scope="module")
def systems():
    return {spec: parse_beta(spec, 2) for spec in KERNEL_SPECS}


def _fraction_of_interval(sys_, num: int, den: int) -> Fraction:
    """num/den of a rational lower bound of (m-1)/(beta-1): a point of I_beta."""
    right = Fraction(math.floor(float(sys_.right_end) * 1000), 1000)
    return Fraction(num, den) * right


@pytest.mark.parametrize("spec", ["golden", "multinacci:3", "13/10", "poly:-1,-1,0,-1,2"])
def test_power_tables_match_pow(spec):
    # the window powers of beta * lead and the powers of rho, read out of
    # order, are the canonical elements that repeated squaring gives
    sys_ = parse_beta(spec, 2)
    for table in (Lattice(sys_).grow_powers, sys_.rho_powers):
        for n in (80, 3, 0, *range(81)):
            got, want = table[n], table.base ** n
            assert (got.num, got.den) == (want.num, want.den), (spec, n)
        with pytest.raises(InvalidInputError):
            table[-1]


points = st.integers(1, 997).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den)))


@PROPERTY_SETTINGS
@given(spec=st.sampled_from(SPECS), x=points, n=st.integers(0, 8))
def test_prefix_counts_match_brute_force(systems, spec, x, n):
    sys_ = systems[spec]
    x = _fraction_of_interval(sys_, *x)
    assert prefix_count_series(x, n, sys_)[n] == brute_prefix_count(x, n, sys_)


@PROPERTY_SETTINGS
@given(spec=st.sampled_from(SPECS), n=st.integers(1, 8))
def test_distinct_sums_match_brute_force(systems, spec, n):
    sys_ = systems[spec]
    assert distinct_sums_count(n, sys_) == brute_distinct_sums(n, sys_)


@PROPERTY_SETTINGS
@given(spec=st.sampled_from(SPECS), a=points, b=points, n=st.integers(0, 8))
def test_interval_mass_matches_atoms(systems, spec, a, b, n):
    sys_ = systems[spec]
    lo, hi = sorted((_fraction_of_interval(sys_, *a), _fraction_of_interval(sys_, *b)))
    direct = sum(
        (w for v, w in atoms_items_exact(level_atoms(sys_, n))
         if (v - lo).sign() >= 0 and (hi - v).sign() >= 0),
        Fraction(0),
    )
    assert interval_mass(sys_, n, lo, hi) == direct


def _swept(lattice, n, a=None, b=None) -> list:
    """Levels 1..n of a sweep from the empty word, windowed to [a, b] when
    a is given."""
    sys_ = lattice.sys
    window = None if a is None else lattice.window(0, sys_.element(a), sys_.element(b))
    return [level for level, _window in lattice.sweep(n, window)]


def _as_dict(lattice, level) -> dict:
    keys, counts = level
    return dict(zip(map(tuple, key_ints(lattice, keys)), counts.tolist()))


def _assert_levels_match(lattice, kernel_levels, dict_levels) -> list:
    """Compare level by level, limbs joined; return the (key, count) dtypes
    the kernel used."""
    dtypes = []
    for level, expected in zip(kernel_levels, dict_levels, strict=True):
        assert sorted(_as_dict(lattice, level).items()) == sorted(expected.items())
        keys, counts = level
        assert len(counts) == len(expected)  # each key once
        dtypes.append((keys.dtype, counts.dtype))
    return dtypes


@PROPERTY_SETTINGS
@given(spec=st.sampled_from(KERNEL_SPECS), a=points, b=points, n=st.integers(1, 12))
@example(spec="golden", a=(2, 10), b=(2, 10), n=5)  # level 5 merges two rows
def test_kernel_matches_dict_step(systems, spec, a, b, n):
    sys_ = systems[spec]
    lo, hi = sorted((_fraction_of_interval(sys_, *a), _fraction_of_interval(sys_, *b)))
    lattice = Lattice(sys_)
    _assert_levels_match(lattice, _swept(lattice, n), dict_lattice_levels(sys_, n))
    windowed = _swept(lattice, n, lo, hi)
    _assert_levels_match(lattice, windowed, dict_lattice_levels(sys_, n, lo, hi))


def test_kernel_switches_counts_to_python_ints():
    # 3^40 > 2^63, so the counts of golden with m = 3 leave int64 at level 40
    sys_ = parse_beta("golden", 3)
    x = Fraction(1, 2)
    lattice = Lattice(sys_)
    dtypes = _assert_levels_match(
        lattice, _swept(lattice, 42, x, x),
        dict_lattice_levels(sys_, 42, x, x),
    )
    assert [c for _k, c in dtypes] == [np.int64] * 39 + [object] * 3


def test_kernel_switches_keys_to_python_ints():
    # keys of p/q with p >= 2^30 are not kept on limbs; they grow like p^k
    # and pass 2^63 at level 3, and the bound taken before each step moves
    # them to Python ints in the middle of the sweep
    sys_ = parse_beta("2147483659/2147483648", 2)
    lattice = Lattice(sys_)
    assert not lattice.limbs
    dtypes = _assert_levels_match(lattice, _swept(lattice, 6), dict_lattice_levels(sys_, 6))
    key_dtypes = [k for k, _c in dtypes]
    assert key_dtypes[0] == np.int64 and key_dtypes[-1] == object
    assert key_dtypes == sorted(key_dtypes, key=lambda t: t == object)


def test_step_bound_counts_the_digit_term():
    # keys just under the edge of an unwindowed step's int64 bound: B growth
    # fits int64 but p B + q^2 does not, so only the digit term
    # (m-1) lead^(k+1) of the bound sends the step to Python ints.  Stepped
    # in int64 the digit would wrap; the step must give p c + e q^2 exactly,
    # as the same step on object keys does
    p, q = 2147483659, 2147483648
    sys_ = parse_beta(f"{p}/{q}", 2)
    lattice = Lattice(sys_)
    assert not lattice.limbs and lattice.growth == p + q
    big = INT64_MAX // lattice.growth
    assert big * lattice.growth <= INT64_MAX < p * big + q ** 2
    keys, counts = np.array([[big], [big - 1]], dtype=np.int64), np.array([1, 2], dtype=np.int64)
    got = lattice.step((keys, counts), 1)
    want = lattice.step((keys.astype(object), counts), 1)
    assert key_ints(lattice, got[0]) == key_ints(lattice, want[0]) == [
        [p * c + e * q ** 2] for c, e in ((big - 1, 0), (big, 0), (big - 1, 1), (big, 1))]
    assert got[1].tolist() == want[1].tolist() == [2, 1, 2, 1]


def test_unwindowed_13_10_keys_stay_int64():
    # keys of 13/10 pass 2^63 at level 17 and reach two limbs; the
    # unwindowed sweep keeps them int64, in value order, to level 20.  The
    # base is collision-free, so level k + 1 holds the keys p c + e q^(k+1)
    # of the level-k keys c, each once: distinct at level 20, and so at
    # every level before, since two words with one key keep it when the
    # same digit is appended
    sys_ = parse_beta("13/10", 2)
    lattice = Lattice(sys_)
    levels = _swept(lattice, 20)
    want = [0]
    for k, (keys, counts) in enumerate(levels):
        # two increasing runs, which sorted merges in one pass
        want = sorted([13 * c for c in want] + [13 * c + 10 ** (k + 1) for c in want])
        assert keys.dtype == np.int64 and set(counts.tolist()) == {1}
        assert lattice.joined(keys)[:, 0].tolist() == want
    assert len(set(want)) == len(want) == 2 ** 20
    assert levels[-1][0].shape[1] == 2


@st.composite
def integer_rows(draw):
    """(rows, counts): 1 to 30 rows of degree 1 to 4 drawn from a pool of at
    most 6, so rows repeat; entries small, int64-wide or past int64."""
    d = draw(st.integers(1, 4))
    bound = draw(st.sampled_from((5, 2 ** 40, 2 ** 62, 2 ** 100)))
    pool = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * d), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    counts = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(rows), max_size=len(rows)))
    return rows, counts


def _merged_groups(keys: np.ndarray, counts: list[int]) -> list[tuple[tuple, int]]:
    """The groups of `_distinct_rows` as (row, summed count), in its order;
    each group must hold equal rows only."""
    order, starts = _distinct_rows(keys)
    assert sorted(order.tolist()) == list(range(len(keys)))
    rows = keys[order].tolist()
    bounds = starts.tolist() + [len(rows)]
    groups = []
    for lo, hi in zip(bounds, bounds[1:]):
        assert lo < hi and all(row == rows[lo] for row in rows[lo:hi])
        groups.append((tuple(rows[lo]), sum(counts[i] for i in order[lo:hi].tolist())))
    return groups


@PROPERTY_SETTINGS
@given(case=integer_rows())
# column spans of 2^63 + 1: their product passes int64, so the key is a Python int
@example(case=([(-2 ** 62, 2 ** 62), (2 ** 62, -2 ** 62), (-2 ** 62, 2 ** 62)], [1, 2, 3]))
@example(case=([(-3,), (2 ** 62,), (-3,), (-2 ** 62,)], [1, 2, 3, 4]))
def test_distinct_rows_match_dict_merge(case):
    rows, counts = case
    want = dict_merge_rows(rows, counts)
    forms = [np.array(rows, dtype=object)]
    if max(abs(e) for row in rows for e in row) <= INT64_MAX:
        forms.append(np.array(rows, dtype=np.int64))
    for keys in forms:
        groups = _merged_groups(keys, counts)
        assert dict(groups) == want and len(groups) == len(want)
        # the groups come in the order of the rows read from the last column
        assert [row for row, _count in groups] == sorted(want, key=lambda row: row[::-1])


@st.composite
def key_matrices(draw):
    """An int64 or object matrix of 1 to 4 columns and 1 to 30 rows drawn
    from a pool of at most 6, so rows repeat; entries small, near the int64
    ends (column spans past 2^63) or, in object matrices, past int64."""
    d = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from((np.int64, object)))
    bounds = (5, 2 ** 40, INT64_MAX) + ((2 ** 100,) if dtype is object else ())
    bound = draw(st.sampled_from(bounds))
    entries = st.integers(-bound - (bound == INT64_MAX), bound)
    pool = draw(st.lists(st.tuples(*[entries] * d), min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)), dtype=dtype)


@PROPERTY_SETTINGS
@given(keys=key_matrices())
@example(keys=np.array([[-2 ** 63], [INT64_MAX], [0], [-2 ** 63]], dtype=np.int64))
@example(keys=np.array([[3], [-1], [3], [-1], [0]], dtype=np.int64))
# spans past int64 together: the last column's dense rank, packed with the rest
@example(keys=np.array([[7, 2 ** 40, -2 ** 40], [0, -2 ** 40, 2 ** 40], [7, 2 ** 40, -2 ** 40],
                        [3, 0, 2 ** 40]], dtype=np.int64))
# three ranks times a span of 2^62 + 1 pass int64: Python ints
@example(keys=np.array([[2 ** 62, 0], [0, 1], [2 ** 62, 2], [1, 0], [0, 1]], dtype=np.int64))
def test_distinct_rows_order_is_lexsort(keys):
    # one packing for every width, in stages where the spans pass int64: the
    # order is the stable sort of the rows read from the last column, and
    # starts mark the first row of each run
    order, starts = _distinct_rows(keys)
    assert order.tolist() == np.lexsort(keys.T).tolist()
    rows = keys[order].tolist()
    assert starts.tolist() == [i for i in range(len(rows)) if i == 0 or rows[i] != rows[i - 1]]


# ---------------------------------------------------------------------------
# rational bases: distinct words have distinct keys when m <= p
# ---------------------------------------------------------------------------

# beta = p/q in lowest terms, q = 1 included (integer bases)
rational_bases = st.tuples(st.integers(2, 9), st.integers(1, 8)).filter(
    lambda pq: pq[1] < pq[0] and math.gcd(*pq) == 1)


@PROPERTY_SETTINGS
@given(base=rational_bases, data=st.data())
@example(base=(13, 10), data=None)
def test_rational_keys_are_distinct_up_to_m_p(base, data):
    # the level-n key of a word is sum_j eps_j p^(n-j) q^j; for m <= p the
    # m^n words give m^n distinct keys, and the windowed sweep over all of
    # I_beta returns exactly those keys, unmerged, each with count 1
    p, q = base
    if data is None:
        m, n = 2, 12
    else:
        m = data.draw(st.integers(max(2, -(-p // q)), p), label="m")
        n = data.draw(st.integers(1, int(math.log(3000, m))), label="n")
    sys_ = parse_beta(f"{p}/{q}", m)
    lattice = Lattice(sys_)
    assert lattice.collision_free
    words = itertools.product(range(m), repeat=n)
    want = sorted(sum(e * p ** (n - j) * q ** j for j, e in enumerate(w, 1)) for w in words)
    assert len(set(want)) == m ** n
    *_, (keys, counts) = _swept(lattice, n, 0, sys_.right_end)
    assert sorted(keys[:, 0].tolist()) == want and counts.tolist() == [1] * m ** n
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expansions, "DEFAULT_ATOM_CAP", m ** n)
        *_, (keys, counts) = _swept(lattice, n)
        assert keys[:, 0].tolist() == want and counts.tolist() == [1] * m ** n
        # level n is known to hold m^n states before the first step
        patch.setattr(expansions, "DEFAULT_ATOM_CAP", m ** n - 1)
        with pytest.raises(CapExceededError, match=f"{m ** n} DP states at level {n} exceed"):
            next(lattice.sweep(n))


@PROPERTY_SETTINGS
@given(base=rational_bases, n=st.integers(2, 4))
def test_rational_keys_merge_at_m_p_plus_1(base, n):
    # with digits 0..p the words (q, 0) and (0, p) share the key p q^2 at
    # level 2, so the kernel must merge, as the dict step does
    p, q = base
    sys_ = parse_beta(f"{p}/{q}", p + 1)
    lattice = Lattice(sys_)
    assert not lattice.collision_free
    levels = _swept(lattice, n)
    _assert_levels_match(lattice, levels, dict_lattice_levels(sys_, n))
    assert len(levels[1][1]) < (p + 1) ** 2 and levels[1][1].max() > 1


@PROPERTY_SETTINGS
@given(base=rational_bases, data=st.data(), x=points)
def test_rational_windowed_counts_match_dict_step(base, data, x):
    # collision-free bases (m <= p) skip the merge; m = p + 1 merges
    p, q = base
    m = data.draw(st.integers(max(2, -(-p // q)), p + 1), label="m")
    sys_ = parse_beta(f"{p}/{q}", m)
    x = _fraction_of_interval(sys_, *x)
    depth = int(math.log(20_000, m))  # a ball window may keep most of the m^depth words
    n_max = data.draw(st.integers(0, depth), label="n_max")
    series = [sum(level.values()) for level in dict_lattice_levels(sys_, n_max, x, x)]
    assert prefix_count_series(x, n_max, sys_) == [1] + series
    margin = data.draw(st.integers(0, 3), label="margin")
    levels = data.draw(st.lists(st.integers(1, max(1, depth - margin)), min_size=1, max_size=3),
                       label="levels")
    for n, (lower, upper) in ball_mass_brackets(sys_, x, levels, margin).items():
        # the brackets are mu_L of [x - r, x + r - R beta^-L] and of
        # [x - r - R beta^-L, x + r], L = n + margin; as in interval_mass,
        # mu_L([lo, hi]) counts the words under the window of [lo + R beta^-L, hi]
        length, r = n + margin, sys_.right_end * sys_.rho ** n
        tail = sys_.right_end * sys_.rho ** length
        want = [dict_lattice_levels(sys_, length, x - r + shift, x + r - shift)[-1]
                for shift in (tail, 0)]
        assert (lower, upper) == tuple(Fraction(sum(w.values()), m ** length) for w in want)


@PROPERTY_SETTINGS
@given(base=rational_bases, data=st.data(), wide=st.booleans())
@example(base=(3, 2), data=None, wide=False)
@example(base=(3, 2), data=None, wide=True)
def test_degree_one_sign_rows_match_sign_int_coeffs(base, data, wide):
    # the float screen in degree one and the limb comparisons of `_at_least`:
    # shifts on a row, between rows and past +-2^63, where a float comparison
    # of an int64 row cannot tell 2^63 - 1 from 2^63 - 1/2
    p, q = base
    field = parse_beta(f"{p}/{q}", p).field
    lo, hi = (-2 ** 70, 2 ** 70) if wide else (-INT64_MAX - 1, INT64_MAX)
    edges = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
    if data is None:
        rows = edges
    else:
        rows = data.draw(st.lists(st.one_of(st.integers(lo, hi), st.sampled_from(edges)),
                                  min_size=1, max_size=8), label="rows")
    shifts = [FieldElement(field, (c,)) for c in rows[:2]]  # on a row
    shifts += [FieldElement(field, (7 * rows[0] + 3,), 7),  # between rows
               FieldElement(field, (2 * rows[-1] - 1,), 2)]
    shifts += [FieldElement(field, (n,), d)  # at and past +-2^63
               for n, d in ((2 ** 63, 1), (2 ** 64 - 1, 2), (-2 ** 64 - 1, 2),
                            (-2 ** 63 - 1, 1), (2 ** 200 + 1, 3), (-3 ** 100, 1))]
    matrix = np.array([[c] for c in rows], dtype=object if wide else np.int64)
    signs = field.sign_rows(matrix, *shifts)
    assert signs.dtype == np.int8 and signs.shape == (len(shifts), len(rows))
    values = [Fraction(s.num[0], s.den) for s in shifts]
    for s, value, got in zip(shifts, values, signs.tolist()):
        exact = [field.sign_int_coeffs([s.den * c - s.num[0]]) for c in rows]
        assert got == exact == [(c > value) - (c < value) for c in rows]
    for value in values:
        # c >= value exactly when c >= ceil(value), c <= value when c < floor(value) + 1
        assert _at_least(matrix, math.ceil(value)).tolist() == [c >= value for c in rows]
        assert (~_at_least(matrix, math.floor(value) + 1)).tolist() == [c <= value for c in rows]


# ---------------------------------------------------------------------------
# degree-one keys as int64 limbs
# ---------------------------------------------------------------------------

def _limb_rows(values: list[int], width: int) -> np.ndarray:
    """Nonnegative integers as rows of width little-endian base-2^32 limbs."""
    return np.array([[v >> (32 * i) & (2 ** 32 - 1) for i in range(width - 1)]
                     + [v >> (32 * (width - 1))] for v in values], dtype=np.int64).reshape(-1, width)


def _width(big: int) -> int:
    """The fewest limbs whose last one holds big >> 32 (limbs - 1) in int64."""
    width = 1
    while big >> (32 * (width - 1)) > INT64_MAX:
        width += 1
    return width


def _window_points(sys_, k: int, ends):
    """Points a and b, anywhere on the line, whose level-k prefix window is
    ends = (lo, hi) in key units: lo = (beta lead)^k a - R lead^k and
    hi = (beta lead)^k b."""
    lead = sys_.minpoly.coeffs[-1]
    power = (sys_.beta * lead) ** k
    lo, hi = (sys_.element(e) for e in ends)
    return (lo + sys_.right_end * lead ** k) / power, hi / power


# p = 2^30 - 35, near the largest p kept on limbs, with beta close to 1
limb_bases = st.one_of(rational_bases, st.just((2 ** 30 - 35, 2 ** 30 - 36)))


@PROPERTY_SETTINGS
@given(base=limb_bases, data=st.data())
@example(base=(13, 10), data=None)
def test_limb_step_matches_python_ints(base, data):
    # one windowed step on limb keys against p c + e q^(k+1) in Python ints:
    # the multiply-add and its carries, a widening, the window test with low
    # ends below zero and bounds past the last limb, and the merge at m = p + 1
    p, q = base
    if data is None:
        m, k, values, extra = 2, 27, [0, 1, 2 ** 63 - 1, 13 ** 28, 2 ** 127 - 1], 0
        ends = (Fraction(-1, 3), Fraction(2 ** 130))
    else:
        digits = [m for m in (max(2, -(-p // q)), min(p, 9), p + 1) if m <= 10]
        m = data.draw(st.sampled_from(digits), label="m")
        k = data.draw(st.integers(0, 90), label="k")
        bits = data.draw(st.sampled_from((8, 62, 63, 64, 100, 200)), label="bits")
        values = data.draw(st.lists(st.integers(0, 2 ** bits), min_size=1, max_size=12,
                                    unique=True), label="values")
        extra = data.draw(st.integers(0, 2), label="extra limbs")
        after = sorted(p * c + e * q ** (k + 1) for c in values for e in range(m))
        near = st.sampled_from(after).flatmap(lambda v: st.integers(v - 2, v + 2))
        huge = st.sampled_from((2 ** 300, -2 ** 300, 2 ** 63, 2 ** 64 + 1))
        end = st.tuples(st.one_of(near, huge, st.integers(-2 ** 70, -1)),
                        st.integers(-2, 2)).map(lambda t: Fraction(3 * t[0] + t[1], 3))
        ends = tuple(sorted(data.draw(st.tuples(end, end), label="window")))
    sys_ = parse_beta(f"{p}/{q}", m)
    lattice = Lattice(sys_)
    assert lattice.limbs
    keys = _limb_rows(values, _width(max(values)) + extra)
    counts = np.arange(1, len(values) + 1, dtype=np.int64)
    window = lattice.window(k + 1, *_window_points(sys_, k + 1, ends))
    new_keys, new_counts = lattice.step((keys, counts), k, window)
    want: dict = {}
    for c, count in zip(values, counts.tolist()):
        for e in range(m):
            v = p * c + e * q ** (k + 1)
            if ends[0] <= v <= ends[1]:
                want[v] = want.get(v, 0) + count
    got = key_ints(lattice, new_keys)
    assert dict(zip((row[0] for row in got), new_counts.tolist())) == want
    assert len(got) == len(want) and new_keys.dtype == np.int64
    # every limb below the last is in [0, 2^32)
    assert ((new_keys[:, :-1] >= 0) & (new_keys[:, :-1] < 2 ** 32)).all()
    # the window test on the limb rows themselves
    within = lattice.inside(keys, lattice.window(k, *_window_points(sys_, k, ends))).tolist()
    assert within == [ends[0] <= c <= ends[1] for c in values]


@PROPERTY_SETTINGS
@given(values=st.lists(st.integers(0, 2 ** 150), min_size=2, max_size=12, unique=True),
       extra=st.integers(0, 1))
@example(values=[2 ** 64 - 1, 2 ** 64, 2 ** 127 - 1, 2 ** 127], extra=0)
def test_least_gap_matches_python_ints(values, extra):
    # the least neighbour difference of increasing keys, on limb rows of up
    # to five limbs (borrows across several limbs) and on Python ints; in
    # decreasing order every gap is negative and the least is minus the largest
    values = sorted(values)
    gaps = [b - a for a, b in zip(values, values[1:])]
    rows = _limb_rows(values, _width(values[-1]) + extra)
    assert expansions._least_gap(rows) == min(gaps)
    assert expansions._least_gap(rows[::-1].copy()) == -max(gaps)
    assert expansions._least_gap(np.array([[v] for v in values], dtype=object)) == min(gaps)


def test_widened_raises_when_a_split_cannot_shrink_the_last_limb(monkeypatch):
    # with no room at all a zero last limb cannot be split any smaller
    lattice = Lattice(parse_beta("13/10", 2))
    monkeypatch.setattr(expansions, "INT64_MAX", 0)
    with pytest.raises(InvariantError, match="no split of a limb fits"):
        next(lattice.sweep(1))


INSIDE_SPECS = ("13/10", "1.5", "golden", "poly:-3,0,2")
# key-unit bounds at and past +-2^63, and past the last of three limbs
HUGE_ENDS = (INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2, 2 ** 64 + 1,
             INT64_MAX << 32, (INT64_MAX + 1) << 64, 2 ** 200, -2 ** 200)


@PROPERTY_SETTINGS
@given(spec=st.sampled_from(INSIDE_SPECS), data=st.data())
@example(spec="13/10", data=None)
def test_inside_matches_field_comparisons(systems, spec, data):
    # Lattice.inside against beta^k a - R <= t <= beta^k b in field elements,
    # t = key / lead^k: degree-one rows as int64 limbs of width 1 to 3 or as
    # Python ints, higher degrees as int64 or Python ints, with window ends
    # on a key, next to one, between keys (thirds) and at and past +-2^63
    sys_ = systems[spec]
    lattice, d = Lattice(sys_), sys_.degree
    if data is None:
        k, width, values = 20, 3, [0, 1, INT64_MAX, INT64_MAX << 64, 2 ** 127 - 1]
        rows, ends = _limb_rows(values, width), (INT64_MAX, (INT64_MAX + 1) << 64)
        keys = [[v] for v in values]
    else:
        k = data.draw(st.integers(0, 30), label="k")
        width = data.draw(st.integers(1, 3), label="width") if d == 1 else 0
        entry = (st.integers(0, 2 ** (32 * (width - 1) + 63) - 1) if width
                 else st.integers(-2 ** 70, 2 ** 70) | st.integers(-2 ** 40, 2 ** 40))
        keys = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=8),
                         label="keys")
        if width and data.draw(st.booleans(), label="limbs"):
            rows = _limb_rows([key[0] for key in keys], width)
        else:
            fits = all(abs(c) <= 2 ** 40 for key in keys for c in key)
            rows = np.array(keys, dtype=np.int64 if fits and width == 0 else object)
        near = st.sampled_from(keys).flatmap(lambda key: st.integers(-2, 2).map(
            lambda delta: FieldElement(sys_.field, (3 * key[0] + delta, *(3 * c for c in key[1:])),
                                       3)))
        end = st.one_of(near, st.sampled_from(HUGE_ENDS).map(sys_.element))
        ends = data.draw(st.tuples(end, end), label="ends")
    a, b = _window_points(sys_, k, ends)
    tail, power = sys_.right_end, sys_.beta ** k
    want = []
    for key in keys:
        t = FieldElement(sys_.field, tuple(key), lattice.lead ** k)
        want.append(power * a - tail <= t <= power * b)
    assert lattice.inside(rows, lattice.window(k, a, b)).tolist() == want


WINDOW_SPECS = ("golden", "poly:-3,0,2", "13/10", "3/2")


def _window_values(lattice, window) -> list:
    """The ends of a window as field elements."""
    ends, den = window
    return [FieldElement(lattice.sys.field, tuple(end), den) for end in ends.tolist()]


@PROPERTY_SETTINGS
@given(sys_=st.one_of(st.sampled_from(WINDOW_SPECS).map(lambda spec: parse_beta(spec, 2)),
                      pisot_family),
       a=points, b=points, s=points, k=st.integers(0, 5), steps=st.integers(1, 6))
def test_carried_window_matches_derived(sys_, a, b, s, k, steps):
    # the window a sweep carries, stepped in integers like the digit-0 and
    # digit-(m-1) children, against the one derived at each level from its
    # interval in field elements.  k > 0 restarts a sweep as
    # ball_mass_brackets does: the window of [lo - s, hi + s] carried to
    # level k and narrowed by s beta^k lead^k is that of [lo, hi], and the
    # restarted sweep steps with it, carried on, over states kept under the
    # wider one
    lo, hi = sorted((_fraction_of_interval(sys_, *a), _fraction_of_interval(sys_, *b)))
    lo, hi, s = sys_.element(lo), sys_.element(hi), sys_.element(_fraction_of_interval(sys_, *s))
    lattice = Lattice(sys_)
    level = lattice.start
    window = wide = lattice.window(0, lo - s, hi + s)
    for j, (level, window) in enumerate(lattice.sweep(k, wide), start=1):
        assert _window_values(lattice, window) == _window_values(
            lattice, lattice.window(j, lo - s, hi + s))
    window = lattice.narrowed(window, k, s * sys_.beta ** k)
    assert _window_values(lattice, window) == _window_values(lattice, lattice.window(k, lo, hi))
    carried, step = [], Lattice.step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Lattice, "step", lambda self, states, j, window=None:
                      carried.append((j + 1, window)) or step(self, states, j, window))
        yielded = [window for _level, window in lattice.sweep(k + steps, window, level, k)]
    # the sweep yields the very window each step pruned with
    assert [j for j, _window in carried] == list(range(k + 1, k + steps + 1))
    assert all(window is got for (_j, window), got in zip(carried, yielded, strict=True))
    for j, window in carried:
        assert _window_values(lattice, window) == _window_values(lattice, lattice.window(j, lo, hi))


def test_point_sweep_products_do_not_grow_with_depth():
    # the window's ends step in integers: a golden point sweep makes its
    # field products where it derives the window, none per level
    sys_ = parse_beta("golden", 2)
    x = Fraction(2, 5)
    counts = []
    for n in (10, 40):
        calls, mul = [], FieldElement.__mul__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FieldElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
            prefix_count_series(x, n, sys_)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_windowed_13_10_keys_reach_three_limbs():
    # keys of 13/10 near x = 1/20 pass 2^95 by level 30: three limbs, each
    # level the dict step's keys and counts
    sys_ = parse_beta("13/10", 2)
    lattice = Lattice(sys_)
    x = Fraction(1, 20)
    levels = _swept(lattice, 30, x, x)
    for (keys, counts), expected in zip(levels, dict_lattice_levels(sys_, 30, x, x), strict=True):
        got = dict(zip(map(tuple, key_ints(lattice, keys)), counts.tolist()))
        assert got == expected and len(counts) == len(expected)
    assert levels[-1][0].shape[1] == 3


@pytest.mark.parametrize("spec, n, x, limbs", [("13/10", 40, Fraction(1, 100), True),
                                               ("1.5", 48, Fraction(1, 100), True),
                                               ("2147483659/2147483648", 12, 5, False)])
def test_windowed_degree_one_keys_stay_int64(spec, n, x, limbs):
    # the counterpart of test_kernel_switches_keys_to_python_ints: below
    # p = 2^30 a windowed degree-one sweep never holds dtype-object keys,
    # though its keys pass 2^63; from p = 2^30 on it switches as an
    # unwindowed sweep does
    sys_ = parse_beta(spec, 2)
    lattice = Lattice(sys_)
    assert lattice.limbs is limbs
    x = sys_.element(x)
    levels = _swept(lattice, n, x, x)
    assert (object in [keys.dtype for keys, _c in levels]) is not limbs
    assert max(row[0] for row in key_ints(lattice, levels[-1][0])) > INT64_MAX
