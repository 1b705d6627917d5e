"""Property tests for the lattice DP kernel against the brute-force oracles
and against the dict form of its step (`conftest.dict_lattice_step`), and
for its row merge against a dict of tuples (`conftest.dict_merge_rows`).

The bases cover degree one (1.5 and 13/10) and higher degrees, monic
(golden, tribonacci) and non-monic (poly:-3,0,2, whose root sqrt(3/2) has
a leading coefficient of 2).  13/10 and golden with m = 3 run far enough
that the kernel switches from int64 to Python-int arrays mid-sweep.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betagrowth.bconv import interval_mass, level_atoms
from betagrowth.errors import InvalidInputError
from betagrowth.expansions import (INT64_MAX, Lattice, _distinct_rows, distinct_sums_count,
                                   prefix_count_series)
from betagrowth.numberfield import parse_beta

from conftest import (brute_distinct_sums, brute_prefix_count, dict_lattice_levels,
                      dict_merge_rows)

SPECS = ("golden", "multinacci:3", "1.5", "poly:-3,0,2")
KERNEL_SPECS = SPECS + ("13/10",)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


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
        (w for v, w in level_atoms(sys_, n).items_exact()
         if (v - lo).sign() >= 0 and (hi - v).sign() >= 0),
        Fraction(0),
    )
    assert interval_mass(sys_, n, lo, hi) == direct


def _as_dict(level) -> dict:
    keys, counts = level
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


def _assert_levels_match(kernel_levels, dict_levels) -> list:
    """Compare level by level; return the (key, count) dtypes the kernel used."""
    dtypes = []
    for level, expected in zip(kernel_levels, dict_levels, strict=True):
        assert sorted(_as_dict(level).items()) == sorted(expected.items())
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
    _assert_levels_match(lattice.levels(n, 10 ** 6), dict_lattice_levels(sys_, n))
    windowed = lattice.windowed(lattice.start, 0, n, sys_.element(lo), sys_.element(hi))
    _assert_levels_match(windowed, dict_lattice_levels(sys_, n, lo, hi))


def test_kernel_switches_counts_to_python_ints():
    # 3^40 > 2^63, so the counts of golden with m = 3 leave int64 at level 40
    sys_ = parse_beta("golden", 3)
    x = Fraction(1, 2)
    lattice = Lattice(sys_)
    dtypes = _assert_levels_match(
        lattice.windowed(lattice.start, 0, 42, sys_.element(x), sys_.element(x)),
        dict_lattice_levels(sys_, 42, x, x),
    )
    assert [c for _k, c in dtypes] == [np.int64] * 39 + [object] * 3


def test_kernel_switches_keys_to_python_ints():
    # keys of 13/10 grow like 13^k and pass 2^63 at level 17; the bound taken
    # before each step moves them to Python ints in the middle of the sweep
    sys_ = parse_beta("13/10", 2)
    dtypes = _assert_levels_match(Lattice(sys_).levels(18, 10 ** 6),
                                  dict_lattice_levels(sys_, 18))
    key_dtypes = [k for k, _c in dtypes]
    assert key_dtypes[0] == np.int64 and key_dtypes[-1] == object
    assert key_dtypes == sorted(key_dtypes, key=lambda t: t == object)


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
