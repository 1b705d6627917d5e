"""Property tests for the lattice DP kernel against the brute-force oracles.

The bases cover both key formats of `expansions.Lattice`: plain int keys
(1.5) and int-tuple keys, monic (golden, tribonacci) and non-monic
(poly:-3,0,2, whose root sqrt(3/2) has a leading coefficient of 2).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagrowth.bconv import interval_mass, level_atoms
from betagrowth.expansions import distinct_sums_count, prefix_count_series
from betagrowth.numberfield import parse_beta

from conftest import brute_distinct_sums, brute_prefix_count

SPECS = ("golden", "multinacci:3", "1.5", "poly:-3,0,2")
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def systems():
    return {spec: parse_beta(spec, 2) for spec in SPECS}


def _fraction_of_interval(sys_, num: int, den: int) -> Fraction:
    """num/den of a rational lower bound of (m-1)/(beta-1): a point of I_beta."""
    right = Fraction(math.floor(float(sys_.right_end) * 1000), 1000)
    return Fraction(num, den) * right


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
