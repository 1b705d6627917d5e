import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betagrowth.errors import InvalidInputError
from betagrowth.numberfield import (
    FieldElement,
    MinimalPolynomial,
    NumberField,
    _roots_outside_unit_circle,
    is_pisot,
    multinacci,
    parse_beta,
)

# beta values printed in the multinacci table (6 decimals)
MULTINACCI_BETA = {
    2: 1.618034, 3: 1.839287, 4: 1.927562, 5: 1.965948, 6: 1.983583,
    7: 1.991964, 8: 1.996031, 9: 1.998029, 10: 1.999019,
}


def test_parse_integer_base():
    sys_ = parse_beta("int:2", 2)
    assert float(sys_.beta) == 2.0
    assert sys_.rho.as_fraction() == Fraction(1, 2)
    assert sys_.pisot


def test_parse_golden():
    sys_ = parse_beta("golden", 2)
    assert abs(float(sys_.beta) - 1.618034) < 1e-6
    assert sys_.pisot


def test_parse_multinacci3():
    sys_ = parse_beta("multinacci:3", 2)
    assert abs(float(sys_.beta) - 1.839287) < 1e-6
    assert sys_.pisot


@pytest.mark.parametrize("n", sorted(MULTINACCI_BETA))
def test_multinacci_values_and_identity(n):
    sys_ = multinacci(n)
    assert sys_.m == 2
    assert sys_.pisot
    assert abs(float(sys_.beta) - MULTINACCI_BETA[n]) < 1e-6
    # beta^n - beta^(n-1) - ... - beta - 1 == 0 exactly in the field
    acc = sys_.beta ** n
    for k in range(n):
        acc = acc - sys_.beta ** k
    assert acc.is_zero()


def test_multinacci_range_errors():
    with pytest.raises(InvalidInputError):
        multinacci(1)
    with pytest.raises(InvalidInputError):
        multinacci(11)


def test_rho_times_beta_is_one():
    for spec, m in [("golden", 2), ("multinacci:4", 2), ("1.5", 2), ("int:3", 6), ("2.5", 3)]:
        sys_ = parse_beta(spec, m)
        assert sys_.rho * sys_.beta == sys_.field.one


def test_sign_basics(golden):
    assert golden.field.zero.sign() == 0
    assert (golden.beta - 1).sign() > 0
    assert (golden.beta ** 2 - golden.beta - 1).sign() == 0
    assert (1 - golden.beta).sign() < 0


def test_sign_int_coeffs_beyond_float_range(golden):
    # float(10**400) overflows, so the screen must hand over to exact bisection
    big = 10 ** 400
    assert golden.field.sign_int_coeffs((big, -1)) == 1
    assert golden.field.sign_int_coeffs((-big, big)) == 1       # big * (beta - 1)
    assert golden.field.sign_int_coeffs((big, -big)) == -1      # big * (1 - beta)


def test_sign_never_uses_floats_for_zero(golden):
    # an element with all-zero coefficients short-circuits
    z = golden.field.from_coeffs([0, 0])
    assert z.is_zero() and z.sign() == 0


def test_sign_total_order_against_high_precision(golden):
    rng = random.Random(20260810)
    mpmath.mp.dps = 50
    b = (1 + mpmath.sqrt(5)) / 2
    for _ in range(200):
        c0 = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 997))
        c1 = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 997))
        e = golden.field.from_coeffs([c0, c1])
        v = mpmath.mpf(c0.numerator) / c0.denominator + mpmath.mpf(c1.numerator) / c1.denominator * b
        expected = 0 if v == 0 else (1 if v > 0 else -1)
        assert e.sign() == expected


def test_comparison_trichotomy(golden):
    rng = random.Random(7)
    for _ in range(60):
        a = golden.field.from_coeffs([rng.randint(-50, 50), rng.randint(-50, 50)])
        b = golden.field.from_coeffs([rng.randint(-50, 50), rng.randint(-50, 50)])
        assert (a < b) + (a == b) + (a > b) == 1


def test_field_division(golden):
    e = (golden.beta ** 2 - 1) / (golden.beta - 1)
    assert e == golden.beta + 1
    with pytest.raises(ZeroDivisionError):
        golden.field.one / golden.field.zero


PISOT_POLYS = {
    "golden": [-1, -1, 1],
    "plastic": [-1, -1, 0, 1],
    "x^3 - x^2 - 1": [-1, 0, -1, 1],
    "phi^2, reciprocal": [1, -3, 1],
    **{f"multinacci:{n}": [-1] * n + [1] for n in range(2, 11)},
}

NOT_PISOT_POLYS = {
    "sqrt(3)": [-3, 0, 1],
    "1.5": [-3, 2],
    "Salem quartic": [1, -1, -1, -1, 1],
}

# Lehmer's polynomial, z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1: a
# Salem number with eight conjugates on the unit circle.  It is irreducible,
# but no prime of the trial certificate shows it, so it is built directly.
LEHMER = MinimalPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def test_is_pisot():
    for name, coeffs in PISOT_POLYS.items():
        assert is_pisot(MinimalPolynomial.from_coeffs(coeffs)), name
    for name, coeffs in NOT_PISOT_POLYS.items():
        assert is_pisot(MinimalPolynomial.from_coeffs(coeffs)) is False, name


def test_pisot_salem_undecidable():
    # Salem numbers have conjugates on the unit circle: decided, not Pisot
    p = MinimalPolynomial.from_coeffs([1, -1, -1, -1, 1])
    assert not is_pisot(p)
    assert _roots_outside_unit_circle(p.coeffs) is None
    assert is_pisot(LEHMER) is False
    assert _roots_outside_unit_circle(LEHMER.coeffs) is None


@st.composite
def _integer_polys(draw):
    d = draw(st.integers(2, 10))
    const = draw(st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9)))
    middle = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
    lead = draw(st.sampled_from([1, 1, 1, -1, 2, 3, -5]))
    return [const, *middle, lead]


@settings(max_examples=300, deadline=None)
@given(coeffs=_integer_polys())
def test_outside_root_count_matches_numpy(coeffs):
    # the count needs p(-1) != 0; roots near the circle are beyond float moduli
    assume(sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs)) != 0)
    moduli = np.abs(np.roots(coeffs[::-1]))
    assume(not np.any(np.abs(moduli - 1) < 1e-6))
    assert _roots_outside_unit_circle(coeffs) == int((moduli > 1).sum())


def test_decimal_literal_not_pisot():
    sys_ = parse_beta("1.5", 2)
    assert not sys_.pisot
    assert sys_.rho.as_fraction() == Fraction(2, 3)
    assert sys_.beta_floor() == 1


def test_parse_errors():
    with pytest.raises(InvalidInputError):
        parse_beta("poly:1,0,1", 2)  # x^2 + 1: no real root
    with pytest.raises(InvalidInputError):
        parse_beta("poly:-1,0,1", 2)  # x^2 - 1 reducible
    with pytest.raises(InvalidInputError):
        parse_beta("golden", 1)  # m too small
    with pytest.raises(InvalidInputError):
        parse_beta("1.5", 1)
    with pytest.raises(InvalidInputError):
        parse_beta("poly:" + ",".join(["1"] * 12), 3)  # degree 11 > cap
    with pytest.raises(InvalidInputError):
        parse_beta("nonsense", 2)
    with pytest.raises(InvalidInputError):
        parse_beta("0.75", 2)  # beta <= 1


def test_m_not_smaller_than_beta():
    with pytest.raises(InvalidInputError):
        parse_beta("int:3", 2)
    # equality allowed for integer bases only
    parse_beta("int:3", 3)
    with pytest.raises(InvalidInputError):
        parse_beta("2.5", 2)


def test_right_end(golden):
    # (m-1)/(beta-1) equals beta for the golden ratio
    assert golden.right_end == golden.beta


def test_element_coercion(golden):
    assert golden.element(Fraction(2, 5)).coeffs[0] == Fraction(2, 5)
    assert golden.element("3/7").coeffs[0] == Fraction(3, 7)
    with pytest.raises(InvalidInputError):
        golden.element(0.5)  # floats are rejected


def test_beta_floor():
    assert parse_beta("2.5", 3).beta_floor() == 2
    assert parse_beta("golden", 2).beta_floor() == 1
    assert parse_beta("int:4", 4).beta_floor() == 4


def test_degree10_irreducibility_certificate():
    # the degree-10 multinacci polynomial goes through the mod-p certificate
    sys_ = multinacci(10)
    assert sys_.minpoly.degree == 10
    assert sys_.pisot


def test_equality_across_fields_is_false():
    # golden = 1.618..., the root of x^2 - 2x - 1 is 2.414...; both are (0, 1) / 1
    a = parse_beta("golden", 2).beta
    b = parse_beta("poly:-1,-2,1", 3).beta
    assert a.num == b.num and a.den == b.den
    assert a != b and not (a == b)
    assert len({a, b}) == 2  # equal hashes may collide; equality must not
    with pytest.raises(InvalidInputError):
        a < b


# ---------------------------------------------------------------------------
# property tests of the integer-vector format
# ---------------------------------------------------------------------------

PROPERTY_SPECS = ("golden", "multinacci:3", "1.5", "poly:-3,0,2")


@pytest.fixture(scope="module")
def fields():
    return {spec: parse_beta(spec, 3).field for spec in PROPERTY_SPECS}


fractions_ = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


def _element(field, data):
    return field.from_coeffs(data.draw(st.lists(fractions_, min_size=field.degree,
                                                max_size=field.degree)))


def _is_canonical(e) -> bool:
    return e.den > 0 and math.gcd(e.den, *e.num) == 1


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data())
def test_ring_laws(fields, spec, data):
    field = fields[spec]
    a, b, c = (_element(field, data) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a and a * field.one == a and (a - a).is_zero()
    assert -(-a) == a and a - b == -(b - a)
    for e in (a + b, a - b, a * b, -a):
        assert _is_canonical(e)
    # the reduction is the designated root's: products agree with floats
    assert math.isclose(float(a * b), float(a) * float(b), rel_tol=1e-9, abs_tol=1e-9)
    if not a.is_zero():
        inv = a.inverse()
        assert _is_canonical(inv)
        assert a * inv == field.one
        assert b / a * a == b


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data(), k=st.integers(-50, 50))
def test_canonical_form(fields, spec, data, k):
    field = fields[spec]
    a, b = _element(field, data), _element(field, data)
    assert _is_canonical(a)
    again = (a + b) - b
    assert (again.num, again.den, hash(again)) == (a.num, a.den, hash(a))
    if k:
        scaled = FieldElement(field, tuple(k * c for c in a.num), k * a.den)
        assert (scaled.num, scaled.den, hash(scaled)) == (a.num, a.den, hash(a))
        assert scaled == a


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data())
def test_sign_matches_exact_bisection(fields, spec, data):
    field = fields[spec]
    a = _element(field, data)
    expected = 0 if a.is_zero() else field.sign_of(a.num)
    assert a.sign() == expected
    assert (-a).sign() == -expected


@pytest.mark.parametrize("n", range(1, 41))
def test_sign_near_zero_falls_back_to_bisection(golden, monkeypatch, n):
    # F_{n+1} - F_n beta = (-1/beta)^n: tiny against its coefficients
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    field = golden.field
    e = field.from_coeffs([fib[n + 1], -fib[n]])
    exact = []
    sign_of = field.sign_of
    monkeypatch.setattr(field, "sign_of", lambda coeffs: exact.append(coeffs) or sign_of(coeffs))
    assert e.sign() == (-1) ** n == sign_of(e.num)
    # the screen's bound is 24e-16 * (F_{n+1} + F_n beta) ~ 2e-15 * beta^(n+1);
    # |value| = beta^-n falls below it from n = 35 on
    assert exact == ([e.num] if n >= 35 else [])


def _row_sign(field, row, shift) -> int:
    return field.sign_int_coeffs([shift.den * c - b for c, b in zip(row, shift.num)])


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data(),
       bound=st.sampled_from((50, 2 ** 62, 10 ** 30)), n_random=st.integers(0, 2))
def test_sign_rows_match_sign_int_coeffs(fields, spec, data, bound, n_random):
    field = fields[spec]
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=field.degree,
                                       max_size=field.degree), min_size=1, max_size=6))
    # zero, the value of the first row and that value plus 1/7 (which the
    # screen cannot settle; the exact test of int64 rows against the second
    # needs 7 * row beyond int64), random shifts
    shifts = [field.zero, FieldElement(field, tuple(rows[0])),
              FieldElement(field, tuple(7 * c + (i == 0) for i, c in enumerate(rows[0])), 7)]
    shifts += [_element(field, data) for _ in range(n_random)]
    matrix = np.array(rows, dtype=object if bound > 2 ** 63 else np.int64)
    signs = field.sign_rows(matrix, *shifts)
    assert signs.tolist() == [[_row_sign(field, row, s) for row in rows] for s in shifts]
    assert (signs[1, 0], signs[2, 0]) == (0, -1)


def test_sign_rows_near_zero_rows_fall_back(golden, monkeypatch):
    # F_{n+1} - F_n beta = (-1/beta)^n: the rows of test_sign_near_zero_falls_back_to_bisection
    fib = [0, 1]
    while len(fib) < 42:
        fib.append(fib[-1] + fib[-2])
    field = golden.field
    rows = np.array([[fib[n + 1], -fib[n]] for n in range(1, 41)], dtype=np.int64)
    exact = []
    scalar = field.sign_int_coeffs
    monkeypatch.setattr(field, "sign_int_coeffs",
                        lambda coeffs: exact.append(list(coeffs)) or scalar(coeffs))
    signs = field.sign_rows(rows, field.zero)
    assert signs.tolist() == [[(-1) ** n for n in range(1, 41)]]
    assert signs.tolist() == [[scalar(row) for row in rows.tolist()]]
    # only the rows the float screen cannot settle, n >= 35, go to the exact path
    assert exact == rows[34:].tolist()
    # as shifts, out to n = 80: against a zero row, exact in floats, the
    # shifts' own error bounds must hold back the screen
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    shifts = [FieldElement(field, (fib[n + 1], -fib[n])) for n in range(1, 81)]
    zero_row = np.zeros((1, 2), dtype=np.int64)
    assert field.sign_rows(zero_row, *shifts).tolist() == [[-(-1) ** n] for n in range(1, 81)]


def test_sign_rows_exact_path_does_not_wrap(golden):
    # row - shift = -1/7 with 7 * row beyond int64: the exact test must not
    # multiply the int64 entries in numpy
    field = golden.field
    rows = np.array([[2 ** 62, 3], [-(2 ** 62), 5]], dtype=np.int64)
    shifts = [FieldElement(field, (7 * a + 1, 7 * b), 7) for a, b in rows.tolist()]
    assert field.sign_rows(rows, *shifts).tolist() == [[-1, -1], [1, -1]]


@pytest.mark.parametrize("spec", ["golden", "multinacci:3", "poly:-3,0,2", "poly:-1,-1,0,1"])
def test_refine_to_matches_rational_bisection(spec):
    # the integer bisection reaches the brackets of bisection in Fractions
    sys_ = parse_beta(spec, 2)
    field = NumberField(sys_.minpoly, sys_.root_interval)
    coeffs = field.minpoly.coeffs
    lo, hi = field.bracket()
    for width in (Fraction(1, 10 ** 5), Fraction(1, 10 ** 30), Fraction(3, 10 ** 47)):
        while hi - lo > width:
            mid = (lo + hi) / 2
            value = sum(c * mid ** i for i, c in enumerate(coeffs))
            lo_value = sum(c * lo ** i for i, c in enumerate(coeffs))
            lo, hi = (mid, hi) if (value > 0) == (lo_value > 0) else (lo, mid)
        assert field.refine_to(width) == (lo, hi)
        assert field.bracket() == (lo, hi)


def test_sign_rows_beyond_float_range(golden):
    # terms past 1e308 overflow to inf, and rows past float range cannot be
    # converted at all: both are left to the exact path, without warnings
    field = golden.field
    big = 17 * 10 ** 307  # a float, but not once multiplied by beta
    shifts = [field.zero, FieldElement(field, (0, big)), FieldElement(field, (1, 10 ** 400), 7)]
    for rows in ([[1, big], [big, -big], [3, 5]], [[-1, 10 ** 400], [3, 5]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signs = field.sign_rows(np.array(rows, dtype=object), *shifts)
        assert signs.tolist() == [[_row_sign(field, r, s) for r in rows] for s in shifts]


# ---------------------------------------------------------------------------
# exact ranks of integer rows
# ---------------------------------------------------------------------------

def _exact_ranks(field, rows) -> list[int]:
    values = [FieldElement(field, tuple(row)) for row in rows]
    distinct = sorted(set(values))  # FieldElement order: exact signs
    return [distinct.index(v) for v in values]


def _near_tie_rows(n_values) -> list[list[int]]:
    # F_{n+1} - F_n beta = (-1/beta)^n, tiny against the coefficients
    fib = [0, 1]
    while len(fib) < max(n_values) + 2:
        fib.append(fib[-1] + fib[-2])
    return [[fib[n + 1], -fib[n]] for n in n_values]


def test_rank_rows_near_ties_in_exact_order(golden):
    field = golden.field
    rows = _near_tie_rows(range(1, 41))
    rows = rows[::3] + rows[1::3] + rows[2::3] + [[0, 0], [1, 0], [-1, 0]]
    ranks = field.rank_rows(np.array(rows, dtype=np.int64))
    assert ranks.tolist() == _exact_ranks(field, rows)
    assert sorted(ranks.tolist()) == list(range(len(rows)))


def test_rank_rows_equal_rows_share_a_rank(golden):
    # repeats of near-tie rows, interleaved with rows of the same float value
    field = golden.field
    rows = _near_tie_rows(range(30, 41))
    rows = rows + rows[::-1] + rows[::2]
    ranks = field.rank_rows(np.array(rows, dtype=np.int64)).tolist()
    assert ranks == _exact_ranks(field, rows)
    assert sorted(set(ranks)) == list(range(11))
    assert ranks[:11] == ranks[11:22][::-1]


def test_rank_rows_misordered_presort_falls_back(golden):
    # from n = 50 on, the float values of these rows are rounding noise
    field = golden.field
    rows = np.array(_near_tie_rows(range(50, 62)), dtype=np.int64)
    presort = np.argsort(field.float_rows(rows)[0], kind="stable")
    exact = _exact_ranks(field, rows.tolist())
    assert [exact[i] for i in presort] != sorted(exact)  # the presort misorders
    assert field.rank_rows(rows).tolist() == exact


def test_rank_rows_beyond_int64_and_float_range(golden):
    # Python-int rows: past int64, past float range once multiplied by beta,
    # and past float range altogether; no numpy warning on the way
    field = golden.field
    big = 17 * 10 ** 307
    rows = [[2 ** 70, 1], [big, -big], [1, big], [-1, 10 ** 400], [2 ** 70, 1], [3, -5],
            [0, 10 ** 400]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks = field.rank_rows(np.array(rows, dtype=object))
    assert ranks.tolist() == _exact_ranks(field, rows)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data(),
       bound=st.sampled_from((3, 50, 2 ** 61, 10 ** 30)))
def test_rank_rows_match_exact_order(fields, spec, data, bound):
    # bound 3 draws many equal rows; int64 differences of rows within 2^61 fit
    field = fields[spec]
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=field.degree,
                                       max_size=field.degree), min_size=1, max_size=12))
    matrix = np.array(rows, dtype=object if bound > 2 ** 61 else np.int64)
    assert field.rank_rows(matrix).tolist() == _exact_ranks(field, rows)
