import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betagrowth.errors import InvalidInputError
from betagrowth.numberfield import (
    FieldElement,
    MinimalPolynomial,
    NumberField,
    _factor_degrees_mod_p,
    _has_rational_root,
    _roots_outside_unit_circle,
    _sturm_sequence,
    is_pisot,
    multinacci,
    parse_beta,
)
from conftest import as_fraction, brute_has_rational_root, field_element

# beta values printed in the multinacci table (6 decimals)
MULTINACCI_BETA = {
    2: 1.618034, 3: 1.839287, 4: 1.927562, 5: 1.965948, 6: 1.983583,
    7: 1.991964, 8: 1.996031, 9: 1.998029, 10: 1.999019,
}


def test_parse_integer_base():
    sys_ = parse_beta("int:2", 2)
    assert float(sys_.beta) == 2.0
    assert as_fraction(sys_.rho) == Fraction(1, 2)
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
    # float(10**400) would overflow; the scalar sign is bisection in integers
    # and evaluates no float
    big = 10 ** 400
    assert golden.field.sign_int_coeffs((big, -1)) == 1
    assert golden.field.sign_int_coeffs((-big, big)) == 1       # big * (beta - 1)
    assert golden.field.sign_int_coeffs((big, -big)) == -1      # big * (1 - beta)


def test_sign_never_uses_floats_for_zero(golden):
    # an element with all-zero coefficients short-circuits
    z = field_element(golden.field, [0, 0])
    assert z.is_zero() and z.sign() == 0


def test_sign_total_order_against_high_precision(golden):
    rng = random.Random(20260810)
    mpmath.mp.dps = 50
    b = (1 + mpmath.sqrt(5)) / 2
    for _ in range(200):
        c0 = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 997))
        c1 = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 997))
        e = field_element(golden.field, [c0, c1])
        v = mpmath.mpf(c0.numerator) / c0.denominator + mpmath.mpf(c1.numerator) / c1.denominator * b
        expected = 0 if v == 0 else (1 if v > 0 else -1)
        assert e.sign() == expected


def test_comparison_trichotomy(golden):
    rng = random.Random(7)
    for _ in range(60):
        a = field_element(golden.field, [rng.randint(-50, 50), rng.randint(-50, 50)])
        b = field_element(golden.field, [rng.randint(-50, 50), rng.randint(-50, 50)])
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
# Salem number with eight conjugates on the unit circle.
LEHMER = MinimalPolynomial.from_coeffs([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


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


def _exact_quotient(num, den):
    """num / den for polynomials over Q (constant term first) that divide exactly."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = num[k + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            num[k + i] -= quot[k] * c
    assert not any(num)
    return quot


def _squarefree_parts(coeffs):
    """s_1, s_2, ...: s_j has the distinct roots of multiplicity >= j, each once."""
    p = list(coeffs)
    while len(p) > 1:
        g = _sturm_sequence(p)[-1]  # gcd(p, p') up to a constant
        yield _exact_quotient(p, g)
        p = g


@example(coeffs=[-1, 3, -3, 1])  # (z - 1)^3: numpy's triple root sits 6.6e-6 off the circle
@settings(max_examples=300, deadline=None)
@given(coeffs=_integer_polys())
def test_outside_root_count_matches_numpy(coeffs):
    # the count needs p(-1) != 0; a root at 1 is on the circle
    assume(sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs)) != 0)
    if sum(coeffs) == 0:
        assert _roots_outside_unit_circle(coeffs) is None
        return
    # numpy moves a root of multiplicity j by about the j-th root of the
    # float precision, a simple root by about the precision: it gets the
    # squarefree parts, whose outside counts add up to the count with
    # multiplicity, and roots near the circle are beyond their float moduli
    moduli = [np.abs(np.roots([float(c) for c in s[::-1]])) for s in _squarefree_parts(coeffs)]
    assume(not np.any(np.abs(moduli[0] - 1) < 1e-6))
    assert _roots_outside_unit_circle(coeffs) == sum(int((m > 1).sum()) for m in moduli)


@st.composite
def _rational_root_polys(draw):
    """Degree 1..8, small coefficients, lead in {+-1, 2, 3, -5, 6}; half of
    them (q x - p) g(x) with a planted root p/q, q dividing the lead."""
    lead = draw(st.sampled_from([1, -1, 2, 3, -5, 6]))
    if not draw(st.booleans()):
        d = draw(st.integers(1, 8))
        return draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)) + [lead]
    q = draw(st.sampled_from([k for k in range(1, 7) if lead % k == 0]))
    p = draw(st.integers(-9, 9))
    g = draw(st.lists(st.integers(-9, 9), max_size=7)) + [lead // q]
    f = [0] * (len(g) + 1)
    for i, c in enumerate(g):
        f[i] -= p * c
        f[i + 1] += q * c
    return f


@example(coeffs=[1, -5, 6])  # (2x - 1)(3x - 1): roots 1/lead apart
@example(coeffs=[1, -4, 5, -4, 4])  # (2x - 1)^2 (x^2 + 1): a double root
@example(coeffs=[0, 0, 0, 1])  # x^3
@settings(max_examples=400, deadline=None)
@given(coeffs=_rational_root_polys())
def test_rational_root_matches_trial_division(coeffs):
    assert _has_rational_root(coeffs) == brute_has_rational_root(coeffs)


def test_decimal_literal_not_pisot():
    sys_ = parse_beta("1.5", 2)
    assert not sys_.pisot
    assert as_fraction(sys_.rho) == Fraction(2, 3)
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


def test_lehmer_polynomial_parses():
    # irreducible mod no prime, but its factor degrees mod 2 and mod 3
    # leave no degree a factor over Z could have
    sys_ = parse_beta("poly:" + ",".join(map(str, LEHMER.coeffs)), 2)
    assert sys_.minpoly == LEHMER
    assert not sys_.pisot
    assert 1.17628 < float(sys_.beta) < 1.17629


def test_factor_degrees_mod_p():
    assert _factor_degrees_mod_p(LEHMER.coeffs, 2) == [5, 5]
    assert _factor_degrees_mod_p(LEHMER.coeffs, 3) == [2, 8]
    assert _factor_degrees_mod_p([-1, -1, 0, 0, 1], 2) == [4]  # irreducible mod 2
    assert _factor_degrees_mod_p([1, 0, 2, 0, 1], 3) is None  # (x^2 + 1)^2 mod 3
    assert _factor_degrees_mod_p([1, 0, 0, 0, 3], 3) is None  # p divides the lead


def test_no_rational_root_rules_out_degree_one():
    # 3x^8 + 5x^7 + 3x^6 + 6x^5 + x^4 + 6x^3 - 4x^2 + 2x + 6 is irreducible and
    # has a linear factor mod every usable prime, which the rational-root test
    # rules out over Z; then p = 11, degrees [1, 7], leaves no degree 2..6
    coeffs = [6, 2, -4, 6, 1, 6, 3, 5, 3]
    assert _factor_degrees_mod_p(coeffs, 11) == [1, 7]
    assert MinimalPolynomial.from_coeffs(coeffs).coeffs == tuple(coeffs)


def test_reducible_without_rational_root_rejected():
    # (x^2 + 1)(x^2 - x - 1), and x^4 + 1, which is irreducible but reducible
    # mod every prime, so no certificate can show it
    for coeffs in ([-1, -1, 0, -1, 1], [1, 0, 0, 0, 1]):
        with pytest.raises(InvalidInputError, match="cannot certify .* factor of degree 2"):
            MinimalPolynomial.from_coeffs(coeffs)


@st.composite
def _factor_pairs(draw):
    dg = draw(st.integers(2, 8))
    dh = draw(st.integers(2, 10 - dg))
    return [draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k)) + [draw(st.integers(1, 5))]
            for k in (dg, dh)]


@settings(max_examples=150, deadline=None)
@given(pair=_factor_pairs())
def test_products_are_rejected(pair):
    with pytest.raises(InvalidInputError, match="reducible|cannot certify"):
        MinimalPolynomial.from_coeffs(np.convolve(*pair).tolist())


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

# poly:-1,-1,0,-1,2 is 2x^4 - x^3 - x - 1 (beta ~ 1.173): non-monic, degree 4
PROPERTY_SPECS = ("golden", "multinacci:3", "1.5", "poly:-3,0,2", "poly:-1,-1,0,-1,2")


@pytest.fixture(scope="module")
def fields():
    return {spec: parse_beta(spec, 3).field for spec in PROPERTY_SPECS}


@pytest.fixture(scope="module")
def roots(fields):
    """beta of each property base to 60 digits, by Newton's method from its
    float value in mpmath."""
    out = {}
    with mpmath.workdps(60):
        for spec, field in fields.items():
            coeffs = field.minpoly.coeffs[::-1]  # highest degree first
            root = mpmath.findroot(lambda t: mpmath.polyval(coeffs, t), float(field.beta))
            assert abs(root - float(field.beta)) < 1e-12
            out[spec] = root
    return out


fractions_ = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


def _element(field, data):
    return field_element(field, data.draw(st.lists(fractions_, min_size=field.degree,
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
def test_sign_matches_exact_bisection(fields, roots, spec, data):
    field = fields[spec]
    a = _element(field, data)
    if field.degree == 1:
        expected = (a.num[0] > 0) - (a.num[0] < 0)  # the value is num_0 / den
    else:
        with mpmath.workdps(60):
            value = mpmath.fsum(c * roots[spec] ** k for k, c in enumerate(a.num))
            assert a.is_zero() or abs(value) > mpmath.mpf(10) ** -40
            expected = (value > 0) - (value < 0)
    assert a.sign() == expected
    assert (-a).sign() == -expected


@pytest.mark.parametrize("n", range(1, 41))
def test_sign_near_zero_falls_back_to_bisection(golden, monkeypatch, n):
    # F_{n+1} - F_n beta = (-1/beta)^n: tiny against its coefficients
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    field = golden.field
    e = field_element(field, [fib[n + 1], -fib[n]])
    exact = []
    sign_of = field.sign_of
    monkeypatch.setattr(field, "sign_of", lambda coeffs: exact.append(coeffs) or sign_of(coeffs))
    assert e.sign() == (-1) ** n == sign_of(e.num)
    # a scalar sign tries no float screen first: even where a screen's
    # bound, about 2e-15 * beta^(n+1), is far below |value| = beta^-n, the
    # sign comes from one bisection query
    assert exact == [e.num]


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


@pytest.mark.parametrize("spec", ["golden", "multinacci:3", "poly:-3,0,2"])
def test_beta_float_powers_rounded_once(spec):
    # a later bisection narrows the bracket but keeps the floats already used
    sys_ = parse_beta(spec, 2)
    field = NumberField(sys_.minpoly, sys_.root_interval)
    powers = field.beta_float_powers()
    lo, hi = field.bracket()
    assert field.refine_to((hi - lo) / 2) != (lo, hi)
    assert field.beta_float_powers() is powers


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


def _check_tagged_ranks(field, rows, tags, ranks) -> None:
    # within each tag, the exact dense ranks counted from the tag's least;
    # the tags' rank ranges are disjoint and ascend with the tag
    last = -1
    for tag in sorted(set(tags)):
        members = [i for i, t in enumerate(tags) if t == tag]
        got = [ranks[i] for i in members]
        assert min(got) > last
        assert [r - min(got) for r in got] == _exact_ranks(field, [rows[i] for i in members])
        last = max(got)


def _near_tie_rows(n_values) -> list[list[int]]:
    # F_{n+1} - F_n beta = (-1/beta)^n, tiny against the coefficients
    fib = [0, 1]
    while len(fib) < max(n_values) + 2:
        fib.append(fib[-1] + fib[-2])
    return [[fib[n + 1], -fib[n]] for n in n_values]


def _rank_untagged(field, rows):
    """`rank_rows` with every row in one tag."""
    return field.rank_rows(rows, np.zeros(len(rows), dtype=np.intp))


def test_rank_rows_near_ties_in_exact_order(golden):
    field = golden.field
    rows = _near_tie_rows(range(1, 41))
    rows = rows[::3] + rows[1::3] + rows[2::3] + [[0, 0], [1, 0], [-1, 0]]
    ranks = _rank_untagged(field, np.array(rows, dtype=np.int64))
    assert ranks.tolist() == _exact_ranks(field, rows)
    assert sorted(ranks.tolist()) == list(range(len(rows)))


def test_rank_rows_equal_rows_share_a_rank(golden):
    # repeats of near-tie rows, interleaved with rows of the same float value
    field = golden.field
    rows = _near_tie_rows(range(30, 41))
    rows = rows + rows[::-1] + rows[::2]
    ranks = _rank_untagged(field, np.array(rows, dtype=np.int64)).tolist()
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
    assert _rank_untagged(field, rows).tolist() == exact


def test_rank_rows_beyond_int64_and_float_range(golden):
    # Python-int rows: past int64, past float range once multiplied by beta,
    # and past float range altogether; no numpy warning on the way
    field = golden.field
    big = 17 * 10 ** 307
    rows = [[2 ** 70, 1], [big, -big], [1, big], [-1, 10 ** 400], [2 ** 70, 1], [3, -5],
            [0, 10 ** 400]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks = _rank_untagged(field, np.array(rows, dtype=object))
    assert ranks.tolist() == _exact_ranks(field, rows)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), data=st.data(),
       bound=st.sampled_from((3, 50, 2 ** 61, 10 ** 30)))
def test_rank_rows_match_exact_order(fields, spec, data, bound):
    # bound 3 draws many equal rows; int64 differences of rows within 2^61 fit
    field = fields[spec]
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=field.degree,
                                       max_size=field.degree), min_size=1, max_size=12))
    tags = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    matrix = np.array(rows, dtype=object if bound > 2 ** 61 else np.int64)
    assert _rank_untagged(field, matrix).tolist() == _exact_ranks(field, rows)
    _check_tagged_ranks(field, rows, tags, field.rank_rows(matrix, np.array(tags)).tolist())


@pytest.mark.parametrize("dtype,scale", [(np.int64, 1), (object, 2 ** 70)],
                         ids=["int64", "object"])
def test_rank_rows_misordered_tag_beside_ordered_tags(golden, dtype, scale, comparison_sorts):
    # tag 1 holds near ties whose presort misorders (n >= 50), tags 0 and 2
    # rows that the proven presort ranks; the rows of the tags interleave,
    # and only tag 1 takes the comparison sort
    field = golden.field
    ties = _near_tie_rows(range(50, 62))
    spread = _near_tie_rows(range(1, 12)) + [[0, 0], [1, 0], [1, 0]]
    rows = [[scale * c for c in row] for row in spread + ties + spread[::-1]]
    tags = [0] * len(spread) + [1] * len(ties) + [2] * len(spread)
    mix = list(range(len(rows)))
    random.Random(1).shuffle(mix)
    rows, tags = [rows[i] for i in mix], [tags[i] for i in mix]
    ranks = field.rank_rows(np.array(rows, dtype=dtype), np.array(tags)).tolist()
    _check_tagged_ranks(field, rows, tags, ranks)
    assert len(comparison_sorts) == 1
