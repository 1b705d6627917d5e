"""Exact arithmetic in Q(beta) for a designated real root beta > 1.

An element is an integer coefficient vector over one positive denominator,
(sum_i num_i beta^i) / den with i below the degree of the minimal
polynomial, kept in lowest terms; equality, hashing and the zero test are
exact integer checks.  Every sign query goes through `sign_int_coeffs`, or
`sign_rows` for the rows of an integer matrix: a float evaluation screens
it under a proven error bound, and values too close to zero for the
screen are settled exactly by `sign_of`, which refines an isolating
interval of the root by bisection in integers.  Pisot status is decided
exactly by a Routh-Hurwitz count on a Sturm remainder chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, InvariantError

MAX_DEGREE = 10

# Primes tried for the mod-p irreducibility certificate.
_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# Coefficient bound of the small-factor search run when no prime certifies.
SMALL_FACTOR_BOUND = 20

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _trim(p: list) -> list:
    """Drop trailing zero coefficients in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(coeffs: Sequence[Rational], x: Rational) -> Rational:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(k) * coeffs[k] for k in range(1, len(coeffs))]


def _poly_rem(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dd and any(num):
        _trim(num)
        if len(num) - 1 < dd:
            break
        q = num[-1] / lead
        shift = len(num) - 1 - dd
        for i, c in enumerate(den):
            num[shift + i] -= q * c
        num.pop()
    return _trim(num)


def _sturm_sequence(coeffs: Sequence[Fraction],
                    second: Sequence[Fraction] | None = None) -> list[list[Fraction]]:
    """Remainder chain f, g, -rem(f, g), ...; g defaults to f'.

    Its sign variations satisfy V(a) - V(b) = Cauchy index of g/f over
    (a, b); for g = f' that is the number of distinct real roots of f.
    The last entry is gcd(f, g) up to a constant.
    """
    seq = [list(coeffs), _poly_derivative(coeffs) if second is None else list(second)]
    while seq[-1]:
        rem = _poly_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in rem])
    return [p for p in seq if p]


def _sign_variations(values: Iterable[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _index_over_reals(sturm: Sequence[Sequence[Fraction]]) -> int:
    """V(-inf) - V(+inf) of a chain, read off leading coefficients and degrees."""
    at_plus = [p[-1] for p in sturm]
    at_minus = [c if len(p) % 2 else -c for p, c in zip(sturm, at_plus)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def _roots_in_interval(sturm: Sequence[Sequence[Fraction]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]; endpoints must not be roots of f."""
    va = _sign_variations(_poly_eval(p, a) for p in sturm)
    vb = _sign_variations(_poly_eval(p, b) for p in sturm)
    return va - vb


# ---------------------------------------------------------------------------
# irreducibility: rational roots, mod-p certificate, small-factor witness
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def _has_rational_root(coeffs: Sequence[int]) -> bool:
    if coeffs[0] == 0:
        return True
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            for sign in (1, -1):
                if _poly_eval([Fraction(c) for c in coeffs], Fraction(sign * p, q)) == 0:
                    return True
    return False


def _gf_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce mod f (f monic)
    d = len(f) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] = (prod[k - d + i] - c * f[i]) % p
    return _trim(prod[:d])


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        r = [c % p for c in a]
        while len(r) >= len(b):
            r = _trim(r)
            if len(r) < len(b):
                break
            q = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - q * c) % p
            r = _trim(r)
        a, b = b, r
    return a


def _gf_pow_x(e: int, f: list[int], p: int) -> list[int]:
    """x**e modulo (f, p) by square and multiply."""
    result = [1]
    base = [0, 1] if len(f) > 2 else _gf_mulmod([0, 1], [1], f, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, p)
        base = _gf_mulmod(base, base, f, p)
        e >>= 1
    return result


def _gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _irreducible_mod_p(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test for irreducibility of coeffs over GF(p)."""
    d = len(coeffs) - 1
    lead_inv = pow(coeffs[-1] % p, p - 2, p)
    f = [(c * lead_inv) % p for c in coeffs]
    if len(_trim(list(f))) - 1 != d:
        return False
    x = [0, 1]
    if _gf_sub(_gf_pow_x(p ** d, f, p), x, p):
        return False
    prime_divs = {q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))}
    for q in prime_divs:
        diff = _gf_sub(_gf_pow_x(p ** (d // q), f, p), x, p)
        g = _gf_gcd(f, diff, p)
        if len(g) != 1:
            return False
    return True


def _small_factor_witness(coeffs: Sequence[int]) -> bool:
    """Search for a monic integer factor of degree 2..3 with coefficients
    bounded by SMALL_FACTOR_BOUND; True if found."""
    d = len(coeffs) - 1
    fr = [Fraction(c) for c in coeffs]
    for k in (2, 3):
        if k > d // 2:
            break
        rng = range(-SMALL_FACTOR_BOUND, SMALL_FACTOR_BOUND + 1)
        for c0 in rng:
            for c1 in rng:
                if k == 2:
                    if not _poly_rem(fr, [Fraction(c0), Fraction(c1), Fraction(1)]):
                        return True
                else:
                    for c2 in rng:
                        if not _poly_rem(
                            fr, [Fraction(c0), Fraction(c1), Fraction(c2), Fraction(1)]
                        ):
                            return True
    return False


def _check_irreducible(coeffs: Sequence[int]) -> None:
    d = len(coeffs) - 1
    if d == 1:
        return
    if _has_rational_root(coeffs):
        raise InvalidInputError(f"polynomial {list(coeffs)} is reducible (rational root)")
    if d <= 3:
        return
    for p in _CERT_PRIMES:
        if coeffs[-1] % p == 0:
            continue
        if _irreducible_mod_p(coeffs, p):
            return
    if _small_factor_witness(coeffs):
        raise InvalidInputError(f"polynomial {list(coeffs)} is reducible (small factor)")
    raise InvalidInputError(
        f"cannot verify irreducibility of {list(coeffs)} by trial methods"
    )


@dataclass(frozen=True)
class MinimalPolynomial:
    """Primitive integer polynomial, constant term first, irreducible over Q."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return self.coeffs[-1] == 1

    @staticmethod
    def from_coeffs(seq: Sequence[int]) -> "MinimalPolynomial":
        coeffs = [int(c) for c in seq]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise InvalidInputError("minimal polynomial must have degree >= 1")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise InvalidInputError(f"degree {len(coeffs) - 1} exceeds cap {MAX_DEGREE}")
        g = 0
        for c in coeffs:
            g = math.gcd(g, c)
        coeffs = [c // g for c in coeffs]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        _check_irreducible(coeffs)
        return MinimalPolynomial(tuple(coeffs))


class FieldElement:
    """Element (sum_i num_i beta^i) / den of Q(beta), i < deg(minpoly).

    The integer vector num and the denominator den are kept in canonical
    form: den > 0 and gcd(num_0, ..., num_{d-1}, den) = 1.  Since 1, beta,
    ..., beta^(d-1) is a basis, equal values have equal (num, den), so
    equality and hashing are tuple operations.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "NumberField", num: tuple[int, ...], den: int = 1):
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients num_i / den as Fractions (output and ordering keys)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise InvalidInputError("elements from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return FieldElement(self.field, tuple(a + b for a, b in zip(self.num, o.num)), self.den)
        sd, od = self.den, o.den
        return FieldElement(self.field, tuple(a * od + b * sd for a, b in zip(self.num, o.num)),
                            sd * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return FieldElement(self.field, tuple(a - b for a, b in zip(self.num, o.num)), self.den)
        sd, od = self.den, o.den
        return FieldElement(self.field, tuple(a * od - b * sd for a, b in zip(self.num, o.num)),
                            sd * od)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other.numerator for a in self.num),
                                self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num, scale = self.field._mul(self.num, o.num)
        return FieldElement(self.field, num, self.den * o.den * scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return FieldElement(self.field, tuple(a * other.denominator for a in self.num),
                                self.den * other.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self.field.from_coeffs(self.field._inverse(self.num)) * self.den

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def sign(self) -> int:
        """-1, 0 or +1 at the designated real embedding; exact (den > 0)."""
        return self.field.sign_int_coeffs(self.num)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                return False
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Exact value when the element is rational; error otherwise."""
        if any(self.num[1:]):
            raise InvalidInputError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __float__(self) -> float:
        beta = self.field.beta_float_powers()
        return float(sum(float(c) * b for c, b in zip(self.coeffs, beta)))

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


class NumberField:
    """Q[x]/(p) together with an isolating interval for the designated root.

    The isolating interval is refined lazily by bisection; refinement is the
    only mutable state.
    """

    def __init__(self, minpoly: MinimalPolynomial, bracket: tuple[Fraction, Fraction]):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._lead = minpoly.coeffs[-1]
        self._row = tuple(-c for c in minpoly.coeffs[:-1])  # lead*beta^d = sum row_i beta^i
        self._lo, self._hi = bracket
        self._float_powers: tuple[float, ...] | None = None
        zeros = (0,) * self.degree
        self.zero = FieldElement(self, zeros)
        self.one = FieldElement(self, (1,) + zeros[1:])
        if self.degree >= 2:
            self.beta = FieldElement(self, (0, 1) + zeros[2:])
        else:
            # degree one: the generator is the rational root itself
            self.beta = FieldElement(self, self._row, self._lead)

    # -- construction helpers ------------------------------------------------

    def rational(self, r: Rational) -> FieldElement:
        return FieldElement(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise InvalidInputError("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        if isinstance(value, str):
            return self.rational(Fraction(value))
        if isinstance(value, float):
            raise InvalidInputError("floats are not accepted; pass an exact rational")
        raise InvalidInputError(f"cannot coerce {value!r} into the field")

    def from_coeffs(self, coeffs: Sequence[Rational]) -> FieldElement:
        if len(coeffs) > self.degree:
            raise InvalidInputError("coefficient vector longer than field degree")
        vec = [Fraction(c) for c in coeffs] + [Fraction(0)] * (self.degree - len(coeffs))
        den = math.lcm(*(c.denominator for c in vec))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in vec), den)

    # -- multiplication / inversion ------------------------------------------

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(c, s) with a * b = c / s, for integer coefficient vectors a, b."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        lead = self._lead
        scale = 1
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                # c beta^k = c beta^(k-d) (sum row_i beta^i) / lead
                if lead != 1:
                    for i in range(k):
                        prod[i] *= lead
                    scale *= lead
                for i, r in enumerate(self._row):
                    prod[k - d + i] += c * r
        return tuple(prod[:d]), scale

    def _inverse(self, a: Sequence[int]) -> list[Fraction]:
        """Coefficients of 1/a for a nonzero integer vector a.

        Column j of the linear system is a*beta^j; Gauss-Jordan elimination
        over Q solves for the coordinates u of sum_j u_j a beta^j = 1.
        """
        d = self.degree
        rows = [[Fraction(0)] * d + [Fraction(int(i == 0))] for i in range(d)]
        col, scale = tuple(a), 1
        for j in range(d):
            for i in range(d):
                rows[i][j] = Fraction(col[i], scale)
            if j + 1 < d:
                col, s = self._mul(col, self.beta.num)
                scale *= s
        for j in range(d):
            p = next(i for i in range(j, d) if rows[i][j])
            rows[j], rows[p] = rows[p], rows[j]
            pivot = [v / rows[j][j] for v in rows[j]]
            rows[j] = pivot
            for i in range(d):
                if i != j and rows[i][j]:
                    f = rows[i][j]
                    rows[i] = [v - f * w for v, w in zip(rows[i], pivot)]
        return [r[d] for r in rows]

    # -- sign determination ----------------------------------------------------

    def bracket(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def _bisect(self, steps: int) -> None:
        """Halve the isolating interval `steps` times, in integers: over one
        denominator q with a factor 2^steps every midpoint n is an integer,
        and q^d p(n/q) = sum_i c_i n^i q^(d-i) has the sign of p(n/q)."""
        q = math.lcm(self._lo.denominator, self._hi.denominator) << steps
        lo, hi = int(self._lo * q), int(self._hi * q)
        scaled = [c * q ** (self.degree - i) for i, c in enumerate(self.minpoly.coeffs)]
        rising = _poly_eval(scaled, lo) < 0
        for _ in range(steps):
            mid = (lo + hi) >> 1
            v = _poly_eval(scaled, mid)
            if v == 0:
                raise InvariantError("bisection midpoint is a root; polynomial not irreducible?")
            lo, hi = (mid, hi) if (v < 0) == rising else (lo, mid)
        self._lo, self._hi = Fraction(lo, q), Fraction(hi, q)
        self._float_powers = None

    def refine_to(self, width: Fraction) -> tuple[Fraction, Fraction]:
        # the fewest halvings t with (hi - lo) / 2^t <= width
        gap = self._hi - self._lo
        ratio = -(-gap.numerator * width.denominator // (width.numerator * gap.denominator))
        if ratio > 1:
            self._bisect((ratio - 1).bit_length())
        return self._lo, self._hi

    def sign_of(self, coeffs: Sequence[int]) -> int:
        """Sign of sum(c_k beta^k) for a *nonzero* integer vector, by bisection."""
        while True:
            vlo, vhi = _interval_horner(coeffs, self._lo, self._hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if self._lo == self._hi:
                # degree-one field: evaluation was exact, value must be zero
                raise InvariantError("sign query on zero element slipped through")
            self._bisect(1)

    def beta_float_powers(self) -> tuple[float, ...]:
        if self._float_powers is None:
            mid = sum(self.refine_to(Fraction(1, 10 ** 30))) / 2
            self._float_powers = tuple(float(mid ** k) for k in range(self.degree))
        return self._float_powers

    def float_error(self, mag):
        """Proven bound on the float error of sum(c_k beta^k), evaluated with
        `beta_float_powers` and one final rounding, given mag = sum(|c_k| beta^k)."""
        return mag * ((self.degree + 4) * 4e-16)

    def _float_value(self, num: Sequence[int], den: int = 1) -> tuple[float, float]:
        """Float value of (sum_k num_k beta^k) / den, the terms added left to
        right, and its error bound; (nan, inf) beyond float range."""
        val = mag = 0.0
        try:
            for c, p in zip(num, self.beta_float_powers()):
                term = c * p
                val += term
                mag += abs(term)
            den = float(den)
        except OverflowError:
            return math.nan, math.inf
        return val / den, self.float_error(mag) / den

    def sign_int_coeffs(self, coeffs: Sequence[int]) -> int:
        """Exact sign of sum(c_k beta^k) for integer coefficients.

        A float evaluation with a proven error bound (`float_error`) screens
        the easy cases; near-zero values, and coefficients beyond float
        range, fall back to interval bisection (`sign_of`).
        """
        if not any(coeffs):
            return 0
        val, err = self._float_value(coeffs)
        if val > err:
            return 1
        if val < -err:
            return -1
        return self.sign_of(coeffs)

    def float_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float values of sum_i rows[r, i] beta^i over the rows of an integer
        matrix, terms added left to right as in `_float_value`, and their
        error bounds (`float_error`); nan and inf beyond float range."""
        try:
            terms = rows.astype(float)
        except OverflowError:
            return np.full(len(rows), math.nan), np.full(len(rows), math.inf)
        terms *= self.beta_float_powers()
        mags = np.abs(terms)
        val, mag = terms[:, 0], mags[:, 0]
        for i in range(1, self.degree):
            val = val + terms[:, i]
            mag = mag + mags[:, i]
        return val, self.float_error(mag)

    def sign_rows(self, rows: np.ndarray, *shifts: FieldElement) -> np.ndarray:
        """Exact signs of sum_i rows[r, i] beta^i - shift, int8 of shape
        (shifts, rows), for each shift given: a row farther from the shift
        than both float error bounds together is settled (proof:
        DECISIONS.md), the rest go to `sign_int_coeffs`."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan stay unsettled
            val, err = self.float_rows(rows)
            bounds = np.array([self._float_value(s.num, s.den) for s in shifts])
            diff = val - bounds[:, :1]
            signs = (diff > 0).view(np.int8) - (diff < 0)
            unsettled = ~(np.subtract(np.abs(diff, out=diff), bounds[:, 1:], out=diff) > err)
        for j, r in zip(*np.nonzero(unsettled)):
            s, row = shifts[j], rows[r].tolist()  # Python ints: den * c must not wrap
            signs[j, r] = self.sign_int_coeffs([s.den * c - b for c, b in zip(row, s.num)])
        return signs

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense ranks of the values sum_i rows[r, i] beta^i of an integer
        matrix: equal values share a rank and rank order is value order,
        exactly.  The rows are presorted by float value and the presort is
        proven by the signs of adjacent differences (`sign_rows`), or, if one
        is negative, replaced by an exact comparison sort.  The differences
        must fit the rows' dtype."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan sort anywhere
            order = np.argsort(self.float_rows(rows)[0], kind="stable")
        ordered = rows[order]
        steps = ordered[1:] - ordered[:-1]
        new = (steps != 0).any(axis=1)  # equal rows are equal values
        if (self.sign_rows(steps[new], self.zero) < 0).any():
            def compare(i, j):
                return self.sign_int_coeffs([a - b for a, b in zip(rows[i].tolist(), rows[j].tolist())])
            order = np.array(sorted(range(len(rows)), key=functools.cmp_to_key(compare)), dtype=np.intp)
            ordered = rows[order]
            new = (ordered[1:] != ordered[:-1]).any(axis=1)
        rank = np.empty(len(rows), dtype=np.intp)
        rank[order] = np.concatenate(([0], np.cumsum(new)))
        return rank


def _interval_horner(
    coeffs: Sequence[int], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of sum(c_k * t^k) over t in [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        p1, p2, p3, p4 = alo * lo, alo * hi, ahi * lo, ahi * hi
        alo = min(p1, p2, p3, p4) + c
        ahi = max(p1, p2, p3, p4) + c
    return alo, ahi


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def _isolate_largest_root_above_one(minpoly: MinimalPolynomial) -> tuple[Fraction, Fraction]:
    coeffs = [Fraction(c) for c in minpoly.coeffs]
    if minpoly.degree == 1:
        root = Fraction(-minpoly.coeffs[0], minpoly.coeffs[1])
        if root <= 1:
            raise InvalidInputError("no real root greater than 1")
        return root, root
    if _poly_eval(coeffs, Fraction(1)) == 0:
        raise InvalidInputError("polynomial vanishes at 1; not a valid base")
    bound = Fraction(1) + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    sturm = _sturm_sequence(coeffs)
    total = _roots_in_interval(sturm, Fraction(1), bound)
    if total == 0:
        raise InvalidInputError("no real root greater than 1")
    lo, hi = Fraction(1), bound
    count = total
    while count > 1:
        mid = (lo + hi) / 2
        right = _roots_in_interval(sturm, mid, hi)
        if right >= 1:
            lo, count = mid, right
        else:
            hi, count = mid, count - right
    # ensure a sign change bracket for bisection refinement
    while _poly_eval(coeffs, lo) == 0 or (
        (_poly_eval(coeffs, lo) > 0) == (_poly_eval(coeffs, hi) > 0)
    ):
        mid = (lo + hi) / 2
        if _roots_in_interval(sturm, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Pisot decision
# ---------------------------------------------------------------------------

def _roots_outside_unit_circle(coeffs: Sequence[int]) -> int | None:
    """Number of roots with |z| > 1 of an integer polynomial of degree
    d >= 2 with p(-1) != 0, or None when a root lies on the unit circle.

    z = (1 + w)/(1 - w) maps |z| > 1 onto Re w > 0, and p onto q(w) =
    sum_k p_k (1 + w)^k (1 - w)^(d - k), of degree d since p(-1) != 0.
    With q(iy) = A(y) + i B(y), roots of q on the imaginary axis are the
    real roots of gcd(A, B), and otherwise (Routh-Hurwitz, Gantmacher ch.
    XV) q has (d - I)/2 roots in Re w > 0, I the Cauchy index over the
    reals of A/B for odd d and of -B/A for even d.
    """
    d = len(coeffs) - 1
    q = [sum(pk * math.comb(k, i) * math.comb(d - k, j - i) * (-1) ** (j - i)
             for k, pk in enumerate(coeffs) for i in range(min(k, j) + 1))
         for j in range(d + 1)]
    # i^j = 1, i, -1, -i: the real and imaginary parts of q(iy)
    a = _trim([Fraction((1, 0, -1, 0)[j % 4] * c) for j, c in enumerate(q)])
    b = _trim([Fraction((0, 1, 0, -1)[j % 4] * c) for j, c in enumerate(q)])
    chain = _sturm_sequence(b, a) if d % 2 else _sturm_sequence(a, [-c for c in b])
    gcd = chain[-1]
    if len(gcd) > 1 and _index_over_reals(_sturm_sequence(gcd)) > 0:
        return None
    return (d - _index_over_reals(chain)) // 2


def _pisot_flag(minpoly: MinimalPolynomial, bracket: tuple[Fraction, Fraction]) -> bool:
    if not minpoly.monic:
        return False
    if bracket[0] == bracket[1]:  # degree one, integer root k >= 2
        return bracket[0] > 1
    # beta > 1 is one root outside the disc; Pisot means it is the only one
    return _roots_outside_unit_circle(minpoly.coeffs) == 1


def is_pisot(minpoly: MinimalPolynomial) -> bool:
    """True iff the largest real root exceeds 1 and all conjugates lie
    strictly inside the unit circle; decided exactly in rational arithmetic."""
    try:
        bracket = _isolate_largest_root_above_one(minpoly)
    except InvalidInputError:
        return False
    return _pisot_flag(minpoly, bracket)


# ---------------------------------------------------------------------------
# BetaSystem and parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BetaSystem:
    """A base beta > 1 with digit count m > beta and the derived constants."""

    spec: str
    minpoly: MinimalPolynomial
    field: NumberField
    m: int
    beta: FieldElement
    rho: FieldElement
    right_end: FieldElement  # (m-1)/(beta-1), right endpoint of I_beta
    pisot: bool
    root_interval: tuple[Fraction, Fraction]

    @property
    def degree(self) -> int:
        return self.field.degree

    def element(self, value) -> FieldElement:
        return self.field.element(value)

    def beta_floor(self) -> int:
        """Exact integer part of beta."""
        t = 1
        while (self.beta - (t + 1)).sign() >= 0:
            t += 1
        return t

    def is_integer_base(self) -> bool:
        return self.degree == 1 and self.beta.den == 1

    def in_interval(self, x: FieldElement) -> bool:
        """x in I_beta = [0, (m-1)/(beta-1)], endpoint inclusive."""
        return x.sign() >= 0 and (self.right_end - x).sign() >= 0

    def __repr__(self):
        return f"BetaSystem({self.spec!r}, m={self.m})"


def _system_from_minpoly(spec: str, minpoly: MinimalPolynomial, m: int) -> BetaSystem:
    if m < 2:
        raise InvalidInputError("digit count m must be at least 2")
    bracket = _isolate_largest_root_above_one(minpoly)
    field = NumberField(minpoly, bracket)
    beta = field.beta
    # m >= beta keeps [0,1] an attractor; equality only happens for integer
    # bases (the unique-expansion calibration case).
    if (field.rational(m) - beta).sign() < 0:
        raise InvalidInputError(f"m={m} must not be smaller than beta")
    rho = field.one / beta
    if not (rho * beta == field.one):
        raise InvariantError("rho * beta != 1")
    right_end = field.rational(m - 1) / (beta - field.one)
    pisot = _pisot_flag(minpoly, bracket)
    return BetaSystem(
        spec=spec,
        minpoly=minpoly,
        field=field,
        m=m,
        beta=beta,
        rho=rho,
        right_end=right_end,
        pisot=pisot,
        root_interval=bracket,
    )


def multinacci_polynomial(n: int) -> MinimalPolynomial:
    if not 2 <= n <= MAX_DEGREE:
        raise InvalidInputError(f"multinacci index must be in [2, {MAX_DEGREE}]")
    return MinimalPolynomial.from_coeffs([-1] * n + [1])


def multinacci(n: int) -> BetaSystem:
    """The n-th multinacci base (positive root of x^n = x^(n-1)+...+1), m=2."""
    sys = _system_from_minpoly(f"multinacci:{n}", multinacci_polynomial(n), m=2)
    if not sys.pisot:
        raise InvariantError("multinacci base failed Pisot certification")
    return sys


def parse_beta(spec: str, m: int) -> BetaSystem:
    """Build a BetaSystem from a spec string.

    Accepted forms: "golden", "multinacci:n", "int:k", "poly:c0,c1,...,cd"
    (constant term first, designated root = largest real root > 1), or a
    decimal literal such as "1.5" (treated as an exact rational).
    """
    spec = spec.strip()
    if spec == "golden":
        return _system_from_minpoly(spec, multinacci_polynomial(2), m)
    kind, _, body = spec.partition(":")
    if kind in ("multinacci", "int", "poly"):
        try:
            ints = [int(p) for p in body.split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse beta spec {spec!r}") from exc
        if kind == "poly":
            return _system_from_minpoly(spec, MinimalPolynomial.from_coeffs(ints), m)
        if len(ints) != 1:
            raise InvalidInputError(f"cannot parse beta spec {spec!r}")
        if kind == "multinacci":
            return _system_from_minpoly(spec, multinacci_polynomial(ints[0]), m)
        if ints[0] < 2:
            raise InvalidInputError("integer base must be at least 2")
        return _system_from_minpoly(spec, MinimalPolynomial.from_coeffs([-ints[0], 1]), m)
    try:
        value = Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse beta spec {spec!r}") from exc
    if value <= 1:
        raise InvalidInputError("beta must exceed 1")
    mp = MinimalPolynomial.from_coeffs([-value.numerator, value.denominator])
    return _system_from_minpoly(spec, mp, m)
