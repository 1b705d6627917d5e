"""Exact arithmetic in Q(beta) for a designated real root beta > 1, on ints.

An element is an integer coefficient vector over one positive denominator,
(sum_i num_i beta^i) / den with i below the degree of the minimal
polynomial, kept in lowest terms; equality, hashing and the zero test are
exact integer checks.  A scalar sign (`sign_int_coeffs`, behind
`FieldElement.sign` and the comparisons) is exact bisection with no float:
`sign_of` refines an isolating interval of the root in integers until an
interval evaluation of the value excludes zero.  The rows of an integer
matrix go through `sign_rows`, in every degree: one vector float
evaluation, on beta's float powers rounded once per field, screens them
under a proven error bound; rows too close to zero take the scalar path.
A row is read as the coefficients of 1, beta, ..., beta^(d-1); how the
lattice DP stores its keys is not known here.  `rank_rows` is the one
ranking of integer rows, in tagged groups: a float presort that one
`sign_rows` call proves, with an exact comparison sort where the presort
misorders.  Sturm chains of primitive pseudo-remainders isolate beta and
any rational root (one routine, `_isolate`) and decide Pisot status by a
Routh-Hurwitz count.  Fractions appear only at the edges: rational input,
output and bracket endpoints.
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
INT64_MAX = 2 ** 63 - 1

# Primes of the factor-degree irreducibility certificate.
_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _trim(p: list) -> list:
    """Drop trailing zero coefficients in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _eval_homog(p: Sequence[int], n: int, q: int) -> int:
    """q^deg(p) p(n/q) = sum_i p_i n^i q^(deg(p) - i), by Horner in integers;
    for q > 0 it has the sign of p(n/q)."""
    acc, qk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * qk
        qk *= q
    return acc


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of rem(a, b), primitive: each step multiplies a
    by |lead(b)| before cancelling its leading term, and the result is
    divided by its positive content."""
    a = _trim(list(a))
    lead, sgn = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        c = sgn * a.pop()
        shift = len(a) - len(b) + 1
        a = [lead * x for x in a]
        for i, bi in enumerate(b[:-1]):
            a[shift + i] -= c * bi
        _trim(a)
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _sturm_sequence(coeffs: Sequence[int],
                    second: Sequence[int] | None = None) -> list[list[int]]:
    """Remainder chain f, g, -rem(f, g), ... of integer polynomials, each
    remainder replaced by a positive multiple (`_prem`); g defaults to f'.

    Its sign variations satisfy V(a) - V(b) = Cauchy index of g/f over
    (a, b); for g = f' that is the number of distinct real roots of f in
    (a, b].  The last entry is gcd(f, g) up to a constant.
    """
    if second is None:
        second = [k * c for k, c in enumerate(coeffs)][1:]
    seq = [p for p in (list(coeffs), list(second)) if p]
    while len(seq) > 1 and (rem := _prem(seq[-2], seq[-1])):
        seq.append([-c for c in rem])
    return seq


def _sign_variations(values: Iterable[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _index_over_reals(sturm: Sequence[Sequence[int]]) -> int:
    """V(-inf) - V(+inf) of a chain, read off leading coefficients and degrees."""
    at_plus = [p[-1] for p in sturm]
    at_minus = [c if len(p) % 2 else -c for p, c in zip(sturm, at_plus)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


# ---------------------------------------------------------------------------
# root isolation: beta, and rational roots
# ---------------------------------------------------------------------------

def _isolate(sturm: Sequence[Sequence[int]], a: int, b: int, q: int, lead: int = 0):
    """Roots of f = sturm[0] in (a/q, b/q], largest first, for q > 0 and
    f(a/q), f(b/q) != 0.

    Yields (a', b', q') where (a'/q', b'/q'] holds exactly one root and
    lead * (b' - a') <= q' (lead = 0: any width), and stops after (m, m, q')
    where f vanishes at a bisection point m/q'.  A work list of halves, the
    right one on top, replaces recursion, so the depth is not bounded by
    the bit size of the coefficients.
    """
    va, vb = (_sign_variations(_eval_homog(p, n, q) for p in sturm) for n in (a, b))
    work = [(a, b, q, va, vb)]
    while work:
        a, b, q, va, vb = work.pop()
        if va - vb == 1 and lead * (b - a) <= q:
            yield a, b, q
        elif va > vb:
            a, b, q = 2 * a, 2 * b, 2 * q
            m = (a + b) >> 1
            values = [_eval_homog(p, m, q) for p in sturm]
            if values[0] == 0:  # past a multiple root the counts would fail
                yield m, m, q
                return
            vm = _sign_variations(values)
            work += [(a, m, q, va, vm), (m, b, q, vm, vb)]


def _has_rational_root(coeffs: Sequence[int]) -> bool:
    """Whether an integer polynomial has a root in Q.

    A rational root r of f has |lead| r in Z.  The roots of f lie in
    (-B, B], B the Cauchy bound, and `_isolate` either meets r at a
    bisection point or isolates it in an interval of width <= 1/|lead|,
    which holds one multiple of 1/|lead| at most: r is that one.
    """
    lead = abs(coeffs[-1])
    bound = lead + max(abs(c) for c in coeffs[:-1])  # B over the denominator lead
    for a, b, q in _isolate(_sturm_sequence(coeffs), -bound, bound, lead, lead):
        k = b * lead // q  # the largest k with k/lead <= b/q
        if a == b or (k * q > a * lead and _eval_homog(coeffs, k, lead) == 0):
            return True
    return False


def _isolate_largest_root_above_one(minpoly: MinimalPolynomial) -> tuple[Fraction, Fraction]:
    coeffs = minpoly.coeffs
    if minpoly.degree == 1:
        root = Fraction(-coeffs[0], coeffs[1])
        if root <= 1:
            raise InvalidInputError("no real root greater than 1")
        return root, root
    # the largest root in (1, B], B the Cauchy bound, over the denominator
    # |lead|; f is irreducible of degree >= 2, so it has no rational root:
    # not 1, and the interval found holds one simple root that f changes
    # sign across, as bisection needs
    lead = abs(coeffs[-1])
    bound = lead + max(abs(c) for c in coeffs[:-1])
    for a, b, q in _isolate(_sturm_sequence(coeffs), lead, bound, lead):
        return Fraction(a, q), Fraction(b, q)
    raise InvalidInputError("no real root greater than 1")


# ---------------------------------------------------------------------------
# irreducibility: factor degrees mod p
# ---------------------------------------------------------------------------

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
        while len(_trim(r)) >= len(b):
            q = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - q * c) % p
        a, b = b, r
    return a


def _gf_pow(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base**e modulo (f, p) by square and multiply; base reduced mod f."""
    result = [1]
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, p)
        base = _gf_mulmod(base, base, f, p)
        e >>= 1
    return result


def _factor_degrees_mod_p(coeffs: Sequence[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors of coeffs over GF(p), ascending;
    None when p divides the leading coefficient or the reduction is not
    squarefree.

    For squarefree f, gcd(f, x^(p^k) - x) is the product of the factors of
    degree dividing k, so its degree D_k, less the degrees already found at
    the proper divisors of k, is k times the number of factors of degree k.
    At most one factor is longer than d/2: it takes the degree left over.
    """
    d = len(coeffs) - 1
    if coeffs[-1] % p == 0:
        return None
    lead_inv = pow(coeffs[-1], p - 2, p)
    f = [(c * lead_inv) % p for c in coeffs]
    derivative = _trim([(k * c) % p for k, c in enumerate(f)][1:])
    if len(_gf_gcd(f, derivative, p)) != 1:
        return None
    power = [0, 1]  # x^(p^k) mod (f, p)
    counts = [0] * (d // 2 + 1)  # counts[k]: factors of degree k
    for k in range(1, d // 2 + 1):
        power = _gf_pow(power, p, f, p)
        diff = power + [0] * (2 - len(power))  # x^(p^k) - x
        diff[1] = (diff[1] - 1) % p
        found = len(_gf_gcd(f, diff, p)) - 1
        counts[k] = (found - sum(j * counts[j] for j in range(1, k) if k % j == 0)) // k
    degrees = [k for k in range(1, d // 2 + 1) for _ in range(counts[k])]
    rest = d - sum(degrees)
    return degrees + [rest] if rest else degrees


def _check_irreducible(coeffs: Sequence[int]) -> None:
    """Reject coeffs unless it is certified irreducible over Q.

    Degree <= 3 is reducible exactly when it has a rational root.  Above
    that, a factor over Z of degree k reduces, mod a prime p that does not
    divide the leading coefficient, to a factor of degree k, so k is a sum
    of some of the factor degrees mod p; f is irreducible once no k in
    2..d-2 is such a sum for every certificate prime (DECISIONS.md).
    """
    d = len(coeffs) - 1
    if d > 1 and _has_rational_root(coeffs):
        raise InvalidInputError(f"polynomial {list(coeffs)} is reducible (rational root)")
    if d <= 3:
        return
    # bit k of survivors: a factor of degree k is not ruled out yet; with
    # no rational root, degrees 1 and d - 1 already are
    survivors = (1 << (d - 1)) - 4
    for p in _CERT_PRIMES:
        degrees = _factor_degrees_mod_p(coeffs, p)
        if degrees is None:
            continue
        sums = 1
        for k in degrees:
            sums |= sums << k
        survivors &= sums
        if not survivors:
            return
    k = (survivors & -survivors).bit_length() - 1
    raise InvalidInputError(
        f"cannot certify irreducibility of {list(coeffs)}: no prime up to "
        f"{_CERT_PRIMES[-1]} rules out a factor of degree {k}"
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
        coeffs = _trim([int(c) for c in seq])
        if len(coeffs) < 2:
            raise InvalidInputError("minimal polynomial must have degree >= 1")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise InvalidInputError(f"degree {len(coeffs) - 1} exceeds cap {MAX_DEGREE}")
        g = math.gcd(*coeffs)
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
        """The coefficients num_i / den as Fractions, for output."""
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
        # the type test first: isinstance against Fraction, an ABC, is slow to say no
        if type(other) is not FieldElement and isinstance(other, (int, Fraction)):
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
        num, den = self.field._inverse(self.num)
        return FieldElement(self.field, tuple(self.den * c for c in num), den)

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

    def __float__(self) -> float:
        beta = self.field.beta_float_powers()
        # c / den is float(Fraction(c, den)): int true division rounds correctly
        return float(sum(c / self.den * b for c, b in zip(self.num, beta)))

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


class Powers:
    """base ** n for n >= 0 by lookup: each power is made once, by one
    multiplication from the one before, and kept.  Elements are canonical,
    so an entry is the same (num, den) as `base ** n` (DECISIONS.md)."""

    __slots__ = ("base", "_table")

    def __init__(self, base: FieldElement):
        self.base = base
        self._table = [base.field.one]

    def __getitem__(self, n: int) -> FieldElement:
        if n < 0:
            raise InvalidInputError("power tables hold nonnegative exponents")
        table = self._table
        while len(table) <= n:
            table.append(table[-1] * self.base)
        return table[n]


class NumberField:
    """Q[x]/(p) together with an isolating interval for the designated root.

    The isolating interval is refined lazily by bisection; it and the float
    powers of beta, rounded once, are the only mutable state.
    """

    def __init__(self, minpoly: MinimalPolynomial, bracket: tuple[Fraction, Fraction]):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._lead = minpoly.coeffs[-1]
        self._row = tuple(-c for c in minpoly.coeffs[:-1])  # lead*beta^d = sum row_i beta^i
        # the isolating interval is [a/q, b/q], in integers
        self._q = math.lcm(bracket[0].denominator, bracket[1].denominator)
        self._a, self._b = (int(t * self._q) for t in bracket)
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

    def _inverse(self, a: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(u, den) with 1/a = (sum_j u_j beta^j) / den, for a nonzero
        integer vector a.

        Column j of the linear system is a*beta^j = c_j / s_j; fraction-free
        Gauss-Jordan elimination (Bareiss) solves sum_j w_j c_j = 1 in
        integers, every division exact, ending with each unknown's row
        reading pivot * w_j = x_j; then u_j = s_j x_j over den = pivot.
        """
        d = self.degree
        cols, scales = [tuple(a)], [1]
        while len(cols) < d:
            col, s = self._mul(cols[-1], self.beta.num)
            cols.append(col)
            scales.append(scales[-1] * s)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for j in range(d):
            p = next(i for i in range(j, d) if rows[i][j])
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            for i in range(d):
                if i != j:
                    f = rows[i][j]
                    rows[i] = [(pivot[j] * v - f * w) // prev for v, w in zip(rows[i], pivot)]
            prev = pivot[j]
        return tuple(s * r[d] for s, r in zip(scales, rows)), prev

    # -- sign determination ----------------------------------------------------

    def bracket(self) -> tuple[Fraction, Fraction]:
        return Fraction(self._a, self._q), Fraction(self._b, self._q)

    def _bisect(self, steps: int) -> None:
        """Halve the isolating interval `steps` times, in integers: over the
        denominator q 2^steps every midpoint n is an integer, and
        `_eval_homog` gives the sign of p(n/q)."""
        q, lo, hi = (t << steps for t in (self._q, self._a, self._b))
        coeffs = self.minpoly.coeffs
        rising = _eval_homog(coeffs, lo, q) < 0
        for _ in range(steps):
            mid = (lo + hi) >> 1
            v = _eval_homog(coeffs, mid, q)
            if v == 0:
                raise InvariantError("bisection midpoint is a root; polynomial not irreducible?")
            lo, hi = (mid, hi) if (v < 0) == rising else (lo, mid)
        self._a, self._b, self._q = lo, hi, q

    def refine_to(self, width: Fraction) -> tuple[Fraction, Fraction]:
        # the fewest halvings t with (b - a) / (q 2^t) <= width
        ratio = -(-(self._b - self._a) * width.denominator // (width.numerator * self._q))
        if ratio > 1:
            self._bisect((ratio - 1).bit_length())
        return self.bracket()

    def sign_of(self, coeffs: Sequence[int]) -> int:
        """Sign of sum(c_k beta^k) for a *nonzero* integer vector, by bisection."""
        while True:
            vlo, vhi = _interval_horner(coeffs, self._a, self._b, self._q)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if self._a == self._b:
                # degree-one field: evaluation was exact, value must be zero
                raise InvariantError("sign query on zero element slipped through")
            self._bisect(1)

    def beta_float_powers(self) -> tuple[float, ...]:
        """1, beta, ..., beta^(d-1) in floats, rounded once per field from the
        midpoint of the first bracket of width <= 10^-30."""
        if self._float_powers is None:
            self.refine_to(Fraction(1, 10 ** 30))
            n, q = self._a + self._b, 2 * self._q  # the midpoint n/q
            self._float_powers = tuple(n ** k / q ** k for k in range(self.degree))
        return self._float_powers

    def float_error(self, mag):
        """Proven bound on the float error of sum(c_k beta^k), evaluated with
        `beta_float_powers` and one final rounding, given mag = sum(|c_k| beta^k)."""
        return mag * ((self.degree + 4) * 4e-16)

    def _float_value(self, num: Sequence[int], den: int) -> tuple[float, float]:
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
        """Exact sign of sum(c_k beta^k) for integer coefficients: 0 for the
        zero vector, otherwise interval bisection (`sign_of`), with no float
        screen.  In degree one the bracket is the root itself, so the first
        evaluation is exact."""
        return self.sign_of(coeffs) if any(coeffs) else 0

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
        (shifts, rows), for each shift given.  This is the one float
        screen: a row farther from the shift than both float error bounds
        together is settled (proof: DECISIONS.md), the rest go to the exact
        bisection of `sign_int_coeffs`.  In degree one too: beta^0 = 1, and
        `sign_of` decides a degree-one value at its first evaluation."""
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

    def rank_rows(self, rows: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Dense ranks of the values sum_i rows[r, i] beta^i of an integer
        matrix within each tag, numbered on through the tags in ascending
        order, so each tag holds its own range of ranks: within a tag equal
        values share a rank and rank order is value order, exactly.  The
        rows are presorted by (tag, float value) and every tag's presort is
        proven by one `sign_rows` call on the differences of rows adjacent
        in it; a tag with a negative difference is ranked by an exact
        comparison sort instead, in the first ranks of its range
        (DECISIONS.md).  The differences must fit the rows' dtype."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan sort anywhere
            order = np.lexsort((self.float_rows(rows)[0], tags))
        ordered, tagged = rows[order], tags[order]
        steps = ordered[1:] - ordered[:-1]
        same = tagged[1:] == tagged[:-1]
        new = ~same | (steps != 0).any(axis=1)  # equal rows are equal values
        check = np.flatnonzero(same & new)
        negative = self.sign_rows(steps[check], self.zero)[0] < 0
        rank = np.empty(len(rows), dtype=np.intp)
        rank[order] = np.concatenate(([0], np.cumsum(new)))

        def compare(i, j):
            return self.sign_int_coeffs([a - b for a, b in zip(rows[i].tolist(), rows[j].tolist())])

        for tag in set(tagged[1:][check[negative]].tolist()):
            members = sorted(np.flatnonzero(tags == tag).tolist(), key=functools.cmp_to_key(compare))
            ordered = rows[members]
            new = (ordered[1:] != ordered[:-1]).any(axis=1)
            rank[members] = rank[members].min() + np.concatenate(([0], np.cumsum(new)))
        return rank


def _interval_horner(coeffs: Sequence[int], a: int, b: int, q: int) -> tuple[int, int]:
    """Enclosure of q^D sum(c_k t^k) over t in [a/q, b/q], D = len(coeffs) - 1
    and q > 0: interval Horner scaled as in `_eval_homog`."""
    alo, ahi, qk = 0, 0, 1
    for c in reversed(coeffs):
        p1, p2, p3, p4 = alo * a, alo * b, ahi * a, ahi * b
        alo = min(p1, p2, p3, p4) + c * qk
        ahi = max(p1, p2, p3, p4) + c * qk
        qk *= q
    return alo, ahi


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
    a = _trim([(1, 0, -1, 0)[j % 4] * c for j, c in enumerate(q)])
    b = _trim([(0, 1, 0, -1)[j % 4] * c for j, c in enumerate(q)])
    chain = _sturm_sequence(b, a) if d % 2 else _sturm_sequence(a, [-c for c in b])
    gcd = chain[-1]
    if len(gcd) > 1 and _index_over_reals(_sturm_sequence(gcd)) > 0:
        return None
    return (d - _index_over_reals(chain)) // 2


def _pisot_flag(minpoly: MinimalPolynomial) -> bool:
    """Pisot status once the largest real root beta is known to exceed 1:
    beta is one root outside the disc; Pisot means it is the only one.
    In degree one, beta is an integer k >= 2 when the polynomial is monic."""
    return minpoly.monic and (minpoly.degree == 1 or _roots_outside_unit_circle(minpoly.coeffs) == 1)


def is_pisot(minpoly: MinimalPolynomial) -> bool:
    """True iff the largest real root exceeds 1 and all conjugates lie
    strictly inside the unit circle; decided exactly in integer arithmetic."""
    try:
        _isolate_largest_root_above_one(minpoly)
    except InvalidInputError:
        return False
    return _pisot_flag(minpoly)


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

    @functools.cached_property
    def rho_powers(self) -> Powers:
        """rho ** n as `rho_powers[n]`, kept for the life of this system."""
        return Powers(self.rho)

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
    pisot = _pisot_flag(minpoly)
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
