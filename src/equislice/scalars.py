"""Exact scalar arithmetic: rationals and cyclotomic field elements.

A rational scalar is an ``int`` when it is integral and a
``fractions.Fraction`` only when a division made a non-integral value.
``exact`` turns an integral Fraction into its int, and ``quo`` is the one
exact division (Python's ``int / int`` is a float).  Structures apply
``exact`` where they take coefficients in; an integral Fraction that a
product makes inside a loop may survive, and it compares, hashes and
prints (``str``) like the int.

Elements of Q(zeta_n) are stored as coefficient vectors over the power
basis 1, zeta, ..., zeta^{d-1}, d = deg Phi_n, always reduced modulo the
n-th cyclotomic polynomial Phi_n, with the same int-first coefficients.
Reduction is canonical, so equality of field elements is equality of
stored vectors and CycloNumber can be hashed and used as a dictionary
key or matrix entry.

Mixed arithmetic with int and Fraction coerces into the field, by exact
type, so a bool or a float is refused; mixing two different cyclotomic
orders raises, there is no implicit embedding.  A product with a
rational factor scales the other factor's vector and skips the
reduction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Q = Fraction


class InternalError(RuntimeError):
    """A broken internal invariant, a fault of this package and never of
    its input; raised, not asserted, so that ``python -O`` keeps it."""


def _poly_divmod_z(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials, coefficients ascending,
    # denominator monic.  Used only to build cyclotomic polynomials.
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_z(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise InternalError("cyclotomic division not exact")
    return tuple(poly)


def exact(c):
    """c with an integral Fraction turned into its int; anything else
    (an int, a non-integral Fraction, a CycloNumber) unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def quo(a, b):
    """The exact quotient a / b: for two ints the int quotient when b
    divides a, else their Fraction; otherwise exact(a / b)."""
    if type(a) is int and type(b) is int:
        if b and not a % b:
            return a // b
        return Fraction(a, b)
    return exact(a / b)


def _rational(c):
    """c as an exact rational scalar, dispatched on its exact type: an int
    as it is, a Fraction through exact.  A bool (an int subclass), a float
    or anything else raises TypeError, so that no truth value or inexact
    number becomes a coefficient."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return exact(c)
    raise TypeError(f"a rational scalar must be an int or a Fraction, got {c!r}")


def exact_int(value, what: str = "value") -> int:
    """value as an int when it is one exactly: an int (not a bool) or a
    Fraction with denominator 1.  A float, a bool or a non-integral value
    raises ValueError, so that no input is silently truncated."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError(f"{what} must be an exact integer, got {value!r}")


class CycloField:
    """The field Q(zeta_n) with its reduction data."""

    _cache: dict[int, "CycloField"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        self.order = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        cls._cache[n] = self
        return self

    def reduce(self, coeffs: list) -> tuple:
        coeffs = list(coeffs)
        d = self.degree
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(d + 1):
                    coeffs[i - d + j] -= c * self.modulus[j]
        coeffs = [exact(c) for c in coeffs[:d]]
        return tuple(coeffs + [0] * (d - len(coeffs)))

    def element(self, coeffs) -> "CycloNumber":
        """The element with the given rational coefficients (int or
        Fraction, see _rational) on the power basis, reduced mod Phi_n."""
        return CycloNumber(self, self.reduce([_rational(c) for c in coeffs]))

    def zero(self) -> "CycloNumber":
        return self.element([])

    def one(self) -> "CycloNumber":
        return self.element([1])

    def zeta(self, power: int = 1) -> "CycloNumber":
        power %= self.order
        return self.element([0] * power + [1])

    def __repr__(self):
        return f"CycloField({self.order})"


class CycloNumber:
    """An element of Q(zeta_n), canonically reduced mod Phi_n."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        """other as an element of this field, dispatched on its exact type;
        None for any type that is not a CycloNumber, an int or a Fraction
        (a bool or a float among them), so the operator returns
        NotImplemented and Python raises TypeError."""
        t = type(other)
        if t is CycloNumber:
            if other.field is not self.field:
                raise TypeError("cyclotomic orders differ; no implicit embedding")
            return other
        if t is int or t is Fraction:
            return CycloNumber(self.field, (exact(other),) + (0,) * (self.field.degree - 1))
        return None

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if not any(self.coeffs):
            return hash(0)
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """The product; when either factor is rational (an int, a Fraction
        or a CycloNumber with only a constant coefficient) it scales the
        other's coefficient vector, with no product and no reduction."""
        t = type(other)
        if t is int or t is Fraction:
            return self._scaled(self.coeffs, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(self.coeffs, o.coeffs[0])
        if self.is_rational():
            return self._scaled(o.coeffs, self.coeffs[0])
        d = self.field.degree
        prod = [0] * (2 * d - 1 if d > 0 else 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return CycloNumber(self.field, self.field.reduce(prod))

    __rmul__ = __mul__

    def _scaled(self, coeffs: tuple, c) -> "CycloNumber":
        return CycloNumber(self.field, tuple([exact(c * a) for a in coeffs]))

    def inverse(self) -> "CycloNumber":
        # Extended Euclid in Q[x] against the (irreducible) modulus.
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return self.field.element([quo(1, self.coeffs[0])])
        r0 = list(self.field.modulus)
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [0], [1]

        def poly_mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return out

        def poly_sub(a, b):
            out = [0] * max(len(a), len(b))
            for i, x in enumerate(a):
                out[i] += x
            for i, x in enumerate(b):
                out[i] -= x
            while out and not out[-1]:
                out.pop()
            return out

        while r1:
            # divide r0 by r1
            quot = [0] * max(len(r0) - len(r1) + 1, 1)
            rem = list(r0)
            lead = r1[-1]
            for i in range(len(rem) - 1, len(r1) - 2, -1):
                if i >= len(rem):
                    continue
                c = quo(rem[i], lead)
                if not c:
                    continue
                quot[i - (len(r1) - 1)] = c
                for j, dj in enumerate(r1):
                    rem[i - (len(r1) - 1) + j] -= c * dj
            while rem and not rem[-1]:
                rem.pop()
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1))
        # r0 is the gcd, a nonzero constant since Phi_n is irreducible
        if len(r0) != 1:
            raise ArithmeticError("element not invertible mod cyclotomic polynomial")
        g = r0[0]
        return CycloNumber(self.field, self.field.reduce([quo(c, g) for c in s0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z{self.field.order}")
            else:
                parts.append(f"{c}*z{self.field.order}^{i}")
        return " + ".join(parts)


def as_scalar(x, field: CycloField | None = None):
    """Coerce an int/Fraction/CycloNumber into a common scalar type."""
    if isinstance(x, CycloNumber):
        return x
    if field is not None:
        return field.element([x])
    return _rational(x)
