"""Exact scalars for q-deformed combinatorics.

A :class:`QScalar` is a rational function of the formal variable ``v``,
with ``v**2 = q``.  Working in ``v`` keeps every half-integer power of
``q`` at an integer exponent, so no fractional exponents ever appear in
storage.  Coefficients are exact rationals (``fractions.Fraction``) and
every value is kept in a canonical form:

* value == v**shift * N(v) / D(v),
* N and D are ordinary polynomials with nonzero constant term,
* gcd(N, D) == 1 and D is monic,

so structural equality coincides with mathematical equality.  All
operations are pure; instances are immutable and hashable.

Nearly every coefficient on the transfer side is a Laurent polynomial
(D == 1).  A constant denominator needs no gcd, and ``+`` and ``*`` of two
Laurent operands add or multiply the shifted numerators directly.  This
branch returns the same canonical (shift, N, D) as the general path, so
``==`` and ``hash`` are unchanged; real quotients (``inverse``, ``/``) take
the general path with its polynomial gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

Rational = Union[int, Fraction]

__all__ = ["QScalar", "PoleError", "ZERO", "ONE", "V", "Q"]


class PoleError(ArithmeticError):
    """Specialization of a QScalar at a pole of its denominator.

    Distinct from :class:`ZeroDivisionError`, which signals division by a
    structurally zero QScalar.
    """


# ---------------------------------------------------------------------------
# dense polynomial helpers
#
# A polynomial is a tuple of Fractions, constant term first, with no
# trailing zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------

def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pscale(a: tuple, c: Fraction) -> tuple:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        quo[k] = c
        if c:
            for i, y in enumerate(b):
                rem[k + i] -= c * y
    return _trim(quo), _trim(rem)


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over Q[v]."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, 1 / a[-1])


def _split_power(coeffs: tuple) -> tuple[int, tuple]:
    """Factor v**k out of a polynomial so the rest has nonzero constant term."""
    if not coeffs:
        return 0, ()
    k = 0
    while coeffs[k] == 0:
        k += 1
    return k, coeffs[k:]


def _shift_up(coeffs: tuple, k: int) -> tuple:
    # multiply by v**k, k >= 0
    if not coeffs or k == 0:
        return coeffs
    return (Fraction(0),) * k + coeffs


def _sqrt_fraction(c: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise ValueError."""
    if c < 0:
        raise ValueError("square root of a negative rational")
    pn, pd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if pn * pn != c.numerator or pd * pd != c.denominator:
        raise ValueError(f"{c} is not the square of a rational")
    return Fraction(pn, pd)


class QScalar:
    """An exact rational function of v, where v**2 represents q."""

    __slots__ = ("_shift", "_num", "_den")

    def __init__(self, value: Rational = 0):
        c = Fraction(value)
        self._shift = 0
        self._num = (c,) if c else ()
        self._den = (Fraction(1),)

    # -- construction -------------------------------------------------

    @classmethod
    def _build(cls, shift: int, num: tuple, den: tuple) -> "QScalar":
        """Normalize raw data; num/den are plain polynomials, den != 0."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        kn, num = _split_power(num)
        kd, den = _split_power(den)
        shift += kn - kd
        if not num:
            return cls(0)
        if len(den) > 1:  # a constant denominator shares no factor with num
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = _pscale(num, 1 / lead)
            den = _pscale(den, 1 / lead)
        self = cls.__new__(cls)
        self._shift = shift
        self._num = num
        self._den = den
        return self

    @classmethod
    def v_power(cls, e: int) -> "QScalar":
        """v**e for any integer e."""
        return cls._build(e, (Fraction(1),), (Fraction(1),))

    @classmethod
    def q_power(cls, e: int) -> "QScalar":
        """q**e == v**(2e)."""
        return cls.v_power(2 * e)

    @classmethod
    def from_v_terms(cls, terms: Mapping[int, Rational]) -> "QScalar":
        """Laurent polynomial from a mapping v-exponent -> coefficient."""
        nonzero = {e: Fraction(c) for e, c in terms.items() if c}
        if not nonzero:
            return cls(0)
        lo = min(nonzero)
        hi = max(nonzero)
        coeffs = tuple(nonzero.get(e, Fraction(0)) for e in range(lo, hi + 1))
        return cls._build(lo, coeffs, (Fraction(1),))

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_laurent(self) -> bool:
        """True when the denominator is 1 (pure Laurent polynomial)."""
        return self._den == (Fraction(1),)

    def numerator_terms(self) -> Iterator[tuple[int, Fraction]]:
        """(v-exponent, coefficient) pairs of the numerator, ascending."""
        for i, c in enumerate(self._num):
            if c:
                yield self._shift + i, c

    def denominator_terms(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self._den):
            if c:
                yield i, c

    def as_fraction(self) -> Fraction:
        """The value as a plain rational, if it does not involve v."""
        if self.is_zero():
            return Fraction(0)
        if self._shift == 0 and len(self._num) == 1 and self._den == (Fraction(1),):
            return self._num[0]
        raise ValueError(f"{self} is not constant in v")

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QScalar | None":
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar(other)
        return None

    def __add__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = min(self._shift, o._shift)
        a = _shift_up(self._num, self._shift - s)
        b = _shift_up(o._num, o._shift - s)
        if len(self._den) == len(o._den) == 1:  # both Laurent: D == 1
            return QScalar._build(s, _padd(a, b), self._den)
        num = _padd(_pmul(a, o._den), _pmul(b, self._den))
        return QScalar._build(s, num, _pmul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        return QScalar._build(self._shift, _pscale(self._num, Fraction(-1)), self._den)

    def __sub__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _pmul(self._num, o._num)
        if len(self._den) == len(o._den) == 1:  # both Laurent: D == 1
            return QScalar._build(self._shift + o._shift, num, self._den)
        return QScalar._build(self._shift + o._shift, num, _pmul(self._den, o._den))

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero QScalar")
        return QScalar._build(-self._shift, self._den, self._num)

    def __truediv__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "QScalar":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = QScalar(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._shift, self._num, self._den) == (o._shift, o._num, o._den)

    def __hash__(self) -> int:
        return hash((self._shift, self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- specialization ---------------------------------------------------

    def _eval_poly_at(self, coeffs: tuple, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def specialize_q(self, c: Rational) -> Fraction:
        """Substitute q := c exactly.

        Works directly when only even v-powers occur; odd powers require c
        to be the square of a rational (e.g. c == 1), since v = q**(1/2).
        Raises :class:`PoleError` when the denominator vanishes at c.
        """
        c = Fraction(c)
        if self.is_zero():
            return Fraction(0)
        num_exps = [e for e, _ in self.numerator_terms()]
        den_exps = [e for e, _ in self.denominator_terms()]
        if all(e % 2 == 0 for e in num_exps + den_exps):
            den = sum(co * c ** (e // 2) for e, co in self.denominator_terms())
            if den == 0:
                raise PoleError(f"denominator vanishes at q = {c}")
            if c == 0 and any(e < 0 for e in num_exps):
                raise PoleError("negative power of q at q = 0")
            num = sum(co * c ** (e // 2) for e, co in self.numerator_terms())
            return num / den
        try:
            v0 = _sqrt_fraction(c)
        except ValueError as exc:
            raise ValueError(
                f"odd powers of v present; q = {c} has no rational square root"
            ) from exc
        den = self._eval_poly_at(self._den, v0)
        if den == 0:
            raise PoleError(f"denominator vanishes at q = {c}")
        if v0 == 0 and self._shift < 0:
            raise PoleError("negative power of v at q = 0")
        num = self._eval_poly_at(self._num, v0) * v0 ** self._shift
        return num / den

    # -- rendering --------------------------------------------------------

    @staticmethod
    def _term_str(e: int, c: Fraction) -> str:
        if e == 0:
            return str(c)
        vp = "v" if e == 1 else f"v^{e}"
        if c == 1:
            return vp
        if c == -1:
            return f"-{vp}"
        return f"{c}*{vp}"

    @staticmethod
    def _poly_str(terms: list[tuple[int, Fraction]]) -> str:
        parts = []
        for i, (e, c) in enumerate(sorted(terms, reverse=True)):
            s = QScalar._term_str(e, c)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append("- " + s[1:])
            else:
                parts.append("+ " + s)
        return " ".join(parts)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        num_terms = list(self.numerator_terms())
        num = self._poly_str(num_terms)
        if self._den == (Fraction(1),):
            return num
        den_terms = list(self.denominator_terms())
        den = self._poly_str(den_terms)
        if len(num_terms) > 1:
            num = f"({num})"
        if len(den_terms) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self) -> str:
        return f"QScalar({self})"


ZERO = QScalar(0)
ONE = QScalar(1)
V = QScalar.v_power(1)
Q = QScalar.v_power(2)
