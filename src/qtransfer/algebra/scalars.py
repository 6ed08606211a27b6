"""Exact scalars for q-deformed combinatorics.

A :class:`QScalar` is a rational function of the formal variable ``v``,
with ``v**2 = q``.  Working in ``v`` keeps every half-integer power of
``q`` at an integer exponent, so no fractional exponents ever appear in
storage.  Every value is stored fraction-free, in a canonical form:

* value == (p / r) * v**shift * N(v) / D(v),
* N and D are integer polynomials, each primitive (its coefficients have
  gcd 1) with positive leading coefficient and nonzero constant term,
* gcd(N, D) == 1, and the content p / r is a nonzero rational held as two
  ints in lowest terms with r > 0; zero is p == 0, r == 1, N == (),

so structural equality coincides with mathematical equality.  All
operations are pure; instances are immutable and hashable.

The arithmetic sees integers only: ``Fraction`` appears where a value
enters (the constructor) or leaves (the views, ``specialize_q`` and the
hash of a constant).  By Gauss's lemma a product of primitive polynomials
is primitive, so a Laurent product (D == 1) multiplies the integer tuples
with no polynomial gcd and the contents with two integer gcds, and a
Laurent sum takes one integer gcd over its coefficients.  Real quotients
take polynomial gcds by the primitive polynomial remainder sequence
(Knuth, TAOCP vol. 2, 4.6.1; Brown 1971), and dividing by a gcd is exact
division in Z[v].

The public views (``numerator_terms``, ``denominator_terms``, ``str``)
show the same value over a monic denominator:
value == v**shift * N'(v) / D'(v) with D' == D / lead(D) and
N' == (p / r) * N / lead(D).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

Rational = Union[int, Fraction]

__all__ = ["QScalar", "PoleError", "Coeffish", "as_qscalar", "ZERO", "ONE", "V", "Q"]


class PoleError(ArithmeticError):
    """Specialization of a QScalar at a pole of its denominator.

    Distinct from :class:`ZeroDivisionError`, which signals division by a
    structurally zero QScalar.
    """


# ---------------------------------------------------------------------------
# integer polynomial helpers
#
# A polynomial is a tuple of ints, constant term first, with no trailing
# zeros; () is the zero polynomial and (1,) the one.
# ---------------------------------------------------------------------------

def _pmul(a: tuple, b: tuple) -> tuple:
    if a == (1,):
        return b
    if b == (1,):
        return a
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)  # Z is a domain: the leading term cannot vanish


def _ppow(a: tuple, e: int) -> tuple:
    out = (1,)
    while e:
        if e & 1:
            out = _pmul(out, a)
        e >>= 1
        if e:
            a = _pmul(a, a)
    return out


def _pcombine(x: int, a: tuple, ka: int, y: int, b: tuple, kb: int) -> list[int]:
    """x * v**ka * a + y * v**kb * b, with trailing zeros trimmed."""
    out = [0] * max(ka + len(a), kb + len(b))
    for i, c in enumerate(a, ka):
        out[i] = x * c
    for i, c in enumerate(b, kb):
        out[i] += y * c
    while out and not out[-1]:
        out.pop()
    return out


def _primitive(coeffs: list[int]) -> tuple[int, int, tuple]:
    """(k, g, p) with coeffs == g * v**k * p, where p is primitive with
    positive leading coefficient and nonzero constant term; coeffs is
    nonzero and has no trailing zeros."""
    k = 0
    while not coeffs[k]:
        k += 1
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    if g == 1:
        return k, 1, tuple(coeffs[k:])
    return k, g, tuple(c // g for c in coeffs[k:])


def _pdiv_exact(a: tuple, b: tuple) -> tuple:
    """a / b in Z[v]; raises ArithmeticError unless b divides a."""
    if b == (1,):
        return a
    db = len(b) - 1
    if len(a) <= db:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        t, r = divmod(rem.pop(), lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = t
        if t:
            for i in range(db):
                rem[k + i] -= t * b[i]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _prem(a: tuple, b: tuple) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b over Q, with
    trailing zeros trimmed; len(a) >= len(b) >= 2."""
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        t = rem.pop()
        if t:
            g = math.gcd(t, lead)
            m, t = lead // g, t // g
            if m != 1:
                rem = [m * x for x in rem]
            k = top - db
            for i in range(db):
                rem[k + i] -= t * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _pgcd(a: tuple, b: tuple) -> tuple:
    """gcd of two primitive polynomials with positive leading coefficient
    and nonzero constant term, by the primitive remainder sequence; the
    gcd has the same three properties."""
    if a == b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        # v divides no remainder's gcd with b, so its v-power is dropped
        a, b = b, _primitive(r)[2]
    return (1,)


def _peval(coeffs: tuple, a: int, b: int) -> int:
    """b**(len(coeffs) - 1) * coeffs(a / b), by Horner's rule."""
    acc, bp = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bp
        bp *= b
    return acc


def _isqrt_exact(n: int) -> int:
    """The square root of a perfect square n >= 0, or raise ValueError."""
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


class QScalar:
    """An exact rational function of v, where v**2 represents q."""

    __slots__ = ("_p", "_r", "_shift", "_num", "_den")

    def __init__(self, value: Rational = 0):
        c = value if isinstance(value, int) else Fraction(value)
        self._p, self._r = c.numerator, c.denominator
        self._shift = 0
        self._num = (1,) if c else ()
        self._den = (1,)

    # -- construction -------------------------------------------------

    @classmethod
    def _make(cls, p: int, r: int, shift: int, num: tuple, den: tuple) -> "QScalar":
        """Wrap data already in canonical form."""
        self = cls.__new__(cls)
        self._p, self._r = p, r
        self._shift = shift
        self._num = num
        self._den = den
        return self

    @classmethod
    def v_power(cls, e: int) -> "QScalar":
        """v**e for any integer e."""
        return cls._make(1, 1, e, (1,), (1,))

    @classmethod
    def q_power(cls, e: int) -> "QScalar":
        """q**e == v**(2e)."""
        return cls.v_power(2 * e)

    @classmethod
    def from_v_terms(cls, terms: Mapping[int, Rational]) -> "QScalar":
        """Laurent polynomial from a mapping v-exponent -> coefficient."""
        nonzero = {e: c if isinstance(c, int) else Fraction(c)
                   for e, c in terms.items() if c}
        if not nonzero:
            return cls(0)
        lo = min(nonzero)
        coeffs = [nonzero.get(e, 0) for e in range(lo, max(nonzero) + 1)]
        scale = math.lcm(*(c.denominator for c in coeffs))
        k, g, num = _primitive([c.numerator * (scale // c.denominator) for c in coeffs])
        d = math.gcd(g, scale)
        return cls._make(g // d, scale // d, lo + k, num, (1,))

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_laurent(self) -> bool:
        """True when the denominator is 1 (pure Laurent polynomial)."""
        return self._den == (1,)

    def numerator_terms(self) -> Iterator[tuple[int, Fraction]]:
        """(v-exponent, coefficient) pairs of the numerator over the monic
        denominator, ascending."""
        scale = Fraction(self._p, self._r * self._den[-1])
        for i, c in enumerate(self._num):
            if c:
                yield self._shift + i, scale * c

    def denominator_terms(self) -> Iterator[tuple[int, Fraction]]:
        """(v-exponent, coefficient) pairs of the monic denominator."""
        lead = self._den[-1]
        for i, c in enumerate(self._den):
            if c:
                yield i, Fraction(c, lead)

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
        if not o._num:
            return self
        if not self._num:
            return o
        # both contents over one integer denominator: x/scale and y/scale
        x, qx = self._p, self._r
        y, qy = o._p, o._r
        if qx == qy:
            scale = qx
        else:
            common = math.gcd(qx, qy)
            scale = qx // common * qy
            x, y = x * (qy // common), y * (qx // common)
        # x N1 / (g r1) + y N2 / (g r2) == (x N1 r2 + y N2 r1) / (g r1 r2),
        # and only g can share a factor with the new numerator
        d1, d2 = self._den, o._den
        if d1 == d2:
            g, r1, r2 = d1, (1,), (1,)
        else:
            g = _pgcd(d1, d2)
            r1, r2 = _pdiv_exact(d1, g), _pdiv_exact(d2, g)
        s = min(self._shift, o._shift)
        coeffs = _pcombine(x, _pmul(self._num, r2), self._shift - s,
                           y, _pmul(o._num, r1), o._shift - s)
        if not coeffs:
            return QScalar(0)
        k, content, num = _primitive(coeffs)
        den = _pmul(d1, r2)
        if len(g) > 1:
            h = _pgcd(num, g)
            if len(h) > 1:
                num, den = _pdiv_exact(num, h), _pdiv_exact(den, h)
        d = math.gcd(content, scale)
        return QScalar._make(content // d, scale // d, s + k, num, den)

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        return QScalar._make(-self._p, self._r, self._shift, self._num, self._den)

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
        if not self._num or not o._num:
            return QScalar(0)
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        # cancel across: gcd(n1, d1) == gcd(n2, d2) == 1 already
        if len(n1) > 1 and len(d2) > 1:
            g = _pgcd(n1, d2)
            if len(g) > 1:
                n1, d2 = _pdiv_exact(n1, g), _pdiv_exact(d2, g)
        if len(n2) > 1 and len(d1) > 1:
            g = _pgcd(n2, d1)
            if len(g) > 1:
                n2, d1 = _pdiv_exact(n2, g), _pdiv_exact(d1, g)
        # p1/r1 * p2/r2 in lowest terms, as gcd(p1, r1) == gcd(p2, r2) == 1
        p1, r1, p2, r2 = self._p, self._r, o._p, o._r
        g1, g2 = math.gcd(p1, r2), math.gcd(p2, r1)
        return QScalar._make((p1 // g1) * (p2 // g2), (r1 // g2) * (r2 // g1),
                             self._shift + o._shift, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero QScalar")
        p, r = (self._p, self._r) if self._p > 0 else (-self._p, -self._r)
        return QScalar._make(r, p, -self._shift, self._den, self._num)

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
        if e == 0:
            return QScalar(1)
        if self.is_zero():
            return self
        # gcd(N, D) == 1 gives gcd(N**e, D**e) == 1
        return QScalar._make(self._p ** e, self._r ** e, self._shift * e,
                             _ppow(self._num, e), _ppow(self._den, e))

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ((self._shift, self._num, self._den, self._p, self._r)
                == (o._shift, o._num, o._den, o._p, o._r))

    def __hash__(self) -> int:
        # a constant equals its rational, so it hashes as that rational
        if self._shift == 0 and self._den == (1,) and len(self._num) < 2:
            return hash(self._p) if self._r == 1 else hash(Fraction(self._p, self._r))
        return hash((self._shift, self._num, self._den, self._p, self._r))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- specialization ---------------------------------------------------

    def specialize_q(self, c: Rational) -> Fraction:
        """Substitute q := c exactly.

        Works directly when only even v-powers occur; odd powers require c
        to be the square of a rational (e.g. c == 1), since v = q**(1/2).
        Raises :class:`PoleError` when the denominator vanishes at c.
        """
        c = Fraction(c)
        if self.is_zero():
            return Fraction(0)
        num, den, shift = self._num, self._den, self._shift
        if shift % 2 == 0 and not any(num[1::2]) and not any(den[1::2]):
            # a polynomial in q: evaluate at a / b == c
            num, den, shift, var = num[::2], den[::2], shift // 2, "q"
            a, b = c.numerator, c.denominator
        else:
            try:
                a, b = _isqrt_exact(c.numerator), _isqrt_exact(c.denominator)
            except ValueError as exc:
                raise ValueError(
                    f"odd powers of v present; q = {c} has no rational square root"
                ) from exc
            var = "v"
        bottom = _peval(den, a, b)
        if bottom == 0:
            raise PoleError(f"denominator vanishes at q = {c}")
        if a == 0 and shift < 0:
            raise PoleError(f"negative power of {var} at q = 0")
        top = _peval(num, a, b)
        # value == p/r * (a/b)**shift * (top / b**deg N) / (bottom / b**deg D)
        eb = len(den) - len(num) - shift
        if eb >= 0:
            top *= b ** eb
        else:
            bottom *= b ** -eb
        if shift >= 0:
            top *= a ** shift
        else:
            bottom *= a ** -shift
        return Fraction(self._p * top, self._r * bottom)

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
        if self.is_laurent():
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


Coeffish = QScalar | Rational


def as_qscalar(c: Coeffish) -> QScalar:
    """A coefficient as a QScalar: a QScalar as it is, a rational converted."""
    return c if isinstance(c, QScalar) else QScalar(c)


ZERO = QScalar(0)
ONE = QScalar(1)
V = QScalar.v_power(1)
Q = QScalar.v_power(2)
