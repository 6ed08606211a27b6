"""Tuple-of-Fraction scalar arithmetic: an independent oracle for QScalar.

A value is a triple (shift, N, D) meaning v**shift * N(v) / D(v), where N
and D are tuples of Fractions, constant term first, with no trailing
zeros; N and D have nonzero constant terms, gcd(N, D) == 1 over Q and D is
monic.  Zero is (0, (), (1,)).  This is the form QScalar renders, computed
by Euclid's algorithm over Q[v] instead of the fraction-free core.
"""

from fractions import Fraction

ONE_POLY = (Fraction(1),)


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pscale(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
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


def _pgcd(a, b):
    """Monic gcd over Q[v]."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, 1 / a[-1])


def _split_power(coeffs):
    if not coeffs:
        return 0, ()
    k = 0
    while coeffs[k] == 0:
        k += 1
    return k, coeffs[k:]


def _shift_up(coeffs, k):
    if not coeffs or k == 0:
        return coeffs
    return (Fraction(0),) * k + coeffs


def build(shift, num, den):
    """Monic normalisation of v**shift * num / den, den != 0."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    kn, num = _split_power(tuple(num))
    kd, den = _split_power(tuple(den))
    if not num:
        return 0, (), ONE_POLY
    if len(den) > 1:  # a constant denominator shares no factor with num
        g = _pgcd(num, den)
        num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lead = den[-1]
    return shift + kn - kd, _pscale(num, 1 / lead), _pscale(den, 1 / lead)


def from_terms(terms):
    """Laurent polynomial from a mapping v-exponent -> coefficient."""
    nonzero = {e: Fraction(c) for e, c in terms.items() if c}
    if not nonzero:
        return 0, (), ONE_POLY
    lo, hi = min(nonzero), max(nonzero)
    return build(lo, [nonzero.get(e, Fraction(0)) for e in range(lo, hi + 1)], ONE_POLY)


def add(x, y):
    s = min(x[0], y[0])
    a, b = _shift_up(x[1], x[0] - s), _shift_up(y[1], y[0] - s)
    return build(s, _padd(_pmul(a, y[2]), _pmul(b, x[2])), _pmul(x[2], y[2]))


def neg(x):
    return x[0], _pscale(x[1], Fraction(-1)), x[2]


def mul(x, y):
    return build(x[0] + y[0], _pmul(x[1], y[1]), _pmul(x[2], y[2]))


def inverse(x):
    if not x[1]:
        raise ZeroDivisionError("inverse of zero")
    return build(-x[0], x[2], x[1])


def power(x, e):
    """x**e by squaring, one reduced product at a time."""
    if e < 0:
        return power(inverse(x), -e)
    out = from_terms({0: 1})
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def view(x):
    """(numerator terms, denominator terms) as QScalar lists them."""
    shift, num, den = x
    return ([(shift + i, c) for i, c in enumerate(num) if c],
            [(i, c) for i, c in enumerate(den) if c])
