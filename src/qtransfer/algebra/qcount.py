"""q-combinatorial quantities: balanced q-integers, Gaussian binomials,
orders of GL_n(F_q) and its parabolics, and symbolic parahoric indices."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

from .partitions import as_composition
from .scalars import QScalar

__all__ = [
    "qint_balanced",
    "qbinom",
    "qbinom_at",
    "gl_order",
    "parabolic_order",
    "parahoric_index",
    "is_prime",
]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def qint_balanced(d: int, k: int = 1) -> QScalar:
    """The balanced q-integer (q^{dk/2} - q^{-dk/2}) / (q^{k/2} - q^{-k/2}).

    Expanded as the Laurent polynomial sum_{j=0}^{d-1} v^{k(d-1-2j)}, so the
    result never carries a denominator.
    """
    if d < 1 or k < 1:
        raise ValueError("qint_balanced requires d, k >= 1")
    return QScalar.from_v_terms(Counter(k * (d - 1 - 2 * j) for j in range(d)))


@lru_cache(maxsize=None)
def qbinom(d: int, a: int) -> QScalar:
    """Gaussian binomial coefficient [d choose a]_q, a polynomial in q.

    Computed by the q-Pascal recurrence
    [d, a] = [d-1, a-1] + q^a [d-1, a], memoized per (d, a) by lru_cache.
    A bad (d, a) raises on every call: exceptions are not cached.
    """
    if a < 0 or a > d:
        raise ValueError(f"qbinom: need 0 <= a <= d, got (d, a) = ({d}, {a})")
    if a == 0 or a == d:
        return QScalar(1)
    return qbinom(d - 1, a - 1) + QScalar.q_power(a) * qbinom(d - 1, a)


def qbinom_at(d: int, a: int, q: int) -> int:
    """``qbinom(d, a)`` specialised at an integer q >= 2, in integers:
    prod_{i<a} (q^(d-i) - 1) / (q^(i+1) - 1)."""
    if a < 0 or a > d:
        raise ValueError(f"qbinom_at: need 0 <= a <= d, got (d, a) = ({d}, {a})")
    if q < 2:
        raise ValueError(f"qbinom_at: need q >= 2, got {q}")
    num = den = 1
    for i in range(a):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    if n < 1:
        raise ValueError("gl_order requires n >= 1")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    qn = q ** n
    order = 1
    for i in range(n):
        order *= qn - q ** i
    return order


def parabolic_order(comp: Sequence[int], q: int) -> int:
    """Order of the block upper-triangular parabolic P_c in GL_n(F_q).

    |P_c| = |Levi| * q^(number of strictly-upper off-block positions).
    """
    c = as_composition(comp)
    levi = 1
    for part in c:
        levi *= gl_order(part, q)
    off_block = sum(c[i] * c[j] for i in range(len(c)) for j in range(i + 1, len(c)))
    return levi * q ** off_block


def parahoric_index(comp: Sequence[int]) -> QScalar:
    """Symbolic index [K : J] = |GL_n(F_q)| / |P_c(F_q)| as a polynomial in q.

    Equals the q-multinomial coefficient of the composition, computed as a
    product of Gaussian binomials over partial sums.  Memoised per
    composition: the input is validated first, so a bad one raises on every
    call, and a list and a tuple of the same parts share one entry.
    """
    return _parahoric_index(as_composition(comp))


@lru_cache(maxsize=None)
def _parahoric_index(c: tuple[int, ...]) -> QScalar:
    remaining = sum(c)
    out = QScalar(1)
    for part in c:
        out = out * qbinom(remaining, part)
        remaining -= part
    return out
