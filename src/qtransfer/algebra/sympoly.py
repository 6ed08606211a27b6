"""Symmetric Laurent polynomials in n variables with QScalar coefficients.

A :class:`SymPoly` stores only dominant (weakly decreasing) exponent
vectors; the represented polynomial is the sum over each key's full
S_n-orbit.  Multiplication stays on dominant keys too: a product of two
monomial functions walks the orbit of one factor only, and orbit sizes are
multinomials.  The named polynomials below are built on dominant keys
directly, Schur polynomials from Kostka numbers.  ``SymPoly(nvars, terms)``
validates input from outside; the ring operations, whose keys are dominant
by construction, build their results through ``SymPoly._from_checked``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from operator import add
from typing import Iterator, Mapping, Sequence

from .partitions import (
    as_partition,
    composition_count,
    dominant,
    is_weakly_decreasing,
    kostka,
    orbit,
    partitions,
)
from .scalars import ZERO, Coeffish, QScalar, as_qscalar

__all__ = [
    "SymPoly",
    "fold_orbits",
    "monomial_sym",
    "elementary",
    "powersum",
    "schur",
    "multiplicative_sum",
]

class SymPoly:
    """An S_n-invariant Laurent polynomial, keyed by dominant exponent vectors."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Coeffish] = ()):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean: dict[tuple[int, ...], QScalar] = {}
        for key, coeff in dict(terms).items():
            key = tuple(key)
            if len(key) != nvars:
                raise ValueError(f"key {key} has length != {nvars}")
            if not is_weakly_decreasing(key):
                raise ValueError(f"key {key} is not dominant")
            c = as_qscalar(coeff)
            if not c.is_zero():
                clean[key] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_checked(cls, nvars: int, terms: Mapping[tuple[int, ...], QScalar]) -> "SymPoly":
        """Keys dominant of length nvars, QScalar coefficients: drops zeros only."""
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, {key: c for key, c in terms.items() if not c.is_zero()}
        return out

    @classmethod
    def zero(cls, nvars: int) -> "SymPoly":
        return cls(nvars)

    @classmethod
    def from_expansion(cls, nvars: int,
                       expansion: Mapping[tuple[int, ...], Coeffish]) -> "SymPoly":
        """Fold a full monomial expansion, less its zero coefficients, into
        dominant keys by ``fold_orbits``, which refuses it unless it is
        S_n-invariant: the oracles assemble their results here."""
        coeffs = {key: as_qscalar(c) for key, c in expansion.items()}
        return cls(nvars, fold_orbits({key: c for key, c in coeffs.items() if not c.is_zero()}))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return SymPoly._from_checked(self.nvars, out)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __neg__(self) -> "SymPoly":
        return SymPoly._from_checked(self.nvars, {k: -c for k, c in self.terms.items()})

    def scale(self, c: Coeffish) -> "SymPoly":
        c = as_qscalar(c)
        return SymPoly._from_checked(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymPoly):
            self._check_compatible(other)
            out: dict[tuple[int, ...], QScalar] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    cab = ca * cb
                    for lam, k in _monomial_product(a, b):
                        out[lam] = out.get(lam, ZERO) + (cab if k == 1 else cab * k)
            return SymPoly._from_checked(self.nvars, out)
        if isinstance(other, (QScalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other: "SymPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    # -- expansion --------------------------------------------------------

    def expand(self) -> dict[tuple[int, ...], QScalar]:
        """Full monomial expansion over all orbit members, built afresh."""
        return {mono: c for key, c in self.terms.items() for mono in orbit(key)}

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], QScalar]]:
        """Deterministic term order: reverse lexicographic on exponent vectors."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self) -> str:
        return " + ".join(f"({c})*m[{','.join(map(str, key))}]"
                          for key, c in self.sorted_terms()) or "0"

    def __repr__(self) -> str:
        return f"SymPoly({self.nvars}, {self})"


def fold_orbits(expansion: Mapping[tuple[int, ...], object]) -> dict[tuple[int, ...], object]:
    """The value on each S_n-orbit of keys, at its dominant vector; refused
    unless every member is a key with that value.  This is the invariance
    check of ``SymPoly.from_expansion`` and of the transfer's hit tables."""
    groups: dict[tuple[int, ...], list] = {}
    for key, value in expansion.items():
        groups.setdefault(dominant(key), []).append(value)
    for dom, values in groups.items():
        if len(values) != composition_count(dom):
            raise ValueError(f"expansion is not symmetric at orbit of {dom}")
        if values.count(values[0]) != len(values):
            raise ValueError(f"unequal coefficients on orbit of {dom}")
    return {dom: values[0] for dom, values in groups.items()}


def _monomial_product(a: tuple[int, ...], b: tuple[int, ...]
                      ) -> Iterator[tuple[tuple[int, ...], int]]:
    """m_a * m_b as pairs (lam, coefficient of m_lam), walking one orbit.

    m_a * m_b is the sum over w in orbit(b) of |orbit(a)| / |orbit(lam)| *
    m_lam with lam = sort(a + w).  Each coefficient is an integer, and a
    remainder is refused.  The factors commute, so the smaller orbit is walked.
    """
    size_a, size_b = composition_count(a), composition_count(b)
    if size_b > size_a:
        a, b, size_a = b, a, size_b
    for lam, count in Counter(dominant(map(add, a, w)) for w in orbit(b)).items():
        k, rem = divmod(size_a * count, composition_count(lam))
        if rem:
            raise AssertionError(f"m_{a} * m_{b}: non-integral coefficient at {lam}")
        yield lam, k


def monomial_sym(n: int, w: Sequence[int]) -> SymPoly:
    """Monomial symmetric function m_w: the orbit sum of z**w.

    Shorter vectors are padded with zeros before sorting, so negative
    entries land in the right place.
    """
    if len(w) > n:
        raise ValueError(f"exponent vector longer than nvars: {w}")
    key = dominant(tuple(w) + (0,) * (n - len(w)))
    return SymPoly(n, {key: QScalar(1)})


def elementary(n: int, k: int) -> SymPoly:
    """Elementary symmetric polynomial e_k in n variables."""
    if not 1 <= k <= n:
        raise ValueError(f"elementary: need 1 <= k <= n, got k={k}, n={n}")
    return multiplicative_sum(n, k, (1, 1))


def powersum(n: int, k: int) -> SymPoly:
    """Power sum p_k = sum z_i**k in n variables."""
    if k < 1:
        raise ValueError("powersum: need k >= 1")
    return SymPoly(n, {(k,) + (0,) * (n - 1): QScalar(1)})


def schur(n: int, mu: Sequence[int]) -> SymPoly:
    """Schur polynomial s_mu in n variables: the sum of K_{mu lam} m_lam
    over the partitions lam of |mu| with at most n parts (Macdonald I.(5.12)).

    Only lam dominated by mu can have K_{mu lam} != 0, so lam_1 <= mu_1.
    With more than n parts there is no column-strict filling and the zero
    polynomial is returned.  ``tests/tableau_oracle.py`` keeps the sum over
    semistandard tableaux as the oracle.
    """
    mu = as_partition(mu) if mu else ()
    if len(mu) > n:
        return SymPoly.zero(n)
    terms = {}
    for lam in partitions(sum(mu), max_part=mu[0] if mu else 0, max_length=n):
        count = kostka(mu, lam)
        if count:
            terms[lam + (0,) * (n - len(lam))] = QScalar(count)
    return SymPoly(n, terms)


def multiplicative_sum(n: int, k: int, c: Sequence[Coeffish]) -> SymPoly:
    """The degree-k part of prod_{i=1}^{n} (1 + sum_{b>=1} c[b] z_i**b):

        sum over partitions alpha of k with at most n parts of
        prod_i c[alpha_i] * m_alpha.

    This serves any family that is multiplicative over the variables, or
    over the blocks of variables they stand for: e_k has c = (1, 1) and h_k
    has c all ones.  c[0] is never read; parts b >= len(c) have no entry in
    c and drop out.
    """
    return SymPoly(n, {alpha + (0,) * (n - len(alpha)): prod(c[b] for b in alpha)
                       for alpha in partitions(k, max_part=len(c) - 1, max_length=n)})
