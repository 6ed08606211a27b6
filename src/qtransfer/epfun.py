"""Explicit matching-function combinations over parahoric types.

A :class:`ParahoricCombo` is a formal QScalar-linear combination of
standard-parahoric types of GL_n(F), each type recorded by the partition
of n giving its reductive quotient.  Two normalizations are carried: the
e-basis (e_J = [K:J] 1_J, the unit of mass 1 for the Haar measure giving
the maximal compact volume 1) and the one-basis (bare characteristic
functions 1_J).

Built here: the Euler-Poincare function f^EP of GL_n, the d^r product
expansion supported on refinements of (d^r), the Iwahori-biinvariant
combination attached to an arbitrary parahoric of GL_r(D), and the finite
shadow sending e_J to the induced trivial character of the corresponding
parabolic of GL_n(F_q).  The e-basis coefficients of the EP products are
rational, so each product is built once per multiset of parts in Fractions
and memoised; a coefficient becomes a QScalar only when a combo is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra.partitions import as_partition, as_partition_of, dominant, render_partition
from .algebra.qcount import parahoric_index
from .algebra.scalars import ZERO, Coeffish, QScalar, as_qscalar
from .finitegl import (ClassFunction, cached_group, dl_character, linear_combination,
                       parabolic_trivial_ind)
from .weylcomb import composition_class_counts, ep_weights

__all__ = [
    "ParahoricCombo",
    "DParahoricType",
    "ep_function",
    "product_ep",
    "f_J",
    "to_one_basis",
    "to_e_basis",
    "shadow",
    "weyl_averaged_dl",
    "fj_shadow_report",
]

@dataclass(frozen=True)
class DParahoricType:
    """A standard parahoric of GL_r(D) up to conjugacy: division-algebra
    index d and the partition (r_1, .., r_k) of r giving the reductive
    quotient prod GL_{r_i}(F_{q^d})."""

    d: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.parts:
            raise ValueError("parts must be a partition of r >= 1")
        object.__setattr__(self, "parts", as_partition(self.parts))

    @property
    def r(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return self.d * self.r


class ParahoricCombo:
    """Formal QScalar-linear combination of parahoric types of GL_n."""

    __slots__ = ("n", "basis", "terms")

    def __init__(self, n: int, basis: str = "e",
                 terms: Mapping[tuple[int, ...], Coeffish] = ()):
        if basis not in ("e", "one"):
            raise ValueError("basis must be 'e' or 'one'")
        self.n = n
        self.basis = basis
        clean: dict[tuple[int, ...], QScalar] = {}
        for key, coeff in dict(terms).items():
            lam = as_partition_of(key, n)
            c = as_qscalar(coeff)
            if not c.is_zero():
                clean[lam] = c
        self.terms = clean

    @classmethod
    def _from_checked(cls, n: int, basis: str,
                      terms: Mapping[tuple[int, ...], QScalar]) -> "ParahoricCombo":
        """A combo on keys already known to be partitions of n, with QScalar
        coefficients, such as the keys of existing combos; only the zero
        coefficients are dropped."""
        out = cls.__new__(cls)
        out.n, out.basis = n, basis
        out.terms = {key: c for key, c in terms.items() if not c.is_zero()}
        return out

    def _check(self, other: "ParahoricCombo") -> None:
        if self.n != other.n or self.basis != other.basis:
            raise ValueError("combos have mismatched n or basis")

    def __add__(self, other: "ParahoricCombo") -> "ParahoricCombo":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return ParahoricCombo._from_checked(self.n, self.basis, out)

    def scale(self, c: Coeffish) -> "ParahoricCombo":
        c = as_qscalar(c)
        return ParahoricCombo._from_checked(self.n, self.basis,
                                            {k: c * v for k, v in self.terms.items()})

    def coefficient(self, lam: Sequence[int]) -> QScalar:
        return self.terms.get(as_partition(lam), ZERO)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], QScalar]]:
        """Reverse lexicographic on partitions: deterministic rendering order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParahoricCombo):
            return NotImplemented
        return (self.n, self.basis, self.terms) == (other.n, other.basis, other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sym = "e" if self.basis == "e" else "1"
        return " + ".join(f"({c})*{sym}[{render_partition(k)}]"
                          for k, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"ParahoricCombo({self.n}, {self.basis!r}, {self})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": self.basis,
            "terms": [{"type": render_partition(k), "coeff": str(c)}
                      for k, c in self.sorted_terms()],
        }


def ep_function(n: int) -> ParahoricCombo:
    """The Euler-Poincare function of GL_n in the e-basis:

        sum over I in {1, .., n-1} of (-1)^(n-1-|I|)/(n-|I|) e_{J_I},

    collapsed onto partitions, with the coefficients of ``ep_weights``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ParahoricCombo(n, "e", ep_weights(n))


def product_ep(d: int, r: int) -> ParahoricCombo:
    """The d^r-scaled r-fold product of EP functions of GL_d: supported on
    parahoric types refining (d^r), with the Iwahori coefficient
    (-1)^(r(d-1)) and the (d^r) coefficient d^r."""
    if d < 1 or r < 1:
        raise ValueError("d and r must be >= 1")
    return _ep_product((d,) * r)


def _ep_product(parts: Sequence[int]) -> ParahoricCombo:
    """The concatenation product over the parts m of m * f^EP_{GL_m}, read
    from ``_ep_terms``; the combo holds its own copy of the terms."""
    return ParahoricCombo(sum(parts), "e", _ep_terms(dominant(parts)))


@lru_cache(maxsize=None)
def _ep_terms(parts: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """The e-basis terms of the concatenation product over the parts m of
    m * f^EP_{GL_m}, keyed on the parts in decreasing order: the product for
    parts[:-1] times the last factor, so each new key costs one product.
    Concatenation merges the types as partitions and multiplies the rational
    coefficients.  The cached dict is shared: callers copy it, never mutate."""
    if not parts:
        return {(): Fraction(1)}
    m = parts[-1]
    out: dict[tuple[int, ...], Fraction] = {}
    for k1, c1 in _ep_terms(parts[:-1]).items():
        for k2, c2 in ep_weights(m).items():
            key = dominant(k1 + k2)
            out[key] = out.get(key, 0) + m * c1 * c2
    return {key: c for key, c in out.items() if c}


def _torus_weights(t: DParahoricType) -> list[tuple[tuple[int, ...], Fraction]]:
    """The Weyl average over W_L as (torus type, weight) pairs, one per cycle
    type rho of W_L: the parts d*m of rho, and the share of W_L of type rho."""
    counts = composition_class_counts(t.parts)
    order = sum(counts.values())
    return [(tuple(t.d * m for m in rho), Fraction(count, order))
            for rho, count in counts.items()]


def f_J(t: DParahoricType) -> ParahoricCombo:
    """Iwahori-biinvariant combination attached to the parahoric of type t
    in GL_r(D), expanded in the e-basis of GL_n(F), n = r*d:

        (1/|W_L|) sum over w in W_L, grouped by cycle type, of the
        concatenation product over the parts m of w of
        (d*m) * f^EP_{GL_{d*m}}.

    The products come from ``_ep_terms`` and are summed in Fractions; each
    coefficient becomes a QScalar once, in the combo constructor.
    """
    total: dict[tuple[int, ...], Fraction] = {}
    for torus, weight in _torus_weights(t):
        if sum(torus) != t.n:
            raise AssertionError(f"f_J term does not live on GL_{t.n}")
        for key, c in _ep_terms(dominant(torus)).items():
            total[key] = total.get(key, 0) + weight * c
    return ParahoricCombo(t.n, "e", total)


def to_one_basis(x: ParahoricCombo) -> ParahoricCombo:
    """Rewrite an e-basis combo on bare characteristic functions:
    e_J = [K:J] 1_J, so each coefficient picks up the symbolic index."""
    if x.basis != "e":
        raise ValueError("expected an e-basis combo")
    return ParahoricCombo._from_checked(
        x.n, "one", {k: c * parahoric_index(k) for k, c in x.terms.items()})


def to_e_basis(x: ParahoricCombo) -> ParahoricCombo:
    if x.basis != "one":
        raise ValueError("expected a one-basis combo")
    return ParahoricCombo._from_checked(
        x.n, "e", {k: c / parahoric_index(k) for k, c in x.terms.items()})


def shadow(x: ParahoricCombo, q: int) -> ClassFunction:
    """The orbital-integral-faithful finite image: e_{J_c} maps to the
    induced trivial character Ind_{P_c}^{GL_n(F_q)}(1), coefficients
    specialized at q."""
    if x.basis == "one":
        x = to_e_basis(x)
    group = cached_group(x.n, q)
    return linear_combination(group, ((c.specialize_q(q), parabolic_trivial_ind(group, lam))
                                      for lam, c in x.sorted_terms()))


def weyl_averaged_dl(t: DParahoricType, q: int) -> ClassFunction:
    """(1/|W_L|) sum over w in W_L of the Deligne-Lusztig character of
    GL_n(F_q) whose torus type concatenates the parts d*m of w."""
    group = cached_group(t.n, q)
    return linear_combination(group, ((weight, dl_character(group, torus))
                                      for torus, weight in _torus_weights(t)))


def fj_shadow_report(t: DParahoricType, q: int) -> dict:
    """Compare shadow(f_J(t), q) with the Weyl-averaged DL character.  Both
    sides read the Weyl average ``_torus_weights(t)``, built on
    ``composition_class_counts``, which the test
    ``test_composition_class_counts_against_enumeration`` checks against
    W_L enumerated; past it, one side induces from parabolics and the
    other inverts to DL characters.  So it checks the S_d combinatorics
    carried through the class data and holds for any Ind_{P_lam}(1) values."""
    lhs = shadow(f_J(t), q)
    rhs = weyl_averaged_dl(t, q)
    return {
        "d": t.d,
        "parts": list(t.parts),
        "n": t.n,
        "q": q,
        "equal": lhs == rhs,
        "shadow": [str(v) for v in lhs.values],
        "weyl_averaged_dl": [str(v) for v in rhs.values],
    }
