"""Symmetric-group combinatorics: Young subgroups, double cosets, the
1-adic Euler-Poincare function, and the d-cycle indicator identity.

Permutations are 1-based one-line tuples: w[i-1] is the image of i.
Subsets I of {1, .., d-1} index simple transpositions; the complement of I
cuts {1, .., d} into the consecutive blocks of a composition, and W_I is
the Young subgroup preserving those blocks.  Everything is exact (Fraction
coefficients).

Closed forms compute, enumerations verify.  Cycle-type counts of a Young
subgroup are products of S_part class sizes; the support of a restricted
double coset is the Young subgroup W_J given by Kilmoyer's lemma
(W_M cap w W_I w^-1 = W_J for minimal w; Geck-Pfeiffer, Characters of
Finite Coxeter Groups and Iwahori-Hecke Algebras, 2.1-2.2); double-coset
representatives come from the descent rule.  The brute-force enumerations
these replace stay as oracles (``YoungSubgroup.elements``,
``support_by_enumeration``) that the tests and ``verify`` compare against.
S_d work refuses beyond a configurable bound instead of subsampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra.partitions import as_partition, partitions, sn_class_size, subsets

__all__ = [
    "Perm",
    "EnumerationBudgetError",
    "DEFAULT_ENUM_BOUND",
    "perm_mul",
    "perm_inv",
    "cycle_type",
    "inversions",
    "all_perms",
    "block_composition",
    "YoungSubgroup",
    "young_subgroup",
    "young_subgroup_of_composition",
    "class_count_in_young",
    "young_class_counts",
    "composition_class_counts",
    "SdClassFunction",
    "f_g",
    "f_g_table",
    "one_adic_ep",
    "orbital_sum",
    "min_double_coset_reps",
    "min_coset_reps_in",
    "restriction_support",
    "support_by_enumeration",
    "proper_levi_vanishing",
]

Perm = tuple[int, ...]

DEFAULT_ENUM_BOUND = 8


class EnumerationBudgetError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its bound."""


def _check_bound(d: int, bound: int | None) -> None:
    limit = DEFAULT_ENUM_BOUND if bound is None else bound
    if d > limit:
        raise EnumerationBudgetError(
            f"S_{d} enumeration exceeds the bound {limit}; pass a larger bound"
        )


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai - 1] = i + 1
    return tuple(out)


def cycle_type(w: Perm) -> tuple[int, ...]:
    seen = [False] * len(w)
    lengths = []
    for i in range(len(w)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j] - 1
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def inversions(w: Perm) -> int:
    """Coxeter length of w in type A."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


@lru_cache(maxsize=None)
def all_perms(d: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(1, d + 1)))


def block_composition(I: Iterable[int], d: int) -> tuple[int, ...]:
    """Composition of d cut by the complement of I in {1, .., d-1}."""
    I = frozenset(I)
    if not I <= set(range(1, d)):
        raise ValueError(f"I must be a subset of 1..{d - 1}")
    cuts = [0] + sorted(set(range(1, d)) - I) + [d]
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


@dataclass(frozen=True)
class YoungSubgroup:
    """W_I = product of symmetric groups on the consecutive blocks of a
    composition of d."""

    d: int
    composition: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...] = field(init=False)  # 1-based [lo, hi]

    def __post_init__(self):
        lo = 1
        blocks = []
        for part in self.composition:
            blocks.append((lo, lo + part - 1))
            lo += part
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def order(self) -> int:
        n = 1
        for part in self.composition:
            n *= factorial(part)
        return n

    def __contains__(self, w: Perm) -> bool:
        return all(all(lo <= w[i - 1] <= hi for i in range(lo, hi + 1))
                   for lo, hi in self.blocks)

    def elements(self) -> Iterator[Perm]:
        per_block = [
            list(itertools.permutations(range(lo, hi + 1))) for lo, hi in self.blocks
        ]
        for choice in itertools.product(*per_block):
            out: list[int] = []
            for piece in choice:
                out.extend(piece)
            yield tuple(out)


def young_subgroup(I: Iterable[int], d: int) -> YoungSubgroup:
    """The Young subgroup W_I attached to I by the complement rule."""
    return YoungSubgroup(d, block_composition(I, d))


def young_subgroup_of_composition(comp: Sequence[int]) -> YoungSubgroup:
    return YoungSubgroup(sum(comp), tuple(comp))


def young_class_counts(I: Iterable[int], d: int,
                       bound: int | None = None) -> dict[tuple[int, ...], int]:
    """Count of W_I-elements per S_d cycle type."""
    _check_bound(d, bound)
    return composition_class_counts(block_composition(I, d))


def composition_class_counts(comp: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Cycle-type counts of the Young subgroup of a given composition: an
    element is a tuple of block permutations, its cycle type the merge of
    theirs, so the counts are products of S_part class sizes.  The oracle is
    counting ``young_subgroup_of_composition(comp).elements()`` by type."""
    counts: dict[tuple[int, ...], int] = {(): 1}
    for part in comp:
        merged: dict[tuple[int, ...], int] = {}
        for rho, count in counts.items():
            for sigma in partitions(part):
                key = tuple(sorted(rho + sigma, reverse=True))
                merged[key] = merged.get(key, 0) + count * sn_class_size(sigma)
        counts = merged
    return counts


def class_count_in_young(I: Iterable[int], d: int, rho: Sequence[int],
                         bound: int | None = None) -> int:
    """|{v in W_I : v is conjugate to cycle type rho in S_d}|."""
    rho = as_partition(rho)
    if sum(rho) != d:
        raise ValueError(f"{rho} is not a partition of {d}")
    return young_class_counts(I, d, bound).get(rho, 0)


@dataclass(frozen=True)
class SdClassFunction:
    """Exact class function on S_d, one value per cycle type."""

    d: int
    values: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        expected = set(partitions(self.d))
        if set(self.values) != expected:
            raise ValueError("values must be keyed by all partitions of d")

    def __call__(self, rho: Sequence[int]) -> Fraction:
        return self.values[as_partition(rho)]


def _subset_coefficient(d: int, I: frozenset) -> Fraction:
    return Fraction((-1) ** (d - 1 - len(I)), d - len(I))


def f_g(d: int, rho: Sequence[int], bound: int | None = None) -> Fraction:
    """The coefficient of the Deligne-Lusztig term R_g, g of cycle type rho:

        f_g = d * sum_I (-1)^(d-1-|I|)/(d-|I|) * |W_I cap class(rho)| / |W_I|.

    Evaluates to 1 when rho = (d) (a single d-cycle) and 0 otherwise.
    """
    rho = as_partition(rho)
    total = Fraction(0)
    for I in subsets(d - 1):
        W = young_subgroup(I, d)
        count = class_count_in_young(I, d, rho, bound)
        if count:
            total += _subset_coefficient(d, I) * Fraction(count, W.order)
    return d * total


def f_g_table(d: int, bound: int | None = None) -> SdClassFunction:
    """The full indicator vector rho -> f_g(d, rho) in one enumeration pass."""
    _check_bound(d, bound)
    totals = {rho: Fraction(0) for rho in partitions(d)}
    for I in subsets(d - 1):
        W = young_subgroup(I, d)
        coeff = _subset_coefficient(d, I) / W.order
        for rho, count in young_class_counts(I, d, bound).items():
            totals[rho] += coeff * count
    return SdClassFunction(d, {rho: d * val for rho, val in totals.items()})


def one_adic_ep(d: int, bound: int | None = None) -> dict[Perm, Fraction]:
    """The 1-adic Euler-Poincare function

        f = sum_I (-1)^(d-1-|I|)/(d-|I|) * 1_{W_I} / |W_I|

    as a mapping on all of S_d.  Supported on the union of Young subgroups,
    so NOT a class function for d >= 3 (e.g. simple vs non-simple
    transpositions); its orbital sums are the class-level data.
    """
    _check_bound(d, bound)
    values = {w: Fraction(0) for w in all_perms(d)}
    for I in subsets(d - 1):
        W = young_subgroup(I, d)
        coeff = _subset_coefficient(d, I) / W.order
        for w in W.elements():
            values[w] += coeff
    return values


def orbital_sum(f: "Mapping[Perm, Fraction] | SdClassFunction | Callable[[Perm], Fraction]",
                g: Perm) -> Fraction:
    """O_g(f) = sum over v in S_d of f(v^-1 g v).

    Accepts a raw element-indexed mapping (the 1-adic EP function is one),
    a genuine class function, or any callable on permutations.
    """
    d = len(g)
    if isinstance(f, SdClassFunction):
        lookup = lambda w: f(cycle_type(w))
    elif isinstance(f, Mapping):
        lookup = f.__getitem__
    else:
        lookup = f
    total = Fraction(0)
    for v in all_perms(d):
        total += lookup(perm_mul(perm_inv(v), perm_mul(g, v)))
    return total


# -- double cosets ---------------------------------------------------------


def _right_descent_free(w: Perm, I: frozenset) -> bool:
    # w minimal in w W_I  <=>  w increases at every position of I
    return all(w[i - 1] < w[i] for i in I)


def min_coset_reps_in(M: Iterable[int], J: Iterable[int], d: int,
                      bound: int | None = None) -> list[Perm]:
    """Minimal representatives, inside W_M, of the cosets w W_J (J subset M)."""
    _check_bound(d, bound)
    M = frozenset(M)
    J = frozenset(J)
    if not J <= M:
        raise ValueError("J must be contained in M")
    W_M = young_subgroup(M, d)
    return [w for w in W_M.elements() if _right_descent_free(w, J)]


def min_double_coset_reps(M: Iterable[int], I: Iterable[int], d: int,
                          bound: int | None = None) -> list[Perm]:
    """Length-minimal representatives of the double cosets W_M \\ S_d / W_I.

    The descent rule selects them: w is minimal exactly when it increases
    at every position of I and w^-1 increases at every position of M.  By
    Kilmoyer's lemma |W_M w W_I| = |W_M| |W_I| / |W_J(w)| with J(w) the
    support set of ``restriction_support``, and these sizes must sum to d!;
    a failure of that invariant raises.  The oracle is the brute-force
    tiling of S_d by the cosets, in the tests.  Results are cached per
    (M, I, d).
    """
    _check_bound(d, bound)
    return list(_min_double_coset_reps_cached(frozenset(M), frozenset(I), d))


@lru_cache(maxsize=None)
def _min_double_coset_reps_cached(M: frozenset, I: frozenset, d: int
                                  ) -> tuple[Perm, ...]:
    reps = [w for w in all_perms(d)
            if _right_descent_free(w, I) and _right_descent_free(perm_inv(w), M)]
    product = young_subgroup(M, d).order * young_subgroup(I, d).order
    total = sum(Fraction(product, young_subgroup(_support(M, I, w), d).order)
                for w in reps)
    if total != factorial(d):
        raise AssertionError(
            f"double cosets of W_{sorted(M)}, W_{sorted(I)} in S_{d} have "
            f"total size {total}, not {factorial(d)}")
    return tuple(sorted(reps, key=lambda w: (inversions(w), w)))


def _support(M: frozenset, I: frozenset, w: Perm) -> frozenset:
    # J = (simple set of M) cap w(I): w s_i w^-1 is the transposition
    # (w(i), w(i+1)), the simple reflection s_w(i) of M exactly when
    # w(i+1) = w(i) + 1 and w(i) is in M
    return frozenset(w[i - 1] for i in I
                     if w[i] == w[i - 1] + 1 and w[i - 1] in M)


def restriction_support(M: Iterable[int], I: Iterable[int], w: Perm) -> frozenset:
    """For w minimal in W_M w W_I: the support of g -> 1_{W_I}(w^-1 g w) on
    W_M is the Young subgroup W_J with J = (simple set of M) cap w(I)
    (Kilmoyer's lemma, W_M cap w W_I w^-1 = W_J).

    Returns J in closed form and rejects non-minimal w.  The oracle is
    ``support_by_enumeration``, which must equal the elements of W_J.
    """
    M = frozenset(M)
    I = frozenset(I)
    if not (_right_descent_free(w, I) and _right_descent_free(perm_inv(w), M)):
        raise ValueError("w is not the minimal double-coset representative")
    return _support(M, I, w)


def support_by_enumeration(M: Iterable[int], I: Iterable[int], w: Perm
                           ) -> frozenset[Perm]:
    """{v in W_M : w^-1 v w in W_I}, by enumerating W_M: the oracle for
    ``restriction_support``.  Refuses d > DEFAULT_ENUM_BOUND."""
    d = len(w)
    _check_bound(d, None)
    W_I = young_subgroup(I, d)
    w_inv = perm_inv(w)
    return frozenset(v for v in young_subgroup(M, d).elements()
                     if perm_mul(w_inv, perm_mul(v, w)) in W_I)


def proper_levi_vanishing(d: int, M: Iterable[int],
                          bound: int | None = None) -> dict[frozenset, Fraction]:
    """For a proper Young subgroup W_M: the inner sums

        sum over {I, w in D_{M,I} : J = (simple set of M) cap w(I)}
            of (-1)^(d-1-|I|)/(d-|I|)

    for every J inside M's simple set.  All of them vanish; the caller
    asserts that.
    """
    _check_bound(d, bound)
    M = frozenset(M)
    if M == frozenset(range(1, d)):
        raise ValueError("M must be a proper subset of {1, .., d-1}")
    sums: dict[frozenset, Fraction] = {}
    for k in range(len(M) + 1):
        for J in itertools.combinations(sorted(M), k):
            sums[frozenset(J)] = Fraction(0)
    for I in subsets(d - 1):
        coeff = _subset_coefficient(d, I)
        for w in min_double_coset_reps(M, I, d, bound):
            sums[_support(M, I, w)] += coeff
    return sums
