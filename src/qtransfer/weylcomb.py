"""Symmetric-group combinatorics: Young subgroups, double cosets, the
1-adic Euler-Poincare function, and the d-cycle indicator identity.

Permutations are 1-based one-line tuples: w[i-1] is the image of i.
Subsets I of {1, .., d-1} index simple transpositions; the complement of I
cuts {1, .., d} into the consecutive blocks of a composition, and W_I is
the Young subgroup preserving those blocks.  Everything is exact (Fraction
coefficients).

Closed forms compute, enumerations verify.  Cycle-type counts of a Young
subgroup are products of S_part class sizes; the Euler-Poincare sum over
the subsets I collapses onto partitions (``ep_weights``).  Double-coset
representatives are a filter, never a scan of S_d: D_{M,I} is the part of
D_{M,empty} with no right descent in I (Geck-Pfeiffer, Characters of Finite
Coxeter Groups and Iwahori-Hecke Algebras, 2.1.7).  D_{M,empty}, the
shuffles of the increasing runs of M's blocks, is built value by value as
one list per composition of M, each word interned once and the list shared
by every I against it.  Each word keeps the positions where two adjacent
values share a block of M, and J(w) is read off those labels, not values:
W_M cap w W_I w^-1 = W_J(w) for minimal w (Kilmoyer's lemma, op. cit.
2.1-2.2).  Each build keeps the tally of its J(w) and checks it by the
sizes of the double cosets, which must sum to d!.  The tests' descent rule
shares only the right-descent half of the filter; ``restriction_support``
(the per-permutation check of the supports), the d! check and the
brute-force enumerations stay independent oracles
(``YoungSubgroup.elements``, ``support_by_enumeration``, and in the tests
the tiling of S_d and the subset sums).  An orbital sum runs over one
conjugacy class, closed from g under the simple transpositions.

Each enumeration refuses, before it starts, when its own size exceeds
ENUM_LIMIT = 8! elements: ``all_perms`` and ``orbital_sum`` on d!,
``YoungSubgroup.elements`` on |W_I| and ``min_double_coset_reps`` on
d!/max(|W_M|, |W_I|), the length of the shorter of the two lists it can
filter; ``f_g_table`` refuses once the terms it has summed exceed it.
Nothing subsamples, and the limit has no override.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra.partitions import (as_partition_of, block_composition, composition_count,
                                 dominant, partitions, sn_class_size, subsets)

__all__ = [
    "Perm",
    "EnumerationBudgetError",
    "ENUM_LIMIT",
    "perm_mul",
    "perm_inv",
    "cycle_type",
    "all_perms",
    "block_composition",
    "YoungSubgroup",
    "young_subgroup",
    "composition_class_counts",
    "SdClassFunction",
    "ep_weights",
    "f_g_table",
    "one_adic_ep",
    "orbital_sum",
    "DoubleCosetReps",
    "min_double_coset_reps",
    "restriction_support",
    "support_by_enumeration",
    "proper_levi_vanishing",
]

Perm = tuple[int, ...]

ENUM_LIMIT = factorial(8)  # |S_8|: the largest symmetric group scanned in full


class EnumerationBudgetError(RuntimeError):
    """Raised before an enumeration of more than ENUM_LIMIT elements starts;
    the message names the enumeration's size and the limit."""


def _refuse_beyond_limit(what: Callable[[], str], size: int) -> None:
    """what() names the enumeration; it is called only on a refusal."""
    if size > ENUM_LIMIT:
        raise EnumerationBudgetError(
            f"enumerating {what()} ({size} elements) exceeds the enumeration "
            f"limit {ENUM_LIMIT}")


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple([a[i - 1] for i in b])


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
    return dominant(lengths)


@lru_cache(maxsize=None)
def all_perms(d: int) -> tuple[Perm, ...]:
    _refuse_beyond_limit(lambda: f"S_{d}", factorial(d))
    return tuple(itertools.permutations(range(1, d + 1)))


@dataclass(frozen=True)
class YoungSubgroup:
    """W_I = product of symmetric groups on the consecutive blocks of a
    composition of d."""

    d: int
    composition: tuple[int, ...]

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The 1-based [lo, hi] of each block, on first use."""
        starts = itertools.accumulate(self.composition, initial=1)
        return tuple((lo, lo + part - 1) for lo, part in zip(starts, self.composition))

    @cached_property
    def order(self) -> int:
        return prod(map(factorial, self.composition))

    def __contains__(self, w: Perm) -> bool:
        return all(all(lo <= w[i - 1] <= hi for i in range(lo, hi + 1))
                   for lo, hi in self.blocks)

    def elements(self) -> Iterator[Perm]:
        _refuse_beyond_limit(lambda: f"W_{self.composition}", self.order)
        per_block = [itertools.permutations(range(lo, hi + 1)) for lo, hi in self.blocks]
        return (tuple(itertools.chain.from_iterable(choice))
                for choice in itertools.product(*per_block))


def young_subgroup(I: Iterable[int], d: int) -> YoungSubgroup:
    """The Young subgroup W_I attached to I by the complement rule, one
    shared object per (I, d)."""
    return _young_subgroup(frozenset(I), d)


@lru_cache(maxsize=None)
def _young_subgroup(I: frozenset, d: int) -> YoungSubgroup:
    return YoungSubgroup(d, block_composition(I, d))


def composition_class_counts(comp: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Cycle-type counts of the Young subgroup of a given composition: an
    element is a tuple of block permutations, its cycle type the merge of
    theirs, so the counts are products of S_part class sizes.  The oracle is
    counting ``YoungSubgroup(sum(comp), comp).elements()`` by type."""
    counts: dict[tuple[int, ...], int] = {(): 1}
    for part in comp:
        merged = Counter()
        for rho, count in counts.items():
            for sigma in partitions(part):
                merged[dominant(rho + sigma)] += count * sn_class_size(sigma)
        counts = merged
    return counts


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
        return self.values[as_partition_of(rho, self.d)]


def _ep_coefficient(blocks: int) -> Fraction:
    # (-1)^(d-1-|I|)/(d-|I|) for a subset I that cuts d into d - |I| blocks
    return Fraction((-1) ** (blocks - 1), blocks)


def ep_weights(d: int) -> dict[tuple[int, ...], Fraction]:
    """The Euler-Poincare sum over the subsets I of {1, .., d-1}, with
    coefficients (-1)^(d-1-|I|)/(d-|I|), collapsed onto the sorted block
    sizes of I: a partition lam with l parts collects composition_count(lam)
    subsets, so weighs composition_count(lam) (-1)^(l-1)/l."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return {lam: composition_count(lam) * _ep_coefficient(len(lam))
            for lam in partitions(d)}


def f_g_table(d: int) -> SdClassFunction:
    """The d-cycle indicator: rho -> the coefficient of the Deligne-Lusztig
    term R_g, g of cycle type rho,

        f_g = d * sum_I (-1)^(d-1-|I|)/(d-|I|) * |W_I cap class(rho)| / |W_I|,

    which is 1 when rho = (d) (a single d-cycle) and 0 otherwise.  W_I and
    its cycle-type counts depend only on the sorted blocks lam of I, so this
    is d times the sum over lam of ep_weights(d)[lam] * count_lam(rho) /
    |W_lam|.  Refuses once its (lam, rho) terms exceed ENUM_LIMIT, i.e. for
    d >= 19."""
    totals = {rho: Fraction(0) for rho in partitions(d)}
    terms = 0
    for lam, weight in ep_weights(d).items():
        counts = composition_class_counts(lam)
        terms += len(counts)
        _refuse_beyond_limit(lambda: f"the terms of f_g_table({d}) summed so far", terms)
        weight /= sum(counts.values())  # |W_lam|
        for rho, count in counts.items():
            totals[rho] += weight * count
    return SdClassFunction(d, {rho: d * val for rho, val in totals.items()})


def one_adic_ep(d: int) -> dict[Perm, Fraction]:
    """The 1-adic Euler-Poincare function

        f = sum_I (-1)^(d-1-|I|)/(d-|I|) * 1_{W_I} / |W_I|

    as a mapping on all of S_d.  Supported on the union of Young subgroups,
    so NOT a class function for d >= 3 (e.g. simple vs non-simple
    transpositions); its orbital sums are the class-level data.  The sum
    runs in integers over the lcm of the coefficients' denominators, and
    one Fraction is built per permutation.
    """
    values = dict.fromkeys(all_perms(d), 0)
    terms = [(W, _ep_coefficient(len(W.composition)) / W.order)
             for W in (young_subgroup(I, d) for I in subsets(d - 1))]
    den = lcm(*(coeff.denominator for _, coeff in terms))
    for W, coeff in terms:
        num = coeff.numerator * (den // coeff.denominator)
        for w in W.elements():
            values[w] += num
    return {w: Fraction(num, den) for w, num in values.items()}


def orbital_sum(f: Mapping[Perm, Fraction], g: Perm) -> Fraction:
    """O_g(f) = sum over v in S_d of f(v^-1 g v), for a mapping f on all of
    S_d such as the 1-adic EP function.  Each conjugate w of g is v^-1 g v
    for |Z(g)| = d!/|class(g)| of the v, so O_g(f) = |Z(g)| times the sum of
    f over the class of g, closed from g under w -> s_i w s_i (the simple
    transpositions generate S_d).  Refuses when d! exceeds ENUM_LIMIT, as
    the sum over S_d it stands for."""
    d = len(g)
    _refuse_beyond_limit(lambda: f"S_{d}", factorial(d))
    simple = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, d + 1)) for i in range(1, d)]
    conjugates, todo = {g}, [g]
    while todo:
        w = todo.pop()
        for s in simple:
            v = perm_mul(perm_mul(s, w), s)
            if v not in conjugates:
                conjugates.add(v)
                todo.append(v)
    return factorial(d) // len(conjugates) * sum((f[w] for w in conjugates), Fraction(0))


# -- double cosets ---------------------------------------------------------


class DoubleCosetReps(tuple):
    """Double-coset representatives with ``supports``, the pairs (J, #{w : J(w) = J})."""

    supports: tuple[tuple[frozenset, int], ...]


def min_double_coset_reps(M: Iterable[int], I: Iterable[int], d: int) -> DoubleCosetReps:
    """Length-minimal representatives of the double cosets W_M \\ S_d / W_I,
    sorted by (length, one-line form): the cached immutable tuple, shared by
    every caller, with the tally of their support sets as ``supports``.

    w is minimal in W_M w W_I exactly when w^-1 increases on each block of
    M and w at each position of I, so D_{M,I} is the part of D_{M,empty}
    (``_shuffles``, built value by value, not scanned, its words interned
    once) with no right descent in I: the kept words are the tuple.  J(w)
    is read off the positions where w keeps a block label of M, and by
    Kilmoyer's lemma the double cosets have sizes |W_M| |W_I| / |W_J(w)|,
    which must sum to d! (a failure raises).  When the list of M is longer
    than ENUM_LIMIT, D_{I,M} is filtered from the list of I, inverted and
    interned; when both are, the build is refused on d!/max(|W_M|, |W_I|).
    Results are cached per (M, I, d).

    The tests' descent rule shares the right-descent half of this filter;
    its left half is built here, not scanned, and the supports come from
    labels, not values.  ``restriction_support``, the d! check and the
    tests' brute-force tiling of S_d (d <= 5) stay the independent oracles.
    """
    return _min_double_coset_reps_cached(frozenset(M), frozenset(I), d)


def _bits(S: Iterable[int]) -> int:
    return sum(1 << i for i in S)


# one shared tuple per permutation in the shuffle lists and the cached
# representatives of all (M, I), so that they hold no more than S_d; likewise
# one shared (J, count) pair per value in their supports
_PERMS: dict[Perm, Perm] = {}
_SUPPORTS: dict[tuple[frozenset, int], tuple[frozenset, int]] = {}


@lru_cache(maxsize=1)
def _shuffles(alpha: tuple[int, ...]) -> list[tuple[int, Perm, int, tuple[tuple[int, int], ...]]]:
    """D_{M,empty} for M of composition alpha as words (length, w, the bits
    of w's right descents, the pairs (1 << i, 1 << w(i)) for each i with
    w(i) and w(i + 1) in one block of alpha), sorted by (length, w), each w
    interned in ``_PERMS``.  w shuffles the blocks' increasing runs and is
    built value by value: with c_j values of each block j placed, the next
    value v of block k adds the sum of c_j over j > k inversions (the larger
    values before it), a right descent when the value before it lies in a
    later block and a pair when in block k.  As that depends on the prefix
    only through (c, the block before), each such group of prefixes grows in
    one pass.  The sort key puts the length above the block labels, which
    order the words of one length by w.  One alpha is kept, as callers take
    the I for one M in a row."""
    d, n = sum(alpha), len(alpha)
    first = list(itertools.accumulate(alpha, initial=1))
    width = n.bit_length()  # the bits of one block label
    shift = width * d
    # c -> previous block -> [(sort key, w so far, descents, pairs)]
    layer = {(0,) * n: {-1: [(0, (), 0, ())]}}
    for i in range(d):  # position i + 1 takes its value
        grown = {}
        for c, by_last in layer.items():
            for k, taken in enumerate(c):
                if taken == alpha[k]:
                    continue
                v = first[k] + taken
                step, tail = (sum(c[k + 1:]) << shift) + (k << width * (d - 1 - i)), (v,)
                out = grown.setdefault(c[:k] + (taken + 1,) + c[k + 1:], {}).setdefault(k, [])
                for last, prefixes in by_last.items():
                    if last == k:
                        pair = ((1 << i, 1 << (v - 1)),)
                        out += [(key + step, w + tail, descents, pairs + pair)
                                for key, w, descents, pairs in prefixes]
                    else:
                        bit = 1 << i if last > k else 0
                        out += [(key + step, w + tail, descents | bit, pairs)
                                for key, w, descents, pairs in prefixes]
        layer = grown
    words = sorted(itertools.chain.from_iterable(layer[alpha].values()))
    return [(key >> shift, _PERMS.setdefault(w, w), descents, pairs)
            for key, w, descents, pairs in words]


@lru_cache(maxsize=None)
def _min_double_coset_reps_cached(M: frozenset, I: frozenset, d: int) -> DoubleCosetReps:
    W_M, W_I = young_subgroup(M, d), young_subgroup(I, d)
    _refuse_beyond_limit(lambda: f"the double cosets W_{sorted(M)} \\ S_{d} / W_{sorted(I)}",
                         factorial(d) // max(W_M.order, W_I.order))
    if factorial(d) // W_M.order <= ENUM_LIMIT:
        # w has no descent in I; J(w) is the values of its pairs there
        alpha, cut, side = W_M.composition, _bits(I), 1
    else:
        # u = w^-1 in D_{I,M} has no descent in M; J(w) is the positions of
        # u's pairs there
        alpha, cut, side = W_I.composition, _bits(M), 0
    kept = [word for word in _shuffles(alpha) if not word[2] & cut]
    reps = DoubleCosetReps(map(itemgetter(1), kept) if side else
                           (_PERMS.setdefault(w, w) for _, w in
                            sorted((length, perm_inv(u)) for length, u, _, _ in kept)))
    masks = Counter()
    for pairs, n in Counter(map(itemgetter(3), kept)).items():
        masks[sum(pair[side] for pair in pairs if pair[0] & cut)] += n
    supports = {frozenset(j for j in range(1, d) if mask >> j & 1): n
                for mask, n in masks.items()}
    product = W_M.order * W_I.order
    total = sum(n * (product // young_subgroup(J, d).order) for J, n in supports.items())
    if total != factorial(d):
        raise AssertionError(
            f"double cosets of W_{sorted(M)}, W_{sorted(I)} in S_{d} have "
            f"total size {total}, not {factorial(d)}")
    reps.supports = tuple(_SUPPORTS.setdefault(pair, pair) for pair in supports.items())
    return reps


def restriction_support(M: Iterable[int], I: Iterable[int], w: Perm) -> frozenset:
    """For w minimal in W_M w W_I: the support of g -> 1_{W_I}(w^-1 g w) on
    W_M is the Young subgroup W_J with J = (simple set of M) cap w(I)
    (Kilmoyer's lemma, W_M cap w W_I w^-1 = W_J), as w s_i w^-1 =
    (w(i), w(i+1)) is the simple reflection s_w(i) of M exactly when
    w(i+1) = w(i) + 1 and w(i) is in M.

    The per-permutation check of the supports that ``min_double_coset_reps``
    reads off its matrices.  Rejects non-minimal w: the loop over I that
    finds J checks that w increases there, and the loop over M that m comes
    before m + 1 in w.  Its oracle is ``support_by_enumeration``.
    """
    M = frozenset(M)
    J = []
    for i in I:
        if w[i - 1] > w[i]:
            raise ValueError("w is not the minimal double-coset representative")
        if w[i] == w[i - 1] + 1 and w[i - 1] in M:
            J.append(w[i - 1])
    for m in M:
        if w.index(m) > w.index(m + 1):
            raise ValueError("w is not the minimal double-coset representative")
    return frozenset(J)


def support_by_enumeration(M: Iterable[int], I: Iterable[int], w: Perm
                           ) -> frozenset[Perm]:
    """{v in W_M : w^-1 v w in W_I}, by enumerating W_M: the oracle for
    ``restriction_support``.  w^-1 v w is in W_I exactly when v maps the
    w-image of each block of I onto itself, i.e. keeps every value's block
    label.  W_M is listed once per run of calls with one (M, d).  Refuses
    when |W_M| exceeds ENUM_LIMIT."""
    d = len(w)
    # the block of I of each position, then of each value by its position in w
    blocks = [k for k, part in enumerate(young_subgroup(I, d).composition) for _ in range(part)]
    label = [blocks[i - 1] for i in perm_inv(w)]
    return frozenset(v for v in _elements(young_subgroup(M, d))
                     if [label[x - 1] for x in v] == label)


_elements = lru_cache(maxsize=1)(lambda W: tuple(W.elements()))


def proper_levi_vanishing(d: int, M: Iterable[int]) -> dict[frozenset, Fraction]:
    """For a proper Young subgroup W_M: the inner sums

        sum over {I, w in D_{M,I} : J = (simple set of M) cap w(I)}
            of (-1)^(d-1-|I|)/(d-|I|)

    for every J inside M's simple set.  All of them vanish; the caller
    asserts that.  The count of each J per I is the ``supports`` tally that
    ``min_double_coset_reps`` made for its Kilmoyer check.
    """
    M = frozenset(M)
    if M == frozenset(range(1, d)):
        raise ValueError("M must be a proper subset of {1, .., d-1}")
    sums: dict[frozenset, Fraction] = {}
    for k in range(len(M) + 1):
        for J in itertools.combinations(sorted(M), k):
            sums[frozenset(J)] = Fraction(0)
    # integer counts per (J, number of blocks of I): the coefficient depends
    # on I only through its number of blocks
    tally = Counter()
    for I in subsets(d - 1):
        blocks = d - len(I)
        tally.update({(J, blocks): n for J, n in min_double_coset_reps(M, I, d).supports})
    for (J, blocks), count in tally.items():
        sums[J] += _ep_coefficient(blocks) * count
    return sums
