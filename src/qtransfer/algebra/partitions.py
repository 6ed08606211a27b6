"""Partitions, compositions, exponent vectors, and Kostka numbers.

Partitions and compositions are plain tuples of positive ints; exponent
vectors ("dominant vectors") are weakly decreasing integer tuples,
negative entries allowed.  Everything here is pure combinatorics with no
coefficient arithmetic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, prod
from operator import sub
from typing import Iterable, Iterator, Sequence

__all__ = [
    "partitions",
    "subsets",
    "compositions",
    "block_composition",
    "composition_count",
    "conjugate",
    "as_partition",
    "as_composition",
    "as_partition_of",
    "as_composition_of",
    "is_weakly_decreasing",
    "dominant",
    "orbit",
    "z_order",
    "sn_class_size",
    "kostka",
    "render_partition",
    "parse_partition",
]


def partitions(n: int, max_part: int | None = None,
               max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, parts weakly decreasing, optionally bounded."""
    if n < 0:
        return
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n

    def rec(rem: int, largest: int, room: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(min(rem, largest), 0, -1):
            for rest in rec(rem - first, first, room - 1):
                yield (first,) + rest

    yield from rec(n, max_part, max_length)


def subsets(n: int) -> Iterator[frozenset[int]]:
    """All 2**n subsets of {1, .., n}, ordered by their 0/1 indicator
    vectors read as binary numbers with the bit of 1 most significant."""
    for bits in itertools.product((0, 1), repeat=n):
        yield frozenset(i + 1 for i, b in enumerate(bits) if b)


def block_composition(I: Iterable[int], d: int) -> tuple[int, ...]:
    """Composition of d cut by the complement of I in {1, .., d-1}: the
    blocks of the Young subgroup W_I and of the Levi type indexed by I."""
    I = frozenset(I)
    if I and (min(I) < 1 or max(I) >= d):
        raise ValueError(f"{sorted(I)} is not a subset of 1..{d - 1}")
    cuts = [0, *itertools.filterfalse(I.__contains__, range(1, d)), d]
    return tuple(map(sub, cuts[1:], cuts))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2**(n-1) compositions of n (ordered sequences of positive parts),
    one per set of cut points, in the order of ``subsets``."""
    if n == 0:
        yield ()
        return
    full = frozenset(range(1, n))
    for cut_points in subsets(n - 1):
        yield block_composition(full - cut_points, n)


def composition_count(lam: Sequence[int]) -> int:
    """Number of distinct orderings of any multiset lam: the compositions with
    the parts of a partition, or the S_n-orbit size of an exponent vector,
    zeros and negative entries included."""
    return factorial(len(lam)) // prod(map(factorial, Counter(lam).values()))


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def as_partition(seq: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(seq)
    if any(p <= 0 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam}")
    return lam


def as_composition(seq: Sequence[int]) -> tuple[int, ...]:
    c = tuple(seq)
    if not c or any(p <= 0 for p in c):
        raise ValueError(f"not a composition: {c}")
    return c


def as_partition_of(seq: Sequence[int], n: int) -> tuple[int, ...]:
    """seq as a partition, refused unless it is one and its parts sum to n."""
    lam = as_partition(seq)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    return lam


def as_composition_of(seq: Sequence[int], n: int) -> tuple[int, ...]:
    """seq as a composition, refused unless it is one and its parts sum to n."""
    c = as_composition(seq)
    if sum(c) != n:
        raise ValueError(f"{c} is not a composition of {n}")
    return c


def is_weakly_decreasing(vec: Sequence[int]) -> bool:
    return all(vec[i] >= vec[i + 1] for i in range(len(vec) - 1))


def dominant(vec: Sequence[int]) -> tuple[int, ...]:
    """The weakly decreasing representative of the S_n-orbit of vec."""
    return tuple(sorted(vec, reverse=True))


@lru_cache(maxsize=None)
def orbit(key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct permutations of an exponent vector, in lexicographic
    order: a next-permutation walk over the sorted multiset emits each one
    once.

    Memoized: SymPoly products walk the orbits of the same dominant keys
    again and again.  transfer_sym walks each orbit once per (r, d), when
    it first builds the image of that key's monomial function.
    """
    perm = sorted(key)
    out = [tuple(perm)]
    while True:
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = perm[:i:-1]
        out.append(tuple(perm))


def z_order(rho: Sequence[int]) -> int:
    """Order of the centralizer in S_n of a permutation of cycle type rho."""
    return prod(part ** m * factorial(m) for part, m in Counter(rho).items())


def sn_class_size(rho: Sequence[int]) -> int:
    """Size of the conjugacy class of cycle type rho in S_{|rho|}."""
    return factorial(sum(rho)) // z_order(rho)


@lru_cache(maxsize=None)
def kostka(mu: tuple[int, ...], weight: tuple[int, ...]) -> int:
    """Kostka number K_{mu, weight}: the number of semistandard tableaux of
    shape mu whose entry i occurs weight[i-1] times (Macdonald I.5-6).

    The largest entry fills a horizontal strip mu/nu of size weight[-1], and
    what is left is a tableau of shape nu and weight weight[:-1].  So the
    recursion runs over the partitions nu with mu_1 >= nu_1 >= mu_2 >= nu_2
    >= ... >= 0 and |mu| - |nu| = weight[-1], memoized on (mu, weight).
    Both arguments are tuples: mu a partition, weight non-negative.
    """
    if len(mu) > len(weight):
        return 0  # first column cannot strictly increase
    if not weight:
        return 1
    rest, strip = weight[:-1], weight[-1]

    def inner(i: int, left: int) -> Iterator[tuple[int, ...]]:
        # rows i, i+1, .. of nu, taking `left` more boxes off mu
        if i == len(mu):
            if left == 0:
                yield ()
            return
        floor = mu[i + 1] if i + 1 < len(mu) else 0
        for take in range(min(left, mu[i] - floor) + 1):
            for tail in inner(i + 1, left - take):
                yield (mu[i] - take, *tail)

    return sum(kostka(tuple(p for p in nu if p), rest) for nu in inner(0, strip))


def render_partition(lam: Sequence[int]) -> str:
    return ",".join(str(p) for p in lam)


def parse_partition(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return as_partition(tuple(int(p) for p in text.split(",")))
