"""Sums over semistandard tableaux: an independent oracle for ``schur``
and ``image_schur``.

s_mu is the sum of z**weight(T) over the semistandard tableaux T of shape
mu with entries in 1..n, which ``ssyt_tableaux`` lists and ``ssyt_weight``
weighs; the package has no tableau walk of its own.  The image of s_mu under the transfer is the sum
of the images of those monomials: z**a maps to v**(a . x) t**b, with x the
shift vector and b the block sums of a.  Both walks touch every tableau,
so they are limited to small shapes; the production paths build s_mu from
Kostka numbers and its image as a Jacobi-Trudi determinant.  Only public
names of the package are used.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import lt
from typing import Iterator, Sequence

from qtransfer.algebra import QScalar, SymPoly, as_partition
from qtransfer.transfer import TransferParams, shift_vector


def ssyt_tableaux(shape: Sequence[int], max_entry: int
                  ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Semistandard Young tableaux of the given shape, entries in 1..max_entry,
    generated lazily, in lexicographic order of their rows.

    Rows weakly increase: each row is drawn from
    ``itertools.combinations_with_replacement`` of the entries.  Columns
    strictly increase: a row is kept when each entry exceeds the one above.
    """
    shape = as_partition(shape) if shape else ()
    if len(shape) > max_entry:
        return  # first column cannot strictly increase
    entries = range(1, max_entry + 1)

    def rows_from(r: int, above: tuple[int, ...]
                  ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == len(shape):
            yield ()
            return
        for row in itertools.combinations_with_replacement(entries, shape[r]):
            if all(map(lt, above, row)):
                for rest in rows_from(r + 1, row):
                    yield (row, *rest)

    yield from rows_from(0, ())


def ssyt_weight(tab: Sequence[Sequence[int]], max_entry: int) -> tuple[int, ...]:
    """Weight vector of a tableau: entry i-count at position i-1."""
    w = [0] * max_entry
    for row in tab:
        for x in row:
            w[x - 1] += 1
    return tuple(w)


def schur_by_tableaux(n: int, mu) -> SymPoly:
    """s_mu in n variables as the weight count of its tableaux."""
    mu = as_partition(mu) if mu else ()
    counts = Counter(ssyt_weight(tab, n) for tab in ssyt_tableaux(mu, n))
    # the weight multiset of SSYT is S_n-stable; from_expansion re-checks it
    return SymPoly.from_expansion(n, {w: QScalar(c) for w, c in counts.items()})


def image_schur_by_tableaux(p: TransferParams, mu) -> SymPoly:
    """The image of s_mu: each tableau's weight monomial, mapped one by one."""
    mu = as_partition(mu) if mu else ()
    x = shift_vector(p)
    hits: dict[tuple[int, ...], Counter] = {}
    for tab in ssyt_tableaux(mu, p.n):
        a = ssyt_weight(tab, p.n)
        b = tuple(sum(a[k * p.d:(k + 1) * p.d]) for k in range(p.r))
        hits.setdefault(b, Counter())[sum(ai * xi for ai, xi in zip(a, x))] += 1
    return SymPoly.from_expansion(p.r, {b: QScalar.from_v_terms(h)
                                        for b, h in hits.items()})
