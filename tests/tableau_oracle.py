"""Sums over semistandard tableaux: an independent oracle for ``schur``
and ``image_schur``.

s_mu is the sum of z**weight(T) over the semistandard tableaux T of shape
mu with entries in 1..n.  The image of s_mu under the transfer is the sum
of the images of those monomials: z**a maps to v**(a . x) t**b, with x the
shift vector and b the block sums of a.  Both walks touch every tableau,
so they are limited to small shapes; the production paths build s_mu from
Kostka numbers and its image as a Jacobi-Trudi determinant.  Only public
names of the package are used.
"""

from __future__ import annotations

from collections import Counter

from qtransfer.algebra import QScalar, SymPoly, as_partition, ssyt_tableaux, ssyt_weight
from qtransfer.transfer import TransferParams, shift_vector


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
