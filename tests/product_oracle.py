"""The double-expansion product: an independent oracle for ``SymPoly.__mul__``.

Both factors are expanded to their full S_n-orbits and every pair of
monomials is multiplied; ``SymPoly.from_expansion`` folds the sum back to
dominant keys and checks that it is symmetric.  The cost is the product of
the two orbit sizes per pair of terms, so it is kept to small inputs; the
production product walks one orbit per pair of dominant keys.

``complete_homogeneous`` is h_k straight from its definition, for the tests
that take it as an input; it does not go through ``multiplicative_sum``.
"""

from __future__ import annotations

from qtransfer.algebra import ZERO, SymPoly, partitions


def product_by_expansion(f: SymPoly, g: SymPoly) -> SymPoly:
    """f * g as the sum of all products of a monomial of f and one of g."""
    full = {}
    for u, cu in f.expand().items():
        for w, cw in g.expand().items():
            key = tuple(x + y for x, y in zip(u, w))
            full[key] = full.get(key, ZERO) + cu * cw
    return SymPoly.from_expansion(f.nvars, full)


def complete_homogeneous(n: int, k: int) -> SymPoly:
    """h_k in n variables: the sum of m_lam over the partitions lam of k with
    at most n parts, each with coefficient 1."""
    return SymPoly(n, {lam + (0,) * (n - len(lam)): 1 for lam in partitions(k, max_length=n)})
