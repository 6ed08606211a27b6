"""The double-expansion product: an independent oracle for ``SymPoly.__mul__``.

Both factors are expanded to their full S_n-orbits and every pair of
monomials is multiplied; ``SymPoly.from_expansion`` folds the sum back to
dominant keys and checks that it is symmetric.  The cost is the product of
the two orbit sizes per pair of terms, so it is kept to small inputs; the
production product walks one orbit per pair of dominant keys.

``complete_homogeneous`` is h_k straight from its definition, for the tests
that take it as an input; it does not go through ``multiplicative_sum``.

``tensor`` is the concatenation product of two e-basis parahoric combos in
QScalar arithmetic, one pair of terms at a time: the oracle of the memoised
Fraction products of ``epfun._ep_terms``.
"""

from __future__ import annotations

from qtransfer.algebra import ZERO, SymPoly, dominant, partitions
from qtransfer.epfun import ParahoricCombo


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


def tensor(a: ParahoricCombo, b: ParahoricCombo) -> ParahoricCombo:
    """Concatenation product: types merge as partitions of n1 + n2,
    coefficients multiply.  Both sides must be in the e-basis."""
    if a.basis != "e" or b.basis != "e":
        raise ValueError("tensor is defined on e-basis combos")
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = dominant(k1 + k2)
            out[key] = out.get(key, ZERO) + c1 * c2
    return ParahoricCombo(a.n + b.n, "e", out)
