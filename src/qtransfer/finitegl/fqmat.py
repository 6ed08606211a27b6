"""Matrices and polynomials over the prime field F_q.

Matrices are flat row-major tuples of ints in range(q), so they hash and
compare cheaply; all helpers but ``conjugate_elementary``, whose
precomputed step carries d, take (mat, d, q) explicitly.  Polynomials are
coefficient tuples, constant term first, trimmed; monic throughout where
stated.  Class labels are enumerated, not read off a matrix: ``char_poly``
checks each class representative against its label, and the kernel-profile
classifier is the tests' oracle, as is ``mat_mul``, the general product.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

Mat = tuple[int, ...]
Poly = tuple[int, ...]

__all__ = [
    "mat_mul",
    "elementary_step",
    "conjugate_elementary",
    "mat_det",
    "char_poly",
    "poly_mul",
    "poly_pow",
    "poly_divmod",
    "monic_irreducibles",
    "companion_matrix",
    "block_diag",
    "rref_subspaces",
    "in_rowspace",
]


def mat_mul(a: Mat, b: Mat, d: int, q: int) -> Mat:
    out = [0] * (d * d)
    for i in range(d):
        base = i * d
        for k in range(d):
            aik = a[base + k]
            if aik:
                kd = k * d
                for j in range(d):
                    out[base + j] += aik * b[kd + j]
    return tuple(x % q for x in out)


# A conjugation step: (a, rows, b, cols), read by ``conjugate_elementary``.
Step = tuple[int, tuple[tuple[int, int], ...], int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def elementary_step(i: int, j: int, c: int, d: int, q: int) -> Step:
    """The step of ``conjugate_elementary`` for g y g^-1 with g = I + c E_ij
    (i != j) or g = diag(.., c, ..) with c at (i, i), built once per (i, j,
    c, d, q): the flat (target, source) index pairs of the row step and of
    the column step, each with its factor.  The transvection adds c times
    row j to row i, then -c times column i to column j; the diagonal matrix
    adds c - 1 times row i to itself, then c^-1 - 1 times column i."""
    if i != j:
        return (c, tuple((i * d + k, j * d + k) for k in range(d)),
                -c % q, tuple((k * d + j, k * d + i) for k in range(d)))
    return ((c - 1) % q, tuple((i * d + k, i * d + k) for k in range(d)),
            (pow(c, -1, q) - 1) % q, tuple((k * d + i, k * d + i) for k in range(d)))


def conjugate_elementary(y: Mat, step: Step, q: int) -> Mat:
    """g y g^-1 for the g of an ``elementary_step``: one row operation and
    one column operation, O(d) instead of two products, each entry
    out[t] += factor * out[s] over the step's precomputed (t, s) pairs, so
    no index is computed per matrix.  The row step's targets and sources
    are disjoint rows or the same entries, and so are the column step's."""
    a, rows, b, cols = step
    out = list(y)
    for t, s in rows:
        out[t] = (out[t] + a * out[s]) % q
    for t, s in cols:
        out[t] = (out[t] + b * out[s]) % q
    return tuple(out)


def mat_det(a: Mat, d: int, q: int) -> int:
    """det of a d x d matrix by one forward elimination: each pivot row
    clears the rows below it, nothing above; 0 at the first column without
    a pivot."""
    rows = [list(a[i * d:(i + 1) * d]) for i in range(d)]
    det = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        top = rows[col]
        det = det * top[col] % q
        inv = pow(top[col], q - 2, q)
        for r in range(col + 1, d):
            if rows[r][col]:
                c = rows[r][col] * inv % q
                rows[r] = [(x - c * y) % q for x, y in zip(rows[r], top)]
    return det % q


def _principal_minor_sum(a: Mat, d: int, q: int, k: int) -> int:
    total = 0
    for rows in itertools.combinations(range(d), k):
        sub = tuple(a[i * d + j] for i in rows for j in rows)
        total += mat_det(sub, k, q)
    return total % q


def char_poly(a: Mat, d: int, q: int) -> Poly:
    """Characteristic polynomial det(xI - a), monic of degree d.

    Coefficient of x^(d-k) is (-1)^k times the sum of principal k x k
    minors; division-free, so it works over any prime field.
    """
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for k in range(1, d + 1):
        coeffs[d - k] = ((-1) ** k * _principal_minor_sum(a, d, q, k)) % q
    return tuple(coeffs)


# -- polynomials over F_q ----------------------------------------------------


def _poly_trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(f: Poly, g: Poly, q: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % q
    return _poly_trim(out)


def poly_pow(f: Poly, e: int, q: int) -> Poly:
    out: Poly = (1,)
    for _ in range(e):
        out = poly_mul(out, f, q)
    return out


def poly_divmod(f: Poly, g: Poly, q: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    if len(f) < len(g):
        return (), f
    quo = [0] * (len(f) - len(g) + 1)
    inv_lead = pow(g[-1], q - 2, q)
    for k in range(len(f) - len(g), -1, -1):
        c = (rem[k + len(g) - 1] * inv_lead) % q
        quo[k] = c
        if c:
            for i, y in enumerate(g):
                rem[k + i] = (rem[k + i] - c * y) % q
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, maxdeg: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials over F_q of degree 1..maxdeg, in
    (degree, coefficients) order, by sieve: a polynomial is irreducible iff
    no irreducible of at most half its degree divides it."""
    irreducibles: list[Poly] = []
    for deg in range(1, maxdeg + 1):
        for tail in itertools.product(range(q), repeat=deg):
            f = tail + (1,)
            if all(poly_divmod(f, g, q)[1] != ()
                   for g in irreducibles if 2 * (len(g) - 1) <= deg):
                irreducibles.append(f)
    return tuple(irreducibles)


def companion_matrix(f: Poly, q: int) -> Mat:
    """Companion matrix of a monic polynomial: char_poly(companion(f)) == f."""
    m = len(f) - 1
    out = [[0] * m for _ in range(m)]
    for i in range(1, m):
        out[i][i - 1] = 1
    for i in range(m):
        out[i][m - 1] = (-f[i]) % q
    return tuple(x for row in out for x in row)


def block_diag(blocks: Sequence[tuple[Mat, int]]) -> Mat:
    """Assemble flat block-diagonal matrix from (matrix, size) pairs."""
    d = sum(size for _, size in blocks)
    out = [0] * (d * d)
    offset = 0
    for mat, size in blocks:
        for i in range(size):
            for j in range(size):
                out[(offset + i) * d + (offset + j)] = mat[i * size + j]
        offset += size
    return tuple(out)


# -- subspaces ---------------------------------------------------------------


@lru_cache(maxsize=None)
def rref_subspaces(d: int, q: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """All subspaces of F_q^d grouped by dimension 0..d.

    Each subspace is its canonical reduced-row-echelon basis: a tuple of
    row vectors.  Dimension r subspaces are enumerated by pivot-column
    choice plus free entries.
    """
    by_dim: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in range(d + 1)]
    by_dim[0].append(())
    for r in range(1, d + 1):
        for pivots in itertools.combinations(range(d), r):
            pivot_set = set(pivots)
            free = [(i, c) for i in range(r) for c in range(pivots[i] + 1, d)
                    if c not in pivot_set]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * d for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), val in zip(free, values):
                    rows[i][c] = val
                by_dim[r].append(tuple(tuple(row) for row in rows))
    return tuple(tuple(group) for group in by_dim)


def in_rowspace(vec: Sequence[int], basis: Sequence[Sequence[int]],
                pivots: Sequence[int], q: int) -> bool:
    """Membership test against an RREF basis with known pivot columns."""
    v = list(vec)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c:
            v = [(x - c * y) % q for x, y in zip(v, row)]
    return not any(v)
