"""Whole-space scan of stable flags: an independent oracle for
``parabolic_trivial_ind``.

The value of Ind_{P_c}^G(1) at x is the number of x-stable flags of type c.
This oracle lists every subspace of F_q^d in reduced row echelon form,
keeps the x-stable ones per intermediate dimension (memoised per class
representative and dimension), and counts chains of them through the
containment relation between consecutive dimensions, read off the span of
each larger subspace.  It touches every
subspace, so it is limited to small groups; the production path counts the
same flags from the class labels alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from qtransfer.algebra import as_composition
from qtransfer.finitegl import ClassFunction, GLGroup
from qtransfer.finitegl.fqmat import Mat, in_rowspace, rref_subspaces

# (d, q, class representative, dim) -> indices of the stable subspaces
STABLE_CACHE: dict[tuple[int, int, Mat, int], frozenset[int]] = {}


def mat_vec(a: Mat, v: Sequence[int], d: int, q: int) -> tuple[int, ...]:
    return tuple(sum(a[i * d + j] * v[j] for j in range(d)) % q for i in range(d))


@lru_cache(maxsize=None)
def _flag_env(d: int, q: int):
    subs = rref_subspaces(d, q)
    pivots = tuple(
        tuple(tuple(next(j for j, x in enumerate(row) if x) for row in basis)
              for basis in subs[dim])
        for dim in range(d + 1)
    )
    return subs, pivots


@lru_cache(maxsize=None)
def _spans(d: int, q: int, dim: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Every vector of each dim-dimensional subspace."""
    return tuple(
        frozenset(tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % q
                        for j in range(d))
                  for coeffs in itertools.product(range(q), repeat=dim))
        for basis in _flag_env(d, q)[0][dim])


@lru_cache(maxsize=None)
def _containments(d: int, q: int, dim_small: int, dim_big: int
                  ) -> tuple[tuple[int, ...], ...]:
    """For each dim_big subspace, the indices of dim_small subspaces in it."""
    smalls = _flag_env(d, q)[0][dim_small]
    return tuple(
        tuple(si for si, small in enumerate(smalls) if all(row in span for row in small))
        for span in _spans(d, q, dim_big))


def stable_subspaces(group: GLGroup, mat: Mat, dim: int) -> frozenset[int]:
    """Indices (into ``rref_subspaces(d, q)[dim]``) of the dim-dimensional
    subspaces of F_q^d that mat maps into themselves, memoised in
    STABLE_CACHE."""
    d, q = group.d, group.q
    key = (d, q, mat, dim)
    cached = STABLE_CACHE.get(key)
    if cached is not None:
        return cached
    subs, pivots = _flag_env(d, q)
    image = {v: mat_vec(mat, v, d, q) for v in itertools.product(range(q), repeat=d)}
    stable = frozenset(
        idx for idx, basis in enumerate(subs[dim])
        if all(in_rowspace(image[row], basis, pivots[dim][idx], q) for row in basis))
    STABLE_CACHE[key] = stable
    return stable


def scan_trivial_ind(group: GLGroup, comp) -> ClassFunction:
    """Ind_{P_c}^G(1) by counting the stable flags of each class
    representative over all subspaces of F_q^d."""
    comp = as_composition(comp)
    d, q = group.d, group.q
    dims = list(itertools.accumulate(comp))[:-1]  # proper intermediate dims
    values = []
    for cls in group.classes:
        if not dims:
            values.append(Fraction(1))
            continue
        stable_per_dim = [stable_subspaces(group, cls.rep, dim) for dim in dims]
        counts = {idx: 1 for idx in stable_per_dim[0]}
        for level in range(1, len(dims)):
            inside = _containments(d, q, dims[level - 1], dims[level])
            nxt = {}
            for big in stable_per_dim[level]:
                total = sum(counts.get(small, 0) for small in inside[big])
                if total:
                    nxt[big] = total
            counts = nxt
        values.append(Fraction(sum(counts.values())))
    return ClassFunction(group, tuple(values))
