"""Element scans of GL_d(F_q) and of its standard parabolic subgroups, and
the from-scratch class labeller: the brute-force oracles for the class data
of ``qtransfer.finitegl``.

``group_elements`` keeps the invertible matrices among all q^(d^2)
candidates; ``parabolic_elements`` builds P_c from invertible diagonal
blocks, each the element scan of its GL_part(F_q), and free entries above
them.  Each refuses before its scan when the scan, or |P|, exceeds
SCAN_LIMIT, and checks its count against the group order.  Both are
memoised per (d, q) or (d, q, c), so repeated reads share one list.
``label_of`` classifies one matrix by its characteristic polynomial and
the kernel profiles of f(A)^j, a complete conjugacy invariant, with ranks
by ``mat_rank`` and f(A) by ``poly_eval_matrix``.  The production path
lists no element and labels no matrix, as its labels are enumerated: the
tests compare its classes, sizes and lookups against these.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from qtransfer.algebra import conjugate
from qtransfer.finitegl import SCAN_LIMIT, BudgetError, GLGroup, ParabolicSubgroup
from qtransfer.finitegl.fqmat import (
    Mat,
    Poly,
    char_poly,
    mat_det,
    mat_mul,
    monic_irreducibles,
    poly_divmod,
)


def group_elements(group: GLGroup) -> tuple[Mat, ...]:
    """All invertible matrices, scanned from q^(d^2) candidates; refuses
    before the scan when that exceeds SCAN_LIMIT."""
    return _group_elements(group.d, group.q)


@lru_cache(maxsize=None)
def _group_elements(d: int, q: int) -> tuple[Mat, ...]:
    scan = q ** (d * d)
    if scan > SCAN_LIMIT:
        raise BudgetError(
            f"GL_{d}(F_{q}) element scan space {scan} "
            f"exceeds the scan limit {SCAN_LIMIT}")
    elems = tuple(flat for flat in itertools.product(range(q), repeat=d * d)
                  if mat_det(flat, d, q))
    if len(elems) != GLGroup(d, q).order:
        raise AssertionError("element count does not match group order")
    return elems


def parabolic_elements(parabolic: ParabolicSubgroup) -> tuple[Mat, ...]:
    """The elements of P in increasing order: invertible diagonal blocks and
    free entries above.  Refuses when |P| or a block's scan exceeds
    SCAN_LIMIT."""
    return _parabolic_elements(parabolic.group.d, parabolic.group.q, parabolic.composition)


@lru_cache(maxsize=None)
def _parabolic_elements(d: int, q: int, comp: tuple[int, ...]) -> tuple[Mat, ...]:
    order = ParabolicSubgroup(GLGroup(d, q), comp).order
    if order > SCAN_LIMIT:
        raise BudgetError(
            f"P_{comp} in GL_{d}(F_{q}) has {order} elements, "
            f"beyond the scan limit {SCAN_LIMIT}")
    block_gls = [group_elements(GLGroup(part, q)) for part in comp]
    starts = tuple(itertools.accumulate(comp[:-1], initial=0))
    block = [b for b, part in enumerate(comp) for _ in range(part)]
    free = [(i, j) for i in range(d) for j in range(d) if block[j] > block[i]]
    out = []
    for blocks in itertools.product(*block_gls):
        base = [0] * (d * d)
        for part, s, flat in zip(comp, starts, blocks):
            for i in range(part):
                for j in range(part):
                    base[(s + i) * d + (s + j)] = flat[i * part + j]
        for values in itertools.product(range(q), repeat=len(free)):
            mat = base[:]
            for (i, j), val in zip(free, values):
                mat[i * d + j] = val
            out.append(tuple(mat))
    if len(out) != order:
        raise AssertionError("parabolic element count mismatch")
    out.sort()
    return tuple(out)


def mat_identity(d: int) -> Mat:
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


def mat_rank(a: Mat, d: int, q: int) -> int:
    """Rank by one forward elimination: each pivot row clears the rows
    below it, and a column without a pivot is skipped."""
    rows = [list(a[i * d:(i + 1) * d]) for i in range(d)]
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, d) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[col], q - 2, q)
        for r in range(rank + 1, d):
            if rows[r][col]:
                c = rows[r][col] * inv % q
                rows[r] = [(x - c * y) % q for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def poly_eval_matrix(f: Poly, a: Mat, d: int, q: int) -> Mat:
    """f(a) by Horner's rule, from the leading coefficient of f times I."""
    ident = mat_identity(d)
    out = tuple(f[-1] * x for x in ident)
    for c in reversed(f[:-1]):
        out = mat_mul(out, a, d, q)
        if c:
            out = tuple((x + c * y) % q for x, y in zip(out, ident))
    return out


def label_of(group: GLGroup, mat: Mat) -> tuple:
    """Complete conjugacy invariant of an invertible matrix, in the layout of
    ``GLClass.label``: for each irreducible f that divides the characteristic
    polynomial m times, the partition whose conjugate is the growth of the
    kernels of f(A)^j over deg f, read until they reach m deg f, where they
    stop."""
    d, q = group.d, group.q
    cp = char_poly(mat, d, q)
    label = []
    for f in monic_irreducibles(q, d):
        mult = 0
        quo, rem = poly_divmod(cp, f, q)
        while not rem:
            cp, mult = quo, mult + 1
            quo, rem = poly_divmod(cp, f, q)
        if not mult:
            continue
        deg = len(f) - 1
        B = poly_eval_matrix(f, mat, d, q)
        power, kernel, profile = B, 0, []
        while True:
            k = d - mat_rank(power, d, q)
            if k == kernel:
                raise AssertionError(f"the kernels of f(A)^j for f = {f} and A = {mat} "
                                     f"stop at {kernel} of {mult * deg} dimensions")
            profile.append((k - kernel) // deg)
            kernel = k
            if kernel == mult * deg:
                break
            power = mat_mul(power, B, d, q)
        label.append((f, conjugate(tuple(profile))))
        if cp == (1,):
            return tuple(sorted(label))
    raise AssertionError(f"the characteristic polynomial of {mat} has a factor "
                         f"{cp} of no irreducible of degree <= {d}")


def class_index_of(group: GLGroup, mat: Mat) -> int:
    """Index in ``group.classes`` of the class of mat, by its label."""
    return _class_lookup(group)[label_of(group, mat)]


@lru_cache(maxsize=None)
def _class_lookup(group: GLGroup) -> dict:
    return {c.label: i for i, c in enumerate(group.classes)}
