"""Element scans of GL_d(F_q) and of its standard parabolic subgroups: the
brute-force oracles for the class data of ``qtransfer.finitegl``.

``group_elements`` keeps the invertible matrices among all q^(d^2)
candidates; ``parabolic_elements`` builds P_c from invertible diagonal
blocks, each the element scan of its GL_part(F_q), and free entries above
them.  Each refuses before its scan when the scan, or |P|, exceeds
SCAN_LIMIT, and checks its count against the group order.  Both are
memoised per (d, q) or (d, q, c), so repeated reads share one list.  The
production path lists no element: the tests compare its classes, sizes and
lookups against these lists.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from qtransfer.finitegl import SCAN_LIMIT, BudgetError, GLGroup, ParabolicSubgroup
from qtransfer.finitegl.fqmat import Mat, mat_det


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
