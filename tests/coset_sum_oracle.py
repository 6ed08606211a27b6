"""Coset sums by general matrix products: an independent oracle for
``ind_conjugate_identity_exhaustive``.

Each Bruhat coset representative s of ``ParabolicSubgroup.coset_reps`` is
inverted with ``mat_inv`` and s^-1 x s is two ``mat_mul`` calls; the second
set of representatives is s t for the generator matrices t of P taken in
turn, multiplied out with their inverses.  The middle expression is the
orbit-stabilizer count, one pass over the P-classes per class of G.  Every
row of every case is computed, zero or not.  The production path conjugates
by row and column operations along the Bruhat cells and fills only the rows
its counts land in.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from qtransfer.algebra import compositions
from qtransfer.finitegl import GLGroup, ParabolicSubgroup
from qtransfer.finitegl.fqmat import Mat, mat_inv, mat_mul


def generator_pairs(parabolic: ParabolicSubgroup) -> tuple[tuple[Mat, Mat], ...]:
    """(g, g^-1) as matrices, one pair per entry (i, j, c) of
    ``parabolic.elementary``: I + c E_ij for i != j, diag(.., c, ..) for
    i == j."""
    d, q = parabolic.group.d, parabolic.group.q
    ident = parabolic.group.identity()
    pairs = []
    for i, j, c in parabolic.elementary:
        g, g_inv = list(ident), list(ident)
        g[i * d + j], g_inv[i * d + j] = c, (q - c if i != j else pow(c, -1, q))
        pairs.append((tuple(g), tuple(g_inv)))
    return tuple(pairs)


def coset_sum_counts(group: GLGroup, x: Mat, parabolic: ParabolicSubgroup,
                     reps: list[tuple[Mat, Mat]]) -> dict[int, int]:
    """For each P-class index c: #{s in reps : s^-1 x s in class c}, over
    (s, s^-1) pairs."""
    d, q = group.d, group.q
    counts: dict[int, int] = {}
    for s, s_inv in reps:
        y = mat_mul(mat_mul(s_inv, x, d, q), s, d, q)
        if parabolic.contains(y):
            idx = parabolic.class_index_of(y)
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def ind_identity_cases(group: GLGroup, parabolic: ParabolicSubgroup) -> list[dict]:
    """The cases of one parabolic, in the layout of the production report."""
    d, q = group.d, group.q
    reps = [(s, mat_inv(s, d, q)) for s in parabolic.coset_reps()]
    twists = generator_pairs(parabolic) or ((group.identity(), group.identity()),)
    reps2 = [(mat_mul(s, t, d, q), mat_mul(t_inv, s_inv, d, q))
             for (s, s_inv), (t, t_inv) in zip(reps, itertools.cycle(twists))]
    per_class_counts = []
    for gidx, cls in enumerate(group.classes):
        centralizer = group.order // cls.size
        middle = {pidx: centralizer * size
                  for pidx, (_, size, pgidx) in enumerate(parabolic.classes)
                  if pgidx == gidx}
        per_class_counts.append((coset_sum_counts(group, cls.rep, parabolic, reps), middle,
                                 coset_sum_counts(group, cls.rep, parabolic, reps2)))
    cases = []
    for cidx in range(len(parabolic.classes)):
        values = [(Fraction(a.get(cidx, 0)),
                   Fraction(b.get(cidx, 0), parabolic.order),
                   Fraction(c.get(cidx, 0)))
                  for a, b, c in per_class_counts]
        cases.append({
            "composition": list(parabolic.composition),
            "class_index": cidx,
            "equal": all(va == vb == vc for va, vb, vc in values),
            "values": [tuple(str(v) for v in row) for row in values],
        })
    return cases


def ind_identity_report(group: GLGroup) -> dict:
    """The report of ``ind_conjugate_identity_exhaustive(group)``."""
    cases = [case for comp in compositions(group.d)
             for case in ind_identity_cases(group, ParabolicSubgroup(group, comp))]
    return {"d": group.d, "q": group.q,
            "ok": all(case["equal"] for case in cases), "cases": cases}
