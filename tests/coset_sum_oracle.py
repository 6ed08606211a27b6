"""Coset sums by general matrix products: the independent oracles for the
induction paths of ``qtransfer.finitegl``.

``coset_reps`` lists the Bruhat coset representatives u w of G/P as
matrices, from the cells of ``ParabolicSubgroup._bruhat_cells``;
``_left_coset_reps`` finds one representative per coset by a scan of G.
``induce_class_function`` is coset-sum induction over an enumerated group
and ``induced_values_averaged`` the representative-free average over G;
both invert with ``mat_inv``.  These are what ``parabolic_trivial_ind``,
``coset_conjugator`` and ``_conjugation_counts_grouped`` are compared
against.

For ``ind_conjugate_identity_exhaustive``, each representative s of
``coset_reps`` is inverted with ``mat_inv`` and s^-1 x s is two ``mat_mul``
calls; the second set of representatives is s t for the generator matrices
t of P taken in turn, multiplied out with their inverses.  The middle
expression is the orbit-stabilizer count, one pass over the P-classes per
class of G.  Every row of every case is computed, zero or not.  The
production path conjugates by row and column operations along the Bruhat
cells and fills only the rows its counts land in.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from element_scan_oracle import group_elements
from qtransfer.algebra import compositions
from qtransfer.finitegl import ClassFunction, GLGroup, ParabolicSubgroup
from qtransfer.finitegl.fqmat import Mat, char_poly, mat_identity, mat_mul


def mat_inv(a: Mat, d: int, q: int) -> Mat:
    """a^-1 by Cayley-Hamilton, not by row reduction: with char_poly(a) =
    x^d + c_(d-1) x^(d-1) + .. + c_0, a^-1 = -(a^(d-1) + c_(d-1) a^(d-2) +
    .. + c_1) / c_0, the sum by Horner's rule; c_0 = 0 means singular."""
    coeffs = char_poly(a, d, q)
    if not coeffs[0]:
        raise ZeroDivisionError("matrix is singular")
    ident = mat_identity(d)
    out = ident
    for c in reversed(coeffs[1:-1]):
        out = tuple((x + c * y) % q for x, y in zip(mat_mul(out, a, d, q), ident))
    scale = -pow(coeffs[0], -1, q)
    return tuple(x * scale % q for x in out)


def coset_reps(parabolic: ParabolicSubgroup) -> tuple[Mat, ...]:
    """One representative u w per left coset g P: for each cell (w, free)
    of ``_bruhat_cells``, every u in U_w, with column k of u w equal to
    column w(k) of u.  Refuses when [G:P] exceeds SCAN_LIMIT."""
    d, q = parabolic.group.d, parabolic.group.q
    ident = mat_identity(d)
    reps = []
    for w, free in parabolic._bruhat_cells:
        for values in itertools.product(range(q), repeat=len(free)):
            u = list(ident)
            for (i, j), val in zip(free, values):
                u[i * d + j] = val
            reps.append(tuple(u[i * d + w[k]] for i in range(d) for k in range(d)))
    return tuple(reps)


def _left_coset_reps(group: GLGroup, subgroup_elements: Sequence[Mat]) -> list[Mat]:
    """One representative g per left coset g H, the first in element order;
    checks that the cosets tile the group.  The scan of G that the tests
    compare ``coset_reps`` against."""
    d, q = group.d, group.q
    reps: list[Mat] = []
    assigned: set[Mat] = set()
    for g in group_elements(group):
        if g in assigned:
            continue
        reps.append(g)
        for h in subgroup_elements:
            assigned.add(mat_mul(g, h, d, q))
    if len(reps) * len(subgroup_elements) != group.order:
        raise AssertionError("coset decomposition failed")
    return reps


def induce_class_function(group: GLGroup, subgroup_elements: Sequence[Mat],
                          f: Mapping[Mat, Fraction]) -> ClassFunction:
    """Coset-sum induction: x -> sum over left-coset representatives s of
    f(s^-1 x s), with f extended by zero off the subgroup.

    Needs the whole group enumerated, so this is the small-group path.
    """
    d, q = group.d, group.q
    sub = list(subgroup_elements)
    sub_set = set(sub)
    reps = _left_coset_reps(group, sub)
    rep_invs = [mat_inv(s, d, q) for s in reps]
    values = []
    for cls in group.classes:
        total = Fraction(0)
        for s, s_inv in zip(reps, rep_invs):
            y = mat_mul(mat_mul(s_inv, cls.rep, d, q), s, d, q)
            if y in sub_set:
                total += f.get(y, Fraction(0))
        values.append(total)
    return ClassFunction(group, tuple(values))


def induced_values_averaged(group: GLGroup, sub_order: int,
                            f: Mapping[Mat, Fraction], x: Mat) -> Fraction:
    """The representative-free form (1/|H|) sum over t in G of f(t^-1 x t)."""
    d, q = group.d, group.q
    total = Fraction(0)
    for t in group_elements(group):
        y = mat_mul(mat_mul(mat_inv(t, d, q), x, d, q), t, d, q)
        if y in f:
            total += f[y]
    return total / sub_order


def generator_pairs(parabolic: ParabolicSubgroup) -> tuple[tuple[Mat, Mat], ...]:
    """(g, g^-1) as matrices, one pair per entry (i, j, c) of
    ``parabolic.elementary``: I + c E_ij for i != j, diag(.., c, ..) for
    i == j."""
    d, q = parabolic.group.d, parabolic.group.q
    ident = mat_identity(d)
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
    reps = [(s, mat_inv(s, d, q)) for s in coset_reps(parabolic)]
    twists = generator_pairs(parabolic) or ((mat_identity(d), mat_identity(d)),)
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
