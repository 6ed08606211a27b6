"""Class functions on GL_d(F_q): parabolic induction, Deligne-Lusztig
virtual characters by inversion of the Weyl-averaging identity, and the
finite-group identity checks.

All values are exact rationals, ``int`` where integral, as every
Ind_{P_c}(1) and R_rho value is; the inversion for R_rho runs in integers.
Induced-from-trivial characters are stable-flag counts in closed form:
from the class labels alone, by Birkhoff's count of submodules of a primary
F_q[t]-module, so they work for every group whose classes fit the class
limit; a scan of every subspace of F_q^d is the oracle the tests compare
them against.  The induction identity runs over the proper parabolics, and
over G only in GL_1, whose Borel subgroup it is.  It sums over the Bruhat
coset representatives of G/P and the P-classes of P, so it needs P and
[G:P] within the scan limit but never enumerates G, and it conjugates by
row and column operations, not general products, which are the oracle in
the tests, as is coset-sum induction over an enumerated group
(``tests/coset_sum_oracle.py``).
Induced characters and the R_rho are memoised in this module, per group
object and validated key.  ``linear_combination`` is the one place
ClassFunctions are combined: every weighted sum calls it, and it scales
the coefficients to integers over the lcm of their denominators and builds
one Fraction per class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ..algebra.partitions import (
    as_composition_of,
    as_partition_of,
    compositions,
    conjugate,
    partitions,
)
from ..algebra.qcount import qbinom_at
from ..weylcomb import composition_class_counts, ep_weights
from .fqmat import conjugate_elementary, elementary_step
from .group import GLGroup, ParabolicSubgroup

__all__ = [
    "ClassFunction",
    "linear_combination",
    "parabolic_trivial_ind",
    "dl_character",
    "comb_prop_check",
    "ind_conjugate_identity_exhaustive",
]


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Exact class function: one value per conjugacy class of the group,
    an exact rational, ``int`` where it is integral (Ind_{P_c}(1) and R_rho
    are)."""

    group: GLGroup
    values: tuple[Fraction | int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.group.classes):
            raise ValueError("value count does not match class count")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return ((self.group.d, self.group.q) == (other.group.d, other.group.q)
                and self.values == other.values)

    def inner_with_trivial(self) -> Fraction:
        """<f, 1> = (1/|G|) sum over classes of size * value."""
        return Fraction(sum(c.size * v for c, v in zip(self.group.classes, self.values)),
                        self.group.order)


def linear_combination(group: GLGroup,
                       terms: Iterable[tuple[Fraction | int, ClassFunction]]) -> ClassFunction:
    """The sum of c * f over the (c, f) pairs (zero for no terms), with no
    ClassFunction per term; the one refusal of an f on another (d, q) than
    the group, before any arithmetic.  Every c is scaled to an integer over
    the lcm C of the coefficient denominators, so integer values (every
    Ind and R_rho) sum in integers, and one Fraction, the sum over C, is
    built per class."""
    terms = [(Fraction(c), f) for c, f in terms]
    if any((f.group.d, f.group.q) != (group.d, group.q) for _, f in terms):
        raise ValueError("class functions live on different groups")
    c_den = math.lcm(*(c.denominator for c, _ in terms))
    total = [0] * len(group.classes)
    for c, f in terms:
        coef = c.numerator * (c_den // c.denominator)
        total = [t + coef * v for t, v in zip(total, f.values)]
    return ClassFunction(group, tuple(Fraction(t, c_den) for t in total))


# -- stable-flag induction of the trivial character --------------------------

# The type of a finite F_q[t]-module on which t acts invertibly: one
# (deg f, partition) pair per primary part, sorted, empty parts dropped.
ModuleType = tuple[tuple[int, tuple[int, ...]], ...]


def _birkhoff(lam: tuple[int, ...], nu: tuple[int, ...], Q: int) -> int:
    """Number of submodules of type nu in a primary module of type lam over
    a residue field with Q elements (Birkhoff; Butler, Subgroup Lattices
    and Symmetric Functions, 1994, and Macdonald, Symmetric Functions and
    Hall Polynomials, Ch. II):

        prod_i Q^(nu'_{i+1} (lam'_i - nu'_i)) [lam'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_Q.
    """
    lc, nc = conjugate(lam), conjugate(nu)
    nc += (0,) * (len(lc) + 1 - len(nc))
    total = 1
    for i, li in enumerate(lc):
        lo, hi = nc[i + 1], nc[i]
        total *= Q ** (lo * (li - hi)) * qbinom_at(li - lo, hi - lo, Q)
    return total


@lru_cache(maxsize=None)
def _submodule_counts(mtype: ModuleType, q: int) -> dict[int, dict[ModuleType, int]]:
    """For each dimension, the number of submodules of each type in a module
    of type mtype.  A submodule is the sum of its primary parts, and the
    part inside the f-primary part of type lam has a type nu inside lam.
    The memoised result is shared, so callers only read it."""
    per_part = [[(deg, nu, _birkhoff(lam, nu, q ** deg))
                 for size in range(sum(lam) + 1)
                 for nu in partitions(size, lam[0], len(lam))
                 if all(a <= b for a, b in zip(nu, lam))]
                for deg, lam in mtype]
    out: dict[int, dict[ModuleType, int]] = {}
    for choice in itertools.product(*per_part):
        sub = tuple(sorted((deg, nu) for deg, nu, _ in choice if nu))
        bucket = out.setdefault(sum(deg * sum(nu) for deg, nu in sub), {})
        bucket[sub] = bucket.get(sub, 0) + math.prod(n for _, _, n in choice)
    return out


@lru_cache(maxsize=None)
def _flag_count(mtype: ModuleType, comp: tuple[int, ...], q: int) -> int:
    """Number of chains of submodules 0 = V_0 < .. < V_k = M, M of type
    mtype, with dim V_i / V_(i-1) = comp[i-1]: a sum over the submodules V
    of dimension dim M - comp[-1], which depends on the type of V only."""
    if len(comp) == 1:
        return 1
    dim = sum(comp) - comp[-1]
    return sum(n * _flag_count(sub, comp[:-1], q)
               for sub, n in _submodule_counts(mtype, q).get(dim, {}).items())


def parabolic_trivial_ind(group: GLGroup, comp: Sequence[int]) -> ClassFunction:
    """Ind_{P_c}^{G}(1): the permutation character of G on flags of type c.
    Its value at x is the number of x-stable flags, which are chains of
    F_q[t]-submodules of F_q^d with t acting as x; that number depends only
    on the module type read off the class label, and is computed from
    Birkhoff's submodule counts without touching a subspace or a matrix.
    The tests compare it with a scan of every subspace of F_q^d."""
    return _trivial_ind(group, as_composition_of(comp, group.d))


@lru_cache(maxsize=None)
def _trivial_ind(group: GLGroup, comp: tuple[int, ...]) -> ClassFunction:
    return ClassFunction(group, tuple(
        _flag_count(tuple(sorted((len(f) - 1, lam) for f, lam in cls.label)), comp, group.q)
        for cls in group.classes))


# -- Deligne-Lusztig characters by inversion ---------------------------------


def dl_character(group: GLGroup, rho: Sequence[int]) -> ClassFunction:
    """The virtual character R_rho attached to the torus of type rho,
    defined by inverting the averaging identity

        Ind_{P_mu}(1) = (1/|W_mu|) sum over w in W_mu of R_{type(w)}

    over all partitions mu of d.  The system is triangular with nonzero
    diagonal in any order extending dominance, and is solved in integers
    from the integer flag counts: every R_rho value is an integer, so a
    singular system or a remainder in the division by the diagonal would be
    an implementation bug and raises.
    """
    return _dl_characters(group)[as_partition_of(rho, group.d)]


@lru_cache(maxsize=None)
def _dl_characters(group: GLGroup) -> dict[tuple[int, ...], ClassFunction]:
    """Every R_mu of the group, solved together; callers only read the dict."""
    parts = sorted(partitions(group.d), reverse=True)  # descending lex
    counts = {mu: composition_class_counts(mu) for mu in parts}
    solved: dict[tuple[int, ...], list[int]] = {}
    for mu in reversed(parts):  # from (1^d) upward
        row = counts[mu]
        for tau in parts:
            if tau > mu and row.get(tau, 0):
                raise AssertionError("averaging system is not triangular")
        diag = row.get(mu, 0)
        if diag == 0:
            raise AssertionError("singular averaging system (implementation bug)")
        order = sum(row.values())
        rhs = [order * v for v in parabolic_trivial_ind(group, mu).values]
        for tau, count in row.items():
            if tau != mu:
                rhs = [a - count * b for a, b in zip(rhs, solved[tau])]
        quotients = [divmod(a, diag) for a in rhs]
        if any(rem for _, rem in quotients):
            raise AssertionError(f"R_{mu} on GL_{group.d}(F_{group.q}) is not integral")
        solved[mu] = [quo for quo, _ in quotients]
    return {mu: ClassFunction(group, tuple(values)) for mu, values in solved.items()}


def comb_prop_check(group: GLGroup) -> dict:
    """Both sides of the d-cycle Deligne-Lusztig identity

        R_(d) = d * sum_I (-1)^(d-1-|I|)/(d-|I|) Ind_{J_I}(1),

    as exact class functions, with the equality verdict.  Ind_{J_I}(1)
    depends only on the sorted blocks lam of I, so the right side is
    d * sum over lam of ep_weights(d)[lam] Ind_{P_lam}(1).  R_rho inverts
    the Ind values, so this checks the S_d combinatorics (``ep_weights``,
    ``composition_class_counts``) carried through the class data and holds
    for any Ind values."""
    d = group.d
    lhs = dl_character(group, (d,))
    rhs = linear_combination(group, ((d * weight, parabolic_trivial_ind(group, lam))
                                     for lam, weight in ep_weights(d).items()))
    return {
        "d": group.d,
        "q": group.q,
        "equal": lhs == rhs,
        "lhs": [str(v) for v in lhs.values],
        "rhs": [str(v) for v in rhs.values],
    }


# -- the induced-class-function core identity --------------------------------


def _ind_identity_cases(group: GLGroup, parabolic: ParabolicSubgroup) -> list[dict]:
    """For every class C of the parabolic, the three expressions

        sum_s 1_C(s^-1 x s)   over left-coset representatives s,
        (1/|P|) #{t in G : t x t^-1 in C},
        sum_{s'} 1_{s' C s'^-1}(x)  over a different set of representatives,

    evaluated on every class x of G; one case per C, in P-class order.  The
    s run over the Bruhat cells (``coset_conjugator``, which refuses on
    [G:P] before any class data is built), and s' = s g^-1 for the
    generators g = (i, j, c) of P taken in turn, so s'^-1 x s' is one more
    ``conjugate_elementary`` by the generator's step, built once per
    generator; no general product, and no pass over G.  The two sums are
    integer counts, scattered into the rows of the P-class they land in.
    The middle count is |Z_G(x)| |C| by orbit-stabilizer, read off
    ``parabolic.classes`` on the G-class of C, which holds all of C, and 0
    elsewhere; it is the one Fraction of a row.  Every other row is ("0",
    "0", "0"), so each case has one nonzero row."""
    conjugates = parabolic.coset_conjugator()
    d, q = group.d, group.q
    # with no generator (GL_1(F_2)) the twist is the identity diag(1)
    twists = [elementary_step(i, j, c, d, q)
              for i, j, c in parabolic.elementary or ((0, 0, 1),)]
    # per P-class, G-class -> values, seeded with the middle column; reading
    # the P-classes refuses on |P| before any conjugate is walked
    rows: list[dict[int, tuple]] = [
        {gidx: (0, Fraction(group.order // group.classes[gidx].size * size, parabolic.order), 0)}
        for _, size, gidx in parabolic.classes]
    for gidx, cls in enumerate(group.classes):
        first, twisted = Counter(), Counter()
        for y, step in zip(conjugates(cls.rep), itertools.cycle(twists)):
            if parabolic.contains(y):
                first[parabolic.class_index_of(y)] += 1
            z = conjugate_elementary(y, step, q)
            if parabolic.contains(z):
                twisted[parabolic.class_index_of(z)] += 1
        for pidx in first.keys() | twisted.keys():
            _, middle, _ = rows[pidx].get(gidx, (0, 0, 0))
            rows[pidx][gidx] = (first[pidx], middle, twisted[pidx])
    zero = ("0", "0", "0")
    return [{
        "composition": list(parabolic.composition),
        "class_index": cidx,
        "equal": all(va == vb == vc for va, vb, vc in nonzero.values()),
        "values": [tuple(map(str, nonzero[gidx])) if gidx in nonzero else zero
                   for gidx in range(len(group.classes))],
    } for cidx, nonzero in enumerate(rows)]


def ind_conjugate_identity_exhaustive(group: GLGroup,
                                      comp: Sequence[int] | None = None) -> dict:
    """Run the three-expression identity of ``_ind_identity_cases`` for every
    parabolic class C (of the given composition, or of every composition of
    d but (d,)) against every class of G.  At P = G there is one coset and
    Ind_G^G is the identity map, so the report holds no P = G case, except
    in GL_1, whose Borel subgroup is G.  Each parabolic refuses with
    BudgetError when [G:P] exceeds SCAN_LIMIT, before its class data or
    that of G is built, and then when |P| does.  The tests compare the
    report, case by case and row by row, with the coset sums by general
    products of ``tests/coset_sum_oracle.py``."""
    comps = ([c for c in compositions(group.d) if len(c) > 1 or group.d == 1]
             if comp is None else [comp])
    cases = [case for c in comps
             for case in _ind_identity_cases(group, ParabolicSubgroup(group, c))]
    return {"d": group.d, "q": group.q,
            "ok": all(case["equal"] for case in cases), "cases": cases}
