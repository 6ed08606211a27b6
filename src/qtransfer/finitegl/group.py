"""GL_d(F_q) for small d and prime q: conjugacy classes and parabolic
subgroups.

Conjugacy classes are parametrized by their primary rational canonical
form: an assignment of a partition to each monic irreducible polynomial
(other than x), with total degree d.  The labels are enumerated, and no
matrix is labelled: class sizes come from the classical centralizer order
formula, representatives are block-diagonal companion matrices.  The test
suite labels every element of each enumerable group by the kernel profiles
of f(A)^j, a complete conjugacy invariant (``tests/element_scan_oracle.py``),
and checks the classes against this construction.

A parabolic P_c with k blocks is generated by 2d - 1 elements (2d - 1 - k
when q = 2): the transvections I + E_{i,i+1} for every i, I + E_{i+1,i}
where i and i+1 share a block, and diag(1, .., zeta, .., 1) at the first
index of each block, zeta a primitive root mod q.  They generate P
(Steinberg, Lectures on Chevalley Groups, section 6): over the prime field
I + t E_ij is the t-th power of I + E_ij, and the commutator of I + E_ij
and I + E_jk is I + E_ik, so the adjacent transvections of a block give
every transvection of its SL_a, and with the diagonal generator, whose
powers take every determinant, its GL_a; commutators of the boundary
transvections I + E_{s-1,s} with those inside the blocks reach every
I + E_ij above the block diagonal, which generate the unipotent radical,
and P is the Levi times the radical.  Its left cosets are walked through
the Bruhat cells, and conjugation by a representative s = u w is row and
column operations for u and a relabel for w.  Every element of P is
P-conjugate to some s^-1 x s in P, x a class representative of G, so
these conjugates seed the P-classes, which are orbits under conjugation
by the generators.  Each conjugation by a transvection or a diagonal
matrix is one row and one column step over index pairs precomputed per
generator (``fqmat.elementary_step``); no element of G or of P is listed,
and conjugation by all of P is the oracle in the tests.

Each derived value has one builder, run on first use: ``conjugacy_classes``
for the class data, ``ParabolicSubgroup._bruhat_cells`` for the cells,
``_conjugates`` for the walk of the class representatives through them, and
``_class_data`` for P-classes and their lookup, P = G included.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import Callable, Iterator, Sequence

from ..algebra.partitions import as_composition_of, conjugate, partitions
from ..algebra.qcount import gl_order, is_prime, parabolic_order
from ..weylcomb import min_double_coset_reps, perm_inv
from .fqmat import (
    Mat,
    Poly,
    block_diag,
    companion_matrix,
    conjugate_elementary,
    elementary_step,
    monic_irreducibles,
    poly_mul,
    poly_pow,
)

__all__ = [
    "GLGroup",
    "GLClass",
    "ParabolicSubgroup",
    "BudgetError",
    "CLASS_LIMIT",
    "SCAN_LIMIT",
    "cached_group",
    "class_count",
]

CLASS_LIMIT = 5_000  # largest number of conjugacy classes whose data is built
SCAN_LIMIT = 200_000  # largest |P| whose classes are walked, and largest [G:P]

# label: sorted tuple of (irreducible poly, partition) pairs
Label = tuple[tuple[Poly, tuple[int, ...]], ...]


class BudgetError(RuntimeError):
    """A finite-GL enumeration would exceed its fixed limit (CLASS_LIMIT or
    SCAN_LIMIT); the message names the measured size and the limit."""


def class_count(d: int, q: int) -> int:
    """The number of conjugacy classes of GL_d(F_q), known before any label
    is built: the coefficient of x^d in prod_{k>=1} (1 - x^k) / (1 - q x^k)
    (Macdonald, Numbers of conjugacy classes in some finite classical
    groups, 1981)."""
    series = [1] + [0] * d
    for k in range(1, d + 1):
        for n in range(d, k - 1, -1):  # times (1 - x^k)
            series[n] -= series[n - k]
        for n in range(k, d + 1):  # divided by (1 - q x^k)
            series[n] += q * series[n - k]
    return series[d]


@dataclass(frozen=True)
class GLClass:
    """One conjugacy class: canonical label, companion-form representative,
    exact size, characteristic polynomial."""

    label: Label
    rep: Mat
    size: int
    char_poly: Poly


def _centralizer_order(label: Label, q: int) -> int:
    """Product over primary components of the unipotent-type centralizer
    order q_f^{sum (lambda'_j)^2} * prod_m phi_m(q_f^{-1}), m running over the
    part multiplicities, in integers: q_f^{sum (lambda'_j)^2 - sum_m m(m+1)/2}
    * prod_m prod_{l<=m} (q_f^l - 1)."""
    total = 1
    for f, lam in label:
        qf = q ** (len(f) - 1)
        mults = Counter(lam).values()
        e = sum(c * c for c in conjugate(lam)) - sum(m * (m + 1) // 2 for m in mults)
        if e < 0:
            raise AssertionError(f"centralizer exponent {e} of {lam} is negative")
        total *= qf ** e * prod(qf ** l - 1 for m in mults for l in range(1, m + 1))
    return total


def _label_char_poly(label: Label, q: int) -> Poly:
    cp: Poly = (1,)
    for f, lam in label:
        cp = poly_mul(cp, poly_pow(f, sum(lam), q), q)
    return cp


def _label_rep(label: Label, q: int) -> Mat:
    blocks = []
    for f, lam in label:
        for part in lam:
            fm = poly_pow(f, part, q)
            blocks.append((companion_matrix(fm, q), len(fm) - 1))
    return block_diag(blocks)


class GLGroup:
    """GL_d(F_q) with exact conjugacy-class data; no element of the group
    is listed."""

    def __init__(self, d: int, q: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        if not is_prime(q):
            raise ValueError(f"q = {q} must be prime")
        self.d = d
        self.q = q
        self.order = gl_order(d, q)
        self._classes: tuple[GLClass, ...] | None = None

    def __repr__(self) -> str:
        return f"GLGroup(d={self.d}, q={self.q})"

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> tuple[GLClass, ...]:
        """The classes in label order, built on the first call; the only
        builder of the class data."""
        if self._classes is None:
            count = class_count(self.d, self.q)
            if count > CLASS_LIMIT:
                raise BudgetError(
                    f"GL_{self.d}(F_{self.q}) has {count} conjugacy classes, "
                    f"beyond the class limit {CLASS_LIMIT}")
            classes = []
            for label in self._all_labels():
                size = self.order // _centralizer_order(label, self.q)
                classes.append(GLClass(
                    label=label,
                    rep=_label_rep(label, self.q),
                    size=size,
                    char_poly=_label_char_poly(label, self.q),
                ))
            classes.sort(key=lambda c: c.label)
            if len(classes) != count or sum(c.size for c in classes) != self.order:
                raise AssertionError("class count or class sizes do not match the group")
            self._classes = tuple(classes)
        return self._classes

    @property
    def classes(self) -> tuple[GLClass, ...]:
        return self.conjugacy_classes()

    def _all_labels(self) -> Iterator[Label]:
        irrs = [f for f in monic_irreducibles(self.q, self.d) if f != (0, 1)]

        # each level takes one more irreducible, of degree at most what
        # remains, so the recursion is at most d deep
        def rec(start: int, remaining: int) -> Iterator[Label]:
            if remaining == 0:
                yield ()
                return
            for idx in range(start, len(irrs)):
                f = irrs[idx]
                deg = len(f) - 1
                if deg > remaining:
                    return
                for w in range(1, remaining // deg + 1):
                    for lam in partitions(w):
                        for rest in rec(idx + 1, remaining - deg * w):
                            yield ((f, lam),) + rest

        for label in rec(0, self.d):
            yield tuple(sorted(label))


def _primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of F_q."""
    return next(z for z in range(1, q)
                if len({pow(z, k, q) for k in range(1, q)}) == q - 1)


@lru_cache(maxsize=None)
def cached_group(d: int, q: int) -> GLGroup:
    """Shared GLGroup instances so class data is computed once per (d, q)."""
    return GLGroup(d, q)


class ParabolicSubgroup:
    """Standard block upper-triangular subgroup P_c of GL_d(F_q)."""

    def __init__(self, group: GLGroup, comp: Sequence[int]):
        self.group = group
        self.composition = as_composition_of(comp, group.d)
        self.order = parabolic_order(self.composition, group.q)
        d = group.d
        self._starts = tuple(itertools.accumulate(self.composition[:-1], initial=0))
        # block index of each row (and column), and the flat positions below
        # the block diagonal, which every element of P keeps at zero
        self._block = tuple(b for b, part in enumerate(self.composition)
                            for _ in range(part))
        self._below = tuple(i * d + j for i in range(d) for j in range(d)
                            if self._block[i] > self._block[j])
        # generators of P as (i, j, c): the transvections I + E_{i,i+1} for
        # every i, then I + E_{i+1,i} where i and i+1 share a block, then
        # diag(1, .., zeta, .., 1) at the first index of each block, zeta the
        # least primitive root mod q (none when q = 2).  The adjacent ones
        # inside a block give its SL_a, the diagonal ones every determinant,
        # and commutators with the boundary transvections the unipotent
        # radical (module docstring): 2d - 1 generators, 2d - 1 - k for q = 2
        zeta = _primitive_root(group.q)
        self.elementary = tuple((i, i + 1, 1) for i in range(d - 1))
        self.elementary += tuple((i + 1, i, 1) for i in range(d - 1)
                                 if self._block[i] == self._block[i + 1])
        if zeta != 1:
            self.elementary += tuple((s, s, zeta) for s in self._starts)

    def contains(self, mat: Mat) -> bool:
        """Block upper-triangular pattern test (input assumed invertible)."""
        return not any(map(mat.__getitem__, self._below))

    @cached_property
    def _bruhat_cells(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
        """The Bruhat cells U_w w P of G (Carter, Finite Groups of Lie Type,
        2.5-2.8) as (w, free) pairs, read by ``_conjugates`` and, in
        the tests, by ``coset_reps`` of ``coset_sum_oracle.py``.  w runs
        through the minimal representatives of the cosets w W_c of S_d,
        which increase on each block of positions, in one-line form from 0;
        the matrix of w sends e_k to e_w(k).  U_w is the group of upper
        unitriangular u whose free entries are the (i, j) with i < j and
        w^-1(i) > w^-1(j).  Refuses, before building any cell, when [G:P]
        exceeds SCAN_LIMIT; the cell sizes q^len(free) must sum to [G:P]."""
        group = self.group
        d, q = group.d, group.q
        index = group.order // self.order
        if index > SCAN_LIMIT:
            raise BudgetError(
                f"G/P_{self.composition} in GL_{d}(F_{q}) has {index} cosets, "
                f"beyond the scan limit {SCAN_LIMIT}")
        # W_c is generated by the simple reflections inside the blocks
        inside = frozenset(range(1, d)) - frozenset(self._starts)
        cells = []
        for w in min_double_coset_reps((), inside, d):  # one-line, values from 1
            w_inv = perm_inv(w)
            cells.append((tuple(k - 1 for k in w),
                          tuple((i, j) for i in range(d) for j in range(i + 1, d)
                                if w_inv[i] > w_inv[j])))
        if sum(q ** len(free) for _, free in cells) != index:
            raise AssertionError(
                f"the Bruhat cells of P_{self.composition} in GL_{d}(F_{q}) "
                f"do not hold [G:P] = {index} cosets")
        return tuple(cells)

    @cached_property
    def _conjugates(self) -> dict[Mat, tuple[Mat, ...]]:
        """For each class representative x of G, in class order, the
        conjugates s^-1 x s for s = u w, u in U_w for each cell (w, free) of
        ``_bruhat_cells``: one s per coset g P, walked once and read by both
        ``coset_conjugator`` and ``_class_data``.  In each cell u runs over
        the products of the transvections I + c E_ij over the free positions
        in order, which for a closed set of positive roots reach each element
        of U_w exactly once.  So u^-1 x u is x conjugated by one transvection
        after another, one row and one column operation each
        (``conjugate_elementary`` with the step of -c, built once per cell
        position and c), along a tree whose prefixes are shared; w^-1 y w
        is the relabel (w^-1 y w)[a][b] = y[w(a)][w(b)].  No general matrix
        product is formed."""
        d, q = self.group.d, self.group.q
        # per free position, None for c = 0 and then the step of -c
        cells = [(tuple((None,) + tuple(elementary_step(i, j, -c % q, d, q)
                                        for c in range(1, q))
                        for i, j in free),
                  tuple(w[a] * d + w[b] for a in range(d) for b in range(d)))
                 for w, free in self._bruhat_cells]

        def walk(x: Mat) -> tuple[Mat, ...]:
            out = []
            for free_steps, relabel in cells:
                level = [x]
                for steps in free_steps:
                    level = [conjugate_elementary(y, step, q) if step else y
                             for y in level for step in steps]
                out.extend(tuple(map(y.__getitem__, relabel)) for y in level)
            return tuple(out)

        return {cls.rep: walk(cls.rep) for cls in self.group.classes}

    def coset_conjugator(self) -> Callable[[Mat], tuple[Mat, ...]]:
        """The map x -> (s^-1 x s for each Bruhat coset representative s),
        on the class representatives x of G, read from ``_conjugates``;
        refuses at once, before any walk or class data, when [G:P] exceeds
        SCAN_LIMIT."""
        self._bruhat_cells  # the [G:P] refusal
        return lambda x: self._conjugates[x]

    @property
    def classes(self) -> tuple[tuple[Mat, int, int], ...]:
        """P-classes as (representative, size, G-class index), see ``_class_data``."""
        return self._class_data[0]

    def class_index_of(self, mat: Mat) -> int:
        """Index in ``classes`` of the P-class of an element of P."""
        return self._class_data[1](mat)

    @cached_property
    def _class_data(self) -> tuple[tuple[tuple[Mat, int, int], ...], Callable[[Mat], int]]:
        """The P-classes and the lookup of an element's class index, built
        together on first use.  Refuses, before any walk, when |P| exceeds
        SCAN_LIMIT, as the orbits visit every element.  The classes are
        seeded by the conjugates s^-1 x s in P of ``_conjugates``: an
        element y = g^-1 x g of P with g = s p is P-conjugate to s^-1 x s =
        p y p^-1.  Each seed not yet placed is closed under conjugation by
        the ``elementary`` generators (2d - 1, fewer when q = 2), each one
        row and one column step over the index pairs of its
        ``elementary_step``, built once per generator
        (``conjugate_elementary``), and lies in the G-class of its x, so
        nothing is labelled.  A class is represented by its
        least element, and the classes are ordered by it.  The sizes must
        sum to |P|: a generating set that misses part of P leaves orbits
        short and raises."""
        group = self.group
        d, q = group.d, group.q
        if self.order > SCAN_LIMIT:
            raise BudgetError(
                f"P_{self.composition} in GL_{d}(F_{q}) has {self.order} elements, "
                f"beyond the scan limit {SCAN_LIMIT}")
        steps = [elementary_step(i, j, c, d, q) for i, j, c in self.elementary]
        placed: set[Mat] = set()
        orbits = []  # (least element, G-class index, members)
        for gidx, cls in enumerate(group.classes):
            for x in self._conjugates[cls.rep]:
                if not self.contains(x) or x in placed:
                    continue
                placed.add(x)
                members = [x]
                for y in members:  # members grows while it is read
                    for step in steps:
                        z = conjugate_elementary(y, step, q)
                        if z not in placed:
                            placed.add(z)
                            members.append(z)
                orbits.append((min(members), gidx, members))
        if sum(len(members) for _, _, members in orbits) != self.order:
            raise AssertionError(
                f"P-classes of P_{self.composition} in GL_{d}(F_{q}) do not sum "
                f"to |P| = {self.order}")
        orbits.sort(key=lambda orbit: orbit[0])
        lookup = {y: idx for idx, (_, _, members) in enumerate(orbits) for y in members}
        return (tuple((least, len(members), gidx) for least, gidx, members in orbits),
                lookup.__getitem__)
