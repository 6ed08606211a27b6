"""GL_d(F_q) for small d and prime q: conjugacy classes and parabolic
subgroups.

Conjugacy classes are parametrized by their primary rational canonical
form: an assignment of a partition to each monic irreducible polynomial
(other than x), with total degree d.  For a matrix the partition attached
to an irreducible factor f is read off the kernel-dimension profile of
f(A)^j, which together with the characteristic polynomial is a complete
conjugacy invariant.  Class sizes come from the classical centralizer
order formula; representatives are block-diagonal companion matrices.
The test suite re-derives the classes of every enumerable group by brute
force and checks them against this construction.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from ..algebra.partitions import as_composition, conjugate, partitions
from ..algebra.qcount import gl_order, is_prime, parabolic_order
from ..weylcomb import min_double_coset_reps, perm_inv
from .fqmat import (
    Mat,
    Poly,
    block_diag,
    char_poly,
    companion_matrix,
    factor_monic,
    kernel_dim,
    mat_det,
    mat_identity,
    mat_mul,
    monic_irreducibles,
    poly_eval_matrix,
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
SCAN_LIMIT = 200_000  # largest number of matrices one element scan visits

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
    mat, _ = block_diag(blocks, q)
    return mat


class GLGroup:
    """GL_d(F_q) with exact conjugacy-class data and on-demand elements."""

    def __init__(self, d: int, q: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        if not is_prime(q):
            raise ValueError(f"q = {q} must be prime")
        self.d = d
        self.q = q
        self.order = gl_order(d, q)
        self._classes: tuple[GLClass, ...] | None = None
        self._class_lookup: dict[Label, int] | None = None
        self._elements: tuple[Mat, ...] | None = None
        self._ind_cache: dict[tuple[int, ...], object] = {}
        self._dl_cache: dict[tuple[int, ...], object] = {}

    def __repr__(self) -> str:
        return f"GLGroup(d={self.d}, q={self.q})"

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> tuple[GLClass, ...]:
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
            self._class_lookup = {c.label: i for i, c in enumerate(self._classes)}
        return self._classes

    @property
    def classes(self) -> tuple[GLClass, ...]:
        return self.conjugacy_classes()

    def _all_labels(self) -> Iterator[Label]:
        irrs = [f for f in monic_irreducibles(self.q, self.d) if f != (0, 1)]
        irrs.sort(key=lambda f: (len(f), f))

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

    def label_of(self, mat: Mat) -> Label:
        """Complete conjugacy invariant of an invertible matrix."""
        cp = char_poly(mat, self.d, self.q)
        label = []
        for f, mult in factor_monic(cp, self.q):
            deg = len(f) - 1
            B = poly_eval_matrix(f, mat, self.d, self.q)
            power = mat_identity(self.d)
            prev_k = 0
            profile = []
            assigned = 0
            while assigned < mult:
                power = mat_mul(power, B, self.d, self.q)
                k = kernel_dim(power, self.d, self.q)
                parts_ge = (k - prev_k) // deg
                if parts_ge <= 0:
                    raise AssertionError("kernel profile stalled before filling")
                profile.append(parts_ge)
                assigned += parts_ge
                prev_k = k
            lam = conjugate(tuple(profile))
            label.append((f, lam))
        return tuple(sorted(label))

    def class_index_of(self, mat: Mat) -> int:
        self.conjugacy_classes()
        return self._class_lookup[self.label_of(mat)]

    def identity(self) -> Mat:
        return mat_identity(self.d)

    def identity_class_index(self) -> int:
        f_x_minus_1 = ((self.q - 1) % self.q, 1)
        label: Label = ((f_x_minus_1, (1,) * self.d),)
        self.conjugacy_classes()
        return self._class_lookup[label]

    # -- elements ------------------------------------------------------------

    def scan_space(self) -> int:
        return self.q ** (self.d * self.d)

    def elements(self) -> Iterator[Mat]:
        """All invertible matrices, by scanning q^(d^2) candidates; refuses
        before the scan when that exceeds SCAN_LIMIT."""
        if self.scan_space() > SCAN_LIMIT:
            raise BudgetError(
                f"GL_{self.d}(F_{self.q}) element scan space {self.scan_space()} "
                f"exceeds the scan limit {SCAN_LIMIT}")
        return (flat for flat in itertools.product(range(self.q), repeat=self.d * self.d)
                if mat_det(flat, self.d, self.q))

    def element_list(self) -> tuple[Mat, ...]:
        if self._elements is None:
            elems = tuple(self.elements())
            if len(elems) != self.order:
                raise AssertionError("element count does not match group order")
            self._elements = elems
        return self._elements


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
        self.composition = as_composition(comp)
        if sum(self.composition) != group.d:
            raise ValueError(f"{comp} is not a composition of {group.d}")
        self.order = parabolic_order(self.composition, group.q)
        d = group.d
        self._starts = tuple(itertools.accumulate(self.composition[:-1], initial=0))
        # block index of each row (and column), and the flat positions below
        # the block diagonal, which every element of P keeps at zero
        self._block = tuple(b for b, part in enumerate(self.composition)
                            for _ in range(part))
        self._below = tuple(i * d + j for i in range(d) for j in range(d)
                            if self._block[i] > self._block[j])
        self._elements: tuple[Mat, ...] | None = None
        self._classes: tuple[tuple[Mat, int, int], ...] | None = None
        self._pclass_of: dict[Mat, int] | None = None

    def contains(self, mat: Mat) -> bool:
        """Block upper-triangular pattern test (input assumed invertible)."""
        return not any(mat[k] for k in self._below)

    __contains__ = contains

    def elements(self) -> tuple[Mat, ...]:
        """Direct construction: invertible diagonal blocks, each the element
        list of its GL_part(F_q), and free entries above.  Refuses when |P|
        or a block's scan exceeds SCAN_LIMIT."""
        if self._elements is not None:
            return self._elements
        d, q = self.group.d, self.group.q
        if self.order > SCAN_LIMIT:
            raise BudgetError(
                f"P_{self.composition} in GL_{d}(F_{q}) has {self.order} elements, "
                f"beyond the scan limit {SCAN_LIMIT}")
        block_gls = [cached_group(part, q).element_list() for part in self.composition]
        free = [(i, j) for i in range(d) for j in range(d)
                if self._block[j] > self._block[i]]
        out = []
        for blocks in itertools.product(*block_gls):
            base = [0] * (d * d)
            for b, flat in enumerate(blocks):
                part = self.composition[b]
                s = self._starts[b]
                for i in range(part):
                    for j in range(part):
                        base[(s + i) * d + (s + j)] = flat[i * part + j]
            for values in itertools.product(range(q), repeat=len(free)):
                mat = base[:]
                for (i, j), val in zip(free, values):
                    mat[i * d + j] = val
                out.append(tuple(mat))
        if len(out) != self.order:
            raise AssertionError("parabolic element count mismatch")
        out.sort()
        self._elements = tuple(out)
        return self._elements

    def generators(self) -> tuple[tuple[Mat, Mat], ...]:
        """(g, g^-1) pairs that generate P: the transvections I + E_ij
        (i != j) that its block pattern allows, then diag(1, .., zeta, .., 1)
        at each position, with zeta a primitive root mod q (none when
        q = 2).  Transvections and these diagonal matrices generate each
        Levi block GL_n(F_q), and the transvections across blocks generate
        the unipotent radical."""
        group = self.group
        d, q = group.d, group.q
        ident = group.identity()

        def pair(pos: int, val: int, inv: int) -> tuple[Mat, Mat]:
            g, g_inv = list(ident), list(ident)
            g[pos], g_inv[pos] = val, inv
            return tuple(g), tuple(g_inv)

        pairs = [pair(i * d + j, 1, q - 1) for i in range(d) for j in range(d)
                 if i != j and self._block[i] <= self._block[j]]
        zeta = _primitive_root(q)
        if zeta != 1:
            pairs += [pair(i * d + i, zeta, pow(zeta, q - 2, q)) for i in range(d)]
        return tuple(pairs)

    def coset_reps(self) -> tuple[Mat, ...]:
        """One representative per left coset g P, from the Bruhat
        decomposition of G into the cells U_w w P (Carter, Finite Groups of
        Lie Type, 2.5-2.8).  w runs through the minimal representatives of
        the cosets w W_c of S_d, which increase on each block of positions;
        the matrix of w sends e_j to e_w(j), and U_w is the group of upper
        unitriangular u whose free entries are the (i, j) with i < j and
        w^-1(i) > w^-1(j).  The representative u w has column k equal to
        column w(k) of u.  Refuses, before building any, when [G:P] exceeds
        SCAN_LIMIT; the number of representatives times |P| must be |G|."""
        group = self.group
        d, q = group.d, group.q
        index = group.order // self.order
        if index > SCAN_LIMIT:
            raise BudgetError(
                f"G/P_{self.composition} in GL_{d}(F_{q}) has {index} cosets, "
                f"beyond the scan limit {SCAN_LIMIT}")
        # W_c is generated by the simple reflections inside the blocks
        inside = frozenset(range(1, d)) - frozenset(self._starts)
        ident = group.identity()
        reps = []
        for w in min_double_coset_reps((), inside, d):  # one-line, values from 1
            w_inv = perm_inv(w)
            free = [i * d + j for i in range(d) for j in range(i + 1, d)
                    if w_inv[i] > w_inv[j]]
            for values in itertools.product(range(q), repeat=len(free)):
                u = list(ident)
                for pos, val in zip(free, values):
                    u[pos] = val
                reps.append(tuple(u[i * d + w[k] - 1] for i in range(d) for k in range(d)))
        if len(reps) * self.order != group.order:
            raise AssertionError(
                f"{len(reps)} Bruhat coset representatives of P_{self.composition} "
                f"in GL_{d}(F_{q}), not [G:P] = {index}")
        return tuple(reps)

    @property
    def classes(self) -> tuple[tuple[Mat, int, int], ...]:
        """P-conjugacy classes as (representative, size, index of the G-class
        that contains them).  P = G takes them from the group's class data.
        A proper P walks its elements in order; each element not yet placed
        represents a new class, whose orbit is closed under conjugation by
        ``generators`` and whose representative is labelled once, as
        P-conjugate elements are G-conjugate.  The sizes must sum to |P|."""
        if self._classes is not None:
            return self._classes
        group = self.group
        if len(self.composition) == 1:
            self._classes = tuple((cls.rep, cls.size, gidx)
                                  for gidx, cls in enumerate(group.classes))
            return self._classes
        d, q = group.d, group.q
        gens = self.generators()
        assigned: dict[Mat, int] = {}
        classes = []
        for x in self.elements():
            if x in assigned:
                continue
            idx = len(classes)
            assigned[x] = idx
            frontier = [x]
            size = 1
            while frontier:
                y = frontier.pop()
                for g, g_inv in gens:
                    z = mat_mul(mat_mul(g, y, d, q), g_inv, d, q)
                    if z not in assigned:
                        assigned[z] = idx
                        frontier.append(z)
                        size += 1
            classes.append((x, size, group.class_index_of(x)))
        if sum(size for _, size, _ in classes) != self.order:
            raise AssertionError(
                f"P-classes of P_{self.composition} in GL_{d}(F_{q}) do not sum "
                f"to |P| = {self.order}")
        self._classes = tuple(classes)
        self._pclass_of = assigned
        return self._classes

    def class_index_of(self, mat: Mat) -> int:
        """Index in ``classes`` of the P-class of an element of P."""
        if len(self.composition) == 1:
            return self.group.class_index_of(mat)
        self.classes  # partitions P on first use
        return self._pclass_of[mat]

    def conjugacy_classes(self) -> list[tuple[Mat, tuple[Mat, ...]]]:
        """Test oracle: the P-classes as (representative, all members)
        pairs, in the order of ``classes``.  It looks up the class of every
        element of P, and so labels every element of G when P = G."""
        members: list[list[Mat]] = [[] for _ in self.classes]
        for m in self.elements():
            members[self.class_index_of(m)].append(m)
        return [(rep, tuple(ms)) for (rep, _, _), ms in zip(self.classes, members)]
