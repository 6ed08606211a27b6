"""Case sets of the four benchmark workloads.

A case is one exact check: it computes one identity by two independent
paths through the public API of ``qtransfer`` and returns whether the two
results are equal under ``==``.  Cases come in phases that always run in
the same order, so the work of filling the package's caches (groups,
double cosets, orbits, q-binomials) lands in the same phase whatever the
seed.  The seed permutes the cases inside each phase and draws the random
Laurent inputs of ``transfer-oracles``.

Every size below is fixed; ``tiny`` shrinks each workload to a fraction of
a second for the benchmark's own tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from qtransfer.algebra import (
    QScalar,
    compositions,
    elementary,
    gl_order,
    monomial_sym,
    parabolic_order,
    parahoric_index,
    partitions,
    powersum,
    schur,
)
from qtransfer.epfun import (
    DParahoricType,
    ParahoricCombo,
    ep_function,
    f_J,
    fj_shadow_report,
    product_ep,
    to_e_basis,
    to_one_basis,
)
from qtransfer.finitegl import (
    cached_group,
    comb_prop_check,
    ind_conjugate_identity_exhaustive,
)
from qtransfer.transfer import (
    TransferParams,
    image_e,
    image_p,
    image_schur,
    substitution_image,
    surjectivity_witness,
    transfer_sym,
)
from qtransfer.weylcomb import (
    cycle_type,
    f_g_table,
    min_double_coset_reps,
    one_adic_ep,
    orbital_sum,
    proper_levi_vanishing,
    restriction_support,
    young_subgroup,
)

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Case:
    label: str
    check: Callable[[], bool]


def transfer_params(nmin: int, nmax: int) -> list[TransferParams]:
    """Every (r, d) with nmin <= n = r*d <= nmax."""
    return [TransferParams(r=n // d, d=d)
            for n in range(nmin, nmax + 1) for d in range(1, n + 1) if n % d == 0]


# -- transfer-oracles --------------------------------------------------------


def _oracle_e(p: TransferParams, k: int) -> bool:
    e = elementary(p.n, k)
    return transfer_sym(p, e) == image_e(p, k) == substitution_image(p, e)


def _oracle_p(p: TransferParams, k: int) -> bool:
    f = powersum(p.n, k)
    return transfer_sym(p, f) == image_p(p, k) == substitution_image(p, f)


def _oracle_schur(p: TransferParams, mu: tuple[int, ...]) -> bool:
    return transfer_sym(p, schur(p.n, mu)) == image_schur(p, mu)


def _oracle_random(p: TransferParams, f) -> bool:
    return transfer_sym(p, f) == substitution_image(p, f)


def _homomorphism(p: TransferParams, f, g) -> bool:
    return transfer_sym(p, f * g) == transfer_sym(p, f) * transfer_sym(p, g)


def _padded(shape: tuple[int, ...], n: int) -> tuple[int, ...]:
    return shape[:n] + (0,) * (n - len(shape))


def _random_laurent(rng: random.Random, n: int,
                    shapes: tuple[tuple[int, ...], ...]):
    """A rational combination of monomial symmetric functions m_{shape + s},
    one per shape, with s a seeded shift of every exponent.

    Adding s to every exponent multiplies by (z_1 ... z_n)^s, which the
    transfer maps to (t_1 ... t_r)^(d s) with the same v-power, so the
    seed changes coefficients and target keys but not the amount of work.
    The first shift is negative, so every input has negative exponents.
    """
    f = None
    for i, shape in enumerate(shapes):
        shift = rng.choice((-2, -1)) if i == 0 else rng.choice((0, 1))
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        term = monomial_sym(n, [x + shift for x in _padded(shape, n)]).scale(coeff)
        f = term if f is None else f + term
    return f


def transfer_oracles(rng: random.Random, tiny: bool) -> list[list[Case]]:
    """Closed forms and the substitution oracle against ``transfer_sym``,
    then seeded random Laurent inputs (oracle and ring-homomorphism checks).
    """
    nmax, maxdeg, random_nmax, product_nmax = (3, 3, 3, 3) if tiny else (6, 5, 7, 6)
    closed = []
    for p in transfer_params(1, nmax):
        tag = f"r={p.r} d={p.d}"
        for k in range(1, min(p.n, maxdeg) + 1):
            closed.append(Case(f"image_e {tag} k={k}",
                               lambda p=p, k=k: _oracle_e(p, k)))
        for k in range(1, maxdeg + 1):
            closed.append(Case(f"image_p {tag} k={k}",
                               lambda p=p, k=k: _oracle_p(p, k)))
        for size in range(1, maxdeg + 1):
            for mu in partitions(size):
                closed.append(Case(f"image_schur {tag} mu={mu}",
                                   lambda p=p, mu=mu: _oracle_schur(p, mu)))
    seeded = []
    for p in transfer_params(2, random_nmax):
        f = _random_laurent(rng, p.n, ((2, 1), (1, 1, 1)))
        seeded.append(Case(f"random oracle r={p.r} d={p.d} f={f}",
                           lambda p=p, f=f: _oracle_random(p, f)))
    for p in transfer_params(2, product_nmax):
        f = _random_laurent(rng, p.n, ((2, 1), (1, 1, 1)))
        g = _random_laurent(rng, p.n, ((1,), (2,)))
        seeded.append(Case(f"random product r={p.r} d={p.d} f={f} g={g}",
                           lambda p=p, f=f, g=g: _homomorphism(p, f, g)))
    return [closed, seeded]


# -- weyl-cosets -------------------------------------------------------------


def _vanishing(d: int, M: frozenset) -> bool:
    sums = proper_levi_vanishing(d, M)
    return sums == {J: 0 for J in sums}


def _double_coset_tiling(d: int, M: frozenset, I: frozenset) -> bool:
    """Sum over w in D_{M,I} of |W_M w W_I| = |W_M| |W_I| / |W_J(w)|
    equals d!, with J(w) from ``restriction_support``."""
    wm, wi = young_subgroup(M, d).order, young_subgroup(I, d).order
    total = Fraction(0)
    for w in min_double_coset_reps(M, I, d):
        J = restriction_support(M, I, w)
        total += Fraction(wm * wi, young_subgroup(J, d).order)
    return total == factorial(d)


def _indicator(d: int) -> bool:
    table = f_g_table(d)
    return all(table(rho) == (1 if rho == (d,) else 0) for rho in partitions(d))


def _cycle_rep(rho: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of cycle type rho: one cycle per consecutive block."""
    perm = []
    start = 1
    for part in rho:
        perm.extend(range(start + 1, start + part))
        perm.append(start)
        start += part
    return tuple(perm)


def _orbital_indicator(d: int) -> bool:
    """The orbital sums of the 1-adic EP function are |Z(g)|/d times the
    d-cycle indicator, i.e. 1 on the d-cycle class and 0 elsewhere."""
    f = one_adic_ep(d)
    for rho in partitions(d):
        g = _cycle_rep(rho)
        if cycle_type(g) != rho:
            return False
        if orbital_sum(f, g) != (1 if rho == (d,) else 0):
            return False
    return True


def _levis(dmax: int, full_rank_dmax: int, top_rank: int) -> list[tuple[int, frozenset]]:
    """Proper Levi types (d, M): all of them for d <= full_rank_dmax, and
    those of semisimple rank <= top_rank for larger d."""
    out = []
    for d in range(2, dmax + 1):
        simple = list(range(1, d))
        ranks = range(d - 1) if d <= full_rank_dmax else range(min(top_rank, d - 2) + 1)
        for k in ranks:
            for M in itertools.combinations(simple, k):
                out.append((d, frozenset(M)))
    return out


def weyl_cosets(rng: random.Random, tiny: bool) -> list[list[Case]]:
    """Proper-Levi vanishing, then the double-coset tiling through
    ``restriction_support``, then the d-cycle indicator both ways."""
    dmax, fg_dmax, orbital_dmax = (4, 4, 4) if tiny else (6, 7, 6)
    levis = _levis(dmax, full_rank_dmax=dmax - 1, top_rank=2)
    vanish = [Case(f"vanishing d={d} M={sorted(M)}",
                   lambda d=d, M=M: _vanishing(d, M)) for d, M in levis]
    tiling = []
    for d, M in levis:
        simple = list(range(1, d))
        for k in range(d):
            for I in itertools.combinations(simple, k):
                I = frozenset(I)
                tiling.append(Case(f"tiling d={d} M={sorted(M)} I={sorted(I)}",
                                   lambda d=d, M=M, I=I: _double_coset_tiling(d, M, I)))
    indicator = [Case(f"f_g_table d={d}", lambda d=d: _indicator(d))
                 for d in range(1, fg_dmax + 1)]
    indicator += [Case(f"orbital sums d={d}", lambda d=d: _orbital_indicator(d))
                  for d in range(1, orbital_dmax + 1)]
    return [vanish, tiling, indicator]


# -- gl-shadow ---------------------------------------------------------------


def _parahoric_types(nmax: int) -> list[DParahoricType]:
    """Every standard parahoric type of GL_r(D) with n = r*d <= nmax."""
    return [DParahoricType(d, parts)
            for n in range(1, nmax + 1) for d in range(1, n + 1) if n % d == 0
            for parts in partitions(n // d)]


def gl_shadow(rng: random.Random, tiny: bool) -> list[list[Case]]:
    """The d-cycle DL identity by stable-flag counting, the EP shadow against
    the Weyl-averaged DL character, and the induction identity by element
    enumeration and coset sums."""
    if tiny:
        groups, shadow_ranges, ind_groups = [(2, 2), (2, 3), (3, 2)], [(2, 2), (3, 2)], [(2, 2)]
    else:
        groups = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
        shadow_ranges = [(2, 5), (3, 4)]
        ind_groups = [(d, q) for d in (1, 2, 3) for q in (2, 3)]
    comb = [Case(f"comb_prop GL_{d}(F_{q})",
                 lambda d=d, q=q: comb_prop_check(cached_group(d, q))["equal"])
            for d, q in groups]
    shadows = [Case(f"shadow d={t.d} parts={t.parts} q={q}",
                    lambda t=t, q=q: fj_shadow_report(t, q)["equal"])
               for q, nmax in shadow_ranges for t in _parahoric_types(nmax)]
    induction = [Case(f"induction identity GL_{d}(F_{q})",
                      lambda d=d, q=q: ind_conjugate_identity_exhaustive(
                          cached_group(d, q))["ok"])
                 for d, q in ind_groups]
    return [comb, shadows, induction]


# -- q-quotients -------------------------------------------------------------


def _round_trip(x) -> bool:
    return to_e_basis(to_one_basis(x)) == x


def _e_basis_sum(n: int) -> bool:
    """Two one-basis combos taken to the e-basis, where every coefficient is
    a genuine rational function of v, combined there and brought back, equal
    the same combination taken in the one-basis."""
    v = QScalar.v_power(1)
    y = ParahoricCombo(n, "one", {lam: 1 + len(lam) * v for lam in partitions(n)})
    z = ParahoricCombo(n, "one", {lam: lam[0] - v ** 2 for lam in partitions(n)})
    a = 1 / (1 + v)
    return to_one_basis(to_e_basis(y).scale(a) + to_e_basis(z)) == y.scale(a) + z


def _index_formula(comp: tuple[int, ...]) -> bool:
    n = sum(comp)
    symbolic = parahoric_index(comp)
    return all(symbolic.specialize_q(q) == Fraction(gl_order(n, q),
                                                    parabolic_order(comp, q))
               for q in (2, 3, 5))


def q_quotients(rng: random.Random, tiny: bool) -> list[list[Case]]:
    """Exact rank over Q(v) in the surjectivity witness, e <-> 1 basis round
    trips through real quotients by parahoric indices, sums of e-basis
    combos with non-Laurent coefficients, and the symbolic index against
    the order ratio."""
    if tiny:
        rmax, dmax, maxdeg, ep_nmax, prod_nmax, fj_nmax, sum_nmax, idx_nmax = (
            2, 2, 2, 3, 3, 3, 4, 3)
    else:
        rmax, dmax, maxdeg, ep_nmax, prod_nmax, fj_nmax, sum_nmax, idx_nmax = (
            5, 4, 5, 10, 8, 8, 9, 6)
    witness = [Case(f"surjectivity r={r} d={d} maxdeg={maxdeg}",
                    lambda r=r, d=d: surjectivity_witness(
                        TransferParams(r=r, d=d), maxdeg)["ok"])
               for r in range(1, rmax + 1) for d in range(1, dmax + 1)]
    trips = [Case(f"round trip ep_function n={n}",
                  lambda n=n: _round_trip(ep_function(n)))
             for n in range(1, ep_nmax + 1)]
    trips += [Case(f"round trip product_ep d={p.d} r={p.r}",
                   lambda p=p: _round_trip(product_ep(p.d, p.r)))
              for p in transfer_params(1, prod_nmax)]
    trips += [Case(f"round trip f_J d={t.d} parts={t.parts}",
                   lambda t=t: _round_trip(f_J(t)))
              for t in _parahoric_types(fj_nmax)]
    trips += [Case(f"e-basis sum n={n}", lambda n=n: _e_basis_sum(n))
              for n in range(1, sum_nmax + 1)]
    index = [Case(f"index formula comp={comp}",
                  lambda comp=comp: _index_formula(comp))
             for n in range(1, idx_nmax + 1) for comp in compositions(n)]
    return [witness, trips, index]


WORKLOAD_CASES = {
    "transfer-oracles": transfer_oracles,
    "weyl-cosets": weyl_cosets,
    "gl-shadow": gl_shadow,
    "q-quotients": q_quotients,
}


def build(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The workload's cases in run order: phases in their fixed order, each
    phase shuffled by the seed."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(seed)
    phases = WORKLOAD_CASES[workload](rng, size == "tiny")
    cases = []
    for phase in phases:
        rng.shuffle(phase)
        cases.extend(phase)
    return cases
