import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import flag_scan_oracle
from element_scan_oracle import group_elements, parabolic_elements
from coset_sum_oracle import (
    _left_coset_reps,
    coset_reps,
    generator_pairs,
    ind_identity_report,
    induce_class_function,
    induced_values_averaged,
    mat_inv,
)
from test_cli import _raise_two_part_flag_counts
from qtransfer.algebra import compositions, parahoric_index, partitions, subsets
from qtransfer.cli import _dl_characters_on_regular_semisimple
from qtransfer.finitegl import (
    BudgetError,
    ClassFunction,
    GLGroup,
    ParabolicSubgroup,
    cached_group,
    class_count,
    classfun,
    comb_prop_check,
    dl_character,
    fqmat,
    ind_conjugate_identity_exhaustive,
    linear_combination,
    parabolic_trivial_ind,
)
from qtransfer.finitegl.fqmat import (
    char_poly,
    companion_matrix,
    conjugate_elementary,
    elementary_step,
    mat_det,
    mat_identity,
    mat_mul,
    mat_rank,
    monic_irreducibles,
    rref_subspaces,
)
from qtransfer.weylcomb import block_composition

SMALL_GROUPS = [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)]
MEDIUM_GROUPS = [(2, 5), (3, 3), (4, 2)]


def trivial_character(group):
    """The constant class function 1."""
    return ClassFunction(group, (Fraction(1),) * len(group.classes))


def value_at_identity(f):
    """f at the class of the identity matrix: its degree, for a character."""
    return f.values[f.group.class_index_of(mat_identity(f.group.d))]


def test_matrix_helpers():
    d, q = 3, 5
    a = (1, 2, 0, 0, 1, 3, 2, 0, 1)
    # cofactor expansion by hand: det = 1*1 - 2*(0 - 6) + 0 = 13 = 3 mod 5
    assert mat_det(a, d, q) == 3
    inv = mat_inv(a, d, q)
    assert mat_mul(a, inv, d, q) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    singular = (1, 2, 0, 0, 1, 3, 4, 0, 1)  # det = 25 = 0 mod 5
    assert mat_det(singular, d, q) == 0
    with pytest.raises(ZeroDivisionError):
        mat_inv(singular, d, q)


def test_char_poly_of_companion():
    for q in (2, 3, 5):
        for f in monic_irreducibles(q, 3):
            if f == (0, 1):
                continue
            mat = companion_matrix(f, q)
            assert char_poly(mat, len(f) - 1, q) == f


def _leibniz_det(a, d, q):
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total += (-1) ** inversions * math.prod(a[i * d + perm[i]] for i in range(d))
    return total % q


def _largest_nonzero_minor(a, d, q):
    return max((k for k in range(1, d + 1)
                for rows in itertools.combinations(range(d), k)
                for cols in itertools.combinations(range(d), k)
                if _leibniz_det(tuple(a[i * d + j] for i in rows for j in cols), k, q)),
               default=0)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_rank_and_det_match_leibniz_and_minors(d, q):
    # every matrix: the one elimination against the Leibniz sum, and the
    # rank against the size of the largest nonzero minor
    for a in itertools.product(range(q), repeat=d * d):
        assert mat_det(a, d, q) == _leibniz_det(a, d, q)
        assert mat_rank(a, d, q) == _largest_nonzero_minor(a, d, q)


def test_irreducible_counts():
    # necklace counts: (q^2 - q)/2 quadratics, (q^3 - q)/3 cubics
    for q in (2, 3, 5):
        irrs = monic_irreducibles(q, 3)
        assert list(irrs) == sorted(irrs, key=lambda f: (len(f), f))
        by_deg = Counter(len(f) - 1 for f in irrs)
        assert by_deg[1] == q
        assert by_deg[2] == (q * q - q) // 2
        assert by_deg[3] == (q ** 3 - q) // 3


def test_class_counts_small_groups():
    assert [c.size for c in cached_group(2, 2).classes] != []
    assert sorted(c.size for c in cached_group(2, 2).classes) == [1, 2, 3]
    assert len(cached_group(2, 3).classes) == 8
    for q in (2, 3, 5):
        g = cached_group(1, q)
        assert len(g.classes) == q - 1
        assert all(c.size == 1 for c in g.classes)


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_classes_partition_group_by_enumeration(d, q):
    group = cached_group(d, q)
    counts = Counter()
    for m in group_elements(group):
        counts[group.label_of(m)] += 1
    assert counts == Counter({c.label: c.size for c in group.classes})


@pytest.mark.parametrize("d,q", SMALL_GROUPS)
def test_invariant_buckets_are_single_classes(d, q):
    # explicit conjugacy orbits agree with the canonical-form buckets
    group = cached_group(d, q)
    elems = group_elements(group)
    for cls in group.classes:
        orbit = {mat_mul(mat_mul(t, cls.rep, d, q), mat_inv(t, d, q), d, q)
                 for t in elems}
        assert len(orbit) == cls.size
        assert all(group.label_of(y) == cls.label for y in orbit)


def test_class_rep_has_its_own_label():
    for d, q in SMALL_GROUPS + MEDIUM_GROUPS + [(4, 3)]:
        group = cached_group(d, q)
        for cls in group.classes:
            assert group.label_of(cls.rep) == cls.label
            assert char_poly(cls.rep, d, q) == cls.char_poly


def test_class_budget_refusal():
    with pytest.raises(BudgetError, match="GL_6\\(F_5\\) has 15600 conjugacy classes, "
                                          "beyond the class limit 5000"):
        GLGroup(6, 5).conjugacy_classes()
    # the oracle's scan refuses when called, before the scan starts
    with pytest.raises(BudgetError, match="43046721 exceeds the scan limit 200000"):
        group_elements(cached_group(4, 3))


def test_parabolic_elements_refuse_at_once():
    started = time.monotonic()
    # P = G needs no elements; the first proper parabolic is too large
    with pytest.raises(BudgetError, match=r"P_\(3, 1\) in GL_4\(F_3\) has 606528 elements"):
        ind_conjugate_identity_exhaustive(cached_group(4, 3))
    # every block of the Borel is tiny, but |B| = 2^28: the P-classes refuse
    # before the walk (whose [G:P] would refuse with another message), and
    # the oracle's element list before its scan
    borel = ParabolicSubgroup(GLGroup(8, 2), (1,) * 8)
    with pytest.raises(BudgetError, match="268435456 elements"):
        borel.classes
    with pytest.raises(BudgetError, match="268435456 elements"):
        parabolic_elements(borel)
    assert time.monotonic() - started < 1


def pclass_members(P):
    """The elements of P grouped by ``P.class_index_of``, one list per
    P-class in the order of ``P.classes``; P = G labels every element."""
    members = [[] for _ in P.classes]
    for m in parabolic_elements(P):
        members[P.class_index_of(m)].append(m)
    return members


def test_parabolic_construction():
    group = cached_group(3, 2)
    for comp in compositions(3):
        P = ParabolicSubgroup(group, comp)
        elems = parabolic_elements(P)
        assert len(elems) == P.order
        assert all(P.contains(m) for m in elems)
        sizes = [len(members) for members in pclass_members(P)]
        assert sum(sizes) == P.order


def test_induce_from_borel_gl2_f2():
    # permutation character of S_3 on three points: (3, 1, 0)
    group = cached_group(2, 2)
    P = ParabolicSubgroup(group, (1, 1))
    f = {m: Fraction(1) for m in parabolic_elements(P)}
    ind = induce_class_function(group, parabolic_elements(P), f)
    assert ind == parabolic_trivial_ind(group, (1, 1))
    by_size = {c.size: v for c, v in zip(group.classes, ind.values)}
    assert by_size == {1: 3, 3: 1, 2: 0}


def test_induce_identity_and_trivial_subgroup():
    group = cached_group(2, 3)
    all_f = {m: Fraction(1) for m in group_elements(group)}
    assert induce_class_function(group, group_elements(group), all_f) == \
        trivial_character(group)
    ident = mat_identity(group.d)
    ind = induce_class_function(group, [ident], {ident: Fraction(1)})
    assert value_at_identity(ind) == group.order
    assert all(v == 0 for c, v in zip(group.classes, ind.values)
               if c.rep != ident)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_induction_independent_of_representatives(d, q):
    # coset-sum induction equals the |H|-averaged formula
    group = cached_group(d, q)
    for comp in compositions(d):
        if comp == (d,):
            continue
        P = ParabolicSubgroup(group, comp)
        f = {m: Fraction(1) for m in parabolic_elements(P)}
        ind = induce_class_function(group, parabolic_elements(P), f)
        for cls, val in zip(group.classes, ind.values):
            assert val == induced_values_averaged(group, P.order, f, cls.rep)


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_flag_count_induction_agrees_with_coset_sums(d, q):
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        f = {m: Fraction(1) for m in parabolic_elements(P)}
        assert parabolic_trivial_ind(group, comp) == induce_class_function(
            group, parabolic_elements(P), f)


def test_parabolic_trivial_ind_degrees():
    for d in range(1, 5):
        for q in (2, 3):
            group = cached_group(d, q)
            for comp in compositions(d):
                ind = parabolic_trivial_ind(group, comp)
                assert value_at_identity(ind) == parahoric_index(comp).specialize_q(q)
                # Frobenius reciprocity with the trivial character
                assert ind.inner_with_trivial() == 1


def test_type_checks_refuse_a_type_of_the_wrong_size():
    group = cached_group(3, 2)
    for comp in ((1, 1), [2, 2]):
        message = rf"^\({comp[0]}, {comp[1]}\) is not a composition of 3$"
        with pytest.raises(ValueError, match=message):
            parabolic_trivial_ind(group, comp)
        with pytest.raises(ValueError, match=message):
            ParabolicSubgroup(group, comp)
    with pytest.raises(ValueError, match=r"^\(2,\) is not a partition of 3$"):
        dl_character(group, (2,))
    with pytest.raises(ValueError, match=r"^\(2, 2\) is not a partition of 3$"):
        dl_character(group, [2, 2])


def test_dl_borel_case_and_gl2_values():
    for q in (2, 3):
        group = cached_group(2, q)
        assert dl_character(group, (1, 1)) == parabolic_trivial_ind(group, (1, 1))
        r2 = dl_character(group, (2,))
        assert r2 == linear_combination(group, ((2, trivial_character(group)),
                                                (-1, parabolic_trivial_ind(group, (1, 1)))))
        assert value_at_identity(r2) == 1 - q


@pytest.mark.parametrize("d,q", [(2, 3), (3, 2), (4, 2)])
def test_ind_and_dl_values_are_ints(d, q):
    # stable-flag counts and R_rho values are integers, held as ints
    group = cached_group(d, q)
    chars = ([parabolic_trivial_ind(group, comp) for comp in compositions(d)]
             + [dl_character(group, rho) for rho in partitions(d)])
    assert {type(v) for cf in chars for v in cf.values} == {int}


def test_linear_combination_edges():
    g2, g3 = cached_group(2, 2), cached_group(2, 3)
    for terms in ([(1, trivial_character(g2)), (2, trivial_character(g3))],
                  [(0, trivial_character(g3))]):
        with pytest.raises(ValueError, match="^class functions live on different groups$"):
            linear_combination(g2, terms)
    # no terms: the zero function, with Fraction values like every other
    zero = linear_combination(g3, [])
    assert zero.values == (Fraction(0),) * len(g3.classes)
    assert all(type(v) is Fraction for v in zero.values)


def linear_combination_by_fractions(group, terms):
    """The oracle of ``linear_combination``: c * f added term by term in
    Fractions, one list of class values."""
    total = [Fraction(0)] * len(group.classes)
    for c, f in terms:
        total = [t + Fraction(c) * v for t, v in zip(total, f.values)]
    return tuple(total)


def _class_functions_on(group):
    n = len(group.classes)
    return st.lists(st.fractions(max_denominator=12), min_size=n, max_size=n).map(
        lambda values: ClassFunction(group, tuple(values)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_linear_combination_matches_term_by_term_fractions(data):
    # non-integral values over mixed denominators, zero and negative
    # coefficients, int and Fraction coefficients
    group = cached_group(2, 3)
    terms = data.draw(st.lists(st.tuples(
        st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)),
        _class_functions_on(group)), max_size=5))
    total = linear_combination(group, terms)
    assert total.values == linear_combination_by_fractions(group, terms)
    assert all(type(v) is Fraction for v in total.values)


def test_linear_combination_reduces_over_the_products_of_denominators():
    # 1/2 * 1/2 needs the denominator 4, beyond the lcm 2 of the coefficient
    # and value denominators; opposite terms cancel to 0
    group = cached_group(2, 2)
    half = ClassFunction(group, (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)))
    terms = [(Fraction(1, 2), half), (0, half), (Fraction(-3, 4), half), (Fraction(3, 4), half)]
    assert linear_combination(group, terms).values == (Fraction(1, 4), Fraction(-1, 6),
                                                       Fraction(5, 12))
    assert linear_combination(group, terms).values == linear_combination_by_fractions(group, terms)


def test_dl_averaging_roundtrip():
    from qtransfer.weylcomb import composition_class_counts
    for d, q in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        group = cached_group(d, q)
        for mu in partitions(d):
            counts = composition_class_counts(mu)
            order = sum(counts.values())
            acc = linear_combination(group, ((Fraction(count, order), dl_character(group, rho))
                                             for rho, count in counts.items()))
            assert acc == parabolic_trivial_ind(group, mu)
            if mu == (d,):
                # the full-row case: the average is the constant function 1
                assert acc == trivial_character(group)


def comb_prop_rhs_by_subsets(group):
    """Oracle for the right side of ``comb_prop_check``: one induced
    character per subset I, of the composition I cuts, not of its sorted
    parts."""
    d = group.d
    total = linear_combination(group, (
        (Fraction((-1) ** (d - 1 - len(I)) * d, d - len(I)),
         parabolic_trivial_ind(group, block_composition(I, d)))
        for I in subsets(d - 1)))
    return [str(v) for v in total.values]


@pytest.mark.parametrize("d,q", [(d, 2) for d in range(2, 7)]
                         + [(d, 3) for d in range(2, 5)] + [(2, 5), (3, 5)])
def test_comb_prop_rhs_against_the_subset_sum(d, q):
    group = cached_group(d, q)
    assert comb_prop_check(group)["rhs"] == comb_prop_rhs_by_subsets(group)


def test_ind_conjugate_identity_single_case():
    group = cached_group(2, 2)
    P = ParabolicSubgroup(group, (1, 1))
    # C = {identity}: both sides are [G:P] at the identity, 0 elsewhere
    ident_idx = P.class_index_of(mat_identity(group.d))
    case = ind_conjugate_identity_exhaustive(group, (1, 1))["cases"][ident_idx]
    assert case["class_index"] == ident_idx
    assert case["equal"]
    idx = group.class_index_of(mat_identity(group.d))
    assert case["values"][idx] == ("3", "3", "3")


@pytest.mark.parametrize("d,q", SMALL_GROUPS + [(2, 5)])
def test_grouped_conjugation_counts_against_literal_pass(d, q):
    # the identity's middle column, the orbit-stabilizer counts over |P|,
    # against the literal pass over G.  One pass per class x of G: f weights
    # the P-class c by B^c with B > |G|, so the base-B digits of
    # |P| * (literal average) are the counts per P-class
    group = cached_group(d, q)
    base = group.order + 1
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        f = {m: Fraction(base ** cidx)
             for cidx, members in enumerate(pclass_members(P))
             for m in members}
        cases = ind_conjugate_identity_exhaustive(group, comp)["cases"]
        for gidx, cls in enumerate(group.classes):
            literal = P.order * induced_values_averaged(group, P.order, f, cls.rep)
            assert sum(P.order * Fraction(case["values"][gidx][1]) * base ** case["class_index"]
                       for case in cases) == literal


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_stable_subspace_memo_matches_fresh_scan(d, q):
    # every memoised (class rep, dim) entry of the flag-scan oracle against
    # a scan that spans each subspace and tests membership of the images
    group = cached_group(d, q)
    for comp in compositions(d):  # visits every intermediate dimension
        flag_scan_oracle.scan_trivial_ind(group, comp)
    memo = {(rep, dim): stable
            for (gd, gq, rep, dim), stable in flag_scan_oracle.STABLE_CACHE.items()
            if (gd, gq) == (d, q)}
    assert set(memo) == {(cls.rep, dim) for cls in group.classes for dim in range(1, d)}
    subs = rref_subspaces(d, q)
    for (rep, dim), stable in memo.items():
        assert isinstance(stable, frozenset)
        fresh = set()
        for idx, basis in enumerate(subs[dim]):
            span = {tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % q
                          for j in range(d))
                    for coeffs in itertools.product(range(q), repeat=dim)}
            if all(flag_scan_oracle.mat_vec(rep, row, d, q) in span for row in basis):
                fresh.add(idx)
        assert stable == fresh


def test_induction_identity_labels_representatives_only(monkeypatch):
    # a fresh group, so no earlier test has labelled anything on it
    group = GLGroup(3, 3)
    calls = 0
    label_of = GLGroup.label_of

    def counted(self, mat):
        nonlocal calls
        calls += 1
        return label_of(self, mat)

    monkeypatch.setattr(GLGroup, "label_of", counted)
    assert ind_conjugate_identity_exhaustive(group)["ok"]
    assert calls < group.order // 10


@pytest.mark.parametrize("d,q", SMALL_GROUPS)
def test_parabolic_class_sizes_against_members(d, q):
    # the sizes and G-class indices of the production accessor against the
    # member lists of its lookup
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        for (rep, size, gidx), members in zip(P.classes, pclass_members(P), strict=True):
            assert rep in members
            assert size == len(members)
            assert {group.class_index_of(m) for m in members} == {gidx}


def pclasses_by_conjugation(P):
    """Oracle for ``ParabolicSubgroup.classes`` on a proper P: the elements
    in order, each new one conjugated by every element of P.  Returns the
    (representative, size, G-class index) triples and the element -> class
    index map."""
    group = P.group
    d, q = group.d, group.q
    elems = parabolic_elements(P)
    inverses = {p: mat_inv(p, d, q) for p in elems}
    assigned = {}
    classes = []
    for x in elems:
        if x in assigned:
            continue
        orbit = {mat_mul(mat_mul(p, x, d, q), inverses[p], d, q) for p in elems}
        for y in orbit:
            assigned[y] = len(classes)
        classes.append((x, len(orbit), group.class_index_of(x)))
    return tuple(classes), assigned


@pytest.mark.parametrize("d,q", SMALL_GROUPS + [(3, 3), (4, 2)])
def test_generator_orbits_match_conjugation_oracle(d, q):
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        gens = generator_pairs(P)
        assert all(P.contains(g) and mat_mul(g, g_inv, d, q) == mat_identity(d)
                   for g, g_inv in gens)
        if len(comp) == 1:
            continue  # P = G takes the classes of the group
        classes, assigned = pclasses_by_conjugation(P)
        assert P.classes == classes
        assert {m: P.class_index_of(m) for m in parabolic_elements(P)} == assigned


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_elementary_conjugation_matches_matrix_products(d, q):
    # the row-and-column form of g y g^-1 against two products, for every
    # elementary generator of every parabolic and every element y of it
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        for (i, j, c), (g, g_inv) in zip(P.elementary, generator_pairs(P), strict=True):
            for y in parabolic_elements(P):
                assert conjugate_elementary(y, elementary_step(i, j, c, d, q), q) == \
                    mat_mul(mat_mul(g, y, d, q), g_inv, d, q), (comp, i, j, c, y)


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_generators_generate_the_parabolic(d, q):
    # the closure of {I} under left multiplication by the generators is P
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        gens = [g for g, _ in generator_pairs(P)]
        reached = {mat_identity(d)}
        frontier = [mat_identity(d)]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = mat_mul(g, y, d, q)
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
        assert len(reached) == P.order, comp
        assert all(P.contains(m) for m in reached), comp


def test_parabolic_classes_conjugate_without_matrix_products(monkeypatch):
    # |P_(2,1)| = 864 in GL_3(F_3); conjugating by its 5 generators with two
    # products each would take 8640 calls.  The classes are seeded by the
    # walked conjugates of G's class representatives, whose G-class is known,
    # so no product is formed and nothing is labelled
    group = cached_group(3, 3)
    group.classes
    products = labels = 0

    def counted_mul(*args):
        nonlocal products
        products += 1
        return mat_mul(*args)

    label_of = GLGroup.label_of

    def counted_label(self, mat):
        nonlocal labels
        labels += 1
        return label_of(self, mat)

    monkeypatch.setattr("qtransfer.finitegl.group.mat_mul", counted_mul)
    monkeypatch.setattr(GLGroup, "label_of", counted_label)
    P = ParabolicSubgroup(group, (2, 1))
    assert P.order == 864 and len(P.elementary) == 5
    assert P.classes
    assert (products, labels) == (0, 0)


def test_dl_inversion_raises_on_a_remainder(monkeypatch):
    # the inverse of the averaging system is integral (p_rho has integer
    # coefficients in the h basis), so integer flag counts never leave a
    # remainder; a wrong system does.  Raise the diagonal entry of (3) in
    # GL_3(F_2) from 2 to 3, so the row sum is 7: at the identity the row
    # asks for 3 * R_(3)(1) = 7 * 1 - 3 * R_(2,1)(1) - R_(1,1,1)(1)
    # = 7 + 21 - 21 = 7.
    counts = classfun.composition_class_counts

    def wrong_diagonal(mu):
        row = dict(counts(mu))
        if tuple(mu) == (3,):
            row[(3,)] += 1
        return row

    monkeypatch.setattr(classfun, "composition_class_counts", wrong_diagonal)
    with pytest.raises(AssertionError, match=r"R_\(3,\) on GL_3\(F_2\) is not integral"):
        dl_character(GLGroup(3, 2), (3,))


@pytest.mark.parametrize("d,q", SMALL_GROUPS + [(3, 3), (4, 2)])
def test_bruhat_coset_reps_against_tiling(d, q):
    # each constructed representative lies in its own coset of the tiling
    # found by scanning G, and every coset is hit
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        elems = parabolic_elements(P)
        tiling = _left_coset_reps(group, elems)
        coset_of = {mat_mul(g, h, d, q): idx for idx, g in enumerate(tiling) for h in elems}
        hits = sorted(coset_of[s] for s in coset_reps(P))
        assert hits == list(range(len(tiling)))


def test_coset_reps_refuse_on_index():
    started = time.monotonic()
    # [GL_5(F_3) : B] = [5]_3! is just past the limit
    with pytest.raises(BudgetError, match="has 251680 cosets, beyond the scan limit 200000"):
        ParabolicSubgroup(GLGroup(5, 3), (1,) * 5).coset_conjugator()
    with pytest.raises(BudgetError, match="has 19923090075 cosets"):
        ParabolicSubgroup(GLGroup(8, 2), (1,) * 8).coset_conjugator()
    assert time.monotonic() - started < 1


def test_induction_identity_refuses_on_index_before_class_data(monkeypatch):
    # the Borel of GL_5(F_3) has 251680 cosets; neither the classes of G nor
    # those of P (whose elements would refuse with another message) are built
    def guarded(self):
        raise AssertionError(f"classes of GL_{self.d}(F_{self.q}) were built")

    monkeypatch.setattr(GLGroup, "conjugacy_classes", guarded)
    started = time.monotonic()
    with pytest.raises(BudgetError, match="has 251680 cosets, beyond the scan limit 200000"):
        ind_conjugate_identity_exhaustive(GLGroup(5, 3), (1,) * 5)
    assert time.monotonic() - started < 1


def test_induction_identity_refuses_on_p_before_walking_a_conjugate(monkeypatch):
    # [GL_5(F_2) : P_(4,1)] = 31 passes and |P| = 322560 does not: reading
    # the P-classes refuses before any class representative is conjugated
    steps = 0
    conjugate = fqmat.conjugate_elementary

    def counted(*args):
        nonlocal steps
        steps += 1
        return conjugate(*args)

    monkeypatch.setattr("qtransfer.finitegl.group.conjugate_elementary", counted)
    monkeypatch.setattr(classfun, "conjugate_elementary", counted)
    with pytest.raises(BudgetError, match=r"^P_\(4, 1\) in GL_5\(F_2\) has 322560 elements, "
                                          r"beyond the scan limit 200000$"):
        ind_conjugate_identity_exhaustive(GLGroup(5, 2), (4, 1))
    assert steps == 0


@pytest.mark.parametrize("d,q", SMALL_GROUPS + MEDIUM_GROUPS)
def test_induction_identity_against_coset_sum_oracle(d, q):
    # every case, every row: composition, class index, verdict and values
    group = cached_group(d, q)
    assert ind_conjugate_identity_exhaustive(group) == ind_identity_report(group)


@pytest.mark.parametrize("d,q", [(3, 3), (4, 2)])
def test_coset_conjugator_against_matrix_products(d, q):
    # the walked conjugates of each class representative are the multiset
    # {s^-1 x s : s in coset_reps(P)}, for every parabolic
    group = cached_group(d, q)
    for comp in compositions(d):
        P = ParabolicSubgroup(group, comp)
        reps = [(s, mat_inv(s, d, q)) for s in coset_reps(P)]
        conjugates = P.coset_conjugator()
        for cls in group.classes:
            x = cls.rep
            assert Counter(conjugates(x)) == Counter(
                mat_mul(mat_mul(s_inv, x, d, q), s, d, q) for s, s_inv in reps), (comp, x)


def test_induction_identity_without_matrix_products(monkeypatch):
    # two products per coset representative, for both sets of them, would
    # take 7972 calls on GL_3(F_3) and 40648 on GL_4(F_2); labelling the
    # P-class representatives takes a few per class
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return mat_mul(*args)

    monkeypatch.setattr("qtransfer.finitegl.group.mat_mul", counted)
    for d, q in [(3, 3), (4, 2)]:
        group = GLGroup(d, q)
        group.classes
        calls = 0
        assert ind_conjugate_identity_exhaustive(group)["ok"]
        assert calls <= 1000, (d, q, calls)


def test_induction_identity_enumerates_no_element_of_g(monkeypatch):
    # the package keeps no element list; the scan of the oracle tests each
    # of the q^(d^2) candidates with a determinant, and the identity takes a
    # few per label of its P = G case, from the characteristic polynomial
    assert not hasattr(GLGroup, "elements") and not hasattr(ParabolicSubgroup, "elements")
    group = GLGroup(3, 3)
    group.classes
    calls = 0
    mat_det = fqmat.mat_det

    def counted(*args):
        nonlocal calls
        calls += 1
        return mat_det(*args)

    monkeypatch.setattr(fqmat, "mat_det", counted)
    assert ind_conjugate_identity_exhaustive(group)["ok"]
    assert calls < group.order // 10


@pytest.mark.parametrize("d,q", [(4, 2), (2, 5), (2, 7), (3, 5)])
def test_ind_conjugate_identity_larger_fields(d, q):
    # past the suite's d <= 3 and beyond the element scan of G:
    # |GL_3(F_5)| = 1488000
    report = ind_conjugate_identity_exhaustive(cached_group(d, q))
    assert report["ok"], report


# -- stable-flag counts in closed form, against the scan and the DL oracles --


SCAN_GROUPS = ([(d, 2) for d in range(1, 7)] + [(d, 3) for d in range(1, 5)]
               + [(d, 5) for d in range(1, 4)])


@pytest.mark.parametrize("d,q", SCAN_GROUPS)
def test_flag_counts_match_subspace_scan(d, q):
    # the closed form from class labels against the whole-space scan, on
    # every composition
    group = cached_group(d, q)
    for comp in compositions(d):
        assert parabolic_trivial_ind(group, comp) == \
            flag_scan_oracle.scan_trivial_ind(group, comp), comp


@pytest.mark.parametrize("d,q", [(d, q) for q in (2, 3) for d in range(1, 7)]
                         + [(d, 5) for d in range(1, 6)])
def test_class_count_matches_labels(d, q):
    assert class_count(d, q) == sum(1 for _ in GLGroup(d, q)._all_labels())


def test_class_count_values_and_label_recursion_depth():
    assert [class_count(d, q) for d, q in [(6, 2), (4, 3), (6, 3), (5, 5), (6, 5), (10, 2)]] \
        == [60, 78, 720, 3096, 15600, 1002]
    # 3409 monic irreducibles of degree <= 6 over F_5 (x excluded): the
    # label recursion must not take one frame per irreducible
    assert sum(1 for _ in GLGroup(6, 5)._all_labels()) == 15600


def _centralizer_in_s_d(rho):
    z = 1
    for part, mult in Counter(rho).items():
        z *= part ** mult * math.factorial(mult)
    return z


# every group the verify suites and the benchmark reach, and the new groups
# of the closed-form flag counts
DL_GROUPS = ([(d, 2) for d in range(1, 9)] + [(d, 3) for d in range(1, 7)]
             + [(d, 5) for d in range(1, 6)])


@pytest.mark.parametrize("d,q", DL_GROUPS)
def test_dl_characters_orthogonality_and_degree(d, q):
    # two facts that use class data only, not the averaging inversion that
    # defines dl_character: <R_rho, R_sigma> = delta * z_rho (Deligne-Lusztig
    # 1976, Thm 6.8) and R_rho(1) = (-1)^(d - l(rho)) prod_i (q^i - 1) /
    # prod_j (q^rho_j - 1) (Carter, Finite Groups of Lie Type, 7.5)
    group = cached_group(d, q)
    parts = list(partitions(d))
    chars = {rho: dl_character(group, rho).values for rho in parts}
    sizes = [cls.size for cls in group.classes]
    gl_factor = math.prod(q ** i - 1 for i in range(1, d + 1))
    for rho in parts:
        expected = (-1) ** (d - len(rho)) * Fraction(
            gl_factor, math.prod(q ** part - 1 for part in rho))
        assert value_at_identity(dl_character(group, rho)) == expected, rho
        for sigma in parts:
            inner = sum(n * a * b for n, a, b in zip(sizes, chars[rho], chars[sigma]))
            expected = _centralizer_in_s_d(rho) if rho == sigma else 0
            assert Fraction(inner, group.order) == expected, (rho, sigma)


def test_dl_characters_on_regular_semisimple_classes():
    # the check the finite-gl suite runs on its five comb_prop groups, on more
    groups = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (3, 5), (5, 2), (6, 2)]
    assert all(_dl_characters_on_regular_semisimple(cached_group(d, q)) for d, q in groups)


def test_regular_semisimple_fact_sees_a_wrong_flag_count(monkeypatch):
    # one more flag on each 2-part composition of a module type with more
    # than one primary part, on fresh caches: R_rho, defined from the flag
    # counts, then breaks the fact on every group with such a type, which
    # GL_2(F_2) lacks (t + 1 is its one degree-1 irreducible other than t)
    _raise_two_part_flag_counts(monkeypatch)
    broken = {(d, q): not _dl_characters_on_regular_semisimple(cached_group(d, q))
              for d, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]}
    assert broken == {(2, 2): False, (2, 3): True, (3, 2): True, (3, 3): True, (4, 2): True}


@pytest.mark.parametrize("d,q", [(4, 3), (5, 2), (6, 2), (4, 5), (5, 3), (8, 2)])
def test_comb_prop_beyond_the_old_class_budget(d, q):
    report = comb_prop_check(cached_group(d, q))
    assert report["equal"], report
