from fractions import Fraction
from functools import reduce

import pytest

from product_oracle import tensor

from qtransfer import epfun
from qtransfer.algebra import QScalar, partitions, subsets
from qtransfer.epfun import (
    DParahoricType,
    ParahoricCombo,
    ep_function,
    f_J,
    fj_shadow_report,
    product_ep,
    shadow,
    to_e_basis,
    to_one_basis,
    weyl_averaged_dl,
)
from qtransfer.finitegl import (
    BudgetError,
    cached_group,
    linear_combination,
    parabolic_trivial_ind,
)
from qtransfer.weylcomb import block_composition


def all_types(nmax):
    for n in range(1, nmax + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                for parts in partitions(n // d):
                    yield DParahoricType(d, parts)


def test_combo_validation_and_arithmetic():
    with pytest.raises(ValueError):
        ParahoricCombo(3, "e", {(2,): 1})  # not a partition of 3
    with pytest.raises(ValueError):
        ParahoricCombo(2, "x", {})
    a = ParahoricCombo(2, "e", {(2,): 1})
    b = ParahoricCombo(2, "e", {(1, 1): Fraction(1, 2)})
    assert (a + b).coefficient((2,)) == QScalar(1)
    assert tensor(a, b).n == 4
    assert tensor(a, b).coefficient((2, 1, 1)) == QScalar(Fraction(1, 2))


def test_ep_function_hand_values():
    assert ep_function(1) == ParahoricCombo(1, "e", {(1,): 1})
    e2 = ep_function(2)
    assert e2.coefficient((2,)) == QScalar(1)
    assert e2.coefficient((1, 1)) == QScalar(Fraction(-1, 2))
    e3 = ep_function(3)
    assert e3.coefficient((3,)) == QScalar(1)
    assert e3.coefficient((2, 1)) == QScalar(-1)
    assert e3.coefficient((1, 1, 1)) == QScalar(Fraction(1, 3))


def test_ep_collapse_correctness():
    # oracle: the subset sum over I in {1, .., n-1} of
    # (-1)^(n-1-|I|)/(n-|I|) e_{J_I}, collapsed onto partitions
    for n in range(1, 11):
        terms = {}
        for I in subsets(n - 1):
            key = tuple(sorted(block_composition(I, n), reverse=True))
            coeff = Fraction((-1) ** (n - 1 - len(I)), n - len(I))
            terms[key] = terms.get(key, 0) + coeff
        assert ep_function(n) == ParahoricCombo(n, "e", terms)


def test_ep_iwahori_coefficient():
    # composition-level coefficient of the Iwahori term is (-1)^(n-1)/n;
    # the partition (1^n) collects (n-1)! compositions... exactly one
    # composition (1,..,1), so the collapsed coefficient is the same
    for n in range(1, 7):
        assert ep_function(n).coefficient((1,) * n) == QScalar(
            Fraction((-1) ** (n - 1), n))


def test_product_ep_coefficients():
    # the two extreme coefficients are closed-forms cases (criterion 08)
    for d in range(1, 6):
        for r in range(1, 6):
            # supported on refinements of (d^r): every part is <= d
            assert all(max(lam) <= d for lam in product_ep(d, r).terms)


def test_product_ep_r1():
    # oracle: the r-fold tensor of the scaled EP function, one factor at a time
    for d in range(1, 9):
        factor = ep_function(d).scale(d)
        expected = factor
        for r in range(1, 8 // d + 1):
            if r > 1:
                expected = tensor(expected, factor)
            assert product_ep(d, r) == expected, (d, r)
            assert f_J(DParahoricType(d, (1,) * r)) == expected, (d, r)


def test_f_J_factorizes_over_the_parts():
    # W_L is the product of the S_{r_i}, so the Weyl average is the tensor
    # of the one-block averages
    for d in range(1, 5):
        for r in range(1, 8 // d + 1):
            for parts in partitions(r):
                blocks = [f_J(DParahoricType(d, (part,))) for part in parts]
                assert f_J(DParahoricType(d, parts)) == reduce(tensor, blocks), (d, parts)


def _oracle_product(parts):
    # the QScalar tensor of the scaled EP functions, one factor at a time
    return reduce(tensor, [ep_function(m).scale(m) for m in parts])


def test_ep_product_matches_the_tensor_oracle_in_any_order():
    # every multiset of parts with sum <= 10, in decreasing, increasing and
    # one rotated order: the memoised core keys on the sorted parts, so it
    # holds one entry per partition of 0, 1, .., 10
    epfun._ep_terms.cache_clear()
    for n in range(1, 11):
        for lam in partitions(n):
            expected = _oracle_product(lam)
            for parts in {lam, lam[::-1], lam[1:] + lam[:1]}:
                assert epfun._ep_product(parts) == expected, parts
    keys = sum(1 for n in range(11) for _ in partitions(n))
    assert epfun._ep_terms.cache_info().currsize == keys


def test_f_J_matches_the_weighted_sum_of_oracle_products():
    # the definition before the Fraction core: a QScalar sum over the Weyl
    # average of the oracle products, each scaled by its weight
    for t in all_types(9):
        expected = ParahoricCombo(t.n, "e")
        for torus, weight in epfun._torus_weights(t):
            expected = expected + _oracle_product(torus).scale(weight)
        assert f_J(t) == expected, t


def test_ep_products_do_not_share_their_terms():
    # the core is memoised; a caller that mutates its combo must not reach it
    first = product_ep(2, 3)
    first.terms[(2, 2, 2)] = QScalar(0)
    assert product_ep(2, 3).coefficient((2, 2, 2)) == QScalar(8)
    assert product_ep(2, 3) == _oracle_product((2, 2, 2))
    fj = f_J(DParahoricType(2, (1, 1, 1)))
    fj.terms.clear()
    assert f_J(DParahoricType(2, (1, 1, 1))) == _oracle_product((2, 2, 2))


def test_basis_conversion():
    combo = ep_function(2)
    one = to_one_basis(combo)
    assert one.coefficient((2,)) == QScalar(1)
    q = QScalar.q_power(1)
    assert one.coefficient((1, 1)) == (q + 1) * Fraction(-1, 2)
    for n in range(1, 6):
        assert to_e_basis(to_one_basis(ep_function(n))) == ep_function(n)
    with pytest.raises(ValueError):
        to_one_basis(one)


def test_basis_round_trips_with_quotients_to_n12():
    # e-basis coefficients are genuine quotients by parahoric indices of
    # degree up to n(n-1) in v; sums of them must reduce back exactly
    v = QScalar.v_power(1)
    a = 1 / (1 + v)
    for n in range(1, 13):
        y = ParahoricCombo(n, "one", {lam: 1 + len(lam) * v for lam in partitions(n)})
        z = ParahoricCombo(n, "one", {lam: lam[0] - v ** 2 for lam in partitions(n)})
        assert to_one_basis(to_e_basis(y).scale(a) + to_e_basis(z)) == y.scale(a) + z
        assert to_e_basis(to_one_basis(ep_function(n))) == ep_function(n)


def test_coefficients_are_rational_until_one_basis():
    # a q-dependent coefficient differs from its value at q = 2
    for n in range(1, 6):
        for c in ep_function(n).terms.values():
            assert c == QScalar(c.specialize_q(2))
    for c in product_ep(2, 3).terms.values():
        assert c == QScalar(c.specialize_q(2))


def test_f_J_special_cases():
    # torus quotient: trivial Weyl group, pure product
    for d, r in [(2, 2), (3, 1), (2, 3)]:
        assert f_J(DParahoricType(d, (1,) * r)) == product_ep(d, r)
    # single GL_1(F_{q^n}) block: n times the EP function
    for n in range(1, 6):
        assert f_J(DParahoricType(n, (1,))) == ep_function(n).scale(n)


def test_f_J_d1_collapses_to_single_type():
    # at d = 1 the Weyl-averaged expansion telescopes to the single
    # parahoric of the type itself (e.g. the Iwahori for type (1^r))
    for parts in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2)]:
        t = DParahoricType(1, parts)
        expected = ParahoricCombo(t.n, "e", {tuple(sorted(parts, reverse=True)): 1})
        assert f_J(t) == expected


def test_shadow_of_full_type_is_trivial_character():
    for n, q in [(2, 2), (3, 2), (2, 3)]:
        combo = ParahoricCombo(n, "e", {(n,): 1})
        assert shadow(combo, q) == parabolic_trivial_ind(cached_group(n, q), (n,))


def test_shadow_of_empty_combination_is_zero():
    for n, q in [(1, 2), (3, 2), (2, 3)]:
        zero = shadow(ParahoricCombo(n), q)
        assert zero == linear_combination(cached_group(n, q), [])
        assert zero.values == (0,) * len(cached_group(n, q).classes)


def test_shadow_accepts_one_basis():
    combo = ep_function(2)
    assert shadow(to_one_basis(combo), 3) == shadow(combo, 3)


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 6), (5, 5)])
def test_fj_shadow_identity_beyond_the_old_class_budget(q, nmax):
    for t in all_types(nmax):
        report = fj_shadow_report(t, q)
        assert report["equal"], report


def test_fj_shadow_refused_at_the_class_limit():
    # GL_6(F_5) has 15600 conjugacy classes, past the class limit
    with pytest.raises(BudgetError, match="15600 conjugacy classes"):
        fj_shadow_report(DParahoricType(1, (6,)), 5)


def test_weyl_averaged_dl_iwahori_case():
    # type (1^r), d=1: W_L trivial, average is R of the split torus = Ind_B(1)
    group = cached_group(3, 2)
    avg = weyl_averaged_dl(DParahoricType(1, (1, 1, 1)), 2)
    assert avg == parabolic_trivial_ind(group, (1, 1, 1))


def test_serialization_order():
    combo = product_ep(2, 2)
    types = [t["type"] for t in combo.to_json()["terms"]]
    assert types == ["2,2", "2,1,1", "1,1,1,1"]  # reverse lexicographic
