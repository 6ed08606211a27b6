import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtransfer.algebra import (
    QScalar,
    SymPoly,
    V,
    elementary,
    monomial_sym,
    partitions,
    powersum,
    qint_balanced,
    schur,
)
from qtransfer import transfer
from qtransfer.transfer import (
    TransferParams,
    image_e,
    image_h,
    image_p,
    image_schur,
    shift_vector,
    substitution_image,
    surjectivity_witness,
    transfer_sym,
)
from product_oracle import complete_homogeneous, product_by_expansion


def all_params(nmax):
    return [TransferParams(r=n // d, d=d)
            for n in range(1, nmax + 1) for d in range(1, n + 1) if n % d == 0]


def test_shift_vector_structure():
    p = TransferParams(r=2, d=3)
    x = shift_vector(p)
    assert x == (2, 0, -2, 2, 0, -2)
    for k in range(p.r):
        block = x[k * p.d:(k + 1) * p.d]
        assert sum(block) == 0
        assert all(block[i] - block[i + 1] == 2 for i in range(p.d - 1))


def test_transfer_monomial_examples():
    # z^a -> v^(a.x) t^b summed by hand over the orbit of a
    p = TransferParams(r=1, d=2)
    assert transfer_sym(p, monomial_sym(2, (1, 0))) == \
        monomial_sym(1, (1,)).scale(V + V ** -1)
    assert transfer_sym(p, monomial_sym(2, (1, 1))) == monomial_sym(1, (2,))
    # x = (1, -1, 1, -1): z1z2, z3z4 -> t1^2, t2^2; z1z3 -> v^2 t1t2,
    # z1z4, z2z3 -> t1t2, z2z4 -> v^-2 t1t2
    p22 = TransferParams(r=2, d=2)
    assert transfer_sym(p22, monomial_sym(4, (1, 1, 0, 0))) == \
        monomial_sym(2, (2, 0)) + monomial_sym(2, (1, 1)).scale(V ** 2 + 2 + V ** -2)


def test_image_p_examples():
    p = TransferParams(r=1, d=2)
    assert image_p(p, 1) == powersum(1, 1).scale(V + V ** -1)
    assert image_p(p, 1) == image_e(p, 1)
    # d = 1: identity on power sums
    p1 = TransferParams(r=3, d=1)
    assert image_p(p1, 2) == powersum(3, 2)


def test_image_e_examples():
    p = TransferParams(r=1, d=2)
    assert image_e(p, 2) == monomial_sym(1, (2,))
    p22 = TransferParams(r=2, d=2)
    expected = monomial_sym(2, (2, 0)) + monomial_sym(2, (1, 1)).scale(
        QScalar.q_power(1) + 2 + QScalar.q_power(-1))
    assert image_e(p22, 2) == expected
    # k = n: unique type (d^r), coefficient 1
    for p in all_params(6):
        assert image_e(p, p.n) == monomial_sym(p.r, (p.d,) * p.r)


def test_image_schur_examples():
    p = TransferParams(r=1, d=2)
    assert image_schur(p, (1,)) == image_e(p, 1)
    assert image_schur(p, (1, 1)) == monomial_sym(1, (2,))
    # single-row shapes in one variable collapse to a balanced q-integer
    for k in range(1, 5):
        assert image_schur(p, (k,)) == monomial_sym(1, (k,)).scale(
            qint_balanced(k + 1, 1))


def test_no_production_path_expands_orbits(monkeypatch):
    # only the substitution oracle may expand a SymPoly
    p = TransferParams(r=2, d=2)
    f = monomial_sym(p.n, (2, 1, -1)) + elementary(p.n, 2).scale(V)
    cube = product_by_expansion(product_by_expansion(f, f), f)

    def refuse(self):
        raise AssertionError("SymPoly.expand called")

    monkeypatch.setattr(SymPoly, "expand", refuse)
    assert f * f * f == cube
    for k in range(1, p.n + 1):
        assert image_e(p, k) == transfer_sym(p, elementary(p.n, k))
        assert image_h(p, k) == transfer_sym(p, complete_homogeneous(p.n, k))
    for mu in ((2, 1), (1, 1, 1), (3, 1), (2, 2, 1)):
        assert image_schur(p, mu) == transfer_sym(p, schur(p.n, mu))
    assert surjectivity_witness(p, 4)["ok"]


def test_monomial_images_are_keyed_on_r_and_d():
    # (2, 2), (4, 1) and (1, 4) share n = 4 and so every source key
    key = (2, 1, 0, -1)
    params = [TransferParams(r=2, d=2), TransferParams(r=4, d=1),
              TransferParams(r=1, d=4)]
    for order in (params, params[::-1]):
        transfer._monomial_image.cache_clear()
        for p in order:
            m = monomial_sym(p.n, key)
            assert transfer_sym(p, m) == substitution_image(p, m)
        assert transfer._monomial_image.cache_info().currsize == len(params)


def test_warm_monomial_images_give_the_cold_results():
    cases = [(p, f) for p in all_params(6)[1:]
             for f in (elementary(p.n, 2), schur(p.n, (2, 1)),
                       monomial_sym(p.n, (1, -1)).scale(V) + powersum(p.n, 2))]
    transfer._monomial_image.cache_clear()
    cold = [transfer_sym(p, f) for p, f in cases]
    warm = [transfer_sym(p, f) for p, f in cases[::-1]][::-1]
    assert warm == cold
    assert all(image == substitution_image(p, f)
               for (p, f), image in zip(cases, cold))


def test_mutating_an_image_leaves_the_cache_alone():
    # a single key with coefficient 1 is where handing out the cached image
    # would be tempting
    p = TransferParams(r=2, d=2)
    for f in (monomial_sym(p.n, (1, 0)), elementary(p.n, 2) + powersum(p.n, 1)):
        expected = substitution_image(p, f)
        image = transfer_sym(p, f)
        assert image == expected
        image.terms.clear()
        assert transfer_sym(p, f) == expected


def test_a_non_invariant_orbit_count_is_refused(monkeypatch):
    # one hit moved on the target key (1, 0) only: its S_2-image (0, 1)
    # keeps its count, so from_expansion must refuse the image
    counts = transfer._v_exponent_counts

    def faulty(p, dom):
        out = counts(p, dom)
        hits = dict(out[(1, 0)])
        top = max(hits)
        hits[top + 2] = hits.pop(top)
        out[(1, 0)] = hits
        return out

    monkeypatch.setattr(transfer, "_v_exponent_counts", faulty)
    monkeypatch.setattr(transfer, "_monomial_image",
                        functools.lru_cache(maxsize=None)(transfer._monomial_image.__wrapped__))
    p = TransferParams(r=2, d=2)
    with pytest.raises(ValueError, match="orbit of"):
        transfer_sym(p, monomial_sym(p.n, (1,)))


def test_oracle_equivalence_moderate():
    # the one oracle the transfer-consistency suite leaves out, as it
    # would cost the suite its reach: the substitution of s_mu
    for p in all_params(6):
        for size in range(1, 5):
            for mu in partitions(size):
                assert substitution_image(p, schur(p.n, mu)) == image_schur(p, mu)


def test_quotient_coefficients_with_negative_exponents():
    # source coefficients that are genuine quotients, on keys with negative
    # exponents, regrouped per target key against the substitution oracle
    for p in all_params(6):
        n = p.n
        f = (monomial_sym(n, (2, -1, 1)[:n]).scale(1 / (1 + V))
             + monomial_sym(n, (-2, 1)[:n]).scale(V ** -3 + Fraction(2, 3))
             + monomial_sym(n, (1, 1, -1)[:n]).scale((V - 1) / (V ** 2 + 1)))
        assert not all(c.is_laurent() for c in f.terms.values())
        assert transfer_sym(p, f) == substitution_image(p, f)


def test_transfer_is_ring_homomorphism():
    p = TransferParams(r=2, d=2)
    f = elementary(4, 2)
    g = powersum(4, 1)
    assert transfer_sym(p, f * g) == transfer_sym(p, f) * transfer_sym(p, g)
    assert transfer_sym(p, f + g) == transfer_sym(p, f) + transfer_sym(p, g)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(1, 2), (2, 2), (1, 4), (4, 1)]),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_transfer_hom_randomized(rd, raw_u, raw_w):
    r, d = rd
    p = TransferParams(r=r, d=d)
    from qtransfer.algebra import SymPoly, dominant
    f = SymPoly(p.n, {dominant(raw_u[:p.n]): 1})
    g = SymPoly(p.n, {dominant(raw_w[:p.n]): 1})
    assert transfer_sym(p, f * g) == transfer_sym(p, f) * transfer_sym(p, g)
    assert transfer_sym(p, f + g) == transfer_sym(p, f) + transfer_sym(p, g)


def test_d1_is_identity():
    p = TransferParams(r=4, d=1)
    for f in (elementary(4, 2), powersum(4, 3), schur(4, (2, 1))):
        assert transfer_sym(p, f) == f


def test_q1_degeneration_of_image_e():
    # at q = 1 the image of e_k is the multinomial expansion of e_k under
    # variable merging: coefficient of m_alpha is prod binom(d, alpha_i)
    import math
    p = TransferParams(r=2, d=3)
    for k in range(1, 5):
        img = image_e(p, k)
        for alpha in partitions(k, max_part=p.d, max_length=p.r):
            key = alpha + (0,) * (p.r - len(alpha))
            expected = 1
            for part in alpha:
                expected *= math.comb(p.d, part)
            assert img.terms[key].specialize_q(1) == expected


def test_newton_consistency_of_images():
    # images of e_k from images of p_k via Newton's identities
    for p in (TransferParams(2, 2), TransferParams(3, 2), TransferParams(2, 3)):
        imgs_p = {i: image_p(p, i) for i in range(1, 6)}
        e_img = {0: SymPoly(p.r, {(0,) * p.r: 1})}
        for k in range(1, min(p.n, 5) + 1):
            acc = SymPoly.zero(p.r)
            for i in range(1, k + 1):
                term = e_img[k - i] * imgs_p[i]
                acc = acc + (term if i % 2 else -term)
            e_img[k] = acc.scale(Fraction(1, k))
            assert e_img[k] == image_e(p, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, 8 // r))),
       st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_shift_inner_product_is_the_modulus_closed_form(rd, raw):
    # a . x against the modulus-character exponent in closed form,
    # sum_i (n+1-2i) a_i - d * sum_k (r+1-2k) b_k with b the block sums of a
    r, d = rd
    p = TransferParams(r=r, d=d)
    a = raw[:p.n]
    b = [sum(a[k * d:(k + 1) * d]) for k in range(r)]
    closed = (sum((p.n - 1 - 2 * i) * ai for i, ai in enumerate(a))
              - d * sum((r - 1 - 2 * k) * bk for k, bk in enumerate(b)))
    assert sum(ai * xi for ai, xi in zip(a, shift_vector(p))) == closed


def test_surjectivity_witness():
    # r <= 4, d <= 3 at maxdeg 3 are closed-forms cases (criterion 09)
    report = surjectivity_witness(TransferParams(r=1, d=1), 4)
    assert report["ok"], report
    assert all(c == "1" for c in report["leading_coefficients"].values())


def test_surjectivity_witness_sees_a_dependent_image(monkeypatch):
    # planted fault: the image of p_2 is the square of the image of p_1, so
    # the rows of p_2 and p_1^2 coincide and degree 2 loses a rank
    image_p = transfer.image_p

    def faulty(p, k):
        return image_p(p, 1) * image_p(p, 1) if k == 2 else image_p(p, k)

    monkeypatch.setattr(transfer, "image_p", faulty)
    for r, d in [(2, 1), (2, 2), (3, 2)]:
        report = surjectivity_witness(TransferParams(r=r, d=d), 3)
        check = report["degree_checks"][1]
        assert check["degree"] == 2
        assert check["rank"] < check["target_dimension"], report
        assert not check["ok"] and not report["ok"], report


def test_rank_of_rows_over_rational_functions():
    # row 1 is (1+v)/(1-v) times row 0 and the last column is zero: rank 2
    row = [1 + V, V ** 2, QScalar(0)]
    ratio = (1 + V) / (1 - V)
    rows = [row, [ratio * x for x in row], [V, 1 - V ** -1, QScalar(0)]]
    assert transfer.rank_of_rows(rows) == 2
    assert transfer.rank_of_rows(rows[:1] + rows[2:]) == 2
    assert transfer.rank_of_rows(rows[:2]) == 1
    assert transfer.rank_of_rows([r[:2] for r in rows]) == 2
