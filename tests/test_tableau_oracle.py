"""Kostka numbers and Jacobi-Trudi determinants against the tableau walks
of ``tableau_oracle.py``, and the rules of the walk itself."""

import time

from hypothesis import given, settings, strategies as st

from qtransfer.algebra import SymPoly, partitions, schur
from qtransfer.transfer import (
    TransferParams,
    image_e,
    image_h,
    image_schur,
    transfer_sym,
)
from product_oracle import complete_homogeneous
from tableau_oracle import (
    image_schur_by_tableaux,
    schur_by_tableaux,
    ssyt_tableaux,
    ssyt_weight,
)


def all_params(nmax):
    return [TransferParams(r=n // d, d=d)
            for n in range(1, nmax + 1) for d in range(1, n + 1) if n % d == 0]


def shapes(maxsize):
    return [mu for size in range(maxsize + 1) for mu in partitions(size)]


def one(nvars):
    return SymPoly(nvars, {(0,) * nvars: 1})


# every shape mu with |mu| <= 6, the empty one included, and entries up to n <= 6
SSYT_CASES = [(mu, n) for n in range(1, 7) for size in range(7) for mu in partitions(size)]


def test_ssyt_counts_match_weyl_dimension():
    # number of SSYT of shape mu with entries <= n is the GL_n
    # irreducible dimension; check hook-content products
    def dim(mu, n):
        mu = mu + (0,) * (n - len(mu))
        num, den = 1, 1
        for i in range(n):
            for j in range(i + 1, n):
                num *= (mu[i] - mu[j]) + (j - i)
                den *= j - i
        return num // den

    for mu, n in SSYT_CASES:
        expected = dim(mu, n) if len(mu) <= n else 0
        assert len(list(ssyt_tableaux(mu, n))) == expected, (mu, n)


def test_ssyt_rules():
    for mu, n in SSYT_CASES:
        tabs = list(ssyt_tableaux(mu, n))
        assert len(set(tabs)) == len(tabs), (mu, n)
        for tab in tabs:
            assert tuple(map(len, tab)) == mu
            assert all(1 <= x <= n for row in tab for x in row)
            assert all(list(row) == sorted(row) for row in tab), tab
            assert all(above[j] < row[j] for above, row in zip(tab, tab[1:])
                       for j in range(len(row))), tab
    assert sum(ssyt_weight(((1, 2), (2,)), 3)) == 3
    # more rows than entries: no tableau
    assert list(ssyt_tableaux((1, 1, 1), 2)) == []


def test_ssyt_tableaux_are_generated_lazily():
    # shape (4, 4) has 2.8 billion tableaux with entries up to 40: an eager
    # list would build all of them before returning the first
    started = time.perf_counter()
    first = next(ssyt_tableaux((4, 4), 40))
    assert time.perf_counter() - started < 0.5
    assert first == ((1, 1, 1, 1), (2, 2, 2, 2))


def test_kostka_schur_matches_tableau_walk():
    for n in range(1, 9):
        for mu in shapes(8):
            assert schur(n, mu) == schur_by_tableaux(n, mu), (n, mu)


def test_jacobi_trudi_image_schur_matches_tableau_walk():
    for p in all_params(8):
        for mu in shapes(6):
            assert image_schur(p, mu) == image_schur_by_tableaux(p, mu), (p, mu)


def test_image_h_is_the_transfer_of_h():
    for p in all_params(8):
        for k in range(7):
            assert image_h(p, k) == transfer_sym(p, complete_homogeneous(p.n, k)), (p, k)
        assert not image_h(p, -1)
    assert image_h(TransferParams(r=2, d=3), 0) == one(2)


def test_image_schur_edge_cases():
    p = TransferParams(r=1, d=2)
    # more rows than columns: the dual form in the e_k
    assert image_schur(p, (1, 1)) == image_e(p, 2)
    # (2, 2) in the dual form reads e_3 and e_4 beyond n = 2: zero entries
    assert image_schur(p, (2, 2)) == transfer_sym(p, schur(2, (2, 2)))
    assert image_schur(p, (2, 2)) == image_schur_by_tableaux(p, (2, 2))
    # more parts than n: zero
    assert not image_schur(p, (1, 1, 1))
    assert not schur(2, (2, 1, 1))
    # the empty shape: 1
    for p in all_params(4):
        assert image_schur(p, ()) == one(p.r)
        assert schur(p.n, ()) == one(p.n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([p for p in all_params(9) if p.n >= 2]),
       st.sampled_from([mu for mu in shapes(7) if mu]))
def test_image_schur_is_the_transfer_of_schur(p, mu):
    image = image_schur(p, mu)
    assert image == transfer_sym(p, schur(p.n, mu))
    if sum(mu) <= 5:
        assert image == image_schur_by_tableaux(p, mu)


def test_image_schur_reach():
    # 1812096 tableaux: the walk of tableau_oracle.py takes 13-18 s on a
    # 2-core x86-64 host with Python 3.11
    started = time.perf_counter()
    p = TransferParams(r=2, d=5)
    assert image_schur(p, (5, 4, 1)) == transfer_sym(p, schur(10, (5, 4, 1)))
    assert time.perf_counter() - started < 10
