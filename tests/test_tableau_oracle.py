"""Kostka numbers and Jacobi-Trudi determinants against the tableau walks
of ``tableau_oracle.py``."""

import json
import sys
import time

from hypothesis import given, settings, strategies as st

from qtransfer.algebra import SymPoly, complete_homogeneous, partitions, schur
from qtransfer.cli import main
from qtransfer.transfer import (
    TransferParams,
    image_e,
    image_h,
    image_schur,
    transfer_sym,
)
from tableau_oracle import image_schur_by_tableaux, schur_by_tableaux


def all_params(nmax):
    return [TransferParams(r=n // d, d=d)
            for n in range(1, nmax + 1) for d in range(1, n + 1) if n % d == 0]


def shapes(maxsize):
    return [mu for size in range(maxsize + 1) for mu in partitions(size)]


def one(nvars):
    return SymPoly(nvars, {(0,) * nvars: 1})


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
        assert image_h(p, -1).is_zero()
    assert image_h(TransferParams(r=2, d=3), 0) == one(2)


def test_image_schur_edge_cases():
    p = TransferParams(r=1, d=2)
    # more rows than columns: the dual form in the e_k
    assert image_schur(p, (1, 1)) == image_e(p, 2)
    # (2, 2) in the dual form reads e_3 and e_4 beyond n = 2: zero entries
    assert image_schur(p, (2, 2)) == transfer_sym(p, schur(2, (2, 2)))
    assert image_schur(p, (2, 2)) == image_schur_by_tableaux(p, (2, 2))
    # more parts than n: zero
    assert image_schur(p, (1, 1, 1)).is_zero()
    assert schur(2, (2, 1, 1)).is_zero()
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


def test_no_production_path_walks_tableaux(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("ssyt_tableaux called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qtransfer" and hasattr(module, "ssyt_tableaux"):
            monkeypatch.setattr(module, "ssyt_tableaux", refuse)
    p = TransferParams(r=2, d=2)
    for mu in ((2, 1), (1, 1, 1), (3, 1)):
        assert image_schur(p, mu) == transfer_sym(p, schur(p.n, mu))
    code = main(["verify", "--suite", "transfer-consistency", "--nmax", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "pass"
