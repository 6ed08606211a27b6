"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Stated wall-clock budgets are asserted where given.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from qtransfer.algebra import (
    QScalar,
    compositions,
    gl_order,
    parabolic_order,
    parahoric_index,
    powersum,
    qint_balanced,
)
from qtransfer.cli import SUITES, build_parser
from qtransfer.epfun import DParahoricType, ParahoricCombo, ep_function, f_J, \
    product_ep, shadow
from qtransfer.finitegl import cached_group, dl_character
from qtransfer.transfer import TransferParams, image_p, surjectivity_witness


@contextmanager
def criterion(num, name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def verify(argv, identity=None):
    """Run the CLI suite of `qtransfer verify <argv>` in-process and assert
    that every case holds; `identity` keeps the finite-gl cases of one
    identity only."""
    args = build_parser().parse_args(["verify", *argv.split()])
    suite = SUITES[args.suite]
    details = [suite.check(case) for case in suite.cases(args)
               if identity is None or case[0] == identity]
    assert details and all(c["ok"] for c in details), \
        [c for c in details if not c["ok"]]
    return details


def test_criterion_01_transfer_oracle_equivalence():
    started = time.monotonic()
    with criterion(1, "transfer oracle equivalence (n <= 8, deg <= 5)"):
        verify("--suite transfer-consistency --nmax 8 --degmax 5")
        assert time.monotonic() - started < 60


def test_transfer_oracle_equivalence_to_n10():
    # the transfer-consistency suite at the stretched range n <= 10
    started = time.monotonic()
    verify("--suite transfer-consistency --nmax 10 --degmax 5")
    assert time.monotonic() - started < 120


def test_transfer_oracle_equivalence_to_n12():
    # orbits by a next-permutation walk make n <= 12 reachable
    started = time.monotonic()
    verify("--suite transfer-consistency --nmax 12 --degmax 5")
    assert time.monotonic() - started < 120


def test_criterion_02_q1_degeneration():
    with criterion(2, "q = 1 degeneration of power-sum images"):
        for d in range(1, 9):
            for k in range(1, 7):
                r = 2
                img = image_p(TransferParams(r=r, d=d), k)
                target = powersum(r, k)
                assert set(img.terms) == set(target.terms)
                for key in target.terms:
                    assert img.terms[key].specialize_q(1) == d


def test_criterion_03_comb_prop_indicator():
    started = time.monotonic()
    with criterion(3, "d-cycle indicator f_g for d <= 7"):
        verify("--suite comb-prop --dmax 7")
        assert time.monotonic() - started < 120


def test_criterion_04_weyl_vanishing():
    with criterion(4, "proper-Levi vanishing and support equality, d <= 6"):
        verify("--suite weyl-vanishing --dmax 6")


def test_criterion_05_finite_dl_identity():
    started = time.monotonic()
    with criterion(5, "finite Deligne-Lusztig identity on five groups"):
        assert len(verify("--suite finite-gl", "comb_prop")) == 5
        assert time.monotonic() - started < 600


def test_criterion_06_induction_identity():
    with criterion(6, "induced-class-function identity, d <= 3, q in {2,3}"):
        assert len(verify("--suite finite-gl", "ind_identity")) == 6


def test_criterion_07_ep_shadow():
    with criterion(7, "EP shadow equals Weyl-averaged DL, n <= 4, q in {2,3}"):
        verify("--suite ep-shadow --n 4 --q 2 3")
        # r = 1: the scaled EP function shadows to the Coxeter-torus character
        for d, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            lhs = shadow(ep_function(d).scale(d), q)
            assert lhs == dl_character(cached_group(d, q), (d,))
        # d = 1, Iwahori type: f_J is the Iwahori unit e_{(1^r)}
        for r in range(1, 5):
            t = DParahoricType(1, (1,) * r)
            assert f_J(t) == ParahoricCombo(r, "e", {(1,) * r: 1})


def test_criterion_08_coefficient_remark():
    with criterion(8, "product EP coefficients at the extremes, d, r <= 5"):
        for d in range(1, 6):
            for r in range(1, 6):
                combo = product_ep(d, r)
                assert combo.coefficient((1,) * (d * r)) == QScalar(
                    (-1) ** (r * (d - 1)))
                assert combo.coefficient((d,) * r) == QScalar(d ** r)


def test_criterion_09_surjectivity_witness():
    with criterion(9, "nonvanishing q-integers and triangular generation"):
        for d in range(1, 7):
            for k in range(1, 7):
                assert not qint_balanced(d, k).is_zero()
        for r in range(1, 5):
            for d in range(1, 4):
                report = surjectivity_witness(TransferParams(r=r, d=d), 3)
                assert report["ok"], report


def test_criterion_10_index_formula():
    with criterion(10, "parahoric index equals the order ratio, n <= 5"):
        for n in range(1, 6):
            for comp in compositions(n):
                symbolic = parahoric_index(comp)
                for q in (2, 3, 5):
                    assert symbolic.specialize_q(q) == Fraction(
                        gl_order(n, q), parabolic_order(comp, q))
