"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Stated wall-clock budgets are asserted where given.
"""

import time
from contextlib import contextmanager

from qtransfer.cli import SUITES, build_parser


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
    that every case holds; `identity` keeps the finite-gl or closed-forms
    cases of one identity only."""
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
        assert len(verify("--suite closed-forms", "q1_degeneration")) == 48


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
    # each case also checks f_J = d * f^EP_{GL_d} at r = 1 and f_J = e_(1^r)
    # for the Iwahori type at d = 1
    with criterion(7, "EP shadow equals Weyl-averaged DL, n <= 4, q in {2,3}"):
        verify("--suite ep-shadow --n 4 --q 2 3")


def test_criterion_08_coefficient_remark():
    with criterion(8, "product EP coefficients at the extremes, d, r <= 5"):
        assert len(verify("--suite closed-forms", "product_ep")) == 25


def test_criterion_09_surjectivity_witness():
    with criterion(9, "nonvanishing q-integers and triangular generation"):
        assert len(verify("--suite closed-forms", "qint_nonzero")) == 36
        assert len(verify("--suite closed-forms", "surjectivity")) == 12


def test_criterion_10_index_formula():
    with criterion(10, "parahoric index equals the order ratio, n <= 5"):
        assert len(verify("--suite closed-forms", "index_formula")) == 31
