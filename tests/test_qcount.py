import pytest
from hypothesis import given, settings, strategies as st

from qtransfer.algebra import (
    QScalar,
    V,
    gl_order,
    parabolic_order,
    parahoric_index,
    qbinom,
    qint_balanced,
)
from qtransfer.algebra.qcount import qbinom_at


def test_qint_small_values():
    assert qint_balanced(1, 7) == QScalar(1)
    assert qint_balanced(2, 1) == V + V ** -1
    assert qint_balanced(3, 1) == V ** 2 + 1 + V ** -2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_qint_defining_identity(d, k):
    # qint(d,k) * (v^k - v^-k) == v^dk - v^-dk, exactly
    lhs = qint_balanced(d, k) * (V ** k - V ** -k)
    assert lhs == V ** (d * k) - V ** -(d * k)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_qint_specializes_to_d(d, k):
    assert qint_balanced(d, k).specialize_q(1) == d


def test_qbinom_examples():
    assert qbinom(5, 0) == QScalar(1)
    assert qbinom(2, 1) == 1 + QScalar.q_power(1)
    q = QScalar.q_power
    assert qbinom(4, 2) == 1 + q(1) + 2 * q(2) + q(3) + q(4)


def test_qbinom_range_errors():
    with pytest.raises(ValueError):
        qbinom(3, -1)
    with pytest.raises(ValueError):
        qbinom(3, 4)


def test_qbinom_at_is_qbinom_specialised():
    # the integer helper of the closed-form flag counts, at every Q it meets
    # up to GL_10(F_2) and GL_5(F_5), and beyond
    for Q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 125):
        for d in range(0, 9):
            for a in range(d + 1):
                assert qbinom_at(d, a, Q) == qbinom(d, a).specialize_q(Q)
    with pytest.raises(ValueError):
        qbinom_at(3, 4, 2)
    with pytest.raises(ValueError):
        qbinom_at(3, 1, 1)


def _count_subspaces(n, k, q):
    """Independent oracle: count k-dimensional subspaces of F_q^n by
    enumerating echelon bases is overkill; use the orbit count
    (#injective k-frames) / (#bases of a k-space)."""
    frames = 1
    for i in range(k):
        frames *= q ** n - q ** i
    bases = 1
    for i in range(k):
        bases *= q ** k - q ** i
    return frames // bases


def test_qbinom_counts_subspaces():
    for n in range(1, 6):
        for k in range(n + 1):
            for q in (2, 3):
                assert qbinom(n, k).specialize_q(q) == _count_subspaces(n, k, q)


def test_qbinom_symmetry_and_q1():
    import math
    for d in range(1, 8):
        for a in range(d + 1):
            assert qbinom(d, a) == qbinom(d, d - a)
            assert qbinom(d, a).specialize_q(1) == math.comb(d, a)


def test_gl_and_parabolic_orders():
    assert gl_order(2, 2) == 6
    assert gl_order(1, 5) == 4
    assert parabolic_order((1, 1), 2) == 2
    assert parabolic_order((2,), 3) == gl_order(2, 3)
    with pytest.raises(ValueError):
        gl_order(2, 4)


def test_parahoric_index_examples():
    assert parahoric_index((3,)) == QScalar(1)
    assert parahoric_index((1, 1)) == 1 + QScalar.q_power(1)
    q = QScalar.q_power
    assert parahoric_index((2, 1)) == 1 + q(1) + q(2)


def test_parahoric_index_cache_validates_every_call():
    # the memo is keyed on the validated tuple: a bad composition is never
    # cached, and a list reads the entry of the equal tuple
    for bad in [(0, 2), (), [2, -1]]:
        for _ in range(2):
            with pytest.raises(ValueError, match="not a composition"):
                parahoric_index(bad)
    for comp in [(2, 1), (1, 2, 1), (3,)]:
        first = parahoric_index(list(comp))
        assert parahoric_index(comp) == first
        assert parahoric_index(list(comp)) == first

