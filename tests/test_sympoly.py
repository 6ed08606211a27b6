from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qtransfer.algebra import (
    ONE,
    ZERO,
    QScalar,
    SymPoly,
    V,
    elementary,
    is_weakly_decreasing,
    monomial_sym,
    powersum,
    schur,
)
from qtransfer.algebra import sympoly
from product_oracle import complete_homogeneous, product_by_expansion


@st.composite
def sympolys(draw, nvars=3, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = tuple(sorted(
            (draw(st.integers(-2, 3)) for _ in range(nvars)), reverse=True))
        terms[key] = QScalar(draw(st.fractions(min_value=-5, max_value=5,
                                               max_denominator=4)))
    return SymPoly(nvars, terms)


# signs for cancellation, and quotients that are not Laurent polynomials
COEFFS = [ONE, -ONE, V, -V ** -1, 2 / (V + 1), -2 / (V + 1), (V - 1) / (V ** 2 + 1)]


@st.composite
def product_pairs(draw):
    """Two SymPolys in n <= 6 variables on keys from a few values, so that
    entries repeat and go negative and each orbit stays small."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            key = tuple(sorted(draw(st.lists(st.sampled_from(values),
                                             min_size=n, max_size=n)), reverse=True))
            terms[key] = draw(st.sampled_from(COEFFS))
        return SymPoly(n, terms)

    return poly(), poly()


def test_constructor_validation():
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 2): 1})  # not dominant
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 0, 0): 1})  # wrong length
    assert not SymPoly(2, {(1, 0): 0})  # zero coefficients dropped


def test_from_expansion_asserts_symmetry():
    with pytest.raises(ValueError):
        SymPoly.from_expansion(2, {(1, 0): QScalar(1)})  # orbit incomplete
    with pytest.raises(ValueError):
        SymPoly.from_expansion(2, {(1, 0): QScalar(1), (0, 1): QScalar(2)})
    f = SymPoly.from_expansion(2, {(1, 0): QScalar(3), (0, 1): QScalar(3)})
    assert f == monomial_sym(2, (1, 0)).scale(3)


def test_basic_products():
    p1 = powersum(2, 1)
    assert p1 * p1 == monomial_sym(2, (2, 0)) + monomial_sym(2, (1, 1)).scale(2)
    # Newton: e2 = (p1^2 - p2)/2 in two variables
    e2 = (p1 * p1 - powersum(2, 2)).scale(Fraction(1, 2))
    assert e2 == elementary(2, 2)


def test_newton_identities_to_degree_4():
    # k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i
    n = 4
    e = {0: SymPoly(n, {(0,) * n: 1})}
    for k in range(1, n + 1):
        e[k] = elementary(n, k)
    for k in range(1, n + 1):
        acc = SymPoly.zero(n)
        for i in range(1, k + 1):
            term = e[k - i] * powersum(n, i)
            acc = acc + (term if i % 2 else -term)
        assert acc == e[k].scale(k)


def test_schur_examples():
    s21 = schur(3, (2, 1))
    assert s21.terms == {(2, 1, 0): QScalar(1), (1, 1, 1): QScalar(2)}
    assert schur(2, (1, 1)) == monomial_sym(2, (1, 1))
    assert schur(3, (1,)) == elementary(3, 1) == powersum(3, 1)
    # more parts than variables: zero by convention
    assert not schur(2, (1, 1, 1))


def test_pieri_row_shapes_are_complete_homogeneous():
    for n in range(1, 6):
        for k in range(1, 5):
            assert schur(n, (k,)) == complete_homogeneous(n, k)


def test_jacobi_trudi_cross_check():
    # s_mu = det(h_{mu_i - i + j}) for a few shapes; h_0 = 1, h_{<0} = 0
    def h(n, k):
        if k < 0:
            return SymPoly.zero(n)
        return complete_homogeneous(n, k)

    def det2(a, b, c, d):
        return a * d - b * c

    n = 3
    assert schur(n, (2, 1)) == det2(h(n, 2), h(n, 3), h(n, 0), h(n, 1))
    assert schur(n, (2, 2)) == det2(h(n, 2), h(n, 3), h(n, 1), h(n, 2))
    assert schur(n, (3, 1)) == det2(h(n, 3), h(n, 4), h(n, 0), h(n, 1))


def test_laurent_keys():
    f = monomial_sym(2, (1, -1))
    assert f * f == product_by_expansion(f, f)


def test_monomial_sym_padding_with_negative_entries():
    f = monomial_sym(3, (2, -1))
    assert set(f.terms) == {(2, 0, -1)}
    with pytest.raises(ValueError):
        monomial_sym(2, (1, 1, 1))


@settings(max_examples=40, deadline=None)
@given(sympolys(), sympolys(), sympolys())
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(product_pairs(), st.sampled_from(COEFFS + [ZERO]))
# (m_1 + 1)(m_1 - 1) = m_1^2 - 1: the m_1 terms cancel
@example((monomial_sym(2, (1,)) + monomial_sym(2, ()),
          monomial_sym(2, (1,)) - monomial_sym(2, ())), ZERO)
def test_ring_operations_match_the_oracle_on_dominant_nonzero_keys(pair, c):
    # the ring operations build their results without the constructor's
    # checks, so this is where those checks live: every key dominant and of
    # length n, no zero coefficient, and the product the oracle's
    f, g = pair
    for h in (f + g, f - g, f * g, f.scale(c)):
        assert h.nvars == f.nvars
        assert all(len(key) == f.nvars and is_weakly_decreasing(key) and not coeff.is_zero()
                   for key, coeff in h.terms.items()), h
    assert f * g == product_by_expansion(f, g)


def test_wrong_orbit_size_is_refused(monkeypatch):
    # m_(1,0,0)^2 = m_(2,0,0) + 2 m_(1,1,0); with |orbit(1,1,0)| read as 4
    # the coefficient 3 * 2 / 4 is not an integer
    count = sympoly.composition_count
    monkeypatch.setattr(sympoly, "composition_count",
                        lambda key: count(key) + (key == (1, 1, 0)))
    f = monomial_sym(3, (1,))
    with pytest.raises(AssertionError, match="non-integral"):
        f * f
