import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracle as oracle
from qtransfer.algebra import ONE, Q, V, ZERO, PoleError, QScalar
from qtransfer.algebra.scalars import _pdiv_exact

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@st.composite
def qscalars(draw, allow_denominator=True):
    terms = draw(st.dictionaries(st.integers(-6, 6), rationals, max_size=4))
    num = QScalar.from_v_terms(terms)
    if allow_denominator and draw(st.booleans()):
        dterms = draw(st.dictionaries(st.integers(-4, 4), rationals,
                                      min_size=1, max_size=3))
        den = QScalar.from_v_terms(dterms)
        if not den.is_zero():
            return num / den
    return num


def test_constants():
    assert ZERO.is_zero()
    assert ONE == QScalar(1)
    assert V * V == Q
    assert V ** -1 * V == ONE


def test_canonical_equality():
    # same value, different construction routes
    a = (Q - 1) / (V - 1)
    b = V + 1
    assert a == b
    assert hash(a) == hash(b)
    assert (Q * Q - 1) / (Q - 1) == Q + 1


@pytest.mark.parametrize("value", [3, -7, Fraction(1, 2), Fraction(-5, 3), 0,
                                   Fraction(10**30 + 1, 3 * 10**29),
                                   Fraction(-(10**30 - 1), 10**30 + 7)])
def test_constants_hash_as_the_rational_they_equal(value):
    # equal values hash equal, so a constant and its rational find each other
    # in sets and as dict keys, whichever route built the constant
    for x in (QScalar(value), (V + value) - V, QScalar(value) * Q / Q):
        assert x == value
        assert hash(x) == hash(value)
        assert value in {x} and x in {value}
        assert {x: 1}[value] == 1


def test_negative_powers_stay_in_numerator():
    x = V ** -3 + QScalar(2)
    assert x.is_laurent()
    assert dict(x.numerator_terms()) == {-3: 1, 0: 2}


def test_division_by_zero_is_distinct_from_pole():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(PoleError):
        (ONE / (Q - 1)).specialize_q(1)


def test_specialize_even_powers():
    assert (Q ** 2 + Q + 1).specialize_q(3) == 13
    assert (ONE / Q).specialize_q(2) == Fraction(1, 2)


def test_specialize_odd_powers_needs_square():
    x = V + V ** -1
    assert x.specialize_q(1) == 2
    assert x.specialize_q(4) == Fraction(5, 2)
    with pytest.raises(ValueError):
        x.specialize_q(2)


def test_rendering():
    assert str(V ** 3 - 2 + V ** -1) == "v^3 - 2 + v^-1"
    assert str(ZERO) == "0"
    assert str(ONE / (V - 1)) == "1 / (v - 1)"
    assert str((V + 1) / (V - 1)) == "(v + 1) / (v - 1)"
    assert str(QScalar(Fraction(-1, 2)) * Q) == "-1/2*v^2"


@settings(max_examples=60, deadline=None)
@given(qscalars(), qscalars(), qscalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(qscalars())
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == ONE
    assert (a ** 3) * (a ** -3) == ONE


@settings(max_examples=40, deadline=None)
@given(qscalars(), st.integers(0, 4))
def test_pow_matches_repeated_mul(a, e):
    expected = ONE
    for _ in range(e):
        expected = expected * a
    assert a ** e == expected


@settings(max_examples=40, deadline=None)
@given(qscalars(), qscalars())
def test_specialization_is_homomorphism(a, b):
    # evaluate both at q = 9 (v = 3), skipping poles
    try:
        va, vb = a.specialize_q(9), b.specialize_q(9)
        vs = (a * b).specialize_q(9)
        vsum = (a + b).specialize_q(9)
    except PoleError:
        return
    assert vs == va * vb
    assert vsum == va + vb


# -- the Laurent branch of + and * against the general path -----------------

U = 1 + V  # not a monomial, so a / U is a genuine quotient


def _add_terms(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mul_terms(x: dict, y: dict) -> dict:
    out: dict = {}
    for e, c in x.items():
        out = _add_terms(out, {e + f: c * d for f, d in y.items()})
    return out


@st.composite
def laurent_pairs(draw):
    """(a, b) of Laurent scalars; b often cancels a wholly, or a's lowest or
    highest term, so a sum must trim or split off a v-power."""
    a = draw(qscalars(allow_denominator=False))
    b = draw(qscalars(allow_denominator=False))
    terms = sorted(a.numerator_terms())
    cancel = draw(st.sampled_from(("none", "all", "lowest", "highest")))
    if cancel == "all":
        b = b - a if draw(st.booleans()) else -a
    elif cancel in ("lowest", "highest") and terms:
        e, c = terms[0] if cancel == "lowest" else terms[-1]
        b = QScalar.from_v_terms({e: -c}) + (b if draw(st.booleans()) else ZERO)
    return a, b


def _check_laurent(result, general, reference):
    assert result == general
    assert hash(result) == hash(general)
    assert result.is_laurent()
    assert dict(result.numerator_terms()) == reference
    assert result == QScalar.from_v_terms(reference)


@settings(max_examples=200, deadline=None)
@given(laurent_pairs(), st.integers(0, 4))
def test_laurent_branch_matches_general_path(pair, k):
    a, b = pair
    ta, tb = dict(a.numerator_terms()), dict(b.numerator_terms())
    _check_laurent(a + b, (a / U + b / U) * U, _add_terms(ta, tb))
    _check_laurent(a - b, (a / U - b / U) * U, _add_terms(ta, {e: -c for e, c in tb.items()}))
    _check_laurent(a * b, (a / U) * (b / U) * U * U, _mul_terms(ta, tb))
    power = {0: Fraction(1)}
    for _ in range(k):
        power = _mul_terms(power, ta)
    _check_laurent(a ** k, (a / U) ** k * U ** k, power)


# -- the fraction-free core against the tuple-of-Fraction oracle ------------

# non-monomial factors that recur across draws, so numerators and
# denominators share factors and the gcds are not all trivial
SHARED_FACTORS = ({0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: -1, 2: 1},
                  {0: 2, 1: -3}, {0: 1, 1: 1, 2: 1, 3: 1}, {-1: 1, 1: Fraction(-1, 3)})


@st.composite
def quotient_factors(draw):
    """(numerator factors, denominator factors) as v-term mappings; the
    denominator always has a non-monomial factor."""
    num = [draw(st.dictionaries(st.integers(-6, 6), rationals, max_size=4))]
    num += draw(st.lists(st.sampled_from(SHARED_FACTORS), max_size=2))
    den = [draw(st.dictionaries(st.integers(-3, 3), rationals.filter(bool),
                                min_size=1, max_size=3))]
    den += draw(st.lists(st.sampled_from(SHARED_FACTORS), min_size=1, max_size=2))
    return num, den


def _core(factors) -> QScalar:
    num, den = factors
    return (math.prod((QScalar.from_v_terms(t) for t in num), start=ONE)
            / math.prod((QScalar.from_v_terms(t) for t in den), start=ONE))


def _oracle(factors):
    num, den = factors
    value = oracle.from_terms({0: 1})
    for t in num:
        value = oracle.mul(value, oracle.from_terms(t))
    for t in den:
        value = oracle.mul(value, oracle.inverse(oracle.from_terms(t)))
    return value


def _operations(a, b, e):
    """a, and each operation on a and b that is defined."""
    out = [a, a + b, a - b, a * b]
    if not b.is_zero():
        out += [a / b, b.inverse()]
    if e >= 0 or not a.is_zero():
        out.append(a ** e)
    return out


def _oracle_operations(x, y, e):
    out = [x, oracle.add(x, y), oracle.add(x, oracle.neg(y)), oracle.mul(x, y)]
    if y[1]:
        out += [oracle.mul(x, oracle.inverse(y)), oracle.inverse(y)]
    if e >= 0 or x[1]:
        out.append(oracle.power(x, e))
    return out


@settings(max_examples=150, deadline=None)
@given(quotient_factors(), quotient_factors(), st.integers(-3, 3))
def test_core_matches_fraction_oracle(fa, fb, e):
    got = _operations(_core(fa), _core(fb), e)
    want = _oracle_operations(_oracle(fa), _oracle(fb), e)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (list(g.numerator_terms()), list(g.denominator_terms())) == oracle.view(w)


def _assert_canonical(s: QScalar):
    p, r, shift, num, den = s._p, s._r, s._shift, s._num, s._den
    assert type(p) is int and type(r) is int
    assert r > 0 and math.gcd(p, r) == 1
    if s.is_zero():
        assert (p, r, shift, num, den) == (0, 1, 0, (), (1,))
        return
    assert p != 0
    for poly in (num, den):
        assert poly and all(type(x) is int for x in poly)
        assert math.gcd(*poly) == 1 and poly[-1] > 0 and poly[0] != 0
    assert oracle._pgcd(tuple(map(Fraction, num)), tuple(map(Fraction, den))) \
        == oracle.ONE_POLY


@settings(max_examples=150, deadline=None)
@given(quotient_factors(), quotient_factors(), st.integers(-3, 3))
def test_core_results_are_canonical(fa, fb, e):
    for got in _operations(_core(fa), _core(fb), e):
        _assert_canonical(got)


def test_inexact_division_raises():
    assert _pdiv_exact((1, 2, 1), (1, 1)) == (1, 1)
    for a, b in (((1, 0, 1), (1, 1)), ((1, 1), (1, 0, 1)), ((1, 3), (2, 1))):
        with pytest.raises(ArithmeticError):
            _pdiv_exact(a, b)


# -- contents: the rational p / r that scales N / D ---------------------------

near_1e15 = st.integers(10**14, 10**16)
signs = st.sampled_from((1, -1))


@st.composite
def big_contents(draw):
    """Two rationals with numerators and denominators near 10**30 that share
    factors crosswise, so their product and quotient reduce by large gcds."""
    a, b, c, d, e, f = (draw(near_1e15) for _ in range(6))
    return (Fraction(draw(signs) * a * b, c * d),
            Fraction(draw(signs) * c * e, a * f))


def _scaled(content, factors):
    return QScalar(content) * _core(factors), oracle.mul(
        oracle.from_terms({0: content}), _oracle(factors))


@settings(max_examples=60, deadline=None)
@given(big_contents(), quotient_factors(), quotient_factors(), st.integers(-3, -1))
def test_big_signed_contents_match_fraction_oracle(contents, fa, fb, e):
    # negative and fractional contents through inverse and negative powers,
    # with crosswise gcds near 10**30 for the product to cancel
    (a, x), (b, y) = _scaled(contents[0], fa), _scaled(contents[1], fb)
    assume(a and b)
    got = _operations(a, b, e) + [a.inverse() * b.inverse(), b ** e / a]
    want = _oracle_operations(x, y, e) + [
        oracle.mul(oracle.inverse(x), oracle.inverse(y)),
        oracle.mul(oracle.power(y, e), oracle.inverse(x))]
    for g, w in zip(got, want, strict=True):
        _assert_canonical(g)
        assert (list(g.numerator_terms()), list(g.denominator_terms())) == oracle.view(w)


MIXED = [3, -7, Fraction(-5, 3), Fraction(10**30 + 1, 3 * 10**29), QScalar(Fraction(-2, 9))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MIXED), quotient_factors())
def test_mixed_operands_match_fraction_oracle(c, fs):
    # an int, a Fraction or a constant QScalar on either side of a QScalar
    a, x = _scaled(Fraction(-3, 4), fs)
    assume(a)
    y = oracle.from_terms({0: c.specialize_q(1) if isinstance(c, QScalar) else c})
    pairs = [(a + c, oracle.add(x, y)), (c + a, oracle.add(y, x)),
             (a - c, oracle.add(x, oracle.neg(y))), (c - a, oracle.add(y, oracle.neg(x))),
             (a * c, oracle.mul(x, y)), (c * a, oracle.mul(y, x)),
             (a / c, oracle.mul(x, oracle.inverse(y))),
             (c / a, oracle.mul(y, oracle.inverse(x)))]
    for g, w in pairs:
        assert type(g) is QScalar
        _assert_canonical(g)
        assert (list(g.numerator_terms()), list(g.denominator_terms())) == oracle.view(w)

