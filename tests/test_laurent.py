import pytest
from hypothesis import given, settings, strategies as st

from mahonian.laurent import (
    ONE,
    Q,
    S,
    T,
    ZERO,
    ExactDivisionError,
    Laurent,
    monomial,
)

exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)
coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(Laurent)


def test_basic_arithmetic():
    p = ONE + Q
    assert p * p == ONE + 2 * Q + Q**2
    assert p - p == ZERO
    assert not p * ZERO
    assert Q * T == monomial(1, q=1, t=1)
    assert -(Q - T) == T - Q
    assert Q**0 == ONE


def test_laurent_exponents():
    inv_q = Q**-1
    assert inv_q * Q == ONE
    assert (2 * Q) ** 3 == monomial(8, q=3)
    with pytest.raises(ValueError):
        (ONE + Q) ** -1
    with pytest.raises(ValueError):
        (2 * Q) ** -1


def test_substitute_examples():
    bracket3 = ONE + Q + Q**2
    assert bracket3.substitute({"q": Q**-1}) == ONE + Q**-1 + Q**-2
    # simultaneous: q -> 1/q and t -> q^4 t
    p = monomial(1, q=2, t=1)
    assert p.substitute({"q": Q**-1, "t": monomial(1, q=4, t=1)}) == monomial(1, q=2, t=1)
    # non-monomial targets are fine at nonnegative exponents
    assert (S**2).substitute({"s": ONE + Q}) == ONE + 2 * Q + Q**2
    with pytest.raises(ValueError):
        (S**-1).substitute({"s": ONE + Q})


def test_divide_exact():
    p = (ONE + Q) * (ONE + Q + Q**2)
    assert p.divide_exact(ONE + Q) == ONE + Q + Q**2
    with pytest.raises(ExactDivisionError):
        (ONE + Q**2).divide_exact(ONE + Q)
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(ZERO)
    # Laurent divisor
    assert (Q**2).divide_exact(Q**-1) == Q**3


def test_str_and_parse():
    assert str(ZERO) == "0"
    assert str(ONE + Q**2 + 2 * monomial(1, q=3, t=1)) == "1 + q^2 + 2*q^3*t"
    assert str(Q**-1 - ONE) == "q^-1 - 1"
    assert str(monomial(-1, q=1)) == "-q"


def test_display_variable_order():
    assert str(monomial(3, s=2, t=1)) == "3*s^2*t"
    assert str(monomial(1, q=1, t=2, z=-1, s=3)) == "q*s^3*t^2*z^-1"


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(polys, polys)
@settings(max_examples=60)
def test_multiply_divide_roundtrip(a, b):
    if not b:
        return
    assert (a * b).divide_exact(b) == a


def test_truncate_and_queries():
    p = ONE + Q**5 + monomial(2, q=2, t=1)
    assert p.truncate("q", 2) == ONE + monomial(2, q=2, t=1)
    assert p.coefficient(q=5) == 1
    assert p.coefficient(q=2, t=1) == 2


def test_terms_are_read_only():
    p = ONE + Q
    key = hash(p)
    with pytest.raises(TypeError):
        p.terms[(2, 0, 0, 0)] = 1
    with pytest.raises(TypeError):
        del ZERO.terms[(0, 0, 0, 0)]
    with pytest.raises(AttributeError):
        p.terms = {}
    assert p == ONE + Q and hash(p) == key
    assert dict(p.terms) == {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}
