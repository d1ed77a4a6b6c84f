import re

import pytest
from hypothesis import given, settings, strategies as st

from mahonian.genfun import distribution
from mahonian.laurent import (
    ONE,
    Q,
    S,
    T,
    VARS,
    ZERO,
    ExactDivisionError,
    Laurent,
    _mul_into,
    monomial,
    sum_of_products,
)

exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)
coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(Laurent)
# substitution targets: few terms, so that their powers stay small
targets = st.dictionaries(exponents, coeffs, max_size=3).map(Laurent)
# the invertible targets, +-q^a*t^b
unit_monomials = st.builds(
    lambda c, a, b: monomial(c, q=a, t=b),
    st.sampled_from((1, -1)),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)


def test_basic_arithmetic():
    p = ONE + Q
    assert p * p == ONE + 2 * Q + Q**2
    assert p - p == ZERO
    assert not p * ZERO
    assert Q * T == monomial(1, q=1, t=1)
    assert -(Q - T) == T - Q
    assert Q**0 == ONE


@pytest.mark.parametrize("c", [0, 1, -3])
def test_constant_hashes_as_its_integer(c):
    p = Laurent.const(c)
    assert p == c and hash(p) == hash(c)
    assert c in {p}
    assert p in {c}


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


def test_power_multiplies_as_little_as_binary_powering(monkeypatch):
    calls = []
    mul = Laurent.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    p = ONE + 2 * Q - T
    monkeypatch.setattr(Laurent, "__mul__", counting)
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
        calls.clear()
        p**n
        assert len(calls) == products, n


@given(polys)
@settings(max_examples=30)
def test_power_is_the_repeated_product(p):
    product = ONE
    for n in range(10):
        assert p**n == product
        product = product * p


def _expand(p, mapping):
    """p with the mapping applied one term at a time: the term's own
    monomial in the unmapped variables times each target's power."""
    total = ZERO
    for e, c in p.terms.items():
        term = monomial(c, **{name: k for name, k in zip(VARS, e) if name not in mapping})
        for name, target in mapping.items():
            k = e[VARS.index(name)]
            for _ in range(k):
                term = term * target
            for _ in range(-k):
                term = term * target**-1
        total = total + term
    return total


def _mapping(data, *polys_in_use):
    """A substitution for some of the variables: a general target where
    every polynomial in use has no negative exponent in the variable, and
    otherwise a unit monomial."""
    mapping = {}
    for i, name in enumerate(VARS):
        if data.draw(st.booleans()):
            nonnegative = all(e[i] >= 0 for p in polys_in_use for e in p.terms)
            mapping[name] = data.draw(targets if nonnegative else unit_monomials)
    return mapping


@given(polys, st.data())
@settings(max_examples=60)
def test_substitute_is_the_termwise_expansion(p, data):
    mapping = _mapping(data, p)
    assert p.substitute(mapping) == _expand(p, mapping)


@given(polys, polys, st.data())
@settings(max_examples=60)
def test_substitute_is_a_ring_homomorphism(a, b, data):
    mapping = _mapping(data, a, b)
    sa, sb = a.substitute(mapping), b.substitute(mapping)
    assert (a + b).substitute(mapping) == sa + sb
    assert (a * b).substitute(mapping) == sa * sb
    assert (-a).substitute(mapping) == -sa
    assert ONE.substitute(mapping) == ONE


def test_substitute_edge_cases():
    p = ONE + Q - monomial(3, q=2, t=-1)
    assert ZERO.substitute({"q": ONE + T}) == ZERO
    assert ZERO.substitute({}) == ZERO
    assert p.substitute({}) == p
    # mapped variables the polynomial lacks, even to a non-invertible target
    assert p.substitute({"s": ONE + Q, "z": ZERO}) == p
    assert p.substitute({"s": ONE + Q, "t": ONE}) == ONE + Q - monomial(3, q=2)
    with pytest.raises(ValueError, match="negative power of a non-monomial"):
        p.substitute({"t": ONE + Q})
    with pytest.raises(ValueError, match=r"unknown variable 'x', not one of \('q', 't', 'z', 's'\)"):
        p.substitute({"x": Q})


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


@given(polys, polys, polys)
@settings(max_examples=60)
def test_divide_exact_is_exact_or_refuses(a, b, r):
    if not b:
        return
    dividend = a * b + r
    try:
        quotient = dividend.divide_exact(b)
    except ExactDivisionError:
        return
    assert quotient * b == dividend


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


@pytest.mark.parametrize(
    "key",
    [(1, 2), (1, 2, 0, 0, 7), (), (1.0, 0, 0, 0), (0, 0, 0.5, 0), ("q", 0, 0, 0), "qtzs", 7],
)
def test_constructor_rejects_malformed_exponent_vectors(key):
    with pytest.raises(ValueError, match=f"exponent vector {re.escape(repr(key))} is not a tuple of 4 ints"):
        Laurent({key: 1})
    # also beside a well-formed key, and with a zero coefficient
    with pytest.raises(ValueError):
        Laurent({(0, 0, 0, 0): 1, key: 0})


def test_constructor_keeps_well_formed_terms():
    assert Laurent({(1, 2, 0, 0): 3, (0, 0, 0, -1): 0}).terms == {(1, 2, 0, 0): 3}
    assert Laurent(monomial(2, q=1, s=-1).terms) == monomial(2, q=1, s=-1)
    assert Laurent({}) == Laurent(None) == ZERO


def test_unknown_variable_names_the_variable():
    message = r"unknown variable 'x', not one of \('q', 't', 'z', 's'\)"
    with pytest.raises(ValueError, match=message):
        Q.truncate("x", 2)
    with pytest.raises(ValueError, match=message):
        distribution([(1,), (2, 1)], {"x": len})


def _product_terms(a, b):
    """The product's term map by the textbook double loop."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(polys, polys, polys)
@settings(max_examples=60)
def test_mul_into_adds_the_product(acc, a, b):
    # equal term maps, so no coefficient that cancelled is left as a zero
    want = dict(acc.terms)
    for e, c in _product_terms(a, b).items():
        want[e] = want.get(e, 0) + c
    want = {e: c for e, c in want.items() if c}
    assert _mul_into(dict(acc.terms), a.terms, b.terms) == want
    assert _mul_into(dict(acc.terms), b.terms, a.terms) == want


@given(polys, st.lists(st.tuples(polys, polys), max_size=4))
@settings(max_examples=60)
def test_sum_of_products_is_the_summed_products(first, pairs):
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    assert sum_of_products(pairs) == total
    assert sum_of_products(iter(pairs)) == total
    # a one-term factor on either side of a pair, first or later
    mono = monomial(-3, q=2, t=-1, s=1)
    assert sum_of_products([(mono, first), *pairs]) == mono * first + total
    assert sum_of_products([*pairs, (first, mono)]) == total + mono * first


@given(polys, st.sampled_from([ONE, -T, monomial(5, q=-2, z=3), monomial(-1, t=1, s=2)]))
@settings(max_examples=60)
def test_one_term_factor_is_a_shift_on_either_side(p, mono):
    want = _product_terms(mono, p)
    assert (mono * p).terms == want
    assert (p * mono).terms == want
    assert _mul_into({}, mono.terms, p.terms) == want
    assert _mul_into({}, p.terms, mono.terms) == want


def test_cancellation_leaves_no_zero_coefficient():
    assert (ONE + Q) * (ONE - Q) == ONE - Q**2
    assert ((ONE + Q) * (ONE - Q)).terms.keys() == {(0, 0, 0, 0), (2, 0, 0, 0)}
    assert not sum_of_products([(Q, T), (-T, Q)]).terms
    # into a nonempty out, by a one-term factor and by a longer one
    assert _mul_into({(1, 1, 0, 0): 1}, (-Q).terms, T.terms) == {}
    assert _mul_into({(1, 0, 0, 0): 2, (0, 0, 0, 0): 1}, (ONE + Q).terms, (-ONE - Q).terms) == {
        (2, 0, 0, 0): -1
    }


def test_empty_operands():
    p = ONE + 2 * Q - T
    assert (ZERO * p).terms == (p * ZERO).terms == {}
    assert sum_of_products([]) == ZERO
    assert sum_of_products([(ZERO, p), (p, ZERO), (ZERO, ZERO)]) == ZERO
    out = {(0, 0, 0, 0): 4}
    assert _mul_into(out, {}, p.terms) is out and out == {(0, 0, 0, 0): 4}
    assert _mul_into(out, p.terms, {}) == {(0, 0, 0, 0): 4}
    assert _mul_into({}, {}, {}) == {}


def test_substitute_multiplies_only_to_table_powers(monkeypatch):
    # 20 groups of mapped exponents (s^i t^j), each with a residual in q
    p = sum_of_products((monomial(i + 1, s=i, t=j), ONE + Q) for i in range(5) for j in range(4))
    mapping = {"s": ONE + Q, "t": -Q}
    want = _expand(p, mapping)
    counts = {"mul": 0, "of": 0}
    mul, of = Laurent.__mul__, Laurent._of.__func__

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_of(cls, terms):
        counts["of"] += 1
        return of(cls, terms)

    monkeypatch.setattr(Laurent, "__mul__", counting_mul)
    monkeypatch.setattr(Laurent, "_of", classmethod(counting_of))
    assert p.substitute(mapping) == want
    # the tables hold s^1..s^4 and t^1..t^3, one product each
    assert counts["mul"] == 4 + 3
    # one polynomial per table entry and one for the output
    assert counts["of"] == counts["mul"] + 1
