import re

import pytest
from hypothesis import given, settings, strategies as st

from mahonian import laurent
from mahonian.genfun import distribution, lucanomial, q_binomial, st_catalan
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


def test_live_cache_holds_true_powers():
    # first in this file and with no monkeypatch, so it reads what the
    # earlier test files (the faults, the genfun tests) left in the cache
    assert lucanomial(8, 4).substitute({"s": ONE + Q, "t": -Q}) == q_binomial(8, 4)
    assert laurent._POWERS
    for target, stored in laurent._POWERS.items():
        for k, power in enumerate(stored):
            assert power == target**k, (target, k)


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


def _count_products(monkeypatch):
    calls = []
    mul = Laurent.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Laurent, "__mul__", counting)
    return calls


def test_power_multiplies_as_little_as_binary_powering(monkeypatch):
    p = ONE + 2 * Q - T
    calls = _count_products(monkeypatch)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: Laurent({(0, 0, 0, 0): 0.5}),
        lambda: Laurent({(1, 0, 0, 0): 1, (0, 0, 0, 0): 0.5}),
        lambda: Laurent.const(0.5),
        lambda: Laurent.const(0.0),
        lambda: monomial(0.0, q=1),
        lambda: monomial(0.5),
        lambda: monomial(1, q=0.5),
        lambda: monomial(1, s=0.5),
    ],
)
def test_public_builders_reject_floats(build):
    with pytest.raises(ValueError, match=r"^0\.[05] is not an int$"):
        build()


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


def _packed(terms):
    """A term map over exponent 4-tuples, keyed as the kernel keys it."""
    return {laurent._pack(e): c for e, c in terms.items()}


def _unpacked(terms):
    """A packed term map, keyed by exponent 4-tuples again."""
    return {laurent._unpack(k): c for k, c in terms.items()}


@given(polys, polys, polys)
@settings(max_examples=60)
def test_mul_into_adds_the_product(acc, a, b):
    # equal term maps, so no coefficient that cancelled is left as a zero
    want = dict(acc.terms)
    for e, c in _product_terms(a, b).items():
        want[e] = want.get(e, 0) + c
    want = {e: c for e, c in want.items() if c}
    pa, pb = _packed(a.terms), _packed(b.terms)
    assert _unpacked(_mul_into(_packed(acc.terms), pa, pb)) == want
    assert _unpacked(_mul_into(_packed(acc.terms), pb, pa)) == want


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
    assert _unpacked(_mul_into({}, _packed(mono.terms), _packed(p.terms))) == want
    assert _unpacked(_mul_into({}, _packed(p.terms), _packed(mono.terms))) == want


def test_cancellation_leaves_no_zero_coefficient():
    assert (ONE + Q) * (ONE - Q) == ONE - Q**2
    assert ((ONE + Q) * (ONE - Q)).terms.keys() == {(0, 0, 0, 0), (2, 0, 0, 0)}
    assert not sum_of_products([(Q, T), (-T, Q)]).terms
    # into a nonempty out, by a one-term factor and by a longer one
    assert _mul_into(_packed({(1, 1, 0, 0): 1}), _packed((-Q).terms), _packed(T.terms)) == {}
    out = _packed({(1, 0, 0, 0): 2, (0, 0, 0, 0): 1})
    assert _unpacked(_mul_into(out, _packed((ONE + Q).terms), _packed((-ONE - Q).terms))) == {
        (2, 0, 0, 0): -1
    }


def test_empty_operands():
    p = ONE + 2 * Q - T
    assert (ZERO * p).terms == (p * ZERO).terms == {}
    assert sum_of_products([]) == ZERO
    assert sum_of_products([(ZERO, p), (p, ZERO), (ZERO, ZERO)]) == ZERO
    out = _packed({(0, 0, 0, 0): 4})
    assert _mul_into(out, {}, _packed(p.terms)) is out and _unpacked(out) == {(0, 0, 0, 0): 4}
    assert _unpacked(_mul_into(out, _packed(p.terms), {})) == {(0, 0, 0, 0): 4}
    assert _mul_into({}, {}, {}) == {}


def test_substitute_multiplies_only_to_table_powers(monkeypatch):
    monkeypatch.setattr(laurent, "_POWERS", {})
    # 20 groups of mapped exponents (s^i t^j), each with a residual in q
    p = sum_of_products((monomial(i + 1, s=i, t=j), ONE + Q) for i in range(5) for j in range(4))
    mapping = {"s": ONE + Q, "t": -Q}
    want = _expand(p, mapping)
    counts = {"mul": 0, "of": 0}
    mul, of = Laurent.__mul__, Laurent._of.__func__

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_of(cls, terms, bound):
        counts["of"] += 1
        return of(cls, terms, bound)

    monkeypatch.setattr(Laurent, "__mul__", counting_mul)
    monkeypatch.setattr(Laurent, "_of", classmethod(counting_of))
    assert p.substitute(mapping) == want
    # the tables hold s^1..s^4 and t^1..t^3, one product each
    assert counts["mul"] == 4 + 3
    # one polynomial per table entry and one for the output
    assert counts["of"] == counts["mul"] + 1


@pytest.mark.parametrize("target", [ONE + Q, ONE + Q + T, monomial(-1, q=2, t=-1)])
def test_cached_powers_are_the_binary_powers(monkeypatch, target):
    monkeypatch.setattr(laurent, "_POWERS", {})
    # from s^-3 where the target is a unit monomial, else from s^0, to s^12
    ks = range(-3 if len(target.terms) == 1 else 0, 13)
    p = sum_of_products((monomial(1, s=k), ONE) for k in ks)
    assert p.substitute({"s": target}) == _expand(p, {"s": target})
    stored = laurent._POWERS[target]
    assert len(stored) == 13
    for k, power in enumerate(stored):
        assert power == target**k
    table = laurent._power_table(target, list(ks))
    for k in ks:
        assert table[k] == target**k
    if ks[0] < 0:
        assert laurent._POWERS[target**-1][:4] == tuple(target**-k for k in range(4))


def test_second_substitution_builds_no_power(monkeypatch):
    monkeypatch.setattr(laurent, "_POWERS", {})
    mapping = {"s": ONE + Q, "t": -Q}
    polys = [lucanomial(10, 5), st_catalan(4), lucanomial(6, 2)]
    first = [p.substitute(mapping) for p in polys]
    calls = _count_products(monkeypatch)
    # equal targets built afresh, so the lookup is by value
    assert [p.substitute({"s": ONE + Q, "t": -Q}) for p in polys] == first
    assert len(calls) == 0


def test_cache_keeps_at_most_the_cap(monkeypatch):
    monkeypatch.setattr(laurent, "_POWERS", {})
    first = ONE + 2 * Q
    for c in range(2, laurent._POWERS_CAP + 5):
        (S**3).substitute({"s": ONE + c * Q})
        assert len(laurent._POWERS) <= laurent._POWERS_CAP
    assert len(laurent._POWERS) == laurent._POWERS_CAP
    # the oldest went first
    assert first not in laurent._POWERS
    assert ONE + (laurent._POWERS_CAP + 4) * Q in laurent._POWERS


def test_failed_negative_substitution_stores_nothing(monkeypatch):
    monkeypatch.setattr(laurent, "_POWERS", {})
    with pytest.raises(ValueError, match="negative power of a non-monomial"):
        (S**-1).substitute({"s": ONE + Q})
    with pytest.raises(ValueError, match="negative power of a non-monomial"):
        (S**-1 + S**3).substitute({"s": ONE + Q})
    assert laurent._POWERS == {}


@pytest.mark.parametrize(
    "op",
    [
        lambda: Q * 0.5,
        lambda: 0.5 * Q,
        lambda: Q + 0.5,
        lambda: 0.5 + Q,
        lambda: Q - 0.5,
        lambda: 0.5 - Q,
        lambda: Q * "x",
        lambda: "x" * Q,
        lambda: Q + None,
    ],
)
def test_wrong_operand_types_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_terms_view_compares_as_its_dict():
    p = ONE + 2 * Q - monomial(3, t=-1, s=2)
    assert p.terms == dict(p.terms) == {(0, 0, 0, 0): 1, (1, 0, 0, 0): 2, (0, -1, 0, 2): -3}
    assert dict(p.terms) == p.terms
    assert (Q + ONE).terms == (ONE + Q).terms and (ONE + Q).terms != Q.terms
    assert p.terms != {(0, 0, 0, 0): 1}
    assert len(p.terms) == 3 and sorted(p.terms.values()) == [-3, 1, 2]
    assert p.terms.get((0, -1, 0, 2)) == -3 and p.terms.get((9, 9, 9, 9)) is None
    assert (1, 0, 0, 0) in p.terms and "q" not in p.terms
    assert Laurent(p.terms) == p


# every exponent lies in [-2**30, 2**30): the edges, and anything between
_edge = st.sampled_from([-(2**30), -(2**30 - 1), -1, 0, 1, 2**30 - 1])
_exponent = st.one_of(_edge, st.integers(min_value=-(2**30), max_value=2**30 - 1))


@given(st.tuples(*[_exponent] * 4), st.tuples(*[_exponent] * 4))
@settings(max_examples=200)
def test_pack_and_unpack_round_trip(e, f):
    assert laurent._unpack(laurent._pack(e)) == e
    assert Laurent({e: 5}).terms == {e: 5} and monomial(5, *e).coefficient(*e) == 5
    # packing is additive while the sum stays in range
    total = tuple(x + y for x, y in zip(e, f))
    if all(-(2**30) <= x < 2**30 for x in total):
        assert laurent._unpack(laurent._pack(e) + laurent._pack(f)) == total
        assert monomial(1, *e) * monomial(1, *f) == monomial(1, *total)


@pytest.mark.parametrize(
    "build",
    [
        lambda: monomial(q=2**30),
        lambda: monomial(s=-(2**30) - 1),
        lambda: Laurent({(0, 0, 2**30, 0): 1}),
        lambda: distribution([1, 2], {"q": lambda x: x, "t": lambda x: -(2**30) - x}),
        lambda: Q ** (2**30),
        lambda: T ** -(2**30 + 1),
        # a product, a sum of products and a negative power that cross the bound
        lambda: monomial(q=2**29) * monomial(q=2**29),
        lambda: sum_of_products([(ONE, ONE), (monomial(t=-(2**29) - 1), monomial(t=-(2**29)))]),
        lambda: monomial(s=-(2**30)) ** -1,
        # substitutions: through the power table, and through the residual
        lambda: (S**2).substitute({"s": monomial(q=2**29)}),
        lambda: monomial(q=2**29, s=1).substitute({"s": monomial(q=2**29)}),
        lambda: monomial(q=2**29, s=1, t=1).substitute({"s": ONE + Q, "t": monomial(q=2**29)}),
        # four factors near the edge, whose sum would carry into the next field
        lambda: monomial(q=2**30 - 1, t=1, z=1, s=1).substitute(dict.fromkeys("tzs", monomial(q=2**30 - 1))),
        # a division whose exact quotient leaves the range
        lambda: monomial(q=-(2**29)).divide_exact(monomial(q=2**29 + 1)),
        lambda: (monomial(z=-(2**29)) * (ONE + Q)).divide_exact(monomial(z=2**29 + 1) * (ONE + Q)),
    ],
)
def test_exponents_out_of_range_raise(build):
    with pytest.raises(OverflowError, match=re.escape("[-2**30, 2**30)")):
        build()


def test_exponents_at_the_range_edges_are_legal():
    assert Q ** (2**29) * Q ** -(2**29) == ONE
    assert monomial(q=2**29) * monomial(q=2**29 - 1) == monomial(q=2**30 - 1)
    assert monomial(t=-(2**29)) ** 2 == monomial(t=-(2**30))
    assert monomial(q=-(2**29)).divide_exact(monomial(q=2**29)) == monomial(q=-(2**30))
    assert (S**2).substitute({"s": monomial(q=2**29 - 1)}) == monomial(q=2**30 - 2)
    assert monomial(q=2**30 - 1).terms == {(2**30 - 1, 0, 0, 0): 1}
    assert distribution([0, 1], {"s": lambda x: 2**30 - 1 - x, "z": lambda x: -(2**30)}) == monomial(
        s=2**30 - 1, z=-(2**30)
    ) + monomial(s=2**30 - 2, z=-(2**30))
    assert str(monomial(-1, q=-(2**30), s=2**30 - 1)) == f"-q^{-(2**30)}*s^{2**30 - 1}"
    # an inexact division stays an ExactDivisionError near the edges
    with pytest.raises(ExactDivisionError):
        (ONE + Q ** (2**30 - 1)).divide_exact(ONE + T)


def test_power_tables_keep_at_most_the_term_cap(monkeypatch):
    monkeypatch.setattr(laurent, "_POWERS", {})
    # the tables genfun-routes reads stay whole
    (S**56 * T**28).substitute({"s": ONE + Q, "t": -Q})
    assert len(laurent._POWERS[ONE + Q]) == 57 and len(laurent._POWERS[-Q]) == 29
    target = ONE + Q
    for p in (S**300 + S, S**200, S**310):
        assert p.substitute({"s": target}) == _expand(p, {"s": target})
        stored = laurent._POWERS[target]
        # the longest prefix within the cap: (1+q)^k has k+1 terms
        size = sum(len(power.terms) for power in stored)
        assert size <= laurent._POWERS_TERMS < size + len(stored) + 1
        for k, power in enumerate(stored):
            assert power == target**k
