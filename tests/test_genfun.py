import math

import pytest

from mahonian import genfun, words
from mahonian.genfun import (
    carlitz_series,
    catalan_nd_q,
    catalan_nd_qt,
    catalan_q,
    catalan_qt,
    distribution,
    fib_poly,
    fib_poly_closed,
    fib_poly_enumerated,
    fibonacci,
    lucanomial,
    lucas_factorial,
    lucas_poly,
    q_binomial,
    q_factorial,
    q_int,
    st_catalan,
    truncated_product,
)
from mahonian.laurent import ONE, Q, S, T, ZERO, ExactDivisionError, Laurent, monomial
from mahonian.partitions import no_part_equal, size
from mahonian.words import ballot_words, des, inv, maj, permutations_of


# Oracles independent of the library's dense q-products, ballot-path
# dynamic program and Lucas recurrence: factorial quotients through
# divide_exact, and enumerated ballot words.


def _q_factorial_oracle(n):
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def _q_binomial_oracle(n, k):
    if k < 0 or k > n:
        return ZERO
    return _q_factorial_oracle(n).divide_exact(_q_factorial_oracle(k) * _q_factorial_oracle(n - k))


def _catalan_nd_qt_oracle(n, d):
    if d < 0 or n - d < d:
        return ZERO
    return distribution(ballot_words(n - d, d), {"q": maj, "t": des})


def _catalan_nd_q_oracle(n, d):
    if d < 0 or n - d < d:
        return ZERO
    return distribution(ballot_words(n - d, d), {"q": inv})


def _lucanomial_oracle(n, k):
    if k < 0 or k > n:
        return ZERO
    return lucas_factorial(n).divide_exact(lucas_factorial(k) * lucas_factorial(n - k))


def test_q_basics():
    assert q_int(0) == ZERO
    assert q_int(3) == 1 + Q + Q**2
    assert q_factorial(3) == 1 + 2 * Q + 2 * Q**2 + Q**3
    assert q_binomial(4, 2) == 1 + Q + 2 * Q**2 + Q**3 + Q**4
    assert q_binomial(5, 0) == ONE
    assert q_binomial(4, -1) == ZERO
    assert q_binomial(4, 5) == ZERO
    # degree of the Gaussian binomial is k(n-k)
    assert max(q for q, *_ in q_binomial(7, 3).terms) == 12


def test_distribution():
    d = distribution(ballot_words(2, 2), {"q": maj})
    assert d == ONE + Q**2
    assert distribution([], {"q": maj}) == ZERO
    base = (1, 1, 2, 2)
    assert distribution(permutations_of(base), {"q": maj}) == distribution(
        permutations_of(base), {"q": inv}
    )


def test_catalan_polys():
    assert catalan_qt(0) == ONE
    assert catalan_qt(2) == 1 + Q**2 * T
    assert catalan_qt(2).coefficient(q=2, t=1) == 1
    assert catalan_q(2) == ONE + Q


def test_catalan_triangle_entries():
    # B_{1,1} = {12}: maj = 0
    assert catalan_nd_qt(2, 1) == ONE
    # B_{2,1} = {112, 121}: maj 0 and 2
    assert catalan_nd_qt(3, 1) == ONE + monomial(1, q=2, t=1)
    assert catalan_nd_qt(3, 2) == ZERO
    assert catalan_nd_q(3, 1) == ONE + Q


def test_catalan_q1_identity():
    for n in range(6):
        lhs = catalan_qt(n).substitute({"t": ONE})
        rhs = q_binomial(2 * n, n).divide_exact(q_int(n + 1))
        assert lhs == rhs


def test_fib_polys():
    assert fib_poly(0) == ONE
    assert fib_poly(1) == Laurent.const(2)
    assert fib_poly(2) == 2 + monomial(1, q=1, t=1)
    for n in range(9):
        assert fib_poly(n) == fib_poly_enumerated(n) == fib_poly_closed(n)
        assert fib_poly(n).substitute({"q": ONE, "t": ONE}) == Laurent.const(fibonacci(n + 1))
    assert [fibonacci(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    for f in (fibonacci, fib_poly, fib_poly_enumerated, fib_poly_closed):
        with pytest.raises(ValueError):
            f(-1)


def test_lucas_layer():
    assert lucas_poly(0) == ZERO
    assert lucas_poly(1) == ONE
    assert lucas_poly(2) == monomial(1, s=1)
    assert lucas_poly(3) == S**2 + T
    assert lucas_poly(4) == S**3 + 2 * S * T
    assert lucanomial(4, 2) == S**4 + 3 * S**2 * T + 2 * T**2
    assert lucanomial(4, 0) == ONE
    assert lucanomial(4, -1) == ZERO
    assert lucanomial(3, 5) == ZERO
    assert st_catalan(1) == ONE
    assert st_catalan(2) == S**2 + 2 * T


def test_lucanomial_specializations():
    assert lucanomial(4, 2).substitute({"s": ONE, "t": ONE}) == Laurent.const(6)
    assert lucanomial(5, 2).substitute({"s": ONE, "t": ONE}) == Laurent.const(15)
    assert lucanomial(4, 2).substitute({"s": ONE + Q, "t": -Q}) == q_binomial(4, 2)
    assert lucanomial(5, 2).substitute({"s": ONE + Q, "t": -Q}) == q_binomial(5, 2)


def test_ekhad_identity_small():
    for n in range(1, 6):
        rhs = lucanomial(2 * n - 1, n - 1) + monomial(1, t=1) * lucanomial(2 * n - 1, n - 2)
        assert st_catalan(n) == rhs


def test_truncated_product():
    # partitions with no part 1, counted through q^10
    prod = truncated_product(range(2, 11), 10)
    for n in range(11):
        direct = sum(1 for p in no_part_equal(1, 10) if size(p) == n)
        assert prod.coefficient(q=n) == direct
    assert prod.coefficient(q=5) == 2
    with pytest.raises(ValueError):
        truncated_product([0, 2], 5)


def test_carlitz_series_matches_large_n():
    cs = carlitz_series(8)
    f = fib_poly(16).substitute({"t": ONE}).truncate("q", 8)
    assert cs == f
    # the coefficient of q^j is stable from length j + 1 on
    for d in range(21):
        f = fib_poly(d + 1).substitute({"t": ONE}).truncate("q", d)
        assert carlitz_series(d) == f
    with pytest.raises(ValueError, match="^truncation degree must be nonnegative, got -1$"):
        carlitz_series(-1)


def test_division_guard():
    with pytest.raises(ExactDivisionError):
        q_factorial(3).divide_exact(ONE + Q**2)


def test_q_binomial_nonnegative_and_symmetric():
    for n in range(11):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            assert all(c > 0 for c in poly.terms.values())
            assert poly == q_binomial(n, n - k)
            assert poly.substitute({"q": ONE}) == Laurent.const(
                __import__("math").comb(n, k)
            )


def test_catalan_polys_nonnegative():
    for n in range(6):
        for d in range(n // 2 + 1):
            assert all(c > 0 for c in catalan_nd_qt(n, d).terms.values())
            assert all(c > 0 for c in catalan_nd_q(n, d).terms.values())


def test_distribution_order_insensitive():
    import random

    base = list(permutations_of((1, 2, 2, 3)))
    shuffled = base[:]
    random.Random(99).shuffle(shuffled)
    assert distribution(base, {"q": maj, "t": des}) == distribution(
        shuffled, {"q": maj, "t": des}
    )


def test_q_layer_matches_factorial_quotients():
    for n in range(17):
        assert q_factorial(n).terms == _q_factorial_oracle(n).terms
        for k in range(-1, n + 2):
            assert q_binomial(n, k).terms == _q_binomial_oracle(n, k).terms, (n, k)


def test_catalan_triangle_matches_enumeration():
    for n in range(15):
        for d in range(-1, n + 2):
            assert catalan_nd_qt(n, d).terms == _catalan_nd_qt_oracle(n, d).terms, (n, d)
            assert catalan_nd_q(n, d).terms == _catalan_nd_q_oracle(n, d).terms, (n, d)


def test_lucanomials_match_factorial_quotients():
    for n in range(11):
        for k in range(-1, n + 2):
            assert lucanomial(n, k).terms == _lucanomial_oracle(n, k).terms, (n, k)


def test_negative_sizes_rejected():
    for f in (q_int, q_factorial, catalan_qt, catalan_q, lambda n: lucanomial(n, 0)):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            f(-1)
    # k and d outside their range keep the zero convention
    assert q_binomial(-1, 0) == ZERO
    assert catalan_nd_qt(-1, 0) == ZERO
    assert catalan_nd_q(2, 3) == ZERO


def test_routes_neither_divide_nor_enumerate(monkeypatch):
    def slow_route(*args, **kwargs):
        raise AssertionError("slow route taken")

    monkeypatch.setattr(Laurent, "divide_exact", slow_route)
    monkeypatch.setattr(words, "ballot_words", slow_route)
    monkeypatch.setattr(genfun, "distribution", slow_route)
    one = {"s": ONE, "t": ONE, "q": ONE}
    assert q_binomial(40, 20).substitute(one) == Laurent.const(math.comb(40, 20))
    assert catalan_qt(12).substitute(one) == Laurent.const(math.comb(24, 12) // 13)
    fib = [fibonacci(i - 1) if i else 0 for i in range(13)]  # F_0 = 0, F_1 = 1
    assert lucanomial(12, 6).substitute(one) == Laurent.const(
        math.prod(fib[7:13]) // math.prod(fib[1:7])
    )
