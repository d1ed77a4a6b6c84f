import pytest

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
    lucas_poly,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
    series_inverse,
    st_catalan,
    truncated_product,
)
from mahonian.laurent import ONE, Q, ZERO, ExactDivisionError, Laurent, monomial, parse_poly
from mahonian.partitions import no_part_equal, size
from mahonian.words import ballot_words, des, inv, maj, permutations_of


def test_q_basics():
    assert q_int(0) == ZERO
    assert q_int(3) == parse_poly("1 + q + q^2")
    assert q_factorial(3) == parse_poly("1 + 2*q + 2*q^2 + q^3")
    assert q_binomial(4, 2) == parse_poly("1 + q + 2*q^2 + q^3 + q^4")
    assert q_binomial(5, 0) == ONE
    assert q_binomial(4, -1) == ZERO
    assert q_binomial(4, 5) == ZERO
    # degree of the Gaussian binomial is k(n-k)
    assert q_binomial(7, 3).degree("q") == 12


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
    assert catalan_qt(2) == parse_poly("1 + q^2*t")
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
    assert lucas_poly(3) == parse_poly("s^2 + t")
    assert lucas_poly(4) == parse_poly("s^3 + 2*s*t")
    assert lucanomial(4, 2) == parse_poly("s^4 + 3*s^2*t + 2*t^2")
    assert lucanomial(4, 0) == ONE
    assert lucanomial(4, -1) == ZERO
    assert lucanomial(3, 5) == ZERO
    assert st_catalan(1) == ONE
    assert st_catalan(2) == parse_poly("s^2 + 2*t")


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


def test_series_inverse():
    p = ONE - Q
    inv_p = series_inverse(p, 8)
    assert (p * inv_p).truncate("q", 8) == ONE
    assert series_inverse(q_pochhammer(2), 6) * q_pochhammer(2) != ONE  # truncated only
    assert (series_inverse(q_pochhammer(2), 6) * q_pochhammer(2)).truncate("q", 6) == ONE
    with pytest.raises(ValueError):
        series_inverse(2 * ONE, 4)


def test_carlitz_series_matches_large_n():
    cs = carlitz_series(8)
    f = fib_poly(16).substitute({"t": ONE}).truncate("q", 8)
    assert cs == f


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
