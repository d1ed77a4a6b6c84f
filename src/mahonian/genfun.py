"""Named polynomial families: q-integers and Gaussian binomials, the
q,t-Catalan polynomials of ballot words, Fibonacci-word polynomials,
Lucas-sequence analogues, and truncated infinite products.

Everything is exact; divisions assert a zero remainder.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from .laurent import ONE, VARS, ZERO, Laurent, monomial
from .words import ballot_words, des, fibonacci_words, inv, maj

# ---------------------------------------------------------------------------
# distributions


def distribution(items: Iterable, stats: Mapping[str, Callable]) -> Laurent:
    """Generating polynomial sum over items of prod var^stat(item).

    stats maps variable names (q, t, z, s) to statistic callables; the
    item stream must be finite.
    """
    cols = [(VARS.index(name), fn) for name, fn in stats.items()]
    acc: dict[tuple[int, ...], int] = {}
    for item in items:
        e = [0, 0, 0, 0]
        for i, fn in cols:
            e[i] = fn(item)
        key = tuple(e)
        acc[key] = acc.get(key, 0) + 1
    return Laurent(acc)


# ---------------------------------------------------------------------------
# q-analogues


def q_int(n: int) -> Laurent:
    """[n] = 1 + q + ... + q^(n-1)."""
    return Laurent({(i, 0, 0, 0): 1 for i in range(n)})


def q_factorial(n: int) -> Laurent:
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def q_binomial(n: int, k: int) -> Laurent:
    """Gaussian binomial [n]!/([k]![n-k]!); zero when k < 0 or k > n."""
    if k < 0 or k > n:
        return ZERO
    return q_factorial(n).divide_exact(q_factorial(k) * q_factorial(n - k))


def q_pochhammer(k: int) -> Laurent:
    """(q)_k = (1-q)(1-q^2)...(1-q^k)."""
    out = ONE
    for i in range(1, k + 1):
        out = out * (ONE - monomial(1, q=i))
    return out


# ---------------------------------------------------------------------------
# Catalan layer


def catalan_nd_qt(n: int, d: int) -> Laurent:
    """maj/des generating polynomial over ballot words with n-d ones and
    d twos; zero when no such word exists."""
    if d < 0 or n - d < d:
        return ZERO
    return distribution(ballot_words(n - d, d), {"q": maj, "t": des})


def catalan_nd_q(n: int, d: int) -> Laurent:
    """inv generating polynomial over ballot words with n-d ones, d twos."""
    if d < 0 or n - d < d:
        return ZERO
    return distribution(ballot_words(n - d, d), {"q": inv})


def catalan_qt(n: int) -> Laurent:
    """Sum of q^maj t^des over ballot rearrangements of 1^n 2^n."""
    return catalan_nd_qt(2 * n, n)


def catalan_q(n: int) -> Laurent:
    """Sum of q^inv over ballot rearrangements of 1^n 2^n."""
    return catalan_nd_q(2 * n, n)


def catalan_delta_qt(n: int, d: int) -> Laurent:
    return catalan_nd_qt(n, d) - catalan_nd_qt(n - 1, d - 1)


# ---------------------------------------------------------------------------
# Fibonacci layer


def fibonacci(n: int) -> int:
    """F_0 = F_1 = 1, F_n = F_{n-1} + F_{n-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_poly(n: int) -> Laurent:
    """maj/des polynomial of length-n binary words without adjacent ones,
    by the recursion f_n = f_{n-1} + q^(n-1) t f_{n-2} with f_0 = 1, f_1 = 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = ONE, Laurent.const(2)
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, b + monomial(1, q=m - 1, t=1) * a
    return b


def fib_poly_enumerated(n: int) -> Laurent:
    return distribution(fibonacci_words(n), {"q": maj, "t": des})


def fib_poly_closed(n: int) -> Laurent:
    """Closed form: sum over k of
    q^(k(k-1)) t^(k-1) ( [n-k, k-1] + q^k t [n-k, k] )."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    k = 0
    while True:
        b1 = q_binomial(n - k, k - 1)
        b2 = q_binomial(n - k, k)
        if k > 0 and b1.is_zero() and b2.is_zero():
            break
        term = monomial(1, q=k * (k - 1), t=k - 1) * (b1 + monomial(1, q=k, t=1) * b2)
        total = total + term
        k += 1
    return total


# ---------------------------------------------------------------------------
# Lucas-sequence layer


def lucas_poly(n: int) -> Laurent:
    """{n}: {0} = 0, {1} = 1, {n} = s{n-1} + t{n-2}.

    Specializes to the Fibonacci numbers at s = t = 1 and to [n] at
    s = 1 + q, t = -q.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = ZERO, ONE
    s = monomial(1, s=1)
    t = monomial(1, t=1)
    for _ in range(n):
        a, b = b, s * b + t * a
    return a


def lucas_factorial(n: int) -> Laurent:
    out = ONE
    for i in range(1, n + 1):
        out = out * lucas_poly(i)
    return out


def lucanomial(n: int, k: int) -> Laurent:
    """{n}!/({k}!{n-k}!); zero when k < 0 or k > n.

    Always a polynomial in s, t with nonnegative coefficients.
    """
    if k < 0 or k > n:
        return ZERO
    return lucas_factorial(n).divide_exact(lucas_factorial(k) * lucas_factorial(n - k))


def st_catalan(n: int) -> Laurent:
    """Catalan analogue {2n choose n}/{n+1} of the Lucas sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return lucanomial(2 * n, n).divide_exact(lucas_poly(n + 1))


# ---------------------------------------------------------------------------
# truncated series


def truncated_product(parts: Iterable[int], degree: int) -> Laurent:
    """Expansion of prod over the given part sizes of 1/(1 - q^p),
    exact through q^degree."""
    if degree < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {degree}")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for p in sorted(set(parts)):
        if p <= 0:
            raise ValueError("part sizes must be positive")
        if p > degree:
            continue
        for j in range(p, degree + 1):
            coeffs[j] += coeffs[j - p]
    return Laurent({(j, 0, 0, 0): c for j, c in enumerate(coeffs) if c})


def series_inverse(p: Laurent, degree: int) -> Laurent:
    """Multiplicative inverse of a q-only polynomial with constant term
    +-1, as a series exact through q^degree."""
    if not p.uses_only("q"):
        raise ValueError("series inverse requires a polynomial in q alone")
    top = p.degree("q")
    if top is None:
        raise ZeroDivisionError("zero polynomial")
    a = [p.coefficient(q=j) for j in range(max(top, degree) + 1)]
    if a and min(e[0] for e in p.terms) < 0:
        raise ValueError("series inverse requires nonnegative exponents")
    a0 = a[0]
    if a0 not in (1, -1):
        raise ValueError("constant term must be +-1")
    b = [0] * (degree + 1)
    b[0] = a0
    for j in range(1, degree + 1):
        b[j] = -a0 * sum(a[i] * b[j - i] for i in range(1, j + 1))
    return Laurent({(j, 0, 0, 0): c for j, c in enumerate(b) if c})


def carlitz_series(degree: int) -> Laurent:
    """Truncation of sum over k of q^(k^2-k)/(q)_k, the stable limit of
    the t = 1 Fibonacci-word polynomials."""
    total = ZERO
    k = 0
    while k * (k - 1) <= degree:
        inv_poch = series_inverse(q_pochhammer(k), degree)
        total = total + (monomial(1, q=k * (k - 1)) * inv_poch).truncate("q", degree)
        k += 1
    return total.truncate("q", degree)
