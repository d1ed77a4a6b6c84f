"""Named polynomial families: q-integers and Gaussian binomials, the
q,t-Catalan polynomials of ballot words, Fibonacci-word polynomials,
Lucas-sequence analogues, and truncated infinite products.

Everything is exact; divisions assert a zero remainder.  The q-factorials,
Gaussian binomials and truncated products are dense coefficient-list
products, the only routes here with their own coefficient loops, kept
apart from the Laurent engine as oracles for it.  Every other route does
its arithmetic in the engine, whose one multiplication loop is
laurent._mul_into: each state of the Catalan triangle's dynamic program
over ballot paths, each entry of the Lucas polynomials and of the
Pascal-type recurrence for the Lucas binomials, the closed Fibonacci form
and the Carlitz series (a sum of shifted truncated products) is one
laurent.sum_of_products.  None of them divides or enumerates; the
factorial quotients and ballot-word enumerations they replace are the
oracles the checks and tests compare them with.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Mapping

from .laurent import ONE, S, T, ZERO, Laurent, from_counts, monomial, q_poly, sum_of_products, var_index
from .words import des, fibonacci_words, maj

# ---------------------------------------------------------------------------
# distributions


def distribution(items: Iterable, stats: Mapping[str, Callable]) -> Laurent:
    """Generating polynomial sum over items of prod var^stat(item).

    stats maps variable names (q, t, z, s) to statistic callables; the
    item stream must be finite and is read once.  Each statistic maps over
    its own copy of the stream (itertools.tee), so item by item the
    statistics run in mapping order; Counter counts the tuples of values,
    and laurent.from_counts packs each distinct tuple once, raising
    OverflowError on a value outside the exponent range.
    """
    slots = [var_index(name) for name in stats]
    if not slots:
        return Laurent.const(sum(1 for _ in items))
    streams = itertools.tee(items, len(slots)) if len(slots) > 1 else (iter(items),)
    counts = Counter(zip(*[map(fn, s) for fn, s in zip(stats.values(), streams)]))
    return from_counts(slots, counts)


# ---------------------------------------------------------------------------
# q-analogues


def q_int(n: int) -> Laurent:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return q_poly([1] * n)


def q_factorial(n: int) -> Laurent:
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [1]
    for i in range(2, n + 1):
        # times [i]: coefficient j of the product is a window sum of the
        # old coefficients j-i+1 .. j
        out = []
        window = 0
        for j in range(len(coeffs) + i - 1):
            if j < len(coeffs):
                window += coeffs[j]
            if j >= i:
                window -= coeffs[j - i]
            out.append(window)
        coeffs = out
    return q_poly(coeffs)


def q_binomial(n: int, k: int) -> Laurent:
    """Gaussian binomial [n]!/([k]![n-k]!); zero when k < 0 or k > n.

    Built as the product over i <= min(k, n-k) of (1-q^(m+i))/(1-q^i),
    with m = n - min(k, n-k): the i-th partial product is [m+i, i], an
    exact polynomial of degree i*m, so each step multiplies and divides
    one dense coefficient list truncated there.
    """
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    m = n - k
    coeffs = [1]
    for i in range(1, k + 1):
        top = i * m
        coeffs += [0] * (top + 1 - len(coeffs))
        for j in range(top, m + i - 1, -1):
            coeffs[j] -= coeffs[j - m - i]
        for j in range(i, top + 1):
            coeffs[j] += coeffs[j - i]
    return q_poly(coeffs)


# ---------------------------------------------------------------------------
# Catalan layer


def _ballot_paths(ones: int, twos: int, one_step: Callable) -> Laurent:
    """Sum of q^x t^y over the ballot rearrangements of 1^ones 2^twos,
    where a 2 multiplies by 1 and a 1 by the monomial one_step(letters
    before it, twos before it, letter before it or 0).

    The words are never built: each layer maps a prefix state (ones used,
    twos used, last letter) to the polynomial of the ballot prefixes that
    reach it, the sum_of_products of its predecessors' polynomials and
    step monomials, so the cost is polynomial, not Catalan, in the length.
    """
    layer = {(0, 0, 0): ONE}
    for _ in range(ones + twos):
        preds: dict[tuple[int, int, int], list[tuple[Laurent, Laurent]]] = {}
        for (a, b, last), poly in layer.items():
            if a < ones:
                preds.setdefault((a + 1, b, 1), []).append((poly, one_step(a + b, b, last)))
            if b < twos and b < a:
                preds.setdefault((a, b + 1, 2), []).append((poly, ONE))
        layer = {state: sum_of_products(pairs) for state, pairs in preds.items()}
    return sum_of_products((poly, ONE) for poly in layer.values())


def _maj_des_step(position: int, twos: int, last: int) -> Laurent:
    # a 1 right after a 2 at position i closes a descent: q^i t
    return monomial(1, q=position, t=1) if last == 2 else ONE


def _inv_step(position: int, twos: int, last: int) -> Laurent:
    # a 1 after b twos is the right end of b inversions: q^b
    return monomial(1, q=twos)


def catalan_nd_qt(n: int, d: int) -> Laurent:
    """maj/des generating polynomial over ballot words with n-d ones and
    d twos; zero when no such word exists."""
    if d < 0 or n - d < d:
        return ZERO
    return _ballot_paths(n - d, d, _maj_des_step)


def catalan_nd_q(n: int, d: int) -> Laurent:
    """inv generating polynomial over ballot words with n-d ones, d twos."""
    if d < 0 or n - d < d:
        return ZERO
    return _ballot_paths(n - d, d, _inv_step)


def catalan_qt(n: int) -> Laurent:
    """Sum of q^maj t^des over ballot rearrangements of 1^n 2^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return catalan_nd_qt(2 * n, n)


def catalan_q(n: int) -> Laurent:
    """Sum of q^inv over ballot rearrangements of 1^n 2^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    q^(k(k-1)) t^(k-1) [n-k, k-1] + q^(k^2) t^k [n-k, k]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # [n-k, k-1] or [n-k, k] is nonzero exactly for k <= (n+1)/2
    return sum_of_products(
        pair
        for k in range((n + 1) // 2 + 1)
        for pair in (
            (monomial(1, q=k * (k - 1), t=k - 1), q_binomial(n - k, k - 1)),
            (monomial(1, q=k * k, t=k), q_binomial(n - k, k)),
        )
    )


# ---------------------------------------------------------------------------
# Lucas-sequence layer


def _lucas_polys(n: int) -> list[Laurent]:
    """[{0}, {1}, ..., {n}]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [ZERO, ONE]
    while len(out) <= n:
        out.append(sum_of_products(((S, out[-1]), (T, out[-2]))))
    return out[: n + 1]


def lucas_poly(n: int) -> Laurent:
    """{n}: {0} = 0, {1} = 1, {n} = s{n-1} + t{n-2}.

    Specializes to the Fibonacci numbers at s = t = 1 and to [n] at
    s = 1 + q, t = -q.
    """
    return _lucas_polys(n)[n]


def lucas_factorial(n: int) -> Laurent:
    out = ONE
    for poly in _lucas_polys(n)[1:]:
        out = out * poly
    return out


def lucanomial(n: int, k: int) -> Laurent:
    """{n}!/({k}!{n-k}!); zero when k < 0 or k > n.

    Always a polynomial in s, t with nonnegative coefficients.  Computed
    by the Pascal-type recurrence {m,j} = {j+1}{m-1,j} + t{m-j-1}{m-1,j-1}
    with {m,0} = {m,m} = 1, keeping in row m only the j that can still
    reach (n, k): max(0, k-(n-m)) <= j <= min(k, m).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    luc = _lucas_polys(n)
    t_luc = [T * poly for poly in luc]
    row = {0: ONE}
    for m in range(1, n + 1):
        new = {}
        for j in range(max(0, k - (n - m)), min(k, m) + 1):
            if j == 0 or j == m:
                new[j] = ONE
            else:
                new[j] = sum_of_products(((luc[j + 1], row[j]), (t_luc[m - j - 1], row[j - 1])))
        row = new
    return row[k]


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
    return q_poly(coeffs)


def carlitz_series(degree: int) -> Laurent:
    """Truncation of sum over k of q^(k^2-k)/(q)_k, the stable limit of
    the t = 1 Fibonacci-word polynomials; 1/(q)_k is the truncated
    product over the parts 1..k."""
    # max(degree, 0): a negative degree still reaches truncated_product,
    # which rejects it
    ks = itertools.takewhile(lambda k: k * k - k <= max(degree, 0), itertools.count())
    return sum_of_products(
        (monomial(1, q=k * k - k), truncated_product(range(1, k + 1), degree - k * k + k))
        for k in ks
    )
