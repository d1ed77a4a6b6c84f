"""Inputs, items and correctness gates of the three benchmark workloads.

An item is one unit of work whose time is reported on its own: one
registered check, one word or partition, or one route identity.  Its
``run(tracer)`` calls into the library inside layer spans and returns
gates, a list of ``(name, got, want)`` triples; the item passes when
every ``got == want`` and nothing raised.  Every ``want`` comes from a
route independent of the one that produced ``got``: a theorem relating
two library functions, or an oracle written here in plain integer
arithmetic and computed before timing starts.

Inputs depend only on ``(workload, seed, size)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from mahonian import (
    ballot_words,
    catalan_qt,
    csv_map,
    csv_via_words,
    des,
    distribution,
    fibonacci_words,
    foata,
    foata_binary,
    foata_inverse,
    inv,
    lucanomial,
    maj,
    permutations_of,
    q_binomial,
    q_factorial,
    st_catalan,
    truncated_product,
)
from mahonian.genfun import fib_poly, fib_poly_closed
from mahonian.laurent import ONE, Q
from mahonian.partitions import partitions_up_to
from mahonian.verify import CHECKS, run_check
from sizes import SIZES

Gates = list[tuple[str, object, object]]


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[..., Gates]


def build(workload: str, seed: int, size: str = "full") -> list[Item]:
    """The fixed item list one pass of ``workload`` works through."""
    sizes = SIZES[size][workload]
    if workload == "verify-full":
        return _verify_items(sizes["profile"])
    rng = random.Random(seed)
    if workload == "genfun-routes":
        return _genfun_items(rng, sizes)
    items = _long_items(rng, sizes)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# verify-full: every registered check at the profile's pinned bounds


def _verify_items(profile: str) -> list[Item]:
    def item(name):
        def run(tr):
            with tr.span(f"verify.check.{name}"):
                report = run_check(name, profile=profile)
            return [("verdict", report.verdict, "pass")]

        return Item(name, run)

    return [item(name) for name in CHECKS]


# ---------------------------------------------------------------------------
# long-inputs: independent long words and large partitions
#
# Lengths and sizes sit on a log-uniform grid and only the contents are
# random, so the cost of a pass, which grows quadratically with length,
# barely depends on the seed.


def _log_grid(lo, hi, count):
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _random_words(rng, sizes):
    """Random words, no two sharing their first 12 letters."""
    words, prefixes = [], set()
    for k in sizes["alphabets"]:
        for n in _log_grid(*sizes["word_len"], sizes["words_per_alphabet"]):
            while True:
                w = tuple(rng.randint(1, k) for _ in range(n))
                if w[:12] not in prefixes:
                    prefixes.add(w[:12])
                    words.append(w)
                    break
    return words


def _max_rank(p):
    """Largest successive rank, computed here so inputs never depend on the library."""
    durfee = sum(1 for i, part in enumerate(p) if part > i)
    return max(p[i] - sum(1 for part in p if part > i) for i in range(durfee))


def _random_partition(rng, n, rank, tries=2000):
    """A random partition of n whose first two parts are equal and whose
    maximum rank is ``rank``, or as near to it as ``tries`` draws come.

    csv_map takes one step per unit of maximum rank, so pinning the rank
    pins most of the partition's cost."""
    best = None
    for _ in range(tries):
        a = rng.randint(1, n // 2)
        parts = [a, a]
        left = n - 2 * a
        while left:
            part = rng.randint(1, min(a, left))
            parts.append(part)
            left -= part
        p = tuple(sorted(parts, reverse=True))
        miss = abs(_max_rank(p) - rank)
        if best is None or miss < best[0]:
            best = (miss, p)
        if miss == 0:
            break
    return best[1]


def _word_item(v):
    binary = set(v) <= {1, 2}

    def run(tr):
        with tr.span("foata.foata"):
            image = foata(v)
        with tr.span("words.maj"):
            m = maj(v)
        with tr.span("words.inv"):
            i = inv(image)
        with tr.span("foata.foata_inverse"):
            back = foata_inverse(image)
        gates = [("maj(v) == inv(foata(v))", i, m), ("foata_inverse(foata(v)) == v", back, v)]
        if binary:
            with tr.span("foata.foata_binary"):
                closed = foata_binary(v)
            gates.append(("foata(v) == foata_binary(v)", image, closed))
        return gates

    return Item(f"word[{len(v)}, max letter {max(v)}]", run)


def _partition_item(p):
    def run(tr):
        with tr.span("bijections.csv_map"):
            direct = csv_map(p)
        with tr.span("bijections.csv_via_words"):
            conjugated = csv_via_words(p)
        return [("csv_map(p) == csv_via_words(p)", conjugated, direct)]

    return Item(f"partition[{sum(p)}]", run)


def _long_items(rng, sizes):
    items = [_word_item(v) for v in _random_words(rng, sizes)]
    per = sizes["partitions_per_size"]
    for n in _log_grid(*sizes["partition_size"], sizes["partition_sizes"]):
        # target ranks spread evenly over [0, n/4)
        for j in range(per):
            items.append(_partition_item(_random_partition(rng, n, round((j + 0.5) / per * n / 4))))
    return items


# ---------------------------------------------------------------------------
# genfun-routes: the same polynomials by algebra and by enumeration
#
# Oracles below use plain integer lists (index = power of q), never the
# Laurent engine they check.


def _pascal(n_max):
    """Gaussian binomial coefficient lists by [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    rows = [[[1]]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            out = [0] * (k * (n - k) + 1)
            if k >= 1:
                for i, c in enumerate(prev[k - 1]):
                    out[i] += c
            if k <= n - 1:
                for i, c in enumerate(prev[k]):
                    out[i + k] += c
            row.append(out)
        rows.append(row)
    return rows


def _q_terms(coeffs):
    return {(i, 0, 0, 0): c for i, c in enumerate(coeffs) if c}


def _fib(n):
    """Standard Fibonacci numbers, F(0) = 0, F(1) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fibonomial(n, k):
    num = math.prod(_fib(i) for i in range(1, n + 1))
    return num // (math.prod(_fib(i) for i in range(1, k + 1)) * math.prod(_fib(i) for i in range(1, n - k + 1)))


def _coeff_sum(poly):
    return sum(poly.terms.values())


def _q_binomial_item(n, k, pascal):
    want = _q_terms(pascal[n][k])

    def run(tr):
        with tr.span("genfun.q_factorial"):
            fn, fk, fnk = q_factorial(n), q_factorial(k), q_factorial(n - k)
        with tr.span("laurent.mul"):
            den = fk * fnk
        with tr.span("laurent.divide_exact"):
            quotient = fn.divide_exact(den)
        with tr.span("genfun.q_binomial"):
            qb = q_binomial(n, k)
        return [
            ("[n]!/([k]![n-k]!) == q_binomial", quotient.terms, qb.terms),
            ("q_binomial == Pascal recurrence", qb.terms, want),
            ("q_binomial at q=1 == comb", _coeff_sum(qb), math.comb(n, k)),
        ]

    return Item(f"q_binomial({n},{k})", run)


def _lucanomial_item(n, k, pascal):
    want = _q_terms(pascal[n][k])
    at_q = {"s": ONE + Q, "t": -Q}

    def run(tr):
        with tr.span("genfun.lucanomial"):
            poly = lucanomial(n, k)
        with tr.span("laurent.substitute"):
            special = poly.substitute(at_q)
        return [
            ("lucanomial at s=1+q, t=-q == Pascal recurrence", special.terms, want),
            ("lucanomial at s=t=1 == fibonomial", _coeff_sum(poly), _fibonomial(n, k)),
        ]

    return Item(f"lucanomial({n},{k})", run)


def _st_catalan_item(n, pascal):
    # the q-Catalan number [2n,n]/[n+1] = [2n,n] - q [2n,n+1]
    cat = list(pascal[2 * n][n])
    for i, c in enumerate(pascal[2 * n][n + 1]):
        cat[i + 1] -= c
    want = _q_terms(cat)
    at_q = {"s": ONE + Q, "t": -Q}

    def run(tr):
        with tr.span("genfun.st_catalan"):
            poly = st_catalan(n)
        with tr.span("laurent.substitute"):
            special = poly.substitute(at_q)
        return [
            ("st_catalan at s=1+q, t=-q == q-Catalan", special.terms, want),
            ("st_catalan at s=t=1", _coeff_sum(poly), _fibonomial(2 * n, n) // _fib(n + 1)),
        ]

    return Item(f"st_catalan({n})", run)


def _fib_closed_item(n):
    def run(tr):
        with tr.span("genfun.fib_poly_closed"):
            closed = fib_poly_closed(n)
        with tr.span("genfun.fib_poly"):
            recursive = fib_poly(n)
        return [
            ("fib_poly_closed == fib_poly", closed.terms, recursive.terms),
            ("fib_poly at q=t=1 == F(n+2)", _coeff_sum(recursive), _fib(n + 2)),
        ]

    return Item(f"fib_poly_closed({n})", run)


def _permutations_item(half, pascal):
    letters = (1,) * half + (2,) * half
    want = _q_terms(pascal[2 * half][half])

    def run(tr):
        with tr.span("words.permutations_of"):
            items = list(permutations_of(letters))
        with tr.span("genfun.distribution"):
            by_inv = distribution(items, {"q": inv})
            by_maj = distribution(items, {"q": maj})
        with tr.span("genfun.q_binomial"):
            qb = q_binomial(2 * half, half)
        return [
            ("inv over 1^n 2^n == q_binomial", by_inv.terms, qb.terms),
            ("maj over 1^n 2^n == q_binomial", by_maj.terms, qb.terms),
            ("q_binomial == Pascal recurrence", qb.terms, want),
        ]

    return Item(f"permutations_of(1^{half} 2^{half})", run)


def _partition_count(n_max):
    """Number of partitions of each n <= n_max, by adding parts 1..n_max."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for j in range(part, n_max + 1):
            counts[j] += counts[j - part]
    return counts


def _partitions_item(n_max):
    want = _q_terms(_partition_count(n_max))

    def run(tr):
        with tr.span("partitions.partitions_up_to"):
            items = list(partitions_up_to(n_max))
        with tr.span("genfun.distribution"):
            by_size = distribution(items, {"q": sum})
        with tr.span("genfun.truncated_product"):
            product = truncated_product(range(1, n_max + 1), n_max)
        return [
            ("size over partitions == truncated product", by_size.terms, product.terms),
            ("truncated product == partition counts", product.terms, want),
        ]

    return Item(f"partitions_up_to({n_max})", run)


def _fib_words_item(n):
    def run(tr):
        with tr.span("words.fibonacci_words"):
            items = list(fibonacci_words(n))
        with tr.span("genfun.distribution"):
            by_maj_des = distribution(items, {"q": maj, "t": des})
        with tr.span("genfun.fib_poly"):
            recursive = fib_poly(n)
        return [
            ("maj/des over Fibonacci words == fib_poly", by_maj_des.terms, recursive.terms),
            ("Fibonacci word count == F(n+2)", len(items), _fib(n + 2)),
        ]

    return Item(f"fibonacci_words({n})", run)


def _catalan_item(n):
    # ballot words with d descents (2 then 1) are Dyck paths with d+1
    # peaks, counted by the Narayana number N(n, d+1)
    narayana = {d: math.comb(n, d + 1) * math.comb(n, d) // n for d in range(n)}

    def run(tr):
        with tr.span("words.ballot_words"):
            items = list(ballot_words(n, n))
        with tr.span("genfun.distribution"):
            enumerated = distribution(items, {"q": maj, "t": des})
        with tr.span("genfun.catalan_qt"):
            poly = catalan_qt(n)
        by_des: dict[int, int] = {}
        for e, c in poly.terms.items():
            by_des[e[1]] = by_des.get(e[1], 0) + c
        return [
            ("catalan_qt == maj/des over ballot words", poly.terms, enumerated.terms),
            ("catalan_qt at q=t=1 == Catalan number", _coeff_sum(poly), math.comb(2 * n, n) // (n + 1)),
            ("catalan_qt at q=1 by t-degree == Narayana", by_des, narayana),
        ]

    return Item(f"catalan_qt({n})", run)


def _genfun_items(rng, sizes):
    half = sizes["perm_half"]
    pascal = _pascal(max(max(sizes["q_binomial_n"]), 2 * sizes["st_catalan_max"], 2 * half))
    items = []
    for n in sizes["q_binomial_n"]:
        items.append(_q_binomial_item(n, rng.randint(n // 2 - 3, n // 2), pascal))
    for n in sizes["lucanomial_rows"]:
        items.extend(_lucanomial_item(n, k, pascal) for k in range(n + 1))
    items.extend(_st_catalan_item(n, pascal) for n in range(1, sizes["st_catalan_max"] + 1))
    items.extend(_fib_closed_item(n) for n in sizes["fib_closed_n"])
    items.append(_permutations_item(half, pascal))
    items.append(_partitions_item(sizes["partitions_max"]))
    items.append(_fib_words_item(sizes["fib_words_n"]))
    items.append(_catalan_item(sizes["catalan_n"]))
    return items
