"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All comparisons are exact (integer or polynomial
equality).  Run with `pytest tests/test_acceptance.py -v -s` to see the
criterion lines as they complete."""

import itertools
import time

from mahonian.foata import foata, foata_inverse, foata_trace
from mahonian.laurent import ONE
from mahonian.verify import run_check, run_suite
from mahonian.words import format_word, inv, maj, parse_word


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_worked_example():
    expected_stages = ["2", "21", "212", "2211", "22113", "223111", "2213112"]
    expected_factors = [
        ("2",),
        ("2", "1"),
        ("2", "12"),
        ("2", "2", "1", "1"),
        ("2", "2", "113"),
        ("2", "2", "31", "1", "1"),
        None,
    ]
    trace = foata_trace(parse_word("2121312"))
    stages = [format_word(w) for w, _ in trace]
    factors = [None if f is None else tuple(format_word(x) for x in f) for _, f in trace]
    ok = (
        stages == expected_stages
        and factors == expected_factors
        and foata(parse_word("2121312")) == parse_word("2213112")
        and foata_inverse(parse_word("2213112")) == parse_word("2121312")
    )
    _criterion(1, "worked example with seven-stage dotted trace and inverse", ok)


def test_criterion_2_maj_inv_transport():
    start = time.perf_counter()
    ok = True
    for n in range(10):
        for v in itertools.product((1, 2, 3), repeat=n):
            if maj(v) != inv(foata(v)):
                ok = False
    for n in range(15):
        for v in itertools.product((1, 2), repeat=n):
            if maj(v) != inv(foata(v)):
                ok = False
    elapsed = time.perf_counter() - start
    _criterion(2, f"maj = inv after the bijection, ternary<=9 binary<=14 ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_3_ballot_theorems():
    ok = (
        run_check("ballot-rank-image", bounds={"max_n": 6}).passed
        and run_check("ballot-preimage-conditions", bounds={"max_n": 6}).passed
        and run_check("rank-catalan-qt", bounds={"max_n": 6}).passed
    )
    _criterion(3, "ballot image/preimage theorems and the rank Catalan corollary, n<=6", ok)


def test_criterion_4_catalan_layer():
    ok = (
        run_check("catalan-q1", bounds={"max_n": 7}).passed
        and run_check("catalan-square-q", bounds={"max_n": 7}).passed
        and run_check("catalan-four-term", bounds={"max_n": 5}).passed
        and run_check("composition-maps", bounds={"max_n_comp": 8, "max_n_beta": 6}).passed
        and run_check("catalan-triangle-counts", bounds={"max_n": 10}).passed
    )
    _criterion(4, "Catalan layer: q-identities, composition maps, triangle sums", ok)


def test_criterion_5_fibonacci_layer():
    ok = (
        run_check("fibonacci-counts", bounds={"max_n": 14}).passed
        and run_check("fib-poly-three-way", bounds={"max_n": 12}).passed
        and run_check("fib-image", bounds={"max_n": 12}).passed
        and run_check("fib-preimage-runs", bounds={"max_n": 12}).passed
        and run_check("letter-sum-mahonian", bounds={"max_total": 14}).passed
    )
    _criterion(5, "Fibonacci layer: counts, three-way polynomial, image/preimage, self-pair", ok)


def test_criterion_6_rank_and_chain_layer():
    start = time.perf_counter()
    ok = (
        run_check("rank-positive-sieve", bounds={"degree": 20}).passed
        and run_check("rank-interval-sieve", bounds={"degree": 20}).passed
        and run_check("infinite-pair-wslat", bounds={"max_len": 14}).passed
        and run_check("infinite-pair-images", bounds={"max_len": 14}).passed
        and run_check("csv-worked-example").passed
        and run_check("csv-gk-conjugacy", bounds={"max_size": 22}).passed
        and run_check("gk-bijection", bounds={"max_len": 14}).passed
    )
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        f"rank sieves to q^20, triple-statistic pairs to length 14, chain conjugacy to size 22 ({elapsed:.0f}s)",
        ok and elapsed < 300,
    )


def test_criterion_7_lucas_and_patterns():
    ok = (
        run_check("lucanomial-positive", bounds={"max_n": 8}).passed
        and run_check("st-catalan", bounds={"max_n": 8}).passed
        and run_check("pattern-pairs", bounds={"max_n": 7}).passed
    )
    _criterion(7, "Lucas binomials, Catalan analogue identity n<=8, pattern pairs n<=7", ok)


def test_criterion_8_property_suites():
    ok = (
        run_check("reverse-complement", bounds={"max_len": 12}).passed
        and run_check("macmahon", bounds={"max_size": 8}).passed
        and run_check("excess-pairing", bounds={"max_n": 6}).passed
    )
    # ring axioms on deterministic pseudo-random sparse operands
    import random

    from mahonian.laurent import Laurent, ZERO

    rng = random.Random(20240817)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(-3, 3) for _ in range(4))
            terms[e] = rng.randint(-9, 9)
        return Laurent(terms)

    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if (a + b) + c != a + (b + c):
            ok = False
        if a * (b + c) != a * b + a * c:
            ok = False
        if a * b != b * a:
            ok = False
        if (a * b) * c != a * (b * c):
            ok = False
        if a + (-a) != ZERO or a * ONE != a:
            ok = False
    _criterion(8, "standalone property suites: involution laws, MacMahon, pairing, ring axioms", ok)


def test_criterion_9_profiles():
    from mahonian.cli import main

    start = time.perf_counter()
    quick_exit = main(["verify", "--all", "--profile", "quick"])
    quick_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    full = run_suite("full")
    full_elapsed = time.perf_counter() - start
    ok = (
        quick_exit == 0
        and all(r.passed for r in full)
        and quick_elapsed < 10.0
        and full_elapsed < 600.0
    )
    _criterion(
        9,
        f"verify --all quick {quick_elapsed:.1f}s (< 10s), full profile {full_elapsed:.1f}s (< 600s)",
        ok,
    )
