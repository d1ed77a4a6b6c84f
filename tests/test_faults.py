"""Fault injection: break one library function and pin which quick checks
catch it, with the witness each one reports.

A fault replaces every loaded mahonian.* attribute that is the target
function, since verify and bijections import functions by name and the
package re-exports them (the attribute mahonian.foata is the function,
not the module, so modules are reached through sys.modules).
"""

from __future__ import annotations

import sys

import pytest

from mahonian import laurent
from mahonian import partitions as P
from mahonian.verify import run_suite


def _inject(monkeypatch, module: str, name: str, wrap) -> None:
    """Replace module.name, wherever a mahonian module binds it, with
    wrap(original)."""
    original = getattr(sys.modules[module], name)
    faulty = wrap(original)
    for modname, mod in list(sys.modules.items()):
        if modname == "mahonian" or modname.startswith("mahonian."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, faulty)
    assert getattr(sys.modules[module], name) is faulty


def _weaker_suffix_sums(reach):
    # every suffix-sum bound one lower: acc >= 2i - slack - 1
    return lambda comp, slack: reach(comp, slack + 1)


def _rank_zero_admitted(_):
    return lambda p: P.all_ranks(p, lambda r: r <= 0)


def _rotating_step(step):
    # the image rotated left by one when the parent has 8 or more letters,
    # starts with 2, and a = 1: only words with three letter values reach
    # the general step, so only distribution-transport sees it at quick
    def faulty(w, a, **kw):
        out = step(w, a, **kw)
        return out[1:] + out[:1] if len(w) >= 8 and w[0] == 2 and a == 1 else out

    return faulty


def _shift_drops_t(mul_into):
    # a one-term factor shifts its partner as if its t exponent were 0
    def faulty(out, a, b):
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((k, c),) = a.items()
            e0, _, e2, e3 = laurent._unpack(k)
            a = {laurent._pack((e0, 0, e2, e3)): c}
        return mul_into(out, a, b)

    return faulty


def _first_field_grouped(group):
    # substitute's terms grouped by the first mapped variable's field
    # only, so the other mapped fields stay in the residuals, as exponent 0
    # of their targets
    return lambda terms, indices: group(terms, indices[:1])


def _late_descent(step):
    # from position 5 on, a descent is credited one position late
    def faulty(position, twos, last):
        return step(position + (position >= 5), twos, last)

    return faulty


def _keyed_by_length(powers):
    # the power tables looked up by the target's number of terms, so -q,
    # 1 and 1/q share a table: the first target to need the length wins
    cache = {}

    def faulty(target, m):
        table = cache.get(len(target.terms), ())
        if len(table) <= m:
            table = cache[len(target.terms)] = powers(target, m)
        return table

    return faulty


_FAULTS = {
    "suffix-sums-weakened": (
        "mahonian.bijections",
        "suffix_sums_reach",
        _weaker_suffix_sums,
        {
            ("ballot-preimage-conditions", "v=21"),
            ("ballot-rect-preimage", "k=1, l=1, v=21"),
            ("composition-maps", "one's encoding not bijective at n=2, d=1"),
        },
    ),
    "rank-negative-admits-zero": (
        "mahonian.partitions",
        "rank_negative",
        _rank_zero_admitted,
        {
            ("ballot-rank-image", "n=1: 21 is in the right set only"),
            ("ballot-rect-image", "k=1,l=1: 21 is in the right set only"),
            ("rank-catalan-qt", "n=1: coefficient of q*t is 1 on the left, 0 on the right"),
            ("infinite-pair-images", "ballot case fails at v=11122221"),
            ("infinite-pair-wslat", "all ranks negative: coefficient of q*t*z is 0 on the left, 1 on the right"),
            ("csv-worked-example", "chain has 4 stages"),
            ("csv-bijection", "counts differ at n=1: 0 vs 1"),
            ("csv-gk-conjugacy", "maps differ at (2,2)"),
        },
    ),
    "foata-step-rotates-long-2-words": (
        "mahonian.foata",
        "foata_step",
        _rotating_step,
        {("distribution-transport", "trial 0: coefficient of q^10 is 1 on the left, 0 on the right")},
    ),
    "one-term-shift-drops-t": (
        "mahonian.laurent",
        "_mul_into",
        _shift_drops_t,
        {
            ("reverse-complement", "no-adjacent-twos polynomial at n=2: coefficient of q^-1 is 0 on the left, 1 on the right"),
            ("catalan-four-term", "n=3: coefficient of q^-2 is 1 on the left, 0 on the right"),
            ("fib-poly-three-way", "forms differ at n=2"),
            ("lucanomial-positive", "(4,2): coefficient of 1 is 6 on the left, 1 on the right"),
            ("rank-catalan-qt", "n=2: coefficient of q^2 is 0 on the left, 1 on the right"),
            ("catalan-q1", "n=2, ballot words: coefficient of q^2 is 1 on the left, 0 on the right"),
        },
    ),
    "substitute-clears-one-field": (
        "mahonian.laurent",
        "_group",
        _first_field_grouped,
        {
            ("reverse-complement", "no-adjacent-twos polynomial at n=2: coefficient of q^-1*t is 0 on the left, 1 on the right"),
            ("catalan-four-term", "n=3: coefficient of q^-2*t is 1 on the left, 0 on the right"),
            ("lucanomial-positive", "fibonomial specialization fails at (3,1)"),
        },
    ),
    "late-descent-credit": (
        "mahonian.genfun",
        "_maj_des_step",
        _late_descent,
        {
            ("rank-catalan-qt", "n=4: coefficient of q^5*t is 1 on the left, 0 on the right"),
            ("catalan-q1", "n=4: coefficient of q^5 is 0 on the left, 1 on the right"),
        },
    ),
    "powers-keyed-by-length": (
        "mahonian.laurent",
        "_powers",
        _keyed_by_length,
        {
            ("reverse-complement", "no-adjacent-twos polynomial at n=2: coefficient of q^-2 is 0 on the left, 1 on the right"),
            ("rank-catalan-qt", "n=2, t=1: coefficient of q is 1 on the left, 0 on the right"),
            ("catalan-q1", "n=2: coefficient of q is 1 on the left, 0 on the right"),
            ("catalan-four-term", "n=3: coefficient of q^-3 is 1 on the left, 0 on the right"),
            ("fib-poly-three-way", "n=2, t=1: coefficient of 1 is 3 on the left, 2 on the right"),
            ("lucanomial-positive", "(4,2): coefficient of 1 is 6 on the left, 1 on the right"),
        },
    ),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_quick_profile_catches_fault(monkeypatch, fault):
    module, name, wrap, caught = _FAULTS[fault]
    # an empty power cache, so no table built before or under the fault
    # is read, and none built under it outlives the test
    monkeypatch.setattr(laurent, "_POWERS", {})
    _inject(monkeypatch, module, name, wrap)
    reports = run_suite("quick")
    assert {(r.check, r.witness) for r in reports if not r.passed} == caught
    assert all(r.verdict == "fail" for r in reports if not r.passed)
