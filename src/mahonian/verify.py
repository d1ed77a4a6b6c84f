"""Registry of executable checks, one per named identity or bijection
theorem, each exhaustively verified at caller-chosen desk-scale bounds.

A check is a function whose parameters are its bounds.  Each bound is
declared once, in its registration's bounds table, as the (quick, full)
pair of values the two profiles run it at.  A check returns normally
when the identity holds at those bounds and raises
Counterexample(witness) when it does not; the witness is a concrete
word, partition or monomial that reproduces the failure in isolation.
run_check turns either outcome, or any other exception, into a
PairReport.  Reports are deterministic functions of (check, bounds).

Some checks compare deliberately independent routes to the same object:
foata_binary and foata_inverse_binary against the staged construction,
divide_exact quotients against the Gaussian-binomial side, and the
enumerated, recursive and closed-form Fibonacci polynomials.  These
routes are oracles for each other, not duplication; keep them separate.

The genfun families are computed without division or enumeration
(dense q-products, a ballot-path dynamic program, a Lucas Pascal
recurrence), so the checks that read them also hold them against the
slow routes:

- catalan-q1: q_binomial(2n, n) against the factorial quotient
  [2n]!/[n]!^2, catalan_qt(n) against maj/des over ballot_words(n, n),
  then the identity itself, algebra against algebra.
- catalan-square-q: each catalan_nd_q(n, d) against inv over
  ballot_words(n-d, d), then the square-weighted sum.
- lucanomial-positive: every lucanomial(n, k) against the quotient
  {n}!/({k}!{n-k}!) by divide_exact, then positivity and the
  specializations.
- rank-catalan-qt reads catalan_qt against partitions in a box, and
  catalan-four-term reads the dynamic program alone.

Some checks walk a generating tree instead of enumerating each size anew:

- maj-inv-foata, foata-roundtrip, foata-binary-forms, maj-des-durfee,
  excess-rank-lemma, fib-preimage-runs, fib-dual-mirror and
  infinite-pair-images each walk one foata_tree, every word up to the
  bound in one stream.  Their first witness is the first failing word in
  lexicographic preorder (each word before its extensions), not the
  shortest one.
- foata-roundtrip and foata-binary-forms peel every edge back to its
  parent's image; foata_inverse is the fold of foata_peel, so that is the
  round trip for every word by induction on length.
- pattern-pairs grows its classes by inserting the maximum
  (words.avoiders) and holds each against pattern_class, a lexicographic
  prefix walk that drops every prefix containing a pattern, up to n = 5.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import namedtuple

from . import bijections as B
from .foata import (
    foata,
    foata_binary,
    foata_inverse,
    foata_inverse_binary,
    foata_peel,
    foata_trace,
    foata_tree,
)
from . import genfun as G
from . import partitions as P
from . import words as W
from .laurent import ONE, ZERO, Laurent, Q, monomial

# ---------------------------------------------------------------------------
# reports


class Counterexample(Exception):
    """Raised by a check that fails; the message is the witness."""


class PairReport(
    namedtuple(
        "PairReport",
        "check params verdict witness millis established",
        defaults=(None, 0.0, True),
    )
):
    """The outcome of one check at one set of bounds; verdict is "pass",
    "fail" or "error"."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "params": dict(self.params),
            "verdict": self.verdict,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if not self.established:
            out["note"] = "empirical: adapted statement, supported by enumeration only"
        return out


# bounds maps fn's parameters, in order, to their values per profile,
# (quick, full) in PROFILES order
CheckDef = namedtuple("CheckDef", "doc fn bounds established", defaults=(True,))


CHECKS: dict[str, CheckDef] = {}


def _register(name, doc, bounds, established=True):
    def deco(fn):
        CHECKS[name] = CheckDef(doc, fn, bounds, established)
        return fn

    return deco


def _check_polys(left: Laurent, right: Laurent, label: str) -> None:
    """Raise Counterexample at the first monomial whose coefficients differ."""
    if left == right:
        return
    for e in sorted(set(left.terms) | set(right.terms)):
        lc, rc = left.terms.get(e, 0), right.terms.get(e, 0)
        if lc != rc:
            mono = str(Laurent({e: 1}))
            prefix = f"{label}: " if label else ""
            witness = f"{prefix}coefficient of {mono} is {lc} on the left, {rc} on the right"
            raise Counterexample(witness)
    raise AssertionError("unreachable")


def _check_sets(left: set, right: set, fmt, label: str) -> None:
    """Raise Counterexample at the least element in only one of the sets."""
    if left == right:
        return
    extra = sorted(fmt(x) for x in left - right)
    missing = sorted(fmt(x) for x in right - left)
    if extra:
        raise Counterexample(f"{label}: {extra[0]} is in the left set only")
    raise Counterexample(f"{label}: {missing[0]} is in the right set only")


def _check_image(family, ones: int, twos: int, member, label: str) -> set:
    """Raise Counterexample unless the image of family under the
    fundamental bijection is exactly the rearrangements of 1^ones 2^twos
    satisfying member; return the image."""
    image = {foata(v) for v in family}
    target = {w for w in W.permutations_of((1,) * ones + (2,) * twos) if member(w)}
    _check_sets(image, target, W.format_word, label)
    return image


def check_mahonian_pair(S, T, label: str = "") -> None:
    """Compare the maj distribution over S with the inv distribution over T.

    Both streams must be finite.  Returns None when the distributions are
    equal and raises Counterexample naming the first differing
    coefficient otherwise.
    """
    left = G.distribution(S, {"q": W.maj})
    right = G.distribution(T, {"q": W.inv})
    _check_polys(left, right, label)


# ---------------------------------------------------------------------------
# the fundamental bijection


@_register(
    "foata-worked-example",
    "seven-stage construction of the image of 2121312, with factorizations",
    bounds={},
)
def _chk_worked_example():
    expected = [
        ("2", ("2",)),
        ("21", ("2", "1")),
        ("212", ("2", "12")),
        ("2211", ("2", "2", "1", "1")),
        ("22113", ("2", "2", "113")),
        ("223111", ("2", "2", "31", "1", "1")),
        ("2213112", None),
    ]
    v = W.parse_word("2121312")
    trace = foata_trace(v)
    got = [
        (
            W.format_word(st),
            None if fs is None else tuple(W.format_word(f) for f in fs),
        )
        for st, fs in trace
    ]
    if got != expected:
        raise Counterexample(f"trace was {got}")
    if foata_inverse(W.parse_word("2213112")) != v:
        raise Counterexample("inverse of 2213112 is not 2121312")


@_register(
    "maj-inv-foata",
    "maj v = inv(image of v) on all small binary and ternary words",
    bounds={"binary_len": (10, 14), "ternary_len": (6, 9)},
)
def _chk_maj_inv(binary_len, ternary_len):
    for alphabet, cap in (((1, 2), binary_len), ((1, 2, 3), ternary_len)):
        for v, w in foata_tree(alphabet, cap):
            if W.maj(v) != W.inv(w):
                raise Counterexample(f"v={W.format_word(v)}")
            if sorted(w) != sorted(v):
                raise Counterexample(f"letters not preserved at v={W.format_word(v)}")


@_register(
    "foata-roundtrip",
    "inverse(image(v)) = v on all small ternary words",
    bounds={"ternary_len": (6, 9)},
)
def _chk_roundtrip(ternary_len):
    # the inverse is the fold of the peel, so peeling each edge back to its
    # parent proves the round trip for every word by induction on length
    path: list = []  # path[i] is the image of v[:i]
    for v, w in foata_tree((1, 2, 3), ternary_len):
        del path[len(v) :]
        if v and foata_peel(w) != (path[-1], v[-1]):
            raise Counterexample(f"v={W.format_word(v)}")
        path.append(w)


@_register(
    "foata-binary-forms",
    "closed form, rewriting rules, and the binary peeling inverse all agree "
    "with the staged construction on binary words",
    bounds={"max_len": (10, 14)},
)
def _chk_binary_forms(max_len):
    # the rewriting rules are read off each node's parent and grandparent
    # images: v2 -> w2, v11 -> 1 w1 and v21 -> 2 w 1, with w the image of v
    path: list = []  # path[i] is the image of x[:i]
    for x, w in foata_tree((1, 2), max_len):
        del path[len(x) :]
        if foata_binary(x) != w:
            raise Counterexample(f"closed form differs at v={W.format_word(x)}")
        if foata_inverse_binary(w) != x:
            raise Counterexample(f"binary inverse differs at w={W.format_word(w)}")
        if x:
            parent = path[-1]
            if foata_peel(w) != (parent, x[-1]):
                raise Counterexample(f"peel differs at w={W.format_word(w)}")
            if x[-1] == 2 and w != parent + (2,):
                raise Counterexample(f"rule w2 fails at {W.format_word(x[:-1])}")
            if x[-2:] == (1, 1) and w != (1,) + parent:
                raise Counterexample(f"rule w11 fails at {W.format_word(x[:-2])}")
            if x[-2:] == (2, 1) and w != (2,) + path[-2] + (1,):
                raise Counterexample(f"rule w21 fails at {W.format_word(x[:-2])}")
        path.append(w)


@_register(
    "macmahon",
    "maj and inv are equidistributed over every rearrangement class of "
    "small multisets on {1,2,3} and over the symmetric groups",
    bounds={"max_size": (6, 8), "max_perm_n": (5, 7)},
)
def _chk_macmahon(max_size, max_perm_n):
    for total in range(max_size + 1):
        for c1 in range(total + 1):
            for c2 in range(total - c1 + 1):
                c3 = total - c1 - c2
                base = (1,) * c1 + (2,) * c2 + (3,) * c3
                check_mahonian_pair(
                    W.permutations_of(base), W.permutations_of(base), W.format_word(base)
                )
    for n in range(max_perm_n + 1):
        check_mahonian_pair(W.symmetric_group(n), W.symmetric_group(n), f"permutations of 1..{n}")


@_register(
    "reverse-complement",
    "reverse-complement is an involution preserving inv and des and "
    "sending maj to n*des - maj, so it carries the no-adjacent-ones maj/des "
    "polynomial to the no-adjacent-twos one under q -> 1/q, t -> q^n t",
    bounds={"max_len": (9, 12)},
)
def _chk_prime(max_len):
    for n in range(max_len + 1):
        for y in itertools.product((1, 2), repeat=n):
            yp = W.reverse_complement(y)
            if W.reverse_complement(yp) != y:
                raise Counterexample(f"not an involution at {W.format_word(y)}")
            if W.inv(yp) != W.inv(y) or W.des(yp) != W.des(y):
                raise Counterexample(f"inv/des not preserved at {W.format_word(y)}")
            if W.maj(yp) != n * W.des(y) - W.maj(y):
                raise Counterexample(f"maj law fails at {W.format_word(y)}")
        # reverse-complement maps the no-adjacent-ones words onto the no-adjacent-twos words
        lhs = G.distribution(W.fibonacci_dual_words(n), {"q": W.maj, "t": W.des})
        rhs = G.fib_poly(n).substitute({"q": Q**-1, "t": monomial(1, q=n, t=1)})
        _check_polys(lhs, rhs, f"no-adjacent-twos polynomial at n={n}")


# ---------------------------------------------------------------------------
# the word/partition dictionary


@_register(
    "lattice-path",
    "the path partition has size inv(w), conjugates with reverse-complement, "
    "and round-trips with the boundary word",
    bounds={"max_total": (9, 12)},
)
def _chk_lattice(max_total):
    for n in range(max_total + 1):
        for w in itertools.product((1, 2), repeat=n):
            lam = P.partition_of_word(w)
            if P.size(lam) != W.inv(w):
                raise Counterexample(f"size differs at w={W.format_word(w)}")
            if P.partition_of_word(W.reverse_complement(w)) != P.conjugate(lam):
                raise Counterexample(f"conjugate law fails at w={W.format_word(w)}")
            ones = [i for i, a in enumerate(w) if a == 1][::-1]
            twos = [i for i, a in enumerate(w) if a == 2]
            deepest = 0
            for i in range(min(len(ones), len(twos))):
                if twos[i] < ones[i]:
                    deepest = i + 1
            if P.durfee(lam) != deepest:
                raise Counterexample(f"durfee law fails at w={W.format_word(w)}")
    for lam in P.partitions_in_box(5, 5):
        if P.partition_of_boundary(P.boundary_word(lam)) != lam:
            raise Counterexample(f"boundary round-trip fails at {P.format_partition(lam)}")


@_register(
    "maj-des-durfee",
    "maj v is the size and des v the Durfee side of the path partition of "
    "the image of v",
    bounds={"max_len": (9, 12)},
)
def _chk_maj_des_durfee(max_len):
    for v, w in foata_tree((1, 2), max_len):
        lam = P.partition_of_word(w)
        if W.maj(v) != P.size(lam) or W.des(v) != P.durfee(lam):
            raise Counterexample(f"v={W.format_word(v)}")


@_register(
    "excess-pairing",
    "max prefix two-excess equals n minus the pair count on rearrangements "
    "of 1^n 2^n, and the ballot words are exactly those with excess <= 0",
    bounds={"max_n": (4, 6)},
)
def _chk_excess_pairing(max_n):
    for n in range(max_n + 1):
        for w in W.permutations_of((1,) * n + (2,) * n):
            e, p = W.excess_profile(w)[1], len(W.match_pairs(w)[0])
            if e != n - p:
                raise Counterexample(f"w={W.format_word(w)}: e={e}, pairs={p}")
            if W.is_ballot(w) != (e <= 0):
                raise Counterexample(f"ballot test fails at w={W.format_word(w)}")


@_register(
    "excess-rank-lemma",
    "prefix excesses of v match the successive ranks of the image's path "
    "partition, shifted by one",
    bounds={"max_len": (9, 12)},
)
def _chk_excess_rank(max_len):
    for v, w in foata_tree((1, 2), max_len):
        lam = P.partition_of_word(w)
        rho = P.ranks(lam)
        d = P.durfee(lam)
        evec, e = W.excess_profile(v)
        if W.des(v) != d:
            raise Counterexample(f"descents differ at v={W.format_word(v)}")
        for i in range(d):
            if evec[i] != rho[d - i - 1] + 1:
                raise Counterexample(f"coordinate {i} fails at v={W.format_word(v)}")
        if d >= 1:
            r = max(rho)
            if e < r + 1:
                raise Counterexample(f"inequality fails at v={W.format_word(v)}")
            if evec[d] < e and e != r + 1:
                raise Counterexample(f"equality case fails at v={W.format_word(v)}")


# ---------------------------------------------------------------------------
# ballot words and the Catalan layer


def _path_ranks_negative(w):
    return P.rank_negative(P.partition_of_word(w))


@_register(
    "ballot-rank-image",
    "the image of the square ballot words is exactly the words whose path "
    "partition has all ranks negative",
    bounds={"max_n": (4, 6)},
)
def _chk_ballot_image(max_n):
    for n in range(max_n + 1):
        img = _check_image(W.ballot_words(n, n), n, n, _path_ranks_negative, f"n={n}")
        check_mahonian_pair(W.ballot_words(n, n), img, f"n={n} pair with image")


def _ballot_preimage_condition(v, k, l):
    """The run-exponent inequalities under which a rearrangement v of
    1^k 2^l has a ballot image; the excess k - l enters the two's side."""
    om, ta = W.ones_twos_compositions(v)
    return B.suffix_sums_reach(om, 0) and B.suffix_sums_reach(ta, 1 + k - l)


def _check_ballot_preimages(k, l, prefix):
    """Raise Counterexample at the first rearrangement v of 1^k 2^l where
    a ballot image and the preimage condition disagree."""
    for v in W.permutations_of((1,) * k + (2,) * l):
        if W.is_ballot(foata(v)) != _ballot_preimage_condition(v, k, l):
            raise Counterexample(f"{prefix}v={W.format_word(v)}")


@_register(
    "ballot-preimage-conditions",
    "the image of v is a square ballot word iff the run exponents satisfy "
    "the dominance inequalities",
    bounds={"max_n": (4, 6)},
)
def _chk_ballot_preimage(max_n):
    for n in range(max_n + 1):
        _check_ballot_preimages(n, n, "")


@_register(
    "ballot-rect-image",
    "rectangular version of the ballot image theorem (at least as many "
    "ones as twos)",
    bounds={"max_total": (8, 12)},
)
def _chk_rect_image(max_total):
    for total in range(max_total + 1):
        for l in range(total // 2 + 1):
            k = total - l
            _check_image(W.ballot_words(k, l), k, l, _path_ranks_negative, f"k={k},l={l}")


@_register(
    "ballot-rect-preimage",
    "rectangular version of the ballot preimage conditions, with the "
    "excess k-l entering the two's inequality",
    bounds={"max_total": (8, 12)},
)
def _chk_rect_preimage(max_total):
    for total in range(max_total + 1):
        for l in range(total // 2 + 1):
            k = total - l
            _check_ballot_preimages(k, l, f"k={k}, l={l}, ")


@_register(
    "rank-catalan-qt",
    "size and Durfee side over all-ranks-negative partitions in the square "
    "box generate the q,t-Catalan polynomial",
    bounds={"max_n": (4, 6)},
)
def _chk_rank_catalan(max_n):
    for n in range(max_n + 1):
        lhs = G.distribution(
            P.rank_negative_in_box(n, n), {"q": P.size, "t": P.durfee}
        )
        _check_polys(lhs, G.catalan_qt(n), f"n={n}")
        lhs_q = lhs.substitute({"t": ONE})
        rhs_q = G.q_binomial(2 * n, n).divide_exact(G.q_int(n + 1))
        _check_polys(lhs_q, rhs_q, f"n={n}, t=1")


@_register(
    "catalan-q1",
    "the t = 1 Catalan polynomial is the Gaussian binomial over [n+1]",
    bounds={"max_n": (4, 7)},
)
def _chk_catalan_q1(max_n):
    for n in range(max_n + 1):
        qt = G.catalan_qt(n)
        qb = G.q_binomial(2 * n, n)
        lhs = qt.substitute({"t": ONE})
        rhs = qb.divide_exact(G.q_int(n + 1))
        _check_polys(lhs, rhs, f"n={n}")
        quotient = G.q_factorial(2 * n).divide_exact(G.q_factorial(n) ** 2)
        _check_polys(qb, quotient, f"n={n}, [2n]!/[n]!^2")
        enumerated = G.distribution(W.ballot_words(n, n), {"q": W.maj, "t": W.des})
        _check_polys(qt, enumerated, f"n={n}, ballot words")


@_register(
    "catalan-square-q",
    "the inv Catalan polynomial is the square-weighted sum of triangle "
    "polynomials",
    bounds={"max_n": (4, 7)},
)
def _chk_catalan_square(max_n):
    for n in range(max_n + 1):
        rhs = ZERO
        for d in range(n // 2 + 1):
            tri = G.catalan_nd_q(n, d)
            enumerated = G.distribution(W.ballot_words(n - d, d), {"q": W.inv})
            _check_polys(tri, enumerated, f"n={n}, d={d}, ballot words")
            rhs = rhs + monomial(1, q=d * d) * tri**2
        _check_polys(G.catalan_q(n), rhs, f"n={n}")


@_register(
    "catalan-four-term",
    "the four-term q,t recursion with arguments inverted and twisted",
    bounds={"max_n": (3, 5)},
)
def _chk_catalan_four_term(max_n):
    for n in range(1, max_n + 1):
        sub = {"q": Q**-1, "t": monomial(1, q=2 * n, t=1)}
        total = ZERO
        for d in range(n // 2 + 1):
            cm = G.catalan_nd_qt(n - 1, d - 1)
            dm = G.catalan_delta_qt(n, d)
            cs = cm.substitute(sub)
            ds = dm.substitute(sub)
            total = total + monomial(1, q=n, t=1) * cm * cs + cm * ds + dm * cs + dm * ds
        _check_polys(total, G.catalan_qt(n), f"n={n}")


@_register(
    "catalan-triangle-counts",
    "ballot-word counts match the classical triangle of differences of "
    "binomials, and their squares sum to the Catalan numbers",
    bounds={"max_n": (7, 10)},
)
def _chk_triangle(max_n):
    for n in range(max_n + 1):
        total = 0
        for d in range(n // 2 + 1):
            cnt = sum(1 for _ in W.ballot_words(n - d, d))
            oracle = math.comb(n, d) - (math.comb(n, d - 1) if d else 0)
            if cnt != oracle:
                raise Counterexample(f"C({n},{d}) is {cnt}, oracle {oracle}")
            total += cnt * cnt
        catalan = math.comb(2 * n, n) // (n + 1)
        if total != catalan:
            raise Counterexample(f"n={n}: sum of squares {total} != {catalan}")


@_register(
    "composition-maps",
    "the one's/two's composition encodings are bijections onto the ballot "
    "triangle, and their product composed with the inverse fundamental "
    "bijection is the half split",
    bounds={"max_n_comp": (5, 8), "max_n_beta": (4, 6)},
)
def _chk_compositions(max_n_comp, max_n_beta):
    for n in range(max_n_comp + 1):
        for d in range(n // 2 + 1):
            target = set(W.ballot_words(n - d, d))
            os = list(B.ones_compositions(n, d))
            ts = list(B.twos_compositions(n, d))
            o_img = {B.ones_composition_word(c) for c in os}
            t_img = {B.twos_composition_word(c) for c in ts}
            if len(o_img) != len(os) or o_img != target:
                raise Counterexample(f"one's encoding not bijective at n={n}, d={d}")
            if len(t_img) != len(ts) or t_img != target:
                raise Counterexample(f"two's encoding not bijective at n={n}, d={d}")
    for n in range(max_n_beta + 1):
        pairs_by_d: dict[int, set] = {}
        for v in W.permutations_of((1,) * n + (2,) * n):
            if not W.is_ballot(foata(v)):
                continue
            om, ta = W.ones_twos_compositions(v)
            if not (B.is_ones_composition(om) and B.is_twos_composition(ta)):
                raise Counterexample(f"composition of v={W.format_word(v)} out of family")
            if W.word_from_compositions(om, ta) != v:
                raise Counterexample(f"word_from_compositions does not undo v={W.format_word(v)}")
            pairs_by_d.setdefault(W.des(v), set()).add((om, ta))
        for d, got in pairs_by_d.items():
            want = {
                (o, t)
                for o in B.ones_compositions(n, d)
                for t in B.twos_compositions(n, d)
            }
            _check_sets(got, want, str, f"n={n}, d={d}")
        for w in W.ballot_words(n, n):
            v = foata_inverse(w)
            om, ta = W.ones_twos_compositions(v)
            composed = (B.ones_composition_word(om), B.twos_composition_word(ta))
            if composed != B.ballot_split(w):
                raise Counterexample(f"composition differs from split at w={W.format_word(w)}")


@_register(
    "ballot-split",
    "the half split is injective into pairs of ballot words and adds d^2 "
    "inversions",
    bounds={"max_n": (4, 6)},
)
def _chk_split(max_n):
    for n in range(max_n + 1):
        for w in W.ballot_words(n, n):
            x, y = B.ballot_split(w)
            d = sum(1 for a in x if a == 2)
            if not (W.is_ballot(x) and W.is_ballot(y)):
                raise Counterexample(f"split of {W.format_word(w)} not ballot")
            if sum(1 for a in y if a == 2) != d:
                raise Counterexample(f"two-counts differ at {W.format_word(w)}")
            if W.inv(w) != W.inv(x) + W.inv(y) + d * d:
                raise Counterexample(f"inversion law fails at {W.format_word(w)}")
            if B.ballot_unsplit(x, y) != w:
                raise Counterexample(f"ballot_unsplit does not undo the split of {W.format_word(w)}")


@_register(
    "excess-maxrank-pair",
    "words with excess k and words whose path partition has maximum rank "
    "k-1 form a Mahonian pair",
    bounds={"max_n": (4, 6)},
)
def _chk_excess_maxrank(max_n):
    for n in range(max_n + 1):
        for k in range(1, n + 1):
            check_mahonian_pair(W.excess_class(n, k), P.max_rank_class(n, k - 1), f"n={n}, k={k}")


# ---------------------------------------------------------------------------
# Fibonacci families


@_register(
    "fibonacci-counts",
    "the three Fibonacci word families have Fibonacci cardinalities",
    bounds={"max_n": (9, 14)},
)
def _chk_fib_counts(max_n):
    for n in range(max_n + 1):
        a = sum(1 for _ in W.fibonacci_words(n))
        b = sum(1 for _ in W.fibonacci_dual_words(n))
        c = sum(1 for _ in W.letter_sum_words(n))
        if a != G.fibonacci(n + 1):
            raise Counterexample(f"no-11 count at n={n} is {a}")
        if b != G.fibonacci(n + 1):
            raise Counterexample(f"no-22 count at n={n} is {b}")
        if c != G.fibonacci(n):
            raise Counterexample(f"letter-sum count at n={n} is {c}")


@_register(
    "fib-poly-three-way",
    "recursion, enumeration, and the closed form agree for the maj/des "
    "polynomial of no-adjacent-ones words, also after t = 1",
    bounds={"max_n": (7, 12)},
)
def _chk_fib_three_way(max_n):
    for n in range(max_n + 1):
        rec = G.fib_poly(n)
        enum = G.fib_poly_enumerated(n)
        closed = G.fib_poly_closed(n)
        if not (rec == enum == closed):
            raise Counterexample(f"forms differ at n={n}")
        t1 = rec.substitute({"t": ONE})
        rhs = ZERO
        for k in range(n // 2 + 2):
            rhs = rhs + monomial(1, q=k * (k - 1)) * G.q_binomial(n - k + 1, k)
        _check_polys(t1, rhs, f"n={n}, t=1")


@_register(
    "fib-image",
    "the image of no-adjacent-ones words with k ones is cut out by bounds "
    "on the first and last parts of the path partition",
    bounds={"max_n": (8, 12)},
)
def _chk_fib_image(max_n):
    def image_member(w):
        # w is a rearrangement of 1^k 2^(n-k), so its path partition fits
        # the k x (n-k) box and the first-part bound lam_1 <= n-k holds
        k = w.count(1)
        lam = P.partition_of_word(w)
        return k < 2 or (len(lam) == k and lam[k - 1] >= k - 1)

    for n in range(max_n + 1):
        for k in range(n + 1):
            _check_image(W.fibonacci_words(n, ones=k), k, n - k, image_member, f"n={n}, k={k}")


def _no_adjacent(w, letter):
    return all(a != letter or b != letter for a, b in zip(w, w[1:]))


@_register(
    "fib-preimage-runs",
    "preimages of no-adjacent-ones words are cut out by run-length "
    "conditions",
    bounds={"max_n": (8, 12)},
)
def _chk_fib_preimage(max_n):
    def run_conditions(v):
        for value, length, is_pre, is_suf in W.run_decomposition(v):
            if value == 1:
                if is_pre:
                    if length > 1:
                        return False
                elif length > 2:
                    return False
            elif not is_pre and not is_suf and length < 2:
                return False
        return True

    for v, w in foata_tree((1, 2), max_n):
        if _no_adjacent(w, 1) != run_conditions(v):
            raise Counterexample(f"v={W.format_word(v)}")


@_register(
    "fib-dual-mirror",
    "mirrored statements for no-adjacent-twos words: image characterized "
    "by a square-topped path partition and at most one trailing two, "
    "preimage by run conditions",
    bounds={"max_n": (8, 12)},
    established=False,
)
def _chk_fib_dual(max_n):
    def image_member(w):
        lam = P.partition_of_word(w)
        # on a binary word, at most one trailing two
        return w[-2:] != (2, 2) and (not lam or lam[0] == P.durfee(lam))

    def run_conditions(v):
        runs = W.run_decomposition(v)
        last_one = max((i for i, r in enumerate(runs) if r[0] == 1), default=None)
        for i, (value, length, is_pre, is_suf) in enumerate(runs):
            if value == 2:
                if is_pre or is_suf:
                    if length > 1:
                        return False
                elif length > 2:
                    return False
            elif not is_pre and i != last_one and length < 2:
                return False
        return True

    for n in range(max_n + 1):
        for k in range(n + 1):
            _check_image(W.fibonacci_dual_words(n, ones=k), k, n - k, image_member, f"n={n}, k={k}")
    for v, w in foata_tree((1, 2), max_n):
        if _no_adjacent(w, 2) != run_conditions(v):
            raise Counterexample(f"run conditions fail at v={W.format_word(v)}")


@_register(
    "letter-sum-mahonian",
    "words with fixed letter sum are preserved by the fundamental "
    "bijection, so they pair with themselves",
    bounds={"max_total": (9, 14)},
)
def _chk_letter_sum(max_total):
    for n in range(max_total + 1):
        family = list(W.letter_sum_words(n))
        if {foata(v) for v in family} != set(family):
            raise Counterexample(f"family not preserved at n={n}")
        check_mahonian_pair(family, family, f"n={n}")


@_register(
    "carlitz-series",
    "low coefficients of the t = 1 polynomials stabilize to the "
    "Rogers-Ramanujan-type series sum of q^(k^2-k)/(q)_k",
    bounds={"max_coeff": (6, 15)},
)
def _chk_carlitz(max_coeff):
    series = G.carlitz_series(max_coeff)
    # the coefficient of q^j is stable from n = j + 1 on, so both lengths
    # must reach max_coeff + 1 (2 * max_coeff does not at bound 0)
    first = max(2 * max_coeff, max_coeff + 1)
    for n in (first, first + 1):
        f = G.fib_poly(n).substitute({"t": ONE}).truncate("q", max_coeff)
        _check_polys(f, series, f"n={n}")


# ---------------------------------------------------------------------------
# infinite families, rank sieves, and the chain conjugacy


@_register(
    "infinite-pair-images",
    "preimages of the boundary words of all partitions, of the "
    "all-ranks-negative ones, and of the equal-first-parts ones are the "
    "21-suffix, ballot 21-suffix, and 121-suffix families",
    bounds={"max_len": (9, 14)},
)
def _chk_infinite_images(max_len):
    for v, w in foata_tree((1, 2), max_len):
        lam = P.partition_of_boundary(w) if P.is_boundary_word(w) else None
        in_w21 = v == () or v[-2:] == (2, 1)
        if in_w21 != (lam is not None):
            raise Counterexample(f"21-suffix case fails at v={W.format_word(v)}")
        in_b21 = in_w21 and W.is_ballot(v)
        rhs_b = lam is not None and P.rank_negative(lam)
        if in_b21 != rhs_b:
            raise Counterexample(f"ballot case fails at v={W.format_word(v)}")
        in_w121 = v == () or v[-3:] == (1, 2, 1)
        rhs_d = lam is not None and P.delta(lam) == 0
        if in_w121 != rhs_d:
            raise Counterexample(f"121-suffix case fails at v={W.format_word(v)}")


@_register(
    "infinite-pair-wslat",
    "the triple statistic maj/des/excess on each suffix family matches "
    "size/Durfee/(max rank + 1) on the partition side, as Laurent series "
    "in z truncated by boundary length",
    bounds={"max_len": (9, 14)},
)
def _chk_wslat(max_len):
    word_stats = {"q": W.maj, "t": W.des, "z": lambda v: W.excess_profile(v)[1]}
    part_stats = {"q": P.size, "t": P.durfee, "z": lambda lam: P.max_rank(lam) + 1 if lam else 0}
    cases = [
        ("all partitions", W.suffix_words((2, 1), max_len), lambda lam: True),
        ("all ranks negative", W.ballot_suffix_words((2, 1), max_len), P.rank_negative),
        ("equal first parts", W.suffix_words((1, 2, 1), max_len), lambda lam: P.delta(lam) == 0),
    ]
    for label, stream, pred in cases:
        parts = filter(pred, P.partitions_by_boundary_length(max_len))
        _check_polys(G.distribution(stream, word_stats), G.distribution(parts, part_stats), label)


@_register(
    "suffix-family-genfun",
    "maj over the ballot 21-suffix words and over the 121-suffix words "
    "both expand the no-ones partition product",
    bounds={"max_len": (10, 15)},
)
def _chk_suffix_genfun(max_len):
    # every nonempty word here ends in 21, so has a descent: only the empty
    # word has maj 0, and the q^0 coefficient is exact even at max_len 0
    degree = max(max_len - 1, 0)
    product = G.truncated_product(range(2, degree + 1), degree)
    b21 = G.distribution(W.ballot_suffix_words((2, 1), max_len), {"q": W.maj}).truncate(
        "q", degree
    )
    w121 = G.distribution(W.suffix_words((1, 2, 1), max_len), {"q": W.maj}).truncate(
        "q", degree
    )
    _check_polys(b21, product, "ballot 21-suffix side")
    _check_polys(w121, product, "121-suffix side")


@_register(
    "rank-positive-sieve",
    "partitions with all ranks positive are equinumerous with partitions "
    "with no part one, matching the product expansion; conjugation swaps "
    "the rank sign",
    bounds={"degree": (12, 20)},
)
def _chk_rank_positive(degree):
    product = G.truncated_product(range(2, degree + 1), degree)
    for n in range(degree + 1):
        pos, neg = set(), set()
        b = 0
        for p in P.partitions_of(n):
            rho = P.ranks(p)
            if all(r >= 1 for r in rho):
                pos.add(p)
            if all(r <= -1 for r in rho):
                neg.add(p)
            b += (1 not in p)
        a, c = len(pos), product.coefficient(q=n)
        if not (a == b == c):
            raise Counterexample(f"n={n}: counts {a}, {b}, {c}")
        if {P.conjugate(p) for p in pos} != neg:
            raise Counterexample(f"conjugation mismatch at n={n}")


# (M, r) of each sieve: M = 5 gives the two Rogers-Ramanujan products
_RANK_INTERVAL_CASES = ((5, 1), (5, 2), (7, 1), (7, 2), (7, 3))


@_register(
    "rank-interval-sieve",
    "partitions with ranks in [-r+2, M-r-2] are equinumerous with "
    "partitions with no part divisible by or congruent to +-r mod M; "
    "specializing M = n+2, r = 1 recovers the no-part-one sieve",
    bounds={"degree": (12, 20)},
)
def _chk_rank_interval(degree):
    # one pass over the partitions of each n reads ranks(p) once and counts
    # every case; the counts are then compared in case order, n inner, and
    # the reduction case (ranks in [1, n-1] against no part one) last
    counts = []  # per n: each case's count, the reduction count, no-part-one
    for n in range(degree + 1):
        intervals = [(-r + 2, modulus - r - 2) for modulus, r in _RANK_INTERVAL_CASES] + [(1, n - 1)]
        row = [0] * (len(intervals) + 1)
        for p in P.partitions_of(n):
            rho = P.ranks(p)
            for j, (lo, hi) in enumerate(intervals):
                row[j] += all(lo <= x <= hi for x in rho)
            row[-1] += (1 not in p)
        counts.append(row)
    for j, (modulus, r) in enumerate(_RANK_INTERVAL_CASES):
        product = G.truncated_product(P.parts_off_residues(modulus, r, degree), degree)
        for n in range(degree + 1):
            a, b = counts[n][j], product.coefficient(q=n)
            if a != b:
                raise Counterexample(f"M={modulus}, r={r}, n={n}: {a} vs {b}")
    for n in range(degree + 1):
        if counts[n][-2] != counts[n][-1]:
            raise Counterexample(f"reduction case fails at n={n}")


@_register(
    "csv-worked-example",
    "the five-stage rank-reduction chain of (8,8,6,5,2,1), including rank "
    "vectors, boundary words, preimages, and excess vectors",
    bounds={},
)
def _chk_csv_example():
    expected = [
        ((8, 8, 6, 5, 2, 1), (2, 3, 2, 1), 3, 2, "21212221212211", "22122112221121", (2, 3, 4, 3, 2)),
        ((8, 7, 6, 5, 2, 1, 1), (1, 2, 2, 1), 2, 3, "211212221212121", "221221122111221", (2, 3, 3, 2, 1)),
        ((8, 6, 5, 5, 2, 2, 1, 1), (0, 0, 1, 1), 1, 4, "2112112221121221", "2212111221112221", (2, 2, 1, 1, 0)),
        ((8, 5, 4, 4, 3, 2, 2, 1, 1), (-1, -2, -1, 0), 0, 4, "21121121211212221", "21121112211122221", (1, 0, -1, 0, -1)),
        ((8, 4, 3, 3, 3, 3, 2, 2, 1, 1), (-2, -4, -3), -2, 1, "211211211112122221", "111211122111222221", (-2, -3, -1, -2)),
    ]
    trace = B.csv_trace((8, 8, 6, 5, 2, 1))
    if len(trace) != len(expected):
        raise Counterexample(f"chain has {len(trace)} stages")
    for k, (lam, rho, r, i, word, pre, eps) in enumerate(expected):
        st = trace[k]
        got = (
            st["partition"],
            st["rho"],
            st["r"],
            st["i"],
            W.format_word(st["word"]),
            W.format_word(st["preimage"]),
            st["excesses"],
        )
        if got != (lam, rho, r, i, word, pre, eps):
            raise Counterexample(f"stage {k + 1} is {got}")
        if P.size(st["partition"]) != 30:
            raise Counterexample(f"size not preserved at stage {k + 1}")


@_register(
    "csv-bijection",
    "the rank reduction maps equal-first-parts partitions of each size "
    "bijectively onto the all-ranks-negative ones, using max rank + 1 "
    "steps that each drop the maximum rank",
    bounds={"max_size": (12, 22), "count_size": (12, 25)},
    # count_size only bounds the counting comparison
)
def _chk_csv_bijection(max_size, count_size):
    for n in range(count_size + 1):
        d0 = sum(1 for p in P.partitions_of(n) if P.delta(p) == 0)
        rn = sum(1 for p in P.partitions_of(n) if P.rank_negative(p))
        if d0 != rn:
            raise Counterexample(f"counts differ at n={n}: {d0} vs {rn}")
    for n in range(max_size + 1):
        image = set()
        for p in P.partitions_of(n):
            if P.delta(p) != 0:
                continue
            r0 = P.max_rank(p)
            steps = 0
            q = p
            for before, q in itertools.pairwise(B.csv_chain(p)):
                steps += 1
                if P.size(q) != n:
                    raise Counterexample(f"size changes at {P.format_partition(p)}")
                r_before, r_after = P.max_rank(before), P.max_rank(q)
                if r_after is not None and r_after > r_before - 1:
                    raise Counterexample(f"rank fails to drop at {P.format_partition(p)}")
                if r_before > 0 and (r_after is None or r_after != r_before - 1):
                    raise Counterexample(f"rank drop not tight at {P.format_partition(p)}")
            if r0 is not None and r0 >= 0 and steps != r0 + 1:
                raise Counterexample(f"{P.format_partition(p)} took {steps} steps, rank {r0}")
            if q in image:
                raise Counterexample(f"not injective at {P.format_partition(p)}")
            image.add(q)
        target = {p for p in P.partitions_of(n) if P.rank_negative(p)}
        _check_sets(image, target, P.format_partition, f"n={n}")


@_register(
    "csv-gk-conjugacy",
    "the rank reduction equals the chain map conjugated by the fundamental "
    "bijection through boundary words",
    bounds={"max_size": (12, 22)},
)
def _chk_conjugacy(max_size):
    for n in range(max_size + 1):
        for p in P.partitions_of(n):
            if P.delta(p) != 0:
                continue
            v = foata_inverse(P.boundary_word(p))
            if not (v == () or v[-3:] == (1, 2, 1)):
                raise Counterexample(f"preimage of {P.format_partition(p)} not in domain")
            if B.csv_map(p) != B.csv_via_words(p):
                raise Counterexample(f"maps differ at {P.format_partition(p)}")


@_register(
    "gk-bijection",
    "the chain map is a bijection between 121-suffix words and ballot "
    "21-suffix words, and the single flip preserves the pairing",
    bounds={"max_len": (10, 14)},
)
def _chk_gk(max_len):
    for v in W.suffix_words((1, 2, 1), max_len):
        w = B.gk_map(v)
        if w != () and not (W.is_ballot(w) and w[-2:] == (2, 1)):
            raise Counterexample(f"image of {W.format_word(v)} out of codomain")
        if B.gk_inverse(w) != v:
            raise Counterexample(f"round trip fails at v={W.format_word(v)}")
    for w in W.ballot_suffix_words((2, 1), max_len):
        if B.gk_map(B.gk_inverse(w)) != w:
            raise Counterexample(f"round trip fails at w={W.format_word(w)}")
    for n in range(min(max_len, 10) + 1):
        for x in itertools.product((1, 2), repeat=n):
            pairs, _, un2 = W.match_pairs(x)
            if un2 and W.match_pairs(B.flip_rightmost_unpaired_two(x))[0] != pairs:
                raise Counterexample(f"flip changes pairing at {W.format_word(x)}")


@_register(
    "chain-decomposition",
    "the flip chains partition all binary words of each length into "
    "symmetric chains",
    bounds={"max_n": (6, 8)},
)
def _chk_chains(max_n):
    for n in range(max_n + 1):
        seen: dict = {}
        for chain in B.chains(n):
            start, end = chain[0], chain[-1]
            s2 = sum(1 for a in start if a == 2)
            e2 = sum(1 for a in end if a == 2)
            if s2 + e2 != n:
                raise Counterexample(f"chain at {W.format_word(start)} not symmetric")
            for k, w in enumerate(chain):
                if w in seen:
                    raise Counterexample(f"{W.format_word(w)} on two chains")
                seen[w] = True
                if sum(1 for a in w if a == 2) != s2 - k:
                    raise Counterexample(f"chain at {W.format_word(start)} skips a level")
        if len(seen) != 2**n:
            raise Counterexample(f"chains cover {len(seen)} of {2 ** n} words at n={n}")


# ---------------------------------------------------------------------------
# Lucas analogues and pattern classes


@_register(
    "lucanomial-positive",
    "Lucas-sequence binomials are polynomials with nonnegative "
    "coefficients and specialize to fibonomials and Gaussian binomials",
    bounds={"max_n": (6, 8)},
)
def _chk_lucanomial(max_n):
    fib = [0, 1]
    for _ in range(2 * max_n):
        fib.append(fib[-1] + fib[-2])
    facts = [G.lucas_factorial(n) for n in range(max_n + 1)]
    for n in range(max_n + 1):
        for k in range(n + 1):
            poly = G.lucanomial(n, k)
            quotient = facts[n].divide_exact(facts[k] * facts[n - k])
            _check_polys(poly, quotient, f"({n},{k}), {{n}}!/({{k}}!{{n-k}}!)")
            if any(c < 0 for c in poly.terms.values()):
                raise Counterexample(f"negative coefficient in ({n},{k})")
            ones = poly.substitute({"s": ONE, "t": ONE})
            num = den = 1
            for i in range(1, k + 1):
                num *= fib[n - i + 1]
                den *= fib[i]
            if ones != Laurent.const(num // den):
                raise Counterexample(f"fibonomial specialization fails at ({n},{k})")
    for n, k in ((4, 2), (5, 2)):
        got = G.lucanomial(n, k).substitute({"s": ONE + Q, "t": -Q})
        _check_polys(got, G.q_binomial(n, k), f"({n},{k})")


@_register(
    "st-catalan",
    "the Lucas Catalan analogue divides exactly, has nonnegative "
    "coefficients, and satisfies the two-binomial identity",
    bounds={"max_n": (5, 8)},
)
def _chk_st_catalan(max_n):
    for n in range(1, max_n + 1):
        c = G.st_catalan(n)
        if any(coef < 0 for coef in c.terms.values()):
            raise Counterexample(f"negative coefficient at n={n}")
        rhs = G.lucanomial(2 * n - 1, n - 1) + monomial(1, t=1) * G.lucanomial(2 * n - 1, n - 2)
        _check_polys(c, rhs, f"n={n}")


_PATTERN_MAJ_SETS = (
    ((1, 3, 2), (2, 1, 3)),
    ((1, 3, 2), (3, 1, 2)),
    ((2, 1, 3), (2, 3, 1)),
    ((2, 3, 1), (3, 1, 2)),
)
_PATTERN_INV_SETS = (
    ((1, 3, 2), (2, 3, 1)),
    ((1, 3, 2), (3, 1, 2)),
    ((2, 1, 3), (2, 3, 1)),
    ((2, 1, 3), (3, 1, 2)),
)


@_register(
    "pattern-pairs",
    "every avoidance class from the maj list pairs with every class from "
    "the inv list",
    bounds={"max_n": (5, 7)},
)
def _chk_pattern_pairs(max_n):
    def fmt(pats):
        return "{" + ",".join(W.format_word(p) for p in pats) + "}"

    for n in range(max_n + 1):
        classes = {}
        for pats in dict.fromkeys(_PATTERN_MAJ_SETS + _PATTERN_INV_SETS):
            classes[pats] = list(W.avoiders(n, pats))
            if n <= 5:  # the pruned prefix walk as the oracle for the insertion tree
                oracle = set(W.pattern_class(n, pats))
                _check_sets(set(classes[pats]), oracle, W.format_word, f"n={n}, Av{fmt(pats)}")
        majd = [(pats, G.distribution(classes[pats], {"q": W.maj})) for pats in _PATTERN_MAJ_SETS]
        invd = [(pats, G.distribution(classes[pats], {"q": W.inv})) for pats in _PATTERN_INV_SETS]
        for mp, a in majd:
            for ip, b in invd:
                _check_polys(a, b, f"n={n}, maj over Av{fmt(mp)}, inv over Av{fmt(ip)}")


@_register(
    "distribution-transport",
    "maj over an arbitrary finite word set equals inv over its image "
    "(seeded random sets)",
    bounds={"max_len": (10, 12), "samples": (40, 200)},
)
def _chk_transport(max_len, samples):
    rng = random.Random(271828)
    for trial in range(20):
        family = set()
        for _ in range(samples):
            n = rng.randint(0, max_len)
            family.add(tuple(rng.randint(1, 3) for _ in range(n)))
        image = {foata(v) for v in family}
        if len(image) != len(family):
            raise Counterexample(f"image collapsed on trial {trial}")
        check_mahonian_pair(family, image, f"trial {trial}")


# ---------------------------------------------------------------------------
# runners


PROFILES = ("quick", "full")


def _require_profile(profile: str) -> None:
    if profile not in PROFILES:
        raise ValueError(f"profile must be {' or '.join(PROFILES)}, got {profile!r}")


def run_check(name: str, bounds: dict | None = None, profile: str = "quick") -> PairReport:
    """Run one registered check at the profile's bounds, overridden by bounds.

    An unknown check or bound name raises KeyError; an unknown profile and
    a negative bound raise ValueError.  A Counterexample from the
    check gives verdict "fail"; any other exception gives verdict "error",
    with the exception type and message as the witness.
    """
    _require_profile(profile)
    defn = CHECKS[name]
    for key, value in (bounds or {}).items():
        if key not in defn.bounds:
            raise KeyError(f"check {name} has no bound {key!r}")
        if value < 0:
            raise ValueError(f"bound {key} must be nonnegative, got {value}")
    column = PROFILES.index(profile)
    params = {key: pair[column] for key, pair in defn.bounds.items()}
    params.update(bounds or {})
    verdict, witness = "pass", None
    start = time.perf_counter()
    try:
        defn.fn(**params)
    except Counterexample as exc:
        verdict, witness = "fail", str(exc)
    except Exception as exc:
        verdict, witness = "error", f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return PairReport(
        check=name,
        params=params,
        verdict=verdict,
        witness=witness,
        millis=elapsed,
        established=defn.established,
    )


def run_suite(profile: str = "quick", names: list[str] | None = None) -> list[PairReport]:
    """Run the selected checks (all by default) at the profile's bounds,
    reporting in the order given (registry order by default)."""
    _require_profile(profile)
    return [run_check(name, profile=profile) for name in (CHECKS if names is None else names)]
