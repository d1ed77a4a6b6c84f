"""Words over the positive integers and their classical statistics.

A word is any finite sequence of integers >= 1, handled as a plain tuple.
All functions are pure and positions are 1-based throughout (the major
index is a sum of positions, so the convention matters).

The word families are loops, never recursions: rearrangements step by
Algorithm L, and the ballot, Fibonacci and letter-sum families are the
leaves of a prefix tree visited by walk, which the pattern classes (grown
by insertion in avoiders, by pruned prefixes in pattern_class) and the
composition streams (bijections) share.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

Word = tuple[int, ...]


def as_word(letters: Iterable[int]) -> Word:
    w = tuple(letters)
    if w and min(w) < 1:
        bad = next(a for a in w if a < 1)
        raise ValueError(f"letters must be positive integers, got {bad}")
    return w


def parse_word(text: str) -> Word:
    """Parse a digit string ("2121312") or comma-separated form ("10,2,3")."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return as_word(int(p) for p in text.split(","))
    return as_word(int(c) for c in text)


def format_word(w: Sequence[int]) -> str:
    """Digit string when every letter is a single digit, else comma-separated."""
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def require_binary(w: Sequence[int]) -> None:
    if w.count(1) + w.count(2) != len(w):
        raise ValueError(f"word must use only letters 1 and 2: {format_word(w)}")


# ---------------------------------------------------------------------------
# statistics


def descent_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i (1-based, i < len(w)) where w drops: w_i > w_{i+1}."""
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def des(w: Sequence[int]) -> int:
    total = 0
    prev = w[0] if w else 0
    for a in w:
        if prev > a:
            total += 1
        prev = a
    return total


def maj(w: Sequence[int]) -> int:
    total = i = 0
    prev = w[0] if w else 0
    for a in w:
        if prev > a:
            total += i  # prev is w_i in 1-based positions, a is w_(i+1)
        prev = a
        i += 1
    return total


def inv(w: Sequence[int]) -> int:
    """Number of pairs i < j with w_i > w_j.

    One pass per distinct letter c below the largest: each occurrence of
    c adds the number of larger letters read before it, so
    O(len(w) * distinct letters).  On binary and ternary words this beats
    a pass keeping a count per letter seen; on permutations, where every
    letter is distinct, it is about a third slower per call than that
    pass (S_7), a loss the checks streaming permutations (macmahon) more
    than recover through maj.
    """
    total = 0
    for c in sorted(set(w))[:-1]:
        larger = 0
        for a in w:
            if a > c:
                larger += 1
            elif a == c:
                total += larger
    return total


def exc(w: Sequence[int]) -> int:
    """Positions where the word exceeds its weakly increasing rearrangement.

    Strict comparison only; ties at repeated letters never count.
    """
    return sum(1 for a, b in zip(w, sorted(w)) if a > b)


def reverse_complement(w: Sequence[int]) -> Word:
    """Read a binary word backwards while exchanging ones and twos.

    An involution; it preserves inv and des, and sends maj to
    len(w)*des(w) - maj(w).
    """
    require_binary(w)
    return tuple(3 - a for a in reversed(w))


def is_ballot(w: Sequence[int]) -> bool:
    """True iff in every prefix each letter i occurs at least as often as i+1."""
    counts: dict[int, int] = {}
    for a in w:
        n = counts[a] = counts.get(a, 0) + 1
        if a > 1 and n > counts.get(a - 1, 0):
            return False
    return True


def ones_twos_compositions(v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponent vectors of the factorization 1^m0 2^n0 1^m1 2^n1 ... 1^md 2^nd.

    d equals des(v); m0 and nd may vanish, the interior exponents are
    positive.  The empty word yields ((0,), (0,)).
    """
    require_binary(v)
    blocks = [[0, 0]]
    in_twos = False
    for a in v:
        if a == 1:
            if in_twos:
                blocks.append([1, 0])
                in_twos = False
            else:
                blocks[-1][0] += 1
        else:
            in_twos = True
            blocks[-1][1] += 1
    return tuple(m for m, _ in blocks), tuple(n for _, n in blocks)


def word_from_compositions(ones_comp: Sequence[int], twos_comp: Sequence[int]) -> Word:
    """Rebuild 1^m0 2^n0 ... 1^md 2^nd; inverse of ones_twos_compositions."""
    if len(ones_comp) != len(twos_comp):
        raise ValueError("composition lengths differ")
    out: list[int] = []
    for m, n in zip(ones_comp, twos_comp):
        if m < 0 or n < 0:
            raise ValueError("negative exponent")
        out.extend([1] * m)
        out.extend([2] * n)
    return tuple(out)


def match_pairs(w: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Pair ones (openers) with later twos (closers), stack style.

    Returns (pairs, unpaired_one_positions, unpaired_two_positions), all
    1-based.  Every unpaired two precedes every unpaired one.
    """
    require_binary(w)
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    un2: list[int] = []
    for pos, a in enumerate(w, start=1):
        if a == 1:
            stack.append(pos)
        elif stack:
            pairs.append((stack.pop(), pos))
        else:
            un2.append(pos)
    if un2 and stack and un2[-1] > stack[0]:
        raise AssertionError("pairing invariant violated")
    return tuple(pairs), tuple(stack), tuple(un2)


def excess_profile(w: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Prefix excesses of twos over ones, block by block.

    Returns (e_0..e_d, max excess) where e_i is the two-excess of the
    prefix 1^m0 2^n0 ... 1^mi 2^ni.  For rearrangements of 1^n 2^n the
    max equals n minus the pair count of match_pairs.
    """
    om, ta = ones_twos_compositions(w)
    ones_run = twos_run = 0
    evec: list[int] = []
    for m, n in zip(om, ta):
        ones_run += m
        twos_run += n
        evec.append(twos_run - ones_run)
    return tuple(evec), max(evec)


def run_decomposition(w: Sequence[int]) -> tuple[tuple[int, int, bool, bool], ...]:
    """Maximal constant factors as (value, length, is_prefix, is_suffix)."""
    runs: list[tuple[int, int, bool, bool]] = []
    i, n = 0, len(w)
    while i < n:
        j = i
        while j < n and w[j] == w[i]:
            j += 1
        runs.append((w[i], j - i, i == 0, j == n))
        i = j
    return tuple(runs)


# ---------------------------------------------------------------------------
# word families
#
# Fixed-length families stream in lexicographic order with 1 < 2 < ...
# (avoiders alone follows its generating tree); variable-length families
# stream shortest first, then lexicographically.
# No family recurses, so word length is bounded only by memory.


def walk(
    root: Any, branches: Callable[[Any], Iterable[tuple[int, Any]] | None]
) -> Iterator[tuple[Word, Any]]:
    """(word, state) for every leaf of a prefix tree, depth first.

    branches(state) is None at a leaf, and otherwise an iterable of
    (letter, child_state) pairs in the order the children are visited; an
    empty iterable is a dead end.  The iterables are consumed lazily, so a
    child's state is computed just before its subtree is entered.  An
    explicit stack of child iterators and one shared prefix replace
    recursion.
    """
    kids = branches(root)
    if kids is None:
        yield (), root
        return
    prefix: list[int] = []
    stack = [iter(kids)]
    while stack:
        for letter, state in stack[-1]:
            prefix.append(letter)
            kids = branches(state)
            if kids is None:
                yield tuple(prefix), state
                prefix.pop()
            else:
                stack.append(iter(kids))
                break
        else:
            stack.pop()
            del prefix[-1:]  # the root's children were reached by no letter


def permutations_of(w: Sequence[int]) -> Iterator[Word]:
    """All distinct rearrangements of the multiset w, lexicographically.

    Algorithm L (Knuth, TAOCP 7.2.1.2): from the sorted word, swap the
    left letter of the rightmost ascent with the rightmost larger letter
    after it, then reverse the tail.
    """
    a = sorted(w)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


def ballot_words(ones: int, twos: int) -> Iterator[Word]:
    """Ballot rearrangements of 1^ones 2^twos, lexicographically.

    Empty when twos > ones.  ballot_words(n, n) are counted by the
    Catalan numbers.
    """
    if ones < 0 or twos < 0:
        raise ValueError("counts must be nonnegative")
    if twos > ones:
        return iter(())

    def branches(state):
        left1, left2, lead = state  # lead: ones minus twos so far
        if not left1 and not left2:
            return None
        kids = []
        if left1:
            kids.append((1, (left1 - 1, left2, lead + 1)))
        if left2 and lead:
            kids.append((2, (left1, left2 - 1, lead - 1)))
        return kids

    return (w for w, _ in walk((ones, twos, 0), branches))


def _no_repeated(banned: int, n: int, ones: int | None) -> Iterator[Word]:
    """Length-n binary words where the banned letter never follows itself,
    with exactly `ones` ones when given."""
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")

    def branches(state):
        left, prev, need = state  # need: ones still to place, or None
        if need is not None:
            # prune every node without a leaf below it: at most
            # (left + 1) // 2 banned letters fit in the letters left, and
            # left // 2 after a banned letter
            owed = need if banned == 1 else left - need
            if not 0 <= need <= left or owed > (left + (prev != banned)) // 2:
                return ()
        if not left:
            return None
        kids = []
        if (need is None or need > 0) and not (prev == banned == 1):
            kids.append((1, (left - 1, 1, None if need is None else need - 1)))
        if not (prev == banned == 2):
            kids.append((2, (left - 1, 2, need)))
        return kids

    return (w for w, _ in walk((n, 0, ones), branches))


def fibonacci_words(n: int, ones: int | None = None) -> Iterator[Word]:
    """Length-n binary words with no two adjacent ones.

    With ones=k, restrict to words containing exactly k ones.  Counted by
    the Fibonacci numbers (F_{n+1} with F_0 = F_1 = 1).
    """
    return _no_repeated(1, n, ones)


def fibonacci_dual_words(n: int, ones: int | None = None) -> Iterator[Word]:
    """Length-n binary words with no two adjacent twos."""
    return _no_repeated(2, n, ones)


def letter_sum_words(total: int) -> Iterator[Word]:
    """Binary words whose letters sum to the given total, lexicographically.

    Counted by F_total with F_0 = F_1 = 1.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")

    def branches(left):
        if not left:
            return None
        return ((1, left - 1), (2, left - 2)) if left >= 2 else ((1, 0),)

    return (w for w, _ in walk(total, branches))


def excess_class(n: int, k: int) -> Iterator[Word]:
    """Rearrangements of 1^n 2^n whose maximum prefix two-excess equals k.

    The maximum excess lies in [0, n], so any other k is empty at once.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= k <= n:
        return iter(())
    return (w for w in permutations_of((1,) * n + (2,) * n) if excess_profile(w)[1] == k)


def suffix_words(suffix: Sequence[int], max_len: int) -> Iterator[Word]:
    """The empty word plus every binary word ending in the given suffix,
    up to max_len letters (the family is infinite, so the cap is required)."""
    if max_len is None:
        raise ValueError("length cap required for an infinite family")
    if max_len < 0:
        raise ValueError(f"length cap must be nonnegative, got {max_len}")
    v = as_word(suffix)
    require_binary(v)
    heads = (u for k in range(max_len - len(v) + 1) for u in itertools.product((1, 2), repeat=k))
    # an empty suffix ends every word, so its first head is the empty word
    return itertools.chain([()] if v else [], (u + v for u in heads))


def ballot_suffix_words(suffix: Sequence[int], max_len: int) -> Iterator[Word]:
    return (w for w in suffix_words(suffix, max_len) if is_ballot(w))


def symmetric_group(n: int) -> Iterator[Word]:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return itertools.permutations(range(1, n + 1))


def pattern_class(n: int, patterns: Iterable[Sequence[int]]) -> Iterator[Word]:
    """Permutations of 1..n avoiding every listed pattern, lexicographically.

    A prefix walk that prunes: a prefix containing a listed pattern is
    dropped with its whole subtree, since every extension contains it
    too.  The parent prefix already avoids every pattern, so only the
    occurrences ending at the new letter are examined.  This is the
    filter route that avoiders is held against, so it shares none of
    avoiders' insertion tree.
    """
    pats = _permutation_patterns(n, patterns)
    if () in pats:
        return iter(())  # every permutation contains the empty pattern
    # per pattern: letters before its last, how many of them lie below
    # it, and its shape
    ends = [(len(p) - 1, p[-1] - 1, _shape(p)) for p in pats]

    def ends_occurrence(prefix, a):
        below = sum(1 for b in prefix if b < a)
        return any(
            _shape(head + (a,)) == shape
            for k, low, shape in ends
            if low <= below and k - low <= len(prefix) - below
            for head in itertools.combinations(prefix, k)
        )

    def branches(state):
        prefix, left = state
        if not left:
            return None
        return (
            (a, (prefix + (a,), left[:i] + left[i + 1 :]))
            for i, a in enumerate(left)
            if not ends_occurrence(prefix, a)
        )

    return (perm for _, (perm, _) in walk(((), tuple(range(1, n + 1))), branches))


def _permutation_patterns(n: int, patterns: Iterable[Sequence[int]]) -> list[Word]:
    """The patterns as words, each checked to be a permutation of 1..k,
    for permutations of a nonnegative length n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    pats = [as_word(p) for p in patterns]
    if any(sorted(p) != list(range(1, len(p) + 1)) for p in pats):
        raise ValueError("pattern must be a permutation of 1..k")
    return pats


def _shape(w: Sequence[int]) -> Word:
    """Positions of w's letters in increasing order of letter; two words of
    distinct letters are order-isomorphic iff their shapes agree."""
    return tuple(sorted(range(len(w)), key=w.__getitem__))


def avoiders(n: int, patterns: Iterable[Sequence[int]]) -> Iterator[Word]:
    """The permutations of 1..n avoiding every listed pattern, in
    generating-tree order (not lexicographic; pattern_class is).

    Deleting the maximum keeps a permutation avoiding, so every avoider
    of length k comes from exactly one avoider of length k-1 by inserting
    k (West, Discrete Math. 146, 1995).  The walk inserts k only where it
    completes no occurrence, and an occurrence it completes must run
    through k in the place of the pattern's own maximum, so only the
    letters around that place are examined.
    """
    pats = _permutation_patterns(n, patterns)
    if () in pats:
        return iter(())  # every permutation contains the empty pattern
    rules = []  # per pattern: letters left and right of its maximum, shape of the rest
    for p in pats:
        j = p.index(len(p))
        rules.append((j, len(p) - 1 - j, _shape(p[:j] + p[j + 1 :])))

    def completes(perm, i):
        return any(
            _shape(left + right) == shape
            for j, rest, shape in rules
            for left in itertools.combinations(perm[:i], j)
            for right in itertools.combinations(perm[i:], rest)
        )

    def branches(perm):
        if len(perm) == n:
            return None
        top = (len(perm) + 1,)
        return (
            (i, perm[:i] + top + perm[i:]) for i in range(len(perm) + 1) if not completes(perm, i)
        )

    return (perm for _, perm in walk((), branches))
