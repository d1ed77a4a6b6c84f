"""Name-addressable enumerators for every word and partition family,
used by the command line and by table-driven tests.

Each entry is (usage, stream, format): stream maps positional string
parameters to a finite stream, and format renders one of its items.
stream's signature is the one statement of how many parameters a family
takes; usage is shown when a call does not fit it.  Infinite families
take an explicit cap as their last parameter.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from . import partitions as P
from . import words as W


def _perms(word: str) -> Iterator:
    return W.permutations_of(W.parse_word(word))


def _ballot(ones: str, twos: str | None = None) -> Iterator:
    return W.ballot_words(int(ones), int(ones if twos is None else twos))


def _fib(n: str, k: str | None = None) -> Iterator:
    return W.fibonacci_words(int(n), None if k is None else int(k))


def _fib_dual(n: str, k: str | None = None) -> Iterator:
    return W.fibonacci_dual_words(int(n), None if k is None else int(k))


def _avoid(n: str, *patterns: str) -> Iterator:
    return W.pattern_class(int(n), [W.parse_word(p) for p in patterns])


FAMILIES: dict[str, tuple[str, Callable[..., Iterator], Callable[..., str]]] = {
    "perms": ("rearrangements of a word: perms 2121312", _perms, W.format_word),
    "ballot": ("ballot words: ballot N or ballot ONES TWOS", _ballot, W.format_word),
    "fib": ("no adjacent ones: fib N [ONES]", _fib, W.format_word),
    "fib-dual": ("no adjacent twos: fib-dual N [ONES]", _fib_dual, W.format_word),
    "letter-sum": ("binary words with letter sum N: letter-sum N", lambda n: W.letter_sum_words(int(n)), W.format_word),
    "excess": ("excess class of 1^n 2^n words: excess N K", lambda n, k: W.excess_class(int(n), int(k)), W.format_word),
    "max-rank": ("max-rank class of 1^n 2^n words: max-rank N K", lambda n, k: P.max_rank_class(int(n), int(k)), W.format_word),
    "suffix": ("binary words ending in V, plus the empty word: suffix V MAXLEN", lambda v, cap: W.suffix_words(W.parse_word(v), int(cap)), W.format_word),
    "ballot-suffix": ("ballot words ending in V: ballot-suffix V MAXLEN", lambda v, cap: W.ballot_suffix_words(W.parse_word(v), int(cap)), W.format_word),
    "sym": ("all permutations of 1..n: sym N", lambda n: W.symmetric_group(int(n)), W.format_word),
    "avoid": ("pattern-avoiding permutations: avoid N PATTERN...", _avoid, W.format_word),
    "partitions": ("partitions of N: partitions N", lambda n: P.partitions_of(int(n)), P.format_partition),
    "partitions-upto": ("partitions of size <= N: partitions-upto N", lambda n: P.partitions_up_to(int(n)), P.format_partition),
    "box": ("partitions in a box: box ROWS COLS", lambda r, c: P.partitions_in_box(int(r), int(c)), P.format_partition),
    "rank-negative": ("all-ranks-negative partitions in a box: rank-negative ROWS COLS", lambda r, c: P.rank_negative_in_box(int(r), int(c)), P.format_partition),
    "rank-at-least": ("partitions with every rank >= T: rank-at-least T MAXSIZE", lambda t, cap: P.rank_at_least(int(t), int(cap)), P.format_partition),
    "rank-at-most": ("partitions with every rank <= T: rank-at-most T MAXSIZE", lambda t, cap: P.rank_at_most(int(t), int(cap)), P.format_partition),
    "rank-interval": ("partitions with every rank in [LO, HI]: rank-interval LO HI MAXSIZE", lambda lo, hi, cap: P.rank_in_interval(int(lo), int(hi), int(cap)), P.format_partition),
    "no-part": ("partitions with no part T: no-part T MAXSIZE", lambda t, cap: P.no_part_equal(int(t), int(cap)), P.format_partition),
    "no-part-mod": ("partitions with no part congruent to 0 or +-R mod M: no-part-mod M R MAXSIZE", lambda m, r, cap: P.no_part_congruent(int(m), int(r), int(cap)), P.format_partition),
    "first-difference": ("partitions with first difference T: first-difference T MAXSIZE", lambda t, cap: P.first_difference_class(int(t), int(cap)), P.format_partition),
}

