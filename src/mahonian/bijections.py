"""Structured bijections between word and partition families: the
half-split of square ballot words, the composition encodings of ballot
words, the rank-reduction map on partitions with equal first parts, and
the symmetric-chain map on binary words conjugate to it."""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .foata import foata, foata_inverse
from .partitions import (
    Partition,
    as_partition,
    boundary_word,
    delta,
    partition_of_boundary,
    rank_negative,
    ranks,
)
from .words import (
    Word,
    as_word,
    excess_profile,
    is_ballot,
    match_pairs,
    require_binary,
    reverse_complement,
    walk,
    word_from_compositions,
)


# ---------------------------------------------------------------------------
# the half split on square ballot words


def ballot_split(w: Sequence[int]) -> tuple[Word, Word]:
    """Cut a ballot rearrangement of 1^n 2^n in half and reverse-complement
    the right half.  Both outputs are ballot words with a common number of
    twos d, and inv(w) = inv(x) + inv(y) + d^2."""
    w = as_word(w)
    require_binary(w)
    if len(w) % 2:
        raise ValueError("even length required")
    n = len(w) // 2
    if w.count(1) != n or not is_ballot(w):
        raise ValueError("ballot rearrangement of 1^n 2^n required")
    return w[:n], reverse_complement(w[n:])


def ballot_unsplit(x: Sequence[int], y: Sequence[int]) -> Word:
    """Inverse of ballot_split."""
    return as_word(x) + reverse_complement(y)


# ---------------------------------------------------------------------------
# composition encodings of ballot words


def suffix_sums_reach(comp: Sequence[int], slack: int) -> bool:
    """True iff, for i = 1..d, the last i entries of (c_0..c_d) sum to at
    least 2i - slack: slack 0 for one's, 1 for two's compositions.

    It is also the ballot preimage condition: a rearrangement v of
    1^k 2^l has a ballot image under foata iff its one's exponents reach
    with slack 0 and its two's exponents with slack 1 + k - l
    (words.ones_twos_compositions gives both)."""
    acc = 0
    for i in range(1, len(comp)):
        acc += comp[-i]
        if acc < 2 * i - slack:
            return False
    return True


def is_ones_composition(comp: Sequence[int]) -> bool:
    """Membership in the one's-composition family: first entry >= 0, the
    rest positive, and every suffix sum of length i at least 2i."""
    if not comp or comp[0] < 0 or any(c < 1 for c in comp[1:]):
        return False
    return suffix_sums_reach(comp, 0)


def is_twos_composition(comp: Sequence[int]) -> bool:
    """Membership in the two's-composition family: last entry >= 0, the
    rest positive, and every suffix sum of length i at least 2i - 1."""
    if not comp or comp[-1] < 0 or any(c < 1 for c in comp[:-1]):
        return False
    return suffix_sums_reach(comp, 1)


def _compositions(total: int, mins: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Tuples (c_0..c_k) with c_i >= mins[i] summing to total,
    lexicographically."""
    floor = [sum(mins[i:]) for i in range(len(mins) + 1)]  # least sum of entries i..

    def branches(state):
        i, left = state
        if i == len(mins):
            return None if not left else ()
        return ((v, (i + 1, left - v)) for v in range(mins[i], left - floor[i + 1] + 1))

    return (c for c, _ in walk((0, total), branches))


def ones_compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All one's compositions with d+1 entries summing to n; none when d < 0."""
    # [1] * d is empty for every d <= 0, so the length test keeps d < 0 empty
    mins = [0] + [1] * d
    return (c for c in _compositions(n, mins) if len(c) == d + 1 and is_ones_composition(c))


def twos_compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All two's compositions with d+1 entries summing to n; none when d < 0."""
    mins = [1] * d + [0]
    return (c for c in _compositions(n, mins) if len(c) == d + 1 and is_twos_composition(c))


def ones_composition_word(comp: Sequence[int]) -> Word:
    """Encode (w_0..w_d) as the ballot word 1^(wd-1) 2 1^(w(d-1)-1) 2 ... 1^w0."""
    comp = tuple(comp)
    if not is_ones_composition(comp):
        raise ValueError(f"not a valid one's composition: {comp}")
    runs = [c - 1 for c in reversed(comp[1:])] + [comp[0]]
    return word_from_compositions(runs, (1,) * (len(comp) - 1) + (0,))


def twos_composition_word(comp: Sequence[int]) -> Word:
    """Encode (t_0..t_d) as the ballot word 1^td 2 1^(t(d-1)-1) 2 ... 2 1^(t0-1)."""
    comp = tuple(comp)
    if not is_twos_composition(comp):
        raise ValueError(f"not a valid two's composition: {comp}")
    runs = [comp[-1]] + [c - 1 for c in reversed(comp[:-1])]
    return word_from_compositions(runs, (1,) * (len(comp) - 1) + (0,))


# ---------------------------------------------------------------------------
# rank reduction on partitions (one pass, the chain of passes, and the map)


def _max_rank_last(rho: Sequence[int]) -> tuple[int | None, int | None]:
    """(maximum rank, largest 1-based index attaining it) of a rank
    vector; (None, None) when it is empty."""
    if not rho:
        return None, None
    r = max(rho)
    return r, len(rho) - rho[::-1].index(r)


def csv_step(p: Sequence[int]) -> Partition:
    """One rank-reduction pass: with i the largest index attaining the
    maximum rank, remove a column of height i (shorten the first i parts
    by one), add a part of size i-1, and lengthen the first part by one.
    Preserves the size.  Along csv_chain the maximum rank r drops to at
    most r-1, with equality when r > 0, and i is never 1.  Raises
    ValueError when the maximum rank is negative, or when i = 1, where the
    pass would give p back unchanged."""
    p = as_partition(p)
    r, i = _max_rank_last(ranks(p))
    if r is None or r < 0:
        raise ValueError("rank reduction needs a nonnegative maximum rank")
    if i == 1:
        raise ValueError("rank reduction needs the maximum rank last attained at an index above 1")
    # i is the last index of the maximum, so p_i > p_(i+1): the column of
    # height i exists and the shortened parts stay weakly decreasing
    parts = [a - 1 for a in p[:i]] + list(p[i:]) + [i - 1]
    parts.sort(reverse=True)
    parts[0] += 1
    return tuple(parts)


def csv_chain(p: Sequence[int]) -> Iterator[Partition]:
    """The rank-reduction chain p, csv_step(p), ... up to the first stage
    whose ranks are all negative (p itself if they already are).

    Defined on partitions whose first two parts agree, plus anything that
    already has all ranks negative; the domain is checked at call time.
    """
    p = as_partition(p)
    if delta(p) != 0 and not rank_negative(p):
        raise ValueError("first two parts must agree (or all ranks be negative)")

    def stages(p):
        yield p
        while not rank_negative(p):
            p = csv_step(p)
            yield p

    return stages(p)


def csv_map(p: Sequence[int]) -> Partition:
    """The last stage of csv_chain: a partition of the same size with all
    ranks negative."""
    *_, last = csv_chain(p)
    return last


def csv_trace(p: Sequence[int]) -> list[dict]:
    """Stage-by-stage record of csv_chain: partition, rank vector, maximum
    rank and its index, the boundary word, its preimage under the
    fundamental bijection, and the preimage's excess vector."""
    stages = []
    for q in csv_chain(p):
        rho = ranks(q)
        r, i = _max_rank_last(rho)
        w = boundary_word(q)
        v = foata_inverse(w)
        stages.append(
            {
                "partition": q,
                "rho": rho,
                "r": r,
                "i": i,
                "word": w,
                "preimage": v,
                "excesses": excess_profile(v)[0] if v else (),
            }
        )
    return stages


# ---------------------------------------------------------------------------
# the symmetric-chain map and the induced bijection on words


def _flip(w: Word, positions: Sequence[int], letter: int) -> Word:
    """Rewrite the letters of w at the given 1-based positions as letter.

    Flipping the rightmost unpaired two or the leftmost unpaired one leaves
    the pairing unchanged (Greene-Kleitman), so every flip along a chain
    reads its positions off one match_pairs call."""
    out = list(w)
    for pos in positions:
        out[pos - 1] = letter
    return tuple(out)


def flip_rightmost_unpaired_two(w: Sequence[int]) -> Word:
    """Change the rightmost unpaired two into a one; the pairing is
    unchanged."""
    w = as_word(w)
    _, _, un2 = match_pairs(w)
    if not un2:
        raise ValueError("no unpaired two")
    return _flip(w, un2[-1:], 1)


def chains(n: int) -> list[list[Word]]:
    """Symmetric chain decomposition of all length-n binary words: each
    chain starts at a word whose unpaired letters are all twos, and its
    stage k has the rightmost k of them flipped into ones."""
    out = []
    for start in itertools.product((1, 2), repeat=n):
        _, un1, un2 = match_pairs(start)
        if not un1:
            out.append([_flip(start, un2[len(un2) - k :], 1) for k in range(len(un2) + 1)])
    return out


def gk_map(v: Sequence[int]) -> Word:
    """Bijection from words ending in 121 (plus the empty word) onto
    ballot words ending in 21 (plus the empty word): flip away the t
    unpaired twos of the prefix and absorb them into the final two-run,
    sending x121 to flips(x) 1 2^(t+1) 1."""
    v = as_word(v)
    # the two of the suffix 121 pairs with its first one, so x121 has
    # exactly x's unpaired twos
    _, _, un2 = match_pairs(v)
    if v == ():
        return ()
    if v[-3:] != (1, 2, 1):
        raise ValueError("word must end in 121")
    return _flip(v[:-3], un2, 1) + (1,) + (2,) * (len(un2) + 1) + (1,)


def gk_inverse(w: Sequence[int]) -> Word:
    """Inverse of gk_map: write a ballot word ending in 21 as y 1 2^(t+1) 1,
    restore t unpaired twos in y, and append 121."""
    w = as_word(w)
    require_binary(w)
    if w == ():
        return ()
    if not is_ballot(w):
        raise ValueError("ballot word required")
    if w[-2:] != (2, 1):
        raise ValueError("word must end in 21")
    i = len(w) - 2
    while i >= 0 and w[i] == 2:
        i -= 1
    # ballot words ending in 21 always carry a one before the final two-run
    if i < 0 or w[i] != 1:
        raise ValueError("word is not of the form y 1 2^(t+1) 1")
    t = (len(w) - 2 - i) - 1
    y = w[:i]
    # the ballot prefix y 1 2^(t+1) leaves y at least t unpaired ones
    _, un1, _ = match_pairs(y)
    return _flip(y, un1[:t], 2) + (1, 2, 1)


def csv_via_words(p: Sequence[int]) -> Partition:
    """The conjugate route: boundary word, inverse fundamental bijection,
    gk_map, fundamental bijection, back to a partition.  Agrees with
    csv_map on its whole domain."""
    w = boundary_word(as_partition(p))
    return partition_of_boundary(foata(gk_map(foata_inverse(w))))
