"""Integer partitions: conjugation, Durfee squares, successive ranks, and
the dictionary between partitions and binary words (lattice paths and
southeast boundary words).

Every partition stream is built on partitions_of, a lexicographic
successor loop (no recursion, so sizes are bounded only by memory)."""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .words import Word, permutations_of, require_binary

Partition = tuple[int, ...]


def as_partition(parts: Sequence[int]) -> Partition:
    p = tuple(parts)
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing: {p}")
    if p and p[-1] < 1:
        raise ValueError(f"parts must be positive: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse "(8,8,6,5,2,1)"; "()" and "" denote the empty partition.
    Anything else, a bare number or comma list included, raises
    ValueError."""
    text = text.strip()
    if text and not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"partition must be written (p1,...,pk), got {text!r}")
    text = text[1:-1]
    return as_partition(int(p) for p in text.split(",")) if text else ()


def format_partition(p: Sequence[int]) -> str:
    return "(" + ",".join(str(a) for a in p) + ")"


def size(p: Sequence[int]) -> int:
    return sum(p)


def conjugate(p: Sequence[int]) -> Partition:
    """Column lengths, by one walk up the parts: the columns past the
    (i+1)-th part and up to the i-th one all have height i."""
    out: list[int] = []
    prev = 0
    for i in range(len(p), 0, -1):
        out += [i] * (p[i - 1] - prev)
        prev = p[i - 1]
    return tuple(out)


def durfee(p: Sequence[int]) -> int:
    """Side of the largest square inside the Ferrers diagram."""
    d = 0
    for i, part in enumerate(p, start=1):
        if part >= i:
            d = i
        else:
            break
    return d


def delta(p: Sequence[int]) -> int:
    """Difference of the first two parts (missing parts count as zero)."""
    if not p:
        return 0
    return p[0] - (p[1] if len(p) > 1 else 0)


def ranks(p: Sequence[int]) -> tuple[int, ...]:
    """Successive ranks r_i = (i-th part) - (i-th conjugate part), i <= durfee.

    The i-th conjugate part is the number k of parts >= i; k only falls as
    i grows, so one pointer walks down the parts, stopping at the Durfee
    square (where p_i >= i keeps k >= i).
    """
    out: list[int] = []
    k = len(p)
    for i, part in enumerate(p, start=1):
        if part < i:
            break
        while p[k - 1] < i:
            k -= 1
        out.append(part - k)
    return tuple(out)


def max_rank(p: Sequence[int]) -> int | None:
    """Largest successive rank, or None when there are none (empty partition)."""
    r = ranks(p)
    return max(r) if r else None


def all_ranks(p: Sequence[int], pred) -> bool:
    """True iff every successive rank satisfies pred (vacuously true)."""
    return all(pred(r) for r in ranks(p))


def rank_negative(p: Sequence[int]) -> bool:
    """True iff every successive rank is negative (vacuously true): the
    all-ranks-negative class, which is the ballot image, the Catalan box
    and the codomain of the rank reduction."""
    return all(r < 0 for r in ranks(p))


def ferrers(p: Sequence[int]) -> str:
    """Dot-row rendering of the Ferrers diagram."""
    return "\n".join(" ".join("." * part) for part in p)


# ---------------------------------------------------------------------------
# the word <-> partition dictionary


def partition_of_word(w: Sequence[int]) -> Partition:
    """Partition traced inside the (#ones x #twos) box by the lattice path
    of a binary word (1 = north step, 2 = east step).

    The i-th part (ones numbered right to left) counts the twos before
    that one, so the size of the partition equals inv(w).  A letter that
    is neither 1 nor 2 raises require_binary's error.
    """
    parts: list[int] = []
    seen2 = 0
    for a in w:
        if a == 2:
            seen2 += 1
        elif a == 1:
            parts.append(seen2)
        else:
            require_binary(w)
    parts.reverse()  # weakly decreasing, so the zero parts end it
    return tuple(parts[: len(parts) - parts.count(0)])


def boundary_word(p: Sequence[int]) -> Word:
    """North/east steps along the southeast boundary of the diagram
    (1 = north, 2 = east), read from the bottom-left corner.

    Nonempty partitions give words starting with 2 and ending with 1;
    the empty partition gives the empty word.
    """
    if not p:
        return ()
    out: list[int] = []
    prev = 0
    for part in reversed(tuple(p)):
        out.extend([2] * (part - prev))
        out.append(1)
        prev = part
    return tuple(out)


def partition_of_boundary(w: Sequence[int]) -> Partition:
    """Inverse of boundary_word (the tight-box lattice path reading)."""
    w = tuple(w)
    p = partition_of_word(w)
    if w and (w[0] != 2 or w[-1] != 1):
        raise ValueError(f"not a boundary word (must start 2 and end 1): {w}")
    return p


def is_boundary_word(w: Sequence[int]) -> bool:
    w = tuple(w)
    return w == () or (w.count(1) + w.count(2) == len(w) and w[0] == 2 and w[-1] == 1)


# ---------------------------------------------------------------------------
# partition streams
#
# All streams are ordered by size, then lexicographically on part tuples.


def partitions_of(n: int, max_part: int | None = None, max_len: int | None = None) -> Iterator[Partition]:
    """Partitions of n, optionally bounded in largest part and part count.

    A lexicographic successor loop (after Knuth, TAOCP 7.2.1.4): bump the
    rightmost part that can grow by one, then refill the later parts with
    what they held, less one, spread as evenly as max_len allows, larger
    parts first.  That even fill is the lexicographically least tail, so
    each partition is the successor of the one before.
    """
    if max_part is not None and max_part < 0:
        raise ValueError(f"max_part must be nonnegative, got {max_part}")
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    if n < 0:
        return
    cap = n if max_part is None else min(max_part, n)
    room = n if max_len is None else min(max_len, n)
    if n and (cap < 1 or cap * room < n):
        return
    p: list[int] = []
    fill = n
    while True:
        if fill:
            slots = min(room - len(p), fill)
            q, r = divmod(fill, slots)
            p += [q + 1] * r + [q] * (slots - r)
        yield tuple(p)
        i = len(p) - 2
        while i > 0 and p[i] == p[i - 1]:
            i -= 1
        if i < 0 or (i == 0 and p[0] == cap):
            return
        fill = sum(p[i + 1 :]) - 1
        p[i] += 1
        del p[i + 1 :]


def partitions_up_to(max_size: int) -> Iterator[Partition]:
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    return itertools.chain.from_iterable(partitions_of(n) for n in range(max_size + 1))


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    if rows < 0 or cols < 0:
        raise ValueError(f"box sides must be nonnegative, got {rows} x {cols}")
    return itertools.chain.from_iterable(
        partitions_of(n, max_part=cols, max_len=rows) for n in range(rows * cols + 1)
    )


def partitions_by_boundary_length(max_len: int) -> Iterator[Partition]:
    """All partitions whose boundary word has at most max_len letters,
    i.e. part count plus largest part <= max_len.  Starts with the empty
    partition; deterministic order."""
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    words = ((2,) + mid + (1,) for n in range(2, max_len + 1) for mid in itertools.product((1, 2), repeat=n - 2))
    return itertools.chain([()], map(partition_of_word, words))


def rank_negative_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """Partitions in the box with every successive rank negative."""
    return (p for p in partitions_in_box(rows, cols) if rank_negative(p))


def rank_at_least(t: int, max_size: int) -> Iterator[Partition]:
    return (p for p in partitions_up_to(max_size) if all_ranks(p, lambda r: r >= t))


def rank_at_most(t: int, max_size: int) -> Iterator[Partition]:
    return (p for p in partitions_up_to(max_size) if all_ranks(p, lambda r: r <= t))


def rank_in_interval(lo: int, hi: int, max_size: int) -> Iterator[Partition]:
    return (p for p in partitions_up_to(max_size) if all_ranks(p, lambda r: lo <= r <= hi))


def no_part_equal(t: int, max_size: int) -> Iterator[Partition]:
    return (p for p in partitions_up_to(max_size) if t not in p)


def parts_off_residues(modulus: int, residue: int, max_part: int) -> list[int]:
    """The parts 1..max_part not congruent to 0, residue, or -residue mod
    modulus: the parts allowed on the product side of the rank sieves."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    banned = {0, residue % modulus, (-residue) % modulus}
    return [i for i in range(1, max_part + 1) if i % modulus not in banned]


def no_part_congruent(modulus: int, residue: int, max_size: int) -> Iterator[Partition]:
    """Partitions with no part congruent to 0, residue, or -residue mod modulus."""
    allowed = set(parts_off_residues(modulus, residue, max_size))
    return (p for p in partitions_up_to(max_size) if all(part in allowed for part in p))


def first_difference_class(t: int, max_size: int) -> Iterator[Partition]:
    """Partitions whose first two parts differ by exactly t."""
    return (p for p in partitions_up_to(max_size) if delta(p) == t)


def max_rank_class(n: int, k: int | None) -> Iterator[Word]:
    """Rearrangements of 1^n 2^n whose lattice-path partition has maximum
    successive rank k.  (A word family, not a partition family.)

    The partitions fit in the n x n box, so the maximum rank is None (the
    empty partition) or lies in [1-n, n-1]; any other k is empty at once.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k is not None and not 1 - n <= k <= n - 1:
        return iter(())
    return (w for w in permutations_of((1,) * n + (2,) * n) if max_rank(partition_of_word(w)) == k)
