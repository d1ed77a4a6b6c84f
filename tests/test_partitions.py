import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from mahonian.partitions import (
    all_ranks,
    boundary_word,
    conjugate,
    delta,
    durfee,
    ferrers,
    first_difference_class,
    format_partition,
    max_rank,
    max_rank_class,
    no_part_congruent,
    no_part_equal,
    parse_partition,
    partition_of_boundary,
    partition_of_word,
    partitions_by_boundary_length,
    partitions_in_box,
    partitions_of,
    partitions_up_to,
    rank_at_least,
    is_boundary_word,
    rank_at_most,
    rank_in_interval,
    rank_negative_in_box,
    ranks,
    size,
)
from mahonian.verify import _RANK_INTERVAL_CASES
from mahonian.words import inv, parse_word, permutations_of, reverse_complement

partition_lists = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.lists(st.integers(min_value=1, max_value=8), max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
)


def _first_parts_up_to(xs, total):
    """The longest prefix of xs summing to at most total, as a partition."""
    out = []
    for x in xs:
        if sum(out) + x > total:
            break
        out.append(x)
    return tuple(sorted(out, reverse=True))


# partitions of size at most 400: many small parts, a few large ones, or both
large_partitions = st.lists(
    st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=400)),
    max_size=400,
).map(lambda xs: _first_parts_up_to(xs, 400))


# reference conjugate and ranks: the definitions read literally, kept as
# oracles for the pointer walks in the library


def _conjugate_by_counting(p):
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= j) for j in range(1, p[0] + 1))


def _ranks_by_conjugate(p):
    c = _conjugate_by_counting(p)
    return tuple(p[i] - c[i] for i in range(durfee(p)))


def test_parse_format():
    assert parse_partition("(8,8,6,5,2,1)") == (8, 8, 6, 5, 2, 1)
    assert parse_partition("()") == ()
    assert parse_partition("") == ()
    assert format_partition((3, 2, 2)) == "(3,2,2)"
    with pytest.raises(ValueError):
        parse_partition("(1,2)")
    # only the parenthesized form: a bare number is not a one-part partition
    for bare in ("112211212", "3,2,2", "3", "(3,2", "3,2)"):
        with pytest.raises(ValueError, match=r"^partition must be written \(p1,...,pk\), got "):
            parse_partition(bare)


def test_lambda_of_word():
    w = parse_word("112211212")
    lam = partition_of_word(w)
    assert lam == (3, 2, 2)
    assert len(lam) <= w.count(1) and max(lam) <= w.count(2)  # inside the 5 x 4 box
    assert partition_of_word((1, 1, 1, 2, 2)) == ()
    assert partition_of_word((2, 2, 1, 1, 1)) == (2, 2, 2)
    with pytest.raises(ValueError):
        partition_of_word(parse_word("1123"))


def test_boundary_word():
    assert boundary_word((3, 2, 2)) == parse_word("221121")
    assert boundary_word((1,)) == (2, 1)
    assert boundary_word(()) == ()
    assert partition_of_boundary(()) == ()
    with pytest.raises(ValueError, match=r"^not a boundary word \(must start 2 and end 1\): \(1, 2\)$"):
        partition_of_boundary((1, 2))
    with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 31$"):
        partition_of_boundary((3, 1))


def test_boundary_roundtrip_box():
    for lam in partitions_in_box(5, 5):
        assert partition_of_boundary(boundary_word(lam)) == lam


def test_ranks_examples():
    assert ranks((8, 8, 6, 5, 2, 1)) == (2, 3, 2, 1)
    assert max_rank((8, 8, 6, 5, 2, 1)) == 3
    assert ranks((4, 4, 4, 4)) == (0, 0, 0, 0)
    assert ranks((3, 3, 3)) == (0, 0, 0)
    assert ranks((8, 4, 3, 3, 3, 3, 2, 2, 1, 1)) == (-2, -4, -3)
    assert max_rank(()) is None


@given(partition_lists)
def test_conjugate_involution_and_rank_sign(p):
    assert conjugate(conjugate(p)) == p
    assert size(conjugate(p)) == size(p)
    assert durfee(conjugate(p)) == durfee(p)
    assert ranks(conjugate(p)) == tuple(-r for r in ranks(p))


def test_conjugate_and_ranks_match_oracles_exhaustively():
    for p in partitions_up_to(30):
        assert conjugate(p) == _conjugate_by_counting(p), p
        assert ranks(p) == _ranks_by_conjugate(p), p


@given(large_partitions)
def test_conjugate_and_ranks_match_oracles_up_to_400(p):
    assert conjugate(p) == _conjugate_by_counting(p)
    assert ranks(p) == _ranks_by_conjugate(p)
    assert conjugate(list(p)) == conjugate(p) and ranks(list(p)) == ranks(p)


def test_max_rank_class_matches_brute_force():
    for n in range(7):
        words_n = list(permutations_of((1,) * n + (2,) * n))
        for k in [None, *range(-n - 2, n + 3)]:
            want = [w for w in words_n if max(_ranks_by_conjugate(partition_of_word(w)), default=None) == k]
            assert list(max_rank_class(n, k)) == want, (n, k)
    # an unreachable k is empty at call time, without a scan
    assert list(max_rank_class(10**5, 10**5)) == []
    assert list(max_rank_class(10**5, -(10**5))) == []
    with pytest.raises(ValueError):
        max_rank_class(-1, 0)


def test_rank_conjugation_sets():
    # all-ranks >= 1 conjugates onto all-ranks <= -1, size by size
    for n in range(15):
        pos = {p for p in partitions_of(n) if all_ranks(p, lambda r: r >= 1)}
        neg = {p for p in partitions_of(n) if all_ranks(p, lambda r: r <= -1)}
        assert {conjugate(p) for p in pos} == neg


def test_lambda_conjugate_of_prime():
    for total in range(9):
        for m in range(total + 1):
            base = (1,) * m + (2,) * (total - m)
            for w in permutations_of(base):
                assert partition_of_word(reverse_complement(w)) == conjugate(
                    partition_of_word(w)
                )


def test_inv_equals_size():
    for w in permutations_of((1, 1, 1, 2, 2, 2)):
        assert inv(w) == size(partition_of_word(w))


def test_partition_streams():
    assert list(partitions_of(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(-1)) == []
    assert sum(1 for _ in partitions_in_box(2, 2)) == 6
    assert list(partitions_in_box(2, 2)) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    caps = [None, *range(7)]
    for n in range(10):
        # parts drawn from n..1 come out weakly decreasing
        every = sorted(
            p
            for k in range(n + 1)
            for p in itertools.combinations_with_replacement(range(n, 0, -1), k)
            if sum(p) == n
        )
        for max_part in caps:
            for max_len in caps:
                expected = [
                    p
                    for p in every
                    if (max_part is None or not p or p[0] <= max_part)
                    and (max_len is None or len(p) <= max_len)
                ]
                assert list(partitions_of(n, max_part=max_part, max_len=max_len)) == expected
    # no-part-one partitions of 5: (5) and (3,2)
    assert [p for p in no_part_equal(1, 5) if size(p) == 5] == [(3, 2), (5,)]
    assert ([()] == [p for p in rank_at_least(1, 0)]) and ([()] == [p for p in rank_at_most(-1, 0)])
    assert (2, 2) in set(first_difference_class(0, 6))
    assert all(part % 5 in (2, 3) for p in no_part_congruent(5, 1, 12) for part in p)


def test_is_boundary_word_matches_the_letter_by_letter_predicate():
    def by_letters(w):
        w = tuple(w)
        return w == () or (all(a in (1, 2) for a in w) and w[0] == 2 and w[-1] == 1)

    for n in range(7):
        for w in itertools.product((0, 1, 2, 3), repeat=n):
            assert is_boundary_word(w) == is_boundary_word(list(w)) == by_letters(w), w


def test_class_families_match_the_sieve_predicates():
    """The enumerate families hold the classes the sieve checks count,
    each stated as the check states it."""
    every = list(partitions_up_to(12))

    def having(pred):
        return [p for p in every if pred(p)]

    for t in range(-3, 4):
        assert list(rank_at_least(t, 12)) == having(lambda p: all(r >= t for r in ranks(p)))
        assert list(rank_at_most(t, 12)) == having(lambda p: all(r <= t for r in ranks(p)))
    for t in range(1, 5):
        assert list(no_part_equal(t, 12)) == having(lambda p: t not in p)
    # rank-positive-sieve: all ranks >= 1, all ranks <= -1, no part one
    assert len(list(rank_at_least(1, 12))) == len(list(rank_at_most(-1, 12))) == len(list(no_part_equal(1, 12)))
    for modulus, r in _RANK_INTERVAL_CASES:
        lo, hi = -r + 2, modulus - r - 2
        in_interval = list(rank_in_interval(lo, hi, 12))
        assert in_interval == having(lambda p: all(lo <= x <= hi for x in ranks(p)))
        off = list(no_part_congruent(modulus, r, 12))
        assert off == having(lambda p: all(part % modulus not in (0, r % modulus, -r % modulus) for part in p))
        assert len(in_interval) == len(off)
    # the reduction case: ranks in [1, n-1] against no part one, size by size
    for n in range(13):
        in_interval = [p for p in rank_in_interval(1, n - 1, n) if size(p) == n]
        assert in_interval == having(lambda p: size(p) == n and all(1 <= x <= n - 1 for x in ranks(p)))
        assert len(in_interval) == sum(1 for p in partitions_of(n) if 1 not in p)


def test_partitions_by_boundary_length():
    got = set(partitions_by_boundary_length(4))
    want = {(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2)}
    assert got == want


def test_rank_negative_in_box_counts():
    # sums to the Catalan number when weighted by nothing at full size range
    count = sum(1 for _ in rank_negative_in_box(3, 3))
    assert count == 5


def test_ferrers():
    assert ferrers((3, 1)) == ". . .\n."
    assert ferrers(()) == ""


def test_delta():
    assert delta(()) == 0
    assert delta((4,)) == 4
    assert delta((4, 4, 1)) == 0


def test_partitions_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    stream = partitions_of(n)
    assert next(stream) == (1,) * n
    assert next(stream) == (2,) + (1,) * (n - 2)
    assert next(partitions_of(n, max_len=2)) == ((n + 1) // 2, n // 2)
