import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mahonian.partitions import (
    partitions_by_boundary_length,
    partitions_in_box,
    partitions_of,
    partitions_up_to,
    rank_at_least,
)
from mahonian.words import (
    as_word,
    avoiders,
    ballot_suffix_words,
    ballot_words,
    des,
    descent_set,
    exc,
    excess_class,
    excess_profile,
    fibonacci_dual_words,
    fibonacci_words,
    format_word,
    inv,
    is_ballot,
    letter_sum_words,
    maj,
    match_pairs,
    ones_twos_compositions,
    parse_word,
    pattern_class,
    permutations_of,
    require_binary,
    reverse_complement,
    run_decomposition,
    suffix_words,
    symmetric_group,
    word_from_compositions,
)

words = st.lists(st.integers(min_value=1, max_value=5), max_size=14).map(tuple)
binary = st.lists(st.sampled_from([1, 2]), max_size=14).map(tuple)
# long words over {1..k}: a single letter, small alphabets, a wide one, and
# letters up to 10^9 (nearly all distinct)
long_words = st.tuples(st.sampled_from([1, 2, 3, 6, 50, 10**9]), st.integers(0, 300)).flatmap(
    lambda kn: st.lists(st.integers(min_value=1, max_value=kn[0]), min_size=kn[1], max_size=kn[1]).map(tuple)
)


# reference statistics: the definitions read literally, kept as oracles for
# the one-pass versions in the library


def _inv_by_pairs(w):
    n = len(w)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] > w[j]:
                total += 1
    return total


def _maj_by_descent_set(w):
    return sum(descent_set(w))


def _des_by_descent_set(w):
    return len(descent_set(w))


def test_parse_format_roundtrip():
    assert parse_word("2121312") == (2, 1, 2, 1, 3, 1, 2)
    assert parse_word("") == ()
    assert parse_word("10,2,3") == (10, 2, 3)
    assert format_word((10, 2, 3)) == "10,2,3"
    assert format_word((2, 1)) == "21"
    with pytest.raises(ValueError):
        parse_word("001")


def test_descent_set_examples():
    assert descent_set(parse_word("2121312")) == {1, 3, 5}
    assert maj(parse_word("2121312")) == 9
    assert des(parse_word("2121312")) == 3
    assert descent_set(()) == frozenset()
    assert maj(()) == 0
    assert descent_set(parse_word("1122")) == frozenset()


def test_inv_examples():
    assert inv(parse_word("2213112")) == 9
    assert inv(()) == 0
    assert inv(parse_word("112211212")) == 7
    assert inv(parse_word("2121312")) == 7


def test_exc_examples():
    assert exc(parse_word("321")) == 1
    assert exc(parse_word("123")) == 0
    assert exc(parse_word("2121312")) == 3


def test_reverse_complement_examples():
    assert reverse_complement(parse_word("112122")) == parse_word("112122")
    assert reverse_complement(()) == ()
    assert reverse_complement(parse_word("12")) == parse_word("12")
    with pytest.raises(ValueError):
        reverse_complement((1, 3))


@given(binary)
def test_reverse_complement_involution(w):
    assert reverse_complement(reverse_complement(w)) == w
    assert inv(reverse_complement(w)) == inv(w)
    assert des(reverse_complement(w)) == des(w)
    assert maj(reverse_complement(w)) == len(w) * des(w) - maj(w)


def test_is_ballot_examples():
    assert is_ballot(parse_word("1122"))
    assert is_ballot(parse_word("1212"))
    assert not is_ballot(parse_word("2112"))
    assert is_ballot(())
    assert is_ballot(parse_word("112211212"))
    # works beyond the binary alphabet
    assert is_ballot(parse_word("123123"))
    assert not is_ballot(parse_word("1233"))


def _is_ballot_by_counter(w):
    counts = Counter()
    for a in w:
        counts[a] += 1
        if a > 1 and counts[a] > counts[a - 1]:
            return False
    return True


def test_is_ballot_with_letter_gaps():
    # a letter whose predecessor never occurred fails at once
    for w in [(1, 3), (2,), (1, 2, 2), (1, 1, 2, 3, 3), (1, 2, 1, 3), (1, 1, 2, 2, 3, 3, 4)]:
        assert is_ballot(w) == _is_ballot_by_counter(w), w
    assert [is_ballot(w) for w in [(1, 3), (2,), (1, 2, 2), (1, 1, 2, 3, 3)]] == [False] * 4
    for w in itertools.product((1, 2, 3, 5), repeat=5):
        assert is_ballot(w) == _is_ballot_by_counter(w), w


def test_excess_profile_examples():
    assert excess_profile(parse_word("1122")) == ((0,), 0)
    assert excess_profile(parse_word("2211")) == ((2, 0), 2)
    assert excess_profile(parse_word("22122112221121")) == ((2, 3, 4, 3, 2), 4)
    assert excess_profile(()) == ((0,), 0)
    for n in range(6):
        for w in permutations_of((1,) * n + (2,) * n):
            _, e = excess_profile(w)
            assert e == n - len(match_pairs(w)[0])
            assert is_ballot(w) == (e <= 0)


def test_match_pairs():
    pairs, un1, un2 = match_pairs(parse_word("2211"))
    assert pairs == ()
    assert un2 == (1, 2)
    assert un1 == (3, 4)
    pairs, un1, un2 = match_pairs(parse_word("1122"))
    assert len(pairs) == 2 and un1 == () and un2 == ()


def _reverse_complement_validated_first(w):
    require_binary(w)
    return tuple(3 - a for a in reversed(w))


def _match_pairs_validated_first(w):
    require_binary(w)
    return match_pairs(w)


def _outcome(f, w):
    try:
        return f(w)
    except ValueError as exc:
        return str(exc)


def test_binary_helpers_validate_in_their_loop_as_up_front():
    for n in range(7):
        for w in itertools.product((0, 1, 2, 3), repeat=n):
            for word in (w, list(w)):
                assert _outcome(reverse_complement, word) == _outcome(_reverse_complement_validated_first, word), w
                assert _outcome(match_pairs, word) == _outcome(_match_pairs_validated_first, word), w
    for f in (reverse_complement, match_pairs):
        with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 2130$"):
            f((2, 1, 3, 0))
        with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 1,2,10$"):
            f([1, 2, 10])


def test_run_decomposition():
    runs = run_decomposition(parse_word("1112212222"))
    assert runs == ((1, 3, True, False), (2, 2, False, False), (1, 1, False, False), (2, 4, False, True))
    assert run_decomposition(()) == ()
    assert run_decomposition((2,)) == ((2, 1, True, True),)


def test_ones_twos_compositions():
    om, ta = ones_twos_compositions(parse_word("22122112221121"))
    assert om == (0, 1, 2, 2, 1)
    assert ta == (2, 2, 3, 1, 0)
    assert ones_twos_compositions(()) == ((0,), (0,))
    assert ones_twos_compositions(parse_word("1122")) == ((2,), (2,))
    with pytest.raises(ValueError):
        ones_twos_compositions((1, 3))


@given(binary)
def test_compositions_roundtrip(v):
    om, ta = ones_twos_compositions(v)
    assert word_from_compositions(om, ta) == v
    assert len(om) == len(ta) == des(v) + 1


def contains_pattern(w, pattern):
    """True iff some subsequence of w is order-isomorphic to the pattern.

    The pattern must be a permutation of 1..k; equal letters in w never
    realize a strict inequality of the pattern.  The filter oracle that
    pattern_class is held against.
    """
    k = len(pattern)
    if sorted(pattern) != list(range(1, k + 1)):
        raise ValueError("pattern must be a permutation of 1..k")
    if k == 0:
        return True
    idx = range(k)
    for combo in itertools.combinations(w, k):
        if all(
            (combo[a] < combo[b]) == (pattern[a] < pattern[b])
            and (combo[a] > combo[b]) == (pattern[a] > pattern[b])
            for a in idx
            for b in range(a + 1, k)
        ):
            return True
    return False


def test_contains_pattern():
    assert contains_pattern(parse_word("2413"), parse_word("231"))
    assert not contains_pattern(parse_word("123"), parse_word("21"))
    # repeated letters never realize a strict pattern
    assert not contains_pattern((1, 1), (2, 1))
    assert not contains_pattern((1, 1), (1, 2))
    with pytest.raises(ValueError):
        contains_pattern((1, 2), (1, 3))


def test_avoidance_counts():
    # every length-3 pattern class has Catalan-many avoiders
    for pat in itertools.permutations((1, 2, 3)):
        assert sum(1 for _ in pattern_class(4, [pat])) == 14


@pytest.mark.parametrize(
    "patterns",
    [[(1,)], [(2, 1)], [(1, 3, 2)], [(1, 2, 3), (3, 2, 1)], [(2, 4, 1, 3), (3, 1, 4, 2)], [(1, 2, 3, 4)], []],
    ids=lambda pats: ",".join(format_word(p) for p in pats) or "none",
)
def test_pattern_class_is_the_ordered_filter(patterns):
    for n in range(7):
        kept = [w for w in symmetric_group(n) if not any(contains_pattern(w, p) for p in patterns)]
        assert list(pattern_class(n, patterns)) == kept


def test_pattern_class_prunes_an_empty_class():
    # Erdős–Szekeres: every permutation of length 5 contains 123 or 321,
    # so the walk dies at depth 5 instead of filtering 12! permutations
    assert list(pattern_class(12, [(1, 2, 3), (3, 2, 1)])) == []
    assert list(pattern_class(3, [()])) == []
    with pytest.raises(ValueError, match="^pattern must be a permutation of 1..k$"):
        pattern_class(3, [(1,), (1, 3)])


_LENGTH_THREE = list(itertools.permutations((1, 2, 3)))


@pytest.mark.parametrize(
    "patterns",
    [[p] for p in _LENGTH_THREE]
    + [list(pair) for pair in itertools.combinations(_LENGTH_THREE, 2)]
    + [[(2, 4, 1, 3)]],
    ids=lambda pats: ",".join(format_word(p) for p in pats),
)
def test_avoiders_grow_the_filtered_class(patterns):
    for n in range(7):
        grown = list(avoiders(n, patterns))
        assert len(grown) == len(set(grown))
        assert set(grown) == set(pattern_class(n, patterns))


def test_avoiders_edge_patterns():
    assert list(avoiders(0, [(1,)])) == [()]
    assert list(avoiders(3, [(1,)])) == []
    assert list(avoiders(2, [()])) == []
    assert sorted(avoiders(3, [])) == list(symmetric_group(3))
    with pytest.raises(ValueError):
        avoiders(-1, [(1, 2)])
    with pytest.raises(ValueError):
        avoiders(3, [(1, 3)])
    with pytest.raises(ValueError):
        avoiders(3, [(0, 1)])
    with pytest.raises(ValueError):
        avoiders(3, [(), (1, 3)])


def _no_repeat(w, letter):
    return all(not (a == b == letter) for a, b in zip(w, w[1:]))


def test_family_counts():
    assert sum(1 for _ in ballot_words(3, 3)) == 5
    assert list(ballot_words(3, 3)) == [
        parse_word("111222"),
        parse_word("112122"),
        parse_word("112212"),
        parse_word("121122"),
        parse_word("121212"),
    ]
    assert list(ballot_words(1, 2)) == []
    assert sum(1 for _ in fibonacci_words(4)) == 8
    assert sum(1 for _ in fibonacci_dual_words(4)) == 8
    assert {format_word(w) for w in letter_sum_words(5)} == {
        "11111", "1112", "1121", "1211", "2111", "122", "212", "221",
    }
    for ones in range(6):
        for twos in range(6):
            letters = (1,) * ones + (2,) * twos
            expected = sorted(w for w in set(itertools.permutations(letters)) if is_ballot(w))
            assert list(ballot_words(ones, twos)) == expected
    for n in range(10):
        for banned, family in ((1, fibonacci_words), (2, fibonacci_dual_words)):
            allowed = [w for w in itertools.product((1, 2), repeat=n) if _no_repeat(w, banned)]
            assert list(family(n)) == allowed
            for ones in range(-1, n + 2):
                assert list(family(n, ones)) == [w for w in allowed if w.count(1) == ones]
    for total in range(12):
        expected = sorted(
            w for m in range(total + 1) for w in itertools.product((1, 2), repeat=m) if sum(w) == total
        )
        assert list(letter_sum_words(total)) == expected


def test_permutations_of_is_lex_and_complete():
    got = list(permutations_of((1, 1, 2)))
    assert got == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    n = sum(1 for _ in permutations_of((1, 1, 2, 2, 3)))
    assert n == 30
    assert list(permutations_of(())) == [()]
    for w in [(2,), (3, 1, 2), (1, 1, 2, 2, 3), (3, 1, 2, 1, 3, 2), (5, 5, 5), (2, 2, 1, 1, 1, 4)]:
        assert list(permutations_of(w)) == sorted(set(itertools.permutations(w)))


def test_family_validation_is_eager():
    with pytest.raises(ValueError):
        ballot_words(-1, 0)
    with pytest.raises(ValueError):
        letter_sum_words(-1)
    with pytest.raises(ValueError):
        fibonacci_words(-1)
    with pytest.raises(ValueError):
        fibonacci_dual_words(-2, 1)
    with pytest.raises(ValueError):
        symmetric_group(-1)
    with pytest.raises(ValueError):
        pattern_class(-1, [(1, 2)])
    with pytest.raises(ValueError, match="must be nonnegative"):
        suffix_words((2, 1), -1)
    with pytest.raises(ValueError, match="must be nonnegative"):
        ballot_suffix_words((2, 1), -1)
    with pytest.raises(ValueError, match="^length cap required for an infinite family$"):
        suffix_words((2, 1), None)
    with pytest.raises(ValueError, match="^word must use only letters 1 and 2: 13$"):
        suffix_words((1, 3), 4)
    with pytest.raises(ValueError, match="^max_size must be nonnegative, got -1$"):
        partitions_up_to(-1)
    with pytest.raises(ValueError, match="^box sides must be nonnegative, got -1 x 2$"):
        partitions_in_box(-1, 2)
    with pytest.raises(ValueError, match="^box sides must be nonnegative, got 2 x -1$"):
        partitions_in_box(2, -1)
    with pytest.raises(ValueError):
        rank_at_least(1, -1)
    with pytest.raises(ValueError, match="^max_len must be nonnegative, got -1$"):
        next(partitions_of(0, max_len=-1))
    with pytest.raises(ValueError, match="^max_part must be nonnegative, got -1$"):
        next(partitions_of(0, max_part=-1))
    with pytest.raises(ValueError, match="^max_len must be nonnegative, got -1$"):
        partitions_by_boundary_length(-1)


def test_families_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    first = next(permutations_of((2,) + (1,) * n))
    assert first == (1,) * n + (2,)
    assert next(fibonacci_dual_words(n)) == (1,) * n
    assert next(fibonacci_words(n)) == (1, 2) * (n // 2) + (1,) * (n % 2)
    assert next(ballot_words(n, n)) == (1,) * n + (2,) * n
    assert next(letter_sum_words(n)) == (1,) * n


def test_suffix_words_require_cap():
    got = list(suffix_words((2, 1), 4))
    assert got[0] == ()
    assert all(w[-2:] == (2, 1) for w in got[1:])
    assert len(got) == 1 + 1 + 2 + 4  # lengths 2, 3, 4
    with pytest.raises(ValueError):
        list(suffix_words((2, 1), None))


def test_empty_suffix_gives_each_binary_word_once():
    every = [w for n in range(4) for w in itertools.product((1, 2), repeat=n)]
    got = list(suffix_words((), 3))
    assert got == every and len(got) == 15
    assert list(ballot_suffix_words((), 3)) == [w for w in got if is_ballot(w)]
    assert list(suffix_words((), 0)) == [()]


@given(words)
def test_statistics_against_quadratic_oracles(w):
    n = len(w)
    maj_oracle = sum(i + 1 for i in range(n - 1) if w[i] > w[i + 1])
    assert maj(w) == maj_oracle
    assert inv(w) == _inv_by_pairs(w)
    assert des(w) == sum(1 for i in range(n - 1) if w[i] > w[i + 1])


@given(long_words)
def test_statistics_match_reference_oracles_on_long_words(w):
    assert inv(w) == _inv_by_pairs(w)
    assert maj(w) == _maj_by_descent_set(w)
    assert des(w) == _des_by_descent_set(w)
    assert (inv(list(w)), maj(list(w)), des(list(w))) == (inv(w), maj(w), des(w))


def test_statistics_on_permutations_and_huge_letters():
    big = 10**20
    cases = [w for n in range(7) for w in symmetric_group(n)]
    cases += [tuple(big + a for a in w) for w in itertools.product((1, 2, 3), repeat=5)]
    cases += [(big, 1, big + 1, big, 2, big - 1), (big - 1, big, big + 1), (big,) * 4]
    for w in cases:
        assert inv(w) == _inv_by_pairs(w), w
        assert maj(w) == _maj_by_descent_set(w), w
        assert des(w) == _des_by_descent_set(w), w


def test_validation_messages():
    # the whole-word test passes valid words through untouched
    assert as_word([3, 1, 2]) == (3, 1, 2)
    assert as_word(()) == ()
    assert as_word(iter((1, 10**9))) == (1, 10**9)
    require_binary((1, 2, 2, 1))
    require_binary([2, 1])
    require_binary(())
    # the error path names the first offending letter, not the smallest
    with pytest.raises(ValueError, match=r"^letters must be positive integers, got 0$"):
        as_word((3, 0, -1))
    with pytest.raises(ValueError, match=r"^letters must be positive integers, got -2$"):
        as_word(iter((1, -2, 0)))
    with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 132$"):
        require_binary((1, 3, 2))
    with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 1,10$"):
        require_binary([1, 10])
    with pytest.raises(ValueError, match=r"^word must use only letters 1 and 2: 20$"):
        require_binary((2, 0))


def _max_excess(w):
    """Largest excess of twos over ones in a prefix of w (the empty one included)."""
    return max(itertools.accumulate((1 if a == 2 else -1 for a in w), initial=0))


def test_excess_class_matches_brute_force():
    for n in range(7):
        words_n = list(permutations_of((1,) * n + (2,) * n))
        for k in range(-n - 2, n + 3):
            assert list(excess_class(n, k)) == [w for w in words_n if _max_excess(w) == k], (n, k)
    # an unreachable k is empty at call time, without a scan
    assert list(excess_class(10**5, 10**5 + 1)) == []
    assert list(excess_class(10**5, -1)) == []
    with pytest.raises(ValueError):
        excess_class(-1, 0)


def test_macmahon_small():
    for base in [(1, 1, 2, 2), (1, 2, 2, 3), (1, 1, 1, 2, 3)]:
        from mahonian.genfun import distribution

        left = distribution(permutations_of(base), {"q": maj})
        right = distribution(permutations_of(base), {"q": inv})
        assert left == right
