from mahonian.families import FAMILIES
from mahonian.partitions import max_rank, partition_of_word
from mahonian.words import (
    excess_profile,
    format_word,
    is_ballot,
    permutations_of,
)


def test_registry_smoke():
    # every family yields something on a small instance without error
    smoke = {
        "perms": ("112",),
        "ballot": ("2",),
        "fib": ("3",),
        "fib-dual": ("3", "2"),
        "letter-sum": ("4",),
        "excess": ("2", "1"),
        "max-rank": ("2", "0"),
        "suffix": ("21", "5"),
        "ballot-suffix": ("21", "6"),
        "sym": ("3",),
        "avoid": ("4", "132"),
        "partitions": ("5",),
        "partitions-upto": ("4",),
        "box": ("2", "3"),
        "rank-negative": ("3", "3"),
        "rank-at-least": ("1", "6"),
        "rank-at-most": ("-1", "6"),
        "rank-interval": ("1", "2", "6"),
        "no-part": ("1", "6"),
        "no-part-mod": ("5", "1", "8"),
        "first-difference": ("0", "6"),
    }
    assert set(smoke) == set(FAMILIES)
    for name, params in smoke.items():
        items = list(FAMILIES[name][1](*params))
        assert items, name


def test_excess_class_partitions_the_square_words():
    n = 3
    words = set(permutations_of((1,) * n + (2,) * n))
    by_excess = {}
    for k in range(n + 1):
        for w in FAMILIES["excess"][1](str(n), str(k)):
            assert excess_profile(w)[1] == k
            by_excess.setdefault(w, k)
    assert set(by_excess) == words
    # excess 0 is exactly the ballot class
    assert {w for w, k in by_excess.items() if k == 0} == {w for w in words if is_ballot(w)}


def test_max_rank_class_misses_only_the_sorted_word():
    n = 3
    words = set(permutations_of((1,) * n + (2,) * n))
    covered = set()
    for k in range(-n, n):
        covered |= set(FAMILIES["max-rank"][1](str(n), str(k)))
    # the unique word with an empty path partition has no ranks at all
    assert words - covered == {(1,) * n + (2,) * n}
    for w in covered:
        assert max_rank(partition_of_word(w)) is not None


def test_suffix_enumeration_order():
    got = [format_word(w) for w in FAMILIES["suffix"][1]("121", "5")]
    assert got[0] == ""
    assert got[1] == "121"
    assert got[2:4] == ["1121", "2121"]
    assert len(got) == 1 + 1 + 2 + 4
