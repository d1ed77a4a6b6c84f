"""The one-pass binary-word helpers against the straightforward loops they
replaced, kept here as oracles: the same values on every binary word up to
12 letters and on seeded long words, as tuples and as lists, and the same
ValueError messages."""

import itertools
import random

import pytest

from mahonian.foata import foata_binary, foata_inverse_binary
from mahonian.partitions import partition_of_word
from mahonian.words import ones_twos_compositions, require_binary


def _compositions_by_blocks(v):
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


def _partition_by_filter(w):
    require_binary(w)
    parts = []
    seen2 = 0
    for a in w:
        if a == 2:
            seen2 += 1
        else:
            parts.append(seen2)
    parts.reverse()
    return tuple(x for x in parts if x)


def _binary_image_by_lists(v):
    om, ta = _compositions_by_blocks(v)
    d = len(om) - 1
    if d == 0:
        return tuple(v)
    out = []
    for i in range(d, 0, -1):
        out.extend([1] * (om[i] - 1))
        out.append(2)
    out.extend([1] * om[0])
    for j in range(0, d):
        out.extend([2] * (ta[j] - 1))
        out.append(1)
    out.extend([2] * ta[d])
    return tuple(out)


def _binary_inverse_by_scans(w):
    require_binary(w)
    w = tuple(w)
    suffix = []
    while True:
        m = 0
        while m < len(w) and w[m] == 1:
            m += 1
        if m == len(w):
            break
        n = 0
        while n < len(w) and w[len(w) - 1 - n] == 2:
            n += 1
        if m + n == len(w):
            break
        tail = [2] + [1] * (m + 1) + [2] * n
        tail.extend(suffix)
        suffix = tail
        w = w[m + 1 : len(w) - n - 1]
    return w + tuple(suffix)


PAIRS = [
    (ones_twos_compositions, _compositions_by_blocks),
    (partition_of_word, _partition_by_filter),
    (foata_binary, _binary_image_by_lists),
    (foata_inverse_binary, _binary_inverse_by_scans),
]
IDS = [fn.__name__ for fn, _ in PAIRS]


def _long_words():
    rng = random.Random(20111)
    return [tuple(rng.choice((1, 2)) for _ in range(n)) for n in (64, 96, 128, 200, 256, 384, 512) for _ in range(6)]


@pytest.mark.parametrize("fn, oracle", PAIRS, ids=IDS)
def test_helper_matches_its_oracle_on_every_short_word(fn, oracle):
    for n in range(13):
        for w in itertools.product((1, 2), repeat=n):
            expected = oracle(w)
            assert fn(w) == expected, w
            assert fn(list(w)) == expected, w


@pytest.mark.parametrize("fn, oracle", PAIRS, ids=IDS)
def test_helper_matches_its_oracle_on_long_words(fn, oracle):
    for w in _long_words():
        expected = oracle(w)
        assert fn(w) == expected
        assert fn(list(w)) == expected


@pytest.mark.parametrize("fn, oracle", PAIRS, ids=IDS)
@pytest.mark.parametrize("w", [(1, 3, 2), (0,), (2, 1, 4), (2, 2, 1, 1, 0, 2, 1)])
def test_helper_rejects_what_its_oracle_rejects(fn, oracle, w):
    for word in (w, list(w)):
        with pytest.raises(ValueError) as expected:
            oracle(word)
        with pytest.raises(ValueError) as got:
            fn(word)
        assert str(got.value) == str(expected.value) == "word must use only letters 1 and 2: " + "".join(map(str, w))


def _outcome(fn, w):
    try:
        return fn(w)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("fn, oracle", PAIRS, ids=IDS)
def test_helper_and_oracle_agree_on_every_short_word_over_0123(fn, oracle):
    for n in range(7):
        for w in itertools.product((0, 1, 2, 3), repeat=n):
            assert _outcome(fn, w) == _outcome(oracle, w), w
