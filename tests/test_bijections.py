import itertools

import pytest
from hypothesis import given, strategies as st

from mahonian import bijections
from mahonian.bijections import (
    ballot_split,
    ballot_unsplit,
    chains,
    csv_chain,
    csv_map,
    csv_step,
    csv_trace,
    csv_via_words,
    flip_rightmost_unpaired_two,
    gk_inverse,
    gk_map,
    is_ones_composition,
    is_twos_composition,
    ones_composition_word,
    ones_compositions,
    twos_composition_word,
    twos_compositions,
)
from mahonian.foata import foata_inverse
from mahonian.partitions import (
    boundary_word,
    conjugate,
    delta,
    max_rank,
    partitions_of,
    ranks,
    size,
)
from mahonian.words import (
    as_word,
    ballot_words,
    inv,
    is_ballot,
    match_pairs,
    parse_word,
    require_binary,
    suffix_words,
)


def test_ballot_split_examples():
    for n in range(1, 5):
        w = (1,) * n + (2,) * n
        assert ballot_split(w) == ((1,) * n, (1,) * n)
    x, y = ballot_split(parse_word("112122"))
    assert ballot_unsplit(x, y) == parse_word("112122")
    with pytest.raises(ValueError):
        ballot_split(parse_word("21"))
    with pytest.raises(ValueError):
        ballot_split(parse_word("112"))


def test_ballot_split_inversion_law():
    for n in range(5):
        for w in ballot_words(n, n):
            x, y = ballot_split(w)
            d = sum(1 for a in x if a == 2)
            assert inv(w) == inv(x) + inv(y) + d * d


def test_composition_families():
    assert is_ones_composition((0, 2))
    assert not is_ones_composition((0, 1))  # suffix sum 1 < 2
    assert is_twos_composition((1, 1))
    assert not is_twos_composition((1, 0))  # suffix sum 0 < 1
    assert not is_twos_composition((0, 1))  # leading part must be positive
    assert ones_composition_word((3,)) == (1, 1, 1)
    assert twos_composition_word((3,)) == (1, 1, 1)
    with pytest.raises(ValueError):
        ones_composition_word((0, 1))
    # d + 1 <= 0 entries: no tuple is a member, as catalan_nd_q(n, d) is zero
    for n, d in itertools.product(range(4), (-1, -2)):
        assert list(ones_compositions(n, d)) == list(twos_compositions(n, d)) == []


def test_composition_counts_match_triangle():
    import math

    for n in range(7):
        for d in range(n // 2 + 1):
            triangle = math.comb(n, d) - (math.comb(n, d - 1) if d else 0)
            tuples = [c for c in itertools.product(range(n + 1), repeat=d + 1) if sum(c) == n]
            assert list(ones_compositions(n, d)) == [c for c in tuples if is_ones_composition(c)]
            assert list(twos_compositions(n, d)) == [c for c in tuples if is_twos_composition(c)]
            assert sum(1 for _ in ones_compositions(n, d)) == triangle
            assert sum(1 for _ in twos_compositions(n, d)) == triangle
            assert {ones_composition_word(c) for c in ones_compositions(n, d)} == set(
                ballot_words(n - d, d)
            )
            assert {twos_composition_word(c) for c in twos_compositions(n, d)} == set(
                ballot_words(n - d, d)
            )


def test_csv_step_worked_chain():
    chain = [
        (8, 8, 6, 5, 2, 1),
        (8, 7, 6, 5, 2, 1, 1),
        (8, 6, 5, 5, 2, 2, 1, 1),
        (8, 5, 4, 4, 3, 2, 2, 1, 1),
        (8, 4, 3, 3, 3, 3, 2, 2, 1, 1),
    ]
    for before, after in zip(chain, chain[1:]):
        assert csv_step(before) == after
        assert size(after) == 30
    assert csv_map(chain[0]) == chain[-1]


def _csv_step_by_conjugates(p):
    """Reference rank-reduction pass: remove a column of height i through
    the conjugate and conjugate back."""
    r = max_rank(p)
    if r is None or r < 0:
        raise ValueError("rank reduction needs a nonnegative maximum rank")
    rho = ranks(p)
    i = max(k for k, x in enumerate(rho, start=1) if x == r)
    cols = list(conjugate(p))
    if i not in cols:
        raise ValueError(f"no column of height {i} to remove from {p}")
    cols.remove(i)
    parts = list(conjugate(tuple(cols)))
    if i > 1:
        parts.append(i - 1)
        parts.sort(reverse=True)
    if parts:
        parts[0] += 1
    else:
        parts = [1]
    return tuple(parts)


def _outcome(f, p):
    try:
        return f(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_csv_step_matches_conjugate_oracle():
    # where the maximum rank is last attained at index 1 the oracle gives p
    # back unchanged, and csv_step refuses it instead
    refused = 0
    for n in range(19):
        for p in partitions_of(n):
            want = _outcome(_csv_step_by_conjugates, p)
            if want == p:
                refused += 1
                with pytest.raises(ValueError, match="last attained at an index above 1"):
                    csv_step(p)
            else:
                assert _outcome(csv_step, p) == want, p
    assert refused > 0


def test_csv_chain_checks_domain_when_called():
    with pytest.raises(ValueError, match="first two parts must agree"):
        csv_chain((2, 1))
    assert list(csv_chain((2, 1, 1))) == [(2, 1, 1)]
    assert list(csv_chain((1, 1))) == [(1, 1)]
    assert list(csv_chain(())) == [()]
    assert list(csv_chain((2, 2))) == [(2, 2), (2, 1, 1)]


def test_csv_step_preconditions():
    with pytest.raises(ValueError):
        csv_step((1, 1))  # all ranks already negative
    with pytest.raises(ValueError):
        csv_step(())
    for p in ((2, 1), (3, 1), (3, 2)):  # maximum rank last attained at index 1
        with pytest.raises(ValueError):
            csv_step(p)


def test_csv_map_domain():
    assert csv_map(()) == ()
    assert csv_map((1, 1)) == (1, 1)  # already all ranks negative
    assert csv_map((2, 1, 1)) == (2, 1, 1)  # outside the domain but all ranks negative
    with pytest.raises(ValueError):
        csv_map((2, 1))  # rank 0 but unequal first parts


def test_csv_trace_stage_count():
    trace = csv_trace((8, 8, 6, 5, 2, 1))
    assert len(trace) == 5
    assert trace[0]["r"] == 3
    assert trace[-1]["r"] == -2
    assert [st["i"] for st in trace] == [2, 3, 4, 4, 1]


def test_flip_maps():
    assert flip_rightmost_unpaired_two(parse_word("2211")) == parse_word("2111")
    with pytest.raises(ValueError):
        flip_rightmost_unpaired_two(parse_word("1122"))


def test_flip_preserves_pairs():
    import itertools

    for n in range(8):
        for w in itertools.product((1, 2), repeat=n):
            pairs, _, un2 = match_pairs(w)
            if un2:
                assert match_pairs(flip_rightmost_unpaired_two(w))[0] == pairs


def test_gk_examples():
    assert gk_map(parse_word("121")) == parse_word("121")
    assert gk_inverse(parse_word("121")) == parse_word("121")
    assert gk_map(()) == ()
    with pytest.raises(ValueError):
        gk_map(parse_word("1221"))
    with pytest.raises(ValueError):
        gk_inverse(parse_word("2112"))


def test_gk_roundtrip():
    for v in suffix_words((1, 2, 1), 10):
        w = gk_map(v)
        assert w == () or (is_ballot(w) and w[-2:] == (2, 1))
        assert gk_inverse(w) == v
    for w in suffix_words((2, 1), 10):
        if not is_ballot(w):
            continue
        assert gk_map(gk_inverse(w)) == w


def test_conjugacy_small():
    for n in range(15):
        for lam in partitions_of(n):
            if delta(lam) != 0:
                continue
            assert csv_map(lam) == csv_via_words(lam)
            out = csv_map(lam)
            assert size(out) == n
            assert max_rank(out) is None or max_rank(out) <= -1


def test_conjugacy_preimage_is_121_family():
    for n in range(13):
        for lam in partitions_of(n):
            if delta(lam) != 0:
                continue
            v = foata_inverse(boundary_word(lam))
            assert v == () or v[-3:] == (1, 2, 1)


def test_chain_decomposition_small():
    for n in range(7):
        seen = set()
        for chain in chains(n):
            s2 = sum(1 for a in chain[0] if a == 2)
            e2 = sum(1 for a in chain[-1] if a == 2)
            assert s2 + e2 == n
            for w in chain:
                assert w not in seen
                seen.add(w)
        assert len(seen) == 2**n


# ---------------------------------------------------------------------------
# flip-by-flip oracles: re-pair the word after every single flip


def _flip_two_by_slicing(w):
    w = as_word(w)
    _, _, un2 = match_pairs(w)
    if not un2:
        raise ValueError("no unpaired two")
    pos = un2[-1]
    return w[: pos - 1] + (1,) + w[pos:]


def _flip_one_by_slicing(w):
    w = as_word(w)
    _, un1, _ = match_pairs(w)
    if not un1:
        raise ValueError("no unpaired one")
    pos = un1[0]
    return w[: pos - 1] + (2,) + w[pos:]


def _chains_flip_by_flip(n):
    out = []
    for start in itertools.product((1, 2), repeat=n):
        _, un1, un2 = match_pairs(start)
        if un1:
            continue
        chain = [start]
        w = start
        for _ in range(len(un2)):
            w = _flip_two_by_slicing(w)
            chain.append(w)
        out.append(chain)
    return out


def _gk_map_flip_by_flip(v):
    v = as_word(v)
    require_binary(v)
    if v == ():
        return ()
    if v[-3:] != (1, 2, 1):
        raise ValueError("word must end in 121")
    x = v[:-3]
    t = len(match_pairs(x)[2])
    for _ in range(t):
        x = _flip_two_by_slicing(x)
    return x + (1,) + (2,) * (t + 1) + (1,)


def _gk_inverse_flip_by_flip(w):
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
    if i < 0 or w[i] != 1:
        raise ValueError("word is not of the form y 1 2^(t+1) 1")
    t = (len(w) - 2 - i) - 1
    y = w[:i]
    for _ in range(t):
        y = _flip_one_by_slicing(y)
    return y + (1, 2, 1)


_CHAIN_MAPS = [
    (flip_rightmost_unpaired_two, _flip_two_by_slicing),
    (gk_map, _gk_map_flip_by_flip),
    (gk_inverse, _gk_inverse_flip_by_flip),
]


def test_chain_maps_match_flip_by_flip_oracles_exhaustively():
    domain = [w for n in range(13) for w in itertools.product((1, 2), repeat=n)]
    domain += [w for n in range(8) for w in itertools.product((1, 2, 3), repeat=n)]
    for w in domain:
        for new, old in _CHAIN_MAPS:
            assert _outcome(new, w) == _outcome(old, w), (new.__name__, w)


def test_gk_maps_keep_their_validation_messages():
    for f, w, message in [
        (gk_map, (1, 3, 1, 2, 1), "word must use only letters 1 and 2: 13121"),
        (gk_map, (1, 2, 3), "word must use only letters 1 and 2: 123"),
        (gk_map, (2, 2, 1, 2, 1, 1), "word must end in 121"),
        (gk_inverse, (1, 2, 3), "word must use only letters 1 and 2: 123"),
        (gk_inverse, (1, 3, 1, 2, 2, 1), "word must use only letters 1 and 2: 131221"),
        (gk_inverse, (2, 1), "ballot word required"),
    ]:
        assert _outcome(f, w) == f"ValueError: {message}", (f.__name__, w)


def test_chains_match_flip_by_flip_oracle():
    for n in range(11):
        assert chains(n) == _chains_flip_by_flip(n), n


@given(st.lists(st.sampled_from([1, 2]), max_size=1997).map(lambda x: tuple(x) + (1, 2, 1)))
def test_gk_maps_match_flip_by_flip_oracles_on_long_words(v):
    w = gk_map(v)
    assert w == _gk_map_flip_by_flip(v)
    assert gk_inverse(w) == _gk_inverse_flip_by_flip(w) == v


def test_gk_maps_pair_each_word_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return match_pairs(w)

    monkeypatch.setattr(bijections, "match_pairs", counted)
    v = parse_word("22212121")  # the prefix 22212 has three unpaired twos
    w = gk_map(v)
    assert w == parse_word("11112122221") and len(calls) == 1
    calls.clear()
    assert gk_inverse(w) == v and len(calls) == 1
