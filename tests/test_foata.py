import itertools
import sys
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from mahonian.foata import (
    foata,
    foata_binary,
    foata_inverse,
    foata_inverse_binary,
    foata_peel,
    foata_step,
    foata_trace,
    foata_tree,
    render_trace,
)
from mahonian.words import format_word, inv, maj, parse_word

words = st.lists(st.integers(min_value=1, max_value=6), max_size=20).map(tuple)
long_words = st.lists(st.integers(min_value=1, max_value=6), max_size=300).map(tuple)
binary_words = st.lists(st.integers(min_value=1, max_value=2), max_size=40).map(tuple)
two_letter_words = st.tuples(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.lists(st.booleans(), max_size=600),
).map(lambda t: tuple(t[0] if pick else t[1] for pick in t[2]))


def _fold(v):
    """The general fold of the step, which foata takes on three or more
    letter values."""
    return reduce(foata_step, v, ())


def _peel_fold(w):
    """The general fold of the peel, which foata_inverse takes on three or
    more letter values."""
    out = []
    while w:
        w, a = foata_peel(w)
        out.append(a)
    return tuple(reversed(out))


def test_worked_example():
    assert foata(parse_word("2121312")) == parse_word("2213112")
    assert foata(()) == ()
    assert foata((1,)) == (1,)
    assert foata((7,)) == (7,)


def test_worked_example_trace():
    expected = [
        ("2", ("2",)),
        ("21", ("2", "1")),
        ("212", ("2", "12")),
        ("2211", ("2", "2", "1", "1")),
        ("22113", ("2", "2", "113")),
        ("223111", ("2", "2", "31", "1", "1")),
        ("2213112", None),
    ]
    got = [
        (format_word(w), None if fs is None else tuple(format_word(f) for f in fs))
        for w, fs in foata_trace(parse_word("2121312"))
    ]
    assert got == expected
    assert foata_trace(()) == []
    assert [
        format_word(w) for w, _ in foata_trace(parse_word("12"))
    ] == ["1", "12"]


def test_render_trace_dotted():
    text = render_trace(parse_word("2121312"))
    assert "w6 = 223111 = 2·2·31·1·1" in text
    assert text.endswith("w7 = 2213112")


def test_inverse_examples():
    assert foata_inverse(parse_word("2213112")) == parse_word("2121312")
    assert foata_inverse(parse_word("21")) == parse_word("21")
    assert foata_inverse(()) == ()


def test_binary_closed_form_base_case():
    # no-descent words are fixed
    for m in range(4):
        for n in range(4):
            v = (1,) * m + (2,) * n
            assert foata_binary(v) == v
            assert foata(v) == v


def test_exhaustive_small_alphabet():
    for length in range(7):
        for v in itertools.product((1, 2, 3), repeat=length):
            w = foata(v)
            assert sorted(w) == sorted(v)
            assert maj(v) == inv(w)
            assert foata_inverse(w) == v


def test_binary_paths_agree():
    for length in range(11):
        for v in itertools.product((1, 2), repeat=length):
            w = foata(v)
            assert foata_binary(v) == w
            assert foata_inverse_binary(w) == foata_inverse(w)


def test_rewriting_rules():
    for length in range(9):
        for v in itertools.product((1, 2), repeat=length):
            w = foata(v)
            assert foata(v + (2,)) == w + (2,)
            assert foata(v + (1, 1)) == (1,) + foata(v + (1,))
            assert foata(v + (2, 1)) == (2,) + w + (1,)


@given(words)
def test_roundtrip_and_transport(v):
    w = foata(v)
    assert sorted(w) == sorted(v)
    assert maj(v) == inv(w)
    assert foata_inverse(w) == v


@given(words)
def test_foata_is_fold_of_step(v):
    assert foata(v) == _fold(v)


def _closed_form_domains():
    yield ()
    for alphabet, max_len in (((1, 2, 3), 7), ((1, 2, 3, 4), 6), ((3, 7), 12)):
        for n in range(max_len + 1):
            yield from itertools.product(alphabet, repeat=n)
    for n in range(1, 7):
        yield from itertools.permutations(range(1, n + 1))


def test_closed_forms_agree_with_the_general_folds():
    for v in _closed_form_domains():
        assert foata(v) == _fold(v), v
        assert foata_inverse(v) == _peel_fold(v), v


@given(two_letter_words)
def test_closed_forms_on_long_two_letter_words(v):
    w = foata(v)
    assert w == _fold(v)
    assert foata_inverse(w) == v
    assert foata_inverse(v) == _peel_fold(v)


def test_closed_forms_call_no_general_route(monkeypatch):
    F = sys.modules["mahonian.foata"]
    calls = {"step": 0, "peel": 0}

    def step(w, a, **kw):
        calls["step"] += 1
        return foata_step(w, a, **kw)

    def peel(w):
        calls["peel"] += 1
        return foata_peel(w)

    monkeypatch.setattr(F, "foata_step", step)
    monkeypatch.setattr(F, "foata_peel", peel)
    for v in ((3, 7, 7, 3, 7, 3, 3), (2, 2, 2), (1, 2, 2, 1, 2, 1)):
        assert foata_inverse(foata(v)) == v
    assert calls == {"step": 0, "peel": 0}
    v = (1, 3, 2, 1, 2)  # three letter values: the general routes
    assert foata_inverse(foata(v)) == v
    assert calls == {"step": len(v), "peel": len(v)}


@pytest.mark.parametrize("alphabet", [(1, 2), (1, 2, 3), (1, 3, 7)])
def test_foata_tree_is_lexicographic_preorder(alphabet):
    expected = sorted(v for n in range(8) for v in itertools.product(alphabet, repeat=n))
    assert list(foata_tree(alphabet, 7)) == [(v, foata(v)) for v in expected]


@given(st.sets(st.integers(min_value=1, max_value=9), min_size=1, max_size=6), st.integers(0, 5))
def test_foata_tree_closed_forms_agree_with_the_fold(letters, max_len):
    """Over alphabets with gaps, each edge's closed form (whole closing
    side, one closing value) or general step gives the general fold of v,
    which shares no closed form with the tree."""
    expected = sorted(v for n in range(max_len + 1) for v in itertools.product(letters, repeat=n))
    assert list(foata_tree(tuple(letters), max_len)) == [(v, _fold(v)) for v in expected]


@pytest.mark.parametrize("alphabet", [(4,), (1, 2), (1, 2, 3), (2, 5, 9), (1, 3, 4, 8)])
def test_foata_tree_steps_only_where_the_alphabet_leaves_the_edge_open(monkeypatch, alphabet):
    """The tree calls foata_step on exactly the edges u -> a that no closed
    form decides: a is not the greatest letter, not the least letter after
    a final least letter, and not the second-greatest after a final
    greatest.  The image's last letter is the parent word's last letter."""
    F = sys.modules["mahonian.foata"]
    calls = []

    def step(w, a, **kw):
        calls.append(a)
        return foata_step(w, a, **kw)

    monkeypatch.setattr(F, "foata_step", step)
    low, second, top = alphabet[0], alphabet[-2:][0], alphabet[-1]  # all one letter on (4,)
    open_edges = 0
    for v, _ in foata_tree(alphabet, 6):
        if len(v) > 1:
            a, last = v[-1], v[-2]
            open_edges += a != top and not a == low == last and not (a == second and last == top)
    assert len(calls) == open_edges
    assert open_edges or len(alphabet) < 3


def test_foata_tree_edges():
    assert list(foata_tree((1, 2), 0)) == [((), ())]
    assert list(foata_tree((), 0)) == [((), ())]
    assert list(foata_tree((), 3)) == [((), ())]
    with pytest.raises(ValueError):
        foata_tree((1, 2), -1)
    with pytest.raises(ValueError):
        foata_tree((0, 1), 2)


def test_foata_tree_reads_its_alphabet_as_a_set():
    assert list(foata_tree((2, 1), 2)) == list(foata_tree((1, 2), 2))
    assert list(foata_tree((1, 1), 2)) == [((), ()), ((1,), (1,)), ((1, 1), (1, 1))]
    assert list(foata_tree((3, 1, 3), 3)) == list(foata_tree((1, 3), 3))


def test_foata_tree_raises_where_the_fold_does(monkeypatch):
    F = sys.modules["mahonian.foata"]
    real_step = F.foata_step

    def step(w, a, **kw):
        # the edge 12 -> 122 is a general ternary edge: 2 closes with 1
        if w == (1, 2) and a == 2:
            raise ArithmeticError("synthetic")
        return real_step(w, a, **kw)

    monkeypatch.setattr(F, "foata_step", step)
    seen = []
    with pytest.raises(ArithmeticError):
        for v, _ in foata_tree((1, 2, 3), 3):
            seen.append(v)
    # the general fold of the words in the same order first raises at
    # (1, 2, 2); foata itself takes a closed form on two-letter words
    assert seen == [(), (1,), (1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2), (1, 2, 1)]
    for v in seen:
        reduce(F.foata_step, v, ())
    with pytest.raises(ArithmeticError):
        reduce(F.foata_step, (1, 2, 2), ())


def test_foata_tree_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    stream = foata_tree((1, 2), n)
    for v, w in stream:
        if len(v) == n:
            break
    assert v == w == (1,) * n
    assert next(stream) == ((1,) * (n - 1) + (2,), (1,) * (n - 1) + (2,))


@given(words, st.integers(min_value=1, max_value=6))
def test_peel_undoes_step(w, a):
    assert foata_peel(foata_step(w, a)) == (w, a)


def test_peel_of_the_empty_word():
    with pytest.raises(ValueError):
        foata_peel(())


@given(long_words)
def test_inverse_roundtrip_long(v):
    assert foata_inverse(foata(v)) == v


@given(binary_words)
def test_inverse_matches_binary_oracle(w):
    assert foata_inverse(w) == foata_inverse_binary(w)
