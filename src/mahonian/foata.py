"""Foata's fundamental bijection on words over the positive integers.

The image is built one letter at a time, and the image of v + (a,)
depends only on the image of v and on a.  foata_step(w, a) is that
stage: it cuts w into factors, rotates each factor so its last letter
moves to the front, and appends a.  If w's last letter is <= a, each
factor ends at a letter <= a (and all earlier letters of the factor are
> a); otherwise each factor ends at a letter > a.  The resulting map is
a bijection that carries the major index to the inversion number:
maj(v) = inv(foata(v)) for every word v.

The step has three consumers: foata is the left fold of the step over v
(on words with three or more letter values), foata_trace records every
stage of that fold with its factors, and foata_tree streams (v, foata(v))
over every word up to a length, taking each image from its parent's image
with a single step.

foata_peel undoes one step, foata(v + (a,)) -> (foata(v), a), and
foata_inverse is its fold (again on three or more letter values).
foata_binary and foata_inverse_binary are independent routes to the same
bijection on binary words and never call the step; they are the oracles
the exhaustive checks compare it against.

The letters that close factors, those <= a when w's last letter is <= a
and those > a otherwise, form the closing side.  If the closing side
holds every letter of the alphabet, each factor is one letter and the
step is w + (a,).  If it holds one letter value, every factor ends in
that value and the step moves w's last letter to the front:
w[-1:] + w[:-1] + (a,).  With low, second and top the alphabet's least,
second-greatest and greatest letters (all three equal on one letter),
that is one rule: appending top appends it; appending low after a final
low, or second after a final top, moves the last letter to the front
first; any other letter takes the general step.  The rule has three
readers.  foata_tree reads it off its alphabet on every edge.  foata
reads it off a word with two letter values, where low == second and the
rule decides every letter, and foata_inverse undoes it there: peeling
top drops it, and peeling low also moves the first letter to the back.
A one-value word is a fixed point.

foata_step, foata_trace and foata_peel stay general, and they are the
references the closed forms are tested against.  The fold of the step
(foata_trace's stages) shares no closed form with foata or the tree;
foata_trace reports each stage's factors, which the closed forms never
cut; and foata_peel undoes the general step, so foata-roundtrip holds
every closed-form tree edge against a route that shares none of its
code.  On three or more letter values foata and foata_inverse take the
general folds on every letter, though the rule read off the word's own
low, second and top letters would decide some of those steps too.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .words import Word, as_word, format_word, ones_twos_compositions, require_binary

Trace = list[tuple[Word, tuple[Word, ...] | None]]


def foata_step(w: Sequence[int], a: int, *, factors: list[Word] | None = None) -> Word:
    """Next stage of the construction: w cut into factors, each factor
    rotated, then a appended.  With w = foata(v) this is foata(v + (a,)).

    One pass over w with a pending-factor buffer; the letters are not
    validated.  If factors is a list, the factors of w are appended to it.
    """
    if not w:
        return (a,)
    low = w[-1] <= a  # which cut rule applies; w's last letter always closes
    out: list[int] = []
    pending: list[int] = []
    for b in w:
        if (b <= a) == low:
            if factors is not None:
                factors.append((*pending, b))
            out.append(b)
            if pending:
                out += pending
                pending = []
        else:
            pending.append(b)
    out.append(a)
    return tuple(out)


def foata(v: Sequence[int]) -> Word:
    """Image of v under the bijection; a rearrangement of v with
    inv(foata(v)) = maj(v).

    A word with two letter values takes the module docstring's rule on
    every letter; any other word is the fold of foata_step.
    """
    v = as_word(v)
    letters = set(v)
    if len(letters) < 2:
        return v  # a one-value word is a fixed point
    if len(letters) == 2:
        hi = max(letters)
        w = v[:1]
        for a in v[1:]:
            w = w + (a,) if a == hi else w[-1:] + w[:-1] + (a,)
        return w
    w = ()
    for a in v:
        w = foata_step(w, a)
    return w


def foata_trace(v: Sequence[int]) -> Trace:
    """Every stage of the construction.

    Stage i is (w_i, factors), where the factors are the ones used to
    build w_{i+1}; the final stage, the image itself, carries None.
    """
    stages: Trace = []
    w: Word = ()
    for a in as_word(v):
        factors: list[Word] = []
        nxt = foata_step(w, a, factors=factors)
        if w:
            stages.append((w, tuple(factors)))
        w = nxt
    if w:
        stages.append((w, None))
    return stages


def foata_tree(alphabet: Sequence[int], max_len: int) -> Iterator[tuple[Word, Word]]:
    """(v, foata(v)) for every word v of at most max_len letters over
    alphabet, in lexicographic order (a preorder of the prefix tree, so
    each word comes before its extensions).  The alphabet is read as a
    set: its order and repeated letters do not matter.

    One depth-first walk with an explicit stack, so depth is bounded only
    by memory and no level is ever held.  Each child's image is one step
    from its parent's image, computed just before the child is yielded,
    so a step that raises does so at the same word as folding each word
    of the stream in turn would.  An edge whose closing side the alphabet
    decides takes the closed form, a fixed number of tuple operations
    (see the module docstring); the others call foata_step.  This walker
    stays apart from words.walk: one preorder walker serving both made
    every stream measured, this one and walk's leaf streams, 16-54%
    slower.
    """
    alphabet = tuple(sorted(set(as_word(alphabet))))
    if max_len < 0:
        raise ValueError(f"word length must be nonnegative, got {max_len}")
    return _tree(alphabet, max_len)


def _tree(alphabet: Word, max_len: int) -> Iterator[tuple[Word, Word]]:
    yield (), ()
    if not (max_len and alphabet):
        return
    low, second, top = alphabet[0], alphabet[-2:][0], alphabet[-1]  # all equal on one letter
    v: list[int] = []
    images: list[Word] = [()]  # images[i] is the image of v[:i]
    stack = [iter(alphabet)]
    while stack:
        for a in stack[-1]:
            u = images[-1]
            if not u or a == top:
                w = u + (a,)
            elif a == low == u[-1] or (a == second and u[-1] == top):
                w = u[-1:] + u[:-1] + (a,)
            else:
                w = foata_step(u, a)
            v.append(a)
            yield tuple(v), w
            if len(v) < max_len:
                images.append(w)
                stack.append(iter(alphabet))
                break
            v.pop()
        else:
            stack.pop()
            images.pop()
            del v[-1:]  # the root's children were reached by no letter


def foata_peel(w: Sequence[int]) -> tuple[Word, int]:
    """Undo one step: foata(v + (a,)) -> (foata(v), a).

    Peel the final letter a and undo the factor rotations.  After a
    rotation each factor starts with its old closing letter, so comparing
    the first remaining letter against a recovers which cutting rule
    applied, and the factor starts with it.  One pass carries the current
    factor's head and emits it when the next factor starts; each rule has
    its own loop, so a letter costs one comparison.  The letters are not
    validated.
    """
    if not w:
        raise ValueError("cannot peel the empty word")
    a = w[-1]
    if len(w) == 1:
        return (), a
    head = w[0]
    out: list[int] = []
    if head <= a:  # every factor closes at a letter <= a
        for b in w[1:-1]:
            if b <= a:
                out.append(head)
                head = b
            else:
                out.append(b)
    else:  # every factor closes at a letter > a
        for b in w[1:-1]:
            if b > a:
                out.append(head)
                head = b
            else:
                out.append(b)
    out.append(head)
    return tuple(out), a


def foata_inverse(w: Sequence[int]) -> Word:
    """Inverse map, read back to front.

    A word with two letter values undoes the module docstring's rule on
    every letter; any other word is the fold of foata_peel.
    """
    u = as_word(w)
    letters = set(u)
    if len(letters) < 2:
        return u  # a one-value word is a fixed point
    out: list[int] = []
    if len(letters) == 2:
        hi = max(letters)
        while len(u) > 1:
            a = u[-1]
            u = u[:-1] if a == hi else u[1:-1] + u[:1]
            out.append(a)
        out += u
    else:
        while u:
            u, a = foata_peel(u)
            out.append(a)
    out.reverse()
    return tuple(out)


def foata_inverse_binary(w: Sequence[int]) -> Word:
    """Binary-only inverse via the peeling identity
    1^m 2 u 1 2^n  ->  inverse(u) 2 1^(m+1) 2^n.

    Kept separate from foata_inverse as an independent cross-check path.
    Each peel finds the leading ones by tuple.index and counts the
    trailing twos, and the peeled tails grow one tuple suffix.  The
    leading ones are taken by position, so they are counted and checked
    against w's ones at the end; the first letter that is neither 1 nor
    2 raises require_binary's error.
    """
    w0 = w = tuple(w)
    suffix: Word = ()
    ones = 0  # letters taken for ones by position alone
    while 2 in w:
        m = w.index(2)
        n = 0
        for a in reversed(w):
            if a == 2:
                n += 1
            elif a == 1:
                break
            else:
                require_binary(w0)
        if m + n == len(w):  # 1^m 2^n is a fixed point
            ones += m
            break
        # w = 1^m 2 u 1 2^n
        ones += m + 1
        suffix = (2,) + (1,) * (m + 1) + (2,) * n + suffix
        w = w[m + 1 : len(w) - n - 1]
    else:
        ones += len(w)  # 1^a is a fixed point
    if w0.count(1) != ones:
        require_binary(w0)
    return w + suffix


def foata_binary(v: Sequence[int]) -> Word:
    """Closed form of the bijection on binary words.

    With v = 1^m0 2^n0 ... 1^md 2^nd the image is
    1^(md-1) 2 ... 1^(m1-1) 2 1^m0 2^(n0-1) 1 ... 2^(n(d-1)-1) 1 2^nd,
    written run by run with tuple repetition.
    """
    om, ta = ones_twos_compositions(v)
    if len(om) == 1:
        return tuple(v)
    out: list[int] = []
    for m in om[:0:-1]:
        out += (1,) * (m - 1)
        out.append(2)
    out += (1,) * om[0]
    for n in ta[:-1]:
        out += (2,) * (n - 1)
        out.append(1)
    out += (2,) * ta[-1]
    return tuple(out)


def render_trace(v: Sequence[int]) -> str:
    """Stage table with factors separated by dots, one stage per line."""
    lines = []
    for i, (stage, factors) in enumerate(foata_trace(v), start=1):
        word_s = format_word(stage)
        if factors is not None:
            lines.append(f"w{i} = {word_s} = {'·'.join(format_word(f) for f in factors)}")
        else:
            lines.append(f"w{i} = {word_s}")
    return "\n".join(lines)
