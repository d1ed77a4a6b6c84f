import inspect
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mahonian
from mahonian.foata import foata
from mahonian.verify import (
    CHECKS,
    PROFILES,
    CheckDef,
    Counterexample,
    PairReport,
    check_mahonian_pair,
    run_check,
    run_suite,
)


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_passes_quick(name):
    report = run_check(name, profile="quick")
    assert report.passed, f"{name}: {report.witness}"
    assert report.check == name
    assert report.millis >= 0


def test_unknown_check():
    with pytest.raises(KeyError):
        run_check("no-such-check")
    with pytest.raises(KeyError):
        run_suite(names=["no-such-check"])


def test_unknown_bound():
    with pytest.raises(KeyError):
        run_check("csv-gk-conjugacy", bounds={"bogus": 3})


def test_unknown_profile(monkeypatch):
    runs = []
    fake = CheckDef("test-only recording check", lambda: runs.append(1), {})
    monkeypatch.setitem(CHECKS, "synthetic-probe", fake)
    with pytest.raises(ValueError, match="^profile must be quick or full, got 'fulll'$"):
        run_check("synthetic-probe", profile="fulll")
    with pytest.raises(ValueError, match="^profile must be quick or full, got 'Quick'$"):
        run_suite("Quick", names=[])
    with pytest.raises(ValueError, match="^profile must be quick or full, got 'Quick'$"):
        run_suite("Quick", names=["synthetic-probe"])
    assert runs == []
    with pytest.raises(ValueError, match="^profile must be quick or full, got 'fulll'$"):
        run_check("macmahon", profile="fulll")


def test_bound_override():
    report = run_check("csv-gk-conjugacy", bounds={"max_size": 8})
    assert report.passed
    assert report.params == {"max_size": 8}


def test_empty_suite():
    assert run_suite(names=[]) == []


def test_failing_pair_has_witness():
    # maj over {12} vs inv over {21}: 1 vs q
    with pytest.raises(Counterexample) as info:
        check_mahonian_pair([(1, 2)], [(2, 1)])
    assert str(info.value) == "coefficient of 1 is 1 on the left, 0 on the right"
    assert check_mahonian_pair([(2, 1)], [(2, 1)]) is None


def test_report_json_schema():
    report = run_check("foata-worked-example")
    data = report.to_json()
    assert set(data) <= {"check", "params", "verdict", "millis", "witness", "note"}
    assert data["check"] == "foata-worked-example"
    assert data["verdict"] == "pass"
    json.dumps(data)  # serializable
    failing = PairReport(check="x", params={}, verdict="fail", witness="w")
    assert failing.to_json()["witness"] == "w"


def test_empirical_checks_flagged():
    defn = CHECKS["fib-dual-mirror"]
    assert not defn.established
    report = run_check("fib-dual-mirror", profile="quick")
    assert report.to_json().get("note")


def test_suite_order_deterministic():
    names = ["macmahon", "foata-worked-example"]
    reports = run_suite(names=names)
    assert [r.check for r in reports] == names


def test_suite_follows_registry_order():
    names = list(CHECKS)[:6]
    assert [r.check for r in run_suite(names=names)] == names


def test_error_verdict(monkeypatch):
    def raises():
        raise KeyError("synthetic")

    fake = CheckDef("test-only raising check", raises, {})
    monkeypatch.setitem(CHECKS, "synthetic-error", fake)
    report = run_check("synthetic-error")
    assert report.verdict == "error"
    assert report.witness == "KeyError: 'synthetic'"
    assert not report.passed


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        run_check("macmahon", bounds={"max_size": -1})


@pytest.mark.parametrize("name", list(CHECKS))
def test_profile_bounds_are_parameters(name):
    """The bounds table names the check's parameters, in order and with no
    defaults, and gives each an integer pair 0 <= quick <= full."""
    defn = CHECKS[name]
    params = inspect.signature(defn.fn).parameters.values()
    assert list(defn.bounds) == [p.name for p in params]
    assert all(p.default is inspect.Parameter.empty for p in params)
    for key, pair in defn.bounds.items():
        assert type(pair) is tuple and len(pair) == len(PROFILES), f"{key}: {pair!r}"
        assert all(type(v) is int for v in pair), f"{key}: {pair!r}"
        quick, full = pair
        assert 0 <= quick <= full, f"{key}: {pair!r}"


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_legal_bound_gives_a_verdict(name):
    """Each bound at 0..3 with the others at quick, and all of them at 0
    together, is a legal run: it must pass, not report a false witness or
    an error."""
    bounds = CHECKS[name].bounds
    for key in bounds:
        for value in range(4):
            report = run_check(name, bounds={key: value}, profile="quick")
            assert report.verdict == "pass", f"{key}={value}: {report.witness}"
    report = run_check(name, bounds=dict.fromkeys(bounds, 0), profile="quick")
    assert report.verdict == "pass", report.witness


def test_round_trips_catch_broken_inverses_and_collisions(monkeypatch):
    """ballot-split and composition-maps prove injectivity by undoing each
    map with its inverse, so a faulty inverse fails them, and so does a
    split that sends two words to one pair while keeping every other law."""
    from mahonian import verify

    B, W = verify.B, verify.W
    unsplit, unfactor, split = B.ballot_unsplit, W.word_from_compositions, B.ballot_split
    with monkeypatch.context() as m:
        m.setattr(B, "ballot_unsplit", lambda x, y: unsplit(x, y)[::-1])
        report = run_check("ballot-split", profile="quick")
    assert report.verdict == "fail"
    assert report.witness == "ballot_unsplit does not undo the split of 12"
    with monkeypatch.context() as m:
        m.setattr(W, "word_from_compositions", lambda om, ta: unfactor(om, ta)[::-1])
        report = run_check("composition-maps", profile="quick")
    assert report.verdict == "fail"
    assert report.witness == "word_from_compositions does not undo v=12"

    def collapsing_split(w):
        # the split of the least ballot word with as many inversions as w
        n = len(w) // 2
        return split(min(v for v in W.ballot_words(n, n) if W.inv(v) == W.inv(w)))

    with monkeypatch.context() as m:
        m.setattr(B, "ballot_split", collapsing_split)
        report = run_check("ballot-split", profile="quick")
    assert report.verdict == "fail"
    assert report.witness == "ballot_unsplit does not undo the split of 121122"


def test_tree_checks_catch_a_broken_peel_and_a_lost_avoider(monkeypatch):
    """foata-roundtrip and foata-binary-forms peel every edge of the prefix
    tree, so one wrong edge fails both; pattern-pairs holds each grown
    class against the n! filter, so a lost avoider fails it."""
    from mahonian import verify

    peel, grow = verify.foata_peel, verify.W.avoiders

    def broken_peel(w):
        u, a = peel(w)
        return (u[::-1], a) if w == (2, 1, 1, 1, 1) else (u, a)  # the edge 1112 -> 11121

    with monkeypatch.context() as m:
        m.setattr(verify, "foata_peel", broken_peel)
        roundtrip = run_check("foata-roundtrip", profile="quick")
        forms = run_check("foata-binary-forms", profile="quick")
    assert (roundtrip.verdict, roundtrip.witness) == ("fail", "v=11121")
    assert (forms.verdict, forms.witness) == ("fail", "peel differs at w=21111")

    def losing_one(n, patterns):
        grown = list(grow(n, patterns))
        return grown[1:] if n == 4 else grown

    with monkeypatch.context() as m:
        m.setattr(verify.W, "avoiders", losing_one)
        report = run_check("pattern-pairs", profile="quick")
    assert report.verdict == "fail"
    assert report.witness == "n=4, Av{132,213}: 4321 is in the right set only"


def _open_edges(alphabet, max_len):
    """Edges u -> a of the prefix tree (u the parent's image) whose closing
    side, the letters b with (b <= a) == (u[-1] <= a), holds neither the
    whole alphabet nor a single letter, by brute force over every word."""
    count = 0
    for n in range(1, max_len):
        for v in itertools.product(alphabet, repeat=n):
            u = foata(v)
            for a in alphabet:
                closing = [b for b in alphabet if (b <= a) == (u[-1] <= a)]
                count += 1 < len(closing) < len(alphabet)
    return count


def test_tree_checks_step_once_per_edge_and_never_invert(monkeypatch):
    """maj-inv-foata reaches each edge of its two prefix trees once
    (2^11 - 2 binary and (3^7 - 3) / 2 ternary edges at quick) and calls
    the general step only on the edges whose closing side the alphabet
    leaves open: none of the binary edges; foata-roundtrip peels edges
    instead of inverting whole words."""
    from mahonian import verify

    F = sys.modules["mahonian.foata"]
    calls = {"foata_step": 0, "foata_inverse": 0}
    edges = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_tree(alphabet, max_len):
        edges.append(-1)  # the root is reached by no edge
        for item in F.foata_tree(alphabet, max_len):
            edges[-1] += 1
            yield item

    open_ternary = _open_edges((1, 2, 3), 6)
    assert _open_edges((1, 2), 10) == 0 and open_ternary == 484
    monkeypatch.setattr(F, "foata_step", counting("foata_step", F.foata_step))
    monkeypatch.setattr(verify, "foata_tree", counted_tree)
    inverse = counting("foata_inverse", F.foata_inverse)
    for module in (F, verify):
        monkeypatch.setattr(module, "foata_inverse", inverse)
    assert run_check("maj-inv-foata", profile="quick").passed
    assert edges == [2046, 1092] and sum(edges) == 3138
    assert calls["foata_step"] == open_ternary
    assert run_check("foata-roundtrip", profile="quick").passed
    assert calls["foata_inverse"] == 0


def test_excess_checks_read_no_pairing(monkeypatch):
    """excess_profile reads no pairing, so the two checks built on it make
    no match_pairs call; excess-pairing reads the pair count from
    match_pairs itself."""
    W = sys.modules["mahonian.words"]
    real = W.match_pairs
    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(W, "match_pairs", counted)
    assert run_check("excess-rank-lemma", profile="quick").passed
    assert run_check("infinite-pair-wslat", profile="quick").passed
    assert calls == []
    assert run_check("excess-pairing", profile="quick").passed
    assert len(calls) == 1 + 2 + 6 + 20 + 70  # C(2n, n) words for n <= 4


def test_excess_pairing_catches_a_lost_pair(monkeypatch):
    """A pairing that drops its last pair fails excess-pairing at its first
    pair; the excess-rank lemma does not read the pairing and still holds."""
    W = sys.modules["mahonian.words"]
    real = W.match_pairs

    def losing_last(w):
        pairs, un1, un2 = real(w)
        return pairs[:-1], un1, un2

    monkeypatch.setattr(W, "match_pairs", losing_last)
    report = run_check("excess-pairing", profile="quick")
    assert (report.verdict, report.witness) == ("fail", "w=12: e=0, pairs=0")
    assert run_check("excess-rank-lemma", profile="quick").passed


def test_import_loads_no_inspect_dataclasses_or_typing():
    """A fresh interpreter, without site's preloads, imports mahonian
    without loading inspect, dataclasses or typing."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import mahonian; print(*sorted(set(sys.modules) - before))"
    )
    src = Path(mahonian.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "mahonian.verify" in loaded
    heavy = sorted(loaded & {"inspect", "dataclasses", "typing"})
    assert not heavy, (
        f"import mahonian loads {heavy}; perfbench's setup_s times this import, "
        "and these modules were most of its cost"
    )
