import contextlib
import io
import itertools
import json
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mahonian.cli import _GENFUN, _int_bounds, main
from mahonian.families import FAMILIES
from mahonian.verify import CHECKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat(capsys):
    code, out, _ = run_cli(capsys, "stat", "2121312", "--maj", "--inv", "--des")
    assert code == 0
    assert out.strip() == "maj=9 inv=7 des=3"


def test_stat_empty_word(capsys):
    code, out, _ = run_cli(capsys, "stat", "", "--maj", "--excess")
    assert code == 0
    assert out.strip() == "maj=0 excess=0"


def test_stat_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "stat", "112211212", "--inv")
    assert code == 0
    assert json.loads(out) == {"word": "112211212", "inv": 7}


def test_map_phi(capsys):
    code, out, _ = run_cli(capsys, "map", "phi", "2121312")
    assert code == 0
    assert out.strip() == "2213112"


def test_map_phi_trace(capsys):
    code, out, _ = run_cli(capsys, "map", "phi", "2121312", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w1 = 2 = 2"
    assert lines[5] == "w6 = 223111 = 2·2·31·1·1"
    assert lines[6] == "w7 = 2213112"


def test_trace_alias(capsys):
    code, out, _ = run_cli(capsys, "trace", "phi", "2121312")
    assert code == 0
    assert out.splitlines()[-1] == "w7 = 2213112"


def test_map_prime(capsys):
    code, out, _ = run_cli(capsys, "map", "prime", "12")
    assert code == 0
    assert out.strip() == "12"


def test_map_lambda(capsys):
    code, out, _ = run_cli(capsys, "--json", "map", "lambda", "112211212")
    assert code == 0
    data = json.loads(out)
    assert data["partition"] == "(3,2,2)"
    assert data["box"] == [5, 4]


def test_map_boundary(capsys):
    code, out, _ = run_cli(capsys, "map", "boundary", "(3,2,2)")
    assert code == 0
    assert out.strip() == "221121"


def test_map_csv(capsys):
    code, out, _ = run_cli(capsys, "map", "csv", "(8,8,6,5,2,1)")
    assert code == 0
    assert out.strip() == "(8,4,3,3,3,3,2,2,1,1)"


def test_map_csv_trace(capsys):
    code, out, _ = run_cli(capsys, "map", "csv", "(8,8,6,5,2,1)", "--trace")
    assert code == 0
    assert "rho = [2, 3, 2, 1]   r = 3   i = 2" in out
    assert "w = 21212221212211" in out
    assert "v = 22122112221121" in out
    assert "eps = [2, 3, 4, 3, 2]" in out
    assert out.count("lambda = ") == 5


def test_map_csv_trace_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "map", "csv", "(8,8,6,5,2,1)", "--trace")
    assert code == 0
    stages = json.loads(out)
    assert [st["partition"] for st in stages][-1] == "(8,4,3,3,3,3,2,2,1,1)"
    assert stages[0]["excesses"] == [2, 3, 4, 3, 2]


def test_map_domain_error(capsys):
    code, _, err = run_cli(capsys, "map", "beta", "2112")
    assert code == 2
    assert "ballot" in err


def test_map_gk(capsys):
    code, out, _ = run_cli(capsys, "map", "gk", "121")
    assert code == 0 and out.strip() == "121"
    code, out, _ = run_cli(capsys, "map", "gk-inv", "121")
    assert code == 0 and out.strip() == "121"


# the exact stdout of each map id and each trace, in text and in --json,
# keyed by the command line after "mahonian"
_MAP_OUTPUTS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_maps.json").read_text())


@pytest.mark.parametrize("command", list(_MAP_OUTPUTS))
def test_map_output_pinned(capsys, command):
    assert run_cli(capsys, *shlex.split(command)) == (0, _MAP_OUTPUTS[command], "")


def test_map_trace_of_an_untraced_map(capsys):
    assert run_cli(capsys, "map", "gk", "121", "--trace") == (2, "", "error: --trace applies only to phi and csv\n")


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ballot", "3")
    assert code == 0
    assert out.split() == ["111222", "112122", "112212", "121122", "121212"]


def test_enumerate_partitions(capsys):
    code, out, _ = run_cli(capsys, "--json", "enumerate", "partitions", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["items"][0] == "(1,1,1,1)"


def test_enumerate_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "suffix", "21", "8", "--limit", "3")
    assert code == 0
    assert len(out.splitlines()) == 3  # first item is the empty word
    code, out, err = run_cli(capsys, "enumerate", "suffix", "21", "8", "--limit", "-1")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_enumerate_limit_pulls_no_extra_item(capsys, monkeypatch):
    pulls = []

    def stream():
        for k in itertools.count():
            pulls.append(k)
            yield (1,) * k

    usage, _, fmt = FAMILIES["perms"]
    monkeypatch.setitem(FAMILIES, "perms", (usage, lambda *params: stream(), fmt))
    code, out, _ = run_cli(capsys, "enumerate", "perms", "12", "--limit", "2")
    assert code == 0
    assert out.splitlines() == ["", "1"]
    assert pulls == [0, 1]


def test_genfun(capsys):
    code, out, _ = run_cli(capsys, "genfun", "catalan-qt", "2")
    assert code == 0 and out.strip() == "1 + q^2*t"
    code, out, _ = run_cli(capsys, "genfun", "lucanomial", "4", "2")
    assert code == 0 and out.strip() == "s^4 + 3*s^2*t + 2*t^2"
    code, out, _ = run_cli(capsys, "genfun", "qbinom", "4", "2")
    assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"


def test_genfun_product(capsys):
    code, out, _ = run_cli(capsys, "--json", "genfun", "product-no-part", "1", "--truncate", "6")
    assert code == 0
    data = json.loads(out)
    # coefficient of q^5 is 2: partitions 5 and 3+2
    assert {"exponents": [5, 0, 0, 0], "coeff": 2} in data["terms"]
    # without --truncate the products stop at degree 20
    code, out, _ = run_cli(capsys, "genfun", "product-no-part", "1")
    assert code == 0 and out.split()[-1] == "137*q^20"
    assert run_cli(capsys, "genfun", "product-no-part", "1", "--truncate", "20") == (0, out, "")
    assert run_cli(capsys, "genfun", "product-mod", "5", "1")[1].split()[-1] == "20*q^20"


def test_genfun_unknown(capsys):
    code, _, err = run_cli(capsys, "genfun", "nope", "1")
    assert code == 2


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "foata-worked-example")
    assert code == 0
    assert out.startswith("PASS foata-worked-example")


def test_verify_with_bound(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "csv-gk-conjugacy", "--max-size", "10")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["params"] == {"max_size": 10}
    assert reports[0]["verdict"] == "pass"


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-check")
    assert code == 2
    assert "available checks" in err


def test_verify_inapplicable_bound(capsys):
    code, _, err = run_cli(capsys, "verify", "foata-worked-example", "--degree", "5")
    assert code == 2


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "csv-gk-conjugacy" in out


def test_usage_error_exit_code(capsys):
    assert main(["stat"]) == 2  # missing argument
    assert main(["nonsense"]) == 2


def test_seed_accepted(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "stat", "21", "--inv")
    assert code == 0 and out.strip() == "inv=1"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from mahonian import verify as V

    def always_fails():
        raise V.Counterexample("synthetic witness")

    fake = V.CheckDef("test-only failing check", always_fails, {})
    monkeypatch.setitem(V.CHECKS, "synthetic-failure", fake)
    code, out, _ = run_cli(capsys, "verify", "synthetic-failure")
    assert code == 1
    assert "FAIL synthetic-failure" in out
    assert "synthetic witness" in out
    code, out, _ = run_cli(capsys, "--json", "verify", "synthetic-failure")
    assert code == 1
    assert json.loads(out)[0]["verdict"] == "fail"


def test_verify_error_verdict(capsys, monkeypatch):
    from mahonian import verify as V

    def raises():
        raise ValueError("synthetic bug")

    fake = V.CheckDef("test-only raising check", raises, {})
    monkeypatch.setitem(V.CHECKS, "synthetic-error", fake)
    code, out, err = run_cli(capsys, "verify", "synthetic-error", "foata-worked-example")
    assert code == 1
    assert "Traceback" not in err
    lines = out.splitlines()
    assert lines[0].startswith("ERROR synthetic-error")
    assert "witness: ValueError: synthetic bug" in lines[0]
    assert lines[1].startswith("PASS foata-worked-example")
    code, out, _ = run_cli(capsys, "--json", "verify", "synthetic-error")
    assert code == 1
    assert json.loads(out)[0]["verdict"] == "error"


def test_verify_negative_bound(capsys):
    code, out, err = run_cli(capsys, "verify", "macmahon", "--max-size", "-1")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_verify_derived_bound_flags(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "macmahon", "--max-perm-n", "3")
    assert code == 0
    assert json.loads(out)[0]["params"] == {"max_size": 6, "max_perm_n": 3}
    assert main(["verify", "rank-interval-sieve", "--cases", "5"]) == 2


def test_gk_inverse_requires_two_run_form(capsys):
    code, _, err = run_cli(capsys, "map", "gk-inv", "1122")
    assert code == 2
    assert "21" in err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mahonian.cli", "stat", "2121312", "--maj"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "maj=9"


_WRONG_CALLS = [
    ["verify", "no-such-check"],
    ["verify", "macmahon", "--degree", "3"],
    ["enumerate", "box", "3"],
    ["enumerate", "fib", "1", "2", "3"],
    ["enumerate", "ballot", "1", "2", "3"],
    ["enumerate", "perms"],
    ["genfun", "product-mod", "5"],
    ["genfun", "product-no-part"],
    ["genfun", "qbinom", "4"],
]


def test_domain_errors_are_usage_errors(capsys):
    for argv in (
        ["genfun", "product-mod", "0", "1"],
        ["enumerate", "no-part-mod", "0", "1", "5"],
        ["genfun", "product-no-part", "1", "--truncate", "-1"],
        ["genfun", "st-catalan", "-1"],
        ["genfun", "qint", "-1"],
        ["genfun", "qfact", "-1"],
        ["genfun", "catalan-qt", "-1"],
        ["genfun", "catalan-q", "-1"],
        ["genfun", "lucanomial", "-1", "1"],
        ["enumerate", "fib", "-1"],
        ["enumerate", "excess", "-1", "0"],
        ["enumerate", "max-rank", "-1", "0"],
        ["genfun", "fib", "-1"],
        ["enumerate", "sym", "-1"],
        ["enumerate", "avoid", "-1", "12"],
        ["enumerate", "suffix", "21", "-1"],
        ["enumerate", "ballot-suffix", "21", "-1"],
        ["enumerate", "box", "-1", "-1"],
        ["enumerate", "box", "2", "-1"],
        ["enumerate", "rank-negative", "-1", "-1"],
        ["enumerate", "partitions-upto", "-1"],
        ["enumerate", "rank-at-least", "1", "-1"],
        ["enumerate", "rank-at-most", "0", "-1"],
        ["enumerate", "rank-interval", "0", "1", "-1"],
        ["enumerate", "no-part", "1", "-1"],
        ["enumerate", "no-part-mod", "5", "1", "-1"],
        ["enumerate", "first-difference", "0", "-1"],
        ["map", "gk", "121", "--trace"],
        ["map", "boundary", "(2,1)", "--trace"],
        # a word typed where a partition belongs, not the one-part (112211212)
        ["map", "boundary", "112211212"],
        ["map", "csv", "112211212"],
        ["verify", "--all", "no-such-check"],
        ["verify", "--list", "no-such-check", "--degree", "3"],
        ["genfun", "qbinom", "4", "2", "--truncate", "1"],
        *_WRONG_CALLS,
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    # an unknown name, an inapplicable bound or a wrong parameter count is
    # reported by name, not by the Python internals it trips over
    for argv in _WRONG_CALLS:
        code, out, err = run_cli(capsys, *argv)
        assert argv[1] in err, argv
        assert err.count("\n") == 1, argv
        for leak in ("positional argument", "unpack", "<lambda>"):
            assert leak not in err, argv


def _readme_commands():
    """The command lines of README's "Command line" block, each with its
    trailing comment ("" when it has none)."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "mahonian", line
        commands.append((argv[1:], comment.strip()))
    return commands


# README comments that describe the output rather than spell it out
_README_PROSE = {
    "",
    "dotted stage table",
    "rank-reduction stages",
    "the five ballot words",
    "every check, small bounds",
    "check catalog",
}


def test_readme_command_lines(capsys):
    commands = _readme_commands()
    assert len(commands) >= 12
    outputs = []
    for argv, comment in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if comment not in _README_PROSE:
            assert out == comment + "\n", argv
            outputs.append(comment)
    assert {"maj=9 inv=7 des=3", "2213112", "(3,2,2)", "1 + q^2*t", "s^4 + 3*s^2*t + 2*t^2"} <= set(outputs)


_DEEP = sys.getrecursionlimit() + 50
_DEEP_CASES = [
    ("ballot", "1200", "1" * 1200 + "2" * 1200),
    ("partitions", "1200", "(" + ",".join("1" * 1200) + ")"),
    ("letter-sum", "1500", "1" * 1500),
    ("fib", "1200", "12" * 600),
    ("fib-dual", str(_DEEP), "1" * _DEEP),
    ("perms", "2" + "1" * _DEEP, "1" * _DEEP + "2"),
]


# a ones count, excess or maximum rank no word of the family can have: the
# stream must not search every word to find that out
_UNREACHABLE_CASES = [
    pytest.param("fib", "60 40", None, id="fib-unreachable-ones"),
    pytest.param("fib-dual", "40 41", None, id="fib-dual-unreachable-ones"),
    pytest.param("excess", "10 11", None, id="excess-unreachable-k"),
    pytest.param("max-rank", "10 10", None, id="max-rank-unreachable-k"),
]


@pytest.mark.parametrize(
    "family, param, first",
    [pytest.param(*c, id=c[0]) for c in _DEEP_CASES] + _UNREACHABLE_CASES,
)
def test_enumerate_deep_family(capsys, family, param, first):
    code, out, err = run_cli(capsys, "enumerate", family, *param.split(), "--limit", "1")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ([] if first is None else [first])


_num = st.integers(min_value=-3, max_value=8).map(str)
# no multi-digit integers among enumerate's parameters: "excess 21 5" or
# "avoid 21 12" scan astronomically many words before their first item
_param = st.one_of(_num, st.sampled_from(["", "x", "-", "1,2", "10,2", "(2,1)", "()"]))
_token = st.one_of(_param, st.sampled_from(["21", "121", "21213", "(2,2,1)", "(1,x)"]))
_maps = ["phi", "phi-inv", "beta", "csv", "gk", "gk-inv", "prime", "lambda", "boundary", "nope"]


@st.composite
def _argv(draw):
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["stat", "map", "enumerate", "genfun", "verify"]))
    argv.append(command)
    if command == "stat":
        argv.append(draw(_token))
        argv += draw(st.lists(st.sampled_from(["--maj", "--inv", "--des", "--exc", "--excess", "--pairs"]), max_size=3))
    elif command == "map":
        argv += [draw(st.sampled_from(_maps)), draw(_token)]
        argv += ["--trace"] if draw(st.booleans()) else []
    elif command == "enumerate":
        argv.append(draw(st.sampled_from(sorted(FAMILIES) + ["nope"])))
        argv += draw(st.one_of(st.lists(_num, min_size=1, max_size=3), st.lists(_param, max_size=3)))
        argv += ["--limit", draw(_num)]
    elif command == "genfun":
        argv.append(draw(st.sampled_from(sorted(_GENFUN) + ["product-no-part", "product-mod", "nope"])))
        argv += draw(st.lists(_num, min_size=1, max_size=3))
        argv += ["--truncate", draw(_num)] if draw(st.booleans()) else []
    else:
        argv += draw(st.lists(st.sampled_from(sorted(CHECKS) + ["nope"]), min_size=1, max_size=2))
        for flag in draw(st.lists(st.sampled_from(_int_bounds()), max_size=2)):
            # bounds stop at 5: pattern-pairs alone takes seconds at 8
            argv += [f"--{flag.replace('_', '-')}", str(draw(st.integers(min_value=-3, max_value=5)))]
    return argv


@settings(max_examples=300)
@given(_argv())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert "verify" in argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        # argparse's own message, or one line from main's handler
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("usage: ") or (message.startswith("error: ") and message.count("\n") == 1), message


def test_verify_quick_matches_golden(capsys):
    """Verdicts, params and witnesses of the quick profile, pinned: a change
    that claims identical output must leave this file valid."""
    code, out, _ = run_cli(capsys, "--json", "verify", "--all", "--profile", "quick")
    assert code == 0
    reports = json.loads(out)
    for report in reports:
        del report["millis"]
    golden = pathlib.Path(__file__).parent / "data" / "verify_quick.json"
    assert reports == json.loads(golden.read_text())


def test_cli_import_loads_no_inspect():
    """A fresh interpreter, without site's preloads, imports the command
    line without loading inspect: _call reads each family's parameters
    from its code object, and every command pays this import."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mahonian.cli; print('inspect' in sys.modules)"
    src = pathlib.Path(sys.modules["mahonian.cli"].__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]
