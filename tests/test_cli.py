import json

from mahonian.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat(capsys):
    code, out, _ = run_cli(capsys, "stat", "2121312", "--maj", "--inv", "--des")
    assert code == 0
    assert out.strip() == "maj=9 inv=7 des=3"


def test_stat_empty_word(capsys):
    code, out, _ = run_cli(capsys, "stat", "", "--maj")
    assert code == 0
    assert out.strip() == "maj=0"


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

    fake = V.CheckDef("synthetic-failure", "test-only failing check", always_fails, {}, {})
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

    fake = V.CheckDef("synthetic-error", "test-only raising check", raises, {}, {})
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
