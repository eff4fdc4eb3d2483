"""Command-line surface: flags, exit codes, JSON stability."""
import json
import time

import pytest

from seprkit import cli
from seprkit.cli import main
from seprkit.realize import RealizationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def matrix_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("0 1 0\n1 0 1\n1 0 0\n")
    return str(p)


@pytest.fixture
def pattern_file(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("++00\n0-+0\n+0++\n00-0\n")
    return str(p)


def test_sepr_command(capsys, matrix_file):
    code, out, _ = run(capsys, "sepr", "--matrix", matrix_file)
    assert code == 0 and out.strip() == "NS-A+"


def test_combine_command(capsys):
    code, out, _ = run(capsys, "combine", "S+N", "A+S+A-")
    assert code == 0 and out.strip() == "S+S+S*S-N"


def test_check_unique_command(capsys, pattern_file):
    code, out, _ = run(capsys, "check-unique", "--pattern", pattern_file)
    assert code == 0 and out.strip() == "unique: S*S*S*A-"


def test_det_command(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("++\n+-\n")
    code, out, _ = run(capsys, "det", "--pattern", str(p))
    assert code == 0 and out.strip() == "-"
    p.write_text("++\n--\n")
    code, out, _ = run(capsys, "det", "--pattern", str(p))
    assert code == 0 and out.strip() == "ambiguous"


def test_det_command_at_the_order_guard(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("".join("0" + "+" * 15 + "\n" for _ in range(16)))  # zero column
    code, out, _ = run(capsys, "det", "--pattern", str(p), "--json")
    assert code == 0
    assert json.loads(out) == {"command": "det", "value": "0",
                               "has_positive_term": False, "has_negative_term": False}


def test_sepr_command_at_the_order_guard(capsys, tmp_path):
    # J - I: every order-k principal minor is (-1)^(k-1) (k-1)
    p = tmp_path / "m.txt"
    p.write_text("".join(" ".join("0" if i == j else "1" for j in range(14)) + "\n"
                         for i in range(14)))
    code, out, err = run(capsys, "sepr", "--matrix", str(p))
    assert code == 0 and err == ""
    assert out.strip() == "N" + "".join("A-" if k % 2 == 0 else "A+" for k in range(2, 15))
    p.write_text("".join(" ".join(["1"] * 15) + "\n" for _ in range(15)))
    code, out, err = run(capsys, "sepr", "--matrix", str(p))
    assert code == 2 and out == "" and err.startswith("error: ") and "order 14" in err


def test_semistable_exit_codes(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0-\n+0\n")
    code, out, _ = run(capsys, "semistable", "--pattern", str(p))
    assert code == 0 and out.strip() == "yes"
    p.write_text("0+\n+0\n")
    code, out, _ = run(capsys, "semistable", "--pattern", str(p))
    assert code == 1 and out.startswith("no:")


def test_stable_command(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("-+000\n-0+00\n0-0+0\n00-0+\n000-0\n")
    code, out, _ = run(capsys, "stable", "--pattern", str(p))
    assert code == 0 and out.strip() == "yes"
    p.write_text("0+\n00\n")  # reducible: usage error
    code, out, err = run(capsys, "stable", "--pattern", str(p))
    assert code == 2 and "reducible" in err


def test_simplify_command(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0++\n-0+\n000\n")
    code, out, _ = run(capsys, "simplify", "--pattern", str(p))
    assert code == 0 and out.strip() == "0+0\n-00\n000"


def test_predict_command(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0+0\n00+\n+00\n")
    code, out, _ = run(capsys, "predict", "--pattern", str(p))
    assert code == 0 and "NNA+" in out


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "star", "3", "--loops", "center")
    assert code == 0 and out.strip() == "-++\n-00\n-00"


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2",
                       "--constraints", "symmetric,nonnegative", "--count-only")
    assert code == 0 and out.strip() == "8"


def test_enumerate_budget_bounds_semistable(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "5", "--constraints", "semi-stable",
                       "--count-only")
    assert code == 0 and out.strip() == "98592"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--order", "9", "--constraints", "semi-stable",
                         "--count-only", "--budget", "1000")
    assert code == 2 and out == "" and err.startswith("error: ") and "1000" in err
    assert time.perf_counter() - t0 < 5


def test_seprset_json_deterministic(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("++0\n--+\n0+0\n")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "seprset", "--pattern", str(p),
                           "--seed", "3", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert sorted(payload["lower"]) == ["S*S*A-", "S*S-A-"]
    assert payload["tight"] is True


def test_budget_must_be_positive(capsys, tmp_path):
    small = tmp_path / "p2.txt"
    small.write_text("+-\n-+\n")
    large = tmp_path / "p5.txt"
    large.write_text("\n".join("0" * i + "+" + "0" * (4 - i) for i in range(5)) + "\n")
    for p in (small, large):
        for budget in ("0", "-5", "many", str(2**63)):
            code, out, err = run(capsys, "seprset", "--pattern", str(p), "--budget", budget)
            assert code == 2 and out == "" and "--budget" in err
    code, _, err = run(capsys, "check-unique", "--pattern", str(small), "--budget", "0")
    assert code == 2 and "--budget" in err
    code, _, err = run(capsys, "enumerate", "--order", "2", "--budget", "0")
    assert code == 2 and "--budget" in err
    code, _, err = run(capsys, "verify-paper", "--budget", "-1")
    assert code == 2 and "--budget" in err


def test_seed_must_be_a_philox_key(capsys, tmp_path):
    # the sampled sweep keys numpy's Philox generator by the seed: [0, 2**128)
    p = tmp_path / "p.txt"
    p.write_text("++0\n--+\n0++\n")
    for seed in ("-1", str(2**128), "x"):
        code, out, err = run(capsys, "seprset", "--pattern", str(p), "--seed", seed,
                             "--budget", "5")
        assert code == 2 and out == "" and "error: argument --seed" in err
    for argv in (["check-unique", "--pattern", str(p)], ["verify-paper"]):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "" and "error: argument --seed" in err
    code, out, _ = run(capsys, "seprset", "--pattern", str(p), "--seed", str(2**128 - 1),
                       "--budget", "5")
    assert code == 0 and out.startswith("sequences: ")


def test_guard_and_realization_errors_exit_2(capsys, tmp_path, monkeypatch):
    p = tmp_path / "p.txt"
    p.write_text("\n".join(["+" * 15] * 15) + "\n")
    code, out, err = run(capsys, "seprset", "--pattern", str(p))
    assert code == 2 and out == "" and err.startswith("error: ") and "order 14" in err
    p.write_text("\n".join(["+" * 17] * 17) + "\n")
    code, out, err = run(capsys, "det", "--pattern", str(p))
    assert code == 2 and out == "" and err.startswith("error: ") and "order 16" in err

    def fail(*args, **kwargs):
        raise RealizationError("sign never flipped")

    monkeypatch.setattr(cli, "sepr_set_estimate", fail)
    p.write_text("+-\n-+\n")
    code, out, err = run(capsys, "seprset", "--pattern", str(p))
    assert code == 2 and out == "" and err == "error: sign never flipped\n"


def test_text_and_json_verdicts_agree(capsys, pattern_file):
    _, text_out, _ = run(capsys, "check-unique", "--pattern", pattern_file)
    _, json_out, _ = run(capsys, "check-unique", "--pattern", pattern_file, "--json")
    payload = json.loads(json_out)
    assert payload["sequence"] == text_out.strip().removeprefix("unique: ")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0+\n-0\n"))
    code, out, _ = run(capsys, "det", "--pattern", "-")
    assert code == 0 and out.strip() == "+"


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "sepr", "--matrix", str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in err
    p = tmp_path / "bad.txt"
    p.write_text("0x\n-0\n")
    code, _, err = run(capsys, "det", "--pattern", str(p))
    assert code == 2 and "bad pattern" in err
    code, _, _ = run(capsys, "combine", "S?", "N")
    assert code == 2
    assert main(["not-a-command"]) == 2


def test_check_sequence_command(capsys):
    code, out, _ = run(capsys, "check-sequence", "S+NA+")
    assert code == 0 and "not attainable" in out


def test_bad_grid(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("0+\n-0\n")
    code, _, err = run(capsys, "seprset", "--pattern", str(p), "--grid", "0,1")
    assert code == 2 and "grid" in err


def test_verify_paper_rendering(capsys, monkeypatch):
    from seprkit.enumeration import VerificationReport

    reports = [
        VerificationReport("alpha", "pass", "fine", {"n": 1}, None, 0.1),
        VerificationReport("beta", "fail", "1 failure(s)", {}, {"bad": True}, 0.2),
    ]
    monkeypatch.setattr("seprkit.cli.run_all_verifications",
                        lambda **kw: reports)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert "alpha" in out and "FAIL" in out and "1/2 checks passed" in out
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 1
    payload = json.loads(out)
    assert [r["check"] for r in payload] == ["alpha", "beta"]


def test_verify_paper_has_no_sweep_options(capsys):
    # the order-4 check always covers every pattern, in one process
    for argv in (["--threads", "2"], ["--full-sweep"]):
        code, out, err = run(capsys, "verify-paper", *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err
