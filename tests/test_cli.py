"""CLI surface: output schemas, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from lderiv import cli
from lderiv.report import CSV_COLUMNS, VerificationReport


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_char_list(capsys):
    code, out = run_cli(capsys, "char", "list", "--q", "5")
    assert code == 0
    rows = json.loads(out)
    assert [r["label"] for r in rows] == [0, 1, 2]
    assert {r["order"] for r in rows} == {2, 4}
    assert all(r["conductor"] == 5 and r["m"] == 2 for r in rows)
    code, out = run_cli(capsys, "char", "list", "--q", "5", "--quadratic-only")
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["kappa"] == 0


def test_eval_logderiv_reference_value(capsys):
    code, out = run_cli(
        capsys, "eval", "--q", "5", "--label", "1", "--re", "2", "--im", "0",
        "--what", "logderiv",
    )
    assert code == 0
    data = json.loads(out)
    assert data["re"] > 0.27 and abs(data["im"]) < 1e-12


def test_eval_json_roundtrip(capsys):
    code, out = run_cli(capsys, "eval", "--q", "7", "--label", "0", "--re", "0.5",
                        "--im", "3.2", "--what", "L")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True) == out.strip()


def test_special_commands(capsys):
    code, out = run_cli(capsys, "special", "digamma", "--re", "1")
    assert code == 0 and abs(json.loads(out)["re"] + 0.5772156649) < 1e-9
    code, out = run_cli(capsys, "special", "primesum", "--sigma", "2", "--q", "5",
                        "--N", "1000")
    data = json.loads(out)
    assert code == 0 and data["value"] + data["tail_bound"] < 0.51


def test_zeros_trivial(capsys):
    code, out = run_cli(capsys, "zeros", "trivial", "--q", "5", "--label", "1",
                        "--jmax", "3")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 3
    for j, rec in enumerate(recs, start=1):
        assert abs(rec["im"]) < 1e-9  # quadratic: real zeros
        assert -2 * j < rec["re"] < -2 * j + 1
        assert rec["mult"] == 1 and rec["class"] == "trivial-left"


def test_zeros_count_and_list(capsys):
    code, out = run_cli(capsys, "zeros", "count", "--q", "5", "--label", "1",
                        "--T", "10")
    assert code == 0 and json.loads(out)["count"] == 2
    code, out = run_cli(capsys, "zeros", "list", "--q", "5", "--label", "1",
                        "--rect", "0,20,-10,10")
    recs = json.loads(out)
    assert code == 0 and len(recs) == 2
    assert all(r["class"] == "nontrivial" for r in recs)


def test_verify_constants_csv_schema(capsys):
    code, out = run_cli(capsys, "verify", "constants", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert all(r[-1] == "true" for r in rows[1:])


def test_verify_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, "verify", "constants")
    code2, out2 = run_cli(capsys, "verify", "constants")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_csv_identical_across_interpreters():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "lderiv.cli", "verify", "region", "--q", "5",
            "--label", "1", "--region", "line:1", "--csv"]
    outs = [subprocess.run(argv, env=env, capture_output=True, check=True, timeout=300).stdout
            for _ in range(2)]
    assert outs[0] and outs[0] == outs[1]


def test_verify_report_bytes_are_pinned(capsys):
    """sha256 of the CSV of two verify runs: the whole of verify all for
    chi_5, and the Speiser check (a strip count of L, critical-line zeros and
    the L'/L winding) for a character mod 229.  Evaluation and walker changes
    that claim to keep every report byte are held to it here."""
    for argv, digest in (
        (("verify", "all", "--q", "5", "--label", "1", "--T", "10", "--csv"),
         "1407236cdd069d447edc3f5e6f7e9d9ee35cfd488b1ceb011458423d47f2ddbf"),
        (("verify", "speiser", "--q", "229", "--label", "113", "--T", "20", "--csv"),
         "d7c9316479886364bb5836c294a3331bb55aa30e1c89a1902d4d42b8f5b45ea1"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_runtime_never_loads_scipy():
    """lderiv needs numpy alone: a fresh interpreter that imports it, runs
    the distance-sum check and the public li never loads scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = "\n".join([
        "import contextlib, io, sys",
        "import lderiv, lderiv.cli",
        "from lderiv import special",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = lderiv.cli.run(['verify', 'sum-rule', '--q', '5', '--label', '1', '--T', '5', '--csv'])",
        "assert rc == 0, rc",
        "special.log_integral(1e5)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, text=True, timeout=300).stdout
    assert out.strip() == "[]"


def test_verify_label_all(capsys):
    code, out = run_cli(capsys, "verify", "counting", "--q", "5", "--label", "all",
                        "--T", "5")
    assert code == 0
    rows = json.loads(out)
    assert [r["params"]["label"] for r in rows] == [0, 1, 2]
    assert all(r["pass"] for r in rows)
    code, _ = run_cli(capsys, "verify", "counting", "--q", "5", "--label", "x")
    assert code == 2


def test_verify_label_is_parsed_before_any_check(capsys):
    # constants takes no character, yet a malformed label is still refused
    for argv, msg in (
        (("all", "--q", "5", "--label", "x"), "--label expects an integer or 'all'"),
        (("constants", "--label", "x"), "--label expects an integer or 'all'"),
        (("all", "--q", "5", "--label", "7"), "out of range"),
    ):
        code = cli.run(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and msg in captured.err and "Traceback" not in captured.err, argv
        assert captured.out == "", argv


def test_exit_code_usage_error(capsys):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["char", "list", "--q", "not-an-int"]) == 2
    assert cli.run(["verify", "constants", "--jobs", "2"]) == 2  # no such flag
    code, _ = run_cli(capsys, "char", "list", "--q", "2")  # DomainError
    assert code == 2
    # grid steps that are not positive, line:<j> with no integer j >= 1, and a
    # point that is not finite: no report and no traceback
    region = ["verify", "region", "--q", "5", "--label", "1", "--region"]
    for argv in (region + ["critical", "--spacing", "-1", "--csv"],
                 region + ["critical", "--spacing", "0", "--csv"],
                 region + ["line:x"], region + ["line:0"], region + ["line:-1"],
                 ["eval", "--q", "5", "--label", "1", "--re", "nan"]):
        assert cli.run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_sum_rule_below_its_main_terms_domain_is_a_usage_error(capsys):
    # the main term takes log log(qT/2pi): qT <= 2pi is bad input, not a failed check
    for q, label, T in (("3", "0", "2"), ("5", "1", "0.5")):
        code = cli.run(["verify", "sum-rule", "--q", q, "--label", label, "--T", T])
        err = capsys.readouterr().err
        assert code == 2 and "qT/2pi > 1" in err and "Traceback" not in err, (q, T)


def test_exit_code_numerical_error(capsys):
    # outside the evaluation window -> precision loss -> exit 3
    code, _ = run_cli(capsys, "eval", "--q", "5", "--label", "1", "--re", "90",
                      "--im", "0")
    assert code == 3
    # a region scan past the window is no pass, not an error
    code, out = run_cli(capsys, "verify", "region", "--q", "5", "--label", "1",
                        "--region", "line:42")
    assert code == 0 and json.loads(out)[0]["status"].startswith("window-empty")


def test_functional_equation_overflow_exits_3(capsys):
    # at q = 997 the factor F(s) of L(s) = F(s) L(1 - s) leaves double range
    # near Re s = -80, |Im s| = 100, inside the window: numerical trouble,
    # exit 3 with no traceback, where a bare OverflowError exited 1.  At
    # -72.074 + 100i the exponential of F' is finite but its modulus is not
    for argv in (("eval", "--q", "997", "--label", "500", "--re", "-80", "--im", "100"),
                 ("eval", "--q", "997", "--label", "500", "--re", "-72.074", "--im", "100"),
                 ("verify", "region", "--q", "997", "--label", "500", "--region", "line:40")):
        code = cli.run(list(argv))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert "overflows double range" in captured.err and "Traceback" not in captured.err, argv


def test_exit_code_check_failure(capsys, monkeypatch):
    failing = VerificationReport(name="forced", measured=1.0, bound=0.0,
                                 margin=-1.0, passed=False)
    monkeypatch.setattr(cli, "check_reference_constants", lambda: [failing])
    code, out = run_cli(capsys, "verify", "constants")
    assert code == 1
    assert json.loads(out)[0]["pass"] is False


def test_out_file(tmp_path, capsys):
    path = tmp_path / "chars.json"
    code = cli.run(["--out", str(path), "char", "list", "--q", "7"])
    assert code == 0
    rows = json.loads(path.read_text())
    assert len(rows) == 5


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LDERIV_OUT_DIR", str(tmp_path))
    code = cli.run(["--out", "x.json", "char", "list", "--q", "5"])
    assert code == 0
    assert json.loads((tmp_path / "x.json").read_text())


def test_out_before_or_after_the_subcommand(tmp_path, capsys):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert cli.run(["--out", str(before), "verify", "constants"]) == 0
    assert cli.run(["verify", "constants", "--out", str(after)]) == 0
    assert capsys.readouterr().out == ""
    assert before.read_text() == after.read_text()
    assert all(r["pass"] for r in json.loads(after.read_text()))
    nested = tmp_path / "nested.json"
    assert cli.run(["char", "list", "--q", "7", "--out", str(nested)]) == 0
    assert len(json.loads(nested.read_text())) == 5


def test_verify_without_q_is_a_usage_error(capsys):
    # every check but constants needs --q: exit 2 with an error line, no
    # SystemExit out of run()
    for check in ("all", "region", "counting"):
        assert cli.run(["verify", check]) == 2, check
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "--q" in captured.err


def test_verify_region_scans_on_the_regions_own_grid(chi5, capsys):
    """verify region without --spacing scans the grid that
    check_region_negativity takes by default, as verify all does: D2 on
    2 x 2, not 0.1 x 0.1; --spacing still sets the step."""
    from lderiv.verify import GridSpec, check_region_negativity

    for argv, grid in (((), None), (("--spacing", "4"), GridSpec(dsigma=4.0, dt=4.0))):
        code, out = run_cli(capsys, "verify", "region", "--q", "5", "--label", "1",
                            "--region", "D2", *argv)
        assert code == 0
        assert out.strip() == json.dumps([check_region_negativity(chi5, "D2", grid).to_dict()],
                                         sort_keys=True), argv
