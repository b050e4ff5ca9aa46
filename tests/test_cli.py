"""End-to-end exercises of every command line verb, in process."""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

import dycknf as d
from dycknf.cli import main

DATA = "tests/data"
EXPR = f"{DATA}/expr.cfg"
EXPR_CNF = f"{DATA}/expr_cnf.cfg"
ELIN_TEXT = "start: S\nS -> 'a' S 'b' | 'c'\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- conversion verbs ----

def test_cnf_verb(capsys, expr):
    code, out, _ = run(capsys, "cnf", EXPR)
    g = d.parse_grammar(out)
    assert code == 0
    assert d.is_cnf(g)
    assert d.enumerate_words(g, 7) == d.enumerate_words(expr, 7)


def test_dyckify_verb(capsys, expr):
    code, out, _ = run(capsys, "dyckify", EXPR)
    assert code == 0
    assert "# fresh symbols introduced:" in out
    g = d.parse_grammar(out)  # comment lines must parse away
    assert d.is_dyck_nf(g)
    assert d.enumerate_words(g, 7) == d.enumerate_words(expr, 7)


def test_dyckify_pipes_into_member(capsys, monkeypatch):
    _, out, _ = run(capsys, "dyckify", EXPR)
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, text, _ = run(capsys, "member", "-", "a*a+a")
    assert code == 0 and text.strip() == "member"


# ---- membership and traces ----

def test_member_verb(capsys):
    assert run(capsys, "member", EXPR, "a*a+a")[0] == 0
    code, out, _ = run(capsys, "member", EXPR, "a+")
    assert code == 1 and out.strip() == "not a member"
    assert run(capsys, "member", EXPR, "a", "--machine")[1].strip() == "1"
    assert run(capsys, "member", EXPR, "+", "--machine")[1].strip() == "0"


def test_trace_verb_golden(capsys):
    code, out, _ = run(capsys, "trace", EXPR_CNF, "a*a*a+a", "--machine")
    assert code == 0
    assert out.strip() == "[2 [1 [6 ]6 [3 ]3 ]1 [3 ]3 ]2 [7 ]7"
    code, out, _ = run(capsys, "trace", EXPR_CNF, "a*a*a+a")
    assert "trace:" in out and "as Dyck:" in out


def test_trace_verb_negatives(capsys):
    code, _, err = run(capsys, "trace", EXPR_CNF, "a+")
    assert code == 1 and "not a member" in err
    code, _, err = run(capsys, "trace", EXPR_CNF, "a")
    assert code == 1 and "no trace" in err


def test_check_dyck_verb(capsys):
    code, out, _ = run(capsys, "check-dyck", "[1 [2 ]2 ]1")
    assert code == 0
    assert "stack route:    member" in out
    assert "counting route: member" in out
    assert run(capsys, "check-dyck", "[1 ]2")[0] == 1
    assert run(capsys, "check-dyck", "[1", "--machine")[1].strip() == "0"
    code, out, _ = run(capsys, "check-dyck", "[2 ]2", "-k", "1")
    assert code == 1
    assert "stack route:    not a member" in out
    assert "counting route: not a member" in out
    assert run(capsys, "check-dyck", "not brackets")[0] == 2


# ---- the letter map ----

def test_phi_verb(capsys):
    code, out, _ = run(capsys, "phi", EXPR_CNF)
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 8  # seven grammar pairs plus one extension pair
    assert sum("extension" in ln for ln in lines) == 1
    assert all("phi:" in ln for ln in lines)
    code, out, _ = run(capsys, "phi", EXPR_CNF, "--machine")
    rows = [ln.split("\t") for ln in out.strip().splitlines()]
    assert [r[0] for r in rows] == [str(i) for i in range(1, 9)]


def test_verify_phi_verb(capsys):
    code, out, _ = run(capsys, "verify-phi", EXPR_CNF, "--max-len", "6")
    assert code == 0
    assert run(capsys, "verify-phi", EXPR_CNF, "--max-len", "5",
               "--machine")[1].strip() == "ok"


# ---- even linear recognizer ----

def test_elin_recognize_verb(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ELIN_TEXT))
    code, out, _ = run(capsys, "elin-recognize", "-", "a" * 6 + "c" + "b" * 6)
    assert code == 0 and "verdict: member" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(ELIN_TEXT))
    code, out, _ = run(capsys, "elin-recognize", "-", "ab", "--machine")
    assert code == 1 and out.strip() == "0"
    code, _, err = run(capsys, "elin-recognize", EXPR, "a")
    assert code == 2 and "error:" in err


# ---- cross verification ----

def test_verify_equiv_verb(capsys):
    code, out, _ = run(capsys, "verify-equiv", EXPR, "--max-len", "6",
                       "--samples", "10")
    assert code == 0
    assert out.strip().endswith("ok")
    assert "cell mismatches" in out


# ---- failure handling ----

def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "member", "no/such/file.cfg", "a")
    assert code == 2 and "error:" in err


def test_bad_grammar_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("start: S\nS -> ???"))
    code, _, err = run(capsys, "member", "-", "a")
    assert code == 2 and "error:" in err


def refused(capsys, *argv):
    """Exit code and stderr of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_max_len_must_be_positive(capsys):
    for verb, grammar in (("verify-phi", EXPR_CNF), ("verify-equiv", EXPR)):
        for bad in ("0", "-3", "x"):
            code, err = refused(capsys, verb, grammar, "--max-len", bad)
            assert code == 2 and "--max-len" in err


def test_samples_must_be_positive(capsys):
    for bad in ("0", "-1"):
        code, err = refused(capsys, "verify-equiv", EXPR, "--samples", bad)
        assert code == 2 and "--samples" in err


def test_pairs_must_be_positive(capsys):
    for bad in ("0", "-1"):
        code, err = refused(capsys, "check-dyck", "[1 ]1", "-k", bad)
        assert code == 2 and "--pairs" in err


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dycknf.cli", "member", EXPR, "a*a"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "member"


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main reuses one parser per process: no call may see an earlier one's
    # arguments, defaults or errors
    calls = [
        ("verify-phi", EXPR_CNF, "--max-len", "4"),
        ("verify-phi", EXPR_CNF),
        ("member", EXPR, "a*a+a", "--machine"),
        ("trace", EXPR_CNF, "a*a*a+a"),
        ("frobnicate", "x"),
        ("check-dyck", "[1 [2 ]2 ]1", "-k", "2"),
        ("member", EXPR),
        ("cnf", EXPR),
    ]
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "dycknf.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
    assert codes == [0, 0, 0, 0, 2, 0, 2, 0]
