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


def test_dyckify_is_a_fixed_point_on_its_own_output(capsys, monkeypatch,
                                                    cnf_corpus):
    # its rule lines, read back, are in Dyck normal form already
    sources = [(EXPR, "")] + [("-", d.serialize(g)) for g in cnf_corpus]
    for path, stdin in sources:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        _, out, _ = run(capsys, "dyckify", path)
        rules = "".join(line + "\n" for line in out.splitlines()
                        if not line.startswith("#"))
        monkeypatch.setattr("sys.stdin", io.StringIO(rules))
        assert run(capsys, "dyckify", "-") == (0, rules, ""), (path, stdin)


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


def test_trace_verb_takes_a_dyck_grammar_as_it_is(capsys):
    code, out, _ = run(capsys, "trace", f"{DATA}/expr_dyck.cfg", "a+a")
    assert code == 0
    assert out == "trace:   E3 E5 E4 T4\nas Dyck: [3 ]3 [6 ]6\n"
    code, out, _ = run(capsys, "phi", f"{DATA}/expr_dyck.cfg")
    assert code == 0
    assert out == (
        "pair  1: [T     ]T1     no_terminal    phi: eps / eps\n"
        "pair  2: [E     ]E1     no_terminal    phi: eps / eps\n"
        "pair  3: [E3    ]E5     left_terminal  phi: a / eps\n"
        "pair  4: [T3    ]T5     left_terminal  phi: a / eps\n"
        "pair  5: [E2    ]Tp     left_terminal  phi: + / eps\n"
        "pair  6: [E4    ]T4     both_terminal  phi: + / a\n"
        "pair  7: [T2    ]R      both_terminal  phi: * / a\n"
        "pair  8: [Lift1 ]Drop1  extension      phi: a / eps\n")
    code, out, _ = run(capsys, "verify-phi", f"{DATA}/expr_dyck.cfg")
    assert code == 0
    assert out == ("phi-characterization up to length 7: ok\n"
                   "  words checked: 15   traces: 15   pairs: 7 base + 1 "
                   "extension\n")


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


def test_check_dyck_reports_disagreeing_routes(capsys, monkeypatch):
    monkeypatch.setattr("dycknf.cli.in_dk_lemma",
                        lambda word, k=None: not d.in_dk_lemma(word, k))
    for text in ("[1 ]1", "[1 ]2"):
        code, out, err = run(capsys, "check-dyck", text)
        assert (code, out) == (2, "")
        assert "BUG: routes disagree" in err


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


def test_verify_equiv_machine_output(capsys):
    assert run(capsys, "verify-equiv", EXPR, "--max-len", "5",
               "--machine") == (0, "ok\n", "")


# ---- verdicts ----

ELIN_SAID = ("verdict: {}\n"
             "route: divide and conquer over p=6 ladder steps with d=2\n"
             "iterated division of p: (3,0), (1,1) (2 steps)\n"
             "alternation depth: 5 seen, 5 bound\n"
             "work-tape cells: 38\n"
             "search nodes: 7\n")
EQUIV_SAID = ("language up to length 5: 7 words, identical across original, "
              "cnf and dyck forms\n"
              "parse-table comparison: 36 words, {} cell mismatches\n{}\n")

# stands for stdin in a row that runs with verify-phi's and verify-equiv's
# checks made to fail
FAILED_CHECKS = object()

# (argv, stdin, exit code, stdout, stdout under --machine)
VERDICTS = [
    (("member", EXPR, "a*a+a"), "", 0, "member\n", "1\n"),
    (("member", EXPR, "a+"), "", 1, "not a member\n", "0\n"),
    (("trace", EXPR_CNF, "a*a*a+a"), "", 0,
     "trace:   E T T_t1 T1_R1 T2 R T1 T2 R E1 E2_L1 T_t1_R1\n"
     "as Dyck: [2 [1 [6 ]6 [3 ]3 ]1 [3 ]3 ]2 [7 ]7\n",
     "[2 [1 [6 ]6 [3 ]3 ]1 [3 ]3 ]2 [7 ]7\n"),
    (("check-dyck", "[1 [2 ]2 ]1"), "", 0,
     "stack route:    member\ncounting route: member\n", "1\n"),
    (("check-dyck", "[1 ]2"), "", 1,
     "stack route:    not a member\ncounting route: not a member\n", "0\n"),
    (("verify-phi", f"{DATA}/expr_dyck.cfg", "--max-len", "5"), "", 0,
     "phi-characterization up to length 5: ok\n"
     "  words checked: 7   traces: 7   pairs: 7 base + 1 extension\n",
     "ok\n"),
    (("verify-phi", f"{DATA}/expr_dyck.cfg"), FAILED_CHECKS, 1,
     "phi-characterization up to length 7: FAIL\n"
     "  words checked: 1   traces: 0   pairs: 7 base + 1 extension\n"
     "  MISSING a\n",
     "FAIL\n"),
    (("elin-recognize", "-", "aaaaaacbbbbbb"), ELIN_TEXT, 0,
     "word: 'aaaaaacbbbbbb' (n=13)\n" + ELIN_SAID.format("member"), "1\n"),
    (("elin-recognize", "-", "aaaaaaacbbbbbb"), ELIN_TEXT, 1,
     "word: 'aaaaaaacbbbbbb' (n=14)\n" + ELIN_SAID.format("not a member"),
     "0\n"),
    (("elin-recognize", "-", "ab"), ELIN_TEXT, 1,
     "word: 'ab' (n=2)\nverdict: not a member\n"
     "route: parse table (short word, p=0 < 4)\nwork-tape cells: 16\n",
     "0\n"),
    (("verify-equiv", EXPR, "--max-len", "5"), "", 0,
     EQUIV_SAID.format(0, "ok"), "ok\n"),
    (("verify-equiv", EXPR, "--max-len", "5"), FAILED_CHECKS, 1,
     EQUIV_SAID.format(36, "FAIL"), "FAIL\n"),
]


def test_verdict_bytes_and_exit_codes(capsys, monkeypatch):
    def failed_report(g, max_len):
        return d.CharacterizationReport(
            ok=False, max_len=max_len, k_base=7, k_total=8, words=["a"],
            trace_count=0, missing=["a"])

    for argv, stdin, code, said, terse in VERDICTS:
        for extra, out in (((), said), (("--machine",), terse)):
            with monkeypatch.context() as m:
                if stdin is FAILED_CHECKS:
                    m.setattr("dycknf.cli.verify_characterization",
                              failed_report)
                    m.setattr("dycknf.cli.verify_equivalence_matrices",
                              lambda g_cnf, g_dyck, ledger, w:
                              [(1, 1, {"E"}, set())])
                else:
                    m.setattr("sys.stdin", io.StringIO(stdin))
                assert run(capsys, *argv, *extra) == (code, out, ""), argv


# ---- failure handling ----

def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "member", "no/such/file.cfg", "a")
    assert code == 2 and "error:" in err


def test_bad_grammar_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("start: S\nS -> ???"))
    code, _, err = run(capsys, "member", "-", "a")
    assert code == 2 and "error:" in err


def test_empty_language_refusal_names_the_input_start(capsys, monkeypatch):
    # S occurs in its own body, so to_cnf adds a fresh start S0; the
    # refusal still names the start the user wrote
    monkeypatch.setattr("sys.stdin", io.StringIO("start: S\nS -> 'a' S\n"))
    assert run(capsys, "cnf", "-") == (
        2, "", "error: start symbol S derives no terminal word "
               "(the language is empty)\n")


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
