"""Conversions: cleanup, CNF, the three-step Dyck normal form, and the
collapsing map back.  The expression grammar is the golden case with a
known-good expected output; the random corpus covers the rest."""

from __future__ import annotations

import gc
import hashlib
import inspect
import itertools
import re
import sys

import pytest

import dycknf as d
import dycknf.normal_forms as nf
from dycknf.corpus import (elin_corpus, random_cnf_grammar,
                           random_elin_grammar)


# ---- cleanup ----

def test_cleanup_drops_useless_symbols():
    g = d.parse_grammar("""
        start: S
        S -> 'a' | U S      # U never derives a word
        U -> U U
        W -> 'b'            # W is unreachable
    """)
    out = d.cleanup(g)
    assert out.nonterminals == ["S"]
    assert out.terminals == ["a"]
    assert out.rules == [d.Rule("S", ("a",))]


# ---- Chomsky normal form ----

def test_to_cnf_adds_a_fresh_start():
    g = d.parse_grammar("start: S\nS -> S S | 'a'")
    out = d.to_cnf(g)
    assert out.start == "S0"
    assert all(out.start not in r.rhs for r in out.rules)
    assert d.enumerate_words(g, 6) == d.enumerate_words(out, 6)


def test_to_cnf_shape_and_language(expr):
    out = d.to_cnf(expr)
    assert d.is_cnf(out)
    assert all(out.start not in r.rhs for r in out.rules)
    assert d.enumerate_words(expr, 8) == d.enumerate_words(out, 8)


def test_to_cnf_is_identity_on_cnf(expr_cnf):
    assert d.to_cnf(expr_cnf) is expr_cnf
    # useless symbols included: only a converted input is pruned
    g = d.parse_grammar("start: S\nS -> A B | 'a'\nA -> 'a'\nB -> 'b'\n"
                        "C -> 'c'")
    assert d.to_cnf(g) is g and "C" in g.nonterminals


def test_to_cnf_collapses_unit_chains():
    g = d.parse_grammar("start: S\nS -> A\nA -> B\nB -> 'a' | A 'b'")
    out = d.to_cnf(g)
    assert d.is_cnf(out)
    assert d.enumerate_words(g, 7) == d.enumerate_words(out, 7)


def test_to_cnf_rejects_lambda():
    g = d.parse_grammar("start: S\nS -> 'a' | eps")
    with pytest.raises(d.GrammarError):
        d.to_cnf(g)


def test_every_rule_built_is_a_rule(expr, cnf_corpus, elin_grammars):
    # a plain (lhs, rhs) tuple equals the Rule it stands for, so a rule
    # built without the class would pass every digest
    built = [expr, d.to_cnf(expr), d.to_dyck_nf(d.to_cnf(expr))[0]]
    for g in cnf_corpus:
        built += [d.parse_grammar(d.serialize(g)), d.to_dyck_nf(g)[0]]
    built += [d.elin_to_dyck_nf(g)[0] for g in elin_grammars]
    for g in built:
        for r in g.rules:
            assert type(r) is d.Rule, (g, r)
            assert str(r).startswith(f"{r.lhs} -> "), r


# ---- the golden conversion ----

def test_golden_conversion_size(expr_cnf, expr_converted):
    gd, ledger = expr_converted
    assert len(gd.nonterminals) == 15
    assert len(gd.rules) == 26
    assert d.dyck_nf_violations(gd) == []


def test_golden_conversion_isomorphic(expr_converted, expr_dyck_expected):
    gd, _ = expr_converted
    iso = d.find_isomorphism(gd, expr_dyck_expected)
    assert iso is not None
    # the fresh names land exactly on the expected reference symbols
    assert iso == {"E0": "E0", "E": "E", "T": "T", "T1": "T1", "E1": "E1",
                   "T2": "T2", "E2": "E2", "R": "R",
                   "E_t1": "E3", "T_t1": "T3", "T_R1": "Tp",
                   "T_t1_R1": "T4", "E2_L1": "E4",
                   "E1_R1": "E5", "T1_R1": "T5"}


def test_golden_ledger(expr_converted):
    _, ledger = expr_converted
    by_step = {}
    for s in ledger:
        by_step.setdefault(s.step, []).append(s)
    # step 1 pulls the terminal rules out of E and T
    assert {(s.fresh, s.original) for s in by_step[1]} == {
        ("E_t1", "E"), ("T_t1", "T")}
    assert all(s.kind == "terminal" for s in by_step[1])
    # step 2 splits the right-side occurrences of T and T_t1
    assert {(s.fresh, s.original) for s in by_step[2]} == {
        ("T_R1", "T"), ("T_t1_R1", "T_t1")}
    # step 3 resolves the remaining shared-bracket conflicts
    assert {(s.fresh, s.original) for s in by_step[3]} == {
        ("E1_R1", "E1"), ("T1_R1", "T1"), ("E2_L1", "E2")}


def test_step_one_moves_every_extra_terminal_rule_first():
    # A and B each have two terminal rules next to a binary rule; Z has no
    # rules and occurs on both sides of bodies
    R = d.Rule
    g = d.Grammar(["S", "A", "B", "Z"], ["a", "b", "c"], "S", [
        R("S", ("A", "B")), R("A", ("a",)), R("A", ("Z", "B")),
        R("A", ("b",)), R("B", ("b",)), R("B", ("A", "Z")), R("B", ("c",))])
    gd, ledger = d.to_dyck_nf(g)
    assert [(s.fresh, s.original, s.kind, s.step) for s in ledger[:4]] == [
        ("A_t1", "A", "terminal", 1), ("B_t1", "B", "terminal", 1),
        ("A_t2", "A", "terminal", 1), ("B_t2", "B", "terminal", 1)]
    assert [s.fresh for s in ledger[4:]] == [
        "Z_R1", "Z_R2", "Z_R3", "B_R1", "A_L1", "B_R2", "A_t1_L1", "A_L2",
        "B_t1_R1", "Z_L1", "B_t1_R2", "A_t1_L2", "B_R3", "A_t2_L1",
        "B_t1_R3", "A_t2_L2", "A_L3", "B_t2_R1", "Z_L2", "B_t2_R2",
        "A_t1_L3", "B_t2_R3", "A_t2_L3"]
    assert gd.nonterminals == ["S", "A", "B", "Z"] + [
        s.fresh for s in ledger]
    assert [str(r) for r in gd.rules] == [
        "S -> A B", "A -> Z B_R1", "B -> A_L1 Z_R1",
        "A_t1 -> b", "S -> A_t1 B_R2", "B -> A_t1_L1 Z_R2",
        "B_t1 -> c", "S -> A_L2 B_t1", "A -> Z_L1 B_t1_R1",
        "S -> A_t1_L2 B_t1_R2",
        "A_t2 -> a", "S -> A_t2 B_R3", "B -> A_t2_L1 Z_R3",
        "S -> A_t2_L2 B_t1_R3",
        "B_t2 -> b", "S -> A_L3 B_t2", "A -> Z_L2 B_t2_R1",
        "S -> A_t1_L3 B_t2_R2", "S -> A_t2_L3 B_t2_R3",
        "B_R1 -> A_L1 Z_R1", "B_R1 -> A_t1_L1 Z_R2", "B_R1 -> A_t2_L1 Z_R3",
        "A_L1 -> Z B_R1", "A_L1 -> Z_L1 B_t1_R1", "A_L1 -> Z_L2 B_t2_R1",
        "B_R2 -> A_L1 Z_R1", "B_R2 -> A_t1_L1 Z_R2", "B_R2 -> A_t2_L1 Z_R3",
        "A_t1_L1 -> b",
        "A_L2 -> Z B_R1", "A_L2 -> Z_L1 B_t1_R1", "A_L2 -> Z_L2 B_t2_R1",
        "B_t1_R1 -> c", "B_t1_R2 -> c", "A_t1_L2 -> b",
        "B_R3 -> A_L1 Z_R1", "B_R3 -> A_t1_L1 Z_R2", "B_R3 -> A_t2_L1 Z_R3",
        "A_t2_L1 -> a", "B_t1_R3 -> c", "A_t2_L2 -> a",
        "A_L3 -> Z B_R1", "A_L3 -> Z_L1 B_t1_R1", "A_L3 -> Z_L2 B_t2_R1",
        "B_t2_R1 -> b", "B_t2_R2 -> b", "A_t1_L3 -> b", "B_t2_R3 -> b",
        "A_t2_L3 -> a"]
    assert d.enumerate_words(gd, 6) == d.enumerate_words(g, 6) == [
        "ab", "ac", "bb", "bc"]


def test_pairing_of_golden(expr_converted):
    gd, _ = expr_converted
    names = dict(d.pairing_of(gd))
    assert names["T"] == "T1" and names["E"] == "E1"
    assert names["T2"] == "R" and names["E2"] == "T_R1"
    assert len(names) == 7


# ---- corpus properties ----

def test_conversion_preserves_language(dyck_corpus):
    for g, gd, _ in dyck_corpus:
        assert d.dyck_nf_violations(gd) == []
        assert d.enumerate_words(g, 7) == d.enumerate_words(gd, 7), g


def test_conversion_is_idempotent(dyck_corpus):
    for _, gd, _ in dyck_corpus:
        again, ledger = d.to_dyck_nf(gd)
        assert ledger == ()
        assert again.rules == gd.rules


# sha256 of the corpus below, serialized grammar and ledger text per
# conversion; any change to the conversions' output bytes changes it
CONVERSION_DIGEST = ("44bc966e538ad1ac5e69fee5877e5de1"
                     "b81a10ab23ec6b3927a142da7b394838")


def test_conversion_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        g = random_cnf_grammar(f"pin{seed}", max_nts=8, alphabet="abc")
        gd, ledger = d.to_dyck_nf(d.to_cnf(g))
        digest.update((d.serialize(gd) + d.ledger_text(ledger)).encode())
    for g in elin_corpus(5) + [random_elin_grammar(s) for s in range(50)]:
        gd, ledger = d.elin_to_dyck_nf(g)
        digest.update((d.serialize(gd) + d.ledger_text(ledger)).encode())
    assert digest.hexdigest() == CONVERSION_DIGEST


def test_dyck_postcondition_builds_no_cyk_index(expr, cnf_corpus):
    # the check of to_dyck_nf's output and pairing_of read the rules
    # alone; the bitset index is built when CYK first runs
    for g in [d.to_cnf(expr)] + cnf_corpus:
        out, _ = d.to_dyck_nf(g)
        assert d.dyck_nf_violations(out) == [] and d.pairing_of(out)
        assert "_cnf_index" not in vars(out)
        words = set(d.enumerate_words(out, 5))
        for n in range(1, 6):
            for letters in itertools.product(out.terminals, repeat=n):
                w = "".join(letters)
                assert d.member(out, w) == (w in words), (g, w)
    assert d.dyck_nf_violations(expr) == [
        ("not-cnf", "E -> T * R"), ("not-cnf", "E -> E + T"),
        ("not-cnf", "T -> T * R")]


def test_stand_in_names_step_past_declared_ones():
    g = d.parse_grammar("start: S\nS -> A A_t1\nA -> A A | 'a'\n"
                        "A_t1 -> 'b'")
    gd, ledger = d.to_dyck_nf(g)
    assert str(ledger[0]) == "A_t2 <- A [terminal] step=1"
    assert d.is_dyck_nf(gd)
    assert d.enumerate_words(gd, 6) == d.enumerate_words(g, 6)


def test_pairing_guard_stops_a_runaway_pass(monkeypatch, expr_cnf):
    # a stand-in on the wrong side leaves the conflict in place, so the
    # pass would mint stand-ins forever; its limit is fixed at the start
    stand_in = nf._Conversion.stand_in

    def wrong_side(st, body, side, step):
        if step == 3:
            side = "L" if side == "R" else "R"
        stand_in(st, body, side, step)

    monkeypatch.setattr(nf._Conversion, "stand_in", wrong_side)
    with pytest.raises(AssertionError, match=r"pairing pass did not "
                       r"stabilize: \d+ conflicts, limit \d+$") as stopped:
        d.to_dyck_nf(expr_cnf)
    conflicts, limit = map(int, re.findall(r"\d+", str(stopped.value)))
    assert conflicts == limit + 1


def test_to_dyck_nf_rejects_non_cnf(expr):
    with pytest.raises(d.GrammarError):
        d.to_dyck_nf(expr)


def test_to_dyck_nf_rejects_start_on_rhs():
    g = d.parse_grammar("start: S\nS -> A S | 'a'\nA -> 'a'")
    with pytest.raises(d.GrammarError):
        d.to_dyck_nf(g)


# ---- the collapsing map ----

def test_collapsing_map_on_golden(expr_cnf, expr_converted):
    gd, ledger = expr_converted
    hd = d.build_hd(gd, ledger)
    # fresh symbols collapse to their originals, originals stay put
    assert hd["E_t1"] == "E" and hd["T_t1_R1"] == "T" and hd["E2_L1"] == "E2"
    assert hd["E"] == "E" and hd["T1"] == "T1"
    for w in d.enumerate_words(gd, 7):
        for tree in d.all_trees(gd, w):
            mapped = d.map_tree(tree, hd, expr_cnf)
            d.validate_tree(expr_cnf, mapped)
            assert d.tree_yield(mapped) == w


def test_collapsing_map_on_corpus(dyck_corpus):
    for g, gd, ledger in dyck_corpus:
        hd = d.build_hd(gd, ledger)
        for w in d.enumerate_words(gd, 5):
            tree = d.extract_tree(gd, w)
            mapped = d.map_tree(tree, hd, g)
            assert d.tree_yield(mapped) == w

def test_build_hd_refuses_a_cyclic_or_out_of_order_ledger(expr_cnf):
    cyclic = (d.Substitution("E", "T", "nonterminal", 2),
              d.Substitution("T", "E", "nonterminal", 2))
    looped = (d.Substitution("E", "E", "nonterminal", 2),)
    out_of_order = (d.Substitution("T_R1_R1", "T_R1", "nonterminal", 3),
                    d.Substitution("T_R1", "T", "nonterminal", 2))
    for ledger in (cyclic, looped, out_of_order):
        with pytest.raises(d.GrammarError, match="ledger lists a stand-in"):
            d.build_hd(expr_cnf, ledger)


def test_ledger_stand_ins_must_be_declared(expr_cnf, expr_converted):
    # the CNF grammar in place of the converted one declares no stand-in
    _, ledger = expr_converted
    stray = "ledger stand-in E_t1 is not a nonterminal of the grammar"
    with pytest.raises(d.GrammarError, match=stray):
        d.build_hd(expr_cnf, ledger)
    with pytest.raises(d.GrammarError, match=stray):
        d.verify_equivalence_matrices(expr_cnf, expr_cnf, ledger, "a+a")


def test_map_tree_refuses_a_stand_in_sent_to_the_wrong_original(
        expr_cnf, expr_converted):
    gd, ledger = expr_converted
    wrong = dict(d.build_hd(gd, ledger), E1_R1="T")
    tree = d.extract_tree(gd, "a+a")
    with pytest.raises(d.GrammarError,
                       match="ledger out of sync.*not a rule"):
        d.map_tree(tree, wrong, expr_cnf)


def test_map_tree_names_a_label_missing_from_hd(expr_cnf):
    tree = d.extract_tree(expr_cnf, "a+a")
    with pytest.raises(d.GrammarError, match="ledger out of sync"):
        d.map_tree(tree, {}, expr_cnf)


def test_equivalence_matrices_on_golden(expr_cnf, expr_converted):
    gd, ledger = expr_converted
    probes = d.enumerate_words(expr_cnf, 6) + ["aa", "+a", "a*", "a+*a"]
    for w in probes:
        assert d.verify_equivalence_matrices(expr_cnf, gd, ledger, w) == []


def test_equivalence_matrices_name_an_unlisted_terminal_stand_in(
        expr_cnf, expr_converted):
    gd, ledger = expr_converted
    unlisted = tuple(s for s in ledger if s.fresh != "E_t1")
    (i, j, expected, actual), *_ = d.verify_equivalence_matrices(
        expr_cnf, gd, unlisted, "a+a")
    assert (i, j) == (1, 1) and set(actual) - set(expected) == {"E_t1"}


def test_equivalence_matrices_leave_no_reference_cycles(expr_cnf,
                                                        expr_converted):
    gd, ledger = expr_converted
    gc.collect()
    gc.disable()
    try:
        assert d.verify_equivalence_matrices(expr_cnf, gd, ledger,
                                             "a+a*a") == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equivalence_matrices_follow_ledger_chains_past_recursion_limit():
    # X1 stands in for S, X2 for X1, ...; each inherits S -> S S
    m = 1500
    fresh = [f"X{k}" for k in range(1, m + 1)]
    ledger = [d.Substitution(x, orig, "nonterminal", 2)
              for x, orig in zip(fresh, ["S"] + fresh)]
    g = d.parse_grammar("start: S\nS -> S S | 'a'")
    inherited = [d.Rule(x, ("S", "S")) for x in fresh]
    gd = d.Grammar(["S"] + fresh, ["a"], "S", g.rules + inherited)
    short = d.Grammar(gd.nonterminals, ["a"], "S", gd.rules[:-1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert d.verify_equivalence_matrices(g, gd, ledger, "aa") == []
        (i, j, expected, actual), = d.verify_equivalence_matrices(
            g, short, ledger, "aa")
        assert (i, j) == (1, 2) and set(expected) - set(actual) == {fresh[-1]}
    finally:
        sys.setrecursionlimit(limit)
    with pytest.raises(d.GrammarError):
        d.verify_equivalence_matrices(g, gd, ledger[::-1], "aa")
