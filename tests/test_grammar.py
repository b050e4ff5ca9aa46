"""Core grammar type: text format, validation, normal form predicates,
trees and derivations."""

from __future__ import annotations

import gc
import inspect
import pickle
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dycknf as d
from dycknf.corpus import random_cnf_grammar, random_words
from dycknf.grammar import DEFAULT_MAX_RHS


# ---- parsing and serialization ----

def test_parse_basic(expr):
    assert expr.start == "E"
    assert expr.nonterminals == ["E", "T", "R"]
    assert expr.terminals == ["a", "*", "+"]
    assert d.Rule("E", ("T", "*", "R")) in expr.rules
    assert len(expr.rules) == 6


def test_parse_lambda_spelling():
    g = d.parse_grammar("start: S\nS -> 'a' | eps")
    assert d.Rule("S", ()) in g.rules
    d.validate(g, allow_lambda=True)
    with pytest.raises(d.GrammarError):
        d.validate(g)


# one text per kind of ParseError: (text, message, line, col)
PARSE_ERRORS = {
    "duplicate start": ("start: S\n  start: S\nS -> 'a'",
                        "duplicate start declaration", 2, 3),
    "bad start symbol": ("start: 9S\nS -> 'a'", "bad start symbol '9S'", 1, 1),
    "no arrow": ("start: S\nS -> 'a'\nS 'b'",
                 "expected 'start:' or a rule with '->'", 3, 1),
    "bad head": ("start: S\nS T -> 'a'", "bad rule head 'S T'", 2, 1),
    "eps head": ("start: S\nS -> 'a'\neps -> 'b'",
                 "'eps' is reserved and cannot name a nonterminal", 3, 1),
    "missing start": ("S -> 'a'", "missing 'start:' declaration", 1, 1),
    "start without rules": ("start: T\nS -> 'a'",
                            "start symbol 'T' has no rules", 1, 1),
    "start declared late": ("# header\n\n  start: T\nS -> 'a'",
                            "start symbol 'T' has no rules", 3, 3),
    "undeclared symbol": ("start: S\n  S -> 'a' T  # T has no rules",
                          "undeclared symbol 'T'", 2, 12),
    "name collision": ("start: S\nS -> A 'A'\nA -> 'a'",
                       "terminal 'A' collides with a nonterminal of the same "
                       "name", 2, 8),
    "unexpected character": ("start: S\nS -> 'a' ! 'b'",
                             "unexpected character '!'", 2, 10),
    "eps mixed": ("start: S\nS -> 'a' | 'b' eps",
                  "'eps' cannot be mixed with other symbols", 2, 16),
    "empty alternative": ("start: S\nS -> 'a' | | 'b'",
                          "empty alternative (write 'eps' for a lambda rule)",
                          2, 11),
    # the offending alternative starts at column 12
    "over-long body": ("start: S\nS -> 'a' | " + " ".join(["'a'"] * 9),
                       "rule body has 9 symbols, limit is 8", 2, 12),
    "duplicate rule": ("start: S\nS -> 'a'\nS -> 'b' | 'a'",
                       "duplicate rule S -> a", 3, 12),
    # lines whose every piece is a known token: the parser reads their
    # distinct alternatives once per call, and reports like the token loop
    "spaced duplicate": ("start: S\nS -> A B | A  B\nA -> 'a'\nB -> 'b'",
                         "duplicate rule S -> A B", 2, 12),
    "duplicate across lines": ("start: S\nS -> A B | 'a'\nS -> 'b' | A B\n"
                               "A -> 'a'\nB -> 'b'",
                               "duplicate rule S -> A B", 3, 12),
    "eps among known": ("start: S\nS -> 'a'\nS -> A | A eps | 'a' A\n"
                        "A -> 'a'",
                        "'eps' cannot be mixed with other symbols", 3, 12),
    "bar beside separators": ("start: S\nS -> '|' 'a' | 'a'\n"
                              "S -> 'a' '|' | '|' 'a'",
                              "duplicate rule S -> | a", 3, 16),
    "over-long known body": ("start: S\nS -> 'a'\nS -> A | "
                             + " ".join(["A"] * 9) + "\nA -> 'a'",
                             "rule body has 9 symbols, limit is 8", 3, 10),
    "comment beside '#'": ("start: S\nS -> '#' A  # a comment\n"
                           "   # an indented comment line\n  S -> '#' A\n"
                           "A -> 'a'", "duplicate rule S -> # A", 4, 8),
}


def test_parse_errors_carry_position():
    for kind, (text, message, line, col) in PARSE_ERRORS.items():
        with pytest.raises(d.ParseError) as e:
            d.parse_grammar(text)
        assert (str(e.value), e.value.line, e.value.col) == (
            f"line {line}, col {col}: {message}", line, col), kind


def test_rhs_length_bound():
    long_rhs = " ".join("'a'" for _ in range(9))
    with pytest.raises(d.ParseError, match="limit is 8"):
        d.parse_grammar(f"start: S\nS -> {long_rhs}")
    at_limit = " ".join("'a'" for _ in range(DEFAULT_MAX_RHS))
    assert d.parse_grammar(f"start: S\nS -> {at_limit}")


def test_serialize_round_trip(expr, expr_cnf, expr_dyck_expected,
                              dyck_corpus):
    for g in [expr, expr_cnf, expr_dyck_expected]:
        assert d.parse_grammar(d.serialize(g)) == g
    # to_dyck_nf's outputs repeat their bodies under many heads.  They keep
    # their input's terminal order, which need not be the order of first use
    for _, gd, _ in dyck_corpus:
        back = d.parse_grammar(d.serialize(gd))
        assert back == d.Grammar(gd.nonterminals, back.terminals, gd.start,
                                 gd.rules)
        assert sorted(back.terminals) == sorted(gd.terminals)


def test_serialize_refuses_what_parse_would_reject(expr, expr_cnf):
    # its own two refusals: sound grammars the text format cannot hold
    long_body = d.Grammar(["S"], ["a"], "S", [d.Rule("S", ("a",) * 9)])
    no_rules = d.Grammar(["S", "A"], ["a"], "S", [d.Rule("S", ("a",))])
    for g, message in ((long_body, "S -> a a a a a a a a a has 9 body "
                                   "symbols, more than DEFAULT_MAX_RHS"),
                       (no_rules, "nonterminal A has no rules")):
        d.validate(g)
        with pytest.raises(d.GrammarError) as exc:
            d.serialize(g)
        assert not isinstance(exc.value, d.ParseError)
        assert message in str(exc.value)
    # otherwise it refuses exactly what validate refuses, with its message
    lam = d.parse_grammar("start: S\nS -> 'a' | eps")
    for g in [*UNSOUND.values(), expr, expr_cnf, lam]:
        try:
            d.validate(g, allow_lambda=True)
        except d.GrammarError as e:
            with pytest.raises(d.GrammarError) as exc:
                d.serialize(g)
            assert str(exc.value) == str(e)
        else:
            assert d.parse_grammar(d.serialize(g)) == g


def test_serialize_round_trip_needs_first_use_order():
    g = d.Grammar(["A", "S"], ["a"], "S",
                  [d.Rule("S", ("A",)), d.Rule("A", ("a",))])
    back = d.parse_grammar(d.serialize(g))
    assert back.nonterminals == ["S", "A"] and back.rules == g.rules
    assert back != g


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_serialize_round_trip_random(seed):
    g = random_cnf_grammar(seed)
    assert d.parse_grammar(d.serialize(g)) == g


def test_quote_bar_and_hash_terminals_parse():
    g = d.parse_grammar("start: S\n"
                        "S -> 'a' '|' 'b' | 'a' ''' 'b'  # comment\n"
                        "S -> '#'|'|'\n")
    assert g.terminals == ["a", "|", "b", "'", "#"]
    assert g.rules == [d.Rule("S", ("a", "|", "b")),
                       d.Rule("S", ("a", "'", "b")),
                       d.Rule("S", ("#",)), d.Rule("S", ("|",))]


@given(st.lists(st.characters(exclude_characters="\n",
                              exclude_categories=()),
                min_size=1, max_size=4, unique=True))
@example(["|"])
@example(["'"])
@example(["#", "'", "|", " "])
@settings(max_examples=200, deadline=None)
def test_serialize_round_trip_every_terminal(letters):
    # two-letter nonterminal names cannot collide with any terminal
    first, last = letters[0], letters[-1]
    g = d.Grammar(["S0", "A0"], letters, "S0",
                  [d.Rule("S0", tuple(letters)),
                   d.Rule("S0", ("A0", first)),
                   d.Rule("A0", (last,)),
                   d.Rule("A0", (first, "A0", last))])
    d.validate(g)
    assert d.parse_grammar(d.serialize(g)) == g


def test_rule_is_a_plain_pair():
    r = d.Rule("S", ("A", "B"))
    assert r == ("S", ("A", "B")) and hash(r) == hash(("S", ("A", "B")))
    assert str(r) == "S -> A B" and str(d.Rule("S", ())) == "S -> eps"
    assert repr(r) == "Rule(lhs='S', rhs=('A', 'B'))"
    with pytest.raises(AttributeError):
        r.lhs = "T"
    back = pickle.loads(pickle.dumps(r))
    assert back == r and type(back) is d.Rule


# ---- one soundness check for every entry point ----

def _grammar(nts, ts, start, *rules):
    return d.Grammar(nts, ts, start, [d.Rule(lhs, rhs) for lhs, rhs in rules])


# one hand-built grammar per kind of defect validate refuses
UNSOUND = {
    "name is both kinds": _grammar(["S", "a"], ["a"], "S", ("S", ("a",))),
    "undeclared start": _grammar(["S"], ["a"], "T", ("S", ("a",))),
    "undeclared head": _grammar(["S"], ["a"], "S", ("S", ("a",)),
                                ("Z", ("a",))),
    "nonterminal twice": _grammar(["S", "S"], ["a"], "S", ("S", ("a",))),
    "terminal twice": _grammar(["S"], ["a", "a"], "S", ("S", ("a",))),
    "duplicate rule": _grammar(["S"], ["a"], "S", ("S", ("a",)),
                               ("S", ("a",))),
    "bad nonterminal name": _grammar(["S x"], ["a"], "S x",
                                     ("S x", ("a",))),
    "undeclared body symbol": _grammar(["S"], ["a"], "S", ("S", ("a", "b"))),
    "long terminal": _grammar(["S"], ["ab"], "S", ("S", ("ab",))),
    "plain tuple rules": d.Grammar(["S", "A"], ["a", "b"], "S", [
        ("S", ("A", "A")), ("A", ("a",)), ("S", ("b",))]),
    "list body": d.Grammar(["S"], ["a"], "S", [d.Rule("S", ["a"])]),
    "nonterminal not a string": _grammar([1], ["a"], 1, (1, ("a",))),
    "terminal not a string": _grammar(["S"], [2], "S", ("S", (2,))),
    "list head": d.Grammar(["S"], ["a"], "S", [d.Rule(["S"], ("a",))]),
    "body symbol not a string": _grammar(["S"], ["a"], "S",
                                         ("S", ("a", 1))),
    # unhashable names: the constructor must leave them to validate
    "list nonterminal": d.Grammar([["S"]], ["a"], "S", []),
    "list terminal": d.Grammar(["S"], [["a"]], "S", []),
}

_TREE = ("S", ("a",))

# every public function that takes a grammar, called with g in each
# grammar argument
ENTRY_POINTS = {
    "validate": lambda g: d.validate(g),
    "serialize": lambda g: d.serialize(g),
    "dyck_nf_violations": lambda g: d.dyck_nf_violations(g),
    "is_cnf": lambda g: d.is_cnf(g),
    "is_dyck_nf": lambda g: d.is_dyck_nf(g),
    "pairing_of": lambda g: d.pairing_of(g),
    "find_isomorphism": lambda g: d.find_isomorphism(g, g),
    "leftmost_derivation": lambda g: d.leftmost_derivation(g, _TREE),
    "validate_tree": lambda g: d.validate_tree(g, _TREE),
    "enumerate_words": lambda g: d.enumerate_words(g, 3),
    "all_trees": lambda g: d.all_trees(g, "a"),
    "build_table": lambda g: d.build_table(g, "a"),
    "count_trees": lambda g: d.count_trees(g, "a"),
    "extract_tree": lambda g: d.extract_tree(g, "a"),
    "member": lambda g: d.member(g, "a"),
    "build_hd": lambda g: d.build_hd(g, ()),
    "cleanup": lambda g: d.cleanup(g),
    "map_tree": lambda g: d.map_tree(_TREE, {"S": "S"}, g),
    "to_cnf": lambda g: d.to_cnf(g),
    "to_dyck_nf": lambda g: d.to_dyck_nf(g),
    "verify_equivalence_matrices":
        lambda g: d.verify_equivalence_matrices(g, g, (), "a"),
    "trace_as_brackets": lambda g: d.trace_as_brackets(g, ("S",)),
    "trace_from_rewriting": lambda g: d.trace_from_rewriting(g, _TREE),
    "trace_language": lambda g: d.trace_language(g, 3),
    "trace_word": lambda g: d.trace_word(g, _TREE),
    "build_phi": lambda g: d.build_phi(g),
    "extend_grammar": lambda g: d.extend_grammar(g),
    "partition_nonterminals": lambda g: d.partition_nonterminals(g),
    "verify_characterization": lambda g: d.verify_characterization(g, 3),
    "elin_to_dyck_nf": lambda g: d.elin_to_dyck_nf(g),
    "is_even_linear": lambda g: d.is_even_linear(g),
    "recognize_atm": lambda g: d.recognize_atm(g, "a"),
}


def test_entry_point_table_covers_the_public_api():
    takes_grammar = set()
    for name in d.__all__:
        value = getattr(d, name)
        if inspect.isfunction(value) and {"g", "g1", "g_cnf", "g_dyck",
                                           "ext"} & set(
                inspect.signature(value).parameters):
            takes_grammar.add(name)
    assert takes_grammar == set(ENTRY_POINTS) and len(ENTRY_POINTS) == 32


def test_every_entry_point_refuses_an_unsound_grammar():
    for kind, g in UNSOUND.items():
        with pytest.raises(d.GrammarError) as refused:
            d.validate(g)
        for name, call in ENTRY_POINTS.items():
            with pytest.raises(d.GrammarError) as exc:
                call(g)
            assert str(refused.value) in str(exc.value), (kind, name)


@pytest.mark.parametrize("kind, message", [
    ("list nonterminal", "bad nonterminal name ['S']"),
    ("list terminal", "terminal ['a'] is not a single character")])
def test_unhashable_names_are_named_by_validate(kind, message):
    with pytest.raises(d.GrammarError) as exc:
        d.validate(UNSOUND[kind])
    assert str(exc.value) == message


def test_soundness_is_checked_once_per_grammar(monkeypatch, expr_cnf):
    from dycknf import grammar
    calls = []

    def counted(g):
        calls.append(g)
        return find(g)

    find = grammar._find_defects
    monkeypatch.setattr(grammar, "_find_defects", counted)
    g = d.Grammar(expr_cnf.nonterminals, expr_cnf.terminals,
                  expr_cnf.start, expr_cnf.rules)
    d.validate(g)
    assert d.member(g, "a+a") and d.is_cnf(g) and not d.is_dyck_nf(g)
    d.serialize(g)
    out, _ = d.to_dyck_nf(g)   # checks its output as well, once
    d.enumerate_words(g, 3)
    bad = _grammar(["S", "a"], ["a"], "S", ("S", ("a",)))
    for _ in range(2):
        for name in ("member", "serialize", "is_even_linear"):
            with pytest.raises(d.GrammarError):
                ENTRY_POINTS[name](bad)
    assert [id(c) for c in calls] == [id(g), id(out), id(bad)]


def _defects_rule_by_rule(g):
    """validate's findings, one name and one rule at a time: the reference
    for the set-level test in _find_defects."""
    declared = set()
    for nt in g.nonterminals:
        if not isinstance(nt, str) or not IDENT.fullmatch(nt) or nt == "eps":
            return f"bad nonterminal name {nt!r}", None
        if nt in declared:
            return f"nonterminal {nt} declared twice", None
        declared.add(nt)
    for t in g.terminals:
        if not isinstance(t, str) or len(t) != 1 or t == "\n":
            return f"terminal {t!r} is not a single character", None
        if t in g._nt_set:
            return f"terminal {t!r} collides with a nonterminal name", None
        if t in declared:
            return f"terminal {t!r} declared twice", None
        declared.add(t)
    if not isinstance(g.start, str) or g.start not in g._nt_set:
        return f"start symbol {g.start!r} is not declared", None
    lambda_rule = None
    seen_rules = set()
    try:
        for r in g.rules:
            if not isinstance(r, d.Rule):
                return f"rule {r!r} is not a Rule", lambda_rule
            lhs, rhs = r
            if not isinstance(rhs, tuple):
                return (f"body of rule {lhs} is not a tuple: {rhs!r}",
                        lambda_rule)
            if lhs not in g._nt_set:
                return f"rule head {lhs!r} is not declared", lambda_rule
            if not rhs and lambda_rule is None:
                lambda_rule = r
            for s in rhs:
                if s not in declared:
                    return f"undeclared symbol {s!r} in rule {r}", lambda_rule
            if r in seen_rules:
                return f"duplicate rule {r}", lambda_rule
            seen_rules.add(r)
    except TypeError:
        return f"rule {r!r} holds a name that is not a string", lambda_rule
    return None, lambda_rule


IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _SubRule(d.Rule):
    pass


class _SubName(str):
    pass


def _chain_dyck_output(m=7):
    """A Dyck normal form output of about 450 rules, from a CNF grammar of
    m nonterminals with two binary bodies and one letter each."""
    lines = ["start: N0"]
    for k in range(m):
        lines.append(f"N{k} -> N{(k + 1) % m} N{(3 * k + 2) % m} | "
                     f"N{(5 * k + 1) % m} N{(2 * k + 3) % m} | "
                     f"{'abcd'[k % 4]!r}")
    return d.to_dyck_nf(d.to_cnf(d.parse_grammar("\n".join(lines))))[0]


def test_set_level_defect_test_agrees_with_the_loop(monkeypatch, cnf_corpus,
                                                    dyck_corpus):
    from dycknf import grammar
    sub = _SubName("S")
    odd = [
        d.Grammar(["S", "A"], ["a"], "S",
                  [_SubRule("S", ("A",)), _SubRule("A", ("a",))]),
        d.Grammar([sub, "A"], ["a"], sub, [d.Rule(sub, ("A",)),
                                           d.Rule("A", ("a",))]),
        d.Grammar(["S"], ["a"], "S", [d.Rule("S", ("a",) + (_SubName("a"),))]),
        d.Grammar(["S"], ["a"], "S", [d.Rule("S", ()), d.Rule("S", ())]),
        d.Grammar(["S"], [], "S", []),
        # a lambda rule before a defect, after one, and with none
        _grammar(["S"], ["a"], "S", ("S", ()), ("S", ("a",)),
                 ("S", ("a",))),
        _grammar(["S"], ["a"], "S", ("S", ("a",)), ("S", ("a",)),
                 ("S", ())),
        d.parse_grammar("start: S\nS -> A 'a' | 'b' | eps\nA -> eps"),
    ]
    for g in [*UNSOUND.values(), *odd, *cnf_corpus,
              *(gd for _, gd, _ in dyck_corpus)]:
        assert grammar._find_defects(g) == _defects_rule_by_rule(g), g

    # the set-level test alone decides a sound grammar
    def loop(g):
        raise AssertionError("the loop ran on a sound grammar")

    out = _chain_dyck_output()
    monkeypatch.setattr(grammar, "_first_defect", loop)
    g = d.Grammar(out.nonterminals, out.terminals, out.start, out.rules)
    assert len(g.rules) > 400
    d.validate(g)


def _assert_parse_records_defects(text):
    """parse_grammar stores the findings _find_defects would make."""
    from dycknf import grammar
    g = d.parse_grammar(text)
    assert vars(g)["_defects"] == grammar._find_defects(g), text


def test_parsed_grammars_come_with_their_defects(cnf_corpus, dyck_corpus):
    data = Path(__file__).parent / "data"
    texts = [p.read_text() for p in sorted(data.glob("*.cfg"))]
    texts += [d.serialize(g) for g in cnf_corpus]
    texts += [d.serialize(gd) for _, gd, _ in dyck_corpus]
    texts += ["start: S\nS -> A 'a' | 'b' | eps\nA -> eps",
              "start: S\nS -> 'a'\nS -> S S | eps\nB -> eps | 'b'"]
    for text in texts:
        _assert_parse_records_defects(text)


_HEADS = ("S", "A", "B")
_SYMBOLS = ("S", "A", "B", "'a'", "'b'", "'S'", "'|'", "'#'", "'''", "' '",
            "'e'")
# a rule for A and one for B, so that a body may use them
_TAIL = "\nA -> 'a' 'a' 'a' 'a'\nB -> 'b' 'b' 'b' 'b'"


@given(st.lists(st.tuples(
    st.sampled_from(_HEADS),
    st.lists(st.just(["eps"]) | st.lists(st.sampled_from(_SYMBOLS),
                                         min_size=1, max_size=3),
             min_size=1, max_size=3)), min_size=1, max_size=5))
@settings(max_examples=400, deadline=None)
def test_fuzzed_texts_come_with_their_defects(lines):
    text = "start: S\n" + "\n".join(
        f"{head} -> {' | '.join(' '.join(alt) for alt in alts)}"
        for head, alts in lines) + _TAIL
    try:
        _assert_parse_records_defects(text)
    except d.ParseError:
        pass


def test_lambda_rules_are_refused_only_where_validate_refuses_them():
    g = d.parse_grammar("start: S\nS -> A 'a' | 'b'\nA -> eps")
    dup = _grammar(["S"], ["a"], "S", ("S", ()), ("S", ("a",)),
                   ("S", ("a",)))
    with pytest.raises(d.GrammarError, match="lambda rule A -> eps"):
        d.validate(g)
    # the first of the two defects in rule order is the one validate names
    with pytest.raises(d.GrammarError, match="lambda rule S -> eps"):
        d.validate(dup)
    with pytest.raises(d.GrammarError, match="duplicate rule S -> a"):
        d.validate(dup, allow_lambda=True)
    assert d.enumerate_words(g, 2) == ["a", "b"]
    assert d.parse_grammar(d.serialize(g)) == g
    assert not d.is_cnf(g)
    with pytest.raises(d.GrammarError, match="lambda rule A -> eps"):
        d.to_cnf(g)


# ---- normal form predicates ----

def test_is_cnf(expr, expr_cnf):
    assert not d.is_cnf(expr)
    assert d.is_cnf(expr_cnf)


def test_dyck_violations_name_the_problem(expr_cnf, expr_dyck_expected):
    codes = {v[0] for v in d.dyck_nf_violations(expr_cnf)}
    # T heads a terminal rule and binary rules, and sits on both sides
    assert "mixed-terminal" in codes
    assert "both-sides" in codes
    assert d.dyck_nf_violations(expr_dyck_expected) == []


def test_start_on_rhs_is_a_violation():
    g = d.parse_grammar("start: S\nS -> A B | 'a'\nA -> S B\nB -> 'b'")
    assert any(v[0] == "start-on-rhs" for v in d.dyck_nf_violations(g))


def test_pairing_of(expr_dyck_expected):
    pairs = d.pairing_of(expr_dyck_expected)
    assert pairs == [("T", "T1"), ("E", "E1"), ("E3", "E5"), ("T3", "T5"),
                     ("E2", "Tp"), ("E4", "T4"), ("T2", "R")]
    with pytest.raises(d.GrammarError):
        d.pairing_of(d.parse_grammar("start: S\nS -> 'a' 'b'"))


# ---- trees and derivations ----

def test_tree_utilities(expr_cnf):
    tree = d.extract_tree(expr_cnf, "a+a")
    assert d.tree_yield(tree) == "a+a"
    # the preorder internal labels, read here off the rewriting instead
    assert d.validate_tree(expr_cnf, tree) == [
        r.lhs for r in d.leftmost_derivation(expr_cnf, tree)]
    bad = ("E0", (("E", ("a",)), ("E1", ("+",))))
    with pytest.raises(d.GrammarError):
        d.validate_tree(expr_cnf, bad)
    with pytest.raises(d.GrammarError, match="expected E0"):
        d.validate_tree(expr_cnf, ("E", ("a",)))
    with pytest.raises(d.GrammarError, match="must be a nonterminal node"):
        d.validate_tree(expr_cnf, "a")
    # E0 -> E E1 is a rule, but its children are names, not subtrees
    with pytest.raises(d.GrammarError, match="leaf 'E' is not a terminal"):
        d.validate_tree(expr_cnf, ("E0", ("E", "E1")))


def test_deep_tree_needs_no_recursion():
    g = d.parse_grammar("start: S\nS -> A B\nB -> A B | 'b'\nA -> 'a'")
    tree = ("B", ("b",))
    bad = ("B", ("c",))
    for _ in range(1500):
        tree = ("B", (("A", ("a",)), tree))
        bad = ("B", (("A", ("a",)), bad))
    d.validate_tree(g, ("S", (("A", ("a",)), tree)))
    assert d.tree_yield(tree) == "a" * 1500 + "b"
    with pytest.raises(d.GrammarError, match="B -> c"):
        d.validate_tree(g, ("S", (("A", ("a",)), bad)))


# trees that break the (label, children) shape somewhere
MALFORMED_TREES = {
    "int leaf": ("S", (5,)),
    "no children": ("S",),
    "list leaf": ("S", (["a"],)),
    "none": None,
    "int root": 5,
    "three fields": ("S", ("a",), "extra"),
    "one-field child": ("S", (("A",), ("A", ("a",)))),
    "empty child": ("S", ((), ("A", ("a",)))),
    "int children": ("S", 5),
    "list node": ["S", ("a",)],
    "list children": ("S", ["a"]),
    "list child": ("S", (["A", ("a",)], ("A", ("a",)))),
}


def test_malformed_trees_get_a_named_refusal():
    g = d.parse_grammar("start: S\nS -> A A | 'a'\nA -> 'a'")
    hd = d.build_hd(g, ())
    calls = {
        "validate_tree": lambda t: d.validate_tree(g, t),
        "trace_word": lambda t: d.trace_word(g, t),
        "leftmost_derivation": lambda t: d.leftmost_derivation(g, t),
        "trace_from_rewriting": lambda t: d.trace_from_rewriting(g, t),
        "map_tree": lambda t: d.map_tree(t, hd, g),
    }
    wrong = []
    for kind, tree in MALFORMED_TREES.items():
        for name, call in calls.items():
            try:
                call(tree)
            except d.GrammarError as e:
                if "malformed parse tree node" not in str(e):
                    wrong.append((kind, name, str(e)))
            except Exception as e:
                wrong.append((kind, name, repr(e)))
            else:
                wrong.append((kind, name, "accepted"))
    assert wrong == []
    with pytest.raises(d.GrammarError, match=r"node \('S', \(5,\)\)"):
        d.validate_tree(g, MALFORMED_TREES["int leaf"])


def test_leftmost_derivation_replays(expr_cnf):
    tree = d.extract_tree(expr_cnf, "a*a+a")
    steps = d.leftmost_derivation(expr_cnf, tree)
    form = (expr_cnf.start,)
    # each step rewrites the leftmost nonterminal of the previous form
    for rule in steps:
        at = next(i for i, s in enumerate(form)
                  if expr_cnf.is_nonterminal(s))
        assert form[at] == rule.lhs
        form = form[:at] + rule.rhs + form[at + 1:]
    assert form == tuple("a*a+a")


def test_fresh_name():
    used = {"A", "A_2"}
    assert d.fresh_name("B", used) == "B"
    assert d.fresh_name("A", used) == "A_3"
    # each name returned is recorded, so repeated calls never collide
    assert used == {"A", "A_2", "A_3", "B"}
    assert d.fresh_name("A", used) == "A_4"
    assert d.fresh_name("B", used) == "B_2"
    assert used == {"A", "A_2", "A_3", "A_4", "B", "B_2"}


# ---- isomorphism checker ----

def test_isomorphism_finds_renaming(expr_dyck_expected):
    text = d.serialize(expr_dyck_expected)
    renamed = d.parse_grammar(
        text.replace("E5", "X9").replace("T5", "Y9").replace("Tp", "Z9"))
    iso = d.find_isomorphism(expr_dyck_expected, renamed)
    assert iso is not None
    assert iso["E5"] == "X9" and iso["T5"] == "Y9" and iso["Tp"] == "Z9"


def test_isomorphism_rejects_different_language(expr_cnf, expr_dyck_expected):
    assert d.find_isomorphism(expr_cnf, expr_dyck_expected) is None
    g1 = d.parse_grammar("start: S\nS -> 'a'")
    g2 = d.parse_grammar("start: S\nS -> 'b'")
    assert d.find_isomorphism(g1, g2) is None
    # same sizes, but one start body repeats a symbol and the other does not
    g1 = d.parse_grammar("start: S\nS -> A B\nA -> 'a'\nB -> 'a'")
    g2 = d.Grammar(["S", "A", "B"], ["a"], "S",
                   [d.Rule("S", ("A", "A")), d.Rule("A", ("a",)),
                    d.Rule("B", ("a",))])
    assert d.find_isomorphism(g1, g2) is None


def _chain(k, name):
    """name0 -> T name1 | 'a', ..., one nonterminal per link."""
    lines = [f"start: {name}0", "T -> 'b'", f"{name}{k - 1} -> 'a'"]
    lines += [f"{name}{i} -> T {name}{i + 1} | 'a'" for i in range(k - 1)]
    return d.parse_grammar("\n".join(lines))


def test_isomorphism_on_long_chain_needs_no_recursion():
    g1, g2 = _chain(400, "N"), _chain(400, "M")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        iso = d.find_isomorphism(g1, g2)
    finally:
        sys.setrecursionlimit(limit)
    assert iso == {f"N{i}": f"M{i}" for i in range(400)} | {"T": "T"}


def _rename(rules, mapping):
    return [d.Rule(mapping[r.lhs], tuple(mapping.get(s, s) for s in r.rhs))
            for r in rules]


def test_isomorphism_drops_partial_renamings_early():
    # colour refinement cannot tell the A's (or the B's) apart, and only
    # the renaming that keeps each A with its own B works
    m = 30
    lines = ["start: S"] + [f"S -> A{i} A{i}" for i in range(m)]
    lines += [f"A{i} -> B{i} B{i}" for i in range(m)]
    lines += [f"B{i} -> 'b'" for i in range(m)]
    g1 = d.parse_grammar("\n".join(lines))
    names = {"S": "S"}
    for i in range(m):
        names[f"A{i}"] = f"X{(7 * i) % m}"
        names[f"B{i}"] = f"Y{(11 * i) % m}"
    g2 = d.Grammar(sorted(names.values()), ["b"], "S",
                   _rename(g1.rules, names))
    iso = d.find_isomorphism(g1, g2)
    assert iso is not None and set(_rename(g1.rules, iso)) == set(g2.rules)


def _cycles(*lengths):
    """Ni -> Nj Nj | 'a' along cycles of the given lengths, numbered on
    from 0, under a start with S -> Ni Ni for every i."""
    lines, at = ["start: S"], 0
    for k in lengths:
        for i in range(k):
            nxt = at + (i + 1) % k
            lines.append(f"N{at + i} -> N{nxt} N{nxt} | 'a'")
        at += k
    lines += [f"S -> N{i} N{i}" for i in range(at)]
    return d.parse_grammar("\n".join(lines))


def test_isomorphism_backtracks_where_colours_cannot_tell():
    # every N has the same colour in a 6-cycle, in two 3-cycles and in a
    # 5-cycle next to a loop, so only the search can tell them apart: it
    # backtracks and runs out.  Against the loop, the rules of N0 .. N4
    # all land and only the last step, N5's, can refuse.
    six, threes = _cycles(6), _cycles(3, 3)
    assert d.find_isomorphism(six, threes) is None
    assert d.find_isomorphism(six, _cycles(5, 1)) is None
    names = {"S": "S"} | {f"N{i}": f"M{(5 * i + 2) % 6}" for i in range(6)}

    renamed = d.Grammar(sorted(names.values()), ["a"], "S",
                        _rename(reversed(six.rules), names))
    iso = d.find_isomorphism(six, renamed)
    assert iso is not None
    assert set(_rename(six.rules, iso)) == set(renamed.rules)


def _shuffled_copy(g, seed):
    """g under fresh names, with its rules and declarations shuffled."""
    rng = random.Random(seed)
    names = {nt: f"Q{k}" for k, nt in enumerate(g.nonterminals)}
    rules = _rename(g.rules, names)
    declared = list(names.values())
    rng.shuffle(rules)
    rng.shuffle(declared)
    return d.Grammar(declared, g.terminals, names[g.start], rules)


def _redirected(g):
    """g with the right child of its first binary rule redirected to the
    first nonterminal that keeps the rules distinct."""
    i, r = next((i, r) for i, r in enumerate(g.rules) if len(r.rhs) == 2)
    new = next(rule for rule in (d.Rule(r.lhs, (r.rhs[0], x))
                                 for x in g.nonterminals)
               if rule not in g.rules)
    return d.Grammar(g.nonterminals, g.terminals, g.start,
                     g.rules[:i] + [new] + g.rules[i + 1:])


def test_isomorphism_maps_corpus_copies_onto_their_rules(dyck_corpus):
    for k, (g_cnf, gd, _) in enumerate(dyck_corpus):
        for g in (g_cnf, gd):
            copy = _shuffled_copy(g, k)
            iso = d.find_isomorphism(g, copy)
            assert iso is not None, k
            assert set(_rename(g.rules, iso)) == set(copy.rules), k
            assert d.find_isomorphism(g, _redirected(copy)) is None, k


def test_isomorphism_leaves_no_reference_cycles(expr_dyck_expected):
    gc.collect()
    gc.disable()
    try:
        assert d.find_isomorphism(expr_dyck_expected, expr_dyck_expected)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- cached indexes ----

def _scan_pairing(g):
    pairs = []
    for r in g.rules:
        if len(r.rhs) == 2 and r.rhs not in pairs:
            pairs.append(r.rhs)
    return pairs


def _wide_cnf(m=80):
    """A clean CNF grammar of m nonterminals: the CYK masks pass 64 bits."""
    lines = ["start: N0"]
    for k in range(m):
        lines.append(f"N{k} -> N{(k + 1) % m} N{(7 * k + 3) % m} | "
                     f"{'ab'[k % 2]!r}")
    return d.parse_grammar("\n".join(lines))


# CNF but not Dyck normal form: A has the right partners B and C, and the
# body A B has the heads S, A and C
SHARED_BODIES = """
start: S
S -> A B | A C | B A
A -> A B | 'a'
B -> A C | B A | 'b'
C -> A B | 'c'
"""


def test_indexes_match_list_scans(dyck_corpus, scan_table):
    wide, shared = _wide_cnf(), d.parse_grammar(SHARED_BODIES)
    assert d.cleanup(wide) == wide and len(wide.nonterminals) > 64
    assert d.is_cnf(shared) and not d.is_dyck_nf(shared)
    for k, g in enumerate((wide, shared)):
        for w in random_words(g.terminals, 12, 30, seed=k):
            assert d.build_table(g, w) == scan_table(g, w)
    for k, (g_cnf, gd, _) in enumerate(dyck_corpus):
        for g in (g_cnf, gd):
            for nt in g.nonterminals + ["Nowhere"]:
                assert g.rules_for(nt) == [r for r in g.rules if r.lhs == nt]
            for r in g.rules:
                assert r in g.rules_for(r.lhs)
                for other in (d.Rule(r.lhs, r.rhs[::-1]),
                              d.Rule(g.start, r.rhs)):
                    assert ((other in g.rules_for(other.lhs))
                            == (other in g.rules))
            for w in random_words(g.terminals, 6, 12, seed=k):
                assert d.build_table(g, w) == scan_table(g, w)
        assert d.pairing_of(gd) == _scan_pairing(gd)


def _violations_rule_by_rule(g):
    """dyck_nf_violations of a CNF grammar, one rule at a time: the
    reference for the check that works once per distinct body."""
    violations, lefts, rights, size, lettered = [], {}, {}, {}, set()
    for r in g.rules:
        size[r.lhs] = size.get(r.lhs, 0) + 1
        if len(r.rhs) == 1:
            lettered.add(r.lhs)
            continue
        b, c = r.rhs
        if g.start in r.rhs:
            violations.append(("start-on-rhs", str(r)))
        if b in lefts and lefts[b] != c:
            violations.append(("left-conflict", b, lefts[b], c))
        if c in rights and rights[c] != b:
            violations.append(("right-conflict", c, rights[c], b))
        lefts.setdefault(b, c)
        rights.setdefault(c, b)
    violations.extend(("both-sides", nt) for nt in lefts if nt in rights)
    violations.extend(("mixed-terminal", nt) for nt in g.nonterminals
                      if nt != g.start and nt in lettered and size[nt] > 1)
    return violations


def _cnf_index_rule_by_rule(g):
    """The CYK index without its pair table, one rule at a time, with each
    dict as its list of items so that the order is compared too: the role
    masks are the bits of the left and of the right children of the rules."""
    names = tuple(g.nonterminals)
    bit = {a: 1 << k for k, a in enumerate(names)}
    by_terminal, by_body, by_left = {}, {}, {}
    lefts = rights = 0
    for lhs, rhs in g.rules:
        if len(rhs) == 1:
            by_terminal[rhs[0]] = by_terminal.get(rhs[0], 0) | bit[lhs]
        else:
            by_body[rhs] = by_body.get(rhs, 0) | bit[lhs]
            lefts |= bit[rhs[0]]
            rights |= bit[rhs[1]]
    for (b, c), heads in by_body.items():
        by_left.setdefault(bit[b], []).append((bit[c], heads))
    return (names, list(bit.items()), list(by_terminal.items()),
            [(b, tuple(p)) for b, p in by_left.items()], lefts, rights)


# CNF, with the conflicting body A C under three heads, and B S under two
REPEATED_VIOLATIONS = """
start: S
S -> A B | A C | 'a'
A -> A B | 'a'
B -> A C | B S | 'b'
C -> A C | 'c'
D -> B S | S B | 'd'
"""


def test_violations_keep_their_order_and_repeats(cnf_corpus, dyck_corpus):
    g = d.parse_grammar(REPEATED_VIOLATIONS)
    assert d.dyck_nf_violations(g) == [
        ("left-conflict", "A", "B", "C"),
        ("left-conflict", "A", "B", "C"),
        ("start-on-rhs", "B -> B S"),
        ("left-conflict", "A", "B", "C"),
        ("start-on-rhs", "D -> B S"),
        ("start-on-rhs", "D -> S B"),
        ("right-conflict", "B", "A", "S"),
        ("both-sides", "B"),
        ("both-sides", "S"),
        ("mixed-terminal", "A"),
        ("mixed-terminal", "B"),
        ("mixed-terminal", "C"),
        ("mixed-terminal", "D")]
    shared = d.parse_grammar(SHARED_BODIES)
    for g in [g, shared, _wide_cnf(), *cnf_corpus,
              *(gd for _, gd, _ in dyck_corpus)]:
        assert d.dyck_nf_violations(g) == _violations_rule_by_rule(g)
        index = g._cnf_index
        assert (index[0], *(list(x.items()) for x in index[1:4]),
                *index[4:6]) == _cnf_index_rule_by_rule(g)
    for _, gd, _ in dyck_corpus:
        assert d.pairing_of(gd) == _scan_pairing(gd)


def test_grammar_ignores_later_changes_to_its_inputs():
    nts, ts = ["S", "A", "B"], ["a", "b"]
    rules = [d.Rule("S", ("A", "B")), d.Rule("A", ("a",)),
             d.Rule("B", ("b",))]
    copy = d.Grammar(list(nts), list(ts), "S", list(rules))
    lazy = d.Grammar(nts, ts, "S", rules)
    warm = d.Grammar(nts, ts, "S", rules)
    assert warm.rules_for("A") == [d.Rule("A", ("a",))]
    assert d.member(warm, "ab") and d.pairing_of(warm) == [("A", "B")]

    nts.append("C")
    ts.append("c")
    rules[1] = d.Rule("A", ("c",))
    rules.append(d.Rule("S", ("B", "A")))
    for g in (lazy, warm):
        assert g == copy
        assert g.rules_for("A") == [d.Rule("A", ("a",))]
        assert d.Rule("A", ("c",)) not in g.rules_for("A")
        assert d.member(g, "ab") and not d.member(g, "cb")
        assert d.dyck_nf_violations(g) == []
        pairs = d.pairing_of(g)
        assert pairs == [("A", "B")]
        pairs.append(("B", "A"))
        assert d.pairing_of(g) == [("A", "B")]
