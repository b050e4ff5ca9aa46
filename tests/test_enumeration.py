"""The word enumerator, checked on its own terms.

Everything else in the package is held against enumerate_words, so here the
enumerator is held against golden word lists, against its cap, and against a
plain fixpoint that runs every rule until nothing changes.
"""

from __future__ import annotations

import ast
import inspect
import random

import pytest

import dycknf as d
from dycknf import enumeration
from dycknf.enumeration import derivable_words

# name -> (grammar text, max_len, stored words at max_len, the words)
GOLDEN = {
    "lambda": (
        "start: S\nS -> 'a' S 'b' S | eps", 6, 9,
        ["ab", "aabb", "abab", "aaabbb", "aababb", "aabbab", "abaabb",
         "ababab"]),
    "unit cycle": (
        "start: S\nS -> A | 'c'\nA -> B | 'a' A\nB -> S | 'b'", 4, 24,
        ["b", "c", "ab", "ac", "aab", "aac", "aaab", "aaac"]),
    # N is nullable and comes first in both bodies that hold it, and S and A
    # feed each other at the same length through it; N learns it is
    # nullable from M, whose rule comes after N's
    "nullable first": (
        "start: S\nS -> N A | 'x'\nA -> N S N | 'b'\nN -> 'c' | M\n"
        "M -> eps", 4, 43,
        ["b", "x", "bc", "cb", "cx", "xc", "bcc", "cbc", "ccb", "ccx", "cxc",
         "xcc", "bccc", "cbcc", "ccbc", "cccb", "cccx", "ccxc", "cxcc",
         "xccc"]),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_words(name):
    text, max_len, _, words = GOLDEN[name]
    assert d.enumerate_words(d.parse_grammar(text), max_len) == words


@pytest.mark.parametrize("name", GOLDEN)
def test_cap_trips_one_below_the_stored_words(name):
    text, max_len, stored, words = GOLDEN[name]
    g = d.parse_grammar(text)
    assert d.enumerate_words(g, max_len, cap=stored) == words
    with pytest.raises(d.ResourceLimitError,
                       match=f"enumeration exceeded {stored - 1} stored "
                             f"words .* max_len {max_len}"):
        d.enumerate_words(g, max_len, cap=stored - 1)


def plain_fixpoint(g, max_len):
    """Nonterminal -> its words up to max_len: every rule, every length,
    again and again until a whole pass adds nothing."""
    words = {nt: set() for nt in g.nonterminals}
    grew = True
    while grew:
        grew = False
        for lhs, rhs in g.rules:
            made = {""}
            for s in rhs:
                pieces = {s} if g.is_terminal(s) else words[s]
                made = {a + b for a in made for b in pieces
                        if len(a) + len(b) <= max_len}
            if not made <= words[lhs]:
                words[lhs] |= made
                grew = True
    return words


def random_grammar(seed):
    """Up to four nonterminals over 'ab', with lambda rules, unit rules and
    bodies of up to three symbols."""
    rng = random.Random(f"enumeration:{seed}")
    nts = ["S", "A", "B", "C"][:rng.randint(1, 4)]
    symbols = nts + ["a", "b"]
    rules = []
    for _ in range(rng.randint(1, 8)):
        size = rng.choice((0, 1, 1, 2, 2, 3))
        rule = d.Rule(rng.choice(nts),
                      tuple(rng.choice(symbols) for _ in range(size)))
        if rule not in rules:
            rules.append(rule)
    return d.Grammar(nts, ["a", "b"], "S", rules), rng.randint(0, 5)


def shared_body_grammar(seed):
    """A handful of bodies, each carried by one to four of four heads: a
    unit body always, a lambda body in most draws (so that bodies of
    nonterminals are nullable), and up to three bodies of up to three
    symbols."""
    rng = random.Random(f"enumeration-shared:{seed}")
    nts = ["S", "A", "B", "C"]
    symbols = nts + ["a", "b"]
    bodies = [(rng.choice(nts),)] + [()] * (rng.random() < 0.7)
    bodies += [tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
               for _ in range(rng.randint(1, 3))]
    rules = []
    for body in bodies:
        for head in rng.sample(nts, rng.randint(1, 4)):
            if d.Rule(head, body) not in rules:
                rules.append(d.Rule(head, body))
    return d.Grammar(nts, ["a", "b"], "S", rules), rng.randint(0, 5)


def test_agrees_with_a_plain_fixpoint_on_random_grammars(dyck_corpus):
    shared = [shared_body_grammar(seed) for seed in range(200)]
    # Dyck normal form shares each binary body among its stand-ins
    shared += [(gd, 5) for _, gd, _ in dyck_corpus[:5]]
    assert sum(len({r.rhs for r in g.rules}) < len(g.rules)
               for g, _ in shared) == 202  # all but three repeat a body
    # the Dyck normal form cases store words, so they run the cap checks
    for case, (g, max_len) in enumerate(
            [random_grammar(seed) for seed in range(300)] + shared):
        want = plain_fixpoint(g, max_len)
        table = derivable_words(g, max_len)
        for nt in g.nonterminals:
            assert table[nt] == [{w for w in want[nt] if len(w) == n}
                                 for n in range(max_len + 1)], (case, nt)
        words = d.enumerate_words(g, max_len)
        assert words == sorted((w for w in want[g.start] if w),
                               key=lambda w: (len(w), w)), case
        stored = sum(len(ws) for ws in want.values())
        if stored:
            with pytest.raises(d.ResourceLimitError):
                d.enumerate_words(g, max_len, cap=stored - 1)
            assert d.enumerate_words(g, max_len, cap=stored) == words


def test_imports_nothing_but_the_grammar_module():
    # the oracle must not share code with the parse table it checks
    tree = ast.parse(inspect.getsource(enumeration))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    assert imported == {"__future__", "grammar"}


def test_length_zero_map_only_for_a_grammar_that_needs_it(monkeypatch,
                                                           expr_cnf):
    built = []
    reach = enumeration._reach
    monkeypatch.setattr(enumeration, "_reach",
                        lambda g, bodies, nullable: built.append(nullable)
                        or reach(g, bodies, nullable))
    derivable_words(expr_cnf, 5)
    assert built == [set()]  # only the map for lengths 1 and up
    built.clear()
    text, max_len, _, words = GOLDEN["nullable first"]
    assert d.enumerate_words(d.parse_grammar(text), max_len) == words
    # every nonterminal counts as nullable at length 0, then only N and M
    assert built == [{"S", "A", "N", "M"}, {"N", "M"}]


def test_composes_each_body_once_per_length(monkeypatch, expr_converted):
    # expr_cnf in Dyck normal form has 26 rules over 10 bodies and no unit
    # rule, so each of the lengths 0..5 takes one sweep over the 10 bodies
    gd, _ = expr_converted
    assert (len(gd.rules), len({r.rhs for r in gd.rules})) == (26, 10)
    calls = []
    compose = enumeration._compose
    monkeypatch.setattr(enumeration, "_compose",
                        lambda *args: calls.append(args) or compose(*args))
    derivable_words(gd, 5)
    assert len(calls) == 60
