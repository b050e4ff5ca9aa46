"""Parse table membership, tree extraction and the word enumerator.

The enumerator and the parse table are independent routes to the same
language, so they get held against each other here.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dycknf as d
from dycknf.corpus import random_cnf_grammar


def test_member_basics(expr_cnf):
    assert d.member(expr_cnf, "a")
    assert d.member(expr_cnf, "a*a+a")
    assert not d.member(expr_cnf, "")
    assert not d.member(expr_cnf, "aa")
    assert not d.member(expr_cnf, "a$")  # outside the alphabet


def test_member_needs_cnf(expr):
    with pytest.raises(d.GrammarError):
        d.member(expr, "a")


def test_member_agrees_with_enumeration(expr_cnf):
    words = set(d.enumerate_words(expr_cnf, 5))
    for n in range(1, 6):
        for letters in itertools.product(expr_cnf.terminals, repeat=n):
            w = "".join(letters)
            assert d.member(expr_cnf, w) == (w in words), w


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_member_agrees_with_enumeration_random(seed):
    g = random_cnf_grammar(seed)
    words = set(d.enumerate_words(g, 5))
    for n in range(1, 6):
        for letters in itertools.product(g.terminals, repeat=n):
            w = "".join(letters)
            assert d.member(g, w) == (w in words), w


def test_extract_tree_is_canonical_and_valid(expr_cnf):
    for w in d.enumerate_words(expr_cnf, 6):
        tree = d.extract_tree(expr_cnf, w)
        d.validate_tree(expr_cnf, tree)
        assert d.tree_yield(tree) == w
    with pytest.raises(d.NotAMemberError):
        d.extract_tree(expr_cnf, "aa")


def test_all_trees_match_count(expr_cnf, cnf_corpus, dyck_corpus):
    # every word of expr_cnf has one tree; the corpora hold ambiguous words
    cases = ([(expr_cnf, 7)] + [(g, 6) for g in cnf_corpus[1:]]
             + [(gd, 6) for _, gd, _ in dyck_corpus])
    for g, max_len in cases:
        for w in d.enumerate_words(g, max_len):
            trees = d.all_trees(g, w)
            assert len(trees) == d.count_trees(g, w)
            assert len(set(trees)) == len(trees)
            for t in trees:
                d.validate_tree(g, t)
                assert d.tree_yield(t) == w
            assert trees[0] == d.extract_tree(g, w)


def test_walkers_leave_no_reference_cycles(expr_converted):
    gd, _ = expr_converted
    w = "a" + "+a" * 16
    for walk in (d.extract_tree, d.all_trees, d.count_trees):
        gc.collect()
        gc.disable()
        try:
            walk(gd, w)
            assert gc.collect() == 0, walk.__name__
        finally:
            gc.enable()


def test_deep_trees_and_long_words_need_no_recursion():
    g = d.parse_grammar("start: S\nS -> A B\nB -> A B | 'b'\nA -> 'a'")
    # the same grammar under other names, collapsed back by hd
    g2 = d.parse_grammar("start: S\nS -> X Y\nY -> X Y | 'b'\nX -> 'a'")
    hd = {"S": "S", "X": "A", "Y": "B"}
    tree = ("Y", ("b",))
    for _ in range(1499):
        tree = ("Y", (("X", ("a",)), tree))
    tree = ("S", (("X", ("a",)), tree))
    w = "a" * 200 + "b"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert d.trace_word(g2, tree) == ("X", "Y") * 1500
        mapped = d.map_tree(tree, hd, g)
        assert d.trace_word(g, mapped) == ("A", "B") * 1500
        assert d.tree_yield(mapped) == "a" * 1500 + "b"
        assert d.tree_yield(d.extract_tree(g, w)) == w
        assert len(d.all_trees(g, w)) == 1 == d.count_trees(g, w)
    finally:
        sys.setrecursionlimit(limit)


def test_ambiguous_grammar_counts_every_tree():
    # two bracketings of aaa: (aa)a and a(aa)
    g = d.parse_grammar("start: S\nS -> S_ S_\nS_ -> S_ S_ | 'a'")
    assert d.count_trees(g, "aaa") == 2
    assert d.count_trees(g, "aaaa") == 5  # Catalan growth


def test_tree_cap_is_enforced():
    g = d.parse_grammar("start: S\nS -> S_ S_\nS_ -> S_ S_ | 'a'")
    with pytest.raises(d.ResourceLimitError):
        d.all_trees(g, "a" * 18, cap=100)


def test_word_cap_is_enforced():
    g = d.parse_grammar("start: S\nS -> S_ S_\nS_ -> S_ S_ | 'a' | 'b'")
    with pytest.raises(d.ResourceLimitError):
        d.enumerate_words(g, 24, cap=1000)


def test_format_table(expr_cnf):
    text = d.format_table(expr_cnf, "a+a")
    assert "1,1:" in text and "1,3:" in text
    assert "E0" in text.splitlines()[-1]  # full span derives the start


def test_empty_language_cleanup_raises():
    g = d.parse_grammar("start: S\nS -> A S\nA -> 'a'")
    with pytest.raises(d.GrammarError):
        d.cleanup(g)
