"""Parse table membership, tree extraction and the word enumerator.

The enumerator and the parse table are independent routes to the same
language, so they get held against each other here.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import itertools
import pickle
import random
import sys
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import dycknf as d
from dycknf.corpus import (corpus_grammars, random_cnf_grammar,
                           random_elin_members)


def test_member_basics(expr_cnf):
    assert d.member(expr_cnf, "a")
    assert d.member(expr_cnf, "a*a+a")
    assert not d.member(expr_cnf, "")
    assert not d.member(expr_cnf, "aa")
    assert not d.member(expr_cnf, "a$")  # outside the alphabet


def test_member_needs_cnf(expr):
    # refused whatever the word: empty, outside the alphabet, or a member
    for parse in (d.member, d.extract_tree, d.all_trees, d.count_trees,
                  d.build_table):
        for w in ("", "x", "a"):
            with pytest.raises(d.GrammarError, match="Chomsky normal form"):
                parse(expr, w)


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


# sha256 of the walkers' answers on every word of length <= 5 over the
# corpus below; any change to a tree, an order, a count, a refusal or the
# table dump changes it
WALKER_DIGEST = ("daaef631215d7a9aa7add700297a0a07"
                 "12282178fcf8a9630d690a7ba5e8777b")


def _table_dump(g, w):
    """The table row-major, one line per cell, each cell's names in
    declaration order."""
    lines = []
    for (i, j), cell in d.build_table(g, w).items():
        names = [a for a in g.nonterminals if a in cell]
        lines.append(f"{i},{j}: {{{', '.join(names)}}}")
    return "\n".join(lines) + "\n"


def _walker_record(g, w):
    try:
        tree = d.extract_tree(g, w)
    except d.NotAMemberError as e:
        tree = str(e)
    try:
        trees = d.all_trees(g, w, cap=200)
    except d.ResourceLimitError as e:
        trees = (type(e).__name__, str(e))
    table = _table_dump(g, w) if len(w) < 4 else None
    return tree, trees, d.count_trees(g, w), d.member(g, w), table


def test_walker_output_is_pinned(expr_cnf):
    grammars = [expr_cnf]
    for g in corpus_grammars(20):
        g_cnf = d.to_cnf(g)
        grammars += [g_cnf, d.to_dyck_nf(g_cnf)[0]]
    digest = hashlib.sha256()
    words = 0
    for g in grammars:
        for n in range(1, 6):
            for letters in itertools.product(g.terminals, repeat=n):
                w = "".join(letters)
                digest.update(pickle.dumps(_walker_record(g, w), protocol=4))
                words += 1
    assert words == 2501
    assert digest.hexdigest() == WALKER_DIGEST


def test_dense_tables_match_the_scan(expr_converted, elin_converted,
                                     scan_table):
    """Long members, where many cells are full and mask pairs recur, with
    the grammars interleaved so that state leaking from one grammar's calls
    into another's would show."""
    rng = random.Random("dense-tables")
    expression = [(expr_converted[0],
                   "a" + "".join(rng.choice("*+") + "a" for _ in range(n)))
                  for n in (16, 32, 16, 32)]
    elin = []
    for k, (g, gd, _) in enumerate(elin_converted):
        w = random_elin_members(g, 200, 33, seed=k)[-1]  # the longest
        assert len(w) > 20 and d.member(gd, w)
        elin.append((gd, w))
    full = d.parse_grammar("start: S\nS -> S_ S_\nS_ -> S_ S_ | 'a'")
    # the same symbols, so the same masks, but other products of them
    twin = d.parse_grammar("start: S\nS -> S_ S_\nS_ -> S S_ | 'a'")
    small = [(full, "a" * 24), (twin, "a" * 24)]
    for case in itertools.zip_longest(expression, elin, small):
        for g, w in filter(None, case):
            table = d.build_table(g, w)
            assert table == scan_table(g, w)
            if g is full:
                assert all(table.values())  # no cell is empty
            assert d.member(g, w)


def test_table_view_contract(expr_cnf, scan_table):
    for w in ("a+a*a", "a$a", "a", ""):
        table = d.build_table(expr_cnf, w)
        n = len(w)
        assert isinstance(table, Mapping)
        assert table == scan_table(expr_cnf, w) == table
        assert len(table) == n * (n + 1) // 2
        assert list(table) == [(i, j) for i in range(1, n + 1)
                               for j in range(i, n + 1)]
        for key in ((0, 1), (1, 0), (1, n + 1), (2, 1), (n + 1, n + 1),
                    (1,), (1, 1, 1), 1, "1,1", None):
            assert key not in table
            with pytest.raises(KeyError):
                table[key]
    table = d.build_table(expr_cnf, "a+a")
    top = table[(1, 3)]
    kept = set(top)
    top.clear()
    assert table[(1, 3)] == kept and kept
    with pytest.raises(TypeError):
        table[(1, 1)] = set()


def test_pair_table_stays_with_its_grammar(scan_table):
    """Two grammars over the same nonterminals in the same order give the
    same bits, but their binary rules make other products of the same mask
    pairs; run on the same words in turn, each must keep its own answers."""
    nts, ts = ["S", "A", "B", "C"], ["a", "b"]
    letters = [d.Rule("A", ("a",)), d.Rule("B", ("b",)),
               d.Rule("C", ("a",))]
    one = d.Grammar(nts, ts, "S", letters + [
        d.Rule("S", ("A", "B")), d.Rule("S", ("C", "C")),
        d.Rule("A", ("A", "B")), d.Rule("C", ("B", "A"))])
    other = d.Grammar(nts, ts, "S", letters + [
        d.Rule("S", ("B", "A")), d.Rule("S", ("A", "C")),
        d.Rule("A", ("B", "A")), d.Rule("C", ("A", "B"))])
    words = ["".join(p) for n in range(1, 7)
             for p in itertools.product(ts, repeat=n)]
    languages = {g: set(d.enumerate_words(g, 6)) for g in (one, other)}
    assert languages[one] != languages[other]
    for w in words:
        for g in (one, other):
            assert d.build_table(g, w) == scan_table(g, w), (g.rules, w)
            assert d.member(g, w) == (w in languages[g])


def test_warmed_grammar_gives_a_fresh_copys_tables(expr_converted):
    gd, _ = expr_converted
    words = ["".join(p) for n in range(1, 6)
             for p in itertools.product(gd.terminals, repeat=n)]
    assert len(words) >= 200
    for w in words:  # warm every table cache of gd
        d.build_table(gd, w)
    for w in words:
        fresh = d.Grammar(gd.nonterminals, gd.terminals, gd.start, gd.rules)
        assert _table_dump(gd, w) == _table_dump(fresh, w), w


def test_alternatives_follow_split_then_declaration_order():
    # S's binary rules stand on both sides of its terminal rule; over aab
    # the split after the first letter has two bodies, declared after the
    # terminal rule, and the split after the second has the first body
    g = d.parse_grammar("start: S\n"
                        "S -> P Q | 'c' | A R | A Q\n"
                        "A -> 'a'\nB -> 'b'\n"
                        "P -> A A\nQ -> 'b' | A B\nR -> A B | 'b'\n")
    a, b = ("A", ("a",)), ("B", ("b",))
    trees = [("S", (a, ("R", (a, b)))),
             ("S", (a, ("Q", (a, b)))),
             ("S", (("P", (a, a)), ("Q", ("b",))))]
    assert d.extract_tree(g, "aab") == trees[0]
    assert d.all_trees(g, "aab") == trees
    assert d.count_trees(g, "aab") == 3


def test_empty_language_cleanup_raises():
    g = d.parse_grammar("start: S\nS -> A S\nA -> 'a'")
    with pytest.raises(d.GrammarError):
        d.cleanup(g)
