"""Bracket words: the two independent membership routes, the stretch
predicates, and trace words read off parse trees two different ways."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import dycknf as d
import dycknf.cyk
from dycknf.cli import main
from dycknf.corpus import random_bracket_words
from dycknf.dyck import _traces_of


def brackets(s):
    return d.parse_dyck_text(s)


# ---- text form ----

def test_parse_and_render():
    w = brackets("[1 ]1 [2 ]2")
    assert w == (1, -1, 2, -2)
    assert d.render_dyck_word(w) == "[1 ]1 [2 ]2"
    assert brackets("") == ()
    for bad in ["[0", "1", "[x", "[1]", "(1"]:
        with pytest.raises(ValueError):
            brackets(bad)
    # rendering refuses what the parser would, and writes letters as ints
    for bad in [(0,), (1.5,), ("a",), (1, None)]:
        with pytest.raises(ValueError, match="nonzero ints"):
            d.render_dyck_word(bad)
    assert d.render_dyck_word((True, -1)) == "[1 ]1"
    assert brackets(d.render_dyck_word((True, -1))) == (True, -1)


@given(st.lists(st.integers(1, 9).flatmap(
    lambda k: st.sampled_from([k, -k])), max_size=30))
def test_render_round_trips(letters):
    w = tuple(letters)
    assert brackets(d.render_dyck_word(w)) == w


# ---- membership, both routes ----

def test_membership_examples():
    yes = ["[1 ]1", "[1 ]1 [2 ]2", "[1 [2 ]2 ]1", "[1 [2 ]2 [3 ]3 ]1"]
    no = ["", "[1", "]1", "]1 [1", "[1 ]2", "[1 [2 ]1 ]2", "[1 ]1 [2"]
    for s in yes:
        assert d.in_dk_stack(brackets(s)), s
        assert d.in_dk_lemma(brackets(s)), s
    for s in no:
        assert not d.in_dk_stack(brackets(s)), s
        assert not d.in_dk_lemma(brackets(s)), s


def test_routes_agree_exhaustively_small():
    # every word over two pairs up to length 6
    for n in range(1, 7):
        for w in itertools.product((1, -1, 2, -2), repeat=n):
            assert d.in_dk_stack(w) == d.in_dk_lemma(w), w
            assert d.in_dk_stack(w, k=1) == d.in_dk_lemma(w, k=1), w


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_routes_agree_on_samples(seed):
    for w in random_bracket_words(4, 24, 40, seed):
        assert d.in_dk_stack(w) == d.in_dk_lemma(w), w


def test_k_bound_handling():
    w = brackets("[3 ]3")
    assert d.in_dk_stack(w, k=3)
    assert not d.in_dk_stack(w, k=2)
    assert not d.in_dk_lemma(w, k=2)
    with pytest.raises(ValueError):
        d.in_dk_stack((0, 1))


def test_counting_route_is_sized_by_the_word(capsys):
    # pair numbers far beyond the word's length cost the counting route
    # nothing: it tracks only the pairs the word names
    for word, k in (((10**6, -10**6, 1, -1), None), ((1, -1), 10**6)):
        tracemalloc.start()
        try:
            assert d.in_dk_lemma(word, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (word, k, peak)
    assert main(["check-dyck", "[1000000000 ]1000000000", "--machine"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_balance_and_projections():
    w = brackets("[1 [2 ]1 ]2")
    assert d.is_balanced(w)
    assert d.is_balanced(())
    assert not d.in_dk_stack(w)


# ---- matched / nested / reducible ----

def test_stretch_predicates():
    w = brackets("[1 ]1 [2 [3 ]3 ]2")
    assert d.matched(w, 1, 2) and d.matched(w, 1, 6) and d.matched(w, 3, 6)
    assert not d.matched(w, 2, 3) and not d.matched(w, 1, 3)
    assert not d.matched(w, 0, 2) and not d.matched(w, 2, 2)
    assert d.nested(w, 3, 6) and d.nested(w, 1, 2)
    assert not d.nested(w, 1, 6)
    assert d.reducible(w, 1, 6)
    assert not d.reducible(w, 3, 6)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_nested_is_never_reducible(seed):
    for w in random_bracket_words(3, 12, 15, seed):
        n = len(w)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if d.nested(w, i, j):
                    assert not d.reducible(w, i, j), (w, i, j)


# ---- traces ----

def test_trace_of_golden_tree(expr_converted):
    gd, _ = expr_converted
    tree = d.extract_tree(gd, "a*a*a+a")
    tr = d.trace_word(gd, tree)
    assert len(tr) == 12  # 2n-2 for n=7
    assert tr == d.trace_from_rewriting(gd, tree)
    word = d.trace_as_brackets(gd, tr)
    assert d.in_dk_stack(word)


def test_trace_undefined_for_short_derivations(expr_converted):
    gd, _ = expr_converted
    tree = d.extract_tree(gd, "a")
    with pytest.raises(d.TraceUndefinedError):
        d.trace_word(gd, tree)
    with pytest.raises(d.TraceUndefinedError):
        d.trace_from_rewriting(gd, tree)


def test_trace_routes_agree_on_corpus(dyck_corpus):
    for _, gd, _ in dyck_corpus:
        for w in d.enumerate_words(gd, 6):
            if len(w) < 2:
                continue
            for tree in d.all_trees(gd, w):
                assert (d.trace_word(gd, tree)
                        == d.trace_from_rewriting(gd, tree))


def test_forest_traces_match_the_tree_walk(dyck_corpus, elin_converted):
    # the trace sets come straight off each word's parse forest; trace_word
    # over every tree all_trees builds is the route they must agree with,
    # for each word alone and for all of them in enumeration order, where
    # the later words reuse the earlier words' subforests
    for _, gd, _ in dyck_corpus + elin_converted:
        words = d.enumerate_words(gd, 6)
        union = set()
        for w in words:
            expected = (set() if len(w) < 2 else
                        {d.trace_word(gd, t) for t in d.all_trees(gd, w)})
            assert _traces_of(gd, [w]) == expected, (gd, w)
            union |= expected
        assert _traces_of(gd, words) == union, gd


def test_trace_sets_reuse_subforests_across_words(expr_dyck_expected,
                                                  monkeypatch):
    # a subforest one word has walked is not expanded again for a later
    # word over the same letters: counted as calls of cyk._alternatives,
    # one per expanded node (68 and 189 when each word walks its own)
    ambiguous, _ = d.to_dyck_nf(d.parse_grammar(
        "start: S0\nS0 -> S S | 'a'\nS -> S S | 'a'"))
    alternatives = dycknf.cyk._alternatives
    calls = []

    def counted(*args):
        calls.append(args)
        return alternatives(*args)

    monkeypatch.setattr(dycknf.cyk, "_alternatives", counted)
    for gd, n, expanded in [(expr_dyck_expected, 7, 31), (ambiguous, 8, 29)]:
        calls.clear()
        d.trace_language(gd, n)
        assert len(calls) == expanded, (gd, n)


def test_trace_language_members_are_dyck(expr_converted):
    gd, _ = expr_converted
    code = {}
    for k, (left, right) in enumerate(d.pairing_of(gd), start=1):
        code[left], code[right] = k, -k
    traces = d.trace_language(gd, 6)
    assert traces
    for tr in traces:
        assert d.in_dk_stack([code[x] for x in tr]), tr


def test_trace_length_is_2n_minus_2(dyck_corpus):
    for _, gd, _ in dyck_corpus:
        for w in d.enumerate_words(gd, 6):
            if len(w) < 2:
                continue
            for tree in d.all_trees(gd, w):
                assert len(d.trace_word(gd, tree)) == 2 * len(w) - 2
