"""The whole pipeline on random general grammars: text round trip, to_cnf,
to_dyck_nf, trees mapped back, CYK tables cell by cell, the trace sets read
off the parse forest against trace_word over every tree, and the
phi-characterization, all against the enumeration oracle; member's
letter-pair pre-filter against bare parse tables."""

from __future__ import annotations

import hashlib
import random

import dycknf as d
from dycknf.dyck import _traces_of


def random_general_grammar(seed):
    """One to six nonterminals over 'ab', one to three rules each, bodies
    of one to four symbols: unit rules, unit cycles, terminals inside long
    bodies and empty languages all occur; lambda rules do not.  Symbols
    are declared in first-use order, as a parsed grammar has them."""
    rng = random.Random(f"general:{seed}")
    nts = ["S", "A", "B", "C", "D", "F"][:rng.randint(1, 6)]
    symbols = nts + ["a", "b"]
    lines = ["start: S"]
    for nt in nts:
        bodies = {" ".join(s if s in nts else f"'{s}'"
                           for s in rng.choices(symbols, k=rng.randint(1, 4)))
                  for _ in range(rng.randint(1, 3))}
        lines.append(f"{nt} -> {' | '.join(sorted(bodies))}")
    return d.parse_grammar("\n".join(lines))


def test_pipeline_keeps_the_language_of_random_general_grammars(
        filter_misses):
    converted = 0
    for seed in range(300):
        g = random_general_grammar(seed)
        assert d.parse_grammar(d.serialize(g)) == g, seed
        try:
            gc = d.to_cnf(g)
        except d.GrammarError as e:
            assert "derives no terminal word" in str(e), seed
            continue
        converted += 1
        gd, ledger = d.to_dyck_nf(gc)
        for h in (gc, gd):
            back = d.parse_grammar(d.serialize(h))
            assert (back.start, back.rules) == (h.start, h.rules), seed
            assert filter_misses(h, 6) == [], seed
        words = d.enumerate_words(g, 6)
        assert d.enumerate_words(gc, 6) == words, seed
        assert d.enumerate_words(gd, 6) == words, seed
        hd = d.build_hd(gd, ledger)
        for w in words[:4] + words[-2:]:
            mapped = d.map_tree(d.extract_tree(gd, w), hd, gc)
            assert d.tree_yield(mapped) == w, (seed, w)
        for w in words[:3] + ["ab", "ba", "aab"]:
            assert d.verify_equivalence_matrices(gc, gd, ledger, w) == [], (
                seed, w)
        short = [w for w in words if len(w) <= 5]
        expected = set()
        for w in short:
            if len(w) > 1:
                traces = {d.trace_word(gd, t) for t in d.all_trees(gd, w)}
                assert _traces_of(gd, [w]) == traces, (seed, w)
                expected |= traces
        # one call over the words in enumeration order reuses subforests
        # across words, and must find the same traces
        assert _traces_of(gd, short) == expected, seed
        assert d.verify_characterization(gd, 5).ok, seed
    assert converted >= 100


# sha256 of serialize(to_cnf(g)) over the grammars above, each refusal of
# an empty language hashed as its message in its place: the only corpus
# whose inputs take to_cnf's full path with unit cycles, the start symbol
# inside a body and terminals inside long bodies
CNF_DIGEST = ("e7eea309ea1f12ca7b0430aad940df47"
              "140f00405453cc302b3ac61c337a8340")


def test_cnf_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        try:
            text = d.serialize(d.to_cnf(random_general_grammar(seed)))
        except d.GrammarError as e:
            text = str(e)
        digest.update(text.encode())
    assert digest.hexdigest() == CNF_DIGEST
