"""Even linear pipeline, trace shapes, iterated division, and the
divide-and-conquer recognizer held against the parse table."""

from __future__ import annotations

import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import dycknf as d
from dycknf.corpus import (
    canonical_elin_grammar,
    corpus_grammars,
    elin_corpus,
    mutate_words,
    random_elin_grammar,
    random_elin_members,
    random_words,
)
from dycknf.elin import _CENTER, _ROOT, _Search

CANONICAL_DYCK = """
start: S0
S0 -> L1 M1 | 'c'
S -> L1 M1
L1 -> 'a'
M1 -> S R1
R1 -> 'b'
S_t1 -> 'c'
M1 -> S_t1 R1_R1
R1_R1 -> 'b'
"""


def even_word_grammar():
    return d.parse_grammar("start: S\nS -> 'a' S 'b' | 'a' 'b'")


# ---- the class and the pipeline ----

def test_is_even_linear(expr):
    assert d.is_even_linear(canonical_elin_grammar())
    assert d.is_even_linear(d.parse_grammar(
        "start: S\nS -> 'a' 'b' S 'b' 'a' | 'c' | A\nA -> 'a' A 'a' | 'b'"))
    assert not d.is_even_linear(expr)  # E -> T '*' R has two nonterminals
    assert not d.is_even_linear(d.parse_grammar(
        "start: S\nS -> 'a' S | 'b'"))  # uneven flanks


def test_pipeline_golden():
    out, ledger = d.elin_to_dyck_nf(canonical_elin_grammar())
    assert d.serialize(out).strip() == CANONICAL_DYCK.strip()
    assert {(s.fresh, s.original) for s in ledger} == {
        ("S_t1", "S"), ("R1_R1", "R1")}


# sha256 of serialize(out) + ledger_text(ledger) over the grammars below,
# none of which has a unit rule; any change to a name, a rule or its order
# in the pipeline's output changes it
PIPELINE_DIGEST = ("e0df39ea10b5d22c2f04f2bc3171681a"
                   "b36a1a7bd1f0cb5a7b04c14abe4acfae")


def test_pipeline_output_is_pinned():
    grammars = elin_corpus(5) + [random_elin_grammar(f"pin:{i}")
                                 for i in range(60)]
    digest = hashlib.sha256()
    rules = 0
    for g in grammars:
        assert not any(len(r.rhs) == 1 and g.is_nonterminal(r.rhs[0])
                       for r in g.rules)
        out, ledger = d.elin_to_dyck_nf(g)
        rules += len(out.rules)
        digest.update((d.serialize(out) + d.ledger_text(ledger)).encode())
    assert rules == 1242
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_pipeline_handles_long_flanks_and_units():
    g = d.parse_grammar("""
        start: S
        S -> 'a' 'a' S 'b' 'b' | A
        A -> 'a' 'b'
    """)
    units = [
        # a start whose only rule is a unit
        "start: S\nS -> T\nT -> 'a' T 'b' | 'b' T 'a' | 'a' | 'b' 'b'",
        # a unit cycle
        "start: S\nS -> 'a' A 'a' | B\nA -> B | 'a' A 'b'\n"
        "B -> A | 'b' B 'b' | 'a'",
        # a unit to a long-flank rule
        "start: S\nS -> 'b' S 'a' | U\nU -> 'a' 'b' U 'b' 'a' | 'a' 'a' | 'b'",
    ]
    for g in [g] + [d.parse_grammar(text) for text in units]:
        out, _ = d.elin_to_dyck_nf(g)
        assert d.is_dyck_nf(out)
        assert not d.partition_nonterminals(out)["no_terminal"]
        assert d.enumerate_words(g, 10) == d.enumerate_words(out, 10)
        accepted = 0
        for n in (9, 10, 11):
            for letters in itertools.product("ab", repeat=n):
                w = "".join(letters)
                ok, trace = d.recognize_atm(out, w)
                assert trace.route == "divide"
                assert ok == d.member(out, w), (g, w)
                accepted += ok
        assert accepted, g


def test_pipeline_shape_guarantee(elin_converted):
    for g, gd, _ in elin_converted:
        assert d.is_dyck_nf(gd)
        assert not d.partition_nonterminals(gd)["no_terminal"]
        assert d.enumerate_words(g, 9) == d.enumerate_words(gd, 9)


def test_pipeline_rejects_bad_input(expr):
    with pytest.raises(d.GrammarError):
        d.elin_to_dyck_nf(expr)
    with pytest.raises(d.GrammarError):
        d.elin_to_dyck_nf(d.parse_grammar("start: S\nS -> 'a' S 'b' | eps"))


# ---- trace shapes ----

def trace_shape_check(word):
    """Classify a bracket word against the two ladder trace shapes.

    A ladder trace is: a times (matched two-letter pair, lone opener), then
    for odd image words one extra matched pair, then the bottom matched
    pair, then the lone openers' closers in reverse.  Returns "formA" (no
    extra pair; the derived word has even length), "formB" (extra pair;
    odd length) or "neither".
    """
    n = len(word)
    if n < 2 or n % 2:
        return "neither"
    if n % 4 == 2:
        form, a = "formA", (n - 2) // 4
    else:
        form, a = "formB", (n - 4) // 4
    pos = 0
    openers = []
    for _ in range(a):
        if not (word[pos] > 0 and word[pos + 1] == -word[pos]
                and word[pos + 2] > 0):
            return "neither"
        openers.append(word[pos + 2])
        pos += 3
    blocks = 2 if form == "formB" else 1
    for _ in range(blocks):
        if not (word[pos] > 0 and word[pos + 1] == -word[pos]):
            return "neither"
        pos += 2
    for o in reversed(openers):
        if word[pos] != -o:
            return "neither"
        pos += 1
    return form


def shapes_of(gd, max_len):
    out = []
    for w in d.enumerate_words(gd, max_len):
        if len(w) < 2:
            continue
        for tree in d.all_trees(gd, w):
            tr = d.trace_word(gd, tree)
            shape = trace_shape_check(d.trace_as_brackets(gd, tr))
            out.append((len(w), shape))
    return out


def test_trace_shapes_follow_word_parity(elin_converted):
    seen = set()
    for _, gd, _ in elin_converted:
        for n, shape in shapes_of(gd, 10):
            assert shape == ("formA" if n % 2 == 0 else "formB"), (gd, n)
            seen.add(shape)
    assert seen == {"formA", "formB"}


def test_trace_shape_of_extension_pairs():
    out, _ = d.elin_to_dyck_nf(canonical_elin_grammar())
    ext = d.extend_grammar(out)
    code = {}
    for k, (left, right) in enumerate(ext.pairs, start=1):
        code[left], code[right] = k, -k
    for left, right, _ in ext.new_pairs:
        assert trace_shape_check((code[left], code[right])) == "formA"


def test_trace_shape_rejects_non_ladders():
    assert trace_shape_check(()) == "neither"
    assert trace_shape_check((1, -1, 2)) == "neither"      # odd length
    assert trace_shape_check((1, 2, -2, -1)) == "neither"  # plain nesting
    assert trace_shape_check((1, -2)) == "neither"
    assert trace_shape_check((1, -1, 2, 3, -3, -1)) == "neither"


# ---- iterated division ----

def test_iterated_division_examples():
    assert d.iterated_division(100) == (6, [(16, 4), (2, 4)])
    assert d.iterated_division(4) == (2, [(2, 0), (1, 0)])
    with pytest.raises(ValueError):
        d.iterated_division(3)


def test_iterated_division_reconstructs():
    for p in range(4, 3000):
        dd, steps = d.iterated_division(p)
        cur = p
        for q, r in steps:
            assert divmod(cur, dd) == (q, r)
            cur = q
        assert cur < dd
        value = steps[-1][0]
        for q, r in reversed(steps):
            value = value * dd + r
        assert value == p


def test_iterated_division_step_count():
    # the step count stays under log2(p) from p = 5 on; p = 4 is the one
    # boundary case where the two quantities are exactly equal (2 = log2 4),
    # so the strict comparison is checked from 5 up and p = 4 on its own
    _, steps = d.iterated_division(4)
    assert len(steps) == 2
    for p in range(5, 3000):
        _, steps = d.iterated_division(p)
        assert 2 ** len(steps) < p, p


# ---- the recognizer ----

def test_recognizer_on_canonical_family():
    out, _ = d.elin_to_dyck_nf(canonical_elin_grammar())
    for i in [0, 1, 4, 6, 10, 16]:
        w = "a" * i + "c" + "b" * i
        ok, trace = d.recognize_atm(out, w)
        assert ok, w
        assert trace.route == ("divide" if len(w) >= 9 else "table")
    for w in ["", "ab", "acbb", "aacb", "a" * 9 + "c" + "b" * 8,
              "a" * 9 + "b" * 10, "c" * 19]:
        ok, _ = d.recognize_atm(out, w)
        assert not ok, w


# sha256 of verdict and trace per word on the corpus below; any change to a
# verdict, a route, a node count, a depth or a work-tape figure changes it
RECOGNIZER_DIGEST = ("e4d9e83286a6ee102522942fd37e21ee"
                     "be78681ac703a3234fdc4b7e06976f49")


def test_recognizer_output_is_pinned(elin_converted):
    digest = hashlib.sha256()
    counts = {"words": 0, "refused": 0, "accepted": 0}
    for i, (g, gd, _) in enumerate(elin_converted):
        sigma = sorted(g.terminals)
        members = random_elin_members(g, 15, 41, seed=7)
        words = set(members)
        words.update(mutate_words(members, sigma, 20, seed=7))
        words.update(random_words(sigma, 25, 60, seed=7))
        if len(sigma) <= 2:
            words.update("".join(t) for n in range(1, 10)
                         for t in itertools.product(sigma, repeat=n))
        for w in sorted(words, key=lambda w: (len(w), w)):
            ok, trace = d.recognize_atm(gd, w)
            digest.update(repr((i, w, ok, trace)).encode())
            counts["words"] += 1
            if trace.route == "divide":
                counts["accepted" if ok else "refused"] += 1
    assert counts == {"words": 3351, "refused": 1745, "accepted": 41}
    assert digest.hexdigest() == RECOGNIZER_DIGEST


def product_guesses(search, k, left, r, ncuts):
    """The guesses of a block by brute force: every itertools.product of
    r prefix names and ncuts cut names whose duties k .. k+r-1 hold."""
    for combo in itertools.product(search.cands, repeat=r + ncuts):
        names = (left,) + combo[:r]
        if all(search.duty(k + t, names[t], names[t + 1])
               for t in range(r)):
            yield combo


def test_guess_walk_follows_product_order(elin_converted):
    blocks = 0
    for g, gd, _ in elin_converted:
        sigma = sorted(g.terminals)
        members = random_elin_members(g, 15, 41, seed=7)
        words = (members + mutate_words(members, sigma, 20, seed=7)
                 + random_words(sigma, 25, 60, seed=7))
        for w in [w for w in words if len(w) >= 9]:
            p = (len(w) - 1) // 2
            dd, _ = d.iterated_division(p)
            search = _Search(gd, w, dd, d.partition_nonterminals(gd))
            search.decide(1, p, _ROOT, _CENTER, 0)
            for a, b, left, _ in search.memo:
                q, r = divmod(b - a + 1, dd)
                ncuts = dd - 1 if q else 0
                pairs = itertools.zip_longest(
                    search.guesses(a - 1, left, r, ncuts),
                    product_guesses(search, a - 1, left, r, ncuts))
                for t, (got, want) in enumerate(pairs):
                    assert got == want, (
                        f"{w!r}, block {a}..{b} after {left}: guess {t} "
                        f"is {got}, brute force has {want}")
                blocks += 1
    assert blocks == 2701


def test_recognizer_agrees_on_long_words():
    gd, _ = d.elin_to_dyck_nf(elin_corpus(5)[2])
    start = time.perf_counter()
    # members of 92 and 106 letters, each with a mutant whose letter a
    # quarter of the way in is flipped
    for w in ("aabb" * 11 + "bbaa" + "baaa" * 11,
              "aabb" * 12 + "aabbbaaaaa" + "baaa" * 12):
        i = len(w) // 4
        mutant = w[:i] + "ab"[w[i] == "a"] + w[i + 1:]
        for word, expect in [(w, True), (mutant, False)]:
            ok, trace = d.recognize_atm(gd, word)
            assert trace.route == "divide"
            assert ok is expect and d.member(gd, word) is expect, word
    assert time.perf_counter() - start < 5


def test_recognizer_agrees_exhaustively():
    out, _ = d.elin_to_dyck_nf(even_word_grammar())
    for n in (9, 10):
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            assert d.recognize_atm(out, w)[0] == d.member(out, w), w


def test_recognizer_agrees_on_samples(elin_grammars, elin_converted):
    for g, (_, gd, _) in zip(elin_grammars, elin_converted):
        members = random_elin_members(g, 25, 33, seed=7)
        probes = set(members)
        probes.update(mutate_words(members, g.terminals, 60, seed=8))
        probes.update(random_words(g.terminals, 21, 60, seed=9))
        for w in probes:
            assert d.recognize_atm(gd, w)[0] == d.member(gd, w), (g, w)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_recognizer_agrees_random(seed):
    g = random_elin_grammar(f"hyp:{seed}")
    gd, _ = d.elin_to_dyck_nf(g)
    members = random_elin_members(g, 10, 19, seed=seed)
    probes = set(members)
    probes.update(mutate_words(members, g.terminals, 20, seed=seed))
    probes.update(random_words(g.terminals, 15, 20, seed=seed))
    for w in probes:
        assert d.recognize_atm(gd, w)[0] == d.member(gd, w), (g, w)


def test_recognizer_rejects_unshaped_grammars(expr_converted):
    gd, _ = expr_converted  # has pairs with no terminal side
    with pytest.raises(d.PipelineShapeError):
        d.recognize_atm(gd, "a*a")
    with pytest.raises(d.GrammarError):
        d.recognize_atm(d.parse_grammar("start: S\nS -> 'a' S 'b' | 'c'"),
                        "acb")


def test_recognizer_refuses_non_ladder_grammars():
    g = d.parse_grammar(
        "start: S\nS -> A B | 'b'\nA -> B A | 'a' | B B\nB -> 'a'")
    gd, _ = d.to_dyck_nf(d.to_cnf(g))
    assert not d.partition_nonterminals(gd)["no_terminal"]
    assert d.recognize_atm(gd, "a" * 8)[0] == d.member(gd, "a" * 8)
    for n in (9, 10, 11):
        with pytest.raises(d.PipelineShapeError, match="ladder"):
            d.recognize_atm(gd, "a" * n)
    # a right bracket that opens another step instead of closing one
    chain = d.parse_grammar("start: S\nS -> A B\nB -> A B | D C\n"
                            "A -> 'a'\nD -> 'a'\nC -> 'b'")
    assert d.member(chain, "a" * 8 + "b")
    with pytest.raises(d.PipelineShapeError, match="B -> A B"):
        d.recognize_atm(chain, "a" * 8 + "b")


def test_recognizer_exact_or_refusing_on_corpus():
    accepted = 0
    for g in corpus_grammars(30, seed=7):
        gd, _ = d.to_dyck_nf(d.to_cnf(g))
        try:
            d.recognize_atm(gd, "a" * 9)
        except d.PipelineShapeError:
            continue
        accepted += 1
        for n in (9, 10):
            for letters in itertools.product(sorted(gd.terminals), repeat=n):
                w = "".join(letters)
                assert d.recognize_atm(gd, w)[0] == d.member(gd, w), (g, w)
    assert accepted


def test_resource_accounting_grows_logarithmically():
    out, _ = d.elin_to_dyck_nf(canonical_elin_grammar())
    for n in (9, 17, 33, 65, 129):
        i = (n - 1) // 2
        member_word = "a" * i + "c" + "b" * i
        miss_word = "a" * i + "c" + "b" * (i - 1) + "a"
        for w, expect in [(member_word, True), (miss_word, False)]:
            ok, trace = d.recognize_atm(out, w)
            assert ok is expect
            bound = (n).bit_length()  # ceil(log2(n+1)) for these n
            assert trace.alternation_depth <= 8 * bound
            assert trace.max_depth_seen <= trace.alternation_depth
            assert trace.space_cells <= 32 * bound
            assert trace.route == "divide"
            assert trace.alternation_depth == (
                2 * len(trace.division) + (trace.division[-1][0] > 0))


def test_recognizer_report_text():
    out, _ = d.elin_to_dyck_nf(canonical_elin_grammar())
    text = d.recognize_atm(out, "a" * 8 + "c" + "b" * 8)[1].render()
    assert "verdict: member" in text
    assert "divide and conquer" in text
    assert "iterated division" in text
    short = d.recognize_atm(out, "c")[1]
    assert "parse table" in short.render()
    ok, empty = d.recognize_atm(out, "")
    assert not ok and empty.p == 0
    assert "p=0 < 4" in empty.render()
    for trace in (short, empty):  # eight cells per bit of n
        assert trace.space_cells == 8 * trace.n.bit_length()
