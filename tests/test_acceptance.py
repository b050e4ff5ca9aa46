"""The acceptance gate: one test per shipping criterion, each printing a
single [PASS]/[FAIL] line (visible in the normal pytest run) and asserting.

Everything here leans on independently implemented oracles - the brute
force word enumerator, the parse-table membership test, and the pushdown
bracket checker - so each criterion is a genuine cross-check rather than
the code agreeing with itself.
"""

from __future__ import annotations

import itertools
import random
import time

import dycknf as d
from dycknf.corpus import (
    all_bracket_words,
    mutate_words,
    random_bracket_words,
    random_elin_members,
    random_words,
)

GOLDEN_TRACE_BRACKETS = "[2 [1 [6 ]6 [3 ]3 ]1 [3 ]3 ]2 [7 ]7"


def _report(capfd, num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}"
    if detail:
        line += f" - {detail}"
    with capfd.disabled():
        print(line)
    assert ok, line


# ---- 01: the worked conversion, exactly ----

def test_criterion_01_golden_conversion(capfd, expr_cnf, expr_dyck_expected):
    t0 = time.perf_counter()
    gd, _ = d.to_dyck_nf(expr_cnf)
    elapsed = time.perf_counter() - t0
    sizes_ok = len(gd.nonterminals) == 15 and len(gd.rules) == 26
    iso = d.find_isomorphism(gd, expr_dyck_expected)
    ok = sizes_ok and iso is not None and elapsed < 1.0
    _report(capfd, 1, "golden conversion", ok,
            f"{len(gd.nonterminals)} nonterminals / {len(gd.rules)} rules, "
            f"isomorphic={iso is not None}, {elapsed:.3f}s")


# ---- 02: language preservation across the corpus ----

def test_criterion_02_language_preservation(capfd, dyck_corpus):
    t0 = time.perf_counter()
    mismatched = 0
    words = 0
    for g, gd, _ in dyck_corpus:
        a = d.enumerate_words(g, 9)
        if a != d.enumerate_words(gd, 9):
            mismatched += 1
        words += len(a)
    elapsed = time.perf_counter() - t0
    ok = mismatched == 0 and elapsed < 60.0
    _report(capfd, 2, "language preservation", ok,
            f"{len(dyck_corpus)} grammars, lengths <= 9 ({words} words), "
            f"{mismatched} mismatches, {elapsed:.1f}s")


# ---- 03: parse-table equivalence under the collapsing map ----

def test_criterion_03_equivalence_matrices(capfd, dyck_corpus):
    bad_cells = 0
    probed = 0
    for g, gd, ledger in dyck_corpus:
        probes = d.enumerate_words(g, 9)[:120]
        probes += [w for w in random_words(g.terminals, 9, 80, seed="c3")
                   if w not in set(probes)][:80]
        for w in probes:
            bad_cells += len(d.verify_equivalence_matrices(g, gd, ledger, w))
            probed += 1
    ok = bad_cells == 0
    _report(capfd, 3, "equivalence matrices", ok,
            f"{probed} words across {len(dyck_corpus)} grammars "
            f"(about 200 each), {bad_cells} cell mismatches")


# ---- 04: derivations take exactly 2n-1 steps ----

def test_criterion_04_derivation_length(capfd, dyck_corpus):
    bad = 0
    checked = 0
    for _, gd, _ in dyck_corpus:
        for w in d.enumerate_words(gd, 9):
            if not w:
                continue
            trees = (d.all_trees(gd, w) if len(w) <= 7
                     else [d.extract_tree(gd, w)])
            for tree in trees:
                checked += 1
                if len(d.leftmost_derivation(gd, tree)) != 2 * len(w) - 1:
                    bad += 1
    ok = bad == 0 and checked > 0
    _report(capfd, 4, "derivation length 2n-1", ok,
            f"{checked} derivations (every tree to length 7, canonical "
            f"tree to length 9), {bad} wrong lengths")


# ---- 05: the worked trace, exactly ----

def test_criterion_05_golden_trace(capfd, expr_converted):
    gd, _ = expr_converted
    word = "a*a*a+a"
    tree = d.extract_tree(gd, word)
    trace = d.trace_word(gd, tree)
    brackets = d.render_dyck_word(d.trace_as_brackets(gd, trace))
    # the reference trace of this 7-letter word has 12 = 2*7 - 2 letters:
    # every inner node of the canonical tree except the root contributes one
    ok = brackets == GOLDEN_TRACE_BRACKETS and len(trace) == 12
    _report(capfd, 5, "golden trace", ok,
            f"trace of {word!r} = {brackets!r}")


# ---- 06: the two Dyck membership routes agree ----

def test_criterion_06_dyck_routes_agree(capfd):
    t0 = time.perf_counter()
    disagree = 0
    exhaustive = 0
    # every bracket word: 2^1+..+2^12 for one pair, 4^1+..+4^8 for two,
    # which is 8,190 + 87,380 words
    for k, bound in ((1, 12), (2, 8)):
        for length in range(1, bound + 1):
            for w in all_bracket_words(k, length):
                exhaustive += 1
                if d.in_dk_stack(w) != d.in_dk_lemma(w):
                    disagree += 1
    sampled = 0
    for k in (2, 3, 5):
        for w in random_bracket_words(k, 40, 3334, seed=f"c6:{k}"):
            sampled += 1
            if d.in_dk_stack(w) != d.in_dk_lemma(w):
                disagree += 1
    elapsed = time.perf_counter() - t0
    ok = disagree == 0 and sampled >= 10_000 and elapsed < 120.0
    _report(capfd, 6, "dyck routes agree", ok,
            f"{exhaustive} exhaustive + {sampled} sampled words, "
            f"{disagree} disagreements, {elapsed:.1f}s")


# ---- 07: every trace is a Dyck word ----

def test_criterion_07_traces_are_dyck(capfd, dyck_corpus):
    bad = 0
    total = 0
    for _, gd, _ in dyck_corpus:
        for trace in d.trace_language(gd, 8):
            total += 1
            if not d.in_dk_stack(d.trace_as_brackets(gd, trace)):
                bad += 1
    ok = bad == 0 and total > 0
    _report(capfd, 7, "traces are dyck words", ok,
            f"{total} traces from words to length 8, {bad} outside")


# ---- 08: the letter map characterizes each language ----

def test_criterion_08_characterization(capfd, dyck_corpus):
    failures = []
    for _, gd, _ in dyck_corpus:
        report = d.verify_characterization(gd, 7)
        if not report.ok:
            failures.append(report)
    ok = not failures
    detail = f"{len(dyck_corpus)} grammars, words to length 7"
    if failures:
        r = failures[0]
        detail += (f"; first failure: {len(r.missing)} missing / "
                   f"{len(r.extra)} extra / {len(r.not_dyck)} non-dyck")
    _report(capfd, 8, "phi characterization", ok, detail)


# ---- 09: the recognizer agrees with the parse table ----

def test_criterion_09_recognizer_agreement(capfd, elin_converted,
                                           members_of_length):
    disagree = 0
    checked = 0
    longest = 0
    rng = random.Random("c9-mutants")
    for g, gd, _ in elin_converted:
        sigma = g.terminals
        exhaustive_len = 9 if len(sigma) <= 2 else 7
        for n in range(1, exhaustive_len + 1):
            for letters in itertools.product(sigma, repeat=n):
                w = "".join(letters)
                checked += 1
                if d.recognize_atm(gd, w)[0] != d.member(gd, w):
                    disagree += 1
        members = random_elin_members(g, 40, 33, seed="c9")
        probes = set(members)
        probes.update(mutate_words(members, sigma, 80, seed="c9"))
        probes.update(random_words(sigma, 33, 40, seed="c9"))
        # every length from 26 to 33 the grammar derives: members, and each
        # with one letter rewritten (to a foreign letter over a one-letter
        # alphabet)
        for n in range(26, 34):
            for w in members_of_length(g, n, 2, seed="c9"):
                at = rng.randrange(n)
                other = [c for c in sigma if c != w[at]] or ["#"]
                probes.update((w, w[:at] + rng.choice(other) + w[at + 1:]))
        for w in probes:
            checked += 1
            is_member = d.member(gd, w)
            if d.recognize_atm(gd, w)[0] != is_member:
                disagree += 1
            if is_member:
                longest = max(longest, len(w))
    ok = disagree == 0 and len(elin_converted) >= 5
    _report(capfd, 9, "recognizer agreement", ok,
            f"{len(elin_converted)} grammars, {checked} words "
            f"(exhaustive short + sampled to length {longest}), {disagree} "
            f"disagreements")


# ---- 10: logarithmic resources, and the division chain ----

def test_criterion_10_resources(capfd, elin_converted):
    _, gd, _ = elin_converted[0]  # the canonical a^i c b^i grammar
    over = 0
    for n in (9, 17, 33, 65, 129):
        i = (n - 1) // 2
        for w in ("a" * i + "c" + "b" * i,
                  "a" * i + "c" + "b" * (i - 1) + "a"):
            _, trace = d.recognize_atm(gd, w)
            bound = n.bit_length()  # equals ceil(log2 n) for these n
            if (trace.alternation_depth > 8 * bound
                    or trace.space_cells > 32 * bound):
                over += 1
    division_bad = 0
    for p in range(4, 1_000_001):
        div, steps = d.iterated_division(p)
        value = steps[-1][0]
        for q, r in reversed(steps):
            value = value * div + r
        # the chain length stays strictly under log2(p) except at p = 4,
        # where both sides are exactly 2; integer compare, no floats
        short_enough = (2 ** len(steps) < p if p >= 5 else len(steps) == 2)
        if value != p or not short_enough:
            division_bad += 1
    ok = over == 0 and division_bad == 0
    _report(capfd, 10, "logarithmic resources", ok,
            "alternation <= 8*ceil(log2 n) and tape <= 32*ceil(log2 n) for "
            "n in {9,17,33,65,129}; division chain rebuilds every p <= 1e6 "
            "inside log2(p) steps (equality exactly at p=4), "
            f"{over + division_bad} violations")


# ---- 11: the even linear pipeline lands in the right shape ----

def test_criterion_11_elin_pipeline_shape(capfd, elin_converted):
    bad = 0
    for g, gd, _ in elin_converted:
        shaped = (d.is_dyck_nf(gd)
                  and not d.partition_nonterminals(gd)["no_terminal"])
        preserved = d.enumerate_words(g, 9) == d.enumerate_words(gd, 9)
        if not (shaped and preserved):
            bad += 1
    ok = bad == 0
    _report(capfd, 11, "even linear pipeline shape", ok,
            f"{len(elin_converted)} grammars: dyck shape, every pair "
            f"carries a terminal, language equal to length 9; {bad} bad")
