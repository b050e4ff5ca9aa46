"""Seeded inputs, timed ops and oracles for the benchmark's workloads.

Each workload is a function ``setup(seed, root, scratch) -> Batch``:
``root`` is the checkout, and ``scratch`` a directory the caller removes
afterwards.  Set-up builds every input from the seed (plus the
conversions the workload needs as input) and returns a fixed list of ops.
An op's ``run`` is the only code the benchmark times; its ``check`` is the
oracle, called on the answer outside the timed region.  Every oracle is
independent of the layer the workload stresses:

* ``convert`` and ``characterize`` hold answers against brute-force word
  enumeration of the CNF input;
* ``parse-long`` holds them against a regular expression, the counting
  Dyck-membership route and the letter map phi;
* ``elin`` holds the recognizer against CYK.

The ops call the library through module attributes (``cyk.member``, not a
name bound at import time), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from dataclasses import dataclass

from dycknf import cli, corpus, cyk, dyck, elin, enumeration, grammar, phi
from dycknf import normal_forms

# the one-line reason each workload exists; BENCHMARK.json repeats these
WHY = {
    "convert": "CLI dyckify|member on CNF grammars of 6..32 rules: "
               "to_dyck_nf and the quadratic reload in parse_grammar do "
               "most of the work",
    "parse-long": "expression words of length 33..129 on the golden "
                  "grammar: few large CYK tables, built twice per member",
    "characterize": "verify-phi on 100 small ambiguous grammars: thousands "
                    "of tiny CYK tables, all_trees and validate_tree per "
                    "parse tree",
    "elin": "recognize_atm at n<=8 and n~33..65: the only workload that "
            "runs the even-linear divide-and-conquer search",
}


@dataclass
class Op:
    """One timed call (``run``) and its oracle (``check(answer) -> bool``)."""

    cls: str
    run: object
    check: object


@dataclass
class Batch:
    """A workload's fixed batch of ops, in the order they run.

    ``rules_in``/``rules_out`` are the input and Dyck normal form sizes
    behind ``dyck_growth``; ``convert`` fills them from its outputs as
    they are checked.
    """

    ops: list
    small: str
    large: str
    rules_in: int = 0
    rules_out: int = 0


# ---- generators ----
#
# Grammars come from "regular" shapes: every nonterminal has exactly one
# terminal rule and a fixed number of distinct binary bodies.  Free random
# draws have heavy-tailed costs (a few in a hundred dominate a batch), so
# two seeds' batches would differ by far more than a regression worth
# catching; fixed shapes keep every seed's batch at the same work while the
# seed still picks every body and letter.

def _bodies(rng, nts, k):
    bodies = set()
    while len(bodies) < k:
        bodies.add((rng.choice(nts), rng.choice(nts)))
    return sorted(bodies)


def _clean(nts, rules):
    """Is every nonterminal productive and reachable from nts[0]?"""
    productive = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs not in productive and all(
                    s in productive or s not in nts for s in rhs):
                productive.add(lhs)
                changed = True
    reachable = {nts[0]}
    frontier = [nts[0]]
    while frontier:
        a = frontier.pop()
        for lhs, rhs in rules:
            if lhs == a:
                for s in rhs:
                    if s in nts and s not in reachable:
                        reachable.add(s)
                        frontier.append(s)
    return productive == reachable == set(nts)


def _render(nts, rules):
    lines = [f"start: {nts[0]}"]
    for lhs, rhs in rules:
        body = " ".join(s if s in nts else f"'{s}'" for s in rhs)
        lines.append(f"{lhs} -> {body}")
    return "\n".join(lines) + "\n"


def convert_grammar_text(rng, n_rules, letters="abcd"):
    """A clean CNF grammar with exactly n_rules rules, as text.

    It has max(2, round(n_rules/4)) nonterminals N0, N1, ... (no cap on
    their number), sharing the rules as evenly as possible; the start
    symbol may occur in bodies.  Every symbol is reachable and productive,
    so no conversion step prunes rules.  Returns None for a draw that
    fails that; callers draw again from the same rng.
    """
    n_nts = max(2, round(n_rules / 4))
    nts = [f"N{i}" for i in range(n_nts)]
    rules = []
    for i, nt in enumerate(nts):
        size = n_rules // n_nts + (i < n_rules % n_nts)
        rules.append((nt, (rng.choice(letters),)))
        rules.extend((nt, b) for b in _bodies(rng, nts, size - 1))
    rng.shuffle(rules)
    return _render(nts, rules) if _clean(nts, rules) else None


def characterize_grammar_text(rng, start_bodies, bodies, letters="ab"):
    """A clean CNF grammar with the start symbol S off every body, as text.

    S has one terminal rule and start_bodies binary rules; nonterminal Ni
    has one terminal rule and bodies[i] binary rules over N0, N1, ....
    Returns None for a draw with unreachable symbols.
    """
    others = [f"N{i}" for i in range(len(bodies))]
    nts = ["S"] + others
    rules = [("S", (rng.choice(letters),))]
    rules.extend(("S", b) for b in _bodies(rng, others, start_bodies))
    for nt, k in zip(others, bodies):
        rules.append((nt, (rng.choice(letters),)))
        rules.extend((nt, b) for b in _bodies(rng, others, k))
    return _render(nts, rules) if _clean(nts, rules) else None


EXPR_WORD = re.compile(r"a([*+]a)*")


def expression_words(rng, length, count):
    """count words of the given odd length, alternately in a([*+]a)* and a
    one-letter mutant of such a word that the regex rejects."""
    out = []
    while len(out) < count:
        w = "a" + "".join(rng.choice("*+") + "a"
                          for _ in range((length - 1) // 2))
        if len(out) % 2:
            while EXPR_WORD.fullmatch(w):
                at = rng.randrange(length)
                w = w[:at] + rng.choice("a*+".replace(w[at], "")) + w[at + 1:]
        out.append(w)
    return out


def elin_member(rng, g, target, longest=None):
    """A word of the even linear grammar g whose length is the achievable
    length (at most longest, if given) closest to target, ties to the
    shorter, by a derivation that only picks rules that can still reach
    that length."""
    lengths = {nt: set() for nt in g.nonterminals}
    limit = target + 8
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            nt_at = [i for i, s in enumerate(r.rhs) if g.is_nonterminal(s)]
            if not nt_at:
                new = {len(r.rhs)}
            else:
                flank = len(r.rhs) - 1
                new = {flank + m for m in lengths[r.rhs[nt_at[0]]]
                       if flank + m <= limit}
            if not new <= lengths[r.lhs]:
                lengths[r.lhs] |= new
                changed = True
    reach = [m for m in lengths[g.start] if longest is None or m <= longest]
    n = min(reach, key=lambda m: (abs(m - target), m))
    left, right = [], []
    nt = g.start
    while nt is not None:
        options = []
        for r in g.rules_for(nt):
            nt_at = [i for i, s in enumerate(r.rhs) if g.is_nonterminal(s)]
            if not nt_at:
                if len(r.rhs) == n:
                    options.append((r, None))
            elif n - (len(r.rhs) - 1) in lengths[r.rhs[nt_at[0]]]:
                options.append((r, nt_at[0]))
        r, at = rng.choice(options)
        if at is None:
            left.extend(r.rhs)
            nt = None
        else:
            left.extend(r.rhs[:at])
            right[:0] = r.rhs[at + 1:]
            n -= len(r.rhs) - 1
            nt = r.rhs[at]
    return "".join(left + right)


def mutant(rng, w, alphabet, at):
    """w with position at rewritten to another letter of the alphabet."""
    return w[:at] + rng.choice([c for c in alphabet if c != w[at]]) + w[at + 1:]


# ---- workloads ----

# |P| -> grammars per batch: the small and large classes get more draws,
# because their class means are reported on their own
CONVERT_SIZES = {6: 24, 8: 6, 10: 6, 12: 6, 16: 6, 20: 6, 24: 6, 32: 12}


def setup_convert(seed, root, scratch):
    """CNF grammar files; each op runs ``dyckify FILE | member - W`` in
    process, W alternately a member and a non-member of length <= 5."""
    ops = []
    batch = Batch(ops, small="P6", large="P32")
    scratch.mkdir(parents=True, exist_ok=True)
    for size, count in CONVERT_SIZES.items():
        for i in range(count):
            rng = random.Random(f"convert:{seed}:{size}:{i}")
            while True:
                text = convert_grammar_text(rng, size)
                if text is None:
                    continue
                g = grammar.parse_grammar(text)
                words = set(enumeration.enumerate_words(g, 5))
                letters = sorted(g.terminals)
                others = {w for w in ("".join(rng.choice(letters)
                                              for _ in range(rng.randint(1, 5)))
                                      for _ in range(40)) if w not in words}
                if words and others:
                    break
            want = i % 2 == 0
            word = rng.choice(sorted(words if want else others))
            path = scratch / f"g{size}_{i}.cfg"
            path.write_text(text)
            batch.rules_in += size
            ops.append(Op(f"P{size}", _convert_run(str(path), word),
                          _convert_check(batch, want)))
    return batch


def _cli(argv, stdin_text=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


def _convert_run(path, word):
    def run():
        rc_dyck, text = _cli(["dyckify", path])
        rc_member, verdict = _cli(["member", "-", word, "--machine"],
                                  stdin_text=text)
        return rc_dyck, text, rc_member, verdict
    return run


def _convert_check(batch, want):
    counted = []

    def check(answer):
        rc_dyck, text, rc_member, verdict = answer
        if not counted:
            counted.append(True)
            batch.rules_out += sum(line.count("|") + 1
                                   for line in text.splitlines()
                                   if "->" in line and not line.startswith("#"))
        return (rc_dyck == 0 and rc_member == (0 if want else 1)
                and verdict.strip() == str(int(want)))
    return check


PARSE_LENGTHS = (33, 65, 129)
PARSE_PER_LENGTH = 8


def setup_parse_long(seed, root, scratch):
    """The golden expression grammar in Dyck normal form; each op decides
    one long word and, for members, does the ``trace`` verb's work."""
    g_cnf = grammar.parse_grammar(
        (root / "tests" / "data" / "expr_cnf.cfg").read_text())
    g, _ = normal_forms.to_dyck_nf(g_cnf)
    rng = random.Random(f"parse-long:{seed}")
    ops = []
    batch = Batch(ops, small="n33", large="n129",
                  rules_in=len(g_cnf.rules), rules_out=len(g.rules))
    letter_map = phi.build_phi(g)
    for n in PARSE_LENGTHS:
        for w in expression_words(rng, n, PARSE_PER_LENGTH):
            ops.append(Op(f"n{n}", _parse_run(g, w),
                          _parse_check(letter_map, w)))
    return batch


def _parse_run(g, w):
    def run():
        if not cyk.member(g, w):
            return (False,)
        tree = cyk.extract_tree(g, w)
        trace = dyck.trace_word(g, tree)
        brackets = dyck.trace_as_brackets(g, trace)
        return True, trace, brackets, dyck.in_dk_stack(brackets)
    return run


def _parse_check(letter_map, w):
    def check(answer):
        if not EXPR_WORD.fullmatch(w):
            return answer == (False,)
        if answer == (False,):
            return False
        ok, trace, brackets, stack_says = answer
        return (ok and stack_says is True and dyck.in_dk_lemma(brackets)
                and phi.apply_phi(letter_map, trace) == w)
    return check


CHARACTERIZE_LEN = 5
# class -> (grammars per batch, start bodies, bodies per other nonterminal):
# "small" derives two words, so its ops show the fixed per-call cost;
# "large" has two bodies per nonterminal, so its words have many parse
# trees, each validated rule by rule
CHARACTERIZE_SHAPES = {
    "small": (25, 1, (0, 0)),
    "mid": (50, 1, (1, 1, 1)),
    "large": (25, 2, (2, 2, 2)),
}


def setup_characterize(seed, root, scratch):
    """100 CNF grammars in three shapes, converted to Dyck normal form;
    each op is ``verify_characterization(gd, 5)``, the ``verify-phi``
    verb."""
    ops = []
    batch = Batch(ops, small="small", large="large")
    for label, (count, start_bodies, bodies) in CHARACTERIZE_SHAPES.items():
        for i in range(count):
            rng = random.Random(f"characterize:{seed}:{label}:{i}")
            text = None
            while text is None:
                text = characterize_grammar_text(rng, start_bodies, bodies)
            g = grammar.parse_grammar(text)
            gd, _ = normal_forms.to_dyck_nf(g)
            batch.rules_in += len(g.rules)
            batch.rules_out += len(gd.rules)
            ops.append(Op(label, _characterize_run(gd),
                          _characterize_check(g)))
    return batch


def _characterize_run(gd):
    return lambda: phi.verify_characterization(gd, CHARACTERIZE_LEN)


def _characterize_check(g):
    expected = []

    def check(report):
        if not expected:
            expected.append(enumeration.enumerate_words(g, CHARACTERIZE_LEN))
        return report.ok and report.words == expected[0]
    return check


# (target length, class, members per grammar): each member is followed by
# a mutant whose letter a quarter of the way in is changed.  The search's
# cost depends on where a word goes wrong, so one place keeps every seed's
# batch at the same work; the large class, where the 6-candidate grammar's
# words cost hundreds of times the others', gets more members.  The small
# class (no target) draws each length from 5..8: the parse-table route.
ELIN_CLASSES = ((None, "small", 3), (33, "n33", 3), (49, "n49", 3),
                (65, "large", 6))


def setup_elin(seed, root, scratch):
    """The elin_corpus(5) grammars through elin_to_dyck_nf; each op is
    ``recognize_atm`` on a length-targeted member or a one-letter mutant.
    """
    rng = random.Random(f"elin:{seed}")
    ops = []
    batch = Batch(ops, small="small", large="large")
    for g in corpus.elin_corpus(5):
        gd, _ = elin.elin_to_dyck_nf(g)
        alphabet = sorted(set(g.terminals) | set("ab"))
        batch.rules_in += len(g.rules)
        batch.rules_out += len(gd.rules)
        for target, label, members in ELIN_CLASSES:
            for _ in range(members):
                if target is None:
                    w = elin_member(rng, g, rng.randint(5, 8), longest=8)
                else:
                    w = elin_member(rng, g, target)
                for word in (w, mutant(rng, w, alphabet, len(w) // 4)):
                    ops.append(Op(label, _elin_run(gd, word),
                                  _elin_check(gd, word)))
    return batch


def _elin_run(gd, w):
    return lambda: elin.recognize_atm(gd, w)


def _elin_check(gd, w):
    expected = []

    def check(answer):
        if not expected:
            expected.append(cyk.member(gd, w))
        return answer[0] == expected[0]
    return check


WORKLOADS = {
    "convert": setup_convert,
    "parse-long": setup_parse_long,
    "characterize": setup_characterize,
    "elin": setup_elin,
}
