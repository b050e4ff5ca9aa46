"""Reproducible random grammars and word samples for tests and demos.

Everything here is seeded and deterministic: the same seed gives the same
grammar or word list on every run and platform (string seeds go through
random.Random's hash-free path).  Generation is rejection-based - draw,
check the grammar is usable (nonempty language, enough short words to be
interesting), and redraw with a derived seed otherwise - so the outputs
are always safe to feed straight into conversions and oracles.
"""

from __future__ import annotations

import itertools
import random

from .enumeration import enumerate_words
from .grammar import (Grammar, GrammarError, _rule, parse_grammar,
                      serialize)
from .normal_forms import cleanup

_NAMES = ["S", "A", "B", "C", "D", "F", "G", "H"]


def _canonical(g):
    # one trip through the text format puts symbol declaration order in
    # line with first occurrence, the same as any file-loaded grammar
    return parse_grammar(serialize(g))


def _draw(kind, seed, alphabet, nts_range, body, max_len, long_len):
    """The shared rejection loop of the random grammar generators.

    Attempt k draws from random.Random(f"{kind}:{seed}:{k}") a count of
    nonterminals in nts_range, then one to three bodies per nonterminal from
    body(rng, nts, alphabet), dropping repeats.  The draw is cleaned up and
    kept once it has at least three words up to max_len, one of them at
    least long_len letters long; it comes back in canonical form.
    """
    for attempt in range(200):
        rng = random.Random(f"{kind}:{seed}:{attempt}")
        nts = _NAMES[:rng.randint(*nts_range)]
        rules = dict.fromkeys(_rule((nt, body(rng, nts, alphabet)))
                              for nt in nts
                              for _ in range(rng.randint(1, 3)))
        try:
            g = cleanup(Grammar(nts, list(alphabet), nts[0], list(rules)))
            words = enumerate_words(g, max_len, cap=50_000)
        except GrammarError:
            continue
        if len(words) >= 3 and any(len(w) >= long_len for w in words):
            return _canonical(g)
    raise RuntimeError(f"no usable {kind} grammar for seed {seed!r}")


def random_cnf_grammar(seed, max_nts=6, alphabet="ab"):
    """A random Chomsky normal form grammar with a usable language.

    The start symbol stays off every right-hand side, the grammar comes
    back cleaned up, and rejection sampling guarantees at least three
    derivable words up to length 6 with at least one of length 2 or more.
    """
    return _draw("cnf", seed, alphabet, (3, max_nts), _cnf_body, 6, 2)


def _cnf_body(rng, nts, alphabet):
    if rng.random() < 0.45:
        return (rng.choice(alphabet),)
    return (rng.choice(nts[1:]), rng.choice(nts[1:]))


def corpus_grammars(count=20, seed=0):
    """The standard batch of random CNF grammars used across the tests."""
    return [random_cnf_grammar(f"{seed}:{i}") for i in range(count)]


def canonical_elin_grammar():
    """The running even linear example: a^i c b^i."""
    return parse_grammar("""
        start: S
        S -> 'a' S 'b' | 'c'
    """)


def random_elin_grammar(seed, alphabet="ab"):
    """A random even linear grammar with a usable language.

    Bodies are u X v with equally long flanks of one or two letters, or
    plain terminal strings of length one or two; rejection sampling keeps
    only grammars with at least three words up to length 8, one of them
    at least four letters long.
    """
    return _draw("elin", seed, alphabet, (1, 3), _elin_body, 8, 4)


def _elin_body(rng, nts, alphabet):
    if rng.random() < 0.55:
        flank = rng.randint(1, 2)
        u = tuple(rng.choice(alphabet) for _ in range(flank))
        v = tuple(rng.choice(alphabet) for _ in range(flank))
        return u + (rng.choice(nts),) + v
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))


def elin_corpus(count=5, seed=0):
    """The canonical even linear example plus generated companions."""
    out = [canonical_elin_grammar()]
    out.extend(random_elin_grammar(f"{seed}:{i}") for i in range(count - 1))
    return out


# ---- word samplers ----

def random_words(alphabet, max_len, count, seed):
    """Deterministic random terminal words, deduplicated, order preserved.

    May return fewer than count words when the alphabet is so small that
    there are not enough distinct words to draw.
    """
    rng = random.Random(f"words:{seed}")
    out = []
    seen = set()
    for _ in range(count * 40):
        w = "".join(rng.choice(alphabet)
                    for _ in range(rng.randint(1, max_len)))
        if w not in seen:
            seen.add(w)
            out.append(w)
        if len(out) >= count:
            break
    return out


def all_bracket_words(k, length):
    """Every bracket word over k pairs of exactly the given length."""
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    yield from itertools.product(letters, repeat=length)


def _random_member_bracket(rng, k, length):
    # recursive concat-or-wrap construction: always a valid Dyck word
    if length <= 2:
        pair = rng.randint(1, k)
        return (pair, -pair)
    if rng.random() < 0.5:
        cut = 2 * rng.randint(1, length // 2 - 1)
        return (_random_member_bracket(rng, k, cut)
                + _random_member_bracket(rng, k, length - cut))
    pair = rng.randint(1, k)
    return (pair,) + _random_member_bracket(rng, k, length - 2) + (-pair,)


def random_bracket_words(k, max_len, count, seed):
    """A deterministic mix of bracket words over k pairs.

    Roughly 40% uniform noise (usually trivially unbalanced), 40% genuine
    Dyck words from a random build, and 20% Dyck words with one letter
    flipped - near misses that make membership checks work hardest.
    """
    rng = random.Random(f"brackets:{seed}")
    out = []
    while len(out) < count:
        style = rng.random()
        if style < 0.4:
            length = rng.randint(1, max_len)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, k)
                         for _ in range(length))
        else:
            length = 2 * rng.randint(1, max_len // 2)
            word = _random_member_bracket(rng, k, length)
            if style >= 0.8:
                at = rng.randrange(len(word))
                word = (word[:at]
                        + (rng.choice((1, -1)) * rng.randint(1, k),)
                        + word[at + 1:])
        out.append(word)
    return out


def random_elin_members(g, count, max_len, seed):
    """Words of an even linear grammar drawn by random derivations.

    Walks the (single-nonterminal) sentential form with random rule picks,
    aborting walks that overshoot max_len; returns distinct words sorted
    shortest first so samples at many lengths show up.
    """
    rng = random.Random(f"elin-members:{seed}")
    by_lhs = {nt: g.rules_for(nt) for nt in g.nonterminals}
    out = set()
    for _ in range(count * 40):
        left, right = "", ""
        nt = g.start
        while nt is not None:
            r = rng.choice(by_lhs[nt])
            nt_at = next((i for i, s in enumerate(r.rhs)
                          if g.is_nonterminal(s)), None)
            if nt_at is None:
                left += "".join(r.rhs)
                nt = None
            else:
                left += "".join(r.rhs[:nt_at])
                right = "".join(r.rhs[nt_at + 1:]) + right
                nt = r.rhs[nt_at]
            if len(left) + len(right) > max_len:
                break
        else:
            out.add(left + right)
        if len(out) >= count:
            break
    return sorted(out, key=lambda w: (len(w), w))


def mutate_words(words, alphabet, count, seed):
    """Near-miss candidates: one position of a sample word rewritten."""
    rng = random.Random(f"mutate:{seed}")
    words = [w for w in words if w]
    out = []
    while words and len(out) < count:
        w = rng.choice(words)
        at = rng.randrange(len(w))
        out.append(w[:at] + rng.choice(alphabet) + w[at + 1:])
    return out
