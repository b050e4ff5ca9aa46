"""One-sided Dyck words over k bracket pairs, and trace words of parse trees.

A bracket word is a tuple of signed integers: +i opens pair i, -i closes it
(i >= 1).  The text form writes pair i as `[i` / `]i`, whitespace separated,
so `( 1, -1, 2, -2 )` prints as "[1 ]1 [2 ]2".

Membership in D_k (the one-sided Dyck language, where a closing bracket must
match the nearest open one) is implemented twice on purpose:

  * in_dk_stack runs the obvious pushdown check;
  * in_dk_lemma only looks at counting conditions - the whole word must be
    balanced ignoring indices, and inside every matched stretch each pair's
    own projection must be balanced too.

The two routes are kept independent and cross-checked by the test suite; no
code here calls one to implement the other.

The trace of a parse tree is the sequence of its internal labels in
depth-first order with the root left out - equivalently, the sequence of
nonterminals a leftmost derivation rewrites after its first step.  For a
grammar in Dyck normal form the trace is a word over the grammar's bracket
pairs, which is what ties grammars to Dyck languages in this package.
"""

from __future__ import annotations

import re

from .cyk import DEFAULT_TREE_CAP, _every_parse
from .enumeration import DEFAULT_WORD_CAP, enumerate_words
from .grammar import GrammarError, leftmost_derivation, validate_tree


class TraceUndefinedError(ValueError):
    """Trace asked of a derivation too short to have one (under 3 steps)."""


# ---- bracket words ----

_DYCK_TOKEN = re.compile(r"([\[\]])([0-9]+)")


def parse_dyck_text(text):
    """Parse "[1 ]1 [2" style text into a signed-integer bracket word."""
    word = []
    for tok in text.split():
        m = _DYCK_TOKEN.fullmatch(tok)
        if m is None or int(m.group(2)) < 1:
            raise ValueError(f"bad bracket token {tok!r} (want e.g. [1 or ]1)")
        idx = int(m.group(2))
        word.append(idx if m.group(1) == "[" else -idx)
    return tuple(word)


def render_dyck_word(word):
    """The text form of a bracket word, which parse_dyck_text reads back."""
    _check_word(word)
    return " ".join(f"[{x:d}" if x > 0 else f"]{-x:d}" for x in word)


def _check_word(word):
    for x in word:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"bracket letters are nonzero ints, got {x!r}")


def is_balanced(word):
    """Index-blind balance: never more closes than opens, equal at the end.

    The empty word is balanced (vacuously) - but note it is NOT in any D_k,
    which contains nonempty words only.
    """
    _check_word(word)
    depth = 0
    for x in word:
        depth += 1 if x > 0 else -1
        if depth < 0:
            return False
    return depth == 0


def in_dk_stack(word, k=None):
    """Pushdown membership check for D_k: closes must match the open top.

    The empty word is rejected (D_k has no empty word).  `k`, when given,
    additionally rejects words mentioning pairs beyond k.
    """
    _check_word(word)
    if not word:
        return False
    stack = []
    for x in word:
        if x > 0:  # a closer beyond k matches no opener the test let in
            if k is not None and x > k:
                return False
            stack.append(x)
        else:
            if not stack or stack[-1] != -x:
                return False
            stack.pop()
    return not stack


def in_dk_lemma(word, k=None):
    """Counting-condition membership check for D_k.

    The word is in D_k exactly when (a) it is nonempty and balanced ignoring
    indices and (b) inside every matched stretch, each pair's own projection
    is balanced (projections that vanish inside the stretch count as
    balanced).  This never simulates a stack; it is the independent
    cross-check route for in_dk_stack.  Words shorter than 2 letters are
    never members.  `k`, when given, rejects words mentioning pairs beyond
    k, as in_dk_stack does.  Time and memory are set by the word alone,
    not by its pair numbers or k.
    """
    _check_word(word)
    if len(word) < 2 or not is_balanced(word):
        return False
    if k is not None and any(abs(x) > k for x in word):
        return False

    # one left-to-right sweep per start position finds every matched
    # stretch, carrying the depth of each pair met so far and whether any
    # of them went below zero
    for i in range(len(word)):
        depth, below, pdepth = 0, False, {}
        for x in word[i:]:
            step = 1 if x > 0 else -1
            depth += step
            if depth < 0:
                break
            d = pdepth[abs(x)] = pdepth.get(abs(x), 0) + step
            below = below or d < 0
            if depth == 0 and (below or any(pdepth.values())):
                return False
    return True


# ---- matched / nested / reducible stretches (1-based, inclusive) ----

def matched(word, i, j):
    """Do positions i..j hold a matched stretch (index-blind balanced)?"""
    _check_word(word)
    return 1 <= i < j <= len(word) and is_balanced(word[i - 1:j])


def nested(word, i, j):
    """Matched, and immediately inside it is empty or matched again."""
    return matched(word, i, j) and (j == i + 1 or matched(word, i + 1, j - 1))


def reducible(word, i, j):
    """Matched and splittable into two adjacent matched stretches."""
    if not matched(word, i, j):
        return False
    return any(matched(word, i, l) and matched(word, l + 1, j)
               for l in range(i + 1, j))


# ---- traces ----

def trace_word(g, tree):
    """The trace of a parse tree: depth-first internal labels, root excluded.

    Defined only for trees with at least three rule applications; a
    one-step derivation (start straight to a terminal) has no trace and
    raises TraceUndefinedError.  The tree is validated against g first, and
    that one walk yields the labels.
    """
    labels = validate_tree(g, tree)
    if len(labels) < 3:
        raise TraceUndefinedError(
            f"derivation has {len(labels)} step(s); traces need at least 3")
    return tuple(labels[1:])


def trace_from_rewriting(g, tree):
    """The trace read off an actual leftmost rewriting of the tree.

    Independent route for trace_word: runs the sentential-form rewriting and
    collects which nonterminal each step after the first rewrites.
    """
    steps = leftmost_derivation(g, tree)
    if len(steps) < 3:
        raise TraceUndefinedError(
            f"derivation has {len(steps)} step(s); traces need at least 3")
    return tuple(r.lhs for r in steps[1:])


def trace_as_brackets(g, trace):
    """Encode a trace over a Dyck normal form grammar as a bracket word.

    Pair numbering is the canonical one from pairing_of: pair k of that list
    is written +k / -k.  A name that is no paired bracket of g gets a
    GrammarError.
    """
    code = g._brackets[0]
    try:
        return tuple(code[name] for name in trace)
    except KeyError as e:
        raise GrammarError(
            f"trace letter {e.args[0]} is not a paired bracket") from None


def trace_language(g, max_word_len):
    """Traces of every parse tree of every derivable word up to a length.

    One enumeration; each word's traces come off its parse forest, with
    trace_word over all_trees as the tests' oracle.  One-letter words have
    none (phi's extension covers them).  Caps: DEFAULT_WORD_CAP stored
    words, DEFAULT_TREE_CAP parse subtrees per word, else ResourceLimitError;
    a subforest that an earlier word stored counts against that word's cap
    only (see _traces_of).
    """
    return _traces_of(g, enumerate_words(g, max_word_len,
                                         cap=DEFAULT_WORD_CAP))


def _traces_of(g, words):
    """The set of traces of every parse tree of every word in `words`, read
    off each forest with no tree built: a one-letter node is worth (a,), a
    longer one (a,) + left + right, the preorder of one parse tree of g.

    One memo from (label, letters) to those values lives for the call, so a
    subforest walked for one word is reused by the later words that hold
    it.  Each word stores at most DEFAULT_TREE_CAP values of its own; a
    reused value was counted by the word that stored it, so a one-word call
    counts exactly as all_trees does.  trace_word is the oracle."""
    leaf, join = (lambda a, i: (a,)), (lambda a, u, v: (a,) + u + v)
    memo = {}
    return {labels[1:] for w in words if len(w) > 1
            for labels in _every_parse(g, w, DEFAULT_TREE_CAP, leaf, join,
                                       memo)}
