"""A context-free language as a homomorphic image of Dyck-word traces.

For a grammar in Dyck normal form, every parse tree's trace is a word over
the grammar's bracket pairs, and erasing brackets the right way recovers the
parsed word.  Concretely, the letter-to-letter map phi sends each bracket
that carries a terminal rule to its terminal and every other bracket to the
empty string.  Two loose ends make this exact:

  * words of length one have no trace, so the pairing is extended with one
    fresh bracket pair per start terminal rule, whose two-letter pair word
    stands in for that one-letter word;
  * the set of traces is itself a subset of the one-sided Dyck language over
    the extended pairing (checked here, not assumed).

verify_characterization ties it together at desk scale, from one enumeration
of the language: the phi-image of the trace set (plus the extension pair
words) must equal L(g) up to a length bound, and every trace must be Dyck.

partition_nonterminals classifies bracket pairs by which side carries a
terminal rule; the even-linear pipeline leans on the fact that it never
produces a pair with no terminal side at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dyck import (_traces_of, encode_trace, in_dk_stack, pair_code,
                   render_dyck_word)
from .enumeration import DEFAULT_WORD_CAP, enumerate_words
from .grammar import (
    Grammar,
    GrammarError,
    Rule,
    fresh_name,
    is_dyck_nf,
    pairing_of,
)


# ---- pair classification ----

def partition_nonterminals(g):
    """Split a Dyck normal form grammar's pairs by terminal-rule placement.

    Returns a dict with keys "both_terminal", "left_terminal",
    "right_terminal" and "no_terminal", each a list of (left, right) pairs
    in canonical pairing order.  "left_terminal" means the opening bracket
    carries the terminal rule and the closing one is rewritten further.
    """
    has_term = {r.lhs for r in g.rules if len(r.rhs) == 1}
    out = {"both_terminal": [], "left_terminal": [],
           "right_terminal": [], "no_terminal": []}
    for left, right in pairing_of(g):
        lt, rt = left in has_term, right in has_term
        if lt and rt:
            out["both_terminal"].append((left, right))
        elif lt:
            out["left_terminal"].append((left, right))
        elif rt:
            out["right_terminal"].append((left, right))
        else:
            out["no_terminal"].append((left, right))
    return out


# ---- the start-terminal extension ----

@dataclass(frozen=True)
class ExtendedGrammar:
    """A Dyck normal form grammar plus fresh pairs for its one-letter words.

    `grammar` carries the extension as real rules (left bracket derives the
    terminal, right bracket derives the empty word) so it can be printed and
    inspected; membership machinery keeps running on `base`, which stays
    lambda-free.  `pairs` is the full pairing - base pairs first, then one
    fresh pair per start terminal rule, in rule order.
    """

    base: Grammar
    grammar: Grammar
    pairs: tuple
    new_pairs: tuple  # (left, right, terminal) triples
    k_base: int
    k_total: int


def extend_grammar(g):
    """Add one fresh bracket pair per start terminal rule of g.

    The pair's two-letter word plays the role of the trace that a one-letter
    word does not have: its left bracket maps to the terminal under phi and
    its right bracket to the empty word.
    """
    base_pairs = pairing_of(g)
    used = set(g.nonterminals) | set(g.terminals)
    nts = list(g.nonterminals)
    rules = list(g.rules)
    new_pairs = []
    i = 0
    for r in g.rules_for(g.start):
        if len(r.rhs) != 1:
            continue
        i += 1
        left = fresh_name(f"Lift{i}", used)
        used.add(left)
        right = fresh_name(f"Drop{i}", used)
        used.add(right)
        nts.extend([left, right])
        rules.append(Rule(g.start, (left, right)))
        rules.append(Rule(left, (r.rhs[0],)))
        rules.append(Rule(right, ()))
        new_pairs.append((left, right, r.rhs[0]))
    ext = Grammar(nonterminals=nts, terminals=list(g.terminals),
                  start=g.start, rules=rules)
    pairs = tuple(base_pairs) + tuple((l, r) for l, r, _ in new_pairs)
    return ExtendedGrammar(base=g, grammar=ext, pairs=pairs,
                           new_pairs=tuple(new_pairs),
                           k_base=len(base_pairs), k_total=len(pairs))


def build_phi(ext):
    """The bracket-to-letter map: terminal-ruled brackets keep their letter,
    all other brackets erase.  Accepts an ExtendedGrammar or a plain Dyck
    normal form grammar; the start symbol is no bracket and gets no image.
    """
    if isinstance(ext, ExtendedGrammar):
        phi = build_phi(ext.base)
        for left, right, t in ext.new_pairs:
            phi[left] = t
            phi[right] = ""
        return phi
    g = ext
    if not is_dyck_nf(g):
        raise GrammarError("phi is defined for Dyck normal form grammars")
    terminal_of = {r.lhs: r.rhs[0] for r in g.rules if len(r.rhs) == 1}
    return {nt: terminal_of.get(nt, "")
            for nt in g.nonterminals if nt != g.start}


def apply_phi(phi, trace):
    """Map a trace (tuple of bracket names) to its terminal word."""
    try:
        return "".join(phi[name] for name in trace)
    except KeyError as e:
        raise GrammarError(f"trace letter {e.args[0]} has no phi image")


# ---- the desk-scale verification ----

@dataclass
class CharacterizationReport:
    """Outcome of checking L = phi(D') up to a length bound."""

    ok: bool
    max_len: int
    k_base: int
    k_total: int
    words: list
    trace_count: int
    missing: list = field(default_factory=list)   # words with no trace image
    extra: list = field(default_factory=list)     # (trace text, image) pairs
    not_dyck: list = field(default_factory=list)  # trace texts

    def render(self):
        lines = []
        verdict = "ok" if self.ok else "FAIL"
        lines.append(f"phi-characterization up to length {self.max_len}: "
                     f"{verdict}")
        lines.append(f"  words checked: {len(self.words)}   "
                     f"traces: {self.trace_count}   "
                     f"pairs: {self.k_base} base + "
                     f"{self.k_total - self.k_base} extension")
        for w in self.missing:
            lines.append(f"  MISSING {w}")
        for text, image in self.extra:
            lines.append(f"  EXTRA {text} -> {image!r}")
        for text in self.not_dyck:
            lines.append(f"  NOT-DYCK {text}")
        return "\n".join(lines)


def verify_characterization(g, max_len):
    """Check that phi maps the trace set onto exactly L(g), up to max_len.

    Every derivable word of length 2..max_len must be the phi-image of some
    trace, every one-letter word the image of its extension pair, no trace
    may map outside the language, and every trace (as a bracket word over
    the extended pairing) must pass the one-sided Dyck membership check.
    One enumeration of the language, capped at DEFAULT_WORD_CAP stored
    words, yields both the words and the traces, which are capped like
    trace_language's.  Raises ValueError for max_len below 1.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    ext = extend_grammar(g)
    phi = build_phi(ext)
    code = pair_code(ext.pairs)

    words = enumerate_words(g, max_len, cap=DEFAULT_WORD_CAP)  # length-lex
    language = set(words)
    dprime = _traces_of(g, words)
    dprime |= {(left, right) for left, right, _ in ext.new_pairs}

    images, extra, not_dyck = set(), [], []
    for tr in sorted(dprime, key=lambda t: (len(t), t)):
        image = apply_phi(phi, tr)
        images.add(image)
        word = encode_trace(code, tr)
        if image not in language:
            extra.append((render_dyck_word(word), image))
        if not in_dk_stack(word, k=ext.k_total):
            not_dyck.append(render_dyck_word(word))

    missing = [w for w in words if w not in images]
    return CharacterizationReport(
        ok=not (missing or extra or not_dyck),
        max_len=max_len, k_base=ext.k_base, k_total=ext.k_total,
        words=words, trace_count=len(dprime),
        missing=missing, extra=extra, not_dyck=not_dyck)
