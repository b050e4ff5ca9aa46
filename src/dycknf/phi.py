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

Pair numbers and letters come from the grammar's one cached bracket map, so
every function here that takes a grammar refuses one outside Dyck normal
form with pairing_of's GrammarError, which lists the violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dyck import _traces_of, in_dk_stack, render_dyck_word
from .enumeration import DEFAULT_WORD_CAP, enumerate_words
from .grammar import Grammar, GrammarError, fresh_name, pairing_of


# ---- pair classification ----

# (left side has a terminal rule, right side has one) -> class
_CLASSES = {(True, True): "both_terminal", (True, False): "left_terminal",
            (False, True): "right_terminal", (False, False): "no_terminal"}


def partition_nonterminals(g):
    """Split a Dyck normal form grammar's pairs by terminal-rule placement.

    Returns a dict with keys "both_terminal", "left_terminal",
    "right_terminal" and "no_terminal", each a list of (left, right) pairs
    in canonical pairing order.  "left_terminal" means the opening bracket
    carries the terminal rule and the closing one is rewritten further.
    """
    letter = g._brackets[1]
    out = {cls: [] for cls in _CLASSES.values()}
    for left, right in pairing_of(g):
        out[_CLASSES[bool(letter[left]), bool(letter[right])]].append(
            (left, right))
    return out


# ---- the start-terminal extension ----

@dataclass(frozen=True)
class ExtendedGrammar:
    """A Dyck normal form grammar plus fresh pairs for its one-letter words.

    No second grammar is built.  `pairs` is the full pairing - base pairs
    first, then one fresh pair per start terminal rule, in rule order - and
    `new_pairs` names each fresh pair's terminal.
    """

    base: Grammar
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
    letters = [r.rhs[0] for r in g.rules_for(g.start) if len(r.rhs) == 1]
    new_pairs = tuple((fresh_name(f"Lift{i}", used),
                       fresh_name(f"Drop{i}", used), t)
                      for i, t in enumerate(letters, start=1))
    pairs = tuple(base_pairs) + tuple((l, r) for l, r, _ in new_pairs)
    return ExtendedGrammar(base=g, pairs=pairs, new_pairs=new_pairs,
                           k_base=len(base_pairs), k_total=len(pairs))


def build_phi(ext):
    """The bracket-to-letter map: terminal-ruled brackets keep their letter,
    all other brackets erase.  Accepts an ExtendedGrammar or a plain Dyck
    normal form grammar; the start symbol is no bracket and gets no image.
    Returns a fresh dict; a grammar outside Dyck normal form gets
    pairing_of's GrammarError, which lists the violations.
    """
    if isinstance(ext, ExtendedGrammar):
        phi = build_phi(ext.base)
        for left, right, t in ext.new_pairs:
            phi[left] = t
            phi[right] = ""
        return phi
    return dict(ext._brackets[1])


def apply_phi(phi, trace):
    """Map a trace (tuple of bracket names) to its terminal word."""
    try:
        return "".join(phi[name] for name in trace)
    except KeyError as e:
        raise GrammarError(
            f"trace letter {e.args[0]} has no phi image") from None


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
    The words come from one enumeration capped at DEFAULT_WORD_CAP, the
    traces off their parse forests (trace_word is the tests' oracle) with
    trace_language's cap.  Raises ValueError for max_len below 1.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    ext = extend_grammar(g)
    phi = build_phi(ext)
    code = dict(g._brackets[0])
    for k, (left, right, _) in enumerate(ext.new_pairs, start=ext.k_base + 1):
        code[left], code[right] = k, -k

    words = enumerate_words(g, max_len, cap=DEFAULT_WORD_CAP)  # length-lex
    language = set(words)
    dprime = _traces_of(g, words)
    dprime |= {(left, right) for left, right, _ in ext.new_pairs}

    images, extra, not_dyck = set(), {}, []
    for tr in dprime:
        image = "".join(map(phi.__getitem__, tr))
        images.add(image)
        if image not in language:
            extra[tr] = image
        if not in_dk_stack(tuple(map(code.__getitem__, tr)), k=ext.k_total):
            not_dyck.append(tr)

    def text(tr):
        return render_dyck_word(tuple(map(code.__getitem__, tr)))

    def in_order(traces):  # only the failures are sorted: length, then names
        return sorted(traces, key=lambda t: (len(t), t))

    extra = [(text(tr), extra[tr]) for tr in in_order(extra)]
    not_dyck = [text(tr) for tr in in_order(not_dyck)]

    missing = [w for w in words if w not in images]
    return CharacterizationReport(
        ok=not (missing or extra or not_dyck),
        max_len=max_len, k_base=ext.k_base, k_total=ext.k_total,
        words=words, trace_count=len(dprime),
        missing=missing, extra=extra, not_dyck=not_dyck)
