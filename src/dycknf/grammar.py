"""Context-free grammars with ordered symbols and a small text format.

A Grammar keeps its nonterminals and terminals in declaration order because
several constructions in this package (fresh-name generation, canonical
bracket numbering, golden conversions) must be reproducible run to run.
Nonterminals are identifiers, terminals are single characters, and words are
ordinary strings with one character per terminal.

The text format, one grammar per file:

    # comment lines start with '#'
    start: E
    E -> 'a' | T '*' R | E '+' T
    T -> 'a' | T '*' R
    R -> 'a'

Quoted single characters are terminals (any character but a newline, so
'|', ''' and '#' included), bare identifiers are nonterminals, and the
reserved word `eps` denotes an empty right-hand side.  A nonterminal
is declared by appearing on the left of some rule; using an identifier that
is never declared is an error.  Repeating a left-hand side on several lines
appends alternatives.

Parse trees are plain tuples: an internal node is (label, children) where
children is a tuple of subtrees, and a leaf is the bare terminal string.
Tuples keep trees hashable, which the tree-enumeration code relies on.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple


class GrammarError(ValueError):
    """A grammar is structurally unusable for the requested operation."""


class ParseError(GrammarError):
    """Bad grammar text.  Carries 1-based line and column of the offense.

    An error about the start symbol points at the `start:` of its
    declaration.  A missing declaration has no place in the text, so it is
    reported at line 1, col 1.
    """

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ResourceLimitError(RuntimeError):
    """An exhaustive computation outgrew its configured budget."""


class Rule(NamedTuple):
    """One production.  rhs is a tuple of symbol names; () is a lambda rule.

    A Rule is the plain tuple (lhs, rhs) with named, read-only fields: it
    equals that tuple and hashes like it, and both run in C.
    """

    lhs: str
    rhs: tuple

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs) if self.rhs else 'eps'}"


class Grammar:
    """A context-free grammar with declaration-ordered symbol lists.

    A Grammar is never mutated after construction: the constructor copies
    the lists it is given, and nothing changes the public fields afterwards.
    So the questions every layer asks of a grammar are answered from indexes
    built once, on first use, and cached on the instance:

      * `_defects`: validate's findings, read first by every other index
        and by every public function that builds none, so that each refuses
        an unsound grammar with validate's message;
      * `_heads`: head -> tuple of its rules in declaration order
        (rules_for, validate_tree and the CYK tree walks);
      * `_cnf_index`: None when the grammar is not in Chomsky normal form
        (is_cnf), else the bitsets the cyk module reads: the nonterminals
        in declaration order (bit k stands for the k-th), nonterminal ->
        its bit, terminal -> mask of the heads of its terminal rules, and
        left-child bit -> tuple of (right-partner mask, mask of the heads
        of that body), one entry per right partner, so exactly one per left
        symbol in Dyck normal form;
      * `_dyck_check`: the Dyck normal form violations, and the canonical
        pairing when there are none (dyck_nf_violations and pairing_of).
    """

    def __init__(self, nonterminals, terminals, start, rules):
        self.nonterminals = list(nonterminals)
        self.terminals = list(terminals)
        self.start = start
        self.rules = list(rules)
        self._nt_set = set(self.nonterminals)
        self._t_set = set(self.terminals)

    @cached_property
    def _defects(self):
        return _find_defects(self)

    @cached_property
    def _heads(self):
        _check(self)
        heads = {}
        for r in self.rules:
            heads.setdefault(r.lhs, []).append(r)
        return {a: tuple(rules) for a, rules in heads.items()}

    @cached_property
    def _cnf_index(self):
        # _is_cnf_rule's test, inlined: the member verb builds this index
        # once per grammar it parses, and those reach ~1,000 rules
        _check(self)
        names = tuple(self.nonterminals)
        bit = {a: 1 << k for k, a in enumerate(names)}
        by_terminal = {}
        by_body = {}
        for lhs, rhs in self.rules:
            if len(rhs) == 1 and rhs[0] in self._t_set:
                by_terminal[rhs[0]] = by_terminal.get(rhs[0], 0) | bit[lhs]
            elif len(rhs) == 2 and rhs[0] in bit and rhs[1] in bit:
                by_body[rhs] = by_body.get(rhs, 0) | bit[lhs]
            else:
                return None
        by_left = {}
        for (b, c), heads in by_body.items():
            by_left.setdefault(bit[b], []).append((bit[c], heads))
        return (names, bit, by_terminal,
                {b: tuple(p) for b, p in by_left.items()})

    @cached_property
    def _dyck_check(self):
        return _check_dyck_nf(self)

    def is_nonterminal(self, name):
        return name in self._nt_set

    def is_terminal(self, name):
        return name in self._t_set

    def rules_for(self, nt):
        return list(self._heads.get(nt, ()))

    def __eq__(self, other):
        if not isinstance(other, Grammar):
            return NotImplemented
        return (self.nonterminals == other.nonterminals
                and self.terminals == other.terminals
                and self.start == other.start
                and self.rules == other.rules)

    def __hash__(self):
        return hash((tuple(self.nonterminals), tuple(self.terminals),
                     self.start, tuple(self.rules)))

    def __repr__(self):
        return (f"Grammar(start={self.start!r}, |N|={len(self.nonterminals)}, "
                f"|T|={len(self.terminals)}, |P|={len(self.rules)})")


# ---- text format ----

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# a right-hand side's tokens: a quoted terminal, a name, or any other
# visible character ('|' among them)
_TOKEN = re.compile(r"'[^\n]'|[A-Za-z][A-Za-z0-9_]*|\S")
# a line up to its comment: '#' starts one anywhere outside a quoted terminal
_CODE = re.compile(r"(?:'[^\n]'|[^#])*")

DEFAULT_MAX_RHS = 8


def parse_grammar(text):
    """Parse grammar text into a Grammar.

    Raises ParseError with the line and column of the offense: where the
    bad token starts; for a start symbol that is repeated, malformed or
    without rules, where the `start:` of its declaration starts; for an
    over-long body or a repeated rule, where its alternative starts; for an empty alternative, just after the '->' or
    '|' that opens it.  Every line's start declaration or rule head is read
    first, then the start symbol is checked, then the bodies are read token
    by token.  A text with several errors reports the first in that order,
    so an error in a body comes after any head or start symbol error.
    """
    start = None
    heads = {}    # nonterminal -> None, in the order of their first rules
    bodies = []   # (head, body text, line, column where the body starts)
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = _CODE.match(line).group()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("start:"):
            at = (lineno, line.index("start:") + 1)
            if start is not None:
                raise ParseError("duplicate start declaration", *at)
            name = stripped[len("start:"):].strip()
            if not _IDENT.fullmatch(name):
                raise ParseError(f"bad start symbol {name!r}", *at)
            start, start_at = name, at
            continue
        lhs_text, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("expected 'start:' or a rule with '->'",
                             lineno, 1)
        lhs = lhs_text.strip()
        if lhs not in heads:
            if not _IDENT.fullmatch(lhs):
                raise ParseError(f"bad rule head {lhs!r}", lineno, 1)
            if lhs == "eps":
                raise ParseError(
                    "'eps' is reserved and cannot name a nonterminal",
                    lineno, 1)
            heads[lhs] = None
        bodies.append((lhs, rhs, lineno, len(lhs_text) + 3))

    if start is None:
        raise ParseError("missing 'start:' declaration", 1, 1)
    if start not in heads:
        raise ParseError(f"start symbol {start!r} has no rules", *start_at)

    terminals = {}
    rules = []
    seen = set()
    for lhs, rhs, lineno, col in bodies:
        rhs += " |"   # so a '|' ends every alternative, the last one too
        body = []
        first = 0     # the index of the alternative's first token
        eps = None    # the index of its first 'eps'
        for i, tok in enumerate(_TOKEN.findall(rhs)):
            if tok in heads:
                body.append(tok)
            elif tok == "|":
                if eps is not None and len(body) > 1:
                    raise ParseError(
                        "'eps' cannot be mixed with other symbols", lineno,
                        col + _offset(rhs, eps))
                if not body:
                    raise ParseError(
                        "empty alternative (write 'eps' for a lambda rule)",
                        lineno,
                        col + (_offset(rhs, first - 1) + 1 if first else 0))
                if len(body) > DEFAULT_MAX_RHS:
                    raise ParseError(
                        f"rule body has {len(body)} symbols, limit is "
                        f"{DEFAULT_MAX_RHS}", lineno,
                        col + _offset(rhs, first))
                rule = Rule(lhs, () if eps is not None else tuple(body))
                if rule in seen:
                    raise ParseError(f"duplicate rule {rule}", lineno,
                                     col + _offset(rhs, first))
                seen.add(rule)
                rules.append(rule)
                body = []
                first = i + 1
                eps = None
            elif tok[0] == "'" and len(tok) == 3:
                name = tok[1]
                if name in heads:
                    raise ParseError(
                        f"terminal {name!r} collides with a nonterminal of "
                        f"the same name", lineno, col + _offset(rhs, i))
                if name not in terminals:
                    terminals[name] = None
                body.append(name)
            elif tok == "eps":
                if eps is None:
                    eps = i
                body.append(tok)
            elif _IDENT.match(tok):
                raise ParseError(f"undeclared symbol {tok!r}", lineno,
                                 col + _offset(rhs, i))
            else:
                raise ParseError(f"unexpected character {tok!r}", lineno,
                                 col + _offset(rhs, i))

    return Grammar(heads, terminals, start, rules)


def _offset(rhs, i):
    """Where the i-th token of rhs starts, as an index into rhs."""
    return list(_TOKEN.finditer(rhs))[i].start()


def serialize(g):
    """Render a grammar in the text format.

    Consecutive rules with the same head are folded into one line, and
    parse_grammar reads the text back to the same start symbol and rules.
    parse(serialize(g)) == g holds only when g lists its nonterminals in the
    order their first rules appear and its terminals in the order they first
    appear in rule bodies, with no unused terminal, as a parsed grammar does.
    A grammar validate refuses (lambda rules aside) raises its GrammarError;
    so do a nonterminal with no rules and a body longer than DEFAULT_MAX_RHS.
    """
    _check(g)
    heads = {r.lhs for r in g.rules}
    for nt in g.nonterminals:
        if nt not in heads:
            raise GrammarError(
                f"cannot serialize: nonterminal {nt} has no rules")
    for r in g.rules:
        if len(r.rhs) > DEFAULT_MAX_RHS:
            raise GrammarError(
                f"cannot serialize: rule {r} has {len(r.rhs)} body symbols, "
                f"more than DEFAULT_MAX_RHS={DEFAULT_MAX_RHS}")
    text = {t: f"'{t}'" for t in g.terminals}
    text.update((nt, nt) for nt in g.nonterminals)
    lines = [f"start: {g.start}"]
    for lhs, rules in groupby(g.rules, attrgetter("lhs")):
        alts = " | ".join(" ".join([text[s] for s in r.rhs]) or "eps"
                          for r in rules)
        lines.append(f"{lhs} -> {alts}")
    return "\n".join(lines) + "\n"


def validate(g, allow_lambda=False):
    """Raise GrammarError on structural defects; return None when sound.

    Checks symbol well-formedness, declaredness, single-character terminals,
    terminal/nonterminal name disjointness, duplicate rules, and (unless
    allow_lambda) the absence of lambda rules.  The check runs at most once
    per Grammar, and every public function refuses with its message.
    """
    _check(g, allow_lambda)


def _check(g, allow_lambda=True):
    """validate with lambda rules let through unless allow_lambda is False."""
    defect, lambda_rule = g._defects
    if lambda_rule is not None and not allow_lambda:
        defect = f"lambda rule {lambda_rule} is not allowed here"
    if defect is not None:
        raise GrammarError(defect)


def _find_defects(g):
    """(message of g's first defect, first lambda rule before it), None
    where there is none; a lambda rule is recorded, not refused, since only
    enumerate_words accepts it."""
    declared = set()
    for nt in g.nonterminals:
        if not _IDENT.fullmatch(nt) or nt == "eps":
            return f"bad nonterminal name {nt!r}", None
        if nt in declared:
            return f"nonterminal {nt} declared twice", None
        declared.add(nt)
    for t in g.terminals:
        if len(t) != 1 or t == "\n":
            return f"terminal {t!r} is not a single character", None
        if t in g._nt_set:
            return f"terminal {t!r} collides with a nonterminal name", None
        if t in declared:
            return f"terminal {t!r} declared twice", None
        declared.add(t)
    if g.start not in g._nt_set:
        return f"start symbol {g.start!r} is not declared", None
    lambda_rule = None
    seen_rules = set()
    for r in g.rules:
        lhs, rhs = r
        if lhs not in g._nt_set:
            return f"rule head {lhs!r} is not declared", lambda_rule
        if not rhs and lambda_rule is None:
            lambda_rule = r
        for s in rhs:
            if s not in declared:
                return f"undeclared symbol {s!r} in rule {r}", lambda_rule
        if r in seen_rules:
            return f"duplicate rule {r}", lambda_rule
        seen_rules.add(r)
    return None, lambda_rule


# ---- structural predicates ----

def is_cnf(g):
    """True when every rule is head -> terminal or head -> pair of heads."""
    return g._cnf_index is not None


def _is_cnf_rule(g, r):
    return (len(r.rhs) == 1 and g.is_terminal(r.rhs[0])
            or len(r.rhs) == 2 and g.is_nonterminal(r.rhs[0])
            and g.is_nonterminal(r.rhs[1]))


def dyck_nf_violations(g):
    """All reasons g fails to be in Dyck normal form, as (code, *info) tuples.

    Dyck normal form: Chomsky normal form where additionally
      * a non-start nonterminal with a terminal rule has no other rule
        ("mixed-terminal"),
      * no nonterminal occurs both as a left child and as a right child of
        binary rules ("both-sides"),
      * co-occurrence in binary bodies is a perfect pairing: a right child
        determines its left child and vice versa ("left-conflict",
        "right-conflict"),
      * the start symbol stays off every right-hand side ("start-on-rhs"),
        so that the bracket structure below covers the whole parse tree.
    """
    return list(g._dyck_check[0])


def _check_dyck_nf(g):
    """(violations, pairing): the pairing is None unless there are none."""
    if not is_cnf(g):
        return tuple(("not-cnf", str(r)) for r in g.rules
                     if not _is_cnf_rule(g, r)), None

    violations = []
    pairs = []
    lefts = {}
    rights = {}
    for r in g.rules:
        if len(r.rhs) != 2:
            continue
        b, c = r.rhs
        if g.start in (b, c):
            violations.append(("start-on-rhs", str(r)))
        if b in lefts and lefts[b] != c:
            violations.append(("left-conflict", b, lefts[b], c))
        if c in rights and rights[c] != b:
            violations.append(("right-conflict", c, rights[c], b))
        if b not in lefts and c not in rights:
            pairs.append(r.rhs)
        lefts.setdefault(b, c)
        rights.setdefault(c, b)
    violations.extend(("both-sides", nt) for nt in lefts if nt in rights)

    heads = g._heads
    for nt in g.nonterminals:
        if nt == g.start:
            continue
        nt_rules = heads.get(nt, ())
        if len(nt_rules) > 1 and any(len(r.rhs) == 1 for r in nt_rules):
            violations.append(("mixed-terminal", nt))
    return tuple(violations), None if violations else tuple(pairs)


def is_dyck_nf(g):
    return not g._dyck_check[0]


def pairing_of(g):
    """The bracket pairs of a Dyck normal form grammar.

    Returns [(left, right), ...] in order of each pair's first binary rule,
    which is the canonical pair numbering used everywhere in this package
    (pair k of the list is written `[k` / `]k` in Dyck-word text).
    """
    bad, pairs = g._dyck_check
    if bad:
        raise GrammarError(
            f"pairing is only defined in Dyck normal form; violations: "
            f"{list(bad)}")
    return list(pairs)


# ---- parse trees and derivations ----

def tree_yield(tree):
    """The terminal word a parse tree spells out, left to right."""
    letters = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            letters.append(node)
        else:
            stack.extend(reversed(node[1]))
    return "".join(letters)


def tree_label(tree):
    return tree if isinstance(tree, str) else tree[0]


def validate_tree(g, tree):
    """Check that a parse tree of g's start symbol applies only rules of g.

    Raises GrammarError if not.  Returns the tree's internal labels in
    preorder (depth first, left to right), the root first.
    """
    heads = g._heads
    if isinstance(tree, str):
        raise GrammarError(f"root of a parse tree must be a nonterminal node,"
                           f" got leaf {tree!r}")
    label, _ = tree
    if label != g.start:
        raise GrammarError(f"tree root is {label}, expected {g.start}")
    # preorder over an explicit stack, so deep trees cannot exhaust recursion
    terminals = g._t_set
    labels = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            if node not in terminals:
                raise GrammarError(f"leaf {node!r} is not a terminal")
            continue
        label, children = node
        rhs = tuple(c if isinstance(c, str) else c[0] for c in children)
        if (label, rhs) not in heads.get(label, ()):
            raise GrammarError(f"tree applies {Rule(label, rhs)}, "
                               f"which is not a rule of the grammar")
        labels.append(label)
        stack.extend(reversed(children))
    return labels


def leftmost_derivation(g, tree):
    """The leftmost derivation a parse tree encodes, as a list of Rules.

    Simulates actual sentential-form rewriting (see _rewrite).  The result
    is the preorder rule sequence, but the rewriting runs for real so tests
    can compare it against independent tree walks.
    """
    return [Rule(label, tuple(tree_label(c) for c in children))
            for label, children in _rewrite(g, tree)]


def _rewrite(g, tree):
    """Expand the leftmost pending subtree of the form (terminals and
    subtrees) until none is left; yield each subtree as it is expanded."""
    validate_tree(g, tree)
    form = [tree]
    while True:
        idx = next((i for i, x in enumerate(form) if isinstance(x, tuple)),
                   None)
        if idx is None:
            return
        node = form[idx]
        form[idx:idx + 1] = list(node[1])
        yield node


# ---- fresh names and isomorphism ----

def fresh_name(base, used):
    """base itself if unused, else base_2, base_3, ... deterministic."""
    if base not in used:
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


def find_isomorphism(g1, g2):
    """A nonterminal renaming that turns g1 into g2, or None.

    The renaming must map start to start, fix all terminals, and carry the
    rule set of g1 exactly onto the rule set of g2.  Rule order and symbol
    declaration order are ignored.  Color refinement prunes the search, and
    the backtracking (over an explicit stack) drops a partial renaming as
    soon as it sends some fully renamed rule outside g2.
    """
    _check(g1)
    _check(g2)
    if (sorted(g1.terminals), len(g1.nonterminals), len(g1.rules)) != (
            sorted(g2.terminals), len(g2.nonterminals), len(g2.rules)):
        return None
    c1, c2 = _refine_colors(g1, g2)
    if sorted(c1[nt] for nt in g1.nonterminals) != sorted(
            c2[nt] for nt in g2.nonterminals):
        return None

    by_color = {}
    for nt in g2.nonterminals:
        by_color.setdefault(c2[nt], []).append(nt)
    order = sorted(g1.nonterminals, key=lambda nt: len(by_color[c1[nt]]))
    touching = _rules_touching(g1)
    rules2 = set(g2.rules)
    mapping = {}
    used = set()
    # stack[k] iterates the candidates for order[k]; order[k] is mapped
    # while the search sits deeper than k
    stack = [iter(by_color[c1[order[0]]])]
    while stack:
        a = order[len(stack) - 1]
        if a in mapping:
            used.discard(mapping.pop(a))
        for b in stack[-1]:
            if b not in used:
                mapping[a] = b
                if _renames_into(g1, touching[a], mapping, rules2):
                    used.add(b)
                    break
                del mapping[a]
        else:
            stack.pop()
            continue
        if len(stack) < len(order):
            stack.append(iter(by_color[c1[order[len(stack)]]]))
        elif {_rename(r, mapping) for r in g1.rules} == rules2:
            return mapping
    return None


def _refine_colors(g1, g2):
    """Stable color refinement of both grammars' nonterminals.

    A nonterminal's next color stands for its color, the colors of its own
    bodies, and the (head color, position, body colors) of each place it
    occurs in; terminals keep fixed negative colors.  Every round numbers
    the new colors 0, 1, ... from one table shared by the two grammars, so
    equal colors mean equal histories across them.  Rounds stop when no
    class splits.
    """
    grammars = (g1, g2)
    places = []
    for g in grammars:
        at = {nt: [] for nt in g.nonterminals}
        for r in g.rules:
            for k, s in enumerate(r.rhs):
                if s in at:
                    at[s].append((k, r))
        places.append(at)
    fixed = {t: -1 - k for k, t in enumerate(sorted(g1.terminals))}
    colors = [{**fixed, **{nt: int(nt == g.start) for nt in g.nonterminals}}
              for g in grammars]
    count = len({c[nt] for g, c in zip(grammars, colors)
                 for nt in g.nonterminals})
    while True:
        table = {}
        new = []
        for g, color, at in zip(grammars, colors, places):
            heads = g._heads
            nxt = dict(fixed)
            for nt in g.nonterminals:
                own = sorted(tuple(color[s] for s in r.rhs)
                             for r in heads.get(nt, ()))
                seen = sorted((color[r.lhs], k) + tuple(color[s]
                                                        for s in r.rhs)
                              for k, r in at[nt])
                nxt[nt] = table.setdefault(
                    (color[nt], tuple(own), tuple(seen)), len(table))
            new.append(nxt)
        if len(table) == count:
            return colors
        colors, count = new, len(table)


def _rules_touching(g):
    """nonterminal -> the set of rules it heads or occurs in."""
    touching = {nt: set() for nt in g.nonterminals}
    for r in g.rules:
        for s in (r.lhs,) + r.rhs:
            if s in touching:
                touching[s].add(r)
    return touching


def _rename(rule, mapping):
    return Rule(mapping[rule.lhs], tuple(mapping.get(s, s) for s in rule.rhs))


def _renames_into(g, rules, mapping, target):
    """Does each of rules whose nonterminals are all renamed land in target?"""
    for r in rules:
        if all(s in mapping for s in (r.lhs,) + r.rhs
               if g.is_nonterminal(s)) and (
                _rename(r, mapping) not in target):
            return False
    return True
