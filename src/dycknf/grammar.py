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
import reprlib
from collections import Counter
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter
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


# a Rule from an (lhs, rhs) pair, built without the Python frame of the
# generated Rule.__new__: the parser and the conversions build one per rule
_rule = partial(tuple.__new__, Rule)


class Grammar:
    """A context-free grammar with declaration-ordered symbol lists.

    Its rules are Rules with tuple bodies, as the layers read the fields by
    name and hash the bodies; validate refuses a plain (lhs, rhs) pair.  A
    Grammar is never mutated after construction: the constructor copies
    the lists it is given, and nothing changes the public fields afterwards.
    So the questions every layer asks of a grammar are answered from indexes
    built once, on first use, and cached on the instance:

      * `_defects`: validate's findings, read first by every other index
        and by every public function that builds none, so that each refuses
        an unsound grammar with validate's message;
      * `_by_body`: body -> list of its heads, both in order of first
        occurrence, so that the CNF shape test, the CYK index, the Dyck
        normal form check, serialize, and the start-on-body tests of to_cnf
        and to_dyck_nf work once per distinct body;
      * `_heads`: head -> tuple of its rules in declaration order
        (rules_for, validate_tree, and the terminal stand-in plan of
        to_dyck_nf);
      * `_cnf_index`: None when the grammar is not in Chomsky normal form
        (is_cnf), else the bitsets the cyk module reads: the nonterminals
        in declaration order (bit k stands for the k-th), nonterminal ->
        its bit, terminal -> mask of the heads of its terminal rules,
        left-child bit -> tuple of (right-partner mask, mask of the heads
        of that body), one entry per right partner, so exactly one per left
        symbol in Dyck normal form, and the pair table build_table fills
        as it goes: left mask -> right mask -> mask of the heads of the
        bodies they make.  The table is a pure function of the rules, so
        it can live as long as the grammar;
      * `_binary_bodies`: head -> tuple of its binary bodies (B, C) in
        declaration order, () for a head with none, read off `_heads`: the
        children the CYK tree walks try and the steps the even linear
        recognizer (elin._Search) follows.  It is apart from `_cnf_index`
        so that member, which walks no tree, never builds it;
      * `_dyck_check`: the Dyck normal form violations, and the canonical
        pairing when there are none (dyck_nf_violations and pairing_of),
        read off `_by_body`, without `_cnf_index` or `_heads`;
      * `_brackets`: the bracket map of a Dyck normal form grammar, from
        that pairing: bracket name -> signed pair number (pair k of
        pairing_of is +k / -k), and non-start nonterminal -> its terminal or
        "" (the bracket words of traces, phi and the recognizer).
    """

    def __init__(self, nonterminals, terminals, start, rules):
        self.nonterminals = list(nonterminals)
        self.terminals = list(terminals)
        self.start = start
        self.rules = list(rules)
        self._nt_set = _name_set(self.nonterminals)
        self._t_set = _name_set(self.terminals)

    @cached_property
    def _defects(self):
        return _find_defects(self)

    @cached_property
    def _by_body(self):
        _check(self)
        by_body = {}
        for lhs, rhs in self.rules:
            by_body.setdefault(rhs, []).append(lhs)
        return by_body

    @cached_property
    def _heads(self):
        _check(self)
        heads = {}
        for r in self.rules:
            heads.setdefault(r.lhs, []).append(r)
        return {a: tuple(rules) for a, rules in heads.items()}

    @cached_property
    def _cnf_index(self):
        if _off_cnf(self):
            return None
        names = tuple(self.nonterminals)
        bit = {a: 1 << k for k, a in enumerate(names)}
        by_terminal = {}
        by_left = {}
        for rhs, heads in self._by_body.items():
            # the heads of one body are distinct, so their sum is their OR
            mask = sum(map(bit.__getitem__, heads))
            if len(rhs) == 1:
                by_terminal[rhs[0]] = mask
            else:
                by_left.setdefault(bit[rhs[0]], []).append((bit[rhs[1]], mask))
        return (names, bit, by_terminal,
                {b: tuple(p) for b, p in by_left.items()}, {})

    @cached_property
    def _binary_bodies(self):
        return {a: tuple(r.rhs for r in rules if len(r.rhs) == 2)
                for a, rules in self._heads.items()}

    @cached_property
    def _dyck_check(self):
        return _check_dyck_nf(self)

    @cached_property
    def _brackets(self):
        code = {}
        for k, (left, right) in enumerate(pairing_of(self), start=1):
            code[left], code[right] = k, -k
        letter = {nt: "" for nt in self.nonterminals if nt != self.start}
        letter.update((lhs, rhs[0]) for lhs, rhs in self.rules
                      if len(rhs) == 1 and lhs != self.start)
        return code, letter

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


def _name_set(names):
    """The names as a set, or an empty one when a name is unhashable: the
    constructor leaves that name for validate to refuse, and validate reads
    the sets only after checking that the names are strings."""
    try:
        return set(names)
    except TypeError:
        return set()


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
    over-long body or a repeated rule, where its alternative starts; for an
    empty alternative, just after the '->' or '|' that opens it.  Every
    line's start declaration or rule head is read first, then the start
    symbol is checked, then the bodies are read token by token.  A text with
    several errors reports the first in that order, so an error in a body
    comes after any head or start symbol error.  A line of known tokens
    with no quoted '|' is read per alternative, each distinct alternative
    text once per call; a line with an error goes to the token loop.
    """
    start = None
    heads = {}    # nonterminal -> None, in the order of their first rules
    bodies = []   # (head, body text, line, column where the body starts)
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            if line.lstrip().startswith("#"):
                continue
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
    rules = {}    # rule -> None, in text order
    # the names, '|', 'eps' and each quoted terminal read so far: when every
    # blank-separated piece of a body is one of these, the pieces are its
    # tokens exactly, and the regular expression need not run
    known = {"|", "eps", *heads}
    plain = {}    # alternative text of known tokens -> its body
    for lhs, rhs, lineno, col in bodies:
        rhs += " |"   # so a '|' ends every alternative, the last one too
        tokens = rhs.split()
        if not known.issuperset(tokens):
            tokens = _TOKEN.findall(rhs)
        elif "'|'" not in rhs:
            line_rules = _known_rules(lhs, rhs, plain, rules)
            if line_rules is not None:
                rules.update(line_rules)
                continue
        body = []     # every token of the alternative, up to its '|'
        for i, tok in enumerate(tokens):
            if tok in heads or tok == "eps":
                body.append(tok)
            elif tok == "|":
                first = i - len(body)   # the alternative's first token
                if "eps" in body:
                    if len(body) > 1:
                        raise ParseError(
                            "'eps' cannot be mixed with other symbols",
                            lineno,
                            col + _offset(rhs, first + body.index("eps")))
                    body = []
                elif not body:
                    raise ParseError(
                        "empty alternative (write 'eps' for a lambda rule)",
                        lineno,
                        col + (_offset(rhs, first - 1) + 1 if first else 0))
                elif len(body) > DEFAULT_MAX_RHS:
                    raise ParseError(
                        f"rule body has {len(body)} symbols, limit is "
                        f"{DEFAULT_MAX_RHS}", lineno,
                        col + _offset(rhs, first))
                rule = _rule((lhs, tuple(body)))
                if rule in rules:
                    raise ParseError(f"duplicate rule {rule}", lineno,
                                     col + _offset(rhs, first))
                rules[rule] = None
                body = []
            elif tok[0] == "'" and len(tok) == 3:
                name = tok[1]
                if name in heads:
                    raise ParseError(
                        f"terminal {name!r} collides with a nonterminal of "
                        f"the same name", lineno, col + _offset(rhs, i))
                if name not in terminals:
                    terminals[name] = None
                    known.add(tok)
                body.append(name)
            elif _IDENT.match(tok):
                raise ParseError(f"undeclared symbol {tok!r}", lineno,
                                 col + _offset(rhs, i))
            else:
                raise ParseError(f"unexpected character {tok!r}", lineno,
                                 col + _offset(rhs, i))

    return Grammar(heads, terminals, start, rules)


def _known_rules(lhs, rhs, plain, rules):
    """The rules, as a dict, of a line of known tokens with no quoted '|';
    None when an alternative is empty, mixes 'eps', is over-long or repeats
    a rule.  plain maps each alternative text read so far to its body."""
    line = {}
    for alt in rhs.split("|")[:-1]:
        body = plain.get(alt)
        if body is None:
            pieces = alt.split()
            if (not pieces or len(pieces) > DEFAULT_MAX_RHS
                    or "eps" in pieces and len(pieces) > 1):
                return None
            body = plain[alt] = tuple([p[1] if p[0] == "'" else p
                                       for p in pieces if p != "eps"])
        rule = _rule((lhs, body))
        if rule in line or rule in rules:
            return None
        line[rule] = None
    return line


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
    Each distinct body's text is rendered once, from `_by_body`.
    """
    _check(g)
    with_rules = set(map(itemgetter(0), g.rules))
    for nt in g.nonterminals:
        if nt not in with_rules:
            raise GrammarError(
                f"cannot serialize: nonterminal {nt} has no rules")
    text = {t: f"'{t}'" for t in g.terminals}
    text.update((nt, nt) for nt in g.nonterminals)
    bodies = {}
    for rhs, heads in g._by_body.items():
        if len(rhs) > DEFAULT_MAX_RHS:
            raise GrammarError(
                f"cannot serialize: rule {Rule(heads[0], rhs)} has {len(rhs)} "
                f"body symbols, more than DEFAULT_MAX_RHS={DEFAULT_MAX_RHS}")
        bodies[rhs] = " ".join([text[s] for s in rhs]) or "eps"
    out = [f"start: {g.start}"]
    head = None
    for lhs, rhs in g.rules:
        body = bodies[rhs]
        # a rule under the same head joins its line, another starts one
        out.append(f" | {body}" if lhs == head else f"\n{lhs} -> {body}")
        head = lhs
    return "".join(out) + "\n"


def validate(g, allow_lambda=False):
    """Raise GrammarError on structural defects; return None when sound.

    Checks Rule-typed rules with tuple bodies, string names, symbol
    well-formedness, declaredness, single-character terminals,
    terminal/nonterminal name disjointness, duplicate rules, and (unless
    allow_lambda) no lambda rules.  The check runs at most once per
    Grammar, and every public function refuses with its message.
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
    enumerate_words accepts it.  A sound grammar passes set-level tests that
    run in C; the loop of _first_defect runs only when one fails, or meets
    an unhashable name, to name the first defect."""
    nts, ts, rules = g._nt_set, g._t_set, g.rules
    if ({*map(type, g.nonterminals), *map(type, g.terminals),
         type(g.start)} == {str} and {*map(type, rules)} <= {Rule}
            and len(nts) == len(g.nonterminals) and "eps" not in nts
            and all(map(_IDENT.fullmatch, g.nonterminals))
            and len(ts) == len(g.terminals) and {*map(len, ts)} <= {1}
            and "\n" not in ts and nts.isdisjoint(ts) and g.start in nts):
        bodies = [*map(itemgetter(1), rules)]
        try:
            if ({*map(type, bodies)} <= {tuple}
                    and nts.issuperset(map(itemgetter(0), rules))
                    and (nts | ts).issuperset(chain.from_iterable(bodies))
                    and len(set(rules)) == len(rules)):
                return None, None if all(bodies) else rules[bodies.index(())]
        except TypeError:  # an unhashable name in a rule
            pass
    return _first_defect(g)


def _first_defect(g):
    """_find_defects name by name and rule by rule.  A rule name that is
    not a string fails with a TypeError, caught on that path alone."""
    declared = set()
    for nt in g.nonterminals:
        if not isinstance(nt, str) or not _IDENT.fullmatch(nt) or nt == "eps":
            return f"bad nonterminal name {nt!r}", None
        if nt in declared:
            return f"nonterminal {nt} declared twice", None
        declared.add(nt)
    for t in g.terminals:
        if not isinstance(t, str) or len(t) != 1 or t == "\n":
            return f"terminal {t!r} is not a single character", None
        if t in g._nt_set:
            return f"terminal {t!r} collides with a nonterminal name", None
        if t in declared:
            return f"terminal {t!r} declared twice", None
        declared.add(t)
    if not isinstance(g.start, str) or g.start not in g._nt_set:
        return f"start symbol {g.start!r} is not declared", None
    lambda_rule = None
    seen_rules = set()
    try:
        for r in g.rules:
            if not isinstance(r, Rule):
                return f"rule {r!r} is not a Rule", lambda_rule
            lhs, rhs = r
            if not isinstance(rhs, tuple):
                return (f"body of rule {lhs} is not a tuple: {rhs!r}",
                        lambda_rule)
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
    except TypeError:
        return f"rule {r!r} holds a name that is not a string", lambda_rule
    return None, lambda_rule


# ---- structural predicates ----

def is_cnf(g):
    """True when every rule is head -> terminal or head -> pair of heads."""
    return g._cnf_index is not None


def _off_cnf(g):
    """The rules of g, in order, that are neither head -> terminal nor
    head -> pair of nonterminals: the CNF shape test of is_cnf and of the
    Dyck normal form check.  The shape is tested once per distinct body;
    the rules are listed only when some body fails."""
    nts, ts = g._nt_set, g._t_set
    off = {rhs for rhs in g._by_body
           if not (len(rhs) == 1 and rhs[0] in ts
                   or len(rhs) == 2 and rhs[0] in nts and rhs[1] in nts)}
    return [r for r in g.rules if r[1] in off] if off else []


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
    """(violations, pairing): the pairing is None unless there are none.
    After the CNF shape test, one pass over the distinct bodies finds the
    pairs and the conflicts.  A body's violations are reported once per
    rule with that body, so the rules are walked only when some body is at
    fault.  The check builds neither the CYK index nor the head index."""
    off = _off_cnf(g)
    if off:
        return tuple(("not-cnf", str(r)) for r in off), None

    pairs = []
    lefts = {}
    rights = {}
    faults = {}  # body -> its conflicts, when they or the start are there
    start = g.start
    for rhs in g._by_body:
        if len(rhs) == 1:
            continue
        b, c = rhs
        found = []
        if b in lefts and lefts[b] != c:
            found.append(("left-conflict", b, lefts[b], c))
        if c in rights and rights[c] != b:
            found.append(("right-conflict", c, rights[c], b))
        if found or start == b or start == c:
            faults[rhs] = found
        if b not in lefts and c not in rights:
            pairs.append(rhs)
        lefts.setdefault(b, c)
        rights.setdefault(c, b)
    violations = []
    for r in g.rules if faults else ():
        found = faults.get(r[1])
        if found is not None:
            if start in r[1]:
                violations.append(("start-on-rhs", str(r)))
            violations += found
    violations.extend(("both-sides", nt) for nt in lefts if nt in rights)
    size = Counter(map(itemgetter(0), g.rules))
    mixed = {h for rhs, heads in g._by_body.items() if len(rhs) == 1
             for h in heads if size[h] > 1}
    violations.extend(("mixed-terminal", nt) for nt in g.nonterminals
                      if nt != start and nt in mixed)
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

    Raises GrammarError if not, or if a node is neither a terminal string
    nor a (label, children) tuple with a tuple of children.  Returns the
    tree's internal labels in preorder (depth first, left to right), the
    root first.
    """
    heads = g._heads
    if isinstance(tree, str):
        raise GrammarError(f"root of a parse tree must be a nonterminal node,"
                           f" got leaf {tree!r}")
    terminals = g._t_set
    labels = []
    node = tree
    try:
        label, _ = tree
        if label != g.start:
            raise GrammarError(f"tree root is {label}, expected {g.start}")
        # preorder on an explicit stack, so deep trees need no recursion
        stack = [tree]
        while stack:
            node = stack.pop()
            if not isinstance(node, tuple):
                if node not in terminals:
                    raise GrammarError(f"leaf {node!r} is not a terminal")
                continue
            label, children = node
            if not isinstance(children, tuple):
                raise TypeError("children are not a tuple")
            rhs = tuple(c if isinstance(c, str) else c[0] for c in children)
            if (label, rhs) not in heads.get(label, ()):
                raise GrammarError(f"tree applies {Rule(label, rhs)}, "
                                   f"which is not a rule of the grammar")
            labels.append(label)
            stack.extend(reversed(children))
    except GrammarError:
        raise
    except (TypeError, ValueError, IndexError) as e:
        raise _malformed_tree(node, e) from None
    return labels


def _malformed_tree(node, error):
    # the node is shown abridged, so a deep one prints short
    return GrammarError(
        f"malformed parse tree node {reprlib.repr(node)}: {error}")


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
    """base itself if unused, else base_2, base_3, ... deterministic.  The
    name returned is added to the set `used`."""
    name = base
    k = 2
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def find_isomorphism(g1, g2):
    """A nonterminal renaming that turns g1 into g2, or None.

    The renaming must map start to start, fix all terminals, and carry the
    rule set of g1 exactly onto the rule set of g2.  Rule order and symbol
    declaration order are ignored.  Color refinement prunes the search, and
    the backtracking (over an explicit stack) checks each rule of g1 once,
    at the step that maps the last of its nonterminals in search order; a
    partial renaming is dropped as soon as it sends a rule outside g2.
    Once every rule has landed in g2 the two rule sets are equal, since
    the sizes match, the renaming is injective and the rules are distinct.
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
    rank = {nt: k for k, nt in enumerate(order)}
    # due[k]: the rules whose last nonterminal in search order is order[k]
    due = [[] for _ in order]
    for r in g1.rules:
        due[max(rank.get(s, -1) for s in (r.lhs,) + r.rhs)].append(r)
    rules2 = set(g2.rules)
    mapping = {}
    used = set()
    # stack[k] iterates the candidates for order[k]; order[k] is mapped
    # while the search sits deeper than k
    stack = [iter(by_color[c1[order[0]]])]
    while stack:
        k = len(stack) - 1
        a = order[k]
        if a in mapping:
            used.discard(mapping.pop(a))
        for b in stack[-1]:
            if b not in used:
                mapping[a] = b
                if all((mapping[lhs], tuple(mapping.get(s, s) for s in rhs))
                       in rules2 for lhs, rhs in due[k]):
                    used.add(b)
                    break
                del mapping[a]
        else:
            stack.pop()
            continue
        if k + 1 == len(order):
            return mapping
        stack.append(iter(by_color[c1[order[k + 1]]]))
    return None


def _refine_colors(g1, g2):
    """Stable color refinement of both grammars' nonterminals.

    A nonterminal's next color stands for its color, the colors of its own
    bodies, and the (head color, position, body colors) of each place it
    occurs in; terminals keep fixed negative colors.  Each round builds
    these signatures in one pass over the rules.  Every round numbers the
    new colors 0, 1, ... from one table shared by the two grammars, so
    equal colors mean equal histories across them.  Rounds stop when no
    class splits.
    """
    grammars = (g1, g2)
    fixed = {t: -1 - k for k, t in enumerate(sorted(g1.terminals))}
    colors = [{**fixed, **{nt: int(nt == g.start) for nt in g.nonterminals}}
              for g in grammars]
    count = len({c[nt] for g, c in zip(grammars, colors)
                 for nt in g.nonterminals})
    while True:
        table = {}
        new = []
        for g, color in zip(grammars, colors):
            own = {nt: [] for nt in g.nonterminals}
            seen = {nt: [] for nt in g.nonterminals}
            for r in g.rules:
                body = tuple(color[s] for s in r.rhs)
                own[r.lhs].append(body)
                for k, s in enumerate(r.rhs):
                    if s in seen:
                        seen[s].append((color[r.lhs], k) + body)
            nxt = dict(fixed)
            for nt in g.nonterminals:
                nxt[nt] = table.setdefault(
                    (color[nt], tuple(sorted(own[nt])),
                     tuple(sorted(seen[nt]))), len(table))
            new.append(nxt)
        if len(table) == count:
            return colors
        colors, count = new, len(table)
