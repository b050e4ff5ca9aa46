"""Chomsky normal form and Dyck normal form conversions.

Dyck normal form sharpens CNF so that the binary rule bodies behave like
bracket pairs: a nonterminal never shows up both as a left child and as a
right child, and left/right co-occurrence is a perfect matching.  Parse
trees of such a grammar read off as well-nested bracket sequences, which the
dyck and phi modules exploit.

The conversion works in three rewriting steps, each introducing fresh
stand-in nonterminals that take over part of an existing nonterminal's job:

  1. split terminal-rule conflicts: a non-start nonterminal keeps at most a
     single direct terminal rule and, if it also has binary rules, hands the
     terminal rule to a fresh stand-in (`X_t1`, `X_t2`, ...); every move is
     planned before the first is made;
  2. separate sides: each nonterminal that occurs both as a left child and
     as a right child hands its right occurrences to fresh stand-ins, one
     per distinct left neighbor (`X_R1`, ...), which inherit all its rules;
  3. make the pairing: one pass over the binary bodies in rule order; where
     a body shares one element with an earlier body but not the other, the
     shared element's co-occurrence in it moves to a fresh stand-in
     (`X_L1`/`X_R1` by the side it occupies) that inherits the current
     rules of the one it replaces.

All three steps are single forward passes that never restart, and their
rule soup (_Conversion) only appends and rewrites rules, never drops one.

Every stand-in is recorded in a ledger, after the symbol it stands in for,
so one forward read of the ledger takes each stand-in to its original.
Collapsing stand-ins back that way (build_hd / map_tree) turns any parse
tree of the converted grammar into a parse tree of the input, which is how
language preservation is verified cell-by-cell on CYK tables
(verify_equivalence_matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .cyk import build_table
from .grammar import (Grammar, GrammarError, _check, _malformed_tree, _rule,
                      dyck_nf_violations, fresh_name, is_cnf, validate,
                      validate_tree)


@dataclass(frozen=True)
class Substitution:
    """One fresh nonterminal standing in for part of an original's job."""

    fresh: str
    original: str
    kind: str  # "terminal" (took over a terminal rule) or "nonterminal"
    step: int  # conversion step that introduced it: 1, 2 or 3

    def __str__(self):
        return f"{self.fresh} <- {self.original} [{self.kind}] step={self.step}"


def ledger_text(ledger):
    """The ledger in its one-line-per-substitution text form."""
    return "".join(f"{s}\n" for s in ledger)


# ---- useless-symbol removal ----

def _productive(g):
    """The nonterminals of g that derive a terminal word; a GrammarError if
    the start symbol is not one of them."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            if r.lhs not in productive and all(
                    g.is_terminal(s) or s in productive for s in r.rhs):
                productive.add(r.lhs)
                changed = True
    if g.start not in productive:
        raise GrammarError(
            f"start symbol {g.start} derives no terminal word "
            f"(the language is empty)")
    return productive


def cleanup(g):
    """Drop unproductive and unreachable symbols and the rules using them."""
    _check(g)
    productive = _productive(g)
    live = [r for r in g.rules
            if r.lhs in productive
            and all(g.is_terminal(s) or s in productive for s in r.rhs)]
    reachable = {g.start}
    changed = True
    while changed:
        changed = False
        for r in live:
            if r.lhs in reachable:
                for s in r.rhs:
                    if not g.is_terminal(s) and s not in reachable:
                        reachable.add(s)
                        changed = True
    rules = [r for r in live if r.lhs in reachable]
    used_terminals = {s for r in rules for s in r.rhs if g.is_terminal(s)}
    return Grammar([nt for nt in g.nonterminals if nt in reachable],
                   [t for t in g.terminals if t in used_terminals],
                   g.start, rules)


# ---- Chomsky normal form ----

def to_cnf(g):
    """Convert a lambda-free grammar to Chomsky normal form.

    Input that is already in CNF with its start symbol off every rhs comes
    back unchanged (object identity), useless symbols included, so the
    conversion is idempotent and safe to apply defensively.  Any other
    input is converted on one rule list, in order: (1) if the start occurs
    in a body, a fresh start `S0` with copies of its rules goes first;
    (2) terminals inside longer bodies move behind fresh `Lit_` heads, and
    long bodies split into chains of binary rules through fresh `X_tail`
    heads; (3) unit rules go, and after the other rules each nonterminal
    in declaration order gets the rules of those its unit rules reach,
    transitively and breadth first, unless it has them already; (4)
    cleanup prunes useless symbols and rejects an empty language.
    """
    validate(g)
    start_in_body = g.start in chain.from_iterable(g._by_body)
    if not start_in_body and is_cnf(g):
        return g

    used = set(g.nonterminals) | set(g.terminals)
    start, nts, rules_in = g.start, list(g.nonterminals), g.rules
    if start_in_body:
        _productive(g)  # refuse an empty language under the input's start
        start = fresh_name(f"{g.start}0", used)
        nts.insert(0, start)
        rules_in = [_rule((start, r.rhs)) for r in g.rules
                    if r.lhs == g.start] + rules_in

    terminals = g._t_set
    lit = {}
    tails = []
    units = {}   # head -> the targets of its unit rules, in rule order
    rules = []
    for lhs, rhs in rules_in:
        if len(rhs) == 1 and rhs[0] not in terminals:
            units.setdefault(lhs, []).append(rhs[0])
            continue
        body = list(rhs)
        for k, s in enumerate(rhs):
            if len(rhs) > 1 and s in terminals:
                if s not in lit:
                    safe = s if s.isalnum() else f"u{ord(s):04x}"
                    lit[s] = fresh_name(f"Lit_{safe}", used)
                body[k] = lit[s]
        head = lhs
        while len(body) > 2:
            name = fresh_name(f"{lhs}_tail", used)
            tails.append(name)
            rules.append(_rule((head, (body[0], name))))
            head = name
            body = body[1:]
        rules.append(_rule((head, tuple(body))))
    rules += [_rule((name, (t,))) for t, name in lit.items()]
    nts += list(lit.values()) + tails

    heads = {}
    for lhs, rhs in rules:
        heads.setdefault(lhs, []).append(rhs)
    seen = set(rules)
    for nt in [a for a in nts if a in units]:
        targets = [nt]
        for cur in targets:
            for tgt in units.get(cur, ()):
                if tgt not in targets:
                    targets.append(tgt)
        for tgt in targets[1:]:
            for rhs in heads.get(tgt, ()):
                cand = _rule((nt, rhs))
                if cand not in seen:
                    seen.add(cand)
                    rules.append(cand)

    result = cleanup(Grammar(nts, g.terminals, start, rules))
    if not is_cnf(result):
        raise AssertionError("CNF conversion postcondition failed")
    return result


# ---- Dyck normal form ----

class _Conversion:
    """Rule soup for the three conversion steps, which only append rules
    and rewrite them in place.

    Next to the rule list it keeps the positions of each head's rules and of
    each body's rules in that list, so the steps look rules up instead of
    rescanning the list; add and stand_in's rule inheritance append to all
    three.  A step adds or rewrites only rules that hold a symbol it has
    just minted, one per source rule and place, so no rule repeats and the
    soup needs no duplicate check.  Rules are built by grammar._rule, with
    no Python frame per rule.
    """

    def __init__(self, g, left_out):
        self.nts = list(g.nonterminals)
        self.used = set(self.nts) | set(g.terminals)
        self.counters = {}
        self.ledger = []
        self.rules = []
        self.by_head = {}
        self.by_body = {}
        for r in g.rules:
            if r not in left_out:
                self.add(r)

    def fresh(self, base, tag, kind, step):
        k = self.counters.get((base, tag), 0) + 1
        name = f"{base}_{tag}{k}"
        while name in self.used:
            k += 1
            name = f"{base}_{tag}{k}"
        self.counters[(base, tag)] = k
        self.used.add(name)
        self.nts.append(name)
        self.ledger.append(Substitution(name, base, kind, step))
        return name

    def add(self, rule):
        self.by_head.setdefault(rule.lhs, []).append(len(self.rules))
        self.by_body.setdefault(rule.rhs, []).append(len(self.rules))
        self.rules.append(rule)

    def stand_in(self, body, side, step):
        """Mint a stand-in for the `side` ("L" or "R") element of `body`,
        rewrite every rule with that body to use it, and give it the current
        rules of the symbol it replaces."""
        b, c = body
        old = b if side == "L" else c
        f = self.fresh(old, side, "nonterminal", step)
        new = (f, c) if side == "L" else (b, f)
        rules = self.rules
        at = self.by_body.pop(body)
        for i in at:
            rules[i] = _rule((rules[i][0], new))
        self.by_body[new] = at
        # the inherited rules; every body in the soup has its by_body entry
        inherited = self.by_head[f] = []
        for i in self.by_head.get(old, ()):
            rhs = rules[i][1]
            inherited.append(len(rules))
            self.by_body[rhs].append(len(rules))
            rules.append(_rule((f, rhs)))


def to_dyck_nf(g):
    """Convert a CNF grammar to Dyck normal form.

    Returns (converted grammar, substitution ledger).  The input must be in
    Chomsky normal form with its start symbol off every right-hand side
    (to_cnf guarantees both).  The output derives exactly the same words,
    which callers can and should check via the enumeration oracle or
    verify_equivalence_matrices.
    """
    if not is_cnf(g):
        raise GrammarError(
            "Dyck normal form conversion needs Chomsky normal form input; "
            "run to_cnf first")
    if g.start in chain.from_iterable(g._by_body):
        r = next(r for r in g.rules if g.start in r.rhs)
        raise GrammarError(
            f"start symbol {g.start} occurs in rule body {r}; introduce "
            f"a fresh start first (to_cnf does this)")

    st = _split_terminal_conflicts(g)
    _separate_sides(st)
    _make_pairing(st)
    out = Grammar(st.nts, g.terminals, g.start, st.rules)
    bad = dyck_nf_violations(out)
    if bad:
        raise AssertionError(f"conversion postcondition failed: {bad}")
    return out, tuple(st.ledger)


def _duplicate_occurrences(st, old, new):
    """For each binary body using `old`, add the variants with `new` in some
    or all of its places.

    The original rules stay: the stand-in is an alternative reading, not a
    replacement, at this step.  A body using `old` twice gets all three
    variants, in the order (new, old), (old, new), (new, new).
    """
    for lhs, (b, c) in [r for r in st.rules if len(r.rhs) == 2]:
        for y in (c, new) if c == old else (c,):
            for x in (b, new) if b == old else (b,):
                if (x, y) != (b, c):
                    st.add(_rule((lhs, (x, y))))


def _split_terminal_conflicts(g):
    """Step 1: at most one terminal rule per non-start head, and only alone.

    Moves every terminal rule of a non-start head but its first, then the
    first too where the head has a binary rule, to fresh stand-ins.  Stand-ins
    only add binary rules to heads that have one, so the plan is made first
    and the soup it returns starts without the moved rules.
    """
    extra, first = [], []
    heads = g._heads
    for a in g.nonterminals:
        rules_a = heads.get(a, ())
        trules = [r for r in rules_a if len(r.rhs) == 1]
        if a != g.start and trules:
            extra += trules[1:]
            if len(trules) < len(rules_a):
                first.append(trules[0])
    st = _Conversion(g, set(extra + first))
    for tr in extra + first:
        f = st.fresh(tr.lhs, "t", "terminal", 1)
        st.add(_rule((f, tr.rhs)))
        _duplicate_occurrences(st, tr.lhs, f)
    return st


def _separate_sides(st):
    """Step 2: no nonterminal both as a left child and as a right child.

    The offender's right occurrences move to fresh stand-ins, one per
    distinct left neighbor; each stand-in inherits all of the offender's
    current rules (even if the offender itself ends up unreachable, its
    rules stay - reachability is not this step's business).

    One scan at the start finds the offenders and their left neighbors, in
    order of first occurrence, and both stay exact: a stand-in is only ever
    a right child, a fix rewrites only the offender's own right
    occurrences, and inherited bodies repeat bodies that already exist.
    """
    lefts = set()
    neighbors = {}
    for r in st.rules:
        if len(r.rhs) == 2:
            lefts.add(r.rhs[0])
            neighbors.setdefault(r.rhs[1], {})[r.rhs[0]] = None
    for a in [nt for nt in st.nts if nt in lefts and nt in neighbors]:
        for z in neighbors[a]:
            st.stand_in((z, a), "R", 2)


def _make_pairing(st):
    """Step 3: left/right co-occurrence becomes a perfect matching.

    The canonical partner of a symbol is the one in its first co-occurrence.
    One pass over the binary bodies, in rule order, checks each against
    the canonical partners seen so far.  A conflicting co-occurrence moves
    the shared element to a fresh stand-in (named by the side it occupies)
    which inherits the shared element's current rules, and the rewritten
    body is examined again.

    The pass never restarts: every body the fix rewrites sits at the
    conflict's position or later, and inherited rules are appended, so the
    canonical partners taken from the earlier positions stay valid.
    """
    canon_left = {}
    canon_right = {}
    conflicts = 0
    # fixed before the pass, since every conflict grows the soup
    limit = 4 * len(st.nts) * max(len(st.rules), 1) + 16
    i = 0
    while i < len(st.rules):
        body = st.rules[i].rhs
        if len(body) != 2:
            i += 1
            continue
        b, c = body
        if canon_left.get(c, b) != b:
            side = "R"
        elif canon_right.get(b, c) != c:
            side = "L"
        else:
            canon_left[c] = b
            canon_right[b] = c
            i += 1
            continue
        conflicts += 1
        if conflicts > limit:
            raise AssertionError(f"pairing pass did not stabilize: "
                                 f"{conflicts} conflicts, limit {limit}")
        st.stand_in(body, side, 3)


# ---- collapsing stand-ins back ----

def build_hd(g_dyck, ledger):
    """Total map sending every stand-in chain back to its original symbol.

    Terminals map to themselves.  One forward read of the ledger
    (_ledger_roots) takes a stand-in of a stand-in to the true original.
    A cyclic or out-of-order ledger, or one with a stand-in g_dyck does not
    declare, raises its GrammarError.
    """
    _check(g_dyck)
    root_any, _ = _ledger_roots(g_dyck, ledger)
    hd = {nt: root_any.get(nt, nt) for nt in g_dyck.nonterminals}
    hd.update((t, t) for t in g_dyck.terminals)
    return hd


def map_tree(tree, hd, g_cnf):
    """Relabel a converted-grammar parse tree back into the CNF grammar.

    The relabeled tree is validated against g_cnf: a label hd lacks or a
    failed check means the ledger does not describe the conversion that
    actually happened, so it raises instead of returning garbage.  A
    malformed tree raises validate_tree's refusal of one.
    """
    _check(g_cnf)
    mapped = _relabel(tree, hd)
    try:
        validate_tree(g_cnf, mapped)
    except GrammarError as e:
        raise GrammarError(f"{_OUT_OF_SYNC}: {e}") from e
    return mapped


_OUT_OF_SYNC = ("tree does not collapse into the source grammar "
                "(substitution ledger out of sync)")


def _relabel(tree, hd):
    # postorder over an explicit stack, so deep trees cannot exhaust recursion
    done = []
    stack = [(tree, None)]
    try:
        while stack:
            node, label = stack.pop()
            if isinstance(node, str):
                done.append(node)
            elif label is not None:
                at = len(done) - len(node[1])
                done[at:] = [(label, tuple(done[at:]))]
            else:
                label, children = node
                if not (isinstance(node, tuple)
                        and isinstance(children, tuple)):
                    raise TypeError("not a (label, children) pair of tuples")
                stack.append((node, hd[label]))
                stack.extend((c, None) for c in reversed(children))
    except KeyError as e:
        raise GrammarError(
            f"{_OUT_OF_SYNC}: hd has no entry for {e}") from None
    except (TypeError, ValueError, IndexError) as e:
        raise _malformed_tree(node, e) from None
    return done[0]


def _ledger_roots(g, ledger):
    """The ledger read once, forward, into two maps: each stand-in to the
    original at the top of its chain of substitutions of any kind, and each
    rule-inheriting (nonterminal-kind) stand-in to the top of its chain of
    such substitutions.

    to_dyck_nf records a stand-in before any stand-in for it, so the roots
    of an original are final when a stand-in for it is read.  A ledger out
    of that order, a cycle included, raises GrammarError, and so does a
    stand-in that g does not declare.
    """
    root_any = {}
    root_nt = {}
    originals = set()
    for s in ledger:
        originals.add(s.original)
        if s.fresh in originals:
            raise GrammarError(
                f"ledger lists a stand-in for {s.fresh} before "
                f"{s.fresh} itself")
        root_any[s.fresh] = root_any.get(s.original, s.original)
        if s.kind == "nonterminal":
            root_nt[s.fresh] = root_nt.get(s.original, s.original)
    for x in root_any:
        if not g.is_nonterminal(x):
            raise GrammarError(
                f"ledger stand-in {x} is not a nonterminal of the grammar")
    return root_any, root_nt


# ---- cell-by-cell table equivalence ----

def verify_equivalence_matrices(g_cnf, g_dyck, ledger, w):
    """Compare the CYK tables of original and converted grammar on one word.

    Diagonal cells of the converted table must hold exactly the symbols
    with a rule for that letter whose chain of stand-ins, of any kind, goes
    back to a symbol of the original cell; off-diagonal cells must hold
    exactly the original cell's symbols plus the stand-ins whose chain of
    rule-inheriting substitutions goes back to one of them.

    Returns a list of (i, j, expected, actual) mismatches, the diagonal
    first; empty means the tables agree everywhere, which is the
    cell-by-cell witness that the conversion preserved the language on
    this word.
    """
    v = build_table(g_cnf, w)
    vd = build_table(g_dyck, w)
    root_any, root_nt = _ledger_roots(g_dyck, ledger)
    carriers = {}  # (original, letter) -> the symbols with that rule
    for r in g_dyck.rules:
        if len(r.rhs) == 1:
            carriers.setdefault((root_any.get(r.lhs, r.lhs), r.rhs[0]),
                                set()).add(r.lhs)
    inheritors = {}  # original -> its rule-inheriting stand-ins
    for x, top in root_nt.items():
        inheritors.setdefault(top, set()).add(x)
    n = len(w)
    mismatches = []
    for i in range(1, n + 1):
        expected = set().union(*(carriers.get((x, w[i - 1]), ())
                                 for x in v[(i, i)]))
        if expected != vd[(i, i)]:
            mismatches.append((i, i, sorted(expected), sorted(vd[(i, i)])))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expected = set(v[(i, j)]).union(*(inheritors.get(x, ())
                                              for x in v[(i, j)]))
            if expected != vd[(i, j)]:
                mismatches.append((i, j, sorted(expected),
                                   sorted(vd[(i, j)])))
    return mismatches
