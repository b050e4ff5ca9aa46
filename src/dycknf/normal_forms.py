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
     terminal rule to a fresh stand-in (`X_t1`, `X_t2`, ...);
  2. separate sides: each nonterminal that occurs both as a left child and
     as a right child hands its right occurrences to fresh stand-ins, one
     per distinct left neighbor (`X_R1`, ...), which inherit all its rules;
  3. make the pairing: one pass over the binary bodies in rule order; where
     a body shares one element with an earlier body but not the other, the
     shared element's co-occurrence in it moves to a fresh stand-in
     (`X_L1`/`X_R1` by the side it occupies) that inherits the current
     rules of the one it replaces.

Neither step 2 nor step 3 restarts its search after a fix.

Every stand-in is recorded in a ledger, and collapsing stand-ins back to
their originals (build_hd / map_tree) turns any parse tree of the converted
grammar into a parse tree of the input, which is how language preservation
is verified cell-by-cell on CYK tables (verify_equivalence_matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyk import build_table
from .grammar import (Grammar, GrammarError, Rule, _check,
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

def cleanup(g):
    """Drop unproductive and unreachable symbols and the rules using them."""
    _check(g)
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


def with_fresh_start(g):
    """A copy whose start symbol occurs on no right-hand side.

    If the start already stays off every rhs the grammar is returned as is;
    otherwise a fresh start is prepended that repeats the old start's rules.
    """
    _check(g)
    if all(g.start not in r.rhs for r in g.rules):
        return g
    used = set(g.nonterminals) | set(g.terminals)
    s0 = fresh_name(f"{g.start}0", used)
    rules = [Rule(s0, r.rhs) for r in g.rules if r.lhs == g.start]
    return Grammar([s0] + g.nonterminals, g.terminals, s0, rules + g.rules)


def collapse_units(g):
    """Replace unit rules (a lone nonterminal body) by their targets' rules.

    The other rules keep their order; after them, each nonterminal in
    declaration order gets the rules of the nonterminals its unit rules
    reach, transitively and breadth first, unless it has them already.
    """
    heads = g._heads

    def is_unit(r):
        return len(r.rhs) == 1 and g.is_nonterminal(r.rhs[0])

    rules = [r for r in g.rules if not is_unit(r)]
    seen = set(rules)
    for nt in g.nonterminals:
        targets = [nt]
        for cur in targets:
            for r in heads.get(cur, ()):
                if is_unit(r) and r.rhs[0] not in targets:
                    targets.append(r.rhs[0])
        for tgt in targets[1:]:
            for r in heads.get(tgt, ()):
                if is_unit(r):
                    continue
                cand = Rule(nt, r.rhs)
                if cand not in seen:
                    seen.add(cand)
                    rules.append(cand)
    return Grammar(g.nonterminals, g.terminals, g.start, rules)


# ---- Chomsky normal form ----

def to_cnf(g):
    """Convert a lambda-free grammar to Chomsky normal form.

    Input that is already in CNF with its start symbol off every rhs comes
    back unchanged (object identity), so the conversion is idempotent and
    safe to apply defensively.  Useless symbols are pruned at the end;
    grammars with an empty language are rejected.
    """
    validate(g)
    if is_cnf(g) and all(g.start not in r.rhs for r in g.rules):
        return g

    g = with_fresh_start(g)
    used = set(g.nonterminals) | set(g.terminals)
    nts = list(g.nonterminals)
    rules = list(g.rules)

    # terminals inside long bodies move behind fresh single-rule heads
    lit = {}
    out = []
    for r in rules:
        if len(r.rhs) < 2:
            out.append(r)
            continue
        body = []
        for s in r.rhs:
            if not g.is_terminal(s):
                body.append(s)
                continue
            if s not in lit:
                safe = s if s.isalnum() else f"u{ord(s):04x}"
                name = fresh_name(f"Lit_{safe}", used)
                used.add(name)
                nts.append(name)
                lit[s] = name
            body.append(lit[s])
        out.append(Rule(r.lhs, tuple(body)))
    rules = out + [Rule(name, (t,)) for t, name in lit.items()]

    # long bodies split into chains of binary rules
    out = []
    for r in rules:
        body = list(r.rhs)
        lhs = r.lhs
        while len(body) > 2:
            name = fresh_name(f"{r.lhs}_tail", used)
            used.add(name)
            nts.append(name)
            out.append(Rule(lhs, (body[0], name)))
            lhs = name
            body = body[1:]
        out.append(Rule(lhs, tuple(body)))
    rules = out

    result = cleanup(collapse_units(Grammar(nts, g.terminals, g.start,
                                            rules)))
    if not is_cnf(result):
        raise AssertionError("CNF conversion postcondition failed")
    return result


# ---- Dyck normal form ----

class _Conversion:
    """Mutable rule soup for the three conversion steps.

    Next to the rule list it keeps the positions of each head's rules and of
    each body's rules in that list, so the steps look rules up instead of
    rescanning the list.
    """

    def __init__(self, g):
        self.start = g.start
        self.nts = list(g.nonterminals)
        self.terminals = list(g.terminals)
        self._reset(g.rules)
        self.used = set(self.nts) | set(self.terminals)
        self.counters = {}
        self.ledger = []

    def _reset(self, rules):
        self.rules = []
        self.rule_set = set()
        self.by_head = {}
        self.by_body = {}
        for r in rules:
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
        if rule not in self.rule_set:
            self.by_head.setdefault(rule.lhs, []).append(len(self.rules))
            self.by_body.setdefault(rule.rhs, []).append(len(self.rules))
            self.rules.append(rule)
            self.rule_set.add(rule)

    def remove(self, rule):
        # positions shift, so every index is rebuilt; only step 1 removes
        rules = self.rules
        rules.remove(rule)
        self._reset(rules)

    def replace_at(self, i, rule):
        """Put `rule`, which has the same head, at position i."""
        self.by_body[self.rules[i].rhs].remove(i)
        self.rule_set.discard(self.rules[i])
        self.rules[i] = rule
        self.rule_set.add(rule)
        self.by_body.setdefault(rule.rhs, []).append(i)

    def rules_of(self, nt):
        return [self.rules[i] for i in self.by_head.get(nt, ())]

    def positions_of(self, body):
        return list(self.by_body.get(body, ()))

    def grammar(self):
        return Grammar(self.nts, self.terminals, self.start, self.rules)


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
    for r in g.rules:
        if g.start in r.rhs:
            raise GrammarError(
                f"start symbol {g.start} occurs in rule body {r}; introduce "
                f"a fresh start first (to_cnf does this)")

    st = _Conversion(g)
    _split_terminal_conflicts(st)
    _separate_sides(st)
    _make_pairing(st)
    out = st.grammar()
    bad = dyck_nf_violations(out)
    if bad:
        raise AssertionError(f"conversion postcondition failed: {bad}")
    return out, tuple(st.ledger)


def _duplicate_occurrences(st, old, new):
    """For each binary body using `old`, add the variant(s) using `new`.

    The original rules stay: the stand-in is an alternative reading, not a
    replacement, at this step.  A body using `old` twice gets all three
    variants.
    """
    for r in list(st.rules):
        if len(r.rhs) != 2:
            continue
        b, c = r.rhs
        if b == old and c == old:
            st.add(Rule(r.lhs, (new, old)))
            st.add(Rule(r.lhs, (old, new)))
            st.add(Rule(r.lhs, (new, new)))
        elif b == old:
            st.add(Rule(r.lhs, (new, c)))
        elif c == old:
            st.add(Rule(r.lhs, (b, new)))


def _split_terminal_conflicts(st):
    """Step 1: at most one terminal rule per non-start head, and only alone."""
    # several direct terminal rules: keep the first, fresh stand-ins for the
    # rest
    for a in [nt for nt in st.nts if nt != st.start]:
        trules = [r for r in st.rules_of(a) if len(r.rhs) == 1]
        for tr in trules[1:]:
            f = st.fresh(a, "t", "terminal", 1)
            st.remove(tr)
            st.add(Rule(f, tr.rhs))
            _duplicate_occurrences(st, a, f)
    # a terminal rule next to binary rules: the terminal rule moves out
    for a in [nt for nt in st.nts if nt != st.start]:
        rules_a = st.rules_of(a)
        trules = [r for r in rules_a if len(r.rhs) == 1]
        if trules and len(trules) < len(rules_a):
            f = st.fresh(a, "t", "terminal", 1)
            st.remove(trules[0])
            st.add(Rule(f, trules[0].rhs))
            _duplicate_occurrences(st, a, f)


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
            f = st.fresh(a, "R", "nonterminal", 2)
            for i in st.positions_of((z, a)):
                st.replace_at(i, Rule(st.rules[i].lhs, (z, f)))
            for r in st.rules_of(a):
                st.add(Rule(f, r.rhs))


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
    i = 0
    while i < len(st.rules):
        body = st.rules[i].rhs
        if len(body) != 2:
            i += 1
            continue
        b, c = body
        if canon_left.get(c, b) != b:
            shared, side = c, "R"
        elif canon_right.get(b, c) != c:
            shared, side = b, "L"
        else:
            canon_left[c] = b
            canon_right[b] = c
            i += 1
            continue
        conflicts += 1
        if conflicts > 4 * len(st.nts) * max(len(st.rules), 1) + 16:
            raise AssertionError("pairing pass did not stabilize")
        f = st.fresh(shared, side, "nonterminal", 3)
        replacement = (b, f) if side == "R" else (f, c)
        for j in st.positions_of(body):
            st.replace_at(j, Rule(st.rules[j].lhs, replacement))
        for r in st.rules_of(shared):
            st.add(Rule(f, r.rhs))


# ---- collapsing stand-ins back ----

def build_hd(g_dyck, ledger):
    """Total map sending every stand-in chain back to its original symbol.

    Terminals map to themselves.  Composing the ledger transitively means a
    stand-in of a stand-in still collapses to the true original.
    """
    _check(g_dyck)
    parent = {s.fresh: s.original for s in ledger}
    hd = {}
    for nt in g_dyck.nonterminals:
        root = nt
        while root in parent:
            root = parent[root]
        hd[nt] = root
    for t in g_dyck.terminals:
        hd[t] = t
    return hd


def map_tree(tree, hd, g_cnf):
    """Relabel a converted-grammar parse tree back into the CNF grammar.

    The relabeled tree is validated against g_cnf: a failure here means the
    ledger does not describe the conversion that actually happened, so it
    raises instead of returning garbage.
    """
    _check(g_cnf)
    mapped = _relabel(tree, hd)
    try:
        validate_tree(g_cnf, mapped)
    except GrammarError as e:
        raise GrammarError(
            f"collapsed tree is not valid in the source grammar "
            f"(substitution ledger out of sync): {e}") from e
    return mapped


def _relabel(tree, hd):
    # postorder over an explicit stack, so deep trees cannot exhaust recursion
    done = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, str):
            done.append(node)
        elif expanded:
            at = len(done) - len(node[1])
            done[at:] = [(hd[node[0]], tuple(done[at:]))]
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node[1]))
    return done[0]


# ---- cell-by-cell table equivalence ----

def _closures(ledger):
    """Descendant sets over the ledger: all stand-in chains, and the chains
    that use only rule-inheriting (nonterminal-kind) substitutions.

    One pass over the ledger in reverse: to_dyck_nf records a stand-in
    before any stand-in for it, so a fresh symbol's own sets are complete
    when its entry is reached.
    """
    desc_any = {}
    desc_nt = {}
    done = set()
    for s in reversed(ledger):
        if s.original in done:
            raise GrammarError(
                f"ledger lists a stand-in for {s.original} before "
                f"{s.original} itself")
        done.add(s.fresh)
        below = desc_any.setdefault(s.original, set())
        below.add(s.fresh)
        below.update(desc_any.get(s.fresh, ()))
        if s.kind == "nonterminal":
            below = desc_nt.setdefault(s.original, set())
            below.add(s.fresh)
            below.update(desc_nt.get(s.fresh, ()))
    return desc_any, desc_nt


def verify_equivalence_matrices(g_cnf, g_dyck, ledger, w):
    """Compare the CYK tables of original and converted grammar on one word.

    Diagonal cells of the converted table must hold exactly the stand-ins
    (terminal-rule carriers, reached through chains of any kind) of the
    original cell's symbols for that letter; off-diagonal cells must hold
    exactly the originals plus their rule-inheriting stand-in chains.

    Returns a list of (i, j, expected, actual) mismatches; empty means the
    tables agree everywhere, which is the cell-by-cell witness that the
    conversion preserved the language on this word.
    """
    v = build_table(g_cnf, w)
    vd = build_table(g_dyck, w)
    desc_any, desc_nt = _closures(ledger)
    has_terminal_rule = {(r.lhs, r.rhs[0])
                         for r in g_dyck.rules if len(r.rhs) == 1}
    n = len(w)
    mismatches = []
    for i in range(1, n + 1):
        letter = w[i - 1]
        expected = set()
        for x in v[(i, i)]:
            for y in {x} | desc_any.get(x, set()):
                if (y, letter) in has_terminal_rule:
                    expected.add(y)
        if expected != vd[(i, i)]:
            mismatches.append((i, i, sorted(expected), sorted(vd[(i, i)])))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expected = set()
            for x in v[(i, j)]:
                expected.add(x)
                expected |= desc_nt.get(x, set())
            if expected != vd[(i, j)]:
                mismatches.append((i, j, sorted(expected),
                                   sorted(vd[(i, j)])))
    return mismatches
