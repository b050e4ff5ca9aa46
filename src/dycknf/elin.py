"""Even linear grammars: a shape-preserving Dyck normal form and a
recognizer whose quantifier alternation stays logarithmic in the word length.

An even linear grammar has at most one nonterminal per body, flanked by
equally long terminal strings.  elin_to_dyck_nf converts such a grammar so
that derivations keep their ladder shape: every step opens a bracket that
carries the next letter from the left end, and closes one that carries the
matching letter from the right end.  The payoff is partition structure - no
bracket pair ends up with both sides rewritten further - which makes
membership checkable by local inspection of adjacent ladder steps.

recognize_atm exploits that: a word of length n forces exactly
p = (n - 1) // 2 ladder steps, and membership says "there are bracket pairs
j_1 .. j_p whose adjacent pairs satisfy a five-rule local condition, plus a
root and a center condition".  Instead of scanning the chain left to right,
the chain is split into d = floor(log2 p) blocks by guessed cut points and
the blocks are checked independently; recursing on the blocks gives
O(log n) guess/branch alternations and an O(log n)-cell work tape, which is
what the AlternationTrace bookkeeping measures.  iterated_division is the
arithmetic core of that recursion, exposed on its own because its step
count is the interesting quantity.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .cyk import member
from .grammar import (
    Grammar,
    GrammarError,
    Rule,
    _check,
    fresh_name,
    validate,
)
from .normal_forms import (cleanup, collapse_units, to_dyck_nf,
                           with_fresh_start)
from .phi import partition_nonterminals


class PipelineShapeError(GrammarError):
    """A grammar lacks the shape the even linear pipeline guarantees."""


# ---- the even linear class ----

def is_even_linear(g):
    """At most one nonterminal per body, with equally long terminal flanks."""
    _check(g)
    for r in g.rules:
        nt_at = [i for i, s in enumerate(r.rhs) if g.is_nonterminal(s)]
        if len(nt_at) > 1:
            return False
        if nt_at and nt_at[0] != len(r.rhs) - 1 - nt_at[0]:
            return False
    return True


# ---- conversion pipeline ----

def _split_flanks(g):
    """Cut flanks down to single letters: X -> a Y b, X -> a b or X -> a.

    Longer flanks move into fresh middle symbols, one per distinct leftover
    body, so rules that share a tail share the symbol.
    """
    nts = list(g.nonterminals)
    nt_set = set(nts)
    used = nt_set | set(g.terminals)
    mids = {}
    counter = 0
    rules = []
    pending = deque(g.rules)
    while pending:
        r = pending.popleft()
        rhs = r.rhs
        nt_at = next((i for i, s in enumerate(rhs) if s in nt_set), None)
        if (nt_at is None and len(rhs) <= 2) or (nt_at is not None
                                                 and nt_at <= 1):
            rules.append(r)
            continue
        body = rhs[1:-1]
        if body not in mids:
            counter += 1
            name = fresh_name(f"Mid{counter}", used)
            used.add(name)
            nt_set.add(name)
            nts.append(name)
            mids[body] = name
            pending.append(Rule(name, body))
        rules.append(Rule(r.lhs, (rhs[0], mids[body], rhs[-1])))
    return Grammar(nts, g.terminals, g.start, rules)


def _binarize_steps(g):
    """Turn single-flank rules into bracket-shaped binary steps.

    X -> a Y b becomes X -> L M with L -> a, M -> Y R, R -> b; X -> a b
    becomes X -> L R with L -> a, R -> b; X -> a stays.  Rules with the
    same body share one helper triple, so the step symbols double as the
    bracket pairs of the eventual Dyck normal form.
    """
    nts = list(g.nonterminals)
    used = set(nts) | set(g.terminals)
    helpers = {}
    extra = []
    counter = 0
    rules = []
    for r in g.rules:
        if len(r.rhs) == 1:
            rules.append(r)
            continue
        if r.rhs not in helpers:
            counter += 1
            ln = fresh_name(f"L{counter}", used)
            used.add(ln)
            if len(r.rhs) == 3:
                a, y, b = r.rhs
                mn = fresh_name(f"M{counter}", used)
                used.add(mn)
                rn = fresh_name(f"R{counter}", used)
                used.add(rn)
                nts.extend([ln, mn, rn])
                extra.extend([Rule(ln, (a,)), Rule(mn, (y, rn)),
                              Rule(rn, (b,))])
                helpers[r.rhs] = (ln, mn)
            else:
                a, b = r.rhs
                rn = fresh_name(f"R{counter}", used)
                used.add(rn)
                nts.extend([ln, rn])
                extra.extend([Rule(ln, (a,)), Rule(rn, (b,))])
                helpers[r.rhs] = (ln, rn)
        rules.append(Rule(r.lhs, helpers[r.rhs]))
    return Grammar(nts, g.terminals, g.start, rules + extra)


def elin_to_dyck_nf(g):
    """Dyck normal form for an even linear grammar, ladder shape intact.

    Returns (grammar, ledger) like to_dyck_nf.  The output is guaranteed to
    have a terminal rule on at least one side of every bracket pair; if
    that ever failed the pipeline would raise PipelineShapeError rather
    than hand over a grammar the recognizer cannot handle.
    """
    validate(g)
    if not is_even_linear(g):
        raise GrammarError("input is not even linear (want at most one "
                           "nonterminal per body, flanks of equal length)")
    g = cleanup(g)
    g = with_fresh_start(g)
    g = collapse_units(g)
    g = cleanup(g)
    g = _split_flanks(g)
    g = _binarize_steps(g)
    out, ledger = to_dyck_nf(g)
    leftovers = partition_nonterminals(out)["no_terminal"]
    if leftovers:
        raise PipelineShapeError(
            f"pipeline left pairs with no terminal side: {leftovers}")
    return out, ledger


# ---- iterated division ----

def iterated_division(p):
    """Divide p by d = floor(log2 p) until the quotient drops below d.

    Returns (d, [(quotient, remainder), ...]).  Needs p >= 4 so that
    d >= 2.  The chain length stays strictly below log2(p) for every p
    from 5 up to at least a million - but NOT for p = 4, whose two steps
    (2,0), (1,0) exactly meet log2(4) = 2; anything comparing the chain
    length against log2(p) has to treat p = 4 on its own.
    """
    if p < 4:
        raise ValueError(f"iterated division needs p >= 4, got {p}")
    d = p.bit_length() - 1
    steps = []
    cur = p
    while True:
        q, r = divmod(cur, d)
        steps.append((q, r))
        cur = q
        if q < d:
            break
    return d, steps


def _ceil_log2(x):
    return (x - 1).bit_length()


def _alt_depth(m, d):
    """Guess/branch alternations needed for m unknown ladder positions."""
    if m == 0:
        return 0
    if m < d:
        return 1
    q, _ = divmod(m, d)
    return 2 + max(_alt_depth(q - 1, d), _alt_depth(q, d))


# ---- the recognizer ----

_ROOT = "<root>"
_CENTER = "<center>"


@dataclass
class AlternationTrace:
    """Bookkeeping for one recognizer run: route taken and resource usage."""

    word: str
    accepted: bool
    route: str  # "table" for short words, "divide" for the real scheme
    n: int
    p: int
    d: int = 0
    division: list = field(default_factory=list)
    alternation_depth: int = 0  # analytic bound for this n
    max_depth_seen: int = 0     # deepest guess level the search visited
    space_cells: int = 0        # work-tape estimate, counters plus held pairs
    nodes: int = 0

    def render(self):
        lines = [f"word: {self.word!r} (n={self.n})",
                 f"verdict: {'member' if self.accepted else 'not a member'}"]
        if self.route == "table":
            lines.append(f"route: parse table (short word, p={self.p} < 4)")
            lines.append(f"work-tape cells: {self.space_cells}")
            return "\n".join(lines)
        chain = ", ".join(f"({q},{r})" for q, r in self.division)
        lines += [
            f"route: divide and conquer over p={self.p} ladder steps "
            f"with d={self.d}",
            f"iterated division of p: {chain} ({len(self.division)} steps)",
            f"alternation depth: {self.max_depth_seen} seen, "
            f"{self.alternation_depth} bound",
            f"work-tape cells: {self.space_cells}",
            f"search nodes: {self.nodes}",
        ]
        return "\n".join(lines)


class _Search:
    """Shared state for one divide-and-conquer membership run.  pairs is
    partition_nonterminals(g); phi is build_phi's map, plus the start."""

    def __init__(self, g, w, d, pairs):
        self.w = w
        self.n = len(w)
        self.p = (self.n - 1) // 2
        self.d = d
        self.partner = dict(itertools.chain(*pairs.values()))
        self.phi = dict.fromkeys(g.nonterminals, "")
        self.rules_bin = {}
        for lhs, rhs in g.rules:
            if len(rhs) == 2:
                self.rules_bin.setdefault(lhs, set()).add(rhs)
            else:
                self.phi[lhs] = rhs[0]
        self.start_bodies = self.rules_bin.get(g.start, set())
        self.cands = [l for l, _ in pairs["left_terminal"]]
        self.memo = {}
        self.nodes = 0
        self.max_depth = 0
        self.max_held = 0

    # duty k ties ladder positions k and k+1 together; position 0 is the
    # start symbol, position p+1 the bottom of the ladder
    def duty(self, k, left, right):
        if k == 0:
            return ((right, self.partner[right]) in self.start_bodies
                    and self.phi[right] == self.w[0])
        if k == self.p:
            return self.center(left)
        return self.local(k, left, right)

    def local(self, k, jk, jk1):
        w, n = self.w, self.n
        if self.phi[jk] != w[k - 1] or self.phi[jk1] != w[k]:
            return False
        target = (jk1, self.partner[jk1])
        for il, ir in self.rules_bin.get(self.partner[jk], ()):
            if (self.phi[ir] == w[n - k]
                    and target in self.rules_bin.get(il, ())):
                return True
        return False

    def center(self, jp):
        w, n, p = self.w, self.n, self.p
        if self.phi[jp] != w[p - 1]:
            return False
        bodies = self.rules_bin.get(self.partner[jp], ())
        if n % 2:
            # one middle letter sits right under the last ladder step
            return any(self.phi[cl] == w[p] and self.phi[cr] == w[p + 1]
                       for cl, cr in bodies)
        # two middle letters need one more step whose close carries w[p+2]
        for il, ir in bodies:
            if self.phi[ir] != w[p + 2]:
                continue
            if any(self.phi[cl] == w[p] and self.phi[cr] == w[p + 1]
                   for cl, cr in self.rules_bin.get(il, ())):
                return True
        return False

    def decide(self, a, b, left, right, depth):
        """Can positions a..b be filled so duties a-1 .. b all hold?"""
        if depth > self.max_depth:
            self.max_depth = depth
        key = (a, b, left, right)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if b - a + 1 < self.d:
            ok = self._brute(a, b, left, right, depth)
        else:
            ok = self._split(a, b, left, right, depth)
        self.memo[key] = ok
        return ok

    def _brute(self, a, b, left, right, depth):
        m = b - a + 1
        self.max_held = max(self.max_held, 4 + m)
        if m and depth + 1 > self.max_depth:
            self.max_depth = depth + 1
        for combo in itertools.product(self.cands, repeat=m):
            names = (left,) + combo + (right,)
            if all(self.duty(a - 1 + t, names[t], names[t + 1])
                   for t in range(m + 1)):
                return True
        return False

    def _split(self, a, b, left, right, depth):
        m = b - a + 1
        q, r = divmod(m, self.d)
        cuts = [a + r + i * q - 1 for i in range(1, self.d)]
        self.max_held = max(self.max_held, 4 + r + len(cuts))
        if depth + 1 > self.max_depth:
            self.max_depth = depth + 1
        for combo in itertools.product(self.cands, repeat=r + len(cuts)):
            prefix, cutjs = combo[:r], combo[r:]
            names = (left,) + prefix
            if not all(self.duty(a - 1 + t, names[t], names[t + 1])
                       for t in range(r)):
                continue
            starts = [a + r] + [c + 1 for c in cuts]
            ends = [c - 1 for c in cuts] + [b]
            lefts = [prefix[-1] if r else left] + list(cutjs)
            rights = list(cutjs) + [right]
            if all(self.decide(aa, bb, ll, rr, depth + 2)
                   for aa, bb, ll, rr in zip(starts, ends, lefts, rights)):
                return True
        return False


def _ladder_violations(g, pairs):
    """Binary rules that break the ladder shape the divide route reads.

    In a ladder, the right bracket of a left-terminal pair rewrites only to
    bodies whose left child has no terminal rule, and every other
    nonterminal only to bodies whose left child has one; a body of two
    terminal-ruled children (the center step) may sit under any head.  Then
    every derivation of a word of 9 letters or more is the chain the search
    walks, so its verdict is exact.
    """
    has_term = {r.lhs for r in g.rules if len(r.rhs) == 1}
    closers = {right for _, right in pairs["left_terminal"]}
    return [str(r) for r in g.rules if len(r.rhs) == 2
            and not (r.rhs[0] in has_term and r.rhs[1] in has_term)
            and (r.lhs in closers) == (r.rhs[0] in has_term)]


def recognize_atm(g, w):
    """Membership of w in a ladder-shaped Dyck normal form grammar.

    Returns (accepted, AlternationTrace).  Words shorter than 9 letters go
    through the parse table, since the division scheme needs p >= 4 ladder
    steps to bite; everything longer runs the logarithmic divide and
    conquer over ladder positions.  That route raises PipelineShapeError
    on a grammar that is not ladder-shaped (elin_to_dyck_nf output always
    is), because its search would miss the other derivations.
    """
    pairs = partition_nonterminals(g)
    if pairs["no_terminal"]:
        raise PipelineShapeError(
            "recognizer needs a terminal side on every bracket pair "
            "(run elin_to_dyck_nf first)")
    n = len(w)
    p = (n - 1) // 2
    if n < 9:
        ok = member(g, w)
        return ok, AlternationTrace(
            word=w, accepted=ok, route="table", n=n, p=p,
            space_cells=8 * _ceil_log2(n + 1))
    off_ladder = _ladder_violations(g, pairs)
    if off_ladder:
        raise PipelineShapeError(
            f"recognizer needs ladder shape on words of 9 letters or more "
            f"(run elin_to_dyck_nf first); off-ladder rules: {off_ladder}")
    d, chain = iterated_division(p)
    search = _Search(g, w, d, pairs)
    ok = search.decide(1, p, _ROOT, _CENTER, 0)
    return ok, AlternationTrace(
        word=w, accepted=ok, route="divide", n=n, p=p, d=d, division=chain,
        alternation_depth=_alt_depth(p, d), max_depth_seen=search.max_depth,
        space_cells=8 * _ceil_log2(n + 1) + search.max_held,
        nodes=search.nodes)
