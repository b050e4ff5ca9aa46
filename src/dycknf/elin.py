"""Even linear grammars: a shape-preserving Dyck normal form and a
recognizer whose quantifier alternation stays logarithmic in the word length.

An even linear grammar has at most one nonterminal per body, flanked by
equally long terminal strings.  elin_to_dyck_nf converts such a grammar so
that derivations keep their ladder shape: one pass over the rules cuts each
body to a single step, which opens a bracket that carries the next letter
from the left end and closes one that carries the matching letter from the
right end.  The payoff is partition structure - no bracket pair ends up
with both sides rewritten further - which makes membership checkable by
local inspection of adjacent ladder steps.

recognize_atm exploits that: a word of length n forces exactly
p = (n - 1) // 2 ladder steps, and membership says "there are bracket pairs
j_1 .. j_p whose adjacent pairs satisfy a five-rule local condition, plus a
root and a center condition".  Instead of scanning the chain left to right,
the chain is split into d = floor(log2 p) blocks by guessed cut points and
the blocks are checked independently; recursing on the blocks gives
O(log n) guess/branch alternations and an O(log n)-cell work tape, which is
what the AlternationTrace bookkeeping measures.  The duty tables are built
once per word, and only guesses whose prefix duties hold are tried; like
the memo, the tables cache the simulation, so space_cells stays the
machine's tape.  iterated_division is the arithmetic core of the
recursion, exposed on its own because its step count is what matters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cyk import member
from .grammar import (
    Grammar,
    GrammarError,
    _check,
    _rule,
    fresh_name,
    pairing_of,
    validate,
)
from .normal_forms import cleanup, to_cnf, to_dyck_nf
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

def _ladder(g):
    """Cut every body down to one bracket-shaped ladder step, in one pass.

    A flank longer than one letter moves into a fresh middle symbol, one
    per distinct leftover body (`Mid1`, ...), whose rule joins the end of
    the pass.  Then X -> a Y b becomes X -> L M with L -> a, M -> Y R,
    R -> b; X -> a b becomes X -> L R with L -> a, R -> b; X -> a stays.
    Rules with the same body share one step triple, so the step symbols
    double as the bracket pairs of the eventual Dyck normal form.
    """
    used = set(g.nonterminals) | set(g.terminals)
    mids = {}
    steps = {}
    step_nts = []
    rules = []
    extra = []
    pending = list(g.rules)
    for lhs, rhs in pending:
        if len(rhs) > 2 and not (len(rhs) == 3 and g.is_nonterminal(rhs[1])):
            body = rhs[1:-1]
            if body not in mids:
                mids[body] = fresh_name(f"Mid{len(mids) + 1}", used)
                pending.append(_rule((mids[body], body)))
            rhs = (rhs[0], mids[body], rhs[-1])
        if len(rhs) == 1:
            rules.append(_rule((lhs, rhs)))
            continue
        if rhs not in steps:
            k = len(steps) + 1
            names = [fresh_name(f"{tag}{k}", used)
                     for tag in ("LMR" if len(rhs) == 3 else "LR")]
            step_nts += names
            extra.append(_rule((names[0], rhs[:1])))
            if len(rhs) == 3:
                extra.append(_rule((names[1], (rhs[1], names[2]))))
            extra.append(_rule((names[-1], rhs[-1:])))
            steps[rhs] = tuple(names[:2])
        rules.append(_rule((lhs, steps[rhs])))
    return Grammar(g.nonterminals + list(mids.values()) + step_nts,
                   g.terminals, g.start, rules + extra)


def elin_to_dyck_nf(g):
    """Dyck normal form for an even linear grammar, ladder shape intact.

    After cleanup, the one ladder pass (_ladder) cuts every body to a
    shared L/M/R step, and to_dyck_nf(to_cnf(.)), the route every grammar
    takes, finishes: to_cnf adds the fresh start, collapses unit rules and
    cleans up, and only copies the ladder's rules, each a single symbol or
    a pair of nonterminals.  Returns (grammar, ledger) like to_dyck_nf.
    The output is guaranteed to have a terminal rule on at least one side
    of every bracket pair; if that ever failed the pipeline would raise
    PipelineShapeError rather than hand over a grammar the recognizer
    cannot handle.

    The ledger covers only to_dyck_nf's stand-ins over the internal ladder
    grammar, not its fresh start S0 or L/M/R/Mid helpers, so build_hd and
    map_tree cannot take a tree back to the input: there map_tree raises
    "tree root is S0, expected S" (for an input start S used in a body).
    """
    validate(g)
    if not is_even_linear(g):
        raise GrammarError("input is not even linear (want at most one "
                           "nonterminal per body, flanks of equal length)")
    out, ledger = to_dyck_nf(to_cnf(_ladder(cleanup(g))))
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
    # analytic bound for this n, 2 * len(division) + (division[-1][0] > 0):
    # two alternations per division step, one more for a nonzero last quotient
    alternation_depth: int = 0
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
    """Shared state for one divide-and-conquer membership run: the duties
    between adjacent ladder positions and decide, the one guess loop over
    them.  The duties are worked out once per word: rows[k][left] holds,
    as bits over cands (and <center> at k = p), each right name with
    duty(k, left, right).  pairs is partition_nonterminals(g); partner
    sends each left bracket to its right one, by pairing_of; phi (the
    letter map) and bodies (head -> its binary bodies in declaration
    order) are g's cached _brackets[1] and _binary_bodies, read only."""

    def __init__(self, g, w, d, pairs):
        self.w = w
        self.n = len(w)
        self.p = (self.n - 1) // 2
        self.d = d
        self.partner = dict(pairing_of(g))
        self.phi = g._brackets[1]
        self.bodies = g._binary_bodies
        self.start_bodies = self.bodies.get(g.start, ())
        self.cands = [l for l, _ in pairs["left_terminal"]]
        self.bit = {j: 1 << i for i, j in enumerate(self.cands + [_CENTER])}
        self.rows = [{left: sum(self.bit[j] for j in rights
                                if self.duty(k, left, j))
                      for left in (self.cands if k else [_ROOT])}
                     for k, rights in enumerate(
                         [self.cands] * self.p + [[_CENTER]])]
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
        for il, ir in self.bodies.get(self.partner[jk], ()):
            if (self.phi[ir] == w[n - k]
                    and target in self.bodies.get(il, ())):
                return True
        return False

    def center(self, jp):
        """Duty p: jp carries w[p-1], and a bottom step under its right
        bracket carries w[p] and w[p+1].  For an even n the bottom steps
        are those under a body whose right child carries w[p+2]."""
        w, p = self.w, self.p
        if self.phi[jp] != w[p - 1]:
            return False
        bodies = self.bodies.get(self.partner[jp], ())
        if self.n % 2 == 0:
            bodies = (body for il, ir in bodies if self.phi[ir] == w[p + 2]
                      for body in self.bodies.get(il, ()))
        return any(self.phi[cl] == w[p] and self.phi[cr] == w[p + 1]
                   for cl, cr in bodies)

    def guesses(self, k, left, r, ncuts):
        """Each prefix of r names whose duties k .. k+r-1 hold, read off
        the rows, then each choice of ncuts cut names: the guesses that
        itertools.product over cands meets, in its order."""
        if not r:
            return itertools.product(self.cands, repeat=ncuts)
        return ((j,) + rest for j in self.cands
                if self.rows[k][left] & self.bit[j]
                for rest in self.guesses(k + 1, j, r - 1, ncuts))

    def decide(self, a, b, left, right, depth):
        """Can positions a..b be filled so duties a-1 .. b all hold?

        One guess loop serves every block of m positions.  It guesses a
        prefix of r = m mod d positions, trying only prefixes whose duties
        hold, and, when m >= d, d - 1 cut points that split the rest into
        d blocks of q = m // d, each decided recursively.  A block below d
        positions is all prefix (r = m, no cut), so it reads its closing
        duty b off the rows.
        """
        if depth > self.max_depth:
            self.max_depth = depth
        key = (a, b, left, right)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        m = b - a + 1
        q, r = divmod(m, self.d)
        cuts = [a + r + i * q - 1 for i in range(1, self.d)] if q else []
        starts = [a + r] + [c + 1 for c in cuts]
        ends = [c - 1 for c in cuts] + [b]
        self.max_held = max(self.max_held, 4 + r + len(cuts))
        if m and depth + 1 > self.max_depth:
            self.max_depth = depth + 1
        ok = False
        for combo in self.guesses(a - 1, left, r, len(cuts)):
            names, cutjs = (left,) + combo[:r], combo[r:]
            if cuts:
                blocks = zip(starts, ends, names[-1:] + cutjs,
                             cutjs + (right,))
                ok = all(self.decide(*block, depth + 2) for block in blocks)
            else:
                ok = bool(self.rows[b][names[-1]] & self.bit[right])
            if ok:
                break
        self.memo[key] = ok
        return ok


def _ladder_violations(g, pairs):
    """Binary rules that break the ladder shape the divide route reads.

    In a ladder, the right bracket of a left-terminal pair rewrites only to
    bodies whose left child has no terminal rule, and every other
    nonterminal only to bodies whose left child has one; a body of two
    terminal-ruled children (the center step) may sit under any head.  Then
    every derivation of a word of 9 letters or more is the chain the search
    walks, so its verdict is exact.
    """
    letter = g._brackets[1]
    closers = {right for _, right in pairs["left_terminal"]}
    return [str(r) for r in g.rules if len(r.rhs) == 2
            and not (letter[r.rhs[0]] and letter[r.rhs[1]])
            and (r.lhs in closers) == bool(letter[r.rhs[0]])]


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
    p = max(0, (n - 1) // 2)
    if n < 9:
        ok = member(g, w)
        return ok, AlternationTrace(
            word=w, accepted=ok, route="table", n=n, p=p,
            space_cells=8 * n.bit_length())
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
        alternation_depth=2 * len(chain) + (chain[-1][0] > 0),
        max_depth_seen=search.max_depth,
        space_cells=8 * n.bit_length() + search.max_held,
        nodes=search.nodes)
