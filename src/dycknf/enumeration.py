"""Brute-force word enumeration, the reference oracle for everything else.

enumerate_words lists exactly the words a grammar derives up to a length
bound, by saturating a length-indexed table bottom-up.  It is deliberately
dumb and general: arbitrary rule bodies (up to the parse bound), unit rules,
unit cycles, and lambda rules are all handled by iterating per-length sweeps
until nothing new appears.  The conversion and recognition code in this
package is always cross-checked against this oracle rather than against
itself, so it shares no code with the parse table.

The rules are grouped by body, and each sweep composes a body once and
hands its words to every head that carries it; a Dyck normal form grammar
has one binary body per bracket pair, shared by every stand-in of the
pair's heads.  Only the first sweep of a length composes every body.  A
later sweep re-composes the bodies that a symbol changed by the sweep
before it can reach.  At length 0 every nonterminal counts as nullable, so
a changed symbol reaches each body that holds no terminal (a body with a
terminal never derives the empty word); a grammar without lambda rules
changes nothing at length 0, so it never builds that map.  Once length 0
is saturated, the nullable symbols (those deriving the empty word) are
final, and a word of length n >= 1 that uses a length-n word of B needs
every other body symbol to derive the empty word; so B reaches a body only
when B is in it and every other symbol of it is nullable.  A lambda-free
grammar (every CNF and Dyck normal form grammar) therefore re-composes
only its unit bodies, and without unit rules needs one sweep per length.
"""

from __future__ import annotations

from .grammar import ResourceLimitError, validate

DEFAULT_WORD_CAP = 500_000


def enumerate_words(g, max_len, cap=DEFAULT_WORD_CAP):
    """All words of L(g) with length in [1, max_len], sorted length-then-lex.

    Raises ResourceLimitError when the table holds more than `cap` strings,
    which keeps runaway (very ambiguous or large-alphabet) grammars from
    eating the machine.
    """
    validate(g, allow_lambda=True)
    table = derivable_words(g, max_len, cap=cap)
    out = set()
    for n in range(1, max_len + 1):
        out |= table[g.start][n]
    return sorted(out, key=lambda w: (len(w), w))


def derivable_words(g, max_len, cap=DEFAULT_WORD_CAP):
    """table[A][n] = set of length-n terminal words derivable from A.

    Each terminal t also gets a row, exactly max_len + 1 long, holding its
    one word t at length 1, so rule bodies compose all symbols alike.
    Lengths are filled in ascending order, so when length n is being
    saturated everything shorter is already final.  The rules are grouped
    by body, in order of first occurrence; a sweep composes each body once
    and adds its words to the cell of every head that carries it.  The
    first sweep of a length composes every body, and a later one the
    bodies that _reach's map takes the last sweep's changed heads to: at
    length 0 a map built only once a sweep changes a symbol, and from
    length 1 on the map of the final nullable set.
    """
    table = {nt: [set() for _ in range(max_len + 1)] for nt in g.nonterminals}
    for t in g.terminals:
        table[t] = [{t} if n == 1 else set() for n in range(max_len + 1)]
    heads = {}  # body -> its heads, both in order of first occurrence
    for lhs, rhs in g.rules:
        heads.setdefault(rhs, []).append(lhs)
    bodies = list(heads.items())
    stored = 0
    reach = None  # the length-0 map waits for a sweep to change a symbol
    for n in range(0, max_len + 1):
        todo = range(len(bodies))
        while todo:
            changed = set()
            for i in todo:
                rhs, lhss = bodies[i]
                words = _compose(table, rhs, n)
                if not words:
                    continue
                for lhs in lhss:
                    new = words - table[lhs][n]
                    if new:
                        table[lhs][n] |= new
                        stored += len(new)
                        if stored > cap:
                            raise ResourceLimitError(
                                f"enumeration exceeded {cap} stored words "
                                f"(grammar {g!r}, max_len {max_len})")
                        changed.add(lhs)
            if changed and reach is None:  # only at length 0
                reach = _reach(g, bodies, set(g.nonterminals))
            todo = sorted({i for s in changed for i in reach.get(s, ())})
        if n == 0:
            reach = _reach(g, bodies,
                           {nt for nt in g.nonterminals if table[nt][0]})
    return table


def _reach(g, bodies, nullable):
    """Nonterminal -> indices into bodies of the bodies it reaches, in order.

    A body nonterminal reaches its body when every other body position
    holds a nullable symbol.  So a body with two or more positions that are
    not nullable is reached by nothing, and a body with one is reached only
    by the nonterminal there.
    """
    reach = {}
    for i, (rhs, _) in enumerate(bodies):
        solid = [s for s in rhs if s not in nullable]
        if len(solid) > 1:
            continue
        for s in set(solid or rhs):
            if g.is_nonterminal(s):
                reach.setdefault(s, []).append(i)
    return reach


def _compose(table, rhs, n):
    """Words of length n formed by concatenating one word per rhs symbol.

    The prefixes start as the first symbol's row, its word sets themselves,
    or as the empty word for a lambda body.  Every later symbol but the
    last extends them to each length that still fits; the last one takes
    exactly the remaining length.  A one-symbol body's words are that
    symbol's own set of the table, so the caller only reads the result.
    """
    if rhs:
        row = table[rhs[0]]
        parts = {m: row[m] for m in range(n + 1) if row[m]}
    else:
        parts = {0: {""}}  # prefix length -> prefixes
    last = len(rhs) - 1
    for k in range(1, len(rhs)):
        cells = table[rhs[k]]
        nxt = {}
        for have, words in parts.items():
            for m in range(n - have + 1) if k < last else (n - have,):
                if cells[m]:
                    nxt.setdefault(have + m, set()).update(
                        [a + b for a in words for b in cells[m]])
        if not nxt:
            return set()
        parts = nxt
    return parts.get(n, set())
