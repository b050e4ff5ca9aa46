"""Brute-force word enumeration, the reference oracle for everything else.

enumerate_words lists exactly the words a grammar derives up to a length
bound, by saturating a length-indexed table bottom-up.  It is deliberately
dumb and general: arbitrary rule bodies (up to the parse bound), unit rules,
unit cycles, and lambda rules are all handled by iterating per-length sweeps
until nothing new appears.  The conversion and recognition code in this
package is always cross-checked against this oracle rather than against
itself, so it shares no code with the parse table.

Only the first sweep of a length runs every rule.  A later sweep re-runs
the rules that a symbol changed by the sweep before it can reach.  At
length 0 every nonterminal counts as nullable, so a changed symbol reaches
each rule whose body holds no terminal (a body with a terminal never
derives the empty word); a grammar without lambda rules changes nothing
at length 0, so it never builds that map.  Once length 0 is saturated, the
nullable symbols (those deriving the empty word) are final, and a word of
length n >= 1 that uses a length-n word of B needs every other body symbol
to derive the empty word; so B reaches a rule only when B is in its body
and every other body symbol is nullable.  A lambda-free grammar (every CNF
and Dyck normal form grammar) therefore re-runs only its unit rules, and
without unit rules needs one sweep per length.
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
    saturated everything shorter is already final.  Within one length the
    first sweep runs every rule; each later sweep runs, in rule order, only
    the rules that the last sweep's changed heads reach.  At length 0 a
    changed symbol reaches every rule whose body is all nonterminals; that
    map is built only when a length-0 sweep changes a symbol.  The
    nullable set is final after length 0, and a rule gains a length-n word
    from a length-n word of one body symbol only when every other body
    symbol contributes the empty word; so from length 1 on a symbol reaches
    only the rules in whose body every other symbol is nullable.
    """
    table = {nt: [set() for _ in range(max_len + 1)] for nt in g.nonterminals}
    for t in g.terminals:
        table[t] = [{t} if n == 1 else set() for n in range(max_len + 1)]
    rules = g.rules
    stored = 0
    reach = None  # the length-0 map waits for a sweep to change a symbol
    for n in range(0, max_len + 1):
        todo = range(len(rules))
        while todo:
            changed = set()
            for i in todo:
                lhs, rhs = rules[i]
                new = _compose(table, rhs, n) - table[lhs][n]
                if new:
                    table[lhs][n] |= new
                    stored += len(new)
                    if stored > cap:
                        raise ResourceLimitError(
                            f"enumeration exceeded {cap} stored words "
                            f"(grammar {g!r}, max_len {max_len})")
                    changed.add(lhs)
            if changed and reach is None:  # only at length 0
                reach = _reach(g, set(g.nonterminals))
            todo = sorted({i for s in changed for i in reach.get(s, ())})
        if n == 0:
            reach = _reach(g, {nt for nt in g.nonterminals if table[nt][0]})
    return table


def _reach(g, nullable):
    """Nonterminal -> indices of the rules it reaches, in rule order.

    A body nonterminal reaches its rule when every other body position holds
    a nullable symbol.  So a body with two or more positions that are not
    nullable is reached by nothing, and a body with one is reached only by
    the nonterminal there.
    """
    reach = {}
    for i, (_, rhs) in enumerate(g.rules):
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
