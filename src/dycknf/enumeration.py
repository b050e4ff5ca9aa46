"""Brute-force word enumeration, the reference oracle for everything else.

enumerate_words lists exactly the words a grammar derives up to a length
bound, by saturating a length-indexed table bottom-up.  It is deliberately
dumb and general: arbitrary rule bodies (up to the parse bound), unit rules,
unit cycles, and lambda rules are all handled by iterating per-length passes
until nothing new appears.  The conversion and recognition code in this
package is always cross-checked against this oracle rather than against
itself.
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

    Lengths are filled in ascending order, so when length n is being
    saturated everything shorter is already final.  Within one length a
    fixpoint loop handles same-length dependencies (unit rules, unit cycles,
    and bodies whose other symbols derive lambda); a dirty set keeps the
    later sweeps from recomposing rules whose inputs did not change.
    """
    table = {nt: [set() for _ in range(max_len + 1)] for nt in g.nonterminals}
    stored = 0
    for n in range(0, max_len + 1):
        dirty = None  # None means "first sweep, recompose every rule"
        while dirty is None or dirty:
            current, dirty = dirty, set()
            for r in g.rules:
                rhs = r.rhs
                if current is not None and not any(s in current for s in rhs):
                    continue
                lhs = r.lhs
                new = _compose(g, table, rhs, n) - table[lhs][n]
                if new:
                    table[lhs][n] |= new
                    stored += len(new)
                    if stored > cap:
                        raise ResourceLimitError(
                            f"enumeration exceeded {cap} stored words "
                            f"(grammar {g!r}, max_len {max_len})")
                    dirty.add(lhs)
    return table


def _compose(g, table, rhs, n):
    """Words of length n formed by concatenating one word per rhs symbol."""
    parts = {0: {""}}
    for sym in rhs:
        nxt = {}
        for have, words in parts.items():
            if g.is_terminal(sym):
                pieces = {1: {sym}} if have + 1 <= n else {}
            else:
                pieces = {
                    m: table[sym][m]
                    for m in range(0, n - have + 1) if table[sym][m]
                }
            for m, ws in pieces.items():
                bucket = nxt.setdefault(have + m, set())
                for a in words:
                    for b in ws:
                        bucket.add(a + b)
        parts = nxt
        if not parts:
            return set()
    return parts.get(n, set())
