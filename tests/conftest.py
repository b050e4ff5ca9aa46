"""Shared fixtures: the worked expression grammar in its three forms, the
seeded random corpora, and three test-side oracles.  Everything heavy is session-scoped so the
acceptance module and the unit tests share one set of conversions."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

import dycknf as d
from dycknf.corpus import corpus_grammars, elin_corpus

DATA = Path(__file__).parent / "data"


def load(name):
    return d.parse_grammar((DATA / name).read_text())


@pytest.fixture(scope="session")
def expr():
    return load("expr.cfg")


@pytest.fixture(scope="session")
def expr_cnf():
    return load("expr_cnf.cfg")


@pytest.fixture(scope="session")
def expr_dyck_expected():
    return load("expr_dyck.cfg")


@pytest.fixture(scope="session")
def expr_converted(expr_cnf):
    """(grammar, ledger) from converting the tightened CNF form."""
    return d.to_dyck_nf(expr_cnf)


@pytest.fixture(scope="session")
def cnf_corpus(expr_cnf):
    """The worked example plus twenty seeded random CNF grammars."""
    return [expr_cnf] + corpus_grammars(20)


@pytest.fixture(scope="session")
def dyck_corpus(cnf_corpus):
    """[(cnf grammar, dyck grammar, ledger), ...] for the whole corpus."""
    out = []
    for g in cnf_corpus:
        gd, ledger = d.to_dyck_nf(g)
        out.append((g, gd, ledger))
    return out


@pytest.fixture(scope="session")
def elin_grammars():
    """Canonical a^i c b^i grammar plus seeded random even linear ones."""
    return elin_corpus(5)


@pytest.fixture(scope="session")
def elin_converted(elin_grammars):
    """[(even linear grammar, dyck grammar, ledger), ...]"""
    out = []
    for g in elin_grammars:
        gd, ledger = d.elin_to_dyck_nf(g)
        out.append((g, gd, ledger))
    return out


def _scan_table(g, w):
    """CYK that scans every rule for every cell and split point."""
    n = len(w)
    table = {(i, i): {r.lhs for r in g.rules if r.rhs == (w[i - 1],)}
             for i in range(1, n + 1)}
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            table[(i, j)] = {
                r.lhs for r in g.rules for l in range(i, j)
                if len(r.rhs) == 2 and r.rhs[0] in table[(i, l)]
                and r.rhs[1] in table[(l + 1, j)]}
    return table


@pytest.fixture(scope="session")
def scan_table():
    """The reference CYK table as a dict of sets, the oracle for the masks."""
    return _scan_table


def _filter_misses(g, max_len):
    """The words of at most max_len letters over g's terminals on which
    member differs from a bare build_table verdict, or which g derives but
    its letter pairs refuse: [] when the pre-filter is sound on g."""
    first, last, pairs = g._letter_pairs
    misses = []
    for n in range(1, max_len + 1):
        for letters in itertools.product(g.terminals, repeat=n):
            w = "".join(letters)
            derived = g.start in d.build_table(g, w)[1, n]
            fits = (w[0] in first and w[-1] in last
                    and all(w[i:i + 2] in pairs for i in range(n - 1)))
            if d.member(g, w) != derived or derived and not fits:
                misses.append(w)
    return misses


@pytest.fixture(scope="session")
def filter_misses():
    """The oracle for the letter-pair pre-filter of member."""
    return _filter_misses


def _members_of_length(g, length, count, seed):
    """Up to count distinct words of exactly `length` letters of a linear
    grammar (at most one nonterminal per body), sorted.

    Random derivations that pick only rules through which what is left of
    the length can still be derived, so long members are as easy to draw
    as short ones; [] when g derives no word of that length.
    """
    def split(r):
        inner = [s for s in r.rhs if g.is_nonterminal(s)]
        return (inner[0] if inner else None), len(r.rhs) - len(inner)

    reach = {nt: set() for nt in g.nonterminals}  # lengths <= `length`
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            inner, flank = split(r)
            found = {flank} if inner is None else {flank + n
                                                   for n in reach[inner]}
            new = {n for n in found if n <= length} - reach[r.lhs]
            if new:
                reach[r.lhs] |= new
                changed = True

    def fits(r, need):
        inner, flank = split(r)
        return need == flank if inner is None else need - flank in reach[inner]

    rng = random.Random(f"members-of-length:{seed}:{length}")
    out = set()
    for _ in range(count * 40 if length in reach[g.start] else 0):
        left, right, nt, need = "", "", g.start, length
        while nt is not None:
            r = rng.choice([r for r in g.rules_for(nt) if fits(r, need)])
            inner, flank = split(r)
            at = r.rhs.index(inner) if inner else len(r.rhs)
            left += "".join(r.rhs[:at])
            right = "".join(r.rhs[at + 1:]) + right
            nt, need = inner, need - flank
        out.add(left + right)
        if len(out) >= count:
            break
    return sorted(out)


@pytest.fixture(scope="session")
def members_of_length():
    """Members of a linear grammar of one exact length, by random
    derivations steered by the lengths each nonterminal derives."""
    return _members_of_length
