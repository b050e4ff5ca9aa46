"""CYK recognition for grammars in Chomsky normal form.

Cells are exposed 1-based, V[i][j] covering w_i..w_j inclusive, because
matched-pair positions elsewhere in the package are 1-based and keeping the
two conventions aligned prevents a whole class of off-by-one bugs.

extract_tree, all_trees and count_trees read a word's one parse forest
through one bottom-up evaluation (_evaluate) over an explicit stack, so
long words and deep trees never meet the recursion limit.

extract_tree is deterministic on purpose: ambiguous words always yield the
same canonical tree (smallest split point, then first applicable rule in
declaration order), so golden tests can pin exact derivations.
"""

from __future__ import annotations

from .grammar import GrammarError, ResourceLimitError

DEFAULT_TREE_CAP = 100_000


class NotAMemberError(ValueError):
    """Asked for a parse of a word the grammar does not derive."""


def build_table(g, w):
    """The recognition table as {(i, j): set of nonterminals}, 1-based."""
    if g._cnf_index is None:
        raise GrammarError("CYK needs a grammar in Chomsky normal form")
    by_terminal, by_pair = g._cnf_index
    n = len(w)
    cells = {}
    for i in range(1, n + 1):
        cells[(i, i)] = set(by_terminal.get(w[i - 1], ()))
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            acc = set()
            for l in range(i, j):
                left = cells[(i, l)]
                right = cells[(l + 1, j)]
                if not left or not right:
                    continue
                for b in left:
                    for c in right:
                        heads = by_pair.get((b, c))
                        if heads:
                            acc.update(heads)
            cells[(i, j)] = acc
    return cells


def member(g, w):
    """Does g derive w?  The empty word is never a member here."""
    return _parse_table(g, w) is not None


def _parse_table(g, w, table=None):
    """The table of w when g derives it, else None."""
    if not w or any(not g.is_terminal(ch) for ch in w):
        return None
    if table is None:
        table = build_table(g, w)
    return table if g.start in table[(1, len(w))] else None


def extract_tree(g, w, table=None):
    """The canonical parse tree of w, or NotAMemberError.

    Ties break on the smallest split point first, then on rule declaration
    order, so repeated calls (and golden tests) always agree.
    """
    table = _parse_table(g, w, table)
    if table is None:
        raise NotAMemberError(f"{w!r} is not in the language")

    def node(a, i, j, pairs):
        if not pairs:
            raise AssertionError(
                f"table says {a} spans {i}..{j} but no rule reconstructs it")
        return (a, pairs[0])

    return _evaluate(g, w, table, lambda a, i: (a, (w[i - 1],)), node,
                     first=True)


def all_trees(g, w, cap=DEFAULT_TREE_CAP):
    """Every parse tree of w, depth-first in canonical order.

    Shared subspans are enumerated once and reused (trees are hashable
    tuples), with a cap on the total number of stored subtrees so that a
    pathologically ambiguous grammar fails loudly instead of hanging.
    """
    table = _parse_table(g, w)
    if table is None:
        return []
    stored = 0

    def keep(found):
        nonlocal stored
        stored += len(found)
        if stored > cap:
            raise ResourceLimitError(
                f"more than {cap} parse subtrees for {w!r}")
        return found

    return _evaluate(
        g, w, table, lambda a, i: keep([(a, (w[i - 1],))]),
        lambda a, i, j, pairs: keep([(a, (left, right))
                                     for lefts, rights in pairs
                                     for left in lefts for right in rights]))


def count_trees(g, w):
    """Number of distinct parse trees of w, without materializing them."""
    table = _parse_table(g, w)
    if table is None:
        return 0
    return _evaluate(g, w, table, lambda a, i: 1,
                     lambda a, i, j, pairs: sum(l * r for l, r in pairs))


def _evaluate(g, w, table, leaf, node, first=False):
    """The value of w's parse forest: nodes (a, i, j), "a derives w_i..w_j".

    A node over one letter is worth leaf(a, i), a longer one node(a, i, j,
    pairs), pairs being the (left, right) values of its alternatives in
    canonical order; first=True reads only the first alternative.
    """
    values = {}
    alternatives = {}
    stack = [(g.start, 1, len(w))]
    while stack:
        key = stack.pop()
        if key in values:
            continue
        a, i, j = key
        if i == j:
            values[key] = leaf(a, i)
        elif key in alternatives:
            alts = alternatives.pop(key)
            values[key] = node(a, i, j,
                               [(values[b], values[c]) for b, c in alts])
        else:
            alts = alternatives[key] = _alternatives(
                g._heads.get(a, ()), table, i, j, first)
            stack.append(key)  # comes back once its children have values
            for b, c in reversed(alts):
                stack += c, b
    return values[(g.start, 1, len(w))]


def _alternatives(rules, table, i, j, first):
    """(left, right) children over w_i..w_j: by split point, then rule."""
    found = []
    for l in range(i, j):
        left, right = table[(i, l)], table[(l + 1, j)]
        for r in rules:
            if len(r.rhs) == 2 and r.rhs[0] in left and r.rhs[1] in right:
                found.append(((r.rhs[0], i, l), (r.rhs[1], l + 1, j)))
                if first:
                    return found
    return found


def format_table(g, w, table=None):
    """Row-major text dump of the table, for debugging and the test suite."""
    if table is None:
        table = build_table(g, w)
    n = len(w)
    order = {nt: k for k, nt in enumerate(g.nonterminals)}
    lines = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            cell = sorted(table[(i, j)], key=order.get)
            lines.append(f"{i},{j}: {{{', '.join(cell)}}}")
    return "\n".join(lines) + "\n"
