"""CYK recognition for grammars in Chomsky normal form.

Cells are exposed 1-based, V[i][j] covering w_i..w_j inclusive, because
matched-pair positions elsewhere in the package are 1-based and keeping the
two conventions aligned prevents a whole class of off-by-one bugs.

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
    if not w:
        return False
    if any(not g.is_terminal(ch) for ch in w):
        return False
    return g.start in build_table(g, w)[(1, len(w))]


def extract_tree(g, w, table=None):
    """The canonical parse tree of w, or NotAMemberError.

    Ties break on the smallest split point first, then on rule declaration
    order, so repeated calls (and golden tests) always agree.
    """
    if not w or any(not g.is_terminal(ch) for ch in w):
        raise NotAMemberError(f"{w!r} is not in the language")
    if table is None:
        table = build_table(g, w)
    n = len(w)
    if g.start not in table[(1, n)]:
        raise NotAMemberError(f"{w!r} is not in the language")
    heads = g._heads

    def build(a, i, j):
        if i == j:
            return (a, (w[i - 1],))
        for l in range(i, j):
            for r in heads[a]:
                if (len(r.rhs) == 2 and r.rhs[0] in table[(i, l)]
                        and r.rhs[1] in table[(l + 1, j)]):
                    return (a, (build(r.rhs[0], i, l),
                                build(r.rhs[1], l + 1, j)))
        raise AssertionError(
            f"table says {a} spans {i}..{j} but no rule reconstructs it")

    return build(g.start, 1, n)


def all_trees(g, w, cap=DEFAULT_TREE_CAP):
    """Every parse tree of w, depth-first in canonical order.

    Shared subspans are enumerated once and reused (trees are hashable
    tuples), with a cap on the total number of stored subtrees so that a
    pathologically ambiguous grammar fails loudly instead of hanging.
    """
    if not w or any(not g.is_terminal(ch) for ch in w):
        return []
    table = build_table(g, w)
    n = len(w)
    if g.start not in table[(1, n)]:
        return []
    heads = g._heads
    memo = {}
    count = [0]

    def trees(a, i, j):
        key = (a, i, j)
        if key in memo:
            return memo[key]
        found = []
        if i == j and a in table[(i, i)]:
            found.append((a, (w[i - 1],)))
        for l in range(i, j):
            for r in heads[a]:
                if (len(r.rhs) == 2 and r.rhs[0] in table[(i, l)]
                        and r.rhs[1] in table[(l + 1, j)]):
                    for left in trees(r.rhs[0], i, l):
                        for right in trees(r.rhs[1], l + 1, j):
                            found.append((a, (left, right)))
        count[0] += len(found)
        if count[0] > cap:
            raise ResourceLimitError(
                f"more than {cap} parse subtrees for {w!r}")
        memo[key] = found
        return found

    return trees(g.start, 1, n)


def count_trees(g, w):
    """Number of distinct parse trees of w, without materializing them."""
    if not w or any(not g.is_terminal(ch) for ch in w):
        return 0
    table = build_table(g, w)
    n = len(w)
    heads = g._heads
    memo = {}

    def count(a, i, j):
        key = (a, i, j)
        if key in memo:
            return memo[key]
        total = 0
        if i == j and a in table[(i, i)]:
            total += 1
        for l in range(i, j):
            for r in heads.get(a, ()):
                if (len(r.rhs) == 2 and r.rhs[0] in table[(i, l)]
                        and r.rhs[1] in table[(l + 1, j)]):
                    total += count(r.rhs[0], i, l) * count(r.rhs[1], l + 1, j)
        memo[key] = total
        return total

    return count(g.start, 1, n)


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
