"""CYK recognition for grammars in Chomsky normal form.

Cells are exposed 1-based, V[i][j] covering w_i..w_j inclusive, because
matched-pair positions elsewhere in the package are 1-based and keeping the
two conventions aligned prevents a whole class of off-by-one bugs.

build_table works on bitsets: a cell is one int mask over the grammar's
nonterminals.  It pushes rather than pulls: each finished cell is combined
with the nonempty cells of the next row only, never with an empty one, and
each distinct pair of masks is worked out once per call, by one partner test
per bit of the left mask (one partner per symbol in Dyck normal form).  It
returns the masks in a read-only view, CYKTable, that maps each (i, j) to a
set of nonterminal names but decodes a cell only when that cell is read.
member and the tree walks test bits of the masks themselves, so they decode
nothing.

extract_tree, all_trees and count_trees read a word's one parse forest
through one bottom-up evaluation (_evaluate) over an explicit stack, so
long words and deep trees never meet the recursion limit.

extract_tree is deterministic on purpose: ambiguous words always yield the
same canonical tree (smallest split point, then first applicable rule in
declaration order), so golden tests can pin exact derivations.
"""

from __future__ import annotations

from collections.abc import Mapping

from .grammar import GrammarError, ResourceLimitError

DEFAULT_TREE_CAP = 100_000
_NOT_CNF = "CYK needs a grammar in Chomsky normal form"


class NotAMemberError(ValueError):
    """Asked for a parse of a word the grammar does not derive."""


class CYKTable(Mapping):
    """The recognition table of one word: (i, j) -> set of nonterminals.

    A read-only view of the masks build_table filled: each read decodes its
    cell into a fresh set, and iteration runs row-major over 1 <= i <= j <=
    n, like the dict of every cell.  It keeps the word and the grammar
    index it was built from, which the tree walks read with the masks.
    """

    __slots__ = ("word", "_index", "_rows")

    def __init__(self, index, word, rows):
        self.word, self._index, self._rows = word, index, rows

    def __getitem__(self, key):
        try:
            i, j = key
            if 1 <= i <= j <= len(self.word):
                return set(_names(self._index[0], self._rows[i - 1][j - 1]))
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        n = len(self.word)
        return ((i, j) for i in range(1, n + 1) for j in range(i, n + 1))

    def __len__(self):
        n = len(self.word)
        return n * (n + 1) // 2


def build_table(g, w):
    """The recognition table of w, 1-based, as a CYKTable view.

    Masks are indexed by Grammar._cnf_index.  Rows fill from the last up,
    each left to right; a cell is final when the loop reaches it, and is
    then pushed into every cell it can be the left half of, by combining
    it with each nonempty cell of the next row.  So only pairs of nonempty
    cells are combined, and each distinct pair of masks once per call.
    """
    index = g._cnf_index
    if index is None:
        raise GrammarError(_NOT_CNF)
    _, _, by_terminal, by_left = index
    n = len(w)
    rows = [[0] * n for _ in range(n)]  # rows[i][j]: the mask of w[i..j]
    filled = [[] for _ in range(n + 1)]  # filled[i]: (j, rows[i][j]) if != 0
    products = {}  # left mask -> {right mask -> _product(by_left, ...)}
    for i in range(n - 1, -1, -1):
        row, cells = rows[i], filled[i]
        row[i] = by_terminal.get(w[i], 0)
        for k in range(i, n):
            left = row[k]
            if not left:
                continue
            cells.append((k, left))
            known = products.get(left)
            if known is None:
                known = products[left] = {}
            for j, right in filled[k + 1]:
                heads = known.get(right)
                if heads is None:
                    heads = known[right] = _product(by_left, left, right)
                row[j] |= heads
    return CYKTable(index, w, rows)


def _product(by_left, left, right):
    """The heads of the rules B C with B in left and C in right, as a mask:
    one partner test per bit of left."""
    heads = 0
    while left:
        low = left & -left
        left ^= low
        for partner, found in by_left.get(low, ()):
            if right & partner:
                heads |= found
    return heads


def _names(names, mask):
    """The nonterminals whose bits are set in mask."""
    found = []
    while mask:
        low = mask & -mask
        found.append(names[low.bit_length() - 1])
        mask ^= low
    return found


def member(g, w):
    """Does g derive w?  The empty word is never a member here."""
    return _parse_table(g, w) is not None


def _parse_table(g, w):
    """The table of w when g derives it, else None.

    A grammar not in Chomsky normal form is refused whatever the word.
    """
    table = build_table(g, w)
    start = table._index[1][g.start]
    return table if w and table._rows[0][-1] & start else None


def extract_tree(g, w):
    """The canonical parse tree of w, or NotAMemberError.

    Ties break on the smallest split point first, then on rule declaration
    order, so repeated calls (and golden tests) always agree.
    """
    table = _parse_table(g, w)
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
    rows, bit = table._rows, table._index[1]
    row = rows[i - 1]
    found = []
    for l in range(i, j):
        left, right = row[l - 1], rows[l][j - 1]
        if not (left and right):
            continue
        for r in rules:
            rhs = r.rhs
            if len(rhs) == 2 and left & bit[rhs[0]] and right & bit[rhs[1]]:
                found.append(((rhs[0], i, l), (rhs[1], l + 1, j)))
                if first:
                    return found
    return found
