"""Grammar normal forms built around one-sided Dyck languages.

The package turns context-free grammars (lambda-free, in the package's
small text format) into a bracket-shaped normal form, reads parse trees as
Dyck words over the grammar's bracket pairs, maps those words back onto the
language with a letter-to-letter homomorphism, and - for even linear
grammars - decides membership with a divide-and-conquer whose quantifier
alternation and workspace stay logarithmic in the word length.

Everything is desk-scale and cross-checked: each nontrivial construction
ships with an independent second route (pushdown vs counting conditions,
tree walk vs rewriting, conversion vs parse-table comparison) and the test
suite holds the routes against each other.
"""

from types import ModuleType as _ModuleType

from .grammar import (
    Grammar,
    GrammarError,
    ParseError,
    ResourceLimitError,
    Rule,
    dyck_nf_violations,
    find_isomorphism,
    fresh_name,
    is_cnf,
    is_dyck_nf,
    leftmost_derivation,
    pairing_of,
    parse_grammar,
    serialize,
    tree_yield,
    validate,
    validate_tree,
)
from .enumeration import DEFAULT_WORD_CAP, enumerate_words
from .cyk import (
    DEFAULT_TREE_CAP,
    NotAMemberError,
    all_trees,
    build_table,
    count_trees,
    extract_tree,
    member,
)
from .normal_forms import (
    Substitution,
    build_hd,
    cleanup,
    ledger_text,
    map_tree,
    to_cnf,
    to_dyck_nf,
    verify_equivalence_matrices,
)
from .dyck import (
    TraceUndefinedError,
    in_dk_lemma,
    in_dk_stack,
    is_balanced,
    matched,
    nested,
    parse_dyck_text,
    reducible,
    render_dyck_word,
    trace_as_brackets,
    trace_from_rewriting,
    trace_language,
    trace_word,
)
from .phi import (
    CharacterizationReport,
    ExtendedGrammar,
    apply_phi,
    build_phi,
    extend_grammar,
    partition_nonterminals,
    verify_characterization,
)
from .elin import (
    AlternationTrace,
    PipelineShapeError,
    elin_to_dyck_nf,
    is_even_linear,
    iterated_division,
    recognize_atm,
)

__version__ = "0.1.0"

# the public names are exactly those the imports above bind (submodules,
# which importing them binds too, and underscored names excepted)
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
