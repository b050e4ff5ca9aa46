"""Spans around calls into the library's public functions.

Only the traced run uses this module.  ``Tracer.install`` replaces each
function in ``WRAPPED`` at every attribute of every loaded ``dycknf``
module that names it: ``dycknf.cyk.member`` itself, but also
``dycknf.elin.member``, bound there by ``from .cyk import member``.  So
calls from one layer into another open spans too.  A span is
``(name, start, end, parent, op)``: parent is the index of the enclosing
span or -1, and every span opened while one benchmark op runs carries that
op's number.  Spans stay in memory until the run writes them out.

The work counts are read from the return values the wrappers keep, after
the traced batch has ended, so counting costs no span time.
"""

from __future__ import annotations

import statistics
import sys
import time

WRAPPED = {
    "grammar": ("parse_grammar", "serialize", "validate", "validate_tree",
                "dyck_nf_violations", "pairing_of"),
    "normal_forms": ("to_cnf", "to_dyck_nf", "cleanup", "ledger_text"),
    "cyk": ("build_table", "member", "extract_tree", "all_trees"),
    "enumeration": ("enumerate_words",),
    "dyck": ("trace_word", "trace_as_brackets", "trace_language",
             "in_dk_stack", "in_dk_lemma"),
    "phi": ("verify_characterization", "build_phi", "partition_nonterminals",
            "extend_grammar"),
    "elin": ("elin_to_dyck_nf", "recognize_atm"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)

# functions whose arguments and results feed the work counts
_KEPT = {"grammar.parse_grammar", "normal_forms.to_dyck_nf",
         "cyk.build_table", "cyk.extract_tree", "cyk.all_trees",
         "enumeration.enumerate_words", "dyck.trace_word",
         "phi.verify_characterization", "elin.recognize_atm"}

COUNTS = ("grammar.rules_parsed", "normal_forms.rules_in",
          "normal_forms.rules_out", "normal_forms.fresh_symbols",
          "cyk.cells", "cyk.cell_entries", "cyk.trees", "cyk.tables_per_word",
          "enumeration.words", "dyck.traces", "dyck.trace_letters",
          "phi.traces", "elin.nodes", "elin.max_depth_seen",
          "elin.space_cells", "elin.divide_share")
RATIOS = {"cyk.tables_per_word", "elin.divide_share"}


class Tracer:
    """Records spans (and kept results) while installed."""

    def __init__(self):
        self.spans = []
        self.kept = []   # (name, args, result, op)
        self.op = 0      # number of the op now running
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dycknf" or name.startswith("dycknf.")]
        for mod_name, fns in WRAPPED.items():
            home = sys.modules[f"dycknf.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = name in _KEPT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if keep:
                kept.append((name, args, result, self.op))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so a parent's children never overlap and the
    time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_times(spans, slowdown=None):
    """{function: (calls, self seconds)} over a list of spans.

    slowdown maps an op number to the host slowdown measured right after
    that op; each span's self time is divided by its op's.
    """
    out = {name: [0, 0.0] for name in FUNCTIONS}
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry[0] += 1
        entry[1] += own / slowdown[span[4]] if slowdown else own
    return {name: tuple(v) for name, v in out.items()}


def work_counts(kept):
    """The work counts, read from the kept arguments and results."""
    c = {name: 0.0 if name in RATIOS else 0 for name in COUNTS}
    tables = 0
    words = set()
    atm = []
    for name, args, result, op in kept:
        if name == "grammar.parse_grammar":
            c["grammar.rules_parsed"] += len(result.rules)
        elif name == "normal_forms.to_dyck_nf":
            c["normal_forms.rules_in"] += len(args[0].rules)
            c["normal_forms.rules_out"] += len(result[0].rules)
            c["normal_forms.fresh_symbols"] += len(result[1])
        elif name == "cyk.build_table":
            g, w = args[0], args[1]
            n = len(w)
            c["cyk.cells"] += n * (n + 1) // 2
            c["cyk.cell_entries"] += sum(len(cell) for cell in result.values())
            tables += 1
            words.add((op, id(g), w))
        elif name == "cyk.extract_tree":
            c["cyk.trees"] += 1
        elif name == "cyk.all_trees":
            c["cyk.trees"] += len(result)
        elif name == "enumeration.enumerate_words":
            c["enumeration.words"] += len(result)
        elif name == "dyck.trace_word":
            c["dyck.traces"] += 1
            c["dyck.trace_letters"] += len(result)
        elif name == "phi.verify_characterization":
            c["phi.traces"] += result.trace_count
        elif name == "elin.recognize_atm":
            atm.append(result[1])
    if words:
        c["cyk.tables_per_word"] = tables / len(words)
    if atm:
        c["elin.nodes"] = sum(t.nodes for t in atm)
        c["elin.max_depth_seen"] = max(t.max_depth_seen for t in atm)
        c["elin.space_cells"] = max(t.space_cells for t in atm)
        c["elin.divide_share"] = sum(t.route == "divide" for t in atm) / len(atm)
    return c


def median_layers(per_batch):
    """Median self seconds over traced batches; calls from the first (every
    batch runs the same ops, so calls repeat exactly)."""
    return {name: (per_batch[0][name][0],
                   statistics.median(b[name][1] for b in per_batch))
            for name in FUNCTIONS}
