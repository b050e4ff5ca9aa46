"""Command line front end.

One verb per job, file in, text out.  Exit codes follow the usual
convention: 0 for success (or "is a member"), 1 for a negative verdict or
failed verification, 2 for bad usage, unreadable input or a grammar that a
verb cannot accept.  Grammar files use the package's text format; pass "-"
to read the grammar from stdin, which lets verbs chain:

    dycknf dyckify expr.cfg | dycknf member - 'a*a+a'
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .cyk import NotAMemberError, extract_tree, member
from .dyck import (
    TraceUndefinedError,
    in_dk_lemma,
    in_dk_stack,
    parse_dyck_text,
    render_dyck_word,
    trace_as_brackets,
    trace_word,
)
from .elin import elin_to_dyck_nf, recognize_atm
from .enumeration import enumerate_words
from .grammar import GrammarError, ResourceLimitError, is_dyck_nf, parse_grammar, serialize
from .normal_forms import ledger_text, to_cnf, to_dyck_nf, verify_equivalence_matrices
from .phi import build_phi, extend_grammar, partition_nonterminals, verify_characterization
from .corpus import random_words


def _load(path):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_grammar(text)


def _dyckified(g):
    """The grammar itself if already in Dyck normal form, else converted."""
    if is_dyck_nf(g):
        return g
    out, _ = to_dyck_nf(to_cnf(g))
    return out


# ---- verbs ----

def _cmd_cnf(args):
    print(serialize(to_cnf(_load(args.grammar))), end="")
    return 0


def _cmd_dyckify(args):
    g, ledger = to_dyck_nf(to_cnf(_load(args.grammar)))
    print(serialize(g), end="")
    if ledger:
        print("# fresh symbols introduced:")
        for line in ledger_text(ledger).splitlines():
            print(f"#   {line}")
    return 0


def _cmd_member(args):
    g = to_cnf(_load(args.grammar))
    ok = member(g, args.word)
    if args.machine:
        print(int(ok))
    else:
        print("member" if ok else "not a member")
    return 0 if ok else 1


def _cmd_trace(args):
    g = _dyckified(_load(args.grammar))
    try:
        tree = extract_tree(g, args.word)
    except NotAMemberError:
        print("not a member; no tree to trace", file=sys.stderr)
        return 1
    try:
        tr = trace_word(g, tree)
    except TraceUndefinedError as e:
        print(f"no trace: {e}", file=sys.stderr)
        return 1
    brackets = render_dyck_word(trace_as_brackets(g, tr))
    if args.machine:
        print(brackets)
    else:
        print("trace:   " + " ".join(tr))
        print("as Dyck: " + brackets)
    return 0


def _cmd_check_dyck(args):
    word = parse_dyck_text(args.brackets)
    via_stack = in_dk_stack(word, args.pairs)
    via_counts = in_dk_lemma(word, args.pairs)
    if via_stack != via_counts:
        print(f"BUG: routes disagree on {args.brackets!r} "
              f"(stack={via_stack}, counting={via_counts})", file=sys.stderr)
        return 2
    if args.machine:
        print(int(via_stack))
    else:
        print(f"stack route:    {'member' if via_stack else 'not a member'}")
        print(f"counting route: {'member' if via_counts else 'not a member'}")
    return 0 if via_stack else 1


def _cmd_phi(args):
    ext = extend_grammar(_dyckified(_load(args.grammar)))
    phi = build_phi(ext)
    classes = {}
    for cls, pairs in partition_nonterminals(ext.base).items():
        for pair in pairs:
            classes[pair] = cls
    rows = []
    for k, (left, right) in enumerate(ext.pairs, start=1):
        cls = classes.get((left, right), "extension")
        rows.append((k, left, right, cls,
                     phi[left] or "eps", phi[right] or "eps"))
    if args.machine:
        for row in rows:
            print("\t".join(str(c) for c in row))
        return 0
    wl = max(len(r[1]) for r in rows)
    wr = max(len(r[2]) for r in rows)
    wc = max(len(r[3]) for r in rows)
    for k, left, right, cls, pl, pr in rows:
        print(f"pair {k:2d}: [{left:<{wl}} ]{right:<{wr}}  {cls:<{wc}}  "
              f"phi: {pl} / {pr}")
    return 0


def _cmd_verify_phi(args):
    g = _dyckified(_load(args.grammar))
    report = verify_characterization(g, args.max_len)
    if args.machine:
        print("ok" if report.ok else "FAIL")
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_elin_recognize(args):
    g, _ = elin_to_dyck_nf(_load(args.grammar))
    ok, trace = recognize_atm(g, args.word)
    if args.machine:
        print(int(ok))
    else:
        print(trace.render())
    return 0 if ok else 1


def _cmd_verify_equiv(args):
    g = _load(args.grammar)
    g_cnf = to_cnf(g)
    g_dyck, ledger = to_dyck_nf(g_cnf)
    words = enumerate_words(g, args.max_len)
    words_cnf = enumerate_words(g_cnf, args.max_len)
    words_dyck = enumerate_words(g_dyck, args.max_len)
    same = words == words_cnf == words_dyck
    lines = [f"language up to length {args.max_len}: {len(words)} words, "
             + ("identical across original, cnf and dyck forms" if same
                else "MISMATCH between original, cnf and dyck forms")]
    probes = list(words[:args.samples])
    probes += [w for w in random_words(g.terminals, args.max_len,
                                       args.samples, args.seed)
               if w not in set(probes)]
    bad_cells = 0
    for w in probes:
        bad_cells += len(verify_equivalence_matrices(g_cnf, g_dyck, ledger, w))
    lines.append(f"parse-table comparison: {len(probes)} words, "
                 f"{bad_cells} cell mismatches")
    ok = same and bad_cells == 0
    if args.machine:
        print("ok" if ok else "FAIL")
    else:
        print("\n".join(lines))
        print("ok" if ok else "FAIL")
    return 0 if ok else 1


# ---- wiring ----

def _positive_int(text):
    """argparse type for counts and bounds: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dycknf",
        description="Grammar normal forms built around one-sided Dyck "
                    "languages: conversion, membership, traces and the "
                    "even linear recognizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, word=False, brackets=False):
        p = sub.add_parser(name, help=help_)
        if brackets:
            p.add_argument("brackets",
                           help="bracket word text, e.g. '[1 ]1 [2 ]2'")
        else:
            p.add_argument("grammar", help="grammar file, or - for stdin")
        if word:
            p.add_argument("word", help="terminal word to test")
        p.add_argument("--machine", action="store_true",
                       help="terse machine-readable output")
        p.set_defaults(func=func)
        return p

    add("cnf", _cmd_cnf, "convert a grammar to Chomsky normal form")
    add("dyckify", _cmd_dyckify,
        "convert a grammar to Dyck normal form (with the fresh-name ledger)")
    add("member", _cmd_member, "test membership of a word", word=True)
    add("trace", _cmd_trace,
        "print the trace of a word's canonical parse tree", word=True)
    p = add("check-dyck", _cmd_check_dyck,
            "test a bracket word for one-sided Dyck membership, both routes",
            brackets=True)
    p.add_argument("-k", "--pairs", type=_positive_int, default=None,
                   help="number of bracket pairs (default: largest used)")
    p = add("phi", _cmd_phi,
            "print the bracket pairing and its letter map, with extension "
            "pairs for one-letter words")
    p = add("verify-phi", _cmd_verify_phi,
            "check that the letter map sends the trace set onto the "
            "language")
    p.add_argument("--max-len", type=_positive_int, default=7,
                   help="word length bound (default 7)")
    add("elin-recognize", _cmd_elin_recognize,
        "recognize a word with the even linear divide-and-conquer",
        word=True)
    p = add("verify-equiv", _cmd_verify_equiv,
            "cross-check a grammar against its cnf and dyck conversions")
    p.add_argument("--max-len", type=_positive_int, default=7,
                   help="word length bound (default 7)")
    p.add_argument("--samples", type=_positive_int, default=30,
                   help="words per probe batch (default 30)")
    p.add_argument("--seed", default=0, help="sampling seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
