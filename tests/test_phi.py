"""The letter map: pair classification, the one-letter-word extension, and
the full image-equality verification."""

from __future__ import annotations

import hashlib
import pickle

import pytest

import dycknf as d
import dycknf.dyck
import dycknf.phi


def test_partition_of_golden(expr_converted):
    gd, _ = expr_converted
    part = d.partition_nonterminals(gd)
    assert part["both_terminal"] == [("T2", "R"), ("E2_L1", "T_t1_R1")]
    assert part["left_terminal"] == [("E2", "T_R1"), ("E_t1", "E1_R1"),
                                     ("T_t1", "T1_R1")]
    assert part["right_terminal"] == []
    assert part["no_terminal"] == [("T", "T1"), ("E", "E1")]


def test_partition_requires_dyck_nf(expr_cnf):
    with pytest.raises(d.GrammarError):
        d.partition_nonterminals(expr_cnf)


def test_extension_adds_one_pair_per_start_terminal(expr_converted):
    gd, _ = expr_converted
    ext = d.extend_grammar(gd)
    assert ext.k_base == 7
    assert ext.k_total == 8
    assert [(l, r, t) for l, r, t in ext.new_pairs] == [
        ("Lift1", "Drop1", "a")]
    # the extension grammar carries the pair as real rules
    assert d.Rule("E0", ("Lift1", "Drop1")) in ext.grammar.rules
    assert d.Rule("Lift1", ("a",)) in ext.grammar.rules
    assert d.Rule("Drop1", ()) in ext.grammar.rules
    d.validate(ext.grammar, allow_lambda=True)
    # base grammar is untouched
    assert ext.base is gd


def test_extension_without_one_letter_words():
    g = d.parse_grammar("""
        start: S
        S -> A B
        A -> 'a'
        B -> 'b'
    """)
    ext = d.extend_grammar(g)
    assert ext.new_pairs == ()
    assert ext.k_total == ext.k_base == 1


def test_phi_values(expr_converted):
    gd, _ = expr_converted
    ext = d.extend_grammar(gd)
    phi = d.build_phi(ext)
    assert phi["T2"] == "*" and phi["E2"] == "+" and phi["E_t1"] == "a"
    assert phi["T"] == "" and phi["E1"] == ""
    assert phi["Lift1"] == "a" and phi["Drop1"] == ""
    assert "E0" not in phi  # the start symbol is no bracket
    tr = d.trace_word(gd, d.extract_tree(gd, "a*a+a"))
    assert d.apply_phi(phi, tr) == "a*a+a"
    with pytest.raises(d.GrammarError):
        d.apply_phi(phi, ("NoSuchName",))


def test_characterization_golden(expr_converted):
    gd, _ = expr_converted
    report = d.verify_characterization(gd, 7)
    assert report.ok
    assert report.missing == [] and report.extra == []
    assert report.not_dyck == []
    assert len(report.words) == 15
    text = report.render()
    assert "ok" in text and "7 base + 1 extension" in text


def test_characterization_across_corpus(dyck_corpus):
    for _, gd, _ in dyck_corpus:
        report = d.verify_characterization(gd, 6)
        assert report.ok, report.render()


def test_report_renders_failures():
    report = d.CharacterizationReport(
        ok=False, max_len=5, k_base=2, k_total=3, words=["aa"], trace_count=2,
        missing=["aa"], extra=[("[1 ]1", "ab")], not_dyck=["[2 [1"])
    text = report.render()
    assert "FAIL" in text
    assert "MISSING aa" in text
    assert "EXTRA [1 ]1 -> 'ab'" in text
    assert "NOT-DYCK [2 [1" in text


def test_characterization_requires_dyck_nf(expr_cnf):
    with pytest.raises(d.GrammarError):
        d.verify_characterization(expr_cnf, 5)


def test_characterization_refuses_max_len_below_one(expr_converted):
    gd, _ = expr_converted
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_len"):
            d.verify_characterization(gd, bad)


@pytest.mark.parametrize("module, cap, counter, checks", [
    (dycknf.dyck, "DEFAULT_TREE_CAP", "parse subtrees",
     (d.trace_language, d.verify_characterization)),
    (dycknf.dyck, "DEFAULT_WORD_CAP", "stored words", (d.trace_language,)),
    (dycknf.phi, "DEFAULT_WORD_CAP", "stored words",
     (d.verify_characterization,)),
])
def test_trace_path_caps_bite(expr_converted, monkeypatch, module, cap,
                              counter, checks):
    gd, _ = expr_converted
    # the parse tree of a*a alone stores five subtrees, and the enumeration
    # stores words for every nonterminal
    monkeypatch.setattr(module, cap, 3)
    for check in checks:
        with pytest.raises(d.ResourceLimitError, match=counter):
            check(gd, 5)


# sha256 of the reports and trace sets below; any change to a report field,
# a list order or a trace changes it
CHARACTERIZATION_DIGEST = ("18c68d0c734b82c67c8805fa61f1c68a"
                           "4d82292a6b956471661f86de8e67bd3b")


def test_characterization_output_is_pinned(dyck_corpus, elin_converted):
    digest = hashlib.sha256()
    for _, gd, _ in dyck_corpus + elin_converted:
        for n in (4, 6):
            report = d.verify_characterization(gd, n)
            digest.update(pickle.dumps(report.__dict__, protocol=4))
            digest.update(pickle.dumps(sorted(d.trace_language(gd, n)),
                                       protocol=4))
    assert digest.hexdigest() == CHARACTERIZATION_DIGEST


def test_characterization_reports_planted_faults(expr_converted, monkeypatch):
    gd, _ = expr_converted
    all_trees, build_phi, in_dk_stack = (
        dycknf.dyck.all_trees, dycknf.phi.build_phi, dycknf.phi.in_dk_stack)

    def drop_one_word(g, w, **kw):
        return [] if w == "a*a+a" else all_trees(g, w, **kw)

    def foreign_letter(ext):
        phi = build_phi(ext)
        phi["E2_L1"] = "#"
        return phi

    def reject_extension(word, k=None):
        return word != (8, -8) and in_dk_stack(word, k)

    monkeypatch.setattr(dycknf.dyck, "all_trees", drop_one_word)
    monkeypatch.setattr(dycknf.phi, "build_phi", foreign_letter)
    monkeypatch.setattr(dycknf.phi, "in_dk_stack", reject_extension)
    report = d.verify_characterization(gd, 5)
    # a*a+a has no trace, every '+' trace maps through '#' instead, and the
    # extension pair [8 ]8 fails the Dyck check
    assert not report.ok
    assert report.words == ["a", "a*a", "a+a", "a*a*a", "a*a+a", "a+a*a",
                            "a+a+a"]
    assert report.trace_count == 6
    assert report.missing == ["a+a", "a*a+a", "a+a+a"]
    assert report.extra == [("[5 ]5 [7 ]7", "a#a"),
                            ("[2 [5 ]5 [7 ]7 ]2 [7 ]7", "a#a#a")]
    assert report.not_dyck == ["[8 ]8"]
