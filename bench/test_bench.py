"""Self-checks for the benchmark's own machinery.

They cover the span self-time arithmetic, the wrappers' installation, the
failure accounting, and that every workload's oracle accepts the real
answer and flags a planted wrong one.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import dycknf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Batch, Op  # noqa: E402


# ---- spans ----

def test_self_time_subtracts_direct_children_only():
    # main [0,10] holds parse [1,4] and to_dyck_nf [5,9]; the latter holds
    # a second parse [6,8]
    spans = [("cli.main", 0.0, 10.0, -1, 0),
             ("grammar.parse_grammar", 1.0, 4.0, 0, 0),
             ("normal_forms.to_dyck_nf", 5.0, 9.0, 0, 0),
             ("grammar.parse_grammar", 6.0, 8.0, 2, 0)]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    layers = tracing.layer_times(spans)
    assert layers["cli.main"] == (1, 3.0)
    assert layers["grammar.parse_grammar"] == (2, 5.0)
    assert layers["normal_forms.to_dyck_nf"] == (1, 2.0)
    assert layers["cyk.member"] == (0, 0.0)
    assert sum(s for _, s in layers.values()) == 10.0
    # a slowdown measured after op 0 scales its spans' self times
    assert tracing.layer_times(spans, {0: 2.0})["cli.main"] == (1, 1.5)


def test_wrappers_cover_cross_module_names_and_come_off():
    g = dycknf.parse_grammar("start: S\nS -> A B\nA -> 'a'\nB -> 'b'")
    original = dycknf.cyk.member
    assert dycknf.elin.member is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dycknf.elin.member is not original
        assert dycknf.member is dycknf.cyk.member is dycknf.elin.member
        tracer.op = 7
        assert dycknf.cyk.member(g, "ab")
    finally:
        tracer.uninstall()
    assert dycknf.cyk.member is dycknf.elin.member is original
    assert [(name, parent, op) for name, _, _, parent, op in tracer.spans] == [
        ("cyk.member", -1, 7), ("cyk.build_table", 0, 7)]
    counts = tracing.work_counts(tracer.kept)
    assert counts["cyk.cells"] == 3
    assert counts["cyk.tables_per_word"] == 1.0


# ---- failure accounting ----

def test_raising_op_counts_as_failed_and_the_batch_goes_on():
    def boom():
        raise dycknf.ResourceLimitError("cap hit")

    batch = Batch([Op("x", boom, lambda a: True),
                   Op("x", lambda: 1, lambda a: a == 1),
                   Op("x", lambda: 2, lambda a: a == 1)], "x", "x")
    times = [[] for _ in batch.ops]
    raw = [[] for _ in batch.ops]
    answers, slowdowns = run.run_batch(batch, times, raw)
    log = []
    assert run.count_failures(batch, answers, log) == 2
    assert all(len(t) == 1 for t in times + raw)
    assert all(s > 0 for s in slowdowns)
    assert "ResourceLimitError" in log[0]


def test_outside_a_checkout_the_run_refuses(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "elin", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


# ---- oracles ----

def make_batch(name, tmp_path):
    return workloads.WORKLOADS[name](3, ROOT, tmp_path / "scratch")


def test_convert_oracle(tmp_path):
    batch = make_batch("convert", tmp_path)
    for op in batch.ops[:2]:
        rc_dyck, text, rc_member, verdict = answer = op.run()
        assert op.check(answer)
        flipped = (rc_dyck, text, 1 - rc_member, str(1 - int(verdict)))
        assert not op.check(flipped)
    assert batch.rules_out > 2 * 6  # both outputs are bigger than their P6 inputs


def test_parse_long_oracle(tmp_path):
    batch = make_batch("parse-long", tmp_path)
    member, non_member = batch.ops[0], batch.ops[1]
    answer = member.run()
    ok, trace, brackets, stack_says = answer
    assert ok and member.check(answer)
    assert not member.check((False,))
    assert not member.check((ok, trace, brackets, False))
    assert not member.check((ok, trace[:-1], brackets, stack_says))
    assert not member.check((ok, trace, (-brackets[0],) + brackets[1:],
                             stack_says))
    assert non_member.check(non_member.run())
    assert not non_member.check(answer)


def test_parse_long_builds_two_tables_per_member(tmp_path):
    member = make_batch("parse-long", tmp_path).ops[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        member.run()
    finally:
        tracer.uninstall()
    assert tracing.work_counts(tracer.kept)["cyk.tables_per_word"] == 2.0


def test_characterize_oracle(tmp_path):
    batch = make_batch("characterize", tmp_path)
    op = next(op for op in batch.ops if op.cls == "mid")
    report = op.run()
    assert op.check(report)
    assert not op.check(dataclasses.replace(report, ok=False))
    assert not op.check(dataclasses.replace(report, words=report.words[:-1]))


def test_elin_oracle(tmp_path):
    batch = make_batch("elin", tmp_path)
    verdicts = set()
    for op in batch.ops[:4]:
        ok, trace = op.run()
        verdicts.add(ok)
        assert op.check((ok, trace))
        assert not op.check((not ok, trace))
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.WORKLOADS[name](5, ROOT, tmp_path / "a")
    b = workloads.WORKLOADS[name](5, ROOT, tmp_path / "b")
    assert [op.cls for op in a.ops] == [op.cls for op in b.ops]
    assert a.ops[0].run() == b.ops[0].run()
