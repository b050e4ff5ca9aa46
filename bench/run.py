"""The dycknf benchmark: one seeded workload per process, closed loop.

Run it from the root of a checkout (it imports ``dycknf`` from ``src/``):

    python3 bench/run.py --workload convert --seed 1 --seconds 25 --trace 0

Set-up builds the workload's inputs from the seed several times.  Then the
fixed batch of ops runs again and again, one op after the other on one
thread, until ``--seconds`` have passed.  After each batch, outside the
timed region, every answer goes to its oracle; an op that raises or
disagrees counts as failed, and the run goes on.

Times are reported at reference speed.  On a shared host the speed of a
core changes by up to 2x within a second, as other tenants come and go,
and it drifts between runs.  So right after each op (and each set-up) the
run times a fixed stdlib-only reference loop for about a tenth as long,
and divides the op's time by the loop's slowdown against ``REF_UNIT_S``.
An op's time is the median of these over the run's repeats; the raw
times are kept in the record under ``.bench_out/``.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced batches alternate, and the last line
carries each wrapped function's calls and self time, the work counts and
the tracing overhead (see ``tracing.py``).  Every run also prints its
environment and its metrics by name, and writes them, plus the traced
run's spans, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much has passed

# seconds one reference_unit() takes at reference speed: the fast state of
# the 2-core x86 host the bounds were set on, under CPython 3.11
REF_UNIT_S = 12e-6
REF_SHARE = 0.1  # reference time per op, as a share of the op's time

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "small_op_ms": "ms",
                    "large_op_ms": "ms", "peak_rss_mb": "MB",
                    "dyck_growth": "1"}

clock = time.perf_counter


def reference_unit():
    cells = {}
    for i in range(64):
        key = (i & 7, i >> 3)
        cells.setdefault(key, set()).add(i % 5)
    return len(cells)


def slowdown(seconds):
    """Run the reference for about `seconds`; its time over reference
    speed's."""
    n = max(2, int(seconds / REF_UNIT_S))
    t0 = clock()
    for _ in range(n):
        reference_unit()
    return (clock() - t0) / (n * REF_UNIT_S)


class Failed:
    """Stands in for the answer of an op that raised."""

    def __init__(self, error):
        self.error = error


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setups(setup, seed, root, scratch):
    """(batch from the last set-up, set-up seconds at reference speed for
    each repeat)."""
    times = []
    began = clock()
    while (len(times) < SETUP_MIN_REPEATS
           or clock() - began < SETUP_MIN_SECONDS):
        t0 = clock()
        batch = setup(seed, root, scratch)
        dt = clock() - t0
        times.append(dt / slowdown(REF_SHARE * dt))
    return batch, times


def run_batch(batch, times, raw, tracer=None, first_op=0):
    """Run every op once, in order, appending its time at reference speed
    to times[i] and its raw time to raw[i].  Returns (answers, slowdowns).
    """
    answers, slow = [], []
    for i, op in enumerate(batch.ops):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = clock()
        try:
            answer = op.run()
        except Exception as e:  # a failed op is counted, not fatal
            answer = Failed(e)
        dt = clock() - t0
        s = slowdown(REF_SHARE * dt)
        times[i].append(dt / s)
        raw[i].append(dt)
        answers.append(answer)
        slow.append(s)
    return answers, slow


def count_failures(batch, answers, log):
    failed = 0
    for i, (op, answer) in enumerate(zip(batch.ops, answers)):
        if isinstance(answer, Failed):
            ok, why = False, f"raised {answer.error!r}"
        else:
            try:
                ok, why = bool(op.check(answer)), "oracle disagrees"
            except Exception as e:  # a malformed answer fails its op
                ok, why = False, f"oracle raised {e!r}"
        if not ok:
            failed += 1
            if len(log) < 10:
                log.append(f"op {i} ({op.cls}): {why}")
    return failed


class Loop:
    """Per-op samples and failure counts of one run's closed loop."""

    def __init__(self, batch):
        self.batch = batch
        self.times = [[] for _ in batch.ops]
        self.raw = [[] for _ in batch.ops]
        self.attempted = self.failed = 0
        self.log = []

    def batch_once(self, tracer=None):
        answers, slow = run_batch(self.batch, self.times, self.raw, tracer,
                                  first_op=self.attempted)
        self.attempted += len(answers)
        self.failed += count_failures(self.batch, answers, self.log)
        return slow

    def op_seconds(self):
        return [statistics.median(t) for t in self.times]

    def class_ms(self):
        classes = {}
        for op, s in zip(self.batch.ops, self.op_seconds()):
            classes.setdefault(op.cls, []).append(s)
        return {cls: 1000 * statistics.mean(v) for cls, v in classes.items()}


def measure(batch, seconds):
    loop = Loop(batch)
    deadline = clock() + seconds
    while True:
        loop.batch_once()
        if clock() >= deadline:
            return loop


def measure_traced(batch, seconds, tracing):
    """Untraced and traced batches in turn until the time is up.

    Returns (untraced loop, traced loop, per-batch layer times, work counts
    of the first traced batch, per-batch spans).
    """
    plain, traced = Loop(batch), Loop(batch)
    layers, spans, counts = [], [], None
    deadline = clock() + seconds
    while True:
        plain.batch_once()
        tracer = tracing.Tracer()
        first_op = traced.attempted
        tracer.install()
        try:
            slow = traced.batch_once(tracer)
        finally:
            tracer.uninstall()
        by_op = {first_op + i: s for i, s in enumerate(slow)}
        layers.append(tracing.layer_times(tracer.spans, by_op))
        spans.append(tracer.spans)
        if counts is None:
            counts = tracing.work_counts(tracer.kept)
        if clock() >= deadline:
            return plain, traced, layers, counts, spans


def git_commit(root):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root, args):
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(root), "src.lines": src_lines}


def main(argv=None):
    root = Path.cwd()
    src = root / "src"
    if not (src / "dycknf" / "__init__.py").is_file():
        print("bench: no src/dycknf here; run from the root of a dycknf "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dycknf
    if Path(dycknf.__file__).resolve().parent != (src / "dycknf").resolve():
        print(f"bench: imported dycknf from {dycknf.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"{args.workload}-{os.getpid()}"
    try:
        batch, setups = timed_setups(workloads.WORKLOADS[args.workload],
                                     args.seed, root, scratch)
        if args.trace:
            plain, loop, layers, counts, spans = measure_traced(
                batch, args.seconds, tracing)
        else:
            loop = measure(batch, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(root, args)
    env["setup_repeats"] = len(setups)
    env["ops_per_batch"] = len(batch.ops)
    env["batches"] = len(loop.times[0])
    env["class_ms"] = loop.class_ms()
    env["raw_wall_s"] = sum(statistics.median(t) for t in loop.raw)
    if args.trace:
        metrics = {}
        for name, (calls, self_s) in tracing.median_layers(layers).items():
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for name, value in counts.items():
            unit = "1" if name in tracing.RATIOS else "count"
            metrics[name] = {"value": value, "unit": unit}
        overhead = sum(loop.op_seconds()) / sum(plain.op_seconds())
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "1"}
        attempted = plain.attempted + loop.attempted
        failed = plain.failed + loop.failed
        log = plain.log + loop.log
    else:
        class_ms = loop.class_ms()
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(loop.op_seconds()),
            "small_op_ms": class_ms[batch.small],
            "large_op_ms": class_ms[batch.large],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "dyck_growth": batch.rules_out / batch.rules_in,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        attempted, failed, log = loop.attempted, loop.failed, loop.log
    failed_ratio = failed / attempted

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "failed_ratio": failed_ratio,
              "failures": log, "op_class": [op.cls for op in batch.ops],
              "op_seconds": loop.times, "op_raw_seconds": loop.raw}
    (out_dir / f"{stem}.json").write_text(json.dumps(record))
    if args.trace:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as f:
            for n, batch_spans in enumerate(spans):
                for name, start, end, parent, op in batch_spans:
                    f.write(json.dumps({
                        "batch": n, "op": op, "name": name, "start": start,
                        "end": end, "parent": parent}) + "\n")

    print("env " + json.dumps(env))
    for line in log:
        print(f"failed {line}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio {failed_ratio:.6g} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
