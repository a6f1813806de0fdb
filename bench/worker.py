"""One benchmark process: set up a workload, run its passes, print JSON.

Started by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory belong to the workload alone.  The last stdout line is a JSON
object; ``ready_ns`` is ``time.monotonic_ns()`` once the inputs are built,
which the parent compares with its own clock at spawn.

    python3 bench/worker.py --workload ladder --seed 2024 --deadline-ns N
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def run_pass(ops, span) -> dict:
    """Run every operation once, in order; the next starts when one ends."""
    wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
    attempted, problems, top_ns, op_ns = 0, [], [], []
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            n, bad = op.run(span)
        except Exception as exc:  # a crash fails the operation, not the run
            n, bad = 1, [f"{op.label}: {type(exc).__name__}: {exc}"]
        dt = time.perf_counter_ns() - t0
        op_ns.append(dt)
        attempted += n
        problems += bad
        if op.top:
            top_ns.append(dt)
    return {"wall_ns": time.perf_counter_ns() - wall0,
            "cpu_ns": time.process_time_ns() - cpu0,
            "top_ns": statistics.median(top_ns), "op_ns": op_ns,
            "attempted": attempted, "problems": problems}


def layer_report(tracer, wall_ns: int) -> dict:
    return {"wall_ns": wall_ns, "self_ns": tracer.self_times(),
            "root_ns": tracer.root_time(), "counts": dict(tracer.counts)}


def traced_pass(ops, spans_out: str) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_pass(ops, tracer.span)
    finally:
        tracer.remove()
    spans.assert_untraced()
    spans.write_spans(tracer, spans_out)
    return result, layer_report(tracer, result["wall_ns"])


def corpus_traced(tiny: bool, spans_out: str) -> dict:
    """The corpus command in this process, traced, with one pool worker so
    that every span nests on a single stack."""
    from cutchoose import cli
    argv = workloads.corpus_argv(tiny, jobs=1)
    tracer = spans.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter_ns()
            code = cli.main(argv)
            wall = time.perf_counter_ns() - t0
    finally:
        tracer.remove()
    spans.assert_untraced()
    spans.write_spans(tracer, spans_out)
    attempted, problems = workloads.check_corpus(code, out.getvalue().encode(),
                                                 tiny)
    return {"traced": {"wall_ns": wall, "attempted": attempted,
                       "problems": problems},
            "layers": layer_report(tracer, wall)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--deadline-ns", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="SPANS_JSON",
                   help="trace one pass; write its spans here")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if args.workload == "corpus":
        print(json.dumps(corpus_traced(args.tiny, args.trace)))
        return 0

    ops = workloads.WORKLOAD_OPS[args.workload](args.seed, args.tiny)
    doc = {"ready_ns": time.monotonic_ns(), "passes": []}
    if args.setup_only:
        print(json.dumps(doc))
        return 0
    spans.assert_untraced()
    doc["passes"].append(run_pass(ops, workloads.no_span))
    if args.trace:
        doc["traced"], doc["layers"] = traced_pass(ops, args.trace)
    else:
        # Start another pass only if a typical one still fits.
        while True:
            typical = statistics.median(x["wall_ns"] for x in doc["passes"])
            if time.monotonic_ns() + typical > args.deadline_ns:
                break
            doc["passes"].append(run_pass(ops, workloads.no_span))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
