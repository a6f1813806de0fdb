"""The repository benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload {corpus,ladder,transport} \\
        [--seed 2024] [--seconds 30] [--trace 0|1]

Run from the repository root.  With ``--trace 0`` it times whole passes
and prints the end-to-end metrics; with ``--trace 1`` it runs one untraced
and one traced pass and prints the per-layer metrics, each layer's self
time, the unattributed rest and the tracing overhead.  Every output is
checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every check passed, 1 when a check failed, 2 when the benchmark could not
run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # raw spans of traced runs

WORKLOADS = ("corpus", "ladder", "transport")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("top_rung_s", "s")]

LAYER_SPANS = [
    "structures.enumerate_i_partitions",
    "structures.enumerate_disjoint_partitions",
    "structures.enumerate_poset_antichains",
    "structures.enumerate_algebra_antichains",
    "engine.legal_moves", "engine.verify_winning_strategy",
    "engine.enumerate_playouts",
    "solver.solve", "solver.refute", "solver.reference_winner",
    "serialize.serialize_strategy", "serialize.strategy_from_jsonable",
    "json.loads",
    "analysis.generate_corpus", "analysis.equivalence_audit",
    "analysis.check_distributivity",
    "transforms.certify_playouts", "transforms.build", "cli.corpus",
]
LAYER_COUNTS = [
    ("structures.enumerate_i_partitions.calls", "count"),
    ("structures.enumerate_i_partitions.moves", "count"),
    ("structures.enumerate_disjoint_partitions.calls", "count"),
    ("structures.enumerate_poset_antichains.calls", "count"),
    ("structures.enumerate_algebra_antichains.calls", "count"),
    ("engine.legal_moves.calls", "count"),
    ("engine.verify_winning_strategy.nodes", "count"),
    ("engine.enumerate_playouts.nodes", "count"),
    ("solver.solve.calls", "count"),
    ("solver.solve.states_visited", "count"),
    ("solver.refute.nodes", "count"),
    ("serialize.serialize_strategy.bytes", "bytes"),
    ("analysis.equivalence_audit.rows", "count"),
    ("analysis.check_distributivity.sequences_checked", "count"),
    ("transforms.certify_playouts.certificates", "count"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(argv: list[str], env: dict, deadline_ns: int):
    """Run a child to completion; returns (spawn_ns, exit code, stdout, wall_ns,
    cpu_ns).  CPU time is taken from the reaped-children usage counters,
    which only this child changes meanwhile."""
    timeout = max(1.0, (deadline_ns - time.monotonic_ns()) / 1e9)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable] + argv, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child exceeded the run limit: {argv[:3]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic_ns() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return t0, proc.returncode, out, wall, int(cpu * 1e9)


def worker_doc(args, env, run_end_ns, *extra) -> tuple[int, dict]:
    argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra] + (["--tiny"] if args.tiny else [])
    t0, code, out, _, _ = spawn(argv, env, run_end_ns)
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return t0, json.loads(out.decode().strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Noise record
# ---------------------------------------------------------------------------

def read_noise() -> dict:
    """CPU steal (jiffies), load averages, core count and interpreter."""
    steal = None
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        steal = int(fields[8])
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except (OSError, ValueError):
        load = None
    return {"steal_jiffies": steal, "loadavg": load, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def noise_lines(before: dict, after: dict) -> list[str]:
    steal = "n/a"
    if before["steal_jiffies"] is not None and after["steal_jiffies"] is not None:
        ticks = os.sysconf("SC_CLK_TCK")
        steal = f"{(after['steal_jiffies'] - before['steal_jiffies']) / ticks:.2f} s"
    return [f"noise: cpu steal during run {steal}; loadavg before "
            f"{before['loadavg']} after {after['loadavg']}; nproc "
            f"{after['nproc']}; python {after['python']}"]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def high_percentile(values: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(values, n=1000,
                                            method="inclusive")[int(p * 10) - 1])
    return best


def metric_line(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    hp = high_percentile(values)
    tail = f"p{hp[0]:g} {hp[1]:.6g}" if hp else "p- (fewer than 20 samples)"
    return f"  {name:<16} {unit:<6} n={len(values):<4} median {med:.6g}  {tail}"


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def corpus_run(args, env, measure_end_ns, run_end_ns):
    import workloads
    setup = []
    for _ in range(SETUP_SAMPLES):
        _, code, _, wall, _ = spawn(["-m", "cutchoose.cli", "--version"], env,
                                    run_end_ns)
        if code != 0:
            raise BenchError("cutchoose --version failed")
        setup.append(wall)
    passes = []
    while True:
        passes.append(corpus_pass(args, env, run_end_ns, workloads))
        typical = statistics.median(p["wall_ns"] for p in passes)
        if time.monotonic_ns() + typical > measure_end_ns:
            break
    for p in passes:  # the whole command is the workload's one request
        p["top_ns"] = p["wall_ns"]
        p["op_ns"] = [p["wall_ns"]]
    return setup, passes


def corpus_pass(args, env, run_end_ns, workloads) -> dict:
    argv = ["-m", "cutchoose.cli"] + workloads.corpus_argv(args.tiny)
    _, code, out, wall, cpu = spawn(argv, env, run_end_ns)
    attempted, problems = workloads.check_corpus(code, out, args.tiny)
    return {"wall_ns": wall, "cpu_ns": cpu, "attempted": attempted,
            "problems": problems}


def worker_run(args, env, measure_end_ns, run_end_ns):
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        t0, doc = worker_doc(args, env, run_end_ns, "--setup-only")
        setup.append(doc["ready_ns"] - t0)
    t0, doc = worker_doc(args, env, run_end_ns,
                         "--deadline-ns", str(measure_end_ns))
    setup.append(doc["ready_ns"] - t0)
    return setup, doc["passes"]


def untraced(args, env, measure_end_ns, run_end_ns):
    run = corpus_run if args.workload == "corpus" else worker_run
    setup, passes = run(args, env, measure_end_ns, run_end_ns)
    ok = [p for p in passes if not p["problems"]]
    samples = {
        "wall_s": [p["wall_ns"] / 1e9 for p in ok],
        "setup_s": [x / 1e9 for x in setup],
        "cpu_s": [p["cpu_ns"] / 1e9 for p in ok],
        "peak_rss_mb": [peak_rss_mb()],
        "top_rung_s": [p["top_ns"] / 1e9 for p in ok],
    }
    ops = [x / 1e9 for p in ok for x in p["op_ns"]]
    return passes, samples, ops


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def import_seconds(env, run_end_ns) -> float:
    code = ("import time; t = time.perf_counter(); import cutchoose.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, rc, out, _, _ = spawn(["-c", code], env, run_end_ns)
        if rc != 0:
            raise BenchError("cannot import cutchoose.cli")
        samples.append(float(out))
    return statistics.median(samples)


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "cutchoose")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict, untraced_wall_ns: int, parallelism: float,
                  import_s: float) -> dict:
    self_ns, counts = layers["self_ns"], layers["counts"]
    m = {}
    for name in LAYER_SPANS:
        m[name + ".self_s"] = (self_ns.get(name, 0) / 1e9, "s")
    for name, unit in LAYER_COUNTS:
        m[name] = (int(counts.get(name, 0)), unit)
    ip = "structures.enumerate_i_partitions"
    m[ip + ".repeat_frac"] = (_ratio(counts.get(ip + ".repeats", 0),
                                     counts.get(ip + ".calls", 0)), "ratio")
    states = counts.get("solver.solve.states_visited", 0)
    m["engine.verify.nodes_per_state"] = (
        _ratio(counts.get("engine.verify_winning_strategy.nodes", 0), states),
        "ratio")
    hits = counts.get("solver.solve.memo_hits", 0)
    m["solver.solve.memo_hit_frac"] = (_ratio(hits, hits + states), "ratio")
    m["cli.corpus.parallelism"] = (parallelism, "ratio")
    m["cli.import_s"] = (import_s, "s")
    wall = layers["wall_ns"]
    m["trace.wall_s"] = (wall / 1e9, "s")
    m["trace.other_s"] = ((wall - layers["root_ns"]) / 1e9, "s")
    m["trace.overhead_s"] = ((wall - untraced_wall_ns) / 1e9, "s")
    m["repo.src_lines"] = (src_lines(), "count")
    return m


def traced(args, env, run_end_ns):
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    if args.workload == "corpus":
        ref = corpus_pass(args, env, run_end_ns, workloads)
        parallelism = ref["cpu_ns"] / ref["wall_ns"]
        _, doc = worker_doc(args, env, run_end_ns, "--trace", spans_out)
        passes = [ref, doc["traced"]]
        untraced_wall = ref["wall_ns"]
    else:
        _, doc = worker_doc(args, env, run_end_ns, "--trace", spans_out)
        passes = [doc["passes"][0], doc["traced"]]
        untraced_wall = doc["passes"][0]["wall_ns"]
        parallelism = 0.0
    metrics = layer_metrics(doc["layers"], untraced_wall, parallelism,
                            import_seconds(env, run_end_ns))
    return passes, metrics


def attribution_lines(workload: str, m: dict) -> list[str]:
    wall = m["trace.wall_s"][0]
    rows = sorted(((m[n + ".self_s"][0], n) for n in LAYER_SPANS), reverse=True)
    lines = [f"traced wall {wall:.3f} s; self time by layer (share of traced wall):"]
    total = 0.0
    for t, name in rows + [(m["trace.other_s"][0], "other")]:
        total += t
        lines.append(f"  {name:<44} {t:9.3f} s  {_ratio(t, wall):6.1%}")
    lines.append(f"  {'sum (self times + other)':<44} {total:9.3f} s  "
                 f"{_ratio(total, wall):6.1%}")
    lines.append(f"tracing overhead: traced wall - untraced wall = "
                 f"{m['trace.overhead_s'][0]:.3f} s")
    ip = m["structures.enumerate_i_partitions.self_s"][0]
    if workload == "corpus":
        share = _ratio(ip, wall)
        lines.append(f"prediction: enumerate_i_partitions >= 50% of corpus: "
                     f"{share:.1%} -> {'confirmed' if share >= 0.5 else 'missed'}")
    if workload == "ladder":
        calls = m["structures.enumerate_i_partitions.calls"][0]
        lines.append(f"prediction: 0 enumerate_i_partitions calls on ladder: "
                     f"{calls} -> {'confirmed' if calls == 0 else 'missed'}")
        vsp = sum(m[n + ".self_s"][0] for n in (
            "engine.verify_winning_strategy", "serialize.serialize_strategy",
            "serialize.strategy_from_jsonable", "json.loads"))
        share = _ratio(vsp, wall)
        lines.append(f"prediction: verify + serialize + parse >= 50% of ladder: "
                     f"{share:.1%} -> {'confirmed' if share >= 0.5 else 'missed'}")
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (corpus per-family 2, ladder m = 6)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cutchoose", "cli.py")):
        print(f"bench: no cutchoose sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    env = child_env(args.seed)
    start = time.monotonic_ns()
    measure_end = start + args.seconds * 10**9
    run_end = start + RUN_LIMIT_S * 10**9
    before = read_noise()
    try:
        if args.trace:
            passes, layer = traced(args, env, run_end)
        else:
            passes, samples, ops = untraced(args, env, measure_end, run_end)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    after = read_noise()

    attempted = sum(p["attempted"] for p in passes)
    problems = [x for p in passes for x in p["problems"]]
    failed = len(problems)
    correct = failed == 0 and attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {len(passes)}  one closed-loop client")
    for line in noise_lines(before, after):
        print(line)
    print(f"failed_frac {_ratio(failed, attempted):.4f} "
          f"({failed} failed of {attempted} checks attempted)")
    for x in problems[:20]:
        print(f"  FAILED {x}")
    metrics = {}
    if args.trace:
        for line in attribution_lines(args.workload, layer):
            print(line)
        print("per-layer metrics:")
        for name, (value, unit) in layer.items():
            print(f"  {name:<52} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        if not samples["wall_s"]:
            samples = {k: v or [0.0] for k, v in samples.items()}
            ops = ops or [0.0]
        print("end-to-end metrics (per pass; tracing off):")
        for name, unit in END_TO_END:
            print(metric_line(name, unit, samples[name]))
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}
        print(metric_line("op_s", "s", ops) + "   (per request, informational)")
        print("  wall_s per pass: " + " ".join(f"{x:.3f}" for x in samples["wall_s"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
