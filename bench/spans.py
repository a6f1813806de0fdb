"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

The tracer rebinds a fixed list of public functions in every loaded
``cutchoose`` module that holds them (the defining module included, so
internal calls are caught too) and restores the originals on ``remove``.
Per-state helpers (``apply_move``, ``terminal_status``, ``GameState.key``)
are never wrapped; their cost lands in the caller's self time.

Spans are kept in memory as compact arrays (name, parent, start, end) and
reduced to self times after the run.  Spans must nest on one stack, so the
traced corpus pass runs its worker pool with one worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function, span name).  Each transform constructor counts as
# ``transforms.build``: the workload cares about the sum, not the split.
TARGETS = [
    ("structures", "enumerate_i_partitions", "structures.enumerate_i_partitions"),
    ("structures", "enumerate_disjoint_partitions", "structures.enumerate_disjoint_partitions"),
    ("structures", "enumerate_poset_antichains", "structures.enumerate_poset_antichains"),
    ("structures", "enumerate_algebra_antichains", "structures.enumerate_algebra_antichains"),
    ("engine", "legal_moves", "engine.legal_moves"),
    ("engine", "verify_winning_strategy", "engine.verify_winning_strategy"),
    ("engine", "enumerate_playouts", "engine.enumerate_playouts"),
    ("solver", "solve", "solver.solve"),
    ("solver", "refute", "solver.refute"),
    ("solver", "reference_winner", "solver.reference_winner"),
    ("serialize", "serialize_strategy", "serialize.serialize_strategy"),
    ("serialize", "strategy_from_jsonable", "serialize.strategy_from_jsonable"),
    ("analysis", "generate_corpus", "analysis.generate_corpus"),
    ("analysis", "equivalence_audit", "analysis.equivalence_audit"),
    ("analysis", "check_distributivity", "analysis.check_distributivity"),
    ("transforms", "certify_playouts", "transforms.certify_playouts"),
    ("transforms", "disjointify_cut_strategy", "transforms.build"),
    ("transforms", "disjointify_choose_strategy", "transforms.build"),
    ("transforms", "transfer_cut_big_to_small", "transforms.build"),
    ("transforms", "transfer_choose_small_to_big", "transforms.build"),
    ("transforms", "nonempty_to_choose_strategy", "transforms.build"),
    ("transforms", "choose_to_nonempty_strategy", "transforms.build"),
    ("cli", "cmd_corpus", "cli.corpus"),
]

MARK = "__bench_span__"


def _playout_nodes(transcripts) -> int:
    """Adversary-tree nodes behind a playout list: its distinct move prefixes."""
    prefixes = set()
    for t in transcripts:
        moves = tuple(t.moves)
        prefixes.update(moves[:i] for i in range(len(moves) + 1))
    return len(prefixes)


class Tracer:
    """Span recorder plus counters; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen_ipartitions: set = set()
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work, such as parsing JSON text."""
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def self_times(self) -> dict[str, int]:
        """Nanoseconds per span name: each span's duration minus the time
        its child spans cover."""
        return self_times(self.names, self.span_name, self.span_parent,
                          self.span_start, self.span_end)

    def root_time(self) -> int:
        """Nanoseconds covered by spans that have no parent."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_parent))
                   if self.span_parent[i] < 0)

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        if name == "structures.enumerate_i_partitions":
            c[name + ".moves"] += len(result)
            family, of, width = args[:3]
            maximal = args[3] if len(args) > 3 else kwargs.get("maximal", True)
            key = (family, of, width, maximal)
            if key in self._seen_ipartitions:
                c[name + ".repeats"] += 1
            else:
                self._seen_ipartitions.add(key)
        elif name == "engine.verify_winning_strategy":
            c[name + ".nodes"] += result.nodes
        elif name == "engine.enumerate_playouts":
            c[name + ".nodes"] += _playout_nodes(result)
        elif name == "solver.solve":
            c[name + ".states_visited"] += result.stats.states_visited
            c[name + ".memo_hits"] += result.stats.memo_hits
        elif name == "solver.refute":
            c[name + ".nodes"] += result.nodes
        elif name == "serialize.serialize_strategy":
            c[name + ".bytes"] += len(result)
        elif name == "analysis.equivalence_audit":
            c[name + ".rows"] += len(result.rows)
        elif name == "analysis.check_distributivity":
            c[name + ".sequences_checked"] += result.sequences_checked
        elif name == "transforms.certify_playouts":
            c[name + ".certificates"] += len(result)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            tracer._count(name, args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Rebind every target in each loaded ``cutchoose`` module."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for modname, _, _ in TARGETS:
            importlib.import_module(f"cutchoose.{modname}")
        modules = _cutchoose_modules()
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[f"cutchoose.{modname}"], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


def _cutchoose_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cutchoose" or n.startswith("cutchoose."))]


def installed_wrappers() -> list[str]:
    """``module.attr`` of every span wrapper still bound; empty when clean."""
    return [f"{mod.__name__}.{attr}" for mod in _cutchoose_modules()
            for attr, value in vars(mod).items() if hasattr(value, MARK)]


def assert_untraced() -> None:
    """Refuse to time an untraced pass while any span wrapper is bound."""
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"span wrappers still installed: {left}")


def self_times(names, span_name, span_parent, span_start, span_end) -> dict[str, int]:
    child = [0] * len(span_start)
    for i, parent in enumerate(span_parent):
        if parent >= 0:
            child[parent] += span_end[i] - span_start[i]
    out: dict[str, int] = defaultdict(int)
    for i, nid in enumerate(span_name):
        out[names[nid]] += span_end[i] - span_start[i] - child[i]
    return dict(out)


def write_spans(tracer: Tracer, path: str) -> None:
    """Dump the raw spans (names plus four parallel arrays) as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names,
                   "name": tracer.span_name.tolist(),
                   "parent": tracer.span_parent.tolist(),
                   "start_ns": tracer.span_start.tolist(),
                   "end_ns": tracer.span_end.tolist()}, fh)
