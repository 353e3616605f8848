"""Per-layer spans recorded from outside the program.

The tracer replaces the names that ``mpg.solver``, ``mpg.backtracking`` and
``mpg.cli`` call through their module globals (plus ``Game.with_weights``)
with wrappers that record a span per call.  Spans nest because the program
runs in one thread, so a layer's self time is its span time minus the time
of its direct child spans.  Per-layer totals are kept as the run goes; the
spans themselves are kept in memory up to a cap and written when the run
ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from array import array
from collections import Counter

import mpg.backtracking
import mpg.cli
import mpg.game
import mpg.solver

SOLVE = "solver.solve_threshold"
VALUES = "solver.solve_values"

#: (module, attribute, span name).  A name a later refactor removes is skipped
#: and the metrics built from it are reported as absent.
TARGETS = [
    (mpg.solver, "solve_threshold", SOLVE),
    (mpg.solver, "solve_values", VALUES),
    (mpg.solver, "derive_strategies", "solver.derive_strategies"),
    (mpg.solver, "preprocess_no_zero_cycles", "game.preprocess"),
    (mpg.solver, "restrict", "game.restrict"),
    (mpg.solver, "dual_game", "game.dual_game"),
    (mpg.backtracking, "dual_game", "game.dual_game"),
    (mpg.game.Game, "with_weights", "game.with_weights"),
    (mpg.solver, "compute_zones", "zones.compute_zones"),
    (mpg.solver, "is_reduced", "zones.is_reduced"),
    (mpg.solver, "_backtrack_core", "backtracking.backtrack"),
    (mpg.solver, "_attract_max_core", "backtracking.attract"),
    (mpg.solver, "_good_escape_core", "backtracking.good_escape"),
    (mpg.solver, "safe_init", "backtracking.safe_init"),
    (mpg.cli, "main", "cli"),
    (mpg.cli, "solve_threshold", SOLVE),
    (mpg.cli, "parse_game", "game.parse_game"),
    (mpg.cli, "parse_potential", "game.parse_potential"),
    (mpg.cli, "apply_potential", "game.apply_potential"),
    (mpg.cli, "compute_zones", "zones.compute_zones"),
    (mpg.cli, "is_reduced", "zones.is_reduced"),
]

STAT_FIELDS = ("loop_iterations", "escapes_fixed", "bulk_fixed", "attractor_calls")

#: Spans reported as ``<span>.self_s``, and also as ``<span>.calls`` when True.
REPORTED = {
    "game.restrict": True,
    "game.with_weights": True,
    "game.dual_game": True,
    "game.preprocess": False,
    "game.parse_game": False,
    "game.parse_potential": False,
    "game.apply_potential": False,
    "zones.compute_zones": True,
    "zones.is_reduced": True,
    "backtracking.backtrack": True,
    "backtracking.attract": True,
    "backtracking.good_escape": True,
    "backtracking.safe_init": True,
    "solver.derive_strategies": False,
    "cli": False,
}


class Patches:
    """Installs wrappers over ``TARGETS`` and restores the originals."""

    def __init__(self, make_wrapper):
        self.saved = []
        self.installed = set()
        for owner, attr, name in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, make_wrapper(name, fn))
            self.installed.add(name)

    def restore(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)


class Tracer:
    """Spans and per-layer totals over the traced part of a run."""

    def __init__(self, span_cap: int = 200_000):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_cap = span_cap
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.spans_seen = 0
        self.stack: list = []  # [name, span id, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_depth = 0
        self.patches = None

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _on_result(self, name: str, result) -> None:
        if name == "game.restrict":
            self.counts["restrict_edges"] += result.m
        elif name == SOLVE:
            s = result.stats
            self.counts["frames"] += s.recursive_calls - s.potential_reductions
            self.counts["relabels"] += s.potential_reductions
            for field in STAT_FIELDS:
                self.counts[field] += getattr(s, field)
            self.max_depth = max(self.max_depth, s.max_depth)
            if any(frame[0] == VALUES for frame in self.stack):
                self.counts["probes"] += 1
        elif name == VALUES:
            self.counts["distinct_values"] += len(set(result.values.values()))

    def _wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter_ns
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            sid = self.spans_seen
            self.spans_seen += 1
            if sid < self.span_cap:
                self.span_name.append(name_id)
                self.span_start.append(0)
                self.span_end.append(0)
                self.span_parent.append(stack[-1][1] if stack else -1)
            frame = [name, sid, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if sid < self.span_cap:
                    self.span_start[sid] = frame[2]
                    self.span_end[sid] = end
            self._on_result(name, result)
            return result

        return traced

    def __enter__(self):
        self.patches = Patches(self._wrap)
        return self

    def __exit__(self, *exc):
        self.patches.restore()

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload's inputs."""
        installed = self.patches.installed
        out = {}
        for span, with_calls in REPORTED.items():
            if span not in installed:
                continue
            if with_calls:
                out[f"{span}.calls"] = (self.calls[span] / rounds, "count")
            out[f"{span}.self_s"] = (self.self_ns[span] / rounds / 1e9, "s")
        if "game.restrict" in installed:
            out["game.restrict.edges"] = (self.counts["restrict_edges"] / rounds, "count")
        if SOLVE in installed:
            solver_ns = self.self_ns[SOLVE] + self.self_ns[VALUES]
            out["solver.self_s"] = (solver_ns / rounds / 1e9, "s")
            out["solver.frames"] = (self.counts["frames"] / rounds, "count")
            out["solver.relabels"] = (self.counts["relabels"] / rounds, "count")
            for field in STAT_FIELDS:
                out[f"solver.{field}"] = (self.counts[field] / rounds, "count")
            out["solver.max_depth"] = (self.max_depth, "count")
            out["solver.probes"] = (self.counts["probes"] / rounds, "count")
            distinct = self.counts["distinct_values"]
            ratio = self.counts["probes"] / distinct if distinct else 0
            out["solver.probes_per_value"] = (ratio, "probes/value")
        return out

    def write_spans(self, path) -> None:
        kept = min(self.spans_seen, self.span_cap)
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans_total": self.spans_seen,
            "spans_kept": kept,
            "spans": [
                [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                for i in range(kept)
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


class AllocPeak:
    """Largest tracemalloc peak of one outermost solver call, in MiB.

    Only the solver entry points are wrapped, so the pass pays tracemalloc's
    cost but no span bookkeeping.  Memory held before the call is subtracted.
    """

    def __init__(self):
        self.depth = 0
        self.peak = 0

    def _wrap(self, name: str, fn):
        if name not in (SOLVE, VALUES):
            return fn

        def measured(*args, **kwargs):
            self.depth += 1
            if self.depth == 1:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.depth == 1:
                    self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)
                self.depth -= 1

        return measured

    def measure(self, run) -> float:
        patches = Patches(self._wrap)
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
            patches.restore()
        return self.peak / 2**20
