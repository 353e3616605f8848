"""The benchmark's seam into the program: the names it wraps and reads, and its result line.

``perfbench/spans.py`` skips, without a word, any target it cannot find, and
``perfbench/run.py`` reads ``Stats`` and ``SolverConfig`` by field name, so a
rename under ``src/`` can drop per-layer metrics from a run that still
passes.  These tests load the benchmark's own files and leave them as they are.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mpg import SolverConfig, Stats

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in spans.TARGETS
        if owner.__dict__.get(attr) is None
    ]
    # mpg.backtracking has not called dual_game since the escape step was
    # folded for both players; its span is installed through mpg.solver.
    assert missing == ["mpg.backtracking.dual_game"]
    patches = spans.Patches(lambda name, fn: fn)
    patches.restore()
    assert {spans.SOLVE, spans.VALUES, *spans.REPORTED} <= patches.installed
    fields = {f.name for f in dataclasses.fields(Stats)}
    assert {"recursive_calls", "potential_reductions", *spans.STAT_FIELDS} <= fields


def test_every_config_field_the_benchmark_sets_exists():
    tree = ast.parse((BENCH / "run.py").read_text())
    names = {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("SolverConfig", "replace")
        for kw in node.keywords
    }
    assert names  # the parse found the calls
    assert names <= {f.name for f in dataclasses.fields(SolverConfig)}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_workload(tmp_path, workload: str, trace: str) -> dict:
    """One round of ``workload`` on a copy of the checkout; its result line."""
    # A copy of the checkout, so the run's output files stay out of the tree.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # Strict JSON: NaN and Infinity, which json.loads takes by default, fail.
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["values", "threshold-small", "cli-large"])
def test_traced_values_run_reports_every_per_layer_metric(tmp_path, workload):
    result = run_workload(tmp_path, workload, "1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} - set(result["metrics"]) == set()


@pytest.mark.parametrize("workload", ["values", "threshold-small", "cli-large"])
def test_untraced_values_run_reports_every_end_to_end_metric(tmp_path, workload):
    # The benchmark's gated runs are untraced.
    result = run_workload(tmp_path, workload, "0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} - set(result["metrics"]) == set()
