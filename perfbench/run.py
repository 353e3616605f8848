"""Benchmark of the mean-payoff solver on three fixed workloads.

Run from the root of a source checkout, with nothing installed:

    python3 perfbench/run.py --workload threshold-small --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their make-up and why each was chosen):

* ``threshold-small``: ``solve_threshold`` with the default ``SolverConfig()``
  on 120 small generated games;
* ``values``: ``solve_values`` with the optimised configuration on 8 games;
* ``cli-large``: in-process ``mpg solve --json`` then ``mpg check`` round
  trips on three large game files.

Each run sets the inputs up five times (``setup_s`` is the median), then
runs whole rounds over all inputs, in an order drawn from ``--seed``, until
the next round would pass ``--seconds``.  Every output is checked afterwards
by code independent of the solver (``certify.py``).  With ``--trace 1`` the
run times one round untraced, then traced rounds, then one tracemalloc pass,
and reports per-layer figures per round instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 5

sys.path.insert(0, str(ROOT / "src"))
try:
    from mpg import cli, oracles, solver
    from mpg.game import Player, ThresholdMode, serialize_game
    from mpg.generators import GenParams, Model, gen_random
except ImportError as exc:
    sys.exit(f"error: cannot import the solver from {ROOT / 'src'}: {exc}")
if Path(solver.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"error: imported the solver from {solver.__file__}, not from {ROOT / 'src'}")
IMPORT_S = time.perf_counter() - STARTED

from certify import (  # noqa: E402
    CheckedGame,
    certificate_errors,
    library_certificate,
    self_check,
    value_errors,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Inputs built by ``setup``, one timed ``op`` per input, ``check`` after.

    ``check(i, outputs)`` returns a verdict per output, a passing certificate
    for the checker's self-check (or None) and the input's part of the
    region fingerprint.
    """

    #: Named steps of one operation; failures are counted per step.
    steps = ()

    def output_bytes(self, out) -> int:
        """Bytes the program printed for one operation."""
        return 0


class ThresholdSmall(Workload):
    """Default-config threshold solves; the heavy tail of the recursion shows."""

    name = "threshold-small"
    models = (Model.UNIFORM, Model.CYCLE_HEAVY, Model.LAYERED)
    # The tracemalloc pass costs ~10x; this is the largest game (n=80).
    alloc_index = 26

    def setup(self):
        self.items = [
            gen_random(GenParams(
                n=20 + (7 * i) % 61, out_degree=(1, 4), weight_bound=100,
                model=self.models[i % 3], seed=1001 + i,
            ))
            for i in range(120)
        ]
        self.op(gen_random(GenParams(n=12, out_degree=(1, 4), weight_bound=100, seed=1)))

    def op(self, g):
        return solver.solve_threshold(g)

    def check(self, i, outputs):
        g = self.items[i]
        cg = CheckedGame(g)
        verdicts, first = [], None
        for res in outputs:
            if isinstance(res, Exception):
                verdicts.append((FAILED, f"raised {res!r}"))
                continue
            errors = certificate_errors(cg, "weak", library_certificate(g, res))
            if not errors and first is None:
                first = res
                prepared = g.with_weights([(g.n + 1) * w - 1 for w in g.eweight])
                for player, strat, region in (
                    (Player.MIN, res.min_strategy, res.min_region),
                    (Player.MAX, res.max_strategy, res.max_region),
                ):
                    if not oracles.verify_strategy(prepared, strat, player, region):
                        errors.append(f"verify_strategy rejects the {player.value} strategy")
            verdicts.append((WRONG, errors[0]) if errors else (OK, None))
        if first is None:
            return verdicts, None, f"{i}:?"
        sample = (cg, "weak", library_certificate(g, first))
        return verdicts, sample, f"{i}:{sorted(first.min_region)}"


class Values(Workload):
    """Exact values: time is probes times the cost of one optimised solve."""

    name = "values"
    cfg = solver.SolverConfig(opt_init=True, opt_bulk=True, remember_potentials=True)
    # The tracemalloc pass costs ~10x; this is the smallest game (n=30).
    alloc_index = 0

    def setup(self):
        self.items = [
            gen_random(GenParams(n=30 + 30 * i // 7, out_degree=(1, 3), weight_bound=20, seed=1 + i))
            for i in range(8)
        ]
        self.op(gen_random(GenParams(n=8, out_degree=(1, 3), weight_bound=20, seed=1)))

    def op(self, g):
        return solver.solve_values(g, self.cfg)

    def _threshold(self, g, strict):
        mode = ThresholdMode.STRICT if strict else ThresholdMode.WEAK
        return solver.solve_threshold(g, replace(self.cfg, threshold_mode=mode))

    def check(self, i, outputs):
        g = self.items[i]
        verdicts, checked = [], []
        for res in outputs:
            if isinstance(res, Exception):
                verdicts.append((FAILED, f"raised {res!r}"))
                continue
            for values, verdict in checked:
                if values == res.values:
                    break
            else:
                errors = value_errors(g, res.values, self._threshold)
                verdict = (WRONG, errors[0]) if errors else (OK, None)
                checked.append((res.values, verdict))
            verdicts.append(verdict)
        good = [values for values, verdict in checked if verdict[0] == OK]
        if not good:
            return verdicts, None, f"{i}:?"
        c = min(good[0].values())
        scaled = g.with_weights([c.denominator * w - c.numerator for w in g.eweight])
        cert = library_certificate(scaled, self._threshold(scaled, False))
        text = sorted((v, str(x)) for v, x in good[0].items())
        return verdicts, (CheckedGame(scaled), "weak", cert), f"{i}:{text}"


class CliLarge(Workload):
    """CLI round trips on large files: per-frame copies, parsing and memory."""

    name = "cli-large"
    steps = ("solve step", "check step")
    # Criterion-10 class: uniform, out-degree (1,9), W=10^6; seeds count up from 42.
    sizes = (1000, 2000, 3000)
    solve_flags = ["--opt-init", "--opt-bulk", "--remember-potentials", "--assert", "off"]
    # The tracemalloc pass costs ~10x; this is the smallest file (n=1000).
    alloc_index = 0

    def setup(self):
        work = OUT / "work"
        work.mkdir(parents=True, exist_ok=True)
        self.items = []
        for k, n in enumerate(self.sizes):
            g = gen_random(GenParams(n=n, out_degree=(1, 9), weight_bound=10**6, seed=42 + k))
            path = work / f"cli-{n}-{42 + k}.mpg"
            path.write_bytes(serialize_game(g))
            self.items.append((g, path))
        warm = gen_random(GenParams(n=200, out_degree=(1, 9), weight_bound=10**6, seed=41))
        path = work / "cli-warm.mpg"
        path.write_bytes(serialize_game(warm))
        self.op((warm, path))

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def op(self, item):
        _, path = item
        pot = path.with_suffix(".pot")
        code, text = self._main(["solve", "--json", str(path), *self.solve_flags])
        if code != 0:
            return code, text, None, None
        doc = json.loads(text)
        pot.write_text("".join(f"{v} {x}\n" for v, x in doc["potential"].items()))
        check_code, check_text = self._main(["check", str(path), str(pot)])
        return code, text, check_code, check_text

    def check(self, i, outputs):
        g, _ = self.items[i]
        cg = CheckedGame(g)
        verdicts, sample, regions = [], None, "?"
        for out in outputs:
            if isinstance(out, Exception):
                verdicts.append((FAILED, f"raised {out!r}"))
                continue
            code, text, check_code, check_text = out
            if code != 0:
                verdicts.append((FAILED, f"solve step exited {code}"))
                continue
            try:
                doc = json.loads(text)
                cert = {
                    "min_region": doc["min_region"],
                    "max_region": doc["max_region"],
                    "potential": [doc["potential"][str(v)] for v in range(g.n)],
                    "min_strategy": self._strategy(doc["min_strategy"]),
                    "max_strategy": self._strategy(doc["max_strategy"]),
                }
            except (ValueError, KeyError, TypeError) as exc:
                verdicts.append((WRONG, f"solve step: unreadable output ({exc!r})"))
                continue
            errors = certificate_errors(cg, "weak", cert)
            if errors:
                verdicts.append((WRONG, f"solve step: {errors[0]}"))
                continue
            if sample is None:
                sample, regions = (cg, "weak", cert), str(doc["min_region"])
            if check_code != 0:
                verdicts.append((FAILED, f"check step exited {check_code}"))
            elif self._check_regions(check_text) != doc["min_region"]:
                verdicts.append((WRONG, "check step: regions differ from the solve step"))
            else:
                verdicts.append((OK, None))
        return verdicts, sample, f"{self.sizes[i]}:{regions}"

    @staticmethod
    def _check_regions(text):
        try:
            return json.loads(text)["min_region"]
        except (ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def _strategy(doc):
        return {int(v): (e["dst"], e["weight"]) for v, e in doc.items()}

    def output_bytes(self, out):
        _, text, _, check_text = out
        return len(text) + len(check_text or "")


WORKLOADS = {w.name: w for w in (ThresholdSmall, Values, CliLarge)}


def run_rounds(work, order_rng, seconds, lat, outs):
    """Whole rounds over every input until the next would pass ``seconds``."""
    took_all = []
    while True:
        order = list(range(len(work.items)))
        order_rng.shuffle(order)
        start = time.perf_counter()
        for i in order:
            t = time.perf_counter()
            try:
                out = work.op(work.items[i])
            except Exception as exc:  # counted as a failed operation
                out = exc
            lat[i].append(time.perf_counter() - t)
            outs[i].append(out)
        took_all.append(time.perf_counter() - start)
        if sum(took_all) + took_all[-1] > seconds:
            return took_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("MPG_ASSERT", None)  # the flags alone pick the assertion level
    OUT.mkdir(parents=True, exist_ok=True)

    work = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        work.setup()
        setup_times.append(time.perf_counter() - t)

    order_rng = random.Random(args.seed)
    lat = [[] for _ in work.items]
    outs = [[] for _ in work.items]
    metrics = {}
    if args.trace:
        import spans

        plain = run_rounds(work, order_rng, 0, lat, outs)
        with spans.Tracer() as tracer:
            traced = run_rounds(work, order_rng, args.seconds - plain[0], lat, outs)
        round_s = plain + traced
        metrics.update(tracer.metrics(len(traced)))
        peak = spans.AllocPeak().measure(lambda: work.op(work.items[work.alloc_index]))
        metrics["solver.peak_alloc_mib"] = (peak, "MiB")
        metrics["cli.output_bytes"] = (
            sum(work.output_bytes(o[0]) for o in outs if not isinstance(o[0], Exception)),
            "count",
        )
        metrics["trace.overhead_s"] = (statistics.mean(traced) - plain[0], "s")
        tracer.write_spans(OUT / f"spans-{work.name}.json")
    else:
        round_s = run_rounds(work, order_rng, args.seconds, lat, outs)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reasons = {}
    failed = wrong = 0
    sample = None
    parts = []
    for i in range(len(work.items)):
        verdicts, item_sample, part = work.check(i, outs[i])
        parts.append(part)
        sample = sample or item_sample
        for verdict, reason in verdicts:
            if verdict != OK:
                reasons[reason] = reasons.get(reason, 0) + 1
                failed += 1
                wrong += verdict == WRONG
    missed = self_check(*sample) if sample else ["no passing certificate to corrupt"]
    fingerprint = _hash(";".join(parts))
    attempted = sum(len(x) for x in outs)

    if not args.trace:
        medians = [statistics.median(x) for x in lat]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / sum(round_s), "1/s"),
            "op_s.p50": (statistics.median(medians), "s"),
            "op_s.p90": (statistics.quantiles(medians, n=10, method="inclusive")[8], "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    summary = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": IMPORT_S,
        "setup_reps_s": setup_times,
        "round_s": round_s,
        "fingerprint": fingerprint,
        "failures": reasons,
        "self_check_missed": missed,
        "latency_s": {str(i): x for i, x in enumerate(lat)},
    }
    (OUT / f"{work.name}-{'trace' if args.trace else 'run'}.json").write_text(json.dumps(summary, indent=1))
    print(f"{work.name}: fingerprint {fingerprint}, {len(round_s)} rounds, {attempted} operations")
    for step in work.steps:
        count = sum(c for reason, c in reasons.items() if reason.startswith(step))
        print(f"{work.name}: {count} failed at the {step}")
    for reason, count in sorted(reasons.items()):
        print(f"{work.name}: {count} failed: {reason}")
    for item in missed:
        print(f"{work.name}: self-check failed: {item}")
    result = {
        "correct": wrong == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
