"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The sweeps are
property-based at desk scale: a 10,000-game corpus checked against
independent oracles, certificate and strategy verification on every
instance, configuration invariance, exact values, zero-cycle handling, and
one large performance smoke instance.
"""

from __future__ import annotations

import csv
import resource
import time
from dataclasses import dataclass

import pytest

from mpg import (
    AssertLevel,
    Game,
    GenParams,
    Player,
    Policy,
    SolverConfig,
    SolverInternalError,
    ThresholdMode,
    apply_potential,
    brute_force_solve,
    brute_force_supsigma,
    compute_zones,
    energy_value_iteration,
    gen_random,
    is_reduced,
    preprocess_no_zero_cycles,
    reduce_game,
    serialize_game,
    solve_threshold,
    solve_values,
    verify_strategy,
)
from mpg.cli import main as cli_main
from mpg.generators import Rng

CORPUS_SIZE = 10_000
CORPUS_PARAMS = dict(n=8, out_degree=(1, 3), weight_bound=4)
FULL = SolverConfig(assertions=AssertLevel.FULL)


def corpus_game(seed: int) -> Game:
    return gen_random(GenParams(seed=seed, **CORPUS_PARAMS))


@dataclass
class Record:
    seed: int
    pre: Game  # zero-cycle-free reweighting actually solved
    result: object
    brute_min: frozenset


@dataclass
class Sweep:
    records: list
    violations: list
    solver_and_oracle_seconds: float


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    records = []
    violations = []
    spent = 0.0
    for seed in range(CORPUS_SIZE):
        g = corpus_game(seed)
        start = time.perf_counter()
        try:
            result = solve_threshold(g, FULL)
        except SolverInternalError as exc:
            violations.append((seed, str(exc)))
            continue
        brute = brute_force_solve(g)
        spent += time.perf_counter() - start
        pre = preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        records.append(Record(seed, pre, result, brute.min_region))
    return Sweep(records, violations, spent)


def report(passed: bool, line: str) -> None:
    print(("[PASS] " if passed else "[FAIL] ") + line)
    assert passed, line


def test_criterion_01_oracle_equivalence(sweep):
    mismatches = [
        r.seed for r in sweep.records if r.result.min_region != r.brute_min
    ]
    ok = (
        not mismatches
        and not sweep.violations
        and len(sweep.records) == CORPUS_SIZE
        and sweep.solver_and_oracle_seconds <= 300.0
    )
    report(
        ok,
        f"criterion 1: solver == brute force on {len(sweep.records)}/{CORPUS_SIZE} "
        f"games in {sweep.solver_and_oracle_seconds:.1f}s (<= 300s); "
        f"mismatches: {mismatches[:5]}",
    )


def test_criterion_02_certificate_soundness(sweep):
    bad = []
    for r in sweep.records:
        relabeled = apply_potential(r.pre, r.result.potential)
        z = compute_zones(relabeled)
        if not (
            is_reduced(relabeled, z)
            and z.ZN == r.result.min_region
            and z.ZP == r.result.max_region
        ):
            bad.append(r.seed)
    report(
        not bad,
        f"criterion 2: certifying potential reduces all {len(sweep.records)} games "
        f"with matching zones; failures: {bad[:5]}",
    )


def test_criterion_03_config_invariance(sweep):
    configs = [
        SolverConfig(
            policy=policy,
            opt_init=oi,
            opt_bulk=ob,
            remember_potentials=rp,
            assertions=AssertLevel.FULL,
        )
        for policy in Policy
        for oi in (False, True)
        for ob in (False, True)
        for rp in (False, True)
    ]
    assert len(configs) == 40
    disagreements = []
    for r in sweep.records[:1000]:
        game = corpus_game(r.seed)
        want = (r.result.min_region, r.result.max_region)
        for cfg in configs:
            res = solve_threshold(game, cfg)
            if (res.min_region, res.max_region) != want:
                disagreements.append((r.seed, cfg.policy.value))
                break
    report(
        not disagreements,
        f"criterion 3: 1000 games x {len(configs)} configurations agree on regions; "
        f"disagreements: {disagreements[:5]}",
    )


def test_criterion_04_peak_value_exactness():
    cfg = SolverConfig(policy=Policy.ALWAYS_N, assertions=AssertLevel.FULL)
    checked = 0
    mismatches = []
    seed = 0
    while checked < 1000 and seed < 20_000:
        g = gen_random(GenParams(n=6, out_degree=(1, 3), weight_bound=4, seed=seed))
        seed += 1
        pre = preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        events = []
        reduce_game(
            pre,
            cfg,
            on_sup_values=lambda game, vals, depth: events.append((game, vals, depth)),
        )
        top = [(game, vals) for game, vals, depth in events if depth == 0]
        if not top:
            continue
        game, vals = top[0]
        oracle = brute_force_supsigma(game, compute_zones(game).N)
        if vals != oracle:
            mismatches.append(seed - 1)
        checked += 1
    report(
        checked == 1000 and not mismatches,
        f"criterion 4: accumulated peak values exact on {checked}/1000 games "
        f"completing the top-level relabel; mismatches: {mismatches[:5]}",
    )


def test_criterion_05_shrink_assertion_never_fires(sweep):
    ok = not sweep.violations and len(sweep.records) == CORPUS_SIZE
    report(
        ok,
        f"criterion 5: no internal assertion fired across the {CORPUS_SIZE}-game "
        f"sweep at assertions=FULL; violations: {sweep.violations[:3]}",
    )


def test_criterion_06_strategy_verification(sweep):
    bad = []
    for r in sweep.records:
        if not (
            verify_strategy(r.pre, r.result.min_strategy, Player.MIN, r.result.min_region)
            and verify_strategy(
                r.pre, r.result.max_strategy, Player.MAX, r.result.max_region
            )
        ):
            bad.append(r.seed)
    report(
        not bad,
        f"criterion 6: derived strategies verify for both players on "
        f"{len(sweep.records)} games; failures: {bad[:5]}",
    )


def test_criterion_07_exact_values():
    mismatches = []
    for seed in range(1000):
        g = gen_random(GenParams(n=6, out_degree=(1, 3), weight_bound=4, seed=30_000 + seed))
        if solve_values(g).values != brute_force_solve(g).values:
            mismatches.append(seed)
    report(
        not mismatches,
        f"criterion 7: exact rational values match the cycle-mean oracle on "
        f"1000 games; mismatches: {mismatches[:5]}",
    )


def plant_zero_cycle(seed: int) -> Game:
    base = gen_random(GenParams(n=6, out_degree=(1, 3), weight_bound=4, seed=60_000 + seed))
    rng = Rng(seed * 2654435761 + 1)
    length = 2 + rng.below(3)
    vertices = list(range(base.n))
    rng.shuffle(vertices)
    cycle = vertices[:length]
    weights = [rng.randint(-4, 4) for _ in range(length - 1)]
    weights.append(-sum(weights))
    extra = [
        (cycle[i], cycle[(i + 1) % length], weights[i]) for i in range(length)
    ]
    edges = [(base.esrc[e], base.edst[e], base.eweight[e]) for e in range(base.m)]
    return Game(base.owners, edges + extra)


def test_criterion_08_zero_cycle_handling():
    weak = SolverConfig(threshold_mode=ThresholdMode.WEAK, assertions=AssertLevel.FULL)
    strict = SolverConfig(threshold_mode=ThresholdMode.STRICT, assertions=AssertLevel.FULL)
    zero_vertices = 0
    bad = []
    for seed in range(500):
        g = plant_zero_cycle(seed)
        values = brute_force_solve(g).values
        weak_res = solve_threshold(g, weak)
        strict_res = solve_threshold(g, strict)
        for v, value in values.items():
            if value == 0:
                zero_vertices += 1
                ok = v in weak_res.min_region and v in strict_res.max_region
            elif value < 0:
                ok = v in weak_res.min_region and v in strict_res.min_region
            else:
                ok = v in weak_res.max_region and v in strict_res.max_region
            if not ok:
                bad.append((seed, v))
    report(
        not bad and zero_vertices > 0,
        f"criterion 8: {zero_vertices} value-0 vertices over 500 planted games "
        f"side with Min under WEAK and Max under STRICT; failures: {bad[:5]}",
    )


def test_criterion_09_cross_oracle_consistency(sweep):
    from mpg.oracles import PLUS_INF

    bad = []
    for r in sweep.records:
        energy = energy_value_iteration(r.pre)
        finite = frozenset(v for v, x in energy.items() if x != PLUS_INF)
        if finite != r.brute_min:
            bad.append(r.seed)
    report(
        not bad,
        f"criterion 9: energy-iteration finiteness equals brute-force regions on "
        f"{len(sweep.records)} games; failures: {bad[:5]}",
    )


def test_criterion_10_performance_smoke(tmp_path):
    game = gen_random(GenParams(n=10_000, out_degree=(1, 9), weight_bound=10**6, seed=42))
    assert 40_000 <= game.m <= 60_000
    corpus = tmp_path / "big"
    corpus.mkdir()
    (corpus / "big.mpg").write_bytes(serialize_game(game))
    csv_path = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench", "--corpus", str(corpus), "--csv", str(csv_path),
            "--opt-init", "--opt-bulk", "--remember-potentials", "--assert", "off",
        ]
    )
    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    wall_s = int(rows[0]["wall_us"]) / 1e6
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = code == 0 and len(rows) == 1 and wall_s < 60.0 and peak_mib < 1024.0
    report(
        ok,
        f"criterion 10: n={game.n} m={game.m} W={game.W} solved in {wall_s:.1f}s "
        f"(< 60s) within {peak_mib:.0f} MiB (< 1024); stats row recorded "
        f"(calls={rows[0]['recursive_calls']}, depth={rows[0]['max_depth']})",
    )
