"""Command-line interface.

Subcommands: solve, values, zones, check, gen, diff, bench.  Exit codes:
0 success, 1 disagreement (diff) or failed certificate (check), 2 input
error, 3 internal solver error.  All output is deterministic given the
arguments except the wall-clock column of bench CSVs.  The MPG_ASSERT
environment variable (off/cheap/full) overrides the assertion level.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, astuple, replace
from fractions import Fraction
from pathlib import Path

from .backtracking import SolverInternalError
from .game import (
    Game,
    GameError,
    ThresholdMode,
    apply_potential,
    parse_game,
    parse_potential,
    serialize_game,
)
from .generators import GenParams, Model, gen_random
from .oracles import BudgetExceededError, DEFAULT_BUDGET, brute_force_solve
from .solver import (
    AssertLevel,
    Policy,
    SolveResult,
    SolverConfig,
    solve_threshold,
    solve_values,
)
from .zones import compute_zones, is_reduced

_POLICIES = {p.value: p for p in Policy}
_MODELS = {m.value: m for m in Model}
_ASSERT_LEVELS = {level.name.lower(): level for level in AssertLevel}

#: Every (opt_init, opt_bulk, remember_potentials) combination.
_OPT_COMBOS = [(i, b, r) for i in (False, True) for b in (False, True) for r in (False, True)]

BENCH_HEADER = (
    "instance,n,m,W,policy,opt_init,opt_bulk,remember,wall_us,recursive_calls,"
    "loop_iterations,escapes_fixed,bulk_fixed,attractor_calls,"
    "potential_reductions,max_depth,result_hash"
)


def _add_config_flags(
    sub: argparse.ArgumentParser, *, policy: bool = True, switches: tuple = ()
) -> None:
    """Solver configuration flags; ``switches`` are more store-true flags put
    before ``--assert``.  Without ``policy`` the caller declares its own.  A
    flag that is not given stores nothing: ``_config_from_args`` fills it in."""
    unset = argparse.SUPPRESS
    if policy:
        sub.add_argument("--policy", choices=sorted(_POLICIES), default=unset)
    for flag in ("--opt-init", "--opt-bulk", "--remember-potentials", *switches):
        sub.add_argument(flag, action="store_true", default=unset)
    sub.add_argument("--assert", dest="assert_level", choices=sorted(_ASSERT_LEVELS), default=unset)


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--degree-min", type=int, default=1)
    sub.add_argument("--degree-max", type=int, default=3)
    sub.add_argument("--weight-bound", type=int, default=4)
    sub.add_argument("--min-fraction", default="1/2")
    sub.add_argument("--model", choices=sorted(_MODELS), default=Model.UNIFORM.value)
    sub.add_argument("--seed", type=int, default=0)


def _config_from_args(args) -> SolverConfig:
    """The one place a SolverConfig is built from parsed arguments.

    A flag absent from the command line takes the SolverConfig default; the
    MPG_ASSERT environment variable overrides ``--assert``.
    """
    default = SolverConfig()
    flag = vars(args).get
    level = os.environ.get("MPG_ASSERT", flag("assert_level", default.assertions.name)).lower()
    if level not in _ASSERT_LEVELS:
        raise GameError(f"unknown assertion level {level!r}")
    return SolverConfig(
        policy=_POLICIES[flag("policy", default.policy.value)],
        opt_init=flag("opt_init", default.opt_init),
        opt_bulk=flag("opt_bulk", default.opt_bulk),
        remember_potentials=flag("remember_potentials", default.remember_potentials),
        threshold_mode=ThresholdMode.STRICT if flag("strict_threshold") else default.threshold_mode,
        assertions=_ASSERT_LEVELS[level],
    )


def _configs(base: SolverConfig, policies, opt_combos) -> list:
    """``base`` under each policy and (opt_init, opt_bulk, remember) triple."""
    return [
        replace(base, policy=policy, opt_init=i, opt_bulk=b, remember_potentials=r)
        for policy in policies
        for i, b, r in opt_combos
    ]


def _load_game(path: str) -> Game:
    return parse_game(Path(path).read_bytes())


def _orig_sorted(g: Game, vertices) -> list:
    return sorted(g.orig_ids[v] for v in vertices)


def _result_json(g: Game, res: SolveResult) -> dict:
    order = sorted(range(g.n), key=lambda v: g.orig_ids[v])
    # Both players' maps in one pass, keyed by the side of the winning owner.
    strategies = {1: {}, -1: {}}
    for v in order:
        if (e := res.strategy[v]) >= 0:
            strategies[res.sides[v]][str(g.orig_ids[v])] = {
                "dst": g.orig_ids[g.edst[e]],
                "weight": g.eweight[e],
            }
    return {
        "min_region": _orig_sorted(g, res.min_region),
        "max_region": _orig_sorted(g, res.max_region),
        "potential": {str(g.orig_ids[v]): res.potential[v] for v in order},
        "min_strategy": strategies[1],
        "max_strategy": strategies[-1],
        "stats": asdict(res.stats),
    }


def _result_hash(g: Game, res: SolveResult) -> str:
    text = "min:{};max:{}".format(
        ",".join(map(str, _orig_sorted(g, res.min_region))),
        ",".join(map(str, _orig_sorted(g, res.max_region))),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _print_json(doc) -> None:
    """One compact JSON document on one line, as every subcommand prints it."""
    print(json.dumps(doc, separators=(",", ":")))


def cmd_solve(args) -> int:
    g = _load_game(args.game)
    res = solve_threshold(g, _config_from_args(args))
    if args.json:
        doc = _result_json(g, res)
        # json.dumps builds every chunk at once; the game need not be held meanwhile.
        del g, res
        _print_json(doc)
    else:
        print(f"min_region: {_orig_sorted(g, res.min_region)}")
        print(f"max_region: {_orig_sorted(g, res.max_region)}")
    return 0


def cmd_values(args) -> int:
    g = _load_game(args.game)
    res = solve_values(g, _config_from_args(args))
    doc = {
        str(g.orig_ids[v]): str(res.by_vertex[v])
        for v in sorted(range(g.n), key=lambda v: g.orig_ids[v])
    }
    _print_json(doc)
    return 0


def cmd_zones(args) -> int:
    g = _load_game(args.game)
    z = compute_zones(g)
    doc = {
        name: _orig_sorted(g, getattr(z, name)) for name in ("N", "Z", "P", "ZN", "ZP")
    }
    _print_json(doc)
    return 0


def cmd_check(args) -> int:
    g = _load_game(args.game)
    phi = parse_potential(Path(args.potential).read_bytes(), g)
    # `solve` certifies the zero-cycle-free reweighting, so check that game.
    mode = ThresholdMode.STRICT if args.strict_threshold else ThresholdMode.WEAK
    relabeled = apply_potential(g, phi, mode)
    z = compute_zones(relabeled)
    reduced = is_reduced(relabeled, z)
    doc = {
        "reduced": reduced,
        "min_region": _orig_sorted(g, z.ZN),
        "max_region": _orig_sorted(g, z.ZP),
    }
    _print_json(doc)
    return 0 if reduced else 1


def _gen_params(args, seed: int) -> GenParams:
    try:
        min_fraction = Fraction(args.min_fraction)
    except ZeroDivisionError:
        raise ValueError(f"--min-fraction {args.min_fraction!r} has a zero denominator") from None
    return GenParams(
        n=args.n,
        out_degree=(args.degree_min, args.degree_max),
        weight_bound=args.weight_bound,
        min_fraction=min_fraction,
        model=_MODELS[args.model],
        seed=seed,
    )


def cmd_gen(args) -> int:
    game = gen_random(_gen_params(args, args.seed))
    data = serialize_game(game)
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    return 0


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")


def cmd_diff(args) -> int:
    _check_count(args.count)
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    configs = _configs(_config_from_args(args), Policy, _OPT_COMBOS)
    agree = 0
    for i in range(args.count):
        n = 2 + i % (args.max_n - 1)
        game = gen_random(GenParams(n=n, out_degree=(1, 3), weight_bound=4, seed=args.seed + i))
        oracle = brute_force_solve(game, args.budget)
        for cfg in configs:
            res = solve_threshold(game, cfg)
            got_min = res.min_region
            if args.self_test_corrupt:
                got_min = got_min ^ {0}
            if got_min != oracle.min_region:
                print(f"mismatch on instance {i} (seed {args.seed + i}, {cfg.policy.value})")
                sys.stdout.write(serialize_game(game).decode())
                print(f"solver min_region: {_orig_sorted(game, got_min)}")
                print(f"oracle min_region: {_orig_sorted(game, oracle.min_region)}")
                return 1
        agree += 1
    print(f"{agree}/{args.count} agree")
    return 0


def _bench_instances(args) -> list:
    if args.corpus:
        corpus = Path(args.corpus)
        if not corpus.is_dir():
            raise NotADirectoryError(f"corpus {args.corpus} is not a directory")
        return [(path.stem, parse_game(path.read_bytes())) for path in sorted(corpus.glob("*.mpg"))]
    return [
        (f"gen-{args.seed + i}", gen_random(_gen_params(args, args.seed + i)))
        for i in range(args.count)
    ]


def cmd_bench(args) -> int:
    _check_count(args.count)
    base = _config_from_args(args)
    instances = _bench_instances(args)
    policies = [_POLICIES[p] for p in args.policies] if args.policies else [base.policy]
    if vars(args).get("sweep_opts"):
        opt_combos = _OPT_COMBOS
    else:
        opt_combos = [(base.opt_init, base.opt_bulk, base.remember_potentials)]
    configs = _configs(base, policies, opt_combos)
    rows = []
    for name, game in instances:
        for cfg in configs:
            start = time.perf_counter_ns()
            res = solve_threshold(game, cfg)
            wall_us = (time.perf_counter_ns() - start) // 1000
            rows.append(
                [
                    name, game.n, game.m, game.W, cfg.policy.value,
                    int(cfg.opt_init), int(cfg.opt_bulk), int(cfg.remember_potentials),
                    wall_us, *astuple(res.stats), _result_hash(game, res),
                ]
            )
    with open(args.csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCH_HEADER.split(","))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="winning regions of a game file")
    solve.add_argument("game")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--strict-threshold", action="store_true")
    _add_config_flags(solve)
    solve.set_defaults(func=cmd_solve)

    values = subs.add_parser("values", help="exact mean-payoff values")
    values.add_argument("game")
    _add_config_flags(values)
    values.set_defaults(func=cmd_values)

    zones = subs.add_parser("zones", help="zone partition of a game file")
    zones.add_argument("game")
    zones.set_defaults(func=cmd_zones)

    check = subs.add_parser(
        "check", help="verify a potential file as a certificate of the reweighted game"
    )
    check.add_argument("game")
    check.add_argument("potential")
    check.add_argument(
        "--strict-threshold",
        action="store_true",
        help="the potential certifies the STRICT reweighting, as from solve --strict-threshold",
    )
    check.set_defaults(func=cmd_check)

    gen = subs.add_parser("gen", help="generate a random game")
    gen.add_argument("--n", type=int, required=True)
    _add_gen_flags(gen)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=cmd_gen)

    diff = subs.add_parser("diff", help="differential test against the brute-force oracle")
    diff.add_argument("--count", type=int, default=100)
    diff.add_argument("--max-n", type=int, default=8)
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    diff.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="deliberately corrupt solver output to self-test the harness",
    )
    diff.set_defaults(func=cmd_diff)

    bench = subs.add_parser("bench", help="benchmark a corpus or generated games")
    bench.add_argument("--corpus", help="directory of *.mpg files")
    bench.add_argument("--csv", required=True)
    bench.add_argument("--count", type=int, default=10)
    bench.add_argument("--n", type=int, default=100)
    _add_gen_flags(bench)
    bench.add_argument("--policy", dest="policies", action="append", choices=sorted(_POLICIES))
    _add_config_flags(bench, policy=False, switches=("--sweep-opts", "--strict-threshold"))
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GameError, BudgetExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
