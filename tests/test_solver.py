"""The main recursion: regions, certificates, strategies, values, config."""

from __future__ import annotations

from fractions import Fraction

import pytest

import mpg.solver as solver_module
from mpg import (
    AssertLevel,
    Game,
    Player,
    Policy,
    SolverConfig,
    SolverInternalError,
    Stats,
    ThresholdMode,
    apply_potential,
    brute_force_solve,
    brute_force_supsigma,
    compute_zones,
    dual_game,
    gen_random,
    GenParams,
    Model,
    is_reduced,
    parse_game,
    preprocess_no_zero_cycles,
    reduce_game,
    solve_threshold,
    solve_values,
    verify_strategy,
)
from mpg.cli import main as cli_main
from mpg.solver import _cycle_mean_bounds, _glue_delta_arrays
from conftest import small_corpus

FULL = SolverConfig(assertions=AssertLevel.FULL)


def count_probes(monkeypatch) -> list:
    """Record the weight bound W of every threshold solve ``solve_values`` runs."""
    calls = []
    real = solver_module.solve_threshold

    def counted(game, cfg=None, **kwargs):
        calls.append(game.W)
        return real(game, cfg, **kwargs)

    monkeypatch.setattr(solver_module, "solve_threshold", counted)
    return calls


def no_zero_cycles(count, seed0, max_n=7, weight_bound=4):
    return [
        preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        for g in small_corpus(count, seed0=seed0, max_n=max_n, weight_bound=weight_bound)
    ]


def all_configs(assertions=AssertLevel.CHEAP):
    return [
        SolverConfig(
            policy=policy,
            opt_init=oi,
            opt_bulk=ob,
            remember_potentials=rp,
            assertions=assertions,
        )
        for policy in Policy
        for oi in (False, True)
        for ob in (False, True)
        for rp in (False, True)
    ]


class TestReduceGame:
    def test_already_reduced_game(self, g1):
        res = reduce_game(g1, FULL)
        assert res.min_region == {0} and res.max_region == frozenset()
        assert res.potential == {0: 0}
        assert res.stats.potential_reductions == 0

    def test_two_vertex_relabeling(self, g3):
        res = reduce_game(g3, FULL)
        assert res.min_region == {0, 1} and res.max_region == frozenset()
        assert res.potential == {0: 2, 1: 0}

    def test_attractor_branch(self, g8):
        res = reduce_game(g8, FULL)
        assert res.min_region == frozenset() and res.max_region == {0, 1, 2}
        assert res.potential == {0: -1, 1: 0, 2: 0}
        assert res.stats.attractor_calls >= 1

    def test_max_escape_branch(self, g9):
        res = reduce_game(g9, FULL)
        assert res.min_region == {0, 1} and res.max_region == frozenset()
        assert res.potential == {0: 0, 1: 1}
        assert res.stats.escapes_fixed >= 1
        assert res.stats.potential_reductions >= 1

    def test_empty_game(self):
        g = parse_game("mpg 1\n")
        res = reduce_game(g, FULL)
        assert res.min_region == res.max_region == frozenset()
        assert res.potential == {}

    def test_regions_match_oracle_on_corpus(self):
        for g in no_zero_cycles(300, seed0=7):
            res = reduce_game(g, FULL)
            oracle = brute_force_solve(g)
            assert res.min_region == oracle.min_region

    def test_certificate_invariant_on_corpus(self):
        for g in no_zero_cycles(200, seed0=8):
            res = reduce_game(g, FULL)
            relabeled = apply_potential(g, res.potential)
            z = compute_zones(relabeled)
            assert is_reduced(relabeled, z)
            assert z.ZN == res.min_region and z.ZP == res.max_region

    def test_determinism(self):
        for g in no_zero_cycles(40, seed0=9):
            a = reduce_game(g, FULL)
            b = reduce_game(g, FULL)
            assert a == b

    def test_dualisation_swaps_regions(self):
        for g in no_zero_cycles(60, seed0=10):
            res = reduce_game(g, FULL)
            mirrored = reduce_game(dual_game(g), FULL)
            assert mirrored.min_region == res.max_region
            assert mirrored.max_region == res.min_region

    def test_recursion_limit_validation(self, g5):
        with pytest.raises(ValueError, match="recursion_limit"):
            reduce_game(g5, SolverConfig(recursion_limit=2))

    def test_config_invariance_on_corpus(self):
        games = no_zero_cycles(40, seed0=11, max_n=6)
        for g in games:
            reference = None
            for cfg in all_configs():
                res = reduce_game(g, cfg)
                regions = (res.min_region, res.max_region)
                if reference is None:
                    reference = regions
                else:
                    assert regions == reference

    def test_strategies_verify_on_corpus(self):
        for g in no_zero_cycles(150, seed0=12):
            res = reduce_game(g, FULL)
            assert verify_strategy(g, res.min_strategy, Player.MIN, res.min_region)
            assert verify_strategy(g, res.max_strategy, Player.MAX, res.max_region)

    def test_peak_values_exact_when_loop_completes(self):
        cfg = SolverConfig(policy=Policy.ALWAYS_N, assertions=AssertLevel.FULL)
        seen = 0
        for g in no_zero_cycles(120, seed0=13, max_n=5):
            events = []
            reduce_game(
                g, cfg, on_sup_values=lambda game, vals, depth: events.append(
                    (game, vals, depth)
                )
            )
            for game, vals, depth in events:
                oracle = brute_force_supsigma(game, compute_zones(game).N)
                assert vals == oracle
                seen += 1
        assert seen > 20


class TestGlueDelta:
    def test_single_crossing_edge(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 1 -3\nedge 0 0 -1\nedge 1 1 1\n"
        )
        assert _glue_delta_arrays(g, [0], [False, True], [0, 0], [0]) == 3

    def test_no_crossing_edges(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 0 -1\nedge 1 1 1\n"
        )
        assert _glue_delta_arrays(g, [0], [False, True], [0, 5], [7]) == 0

    def test_worked_example(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nvertex 2 MAX\nvertex 3 MAX\n"
            "edge 0 2 -3\nedge 1 3 5\nedge 0 1 0\nedge 1 0 0\nedge 2 3 0\nedge 3 2 0\n"
        )
        phi_a, phi_rest = [0, 0, 0, 2], {0: 1, 1: 4}
        delta = _glue_delta_arrays(g, [0, 1], [False, False, True, True], phi_a, [1, 4])
        assert delta == 7
        # the returned shift satisfies the gluing bound on every crossing edge
        for e in range(g.m):
            src, dst = g.esrc[e], g.edst[e]
            if src in {0, 1} and dst in {2, 3}:
                assert delta >= -g.eweight[e] - phi_a[dst] + phi_rest[src]


class TestSolveThreshold:
    def test_zero_cycle_sides_with_min_in_weak_mode(self, g4):
        res = solve_threshold(g4, FULL)
        assert res.min_region == {0, 1} and res.max_region == frozenset()

    def test_zero_cycle_sides_with_max_in_strict_mode(self, g4):
        cfg = SolverConfig(threshold_mode=ThresholdMode.STRICT, assertions=AssertLevel.FULL)
        res = solve_threshold(g4, cfg)
        assert res.max_region == {0, 1} and res.min_region == frozenset()

    def test_mixed_game(self, g5):
        res = solve_threshold(g5, FULL)
        assert res.min_region == {3} and res.max_region == {0, 1, 2}

    def test_certificate_is_for_the_reweighted_game(self, g4):
        res = solve_threshold(g4, FULL)
        pre = preprocess_no_zero_cycles(g4, ThresholdMode.WEAK)
        relabeled = apply_potential(pre, res.potential)
        z = compute_zones(relabeled)
        assert is_reduced(relabeled, z) and z.ZN == res.min_region

    def test_strategies_verify_against_the_reweighted_game(self):
        for g in small_corpus(100, seed0=14, max_n=6):
            res = solve_threshold(g, FULL)
            pre = preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
            assert verify_strategy(pre, res.min_strategy, Player.MIN, res.min_region)
            assert verify_strategy(pre, res.max_strategy, Player.MAX, res.max_region)

    def test_matches_oracle_with_zero_cycles_allowed(self):
        for g in small_corpus(200, seed0=15, max_n=6):
            res = solve_threshold(g, FULL)
            oracle = brute_force_solve(g)
            assert res.min_region == oracle.min_region

    @pytest.mark.parametrize("mode", list(ThresholdMode), ids=lambda m: m.value)
    def test_solve_then_verify_round_trip(self, mode):
        # The certificate and strategies are for preprocess_no_zero_cycles(g,
        # mode), not for g: on g itself the n=30 seed-3 game has a winning Min
        # vertex with no edge the potential admits.
        models = list(Model)
        games = [gen_random(GenParams(n=30, out_degree=(1, 4), weight_bound=10, seed=3))]
        games += [
            gen_random(GenParams(
                n=2 + seed, out_degree=(1, 4), weight_bound=10,
                model=models[seed % 3], seed=seed,
            ))
            for seed in range(30)
        ]
        cfg = SolverConfig(threshold_mode=mode)
        for g in games:
            res = solve_threshold(g, cfg)
            pre = preprocess_no_zero_cycles(g, mode)
            assert verify_strategy(pre, res.min_strategy, Player.MIN, res.min_region)
            assert verify_strategy(pre, res.max_strategy, Player.MAX, res.max_region)
            relabeled = apply_potential(pre, res.potential)
            z = compute_zones(relabeled)
            assert is_reduced(relabeled, z) and z.ZN == res.min_region


class TestSolveValues:
    def test_single_cycle(self, g1):
        assert solve_values(g1).values == {0: Fraction(-1)}

    def test_half_integer_value(self, g3):
        assert solve_values(g3).values == {0: Fraction(-1, 2), 1: Fraction(-1, 2)}

    def test_mixed_game(self, g5):
        assert solve_values(g5).values == {
            0: Fraction(1),
            1: Fraction(1),
            2: Fraction(1),
            3: Fraction(-1),
        }

    def test_matches_cycle_mean_oracle(self):
        for g in small_corpus(200, seed0=16, max_n=6):
            got = solve_values(g).values
            want = brute_force_solve(g).values
            assert got == want

    def test_denominators_and_range(self):
        for g in small_corpus(100, seed0=17, max_n=6):
            for value in solve_values(g).values.values():
                assert abs(value) <= g.W
                assert 1 <= value.denominator <= g.n

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_matches_cycle_mean_oracle_up_to_nine_vertices(self, model):
        for g in small_corpus(120, seed0=18, max_n=9, model=model):
            assert solve_values(g).values == brute_force_solve(g).values

    def test_longest_mediant_runs(self, monkeypatch):
        # One n-cycle of total weight t has value t/n at every vertex; the
        # totals +-1 and +-(n-1) sit at the far end of the left or right run
        # of their integer bracket.
        calls = count_probes(monkeypatch)
        for n in range(2, 41):
            for total in (1, n - 1, -1, -(n - 1)):
                owners = [Player.MIN if v % 2 else Player.MAX for v in range(n)]
                g = Game(owners, [(v, (v + 1) % n, total if v == 0 else 0) for v in range(n)])
                calls.clear()
                assert solve_values(g).values == {v: Fraction(total, n) for v in range(n)}
                # Integer bisection over (-W-1, W], one STRICT probe, then a
                # gallop and a bisection over a chain of fewer than n fractions.
                assert len(calls) <= 3 * n.bit_length() + 2, (n, total, len(calls))

    def test_integer_values_take_logarithmically_many_probes(self, monkeypatch):
        # Self-loops of weight -4..4 plus a zero-weight Hamiltonian cycle:
        # every cycle mean, hence every value, is an integer.
        n = 200
        owners = [Player.MIN if v % 3 else Player.MAX for v in range(n)]
        edges = [(v, v, (7 * v) % 9 - 4) for v in range(n)]
        edges += [(v, (v + 1) % n, 0) for v in range(n)]
        g = Game(owners, edges)
        calls = count_probes(monkeypatch)
        cfg = SolverConfig(
            policy=Policy.LARGER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True
        )
        values = solve_values(g, cfg).values
        distinct = set(values.values())
        assert all(x.denominator == 1 for x in distinct) and len(distinct) > 1
        # Each value: its integer bisection path plus one STRICT probe.  A walk
        # down the mediants would take about n probes per value instead.
        assert len(calls) <= len(distinct) * ((2 * g.W + 1).bit_length() + 1)
        # Probed fractions p/q keep q <= n and |p/q| <= W + 1.
        assert max(calls) <= n * (2 * g.W + 1)

    def test_band_bounds_settle_most_vertices(self, monkeypatch):
        # The eight games of the benchmark's values workload, then two n=60
        # games under the default config: 170 and 20 + 20 probes when every
        # value walked its Stern-Brocot chain on the whole game.
        calls = count_probes(monkeypatch)
        cfg = SolverConfig(opt_init=True, opt_bulk=True, remember_potentials=True)
        for i in range(8):
            g = gen_random(GenParams(n=30 + 30 * i // 7, out_degree=(1, 3), weight_bound=20, seed=1 + i))
            solve_values(g, cfg)
        assert len(calls) <= 60
        for seed in (1, 3):
            calls.clear()
            solve_values(gen_random(GenParams(n=60, out_degree=(1, 3), weight_bound=20, seed=seed)))
            assert len(calls) <= 10, seed

    def test_chain_search_settles_what_the_bounds_leave(self, monkeypatch):
        # Games such as indices 38 and 62 keep vertices whose bounds never
        # meet, so their values come from the galloping chain search.
        chain_calls = []
        real = solver_module._chain_at

        def counted(*args):
            chain_calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver_module, "_chain_at", counted)
        chained = 0
        for g in small_corpus(120, seed0=18, max_n=9, model=Model.CYCLE_HEAVY):
            chain_calls.clear()
            assert solve_values(g).values == brute_force_solve(g).values
            chained += bool(chain_calls)
        assert chained >= 1

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_search_alone_matches_cycle_mean_oracle(self, model, monkeypatch):
        # Without bounds every value comes from the bisection, the STRICT
        # probes and the chain search on band subgames, down to the links
        # whose only fraction of small enough denominator is the value.
        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", lambda *args: [])
        for g in small_corpus(80, seed0=24, max_n=9, model=model):
            assert solve_values(g).values == brute_force_solve(g).values
        for n in range(2, 13):
            for total in (1, n - 1, -1, -(n - 1)):
                owners = [Player.MIN if v % 2 else Player.MAX for v in range(n)]
                g = Game(owners, [(v, (v + 1) % n, total if v == 0 else 0) for v in range(n)])
                assert solve_values(g).values == {v: Fraction(total, n) for v in range(n)}

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_one_player_bounds_match_cycle_mean_oracle(self, model):
        # With every vertex of one player down to a single edge, the other
        # player's best reachable cycle mean is the value.
        for g in small_corpus(60, seed0=23, max_n=9, model=model):
            for fixed in Player:
                strategy, edges = {}, []
                for e in range(g.m):
                    v = g.esrc[e]
                    if g.owners[v] is fixed:
                        if v in strategy:
                            continue
                        strategy[v] = len(edges)
                    edges.append((v, g.edst[e], g.eweight[e]))
                one = Game(g.owners, edges)
                bounds = _cycle_mean_bounds(
                    one, frozenset(range(one.n)), strategy, fixed is Player.MIN
                )
                want = brute_force_solve(one).values
                assert dict(bounds) == {v: (x.numerator, x.denominator) for v, x in want.items()}


class TestDeriveStrategies:
    def test_min_strategy_example(self, g3):
        res = reduce_game(g3, FULL)
        assert set(res.min_strategy) == {0}  # b is Max-owned, so no entry
        e = res.min_strategy[0]
        assert (g3.esrc[e], g3.edst[e]) == (0, 1)
        assert res.max_strategy == {}

    def test_forced_loop(self, g1):
        res = reduce_game(g1, FULL)
        assert res.min_strategy == {0: 0}

    def test_max_forced_loop(self, g2):
        res = reduce_game(g2, FULL)
        assert res.max_strategy == {0: 0} and res.min_strategy == {}

    def test_rederivation_is_idempotent(self, g8):
        res = reduce_game(g8, FULL)
        again = solver_module.derive_strategies(g8, res)
        assert again.min_strategy == res.min_strategy
        assert again.max_strategy == res.max_strategy


class TestAssertionMachinery:
    def test_full_assertions_hold_across_policies(self):
        games = no_zero_cycles(30, seed0=18, max_n=6)
        for g in games:
            for cfg in all_configs(assertions=AssertLevel.FULL):
                reduce_game(g, cfg)  # raises SolverInternalError on violation

    def test_off_level_still_solves_correctly(self):
        cfg = SolverConfig(assertions=AssertLevel.OFF)
        for g in no_zero_cycles(60, seed0=19):
            assert reduce_game(g, cfg).min_region == brute_force_solve(g).min_region

    @pytest.mark.parametrize("level", ["off", "cheap"])
    def test_sink_remainder_is_an_internal_error(self, level, monkeypatch, tmp_path):
        # With backtracking disabled, Max's vertex 1, whose only edge enters
        # the finished set {0}, is left as a sink of the escape remainder.
        text = "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 0 -1\nedge 1 0 1\n"
        monkeypatch.setattr(solver_module, "_backtrack_core", lambda game, in_f, val: [])
        monkeypatch.delenv("MPG_ASSERT", raising=False)
        cfg = SolverConfig(assertions=AssertLevel[level.upper()])
        with pytest.raises(SolverInternalError, match="remainder is not a subgame"):
            reduce_game(parse_game(text), cfg)
        path = tmp_path / "g.mpg"
        path.write_text(text)
        assert cli_main(["solve", str(path), "--assert", level]) == 3


def threshold_small_game(i: int) -> Game:
    """Game ``i`` of the benchmark's ``threshold-small`` corpus."""
    models = (Model.UNIFORM, Model.CYCLE_HEAVY, Model.LAYERED)
    return gen_random(GenParams(
        n=20 + (7 * i) % 61, out_degree=(1, 4), weight_bound=100,
        model=models[i % 3], seed=1001 + i,
    ))


class TestWorkCounters:
    """Exact work counts on fixed games.  Making a frame cheaper (deciding a
    child on a view of its parent, building fewer subgames) must leave the
    recursion itself, and so every counter, as it is."""

    def test_cli_large_game(self):
        g = gen_random(GenParams(n=1000, out_degree=(1, 9), weight_bound=10**6, seed=42))
        cfg = SolverConfig(
            opt_init=True, opt_bulk=True, remember_potentials=True,
            assertions=AssertLevel.OFF,
        )
        assert solve_threshold(g, cfg).stats == Stats(
            recursive_calls=47, loop_iterations=45, escapes_fixed=0, bulk_fixed=26,
            attractor_calls=22, potential_reductions=0, max_depth=10,
        )

    # Game index -> Stats fields in declaration order, default config.
    SMALL = {
        4: (62, 51, 19, 0, 23, 9, 5),
        7: (114, 103, 63, 0, 25, 15, 7),
        12: (44, 40, 12, 0, 21, 7, 4),
        15: (274, 250, 96, 0, 100, 54, 7),
        20: (32, 31, 12, 0, 7, 12, 5),
    }

    @pytest.mark.parametrize("i", sorted(SMALL))
    def test_threshold_small_games(self, i):
        assert solve_threshold(threshold_small_game(i)).stats == Stats(*self.SMALL[i])


class TestStats:
    def test_counters_are_consistent(self):
        for g in no_zero_cycles(60, seed0=20):
            res = reduce_game(g, FULL)
            s = res.stats
            assert s.recursive_calls >= 1
            assert s.max_depth <= g.n
            assert s.loop_iterations >= 0
            assert min(
                s.escapes_fixed, s.bulk_fixed, s.attractor_calls, s.potential_reductions
            ) >= 0

    def test_bulk_counter_used_when_enabled(self):
        cfg = SolverConfig(opt_bulk=True, assertions=AssertLevel.FULL)
        saw_bulk = 0
        for g in no_zero_cycles(80, seed0=21):
            res = reduce_game(g, cfg)
            assert res.stats.escapes_fixed == 0
            saw_bulk += res.stats.bulk_fixed
        assert saw_bulk > 0
