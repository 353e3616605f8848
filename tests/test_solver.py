"""The main recursion: regions, certificates, strategies, values, config."""

from __future__ import annotations

import dataclasses
import hashlib
import random
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
    compute_zones,
    dual_game,
    gen_random,
    GenParams,
    Model,
    NotASubgameError,
    is_reduced,
    parse_game,
    preprocess_no_zero_cycles,
    reduce_game,
    solve_threshold,
    solve_values,
    verify_strategy,
)
from mpg.cli import main as cli_main
from mpg.solver import (
    _cycle_mean_bounds,
    _frame,
    _glue_delta_arrays,
    _hint_holds,
)
from conftest import G3_TEXT, G5_TEXT, small_corpus
from peak_oracles import brute_force_supsigma

FULL = SolverConfig(assertions=AssertLevel.FULL)
# Today's default search, named by the tests that pin the work it does, so
# that their counts keep their meaning if ``SolverConfig()`` changes.
BASELINE = SolverConfig(
    policy=Policy.SMALLER_ZONE, opt_init=False, opt_bulk=False, remember_potentials=False
)
BASELINE_FULL = dataclasses.replace(BASELINE, assertions=AssertLevel.FULL)


def count_probes(monkeypatch) -> list:
    """Record the weight bound W of every threshold solve ``solve_values`` runs."""
    calls = []
    real = solver_module.solve_threshold

    def counted(game, cfg=None, **kwargs):
        calls.append(game.W)
        return real(game, cfg, **kwargs)

    monkeypatch.setattr(solver_module, "solve_threshold", counted)
    return calls


def values_games() -> list:
    """The eight games of the benchmark's ``values`` workload (n 30 to 60)."""
    return [
        gen_random(GenParams(n=30 + 30 * i // 7, out_degree=(1, 3), weight_bound=20, seed=1 + i))
        for i in range(8)
    ]


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
        assert res.potential == (0,)
        assert res.stats.potential_reductions == 0

    def test_two_vertex_relabeling(self, g3):
        res = reduce_game(g3, FULL)
        assert res.min_region == {0, 1} and res.max_region == frozenset()
        assert res.potential == (2, 0)

    def test_attractor_branch(self, g8):
        res = reduce_game(g8, BASELINE_FULL)
        assert res.min_region == frozenset() and res.max_region == {0, 1, 2}
        assert res.potential == (-1, 0, 0)
        assert res.stats.attractor_calls >= 1

    def test_max_escape_branch(self, g9):
        res = reduce_game(g9, BASELINE_FULL)
        assert res.min_region == {0, 1} and res.max_region == frozenset()
        assert res.potential == (0, 1)
        assert res.stats.escapes_fixed >= 1
        assert res.stats.potential_reductions >= 1

    def test_empty_game(self):
        g = parse_game("mpg 1\n")
        res = reduce_game(g, FULL)
        assert res.min_region == res.max_region == frozenset()
        assert res.potential == ()

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

    def test_result_layout(self):
        # The answer is kept per vertex; the regions and the per-player
        # strategy maps are read off ``sides`` and ``strategy``.
        for g in no_zero_cycles(40, seed0=10):
            res = reduce_game(g, FULL)
            assert type(res.sides) is tuple and set(res.sides) <= {1, -1}
            assert type(res.potential) is tuple and len(res.potential) == g.n
            assert res.min_region | res.max_region == set(range(g.n))
            assert not res.min_region & res.max_region
            assert res.min_region == {v for v, s in enumerate(res.sides) if s == 1}
            assert type(res.strategy) is tuple and len(res.strategy) == g.n
            for v, e in enumerate(res.strategy):
                owner_wins = (g.owners[v] is Player.MIN) == (res.sides[v] > 0)
                assert (e >= 0) == owner_wins
                assert e < 0 or (e in g.out[v] and res.sides[g.edst[e]] == res.sides[v])
            mins, maxs = res.min_strategy, res.max_strategy
            assert list(mins) == sorted(mins) and list(maxs) == sorted(maxs)
            assert set(mins) <= res.min_region and set(maxs) <= res.max_region
            assert mins | maxs == {v: e for v, e in enumerate(res.strategy) if e >= 0}
            assert not hasattr(res, "__dict__")
            assert not hasattr(res.stats, "__dict__")

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
        assert _glue_delta_arrays(g, [False, True], [0, 0], [0], [0]) == 3

    def test_no_crossing_edges(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 0 -1\nedge 1 1 1\n"
        )
        assert _glue_delta_arrays(g, [False, True], [0, 5], [0], [7]) == 0

    def test_worked_example(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nvertex 2 MAX\nvertex 3 MAX\n"
            "edge 0 2 -3\nedge 1 3 5\nedge 0 1 0\nedge 1 0 0\nedge 2 3 0\nedge 3 2 0\n"
        )
        phi_a, phi_rest = [0, 0, 0, 2], {0: 1, 1: 4}
        delta = _glue_delta_arrays(g, [False, False, True, True], phi_a, [0, 1], [1, 4])
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

    def test_equal_start_bounds_settle_without_a_probe(self, monkeypatch):
        # With every weight 0 the bounds +-W start equal, which is settled.
        calls = count_probes(monkeypatch)
        g = gen_random(GenParams(n=9, seed=3))
        assert solve_values(g.with_weights([0] * g.m)).values == dict.fromkeys(range(9), 0)
        assert calls == []

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
        # totals +-1 and +-(n-1) sit next to the ends of their integer
        # bracket.
        calls = count_probes(monkeypatch)
        for n in range(2, 41):
            for total in (1, n - 1, -1, -(n - 1)):
                owners = [Player.MIN if v % 2 else Player.MAX for v in range(n)]
                g = Game(owners, [(v, (v + 1) % n, total if v == 0 else 0) for v in range(n)])
                calls.clear()
                assert solve_values(g).values == {v: Fraction(total, n) for v in range(n)}
                # Integer bisection over (-W-1, W], one STRICT probe, then a
                # bisection between fractions of denominator <= n, which lie
                # more than 1/n**2 apart.
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
        # games under ``BASELINE``: 170 and 20 + 20 probes when every
        # value walked its Stern-Brocot chain on the whole game, 43 and 4 + 7
        # with bounds from each probe's regions alone, 32 and 3 + 7 with a
        # probe verifying one of those bounds before each regular probe.
        calls = count_probes(monkeypatch)
        cfg = SolverConfig(
            policy=Policy.SMALLER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True
        )
        for g in values_games():
            solve_values(g, cfg)
        assert len(calls) <= 14
        for seed, probes in ((1, 1), (3, 2)):
            calls.clear()
            g = gen_random(GenParams(n=60, out_degree=(1, 3), weight_bound=20, seed=seed))
            solve_values(g, BASELINE)
            assert len(calls) == probes, seed

    def test_values_probe_sequence_is_pinned(self, monkeypatch):
        # The size, weight bound and mode of every threshold solve on the
        # benchmark's values games, in order.
        calls = []
        real = solver_module.solve_threshold

        def recorded(game, cfg=None, **kwargs):
            calls.append((game.n, game.W, cfg.threshold_mode.value))
            return real(game, cfg, **kwargs)

        monkeypatch.setattr(solver_module, "solve_threshold", recorded)
        cfg = SolverConfig(
            policy=Policy.SMALLER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True
        )
        for g in values_games():
            solve_values(g, cfg)
        assert len(calls) == 14
        assert hashlib.sha256(repr(calls).encode()).hexdigest()[:16] == "500073f504c98929"

    def test_three_one_player_solves_per_probe(self, monkeypatch):
        # Max's region pass is the Min region's part of the pass that gives
        # the upper bounds, so it is not run on its own.
        solves = []
        real = solver_module._cycle_mean_bounds

        def counted(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", counted)
        calls = count_probes(monkeypatch)
        cfg = SolverConfig(
            policy=Policy.SMALLER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True
        )
        for g in values_games():
            solve_values(g, cfg)
        assert len(calls) == 14
        assert len(solves) == 3 * len(calls)

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_upper_pass_repeats_the_min_region_pass(self, model, monkeypatch):
        # On the Min region, closed under Min's strategy, the pass over the
        # whole band must find the bounds and Max's reply that a pass over
        # the region alone finds.
        real_bounds = solver_module._cycle_mean_bounds
        real_solve = solver_module.solve_threshold
        last = []
        checked = 0

        def recorded(game, cfg=None, **kwargs):
            last[:] = [real_solve(game, cfg, **kwargs)]
            return last[0]

        def compared(band, region, strategy, upper):
            nonlocal checked
            bounds, reply = real_bounds(band, region, strategy, upper)
            if upper:
                inside = last[0].min_region
                alone = real_bounds(band, inside, last[0].min_strategy, True)
                assert alone == (
                    [(i, b) for i, b in bounds if i in inside],
                    {v: e for v, e in reply.items() if v in inside},
                )
                checked += bool(inside)
            return bounds, reply

        monkeypatch.setattr(solver_module, "solve_threshold", recorded)
        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", compared)
        for g in small_corpus(80, seed0=18, max_n=9, model=model) + values_games():
            solve_values(g, BASELINE)
        assert checked > 0

    def test_search_alone_probes_within_its_bound(self, monkeypatch):
        # Without bounds an n-cycle of total t takes the integer bisection
        # over (-W-1, W], one STRICT probe and a bisection down to the value
        # among fractions of denominator <= n.
        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", lambda *args: ([], {}))
        calls = count_probes(monkeypatch)
        for n in range(2, 33):
            owners = [Player.MIN if v % 2 else Player.MAX for v in range(n)]
            for total in range(-(n + 1), n + 2):
                g = Game(owners, [(v, (v + 1) % n, total if v == 0 else 0) for v in range(n)])
                calls.clear()
                assert solve_values(g).values == {v: Fraction(total, n) for v in range(n)}
                bound = (2 * g.W + 2).bit_length() + 2 * n.bit_length() + 1
                assert len(calls) <= bound, (n, total, len(calls))

    def test_fraction_search_settles_what_the_bounds_leave(self, monkeypatch):
        # Some games keep vertices whose bounds never meet, so their values
        # come from the search inside brackets narrower than 1, which reads
        # each probe off ``Fraction.limit_denominator``.
        fraction_calls = []
        real = Fraction.limit_denominator

        def counted(self, *args):
            fraction_calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Fraction, "limit_denominator", counted)
        searched = 0
        # Best-response bounds settle every game of the corpus before the
        # fraction search.  The three games added were each found to keep a
        # value that no bound reached; two of them still reach the search.
        games = small_corpus(120, seed0=18, max_n=9, model=Model.CYCLE_HEAVY) + [
            gen_random(GenParams(n=9, out_degree=(2, 4), weight_bound=1, model=model, seed=seed))
            for model, seed in ((Model.CYCLE_HEAVY, 148), (Model.LAYERED, 36), (Model.UNIFORM, 265))
        ]
        for g in games:
            fraction_calls.clear()
            assert solve_values(g, BASELINE).values == brute_force_solve(g).values
            searched += bool(fraction_calls)
        assert searched >= 1

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_search_alone_matches_cycle_mean_oracle(self, model, monkeypatch):
        # Without bounds every value comes from the bisection, the STRICT
        # probes and the fraction search on band subgames, down to the
        # brackets whose only fraction of small enough denominator is the
        # value.
        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", lambda *args: ([], {}))
        for g in small_corpus(80, seed0=24, max_n=9, model=model):
            assert solve_values(g).values == brute_force_solve(g).values
        for n in range(2, 13):
            for total in (1, n - 1, -1, -(n - 1)):
                owners = [Player.MIN if v % 2 else Player.MAX for v in range(n)]
                g = Game(owners, [(v, (v + 1) % n, total if v == 0 else 0) for v in range(n)])
                assert solve_values(g).values == {v: Fraction(total, n) for v in range(n)}

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_bounds_bracket_every_value(self, model, monkeypatch):
        # Every bound of both passes brackets the vertex's value.  A band
        # keeps the ``orig_ids`` of its vertices, which in a generated game
        # are the vertices themselves.
        real = solver_module._cycle_mean_bounds
        seen = []

        def recorded(band, region, strategy, upper):
            bounds, reply = real(band, region, strategy, upper)
            seen.extend((band.orig_ids[v], Fraction(x, y), upper) for v, (x, y) in bounds)
            return bounds, reply

        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", recorded)
        checked = 0
        for g in small_corpus(120, seed0=18, max_n=9, model=model):
            want = brute_force_solve(g).values
            seen.clear()
            solve_values(g)
            for v, bound, upper in seen:
                assert want[v] <= bound if upper else bound <= want[v], (v, bound, upper)
            checked += len(seen)
        assert checked > 0

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_loosened_bounds_keep_values_and_probes_bounded(self, model, monkeypatch):
        # Bounds from both passes, rounded outwards to integers, are still
        # valid but rarely exact.  The values must not change, and no game
        # takes more probes than without bounds.  The rounded bounds can sit
        # on the wrong side of a probe, so the side check is off.
        real = solver_module._cycle_mean_bounds

        def loosened(g, region, strategy, upper):
            bounds, reply = real(g, region, strategy, upper)
            return [(v, (-(-x // y) if upper else x // y, 1)) for v, (x, y) in bounds], reply

        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", loosened)
        calls = count_probes(monkeypatch)
        cfg = SolverConfig(assertions=AssertLevel.OFF)
        games = small_corpus(120, seed0=18, max_n=9, model=model)

        def probes_per_game() -> list:
            counts = []
            for g in games:
                calls.clear()
                assert solve_values(g, cfg).values == brute_force_solve(g).values
                counts.append(len(calls))
            return counts

        bounded = probes_per_game()
        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", lambda *args: ([], {}))
        unbounded = probes_per_game()
        assert all(x <= y for x, y in zip(bounded, unbounded))
        # The loosened bounds still settle some vertices before the search.
        assert sum(bounded) < sum(unbounded)

    @pytest.mark.parametrize("excess, message", [(1, "wrong side"), (-1, "bounds cross")])
    def test_cheap_checks_catch_unsound_upper_bounds(self, excess, message, monkeypatch):
        # Upper bounds of W + 1 lie above every probe, which the side check
        # catches; upper bounds of -W - 1 pass it but fall below the lower
        # bounds -W, which the crossing check catches.
        g = values_games()[0]
        real = solver_module._cycle_mean_bounds

        def unsound(band, region, strategy, upper):
            bounds, reply = real(band, region, strategy, upper)
            if upper:
                bounds = [(v, (excess * (g.W + 1), 1)) for v, _ in bounds]
            return bounds, reply

        monkeypatch.setattr(solver_module, "_cycle_mean_bounds", unsound)
        with pytest.raises(SolverInternalError, match=message):
            solve_values(g)

    def test_full_assertions_on_values_games(self):
        # FULL runs the side check on every region bound and the crossing
        # check on every best-response bound, plus the certificate checks.
        opts = dict(opt_init=True, opt_bulk=True, remember_potentials=True)
        for g in values_games():
            want = solve_values(g, SolverConfig(**opts)).values
            assert solve_values(g, SolverConfig(**opts, assertions=AssertLevel.FULL)).values == want

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
                bounds, _ = _cycle_mean_bounds(
                    one, frozenset(range(one.n)), strategy, fixed is Player.MIN
                )
                want = brute_force_solve(one).values
                assert dict(bounds) == {v: (x.numerator, x.denominator) for v, x in want.items()}


def karp_from(succ: list, s: int) -> Fraction:
    """Largest cycle mean reachable from ``s``; ``succ[v]`` lists ``(u, w)``.

    Karp's formula over walks from s: with D_k(x) the heaviest walk of exactly
    k edges from s to x and N the vertex count, the answer is the max over x
    of the min over k < N of (D_N(x) - D_k(x)) / (N - k).
    """
    n = len(succ)
    rows = [{s: 0}]
    for _ in range(n):
        row: dict = {}
        for x, d in rows[-1].items():
            for y, w in succ[x]:
                if y not in row or d + w > row[y]:
                    row[y] = d + w
        rows.append(row)
    return max(
        min(Fraction(dn - rows[k][x], n - k) for k in range(n) if x in rows[k])
        for x, dn in rows[n].items()
    )


class TestCycleMeanBounds:
    """``_cycle_mean_bounds`` against references that share none of its code."""

    @staticmethod
    def bounds_and_succ(owners: list, edges: list, fixed: Player):
        """Bounds with ``fixed`` held to its first edge, and the graph they use.

        Also follows the returned reply, with the fixed edges, from every
        vertex: the cycle it reaches must have that vertex's bound as its mean.
        """
        g = Game(owners, edges)
        strategy = {v: g.out[v][0] for v in range(g.n) if owners[v] is fixed}
        upper = fixed is Player.MIN
        bounds, reply = _cycle_mean_bounds(g, frozenset(range(g.n)), strategy, upper)
        assert sorted(reply) == [v for v in range(g.n) if owners[v] is not fixed]
        play = {**strategy, **reply}
        for v, bound in bounds:
            at, u = {}, v
            while u not in at:
                at[u] = len(at)
                u = g.edst[play[u]]
            cycle = list(at)[at[u]:]
            mean = Fraction(sum(g.eweight[play[u]] for u in cycle), len(cycle))
            assert bound == (mean.numerator, mean.denominator), v
        sign = 1 if upper else -1
        succ = [
            [(g.edst[e], sign * g.eweight[e]) for e in ([strategy[v]] if v in strategy else g.out[v])]
            for v in range(g.n)
        ]
        return bounds, succ, sign

    def test_matches_per_source_karp(self):
        rng = random.Random(19)
        for k in range(320):
            n, w_bound = rng.randint(2, 21), (0, 1, 3, 1000)[k % 4]
            owners = [rng.choice(list(Player)) for _ in range(n)]
            edges = [
                (v, v if rng.random() < 0.1 else rng.randrange(n), rng.randint(-w_bound, w_bound))
                for v in range(n)
                for _ in range(rng.randint(1, 3))
            ]
            # Two cycles of one mean p/q, of lengths q and 2q, both entered from
            # one hub: equal gains whose biases are scaled by the reduced q.
            p, q = rng.choice([(1, 2), (-1, 2), (2, 3), (0, 1), (3, 1)])
            hub = rng.randrange(n)
            for length in (q, 2 * q):
                first = len(owners)
                owners += [rng.choice(list(Player)) for _ in range(length)]
                edges += [
                    (first + i, first + (i + 1) % length, p * length // q if i == 0 else 0)
                    for i in range(length)
                ]
                edges.append((hub, first, rng.randint(-w_bound, w_bound)))
            for fixed in Player:
                bounds, succ, sign = self.bounds_and_succ(owners, edges, fixed)
                for v, got in bounds:
                    want = sign * karp_from(succ, v)
                    assert got == (want.numerator, want.denominator), (k, fixed, v)

    def test_planted_dag_into_cycles(self):
        # 1,200 DAG vertices of the free player feed five disjoint cycles of
        # the fixed one; a vertex's bound is the best mean among the cycles
        # it reaches, read backwards over the DAG.
        rng = random.Random(3)
        cycles = [(3, 7), (-2, 5), (1, 2), (2, 4), (-9, 3)]  # (total, length)
        for fixed in Player:
            free = Player.MAX if fixed is Player.MIN else Player.MIN
            pick = max if free is Player.MAX else min
            owners, edges, entries = [], [], []
            for total, length in cycles:
                first = len(owners)
                owners += [fixed] * length
                edges += [
                    (first + i, first + (i + 1) % length, total if i == 0 else 0)
                    for i in range(length)
                ]
                entries += [(first + i, Fraction(total, length)) for i in range(length)]
            first, size = len(owners), 1200
            owners += [free] * size
            want = {v: mean for v, mean in entries}
            for v in reversed(range(first, first + size)):
                targets = rng.sample(range(v + 1, first + size), min(3, first + size - 1 - v))
                if not targets or rng.random() < 0.05:
                    targets.append(rng.choice(entries)[0])
                edges += [(v, u, rng.randint(-10**6, 10**6)) for u in targets]
                want[v] = pick(want[u] for u in targets)
            bounds, _, _ = self.bounds_and_succ(owners, edges, fixed)
            assert dict(bounds) == {v: (x.numerator, x.denominator) for v, x in want.items()}
            assert len({want[v] for v in range(first, first + size)}) > 2


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
        again = solver_module.derive_strategies(g8, res.sides, res.potential)
        assert again == res.strategy


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

    def test_full_assertions_on_threshold_small_games(self, monkeypatch):
        # FULL re-derives every entry decision of ``compute_zones`` with
        # ``is_reduced``, at least once per frame entry and relabel restart.
        checks = []
        real = solver_module.is_reduced

        def counted(*args):
            checks.append(len(args))
            return real(*args)

        monkeypatch.setattr(solver_module, "is_reduced", counted)
        entries = 0
        for i in range(20):
            g = threshold_small_game(i)
            res = solve_threshold(g, BASELINE_FULL)
            assert res == solve_threshold(g, BASELINE)
            entries += res.stats.recursive_calls
        assert entries > 7000 and len(checks) >= entries

    @pytest.mark.parametrize("text, flag", [(G3_TEXT, True), (G5_TEXT, False)])
    def test_wrong_entry_flag_is_caught_at_full_level(self, text, flag, monkeypatch):
        real = solver_module.compute_zones
        monkeypatch.setattr(
            solver_module, "compute_zones", lambda *args: real(*args)._replace(reduced=flag)
        )
        g = parse_game(text)
        assert is_reduced(g, real(g)) is not flag
        with pytest.raises(SolverInternalError, match="entry test disagrees"):
            reduce_game(g, FULL)

    @pytest.mark.parametrize("level", ["off", "cheap"])
    def test_sink_remainder_is_an_internal_error(self, level, monkeypatch, tmp_path):
        # With backtracking disabled, Max's vertex 1, whose only edge enters
        # the finished set {0}, is left as a sink of the escape remainder.
        text = "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 0 -1\nedge 1 0 1\n"
        monkeypatch.setattr(solver_module, "_backtrack_core", lambda game, in_f, val, esc, joined: [])
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
            policy=Policy.SMALLER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True,
            assertions=AssertLevel.OFF,
        )
        assert solve_threshold(g, cfg).stats == Stats(
            recursive_calls=47, loop_iterations=45, escapes_fixed=0, bulk_fixed=26,
            attractor_calls=22, potential_reductions=0, max_depth=10,
        )

    # Game index -> Stats fields in declaration order, ``BASELINE`` config.
    SMALL = {
        4: (62, 51, 19, 0, 23, 9, 5),
        7: (114, 103, 63, 0, 25, 15, 7),
        12: (44, 40, 12, 0, 21, 7, 4),
        15: (274, 250, 96, 0, 100, 54, 7),
        20: (32, 31, 12, 0, 7, 12, 5),
    }

    @pytest.mark.parametrize("i", sorted(SMALL))
    def test_threshold_small_games(self, i):
        assert solve_threshold(threshold_small_game(i), BASELINE).stats == Stats(*self.SMALL[i])

    # Game index -> ``Game.with_weights`` calls of one ``BASELINE`` solve.
    # One is zero-cycle removal; a relabel restart copies the game only when
    # its view is not reduced, so these stay below 1 + potential_reductions.
    COPIES = {4: 5, 7: 3, 12: 3, 15: 4, 20: 5}

    @pytest.mark.parametrize("i", sorted(COPIES))
    def test_threshold_small_copies(self, i, monkeypatch):
        calls = []
        real = Game.with_weights

        def counted(self, weights):
            calls.append(1)
            return real(self, weights)

        monkeypatch.setattr(Game, "with_weights", counted)
        solve_threshold(threshold_small_game(i), BASELINE)
        assert len(calls) == self.COPIES[i]

    def test_all_configurations_digest(self):
        # Regions agree across configurations (test_config_invariance_on_corpus);
        # this pins the rest of each answer, which depends on the escape
        # order: work counters, potential and strategies of all 40
        # configurations, under CHEAP and FULL assertions.
        models = (Model.UNIFORM, Model.CYCLE_HEAVY, Model.LAYERED)
        digest = hashlib.sha256()
        for i in range(6):
            g = gen_random(GenParams(
                n=8 + 3 * i, out_degree=(1, 4), weight_bound=5, model=models[i % 3], seed=90 + i,
            ))
            for cfg in all_configs() + all_configs(AssertLevel.FULL):
                res = solve_threshold(g, cfg)
                digest.update(repr((
                    res.stats, list(enumerate(res.potential)),
                    sorted(res.min_strategy.items()), sorted(res.max_strategy.items()),
                )).encode())
        assert digest.hexdigest() == (
            "6e21d6c5b6a496ec5f5d35711ea1d2ecb1bbecabeb769f178484c75a0b732ad2"
        )

    def test_carried_certificates_skip_zones(self, monkeypatch):
        # 17 of the 47 frames of the n=1000 game are decided by the previous
        # child's certificate, so only 30 compute zones.
        calls = []
        real = solver_module.compute_zones

        def counted(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(solver_module, "compute_zones", counted)
        g = gen_random(GenParams(n=1000, out_degree=(1, 9), weight_bound=10**6, seed=42))
        cfg = SolverConfig(
            policy=Policy.SMALLER_ZONE, opt_init=True, opt_bulk=True, remember_potentials=True,
            assertions=AssertLevel.OFF,
        )
        stats = solve_threshold(g, cfg).stats
        assert stats.recursive_calls == 47
        assert len(calls) == 30


def run_frame(view, cfg):
    """Run ``_frame`` on a view that must be decided without children."""
    frame = _frame(view, cfg, Stats(), 1, None)
    with pytest.raises(StopIteration) as stop:
        next(frame)
    return stop.value.value


class TestCarriedCertificate:
    """A child view decided from its predecessor's certificate (``_frame``'s
    hint) must get exactly the answer of the zones path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_check_agrees_with_zones(self, seed):
        rng = random.Random(seed)
        outcomes = {"held": 0, "failed": 0, "stranded": 0}
        for g in no_zero_cycles(60, seed0=300 + 60 * seed, max_n=14):
            res = reduce_game(g)
            shift = [res.potential[v] for v in range(g.n)]
            sides = [1 if v in res.min_region else -1 for v in range(g.n)]
            keep = list(range(g.n))
            # Shrink the view while the certificate carries over.
            while len(keep) > 1:
                gone = rng.sample(keep, rng.randint(1, max(1, len(keep) // 3)))
                for v in gone:
                    sides[v] = 0
                keep = [v for v in keep if sides[v]]
                held = _hint_holds(g, shift, sides, gone)
                try:
                    z = compute_zones(g, keep, shift)
                except NotASubgameError:
                    assert not held
                    outcomes["stranded"] += 1
                    break
                zn = frozenset(v for v in keep if sides[v] > 0)
                assert held == (is_reduced(g, z, shift) and z.ZN == zn)
                if held:
                    assert run_frame((g, keep, shift, (sides, gone)), FULL) == (
                        [sides[v] for v in keep], [0] * len(keep)
                    )
                outcomes["held" if held else "failed"] += 1
                if not held:
                    break
        assert min(outcomes.values()) > 0, outcomes

    def test_stranded_vertex_falls_back(self):
        # Removing vertex 1 leaves Max's vertex 0 without an edge in the
        # view.  A universal rule holds vacuously there, so the check must
        # reject it and let the zones path report the broken subgame.
        g = parse_game(
            "mpg 1\nvertex 0 MAX\nvertex 1 MIN\nvertex 2 MIN\n"
            "edge 0 1 -1\nedge 1 1 -1\nedge 2 2 -1\n"
        )
        sides = [1, 0, 1]
        assert not _hint_holds(g, None, sides, [1])
        with pytest.raises(SolverInternalError, match="remainder is not a subgame"):
            run_frame((g, [0, 2], None, (sides, [1])), SolverConfig())

    def test_corrupted_hint_is_caught_at_full_level(self):
        # Vertex 3 leaves; no kept vertex has an edge into it, so nothing is
        # rechecked and the flipped side of vertex 1 goes unseen by the
        # check.  FULL assertions re-derive the answer from the zones.
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nvertex 2 MAX\nvertex 3 MIN\n"
            "edge 0 0 -1\nedge 1 1 -1\nedge 2 2 1\nedge 3 0 -1\n"
        )
        sides = [1, -1, -1, 0]
        view = (g, [0, 1, 2], None, (sides, [3]))
        assert run_frame(view, SolverConfig()) == ([1, -1, -1], [0, 0, 0])
        with pytest.raises(SolverInternalError, match="certificate check failed"):
            run_frame(view, FULL)


class TestIncrementalEscapes:
    """Bulk sets grown from the optimal escapes; escape counters kept per loop."""

    @staticmethod
    def games():
        # W = 1 makes zero modified weights dense.
        models = (Model.UNIFORM, Model.CYCLE_HEAVY, Model.LAYERED)
        return [
            gen_random(GenParams(
                n=5 + i % 10, out_degree=(1, 4), weight_bound=(1, 2, 5, 100)[i % 4],
                model=models[i % 3], seed=300 + i,
            ))
            for i in range(16)
        ]

    def test_full_solves_all_configurations(self, monkeypatch):
        # FULL reruns each bulk set over the whole side and raises if the set
        # grown from the optimal escapes differs.
        narrowed = []
        real = solver_module._good_escape_core

        def counted(g, in_f, val, sides, sources, phi, m, plus):
            mark = -1 if plus else 1
            narrowed.append(len(sources) < sum(1 for x in sides if x == mark))
            return real(g, in_f, val, sides, sources, phi, m, plus)

        monkeypatch.setattr(solver_module, "_good_escape_core", counted)
        for g in self.games():
            regions = {
                solve_threshold(g, cfg).min_region for cfg in all_configs(AssertLevel.FULL)
            }
            assert len(regions) == 1
        assert sum(narrowed) > 100

    def test_carried_counters_match_a_recount(self, monkeypatch):
        passes = []
        real = solver_module._backtrack_core

        def checked(g, in_f, val, esc, joined):
            added = real(g, in_f, val, esc, joined)
            for v in range(g.n):
                if not in_f[v]:
                    assert esc[v] == sum(1 for e in g.out[v] if not in_f[g.edst[e]])
            passes.append(len(joined))
            return added

        monkeypatch.setattr(solver_module, "_backtrack_core", checked)
        for g in self.games():
            for cfg in all_configs():
                solve_threshold(g, cfg)
        assert len(passes) > 1000


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
