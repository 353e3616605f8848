"""Reference oracles: brute-force minimax, peak values, energy lifting."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from mpg import (
    BudgetExceededError,
    GenParams,
    Model,
    Player,
    Policy,
    SolverConfig,
    ThresholdMode,
    brute_force_solve,
    compute_zones,
    gen_random,
    parse_game,
    preprocess_no_zero_cycles,
    solve_threshold,
    verify_strategy,
)
from conftest import small_corpus
from peak_oracles import (
    PLUS_INF,
    brute_force_infsigma,
    brute_force_supsigma,
    energy_value_iteration,
)


def no_zero_cycles(count, seed0, max_n=6):
    return [
        preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        for g in small_corpus(count, seed0=seed0, max_n=max_n)
    ]


class TestBruteForceSolve:
    def test_single_profile_game(self, g3):
        res = brute_force_solve(g3)
        assert res.values == {0: Fraction(-1, 2), 1: Fraction(-1, 2)}
        assert res.min_region == {0, 1} and res.max_region == frozenset()

    def test_negative_loop(self, g1):
        res = brute_force_solve(g1)
        assert res.values == {0: Fraction(-1)} and res.min_region == {0}

    def test_four_strategy_profiles(self, g5):
        res = brute_force_solve(g5)
        assert res.values == {
            0: Fraction(1),
            1: Fraction(1),
            2: Fraction(1),
            3: Fraction(-1),
        }
        assert res.min_region == {3}

    def test_budget_guard(self, g5):
        with pytest.raises(BudgetExceededError):
            brute_force_solve(g5, budget=1)

    def test_zero_value_sides_with_min(self, g4):
        res = brute_force_solve(g4)
        assert res.values[0] == 0 and res.min_region == {0, 1}


class TestBruteForceSupsigma:
    def test_peak_before_negative_zone(self, g3):
        assert brute_force_supsigma(g3, {1}) == {0: 2, 1: 0}

    def test_positive_loop_diverges(self, g2):
        assert brute_force_supsigma(g2, frozenset()) == {0: PLUS_INF}

    def test_target_vertices_are_zero(self, g5):
        vals = brute_force_supsigma(g5, {0, 1, 2, 3})
        assert vals == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_peak_inside_negative_cycle(self):
        # +5 then -6 around a cycle: peak 5 is reached mid-cycle.
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nedge 0 1 5\nedge 1 0 -6\n"
        )
        assert brute_force_supsigma(g, frozenset()) == {0: 5, 1: 0}

    def test_zero_total_cycle_has_finite_peak(self, g4):
        assert brute_force_supsigma(g4, frozenset()) == {0: 1, 1: 0}

    def test_valley_oracle_mirrors_peak(self, g3):
        assert brute_force_infsigma(g3, {0}) == {0: 0, 1: -3}


class TestEnergyValueIteration:
    def test_all_nonpositive_edges(self, g1):
        assert energy_value_iteration(g1) == {0: 0}

    def test_two_vertex_game(self, g3):
        assert energy_value_iteration(g3) == {0: 2, 1: 0}

    def test_positive_loop(self, g2):
        assert energy_value_iteration(g2) == {0: PLUS_INF}

    def test_agrees_with_peak_oracle(self):
        for g in no_zero_cycles(200, seed0=40):
            energy = energy_value_iteration(g)
            peaks = brute_force_supsigma(g, frozenset())
            assert energy == peaks

    def test_finite_set_is_min_region(self):
        for g in no_zero_cycles(200, seed0=41):
            energy = energy_value_iteration(g)
            finite = frozenset(v for v, x in energy.items() if x != PLUS_INF)
            assert finite == brute_force_solve(g).min_region


def mid_size_games() -> list:
    """36 seeded games, out-degree 1-4: one per n in {100, 200}, W in {4, 100}
    and model, two per such triple with n in {20, 50}.

    Seeds 100-135.  Energy iteration is pseudo-polynomial, and its time
    over a fixed seed range has a tail: seeds 0-35 and 1000-1035 also agree
    everywhere, but take about 12-13 s in it against about 6 s here.
    """
    games = []
    for n, w, model in product((20, 50, 100, 200), (4, 100), Model):
        for _ in range(2 if n <= 50 else 1):
            params = GenParams(n=n, out_degree=(1, 4), weight_bound=w, model=model,
                               seed=100 + len(games))
            games.append(gen_random(params))
    return games


class TestMidSizeEnergyGate:
    """Regions at sizes brute force cannot reach, against energy iteration."""

    @pytest.mark.parametrize("mode", list(ThresholdMode), ids=lambda m: m.value)
    def test_min_region_is_the_finite_set(self, mode):
        # LARGER_ZONE with every optimisation on every game, the default
        # configuration up to n = 50, all 40 configurations on games 0, 2
        # and 4: the first n = 20, W = 4 game of each model.
        best = SolverConfig(
            policy=Policy.LARGER_ZONE, opt_init=True, opt_bulk=True,
            remember_potentials=True, threshold_mode=mode,
        )
        every = [
            SolverConfig(policy=p, opt_init=i, opt_bulk=b, remember_potentials=r,
                         threshold_mode=mode)
            for p, i, b, r in product(Policy, (False, True), (False, True), (False, True))
        ]
        assert len(every) == 40
        games = mid_size_games()
        assert len(games) == 36
        for index, g in enumerate(games):
            energy = energy_value_iteration(preprocess_no_zero_cycles(g, mode))
            finite = frozenset(v for v, x in energy.items() if x != PLUS_INF)
            configs = [best]
            if g.n <= 50:
                configs.append(SolverConfig(threshold_mode=mode))
            if index in (0, 2, 4):
                configs += every
            for cfg in configs:
                assert solve_threshold(g, cfg).min_region == finite, (index, cfg)


class TestFirstMoveConsistency:
    def test_peeling_one_edge_off_the_peak(self):
        # Outside the target zone N, one optimal step peels off exactly:
        # a Min vertex outside N has only >= 0 edges so its peak is the
        # minimum of w + peak(successor); a Max vertex outside N owns some
        # >= 0 edge so its peak is the corresponding maximum.
        for g in no_zero_cycles(80, seed0=55, max_n=5):
            target = compute_zones(g).N
            vals = brute_force_supsigma(g, target)
            for v in range(g.n):
                if v in target:
                    continue
                follow = [g.eweight[e] + vals[g.edst[e]] for e in g.out[v]]
                expect = min(follow) if g.owners[v] is Player.MIN else max(follow)
                assert vals[v] == expect


class TestVerifyStrategy:
    def test_negative_loop_strategy(self, g1):
        assert verify_strategy(g1, {0: 0}, Player.MIN, {0})

    def test_positive_loop_rejected_for_min(self, g2):
        assert not verify_strategy(g2, {0: 0}, Player.MIN, {0})

    def test_min_region_certificate(self, g5):
        # s keeps itself alive on the -1 loop (edge id 5).
        assert verify_strategy(g5, {3: 5}, Player.MIN, {3})

    def test_escaping_region_rejected(self, g5):
        # claiming {s} for Min with the edge into r leaves the region
        assert not verify_strategy(g5, {3: 4}, Player.MIN, {3})

    def test_zero_cycle_rejected_for_both(self, g4):
        assert not verify_strategy(g4, {0: 0}, Player.MIN, {0, 1})
        assert not verify_strategy(g4, {1: 1}, Player.MAX, {0, 1})

    def test_max_certificate(self, g2):
        assert verify_strategy(g2, {0: 0}, Player.MAX, {0})

    def test_missing_entry_is_an_error(self, g5):
        with pytest.raises(ValueError, match="strategy missing"):
            verify_strategy(g5, {}, Player.MIN, {3})
