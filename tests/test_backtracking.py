"""Backward fixpoints: value propagation, attractors, seeds, bulk escapes.

The cores work on per-vertex lists: ``in_f``/``val`` for the finished set
and its values, ``in_t``/``phi`` for an attractor target and its potential.
"""

from __future__ import annotations

import pytest

from mpg import (
    Player,
    SolverConfig,
    SolverInternalError,
    Stats,
    ThresholdMode,
    apply_potential,
    brute_force_infsigma,
    brute_force_supsigma,
    compute_zones,
    dual_game,
    is_trap,
    parse_game,
    preprocess_no_zero_cycles,
    restrict,
    safe_init,
)
from mpg.backtracking import _attract_max_core, _backtrack_core, _good_escape_core
from mpg.solver import _sup_loop
from conftest import small_corpus


def no_zero_cycles(count, seed0, max_n=7):
    return [
        preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        for g in small_corpus(count, seed0=seed0, max_n=max_n)
    ]


def backtrack(g, values: dict) -> dict:
    """Run ``_backtrack_core`` from the finished set ``values``; all values after."""
    in_f = [v in values for v in range(g.n)]
    val = [values.get(v, 0) for v in range(g.n)]
    added = _backtrack_core(g, in_f, val)
    assert sorted(added) == [v for v in range(g.n) if in_f[v] and v not in values]
    return {v: val[v] for v in range(g.n) if in_f[v]}


def attract_max(g, target_phi: dict) -> dict:
    """Max attractor of the keys of ``target_phi``: its potential per member."""
    in_t = [v in target_phi for v in range(g.n)]
    in_a, phi = _attract_max_core(g, in_t, [target_phi.get(v, 0) for v in range(g.n)])
    return {v: phi[v] for v in range(g.n) if in_a[v]}


class TestBacktrackAllPaths:
    def test_forced_min_vertex(self, g3):
        assert backtrack(g3, {1: 0}) == {0: 2, 1: 0}

    def test_total_set_is_fixpoint(self, g1):
        in_f, val = [True], [0]
        assert _backtrack_core(g1, in_f, val) == []
        assert in_f == [True] and val == [0]

    def test_max_vertex_takes_maximum(self):
        # u (Max) -> x (+1, value 0) and -> y (-2, value 5): max(1, 3) = 3.
        g = parse_game(
            "mpg 1\nvertex 0 MAX\nvertex 1 MIN\nvertex 2 MIN\n"
            "edge 0 1 1\nedge 0 2 -2\nedge 1 1 -1\nedge 2 2 -1\n"
        )
        assert backtrack(g, {1: 0, 2: 5})[0] == 3

    def test_matches_peak_oracle_from_negative_zone(self):
        for g in no_zero_cycles(150, seed0=900, max_n=6):
            zones = compute_zones(g)
            values = backtrack(g, {v: 0 for v in zones.N})
            oracle = brute_force_supsigma(g, zones.N)
            for v, x in values.items():
                assert x == oracle[v]

    def test_valley_polarity_mirror(self):
        # Seeded at P with valley values, the same propagation computes
        # the largest-prefix-minimum before P; values stay <= 0.
        for g in no_zero_cycles(80, seed0=902, max_n=5):
            zones = compute_zones(g)
            values = backtrack(g, {v: 0 for v in zones.P})
            oracle = brute_force_infsigma(g, zones.P)
            for v, x in values.items():
                assert x == oracle[v] <= 0

    def test_values_stay_nonnegative_and_rest_is_subgame(self):
        for g in no_zero_cycles(150, seed0=321, max_n=7):
            zones = compute_zones(g)
            values = backtrack(g, {v: 0 for v in zones.N})
            assert all(x >= 0 for x in values.values())
            rest = set(range(g.n)) - set(values)
            if rest:
                restrict(g, rest)  # raises if some kept vertex turned sink


class TestAttractAndReduce:
    def test_attracts_through_zero_edges(self, g5):
        assert attract_max(g5, {0: 0}) == {0: 0, 1: 0, 2: 0}

    def test_full_target_is_noop(self, g5):
        phi = {v: v for v in range(g5.n)}
        assert attract_max(g5, phi) == phi

    def test_min_vertex_extension(self, g8):
        assert attract_max(g8, {1: 0, 2: 0}) == {0: -1, 1: 0, 2: 0}

    @staticmethod
    def _interior(g, zone):
        """Largest subset of ``zone`` with no edge leaving it at all."""
        keep = set(zone)
        changed = True
        while changed:
            changed = False
            for v in list(keep):
                if any(g.edst[e] not in keep for e in g.out[v]):
                    keep.discard(v)
                    changed = True
        return keep

    def test_positively_reducing_over_attractor(self):
        # A fully closed positively-reduced patch is a Min trap; attracting
        # Max to it must keep the extension positively reduced and the
        # attractor a Min trap.
        hits = 0
        for g in no_zero_cycles(150, seed0=61, max_n=7):
            zones = compute_zones(g)
            seed = self._interior(g, zones.P)
            if not seed:
                continue
            sub = restrict(g, seed)
            if compute_zones(sub).ZN:
                continue
            phi = attract_max(g, {v: 0 for v in seed})
            inner = restrict(apply_potential(g, phi), phi)
            assert not compute_zones(inner).N
            assert is_trap(g, phi, Player.MIN)
            hits += 1
        assert hits > 5

    def test_min_player_is_mirror_of_max(self):
        # Min's attractor is Max's attractor in the dual game, potential negated.
        hits = 0
        for g in no_zero_cycles(150, seed0=62, max_n=7):
            zones = compute_zones(g)
            closed = self._interior(g, zones.N)
            if not closed:
                continue
            sub = restrict(g, closed)
            if compute_zones(sub).ZP:
                continue
            dual_phi = attract_max(dual_game(g), {v: 0 for v in closed})
            phi = {v: -x for v, x in dual_phi.items()}
            assert phi.keys() >= closed
            inner = restrict(apply_potential(g, phi), phi)
            assert not compute_zones(inner).P
            assert is_trap(g, phi, Player.MAX)
            hits += 1
        assert hits > 5


class TestSafeInit:
    def test_whole_game_when_everything_is_negative(self, g1):
        z = compute_zones(g1)
        assert safe_init(g1, z, Player.MIN) == {0}

    def test_positive_min_vertex_excluded(self, g3):
        z = compute_zones(g3)
        assert safe_init(g3, z, Player.MIN) == {1}

    def test_zero_edge_chain_into_negative_zone(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nedge 0 1 0\nedge 1 1 -1\n"
        )
        z = compute_zones(g)
        assert safe_init(g, z, Player.MIN) >= {0, 1}

    def test_contains_zone_and_peak_is_zero(self):
        for g in no_zero_cycles(150, seed0=700, max_n=6):
            z = compute_zones(g)
            safe = safe_init(g, z, Player.MIN)
            assert safe >= z.N
            oracle = brute_force_supsigma(g, z.N)
            for v in safe:
                assert oracle[v] == 0

    def test_max_side_contains_zone_and_valley_is_zero(self):
        for g in no_zero_cycles(100, seed0=701, max_n=6):
            z = compute_zones(g)
            safe = safe_init(g, z, Player.MAX)
            assert safe >= z.P
            oracle = brute_force_infsigma(g, z.P)
            for v in safe:
                assert oracle[v] == 0


def escape_game(h1_back_weight: int):
    """f (finished, Min, -1 loop); h0 Min with escape +1 to f; h1 Max."""
    return parse_game(
        "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nvertex 2 MAX\n"
        "edge 0 0 -1\nedge 1 0 1\nedge 1 2 1\n"
        f"edge 2 1 {h1_back_weight}\n"
    )


def good_escapes(g, side, m, plus=True):
    """``_good_escape_core`` with vertex 0 finished at value 0 and phi = 0."""
    in_f = [v == 0 for v in range(g.n)]
    return _good_escape_core(g, in_f, [0] * g.n, side, [0] * g.n, m, plus)


class TestGoodEscapeSet:
    # m is the best escape bound, which the solver takes over the escaping
    # player's edges into the finished set; here it comes from the oracle.

    def test_blocked_partner_stays_out(self):
        g = escape_game(1)
        oracle = brute_force_supsigma(g, {0})
        m = oracle[1]
        assert m == 1 and good_escapes(g, [1, 2], m) == [1]
        assert oracle[2] != m  # vertex 2 genuinely has a different peak

    def test_zero_edge_partner_joins(self):
        g = escape_game(0)
        oracle = brute_force_supsigma(g, {0})
        assert oracle[1] == oracle[2] == 1
        assert good_escapes(g, [1, 2], 1) == [1, 2]

    def test_single_escape_degenerates_to_one_vertex(self):
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\n"
            "edge 0 0 -1\nedge 1 0 3\nedge 1 1 2\n"
        )
        assert brute_force_supsigma(g, {0})[1] == 3
        assert good_escapes(g, [1], 3) == [1]

    def test_missing_escape_is_an_internal_error(self):
        # Vertex 0 is finished; the remainder {1, 2} is a subgame in which
        # Max's vertex 2 has no edge into the finished set.  A child answer
        # calling the remainder Min-won leaves Max no escape to fix.
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MIN\nvertex 2 MAX\n"
            "edge 0 0 -1\nedge 1 0 1\nedge 1 2 0\nedge 2 1 1\nedge 2 2 1\n"
        )
        loop = _sup_loop(g, compute_zones(g), SolverConfig(), Stats(), 0, None)
        assert next(loop)[1] == [1, 2]
        with pytest.raises(SolverInternalError, match="no escape edge"):
            loop.send(([True, True], [False, False], [0, 0]))

    def test_minus_case_mirrors_plus(self):
        # f (Max, +1 loop finished); h0 Max escape -1 to f; h1 Min behind it.
        g = parse_game(
            "mpg 1\nvertex 0 MAX\nvertex 1 MAX\nvertex 2 MIN\n"
            "edge 0 0 1\nedge 1 0 -1\nedge 1 2 -1\nedge 2 1 0\n"
        )
        assert brute_force_infsigma(g, {0})[1] == -1
        assert good_escapes(g, [1, 2], -1, plus=False) == [1, 2]
