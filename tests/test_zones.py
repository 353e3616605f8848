"""Zone computation and the reduced-game test."""

from __future__ import annotations

import pytest

from mpg import (
    Game,
    NotASubgameError,
    Player,
    Rng,
    ThresholdMode,
    brute_force_solve,
    compute_zones,
    is_reduced,
    parse_game,
    preprocess_no_zero_cycles,
    reduce_game,
    restrict,
    serialize_game,
)
from mpg.zones import reduced_at
from conftest import naive_zone_fixpoint, reduced_per_vertex, small_corpus, subgame_views


def corpus_without_zero_cycles(count, seed0=0, max_n=8):
    return [
        preprocess_no_zero_cycles(g, ThresholdMode.WEAK)
        for g in small_corpus(count, seed0=seed0, max_n=max_n)
    ]


class TestComputeZones:
    def test_two_vertex_example(self, g3):
        z = compute_zones(g3)
        assert z.N == {1} and z.P == {0} and z.Z == frozenset()
        assert z.ZN == {1} and z.ZP == {0}

    def test_four_vertex_example(self, g5):
        z = compute_zones(g5)
        assert z.N == {3} and z.P == {0} and z.Z == {1, 2}
        assert z.ZN == {3} and z.ZP == {0, 1, 2}

    def test_three_vertex_example(self, g8):
        z = compute_zones(g8)
        assert z.N == {0} and z.P == {1, 2}
        assert z.ZN == {0} and z.ZP == {1, 2}

    def test_matches_naive_fixpoint_on_corpus(self):
        for g in corpus_without_zero_cycles(400, seed0=11):
            z = compute_zones(g)
            naive = naive_zone_fixpoint(g)
            for name in ("N", "Z", "P", "ZN", "ZP"):
                assert getattr(z, name) == naive[name]

    def test_partitions_and_inclusions(self):
        for g in corpus_without_zero_cycles(200, seed0=5):
            z = compute_zones(g)
            every = frozenset(range(g.n))
            assert z.N | z.Z | z.P == every
            assert not (z.N & z.P) and not (z.N & z.Z) and not (z.Z & z.P)
            assert z.ZN | z.ZP == every and not (z.ZN & z.ZP)
            assert z.N <= z.ZN and z.P <= z.ZP

    def test_independent_of_edge_listing_order(self):
        for g in corpus_without_zero_cycles(60, seed0=31):
            reordered = Game(
                g.owners,
                [(g.esrc[e], g.edst[e], g.eweight[e]) for e in reversed(range(g.m))],
                orig_ids=g.orig_ids,
            )
            assert compute_zones(g) == compute_zones(reordered)


class TestIsReduced:
    def test_single_negative_loop_reduced(self, g1):
        assert is_reduced(g1, compute_zones(g1))

    def test_two_vertex_not_reduced(self, g3):
        assert not is_reduced(g3, compute_zones(g3))

    def test_four_vertex_reduced(self, g5):
        assert is_reduced(g5, compute_zones(g5))

    def test_empty_zone_implies_reduced(self):
        all_negative = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 1 -2\nedge 1 0 -3\n"
        )
        z = compute_zones(all_negative)
        assert z.ZP == frozenset() and is_reduced(all_negative, z)
        all_positive = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 1 2\nedge 1 0 3\n"
        )
        z = compute_zones(all_positive)
        assert z.ZN == frozenset() and is_reduced(all_positive, z)

    def test_matches_per_vertex_definition_on_corpus(self):
        for g in corpus_without_zero_cycles(400, seed0=60):
            z = compute_zones(g)
            assert is_reduced(g, z) == reduced_per_vertex(g, z.ZN)

    def test_zone_vertex_with_negative_escape_is_not_reduced(self):
        # v (Max, best weight 0) sits in ZN via its zero edge to a, yet its
        # -5 edge jumps to the Max-won side; calling this reduced would
        # declare {a, v} winning for Min, but Max actually wins everywhere.
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nvertex 2 MAX\n"
            "edge 0 1 -1\nedge 1 0 0\nedge 1 2 -5\nedge 2 2 1\n"
        )
        z = compute_zones(g)
        assert z.Z == {1} and z.ZN == {0, 1}
        assert not is_reduced(g, z)
        assert reduce_game(g).min_region == brute_force_solve(g).min_region == frozenset()

    def test_zone_vertex_with_positive_escape_is_not_reduced(self):
        # Mirror image: a Min vertex in Z and ZP whose +5 edge enters ZN.
        g = parse_game(
            "mpg 1\nvertex 0 MAX\nvertex 1 MIN\nvertex 2 MIN\n"
            "edge 0 1 1\nedge 1 0 0\nedge 1 2 5\nedge 2 2 -1\n"
        )
        z = compute_zones(g)
        assert z.Z == {1} and z.ZP == {0, 1}
        assert not is_reduced(g, z)
        assert reduce_game(g).max_region == brute_force_solve(g).max_region == frozenset()

    def test_reduced_games_split_into_true_regions(self):
        # Whenever the test reports reduced, ZN must be the Min winning set.
        hits = 0
        for g in corpus_without_zero_cycles(400, seed0=90, max_n=6):
            z = compute_zones(g)
            if is_reduced(g, z):
                hits += 1
                assert z.ZN == brute_force_solve(g).min_region
        assert hits > 10  # the corpus exercises the reduced path


class TestReducedAt:
    """``reduced_at``'s rule at vertex 0; vertices 1 and 2 only loop."""

    @staticmethod
    def game(owner, edges):
        loops = [(1, 1, 0), (2, 2, 0)]
        return Game([owner, Player.MIN, Player.MAX], [*((0, d, w) for d, w in edges), *loops])

    @pytest.mark.parametrize("owner", list(Player))
    @pytest.mark.parametrize("s", [1, -1])
    def test_no_edge_inside_the_view_is_never_reduced(self, owner, s):
        # Weight -s is on side s's side of zero, so the edge into 1 is good.
        g = self.game(owner, [(1, -s), (2, -s)])
        assert not reduced_at(g, [s, 0, 0], [0])
        assert reduced_at(g, [s, s, 0], [0])

    @pytest.mark.parametrize("s", [1, -1])
    def test_chooser_needs_one_good_edge_the_other_needs_all(self, s):
        # On the ZN side (s = 1) Min needs one good edge and Max all of them;
        # on the ZP side (s = -1) the players swap.
        chooser, other = (Player.MIN, Player.MAX) if s > 0 else (Player.MAX, Player.MIN)
        side = [s, s, -s]
        good, zero, wrong_sign, wrong_side = (1, -s), (1, 0), (1, s), (2, -s)
        cases = {
            (good,): (True, True),
            (zero,): (True, True),
            (good, zero): (True, True),
            (good, wrong_sign): (True, False),
            (wrong_side, good): (True, False),
            (wrong_sign,): (False, False),
            (wrong_sign, wrong_side): (False, False),
        }
        for edges, (for_chooser, for_other) in cases.items():
            assert reduced_at(self.game(chooser, edges), side, [0]) is for_chooser, edges
            assert reduced_at(self.game(other, edges), side, [0]) is for_other, edges
        # The shift moves the good edge to the wrong side of zero.
        g = self.game(chooser, [good])
        assert reduced_at(g, side, [0], [0, 0, 0])
        assert not reduced_at(g, side, [0], [0, 2 * s, 0])


class TestViews:
    def test_view_matches_restricted_game(self):
        # A view's lists are indexed by the parent's vertices: kept vertex
        # keep[i] carries what vertex i of the restricted game does.
        rng = Rng(7)
        outcomes = []
        for g in corpus_without_zero_cycles(200, seed0=120, max_n=9):
            for keep, shift in subgame_views(g, rng):
                sub = restrict(g, keep, shift)
                z = compute_zones(g, keep, shift)
                zs = compute_zones(sub)
                assert [z.cls[v] for v in keep] == zs.cls
                assert [z.side[v] for v in keep] == zs.side
                assert z.reduced == zs.reduced
                kept = frozenset(keep)
                assert all(z.side[v] == 0 for v in range(g.n) if v not in kept)
                for name in ("N", "Z", "P", "ZN", "ZP"):
                    assert getattr(z, name) == {keep[i] for i in getattr(zs, name)}
                    assert getattr(z, name) <= kept
                outcomes.append(is_reduced(sub, zs))
                assert is_reduced(g, z, shift) == outcomes[-1]
        assert min(outcomes.count(True), outcomes.count(False)) > 20

    def test_view_with_a_sink_is_not_a_subgame(self, g3):
        with pytest.raises(NotASubgameError, match="vertex 1 is a sink"):
            compute_zones(g3, [1])


class TestEntryFlag:
    """``compute_zones`` decides reducedness from the vertices its
    construction leaves open; ``is_reduced`` checks every vertex."""

    def test_matches_is_reduced_on_random_views(self):
        # Shifts are random, or a solver certificate, which gives many zero
        # edges and reduced views, or that certificate perturbed at a few
        # vertices, which gives near misses.
        rng = Rng(23)
        outcomes = {(r, s): 0 for r in (True, False) for s in (True, False)}
        for g in corpus_without_zero_cycles(600, seed0=400, max_n=10):
            cert = [reduce_game(g).potential[v] for v in range(g.n)]
            near = [x + rng.randint(-1, 1) * (rng.randint(0, 3) == 0) for x in cert]
            views = subgame_views(g, rng) + [(None, None)]
            views += [(keep, shift) for keep, _ in views[:2] for shift in (cert, near)]
            views += [(None, [rng.randint(-9, 9) for _ in range(g.n)]), (None, cert), (None, near)]
            for keep, shift in views:
                z = compute_zones(g, keep, shift)
                assert z.reduced == is_reduced(g, z, shift)
                outcomes[z.reduced, shift is not None] += 1
        assert sum(outcomes.values()) >= 5000
        assert min(outcomes.values()) > 200, outcomes

    def test_sets_read_off_the_lists(self, g5):
        z = compute_zones(g5)
        assert z.cls == [1, 0, 0, -1] and z.side == [-1, -1, -1, 1]
        assert z.N == {3} and z.Z == {1, 2} and z.P == {0}
        assert z.ZN == {3} and z.ZP == {0, 1, 2}
