"""Game representation: parsing, serialization, preprocessing, reweighting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mpg import (
    ClosedWalk,
    Game,
    GameError,
    GenParams,
    NotASubgameError,
    OverflowGuardError,
    ParseError,
    Player,
    Rng,
    ThresholdMode,
    apply_potential,
    cycle_weight,
    dual_game,
    gen_random,
    is_trap,
    parse_game,
    parse_potential,
    preprocess_no_zero_cycles,
    restrict,
    serialize_game,
    serialize_potential,
)
from conftest import (
    G1_TEXT,
    G3_TEXT,
    sample_closed_walk,
    simple_cycles,
    small_corpus,
    subgame_views,
)


@st.composite
def games(draw, max_n=6, max_w=8):
    n = draw(st.integers(1, max_n))
    owners = [draw(st.sampled_from(list(Player))) for _ in range(n)]
    edges = []
    for v in range(n):
        for _ in range(draw(st.integers(1, 3))):
            edges.append(
                (v, draw(st.integers(0, n - 1)), draw(st.integers(-max_w, max_w)))
            )
    return Game(owners, edges)


class TestParse:
    def test_minimal_game(self, g1):
        assert g1.n == 1 and g1.m == 1
        assert g1.owners == (Player.MIN,)
        assert g1.edges[0] == (0, 0, -1)
        assert g1.W == 1

    def test_sink_vertex_rejected(self):
        text = "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 1 0 1\n"
        with pytest.raises(ParseError, match="sink vertex 0"):
            parse_game(text)

    def test_dangling_endpoint(self):
        with pytest.raises(ParseError, match="line 3: dangling edge endpoint 7"):
            parse_game("mpg 1\nvertex 0 MIN\nedge 0 7 1\n")

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="line 3: duplicate vertex 4"):
            parse_game("mpg 1\nvertex 4 MIN\nvertex 4 MAX\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_game("vertex 0 MIN\nedge 0 0 1\n")

    def test_weight_out_of_range(self):
        too_big = 2**63
        with pytest.raises(ParseError, match="64-bit"):
            parse_game(f"mpg 1\nvertex 0 MIN\nedge 0 0 {too_big}\n")

    def test_weight_at_boundary_accepted(self):
        edge = 2**63 - 1
        g = parse_game(f"mpg 1\nvertex 0 MIN\nedge 0 0 {edge}\n")
        assert g.W == edge

    def test_vertex_after_edges(self):
        text = "mpg 1\nvertex 0 MIN\nedge 0 0 1\nvertex 1 MAX\n"
        with pytest.raises(ParseError, match="line 4: vertex declaration after edges"):
            parse_game(text)

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2: unknown directive"):
            parse_game("mpg 1\nnode 0 MIN\n")

    def test_negative_vertex_id(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_game("mpg 1\nvertex -1 MIN\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nmpg 1\n# another\nvertex 0 MIN\n\nedge 0 0 -1\n"
        assert parse_game(text) == parse_game(G1_TEXT)

    def test_sparse_ids_reindexed_in_declaration_order(self):
        text = "mpg 1\nvertex 9 MIN\nvertex 2 MAX\nedge 9 2 1\nedge 2 9 -1\n"
        g = parse_game(text)
        assert g.orig_ids == (9, 2)
        assert g.owners == (Player.MIN, Player.MAX)
        assert g.edges[0] == (0, 1, 1)

    def test_empty_game_parses(self):
        g = parse_game("mpg 1\n")
        assert g.n == 0 and g.m == 0


class TestSerialize:
    def test_singleton_exact_bytes(self, g1):
        assert serialize_game(g1) == b"mpg 1\nvertex 0 MIN\nedge 0 0 -1\n"

    def test_parse_serialize_fixpoint(self, g3):
        data = serialize_game(g3)
        assert serialize_game(parse_game(data)) == data

    def test_round_trip_identity_on_generated_corpus(self):
        for i, g in enumerate(small_corpus(1000, seed0=100)):
            again = parse_game(serialize_game(g))
            assert again == g, f"round trip failed for corpus game {i}"

    def test_serialization_injective_on_corpus(self):
        by_bytes = {}
        games_list = small_corpus(1000, seed0=4242)
        for g in games_list:
            by_bytes.setdefault(serialize_game(g), []).append(g)
        for data, collided in by_bytes.items():
            first = collided[0]
            for other in collided[1:]:
                assert other == first, "distinct games serialized identically"
        distinct = len({g for g in games_list})
        assert len(by_bytes) == distinct

    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_round_trip_property(self, g):
        assert parse_game(serialize_game(g)) == g


class TestPreprocess:
    def test_strict_formula(self, g4):
        out = preprocess_no_zero_cycles(g4, ThresholdMode.STRICT)
        assert sorted(out.eweight) == [-2, 4]
        assert sum(out.eweight) == 2

    def test_weak_formula(self, g4):
        out = preprocess_no_zero_cycles(g4, ThresholdMode.WEAK)
        assert sorted(out.eweight) == [-4, 2]
        assert sum(out.eweight) == -2

    def test_multiplier_must_exceed_cycle_length(self):
        # A 2-cycle with weights (0, -1): multiplying by the vertex count
        # alone maps it to totals summing to zero, while n+1 keeps it nonzero.
        n = 2
        weights = [0, -1]
        with_n = [w * n + 1 for w in weights]
        with_n1 = [w * (n + 1) + 1 for w in weights]
        assert sum(with_n) == 0
        assert sum(with_n1) == -1

    def test_overflow_guard(self):
        w = (2**62 - 2) // 2  # (n+1)*W + 1 == 2**62 - 1 for n = 1
        ok = parse_game(f"mpg 1\nvertex 0 MIN\nedge 0 0 {w}\n")
        preprocess_no_zero_cycles(ok, ThresholdMode.WEAK)
        too_big = parse_game(f"mpg 1\nvertex 0 MIN\nedge 0 0 {w + 1}\n")
        with pytest.raises(OverflowGuardError):
            preprocess_no_zero_cycles(too_big, ThresholdMode.WEAK)

    @pytest.mark.parametrize("mode", list(ThresholdMode))
    def test_cycle_signs_exhaustively(self, mode):
        zero_sign = 1 if mode is ThresholdMode.STRICT else -1
        for g in small_corpus(300, seed0=77, max_n=6):
            out = preprocess_no_zero_cycles(g, mode)
            for cyc in simple_cycles(g):
                before = sum(g.eweight[e] for e in cyc)
                after = sum(out.eweight[e] for e in cyc)
                if before == 0:
                    assert (after > 0) == (zero_sign > 0) and after != 0
                else:
                    assert (after > 0) == (before > 0)


class TestApplyPotential:
    def test_worked_example(self, g3):
        out = apply_potential(g3, {0: 2, 1: 0})
        assert out.eweight == (0, -1)

    def test_zero_potential_is_identity(self, g5):
        assert apply_potential(g5, {}) == g5

    def test_self_loop_unchanged(self, g1):
        out = apply_potential(g1, {0: 12345})
        assert out.eweight == g1.eweight

    def test_composition(self):
        for g in small_corpus(50, seed0=9):
            rng = Rng(g.n * 31 + 7)
            phi1 = {v: rng.randint(-5, 5) for v in range(g.n)}
            phi2 = {v: rng.randint(-5, 5) for v in range(g.n)}
            combined = {v: phi1[v] + phi2[v] for v in range(g.n)}
            assert apply_potential(apply_potential(g, phi1), phi2) == apply_potential(
                g, combined
            )

    def test_cycle_weight_invariance_sampled(self):
        rng = Rng(2024)
        for g in small_corpus(1000, seed0=500):
            phi = {v: rng.randint(-10, 10) for v in range(g.n)}
            walk = sample_closed_walk(g, rng)
            assert cycle_weight(g, walk) == cycle_weight(apply_potential(g, phi), walk)

    @settings(max_examples=60, deadline=None)
    @given(games(), st.data())
    def test_cycle_weight_invariance_property(self, g, data):
        phi = {
            v: data.draw(st.integers(-50, 50), label=f"phi[{v}]") for v in range(g.n)
        }
        walk = sample_closed_walk(g, Rng(1))
        assert cycle_weight(g, walk) == cycle_weight(apply_potential(g, phi), walk)


class TestRestrict:
    def test_forced_sink_rejected(self, g3):
        with pytest.raises(NotASubgameError, match="vertex 1 is a sink"):
            restrict(g3, {1})

    def test_self_loop_survives(self, g5):
        sub = restrict(g5, {0})
        assert sub.n == 1 and sub.edges[0] == (0, 0, 1)
        assert sub.orig_ids == (0,)

    def test_full_restriction_is_identity(self, g5):
        assert restrict(g5, range(g5.n)) == g5

    def test_out_of_range_rejected(self, g5):
        for bad in (-1, g5.n):
            with pytest.raises(GameError, match="out of range"):
                restrict(g5, {0, bad})

    def test_matches_validating_constructor_and_shift(self):
        # Same arrays, edge ids included, as building the induced subgraph
        # through Game() from the reweighted game.
        rng = Rng(5)
        for g in small_corpus(80, seed0=40, max_n=9):
            for keep, shift in subgame_views(g, rng):
                phi = dict(enumerate(shift or []))
                h = apply_potential(g, phi)
                index = {v: i for i, v in enumerate(keep)}
                edges = [
                    (index[v], index[h.edst[e]], h.eweight[e])
                    for v in keep for e in h.out[v] if h.edst[e] in index
                ]
                want = Game([g.owners[v] for v in keep], edges, [g.orig_ids[v] for v in keep])
                got = restrict(g, keep, shift)
                for attr in ("owners", "orig_ids", "esrc", "edst", "eweight", "out", "inc", "W"):
                    assert getattr(got, attr) == getattr(want, attr)


class TestIsTrap:
    def test_trap_for_min(self, g5):
        assert is_trap(g5, {0, 1, 2}, Player.MIN)

    def test_not_a_subgame(self, g3):
        with pytest.raises(NotASubgameError):
            is_trap(g3, {0}, Player.MIN)

    def test_whole_game_is_a_trap_for_both(self, g5):
        assert is_trap(g5, range(g5.n), Player.MIN)
        assert is_trap(g5, range(g5.n), Player.MAX)

    def test_escaping_player_breaks_trap(self, g5):
        # s (vertex 3, MIN) has the edge s->r leaving {s}, so Min escapes.
        assert not is_trap(g5, {3}, Player.MIN)
        assert is_trap(g5, {3}, Player.MAX)


class TestCycleWeight:
    def test_self_loop(self, g1):
        assert cycle_weight(g1, ClosedWalk((0,))) == -1

    def test_two_edge_cycle(self, g3):
        assert cycle_weight(g3, ClosedWalk((0, 1))) == -1

    def test_unchained_walk_rejected(self, g5):
        # edge 2 is q->r but edge 4 starts at s, so the pair cannot chain
        with pytest.raises(GameError, match="chain"):
            cycle_weight(g5, ClosedWalk((2, 4)))

    def test_open_walk_rejected(self, g3):
        with pytest.raises(GameError, match="close"):
            cycle_weight(g3, ClosedWalk((0,)))


class TestGameBasics:
    def test_w_matches_weights(self):
        for g in small_corpus(100, seed0=3):
            assert g.W == max(abs(w) for w in g.eweight)

    def test_equality_ignores_edge_order(self):
        a = Game([Player.MIN], [(0, 0, 1), (0, 0, 2)])
        b = Game([Player.MIN], [(0, 0, 2), (0, 0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_equality_respects_original_ids(self):
        a = parse_game("mpg 1\nvertex 0 MIN\nedge 0 0 1\n")
        b = parse_game("mpg 1\nvertex 1 MIN\nedge 1 1 1\n")
        assert a != b

    def test_dual_is_involution(self):
        for g in small_corpus(50, seed0=21):
            assert dual_game(dual_game(g)) == g

    def test_construction_rejects_sink(self):
        with pytest.raises(GameError, match="sink"):
            Game([Player.MIN, Player.MAX], [(0, 1, 1)])

    def test_construction_rejects_bad_endpoint(self):
        with pytest.raises(GameError, match="out of range"):
            Game([Player.MIN], [(0, 3, 1)])


class TestPotentialFiles:
    def test_round_trip(self, g5):
        phi = {0: 4, 1: -2, 2: 0, 3: 9}
        data = serialize_potential(g5, phi)
        assert parse_potential(data, g5) == phi

    def test_unknown_vertex(self, g1):
        with pytest.raises(ParseError, match="unknown vertex 5"):
            parse_potential("5 3\n", g1)

    def test_duplicate_vertex(self, g1):
        with pytest.raises(ParseError, match="duplicate"):
            parse_potential("0 3\n0 4\n", g1)

    def test_uses_original_ids(self):
        g = parse_game("mpg 1\nvertex 7 MIN\nedge 7 7 -1\n")
        assert parse_potential("7 11\n", g) == {0: 11}
