"""Game representation: parsing, serialization, preprocessing, reweighting."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mpg import (
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
    dual_game,
    gen_random,
    parse_game,
    parse_potential,
    preprocess_no_zero_cycles,
    restrict,
    serialize_game,
)
from conftest import (
    G1_TEXT,
    G3_TEXT,
    ClosedWalk,
    canonical,
    cycle_weight,
    edge_list,
    is_trap,
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
        assert edge_list(g1)[0] == (0, 0, -1)
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

    @pytest.mark.parametrize(
        "line, what, token",
        [
            ("vertex 1_0 MIN", "vertex id", "1_0"),
            ("vertex \u0663 MIN", "vertex id", "\u0663"),
            ("edge 0 0 -\u0663", "edge weight", "-\u0663"),
            ("edge 0 \uff10 1", "edge target", "\uff10"),
            ("edge 0 0 1_000", "edge weight", "1_000"),
        ],
    )
    def test_only_ascii_digits_are_integers(self, line, what, token):
        # Python's int() also reads underscores and non-ASCII digits.
        message = f"line 3: {what} is not an integer: {token!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_game(f"mpg 1\nvertex 0 MIN\n{line}\n")

    def test_signs_and_leading_zeros(self):
        g = parse_game("mpg 1\nvertex 007 MIN\nedge 7 7 +3\n")
        assert g.orig_ids == (7,) and g.eweight == (3,)
        with pytest.raises(ParseError, match=re.escape("must be a non-negative integer: '+7'")):
            parse_game("mpg 1\nvertex +7 MIN\n")

    @pytest.mark.parametrize(
        "line, what, token",
        [
            ("vertex -0 MIN", "vertex id", "-0"),
            ("vertex +0 MIN", "vertex id", "+0"),
            ("vertex -00 MIN", "vertex id", "-00"),
            ("edge -0 0 1", "edge source", "-0"),
            ("edge 0 -0 1", "edge target", "-0"),
            ("edge 0 +0 1", "edge target", "+0"),
        ],
    )
    def test_ids_take_no_sign(self, line, what, token):
        # int() reads "-0" as 0, which used to pass as vertex id 0.
        message = f"line 3: {what} must be a non-negative integer: {token!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_game(f"mpg 1\nvertex 0 MIN\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("edge 0 0 +", "edge weight is not an integer: '+'"),
            ("edge 0 0 -", "edge weight is not an integer: '-'"),
            ("edge 0 0 --5", "edge weight is not an integer: '--5'"),
            ("edge 0 0 +-5", "edge weight is not an integer: '+-5'"),
            # Several bad tokens: the source is reported first, and a dangling
            # id only once all three tokens parse.
            ("edge x -1 1_0", "edge source is not an integer: 'x'"),
            ("edge -1 x 1_0", "edge source must be a non-negative integer: '-1'"),
            ("edge 9 x 1_0", "edge target is not an integer: 'x'"),
            ("edge 9 8 1_0", "edge weight is not an integer: '1_0'"),
            ("edge 9 8 -9223372036854775809", "edge weight out of 64-bit signed range"),
            ("edge 9 8 7", "dangling edge endpoint 9"),
            ("edge 0 8 7", "dangling edge endpoint 8"),
        ],
    )
    def test_malformed_edge_line(self, line, message):
        with pytest.raises(ParseError, match=re.escape(f"line 3: {message}")):
            parse_game(f"mpg 1\nvertex 0 MIN\n{line}\n")

    def test_edge_tokens_read_as_integers(self):
        # Leading zeros and signed weights read as their values.
        g = parse_game(
            "mpg 1\nvertex 0 MIN\nvertex 01 MAX\nedge 00 1 -0\nedge 0001 0 +9223372036854775807\n"
        )
        assert edge_list(g) == [(0, 1, 0), (1, 0, 2**63 - 1)]
        g = parse_game("mpg 1\nvertex 0 MIN\nedge 0 0 -9223372036854775808\n")
        assert g.eweight == (-(2**63),)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nmpg 1\n# another\nvertex 0 MIN\n\nedge 0 0 -1\n"
        assert canonical(parse_game(text)) == canonical(parse_game(G1_TEXT))

    def test_sparse_ids_reindexed_in_declaration_order(self):
        text = "mpg 1\nvertex 9 MIN\nvertex 2 MAX\nedge 9 2 1\nedge 2 9 -1\n"
        g = parse_game(text)
        assert g.orig_ids == (9, 2)
        assert g.owners == (Player.MIN, Player.MAX)
        assert edge_list(g)[0] == (0, 1, 1)

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
            assert canonical(again) == canonical(g), f"round trip failed for corpus game {i}"

    def test_serialization_injective_on_corpus(self):
        by_bytes = {}
        games_list = small_corpus(1000, seed0=4242)
        for g in games_list:
            by_bytes.setdefault(serialize_game(g), []).append(g)
        for data, collided in by_bytes.items():
            first = collided[0]
            for other in collided[1:]:
                assert canonical(other) == canonical(first), "distinct games serialized identically"
        distinct = len({canonical(g) for g in games_list})
        assert len(by_bytes) == distinct

    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_round_trip_property(self, g):
        assert canonical(parse_game(serialize_game(g))) == canonical(g)


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
    def test_relabel_in_the_same_pass(self, mode):
        # One pass of (n+1)*w -+ 1 + phi[d] - phi[v] builds, edge id for edge
        # id, the game of preprocessing followed by apply_potential.
        rng = Rng(17)
        for g in small_corpus(120, seed0=60, max_n=9, weight_bound=50):
            # Potentials past 64 bits, as certificates near the guard hold.
            phi = [rng.randint(-(2**62), 2**62) * 8 for _ in range(g.n)]
            one = apply_potential(g, phi, mode)
            two = apply_potential(preprocess_no_zero_cycles(g, mode), phi)
            assert one.eweight == two.eweight
            assert (one.esrc, one.edst, one.owners) == (two.esrc, two.edst, two.owners)

    def test_overflow_guard_with_a_potential(self):
        too_big = parse_game(f"mpg 1\nvertex 0 MIN\nedge 0 0 {(2**62 - 2) // 2 + 1}\n")
        for mode in ThresholdMode:
            with pytest.raises(OverflowGuardError):
                apply_potential(too_big, [0], mode)

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
        assert canonical(apply_potential(g5, [0] * g5.n)) == canonical(g5)

    def test_self_loop_unchanged(self, g1):
        out = apply_potential(g1, {0: 12345})
        assert out.eweight == g1.eweight

    def test_composition(self):
        for g in small_corpus(50, seed0=9):
            rng = Rng(g.n * 31 + 7)
            phi1 = {v: rng.randint(-5, 5) for v in range(g.n)}
            phi2 = {v: rng.randint(-5, 5) for v in range(g.n)}
            combined = {v: phi1[v] + phi2[v] for v in range(g.n)}
            assert canonical(apply_potential(apply_potential(g, phi1), phi2)) == canonical(
                apply_potential(g, combined)
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
        assert sub.n == 1 and edge_list(sub)[0] == (0, 0, 1)
        assert sub.orig_ids == (0,)

    def test_full_restriction_is_identity(self, g5):
        assert canonical(restrict(g5, range(g5.n))) == canonical(g5)

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
                h = apply_potential(g, shift or [0] * g.n)
                index = {v: i for i, v in enumerate(keep)}
                edges = [
                    (index[v], index[h.edst[e]], h.eweight[e])
                    for v in keep for e in h.out[v] if h.edst[e] in index
                ]
                want = Game([g.owners[v] for v in keep], edges, [g.orig_ids[v] for v in keep])
                got = restrict(g, keep, shift)
                for attr in ("owners", "orig_ids", "esrc", "edst", "eweight", "out", "inc", "W"):
                    # A subgame's out entries are ranges where Game() builds lists.
                    x, y = getattr(got, attr), getattr(want, attr)
                    if attr in ("out", "inc"):
                        x, y = [tuple(e) for e in x], [tuple(e) for e in y]
                    assert x == y


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
        assert canonical(a) == canonical(b) and hash(canonical(a)) == hash(canonical(b))

    def test_equality_respects_original_ids(self):
        a = parse_game("mpg 1\nvertex 0 MIN\nedge 0 0 1\n")
        b = parse_game("mpg 1\nvertex 1 MIN\nedge 1 1 1\n")
        assert canonical(a) != canonical(b)

    def test_dual_is_involution(self):
        for g in small_corpus(50, seed0=21):
            assert canonical(dual_game(dual_game(g))) == canonical(g)

    def test_one_layout_for_every_game(self, g5):
        # Edge arrays are tuples; out/inc are lists of ascending edge ids,
        # whose out entries are lists at the root and ranges in a subgame.
        root = (g5, Game(g5.owners, edge_list(g5), g5.orig_ids), g5.with_weights(g5.eweight))
        sub = restrict(g5, range(g5.n), [1, 2, 3, 4])
        for g, entry in [*((x, list) for x in root), (dual_game(g5), list), (sub, range)]:
            for attr in ("owners", "orig_ids", "esrc", "edst", "eweight"):
                assert type(getattr(g, attr)) is tuple
            assert type(g.out) is type(g.inc) is list
            assert all(type(x) is entry for x in g.out) and all(type(x) is list for x in g.inc)
            assert all(list(x) == sorted(x) for x in (*g.out, *g.inc))

    def test_construction_rejects_sink(self):
        with pytest.raises(GameError, match="sink"):
            Game([Player.MIN, Player.MAX], [(0, 1, 1)])

    def test_construction_rejects_bad_endpoint(self):
        with pytest.raises(GameError, match="out of range"):
            Game([Player.MIN], [(0, 3, 1)])

    @pytest.mark.parametrize("src", [True, 0.0, "0"])
    def test_construction_rejects_non_integer_endpoint(self, src):
        with pytest.raises(GameError, match="endpoint"):
            Game([Player.MIN], [(src, 0, 1)])

    @pytest.mark.parametrize("w", [True, 0.5, 2.0, 2**63, -(2**63) - 1, 2**70])
    def test_construction_rejects_what_the_file_format_cannot_hold(self, w):
        with pytest.raises(GameError, match="64-bit"):
            Game([Player.MIN], [(0, 0, w)])

    @pytest.mark.parametrize("ids", [[-1], ["a"], [True]])
    def test_construction_rejects_ids_the_file_format_cannot_hold(self, ids):
        with pytest.raises(GameError, match="vertex id must be a non-negative integer"):
            Game([Player.MIN], [(0, 0, 1)], orig_ids=ids)

    def test_every_game_built_round_trips_through_its_file(self):
        # Game() builds exactly when the ids are distinct non-bool ints >= 0,
        # and then its file parses back to the same game.
        candidates = [0, 1, 7, 2**70, -1, -(2**70), True, False, "a", "1", 1.0, None]
        built = 0
        for a in candidates:
            for b in candidates:
                try:
                    g = Game([Player.MIN, Player.MAX], [(0, 1, 1), (1, 0, -1)], orig_ids=[a, b])
                except GameError:
                    assert not (type(a) is type(b) is int and 0 <= a != b >= 0)
                    continue
                built += 1
                assert canonical(parse_game(serialize_game(g))) == canonical(g)
        assert built == 12

    def test_construction_accepts_the_64_bit_range(self):
        for w in (2**63 - 1, -(2**63)):
            g = Game([Player.MIN], [(0, 0, w)])
            assert canonical(parse_game(serialize_game(g))) == canonical(g)


class TestPotentialFiles:
    def test_round_trip(self, g5):
        assert parse_potential("0 4\n1 -2\n2 0\n3 9\n", g5) == [4, -2, 0, 9]

    def test_value_is_any_integer(self, g3):
        # `solve --json` gives this value to a vertex of a game near the guard.
        big = 32281802128991715293
        assert parse_potential(f"0 {big}\n1 -{big * 2**70}\n", g3) == [big, -big * 2**70]

    def test_value_past_the_digit_limit(self, g1):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ParseError, match="line 1: potential value is not an integer"):
                parse_potential("0 " + "9" * 641 + "\n", g1)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_omitted_vertex_reads_zero(self, g3):
        assert parse_potential("1 3\n", g3) == [0, 3]

    def test_unknown_vertex(self, g1):
        with pytest.raises(ParseError, match="unknown vertex 5"):
            parse_potential("5 3\n", g1)

    def test_duplicate_vertex(self, g1):
        with pytest.raises(ParseError, match="duplicate"):
            parse_potential("0 3\n0 4\n", g1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1_0\n", "potential value is not an integer: '1_0'"),
            ("0 -\u0663\n", "potential value is not an integer: '-\u0663'"),
            ("\u0660 3\n", "vertex id is not an integer: '\u0660'"),
        ],
    )
    def test_only_ascii_digits_are_integers(self, g1, text, message):
        with pytest.raises(ParseError, match=re.escape(f"line 1: {message}")):
            parse_potential(text, g1)

    @pytest.mark.parametrize("token", ["-0", "+0", "-00"])
    def test_ids_take_no_sign(self, g1, token):
        message = f"line 1: vertex id must be a non-negative integer: {token!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_potential(f"{token} 3\n", g1)

    def test_uses_original_ids(self):
        g = parse_game("mpg 1\nvertex 7 MIN\nedge 7 7 -1\n")
        assert parse_potential("7 11\n", g) == [11]
