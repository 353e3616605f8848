"""Shared fixtures: the standard small games and naive reference helpers.

The naive helpers deliberately reimplement definitions in the most direct way
possible (iterate-to-fixpoint, explicit quantifiers, exhaustive enumeration)
so the production code can be tested against independent formulations.
"""

from __future__ import annotations

import pytest

from mpg import (
    ClosedWalk,
    Game,
    GenParams,
    Model,
    Player,
    Rng,
    gen_random,
    parse_game,
)

G1_TEXT = "mpg 1\nvertex 0 MIN\nedge 0 0 -1\n"
G2_TEXT = "mpg 1\nvertex 0 MAX\nedge 0 0 1\n"
G3_TEXT = "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 1 2\nedge 1 0 -3\n"
G4_TEXT = "mpg 1\nvertex 0 MIN\nvertex 1 MAX\nedge 0 1 1\nedge 1 0 -1\n"
# p=0, q=1, r=2, s=3
G5_TEXT = (
    "mpg 1\n"
    "vertex 0 MAX\nvertex 1 MAX\nvertex 2 MIN\nvertex 3 MIN\n"
    "edge 0 0 1\nedge 1 0 0\nedge 1 2 -5\nedge 2 1 0\nedge 3 2 0\nedge 3 3 -1\n"
)
G8_TEXT = (
    "mpg 1\n"
    "vertex 0 MIN\nvertex 1 MAX\nvertex 2 MAX\n"
    "edge 0 1 -1\nedge 1 0 2\nedge 1 2 0\nedge 2 2 1\n"
)
# n0=0, h=1
G9_TEXT = "mpg 1\nvertex 0 MAX\nvertex 1 MAX\nedge 0 0 -1\nedge 1 0 1\nedge 1 1 -2\n"


@pytest.fixture
def g1() -> Game:
    return parse_game(G1_TEXT)


@pytest.fixture
def g2() -> Game:
    return parse_game(G2_TEXT)


@pytest.fixture
def g3() -> Game:
    return parse_game(G3_TEXT)


@pytest.fixture
def g4() -> Game:
    return parse_game(G4_TEXT)


@pytest.fixture
def g5() -> Game:
    return parse_game(G5_TEXT)


@pytest.fixture
def g8() -> Game:
    return parse_game(G8_TEXT)


@pytest.fixture
def g9() -> Game:
    return parse_game(G9_TEXT)


def small_corpus(count, seed0=0, max_n=8, weight_bound=4, model=Model.UNIFORM):
    """Deterministic list of small random games with n cycling through 2..max_n."""
    games = []
    for i in range(count):
        n = 2 + i % (max_n - 1)
        games.append(
            gen_random(
                GenParams(
                    n=n,
                    out_degree=(1, 3),
                    weight_bound=weight_bound,
                    model=model,
                    seed=seed0 + i,
                )
            )
        )
    return games


def subgame_views(g: Game, rng: Rng, count: int = 4):
    """Random ascending vertex lists inducing subgames of ``g``, each with a
    random potential shift over ``g``'s vertices (or None)."""
    views = []
    for _ in range(count):
        keep = {v for v in range(g.n) if rng.randint(0, 2)}
        changed = True
        while changed:  # drop vertices left without an edge inside
            changed = False
            for v in sorted(keep):
                if not any(g.edst[e] in keep for e in g.out[v]):
                    keep.discard(v)
                    changed = True
        if keep:
            shift = [rng.randint(-9, 9) for _ in range(g.n)] if rng.randint(0, 1) else None
            views.append((sorted(keep), shift))
    return views


def naive_zone_fixpoint(g: Game):
    """Zones by explicit quantifiers plus a round-based fixpoint for ZN."""
    n_zone, p_zone = set(), set()
    for v in range(g.n):
        ws = [g.eweight[e] for e in g.out[v]]
        if g.owners[v] is Player.MIN:
            if any(w < 0 for w in ws):
                n_zone.add(v)
            elif all(w > 0 for w in ws):
                p_zone.add(v)
        else:
            if all(w < 0 for w in ws):
                n_zone.add(v)
            elif any(w > 0 for w in ws):
                p_zone.add(v)
    zn = set(n_zone)
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in zn or v in p_zone:
                continue
            zero_targets = [g.edst[e] for e in g.out[v] if g.eweight[e] == 0]
            if g.owners[v] is Player.MIN:
                join = any(t in zn for t in zero_targets)
            else:
                join = v not in n_zone and bool(zero_targets) and all(
                    t in zn for t in zero_targets
                )
            if join:
                zn.add(v)
                changed = True
    every = set(range(g.n))
    return {
        "N": frozenset(n_zone),
        "Z": frozenset(every - n_zone - p_zone),
        "P": frozenset(p_zone),
        "ZN": frozenset(zn),
        "ZP": frozenset(every - zn),
    }


def reduced_per_vertex(g: Game, zn: frozenset) -> bool:
    """The per-vertex reducedness definition, written with explicit edge sets."""
    for v in range(g.n):
        qualifying = []
        for e in g.out[v]:
            d, w = g.edst[e], g.eweight[e]
            if v in zn:
                if w <= 0 and d in zn:
                    qualifying.append(e)
            else:
                if w >= 0 and d not in zn:
                    qualifying.append(e)
        owner = g.owners[v]
        forces = (
            (owner is Player.MIN) == (v in zn)
        )  # the zone's player owns the vertex and needs one qualifying edge
        if forces:
            if not qualifying:
                return False
        else:
            if len(qualifying) != len(g.out[v]):
                return False
    return True


def simple_cycles(g: Game):
    """All simple cycles as edge-id lists; exponential, for tiny games only."""
    cycles = []

    def dfs(start, v, path, visited):
        for e in g.out[v]:
            d = g.edst[e]
            if d == start:
                cycles.append(path + [e])
            elif d > start and d not in visited:
                visited.add(d)
                dfs(start, d, path + [e], visited)
                visited.remove(d)

    for s in range(g.n):
        dfs(s, s, [], {s})
    return cycles


def sample_closed_walk(g: Game, rng: Rng) -> ClosedWalk:
    """Random walk until a vertex repeats; the loop part is a closed walk."""
    v = rng.below(g.n)
    seen = {v: 0}
    edges = []
    while True:
        e = g.out[v][rng.below(len(g.out[v]))]
        edges.append(e)
        v = g.edst[e]
        if v in seen:
            return ClosedWalk(tuple(edges[seen[v]:]))
        seen[v] = len(edges)
