"""Independent reference implementations that the program itself runs.

Both are written for obviousness, not speed, and share no code with the
solver: exhaustive minimax over positional strategy profiles, which
``mpg diff`` compares the solver against, and a certificate check for
claimed winning strategies, which the benchmark's correctness check
applies to the strategies of each threshold answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .game import Game, Player

DEFAULT_BUDGET = 2**20


class BudgetExceededError(Exception):
    """The instance has more strategy profiles than the oracle budget allows."""


def _profile_count(g: Game) -> int:
    count = 1
    for v in range(g.n):
        count *= len(g.out[v])
    return count


def _check_budget(g: Game, budget: int) -> None:
    if _profile_count(g) > budget:
        raise BudgetExceededError(
            f"{_profile_count(g)} strategy profiles exceed budget {budget}"
        )


def _cycle_values(g: Game, nxt: tuple) -> list:
    """Per-vertex (cycle sum, cycle length) of the unique play under a profile."""
    n = g.n
    edst, ew = g.edst, g.eweight
    vals: list = [None] * n
    for start in range(n):
        if vals[start] is not None:
            continue
        path = []
        pos: dict = {}
        v = start
        while True:
            known = vals[v]
            if known is not None:
                base = known
                break
            seen = pos.get(v)
            if seen is not None:
                total = 0
                for u in path[seen:]:
                    total += ew[nxt[u]]
                base = (total, len(path) - seen)
                for u in path[seen:]:
                    vals[u] = base
                del path[seen:]
                break
            pos[v] = len(path)
            path.append(v)
            v = edst[nxt[v]]
        for u in path:
            vals[u] = base
    return vals


@dataclass(frozen=True)
class BruteForceResult:
    """Exact values and the regions split at "value <= 0" (ties side with Min)."""

    values: dict
    min_region: frozenset
    max_region: frozenset


def brute_force_solve(g: Game, budget: int = DEFAULT_BUDGET) -> BruteForceResult:
    """Minimax over all positional strategy pairs.

    value(v) = min over Min strategies of max over Max strategies of the mean
    weight of the cycle the play from v reaches.  Exponential; guarded by the
    profile budget.
    """
    _check_budget(g, budget)
    n = g.n
    min_vertices = [v for v in range(n) if g.owners[v] is Player.MIN]
    max_vertices = [v for v in range(n) if g.owners[v] is Player.MAX]
    outer: list = [None] * n  # per-vertex min over sigma of (num, den)
    base = [0] * n
    for sigma in product(*(g.out[v] for v in min_vertices)):
        nxt = base[:]
        for v, e in zip(min_vertices, sigma):
            nxt[v] = e
        inner: list = [None] * n  # max over tau under this sigma
        for tau in product(*(g.out[v] for v in max_vertices)):
            for v, e in zip(max_vertices, tau):
                nxt[v] = e
            vals = _cycle_values(g, tuple(nxt))
            for v in range(n):
                cur = inner[v]
                new = vals[v]
                if cur is None or new[0] * cur[1] > cur[0] * new[1]:
                    inner[v] = new
        for v in range(n):
            cur = outer[v]
            new = inner[v]
            if cur is None or new[0] * cur[1] < cur[0] * new[1]:
                outer[v] = new
    values = {v: Fraction(outer[v][0], outer[v][1]) for v in range(n)}
    min_region = frozenset(v for v in range(n) if values[v] <= 0)
    return BruteForceResult(
        values, min_region, frozenset(range(n)) - min_region
    )


def verify_strategy(
    g: Game, strat: Mapping, player: Player, region: Iterable
) -> bool:
    """Check a claimed winning strategy on a claimed region.

    For MIN: fixing the strategy inside the region must trap MAX there and
    every cycle of the induced graph must have total weight < 0 (dually > 0
    for MAX).  Cycle signs are checked by shortest-path relaxation on the
    negated, scaled graph, so only a violating cycle can relax forever.
    """
    reg = sorted(set(region))
    reg_set = frozenset(reg)
    for v in reg:
        if g.owners[v] is player and v not in strat:
            raise ValueError(f"strategy missing for vertex {v}")
    index = {v: i for i, v in enumerate(reg)}
    arcs: list = []
    for v in reg:
        if g.owners[v] is player:
            chosen = [strat[v]]
        else:
            chosen = list(g.out[v])
        for e in chosen:
            d = g.edst[e]
            if d not in reg_set:
                return False  # region is not a trap under the strategy
            w = g.eweight[e]
            if player is Player.MAX:
                w = -w
            arcs.append((index[v], index[d], w))
    # All cycles must be < 0. Scale to k*w + 1 so zero-total cycles count as
    # violations too, then look for a >= 0 ... i.e. positive ... cycle by
    # relaxing longest paths; any improvement after |region| rounds is a
    # violating cycle.
    k = max(len(reg), 1)
    dist = [0] * len(reg)
    for _ in range(len(reg)):
        changed = False
        for u, v, w in arcs:
            cand = dist[u] + k * w + 1
            if cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return True
    for u, v, w in arcs:
        if dist[u] + k * w + 1 > dist[v]:
            return False
    return True
