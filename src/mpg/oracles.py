"""Independent reference implementations for differential testing.

Everything here is written for obviousness, not speed: exhaustive minimax
over positional strategy profiles, direct peak-value evaluation of lasso
plays, the classical lifting iteration for energy values, and a certificate
check for claimed winning strategies.  None of it shares code with the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .game import Game, Player

PLUS_INF = float("inf")
MINUS_INF = float("-inf")

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


def _peak_before(g: Game, nxt: tuple, start: int, target: frozenset):
    """Largest prefix sum of the play from ``start`` before entering ``target``.

    The empty prefix counts, so the result is never negative.  If the play
    never reaches the target it settles into a cycle; a positive cycle pumps
    the peak to infinity, otherwise the peak appears within the first full
    traversal.
    """
    edst, ew = g.edst, g.eweight
    v = start
    total = 0
    peak = 0
    seen: dict = {}
    while True:
        if v in target:
            return peak
        prev = seen.get(v)
        if prev is not None:
            if total > prev:
                return PLUS_INF
            return peak
        seen[v] = total
        e = nxt[v]
        total += ew[e]
        if total > peak:
            peak = total
        v = edst[e]


def brute_force_supsigma(
    g: Game, x: Iterable, budget: int = DEFAULT_BUDGET
) -> dict:
    """Minimax peak value before reaching ``x``, per vertex.

    Min minimizes and Max maximizes the largest prefix sum seen before the
    play first enters ``x`` (over the whole infinite play if it never does).
    Values are >= 0 or +infinity.
    """
    _check_budget(g, budget)
    target = frozenset(x)
    n = g.n
    min_vertices = [v for v in range(n) if g.owners[v] is Player.MIN]
    max_vertices = [v for v in range(n) if g.owners[v] is Player.MAX]
    outer: list = [None] * n
    base = [0] * n
    for sigma in product(*(g.out[v] for v in min_vertices)):
        nxt = base[:]
        for v, e in zip(min_vertices, sigma):
            nxt[v] = e
        inner: list = [None] * n
        for tau in product(*(g.out[v] for v in max_vertices)):
            for v, e in zip(max_vertices, tau):
                nxt[v] = e
            frozen = tuple(nxt)
            for v in range(n):
                peak = _peak_before(g, frozen, v, target)
                if inner[v] is None or peak > inner[v]:
                    inner[v] = peak
        for v in range(n):
            if outer[v] is None or inner[v] < outer[v]:
                outer[v] = inner[v]
    return {v: outer[v] for v in range(n)}


def brute_force_infsigma(
    g: Game, x: Iterable, budget: int = DEFAULT_BUDGET
) -> dict:
    """Minimax valley value before reaching ``x``: the mirror of the peak oracle."""
    from .game import dual_game

    dual = brute_force_supsigma(dual_game(g), x, budget)
    return {v: -val for v, val in dual.items()}


def energy_value_iteration(g: Game) -> dict:
    """Least fixpoint of the peak-value equations by worklist lifting.

    f(v) = max(0, opt over edges of w + f(dst)) with opt = min for Min and
    max for Max.  Requires a game without zero cycles; finite values are
    bounded by (n-1)*W, so anything lifted past n*W diverges and is reported
    as +infinity.  The finite set is exactly the Min winning region.
    """
    n = g.n
    if n == 0:
        return {}
    cap = n * g.W
    owners, out, inc, edst, esrc, ew = g.owners, g.out, g.inc, g.edst, g.esrc, g.eweight
    f: list = [0] * n

    def lifted(v: int):
        if owners[v] is Player.MIN:
            best = min(ew[e] + f[edst[e]] for e in out[v])
        else:
            best = max(ew[e] + f[edst[e]] for e in out[v])
        if best <= 0:
            return 0
        if best > cap:
            return PLUS_INF
        return best

    from collections import deque

    queue = deque(range(n))
    queued = [True] * n
    while queue:
        v = queue.popleft()
        queued[v] = False
        new = lifted(v)
        if new > f[v]:
            f[v] = new
            for e in inc[v]:
                u = esrc[e]
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)
    return {v: f[v] for v in range(n)}


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
