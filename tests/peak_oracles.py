"""Naive peak-value and energy-value oracles that the tests compare against.

``brute_force_supsigma`` and ``brute_force_infsigma`` find the minimax peak
(and valley) value before a target set by enumerating every positional
strategy profile, with ``_peak_before`` evaluating each lasso play.
``energy_value_iteration`` is the classical worklist lifting for energy
values, whose finite set is the Min winning region.  ``PLUS_INF`` marks a
diverging value.  None of it shares code with the solver; the enumerations
obey the same profile budget as ``mpg.oracles.brute_force_solve``.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable

from mpg import Game, Player, dual_game
from mpg.oracles import DEFAULT_BUDGET, _check_budget

PLUS_INF = float("inf")


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
