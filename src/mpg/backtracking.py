"""Backward fixpoint procedures shared by the solver.

All four operations walk predecessor lists with per-vertex escape counters,
so each runs in O(n + m): propagating exact peak values over vertices whose
every path enters a finished set, player attractors that extend a reducing
potential, the safe seed set for initialising the finished set, and the bulk
good-escape set that fixes many vertices at once.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .game import Game, Player, dual_game
from .zones import Zones


class SolverInternalError(Exception):
    """The solver or one of its subprocedures detected an internal inconsistency."""


def _backtrack_core(g: Game, in_f: list, val: list) -> list:
    """Extend ``in_f``/``val`` over vertices all of whose paths enter the set.

    A vertex joins once every outgoing edge leads into the set; its value is
    then the owner's optimum of edge weight plus successor value.  Returns the
    newly added vertices; the result is independent of pop order.
    """
    n = g.n
    out, inc, esrc, edst, ew, owners = g.out, g.inc, g.esrc, g.edst, g.eweight, g.owners
    esc = [0] * n
    queue = deque()
    for v in range(n):
        if not in_f[v]:
            c = 0
            for e in out[v]:
                if not in_f[edst[e]]:
                    c += 1
            esc[v] = c
            if c == 0:
                queue.append(v)
    added = []
    is_min = Player.MIN
    while queue:
        v = queue.popleft()
        if in_f[v]:
            continue
        in_f[v] = True
        best = None
        if owners[v] is is_min:
            for e in out[v]:
                cand = ew[e] + val[edst[e]]
                if best is None or cand < best:
                    best = cand
        else:
            for e in out[v]:
                cand = ew[e] + val[edst[e]]
                if best is None or cand > best:
                    best = cand
        val[v] = best
        added.append(v)
        for e in inc[v]:
            u = esrc[e]
            if not in_f[u]:
                esc[u] -= 1
                if esc[u] == 0:
                    queue.append(u)
    return added


def _attract_max_core(g: Game, in_t: list, phi_t: Sequence) -> tuple:
    """Max attractor to the target with an extended potential.

    An attracted Max vertex gets the value of one witness edge into the
    attractor (zero modified weight); an attracted Min vertex, all of whose
    edges enter the attractor, gets the minimum, making all its modified
    weights >= 0.  Returns (membership list, potential list valid on it).
    """
    n = g.n
    out, inc, esrc, edst, ew, owners = g.out, g.inc, g.esrc, g.edst, g.eweight, g.owners
    in_a = list(in_t)
    phi = [0] * n
    for v in range(n):
        if in_a[v]:
            phi[v] = phi_t[v]
    esc = [0] * n
    pending = [False] * n
    queue = deque()
    is_min = Player.MIN
    for v in range(n):
        if in_a[v]:
            continue
        if owners[v] is is_min:
            c = 0
            for e in out[v]:
                if not in_t[edst[e]]:
                    c += 1
            esc[v] = c
            if c == 0:
                pending[v] = True
                queue.append(v)
        else:
            if any(in_t[edst[e]] for e in out[v]):
                pending[v] = True
                queue.append(v)
    while queue:
        v = queue.popleft()
        if in_a[v]:
            continue
        if owners[v] is is_min:
            # esc hit zero, so every successor is already attracted.
            best = None
            for e in out[v]:
                cand = ew[e] + phi[edst[e]]
                if best is None or cand < best:
                    best = cand
            phi[v] = best
        else:
            # Witness must predate v's own membership, else a self-loop
            # could pose as the edge that reaches the target.
            witness = min(e for e in out[v] if in_a[edst[e]])
            phi[v] = ew[witness] + phi[edst[witness]]
        in_a[v] = True
        for e in inc[v]:
            u = esrc[e]
            if in_a[u] or pending[u]:
                continue
            if owners[u] is is_min:
                esc[u] -= 1
                if esc[u] == 0:
                    pending[u] = True
                    queue.append(u)
            else:
                pending[u] = True
                queue.append(u)
    return in_a, phi


def _safe_init_core(
    g: Game, protected: frozenset, seeds: frozenset, counter_owner: Player
) -> frozenset:
    """Complement of the unsafe backward fixpoint seeded at ``seeds``.

    ``counter_owner`` vertices outside the protected and seed zones become
    unsafe once all their zero-weight edges lead to unsafe vertices; the other
    player's vertices become unsafe as soon as any edge does.  Vertices in
    ``protected`` never do.
    """
    n = g.n
    out, inc, esrc, ew, edst, owners = g.out, g.inc, g.esrc, g.eweight, g.edst, g.owners
    cnt = [0] * n
    for v in range(n):
        if v in protected or v in seeds:
            continue
        if owners[v] is counter_owner:
            cnt[v] = sum(1 for e in out[v] if ew[e] == 0)
    pending = [False] * n
    unsafe = [False] * n
    queue = deque()
    for v in seeds:
        pending[v] = True
        queue.append(v)
    while queue:
        u = queue.popleft()
        unsafe[u] = True
        for e in inc[u]:
            v = esrc[e]
            if pending[v] or v in protected:
                continue
            if owners[v] is counter_owner:
                if ew[e] == 0:
                    cnt[v] -= 1
                    if cnt[v] == 0:
                        pending[v] = True
                        queue.append(v)
            else:
                pending[v] = True
                queue.append(v)
    return frozenset(v for v in range(n) if not unsafe[v])


def safe_init(g: Game, z: Zones, player: Player) -> frozenset:
    """Largest set from which ``player`` keeps edge weights on their side of
    zero until their zone is reached (or forever).

    For MIN this contains N and the peak value over the set is 0, so it can
    seed the finished set; the MAX version is the mirror image.
    """
    if player is Player.MIN:
        return _safe_init_core(g, protected=z.N, seeds=z.P, counter_owner=Player.MIN)
    inverted = dual_game(g)
    return _safe_init_core(
        inverted, protected=z.P, seeds=z.N, counter_owner=Player.MIN
    )


def _good_escape_core(
    g: Game,
    in_f: list,
    val: list,
    side: list,
    phi: Sequence,
    m: int,
    plus: bool,
) -> list:
    """Vertices of ``side`` from which the escaping player forces a good escape.

    An edge from the side into the finished set is good when its adjusted cost
    ``w + val(dst) - phi(src)`` meets the bound ``m``; an edge inside the side
    is safe when its phi-modified weight stays on the escaping player's side
    of zero.  The result is the greatest set whose choosing player always has
    a good or safe option and whose opponent has nothing else.
    """
    n = g.n
    out, inc, esrc, edst, ew, owners = g.out, g.inc, g.esrc, g.edst, g.eweight, g.owners
    in_side = [False] * n
    for v in side:
        in_side[v] = True
    chooser = Player.MIN if plus else Player.MAX
    supp = [0] * n
    safe_edge = {}
    removal = deque()
    pending = [False] * n
    for v in side:
        options = 0
        bad = False
        for e in out[v]:
            d = edst[e]
            w = ew[e]
            if in_f[d]:
                expr = w + val[d] - phi[v]
                if (expr <= m) if plus else (expr >= m):
                    options += 1
                else:
                    bad = True
            elif in_side[d]:
                mod = w + phi[d] - phi[v]
                if (mod <= 0) if plus else (mod >= 0):
                    safe_edge[e] = True
                    options += 1
                else:
                    bad = True
            else:
                bad = True
        if owners[v] is chooser:
            supp[v] = options
            if options == 0:
                pending[v] = True
                removal.append(v)
        elif bad:
            pending[v] = True
            removal.append(v)
    removed = [False] * n
    while removal:
        u = removal.popleft()
        removed[u] = True
        for e in inc[u]:
            if e not in safe_edge:
                continue
            v = esrc[e]
            if removed[v] or pending[v]:
                continue
            if owners[v] is chooser:
                supp[v] -= 1
                if supp[v] == 0:
                    pending[v] = True
                    removal.append(v)
            else:
                pending[v] = True
                removal.append(v)
    return [v for v in side if not removed[v]]
