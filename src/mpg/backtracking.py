"""Backward fixpoints shared by the solver.

Each operation walks predecessor lists with per-vertex escape counters:
propagating exact peak values over vertices whose every path enters a
finished set, player attractors that extend a reducing potential, the safe
seed set for initialising the finished set, and the bulk good-escape set that
fixes many vertices at once.  Attractors and safe seeds run in O(n + m).
Value propagation keeps its counters across the passes of one escape loop,
whose finished set only grows, so a loop spends O(n + m) on it in total.
The good-escape set costs the edges around the vertices that can join it,
not the whole side it is drawn from.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .game import Game, Player


class SolverInternalError(Exception):
    """The solver or one of its subprocedures detected an internal inconsistency."""


def _backtrack_core(g: Game, in_f: list, val: list, esc: list, joined: list) -> list:
    """Extend ``in_f``/``val`` over vertices all of whose paths enter the set.

    ``esc[v]`` counts the out-edges of a vertex outside the set that do not
    enter it, as they stood before the vertices ``joined`` entered: a loop
    starts from the out-degrees with ``joined`` the whole seed, then passes
    each escape's fixed vertices.  A vertex joins once its counter reaches
    zero; its value is then the owner's optimum of edge weight plus
    successor value.  Returns the newly added vertices and leaves ``esc``
    current; the result is independent of pop order.
    """
    out, inc, esrc, edst, ew, owners = g.out, g.inc, g.esrc, g.edst, g.eweight, g.owners
    queue = deque()
    for r in joined:
        for e in inc[r]:
            u = esrc[e]
            if not in_f[u]:
                esc[u] -= 1
                if esc[u] == 0:
                    queue.append(u)
    added = []
    is_min = Player.MIN
    while queue:
        v = queue.popleft()
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
            for e in out[v]:
                if in_t[edst[e]]:
                    pending[v] = True
                    queue.append(v)
                    break
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
            # could pose as the edge that reaches the target.  Out-lists
            # ascend, so the first such edge is the lowest.
            for e in out[v]:
                if in_a[edst[e]]:
                    phi[v] = ew[e] + phi[edst[e]]
                    break
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


def safe_init(g: Game, cls: Sequence[int], player: Player) -> list:
    """Largest set from which ``player`` keeps edge weights on their side of
    zero until their zone is reached (or forever), as a membership list.

    ``cls`` is the zone class per vertex (-1 N, 0 Z, 1 P), as in ``Zones``.
    For MIN the set contains N and the peak value over the set is 0, so it
    can seed the finished set; for MAX it contains P and the valley value is
    0.  It is the complement of an unsafe backward fixpoint seeded at the
    other player's zone: a ``player`` vertex outside both zones becomes
    unsafe once all its zero-weight edges lead to unsafe vertices, an
    opponent vertex as soon as any edge does, and a vertex of ``player``'s
    zone never does.  Weights are read only through ``== 0``, so one
    fixpoint serves both players without dualising the game.
    """
    protected = -1 if player is Player.MIN else 1
    n = g.n
    out, inc, esrc, ew, owners = g.out, g.inc, g.esrc, g.eweight, g.owners
    cnt = [0] * n
    for v in range(n):
        if not cls[v] and owners[v] is player:
            c = 0
            for e in out[v]:
                if not ew[e]:
                    c += 1
            cnt[v] = c
    # A vertex is marked unsafe when it is queued.
    unsafe = [c == -protected for c in cls]
    queue = deque(v for v in range(n) if unsafe[v])
    while queue:
        u = queue.popleft()
        for e in inc[u]:
            v = esrc[e]
            if unsafe[v] or cls[v] == protected:
                continue
            if owners[v] is player:
                if ew[e] == 0:
                    cnt[v] -= 1
                    if cnt[v] == 0:
                        unsafe[v] = True
                        queue.append(v)
            else:
                unsafe[v] = True
                queue.append(v)
    return [not x for x in unsafe]


def _good_escape_core(
    g: Game,
    in_f: list,
    val: list,
    sides: list,
    sources: list,
    phi: Sequence,
    m: int,
    plus: bool,
) -> list:
    """Vertices of the side from which the escaping player forces a good escape.

    The side is the set of vertices ``v`` with ``sides[v]`` equal to -1 when
    ``plus`` (Min escapes from the Max-won side) and 1 otherwise (Max escapes
    from the whole Min-won remainder).  An edge from the side into the
    finished set is good when its adjusted cost ``w + val(dst) - phi(src)``
    meets the bound ``m``; an edge inside the side is safe when its
    phi-modified weight stays on the escaping player's side of zero.  The
    result, ascending, is the greatest set whose choosing player always has a
    good or safe option and whose opponent has nothing else.

    The fixpoint is taken only over the domain reached from ``sources``
    backward along side edges whose modified weight is exactly zero; an edge
    into a side vertex outside the domain counts as removed.  With
    ``sources`` the escaping player's vertices that reach ``m`` (the optimal
    escapes, since ``m`` is their best bound) and ``phi`` the certificate of
    the remainder, the domain holds the whole greatest set:

    * the side is reduced for the opponent, so each of the escaping player's
      side edges weighs zero or lies on the opponent's side of zero, and is
      safe only if it weighs zero; its good edges are exactly the ties with
      ``m``, so a member that is not a source keeps a zero edge into the set;
    * each opponent member has an edge on its own side of zero into the side,
      which must also be safe, so it weighs zero and enters the set;
    * zero edges form a DAG (no cycle weighs zero), so from any member a walk
      along zero edges inside the set ends, and only at a source.

    Restricting to a domain that contains the greatest set can only remove
    options from outside it, so the two fixpoints agree.  Given the whole
    side as ``sources`` the domain is the whole side.  A least fixpoint grown
    from the good edges is not the same set: an opponent may keep a negative
    safe edge inside the set, which the greatest fixpoint accepts.
    """
    out, inc, esrc, edst, ew, owners = g.out, g.inc, g.esrc, g.edst, g.eweight, g.owners
    mark = -1 if plus else 1
    domain = set(sources)
    stack = list(domain)
    while stack:
        d = stack.pop()
        pd = phi[d]
        for e in inc[d]:
            u = esrc[e]
            if ew[e] + pd == phi[u] and sides[u] == mark and u not in domain:
                domain.add(u)
                stack.append(u)
    chooser = Player.MIN if plus else Player.MAX
    supp = {}
    safe_edge = set()
    removal = deque()
    pending = set()
    for v in domain:
        options = 0
        bad = False
        pv = phi[v]
        for e in out[v]:
            d = edst[e]
            w = ew[e]
            if in_f[d]:
                expr = w + val[d] - pv
                if (expr <= m) if plus else (expr >= m):
                    options += 1
                else:
                    bad = True
            elif d in domain:
                mod = w + phi[d] - pv
                if (mod <= 0) if plus else (mod >= 0):
                    safe_edge.add(e)
                    options += 1
                else:
                    bad = True
            else:
                bad = True
        if owners[v] is chooser:
            supp[v] = options
            if options == 0:
                pending.add(v)
                removal.append(v)
        elif bad:
            pending.add(v)
            removal.append(v)
    while removal:
        u = removal.popleft()
        for e in inc[u]:
            if e not in safe_edge:
                continue
            v = esrc[e]
            if v in pending:
                continue
            if owners[v] is chooser:
                supp[v] -= 1
                if supp[v] == 0:
                    pending.add(v)
                    removal.append(v)
            else:
                pending.add(v)
                removal.append(v)
    return sorted(domain - pending)
