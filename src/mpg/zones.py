"""Zone partition of a game and the reduced-game test.

Vertices are classified by the weight sign of their immediately optimal edge
(N negative, Z zero, P positive) and by which player wins the race to show an
edge of their sign first (ZN for Min, ZP for Max).  Both computations assume
the game has no zero-weight cycles; the caller is responsible for that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .game import Game, NotASubgameError, Player


@dataclass(frozen=True)
class Zones:
    """The five zones of one game.  N, Z, P partition V, as do ZN and ZP,
    with N contained in ZN and P in ZP."""

    N: frozenset
    Z: frozenset
    P: frozenset
    ZN: frozenset
    ZP: frozenset


def compute_zones(
    g: Game, verts: Sequence[int] | None = None, shift: Sequence[int] | None = None
) -> Zones:
    """Classify every vertex; runs in O(n + m).

    ZN is the least set containing N and closed under: a Min vertex with a
    zero-weight edge into ZN joins, and a Max vertex in Z joins once every one
    of its zero-weight edges leads into ZN.  ZP is the complement.

    With ``verts`` (ascending) the zones are those of ``restrict(g, verts,
    shift)``, computed on ``g`` without building it: vertex i of the result
    is ``verts[i]``, and each edge (v, v') between kept vertices weighs
    w + shift[v'] - shift[v].  Raises ``NotASubgameError`` if a kept vertex
    has no edge to another kept vertex.
    """
    n = g.n
    whole = verts is None
    if whole:
        verts, pos = range(n), list(range(n))
    else:
        pos = [-1] * n
        for i, v in enumerate(verts):
            pos[v] = i
    sh = [0] * n if shift is None else shift
    k = len(verts)
    owners, out, inc, ew, edst, esrc = g.owners, g.out, g.inc, g.eweight, g.edst, g.esrc
    in_n = [False] * k
    in_p = [False] * k
    # Zero-edge escape counters for Max vertices whose best weight is zero.
    esc = [0] * k
    is_max = [owners[v] is Player.MAX for v in verts]
    for i, v in enumerate(verts):
        # Each kept edge's shifted weight plus sv: it weighs zero iff it equals sv.
        sv = sh[v]
        if whole and shift is None:
            ws = [ew[e] for e in out[v]]
        else:
            ws = [ew[e] + sh[d] for e in out[v] if pos[d := edst[e]] >= 0]
        if not ws:
            raise NotASubgameError(
                f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
            )
        best = max(ws) if is_max[i] else min(ws)
        if best < sv:
            in_n[i] = True
        elif best > sv:
            in_p[i] = True
        elif is_max[i]:
            esc[i] = ws.count(sv)
    in_zn = [False] * k
    pending = list(in_n)
    queue = deque(i for i in range(k) if in_n[i])
    while queue:
        i = queue.popleft()
        in_zn[i] = True
        v = verts[i]
        sv = sh[v]
        for e in inc[v]:
            u = esrc[e]
            j = pos[u]
            if j < 0 or pending[j] or in_p[j] or ew[e] + sv != sh[u]:
                continue
            if is_max[j]:
                esc[j] -= 1
                if esc[j] == 0:
                    pending[j] = True
                    queue.append(j)
            else:
                pending[j] = True
                queue.append(j)
    rng = range(k)
    return Zones(
        N=frozenset(i for i in rng if in_n[i]),
        Z=frozenset(i for i in rng if not in_n[i] and not in_p[i]),
        P=frozenset(i for i in rng if in_p[i]),
        ZN=frozenset(i for i in rng if in_zn[i]),
        ZP=frozenset(i for i in rng if not in_zn[i]),
    )


def is_reduced(
    g: Game, z: Zones, verts: Sequence[int] | None = None, shift: Sequence[int] | None = None
) -> bool:
    """True iff every vertex is reduced, checked against its own zone.

    A ZN vertex is reduced when Min can force the first edge to be <= 0 and
    into ZN: a Min vertex needs one such edge, a Max vertex needs all of its
    edges to qualify.  ZP vertices are handled dually (>= 0 into ZP).  In a
    reduced game ZN and ZP are exactly the winning regions.

    Every vertex is inspected, including Z vertices: a Max vertex in Z and ZN
    may still own a negative edge escaping into ZP (dually a Min vertex in Z
    and ZP may own a positive edge into ZN), in which case its zone does not
    pin its winner and the game is not reduced.

    ``verts`` and ``shift`` select a view as in ``compute_zones``, whose
    result ``z`` must then be.
    """
    if verts is None:
        verts = range(g.n)
    zn = z.ZN
    # side[v]: 1 for a kept vertex in ZN, -1 for one in ZP, 0 outside the view.
    side = [0] * g.n
    for i, v in enumerate(verts):
        side[v] = 1 if i in zn else -1
    return reduced_at(g, side, verts, shift)


def reduced_at(
    g: Game, side: Sequence[int], verts: Iterable[int], shift: Sequence[int] | None = None
) -> bool:
    """True iff each vertex of ``verts`` is reduced under the side assignment.

    ``side[v]`` is 1 for a vertex of the view on the ZN side, -1 for one on
    the ZP side and 0 for a vertex outside the view; edges into the latter do
    not count.  The rule is ``is_reduced``'s, for one vertex at a time, and a
    vertex with no edge inside the view is never reduced.
    """
    sh = [0] * g.n if shift is None else shift
    out, ew, edst, owners = g.out, g.eweight, g.edst, g.owners
    is_min = Player.MIN
    for v in verts:
        # Per edge inside the view: does it stay in v's zone, on its side of zero?
        sv = sh[v]
        if side[v] > 0:
            good = [side[d] > 0 and ew[e] + sh[d] <= sv for e in out[v] if side[d := edst[e]]]
            ok = any(good) if owners[v] is is_min else all(good)
        else:
            good = [side[d] < 0 and ew[e] + sh[d] >= sv for e in out[v] if side[d := edst[e]]]
            ok = all(good) if owners[v] is is_min else any(good)
        if not ok or not good:
            return False
    return True
