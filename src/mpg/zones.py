"""Zone partition of a game and the reduced-game test.

Vertices are classified by the weight sign of their immediately optimal edge
(N negative, Z zero, P positive) and by which player wins the race to show an
edge of their sign first (ZN for Min, ZP for Max).  Both computations assume
the game has no zero-weight cycles; the caller is responsible for that.

The zones of a game (or of a view of one) are kept per position, as two
lists: ``cls`` holds -1, 0 or 1 for N, Z or P, and ``zn`` is True on ZN.
``compute_zones`` also decides, in the same pass, whether the game is
reduced.  The five zone sets are derived from the lists only when read.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .game import Game, NotASubgameError, Player


class Zones(NamedTuple):
    """The zones of one game by position, and whether the game is reduced.

    N, Z, P partition V, as do ZN and ZP, with N contained in ZN and P in
    ZP; each set is built from the lists on access.
    """

    cls: list
    zn: list
    reduced: bool

    N = property(lambda self: _where(self.cls, -1))
    Z = property(lambda self: _where(self.cls, 0))
    P = property(lambda self: _where(self.cls, 1))
    ZN = property(lambda self: _where(self.zn, True))
    ZP = property(lambda self: _where(self.zn, False))


def _where(xs: list, value) -> frozenset:
    return frozenset(i for i, x in enumerate(xs) if x == value)


def compute_zones(
    g: Game, verts: Sequence[int] | None = None, shift: Sequence[int] | None = None
) -> Zones:
    """Classify every vertex and test reducedness; runs in O(n + m).

    ZN is the least set containing N and closed under: a Min vertex with a
    zero-weight edge into ZN joins, and a Max vertex in Z joins once every one
    of its zero-weight edges leads into ZN.  ZP is the complement.

    The reduced flag equals ``is_reduced`` but checks only the vertices whose
    rule the construction leaves open, and stops at the first failure:

    * a Min vertex in ZN but not in N joined through a zero edge into ZN,
      which is the edge the rule asks for, so it passes;
    * a Max vertex in Z and in ZP did not join, so one of its zero edges
      leads into ZP, which is the edge the rule asks for, so it passes;
    * a Max vertex in ZN is in N or Z, so its edges all weigh <= 0, and a
      Min vertex in ZP is in Z or P, so its edges all weigh >= 0: only the
      side of each successor is checked;
    * a Min vertex in N and a Max vertex in P each need one edge on their
      side of zero into their own side, which is searched for.

    Every vertex falls under one case: a Min vertex in ZN is in N or joined
    (P vertices never join), and a Max vertex in ZP is in P or Z (N lies
    inside ZN).

    With ``verts`` (ascending) the zones are those of ``restrict(g, verts,
    shift)``, computed on ``g`` without building it: position i of the
    result is vertex ``verts[i]``, and each edge (v, v') between kept
    vertices weighs w + shift[v'] - shift[v].  Raises ``NotASubgameError`` if
    a kept vertex has no edge to another kept vertex.
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
    cls = [0] * k
    # Zero-edge escape counters for Max vertices whose best weight is zero.
    esc = [0] * k
    mx = Player.MAX
    is_max = [owners[v] is mx for v in verts]
    for i, v in enumerate(verts):
        # Each kept edge's shifted weight plus sv: it weighs zero iff it equals sv.
        sv = sh[v]
        if shift is not None:
            ws = [ew[e] + sh[d] for e in out[v] if pos[d := edst[e]] >= 0]
        elif whole:
            ws = [ew[e] for e in out[v]]
        else:
            ws = [ew[e] for e in out[v] if pos[edst[e]] >= 0]
        if not ws:
            raise NotASubgameError(
                f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
            )
        best = max(ws) if is_max[i] else min(ws)
        if best < sv:
            cls[i] = -1
        elif best > sv:
            cls[i] = 1
        elif is_max[i]:
            esc[i] = ws.count(sv)
    # A position is marked in ``zn`` when it is pushed; the least fixpoint
    # does not depend on the order of the pops.
    zn = [c < 0 for c in cls]
    stack = [i for i in range(k) if zn[i]]
    while stack:
        i = stack.pop()
        v = verts[i]
        sv = sh[v]
        for e in inc[v]:
            u = esrc[e]
            j = pos[u]
            if j < 0 or zn[j] or cls[j] > 0 or ew[e] + sv != sh[u]:
                continue
            if is_max[j]:
                esc[j] -= 1
                if esc[j]:
                    continue
            zn[j] = True
            stack.append(j)
    # side[v]: 1 for a kept vertex in ZN, -1 for one in ZP, 0 outside the view.
    if whole:
        side = [1 if z else -1 for z in zn]
    else:
        side = [0] * n
        for v, z in zip(verts, zn):
            side[v] = 1 if z else -1
    reduced = True
    for i, v in enumerate(verts):
        s = side[v]
        if is_max[i] is (s > 0):
            # Max in ZN or Min in ZP: no successor may be on the other side.
            if -s in [side[edst[e]] for e in out[v]]:
                reduced = False
                break
        elif cls[i] == -s:
            # Min in N or Max in P: one edge on its side of zero into its side.
            sv = sh[v]
            for e in out[v]:
                d = edst[e]
                if side[d] == s and s * (sv - ew[e] - sh[d]) >= 0:
                    break
            else:
                reduced = False
                break
    return Zones(cls, zn, reduced)


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

    This is the reference for ``z.reduced``, which ``compute_zones`` decides
    from fewer vertices.  ``verts`` and ``shift`` select a view as in
    ``compute_zones``, whose result ``z`` must then be.
    """
    if verts is None:
        verts = range(g.n)
    side = [0] * g.n
    for v, won in zip(verts, z.zn):
        side[v] = 1 if won else -1
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
