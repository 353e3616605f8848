"""Zone partition of a game and the reduced-game test.

Vertices are classified by the weight sign of their immediately optimal edge
(N negative, Z zero, P positive) and by which player wins the race to show an
edge of their sign first (ZN for Min, ZP for Max).  Both computations assume
the game has no zero-weight cycles; the caller is responsible for that.

The zones of a game, or of a view of one, are kept as two lists indexed by
the game's vertices: ``cls`` holds -1, 0 or 1 for N, Z or P, and ``side``
holds 1 on ZN, -1 on ZP and 0 outside the view.  ``side`` is the format
``reduced_at`` tests, so a side assignment carried over from elsewhere is
checked the same way.  ``compute_zones`` also decides, in the same pass,
whether the view is reduced.  The five zone sets are derived from the lists
only when read.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .game import Game, NotASubgameError, Player


class Zones(NamedTuple):
    """The zones of one view by vertex, and whether the view is reduced.

    N, Z, P partition the view's vertices, as do ZN and ZP, with N contained
    in ZN and P in ZP; each set is built from the lists on access.
    """

    cls: list
    side: list
    reduced: bool

    N = property(lambda self: _where(self.cls, -1))
    Z = property(lambda self: (self.ZN | self.ZP) - self.N - self.P)
    P = property(lambda self: _where(self.cls, 1))
    ZN = property(lambda self: _where(self.side, 1))
    ZP = property(lambda self: _where(self.side, -1))


def _where(xs: list, value) -> frozenset:
    return frozenset(v for v, x in enumerate(xs) if x == value)


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
    shift)``, computed on ``g`` without building it: vertex ``verts[i]``
    stands for the subgame's vertex i, ``side`` is 0 on every other vertex,
    and each edge (v, v') between kept vertices weighs w + shift[v'] -
    shift[v].  Raises ``NotASubgameError`` if a kept vertex has no edge to
    another kept vertex.
    """
    n = g.n
    # ``side`` first marks the view with -1; ZN is then marked 1.
    if verts is None:
        verts = range(n)
        side = [-1] * n
    else:
        side = [0] * n
        for v in verts:
            side[v] = -1
    sh = [0] * n if shift is None else shift
    owners, out, inc, ew, edst, esrc = g.owners, g.out, g.inc, g.eweight, g.edst, g.esrc
    cls = [0] * n
    # Zero-edge counters of the Z vertices; the closure reads only Max ones.
    esc = [0] * n
    mx = Player.MAX
    for v in verts:
        # The class is the sign of the best kept edge's shifted weight, read
        # negated for Min (``sg``): an edge above zero settles it at once.
        sv = sh[v]
        sg = 1 if owners[v] is mx else -1
        inside = False
        zeros = 0
        for e in out[v]:
            d = edst[e]
            if side[d]:
                x = ew[e] + sh[d] - sv
                if x * sg > 0:
                    break
                inside = True
                if not x:
                    zeros += 1
        else:
            if not inside:
                raise NotASubgameError(
                    f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
                )
            if zeros:
                esc[v] = zeros
                continue
            sg = -sg
        cls[v] = sg
        if sg < 0:
            side[v] = 1
    # A vertex is marked in ``side`` when it is pushed; the least fixpoint
    # does not depend on the order of the pops.
    stack = [v for v in verts if side[v] > 0]
    while stack:
        v = stack.pop()
        sv = sh[v]
        for e in inc[v]:
            u = esrc[e]
            if side[u] >= 0 or cls[u] > 0 or ew[e] + sv != sh[u]:
                continue
            if owners[u] is mx:
                esc[u] -= 1
                if esc[u]:
                    continue
            side[u] = 1
            stack.append(u)
    reduced = True
    for v in verts:
        s = side[v]
        if (owners[v] is mx) is (s > 0):
            # Max in ZN or Min in ZP: no successor may be on the other side.
            for e in out[v]:
                if side[edst[e]] == -s:
                    reduced = False
                    break
        elif cls[v] == -s:
            # Min in N or Max in P: one edge on its side of zero into its side.
            sv = sh[v]
            for e in out[v]:
                d = edst[e]
                if side[d] == s and s * (sv - ew[e] - sh[d]) >= 0:
                    break
            else:
                reduced = False
        if not reduced:
            break
    return Zones(cls, side, reduced)


def is_reduced(g: Game, z: Zones, shift: Sequence[int] | None = None) -> bool:
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
    from fewer vertices.  ``z.side`` gives the view, and ``shift`` must be
    the one ``z`` was computed with.
    """
    return reduced_at(g, z.side, [v for v, s in enumerate(z.side) if s], shift)


def reduced_at(
    g: Game, side: Sequence[int], verts: Iterable[int], shift: Sequence[int] | None = None
) -> bool:
    """True iff each vertex of ``verts`` is reduced under the side assignment.

    ``side[v]`` is 1 for a vertex of the view on the ZN side, -1 for one on
    the ZP side and 0 for a vertex outside the view, as in ``Zones``; edges
    into the latter do not count.  The rule is ``is_reduced``'s, for one
    vertex at a time, and a vertex with no edge inside the view is never
    reduced.
    """
    sh = [0] * g.n if shift is None else shift
    out, ew, edst, owners = g.out, g.eweight, g.edst, g.owners
    is_min = Player.MIN
    for v in verts:
        # A good edge stays in v's zone on its side of zero.  The side's own
        # player needs one; the other needs all edges inside the view good.
        sv = sh[v]
        s = 1 if side[v] > 0 else -1
        one = (owners[v] is is_min) is (s > 0)
        inside = good = False
        for e in out[v]:
            d = edst[e]
            t = side[d]
            if t:
                inside = True
                if t == s and s * (sv - ew[e] - sh[d]) >= 0:
                    good = True
                    if one:
                        break
                elif not one:
                    return False
        if not (good if one else inside):
            return False
    return True
