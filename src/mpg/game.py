"""Immutable mean-payoff game graphs: parsing, serialization, reweighting.

A game is a sinkless directed graph with 64-bit integer edge weights whose
vertices are owned by one of two players, MIN and MAX.  Vertices are dense
indices ``0..n-1``; the ids used in input files are kept in ``orig_ids`` so
results can be reported in the caller's naming.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Largest magnitude allowed for the reweighted bound (n+1)*W + 1 produced by
#: zero-cycle removal; keeps headroom below the 64-bit range for later sums.
PREPROCESS_GUARD = 2**62 - 1


class GameError(Exception):
    """Malformed game data or an operation that would corrupt a game."""


class ParseError(GameError):
    """Input text violates the game or potential file format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotASubgameError(GameError):
    """A vertex restriction would leave some kept vertex without outgoing edges."""


class OverflowGuardError(GameError):
    """Requested transformation would exceed the guaranteed weight range."""


class Player(enum.Enum):
    MIN = "MIN"
    MAX = "MAX"

    @property
    def opponent(self) -> Player:
        return Player.MAX if self is Player.MIN else Player.MIN


class ThresholdMode(enum.Enum):
    """Which side mean-zero cycles are pushed to by zero-cycle removal.

    WEAK sends value-0 vertices to the Min side (threshold "value <= 0"),
    STRICT sends them to the Max side (threshold "value < 0").
    """

    WEAK = "weak"
    STRICT = "strict"


class Edge(NamedTuple):
    src: int
    dst: int
    weight: int


#: A potential labels vertices with integers; missing vertices count as 0.
Potential = dict

class Game:
    """Sinkless weighted game graph with MIN/MAX vertex ownership.

    Instances are immutable after construction and safe to share between
    concurrent readers.  ``esrc``/``edst``/``eweight`` hold the edge list as
    parallel tuples indexed by edge id; ``out``/``inc`` give per-vertex edge-id
    adjacency.  ``W`` is the maximum absolute weight, computed from the
    weights on first use.
    """

    def __init__(
        self,
        owners: Iterable[Player],
        edges: Iterable[tuple[int, int, int]],
        orig_ids: Sequence[int] | None = None,
    ):
        owners = tuple(owners)
        n = len(owners)
        for o in owners:
            if not isinstance(o, Player):
                raise GameError(f"owner must be a Player, got {o!r}")
        esrc: list[int] = []
        edst: list[int] = []
        ew: list[int] = []
        for src, dst, w in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise GameError(f"edge endpoint out of range: ({src}, {dst})")
            esrc.append(src)
            edst.append(dst)
            ew.append(w)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for e in range(len(esrc)):
            out[esrc[e]].append(e)
            inc[edst[e]].append(e)
        for v in range(n):
            if not out[v]:
                raise GameError(f"sink vertex {v}")
        if orig_ids is None:
            orig_ids = tuple(range(n))
        else:
            orig_ids = tuple(orig_ids)
            if len(orig_ids) != n:
                raise GameError("orig_ids length does not match vertex count")
            if len(set(orig_ids)) != n:
                raise GameError("orig_ids must be unique")
        self.n = n
        self.m = len(esrc)
        self.owners = owners
        self.orig_ids = orig_ids
        self.esrc = tuple(esrc)
        self.edst = tuple(edst)
        self.eweight = tuple(ew)
        self.out = tuple(tuple(x) for x in out)
        self.inc = tuple(tuple(x) for x in inc)

    @classmethod
    def _raw(cls, owners, esrc, edst, eweight, out, inc, orig_ids) -> Game:
        """Trusted constructor sharing adjacency with an existing game."""
        g = cls.__new__(cls)
        g.n = len(owners)
        g.m = len(esrc)
        g.owners = owners
        g.orig_ids = orig_ids
        g.esrc = esrc
        g.edst = edst
        g.eweight = eweight
        g.out = out
        g.inc = inc
        return g

    @cached_property
    def W(self) -> int:
        return max(map(abs, self.eweight), default=0)

    def with_weights(self, weights: Sequence[int]) -> Game:
        """Same structure with a new weight per edge id."""
        if len(weights) != self.m:
            raise GameError("weight sequence length does not match edge count")
        return Game._raw(
            self.owners, self.esrc, self.edst, tuple(weights),
            self.out, self.inc, self.orig_ids,
        )

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            Edge(self.esrc[e], self.edst[e], self.eweight[e]) for e in range(self.m)
        )

    @cached_property
    def index_of_original(self) -> dict[int, int]:
        return {orig: i for i, orig in enumerate(self.orig_ids)}

    @cached_property
    def _canonical(self):
        # Identity in original-id space: dense numbering order is irrelevant.
        verts = tuple(sorted((self.orig_ids[v], self.owners[v].value) for v in range(self.n)))
        edges = tuple(sorted(
            (self.orig_ids[self.esrc[e]], self.orig_ids[self.edst[e]], self.eweight[e])
            for e in range(self.m)
        ))
        return (verts, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:
        return f"Game(n={self.n}, m={self.m}, W={self.W})"


def _parse_uint(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None
    if value < 0 or token.startswith("+"):
        raise ParseError(f"{what} must be a non-negative integer: {token!r}", lineno)
    return value


def _parse_int64(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None
    if not (INT64_MIN <= value <= INT64_MAX):
        raise ParseError(f"{what} out of 64-bit signed range: {token}", lineno)
    return value


def parse_game(data: bytes | str) -> Game:
    """Parse the line-based game format.

    Format: a ``mpg 1`` header line, then ``vertex <id> <MIN|MAX>`` lines, then
    ``edge <src> <dst> <weight>`` lines.  ``#`` starts a comment line; blank
    lines are ignored.  Vertex ids need not be dense; they are reindexed to
    ``0..n-1`` in declaration order and the original ids retained.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    owners: list[Player] = []
    orig_ids: list[int] = []
    index_of: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    saw_header = False
    saw_edge = False
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not saw_header:
            if fields != ["mpg", "1"]:
                raise ParseError("expected header 'mpg 1'", lineno)
            saw_header = True
            continue
        if fields[0] == "vertex":
            if saw_edge:
                raise ParseError("vertex declaration after edges", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'vertex <id> <MIN|MAX>'", lineno)
            vid = _parse_uint(fields[1], lineno, "vertex id")
            if vid in index_of:
                raise ParseError(f"duplicate vertex {vid}", lineno)
            try:
                owner = Player[fields[2]]
            except KeyError:
                raise ParseError(f"unknown owner {fields[2]!r}", lineno) from None
            index_of[vid] = len(owners)
            owners.append(owner)
            orig_ids.append(vid)
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ParseError("expected 'edge <src> <dst> <weight>'", lineno)
            src = _parse_uint(fields[1], lineno, "edge source")
            dst = _parse_uint(fields[2], lineno, "edge target")
            weight = _parse_int64(fields[3], lineno, "edge weight")
            if src not in index_of:
                raise ParseError(f"dangling edge endpoint {src}", lineno)
            if dst not in index_of:
                raise ParseError(f"dangling edge endpoint {dst}", lineno)
            saw_edge = True
            edges.append((index_of[src], index_of[dst], weight))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if not saw_header:
        raise ParseError("expected header 'mpg 1'", max(last_line, 1))
    out_degree = [0] * len(owners)
    for src, _, _ in edges:
        out_degree[src] += 1
    for i, deg in enumerate(out_degree):
        if deg == 0:
            raise ParseError(f"sink vertex {orig_ids[i]}")
    return Game(owners, edges, orig_ids=orig_ids)


def serialize_game(g: Game) -> bytes:
    """Canonical text form: vertices ascending, edges sorted by (src, dst, weight)."""
    lines = ["mpg 1"]
    for v in sorted(range(g.n), key=lambda i: g.orig_ids[i]):
        lines.append(f"vertex {g.orig_ids[v]} {g.owners[v].value}")
    rows = sorted(
        (g.orig_ids[g.esrc[e]], g.orig_ids[g.edst[e]], g.eweight[e]) for e in range(g.m)
    )
    for src, dst, w in rows:
        lines.append(f"edge {src} {dst} {w}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def preprocess_no_zero_cycles(g: Game, mode: ThresholdMode) -> Game:
    """Reweight so every cycle has nonzero total, preserving nonzero cycle signs.

    Each weight w becomes (n+1)*w - 1 in WEAK mode (mean-zero cycles turn
    negative) or (n+1)*w + 1 in STRICT mode (they turn positive).  The
    multiplier must exceed every cycle length, hence n+1.
    """
    bound = (g.n + 1) * g.W + 1
    if bound > PREPROCESS_GUARD:
        raise OverflowGuardError(
            f"(n+1)*W+1 = {bound} exceeds the 62-bit weight guard"
        )
    mult = g.n + 1
    shift = 1 if mode is ThresholdMode.STRICT else -1
    return g.with_weights([w * mult + shift for w in g.eweight])


def apply_potential(g: Game, phi: Mapping[int, int]) -> Game:
    """Reweight each edge (v, v') to w + phi(v') - phi(v); structure unchanged.

    Cycle totals are preserved.  Vertices missing from ``phi`` count as 0.
    """
    get = phi.get
    esrc, edst, ew = g.esrc, g.edst, g.eweight
    return g.with_weights(
        [ew[e] + get(edst[e], 0) - get(esrc[e], 0) for e in range(g.m)]
    )


def dual_game(g: Game) -> Game:
    """Swap ownership and negate weights; an involution exchanging the players."""
    owners = tuple(o.opponent for o in g.owners)
    weights = tuple(-w for w in g.eweight)
    return Game._raw(owners, g.esrc, g.edst, weights, g.out, g.inc, g.orig_ids)


def restrict(g: Game, keep: Iterable[int], shift: Sequence[int] | None = None) -> Game:
    """Induced subgraph on ``keep`` (ascending order), which must be a subgame.

    With ``shift``, a potential indexed by ``g``'s vertices, each kept edge
    (v, v') weighs w + shift[v'] - shift[v], as after ``apply_potential``.
    Edge ids follow the kept vertices' out-lists in order.
    """
    kept = sorted(set(keep))
    n = g.n
    pos = [-1] * n
    for i, v in enumerate(kept):
        if not (0 <= v < n):
            raise GameError(f"vertex {v} out of range")
        pos[v] = i
    g_out, edst, ew = g.out, g.edst, g.eweight
    esrc: list[int] = []
    sdst: list[int] = []
    sw: list[int] = []
    out: list[tuple[int, ...]] = []
    inc: list[list[int]] = [[] for _ in kept]
    m = 0
    for i, v in enumerate(kept):
        first = m
        sv = 0 if shift is None else shift[v]
        for e in g_out[v]:
            d = edst[e]
            j = pos[d]
            if j >= 0:
                inc[j].append(m)
                sdst.append(j)
                sw.append(ew[e] if shift is None else ew[e] + shift[d] - sv)
                m += 1
        if m == first:
            raise NotASubgameError(
                f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
            )
        esrc += [i] * (m - first)
        out.append(tuple(range(first, m)))
    return Game._raw(
        tuple(g.owners[v] for v in kept), tuple(esrc), tuple(sdst), tuple(sw),
        tuple(out), tuple(map(tuple, inc)), tuple(g.orig_ids[v] for v in kept),
    )


def is_trap(g: Game, s: Iterable[int], player: Player) -> bool:
    """True iff ``player`` cannot leave ``s``: every edge leaving ``s`` starts
    at an opponent vertex.  ``s`` must induce a subgame."""
    ss = set(s)
    if not ss:
        raise GameError("trap test requires a non-empty vertex set")
    for v in ss:
        if not any(g.edst[e] in ss for e in g.out[v]):
            raise NotASubgameError(
                f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
            )
    for v in ss:
        if g.owners[v] is player:
            for e in g.out[v]:
                if g.edst[e] not in ss:
                    return False
    return True


@dataclass(frozen=True)
class ClosedWalk:
    """A cyclic sequence of edge ids: consecutive edges chain and the walk closes."""

    edge_ids: tuple[int, ...]

    def validate(self, g: Game) -> None:
        ids = self.edge_ids
        if not ids:
            raise GameError("closed walk must contain at least one edge")
        for e in ids:
            if not (0 <= e < g.m):
                raise GameError(f"edge id {e} out of range")
        for a, b in zip(ids, ids[1:]):
            if g.edst[a] != g.esrc[b]:
                raise GameError("walk edges do not chain")
        if g.edst[ids[-1]] != g.esrc[ids[0]]:
            raise GameError("walk does not close")


def cycle_weight(g: Game, walk: ClosedWalk) -> int:
    """Total weight along a closed walk; invariant under apply_potential."""
    walk.validate(g)
    return sum(g.eweight[e] for e in walk.edge_ids)


def parse_potential(data: bytes | str, g: Game) -> Potential:
    """Parse ``<vertex-id> <int64>`` lines into a potential keyed by dense index."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    phi: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected '<vertex-id> <value>'", lineno)
        vid = _parse_uint(fields[0], lineno, "vertex id")
        value = _parse_int64(fields[1], lineno, "potential value")
        idx = g.index_of_original.get(vid)
        if idx is None:
            raise ParseError(f"unknown vertex {vid}", lineno)
        if idx in phi:
            raise ParseError(f"duplicate vertex {vid}", lineno)
        phi[idx] = value
    return phi


def serialize_potential(g: Game, phi: Mapping[int, int]) -> bytes:
    """Emit one ``<vertex-id> <value>`` line per vertex, ascending by original id."""
    lines = []
    for v in sorted(range(g.n), key=lambda i: g.orig_ids[i]):
        lines.append(f"{g.orig_ids[v]} {phi.get(v, 0)}")
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
