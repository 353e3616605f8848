"""Immutable mean-payoff game graphs: parsing, serialization, reweighting.

A game is a sinkless directed graph with 64-bit integer edge weights whose
vertices are owned by one of two players, MIN and MAX.  Vertices are dense
indices ``0..n-1``; the ids used in input files are kept in ``orig_ids`` so
results can be reported in the caller's naming.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Sequence

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


class ThresholdMode(enum.Enum):
    """Which side mean-zero cycles are pushed to by zero-cycle removal.

    WEAK sends value-0 vertices to the Min side (threshold "value <= 0"),
    STRICT sends them to the Max side (threshold "value < 0").
    """

    WEAK = "weak"
    STRICT = "strict"


class Game:
    """Sinkless weighted game graph with MIN/MAX vertex ownership.

    ``esrc``/``edst``/``eweight`` hold the edge list as tuples indexed by edge
    id.  ``out``/``inc`` list each vertex's edge ids, ascending: ``out``
    entries are lists in a built or parsed game and ranges in a ``restrict``
    subgame.  Games made from one another share these lists, so no reader
    may change them.  ``W``, the maximum absolute weight, is computed on use.
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
            # ``type(x) is int`` also turns away bools, which the file format cannot hold.
            if not (type(src) is type(dst) is int and 0 <= src < n and 0 <= dst < n):
                raise GameError(f"edge endpoint out of range: ({src!r}, {dst!r})")
            if not (type(w) is int and INT64_MIN <= w <= INT64_MAX):
                raise GameError(f"edge weight is not a 64-bit signed integer: {w!r}")
            esrc.append(src)
            edst.append(dst)
            ew.append(w)
        out, inc = _adjacency(n, esrc, edst)
        for v in range(n):
            if not out[v]:
                raise GameError(f"sink vertex {v}")
        if orig_ids is None:
            orig_ids = tuple(range(n))
        else:
            orig_ids = tuple(orig_ids)
            if len(orig_ids) != n:
                raise GameError("orig_ids length does not match vertex count")
            for x in orig_ids:
                if not (type(x) is int and x >= 0):
                    raise GameError(f"vertex id must be a non-negative integer: {x!r}")
            if len(set(orig_ids)) != n:
                raise GameError("orig_ids must be unique")
        self._assign(owners, tuple(esrc), tuple(edst), tuple(ew), out, inc, orig_ids)

    @classmethod
    def _raw(cls, owners, esrc, edst, eweight, out, inc, orig_ids) -> Game:
        """Trusted constructor from finished arrays in the class's layout, unchecked."""
        g = cls.__new__(cls)
        g._assign(owners, esrc, edst, eweight, out, inc, orig_ids)
        return g

    def _assign(self, owners, esrc, edst, eweight, out, inc, orig_ids) -> None:
        """Set every field; the one place both constructors do so."""
        self.n = len(owners)
        self.m = len(esrc)
        self.owners = owners
        self.orig_ids = orig_ids
        self.esrc = esrc
        self.edst = edst
        self.eweight = eweight
        self.out = out
        self.inc = inc

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

    def __repr__(self) -> str:
        return f"Game(n={self.n}, m={self.m}, W={self.W})"


def _adjacency(n: int, esrc: Sequence[int], edst: Sequence[int]) -> tuple[list, list]:
    """Per-vertex ``out`` and ``inc`` edge-id lists, ascending, sharing each id object."""
    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for e, v in enumerate(esrc):
        out[v].append(e)
        inc[edst[e]].append(e)
    return out, inc


def _parse_int(token: str, lineno: int, what: str) -> int:
    # An optional sign and ASCII digits; int() alone also reads 1_0 and non-ASCII digits.
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(f"{what} is not an integer: {token!r}", lineno)


def _parse_uint(token: str, lineno: int, what: str) -> int:
    value = _parse_int(token, lineno, what)
    # Ids take no sign, so "-0" is as malformed as "+7".
    if token.startswith(("+", "-")):
        raise ParseError(f"{what} must be a non-negative integer: {token!r}", lineno)
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
    # Dense index by an id's canonical token, which an edge line may use as is.
    index_of: dict[str, int] = {}
    esrc: list[int] = []
    edst: list[int] = []
    ew: list[int] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "edge" and saw_header:
            if len(fields) != 4:
                raise ParseError("expected 'edge <src> <dst> <weight>'", lineno)
            # Declared ids and an ASCII weight without "_", which int() reads
            # only as a sign and digits, are taken inline; any other line is
            # read token by token, which raises the error of its first bad one.
            _, s, d, w = fields
            v, u = index_of.get(s), index_of.get(d)
            try:
                weight = int(w) if w.isascii() and "_" not in w else None
            except ValueError:
                weight = None
            if v is None or u is None or weight is None or not INT64_MIN <= weight <= INT64_MAX:
                src = _parse_uint(s, lineno, "edge source")
                dst = _parse_uint(d, lineno, "edge target")
                weight = _parse_int(w, lineno, "edge weight")
                if not INT64_MIN <= weight <= INT64_MAX:
                    raise ParseError(f"edge weight out of 64-bit signed range: {w}", lineno)
                v, u = index_of.get(str(src)), index_of.get(str(dst))
                for x, i in ((src, v), (dst, u)):
                    if i is None:
                        raise ParseError(f"dangling edge endpoint {x}", lineno)
            esrc.append(v)
            edst.append(u)
            ew.append(weight)
        elif head.startswith("#"):
            continue
        elif not saw_header:
            if fields != ["mpg", "1"]:
                raise ParseError("expected header 'mpg 1'", lineno)
            saw_header = True
        elif head == "vertex":
            if esrc:
                raise ParseError("vertex declaration after edges", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'vertex <id> <MIN|MAX>'", lineno)
            vid = _parse_uint(fields[1], lineno, "vertex id")
            if str(vid) in index_of:
                raise ParseError(f"duplicate vertex {vid}", lineno)
            try:
                owner = Player[fields[2]]
            except KeyError:
                raise ParseError(f"unknown owner {fields[2]!r}", lineno) from None
            index_of[str(vid)] = len(owners)
            owners.append(owner)
            orig_ids.append(vid)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if not saw_header:
        raise ParseError("expected header 'mpg 1'", max(len(text.splitlines()), 1))
    out, inc = _adjacency(len(owners), esrc, edst)
    for v, edges in enumerate(out):
        if not edges:
            raise ParseError(f"sink vertex {orig_ids[v]}")
    return Game._raw(
        tuple(owners), tuple(esrc), tuple(edst), tuple(ew), out, inc, tuple(orig_ids)
    )


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


def _zero_cycle_scale(g: Game, mode: ThresholdMode) -> tuple:
    """``(n+1, -1)`` in WEAK mode, ``(n+1, 1)`` in STRICT; raises past the guard."""
    bound = (g.n + 1) * g.W + 1
    if bound > PREPROCESS_GUARD:
        raise OverflowGuardError(f"(n+1)*W+1 = {bound} exceeds the 62-bit weight guard")
    return g.n + 1, 1 if mode is ThresholdMode.STRICT else -1


def preprocess_no_zero_cycles(g: Game, mode: ThresholdMode) -> Game:
    """Reweight so every cycle has nonzero total, preserving nonzero cycle signs.

    Each weight w becomes (n+1)*w - 1 in WEAK mode (mean-zero cycles turn
    negative) or (n+1)*w + 1 in STRICT mode (they turn positive).  The
    multiplier must exceed every cycle length, hence n+1.
    """
    mult, unit = _zero_cycle_scale(g, mode)
    return g.with_weights([w * mult + unit for w in g.eweight])


def apply_potential(g: Game, phi: Sequence[int], mode: ThresholdMode | None = None) -> Game:
    """Reweight each edge (v, v') to w + phi[v'] - phi[v]; structure unchanged.

    ``phi`` holds one potential per vertex.  Cycle totals are preserved.  With
    ``mode``, the same pass first reweights w as ``preprocess_no_zero_cycles``.
    """
    rows = zip(g.eweight, g.esrc, g.edst)
    if mode is None:
        return g.with_weights([w + phi[d] - phi[v] for w, v, d in rows])
    mult, unit = _zero_cycle_scale(g, mode)
    return g.with_weights([w * mult + unit + phi[d] - phi[v] for w, v, d in rows])


def dual_game(g: Game) -> Game:
    """Swap ownership and negate weights; an involution exchanging the players."""
    lo, hi = Player.MIN, Player.MAX
    owners = tuple([hi if o is lo else lo for o in g.owners])
    weights = tuple([-w for w in g.eweight])
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
    g_out, edst, ew, gsrc = g.out, g.edst, g.eweight, g.esrc
    esrc, sdst, picked, out = [], [], [], []
    inc: list[list[int]] = [[] for _ in kept]
    m = 0
    for i, v in enumerate(kept):
        first = m
        for e in g_out[v]:
            j = pos[edst[e]]
            if j >= 0:
                inc[j].append(m)
                sdst.append(j)
                picked.append(e)
                m += 1
        if m == first:
            raise NotASubgameError(
                f"not a subgame: vertex {g.orig_ids[v]} is a sink in restriction"
            )
        esrc += [i] * (m - first)
        out.append(range(first, m))
    # Weights are read once the kept edges are known: no edge tests the shift.
    if shift is None:
        sw = tuple(map(ew.__getitem__, picked))
    else:
        sw = tuple([ew[e] + shift[edst[e]] - shift[gsrc[e]] for e in picked])
    return Game._raw(
        tuple([g.owners[v] for v in kept]), tuple(esrc), tuple(sdst), sw,
        out, inc, tuple([g.orig_ids[v] for v in kept]),
    )


def parse_potential(data: bytes | str, g: Game) -> list[int]:
    """Parse ``<vertex-id> <integer>`` lines into one potential per dense index.

    A vertex without a line gets potential 0.  A value may be any integer, as
    the certificate of a game near the weight guard can pass 64 bits.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    phi = [0] * g.n
    seen = [False] * g.n
    index_of = {orig: i for i, orig in enumerate(g.orig_ids)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected '<vertex-id> <value>'", lineno)
        vid = _parse_uint(fields[0], lineno, "vertex id")
        value = _parse_int(fields[1], lineno, "potential value")
        idx = index_of.get(vid)
        if idx is None:
            raise ParseError(f"unknown vertex {vid}", lineno)
        if seen[idx]:
            raise ParseError(f"duplicate vertex {vid}", lineno)
        seen[idx] = True
        phi[idx] = value
    return phi
