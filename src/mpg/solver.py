"""Recursive mean-payoff game solver.

``reduce_game`` computes the winning regions of a zero-cycle-free game along
with a certifying potential: after relabeling by the potential, the game is
reduced and its ZN/ZP zones are exactly the reported regions.  The recursion
fixes exact peak values vertex by vertex, escaping from recursively solved
subgames, and removes attractors of regions won outright.  ``solve_threshold``
wraps it with zero-cycle preprocessing, and ``solve_values`` extracts exact
rational values by dichotomy over scaled games.

The recursion is driven by an explicit frame stack (generators suspended on
child games), so depth is bounded only by the vertex count, never by the
interpreter's call stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable

from .backtracking import (
    SolverInternalError,
    _attract_max_core,
    _backtrack_core,
    _good_escape_core,
    safe_init,
)
from .game import (
    Game,
    NotASubgameError,
    Player,
    ThresholdMode,
    apply_potential,
    dual_game,
    preprocess_no_zero_cycles,
    restrict,
)
from .zones import compute_zones, is_reduced, reduced_at


class Policy(enum.Enum):
    """How each recursion level picks which zone's peak values to compute."""

    SMALLER_ZONE = "smaller-zone"
    ALWAYS_N = "always-n"
    ALWAYS_P = "always-p"
    LARGER_ZONE = "larger-zone"
    INIT_SET_SIZE = "init-set-size"


class AssertLevel(enum.IntEnum):
    OFF = 0
    CHEAP = 1
    FULL = 2


@dataclass(frozen=True)
class SolverConfig:
    policy: Policy = Policy.SMALLER_ZONE
    opt_init: bool = False
    opt_bulk: bool = False
    remember_potentials: bool = False
    threshold_mode: ThresholdMode = ThresholdMode.WEAK
    assertions: AssertLevel = AssertLevel.CHEAP


@dataclass(slots=True)
class Stats:
    """Work counters of one ``reduce_game`` call, one meaning each.

    * ``recursive_calls``: frame entries plus relabel restarts, so frames =
      ``recursive_calls - potential_reductions``.  A child decided on a view
      of its parent, without building its subgame, still counts as a frame.
    * ``loop_iterations``: passes of the escape loop, each one backtracking
      run over the finished set.
    * ``escapes_fixed``: vertices finished one at a time by an optimal escape
      (``opt_bulk`` off).
    * ``bulk_fixed``: vertices finished by whole good-escape sets
      (``opt_bulk`` on).
    * ``attractor_calls``: escape loops that ended by splitting off the
      attractor of a subgame region that has no escape edge.
    * ``potential_reductions``: relabel restarts, each after an escape loop
      gave every vertex of its frame a finite peak value.
    * ``max_depth``: deepest frame below the root (the root is depth 0).

    Slotted, with no per-instance ``__dict__``: ``dataclasses.asdict`` reads it.
    """

    recursive_calls: int = 0
    loop_iterations: int = 0
    escapes_fixed: int = 0
    bulk_fixed: int = 0
    attractor_calls: int = 0
    potential_reductions: int = 0
    max_depth: int = 0


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Winning regions with the certifying potential and positional strategies.

    ``sides[v]`` is 1 if Min wins v and -1 if Max does, the format of
    ``Zones.side``; ``potential[v]`` is v's potential.  Relabeling the solved
    game by it yields a reduced game whose ZN zone is ``min_region``.
    Strategies are positional: ``strategy[v]`` is the edge id v's owner plays
    where the owner wins v, and -1 elsewhere, one tuple for both players.
    """

    sides: tuple
    potential: tuple
    strategy: tuple
    stats: Stats

    @property
    def min_region(self) -> frozenset:
        """The vertices Min wins, built from ``sides`` on each access."""
        return frozenset(v for v, s in enumerate(self.sides) if s > 0)

    @property
    def max_region(self) -> frozenset:
        """The vertices Max wins, built from ``sides`` on each access."""
        return frozenset(v for v, s in enumerate(self.sides) if s < 0)

    @property
    def min_strategy(self) -> dict:
        """``{vertex: edge id}`` of Min, built from ``strategy`` on each access."""
        return {v: e for v, e in enumerate(self.strategy) if e >= 0 and self.sides[v] > 0}

    @property
    def max_strategy(self) -> dict:
        """``{vertex: edge id}`` of Max, built from ``strategy`` on each access."""
        return {v: e for v, e in enumerate(self.strategy) if e >= 0 and self.sides[v] < 0}


@dataclass(frozen=True, slots=True)
class ValueResult:
    """Exact mean-payoff value per vertex, each a reduced Fraction.

    ``by_vertex[v]`` is vertex v's value; a tuple takes at most a third of a
    dict's memory, paid per result by a caller that keeps many.
    """

    by_vertex: tuple

    @property
    def values(self) -> dict:
        """``{vertex: value}``, built from ``by_vertex`` on each access."""
        return dict(enumerate(self.by_vertex))


#: Called after a frame finishes computing peak values over its whole loop
#: game: (loop game, {vertex: value}, depth).  Intended for tests and tools.
ValueHook = Callable[[Game, dict, int], None]


def _choose_sup(g: Game, cls: list, cfg: SolverConfig) -> bool:
    """True to compute peaks toward N, False to dualise and work toward P."""
    policy = cfg.policy
    if policy is Policy.ALWAYS_N:
        return True
    if policy is Policy.ALWAYS_P:
        return False
    if policy is Policy.INIT_SET_SIZE:
        return sum(safe_init(g, cls, Player.MIN)) >= sum(safe_init(g, cls, Player.MAX))
    if policy is Policy.LARGER_ZONE:
        return cls.count(-1) >= cls.count(1)
    return cls.count(-1) <= cls.count(1)


def _assert_certificate(g: Game, keep, shift, sides: list) -> None:
    """Raise unless the view (g, keep, shift) is reduced with zones ``sides``."""
    z = compute_zones(g, keep, shift)
    if not is_reduced(g, z, shift):
        raise SolverInternalError("certificate check failed: game not reduced")
    if [s for s in z.side if s] != sides:
        raise SolverInternalError("certificate check failed: regions mismatch zones")


def _hint_holds(g: Game, shift, sides: list, gone: list) -> bool:
    """True if ``sides`` still meets the reduced rule once ``gone`` has left.

    Only a vertex with an edge into ``gone`` lost part of its view, so only
    the in-view predecessors of ``gone`` (``sides`` nonzero) are rechecked.
    """
    inc, esrc = g.inc, g.esrc
    touched = {u for r in gone for e in inc[r] if sides[u := esrc[e]]}
    return reduced_at(g, sides, touched, shift)


def _sup_loop(gl, cls, cfg, stats, depth, hook):
    """Escape loop computing peak values toward N over the loop game ``gl``,
    whose zone classes are ``cls``.

    Yields child views to solve (see ``_frame``), each answered by the
    child's ``(sides, phi)``; returns either ``(None, values)`` when every
    vertex got a finite peak value (caller relabels and restarts) or
    ``((sides, phi), None)`` when an attractor ended the call.

    Each remainder is the previous one minus the vertices fixed by the
    escape and added by backtracking.  When the previous answer certifies
    the next view as it stands (always under ``remember_potentials``, whose
    next shift is the previous one plus the child's potential; otherwise
    when that potential is zero), the view carries it as the hint
    ``(sides, gone)``: ``sides`` over ``gl`` is 1 on the Min side, -1 on the
    Max side and 0 outside the remainder, the format of ``Zones.side``, and
    ``gone`` lists the vertices that left it.  The attractor-split child gets
    no hint.  ``sides`` is kept current on every pass, as it also tells
    ``_good_escape_core`` the side.

    Each pass fixes one escape with one step for both players.  While the
    child calls part of the remainder Max-won, Min escapes from that side
    (``plus``); if Min has no edge out of it, its Max attractor is split off
    and the rest solved as a child.  Otherwise Max escapes from the Min-won
    remainder.  The scan for the optimal escape also collects its ties, the
    sources from which ``_good_escape_core`` grows the bulk set.

    The finished set only grows, so backtracking's escape counters are built
    once per loop and brought up to date from the vertices each escape fixes.
    """
    n = gl.n
    owners, out, edst, ew = gl.owners, gl.out, gl.edst, gl.eweight
    cheap = cfg.assertions >= AssertLevel.CHEAP
    full = cfg.assertions >= AssertLevel.FULL
    in_f = safe_init(gl, cls, Player.MIN) if cfg.opt_init else [c < 0 for c in cls]
    val = [0] * n
    pred_phi = [0] * n
    sides = [0] * n
    esc = [len(edges) for edges in out]
    joined = [v for v in range(n) if in_f[v]]
    rest = range(n)
    carried = False
    guard = 0
    while True:
        guard += 1
        if guard > 4 * n + 16:
            raise SolverInternalError("escape loop failed to converge")
        stats.loop_iterations += 1
        gone = joined + _backtrack_core(gl, in_f, val, esc, joined)
        # Finished values never change, so only the vertices that just joined
        # need checking.
        if cheap and any(val[v] < 0 for v in gone):
            raise SolverInternalError("negative peak value after backtracking")
        rest = [v for v in rest if not in_f[v]]
        if not rest:
            if hook is not None:
                hook(gl, {v: val[v] for v in range(n)}, depth)
            return None, val
        # Later children start from the previous potentials, if remembered; the
        # first's are all zero, and ``restrict`` sums no shift when it is None.
        shift = pred_phi if cfg.remember_potentials and guard > 1 else None
        for v in gone:
            sides[v] = 0
        sides_rest, phi_rest = yield gl, rest, shift, (sides, gone) if carried else None
        for x, pv in zip(phi_rest, rest):
            pred_phi[pv] = x if shift is None else pred_phi[pv] + x
        carried = cfg.remember_potentials or not any(phi_rest)
        for v, s in zip(rest, sides_rest):
            sides[v] = s
        plus = -1 in sides_rest
        side = [v for v, s in zip(rest, sides_rest) if s < 0] if plus else rest
        owner, sign = (Player.MIN, 1) if plus else (Player.MAX, -1)
        best = None
        ties = []
        for v in side:
            if owners[v] is owner:
                pv = pred_phi[v]
                for e in out[v]:
                    d = edst[e]
                    if in_f[d]:
                        cost = sign * (ew[e] + val[d] - pv)
                        if best is None or cost < best:
                            best = cost
                            ties = [v]
                        elif cost == best and ties[-1] != v:
                            ties.append(v)
        if best is not None:
            m = sign * best
            if cfg.opt_bulk:
                fixed = _good_escape_core(gl, in_f, val, sides, ties, pred_phi, m, plus)
                if full:
                    whole = _good_escape_core(gl, in_f, val, sides, side, pred_phi, m, plus)
                    if whole != fixed:
                        raise SolverInternalError("bulk set differs from the whole side's")
                    if ties[0] not in fixed:
                        raise SolverInternalError("bulk set misses the optimal escape")
                stats.bulk_fixed += len(fixed)
            else:
                # The side is ascending, so the first tie is the lowest vertex.
                fixed = [ties[0]]
                stats.escapes_fixed += 1
            for v in fixed:
                val[v] = m + pred_phi[v]
                in_f[v] = True
            joined = fixed
            continue
        if not plus:
            raise SolverInternalError("no escape edge from the Min-won remainder")
        # The Max-won side cannot be escaped: attract to it and split off.
        stats.attractor_calls += 1
        in_t = [False] * n
        for v in side:
            in_t[v] = True
        in_a, phi_a = _attract_max_core(gl, in_t, pred_phi)
        keep = [v for v in range(n) if not in_a[v]]
        sides_keep, phi_keep = (yield gl, keep, None, None) if keep else ([], [])
        delta = _glue_delta_arrays(gl, in_a, phi_a, keep, phi_keep)
        sides = [-1] * n
        phi = [phi_a[v] + delta if in_a[v] else 0 for v in range(n)]
        for pv, s, x in zip(keep, sides_keep, phi_keep):
            sides[pv] = s
            phi[pv] = x
        return (sides, phi), None


def _glue_delta_arrays(gl, in_a, phi_a, keep, phi_keep) -> int:
    """Shift making attractor-side modified weights of crossing edges >= 0.

    Every crossing edge starts at a vertex of ``keep``, the complement of the
    attractor, so only their out-edges are scanned.
    """
    out, edst, ew = gl.out, gl.edst, gl.eweight
    crossing = [ew[e] for v in keep for e in out[v] if in_a[edst[e]]]
    if not crossing:
        return 0
    min_w = min(crossing)
    min_phi_a = min(phi_a[v] for v in range(gl.n) if in_a[v])
    return -min_w - min_phi_a + max(phi_keep)


def _frame(view: tuple, cfg: SolverConfig, stats: Stats, depth: int, hook):
    """One recursion level; yields child views, returns ``(sides, phi)`` lists.

    A view is (game, ascending kept vertices, potential shift, hint): the
    subgame ``restrict(game, kept, shift)``, or ``apply_potential(game,
    shift)`` when ``kept`` is None.  Each pass of the frame's loop computes
    the view's zones and builds its game, in that one place, only if it is
    not reduced; a relabel restart makes the peak values the view's shift.
    ``sides`` is 1 on the Min region and -1 on the Max region, the format
    of ``Zones.side``, so flipping a dualised answer back is a negation of
    both lists.

    A hint ``(sides, gone)`` (see ``_sup_loop``) is a side assignment that
    met ``is_reduced``'s per-vertex rule on a view that has since lost the
    vertices ``gone``.  If the in-view predecessors of ``gone`` still meet
    the rule, the view is decided without zones: a side assignment that
    meets the rule at every vertex is ZN/ZP.  Zero-weight edges form a DAG,
    as no cycle weighs zero, and induction on the longest zero path from a
    vertex shows that each Min-side vertex is in N or joins ZN by the
    closure rule; the same induction over the order in which ZN is built
    shows that ZN never enters the Max side.  So the full path would find
    the view reduced and return the same ``sides`` with a zero potential.
    Otherwise the frame falls through to that path.
    """
    stats.recursive_calls += 1
    cheap = cfg.assertions >= AssertLevel.CHEAP
    full = cfg.assertions >= AssertLevel.FULL
    g, keep, shift, hint = view
    if hint is not None and _hint_holds(g, shift, *hint):
        sides = list(map(hint[0].__getitem__, keep))
        if full:
            _assert_certificate(g, keep, shift, sides)
        return sides, [0] * len(keep)
    n = g.n if keep is None else len(keep)
    acc = [0] * n
    restarts = 0
    while True:
        try:
            zones = compute_zones(g, keep, shift)
        except NotASubgameError as exc:
            raise SolverInternalError(f"remainder is {exc}") from None
        # After a restart, every vertex left in N or P must come from the loop's N.
        if cheap and restarts and any(c and s >= 0 for c, s in zip(zones.cls, cls)):
            raise SolverInternalError("zones failed to shrink into the relabeled zone")
        if full and zones.reduced != is_reduced(g, zones, shift):
            raise SolverInternalError("entry test disagrees with is_reduced")
        if zones.reduced:
            side = zones.side
            return (side if keep is None else [side[v] for v in keep]), acc
        cls = zones.cls
        if keep is not None:
            g = restrict(g, keep, shift)
            cls = [cls[v] for v in keep]
        elif shift is not None:
            g = apply_potential(g, shift)
        keep = shift = None
        restarts += 1
        if restarts > n + 2:
            raise SolverInternalError("relabeling failed to make progress")
        flip = not _choose_sup(g, cls, cfg)
        # The dual game swaps the players, and so the N and P classes.
        gl, cls = (dual_game(g), [-c for c in cls]) if flip else (g, cls)
        del zones
        outcome, values = yield from _sup_loop(gl, cls, cfg, stats, depth, hook)
        if outcome is None:
            # Every peak value is finite: they become the view's shift.
            shift = [-x for x in values] if flip else values
            acc = [a + s for a, s in zip(acc, shift)]
            stats.potential_reductions += 1
            stats.recursive_calls += 1
            continue
        sides, phi = outcome
        if flip:
            sides, phi = [-s for s in sides], [-x for x in phi]
        if full:
            _assert_certificate(g, None, phi, sides)
        return sides, [a + p for a, p in zip(acc, phi)]


def _drive(g: Game, cfg: SolverConfig, stats: Stats, hook):
    stack = [_frame((g, None, None, None), cfg, stats, 0, hook)]
    sent = None
    while True:
        try:
            child = stack[-1].send(sent)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            sent = stop.value
            continue
        if len(stack) > g.n:
            raise SolverInternalError("recursion limit exceeded")
        stack.append(_frame(child, cfg, stats, len(stack), hook))
        stats.max_depth = max(stats.max_depth, len(stack) - 1)
        sent = None


def reduce_game(
    g: Game, cfg: SolverConfig | None = None, *, on_sup_values: ValueHook | None = None
) -> SolveResult:
    """Solve a zero-cycle-free game: regions, certifying potential, strategies.

    The caller guarantees the game has no zero-weight cycles (use
    ``solve_threshold`` otherwise).  Identical inputs and configuration
    produce identical results and statistics.
    """
    cfg = cfg or SolverConfig()
    stats = Stats()
    sides, phi = _drive(g, cfg, stats, on_sup_values) if g.n else ([], [])
    return SolveResult(tuple(sides), tuple(phi), derive_strategies(g, sides, phi), stats)


def derive_strategies(g: Game, sides, phi) -> tuple:
    """Positional strategies from a certificate, laid out as ``SolveResult.strategy``.

    Each winning Min vertex v picks an edge e to a vertex d of the Min region
    whose potential-modified weight ``w(e) + phi[d] - phi[v]`` is <= 0 (such
    an edge exists because the relabeled game is reduced); Max dually, >= 0.
    Ties break on the lowest (dst, weight) pair, then edge id.
    """
    owners, out, edst, ew = g.owners, g.out, g.edst, g.eweight
    strategy = [-1] * len(sides)
    for v, side in enumerate(sides):
        if (owners[v] is Player.MIN) != (side > 0):
            continue
        pv = phi[v]
        best = None
        for e in out[v]:
            d = edst[e]
            if sides[d] == side and side * (ew[e] + phi[d] - pv) <= 0:
                key = (d, ew[e], e)
                if best is None or key < best:
                    best = key
        if best is None:
            raise SolverInternalError(f"certificate admits no safe edge for winning vertex {v}")
        strategy[v] = best[2]
    return tuple(strategy)


def solve_threshold(
    g: Game, cfg: SolverConfig | None = None, *, on_sup_values: ValueHook | None = None
) -> SolveResult:
    """Split vertices by the sign of their value; zero cycles are allowed.

    The game is first reweighted to remove zero-total cycles; in WEAK mode
    value-0 vertices land in ``min_region`` (threshold "value <= 0"), in
    STRICT mode in ``max_region``.  The returned potential and strategies
    certify the reweighted game, whose edges are identical to the input's.
    """
    cfg = cfg or SolverConfig()
    prepared = preprocess_no_zero_cycles(g, cfg.threshold_mode)
    return reduce_game(prepared, cfg, on_sup_values=on_sup_values)


def solve_values(g: Game, cfg: SolverConfig | None = None) -> ValueResult:
    """Exact per-vertex values via threshold dichotomy on band subgames.

    Testing "value <= p/q" solves the WEAK threshold problem on the same
    structure with weights q*w - p, and "value < p/q" the STRICT one.  Every
    search group is a band: exactly the vertices whose values lie in some
    interval, and that interval lies in the group's bracket (lo, hi].  An
    optimal move keeps the value (a Max vertex's value is the largest of its
    successors', a Min vertex's the smallest), so both players' optimal
    positional strategies stay inside a band, and against either one the
    other player gains nothing from the edges that leave it: the band
    induces a subgame with the same values.  Each probe therefore solves
    only ``restrict(g, band)``, and values in a band of k vertices have
    denominators <= k, so k replaces n as the bound below.

    After every probe, best responses bound every value of the band from
    both sides.  Fixing the certificate's Min strategy on its Min region
    leaves Max a one-player game there, whose best reachable cycle mean
    bounds each value from above (the region pass); Max's strategy dually
    bounds the Max region from below.  The free player's final Howard
    policy in each is its best response.  Min then gets one strategy for
    the whole band: the certificate's on the Min region and its best
    response to Max's on the Max region.  The Min region is a Max-trap and
    that strategy keeps Min in it, so from there play reaches only the
    region pass's cycles and keeps its bounds.  By positional determinacy
    the best cycle mean Max reaches against any positional Min strategy
    bounds the value from above, so this best-response pass gives every
    band vertex an upper bound.  Max dually gets one strategy from the
    certificate's on the Max region, a Min-trap, and its best response on
    the Min region, which gives every vertex a lower bound.  The region pass
    on the Min region is a closed part of the best-response pass that gives
    the upper bounds, so ``probe`` makes three one-player solves, not four.
    A vertex is settled when its two bounds are equal: they meet, or a rule
    below finds the value and writes it as both.  A band of settled vertices
    is not probed again; they stay in it so that it remains a subgame.

    Vertices the bounds leave open go on through the search.  A group of k
    vertices with bracket (lo, hi] takes one regular probe by the first rule
    that fits:

    * wider than 1 (the ends are then integers): WEAK at the integer
      (lo + hi) // 2 splits it in two;
    * width 1: one STRICT solve of w - hi settles every vertex whose value
      is exactly hi.  The rest, k' of them, have values below hi with
      denominators <= k', so at most hi - 1/k', their new upper end;
    * otherwise: x = ((lo + hi) / 2).limit_denominator(k) is the fraction of
      denominator <= k nearest the midpoint.  Any such fraction strictly
      inside (lo, hi) is nearer the midpoint than lo or hi, so x is inside
      if one is.  Then WEAK at x splits the bracket into (lo, x] and
      (x, hi]; if not, every value of the group is hi.

    Each probe leaves every part a bracket with fewer fractions of
    denominator <= n than its group's, so the search ends.  The groups and
    their probes do not depend on the bounds, which only prune groups whose
    vertices are all settled, with every group below them: each game takes
    at most the probes of the search without bounds, all of them keeping
    q <= n and |p/q| <= W + 1.
    """
    cfg = cfg or SolverConfig()
    n = g.n
    if n == 0:
        return ValueResult(())
    w_bound = g.W
    cheap = cfg.assertions >= AssertLevel.CHEAP
    # Reduced (numerator, denominator) pairs: lower[v] <= value(v) <= upper[v].
    lower = [(-w_bound, 1)] * n
    upper = [(w_bound, 1)] * n

    def probe(verts: tuple, p: int, q: int, mode: ThresholdMode) -> tuple:
        """Threshold ``sides`` of the band ``verts``, which is sorted; tightens bounds.

        Three one-player solves follow: (1) Min's reply on the Max region to
        the certificate's Max strategy, whose lower bounds the side check
        reads; (2) Max's reply on the band to the certificate's Min strategy
        plus (1)'s reply: upper bounds, the side check's on the Min region;
        (3) Min's reply on the band to the certificate's Max strategy plus
        (2)'s reply on the Min region: lower bounds.  On the Min region (2) is
        the region pass, as (1) is on the Max region: the region is closed
        under Min's strategy, a Howard move at a vertex reads only its
        successors, and a cycle's lowest vertex is the same in the region's
        sorted order as in the band's, so every round moves the region's
        vertices as a solve of the region alone would.
        """
        band = g if len(verts) == n else restrict(g, verts)
        scaled = band.with_weights([q * w - p for w in band.eweight])
        res = solve_threshold(scaled, replace(cfg, threshold_mode=mode))
        sides = res.sides
        strict = mode is ThresholdMode.STRICT

        def side_check(bounds: list, side: int) -> None:
            # WEAK: upper bounds are <= p/q and lower bounds > p/q;
            # STRICT: upper bounds are < p/q and lower bounds >= p/q.
            for i, (x, y) in bounds:
                gap = side * (x * q - p * y)
                if sides[i] == side and (gap > 0 or (gap == 0 and strict is (side > 0))):
                    raise SolverInternalError(f"bound {x}/{y} on the wrong side of {p}/{q}")

        def tighten(bounds: list, side: int) -> None:
            bound = upper if side > 0 else lower
            for i, (x, y) in bounds:
                v = verts[i]
                bx, by = bound[v]
                if side * (x * by - bx * y) < 0:
                    bound[v] = (x, y)
                    (lx, ly), (ux, uy) = lower[v], upper[v]
                    if cheap and lx * uy > ux * ly:
                        raise SolverInternalError(f"bounds cross at vertex {v}")

        whole = range(len(verts))
        max_strategy = res.max_strategy
        bounds, reply = _cycle_mean_bounds(band, res.max_region, max_strategy, False)
        if cheap:
            side_check(bounds, -1)
        bounds, reply = _cycle_mean_bounds(band, whole, res.min_strategy | reply, True)
        if cheap:
            side_check(bounds, 1)
        tighten(bounds, 1)
        tighten(_cycle_mean_bounds(band, whole, reply | max_strategy, False)[0], -1)
        return sides

    def split(verts: tuple, sides: tuple) -> tuple:
        return (
            tuple(v for v, s in zip(verts, sides) if s > 0),
            tuple(v for v, s in zip(verts, sides) if s < 0),
        )

    # A group is (vertices, lo, hi): the values lie in (lo, hi].  Brackets
    # wider than 1 have integer ends.
    groups = [(tuple(range(n)), Fraction(-w_bound - 1), Fraction(w_bound))]
    while groups:
        verts, lo, hi = groups.pop()
        if all(lower[v] == upper[v] for v in verts):
            continue
        if hi - lo > 1:
            x = Fraction((lo + hi) // 2)
        elif hi - lo == 1:
            # STRICT puts value-hi vertices on the Max side of w - hi.
            rest, top = split(verts, probe(verts, *hi.as_integer_ratio(), ThresholdMode.STRICT))
            for v in top:
                lower[v] = upper[v] = hi.as_integer_ratio()
            if rest:
                # Below hi with denominator <= k means at most hi - 1/k.
                groups.append((rest, lo, hi - Fraction(1, len(rest))))
            continue
        else:
            x = ((lo + hi) / 2).limit_denominator(len(verts))
            if not lo < x < hi:
                for v in verts:
                    lower[v] = upper[v] = hi.as_integer_ratio()
                continue
        left, right = split(verts, probe(verts, *x.as_integer_ratio(), ThresholdMode.WEAK))
        if left:
            groups.append((left, lo, x))
        if right:
            groups.append((right, x, hi))
    distinct = {pq: Fraction(*pq) for pq in set(lower)}
    return ValueResult(tuple(distinct[pq] for pq in lower))


def _cycle_mean_bounds(g: Game, region: Iterable, strategy: dict, upper: bool) -> tuple:
    """Best cycle mean each vertex of ``region`` can reach against ``strategy``.

    ``strategy`` fixes one edge per vertex of one player inside ``region``;
    every other vertex of ``region`` keeps all its edges, which must stay
    inside it.  In the resulting one-player graph the free player reaches the
    largest cycle mean (``upper``, the free player is Max) or the smallest
    (Min) of any cycle reachable from the vertex, which bounds its value.
    Returns ``(bounds, reply)``: ``bounds`` is ``[(v, (numerator,
    denominator))]``, reduced, denominator > 0, and ``reply`` maps each
    vertex outside ``strategy`` to the edge id it plays in the final policy
    below, which reaches its bound: the free player's best response.

    Weights are negated for Min, so the work is always a maximum, found by
    Howard's policy iteration in integers.  A policy picks one successor per
    vertex; following it, each vertex enters a cycle.  Its gain is that
    cycle's reduced mean p/q, and its bias, kept as q * bias, is 0 at the
    cycle's lowest vertex and q*w - p plus the successor's along the policy.
    A round moves each vertex to a successor of strictly larger gain or, if
    there is none, of equal gain (so of the same q) where q*w - p + bias
    strictly exceeds its own bias.  Gains never fall along the new policy, so
    a cycle it closes has one gain and, summing, a mean at least that, above
    it if the cycle holds a move.  Hence each vertex keeps or raises its
    gain, at equal gain its bias, strictly if a move lies on its path, and
    no policy comes back.  When none moves, no edge leads to a larger gain or
    raises a bias, so around any reachable cycle the gain is one p/q, and
    summing q*w - p <= bias(v) - bias(u) over its edges (v, u) puts its mean
    at most p/q, while the gain is itself the mean of a reachable cycle.  A
    round costs O(n + m), but no polynomial bound on the number of rounds is
    known (Hansen & Zwick, 2010, give Omega(n^2) rounds).
    """
    verts = sorted(region)
    index = {v: i for i, v in enumerate(verts)}
    sign = 1 if upper else -1
    succ = []
    for v in verts:
        edges = (strategy[v],) if v in strategy else g.out[v]
        try:
            succ.append([(index[g.edst[e]], sign * g.eweight[e], e) for e in edges])
        except KeyError:
            raise SolverInternalError(f"vertex {v} can leave its region") from None
    size = len(verts)
    policy = [max(edges, key=lambda edge: edge[1]) for edges in succ]
    choices = [(v, edges) for v, edges in enumerate(succ) if len(edges) > 1]
    while True:
        # Per vertex: its gain, its bias and its position on the current walk.
        gain, bias, at = [None] * size, [0] * size, [-1] * size
        for root in range(size):
            if gain[root] is not None:
                continue
            walk, v = [], root
            while gain[v] is None and at[v] < 0:
                at[v] = len(walk)
                walk.append(v)
                v = policy[v][0]
            if gain[v] is None:  # the walk closed a cycle at v
                cycle = walk[at[v]:]
                total = sum(policy[u][1] for u in cycle)
                r = gcd(total, len(cycle))
                low = cycle.index(min(cycle))
                gain[cycle[low]] = (total // r, len(cycle) // r)
                walk[at[v]:] = cycle[low + 1:] + cycle[:low]  # in order after the lowest
            for u in reversed(walk):
                x, w, _ = policy[u]
                p, q = gain[u] = gain[x]
                bias[u] = q * w - p + bias[x]
        moved = False
        for v, edges in choices:
            p, q = own = top = gain[v]
            best, choice = bias[v], None
            for edge in edges:
                u, w, _ = edge
                x, y = gain[u]
                if x * top[1] > top[0] * y:
                    top, choice = gain[u], edge
                elif top is own and gain[u] == own and q * w - p + bias[u] > best:
                    best, choice = q * w - p + bias[u], edge
            if choice is not None:
                policy[v], moved = choice, True
        if not moved:
            bounds = [(v, (sign * p, q)) for v, (p, q) in zip(verts, gain)]
            return bounds, {v: policy[i][2] for i, v in enumerate(verts) if v not in strategy}
