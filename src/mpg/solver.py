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
from typing import Callable

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
    dual_game,
    preprocess_no_zero_cycles,
    restrict,
)
from .zones import Zones, compute_zones, is_reduced


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
    recursion_limit: int | None = None  # defaults to n + 1 per solve


@dataclass
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
    """

    recursive_calls: int = 0
    loop_iterations: int = 0
    escapes_fixed: int = 0
    bulk_fixed: int = 0
    attractor_calls: int = 0
    potential_reductions: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class SolveResult:
    """Winning regions with the certifying potential and positional strategies.

    The potential is total; relabeling the solved game by it yields a reduced
    game whose ZN zone is ``min_region``.  Strategies map each winning vertex
    of its owner to the edge id to play.
    """

    min_region: frozenset
    max_region: frozenset
    potential: dict
    min_strategy: dict
    max_strategy: dict
    stats: Stats


@dataclass(frozen=True, slots=True)
class ValueResult:
    """Exact mean-payoff value per vertex, each a reduced Fraction."""

    values: dict


#: Called after a frame finishes computing peak values over its whole loop
#: game: (loop game, {vertex: value}, depth).  Intended for tests and tools.
ValueHook = Callable[[Game, dict, int], None]


def _choose_sup(g: Game, zones: Zones, cfg: SolverConfig) -> bool:
    """True to compute peaks toward N, False to dualise and work toward P."""
    policy = cfg.policy
    if policy is Policy.ALWAYS_N:
        return True
    if policy is Policy.ALWAYS_P:
        return False
    if policy is Policy.INIT_SET_SIZE:
        sn = len(safe_init(g, zones, Player.MIN))
        sp = len(safe_init(g, zones, Player.MAX))
        return sn >= sp
    if policy is Policy.LARGER_ZONE:
        return len(zones.N) >= len(zones.P)
    return len(zones.N) <= len(zones.P)


def _assert_certificate(g: Game, mn: list, mx: list, phi: list) -> None:
    relabeled = g.with_weights(
        [g.eweight[e] + phi[g.edst[e]] - phi[g.esrc[e]] for e in range(g.m)]
    )
    z = compute_zones(relabeled)
    if not is_reduced(relabeled, z):
        raise SolverInternalError("certificate check failed: game not reduced")
    want_min = frozenset(v for v in range(g.n) if mn[v])
    want_max = frozenset(v for v in range(g.n) if mx[v])
    if z.ZN != want_min or z.ZP != want_max:
        raise SolverInternalError("certificate check failed: regions mismatch zones")


def _sup_loop(gl, zl, cfg, stats, depth, hook):
    """Escape loop computing peak values toward N over the loop game ``gl``.

    Yields child views to solve (see ``_frame``); returns either
    ``(None, values)`` when every vertex got a finite peak value (caller
    relabels and restarts) or ``((min, max, phi), None)`` when an attractor
    ended the call.
    """
    n = gl.n
    owners, out, edst, ew = gl.owners, gl.out, gl.edst, gl.eweight
    cheap = cfg.assertions >= AssertLevel.CHEAP
    full = cfg.assertions >= AssertLevel.FULL
    if cfg.opt_init:
        seed = safe_init(gl, zl, Player.MIN)
        in_f = [v in seed for v in range(n)]
    else:
        zn_seed = zl.N
        in_f = [v in zn_seed for v in range(n)]
    val = [0] * n
    pred_phi = None
    guard = 0
    while True:
        guard += 1
        if guard > 4 * n + 16:
            raise SolverInternalError("escape loop failed to converge")
        stats.loop_iterations += 1
        _backtrack_core(gl, in_f, val)
        if cheap:
            if any(val[v] < 0 for v in range(n) if in_f[v]):
                raise SolverInternalError("negative peak value after backtracking")
        rest = [v for v in range(n) if not in_f[v]]
        if not rest:
            if hook is not None:
                hook(gl, {v: val[v] for v in range(n)}, depth)
            return None, val
        # The child starts from the previous potentials, if remembered.
        shift = pred_phi if cfg.remember_potentials else None
        hm, hp, hphi = yield gl, rest, shift
        if shift is not None:
            for x, pv in zip(hphi, rest):
                pred_phi[pv] += x
        else:
            if pred_phi is None:
                pred_phi = [0] * n
            for x, pv in zip(hphi, rest):
                pred_phi[pv] = x
        side_plus = [rest[i] for i in range(len(rest)) if hp[i]]
        if side_plus:
            best = None
            for v in side_plus:
                if owners[v] is Player.MIN:
                    for e in out[v]:
                        d = edst[e]
                        if in_f[d]:
                            key = (ew[e] + val[d] - pred_phi[v], v, d, ew[e])
                            if best is None or key < best:
                                best = key
            if best is not None:
                m = best[0]
                if cfg.opt_bulk:
                    fixed = _good_escape_core(
                        gl, in_f, val, side_plus, pred_phi, m, plus=True
                    )
                    if full and best[1] not in fixed:
                        raise SolverInternalError("bulk set misses the optimal escape")
                    for v in fixed:
                        val[v] = m + pred_phi[v]
                        in_f[v] = True
                    stats.bulk_fixed += len(fixed)
                else:
                    v = best[1]
                    val[v] = m + pred_phi[v]
                    in_f[v] = True
                    stats.escapes_fixed += 1
                continue
            # The Max-won side cannot be escaped: attract to it and split off.
            stats.attractor_calls += 1
            in_t = [False] * n
            for v in side_plus:
                in_t[v] = True
            in_a, phi_a = _attract_max_core(gl, in_t, pred_phi)
            keep = [v for v in range(n) if not in_a[v]]
            if keep:
                m2, p2, phi2 = yield gl, keep, None
            else:
                m2 = p2 = phi2 = []
            delta = _glue_delta_arrays(gl, keep, in_a, phi_a, phi2)
            mn = [False] * n
            mx = list(in_a)
            phi = [0] * n
            for v in range(n):
                if in_a[v]:
                    phi[v] = phi_a[v] + delta
            for i, pv in enumerate(keep):
                phi[pv] = phi2[i]
                if m2[i]:
                    mn[pv] = True
                else:
                    mx[pv] = True
            return (mn, mx, phi), None
        # No Max-won side: fix an escape from the Min-won remainder.
        best = None
        for v in rest:
            if owners[v] is Player.MAX:
                for e in out[v]:
                    d = edst[e]
                    if in_f[d]:
                        expr = ew[e] + val[d] - pred_phi[v]
                        key = (-expr, v, d, ew[e])
                        if best is None or key < best:
                            best = key
        if best is None:
            raise SolverInternalError("no escape edge from the Min-won remainder")
        m = -best[0]
        if cfg.opt_bulk:
            fixed = _good_escape_core(gl, in_f, val, rest, pred_phi, m, plus=False)
            if full and best[1] not in fixed:
                raise SolverInternalError("bulk set misses the optimal escape")
            for v in fixed:
                val[v] = m + pred_phi[v]
                in_f[v] = True
            stats.bulk_fixed += len(fixed)
        else:
            v = best[1]
            val[v] = m + pred_phi[v]
            in_f[v] = True
            stats.escapes_fixed += 1


def _glue_delta_arrays(gl, keep, in_a, phi_a, phi2) -> int:
    """Shift making attractor-side modified weights of crossing edges >= 0."""
    phi_rest = {pv: phi2[i] for i, pv in enumerate(keep)}
    min_w = None
    for e in range(gl.m):
        if not in_a[gl.esrc[e]] and in_a[gl.edst[e]]:
            if min_w is None or gl.eweight[e] < min_w:
                min_w = gl.eweight[e]
    if min_w is None:
        return 0
    min_phi_a = min(phi_a[v] for v in range(gl.n) if in_a[v])
    max_phi_rest = max(phi_rest.values())
    return -min_w - min_phi_a + max_phi_rest


def _frame(view: tuple, cfg: SolverConfig, stats: Stats, depth: int, hook):
    """One recursion level; yields child views, returns (min, max, phi) lists.

    A view is (game, ascending kept vertices, potential shift): the subgame
    ``restrict(game, kept, shift)``, or the game itself when ``kept`` is
    None.  The entry zones are computed on the view, and the subgame is built
    only if it is not already reduced.
    """
    stats.recursive_calls += 1
    cheap = cfg.assertions >= AssertLevel.CHEAP
    full = cfg.assertions >= AssertLevel.FULL
    g, keep, shift = view
    try:
        zones = compute_zones(g, keep, shift)
    except NotASubgameError as exc:
        raise SolverInternalError(f"remainder is {exc}") from None
    n = g.n if keep is None else len(keep)
    acc = [0] * n
    restarts = 0
    while not is_reduced(g, zones, keep, shift):
        if keep is not None:
            g = restrict(g, keep, shift)
            keep = shift = None
        restarts += 1
        if restarts > n + 2:
            raise SolverInternalError("relabeling failed to make progress")
        if _choose_sup(g, zones, cfg):
            gl, zl, flip = g, zones, False
        else:
            gl = dual_game(g)
            zl = Zones(N=zones.P, Z=zones.Z, P=zones.N, ZN=zones.ZP, ZP=zones.ZN)
            flip = True
        outcome, values = yield from _sup_loop(gl, zl, cfg, stats, depth, hook)
        if outcome is None:
            # Every peak value is finite: relabel by them and start over.
            step = [-x for x in values] if flip else values
            g = g.with_weights(
                [g.eweight[e] + step[g.edst[e]] - step[g.esrc[e]] for e in range(g.m)]
            )
            acc = [a + s for a, s in zip(acc, step)]
            stats.potential_reductions += 1
            stats.recursive_calls += 1
            zones = compute_zones(g)
            if cheap and not (zones.N | zones.P) <= zl.N:
                raise SolverInternalError(
                    "zones failed to shrink into the relabeled zone"
                )
            continue
        mn, mx, phi = outcome
        if flip:
            mn, mx, phi = mx, mn, [-x for x in phi]
        if full:
            _assert_certificate(g, mn, mx, phi)
        return mn, mx, [a + p for a, p in zip(acc, phi)]
    zn = zones.ZN
    mn = [v in zn for v in range(n)]
    return mn, [not x for x in mn], acc


def _drive(g: Game, cfg: SolverConfig, stats: Stats, limit: int, hook):
    stack = [_frame((g, None, None), cfg, stats, 0, hook)]
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
        if len(stack) + 1 > limit:
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
    limit = cfg.recursion_limit if cfg.recursion_limit is not None else g.n + 1
    if limit < g.n:
        raise ValueError(f"recursion_limit {limit} below vertex count {g.n}")
    stats = Stats()
    if g.n == 0:
        return SolveResult(frozenset(), frozenset(), {}, {}, {}, stats)
    mn, mx, phi = _drive(g, cfg, stats, limit, on_sup_values)
    result = SolveResult(
        min_region=frozenset(v for v in range(g.n) if mn[v]),
        max_region=frozenset(v for v in range(g.n) if mx[v]),
        potential={v: phi[v] for v in range(g.n)},
        min_strategy={},
        max_strategy={},
        stats=stats,
    )
    return derive_strategies(g, result)


def derive_strategies(g: Game, res: SolveResult) -> SolveResult:
    """Fill positional strategies from the certificate.

    Each winning Min vertex picks an edge whose potential-modified weight is
    <= 0 and stays inside the Min region (such an edge exists because the
    relabeled game is reduced); Max dually.  Ties break on the lowest
    (src, dst, weight) triple, then edge id.
    """
    phi = res.potential
    mod = [
        g.eweight[e] + phi.get(g.edst[e], 0) - phi.get(g.esrc[e], 0)
        for e in range(g.m)
    ]

    def pick(region: frozenset, owner: Player, keep_nonpositive: bool) -> dict:
        strat = {}
        for v in sorted(region):
            if g.owners[v] is not owner:
                continue
            best = None
            for e in g.out[v]:
                if g.edst[e] not in region:
                    continue
                ok = mod[e] <= 0 if keep_nonpositive else mod[e] >= 0
                if not ok:
                    continue
                key = (v, g.edst[e], g.eweight[e], e)
                if best is None or key < best:
                    best = key
            if best is None:
                raise SolverInternalError(
                    f"certificate admits no safe edge for winning vertex {v}"
                )
            strat[v] = best[3]
        return strat

    return replace(
        res,
        min_strategy=pick(res.min_region, Player.MIN, True),
        max_strategy=pick(res.max_region, Player.MAX, False),
    )


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
    structure with weights q*w - p.  Every search group is a band: exactly
    the vertices whose values lie in its bracket (lo, hi].  Each Max edge of
    a band vertex leads to a value <= hi and each Min edge to a value > lo,
    so both players' optimal moves stay inside and the band induces a
    subgame with the same values.  Each probe therefore solves only
    ``restrict(g, band)``, and values in a band of k vertices have
    denominators <= k, so k replaces n as the bound below.

    After every probe, fixing the certificate's Min strategy on its Min
    region leaves a one-player game whose best reachable cycle mean bounds
    each value from above; Max's strategy dually bounds it from below.  A
    vertex whose tightest bounds meet is settled, and a band whose vertices
    are all settled is not probed again.  Settled vertices stay in their band
    so that it remains a subgame.

    Vertices the bounds leave open go on through the search.  An integer
    bisection brackets each value in (c-1, c]; one STRICT solve of w - c then
    settles every vertex whose value is exactly c.  The rest descend the
    Stern-Brocot tree.  Inside a bracket (a/b, c/d] of Farey neighbours, the
    next-level fractions with denominator <= k form one sorted chain

        (k*a+c)/(k*b+d) for k = K_L..2,  (a+c)/(b+d),  (a+k*c)/(b+k*d) for k = 2..K_R,

    whose consecutive members are again Farey neighbours.  Each vertex's link
    in the chain is found by galloping out from the mediant (steps of 1, 2,
    4, ...) and then bisecting, so a run of k mediants costs O(log k) probes
    instead of k.  A link whose own mediant has denominator > k contains one
    fraction of denominator <= k, its upper end, which is the value.
    """
    cfg = cfg or SolverConfig()
    n = g.n
    if n == 0:
        return ValueResult({})
    w_bound = g.W
    cheap = cfg.assertions >= AssertLevel.CHEAP
    # Reduced (numerator, denominator) pairs: lower[v] <= value(v) <= upper[v].
    lower = [(-w_bound, 1)] * n
    upper = [(w_bound, 1)] * n
    exact: list = [None] * n

    def probe(verts: tuple, p: int, q: int, mode: ThresholdMode) -> frozenset:
        """Threshold regions of the band ``verts``, which is sorted; tightens bounds.

        Returns the full-game ids of the band's ``min_region``.
        """
        band = g if len(verts) == n else restrict(g, verts)
        scaled = band.with_weights([q * w - p for w in band.eweight])
        res = solve_threshold(scaled, replace(cfg, threshold_mode=mode))
        strict = mode is ThresholdMode.STRICT
        for region, strategy, is_upper in (
            (res.min_region, res.min_strategy, True),
            (res.max_region, res.max_strategy, False),
        ):
            bound, side = (upper, 1) if is_upper else (lower, -1)
            for i, (x, y) in _cycle_mean_bounds(band, region, strategy, is_upper):
                # WEAK: upper bounds are <= p/q and lower bounds > p/q;
                # STRICT: upper bounds are < p/q and lower bounds >= p/q.
                gap = side * (x * q - p * y)
                if cheap and (gap > 0 or (gap == 0 and strict is is_upper)):
                    raise SolverInternalError(f"bound {x}/{y} on the wrong side of {p}/{q}")
                v = verts[i]
                bx, by = bound[v]
                if side * (x * by - bx * y) < 0:
                    bound[v] = (x, y)
                    if upper[v] == lower[v]:
                        exact[v] = (x, y)
        return frozenset(verts[i] for i in res.min_region)

    def split(verts: tuple, inside: frozenset) -> tuple:
        return (
            tuple(v for v in verts if v in inside),
            tuple(v for v in verts if v not in inside),
        )

    def settled(verts: tuple) -> bool:
        return all(exact[v] is not None for v in verts)

    # A search is (vertices, k, a, b, c, d, lo, hi, step): the k vertices'
    # values lie in (x(lo), x(hi)] for positions of the chain of bracket
    # (a/b, c/d] under denominator bound k, where position -K_L is a/b, 0 the
    # mediant and K_R is c/d.  ``step`` is 0 to probe the mediant next, +s or
    # -s to gallop right or left by s, and None to bisect.
    searches = []

    def descend(verts: tuple, a: int, b: int, c: int, d: int, top: int = 0) -> None:
        """Search (a/b, c/d], leaving out the ``top`` highest chain positions."""
        k = len(verts)
        if b + d > k:
            for v in verts:
                exact[v] = (c, d)
        else:
            searches.append((verts, k, a, b, c, d, -((k - d) // b), (k - b) // d - top, 0))

    # Integer phase: smallest integer c with value <= c, per band.
    groups = [(tuple(range(n)), -w_bound - 1, w_bound)]
    while groups:
        verts, lo, hi = groups.pop()
        if settled(verts):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            left, right = split(verts, probe(verts, mid, 1, ThresholdMode.WEAK))
            if left:
                groups.append((left, lo, mid))
            if right:
                groups.append((right, mid, hi))
        else:
            # STRICT puts value-hi vertices on the Max side of w - hi.
            rest, top = split(verts, probe(verts, hi, 1, ThresholdMode.STRICT))
            for v in top:
                exact[v] = (hi, 1)
            if rest:
                # Below hi with denominator <= k means at most hi - 1/k, the
                # chain position just under hi.
                descend(rest, lo, 1, hi, 1, top=1)
    while searches:
        verts, k, a, b, c, d, lo, hi, step = searches.pop()
        if settled(verts):
            continue
        if hi - lo == 1:
            descend(verts, *_chain_at(a, b, c, d, k, lo), *_chain_at(a, b, c, d, k, hi))
            continue
        # Probe position t; the side the gallop ran toward keeps galloping,
        # the side it overshot bisects.
        if step is None:
            t, lstep, rstep = (lo + hi) // 2, None, None
        elif step > 0:
            t, lstep, rstep = min(lo + step, hi - 1), None, 2 * step
        elif step < 0:
            t, lstep, rstep = max(hi + step, lo + 1), 2 * step, None
        else:
            t, lstep, rstep = 0, -1, 1
        left, right = split(verts, probe(verts, *_chain_at(a, b, c, d, k, t), ThresholdMode.WEAK))
        if left:
            searches.append((left, k, a, b, c, d, lo, t, lstep))
        if right:
            searches.append((right, k, a, b, c, d, t, hi, rstep))
    distinct: dict = {}
    return ValueResult(
        {v: distinct.setdefault(pq, Fraction(*pq)) for v, pq in enumerate(exact)}
    )


def _chain_at(a: int, b: int, c: int, d: int, n: int, t: int) -> tuple:
    """Numerator and denominator at position ``t`` of the chain of (a/b, c/d].

    Position 0 is the mediant, -k+1 is (k*a+c)/(k*b+d) and k-1 is
    (a+k*c)/(b+k*d); one step past the last denominator <= n on either side
    is the bracket's end, a/b or c/d.
    """
    k = 1 + abs(t)
    if t <= 0:
        return (a, b) if k * b + d > n else (k * a + c, k * b + d)
    return (c, d) if b + k * d > n else (a + k * c, b + k * d)


def _cycle_mean_bounds(g: Game, region: frozenset, strategy: dict, upper: bool) -> list:
    """Best cycle mean each vertex of ``region`` can reach against ``strategy``.

    ``strategy`` fixes one edge per vertex of one player inside ``region``;
    every other vertex of ``region`` keeps all its edges, which must stay
    inside it.  In the resulting one-player graph the free player reaches the
    largest cycle mean (``upper``, the free player is Max) or the smallest
    (Min) of any cycle reachable from the vertex, which bounds its value.
    Returns ``[(v, (numerator, denominator))]``, reduced, denominator > 0.

    Weights are negated for Min, so the work is always a maximum.  Each
    strongly connected component's own maximum mean comes from Karp's
    formula: with D_i(x) the heaviest walk of exactly i edges from a fixed
    member to x, it is the max over x of the min over i < k of
    (D_k(x) - D_i(x)) / (k - i).  D_k is computed first and the rows again
    after, so memory stays O(k).  Means are compared by cross-multiplying.
    """
    verts = sorted(region)
    index = {v: i for i, v in enumerate(verts)}
    sign = 1 if upper else -1
    succ = []
    for v in verts:
        edges = (strategy[v],) if v in strategy else g.out[v]
        try:
            succ.append([(index[g.edst[e]], sign * g.eweight[e]) for e in edges])
        except KeyError:
            raise SolverInternalError(f"vertex {v} can leave its region") from None
    size = len(verts)
    # Tarjan's algorithm, iteratively.  A component is complete only after
    # every component it reaches, so ``components`` lists successors first.
    order = [-1] * size
    low = [0] * size
    comp = [-1] * size
    stack: list = []
    components: list = []
    seen = 0
    for root in range(size):
        if order[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, j = work.pop()
            if j == 0:
                order[v] = low[v] = seen
                seen += 1
                stack.append(v)
            edges = succ[v]
            while j < len(edges):
                u = edges[j][0]
                j += 1
                if order[u] < 0:
                    work += ((v, j), (u, 0))
                    break
                if comp[u] < 0:
                    low[v] = min(low[v], order[u])
            else:
                if low[v] == order[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        comp[members[-1]] = len(components)
                    components.append(members)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    def extend(inner: list, row: list) -> list:
        """Heaviest walks one edge longer than those of ``row``."""
        nxt = [None] * len(row)
        for x, dist in enumerate(row):
            if dist is not None:
                for y, w in inner[x]:
                    if nxt[y] is None or dist + w > nxt[y]:
                        nxt[y] = dist + w
        return nxt

    best: list = []  # per component: the largest mean reachable from it
    for cid, members in enumerate(components):
        k = len(members)
        pos = {v: i for i, v in enumerate(members)}
        inner = [[(pos[u], w) for u, w in succ[v] if comp[u] == cid] for v in members]
        top = None
        for v in members:
            for u, _ in succ[v]:
                if comp[u] != cid:
                    x, y = best[comp[u]]
                    if top is None or x * top[1] > top[0] * y:
                        top = (x, y)
        if any(inner):
            row = [0] + [None] * (k - 1)
            last = row
            for _ in range(k):
                last = extend(inner, last)
            worst: list = [None] * k
            for i in range(k):
                for x in range(k):
                    if last[x] is not None and row[x] is not None:
                        num, den = last[x] - row[x], k - i
                        if worst[x] is None or num * worst[x][1] < worst[x][0] * den:
                            worst[x] = (num, den)
                row = extend(inner, row)
            for mean in worst:
                if mean is not None and (top is None or mean[0] * top[1] > top[0] * mean[1]):
                    top = mean
        best.append(top)
    out = []
    for i, v in enumerate(verts):
        x, y = best[comp[i]]
        r = gcd(x, y)
        out.append((v, (sign * x // r, y // r)))
    return out
