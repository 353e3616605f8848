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
from typing import Callable, Iterable, Mapping

from .backtracking import (
    SolverInternalError,
    _attract_max_core,
    _backtrack_core,
    _good_escape_core,
    safe_init,
)
from .game import (
    Game,
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
      ``recursive_calls - potential_reductions``.
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


@dataclass(frozen=True)
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

    Yields child games to solve; returns either ``(None, values)`` when every
    vertex got a finite peak value (caller relabels and restarts) or
    ``((min, max, phi), None)`` when an attractor ended the call.
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
        if cheap:
            rest_set = set(rest)
            for v in rest:
                if not any(edst[e] in rest_set for e in out[v]):
                    raise SolverInternalError("remainder is not a subgame")
        sub = restrict(gl, rest)
        if cfg.remember_potentials and pred_phi is not None:
            pre = [pred_phi[pv] for pv in rest]
            solve_game = sub.with_weights(
                [sub.eweight[e] + pre[sub.edst[e]] - pre[sub.esrc[e]] for e in range(sub.m)]
            )
        else:
            pre = None
            solve_game = sub
        hm, hp, hphi = yield solve_game
        if pre is not None:
            hphi = [x + y for x, y in zip(hphi, pre)]
        if pred_phi is None:
            pred_phi = [0] * n
        for i, pv in enumerate(rest):
            pred_phi[pv] = hphi[i]
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
                g2 = restrict(gl, keep)
                m2, p2, phi2 = yield g2
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


def _frame(g: Game, cfg: SolverConfig, stats: Stats, depth: int, hook):
    """One recursion level; yields child games, returns (min, max, phi) lists."""
    stats.recursive_calls += 1
    cheap = cfg.assertions >= AssertLevel.CHEAP
    full = cfg.assertions >= AssertLevel.FULL
    n = g.n
    acc = [0] * n
    shrink_guard = None
    restarts = 0
    while True:
        zones = compute_zones(g)
        if shrink_guard is not None and cheap:
            if not (zones.N | zones.P) <= shrink_guard:
                raise SolverInternalError(
                    "zones failed to shrink into the relabeled zone"
                )
        if is_reduced(g, zones):
            zn = zones.ZN
            mn = [v in zn for v in range(n)]
            mx = [not x for x in mn]
            return mn, mx, acc
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
            shrink_guard = zl.N
            stats.potential_reductions += 1
            stats.recursive_calls += 1
            continue
        mn, mx, phi = outcome
        if flip:
            mn, mx, phi = mx, mn, [-x for x in phi]
        if full:
            _assert_certificate(g, mn, mx, phi)
        return mn, mx, [a + p for a, p in zip(acc, phi)]


def _drive(g: Game, cfg: SolverConfig, stats: Stats, limit: int, hook):
    stack = [_frame(g, cfg, stats, 0, hook)]
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


def glue_delta(
    g: Game,
    gprime: Iterable,
    a: Iterable,
    phi_a: Mapping,
    phi_prime: Mapping,
) -> int:
    """Shift added to the attractor potential so both halves glue soundly.

    With A a Min trap carrying a positively reducing potential and the rest a
    Max trap with its own reducing potential, shifting the attractor side by
    the returned delta makes every crossing edge's modified weight >= 0, so
    the combined labeling reduces the whole game.  Games without crossing
    edges need no shift.
    """
    a_set = set(a)
    g_set = set(gprime)
    if a_set & g_set or (a_set | g_set) != set(range(g.n)):
        raise ValueError("gprime and a must partition the game's vertices")
    min_w = None
    for e in range(g.m):
        if g.esrc[e] in g_set and g.edst[e] in a_set:
            if min_w is None or g.eweight[e] < min_w:
                min_w = g.eweight[e]
    if min_w is None:
        return 0
    return (
        -min_w
        - min(phi_a.get(v, 0) for v in a_set)
        + max(phi_prime.get(v, 0) for v in g_set)
    )


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
    """Exact per-vertex values via threshold dichotomy on scaled games.

    Testing "value <= p/q" solves the WEAK threshold problem on the same
    structure with weights q*w - p.  An integer bisection brackets each value
    in (c-1, c]; one STRICT solve of w - c then settles every vertex whose
    value is exactly c.  The rest descend the Stern-Brocot tree.  Inside a
    bracket (a/b, c/d] of Farey neighbours, the next-level fractions with
    denominator <= n form one sorted chain

        (k*a+c)/(k*b+d) for k = K_L..2,  (a+c)/(b+d),  (a+k*c)/(b+k*d) for k = 2..K_R,

    whose consecutive members are again Farey neighbours.  Each vertex's link
    in the chain is found by galloping out from the mediant (steps of 1, 2,
    4, ...) and then bisecting, so a run of k mediants costs O(log k) probes
    instead of k.  A link whose own mediant has denominator > n contains one
    fraction of denominator <= n, its upper end, which is the value.
    """
    cfg = cfg or SolverConfig()
    n = g.n
    if n == 0:
        return ValueResult({})
    w_bound = g.W

    def probe(p: int, q: int, mode: ThresholdMode) -> SolveResult:
        scaled = g.with_weights([q * w - p for w in g.eweight])
        return solve_threshold(scaled, replace(cfg, threshold_mode=mode))

    def split(verts: tuple, inside: frozenset) -> tuple:
        return (
            tuple(v for v in verts if v in inside),
            tuple(v for v in verts if v not in inside),
        )

    values: dict = {}
    # A search is (vertices, a, b, c, d, lo, hi, step): the values lie in
    # (x(lo), x(hi)] for positions of the chain of bracket (a/b, c/d], where
    # position -K_L is a/b, 0 the mediant and K_R is c/d.  ``step`` is 0 to
    # probe the mediant next, +s or -s to gallop right or left by s, and None
    # to bisect.
    searches = []

    def descend(verts: tuple, a: int, b: int, c: int, d: int, top: int = 0) -> None:
        """Search (a/b, c/d], leaving out the ``top`` highest chain positions."""
        if b + d > n:
            value = Fraction(c, d)
            for v in verts:
                values[v] = value
        else:
            searches.append((verts, a, b, c, d, -((n - d) // b), (n - b) // d - top, 0))

    # Integer phase: smallest integer c with value <= c, per group of vertices.
    groups = [(tuple(range(n)), -w_bound - 1, w_bound)]
    while groups:
        verts, lo, hi = groups.pop()
        if hi - lo > 1:
            mid = (lo + hi) // 2
            left, right = split(verts, probe(mid, 1, ThresholdMode.WEAK).min_region)
            if left:
                groups.append((left, lo, mid))
            if right:
                groups.append((right, mid, hi))
        else:
            # STRICT puts value-hi vertices on the Max side of w - hi.
            exact, rest = split(verts, probe(hi, 1, ThresholdMode.STRICT).max_region)
            value = Fraction(hi)
            for v in exact:
                values[v] = value
            if rest:
                # Below hi with denominator <= n means at most hi - 1/n, the
                # chain position just under hi.
                descend(rest, lo, 1, hi, 1, top=1)
    while searches:
        verts, a, b, c, d, lo, hi, step = searches.pop()
        if hi - lo == 1:
            descend(verts, *_chain_at(a, b, c, d, n, lo), *_chain_at(a, b, c, d, n, hi))
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
        inside = probe(*_chain_at(a, b, c, d, n, t), ThresholdMode.WEAK).min_region
        left, right = split(verts, inside)
        if left:
            searches.append((left, a, b, c, d, lo, t, lstep))
        if right:
            searches.append((right, a, b, c, d, t, hi, rstep))
    return ValueResult(values)


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
