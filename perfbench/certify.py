"""Independent checks of solver answers.

Nothing here imports ``mpg.zones`` or ``mpg.solver``: a threshold answer is
checked against the game's own edge lists, reweighted here.  A certificate is
the pair of regions, the potential and one strategy edge per owned vertex.
With potential-modified weights ``w' + phi(dst) - phi(src)`` it holds when

* the regions partition the vertices;
* in ``min_region`` every Min vertex has an edge of modified weight <= 0 into
  ``min_region`` and every Max vertex has only such edges (``max_region``
  dually, with >= 0);
* every strategy edge is such an edge, and each player has one exactly on
  the vertices it owns in its region.

The reweighted game ``(n+1)*w - 1`` (``+ 1`` in STRICT mode) has no zero
cycles, so every cycle Min can close inside ``min_region`` is negative and
every cycle Max closes inside ``max_region`` positive: each region is won by
its player.
"""

from __future__ import annotations

from fractions import Fraction

MIN = "MIN"
STRICT = "strict"


class CheckedGame:
    """Edge lists of one game, copied out of an ``mpg.game.Game``."""

    def __init__(self, g):
        self.n = g.n
        self.is_min = [o.value == MIN for o in g.owners]
        self.src = list(g.esrc)
        self.dst = list(g.edst)
        self.w = list(g.eweight)
        self.out = [[] for _ in range(self.n)]
        for e, s in enumerate(self.src):
            self.out[s].append(e)
        self.edge_keys = {(s, d, w) for s, d, w in zip(self.src, self.dst, self.w)}


def certificate_errors(cg: CheckedGame, mode: str, cert: dict) -> list:
    """Reasons the certificate fails on ``cg``; empty when it holds.

    ``cert`` holds ``min_region`` and ``max_region`` (vertex sets), ``potential``
    (one integer per vertex) and ``min_strategy``/``max_strategy`` mapping a
    vertex to the ``(dst, weight)`` of its chosen edge, weight as in ``cg``.
    """
    n = cg.n
    mn, mx, phi = set(cert["min_region"]), set(cert["max_region"]), cert["potential"]
    errors = []
    if mn & mx or len(mn) + len(mx) != n or not (mn | mx) <= set(range(n)):
        return ["regions do not partition the vertices"]
    if len(phi) != n:
        return ["potential does not label every vertex"]
    mult = n + 1
    shift = 1 if mode == STRICT else -1
    mod = [mult * w + shift + phi[d] - phi[s] for s, d, w in zip(cg.src, cg.dst, cg.w)]
    for v in range(n):
        in_min = v in mn
        region = mn if in_min else mx
        good = [
            (mod[e] <= 0 if in_min else mod[e] >= 0) and cg.dst[e] in region
            for e in cg.out[v]
        ]
        chooser = cg.is_min[v] == in_min
        if not (any(good) if chooser else all(good)):
            errors.append(f"vertex {v} is not held by its region's player")
    for strat, region, want_min in (
        (cert["min_strategy"], mn, True),
        (cert["max_strategy"], mx, False),
    ):
        owned = {v for v in region if cg.is_min[v] == want_min}
        if set(strat) != owned:
            errors.append("a strategy does not cover exactly its player's region vertices")
            continue
        for v, (d, w) in strat.items():
            if (v, d, w) not in cg.edge_keys:
                errors.append(f"strategy edge {v}->{d} is not an edge")
                continue
            m = mult * w + shift + phi[d] - phi[v]
            if d not in region or (m > 0 if want_min else m < 0):
                errors.append(f"strategy edge {v}->{d} leaves or breaks the region")
    return errors


def library_certificate(g, res) -> dict:
    """Certificate of an ``mpg`` ``SolveResult`` in the form checked above."""

    def edges(strat):
        return {v: (g.edst[e], g.eweight[e]) for v, e in strat.items()}

    return {
        "min_region": res.min_region,
        "max_region": res.max_region,
        "potential": [res.potential[v] for v in range(g.n)],
        "min_strategy": edges(res.min_strategy),
        "max_strategy": edges(res.max_strategy),
    }


def self_check(cg: CheckedGame, mode: str, cert: dict) -> list:
    """Corrupt a passing certificate twice; return what the checker missed.

    A flipped vertex moves to the other region with the strategies patched to
    match, so only the potential conditions can reject it.  A perturbed
    potential raises phi at the head of a strategy edge until that edge's
    modified weight has the wrong sign.
    """
    missed = []
    mn, mx = set(cert["min_region"]), set(cert["max_region"])
    v = min(mn) if mn else min(mx)
    to_min = v not in mn
    flipped = dict(cert, min_strategy=dict(cert["min_strategy"]), max_strategy=dict(cert["max_strategy"]))
    flipped["min_region"], flipped["max_region"] = (mn | {v}, mx - {v}) if to_min else (mn - {v}, mx | {v})
    old, new = ("max_strategy", "min_strategy") if to_min else ("min_strategy", "max_strategy")
    flipped[old].pop(v, None)
    if cg.is_min[v] == to_min:
        e = cg.out[v][0]
        flipped[new][v] = (cg.dst[e], cg.w[e])
    if not certificate_errors(cg, mode, flipped):
        missed.append(f"the checker accepted a flipped vertex {v}")
    shift = 1 if mode == STRICT else -1
    for name, sign in (("min_strategy", 1), ("max_strategy", -1)):
        for u, (d, w) in sorted(cert[name].items()):
            if u == d:
                continue
            phi = list(cert["potential"])
            m = (cg.n + 1) * w + shift + phi[d] - phi[u]
            phi[d] += sign * (abs(m) + 1)
            if not certificate_errors(cg, mode, dict(cert, potential=phi)):
                missed.append(f"the checker accepted a perturbed potential at {d}")
            return missed
    missed.append("no strategy edge to perturb")
    return missed


def value_errors(g, values: dict, solve) -> list:
    """Check exact values without a stored answer.

    Each value must be a fraction with denominator <= n and magnitude <= W.
    For each distinct value c = p/q, ``solve(game, strict)`` must certify
    that the game reweighted ``q*w - p`` puts c's vertices in the WEAK
    ``min_region`` (value <= c) and in the STRICT ``max_region`` (value >= c).
    """
    n = g.n
    if set(values) != set(range(n)):
        return ["values do not cover every vertex"]
    errors = [
        f"vertex {v}: {x!r} is not a fraction with denominator <= n and |x| <= W"
        for v, x in values.items()
        if not isinstance(x, Fraction) or x.denominator > n or abs(x) > g.W
    ]
    if errors:
        return errors
    for c in sorted(set(values.values())):
        verts = {v for v, x in values.items() if x == c}
        scaled = g.with_weights([c.denominator * w - c.numerator for w in g.eweight])
        cg = CheckedGame(scaled)
        for strict in (False, True):
            mode = STRICT if strict else "weak"
            res = solve(scaled, strict)
            cert = library_certificate(scaled, res)
            errors += [f"value {c} {mode}: {err}" for err in certificate_errors(cg, mode, cert)]
            side = cert["max_region"] if strict else cert["min_region"]
            if not verts <= set(side):
                errors.append(f"value {c}: {mode} threshold puts a vertex of value {c} on the wrong side")
    return errors
