"""Augmenting a triangulation with a plane graph to reach 4-connectivity.

Wheels and fans are provably non-augmentable and rejected.  3-connected
inputs get a star or the bichord-star construction.  Inputs with chords are
handled by one loop over leaf cells of the chord decomposition.  Walking
down, each step peels a leaf cell, dropping its inner vertices, until the
remainder is chordless, a wheel or a small base (five and six points: the
first noncrossing set of absent edges that makes the union 4-connected).
Walking back up, each peeled cell is hung on again: its triangle's apex by a
double flip, its other inner vertices off a bisector split.
"""
from __future__ import annotations

from itertools import combinations

from .connectivity import (CutReport, augmentation_violations, cut_structures,
                           vertex_connectivity)
from .errors import ImpossibleError, InternalInvariantError, PreconditionError
from .geometry import PointSet, cross, first_crossing, polygon_doubled_area
from .treeaug import build_cell_tree
from .triangulation import (Edge, Triangulation, TriangulationClass, classify,
                            complete_to_triangulation, edge_key, flip,
                            is_flippable, triangle_key)


def flip_pair_helper(t: Triangulation, u: int, v: int, w: int, v2: int) -> tuple[Triangulation, list[tuple[Edge, Edge]]]:
    """Flip edge uw, then whichever of u-v2, v2-w became flippable.

    Requires u, v, w consecutive hull vertices with empty triangles (u,v,w)
    and (u,v2,w) present; uw is then always flippable, and after replacing it
    by v-v2 one of the two candidate edges is flippable (u-v2 preferred when
    both are).  Returns the new triangulation and both (removed, added) pairs.
    """
    if len(t.ps) < 5:
        raise PreconditionError("the double flip requires n >= 5")
    hull = list(t.hull)
    h = len(hull)
    iv = hull.index(v) if v in hull else -1
    if iv < 0 or {hull[(iv - 1) % h], hull[(iv + 1) % h]} != {u, w}:
        raise PreconditionError("u, v, w must be consecutive hull vertices")
    if triangle_key(u, v, w) not in t.triangles or triangle_key(u, v2, w) not in t.triangles:
        raise PreconditionError("triangles (u,v,w) and (u,v2,w) must be present")
    e_uw = edge_key(u, w)
    if not is_flippable(t, e_uw):
        raise InternalInvariantError("edge uw is not flippable")
    t1 = flip(t, e_uw)
    first = (e_uw, edge_key(v, v2))
    for cand in (edge_key(u, v2), edge_key(v2, w)):
        if is_flippable(t1, cand):
            a, b = t1.opposites(cand)
            t2 = flip(t1, cand)
            return t2, [first, (cand, edge_key(a, b))]
    raise InternalInvariantError("neither u-v2 nor v2-w is flippable after the first flip")


# ----------------------------------------------------------------------
# Exact wedge tests (for the bisector splits)
# ----------------------------------------------------------------------

def _in_ccw_sweep(ps: PointSet, center: int, a: int, b: int, q: int) -> bool:
    """Is direction center->q strictly inside the ccw sweep from center->a to
    center->b?"""
    ca = cross(ps, center, a, q)
    cb = cross(ps, center, q, b)
    if cross(ps, center, a, b) > 0:
        return ca > 0 and cb > 0
    return ca > 0 or cb > 0


def _rays(ps: PointSet, center: int, p1: int, p2: int, q: int) -> tuple[int, ...]:
    """The vectors from vertex `center` to p1, p2 and q, flattened, as
    `_closer_to_first_ray` takes them."""
    xs, ys = ps.xs, ps.ys
    cx, cy = xs[center], ys[center]
    return (xs[p1] - cx, ys[p1] - cy, xs[p2] - cx, ys[p2] - cy, xs[q] - cx, ys[q] - cy)


def _closer_to_first_ray(ax: int, ay: int, bx: int, by: int, dx: int, dy: int) -> bool:
    """For a direction d = (dx, dy) inside one of the wedges bounded by the
    rays along a = (ax, ay) and b = (bx, by): is d's rotation distance from a
    at most its distance from b (the angle bisector side test; ties go to the
    a side)?

    Both wedges are bisected by the line along a/|a| + b/|b|, and d lies on
    a's side of it exactly when cross(a, b) * (cross(d, a) |b| +
    cross(d, b) |a|) >= 0.  The sign of the bracket is exact: it is the
    common sign of its terms, or else the sign of the term whose square is
    larger (see README, Verification).
    """
    da, db = dx * ay - dy * ax, dx * by - dy * bx
    if da == 0 or db == 0:
        raise InternalInvariantError("query direction coincides with a wedge boundary")
    if (da > 0) == (db > 0):
        side = da
    else:
        side = da * da * (bx * bx + by * by) - db * db * (ax * ax + ay * ay)
        if da < 0:
            side = -side
    return (ax * by - ay * bx) * side >= 0


# ----------------------------------------------------------------------
# Case 1: 3-connected triangulations (no chords)
# ----------------------------------------------------------------------

def _augment_3connected(t: Triangulation, report: CutReport) -> set[Edge]:
    n = len(t.ps)
    in_cut = {v for triple in report.cut_triples() for v in triple}
    free = [v for v in range(n) if v not in in_cut]
    if free:
        v = free[0]
        return {edge_key(v, u) for u in range(n) if u != v} - set(t.edges)
    if report.separating_triangles:
        raise InternalInvariantError("every-vertex-in-a-cut inputs cannot have separating triangles")
    hull = list(t.hull)
    hullset = set(hull)
    arms: dict[int, set[int]] = {}
    for b in report.bichords:
        if b.m in hullset:
            raise InternalInvariantError("hull-middle bichord in a chordless triangulation")
        arms.setdefault(b.m, set()).update((b.u, b.w))
    if not arms:
        raise InternalInvariantError("no bichords although every vertex is in a 3-cut")
    e0 = min(edge_key(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))

    def sector_labels(center: int) -> tuple[int, list[int]]:
        """Area of the sector of `center` containing e0, plus the arm labels
        clockwise starting at the e0 sector's ccw boundary arm."""
        h = len(hull)
        arm_pos = sorted(hull.index(a) for a in arms[center])
        k = len(arm_pos)
        iu, iv = hull.index(e0[0]), hull.index(e0[1])
        for j in range(k):
            lo, hi = arm_pos[j], arm_pos[(j + 1) % k]
            span = [lo]
            pos = lo
            while pos != hi:
                pos = (pos + 1) % h
                span.append(pos)
            if iu in span and iv in span:
                area = abs(polygon_doubled_area(t.ps, [center] + [hull[p] for p in span]))
                labels = [hull[arm_pos[(j - i) % k]] for i in range(k)]
                return area, labels
        raise InternalInvariantError("hull edge lies in no sector")

    center = min(arms, key=lambda c: (-sector_labels(c)[0], c))
    _, labels = sector_labels(center)
    k = len(labels)
    if k < 4:
        raise InternalInvariantError(f"maximal sector star has only {k} arms")
    v2, vk1, vk = labels[1], labels[k - 2], labels[k - 1]
    interior = [x for x in range(n) if x not in hullset and x != center]
    if not interior:
        raise InternalInvariantError("no second interior vertex available")
    ps = t.ps
    last_bad: set[Edge] | None = None
    for v_prime in interior:
        new_edges: set[Edge] = {edge_key(v_prime, lab) for lab in labels[1:k - 1]}
        for hv in hull:
            if hv in (v2, vk1):
                continue
            ok_side = (_in_ccw_sweep(ps, v_prime, v2, vk1, hv)
                       == _in_ccw_sweep(ps, v_prime, v2, vk1, vk))
            if not ok_side:
                continue
            if _closer_to_first_ray(*_rays(ps, v_prime, v2, vk1, hv)):
                new_edges.add(edge_key(v2, hv))
            else:
                new_edges.add(edge_key(vk1, hv))
        new_edges -= set(t.edges)
        if first_crossing(ps, sorted(new_edges)) is None:
            return new_edges
        last_bad = new_edges
    raise InternalInvariantError(
        f"no interior anchor yields a plane star construction (last tried {sorted(last_bad or ())})")


# ----------------------------------------------------------------------
# Case 2: triangulations with chords (induction over leaf cells)
# ----------------------------------------------------------------------

def _sub_triangulation(t: Triangulation, keep: list[int]) -> tuple[Triangulation, list[int]]:
    """Induced triangulation on the kept vertices; sub->parent id map."""
    keep = sorted(keep)
    to_sub = {old: new for new, old in enumerate(keep)}
    ps = t.ps.subset(keep)
    tris = [tuple(to_sub[x] for x in tri) for tri in t.triangles
            if all(x in to_sub for x in tri)]
    return Triangulation(ps, tris), keep


def _small_base(t: Triangulation, size: int) -> set[Edge]:
    """The first `size` absent edges, in sorted order, that are pairwise
    noncrossing and make the union 4-connected: two on five points and on six
    points with two interior ones, three on a convex hexagon (see README,
    Verification)."""
    n = len(t.ps)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in t.edges]
    for combo in combinations(absent, size):
        if (first_crossing(t.ps, combo) is None
                and vertex_connectivity(n, set(t.edges) | set(combo)) >= 4):
            return set(combo)
    raise InternalInvariantError(f"no {size} absent edges complete the {n}-point base")


def _hang_cell(t: Triangulation, chord: Edge, members: frozenset[int], t1: Triangulation,
               idmap: list[int], partner: set[Edge]) -> set[Edge]:
    """Put a peeled leaf cell back: complete the remainder t1's partner to a
    triangulation, add the cell triangle (u, v, w) on the chord, reinsert its
    apex v by the double flip, and hang the other inner vertices off the
    bisector split of v's two new neighbors."""
    u, w = chord
    v = next(x for x in t.opposites(chord) if x in members and x not in chord)
    t2 = complete_to_triangulation(t1.ps, required=partner)
    local_ids = sorted(idmap + [v])
    to_local = {old: i for i, old in enumerate(local_ids)}
    # one inner vertex: the remainder plus v is all of t, so reuse its points
    # and their cached hull instead of building and checking a subset
    ps = t.ps if len(members) == 3 else t.ps.subset(local_ids)
    lu, lv, lw = to_local[u], to_local[v], to_local[w]
    tris = {tuple(to_local[idmap[q]] for q in tri) for tri in t2.triangles}
    t_full = Triangulation(ps, tris | {triangle_key(lu, lv, lw)})
    vp = next(q for q in t_full.opposites(edge_key(lu, lw)) if q != lv)
    flipped, ((_, added1), (_, added2)) = flip_pair_helper(t_full, lu, lv, lw, vp)
    if added1 != edge_key(lv, vp):
        raise InternalInvariantError("first flip did not create the spoke to the apex")
    v_prime, x = local_ids[vp], local_ids[next(q for q in added2 if q != lv)]
    edges = {edge_key(local_ids[a], local_ids[b]) for (a, b) in flipped.edges}
    for q in sorted(members - {u, v, w}):
        near = x if _closer_to_first_ray(*_rays(t.ps, v, x, v_prime, q)) else v_prime
        edges.add(edge_key(q, near))
    return edges - set(t.edges)


def _wheel_remainder_wiring(t: Triangulation, chord: Edge, members: frozenset[int],
                            t1: Triangulation, idmap: list[int]) -> set[Edge]:
    """The peeled remainder is a wheel.  A single inner vertex gets the star
    to every other vertex.  Otherwise join a rotated-first cell point to the
    rim vertices between the chord ends and join the rim vertex next to one
    chord end to the whole cell interior."""
    u, w = chord
    cell_inner = sorted(members - {u, w})
    if len(cell_inner) == 1:
        v = cell_inner[0]
        return {edge_key(v, q) for q in range(len(t.ps)) if q != v} - set(t.edges)
    rim_sub = list(t1.hull)
    rim = [idmap[i] for i in rim_sub]
    iw = rim.index(w)
    if rim[(iw + 1) % len(rim)] == u:
        order = [rim[(iw - k) % len(rim)] for k in range(len(rim))]
    else:
        order = [rim[(iw + k) % len(rim)] for k in range(len(rim))]
    if order[0] != w or order[-1] != u:
        raise InternalInvariantError("wheel rim does not run from w to u")
    vs = order[1:-1]
    if len(vs) < 2:
        raise InternalInvariantError("wheel rim too short")
    v1 = vs[0]
    xs, ys = t.ps.xs, t.ps.ys

    def first_hit(pivot: int, toward: int, sweep_ccw: bool) -> int:
        """Cell point first hit when rotating the line pivot-toward: each
        direction is flipped to the swept side of the line, and the first one
        in the sweep wins."""
        cx, cy = xs[pivot], ys[pivot]
        bx, by = xs[toward] - cx, ys[toward] - cy
        turn = 1 if sweep_ccw else -1
        best, best_x, best_y = -1, 0, 0
        for p in cell_inner:
            dx, dy = xs[p] - cx, ys[p] - cy
            cr = bx * dy - by * dx
            if cr == 0:
                raise InternalInvariantError("cell point collinear with the rotation line")
            if (cr > 0) != sweep_ccw:
                dx, dy = -dx, -dy
            order = turn * (dx * best_y - dy * best_x)
            if best >= 0 and order == 0:
                raise InternalInvariantError("two cell points aligned with the pivot")
            if best < 0 or order > 0:
                best, best_x, best_y = p, dx, dy
        return best

    for sweep_ccw in (False, True):
        u_prime = first_hit(v1, u, sweep_ccw)
        new_edges = {edge_key(u_prime, vj) for vj in vs}
        new_edges |= {edge_key(v1, q) for q in cell_inner}
        new_edges -= set(t.edges)
        if first_crossing(t.ps, sorted(new_edges)) is None:
            return new_edges
    raise InternalInvariantError("wheel-remainder wiring crosses itself in both sweeps")


def _plane_partner(t: Triangulation, report: CutReport | None = None) -> set[Edge]:
    """Plane edge set (possibly sharing edges with t) whose union with t is
    4-connected.  `report` is cut_structures(t) when the caller has it.

    Walks down: while t has chords and is no small base, peel a leaf cell
    (the size-3 cells by (private vertex, chord), else the smallest cell by
    (size, chord)), skipping cells whose removal leaves a fan, and go on with
    the remainder.  A chordless remainder, a small base or a wheel remainder
    ends the walk; the peeled cells are then hung back on, last peel first."""
    levels = []
    while True:
        n = len(t.ps)
        if not t.chords():
            partner = _augment_3connected(t, report if report is not None else cut_structures(t))
            break
        if n == 5 or (n == 6 and len(t.hull) == 6):
            partner = _small_base(t, n - 3)
            break
        leaves = build_cell_tree(t).leaves
        cands = sorted((min(leaf.inner_members), leaf.chord, leaf.members)
                       for leaf in leaves if len(leaf.members) == 3)
        if not cands and n == 6:
            partner = _small_base(t, 2)
            break
        if not cands:
            leaf = min(leaves, key=lambda c: (len(c.members), c.chord))
            cands = [(0, leaf.chord, leaf.members)]
        # a remainder keeps four points or more: a leftover triangle is a size-3 leaf
        for _, chord, members in cands:
            t1, idmap = _sub_triangulation(t, [x for x in range(n) if x in chord or x not in members])
            cls = classify(t1)
            if cls is not TriangulationClass.FAN:
                break
        else:
            raise InternalInvariantError("every leaf removal yields a fan; the input should have been a fan")
        if cls is TriangulationClass.WHEEL:
            partner = _wheel_remainder_wiring(t, chord, members, t1, idmap)
            break
        levels.append((t, chord, members, t1, idmap))
        t, report = t1, None
    for level in reversed(levels):
        partner = _hang_cell(*level, partner)
    return partner


def augment_to_4conn(t: Triangulation) -> frozenset[Edge]:
    """Noncrossing new edges E' with kappa(T union E') >= 4; wheels and fans
    are rejected (no plane second layer can 4-connect them)."""
    n = len(t.ps)
    convex = len(t.hull) == n
    if n >= 4:
        cls = classify(t)
        if cls is TriangulationClass.WHEEL:
            raise ImpossibleError("a wheel plus any plane layer stays at most 3-connected")
        if cls is TriangulationClass.FAN:
            raise ImpossibleError("a fan plus any second layer stays at most 3-connected")
    if (convex and n < 6) or n < 5:
        raise PreconditionError("need n >= 6 in convex position or n >= 5 otherwise")
    report = cut_structures(t)
    partner = _plane_partner(t, report)
    new_edges = frozenset(e for e in partner if e not in t.edges)
    if first_crossing(t.ps, sorted(new_edges)) is not None:
        raise InternalInvariantError("augmentation edges cross each other")
    violations = augmentation_violations(t, new_edges, report)
    if violations:
        raise InternalInvariantError("augmentation violates crossing conditions: "
                                     + "; ".join(violations))
    return new_edges
