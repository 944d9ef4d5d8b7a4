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

from bisect import bisect_left, bisect_right
from itertools import combinations

from .connectivity import (CutReport, augmentation_violations, cut_structures,
                           vertex_connectivity)
from .errors import ImpossibleError, InternalInvariantError, PreconditionError
from .geometry import _HALF_TURN, PointSet, _slope, cross, first_crossing, polygon_doubled_area
from .treeaug import build_cell_tree
from .triangulation import (Edge, Triangulation, TriangulationClass, classify,
                            complete_to_triangulation, edge_key, flip, is_flippable,
                            refilled)


def flip_pair_helper(t: Triangulation, u: int, v: int, w: int, v2: int) -> tuple[Triangulation, list[tuple[Edge, Edge]]]:
    """Flip edge uw, then whichever of u-v2, v2-w became flippable.

    Requires hull vertices u and w whose edge uw has the faces (u,v,w) and
    (u,v2,w), and u-v2 and v2-w not both hull edges.  Then uw is flippable,
    and after it becomes v-v2 so is u-v2 or v2-w (u-v2 preferred when both
    are; see README, Augmentation by leaf peels).  Returns the new
    triangulation and both (removed, added) pairs.
    """
    e_uw = edge_key(u, w)
    pos, hull_edges = t.ps.hull_positions(), t.ps.hull_edges()
    if pos[u] < 0 or pos[w] < 0:
        raise PreconditionError("u and w must be hull vertices")
    if e_uw not in t.edges or t.opposites(e_uw) != tuple(sorted((v, v2))):
        raise PreconditionError("triangles (u,v,w) and (u,v2,w) must be present")
    if edge_key(u, v2) in hull_edges and edge_key(v2, w) in hull_edges:
        raise PreconditionError("u-v2 and v2-w must not both be hull edges")
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
    center, labels = _maximal_sector(t, report)
    pos = t.ps.hull_positions()
    anchor = next((x for x in range(n) if pos[x] < 0 and x != center), None)
    if anchor is None:
        raise InternalInvariantError("no second interior vertex available")
    new_edges = _bichord_star(t, labels, anchor)
    pair = first_crossing(t.ps, sorted(new_edges))
    if pair is not None:
        raise InternalInvariantError(f"the bichord star from anchor {anchor} crosses itself at {pair}")
    return new_edges


def _maximal_sector(t: Triangulation, report: CutReport) -> tuple[int, list[int]]:
    """The centre of the bichord star, the interior bichord middle whose
    sector containing the smallest hull edge e0 has the largest area (then
    the smallest id), and its arm labels v1..vk clockwise from that sector's
    ccw boundary arm.

    A centre's arms are kept as sorted hull positions.  When e0 runs from
    position p0 to p0 + 1, its sector runs from the last arm at or before
    p0, cyclically, to the next arm."""
    ps, hull = t.ps, t.ps.hull()
    h, pos = len(hull), ps.hull_positions()
    arms: dict[int, set[int]] = {}
    for b in report.bichords:
        if pos[b.m] >= 0:
            raise InternalInvariantError("hull-middle bichord in a chordless triangulation")
        arms.setdefault(b.m, set()).update((pos[b.u], pos[b.w]))
    if not arms:
        raise InternalInvariantError("no bichords although every vertex is in a 3-cut")
    a, b = min(ps.hull_edges())
    p0 = pos[a] if (pos[a] + 1) % h == pos[b] else pos[b]

    def sector_labels(center: int) -> tuple[int, list[int]]:
        """Area of the sector of `center` containing e0, plus the arm labels
        clockwise starting at the e0 sector's ccw boundary arm."""
        arm_pos = sorted(arms[center])
        k = len(arm_pos)
        j = bisect_right(arm_pos, p0) - 1
        lo, hi = arm_pos[j], arm_pos[(j + 1) % k]
        rim = [hull[(lo + i) % h] for i in range((hi - lo) % h + 1)]
        area = abs(polygon_doubled_area(ps, [center] + rim))
        return area, [hull[arm_pos[(j - i) % k]] for i in range(k)]

    center = min(arms, key=lambda c: (-sector_labels(c)[0], c))
    _, labels = sector_labels(center)
    if len(labels) < 4:
        raise InternalInvariantError(f"maximal sector star has only {len(labels)} arms")
    return center, labels


def _bichord_star(t: Triangulation, labels: list[int], anchor: int) -> set[Edge]:
    """The edges absent from t that join the interior vertex `anchor` to the
    arm labels v2..v_{k-1} of the maximal sector, and each hull vertex on
    v_k's side of the sweep from v2 to v_{k-1} around the anchor to v2 or
    v_{k-1}, by the bisector test.  They never cross (see README,
    Verification)."""
    ps = t.ps
    k = len(labels)
    v2, vk1, vk = labels[1], labels[k - 2], labels[k - 1]
    new_edges: set[Edge] = {edge_key(anchor, lab) for lab in labels[1:k - 1]}
    for hv in t.ps.hull():
        if hv not in (v2, vk1) and (_in_ccw_sweep(ps, anchor, v2, vk1, hv)
                                    == _in_ccw_sweep(ps, anchor, v2, vk1, vk)):
            near = v2 if _closer_to_first_ray(*_rays(ps, anchor, v2, vk1, hv)) else vk1
            new_edges.add(edge_key(near, hv))
    return new_edges - t.edges


# ----------------------------------------------------------------------
# Case 2: triangulations with chords (induction over leaf cells)
# ----------------------------------------------------------------------

def _small_base(t: Triangulation) -> set[Edge]:
    """The first absent edges, in sorted order, that are pairwise noncrossing
    and make the union 4-connected: three on a convex hexagon, two on five
    points and on six points with two interior ones (see README,
    Verification)."""
    n = len(t.ps)
    size = 3 if len(t.ps.hull()) == 6 else 2
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in t.edges]
    for combo in combinations(absent, size):
        if (first_crossing(t.ps, combo) is None
                and vertex_connectivity(n, set(t.edges) | set(combo)) >= 4):
            return set(combo)
    raise InternalInvariantError(f"no {size} absent edges complete the {n}-point base")


def _hang_cell(t: Triangulation, chord: Edge, members: frozenset[int], idmap: list[int],
               below: Triangulation) -> tuple[Triangulation, set[Edge]]:
    """Put a peeled leaf cell back on t.  `below` is the greedy completion
    of the remainder's partner on the remainder's points; read into t's ids
    by the increasing `idmap` and glued to t's faces at the cell's inner
    vertices along the chord (`spliced`), it is the completion of the
    partner with the cell held, on t's points.  Then reinsert the apex v of the cell
    triangle (u, v, w) on the chord by the double flip, and hang the other
    inner vertices off the bisector split of v's two new neighbors.
    Returns the flipped triangulation and the bisector edges (see README,
    Augmentation by leaf peels)."""
    u, w = chord
    inner = members - set(chord)
    v = next(x for x in t.opposites(chord) if x in inner)
    t_full = t.spliced(idmap, below)
    vp = next(q for q in t_full.opposites(chord) if q != v)
    flipped, (_, (_, added2)) = flip_pair_helper(t_full, u, v, w, vp)
    x = next(q for q in added2 if q != v)
    hang = {edge_key(q, x if _closer_to_first_ray(*_rays(t.ps, v, x, vp, q)) else vp)
            for q in inner - {v}}
    return flipped, hang


def _first_hit(ps: PointSet, pivot: int, toward: int, points: list[int], sweep_ccw: bool) -> int:
    """The one of `points` that the line through `pivot` and `toward` meets
    first as it turns about the pivot, counterclockwise or clockwise: the
    least `_slope` gap from the line's, modulo `_HALF_TURN` and negated for
    the clockwise turn (see README, Verification)."""
    xs, ys = ps.xs, ps.ys
    cx, cy = xs[pivot], ys[pivot]
    line = _slope(xs[toward] - cx, ys[toward] - cy)
    turn = 1 if sweep_ccw else -1
    gaps = [turn * (_slope(xs[p] - cx, ys[p] - cy) - line) % _HALF_TURN for p in points]
    least = min(gaps)
    if least == 0:
        raise InternalInvariantError("cell point collinear with the rotation line")
    if gaps.count(least) > 1:
        raise InternalInvariantError("two cell points aligned with the pivot")
    return points[gaps.index(least)]


def _wheel_remainder_wiring(t: Triangulation, chord: Edge, members: frozenset[int]) -> set[Edge]:
    """The peeled remainder is a wheel.  A single inner vertex gets the star
    to every other vertex.  Otherwise join a rotated-first cell point to the
    rim vertices between the chord ends and join the rim vertex next to one
    chord end to the whole cell interior.  The rim is the remainder's hull:
    t's hull walked from w, away from the cell's arc, to u.  w's hull
    neighbour on the cell's side is an inner vertex of the cell, because a
    chord is never a hull edge."""
    u, w = chord
    cell_inner = sorted(members - {u, w})
    if len(cell_inner) == 1:
        v = cell_inner[0]
        return {edge_key(v, q) for q in range(len(t.ps)) if q != v} - set(t.edges)
    hull, pos = t.ps.hull(), t.ps.hull_positions()
    h, iw = len(hull), pos[w]
    step = -1 if hull[(iw + 1) % h] in members else 1
    vs = [hull[(iw + step * i) % h] for i in range(1, (step * (pos[u] - iw)) % h)]
    if len(vs) < 2:
        raise InternalInvariantError("wheel rim too short")
    v1 = vs[0]
    for sweep_ccw in (False, True):
        u_prime = _first_hit(t.ps, v1, u, cell_inner, sweep_ccw)
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
    ends the walk; the peeled cells are then hung back on, last peel first.
    One cell tree, in the input's ids, serves every level: `ids` maps each
    level's ids to the input's, and each peel deletes its leaf.  One greedy
    completion serves every hang: the base's, refilled at each level above
    where the level below changed it (see README, Augmentation by leaf
    peels)."""
    if not t.chords():
        return _augment_3connected(t, report if report is not None else cut_structures(t))
    levels = []
    tree, ids = build_cell_tree(t), list(range(len(t.ps)))
    while True:
        n = len(t.ps)
        if not tree.leaves:
            partner = _augment_3connected(t, cut_structures(t))
            break
        cands = sorted((leaf for leaf in tree.leaves if len(leaf.members) == 3),
                       key=lambda c: (min(c.inner_members), c.chord))
        if n == 5 or (n == 6 and (len(t.ps.hull()) == 6 or not cands)):
            partner = _small_base(t)
            break
        if not cands:
            cands = [min(tree.leaves, key=lambda c: (len(c.members), c.chord))]
        # a remainder keeps four points or more: a leftover triangle is a size-3 leaf
        for leaf in cands:
            idmap = [i for i, x in enumerate(ids) if x in leaf.chord or x not in leaf.members]
            t1 = t.restricted(idmap)
            cls = classify(t1)
            if cls is not TriangulationClass.FAN:
                break
        else:
            raise InternalInvariantError("every leaf removal yields a fan; the input should have been a fan")
        # the leaf in t's ids
        chord = (bisect_left(ids, leaf.chord[0]), bisect_left(ids, leaf.chord[1]))
        members = frozenset(bisect_left(ids, x) for x in leaf.members)
        if cls is TriangulationClass.WHEEL:
            partner = _wheel_remainder_wiring(t, chord, members)
            break
        levels.append((t, chord, members, idmap))
        tree.delete_leaf(leaf.cell)
        t, ids = t1, [ids[i] for i in idmap]
    if not levels:
        return partner
    below = complete_to_triangulation(t.ps, required=partner)
    for k, (t, chord, members, idmap) in enumerate(reversed(levels)):
        if k:
            below, _ = refilled(flipped, (edge_key(q, r) for q in inner for r in flipped.neighbors(q)),
                                prev, {e for e in hang if e not in flipped and e not in prev})
        flipped, hang = _hang_cell(t, chord, members, idmap, below)
        prev, inner = t, members - set(chord)
    return hang.union(flipped.edges)


def augment_to_4conn(t: Triangulation) -> frozenset[Edge]:
    """Noncrossing new edges E' with kappa(T union E') >= 4; wheels and fans
    are rejected (no plane second layer can 4-connect them)."""
    # every triangulation on four points, and every convex one on five, is
    # a wheel or a fan, so only a triangle is too small to classify
    if len(t.ps) < 4:
        raise PreconditionError("need n >= 6 in convex position or n >= 5 otherwise")
    cls = classify(t)
    if cls is TriangulationClass.WHEEL:
        raise ImpossibleError("a wheel plus any plane layer stays at most 3-connected")
    if cls is TriangulationClass.FAN:
        raise ImpossibleError("a fan plus any second layer stays at most 3-connected")
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
