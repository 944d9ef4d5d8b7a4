"""Growing a 5-connected biplane graph from a convex core.

Interior points enter through a triangle split plus at most two degree-raising
edge flips; hull points enter through visibility assignment (Hall matching on
hull edges in the surrounding case, treatable chains otherwise); exterior
points are inserted in reverse hull-peeling order.  Saturation to a union of
two triangulations uses tracked dummy edges that are deleted afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .connectivity import layer_crossing, verify_layering
from .convex import build_5conn_convex
from .errors import InternalInvariantError, PreconditionError
from .geometry import (Point, PointSet, convex_hull, cross,
                       max_convex_subset_indices, point_strictly_inside_hull,
                       polygon_doubled_area, segments_properly_cross,
                       visible_hull_edges)
from .layered import BOTH, LAYER1, LAYER2, LayeredGraph
from .triangulation import (Edge, Triangulation, complete_to_triangulation,
                            edge_key, flip, is_flippable, triangle_key)

#: Every point set at least this large contains 14 points in convex position,
#: so the general construction below always applies (binomial(23, 12) + 1).
MIN_POINTS_GUARANTEEING_14_CONVEX = 1352079


@dataclass
class InsertionState:
    """Carries the current verified biplane graph between insertions.

    dummy_edges is only nonempty while an insertion step is in progress; the
    public operations always return states without dummies.
    """

    current: LayeredGraph
    dummy_edges: frozenset[Edge] = field(default_factory=frozenset)


def _saturate(g: LayeredGraph) -> tuple[Triangulation, Triangulation, frozenset[Edge]]:
    """Complete both layers to triangulations; report the added dummy edges."""
    t1 = complete_to_triangulation(g.ps, required=g.layer_edges(LAYER1))
    t2 = complete_to_triangulation(g.ps, required=g.layer_edges(LAYER2), avoid=t1.edges)
    dummies = frozenset((t1.edges | t2.edges) - g.edges())
    return t1, t2, dummies


def _tags_from(t1: Triangulation, t2: Triangulation) -> dict[Edge, int]:
    tags: dict[Edge, int] = {}
    for e in t1.edges:
        tags[e] = BOTH if e in t2.edges else LAYER1
    for e in t2.edges:
        tags.setdefault(e, LAYER2)
    return tags


def _insert_vertex(t: Triangulation, new_ps: PointSet, s: int) -> tuple[Triangulation, tuple[int, int, int]]:
    """Split the triangle containing new point s into three."""
    tri = t.locate(new_ps[s])
    tris = set(t.triangles)
    tris.discard(tri)
    a, b, c = tri
    tris |= {triangle_key(s, a, b), triangle_key(s, b, c), triangle_key(s, a, c)}
    return Triangulation(new_ps, tris), tri


def find_flippable_opposite(t: Triangulation, s: int) -> tuple[tuple[int, int, int], Edge]:
    """Triangle incident to interior vertex s whose opposite edge is flippable.

    Walks the link of s counterclockwise from a hull neighbor whose following
    link edge is interior, advancing past reflex quadrilaterals; the first
    flippable opposite edge is returned (exists for every non-wheel input).
    """
    n = len(t.ps)
    hullset = set(t.hull)
    if s in hullset:
        raise PreconditionError("s must be an interior vertex")
    if n >= 4:
        interior = [v for v in range(n) if v not in hullset]
        if interior == [s] and t.degree(s) == n - 1:
            raise PreconditionError("the wheel admits no flippable opposite edge")
    if not t.link_is_cycle(s):
        raise PreconditionError("the neighbors of s must induce a cycle")
    ring = t.link_cycle(s)
    k = len(ring)
    hull_edges = t.hull_edges()
    starts = [i for i in range(k)
              if ring[i] in hullset and edge_key(ring[i], ring[(i + 1) % k]) not in hull_edges]
    if not starts:
        raise PreconditionError("s has no hull neighbor starting an interior link edge")
    start = min(starts, key=lambda i: ring[i])
    for step in range(k):
        i = (start + step) % k
        e = edge_key(ring[i], ring[(i + 1) % k])
        if e in hull_edges:
            raise InternalInvariantError("link walk reached a hull edge before a flippable one")
        if is_flippable(t, e):
            return (triangle_key(s, *e), e)
    raise InternalInvariantError("link walk found no flippable opposite edge")


def _far_apex(t: Triangulation, e: Edge, s: int) -> int:
    a, b = t.opposites(e)
    return b if a == s else a


def _cycle_flip(ta: Triangulation, tb: Triangulation, s: int) -> Edge | None:
    """Link-cycle edge of s flippable in ta, present in tb, whose flip gives s
    a neighbor that is new to the union."""
    ring = ta.link_cycle(s)
    k = len(ring)
    union_nbrs = ta.neighbors(s) | tb.neighbors(s)
    candidates = []
    for i in range(k):
        e = edge_key(ring[i], ring[(i + 1) % k])
        if e in tb.edges and is_flippable(ta, e) and _far_apex(ta, e, s) not in union_nbrs:
            candidates.append(e)
    return min(candidates) if candidates else None


def _raise_degree_to_five(t1: Triangulation, t2: Triangulation, s: int) -> tuple[Triangulation, Triangulation]:
    """Case analysis on the distinct corner count of the two triangles that
    received s; after it the union degree of s is at least 5."""

    def union_nbrs() -> frozenset[int]:
        return t1.neighbors(s) | t2.neighbors(s)

    corners = len(union_nbrs())
    if corners >= 5:
        return t1, t2
    if corners == 4:
        _, e1 = find_flippable_opposite(t1, s)
        _, e2 = find_flippable_opposite(t2, s)
        if _far_apex(t1, e1, s) not in union_nbrs():
            return flip(t1, e1), t2
        if _far_apex(t2, e2, s) not in union_nbrs():
            return t1, flip(t2, e2)
        # the shared 4-cycle case: one flip frees a flippable cycle edge that
        # stays present in the other triangulation
        t1b = flip(t1, e1)
        e_hat = _cycle_flip(t1b, t2, s)
        if e_hat is None:
            t2b = flip(t2, e2)
            e_hat = _cycle_flip(t2b, t1, s)
            if e_hat is None:
                raise InternalInvariantError("no flippable edge on the shared 4-cycle")
            return t1, flip(t2b, e_hat)
        return flip(t1b, e_hat), t2
    if corners != 3:
        raise InternalInvariantError(f"unexpected corner count {corners}")
    _, e1 = find_flippable_opposite(t1, s)
    _, e2 = find_flippable_opposite(t2, s)
    x1, x2 = _far_apex(t1, e1, s), _far_apex(t2, e2, s)
    if e1 != e2:
        t1b, t2b = flip(t1, e1), flip(t2, e2)
        if len(t1b.neighbors(s) | t2b.neighbors(s)) >= 5:
            return t1b, t2b
        # both flips produced the same new neighbor; rescue via a cycle flip
        e_hat = _cycle_flip(t1b, t2b, s)
        if e_hat is not None:
            return flip(t1b, e_hat), t2b
        e_hat = _cycle_flip(t2b, t1b, s)
        if e_hat is not None:
            return t1b, flip(t2b, e_hat)
        raise InternalInvariantError("degree rescue failed after twin flips")
    if x1 != x2:
        return flip(t1, e1), flip(t2, e2)
    # same edge, same far apex: the adjacent triangle is shared; one of the two
    # triangulations has the 4-cycle without external chords
    for first in (True, False):
        ta, tb = (t1, t2) if first else (t2, t1)
        ta_b = flip(ta, e1)
        e_hat = _cycle_flip(ta_b, tb, s)
        if e_hat is not None:
            ta_c = flip(ta_b, e_hat)
            return (ta_c, tb) if first else (tb, ta_c)
    raise InternalInvariantError("no flippable 4-cycle edge in either triangulation")


def _layering_broken(g: LayeredGraph, step: str) -> InternalInvariantError:
    layer, e, f = layer_crossing(g)
    return InternalInvariantError(
        f"layer separation broken by {step}: layer {layer} edges {e} and {f} cross")


def insert_interior_point(state: InsertionState, coords: tuple[int, int]) -> InsertionState:
    """Insert one point lying inside ch(S) but outside the hull of the current
    interior vertices, keeping the graph 5-connected and biplane."""
    g = state.current
    ps_a = g.ps
    n = len(ps_a)
    new_ps = ps_a.extended([coords])
    s = n
    sp = new_ps[s]
    if not point_strictly_inside_hull(ps_a, sp):
        raise PreconditionError("point must lie strictly inside the current hull")
    interior = ps_a.interior_ids()
    if len(interior) >= 3:
        inner = ps_a.subset(interior)
        if point_strictly_inside_hull(inner, sp):
            raise PreconditionError("point must lie outside the hull of the interior vertices")
    t1, t2, dummies = _saturate(g)
    t1 = Triangulation(new_ps, t1.triangles, validate=False)
    t2 = Triangulation(new_ps, t2.triangles, validate=False)
    t1, _ = _insert_vertex(t1, new_ps, s)
    t2, _ = _insert_vertex(t2, new_ps, s)
    t1, t2 = _raise_degree_to_five(t1, t2, s)

    union = t1.edges | t2.edges
    final_edges = union - (dummies & union)
    lost = g.edges() - final_edges
    if len(lost) > 1:
        raise InternalInvariantError(f"insertion deleted {len(lost)} original edges: {sorted(lost)}")
    tags = {e: v for e, v in _tags_from(t1, t2).items() if e in final_edges}
    result = LayeredGraph(new_ps, tags)
    if result.degree(s) < 5:
        raise InternalInvariantError(f"inserted vertex has degree {result.degree(s)} < 5")
    if not verify_layering(result):
        raise _layering_broken(result, "interior insertion")
    return InsertionState(result)


# ----------------------------------------------------------------------
# Hull-point insertion
# ----------------------------------------------------------------------

def _circular_runs(flags: Sequence[bool]) -> list[list[int]]:
    """Maximal circular runs of True positions."""
    n = len(flags)
    if all(flags):
        return [list(range(n))]
    runs = []
    for i in range(n):
        if flags[i] and not flags[(i - 1) % n]:
            run = []
            j = i
            while flags[j % n]:
                run.append(j % n)
                j += 1
            runs.append(run)
    return runs


def _has_consecutive_run(present: set[int], size: int, needed: int) -> bool:
    """Does `present` (subset of Z_size) contain `needed` consecutive values?"""
    if needed <= 0:
        return True
    if len(present) >= size:
        return size >= needed
    best = run = 0
    # scan twice around the circle starting after a gap
    start = next(i for i in range(size) if i not in present)
    for k in range(1, 2 * size + 1):
        if (start + k) % size in present:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best >= needed


def check_property_maxi(sa: PointSet, sb: Sequence[tuple[int, int]]) -> tuple[bool, str | None]:
    """Verify the hull-insertion property: |ch(S_a)| >= 4, every new point is
    a hull vertex of the union, and every k consecutive new hull vertices
    jointly see at least k + 2 consecutive hull edges of S_a (k < |ch(S_a)|)."""
    p = len(sa.hull())
    if p < 4:
        return False, f"|ch(S_a)| = {p} < 4"
    if not sb:
        return True, None
    try:
        combined = sa.extended(sb)
    except PreconditionError as exc:
        return False, f"S_a and S_b do not combine to a general-position set: {exc}"
    na = len(sa)
    b_ids = set(range(na, len(combined)))
    hull = combined.hull()
    missing = sorted(b_ids - set(hull))
    if missing:
        return False, f"new points {missing} are not hull vertices of the union"
    vis: dict[int, set[int]] = {}
    for v in hull:
        if v in b_ids:
            vis[v] = set(visible_hull_edges(combined[v], sa))
    flags = [v in b_ids for v in hull]
    for run in _circular_runs(flags):
        for k in range(1, min(len(run), p - 1) + 1):
            for off in range(len(run) - k + 1):
                window = run[off:off + k]
                joint: set[int] = set()
                for idx in window:
                    joint |= vis[hull[idx]]
                if not _has_consecutive_run(joint, p, k + 2):
                    pts = [hull[idx] - na for idx in window]
                    return False, (f"{k} consecutive new points (indices {pts}) see only "
                                   f"{sorted(joint)} of {p} hull edges; {k + 2} consecutive needed")
    return True, None


def _common_visible(combined: PointSet, sa: PointSet, u: int, v: int) -> set[int]:
    return set(visible_hull_edges(combined[u], sa)) & set(visible_hull_edges(combined[v], sa))


def _bipartite_match(vis: list[set[int]]) -> list[int] | None:
    """Assign each left node a distinct right node from its set (augmenting
    paths); None when no perfect matching exists."""
    match_right: dict[int, int] = {}

    def try_assign(i: int, seen: set[int]) -> bool:
        for j in sorted(vis[i]):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or try_assign(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(len(vis)):
        if not try_assign(i, set()):
            return None
    out = [-1] * len(vis)
    for j, i in match_right.items():
        out[i] = j
    return out


def _quad_points(ps: PointSet, cycle: Sequence[int]) -> list[Point]:
    pts = [ps[v] for v in cycle]
    return pts if polygon_doubled_area(pts) > 0 else pts[::-1]


def _convex_polys_overlap(p1: list[Point], p2: list[Point]) -> bool:
    """Interior overlap of two convex polygons (shared corners allowed)."""

    def strictly_inside(poly: list[Point], s: Point) -> bool:
        return all(cross(poly[i], poly[(i + 1) % len(poly)], s) > 0 for i in range(len(poly)))

    for i in range(len(p1)):
        a, b = p1[i], p1[(i + 1) % len(p1)]
        for j in range(len(p2)):
            c, d = p2[j], p2[(j + 1) % len(p2)]
            if segments_properly_cross(a, b, c, d):
                return True
    return any(strictly_inside(p2, s) for s in p1) or any(strictly_inside(p1, s) for s in p2)


class _HullWiring:
    """Shared bookkeeping for tagging new hull-insertion edges."""

    def __init__(self, new_ps: PointSet, tags: dict[Edge, int]):
        self.ps = new_ps
        self.tags = tags

    def add(self, u: int, v: int, layer: int) -> None:
        e = edge_key(u, v)
        old = self.tags.get(e)
        if old is None or old == layer:
            self.tags[e] = layer
        elif old != layer:
            self.tags[e] = BOTH

    def demote(self, e: Edge, keep_layer: int) -> None:
        e = edge_key(*e)
        if self.tags.get(e) != BOTH:
            raise InternalInvariantError(f"cannot demote edge {e} with tag {self.tags.get(e)}")
        self.tags[e] = keep_layer


def _wire_surrounding(w: _HullWiring, sa: PointSet, b_cycle: list[int]) -> None:
    """All new points surround S_a: Hall-match each outer hull edge to a
    visible inner hull edge, uncross the assignment, then wire the two-layer
    pattern (outer cycle + three spokes per quadrilateral)."""
    ps = w.ps
    a_hull = list(sa.hull())
    p = len(a_hull)
    q = len(b_cycle)
    vis = []
    for i in range(q):
        u, v = b_cycle[i], b_cycle[(i + 1) % q]
        common = _common_visible(ps, sa, u, v)
        if not common:
            raise InternalInvariantError("consecutive outer vertices without a common visible edge")
        vis.append(common)
    assign = _bipartite_match(vis)
    if assign is None:
        raise InternalInvariantError("Hall matching of hull edges failed")

    def quad(i: int) -> list[Point]:
        j = assign[i]
        return _quad_points(ps, (b_cycle[i], b_cycle[(i + 1) % q],
                                 a_hull[(j + 1) % p], a_hull[j]))

    def overlap_pairs() -> list[tuple[int, int]]:
        quads = [quad(i) for i in range(q)]
        return [(i, j) for i in range(q) for j in range(i + 1, q)
                if _convex_polys_overlap(quads[i], quads[j])]

    pairs = overlap_pairs()
    guard = 0
    while pairs:
        i, j = pairs[0]
        if assign[j] not in vis[i] or assign[i] not in vis[j]:
            raise InternalInvariantError("crossing quadrilaterals without exchangeable edges")
        assign[i], assign[j] = assign[j], assign[i]
        nxt = overlap_pairs()
        if len(nxt) >= len(pairs):
            raise InternalInvariantError("uncrossing exchange did not reduce crossings")
        pairs = nxt
        guard += 1
        if guard > q * q + 4:
            raise InternalInvariantError("uncrossing loop failed to terminate")

    for i in range(q):
        w.add(b_cycle[i], b_cycle[(i + 1) % q], LAYER1)
    for i in range(q):
        j = assign[i]
        w.add(b_cycle[i], a_hull[j], LAYER1)
        w.add(b_cycle[i], a_hull[(j + 1) % p], LAYER1)
        w.add(b_cycle[(i + 1) % q], a_hull[j], LAYER2)


def _arc_of_chain(sa: PointSet, ps: PointSet, chain: list[int]) -> list[int]:
    """Counterclockwise hull-edge indices jointly visible from the chain."""
    p = len(sa.hull())
    joint: set[int] = set()
    for b in chain:
        joint |= set(visible_hull_edges(ps[b], sa))
    if len(joint) >= p:
        raise InternalInvariantError("chain sees every hull edge; no linear arc")
    start = next(i for i in sorted(joint) if (i - 1) % p not in joint)
    arc = [start]
    while (arc[-1] + 1) % p in joint:
        arc.append((arc[-1] + 1) % p)
    if len(arc) != len(joint):
        raise InternalInvariantError("visible edges of a treatable chain are not consecutive")
    return arc


def _wire_chain(w: _HullWiring, sa: PointSet, t1: Triangulation, t2: Triangulation,
                chain: list[int], deleted: set[Edge]) -> None:
    """Attach one treatable chain per the length-q case analysis."""
    ps = w.ps
    a_hull = list(sa.hull())
    p = len(a_hull)
    arc = _arc_of_chain(sa, ps, chain)
    averts = [a_hull[arc[0]]] + [a_hull[(j + 1) % p] for j in arc]
    num_v = len(averts)
    q = len(chain)

    def sees(bi: int, local_edge: int) -> bool:
        return arc[local_edge] in set(visible_hull_edges(ps[chain[bi]], sa))

    if q == 1:
        if num_v >= 5:
            for a in averts:
                w.add(chain[0], a, LAYER1)
            return
        if num_v != 4:
            raise InternalInvariantError(f"single point sees {num_v} hull vertices < 4")
        _wire_single_point_p4(w, sa, t1, t2, chain[0], averts, deleted)
        return

    if not (sees(0, 0) and sees(0, 1)):
        raise InternalInvariantError("chain head does not see the first two arc edges")
    m = len(arc)
    ass: list[list[int]] = [[] for _ in range(q)]
    ass[0] = [0, 1]
    ptr = 2
    while ptr < m and not sees(1, ptr):
        ass[0].append(ptr)
        ptr += 1
    for i in range(1, q):
        if ptr >= m or not sees(i, ptr):
            raise InternalInvariantError("edge-sequence assignment ran out of visible edges")
        ass[i] = [ptr]
        ptr += 1
        if i < q - 1:
            while ptr < m and not any(sees(jj, ptr) for jj in range(i + 1, q)):
                ass[i].append(ptr)
                ptr += 1
        else:
            while ptr < m:
                if not sees(i, ptr):
                    raise InternalInvariantError("tail edge invisible to the last chain vertex")
                ass[i].append(ptr)
                ptr += 1
    if ptr != m:
        raise InternalInvariantError("assignment did not cover the visible arc")
    if len(ass[q - 1]) < 2:
        raise InternalInvariantError("last chain vertex received fewer than 2 edges")

    for i in range(q - 1):
        w.add(chain[i], chain[i + 1], LAYER1)
    if len(ass[q - 1]) >= 3:
        for i in range(q):
            for j in ass[i]:
                w.add(chain[i], averts[j], LAYER1)
                w.add(chain[i], averts[j + 1], LAYER1)
    else:
        for i in range(q - 2):
            for j in ass[i]:
                w.add(chain[i], averts[j], LAYER1)
                w.add(chain[i], averts[j + 1], LAYER1)
        # the second-to-last vertex stops at the left endpoint of the last
        # vertex's pair of edges; the last vertex reaches one vertex further back
        for j in ass[q - 2]:
            w.add(chain[q - 2], averts[j], LAYER1)
        for j in (num_v - 4, num_v - 3, num_v - 2, num_v - 1):
            w.add(chain[q - 1], averts[j], LAYER1)
    for i in range(q - 1):
        first = ass[i + 1][0]
        w.add(chain[i], averts[first], LAYER2)
        w.add(chain[i], averts[first + 1], LAYER2)


def _wire_single_point_p4(w: _HullWiring, sa: PointSet, t1: Triangulation,
                          t2: Triangulation, b: int, averts: list[int],
                          deleted: set[Edge]) -> None:
    """A single new point seeing exactly three hull edges: join the four
    visible vertices plus a fifth neighbor found in one layer triangulation,
    freeing the crossed edge to the other layer (an implicit flip)."""
    ps = w.ps
    a1, a2, a3, a4 = averts
    for a in averts:
        w.add(b, a, LAYER1)
    options = []
    if t1.degree(a2) - 2 >= 2:
        options.append((t1, LAYER1, LAYER2))
    if t2.degree(a2) - 2 >= 2:
        options.append((t2, LAYER2, LAYER1))
    if not options:
        raise InternalInvariantError("no layer gives the second hull vertex two interior edges")
    tp, own_layer, other_layer = options[0]
    tri1 = (a1, a2, tp.opposites(edge_key(a1, a2))[0])
    tri2 = (a2, a3, tp.opposites(edge_key(a2, a3))[0])
    tri3 = (a3, a4, tp.opposites(edge_key(a3, a4))[0])
    distinct = len({triangle_key(*tri1), triangle_key(*tri2), triangle_key(*tri3)})
    if distinct == 3:
        for (u, v, apex) in (tri1, tri2, tri3):
            if segments_properly_cross(ps[b], ps[apex], ps[u], ps[v]):
                w.demote(edge_key(u, v), other_layer)
                w.add(b, apex, own_layer)
                return
        raise InternalInvariantError("no boundary triangle forms a convex quadrilateral with the new point")
    if triangle_key(*tri2) != triangle_key(*tri3):
        raise InternalInvariantError("unexpected coincidence pattern of boundary triangles")
    apex1 = tri1[2]
    if segments_properly_cross(ps[b], ps[apex1], ps[a1], ps[a2]):
        w.demote(edge_key(a1, a2), other_layer)
        w.add(b, apex1, own_layer)
        return
    chord = edge_key(a2, a4)
    ws = [x for x in tp.opposites(chord) if x != a3]
    if len(ws) != 1:
        raise InternalInvariantError("missing second triangle behind the boundary chord")
    v_far = ws[0]
    if not segments_properly_cross(ps[b], ps[v_far], ps[a2], ps[a4]):
        raise InternalInvariantError("neither candidate quadrilateral is convex")
    if chord in w.tags:
        deleted.add(chord)
        del w.tags[chord]
    crossed = [e for e in (edge_key(a2, a3), edge_key(a3, a4))
               if segments_properly_cross(ps[b], ps[v_far], ps[e[0]], ps[e[1]])]
    if len(crossed) != 1:
        raise InternalInvariantError("the far connection must cross exactly one boundary edge")
    w.demote(crossed[0], other_layer)
    w.add(b, v_far, own_layer)


def insert_hull_points(state: InsertionState, sb: Sequence[tuple[int, int]]) -> InsertionState:
    """Insert a batch of exterior points that all become hull vertices,
    keeping 5-connectivity; requires the visibility property to hold."""
    g = state.current
    ps_a = g.ps
    ok, why = check_property_maxi(ps_a, sb)
    if not ok:
        raise PreconditionError(f"hull-insertion property violated: {why}")
    if not sb:
        return state
    t1, t2, dummies = _saturate(g)
    na = len(ps_a)
    new_ps = ps_a.extended(sb)
    b_ids = set(range(na, len(new_ps)))
    tags = _tags_from(t1, t2)
    w = _HullWiring(new_ps, tags)
    deleted: set[Edge] = set()
    hull = list(new_ps.hull())

    if all(v in b_ids for v in hull) and all(
            _common_visible(new_ps, ps_a, hull[i], hull[(i + 1) % len(hull)])
            for i in range(len(hull))):
        _wire_surrounding(w, ps_a, hull)
    else:
        flags = [v in b_ids for v in hull]
        for run in _circular_runs(flags):
            verts = [hull[i] for i in run]
            chain: list[int] = [verts[0]]
            for v in verts[1:]:
                if _common_visible(new_ps, ps_a, chain[-1], v):
                    chain.append(v)
                else:
                    _wire_chain(w, ps_a, t1, t2, chain, deleted)
                    chain = [v]
            _wire_chain(w, ps_a, t1, t2, chain, deleted)

    for d in sorted(dummies):
        tags.pop(d, None)
    result = LayeredGraph(new_ps, tags)
    lost = g.edges() - result.edges()
    if not lost <= deleted:
        raise InternalInvariantError(f"hull insertion lost unexpected edges {sorted(lost - deleted)}")
    for b in sorted(b_ids):
        if result.degree(b) < 5:
            raise InternalInvariantError(f"new hull vertex {b} has degree {result.degree(b)} < 5")
    if not verify_layering(result):
        raise _layering_broken(result, "hull insertion")
    return InsertionState(result)


# ----------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------

def build_5conn_general(ps: PointSet,
                        on_step: Callable[[str, LayeredGraph], None] | None = None) -> LayeredGraph:
    """5-connected biplane graph on any point set containing at least 14
    points in convex position.

    Starts from the convex construction on a largest convex-position subset,
    then inserts interior points in lexicographic order, hull points of the
    full set in one batch, and the remaining exterior points in reverse
    hull-peeling order.
    """
    core = sorted(max_convex_subset_indices(ps))
    if len(core) < 14:
        raise PreconditionError(
            f"need 14 points in convex position; largest convex subset has {len(core)}")
    core_set = set(core)
    ps0 = ps.subset(core)
    hull_of_all = set(ps.hull())
    rest = [i for i in range(len(ps)) if i not in core_set]
    s_int = [i for i in rest if point_strictly_inside_hull(ps0, ps[i])]
    s_bou = [i for i in rest if i not in s_int and i in hull_of_all]
    s_ext = [i for i in rest if i not in s_int and i not in hull_of_all]

    state = InsertionState(build_5conn_convex(ps0))
    if on_step:
        on_step("core", state.current)
    for i in sorted(s_int, key=lambda i: (ps[i].x, ps[i].y)):
        state = insert_interior_point(state, ps[i].coords())
        if on_step:
            on_step(f"interior:{i}", state.current)
    if s_bou:
        state = insert_hull_points(state, [ps[i].coords() for i in s_bou])
        if on_step:
            on_step("boundary", state.current)
    remaining = set(s_ext)
    removal: list[int] = []
    while remaining:
        pts = [ps[i] for i in sorted(core_set | remaining)]
        on_hull = set(convex_hull(pts)) & remaining
        if not on_hull:
            raise InternalInvariantError("hull peeling found no removable exterior point")
        pick = min(on_hull)
        removal.append(pick)
        remaining.remove(pick)
    for i in reversed(removal):
        state = insert_interior_point(state, ps[i].coords())
        if on_step:
            on_step(f"exterior:{i}", state.current)
    return state.current
