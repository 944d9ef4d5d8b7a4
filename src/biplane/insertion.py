"""Growing a 5-connected biplane graph from a convex core.

Interior points enter through a triangle split plus at most two degree-raising
edge flips; hull points enter through visibility assignment, read from one
table of the S_a hull edges that each new point sees (Hall matching on hull
edges when every two consecutive hull vertices are new and see a common edge,
treatable chains cut in one pass round the hull otherwise); exterior points
are inserted in reverse hull-peeling order.  Saturation to a union of
two triangulations uses tracked dummy edges that are deleted afterwards; the
two triangulations are carried to the next step, which refills them only
around the dummy edges that were left.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .connectivity import layer_crossing
from .convex import build_5conn_convex
from .errors import InternalInvariantError, PreconditionError
from .geometry import (PointSet, circular_runs, convex_hull, first_crossing,
                       max_convex_subset_indices, polygon_doubled_area,
                       segments_properly_cross, strictly_inside, visible_chain)
from .layered import LAYER1, LAYER2, LayeredGraph
from .triangulation import (Edge, Triangulation, TriangulationClass, classify,
                            complete_to_triangulation, edge_key, flip, is_flippable,
                            refilled, triangle_key)

#: Every point set at least this large contains 14 points in convex position,
#: so the general construction below always applies (binomial(23, 12) + 1).
MIN_POINTS_GUARANTEEING_14_CONVEX = 1352079


class InsertionState:
    """The current verified biplane graph, carried from one insertion to the
    next as its point set `ps` and its two layer edge sets.

    After an interior insertion, t1 and t2 are the two validated layer
    triangulations and `missing` holds their edges that neither layer has,
    the saturation's dummy edges.  Each layer is then a view, t_i less
    `missing`, built on first read and kept: the steps read only t1, t2 and
    `missing`.  No two edges of a validated triangulation cross, so that
    inclusion alone shows both layers plane.  The next step starts from t1
    and t2 and refills only the faces around the missing edges, which gives
    what completing the layers from scratch would give (`refilled`); with
    none missing off the hull it takes them as they are.  Only
    `of_triangulations` sets them; states built from a LayeredGraph (the
    convex core, after hull insertion) carry its layers, None for t1 and
    t2, and no missing edge.

    `current`, the graph as a LayeredGraph, is built on first use and kept.

    `interior_hull` holds the vertices of the convex hull of the interior
    vertices (those not on the hull of `ps`), counterclockwise; with fewer
    than three interior vertices it holds all of them.  An interior step's
    point lies strictly inside the hull of `ps`, so that hull stays the same
    and the interior set grows by exactly the new point: the step splices
    the point into the carried hull (`_interior_hull_with`) instead of
    computing it again.  States built from a LayeredGraph (the convex core,
    after hull insertion) compute it on first use.
    """

    def __init__(self, current: LayeredGraph):
        self.ps = current.ps
        self._layers: tuple[frozenset[Edge], frozenset[Edge]] | None = (
            current.layer_edges(LAYER1), current.layer_edges(LAYER2))
        self.t1: Triangulation | None = None
        self.t2: Triangulation | None = None
        self.missing: frozenset[Edge] = frozenset()
        self._current: LayeredGraph | None = current
        self._interior_hull: tuple[int, ...] | None = None

    @classmethod
    def of_triangulations(cls, ps: PointSet, t1: Triangulation, t2: Triangulation,
                          missing: frozenset[Edge], interior_hull: tuple[int, ...]
                          ) -> "InsertionState":
        """The state whose layers are t1 and t2 less `missing`; neither the
        layers nor `current` is built yet."""
        state = cls.__new__(cls)
        state.ps, state.t1, state.t2, state.missing = ps, t1, t2, missing
        state._layers = state._current = None
        state._interior_hull = interior_hull
        return state

    def _layer_pair(self) -> tuple[frozenset[Edge], frozenset[Edge]]:
        if self._layers is None:
            self._layers = (self.t1.edges - self.missing, self.t2.edges - self.missing)
        return self._layers

    @property
    def layer1(self) -> frozenset[Edge]:
        return self._layer_pair()[0]

    @property
    def layer2(self) -> frozenset[Edge]:
        return self._layer_pair()[1]

    @property
    def current(self) -> LayeredGraph:
        if self._current is None:
            self._current = LayeredGraph(self.ps, self.layer1, self.layer2)
        return self._current

    @property
    def interior_hull(self) -> tuple[int, ...]:
        if self._interior_hull is None:
            inner = self.ps.interior_ids()
            self._interior_hull = _hull_of(self.ps, inner) if len(inner) >= 3 else inner
        return self._interior_hull

    def edges(self) -> frozenset[Edge]:
        return self.layer1 | self.layer2


def _hull_of(ps: PointSet, ids: Sequence[int]) -> tuple[int, ...]:
    """The counterclockwise hull of the vertices `ids` of `ps`, as ids."""
    return tuple(ids[i] for i in convex_hull([ps.xs[v] for v in ids], [ps.ys[v] for v in ids]))


def _saturate(state: InsertionState) -> tuple[Triangulation, Triangulation, frozenset[Edge]]:
    """Complete both layers to triangulations, layer 2 avoiding layer 1's;
    report the added dummy edges.

    A state that carries t1 and t2 refills only the faces around their
    edges that its layers lack, `missing` (`refilled`), and gives t_i back
    as it is when none of those is off the hull, or when the refill is
    settled (`_settled`).  It reads no layer.
    """
    old1, old2, missing = state.t1, state.t2, state.missing
    if old1 is None or old2 is None:
        one, two = state.layer1, state.layer2
        t1 = complete_to_triangulation(state.ps, required=one)
        t2 = complete_to_triangulation(state.ps, required=two, avoid=t1.edges)
        return t1, t2, frozenset((t1.edges | t2.edges) - one - two)
    # s is the point the last step inserted
    s, hull_edges = len(state.ps) - 1, state.ps.hull_edges()
    drop1 = {e for e in missing if e in old1 and e not in hull_edges}
    drop2 = {e for e in missing if e in old2 and e not in hull_edges}
    t1, taken1 = (old1, []) if _settled(old1, drop1, s, ()) else refilled(old1, drop1)
    # layer 2 avoids t1's edges, which the last step's flips changed only
    # between neighbours of s
    ring = sorted(old1.neighbors(s))
    flipped = [(a, b) for i, a in enumerate(ring) for b in ring[i + 1:] if (a, b) not in old1]
    t2, taken2 = ((old2, []) if t1 is old1 and _settled(old2, drop2, s, flipped)
                  else refilled(old2, drop2, avoid=t1))
    # t_i's edges outside layer i are its missing ones; a refill trades them
    # for the edges it takes, none of which is in layer i
    kept = frozenset(e for e in missing if e in t1 or e in t2)
    # a taken edge lies in the other layer when that triangulation had it
    # and did not miss it
    return t1, t2, kept.union(e for taken, other in ((taken1, old2), (taken2, old1))
                              for e in taken if e in missing or e not in other)


def _settled(t: Triangulation, dropped: set[Edge], s: int, moved: Sequence[Edge]) -> bool:
    """Whether refilling t around `dropped` gives t back, by a sufficient
    test: no triangle on a dropped edge has the corner s, the point the
    last step inserted, and no pair in `moved`, the pairs whose membership
    in the triangulation to avoid may have changed since the last
    saturation, joins two corners of those triangles.  Every triangle
    without the corner s is then one the last saturation made, and each
    region is a face it filled, in the same order (see README,
    Verification, *Settled refills*)."""
    corners: set[int] = set()
    for e in dropped:
        ws = t.opposites(e)
        if s in ws:
            return False
        corners.update(e)
        corners.update(ws)
    return not any(a in corners and b in corners for a, b in moved)


def find_flippable_opposite(t: Triangulation, s: int) -> tuple[tuple[int, int, int], Edge]:
    """Triangle incident to interior vertex s whose opposite edge is flippable.

    Walks the link of s counterclockwise from a hull neighbor whose following
    link edge is interior, advancing past reflex quadrilaterals; the first
    flippable opposite edge is returned (exists for every non-wheel input).
    """
    pos, hull_edges = t.ps.hull_positions(), t.ps.hull_edges()
    if pos[s] >= 0:
        raise PreconditionError("s must be an interior vertex")
    # an interior vertex leaves at least four points, as classify requires
    if classify(t) is TriangulationClass.WHEEL:
        raise PreconditionError("the wheel admits no flippable opposite edge")
    if not t.link_is_cycle(s):
        raise PreconditionError("the neighbors of s must induce a cycle")
    ring = t.link_cycle(s)
    k = len(ring)
    starts = [i for i in range(k)
              if pos[ring[i]] >= 0 and edge_key(ring[i], ring[(i + 1) % k]) not in hull_edges]
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
        if e in tb and is_flippable(ta, e) and _far_apex(ta, e, s) not in union_nbrs:
            candidates.append(e)
    return min(candidates) if candidates else None


def _raise_degree_to_five(t1: Triangulation, t2: Triangulation, s: int) -> tuple[Triangulation, Triangulation]:
    """Case analysis on the distinct corner count of the two triangles that
    received s, which raises the union degree of s to at least 5 (see
    README, Verification, *Degree raising*).  The argument covers the
    pipeline's states only: t2 completed avoiding t1's edges, and s outside
    the hull of the interior points.  On other pairs the rescue can find no
    flippable cycle edge in either triangulation and raise
    InternalInvariantError, and it does on some random pairs."""
    union_nbrs = t1.neighbors(s) | t2.neighbors(s)
    corners = len(union_nbrs)
    if corners >= 5:
        return t1, t2
    if corners not in (3, 4):
        raise InternalInvariantError(f"unexpected corner count {corners}")
    _, e1 = find_flippable_opposite(t1, s)
    _, e2 = find_flippable_opposite(t2, s)
    x1, x2 = _far_apex(t1, e1, s), _far_apex(t2, e2, s)
    if corners == 4:
        if x1 not in union_nbrs:
            return flip(t1, e1), t2
        if x2 not in union_nbrs:
            return t1, flip(t2, e2)
    elif x1 != x2:
        # three corners: e1 != e2 implies x1 != x2, so this covers it too
        return flip(t1, e1), flip(t2, e2)
    # four corners whose far apexes are both neighbours already, or three
    # corners with one shared edge e1 == e2 and far apex: one flip frees a
    # flippable cycle edge that stays present in the other triangulation
    t1b = flip(t1, e1)
    e_hat = _cycle_flip(t1b, t2, s)
    if e_hat is not None:
        return flip(t1b, e_hat), t2
    t2b = flip(t2, e2)
    e_hat = _cycle_flip(t2b, t1, s)
    if e_hat is None:
        raise InternalInvariantError("no flippable 4-cycle edge in either triangulation")
    return t1, flip(t2b, e_hat)


def _interior_hull_with(ps: PointSet, hull: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The counterclockwise hull of the vertices `hull` and s, as carried in
    `InsertionState.interior_hull`; raises PreconditionError when s lies
    strictly inside a hull of three or more vertices.

    s sees a chain of the hull's edges unless it lies inside (`visible_chain`),
    and replaces the vertices strictly inside that chain."""
    m = len(hull)
    if m < 2:
        return hull + (s,)
    i, k = visible_chain(ps, hull, s)
    if not k:
        raise PreconditionError("point must lie outside the hull of the interior vertices")
    return tuple(hull[(i + k + j) % m] for j in range(m - k + 1)) + (s,)


def insert_interior_point(state: InsertionState, new_ps: PointSet) -> InsertionState:
    """Insert the last point s of `new_ps`, which must extend the state's
    point set by that one point, lying inside ch(S) but outside the hull of
    the current interior vertices, keeping the graph 5-connected and
    biplane.  For bare coordinates pass `state.ps.extended([coords])`, which
    checks them; `build_5conn_general` passes prefixes of the one set it
    validated (`PointSet.next_prefix`)."""
    ps_a = state.ps
    s = len(ps_a)
    if len(new_ps) != s + 1 or new_ps.xs[:s] != ps_a.xs or new_ps.ys[:s] != ps_a.ys:
        raise PreconditionError(f"the new point set does not extend the state's {s} points by one")
    # a new set that carries the hull of ps_a keeps it exactly when the new
    # point lies strictly inside it
    if new_ps.hull() != ps_a.hull():
        raise PreconditionError("point must lie strictly inside the current hull")
    interior_hull = _interior_hull_with(new_ps, state.interior_hull, s)
    t1, t2, dummies = _saturate(state)
    split1, split2 = t1.split(new_ps, s), t2.split(new_ps, s)
    t1, t2 = _raise_degree_to_five(split1, split2, s)
    # the layers lost only edges that a flip removed and neither
    # triangulation has now, and they had every such edge but the dummies
    lost = sorted({e for split, t in ((split1, t1), (split2, t2)) if t is not split
                   for e in _flip_reach(split, s) if e not in t1 and e not in t2 and e not in dummies})
    if len(lost) > 1:
        raise InternalInvariantError(f"insertion deleted {len(lost)} original edges: {lost}")
    # every edge at s is new, so none of them is a dummy
    degree = len(t1.neighbors(s) | t2.neighbors(s))
    if degree < 5:
        raise InternalInvariantError(f"inserted vertex has degree {degree} < 5")
    # each layer is a subset of a validated triangulation, so it is plane
    return InsertionState.of_triangulations(
        new_ps, t1, t2, frozenset(e for e in dummies if e in t1 or e in t2), interior_hull)


def _flip_reach(t: Triangulation, s: int) -> set[Edge]:
    """The edges that `_raise_degree_to_five` can flip away in t, just split
    at s: the sides of the triangle that s split, which are the link edges
    of s, and the far sides of the triangles beyond them, which the
    rescue's second flip can take once its first has joined s to the far
    apex (see README, Verification)."""
    a, b, c = t.neighbors(s)
    reach = set()
    for u, v in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
        reach.add((u, v))
        for x in t.opposites((u, v)):
            if x != s:
                reach.update((edge_key(u, x), edge_key(v, x)))
    return reach


# ----------------------------------------------------------------------
# Hull-point insertion
# ----------------------------------------------------------------------

_VIOLATED = "hull-insertion property violated: "


def check_property_maxi(sa: PointSet, sb: Sequence[tuple[int, int]]) -> tuple[bool, str | None]:
    """Verify the hull-insertion property: |ch(S_a)| >= 4, every new point is
    a hull vertex of the union, and every k consecutive new hull vertices
    jointly see at least k + 2 consecutive hull edges of S_a (k < |ch(S_a)|)."""
    try:
        _property_union(sa, sb)
    except PreconditionError as exc:
        return False, str(exc).removeprefix(_VIOLATED)
    return True, None


def _property_union(sa: PointSet, sb: Sequence[tuple[int, int]]
                    ) -> tuple[PointSet, dict[int, frozenset[int]]]:
    """S_a extended by S_b, and the S_a hull edges each new point sees, when
    the hull-insertion property holds; otherwise a PreconditionError whose
    message is `_VIOLATED` and the reason `check_property_maxi` returns."""
    p = len(sa.hull())
    if p < 4:
        raise PreconditionError(f"{_VIOLATED}|ch(S_a)| = {p} < 4")
    try:
        combined = sa.extended(sb)
    except PreconditionError as exc:
        raise PreconditionError(
            f"{_VIOLATED}S_a and S_b do not combine to a general-position set: {exc}") from exc
    na = len(sa)
    b_ids = set(range(na, len(combined)))
    hull, pos = combined.hull(), combined.hull_positions()
    missing = [b for b in range(na, len(combined)) if pos[b] < 0]
    if missing:
        raise PreconditionError(f"{_VIOLATED}new points {missing} are not hull vertices of the union")
    a_hull = sa.hull()
    vis_of = {}
    for b in b_ids:
        i, k = visible_chain(combined, a_hull, b)
        vis_of[b] = frozenset((i + j) % p for j in range(k))
    h = len(hull)
    for start, length in circular_runs([v in b_ids for v in hull]):
        run = [(start + j) % h for j in range(length)]
        for k in range(1, min(length, p - 1) + 1):
            for off in range(length - k + 1):
                window = run[off:off + k]
                joint = frozenset().union(*(vis_of[hull[idx]] for idx in window))
                if not any(n >= k + 2 for _, n in circular_runs([e in joint for e in range(p)])):
                    pts = [hull[idx] - na for idx in window]
                    raise PreconditionError(
                        f"{_VIOLATED}{k} consecutive new points (indices {pts}) see only "
                        f"{sorted(joint)} of {p} hull edges; {k + 2} consecutive needed")
    return combined, vis_of


def _bipartite_match(vis: list[set[int]]) -> list[int]:
    """Assign each left node a distinct right node from its set (augmenting
    paths); raise when no perfect matching exists.

    Each nested `try_assign` call first claims a right node that no call of
    the same search has claimed and then moves to the left node matched to
    it, so the recursion is at most as deep as the number of left nodes.
    Its caller passes one left node per new hull point of one batch; such a
    surrounding batch is in convex position, so it has no more points than
    the convex core, the largest convex subset of the input."""
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
            raise InternalInvariantError("Hall matching of hull edges failed")
    out = [-1] * len(vis)
    for j, i in match_right.items():
        out[i] = j
    return out


def _convex_polys_overlap(ps: PointSet, p1: Sequence[int], p2: Sequence[int]) -> bool:
    """Interior overlap of two counterclockwise convex polygons of vertices
    of `ps` (shared corners allowed)."""
    for i in range(len(p1)):
        a, b = p1[i], p1[(i + 1) % len(p1)]
        for j in range(len(p2)):
            c, d = p2[j], p2[(j + 1) % len(p2)]
            if segments_properly_cross(ps, a, b, c, d):
                return True
    return any(strictly_inside(ps, p2, s) for s in p1) or any(strictly_inside(ps, p1, s) for s in p2)


class _HullWiring:
    """The two layer edge sets of a hull insertion, started from the
    saturated layer triangulations and wired up in place."""

    def __init__(self, new_ps: PointSet, t1: Triangulation, t2: Triangulation):
        self.ps = new_ps
        self.layers = {LAYER1: set(t1.edges), LAYER2: set(t2.edges)}

    def add(self, u: int, v: int, layer: int) -> None:
        self.layers[layer].add(edge_key(u, v))

    def demote(self, e: Edge, keep_layer: int) -> None:
        """Drop e, which must lie in both layers, from the other layer."""
        e = edge_key(*e)
        if not all(e in es for es in self.layers.values()):
            raise InternalInvariantError(f"cannot demote edge {e}: not in both layers")
        self.layers[LAYER2 if keep_layer == LAYER1 else LAYER1].remove(e)

    def delete(self, e: Edge) -> None:
        """Drop e from both layers."""
        for es in self.layers.values():
            es.discard(e)


def _wire_surrounding(w: _HullWiring, a_hull: tuple[int, ...], b_cycle: tuple[int, ...],
                      vis_of: dict[int, frozenset[int]]) -> None:
    """All new points surround S_a (hull `a_hull`): Hall-match each outer hull
    edge to a visible inner hull edge, uncross the assignment, then wire the
    two-layer pattern (outer cycle + three spokes per quadrilateral)."""
    ps = w.ps
    p = len(a_hull)
    q = len(b_cycle)
    vis = []
    for i in range(q):
        u, v = b_cycle[i], b_cycle[(i + 1) % q]
        common = vis_of[u] & vis_of[v]
        if not common:
            raise InternalInvariantError("consecutive outer vertices without a common visible edge")
        vis.append(common)
    assign = _bipartite_match(vis)

    def quad(i: int) -> tuple[int, ...]:
        """The quadrilateral of outer edge i and its assigned inner edge,
        counterclockwise."""
        j = assign[i]
        cycle = (b_cycle[i], b_cycle[(i + 1) % q], a_hull[(j + 1) % p], a_hull[j])
        return cycle if polygon_doubled_area(ps, cycle) > 0 else cycle[::-1]

    def overlap_pairs() -> list[tuple[int, int]]:
        quads = [quad(i) for i in range(q)]
        return [(i, j) for i in range(q) for j in range(i + 1, q)
                if _convex_polys_overlap(ps, quads[i], quads[j])]

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


def _arc_of_chain(p: int, vis_of: dict[int, frozenset[int]], chain: list[int]) -> list[int]:
    """The arc a chain is wired along, as counterclockwise S_a hull-edge
    indices: it starts at the first edge the head sees, the start of the
    head's contiguous visible interval, and holds every edge the chain
    jointly sees, which must be one run from there or all p edges (see
    README, Verification)."""
    head = vis_of[chain[0]]
    joint = frozenset().union(*(vis_of[b] for b in chain))
    start = circular_runs([i in head for i in range(p)])[0][0]
    if circular_runs([i in joint for i in range(p)]) not in ([(0, p)], [(start, len(joint))]):
        raise InternalInvariantError("visible edges of a treatable chain are not consecutive")
    return [(start + j) % p for j in range(len(joint))]


def _wire_chain(w: _HullWiring, a_hull: tuple[int, ...], t1: Triangulation, t2: Triangulation,
                chain: list[int], vis_of: dict[int, frozenset[int]], deleted: set[Edge]) -> None:
    """Attach one treatable chain to `a_hull` per the length-q case analysis."""
    p = len(a_hull)
    arc = _arc_of_chain(p, vis_of, chain)
    averts = [a_hull[arc[0]]] + [a_hull[(j + 1) % p] for j in arc]
    num_v = len(averts)
    q = len(chain)

    def sees(bi: int, local_edge: int) -> bool:
        return arc[local_edge] in vis_of[chain[bi]]

    if q == 1:
        if num_v >= 5:
            for a in averts:
                w.add(chain[0], a, LAYER1)
            return
        if num_v != 4:
            raise InternalInvariantError(f"single point sees {num_v} hull vertices < 4")
        _wire_single_point_p4(w, t1, t2, chain[0], averts, deleted)
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
    wide = len(ass[q - 1]) >= 3
    for i in range(q if wide else q - 2):
        for j in ass[i]:
            w.add(chain[i], averts[j], LAYER1)
            w.add(chain[i], averts[j + 1], LAYER1)
    if not wide:
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


def _wire_single_point_p4(w: _HullWiring, t1: Triangulation, t2: Triangulation,
                          b: int, averts: list[int], deleted: set[Edge]) -> None:
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
            if segments_properly_cross(ps, b, apex, u, v):
                w.demote(edge_key(u, v), other_layer)
                w.add(b, apex, own_layer)
                return
        raise InternalInvariantError("no boundary triangle forms a convex quadrilateral with the new point")
    if triangle_key(*tri2) != triangle_key(*tri3):
        raise InternalInvariantError("unexpected coincidence pattern of boundary triangles")
    apex1 = tri1[2]
    if segments_properly_cross(ps, b, apex1, a1, a2):
        w.demote(edge_key(a1, a2), other_layer)
        w.add(b, apex1, own_layer)
        return
    chord = edge_key(a2, a4)
    ws = [x for x in tp.opposites(chord) if x != a3]
    if len(ws) != 1:
        raise InternalInvariantError("missing second triangle behind the boundary chord")
    v_far = ws[0]
    if not segments_properly_cross(ps, b, v_far, a2, a4):
        raise InternalInvariantError("neither candidate quadrilateral is convex")
    if chord in w.layers[LAYER1] or chord in w.layers[LAYER2]:
        deleted.add(chord)
        w.delete(chord)
    crossed = [e for e in (edge_key(a2, a3), edge_key(a3, a4))
               if segments_properly_cross(ps, b, v_far, *e)]
    if len(crossed) != 1:
        raise InternalInvariantError("the far connection must cross exactly one boundary edge")
    w.demote(crossed[0], other_layer)
    w.add(b, v_far, own_layer)


def insert_hull_points(state: InsertionState, sb: Sequence[tuple[int, int]]) -> InsertionState:
    """Insert a batch of exterior points that all become hull vertices,
    keeping 5-connectivity; requires the visibility property to hold."""
    ps_a = state.ps
    new_ps, vis_of = _property_union(ps_a, sb)
    if not sb:
        return state
    t1, t2, dummies = _saturate(state)
    b_ids = set(vis_of)
    a_hull = ps_a.hull()
    w = _HullWiring(new_ps, t1, t2)
    deleted: set[Edge] = set()
    hull = new_ps.hull()
    h = len(hull)
    # position i is linked when hull[i] and hull[i + 1] are new and share a
    # visible S_a edge; a chain is a maximal run of new vertices joined by links
    linked = [hull[i] in b_ids and hull[(i + 1) % h] in b_ids
              and bool(vis_of[hull[i]] & vis_of[hull[(i + 1) % h]]) for i in range(h)]
    if all(linked):
        _wire_surrounding(w, a_hull, hull, vis_of)
    else:
        # one pass from just after an unlinked position splits no chain
        start = linked.index(False)
        chain: list[int] = []
        for i in range(start + 1, start + h + 1):
            if hull[i % h] in b_ids:
                chain.append(hull[i % h])
            if chain and not linked[i % h]:
                _wire_chain(w, a_hull, t1, t2, chain, vis_of, deleted)
                chain = []

    for d in dummies:
        w.delete(d)
    result = LayeredGraph(new_ps, w.layers[LAYER1], w.layers[LAYER2])
    lost = state.edges() - result.edges()
    if not lost <= deleted:
        raise InternalInvariantError(f"hull insertion lost unexpected edges {sorted(lost - deleted)}")
    adj = result.adjacency()
    for b in sorted(b_ids):
        if len(adj[b]) < 5:
            raise InternalInvariantError(f"new hull vertex {b} has degree {len(adj[b])} < 5")
    # only a crossing that the guard cannot rule out runs the full check,
    # which names the pair
    if _may_cross(result, t1, LAYER1) or _may_cross(result, t2, LAYER2):
        crossing = layer_crossing(result)
        if crossing:
            layer, e, f = crossing
            raise InternalInvariantError(
                f"layer separation broken by hull insertion: layer {layer} edges {e} and {f} cross")
    return InsertionState(result)


def _may_cross(g: LayeredGraph, t: Triangulation, layer: int) -> bool:
    """False when no two edges of layer `layer` of g cross, given t, the
    triangulation of a prefix of g's points that the layer started from.

    t's edges cross none of each other, so a crossing in the layer has an
    edge outside t, one of `added` (see README, Verification, *Layering*).
    Each added edge between two points of t crosses the layer's edges of t
    that `crossed_edges` lists; one from a point of t to a later point, the
    edges of t that its walk crosses until it leaves t's hull; one between
    two later points that is a hull edge of g's points, none.  The added
    edges among themselves go through `first_crossing`.  True for an added
    edge between two later points off the hull, which no walk covers."""
    ps, es, n = g.ps, g.layer_edges(layer), len(t.ps)
    added = sorted(es - t.edges)
    for u, v in added:
        if v < n:
            crossed = t.crossed_edges(u, v)
        elif u < n:
            crossed = t.crossed_leaving(u, (ps.xs[v], ps.ys[v]))
        elif (u, v) in ps.hull_edges():
            continue
        else:
            return True
        if any(e in es for e in crossed):
            return True
    return first_crossing(ps, added) is not None


# ----------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------

def build_5conn_general(ps: PointSet,
                        on_step: Callable[[str, LayeredGraph], None] | None = None) -> LayeredGraph:
    """5-connected biplane graph on any point set containing at least 14
    points in convex position, on `ps` with its ids.

    Starts from the convex construction on a largest convex-position subset,
    then inserts interior points in lexicographic order, hull points of the
    full set in one batch, and the remaining exterior points in reverse
    hull-peeling order.  The steps number the points in that construction
    order (the core in ascending id order, then each point as it is
    inserted), and so do the graphs passed to `on_step`; the result is
    relabelled to the ids of `ps`.  `ps` is reordered once into that order
    with nothing re-checked, and each interior and exterior step takes the
    next prefix of it (see README, Verification).
    """
    core = sorted(max_convex_subset_indices(ps))
    if len(core) < 14:
        raise PreconditionError(
            f"need 14 points in convex position; largest convex subset has {len(core)}")
    core_set = set(core)
    ps0 = ps.subset(core)
    pos = ps.hull_positions()
    core_hull = [core[j] for j in ps0.hull()]
    s_int: list[int] = []
    s_bou: list[int] = []
    remaining: set[int] = set()
    for i in range(len(ps)):
        if i in core_set:
            continue
        if strictly_inside(ps, core_hull, i):
            s_int.append(i)
        elif pos[i] >= 0:
            s_bou.append(i)
        else:
            remaining.add(i)
    s_int.sort(key=lambda i: (ps.xs[i], ps.ys[i]))
    removal: list[int] = []
    while remaining:
        pick = min((v for v in _hull_of(ps, sorted(core_set | remaining)) if v in remaining),
                   default=None)
        if pick is None:
            raise InternalInvariantError("hull peeling found no removable exterior point")
        removal.append(pick)
        remaining.remove(pick)

    # order[k] is the id in ps of the point at construction position k, and
    # every step's point set is a prefix of `full`
    order = core + s_int + s_bou + removal[::-1]
    full = ps.reordered(order)
    state = InsertionState(build_5conn_convex(ps0))
    if on_step:
        on_step("core", state.current)
    for i in s_int:
        state = insert_interior_point(state, full.next_prefix(state.ps))
        if on_step:
            on_step(f"interior:{i}", state.current)
    if s_bou:
        state = insert_hull_points(state, [(ps.xs[i], ps.ys[i]) for i in s_bou])
        if on_step:
            on_step("boundary", state.current)
    for i in reversed(removal):
        state = insert_interior_point(state, full.next_prefix(state.ps))
        if on_step:
            on_step(f"exterior:{i}", state.current)
    return LayeredGraph(ps, [(order[u], order[v]) for (u, v) in state.layer1],
                        [(order[u], order[v]) for (u, v) in state.layer2])
