"""Plane triangulations with face adjacency, edge flips and classification."""
from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from collections.abc import Callable, Container, Iterable, Iterator, Sequence
from enum import Enum
from functools import cached_property
from itertools import combinations

from .errors import InternalInvariantError, PreconditionError
from .geometry import (PointSet, _ccw_key, _edge_rings, ccw_order, crossing_pairs, crosses_any,
                       cross, first_crossing, point_in_triangle,
                       segments_properly_cross, visible_chain)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def checked_edges(n: int, edges: Iterable[Edge]) -> list[Edge]:
    """Each edge as a sorted pair, in the given order: the check of an edge
    list.  The first edge that joins a point to itself or names no point of
    0..n-1 is a PreconditionError that names it as a sorted pair."""
    out: list[Edge] = []
    for u, v in edges:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            raise _bad_edge(u, v)
        out.append((u, v))
    return out


def checked_adjacency(n: int, edges: Iterable[Edge]) -> dict[int, set[int]]:
    """The neighbours of each of the n vertices along `edges`, which are
    checked as `checked_edges` checks them, in the same loop that files
    them."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            raise _bad_edge(u, v)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bad_edge(u: int, v: int) -> PreconditionError:
    """The error for the edge (u, v), u < v, that joins a point to itself or
    names no point."""
    return PreconditionError(f"bad edge {(u, v)}")


def triangle_key(a: int, b: int, c: int) -> tuple[int, int, int]:
    if a > b:
        a, b = b, a
    return (c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)


class TriangulationClass(Enum):
    WHEEL = "wheel"
    FAN = "fan"
    OTHER = "other"


class Triangulation:
    """Triangulation of a PointSet, stored as its apex map: each edge, a
    sorted pair, mapped to the sorted apexes of its one or two faces, with
    the adjacency of the same edges alongside.  The edge and face sets are
    views read from the apex map on first use.

    Every bounded face is an empty triangle; construction validates the Euler
    edge count 3n - 3 - h, pairwise noncrossing edges and face emptiness.
    """

    def __init__(self, ps: PointSet, triangles: Iterable[Sequence[int]]):
        opposites = _apex_map(frozenset(triangle_key(*t) for t in triangles))
        self.ps, self.hull = ps, ps.hull()
        self._opposites, self._adj = opposites, _adjacency(len(ps), opposites)
        self._check(opposites)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges, as sorted pairs: the keys of the apex map."""
        return frozenset(self._opposites)

    @cached_property
    def triangles(self) -> frozenset[tuple[int, int, int]]:
        """The faces, as sorted corner triples: each (a, b, c) read once from
        its side (a, b), whose apex c lies above b."""
        return frozenset((a, b, c) for (a, b), ws in self._opposites.items() for c in ws if c > b)

    # ------------------------------------------------------------------
    def _check(self, edges: Iterable[Edge]) -> None:
        """Raise InternalInvariantError unless the faces form a triangulation,
        given that they did outside `edges`: the edge count and the hull edges
        over the whole set, then one face per given hull edge, and two per
        other given edge with their apexes strictly on opposite sides; a face
        that repeats a corner fails one of these (see README, Verification).
        A failed certificate runs the emptiness and crossing scans for a
        witness."""
        ps, opposites = self.ps, self._opposites
        expected = 3 * len(ps) - 3 - len(self.hull)
        if len(opposites) != expected:
            raise InternalInvariantError(f"edge count {len(opposites)} != 3n-3-h = {expected}")
        hull_edges, xs, ys = ps.hull_edges(), ps.xs, ps.ys
        failed = None
        for e in edges:
            ws = opposites[e]
            want = 1 if e in hull_edges else 2
            if len(ws) != want:
                raise InternalInvariantError(f"edge {e} lies in {len(ws)} triangles, expected {want}")
            if want == 2 and failed is None:
                u, v = e
                ux, uy = xs[u], ys[u]
                dx, dy = xs[v] - ux, ys[v] - uy
                a, b = ws
                if (dx * (ys[a] - uy) - dy * (xs[a] - ux)) * (dx * (ys[b] - uy) - dy * (xs[b] - ux)) >= 0:
                    failed = f"the apexes {ws} of edge {e} lie on one side of it"
        if not opposites.keys() >= hull_edges:
            raise InternalInvariantError("hull edge missing from triangulation")
        if failed is None:
            return
        for (a, b, c) in self.triangles:
            for p in range(len(ps)):
                if p not in (a, b, c) and point_in_triangle(ps, a, b, c, p):
                    raise InternalInvariantError(f"triangle {(a, b, c)} contains vertex {p}")
        es = sorted(self.edges)
        pairs = crossing_pairs(ps, es)
        if pairs:
            i, j = pairs[0]
            raise InternalInvariantError(f"edges {es[i]} and {es[j]} cross")
        raise InternalInvariantError(failed)

    @classmethod
    def _from_maps(cls, ps: PointSet, opposites: dict[Edge, tuple[int, ...]],
                   adj: dict[int, set[int]], check: Iterable[Edge]) -> "Triangulation":
        """The triangulation of `ps` with these maps, taken as they are;
        `_check` runs on the edges `check` (see README, Verification)."""
        out = cls.__new__(cls)
        out.ps, out.hull, out._opposites, out._adj = ps, ps.hull(), opposites, adj
        out._check(check)
        return out

    def _replaced(self, gone: set[tuple[int, int, int]],
                  new: set[tuple[int, int, int]]) -> "Triangulation":
        """This triangulation with its faces `gone` replaced by `new` (sorted
        corner triples).  The maps are copied and changed on the edges of
        those faces only, and `_check` re-checks just those edges (see
        README, Verification)."""
        opposites = dict(self._opposites)
        adj = dict(self._adj)
        changed = {}
        for (a, b, c) in gone:
            for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                ws = opposites[e]
                opposites[e] = ws[:-1] if ws[-1] == w else ws[1:]
                changed[e] = None
        for (a, b, c) in new:
            for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                if e not in opposites:
                    u, v = e
                    adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
                ws = opposites.get(e, ())
                # apexes stay sorted; a third one fails the incidence check
                opposites[e] = ws + (w,) if not ws or ws[-1] < w else (w,) + ws
                changed[e] = None
        dropped = [e for e in changed if not opposites[e]]
        for (u, v) in dropped:
            adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
            del opposites[u, v], changed[u, v]
        return Triangulation._from_maps(self.ps, opposites, adj, changed)

    def restricted(self, keep: list[int]) -> "Triangulation":
        """The faces with every corner in the sorted ids `keep`, on
        `ps.subset(keep)` with each vertex renamed by its index there.  The
        maps are relabelled, and `_check` re-checks only the edges that lost
        a face, which the subset's hull must add to this hull's edges between
        kept vertices (see README, Augmentation by leaf peels)."""
        new = [-1] * len(self.ps)
        for i, v in enumerate(keep):
            new[v] = i
        ps = self.ps.subset(keep)
        opposites: dict[Edge, tuple[int, ...]] = {}
        lost: list[Edge] = []
        for (u, v), ws in self._opposites.items():
            if new[u] >= 0 and new[v] >= 0:
                # the renaming is increasing, so keys and apexes stay sorted
                e = (new[u], new[v])
                kept = opposites[e] = tuple(new[w] for w in ws if new[w] >= 0)
                if len(kept) < len(ws):
                    lost.append(e)
        hull_edges = {(new[u], new[v]) for u, v in self.ps.hull_edges() if new[u] >= 0 and new[v] >= 0}
        if ps.hull_edges() != hull_edges.union(lost):
            raise InternalInvariantError(f"keeping {len(keep)} vertices changes the hull beyond {lost}")
        adj = {i: {new[w] for w in self._adj[v] if new[w] >= 0} for i, v in enumerate(keep)}
        return Triangulation._from_maps(ps, opposites, adj, lost)

    def split(self, new_ps: PointSet, s: int) -> "Triangulation":
        """This triangulation on `new_ps`, which appends the one point s,
        with the triangle containing s replaced by the three around s."""
        ps, n = self.ps, len(self.ps)
        if s != n or len(new_ps) != n + 1 or new_ps.xs[:n] != ps.xs or new_ps.ys[:n] != ps.ys:
            raise PreconditionError(f"the new point set does not extend this one by point {s}")
        a, b, c = self.locate((new_ps.xs[s], new_ps.ys[s]))
        # each side of (a, b, c) trades its apex for s, which is above every
        # id; each new edge to s has the other two corners as apexes
        opposites, adj = dict(self._opposites), dict(self._adj)
        for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
            ws = opposites[e]
            opposites[e] = (ws[:-1] if ws[-1] == w else ws[1:]) + (s,)
        opposites[a, s], opposites[b, s], opposites[c, s] = (b, c), (a, c), (a, b)
        adj[a], adj[b], adj[c], adj[s] = adj[a] | {s}, adj[b] | {s}, adj[c] | {s}, {a, b, c}
        return Triangulation._from_maps(new_ps, opposites, adj,
                                        ((a, b), (b, c), (a, c), (a, s), (b, s), (c, s)))

    # ------------------------------------------------------------------
    def chords(self) -> list[Edge]:
        """Hull chords, sorted: edges joining two hull vertices that are not
        hull edges."""
        pos, hull_edges = self.ps.hull_positions(), self.ps.hull_edges()
        return sorted(e for e in self._opposites
                      if pos[e[0]] >= 0 and pos[e[1]] >= 0 and e not in hull_edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._adj[v])

    def common_neighbors(self, u: int, v: int) -> set[int]:
        return self._adj[u] & self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def opposites(self, e: Edge) -> tuple[int, ...]:
        return self._opposites[edge_key(*e)]

    def __contains__(self, e: Edge) -> bool:
        """Whether the sorted pair e is an edge, read from the apex map, so
        a triangulation serves as a container of its edges without `edges`."""
        return e in self._opposites

    def locate(self, s: tuple[int, int]) -> tuple[int, int, int]:
        """Triangle strictly containing the point s = (x, y), by a straight
        walk from vertex n - 1 to s (`_walk`).

        s must be in general position with the vertices, as a point that
        `PointSet.extended` accepted is; a collinear triple met on the way
        is a PreconditionError.
        """
        return self._walk(len(self.ps) - 1, s)[0]

    def crossed_edges(self, u: int, v: int) -> list[Edge]:
        """The edges that the segment between vertices u and v properly
        crosses, by a straight walk from its end of lower degree (`_walk`);
        none when uv is an edge."""
        adj = self._adj
        if v in adj[u]:
            return []
        if len(adj[u]) > len(adj[v]):
            u, v = v, u
        return self._walk(u, (self.ps.xs[v], self.ps.ys[v]), v)[1]

    def crossed_leaving(self, q: int, s: tuple[int, int]) -> list[Edge]:
        """The edges that the segment from vertex q to the point s, which
        lies outside the hull, properly crosses, in order: a `_walk` that
        ends where the segment leaves the hull, by the hull edge it crosses
        last, or at q when q is a hull vertex and the segment points out."""
        return self._walk(q, s, len(self.ps))[1]

    def _walk(self, q: int, s: tuple[int, int], end: int = -1
              ) -> tuple[tuple[int, int, int] | None, list[Edge]]:
        """A straight walk from vertex q to the point s (Devillers, Pion and
        Teillaud, *Walking in a triangulation*, 2002): the triangle that
        strictly contains s, or None when the walk reaches the vertex `end`
        at s or, for `end` = n, which names no vertex, leaves the hull, and
        the edges it crossed, in order.  It crosses only the edges that the
        segment crosses, each further along it (see README, Verification).
        A collinear triple met on the way, or for `end` < n an s outside the
        hull, is a PreconditionError."""
        xs, ys = self.ps.xs, self.ps.ys
        sx, sy = s
        qx, qy = xs[q], ys[q]
        dx, dy = sx - qx, sy - qy
        opposites = self._opposites
        # the triangle at q that the segment enters: right corner r, left l,
        # where side c of a neighbour is positive left of the line from q to s
        start = None
        for r in self._adj[q]:
            c = dx * (ys[r] - qy) - dy * (xs[r] - qx)
            if c == 0:
                raise PreconditionError(f"point {(sx, sy)} is collinear with vertices {q} and {r}")
            if c < 0 and start is None:
                rx, ry = xs[r] - qx, ys[r] - qy
                for l in opposites[edge_key(q, r)]:
                    lx, ly = xs[l] - qx, ys[l] - qy
                    if dx * ly > dy * lx and rx * ly > ry * lx:
                        start = (r, l)
        leaving = end == len(self.ps)
        if start is None:
            if leaving:
                return None, []
            raise PreconditionError(f"point {(sx, sy)} lies in no triangle")
        (r, l), far = start, q
        crossed: list[Edge] = []
        while True:
            # the segment leaves the counterclockwise triangle (far, r, l) by
            # its side (r, l); a point s lies beyond the side it entered by,
            # and the vertex `end` beyond (r, l) too
            if end < 0:
                rx, ry = xs[r], ys[r]
                c = (xs[l] - rx) * (sy - ry) - (ys[l] - ry) * (sx - rx)
                if c > 0:
                    return triangle_key(far, r, l), crossed
                if c == 0:
                    raise PreconditionError(f"point {(sx, sy)} is collinear with vertices {r} and {l}")
            e = (r, l) if r < l else (l, r)
            crossed.append(e)
            ws = opposites[e]
            if len(ws) == 1:
                if leaving:
                    return None, crossed
                raise PreconditionError(f"point {(sx, sy)} lies in no triangle")
            z = ws[1] if ws[0] == far else ws[0]
            if z == end:
                return None, crossed
            c = dx * (ys[z] - qy) - dy * (xs[z] - qx)
            if c > 0:
                far, l = l, z
            elif c < 0:
                far, r = r, z
            else:
                raise PreconditionError(f"point {(sx, sy)} is collinear with vertices {q} and {z}")

    def link_cycle(self, v: int) -> list[int]:
        """Neighbors of interior vertex v in counterclockwise angular order,
        from just after the downward vertical (`geometry.ccw_order`)."""
        return ccw_order(self.ps, v, self._adj[v])

    def link_is_cycle(self, v: int) -> bool:
        """True iff the neighbors of v induce exactly their angular cycle
        (all ring edges present, no chords between nonconsecutive ones)."""
        ring = self.link_cycle(v)
        k = len(ring)
        ring_edges = {edge_key(ring[i], ring[(i + 1) % k]) for i in range(k)}
        induced = {edge_key(a, b) for i, a in enumerate(ring) for b in ring[i + 1:]
                   if edge_key(a, b) in self._opposites}
        return k >= 3 and induced == ring_edges


def triangulate(ps: PointSet) -> Triangulation:
    """Deterministic triangulation by incremental lexicographic insertion.

    Each point in (x, y) order lies outside the hull of its predecessors, so
    it is joined to the chain of hull edges it sees (`visible_chain`), and
    replaces the hull vertices strictly inside that chain.
    """
    if len(ps) < 3:
        raise PreconditionError("need at least 3 points")
    order = sorted(range(len(ps)), key=lambda v: (ps.xs[v], ps.ys[v]))
    a, b, c = order[:3]
    tris = [triangle_key(a, b, c)]
    hull = [a, b, c] if cross(ps, a, b, c) > 0 else [a, c, b]
    for p in order[3:]:
        m = len(hull)
        i, k = visible_chain(ps, hull, p)
        if not k:
            raise InternalInvariantError("new lexicographic point sees no hull edge")
        for j in range(i, i + k):
            tris.append(triangle_key(hull[j % m], hull[(j + 1) % m], p))
        hull = [hull[(i + k + j) % m] for j in range(m - k + 1)] + [p]
    return Triangulation(ps, tris)


def is_flippable(t: Triangulation, e: Edge) -> bool:
    """A non-hull edge is flippable iff its quadrilateral is convex, i.e. the
    opposite diagonal properly crosses it."""
    e = edge_key(*e)
    if e not in t._opposites or e in t.ps.hull_edges():
        return False
    a, b = t.opposites(e)
    u, v = e
    return segments_properly_cross(t.ps, u, v, a, b)


def flip(t: Triangulation, e: Edge) -> Triangulation:
    """Replace e by the opposite diagonal of its quadrilateral."""
    e = edge_key(*e)
    if not is_flippable(t, e):
        raise PreconditionError(f"edge {e} is not flippable")
    a, b = t.opposites(e)
    u, v = e
    return t._replaced({triangle_key(u, v, a), triangle_key(u, v, b)},
                       {triangle_key(a, b, u), triangle_key(a, b, v)})


def classify(t: Triangulation) -> TriangulationClass:
    """Exact wheel / fan / other classification (n >= 4)."""
    n = len(t.ps)
    if n < 4:
        raise PreconditionError("classification requires n >= 4")
    h = len(t.hull)
    if h == n - 1:
        center = t.ps.hull_positions().index(-1)
        if t.degree(center) == n - 1:
            return TriangulationClass.WHEEL
    if h == n and any(t.degree(v) == n - 1 for v in range(n)):
        return TriangulationClass.FAN
    return TriangulationClass.OTHER


def complete_to_triangulation(ps: PointSet, required: Iterable[Edge] = (),
                              avoid: Iterable[Edge] = ()) -> Triangulation:
    """Greedy completion of a crossing-free edge set to a full triangulation.

    Candidates outside `required` are tried with edges in `avoid` last, then
    by squared length, then by id order, which makes the result deterministic.
    Each face that the required edges and the hull edges leave is filled on
    its own (`_fill_faces`); when they leave only triangles, those are read
    off (`_read_faces`).  A required edge that joins a point to itself or
    names no point is a PreconditionError (`checked_edges`), and so, after
    that check, are crossing required edges, named by their first crossing
    pair.
    """
    return _certified(ps, sorted(set(checked_edges(len(ps), required))),
                      {edge_key(*e) for e in avoid}, "required edges")


def triangulation_from_edges(ps: PointSet, edges: Iterable[Edge]) -> Triangulation:
    """The triangulation whose edge set is `edges`.

    Raises PreconditionError unless the edges are exactly 3n - 3 - h pairwise
    noncrossing segments, that is, a full triangulation, whose faces
    `_read_faces` reads off.  An edge that `checked_edges` rejects is named
    first, then a wrong count, then a crossing pair.
    """
    keyed = set(checked_edges(len(ps), edges))
    expected = 3 * len(ps) - 3 - len(ps.hull())
    if len(keyed) != expected:
        raise PreconditionError(f"edge count {len(keyed)} != 3n-3-h = {expected}")
    return _certified(ps, sorted(keyed), set(), "edges")


def _certified(ps: PointSet, es: list[Edge], avoid: set[Edge], what: str) -> Triangulation:
    """`_read_faces(ps, es)` when es and the hull edges number 3n - 3 - h,
    else `_fill_faces(ps, es, avoid)`.  Every edge of `es` is a sorted pair
    of two distinct points of `ps`, as `checked_edges` gives them; it is not
    checked again here.  The certificate fails whenever two of the sorted
    edges `es` cross, and only then does the sweep run, to name their first
    crossing pair as "{what} X and Y cross"."""
    n = len(ps)
    try:
        if len(ps.hull_edges().union(es)) == 3 * n - 3 - len(ps.hull()):
            return _read_faces(ps, es)
        return _fill_faces(ps, es, avoid)
    except InternalInvariantError:
        pair = first_crossing(ps, es)
        if pair is None:
            raise
        i, j = pair
        raise PreconditionError(f"{what} {es[i]} and {es[j]} cross") from None


def _apex_map(triangles: Iterable[tuple[int, int, int]]) -> dict[Edge, tuple[int, ...]]:
    """Each side of the sorted corner triples, mapped to its sorted apexes."""
    opposites: dict[Edge, tuple[int, ...]] = {}
    for (a, b, c) in triangles:
        # a < b < c, so each side is its own edge key
        for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
            ws = opposites.get(e, ())
            # apexes stay sorted; a third one fails the incidence check
            opposites[e] = ws + (w,) if not ws or ws[-1] < w else (w,) + ws
    return opposites


def _adjacency(n: int, edges: Iterable[Edge]) -> dict[int, set[int]]:
    """The neighbours of each of the n vertices along `edges`, which are
    already keyed; `checked_adjacency` builds them from an outside list."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _read_faces(ps: PointSet, required: list[Edge]) -> Triangulation:
    """The triangulation whose edges are R', `required` plus the hull edges,
    when R' has 3n - 3 - h edges (see README, Verification).  The faces
    come from `_side_apexes`; `_check` certifies the faces that these picks
    give, and their edges must be R'."""
    xs, ys = ps.xs, ps.ys
    plane = ps.hull_edges().union(required)
    adj = _adjacency(len(ps), plane)
    faces = []
    for u, v, left, right in _side_apexes(xs, ys, adj, plane):
        # a face is kept from its least edge only, so each is kept once
        if left > v:
            faces.append((u, v, left))
        if right > v:
            faces.append((u, v, right))
    opposites = _apex_map(faces)
    t = Triangulation._from_maps(ps, opposites, adj, opposites)
    if opposites.keys() != plane:
        raise InternalInvariantError("the faces read do not have the given edges")
    return t


def _side_apexes(xs: Sequence[int], ys: Sequence[int], adj: dict[int, set[int]],
                 edges: Iterable[Edge]) -> Iterator[tuple[int, int, int, int]]:
    """(u, v, left, right) for each edge uv of `edges`, in a plane edge set
    `adj` whose faces there are triangles: the apexes of the faces left and
    right of u -> v (-1 for none), each the common neighbour on that side
    with the least angle at u."""
    for u, v in edges:
        ux, uy = xs[u], ys[u]
        dx, dy = xs[v] - ux, ys[v] - uy
        left = right = -1
        lx = ly = rx = ry = 0
        for w in adj[u] & adj[v]:
            wx, wy = xs[w] - ux, ys[w] - uy
            # w turns less from v than the pick so far when it lies between them
            if dx * wy > dy * wx:
                if left < 0 or lx * wy < ly * wx:
                    left, lx, ly = w, wx, wy
            elif right < 0 or rx * wy > ry * wx:
                right, rx, ry = w, wx, wy
        yield u, v, left, right


def _fill_faces(ps: PointSet, required: list[Edge], avoid: set[Edge]) -> Triangulation:
    """The greedy completion of the plane edge set R', `required` plus the
    hull edges: its faces from `_faces_of`, filled by `_greedy_fill`, and
    the triangles read back by `_read_faces` (see README, Verification)."""
    plane = {*ps.hull_edges(), *required}
    pairs, inside, corner = _faces_of(ps, plane)
    room = 3 * len(ps) - 3 - len(ps.hull()) - len(plane)
    return _read_faces(ps, required + _greedy_fill(ps, pairs, inside, corner, avoid, room))


def _faces_of(ps: PointSet, plane: set[Edge]
              ) -> tuple[set[Edge], defaultdict[int, list[Edge]], Callable[[int, int], int]]:
    """The faces of the plane edge set `plane`, which holds the hull edges,
    as `_greedy_fill` takes them: the candidate pairs, the edges bounding
    each face, and the face that a segment leaves its end into.

    The faces are read once from the rotation system: each ring is
    `ccw_order`, and the walk after the directed edge (a, b) goes on to the
    neighbour just before a in b's ring, so it keeps its face on the left.
    A bounded face's outer walk winds counterclockwise, of positive area.
    Any other walk off the hull goes around a hole, a part of R' that no
    edge joins to the hull (a vertex with no edge is the walk of itself);
    the hole lies in the innermost outer walk that winds around it.  The
    candidates are the pairs of vertices of a face that is not a closed
    triangle, less `plane`; a face's bounding edges are those of its walks
    that are not hull edges."""
    hull_edges, on_hull = ps.hull_edges(), ps.hull_positions()
    xs, ys = ps.xs, ps.ys
    rings, keys = _edge_rings(ps, plane)
    pos = [dict(zip(ring, range(len(ring)))) for ring in rings]
    # at[v][i] is the walk of the corner at v from rings[v][i] on,
    # counterclockwise: the walk left of the edge from v to rings[v][i]
    at = [[-1] * len(ring) for ring in rings]
    walks: list[list[int]] = []
    area: list[int] = []
    for v, ring in enumerate(rings):
        if not ring:
            at[v] = [len(walks)]
            walks.append([v])
            area.append(0)
        for i, f in enumerate(at[v]):
            if f < 0:
                f, x, j, row, walk, twice = len(walks), v, i, at[v], [], 0
                while row[j] < 0:
                    row[j] = f
                    walk.append(x)
                    y = rings[x][j]
                    twice += xs[x] * ys[y] - xs[y] * ys[x]
                    x, j, row = y, pos[y][x] - 1, at[y]
                walks.append(walk)
                area.append(twice)
    bounded = [f for f, twice in enumerate(area) if twice > 0]
    # the walks around each face that is not a closed triangle: its outer
    # walk is longer, or it holds a hole
    rims = {f: [walks[f]] for f in bounded if len(walks[f]) > 3}
    canon = list(range(len(walks)))
    for f, walk in enumerate(walks):
        if area[f] <= 0 and on_hull[walk[0]] < 0:
            r = walk[0]
            home = min((g for g in bounded if r not in walks[g] and _winding(ps, walks[g], r)),
                       key=area.__getitem__, default=None)
            if home is None:
                raise InternalInvariantError(f"vertex {r} lies in no face")
            canon[f] = home
            rims.setdefault(home, [walks[home]]).append(walk)
    pairs: set[Edge] = set()
    # a crossing R' may send a pair into some other face: it starts empty
    inside: defaultdict[int, list[Edge]] = defaultdict(list)
    for f, rim in rims.items():
        pairs.update(combinations(sorted(set().union(*rim)), 2))
        # (the walk of a vertex with no edge gives the pair (v, v), not in R')
        inside[f] = [e for e in {edge_key(a, b) for w in rim for a, b in zip(w, w[1:] + w[:1])}
                     if e in plane and e not in hull_edges]
    pairs -= plane

    def corner(u: int, w: int) -> int:
        """The face that the segment from u to w leaves u into."""
        fs = at[u]
        if len(fs) == 1:
            return canon[fs[0]]
        return canon[fs[bisect(keys[u], _ccw_key(ps, u)(w)) - 1]]

    return pairs, inside, corner


def _greedy_fill(ps: PointSet, pairs: set[Edge], inside: dict[int, list[Edge]],
                 corner: Callable[[int, int], int | None], avoid: Container[Edge],
                 room: int) -> list[Edge]:
    """The `room` candidate `pairs` that greedy completion takes, in the
    order (in `avoid`, squared length, ids), one face at a time: a pair is
    taken when `corner` gives one face, not None, at both of its ends and
    the pair crosses none of that face's edges, `inside[f]`, which grows by
    each pair taken in it (see README, Verification)."""
    xs, ys = ps.xs, ps.ys

    def sqlen(e: Edge) -> int:
        u, v = e
        return (xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2

    taken: list[Edge] = []
    for e in sorted(pairs, key=lambda e: (e in avoid, sqlen(e), e)):
        if len(taken) >= room:
            break
        u, v = e
        f = corner(u, v)
        if f is not None and f == corner(v, u) and not crosses_any(ps, e, inside[f]):
            inside[f].append(e)
            taken.append(e)
    if len(taken) != room:
        raise InternalInvariantError("greedy completion failed to reach a triangulation")
    return taken


def refilled(t: Triangulation, dropped: Iterable[Edge],
             avoid: Container[Edge] = frozenset()) -> tuple[Triangulation, list[Edge]]:
    """The greedy completion of R, t's edges less `dropped` (sorted pairs),
    with the edges it took that R lacks: `complete_to_triangulation(t.ps,
    R, avoid)`, read from t, which fills again only the faces that the
    dropped edges D, less the hull edges, cross (see README, Verification).

    R', R plus the hull edges, is t without D, so its faces are t's
    triangles with no side in D and the regions that t's triangles on D
    form, glued along D.  Each region is filled on its own by
    `_greedy_fill`: its candidates are the pairs of its corners outside R',
    its edges are the sides of its triangles outside D, off the hull, and a
    segment leaves u into it when it runs along a side in D of the region
    or strictly inside the angle at u of one of the region's triangles.
    The new triangles are read from the sides of each taken edge
    (`_side_apexes` on the regions' edges) and spliced in by `_replaced`,
    whose `_check` certifies every edge they touch."""
    ps, opposites = t.ps, t._opposites
    hull_edges = ps.hull_edges()
    dropped = {e for e in dropped if e not in hull_edges}
    if not dropped:
        return t, []
    if not opposites.keys() >= dropped:
        raise PreconditionError("dropped edges must be edges of the triangulation")
    xs, ys = ps.xs, ps.ys
    # the regions: t's triangles on dropped edges, glued along them
    region: dict[tuple[int, int, int], int] = {}
    count = 0
    for e in sorted(dropped):
        first = triangle_key(*e, opposites[e][0])
        if first in region:
            continue
        region[first], stack = count, [first]
        while stack:
            a, b, c = stack.pop()
            for side, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                if side in dropped:
                    for x in opposites[side]:
                        nb = triangle_key(*side, x)
                        if x != w and nb not in region:
                            region[nb] = count
                            stack.append(nb)
        count += 1
    corners: list[set[int]] = [set() for _ in range(count)]
    rims: list[set[Edge]] = [set() for _ in range(count)]
    # rims[f]: the sides of region f's triangles outside D; wedges[u]:
    # (p, q, f) for the angle at u, from p counterclockwise to q, of each
    # triangle of region f; along[u][p]: the region of the dropped edge up
    wedges: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
    along: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for (a, b, c), f in region.items():
        corners[f].update((a, b, c))
        for u, p, q in ((a, b, c), (b, c, a), (c, a, b)):
            if (xs[p] - xs[u]) * (ys[q] - ys[u]) - (ys[p] - ys[u]) * (xs[q] - xs[u]) < 0:
                p, q = q, p
            wedges[u].append((p, q, f))
            side = edge_key(u, p)
            if side in dropped:
                along[u][p] = along[p][u] = f
            else:
                rims[f].add(side)
    pairs = {e for f in range(count) for e in combinations(sorted(corners[f]), 2)
             if e in dropped or e not in opposites}
    inside = {f: [e for e in rim if e not in hull_edges] for f, rim in enumerate(rims)}

    def corner(u: int, w: int) -> int | None:
        """The region that the segment from u to w leaves u into, if any."""
        if w in along[u]:
            return along[u][w]
        ux, uy = xs[u], ys[u]
        wx, wy = xs[w] - ux, ys[w] - uy
        for p, q, f in wedges[u]:
            if (xs[p] - ux) * wy - (ys[p] - uy) * wx > 0 and wx * (ys[q] - uy) - wy * (xs[q] - ux) > 0:
                return f
        return None

    taken = _greedy_fill(ps, pairs, inside, corner, avoid, len(dropped))
    adj: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in (*set().union(*rims), *taken):
        adj[u].add(v)
        adj[v].add(u)
    new = set()
    for u, v, left, right in _side_apexes(xs, ys, adj, taken):
        if left < 0 or right < 0:
            raise InternalInvariantError(f"refilled edge {(u, v)} misses a face")
        new.update((triangle_key(u, v, left), triangle_key(u, v, right)))
    return t._replaced(set(region), new), taken


def _winding(ps: PointSet, walk: list[int], r: int) -> int:
    """The winding number of the closed walk around vertex r, which lies on
    none of its edges: each edge that crosses the rightward ray from r counts
    +1 upward and -1 downward (ends half-open in y)."""
    xs, ys, px, py = ps.xs, ps.ys, ps.xs[r], ps.ys[r]
    w = 0
    for a, b in zip(walk, walk[1:] + walk[:1]):
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        if (ay <= py) != (by <= py):
            side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if ay <= py < by and side > 0:
                w += 1
            elif by <= py < ay and side < 0:
                w -= 1
    return w
