"""Plane triangulations with face adjacency, edge flips and classification."""
from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InternalInvariantError, PreconditionError
from .geometry import (PointSet, _ccw_key, _edge_rings, ccw_order, crossing_pairs, crosses_any,
                       cross, first_crossing, point_in_triangle,
                       segments_properly_cross, visible_chain)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def triangle_key(a: int, b: int, c: int) -> tuple[int, int, int]:
    if a > b:
        a, b = b, a
    return (c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)


class TriangulationClass(Enum):
    WHEEL = "wheel"
    FAN = "fan"
    OTHER = "other"


class Triangulation:
    """Triangulation of a PointSet, stored as its set of triangle faces.

    Every bounded face is an empty triangle; construction validates the Euler
    edge count 3n - 3 - h, pairwise noncrossing edges and face emptiness.
    """

    def __init__(self, ps: PointSet, triangles: Iterable[Sequence[int]]):
        self.ps = ps
        self.triangles: frozenset[tuple[int, int, int]] = frozenset(
            triangle_key(*t) for t in triangles)
        opposites: dict[Edge, list[int]] = {}
        for (a, b, c) in self.triangles:
            # a < b < c, so each side is its own edge key
            for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                opposites.setdefault(e, []).append(w)
        self.edges: frozenset[Edge] = frozenset(opposites)
        self._opposites = {e: tuple(sorted(ws)) for e, ws in opposites.items()}
        self.hull: tuple[int, ...] = ps.hull()
        adj: dict[int, set[int]] = {v: set() for v in range(len(ps))}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        self._check(self._opposites)

    # ------------------------------------------------------------------
    def _check(self, edges: Iterable[Edge]) -> None:
        """Raise InternalInvariantError unless the faces form a triangulation,
        given that they did outside `edges`: the edge count and the hull edges
        over the whole set, then one face per given hull edge, and two per
        other given edge with their apexes strictly on opposite sides; a face
        that repeats a corner fails one of these (see README, Verification).
        A failed certificate runs the emptiness and crossing scans for a
        witness."""
        ps = self.ps
        expected = 3 * len(ps) - 3 - len(self.hull)
        if len(self.edges) != expected:
            raise InternalInvariantError(f"edge count {len(self.edges)} != 3n-3-h = {expected}")
        hull_edges, opposites = ps.hull_edges(), self._opposites
        failed = None
        for e in edges:
            ws = opposites[e]
            want = 1 if e in hull_edges else 2
            if len(ws) != want:
                raise InternalInvariantError(f"edge {e} lies in {len(ws)} triangles, expected {want}")
            if want == 2 and failed is None:
                u, v = e
                if cross(ps, u, v, ws[0]) * cross(ps, u, v, ws[1]) >= 0:
                    failed = f"the apexes {ws} of edge {e} lie on one side of it"
        if not hull_edges <= self.edges:
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

    def _replaced(self, ps: PointSet, gone: set[tuple[int, int, int]],
                  new: set[tuple[int, int, int]]) -> "Triangulation":
        """This triangulation on `ps`, which may append points, with its faces
        `gone` replaced by `new` (sorted corner triples).  The maps are copied
        and changed on the edges of those faces only, and `_check` re-checks
        just those edges (see README, Verification)."""
        out = Triangulation.__new__(Triangulation)
        out.ps, out.hull = ps, ps.hull()
        if out.hull != self.hull:
            raise InternalInvariantError(f"replacing {sorted(gone)} by {sorted(new)} changed the hull")
        out.triangles = (self.triangles - gone) | new
        opposites = out._opposites = dict(self._opposites)
        adj = out._adj = dict(self._adj)
        for v in range(len(self.ps), len(ps)):
            adj[v] = set()
        changed, added = {}, []
        for (a, b, c) in gone:
            for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                ws = opposites[e]
                opposites[e] = ws[:-1] if ws[-1] == w else ws[1:]
                changed[e] = None
        for (a, b, c) in new:
            for e, w in (((a, b), c), ((b, c), a), ((a, c), b)):
                ws = opposites.get(e, ())
                if not ws and e not in opposites:
                    added.append(e)
                # apexes stay sorted; a third one fails the incidence check
                opposites[e] = ws + (w,) if not ws or ws[-1] < w else (w,) + ws
                changed[e] = None
        for (u, v) in added:
            adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
        dropped = [e for e in changed if not opposites[e]]
        for (u, v) in dropped:
            adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
            del opposites[u, v], changed[u, v]
        edges = self.edges.union(added)
        out.edges = edges.difference(dropped) if dropped else edges
        out._check(changed)
        return out

    def split(self, new_ps: PointSet, s: int) -> "Triangulation":
        """This triangulation on `new_ps`, which appends the one point s,
        with the triangle containing s replaced by the three around s."""
        ps, n = self.ps, len(self.ps)
        if s != n or len(new_ps) != n + 1 or new_ps.xs[:n] != ps.xs or new_ps.ys[:n] != ps.ys:
            raise PreconditionError(f"the new point set does not extend this one by point {s}")
        a, b, c = tri = self.locate((new_ps.xs[s], new_ps.ys[s]))
        return self._replaced(new_ps, {tri}, {(a, b, s), (b, c, s), (a, c, s)})

    # ------------------------------------------------------------------
    def chords(self) -> list[Edge]:
        """Hull chords, sorted: edges joining two hull vertices that are not
        hull edges."""
        pos, hull_edges = self.ps.hull_positions(), self.ps.hull_edges()
        return sorted(e for e in self.edges
                      if pos[e[0]] >= 0 and pos[e[1]] >= 0 and e not in hull_edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def opposites(self, e: Edge) -> tuple[int, ...]:
        return self._opposites[edge_key(*e)]

    def locate(self, s: tuple[int, int]) -> tuple[int, int, int]:
        """Triangle strictly containing the point s = (x, y), by a straight
        walk from vertex n - 1 to s (Devillers, Pion and Teillaud, *Walking
        in a triangulation*, 2002): the walk crosses only the edges that the
        segment crosses, each further along it (see README, Verification).

        s must be in general position with the vertices, as a point that
        `PointSet.extended` accepted is; a collinear triple met on the way
        is a PreconditionError.
        """
        ps = self.ps
        xs, ys = ps.xs, ps.ys
        sx, sy = s
        q = len(ps) - 1
        qx, qy = xs[q], ys[q]

        def side(v: int) -> int:
            """Positive when v is left of the directed line from q to s."""
            c = (sx - qx) * (ys[v] - qy) - (sy - qy) * (xs[v] - qx)
            if c == 0:
                raise PreconditionError(f"point {(sx, sy)} is collinear with vertices {q} and {v}")
            return c

        # the triangle at q that the segment enters: right corner r, left l
        left = {v: side(v) > 0 for v in self._adj[q]}
        start = next(((r, l) for r, is_left in left.items() if not is_left
                      for l in self._opposites[edge_key(q, r)]
                      if left[l] and cross(ps, q, r, l) > 0), None)
        if start is None:
            raise PreconditionError(f"point {(sx, sy)} lies in no triangle")
        (r, l), far = start, q
        while True:
            # the segment leaves the counterclockwise triangle (far, r, l) by
            # its side (r, l), and s lies beyond the side it entered by
            c = (xs[l] - xs[r]) * (sy - ys[r]) - (ys[l] - ys[r]) * (sx - xs[r])
            if c > 0:
                return triangle_key(far, r, l)
            if c == 0:
                raise PreconditionError(f"point {(sx, sy)} is collinear with vertices {r} and {l}")
            ws = self._opposites[edge_key(r, l)]
            if len(ws) == 1:
                raise PreconditionError(f"point {(sx, sy)} lies in no triangle")
            z = ws[1] if ws[0] == far else ws[0]
            if side(z) > 0:
                far, l = l, z
            else:
                far, r = r, z

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
                   if edge_key(a, b) in self.edges}
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
    if e not in t.edges or e in t.ps.hull_edges():
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
    return t._replaced(t.ps, {triangle_key(u, v, a), triangle_key(u, v, b)},
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
    its own (`_fill_faces`).  Crossing required edges are a PreconditionError
    that names their first crossing pair, and so is a required edge that
    joins a point to itself or names no point.
    """
    return _certified(ps, sorted({edge_key(*e) for e in required}),
                      {edge_key(*e) for e in avoid}, "required edges")


def triangulation_from_edges(ps: PointSet, edges: Iterable[Edge]) -> Triangulation:
    """The triangulation whose edge set is `edges`.

    Raises PreconditionError unless the edges are exactly 3n - 3 - h pairwise
    noncrossing segments, that is, a full triangulation.  Such a set leaves
    only triangle faces, and `_fill_faces` reads them as they are.
    """
    keyed = {(u, v) if u < v else (v, u) for u, v in edges}
    expected = 3 * len(ps) - 3 - len(ps.hull())
    if len(keyed) != expected:
        raise PreconditionError(f"edge count {len(keyed)} != 3n-3-h = {expected}")
    return _certified(ps, sorted(keyed), set(), "edges")


def _certified(ps: PointSet, es: list[Edge], avoid: set[Edge], what: str) -> Triangulation:
    """`_fill_faces(ps, es, avoid)`, once every edge of `es` joins two
    distinct points of `ps`.  The certificate fails whenever two of the
    sorted edges `es` cross, and only then does the sweep run, to name their
    first crossing pair as "{what} X and Y cross"."""
    n = len(ps)
    for u, v in es:
        if not 0 <= u < v < n:
            raise PreconditionError(f"bad edge {(u, v)}")
    try:
        return _fill_faces(ps, es, avoid)
    except InternalInvariantError:
        pair = first_crossing(ps, es)
        if pair is None:
            raise
        i, j = pair
        raise PreconditionError(f"{what} {es[i]} and {es[j]} cross") from None


def _fill_faces(ps: PointSet, required: list[Edge], avoid: set[Edge]) -> Triangulation:
    """The greedy completion of the plane edge set R', `required` plus the
    hull edges, one face of R' at a time (see README, Verification).

    The faces of R' are read once from its rotation system: each ring is
    `ccw_order`, and the walk after the directed edge (a, b) goes on to the
    neighbour just before a in b's ring, so it keeps its face on the left.
    A bounded face's outer walk winds counterclockwise, of positive area.
    Any other walk off the hull goes around a hole, a part of R' that no
    edge joins to the hull (a vertex with no edge is the walk of itself);
    the hole lies in the innermost outer walk that winds around it.  A
    candidate pair gets the face of the corner it leaves at each end, is
    rejected when the two differ, and is otherwise tested against the edges
    of that face only.  The triangles are the closed triangle faces of R'
    and the two on each taken edge; `Triangulation` certifies them, and
    their edges must be R' and the taken ones."""
    n, xs, ys = len(ps), ps.xs, ps.ys
    hull_edges, on_hull = ps.hull_edges(), ps.hull_positions()
    plane = {*hull_edges, *required}
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

    def sqlen(e: Edge) -> int:
        u, v = e
        return (xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2

    room = 3 * n - 3 - len(ps.hull()) - len(plane)
    taken: list[Edge] = []
    for e in sorted(pairs, key=lambda e: (e in avoid, sqlen(e), e)):
        if len(taken) >= room:
            break
        u, v = e
        f = corner(u, v)
        if f == corner(v, u) and not crosses_any(ps, e, inside[f]):
            inside[f].append(e)
            taken.append(e)
    if len(taken) != room:
        raise InternalInvariantError("greedy completion failed to reach a triangulation")
    # `Triangulation` keys and deduplicates the corner triples
    tris = [walks[f] for f in bounded if f not in rims]
    for (u, v) in taken:
        for a, b in ((u, v), (v, u)):
            k = _ccw_key(ps, a)(b)
            i = bisect(keys[a], k)
            keys[a].insert(i, k)
            rings[a].insert(i, b)
    for a in {a for e in taken for a in e}:
        pos[a] = dict(zip(rings[a], range(len(rings[a]))))
    for (u, v) in taken:
        tris.append((u, v, rings[v][pos[v][u] - 1]))
        tris.append((u, v, rings[u][pos[u][v] - 1]))
    t = Triangulation(ps, tris)
    plane.update(taken)
    if t.edges != plane:
        raise InternalInvariantError("the completed faces do not have the chosen edges")
    return t


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
