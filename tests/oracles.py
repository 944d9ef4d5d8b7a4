"""Independent brute-force oracles and reference implementations, kept
deliberately separate from the library's algorithms."""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter, deque
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable, Sequence

from biplane.connectivity import Bichord, CutReport, SeparatingTriangle
from biplane.errors import ImpossibleError, InternalInvariantError, PreconditionError
from biplane.generators import random_general_position
from biplane.geometry import Point, PointSet
from biplane.layered import LAYER1, LAYER2, LayeredGraph
from biplane.triangulation import Edge, Triangulation, edge_key, triangle_key, triangulate


def ref_cross(o: Point, a: Point, b: Point) -> int:
    """(a - o) x (b - o), twice the signed area of the triangle oab."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def ref_segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd cross iff each one's ends lie strictly on
    opposite sides of the other's line."""
    return (ref_cross(a, b, c) * ref_cross(a, b, d) < 0
            and ref_cross(c, d, a) * ref_cross(c, d, b) < 0)


def ref_point_in_triangle(a: Point, b: Point, c: Point, s: Point) -> bool:
    """s strictly inside triangle abc: the triangles that s makes with the
    three edges have nonzero areas of one sign."""
    d = (ref_cross(a, b, s), ref_cross(b, c, s), ref_cross(c, a, s))
    return min(d) > 0 or max(d) < 0


def bf_vertex_connectivity(n: int, edges) -> int:
    """Smallest vertex subset whose removal disconnects the graph (n - 1 for
    complete graphs), by enumerating every subset."""
    adj = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_after(removed: set[int]) -> bool:
        alive = [v for v in range(n) if v not in removed]
        if len(alive) <= 1:
            return True
        seen = {alive[0]}
        stack = [alive[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(alive)

    for k in range(0, n - 1):
        for subset in combinations(range(n), k):
            if not connected_after(set(subset)):
                return k
    return n - 1


class _FlowNet:
    """Tiny augmenting-path max-flow on an explicit residual arc list."""

    def __init__(self, nodes: int):
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int) -> int:
        flow = 0
        while flow < limit:
            parent_arc = [-1] * len(self.head)
            parent_arc[s] = -2
            queue = deque([s])
            while queue and parent_arc[t] == -1:
                u = queue.popleft()
                for a in self.head[u]:
                    v = self.to[a]
                    if parent_arc[v] == -1 and self.cap[a] > 0:
                        parent_arc[v] = a
                        queue.append(v)
            if parent_arc[t] == -1:
                break
            v = t
            while v != s:
                a = parent_arc[v]
                self.cap[a] -= 1
                self.cap[a ^ 1] += 1
                v = self.to[a ^ 1]
            flow += 1
        return flow


def _local_vertex_connectivity(n: int, adj, s: int, t: int, limit: int) -> int:
    """Max number of internally vertex-disjoint s-t paths (s, t nonadjacent),
    capped at `limit`, on a split-vertex network built for this pair alone."""
    inf = 1 << 30
    net = _FlowNet(2 * n)
    for v in range(n):
        net.add(2 * v, 2 * v + 1, inf if v in (s, t) else 1)
    for u in range(n):
        for v in adj[u]:
            net.add(2 * u + 1, 2 * v, inf)
    return net.max_flow(2 * s + 1, 2 * t, limit)


def ref_vertex_connectivity(n: int, edges) -> int:
    """Reference vertex connectivity for graphs too large to enumerate: every
    non-neighbour of a minimum-degree vertex and every nonadjacent pair of
    its neighbours, from n - 1 down, with a fresh flow network per pair and
    plain augmenting paths."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    s = min(range(n), key=lambda v: (len(adj[v]), v))
    best = n - 1
    for t in range(n):
        if t != s and t not in adj[s]:
            best = _local_vertex_connectivity(n, adj, s, t, best)
    nbrs = sorted(adj[s])
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1:]:
            if v not in adj[u]:
                best = _local_vertex_connectivity(n, adj, u, v, best)
    return best


def ref_is_flippable(t: Triangulation, e: Edge) -> bool:
    """e has two apexes a and b, and the diagonals of its quadrilateral, e
    and ab, properly cross: the quadrilateral is strictly convex."""
    e = edge_key(*e)
    if e not in t.edges or len(t.opposites(e)) != 2:
        return False
    (u, v), (a, b) = e, t.opposites(e)
    ps = t.ps
    return ref_segments_properly_cross(ps[u], ps[v], ps[a], ps[b])


def ref_flip(t: Triangulation, e: Edge) -> Triangulation:
    """Replace e by the opposite diagonal of its quadrilateral."""
    e = edge_key(*e)
    if not ref_is_flippable(t, e):
        raise PreconditionError(f"edge {e} is not flippable")
    a, b = t.opposites(e)
    u, v = e
    tris = set(t.triangles)
    tris.discard(triangle_key(u, v, a))
    tris.discard(triangle_key(u, v, b))
    tris.add(triangle_key(a, b, u))
    tris.add(triangle_key(a, b, v))
    return Triangulation(t.ps, tris)


def ref_locate(t: Triangulation, s: tuple[int, int]) -> tuple[int, int, int]:
    """Triangle strictly containing the point s = (x, y), by one scan in
    O(m).  The faces of a valid triangulation have disjoint interiors, so at
    most one triangle contains s and the scan order does not matter."""
    pts, q = t.ps.points, Point(*s)
    for (a, b, c) in t.triangles:
        if ref_point_in_triangle(pts[a], pts[b], pts[c], q):
            return (a, b, c)
    raise PreconditionError(f"point {q.coords()} lies in no triangle")


def ref_random_triangulation(n: int, seed: int, flips: int | None = None):
    """`random_triangulation` re-testing every edge with `ref_is_flippable`
    before each flip, with the rebuilding `ref_flip`."""
    t = triangulate(random_general_position(n, seed))
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(flips if flips is not None else 3 * n):
        candidates = sorted(e for e in t.edges if ref_is_flippable(t, e))
        if not candidates:
            break
        t = ref_flip(t, candidates[rng.randrange(len(candidates))])
    return t


def ref_hamiltonian_cycle(n: int, edges) -> list[int]:
    """The Hamiltonian backtracking search with its feasibility test rerun
    over every unvisited vertex at every node of the search."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n < 3:
        raise PreconditionError("cycle needs n >= 3")
    path = [0]
    on_path = [False] * n
    on_path[0] = True

    def feasible() -> bool:
        tail = path[-1]
        for v in range(n):
            if on_path[v]:
                continue
            free = sum(1 for w in adj[v] if not on_path[w] or w == tail or w == 0)
            if free < 2:
                return False
        return True

    def extend() -> bool:
        if len(path) == n:
            return 0 in adj[path[-1]]
        if not feasible():
            return False
        for w in sorted(adj[path[-1]]):
            if not on_path[w]:
                path.append(w)
                on_path[w] = True
                if extend():
                    return True
                on_path[w] = False
                path.pop()
        return False

    if not extend():
        raise PreconditionError("no Hamiltonian cycle found")
    return path


def bf_first_crossing(ps: PointSet, edges) -> tuple[int, int] | None:
    """First index pair (i, j), i < j, of properly crossing `edges` met by a
    nested loop; None when the edges are pairwise noncrossing."""
    pts = ps.points
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if ref_segments_properly_cross(pts[a], pts[b], pts[c], pts[d]):
                return i, j
    return None


def bf_first_collinear(xs: Sequence[int], ys: Sequence[int],
                       known: int) -> tuple[int, int, int] | None:
    """First collinear triple (i, j, k), i < j < k and k >= known, of a full
    lexicographic triple scan; None when there is none.  Points are assumed
    distinct."""
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = xs[j] - xs[i], ys[j] - ys[i]
            for k in range(max(j + 1, known), n):
                if dx * (ys[k] - ys[i]) == dy * (xs[k] - xs[i]):
                    return i, j, k
    return None


def bf_two_edge_connected(n: int, edges) -> bool:
    """Remove each edge in turn and test connectivity."""
    edges = list(edges)

    def connected(es) -> bool:
        adj = {v: set() for v in range(n)}
        for (u, v) in es:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    if not connected(edges):
        return False
    return all(connected(edges[:i] + edges[i + 1:]) for i in range(len(edges)))


def bf_hull_ids(ps: PointSet) -> set[int]:
    """A point is on the hull iff it is outside some triangle-free halfplane:
    brute force via all point triples."""
    n, pts = len(ps), ps.points
    inside = set()
    for i in range(n):
        for tri in combinations((j for j in range(n) if j != i), 3):
            a, b, c = (pts[t] for t in tri)
            d1, d2, d3 = ref_cross(a, b, pts[i]), ref_cross(b, c, pts[i]), ref_cross(c, a, pts[i])
            if (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0):
                inside.add(i)
                break
    return set(range(n)) - inside


def _subset_convex(ps: PointSet, ids: tuple[int, ...]) -> tuple[bool, int]:
    """(is convex position, doubled hull area) for a subset of >= 3 points."""
    pts = [ps[i] for i in ids]
    order = sorted(pts, key=lambda p: (p.x, p.y))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ref_cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(order)
    upper = half(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) != len(ids):
        return False, 0
    area = 0
    for a, b in zip(hull, hull[1:] + hull[:1]):
        area += a.x * b.y - b.x * a.y
    return True, area


def bf_optimal_convex_subsets(ps: PointSet) -> list[tuple[int, ...]]:
    """Every convex-position subset of the largest size that has the largest
    doubled hull area among them, by exhaustive search, in id order."""
    n = len(ps)
    for k in range(n, 2, -1):
        found = []
        for ids in combinations(range(n), k):
            ok, area = _subset_convex(ps, ids)
            if ok:
                found.append((area, ids))
        if found:
            top = max(area for area, _ in found)
            return [ids for area, ids in found if area == top]
    raise AssertionError("no convex subset of size 3 found")


def bf_max_convex_subset(ps: PointSet) -> tuple[int, ...]:
    """Exhaustive search over all subsets: maximize size, then doubled hull
    area, then lexicographically smallest sorted id tuple."""
    return bf_optimal_convex_subsets(ps)[0]


def bf_largest_anchored_convex(ps: PointSet, a: int) -> int:
    """The most points of a convex-position subset whose lexicographically
    smallest point is a, by exhaustive search with cross products only; 0
    when fewer than two points are lexicographically greater than a."""
    later = [i for i in range(len(ps)) if (ps[i].x, ps[i].y) > (ps[a].x, ps[a].y)]
    for k in range(len(later), 1, -1):
        if any(_subset_convex(ps, (a,) + rest)[0] for rest in combinations(later, k)):
            return k + 1
    return 0


# The O(n^4) chain dynamic program that `max_convex_subset_indices` used
# before its angular sweep, kept as the reference for larger sets.

def _angular_ccw_key(anchor: Point):
    """Sort key for points strictly lex-greater than anchor: CCW starting
    just above the downward vertical.  Exact, comparison based."""

    def cmp(p: Point, q: Point) -> int:
        c = ref_cross(anchor, p, q)
        if c > 0:
            return -1
        if c < 0:
            return 1
        raise PreconditionError("collinear points in angular sort")

    return cmp_to_key(cmp)


def ref_ccw_ring(xs: Sequence[int], ys: Sequence[int], v: int) -> tuple[list[int], list[int]]:
    """v's ring of geometry._ccw_rings by a cross-product comparator: entries in the
    half-plane dx > 0 or (dx == 0, dy > 0), counterclockwise, then negated."""
    vx, vy = xs[v], ys[v]
    dirs: list[tuple[int, int, int]] = []
    for p in range(len(xs)):
        if p != v:
            dx, dy = xs[p] - vx, ys[p] - vy
            dirs.append((dx, dy, p) if (dx, dy) > (0, 0) else (-dx, -dy, ~p))
    dirs.sort(key=cmp_to_key(lambda d, f: -1 if d[0] * f[1] > d[1] * f[0] else 1))
    half = [e for _, _, e in dirs]
    at = [0] * len(xs)
    for i, e in enumerate(half):
        at[e if e >= 0 else ~e] = i
    return half + [~e for e in half], at


def dp_max_convex_subset(ps: PointSet) -> tuple[int, ...]:
    """Ids of a maximum-cardinality convex-position subset.

    Ties are broken by largest doubled hull area, then by lexicographically
    smallest sorted id tuple, which makes the result deterministic.  Dynamic
    program over directed chain edges, run once per choice of the
    lexicographically smallest member of the subset.
    """
    if len(ps) < 3:
        raise PreconditionError("need at least 3 points")
    pts = ps.points
    lex = sorted(pts, key=lambda p: (p.x, p.y))
    best: tuple[int, int, tuple[int, ...]] | None = None  # (size, area2, ids) to maximize

    def better(cand: tuple[int, int, tuple[int, ...]]) -> bool:
        if best is None:
            return True
        if cand[0] != best[0]:
            return cand[0] > best[0]
        if cand[1] != best[1]:
            return cand[1] > best[1]
        return cand[2] < best[2]

    for ai, anchor in enumerate(lex):
        cand_pts = sorted(lex[ai + 1:], key=_angular_ccw_key(anchor))
        m = len(cand_pts)
        # state[(u, v)] = best chain anchor -> ... -> u -> v with convex left
        # turns at every interior vertex; u == -1 stands for the anchor.
        # Value (size, doubled area, sorted id tuple); extensions add the same
        # increments to every chain ending at the same edge, so keeping a
        # single dominating value per edge is sound.
        state: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {
            (-1, vi): (2, 0, tuple(sorted((anchor.id, cand_pts[vi].id))))
            for vi in range(m)
        }
        for vi in range(m):
            v = cand_pts[vi]
            for ui in [-1] + list(range(vi)):
                st = state.get((ui, vi))
                if st is None:
                    continue
                size, area, ids = st
                prev = anchor if ui == -1 else cand_pts[ui]
                for wi in range(vi + 1, m):
                    w = cand_pts[wi]
                    if ref_cross(prev, v, w) > 0:
                        nxt = (size + 1, area + ref_cross(anchor, v, w),
                               tuple(sorted(ids + (w.id,))))
                        cur = state.get((vi, wi))
                        if cur is None or nxt[0] > cur[0] or (
                                nxt[0] == cur[0] and (nxt[1] > cur[1] or (
                                nxt[1] == cur[1] and nxt[2] < cur[2]))):
                            state[(vi, wi)] = nxt
        # a chain closes into a polygon when the turn at its last vertex
        # toward the anchor is convex; the turn at the anchor itself is
        # automatic because candidates span less than a half turn.
        for (ui, vi), (size, area, ids) in state.items():
            if ui >= 0 and ref_cross(cand_pts[ui], cand_pts[vi], anchor) > 0:
                cand = (size, area, ids)
                if better(cand):
                    best = cand
    if best is None or best[0] < 3:
        # every 3 general-position points are in convex position
        raise PreconditionError("no convex subset found")  # pragma: no cover
    return best[2]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def bf_triangulation_ok(ps: PointSet, triangles) -> bool:
    """Definition check of a triangulation by exhaustive scans: every triangle
    has three distinct corners and no point strictly inside, no two edges
    properly cross, each hull edge borders exactly one triangle and every
    other edge two, and there are 3n - 3 - h edges."""
    pts = [p.coords() for p in ps]
    n = len(pts)
    hull = bf_hull_ids(ps)
    hull_edges = {(u, v) for u, v in combinations(sorted(hull), 2)
                  if len({_cross(pts[u], pts[v], pts[w]) > 0
                          for w in range(n) if w not in (u, v)}) == 1}
    tris = {tuple(sorted(t)) for t in triangles}
    if any(len(set(t)) < 3 for t in tris):
        return False
    incidences = Counter(e for t in tris for e in combinations(t, 2))
    if len(incidences) != 3 * n - 3 - len(hull) or not hull_edges <= set(incidences):
        return False
    if any(k != (1 if e in hull_edges else 2) for e, k in incidences.items()):
        return False
    for t in tris:
        a, b, c = (pts[v] for v in t)
        for w in range(n):
            if w not in t:
                signs = {_cross(a, b, pts[w]) > 0, _cross(b, c, pts[w]) > 0,
                         _cross(c, a, pts[w]) > 0}
                if len(signs) == 1:
                    return False
    for (a, b), (c, d) in combinations(sorted(incidences), 2):
        if len({a, b, c, d}) == 4 \
                and (_cross(pts[a], pts[b], pts[c]) > 0) != (_cross(pts[a], pts[b], pts[d]) > 0) \
                and (_cross(pts[c], pts[d], pts[a]) > 0) != (_cross(pts[c], pts[d], pts[b]) > 0):
            return False
    return True


def bf_faces_of(ps: PointSet, edges) -> set[tuple[int, int, int]]:
    """Bounded faces of a full triangulation given by its edges: the 3-cycles
    of the edge set with no point strictly inside (sorted id triples)."""
    pts = [p.coords() for p in ps]
    adj: dict[int, set[int]] = {v: set() for v in range(len(pts))}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    faces = set()
    for a, b, c in combinations(range(len(pts)), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            pa, pb, pc = pts[a], pts[b], pts[c]
            if not any(len({_cross(pa, pb, pts[w]) > 0, _cross(pb, pc, pts[w]) > 0,
                            _cross(pc, pa, pts[w]) > 0}) == 1
                       for w in range(len(pts)) if w not in (a, b, c)):
                faces.add((a, b, c))
    return faces


def ref_greedy_completion(ps: PointSet, required=(), avoid=()) -> frozenset[Edge]:
    """Edges of the greedy completion of `required`: every other vertex pair,
    in the order (in `avoid`, squared length, ids), is taken unless it
    properly crosses an edge taken before it.  All pairs, one nested scan and
    an orientation test of its own."""
    pts = [p.coords() for p in ps]
    taken = sorted({(min(e), max(e)) for e in required})
    avoid = {(min(e), max(e)) for e in avoid}

    def key(e):
        (ax, ay), (bx, by) = pts[e[0]], pts[e[1]]
        return e in avoid, (ax - bx) ** 2 + (ay - by) ** 2, e

    def crosses(a, b, c, d) -> bool:
        """Segments ab and cd with four distinct ends cross iff each
        separates the ends of the other (inlined: this is the inner loop)."""
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[d]
        ux, uy, vx, vy = bx - ax, by - ay, dx - cx, dy - cy
        return ((ux * (cy - ay) - uy * (cx - ax) > 0) != (ux * (dy - ay) - uy * (dx - ax) > 0)
                and (vx * (ay - cy) - vy * (ax - cx) > 0) != (vx * (by - cy) - vy * (bx - cx) > 0))

    # a plane set of 3n - 3 - h edges is a triangulation: nothing more fits
    full = 3 * len(pts) - 3 - len(_ref_hull_corners(pts))
    have = set(taken)
    for a, b in sorted(combinations(range(len(pts)), 2), key=key):
        if len(taken) >= full:
            break
        if (a, b) not in have and not any(
                crosses(a, b, c, d) for c, d in taken if c != a and c != b and d != a and d != b):
            taken.append((a, b))
            have.add((a, b))
    return frozenset(taken)


def all_triangulations(ps: PointSet, required=()) -> list[frozenset[Edge]]:
    """Every triangulation of ps that contains the plane edge set
    `required`, each as its set of edges (sorted pairs), in sorted order.

    A depth-first search over flips on plain edge sets, from the greedy
    completion of `required`, that never flips a required edge.  The faces
    of a set are its 3-cycles with no point strictly inside, and an edge uv
    with faces uva and uvb flips to ab when ab properly crosses uv, that is,
    when the quadrilateral is convex.  The triangulations that contain a
    plane edge set are the triangulations of the polygonal domain that the
    set cuts the hull into, and those are joined by flips of the edges that
    are not in the set (Dyn, Goren and Rippa, 1993; with no required edge
    this is Lawson's connected flip graph, 1972): so the search reaches
    every one of them."""
    pts = [p.coords() for p in ps]
    n = len(pts)
    fixed = {(min(e), max(e)) for e in required}

    def sides(a: int, b: int, c: int) -> bool:
        return _cross(pts[a], pts[b], pts[c]) > 0

    def empty(a: int, b: int, c: int) -> bool:
        return not any(sides(a, b, w) == sides(b, c, w) == sides(c, a, w)
                       for w in range(n) if w != a and w != b and w != c)

    def flipped(edges: frozenset[Edge]) -> list[frozenset[Edge]]:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        apexes: dict[Edge, list[int]] = {e: [] for e in edges}
        for u, v in edges:
            for w in adj[u] & adj[v]:
                if w > v and empty(u, v, w):
                    apexes[u, v].append(w)
                    apexes[u, w].append(v)
                    apexes[v, w].append(u)
        out = []
        for (u, v), ws in apexes.items():
            if len(ws) == 2 and (u, v) not in fixed:
                a, b = ws
                if sides(u, v, a) != sides(u, v, b) and sides(a, b, u) != sides(a, b, v):
                    out.append(edges - {(u, v)} | {(min(a, b), max(a, b))})
        return out

    start = ref_greedy_completion(ps, fixed)
    seen = {start}
    stack = [start]
    while stack:
        for g in flipped(stack.pop()):
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return sorted(seen, key=sorted)


def bf_wheel_or_fan(ps: PointSet, edges) -> bool:
    """True iff the triangulation with these edges is a wheel, one point
    inside the hull joined to every other point, or a fan, no point inside
    the hull and one point joined to every other: by degrees alone."""
    pts = [p.coords() for p in ps]
    n = len(pts)
    inside = set(pts) - set(_ref_hull_corners(pts))
    degree = Counter(v for e in edges for v in e)
    hubs = {pts[v] for v in range(n) if degree[v] == n - 1}
    return (not inside and bool(hubs)) or (len(inside) == 1 and inside <= hubs)


def bf_leaf_cells(ps: PointSet, edges) -> int:
    """The number of leaf cells of the triangulation with these edges.

    A hull chord (an edge between two hull corners that is no hull edge)
    cuts the hull polygon in two; the chords cut it into cells, and a leaf
    cell is the one cell on a side of a chord that holds no other chord.
    So this counts the (chord, side) pairs with no other chord on that side,
    a chord lying on a side when each of its ends is an end of the first
    chord or strictly on that side, by orientation alone."""
    pts = [p.coords() for p in ps]
    corners = _ref_hull_corners(pts)
    hull_sides = {frozenset((corners[i - 1], corners[i])) for i in range(len(corners))}
    chords = [(pts[u], pts[v]) for u, v in edges
              if pts[u] in corners and pts[v] in corners
              and frozenset((pts[u], pts[v])) not in hull_sides]
    leaves = 0
    for a, b in chords:
        for side in (1, -1):
            leaves += not any(all(p in (a, b) or side * _cross(a, b, p) > 0 for p in other)
                              for other in chords if other != (a, b))
    return leaves


def _ref_hull_corners(pts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Hull corners of distinct points by the monotone chain, each once; a
    point on a hull edge is not a corner."""
    order = sorted(pts)
    corners: list[tuple[int, int]] = []
    for seq in (order, order[::-1]):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        corners += out[:-1]
    return corners


def ref_no5conn_search(k: int) -> tuple[list[tuple[int, int]], int]:
    """(points, candidates tried) of the two-cluster fixture's doubling search
    over the full (depth, height) grid: every height of every row is tried
    until a candidate has the expected hull corners, the crossing property
    (each cap point y_i to each bottom point crosses x_{i+1} x_{i+2}) and no
    collinear triple."""
    m = 2 * k
    p = [2 * j - (m + 1) for j in range(1, m + 1)]
    q = [(p[i] + p[i + 1]) // 2 for i in range(1, m - 2)]
    tried = 0
    depth = 256
    for _ in range(30):
        height = 64
        for _ in range(20):
            tried += 1
            chain = [(8 * v, v * v) for v in p]
            caps = [(8 * v, height - v * v) for v in q]
            bottom = [(-8, -depth), (0, -depth - 8), (8, -depth), (-6, -depth + 8),
                      (-2, -depth + 6), (2, -depth + 6), (6, -depth + 8)]
            pts = chain + caps + bottom
            if sorted(_ref_hull_corners(pts)) == sorted([chain[0], chain[-1], *caps, *bottom[:3]]) \
                    and all(ref_segments_properly_cross(Point(*y), Point(*w), Point(*chain[i + 1]),
                                                        Point(*chain[i + 2]))
                            for i, y in enumerate(caps) for w in bottom) \
                    and bf_first_collinear([x for x, _ in pts], [y for _, y in pts], 0) is None:
                return pts, tried
            height *= 2
        depth *= 2
    raise AssertionError("no candidate on the grid")


def bf_circular_runs(flags: Sequence[bool]) -> list[tuple[int, int]]:
    """Every (start, length) window of the cycle that is all True and cannot
    grow: both neighbours False, or the whole cycle from index 0."""
    m = len(flags)
    out = []
    for start in range(m):
        for length in range(1, m + 1):
            if not all(flags[(start + j) % m] for j in range(length)):
                break
            whole = length == m and start == 0
            if whole or (length < m and not flags[start - 1]
                         and not flags[(start + length) % m]):
                out.append((start, length))
    return sorted(out)


def visible_hull_edges(s: Point, ps: PointSet) -> list[int]:
    """Indices i of hull edges (hull[i], hull[i+1]) visible from exterior s:
    the reference, one `cross` per edge, for `geometry.visible_chain` and the
    visibility table of hull insertion."""
    h, pts = ps.hull(), ps.points
    return [i for i in range(len(h))
            if ref_cross(pts[h[i]], pts[h[(i + 1) % len(h)]], s) < 0]


def ref_property_maxi(sa: PointSet, sb: Sequence[tuple[int, int]]) -> bool:
    """The hull-insertion property, read from the definition: ch(S_a) has at
    least 4 corners, every point of S_b is a hull corner of the union, and
    every k consecutive new corners of the union's hull (k < |ch(S_a)|,
    windows taken round the cycle) jointly see at least k + 2 consecutive
    hull edges of S_a.  A point sees a hull edge when it lies strictly on
    the outer side of its line.  The union is assumed to have no three
    collinear points."""
    old = [q.coords() for q in sa]
    a_corners = _ref_hull_corners(old)
    p = len(a_corners)
    if p < 4:
        return False
    new = {tuple(c) for c in sb}
    if len(new) != len(sb) or new & set(old):
        return False
    corners = _ref_hull_corners(old + sorted(new))
    if not new <= set(corners):
        return False
    edges = [(Point(*a_corners[i]), Point(*a_corners[(i + 1) % p])) for i in range(p)]
    sees = {c: {i for i, (u, v) in enumerate(edges) if ref_cross(u, v, Point(*c)) < 0}
            for c in new}
    h = len(corners)
    for start in range(h):
        joint: set[int] = set()
        for k in range(1, min(h, p - 1) + 1):
            c = corners[(start + k - 1) % h]
            if c not in new:
                break
            joint |= sees[c]
            if not any(length >= k + 2
                       for _, length in bf_circular_runs([i in joint for i in range(p)])):
                return False
    return True


def noncrossing_cover(ps: PointSet, edges, needy) -> list[Edge] | None:
    """Absent, pairwise noncrossing edges that give every vertex of `needy`
    a new neighbour, or None when no such set exists: the degree cover that
    raising every vertex of `needy` by adding noncrossing edges needs.

    A depth-first search that covers the uncovered vertex with the fewest
    candidate edges first.  A candidate is an absent edge at an uncovered
    vertex that properly crosses no chosen edge (by orientations alone).
    Once the branch that covers a vertex by edge e fails, no cover extends
    the chosen edges with e, so the later branches drop e."""
    pts = [p.coords() for p in ps]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    wanted = set(needy)
    cands = sorted({(min(u, v), max(u, v)) for u in wanted for v in range(len(pts)) if v != u}
                   - present)

    def crosses(e: Edge, f: Edge) -> bool:
        a, b, c, d = (pts[i] for i in (*e, *f))
        return _cross(a, b, c) * _cross(a, b, d) < 0 and _cross(c, d, a) * _cross(c, d, b) < 0

    crossed: dict[Edge, set[Edge]] = {}

    def extend(open_: dict[int, list[Edge]]) -> list[Edge] | None:
        if not open_:
            return []
        v = min(open_, key=lambda u: (len(open_[u]), u))
        dropped: set[Edge] = set()
        for e in open_[v]:
            if e not in crossed:
                crossed[e] = {f for f in cands if crosses(e, f)}
            rest = {}
            for u, es in open_.items():
                if u not in e:
                    rest[u] = [f for f in es if f not in crossed[e] and f not in dropped]
                    if not rest[u]:
                        break
            else:
                found = extend(rest)
                if found is not None:
                    return [e, *found]
            dropped.add(e)
        return None

    return extend({v: [e for e in cands if v in e] for v in sorted(wanted)})


def edge_visibility_hall_holds(sa: PointSet, sb: Sequence[tuple[int, int]]) -> bool:
    """Explicit Hall-condition check: every k consecutive hull edges of S_b
    jointly see at least k hull edges of S_a (test oracle for the matching)."""
    if not ref_property_maxi(sa, sb):
        raise PreconditionError("hull-insertion property violated")
    combined = sa.extended(sb)
    na = len(sa)
    hull = combined.hull()
    if any(v < na for v in hull):
        raise PreconditionError("S_a must lie in the interior of ch(S_b)")
    q = len(hull)

    def common_visible(u: int, v: int) -> set[int]:
        return set(visible_hull_edges(combined[u], sa)) & set(visible_hull_edges(combined[v], sa))

    vis = [common_visible(hull[i], hull[(i + 1) % q]) for i in range(q)]
    if not all(vis):
        raise PreconditionError("two consecutive hull vertices of S_b see no common edge")
    for k in range(1, q + 1):
        for start in range(q):
            joint: set[int] = set()
            for off in range(k):
                joint |= vis[(start + off) % q]
            if len(joint) < k:
                return False
    return True


def _ref_angle_parts(center: Point, frm: Point, to: Point) -> tuple[int, int, int, int]:
    """(half, dot, |u|^2, |v|^2) describing the ccw angle frm->to at center;
    half 0 means the angle lies in (0, pi), half 1 in (pi, 2 pi)."""
    ux, uy = frm.x - center.x, frm.y - center.y
    vx, vy = to.x - center.x, to.y - center.y
    cr = ux * vy - uy * vx
    if cr == 0:
        raise InternalInvariantError("collinear directions in angle comparison")
    half = 0 if cr > 0 else 1
    return (half, ux * vx + uy * vy, ux * ux + uy * uy, vx * vx + vy * vy)


def _ref_angle_cmp(center: Point, a: tuple[Point, Point], b: tuple[Point, Point]) -> int:
    """Exact three-way comparison of two ccw angles around center, by
    half-plane, then the sign of the dot product, then squared cosines."""
    ha, dta, nua, nva = _ref_angle_parts(center, *a)
    hb, dtb, nub, nvb = _ref_angle_parts(center, *b)
    if ha != hb:
        return -1 if ha < hb else 1
    sa = (dta > 0) - (dta < 0)
    sb = (dtb > 0) - (dtb < 0)
    if sa != sb:
        cos_cmp = 1 if sa > sb else -1
    else:
        left = dta * dta * nub * nvb
        right = dtb * dtb * nua * nva
        if left == right:
            cos_cmp = 0
        elif (left > right) == (sa >= 0):
            cos_cmp = 1
        else:
            cos_cmp = -1
    if cos_cmp == 0:
        return 0
    if ha == 0:
        return -1 if cos_cmp > 0 else 1  # bigger cosine, smaller angle
    return -1 if cos_cmp < 0 else 1


def _ref_in_ccw_sweep(center: Point, a: Point, b: Point, q: Point) -> bool:
    ca = ref_cross(center, a, q)
    cb = ref_cross(center, q, b)
    if ref_cross(center, a, b) > 0:
        return ca > 0 and cb > 0
    return ca > 0 or cb > 0


def ref_closer_to_first_ray(center: Point, p1: Point, p2: Point, q: Point) -> bool:
    """The bisector side test by comparing the two ccw angles that q makes
    with the rays of the wedge that holds it."""
    if _ref_in_ccw_sweep(center, p1, p2, q):
        return _ref_angle_cmp(center, (p1, q), (q, p2)) <= 0
    if _ref_in_ccw_sweep(center, p2, p1, q):
        return _ref_angle_cmp(center, (q, p1), (p2, q)) <= 0
    raise InternalInvariantError("query direction coincides with a wedge boundary")


def ref_first_hit(ps: PointSet, pivot: int, toward: int, points: Sequence[int],
                  sweep_ccw: bool) -> int:
    """augment._first_hit by cross products: each direction from the pivot
    is flipped to the swept side of the line pivot-toward, and the first one
    in the sweep wins."""
    xs, ys = ps.xs, ps.ys
    cx, cy = xs[pivot], ys[pivot]
    bx, by = xs[toward] - cx, ys[toward] - cy
    turn = 1 if sweep_ccw else -1
    best, best_x, best_y = -1, 0, 0
    for p in points:
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


def ref_maximal_sector(t: Triangulation, report: CutReport) -> tuple[int, list[int]]:
    """augment._maximal_sector, without its arm count check, by walking
    every sector of every centre until one holds both ends of the smallest
    hull edge e0."""
    hull = list(t.ps.hull())
    h = len(hull)
    pts = t.ps.points
    arms: dict[int, set[int]] = {}
    for b in report.bichords:
        arms.setdefault(b.m, set()).update((b.u, b.w))
    e0 = min(edge_key(hull[i], hull[(i + 1) % h]) for i in range(h))

    def sector_labels(center: int) -> tuple[int, list[int]]:
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
                cycle = [pts[center]] + [pts[hull[p]] for p in span]
                area = abs(sum(ref_cross(cycle[0], a, b) for a, b in zip(cycle[1:], cycle[2:])))
                return area, [hull[arm_pos[(j - i) % k]] for i in range(k)]
        raise AssertionError("hull edge lies in no sector")

    center = min(arms, key=lambda c: (-sector_labels(c)[0], c))
    return center, sector_labels(center)[1]


def _ref_hull_arc(hull: Sequence[int], a: int, b: int) -> list[int]:
    """Hull vertices strictly between a and b walking forward from a."""
    i = hull.index(a)
    out = []
    j = (i + 1) % len(hull)
    while hull[j] != b:
        out.append(hull[j])
        j = (j + 1) % len(hull)
    return out


def ref_cut_structures(t) -> CutReport:
    """cut_structures with the hull arcs listed in full and every 3-cycle of
    t, faces included, tested for points inside and outside."""
    if len(t.ps) < 5:
        raise PreconditionError("cut structures are defined for n >= 5")
    hull = list(t.ps.hull())
    hullset = set(hull)
    hull_edges = {edge_key(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    report = CutReport()
    report.chords = t.chords()
    adj = {v: t.neighbors(v) for v in range(len(t.ps))}
    for m in range(len(t.ps)):
        hull_nbrs = sorted(x for x in adj[m] if x in hullset)
        for i, u in enumerate(hull_nbrs):
            for w in hull_nbrs[i + 1:]:
                if edge_key(u, m) in hull_edges or edge_key(m, w) in hull_edges:
                    continue
                if m in hullset:
                    order = sorted([(hull.index(u), u), (hull.index(m), m), (hull.index(w), w)])
                    parts = [_ref_hull_arc(hull, order[k][1], order[(k + 1) % 3][1])
                             for k in range(3)]
                    if all(parts):
                        report.bichords.append(Bichord(u, m, w))
                else:
                    arc1 = _ref_hull_arc(hull, u, w)
                    arc2 = _ref_hull_arc(hull, w, u)
                    if arc1 and arc2:
                        report.bichords.append(Bichord(u, m, w))
    seen: set[tuple[int, ...]] = set()
    pts = t.ps.points
    for u, v in sorted(t.edges):
        for w in sorted(adj[u] & adj[v]):
            tri = tuple(sorted((u, v, w)))
            if tri in seen:
                continue
            seen.add(tri)
            pa, pb, pc = (pts[x] for x in tri)
            inside = [p.id for p in pts if p.id not in tri and ref_point_in_triangle(pa, pb, pc, p)]
            outside = [p.id for p in pts if p.id not in tri and p.id not in inside]
            if inside and outside:
                report.separating_triangles.append(SeparatingTriangle(tri))
    return report


def ref_augmentation_violations(t, added, report: CutReport) -> list[str]:
    """`augmentation_violations` by the pairwise scan: every added edge is
    tested against every chord, bichord path and separating-triangle side,
    and each chord's sides are counted over all n points."""
    new_edges = sorted(edge_key(*e) for e in added)
    pts = t.ps.points

    def crossings(e, path) -> int:
        return sum(ref_segments_properly_cross(pts[e[0]], pts[e[1]], pts[a], pts[b])
                   for a, b in path)

    violations: list[str] = []
    for chord in report.chords:
        a, b = chord
        crossers = [e for e in new_edges if crossings(e, [chord])]
        if len(crossers) < 2:
            violations.append(f"chord {chord} crossed by {len(crossers)} < 2 new edges")
            continue
        side1 = sum(1 for p in pts if ref_cross(pts[a], pts[b], p) > 0)
        side2 = len(pts) - 2 - side1
        if side1 >= 2 and side2 >= 2 and not any(
                not set(e1) & set(e2) for i, e1 in enumerate(crossers) for e2 in crossers[i + 1:]):
            violations.append(f"chord {chord}: no two nonadjacent crossing edges")
    for bc in report.bichords:
        if not any(crossings(e, bc.path_edges()) == 1 for e in new_edges):
            violations.append(f"bichord ({bc.u}, {bc.m}, {bc.w}) not properly crossed")
    for st in report.separating_triangles:
        if not any(crossings(e, st.sides()) == 1 for e in new_edges):
            violations.append(f"separating triangle {st.vertices} not properly crossed")
    return violations


# Reference for convex.build_4conn_convex, which writes the result down in
# closed form: the octahedron split chain, realized on a convex set through a
# Hamiltonian cycle and a breadth-first two-page coloring of the chord
# conflicts.

class PlanarTriangulatedGraph:
    """Abstract triangulation of the sphere: every edge bounds two faces.

    Supports the vertex split used to grow 4-connected planar graphs.
    """

    def __init__(self, n: int, faces: Iterable[Sequence[int]]):
        self.n = n
        self.faces: frozenset[tuple[int, int, int]] = frozenset(
            tuple(sorted(f)) for f in faces)  # type: ignore[arg-type]
        edge_faces: dict[Edge, list[tuple[int, int, int]]] = {}
        for f in self.faces:
            a, b, c = f
            for e in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
                edge_faces.setdefault(e, []).append(f)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise InternalInvariantError(f"edge {e} bounds {len(fs)} faces, expected 2")
        self.edge_faces = edge_faces
        self.edges: frozenset[Edge] = frozenset(edge_faces)

    @classmethod
    def _from_maps(cls, n: int, faces: frozenset[tuple[int, int, int]],
                   edge_faces: dict[Edge, list[tuple[int, int, int]]]) -> PlanarTriangulatedGraph:
        """A graph from face and edge-face maps that are already consistent."""
        g = cls.__new__(cls)
        g.n, g.faces, g.edge_faces = n, faces, edge_faces
        g.edges = frozenset(edge_faces)
        return g


def octahedron() -> PlanarTriangulatedGraph:
    """The 1-skeleton of the octahedron: 4-connected, planar, 6 vertices."""
    equator = [1, 2, 4, 3]
    faces = []
    for i in range(4):
        a, b = equator[i], equator[(i + 1) % 4]
        faces.append((0, a, b))
        faces.append((5, a, b))
    return PlanarTriangulatedGraph(6, faces)


def vertex_split(g: PlanarTriangulatedGraph, e: Edge) -> PlanarTriangulatedGraph:
    """Remove edge (u, v) and add a new vertex joined to all vertices of the
    two faces adjacent to (u, v); preserves planarity and 4-connectivity."""
    e = edge_key(*e)
    if e not in g.edges:
        raise PreconditionError(f"{e} is not an edge")
    f1, f2 = g.edge_faces[e]
    u, v = e
    a = next(x for x in f1 if x not in e)
    b = next(x for x in f2 if x not in e)
    z = g.n
    # patch the parent's edge-face map: (u, v) goes, the sides of the
    # quadrilateral u a v b now bound faces through z, and z gets four edges;
    # the other face lists are shared with the parent, and neither mutates them
    quad = (u, a, v, b)
    new = [tuple(sorted((quad[i], quad[(i + 1) % 4], z))) for i in range(4)]
    edge_faces = dict(g.edge_faces)
    del edge_faces[e]
    for i, x in enumerate(quad):
        side = edge_key(x, quad[(i + 1) % 4])
        old = f1 if i < 2 else f2
        edge_faces[side] = [new[i] if f == old else f for f in edge_faces[side]]
        edge_faces[(x, z)] = [new[i - 1], new[i]]
    faces = (g.faces - {f1, f2}) | set(new)
    return PlanarTriangulatedGraph._from_maps(z + 1, faces, edge_faces)  # type: ignore[arg-type]


def grow_4conn_planar(n: int) -> PlanarTriangulatedGraph:
    """Octahedron plus n - 6 deterministic vertex splits: each split uses the
    smallest edge incident to the most recently added vertex."""
    if n < 6:
        raise ImpossibleError("every 4-connected planar graph has at least 6 vertices")
    g = octahedron()
    last_nbrs = {x for e in g.edges if g.n - 1 in e for x in e} - {g.n - 1}
    while g.n < n:
        e = (min(last_nbrs), g.n - 1)
        f1, f2 = g.edge_faces[e]
        last_nbrs = set(f1) | set(f2)
        g = vertex_split(g, e)
    return g


def _hull_chord_conflicts(ps: PointSet, chords: Sequence[Edge]) -> list[set[int]]:
    """crossing_conflict_graph(ps, chords)[1] for a point set in strictly
    convex position, read off the hull order: with hull positions a < b and
    c < d, chords (a, b) and (c, d) cross exactly when a < c < b < d or
    c < a < d < b.  With the chords sorted by their left end, each chord is
    tested only against the later ones whose left end lies below its right
    end."""
    pos = {v: i for i, v in enumerate(ps.hull())}
    spans = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), i) for i, (u, v) in enumerate(chords))
    conflicts: list[set[int]] = [set() for _ in chords]
    for k, (a, b, i) in enumerate(spans):
        for c, d, j in spans[k + 1:bisect_left(spans, (b,))]:
            if a < c and b < d:
                conflicts[i].add(j)
                conflicts[j].add(i)
    return conflicts


def bfs_two_coloring(es: Sequence[Edge], conflicts: Sequence[set[int]]) -> dict[Edge, int]:
    """Layer 1 or 2 for each of `es` such that no conflict arc joins two
    edges of one layer: breadth-first from each uncolored index in ascending
    order, neighbours ascending.  PreconditionError on an odd cycle."""
    layer: dict[int, int] = {}
    for root in range(len(es)):
        if root in layer:
            continue
        layer[root] = LAYER1
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(conflicts[u]):
                    if v not in layer:
                        layer[v] = LAYER1 + LAYER2 - layer[u]
                        nxt.append(v)
                    elif layer[v] == layer[u]:
                        raise PreconditionError(
                            f"conflict graph is not bipartite: {es[u]} and {es[v]} "
                            "close an odd cycle")
            frontier = nxt
    return {es[i]: layer[i] for i in range(len(es))}


def realize_hamiltonian_on_convex(g_edges: Iterable[Edge], ham: Sequence[int],
                                  ps: PointSet) -> LayeredGraph:
    """Realize a Hamiltonian planar graph on a convex point set.

    The cycle is mapped to the hull in order; the remaining edges become hull
    chords, two-colored through the crossing-conflict graph (bipartite for
    planar inputs, the two-page book embedding argument), whose arcs are
    read off the hull order.
    """
    n = len(ps)
    if len(ps.hull()) != n:
        raise PreconditionError("points must be in convex position")
    if len(ham) != n or set(ham) != set(range(n)):
        raise PreconditionError("ham must be a cycle through all vertices")
    edges = {edge_key(*e) for e in g_edges}
    for a, b in zip(ham, list(ham[1:]) + [ham[0]]):
        if edge_key(a, b) not in edges:
            raise PreconditionError("ham is not a cycle of the graph")
    hull = ps.hull()
    place = {ham[i]: hull[i] for i in range(n)}
    cycle_edges = {edge_key(place[ham[i]], place[ham[(i + 1) % n]]) for i in range(n)}
    chords = sorted(edge_key(place[u], place[v]) for (u, v) in edges)
    chords = [e for e in chords if e not in cycle_edges]
    coloring = bfs_two_coloring(chords, _hull_chord_conflicts(ps, chords))
    return LayeredGraph(ps, cycle_edges | {e for e, c in coloring.items() if c == LAYER1},
                        [e for e, c in coloring.items() if c == LAYER2])


# ----------------------------------------------------------------------
# Reference parsers: the line-by-line readers of point files and edge lists
# that formats.loads_points and loads_layered replaced, kept as they were.
# ----------------------------------------------------------------------

def _ref_plain_ints(row: str) -> list[int]:
    if not row.isascii() or "_" in row:
        raise ValueError(f"not plain decimal integers: {row!r}")
    return [int(part) for part in row.split()]


def _ref_ints(lineno: int, row: str) -> list[int]:
    try:
        return _ref_plain_ints(row)
    except ValueError as exc:
        raise PreconditionError(f"line {lineno}: non-integer field in {row!r}") from exc


def ref_loads_points(text: str) -> list[tuple[int, int]]:
    """The coordinates of a point file, which loads_points hands to
    PointSet, or the PreconditionError it raises on a malformed line."""
    coords: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PreconditionError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            x, y = _ref_plain_ints(line)
        except ValueError as exc:
            raise PreconditionError(f"line {lineno}: non-integer coordinate in {raw!r}") from exc
        coords.append((x, y))
    return coords


def ref_loads_layered(text: str, n: int) -> dict[tuple[int, int], int]:
    """Every edge of an edge list on n points with its layer tag, in edge
    order, or the PreconditionError that loads_layered raises: a parse
    error first, then the first bad edge of layer 1, then of layer 2."""
    rows = [(lineno, r.split("#", 1)[0].strip())
            for lineno, r in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, r) for lineno, r in rows if r]
    if not rows:
        raise PreconditionError("empty edge list")
    if len(rows[0][1].split()) != 2:
        raise PreconditionError("header must be 'n m'")
    count, m = _ref_ints(*rows[0])
    if count != n:
        raise PreconditionError(f"edge list is for {count} points, point set has {n}")
    if len(rows) - 1 != m:
        raise PreconditionError(f"header promises {m} edges, found {len(rows) - 1}")
    tags: dict[tuple[int, int], int] = {}
    for lineno, row in rows[1:]:
        if len(row.split()) != 3:
            raise PreconditionError(f"expected 'u v layer', got {row!r}")
        u, v, tag = _ref_ints(lineno, row)
        if tag not in (1, 2, 3):
            raise PreconditionError(f"layer must be 1, 2 or 3, got {tag}")
        e = (min(u, v), max(u, v))
        if e in tags:
            raise PreconditionError(f"duplicate edge {e}")
        tags[e] = tag
    for layer in (1, 2):
        for e, tag in tags.items():
            if tag != 3 - layer and (e[0] == e[1] or not (0 <= e[0] < n and 0 <= e[1] < n)):
                raise PreconditionError(f"bad edge {e}")
    return {e: tags[e] for e in sorted(tags)}
