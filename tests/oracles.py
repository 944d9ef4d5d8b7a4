"""Independent brute-force oracles and reference implementations, kept
deliberately separate from the library's algorithms."""
from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import combinations
from typing import Sequence

from biplane.errors import PreconditionError
from biplane.geometry import Point, PointSet, cross, visible_hull_edges
from biplane.insertion import check_property_maxi


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
    n = len(ps)
    inside = set()
    for i in range(n):
        for tri in combinations((j for j in range(n) if j != i), 3):
            a, b, c = (ps[t] for t in tri)
            d1, d2, d3 = cross(a, b, ps[i]), cross(b, c, ps[i]), cross(c, a, ps[i])
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
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
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


# The O(n^4) chain dynamic program that `max_convex_subset_indices` used
# before its angular sweep, kept as the reference for larger sets.

def _angular_ccw_key(anchor: Point):
    """Sort key for points strictly lex-greater than anchor: CCW starting
    just above the downward vertical.  Exact, comparison based."""

    def cmp(p: Point, q: Point) -> int:
        c = cross(anchor, p, q)
        if c > 0:
            return -1
        if c < 0:
            return 1
        raise PreconditionError("collinear points in angular sort")

    return cmp_to_key(cmp)


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
                    if cross(prev, v, w) > 0:
                        nxt = (size + 1, area + cross(anchor, v, w),
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
            if ui >= 0 and cross(cand_pts[ui], cand_pts[vi], anchor) > 0:
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


def edge_visibility_hall_holds(sa: PointSet, sb: Sequence[tuple[int, int]]) -> bool:
    """Explicit Hall-condition check: every k consecutive hull edges of S_b
    jointly see at least k hull edges of S_a (test oracle for the matching)."""
    ok, why = check_property_maxi(sa, sb)
    if not ok:
        raise PreconditionError(why)
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
