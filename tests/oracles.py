"""Independent brute-force oracles, kept deliberately separate from the
library's algorithms."""
from __future__ import annotations

from collections import Counter
from itertools import combinations

from biplane.geometry import PointSet, cross


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


def bf_max_convex_subset(ps: PointSet) -> tuple[int, ...]:
    """Exhaustive search over all subsets: maximize size, then doubled hull
    area, then lexicographically smallest sorted id tuple."""
    n = len(ps)
    for k in range(n, 2, -1):
        best: tuple[int, tuple[int, ...]] | None = None
        for ids in combinations(range(n), k):
            ok, area = _subset_convex(ps, ids)
            if not ok:
                continue
            if best is None or area > best[0] or (area == best[0] and ids < best[1]):
                best = (area, ids)
        if best is not None:
            return best[1]
    raise AssertionError("no convex subset of size 3 found")


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
