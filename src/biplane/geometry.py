"""Exact planar geometric primitives on integer coordinates.

All predicates are evaluated with exact integer arithmetic (Python ints never
overflow); COORD_LIMIT bounds coordinates anyway so that file formats stay
portable and accidental floats are rejected early.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import PreconditionError

#: Coordinates must satisfy |x|, |y| <= COORD_LIMIT.  At this bound every
#: 3-point orientation determinant and every doubled polygon area used in the
#: library is below 2**66, exactly representable by Python integers.
COORD_LIMIT = 2 ** 30


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


@dataclass(frozen=True)
class Point:
    """Immutable planar point with integer coordinates and a vertex id.

    The id is stable within the PointSet that owns the point (-1 for free
    points that are not part of a set yet).
    """

    x: int
    y: int
    id: int = -1

    def coords(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y}, id={self.id})"


def cross(o: Point, a: Point, b: Point) -> int:
    """Exact cross product (a - o) x (b - o); twice the signed triangle area."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Sign of the exact 3x3 orientation determinant of (p, q, r)."""
    d = cross(p, q, r)
    if d > 0:
        return Orientation.CCW
    if d < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff open segments ab and cd share exactly one interior point.

    Segments that share an endpoint never properly cross (general position
    rules out overlap along a line).
    """
    if a.coords() in (c.coords(), d.coords()) or b.coords() in (c.coords(), d.coords()):
        return False
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)
    return (d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0 \
        and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0


# ----------------------------------------------------------------------
# Crossing kernel: the same test as segments_properly_cross, on flat integer
# coordinates, with a bounding-box reject in front of the determinants.
# ----------------------------------------------------------------------

def _open_segments_cross(s: tuple[int, int, int, int], t: tuple[int, int, int, int]) -> bool:
    """segments_properly_cross for segments given as (x1, y1, x2, y2): a
    shared endpoint makes one of the four determinants zero."""
    ax, ay, bx, by = s
    cx, cy, dx, dy = t
    ex, ey = bx - ax, by - ay
    d1 = ex * (cy - ay) - ey * (cx - ax)
    d2 = ex * (dy - ay) - ey * (dx - ax)
    if not ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)):
        return False
    fx, fy = dx - cx, dy - cy
    d3 = fx * (ay - cy) - fy * (ax - cx)
    d4 = fx * (by - cy) - fy * (bx - cx)
    return (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)


def _x_sorted_segment(ps: PointSet, e: tuple[int, int]) -> tuple[int, int, int, int]:
    xs, ys = ps.xs, ps.ys
    u, v = e
    if (xs[v], ys[v]) < (xs[u], ys[u]):
        u, v = v, u
    return (xs[u], ys[u], xs[v], ys[v])


def crossing_pairs(ps: PointSet, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, of properly crossing `edges`, sorted, so
    the first pair is the one a nested i < j loop over `edges` meets first.

    Segments are visited in order of their left x; each is tested only
    against the segments that start before it ends (the pruning half of a
    Shamos-Hoey sweep), and those only when their y ranges meet.
    """
    segs = [_x_sorted_segment(ps, e) for e in edges]
    order = sorted(range(len(segs)), key=segs.__getitem__)
    pairs: list[tuple[int, int]] = []
    for pos, i in enumerate(order):
        s = segs[i]
        _, ay, bx, by = s
        ylo, yhi = (ay, by) if ay < by else (by, ay)
        for j in order[pos + 1:]:
            t = segs[j]
            if t[0] > bx:
                break
            if (t[1] < ylo and t[3] < ylo) or (t[1] > yhi and t[3] > yhi):
                continue
            if _open_segments_cross(s, t):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def crosses_any(ps: PointSet, edge: tuple[int, int], edges: Iterable[tuple[int, int]]) -> bool:
    """True iff `edge` properly crosses at least one of `edges`."""
    s = _x_sorted_segment(ps, edge)
    ax, ay, bx, by = s
    ylo, yhi = (ay, by) if ay < by else (by, ay)
    xs, ys = ps.xs, ps.ys
    for u, v in edges:
        xu, xv = xs[u], xs[v]
        if (xu > bx and xv > bx) or (xu < ax and xv < ax):
            continue
        yu, yv = ys[u], ys[v]
        if (yu > yhi and yv > yhi) or (yu < ylo and yv < ylo):
            continue
        if _open_segments_cross(s, (xu, yu, xv, yv)):
            return True
    return False


class PointSet:
    """Ordered, validated point set: distinct points, no three collinear.

    Vertex ids are assigned by position.  Immutable after construction; `xs`
    and `ys` hold the coordinates as flat integer tuples for the kernels below.
    """

    def __init__(self, points: Sequence[Point] | Sequence[tuple[int, int]]):
        self._init(_checked_points(points, 0), 0)

    def _init(self, pts: Sequence[Point], known: int) -> None:
        """Validate the points from index `known` on against all others; the
        first `known` points are already distinct and in general position.
        Only triples whose largest index is at least `known` are tested, in
        the same lexicographic order as a full scan."""
        seen = {p.coords() for p in pts[:known]}
        for p in pts[known:]:
            if p.coords() in seen:
                raise PreconditionError(f"duplicate point {p.coords()}")
            seen.add(p.coords())
        xs = tuple(p.x for p in pts)
        ys = tuple(p.y for p in pts)
        n = len(pts)
        for i in range(n):
            xi, yi = xs[i], ys[i]
            for j in range(i + 1, n):
                dx, dy = xs[j] - xi, ys[j] - yi
                for k in range(max(j + 1, known), n):
                    if dx * (ys[k] - yi) == dy * (xs[k] - xi):
                        raise PreconditionError(
                            f"points {i}, {j}, {k} are collinear (general position required)")
        self.points: tuple[Point, ...] = tuple(pts)
        self.xs, self.ys = xs, ys
        self._hull: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def hull(self) -> tuple[int, ...]:
        """Counterclockwise convex hull as a tuple of vertex ids (cached)."""
        if self._hull is None:
            self._hull = tuple(convex_hull(self))
        return self._hull

    def hull_set(self) -> frozenset[int]:
        return frozenset(self.hull())

    def interior_ids(self) -> tuple[int, ...]:
        h = self.hull_set()
        return tuple(p.id for p in self.points if p.id not in h)

    def subset(self, ids: Iterable[int]) -> "PointSet":
        """New PointSet of the given vertices, kept in original order (a
        subset is in general position already, so nothing is re-checked)."""
        keep = sorted(set(ids))
        return self._derived([Point(self.points[i].x, self.points[i].y, k)
                              for k, i in enumerate(keep)], len(keep))

    def extended(self, coords: Sequence[tuple[int, int]]) -> "PointSet":
        """This set with `coords` appended (ids continue from len(self)).

        Raises the error `PointSet` would raise on the concatenated list, but
        tests only the triples that contain a new point: O(n^2) per point.
        """
        return self._derived(self.points + tuple(_checked_points(coords, len(self))), len(self))

    @staticmethod
    def _derived(pts: Sequence[Point], known: int) -> "PointSet":
        out = PointSet.__new__(PointSet)
        out._init(pts, known)
        return out


def _checked_points(points: Sequence[Point] | Sequence[tuple[int, int]], start: int) -> list[Point]:
    """Integer, in-range points with ids from `start` on."""
    pts: list[Point] = []
    for i, p in enumerate(points, start):
        if isinstance(p, Point):
            x, y = p.x, p.y
        else:
            x, y = p
        if not isinstance(x, int) or not isinstance(y, int):
            raise PreconditionError(f"point {i}: coordinates must be integers, got ({x!r}, {y!r})")
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise PreconditionError(f"point {i}: coordinate exceeds COORD_LIMIT={COORD_LIMIT}")
        pts.append(Point(x, y, i))
    return pts


def convex_hull(ps: PointSet | Sequence[Point]) -> list[int]:
    """Counterclockwise hull vertex ids via Andrew's monotone chain."""
    pts = list(ps.points if isinstance(ps, PointSet) else ps)
    if len(pts) < 3:
        raise PreconditionError("convex hull needs at least 3 points")
    order = sorted(pts, key=lambda p: (p.x, p.y))

    def half(seq: list[Point]) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return [p.id for p in lower[:-1] + upper[:-1]]


def is_convex_position(ps: PointSet) -> bool:
    """True iff every point is a hull vertex."""
    return len(ps.hull()) == len(ps)


def polygon_doubled_area(pts: Sequence[Point]) -> int:
    """Exact doubled (shoelace) area; positive for counterclockwise order."""
    total = 0
    for a, b in zip(pts, pts[1:] + list(pts[:1])):
        total += a.x * b.y - b.x * a.y
    return total


def point_strictly_inside_hull(ps: PointSet, s: Point) -> bool:
    h = ps.hull()
    pts = ps.points
    return all(cross(pts[h[i]], pts[h[(i + 1) % len(h)]], s) > 0 for i in range(len(h)))


def point_in_triangle(a: Point, b: Point, c: Point, s: Point) -> bool:
    """Strict interior test (general position: boundary cases cannot occur
    for distinct set members, but the test is strict regardless)."""
    d1, d2, d3 = cross(a, b, s), cross(b, c, s), cross(c, a, s)
    return (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)


def _hull_edge_index(ps: PointSet, edge: tuple[int, int]) -> int:
    h = ps.hull()
    u, v = edge
    for i in range(len(h)):
        a, b = h[i], h[(i + 1) % len(h)]
        if {a, b} == {u, v}:
            return i
    raise PreconditionError(f"({u}, {v}) is not a hull edge")


def point_sees_hull_edge(s: Point, ps: PointSet, edge: tuple[int, int]) -> bool:
    """True iff exterior point s sees hull edge (u, v): triangle s,u,v lies
    outside ch(ps), i.e. s is strictly on the outer side of the edge line."""
    if point_strictly_inside_hull(ps, s) or any(p.coords() == s.coords() for p in ps):
        raise PreconditionError("point must be strictly exterior to the hull")
    i = _hull_edge_index(ps, edge)
    h = ps.hull()
    a, b = ps[h[i]], ps[h[(i + 1) % len(h)]]
    return cross(a, b, s) < 0


def segment_sees_hull_edge(s: Point, t: Point, ps: PointSet, edge: tuple[int, int]) -> bool:
    """Both endpoints of st see the hull edge."""
    return point_sees_hull_edge(s, ps, edge) and point_sees_hull_edge(t, ps, edge)


def visible_hull_edges(s: Point, ps: PointSet) -> list[int]:
    """Indices i of hull edges (hull[i], hull[i+1]) visible from exterior s."""
    h = ps.hull()
    return [i for i in range(len(h))
            if cross(ps[h[i]], ps[h[(i + 1) % len(h)]], s) < 0]


def _ccw_ring(xs: Sequence[int], ys: Sequence[int], v: int) -> tuple[list[int], list[int]]:
    """The 2(n-1) directions +-(p - v), p != v, counterclockwise from just
    above the downward vertical, as (ring, at).

    A ring entry is p for the direction p - v and ~p for v - p.  The first
    half lists, for every p, whichever of the two points into the half-plane
    dx > 0 or (dx == 0, dy > 0); the second half is the first negated.
    at[p] is the index of p's entry in the first half."""
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


def max_convex_subset_indices(ps: PointSet) -> tuple[int, ...]:
    """Ids of a maximum-cardinality convex-position subset, in O(n^3) time
    and O(n^2) memory.

    Ties are broken by largest doubled hull area, then by lexicographically
    smallest sorted id tuple, which makes the result deterministic.

    A subset is found as a counterclockwise polygon a, c1, ..., ck whose
    anchor a is its lexicographically smallest point.  The other points are
    lex-greater than a, so they span less than a half turn around a and ci
    must come before ci+1 counterclockwise.  The turns at c1, at ck and at a
    are then convex on their own: cross(ck-1, ck, a) = cross(a, ck-1, ck) > 0.
    The one constraint left is a left turn cross(u, v, w) > 0 at every
    interior chain vertex, so a dynamic program keeps, per anchor, one value
    per directed chain edge (v, w) and every such value is a closed polygon.

    A value is (size, doubled area, mask) compared as a tuple, where id i
    sets bit n - 1 - i of the mask.  For two sets of one size, the smallest
    id in their symmetric difference belongs to the set with the
    lexicographically smaller sorted id tuple and sets the highest differing
    bit, so the larger mask is the preferred set.  Extending a chain by w
    adds the same size, the same area cross(a, v, w) and a bit that neither
    set has to every chain ending at (v, w), which keeps their order; one
    dominating value per edge is therefore exact.

    Edges into v are processed by one angular sweep instead of being paired
    with every edge out of v.  Every direction d_in = v - u of an edge into
    v and d_out = w - v out of it lies in the open half-turn that starts at
    v - a, because cross(a, u, v) > 0 and cross(a, v, w) > 0.  Inside that
    half-turn, d_in comes before d_out counterclockwise exactly when
    cross(u, v, w) > 0.  So walking the n - 2 ring entries of v after v - a
    and folding each edge into v into a running best gives every edge out
    of v its best allowed predecessor.  The rings are sorted once, in
    O(n^2 log n); the walks cost O(n) per pair (a, v).
    """
    n = len(ps)
    if n < 3:
        raise PreconditionError("need at least 3 points")
    # work on lexicographic ranks: rank r is the r-th smallest (x, y)
    order = sorted(range(n), key=lambda i: (ps.xs[i], ps.ys[i]))
    xs = [ps.xs[i] for i in order]
    ys = [ps.ys[i] for i in order]
    bit = [1 << (n - 1 - i) for i in order]
    rings, ats = zip(*(_ccw_ring(xs, ys, v) for v in range(n)))
    # state[v][w] = best chain a -> ... -> v -> w for the current anchor a;
    # it is written while v is visited, before any later v reads it.
    state: list[list[tuple[int, int, int]]] = [[(0, 0, 0)] * n for _ in range(n)]
    top = (0, 0, 0)
    for a in range(n - 2):
        ax, ay = xs[a], ys[a]
        # the first half of a's ring lists the lex-greater points counterclockwise
        for v in [e for e in rings[a][:n - 1] if e > a]:
            vx, vy = xs[v] - ax, ys[v] - ay
            out = state[v]
            best = (2, 0, bit[a] | bit[v])
            k = ats[v][a]
            for e in rings[v][k + 1:k + n - 1]:
                if e >= 0:
                    if e > a:
                        size, area, mask = best
                        s = (size + 1, area + vx * (ys[e] - ay) - vy * (xs[e] - ax),
                             mask | bit[e])
                        out[e] = s
                        if s > top:
                            top = s
                elif ~e > a:
                    s = state[~e][v]
                    if s > best:
                        best = s
    mask = top[2]
    return tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)


def max_convex_subset(ps: PointSet) -> PointSet:
    """Maximum convex-position subset as a fresh PointSet (original order)."""
    return ps.subset(max_convex_subset_indices(ps))
