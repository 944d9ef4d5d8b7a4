"""Exact planar geometric primitives on integer coordinates.

All predicates are evaluated with exact integer arithmetic (Python ints never
overflow); COORD_LIMIT bounds coordinates anyway so that file formats stay
portable and accidental floats are rejected early.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError

#: Coordinates must satisfy |x|, |y| <= COORD_LIMIT.  At this bound every
#: 3-point cross determinant and every doubled polygon area used in the
#: library is below 2**66, exactly representable by Python integers.
COORD_LIMIT = 2 ** 30

#: The `_slope` of dx = 0: above every floor(dy / dx * 2^64), dx != 0, of
#: coordinate differences within the limit, where |dy / dx| <= 2^31.
_ABOVE_EVERY_SLOPE = 1 << 96

#: Added to the `_slope` of a direction in the half-plane (dx, dy) < (0, 0),
#: so that one int orders a whole turn: every `_slope` is below it in size.
_HALF_TURN = 1 << 98


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


def cross(ps: PointSet, o: int, a: int, b: int) -> int:
    """Exact cross product (a - o) x (b - o) of three points of `ps`; twice
    the signed triangle area."""
    xs, ys = ps.xs, ps.ys
    ox, oy = xs[o], ys[o]
    return (xs[a] - ox) * (ys[b] - oy) - (ys[a] - oy) * (xs[b] - ox)


def segments_properly_cross(ps: PointSet, a: int, b: int, c: int, d: int) -> bool:
    """True iff the open segments ab and cd of points of `ps` share exactly
    one interior point.

    Segments that share an endpoint never properly cross (general position
    rules out overlap along a line).
    """
    xs, ys = ps.xs, ps.ys
    return _open_segments_cross((xs[a], ys[a], xs[b], ys[b]), (xs[c], ys[c], xs[d], ys[d]))


# ----------------------------------------------------------------------
# Crossing kernel: segments_properly_cross on flat integer coordinates; the
# scans put a bounding-box reject in front of it.
# ----------------------------------------------------------------------

def _open_segments_cross(s: tuple[int, int, int, int], t: tuple[int, int, int, int]) -> bool:
    """True iff the open segments (x1, y1, x2, y2) `s` and `t` cross: both
    pairs of determinants have strictly opposite signs, and a shared
    endpoint makes one of the four zero."""
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


def first_crossing(ps: PointSet, edges: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """crossing_pairs(ps, edges)[0], or None when no two `edges` properly
    cross, in O(m log m) comparisons when they do not (Shamos and Hoey,
    1976).  Each edge joins two distinct points.

    The sweep visits the endpoints in lexicographic (x, y) order, a sweep
    line tilted slightly off vertical, so that a vertical edge needs no
    special case.  The active segments are kept bottom to top, and a vertex
    p finds its place by bisection with the exact sign of `cross`.  The
    block of segments ending at p is replaced by the segments starting at p,
    sorted around p, and only the new neighbour pairs are tested.  The
    leftmost crossing pair becomes adjacent at an earlier vertex and is
    tested there, so the sweep stops before any vertex right of a crossing;
    left of every crossing the list is in true order, and the segments
    ending at p are the first ones from p's place.  Once any crossing shows,
    the full scan names the nested-loop witness.

    On a set in convex position the edges are chords of a strictly convex
    polygon, and `_chords_interleave` accepts a plane set from hull positions
    alone; a set it rejects goes through the sweep for its witness.
    """
    if len(ps) >= 3 and is_convex_position(ps) and not _chords_interleave(ps, edges):
        return None
    xs, ys = ps.xs, ps.ys
    starts: dict[int, list[tuple[int, int, int, int]]] = {}
    ends: dict[int, int] = {}
    for u, v in edges:
        if (xs[v], ys[v]) < (xs[u], ys[u]):
            u, v = v, u
        starts.setdefault(u, []).append((xs[u], ys[u], xs[v], ys[v]))
        starts.setdefault(v, [])
        ends[v] = ends.get(v, 0) + 1
    active: list[tuple[int, int, int, int]] = []
    for p in sorted(starts, key=lambda v: (xs[v], ys[v])):
        px, py = xs[p], ys[p]
        # the first active segment that p is not strictly above
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            ax, ay, bx, by = active[mid]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                lo = mid + 1
            else:
                hi = mid
        # no crossing lies left of p, so the segments ending at p come first
        hi = lo + ends.get(p, 0)
        # bottom to top around p: every far end is lexicographically greater
        new = sorted(starts[p], key=lambda s: _slope(s[2] - px, s[3] - py))
        active[lo:hi] = new
        hi = lo + len(new)
        if (0 < lo < len(active) and _open_segments_cross(active[lo - 1], active[lo])) \
                or (lo < hi < len(active) and _open_segments_cross(active[hi - 1], active[hi])):
            break
    else:
        return None
    pairs = crossing_pairs(ps, edges)
    return pairs[0] if pairs else None


def _chords_interleave(ps: PointSet, edges: Sequence[tuple[int, int]]) -> bool:
    """True iff two `edges` have hull positions a < c < b < d, on a set in
    convex position: the one way two chords of a strictly convex polygon
    properly cross.

    Each span's right end is filed under its left end.  At each left end a,
    in increasing order, the spans on the stack that end at or before a are
    dropped; the rest contain a, and nest, so the top ends first.  A span
    from a interleaves with one of them exactly when it ends after the top,
    so the longest span from a decides.  Else every span from a nests inside
    the top, and they go on the stack longest first."""
    pos = ps.hull_positions()
    ends: list[list[int]] = [[] for _ in pos]
    for u, v in edges:
        a, b = pos[u], pos[v]
        if a < b:
            ends[a].append(b)
        else:
            ends[b].append(a)
    stack = [len(pos)]  # a sentinel above every end
    for a, bucket in enumerate(ends):
        if bucket:
            while stack[-1] <= a:
                stack.pop()
            bucket.sort(reverse=True)
            if bucket[0] > stack[-1]:
                return True
            stack += bucket
    return False


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
    and `ys` hold the coordinates as flat integer tuples, which every
    predicate reads by vertex id.  `points`, `ps[i]` and iteration hand out
    new `Point`s on each read.  The hull, its positions and its edges are
    cached here, and no other module derives them.
    """

    def __init__(self, points: Sequence[Point] | Sequence[tuple[int, int]]):
        """Accepts n >= 3 points at once when all of them are hull vertices:
        convex_hull pops every point that is not a corner of the hull, and no
        corner lies between two other points, so no three are collinear.
        Any other set goes through the bucket scan of `_init`."""
        self.xs, self.ys = _checked_points(points, 0)
        _check_distinct(self.xs, self.ys, 0)
        n = len(self.xs)
        hull = tuple(convex_hull(self.xs, self.ys)) if n >= 3 else None
        self._init(n if hull is not None and len(hull) == n else 0)
        self._hull = hull
        self._hull_pos: tuple[int, ...] | None = None
        self._hull_edges: frozenset[tuple[int, int]] | None = None

    def _init(self, known: int) -> None:
        """Validate the distinct points from index `known` on against all
        others; the first `known` points are already in general position.

        A collinear triple (i, j, k), i < j < k, is two earlier points i and
        j on one line through k: their differences from k have one `_slope`
        (written out below), a key that tells lines through a point apart
        (see README, Verification).  So each k >= known buckets the points
        before it by that key, O(k) time per point, and the first two
        members of a bucket are its smallest pair.  The error names the
        lexicographically smallest collinear triple whose largest index is
        at least `known`, the one a full scan meets first."""
        xs, ys = self.xs, self.ys
        first: tuple[int, int, int] | None = None
        for k in range(max(known, 2), len(xs)):
            xk, yk = xs[k], ys[k]
            bucket: dict[int, int] = {}
            for i in range(k):
                dx = xs[i] - xk
                i0 = bucket.setdefault(((ys[i] - yk) << 64) // dx if dx else _ABOVE_EVERY_SLOPE, i)
                if i0 != i and (first is None or (i0, i, k) < first):
                    first = (i0, i, k)
        if first is not None:
            raise PreconditionError(
                "points {}, {}, {} are collinear (general position required)".format(*first))

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as `Point`s."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self):
        return map(Point, self.xs, self.ys, range(len(self.xs)))

    def __getitem__(self, i: int) -> Point:
        i = range(len(self.xs))[i]
        return Point(self.xs[i], self.ys[i], i)

    def hull(self) -> tuple[int, ...]:
        """Counterclockwise convex hull as a tuple of vertex ids (cached)."""
        if self._hull is None:
            self._hull = tuple(convex_hull(self.xs, self.ys))
        return self._hull

    def hull_positions(self) -> tuple[int, ...]:
        """Each vertex's index in `hull()`, -1 for an interior one (cached)."""
        if self._hull_pos is None:
            pos = [-1] * len(self.xs)
            for i, v in enumerate(self.hull()):
                pos[v] = i
            self._hull_pos = tuple(pos)
        return self._hull_pos

    def hull_edges(self) -> frozenset[tuple[int, int]]:
        """The hull edges as (min, max) pairs (cached)."""
        if self._hull_edges is None:
            h = self.hull()
            self._hull_edges = frozenset((min(e), max(e)) for e in zip(h, h[1:] + h[:1]))
        return self._hull_edges

    def interior_ids(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.hull_positions()) if p < 0)

    def reordered(self, ids: Sequence[int]) -> "PointSet":
        """New PointSet of the distinct vertices `ids`, in that order.  Points
        of a set in general position are distinct and in general position in
        any order, so nothing is re-checked."""
        if len(set(ids)) != len(ids):
            raise PreconditionError("ids repeat a vertex")
        return PointSet._trusted(tuple(self.xs[i] for i in ids), tuple(self.ys[i] for i in ids))

    def next_prefix(self, before: "PointSet") -> "PointSet":
        """The prefix of this set one point longer than `before`, which must
        be a shorter prefix of it, as a new PointSet: not re-checked, as in
        `reordered`, and with `before`'s cached hull views carried over as
        `extended` carries them (see README, Verification)."""
        m = len(before)
        out = PointSet._trusted(self.xs[:m + 1], self.ys[:m + 1])
        if m >= len(self) or out.xs[:m] != before.xs or out.ys[:m] != before.ys:
            raise PreconditionError(f"a set of {m} points is no shorter prefix of this one")
        return before._carried(out)

    def extended(self, coords: Sequence[tuple[int, int]]) -> "PointSet":
        """This set with `coords` appended (ids continue from len(self)).

        Raises the error `PointSet` would raise on the concatenated list, but
        tests only the triples that contain a new point: O(n) per point.
        When this set's hull is cached and every new point lies strictly
        inside it, the new set keeps its cached hull views, the new points at
        position -1 (see README, Verification).
        """
        xs, ys = _checked_points(coords, len(self))
        out = PointSet._trusted(self.xs + xs, self.ys + ys)
        _check_distinct(out.xs, out.ys, len(self))
        out._init(len(self))
        return self._carried(out)

    def _carried(self, out: "PointSet") -> "PointSet":
        """`out`, which extends this set, with this set's cached hull views
        when every new point lies strictly inside that hull."""
        if self._hull is not None and all(strictly_inside(out, self._hull, s)
                                          for s in range(len(self), len(out))):
            out._hull, out._hull_edges = self._hull, self._hull_edges
            if self._hull_pos is not None:
                out._hull_pos = self._hull_pos + (-1,) * (len(out) - len(self))
        return out

    @staticmethod
    def _trusted(xs: tuple[int, ...], ys: tuple[int, ...]) -> "PointSet":
        """The PointSet of coordinates already known to be distinct and in
        general position, with no hull view cached."""
        out = PointSet.__new__(PointSet)
        out.xs, out.ys = xs, ys
        out._hull = out._hull_pos = out._hull_edges = None
        return out


def _checked_points(points: Sequence[Point] | Sequence[tuple[int, int]], start: int
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coordinates (xs, ys) of integer, in-range points with ids from
    `start` on."""
    xs: list[int] = []
    ys: list[int] = []
    for i, p in enumerate(points, start):
        if isinstance(p, Point):
            x, y = p.x, p.y
        else:
            x, y = p
        if not isinstance(x, int) or not isinstance(y, int):
            raise PreconditionError(f"point {i}: coordinates must be integers, got ({x!r}, {y!r})")
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise PreconditionError(f"point {i}: coordinate exceeds COORD_LIMIT={COORD_LIMIT}")
        xs.append(x)
        ys.append(y)
    return tuple(xs), tuple(ys)


def _check_distinct(xs: Sequence[int], ys: Sequence[int], known: int) -> None:
    """Raise on the first point from index `known` on that repeats an
    earlier one; the first `known` points are already distinct."""
    seen = set(zip(xs[:known], ys[:known]))
    for p in zip(xs[known:], ys[known:]):
        if p in seen:
            raise PreconditionError(f"duplicate point {p}")
        seen.add(p)


def convex_hull(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Counterclockwise hull vertices of the distinct points (xs[i], ys[i]),
    as positions i, via Andrew's monotone chain (1979) on (x, y, i) tuples.
    The line from the lexicographically smallest point to the largest splits
    the others: a point strictly below it can only be a lower hull vertex,
    one strictly above it an upper one, and one on it neither, so each chain
    runs on its own side."""
    if len(xs) < 3:
        raise PreconditionError("convex hull needs at least 3 points")
    order = sorted(zip(xs, ys, range(len(xs))))
    first, last = order[0], order[-1]
    lx, ly, _ = first
    ex, ey = last[0] - lx, last[1] - ly
    below: list[tuple[int, int, int]] = []
    above: list[tuple[int, int, int]] = []
    for p in order[1:-1]:
        side = ex * (p[1] - ly) - ey * (p[0] - lx)
        if side < 0:
            below.append(p)
        elif side > 0:
            above.append(p)

    def half(seq: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        out: list[tuple[int, int, int]] = []
        for p in seq:
            x, y, _ = p
            while len(out) >= 2:
                (ax, ay, _), (bx, by, _) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half([first] + below + [last])
    upper = half([last] + above[::-1] + [first])
    return [i for _, _, i in lower[:-1] + upper[:-1]]


def is_convex_position(ps: PointSet) -> bool:
    """True iff every point is a hull vertex."""
    return len(ps.hull()) == len(ps)


def polygon_doubled_area(ps: PointSet, cycle: Sequence[int]) -> int:
    """Exact doubled (shoelace) area of the polygon of the vertices `cycle`;
    positive for counterclockwise order."""
    xs, ys = ps.xs, ps.ys
    return sum(xs[a] * ys[b] - xs[b] * ys[a] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def strictly_inside(ps: PointSet, polygon: Sequence[int], s: int) -> bool:
    """True iff vertex s lies strictly inside the counterclockwise convex
    polygon of the vertices `polygon`: strictly left of each edge, from the
    closing one on (`cross`, written out)."""
    xs, ys = ps.xs, ps.ys
    sx, sy = xs[s], ys[s]
    ax, ay = xs[polygon[-1]], ys[polygon[-1]]
    for v in polygon:
        bx, by = xs[v], ys[v]
        if (bx - ax) * (sy - ay) - (by - ay) * (sx - ax) <= 0:
            return False
        ax, ay = bx, by
    return True


def point_in_triangle(ps: PointSet, a: int, b: int, c: int, s: int) -> bool:
    """Strict interior test of vertex s in triangle abc (general position:
    boundary cases cannot occur for distinct set members, but the test is
    strict regardless)."""
    d1, d2, d3 = cross(ps, a, b, s), cross(ps, b, c, s), cross(ps, c, a, s)
    return (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)


def circular_runs(flags: Sequence[bool]) -> list[tuple[int, int]]:
    """The maximal runs of True in the cyclic sequence `flags`, as
    (start, length) in order of start; a run that wraps past the last index
    is reported once, from its start.  All True is [(0, m)]; empty or all
    False is []."""
    m = len(flags)
    if m and all(flags):
        return [(0, m)]
    runs = []
    for i in range(m):
        if flags[i] and not flags[i - 1]:
            k = 1
            while flags[(i + k) % m]:
                k += 1
            runs.append((i, k))
    return runs


def visible_chain(ps: PointSet, cycle: Sequence[int], s: int) -> tuple[int, int]:
    """The edges of the counterclockwise convex polygon of the vertices
    `cycle` that vertex s sees (cross < 0), as (i, k): s sees edges i, ...,
    i + k - 1 (mod m), edge j joining cycle[j] and cycle[j + 1]; (0, 0) when
    it sees none.

    A point outside a convex polygon sees a nonempty contiguous chain of its
    edges (see README, Verification), so the one run that `circular_runs`
    finds in one pass of `cross` is the chain.  Two points u, v count as the
    edges (u, v) and (v, u), of which s sees one."""
    m = len(cycle)
    runs = circular_runs([cross(ps, cycle[j], cycle[(j + 1) % m], s) < 0 for j in range(m)])
    return runs[0] if runs else (0, 0)


def _slope(dx: int, dy: int) -> int:
    """The angular sort key of direction (dx, dy): floor(dy / dx * 2^64),
    above every slope for dx = 0.  In either half-plane (dx, dy) > (0, 0) or
    < (0, 0) it grows counterclockwise (see README, Verification)."""
    return (dy << 64) // dx if dx else _ABOVE_EVERY_SLOPE


def _ccw_key(ps: PointSet, v: int) -> Callable[[int], int]:
    """The sort key of `ccw_order` around v, as a function of the neighbour:
    the `_slope` of its direction, plus `_HALF_TURN` in the half-plane
    (dx, dy) < (0, 0)."""
    xs, ys, vx, vy = ps.xs, ps.ys, ps.xs[v], ps.ys[v]

    def key(p: int) -> int:
        dx, dy = xs[p] - vx, ys[p] - vy
        return _slope(dx, dy) + (_HALF_TURN if (dx, dy) < (0, 0) else 0)

    return key


def ccw_order(ps: PointSet, v: int, nbrs: Iterable[int]) -> list[int]:
    """`nbrs` in counterclockwise angular order around v, from just after the
    downward vertical (`_ccw_key`)."""
    return sorted(nbrs, key=_ccw_key(ps, v))


def _edge_rings(ps: PointSet, edges: Iterable[tuple[int, int]]
                ) -> tuple[list[list[int]], list[list[int]]]:
    """Every vertex's neighbours under `edges` in `ccw_order`, as (rings,
    keys), with keys[v] the `_ccw_key`s of rings[v].  p - v and v - p have
    one `_slope` and lie in opposite half-planes, so each edge's slope is
    computed once and filed in both rings."""
    xs, ys = ps.xs, ps.ys
    dirs: list[list[tuple[int, int]]] = [[] for _ in range(len(ps))]
    for u, v in edges:
        dx, dy = xs[v] - xs[u], ys[v] - ys[u]
        slope = _slope(dx, dy)
        if (dx, dy) < (0, 0):
            dirs[u].append((slope + _HALF_TURN, v))
            dirs[v].append((slope, u))
        else:
            dirs[u].append((slope, v))
            dirs[v].append((slope + _HALF_TURN, u))
    rings, keys = [], []
    for ring_dirs in dirs:
        ring_dirs.sort()
        keys.append([key for key, _ in ring_dirs])
        rings.append([p for _, p in ring_dirs])
    return rings, keys


def _slope_pairs(xs: Sequence[int], ys: Sequence[int]) -> list[tuple[int, int]]:
    """Every unordered pair of points as (t, h), where the direction h - t
    lies in the half-plane dx > 0 or (dx == 0, dy > 0), sorted by the
    `_slope` of that direction: one sort of the n(n - 1)/2 pair keys.  In
    general position no two pairs that share a point are parallel, so the
    pairs of one point have distinct keys (see README, Verification)."""
    n = len(xs)
    nn = n * n
    keyed: list[int] = []
    for v in range(n):
        vx, vy, vn = xs[v], ys[v], v * n
        for p in range(v + 1, n):
            dx, dy = xs[p] - vx, ys[p] - vy
            # `_slope` and (dx, dy) > (0, 0), written out: this loop runs
            # n^2 / 2 times; the pair t * n + h rides in the low digits, so
            # the sort compares ints
            keyed.append(((dy << 64) // dx if dx else _ABOVE_EVERY_SLOPE) * nn
                         + (vn + p if dx > 0 or (dx == 0 and dy > 0) else p * n + v))
    keyed.sort()
    return [divmod(k % nn, n) for k in keyed]


def _ccw_rings(n: int, pairs: Iterable[tuple[int, int]]
               ) -> tuple[list[list[int]], list[list[int]]]:
    """For every vertex v, the 2(n-1) directions +-(p - v), p != v,
    counterclockwise from just above the downward vertical, as (rings, ats),
    from the `_slope_pairs` of the n points.

    A ring entry is p for the direction p - v and ~p for v - p.  The first
    half lists, for every p, whichever of the two points into the half-plane
    dx > 0 or (dx == 0, dy > 0), sorted by `_slope`, and the second half is
    the first negated.  ats[v][p] is the index of p's entry in the first half
    of v's ring.  A pair (t, h) is h - t in t's ring and t - h in h's, with
    one `_slope`, so filing the pairs in their global order into both rings
    sorts every ring."""
    rings: list[list[int]] = [[] for _ in range(n)]
    ats = [[0] * n for _ in range(n)]
    for t, h in pairs:
        ring_t, ring_h = rings[t], rings[h]
        ats[t][h] = len(ring_t)
        ring_t.append(h)
        ats[h][t] = len(ring_h)
        ring_h.append(~t)
    for half in rings:
        half += [~e for e in half]
    return rings, ats


def _anchor_bounds(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """For n points in lexicographic order, given by their `_slope_pairs`,
    an upper bound on the corners of every convex polygon whose
    lexicographically smallest corner is a, for each point a:
    min(cup[a] + cap[a], n - a).

    A cup is a chain of points in increasing order whose edge slopes
    strictly increase, a cap one whose slopes strictly decrease (Erdos and
    Szekeres, 1935); cup[a] and cap[a] count the edges of the longest ones
    from a.  A convex polygon anchored at a, with largest corner b, is a cup
    a -> b below and a cap a -> b above, with as many edges as corners, and
    its other corners are among the n - 1 - a points after a.

    The points are in lexicographic order, so every pair is (u, v) with
    u < v.  Scanned by decreasing slope, a pair (u, v) meets cup[v] counting
    only the cups from v whose first edge has a larger slope, and extends
    them; the scan by increasing slope does the same for caps.  Two pairs
    that share a point never have one slope, so the ties of the sort do not
    matter."""
    cup, cap = [0] * n, [0] * n
    for u, v in reversed(pairs):
        if cup[v] >= cup[u]:
            cup[u] = cup[v] + 1
    for u, v in pairs:
        if cap[v] >= cap[u]:
            cap[u] = cap[v] + 1
    return [min(cup[a] + cap[a], n - a) for a in range(n)]


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
    of v its best allowed predecessor.  The rings come from one sort of the
    n(n - 1)/2 pair keys, in O(n^2 log n); the walks cost O(n) per pair
    (a, v).

    The sweep runs in two passes.  Values compare size first, so the size
    part of the dominating value on an edge is the largest chain size on
    that edge, and a first pass that keeps sizes alone, as small ints, finds
    each anchor's best size reach[a] and the maximum K.  It visits anchors
    by decreasing `_anchor_bounds`, min(cup[a] + cap[a], n - a) from the
    longest cup and cap from a, and stops at the first bound below the best
    size so far: no anchor from there on can hold a K-point polygon.  The
    second pass runs the exact (size, area, mask) sweep on the anchors with
    reach[a] == K only: the optimum is anchored at one of them, and no other
    anchor has a K-point chain.  An anchor's sweep reads only values written
    by the same anchor, so neither the order of the anchors nor skipping
    some changes anything.
    """
    n = len(ps)
    if n < 3:
        raise PreconditionError("need at least 3 points")
    # work on lexicographic ranks: rank r is the r-th smallest (x, y)
    order = sorted(range(n), key=lambda i: (ps.xs[i], ps.ys[i]))
    xs = [ps.xs[i] for i in order]
    ys = [ps.ys[i] for i in order]
    bit = [1 << (n - 1 - i) for i in order]
    pairs = _slope_pairs(xs, ys)
    rings, ats = _ccw_rings(n, pairs)
    bound = _anchor_bounds(n, pairs)

    def chain_ends(a: int) -> list[int]:
        # the first half of a's ring lists the lex-greater points counterclockwise
        return [e for e in rings[a][:n - 1] if e > a]

    # pass 1: sizes[v][w] = largest chain a -> ... -> v -> w for anchor a
    sizes = [[0] * n for _ in range(n)]
    reach = [0] * n
    most = 0
    for a in sorted(range(n - 2), key=bound.__getitem__, reverse=True):
        if bound[a] < most:
            break
        top_a = 0
        for v in chain_ends(a):
            out = sizes[v]
            best = 2
            k = ats[v][a]
            for e in rings[v][k + 1:k + n - 1]:
                if e >= 0:
                    if e > a:
                        out[e] = best + 1
                        if best >= top_a:
                            top_a = best + 1
                elif ~e > a:
                    s = sizes[~e][v]
                    if s > best:
                        best = s
        reach[a] = top_a
        most = max(most, top_a)

    # pass 2: state[v][w] = best chain a -> ... -> v -> w for the current
    # anchor a; it is written while v is visited, before any later v reads it.
    state: list[list[tuple[int, int, int]]] = [[(0, 0, 0)] * n for _ in range(n)]
    top = (0, 0, 0)
    for a in [a for a in range(n - 2) if reach[a] == most]:
        ax, ay = xs[a], ys[a]
        for v in chain_ends(a):
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

