"""Deterministic instance generators: polygons, random point sets, random
triangulations (seeded), wheels, fans and the two-cluster no-5-connectivity
fixture, used by the CLI and the test suite."""
from __future__ import annotations

import math
import random
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .geometry import PointSet, _open_segments_cross, convex_hull
from .triangulation import Triangulation, edge_key, flip, is_flippable, triangulate


def _try_pointset(coords: list[tuple[int, int]]) -> PointSet | None:
    try:
        return PointSet(coords)
    except PreconditionError:
        return None


def regular_polygon_points(n: int, radius: int = 10 ** 6) -> PointSet:
    """n points in convex position on a rounded circle, validated; the radius
    is doubled until rounding artifacts disappear.

    A radius is tested on the raw points first: their hull holds all n
    exactly when `PointSet` accepts them on its hull certificate, so a
    rejected radius never pays for the O(n^2) general-position scan."""
    if n < 3:
        raise PreconditionError("polygon needs n >= 3")
    r = radius
    # fixed angular offset avoids axis-aligned rounding collisions
    angles = [2.0 * math.pi * (j + 0.37) / n for j in range(n)]
    for _ in range(20):
        xs = [round(r * math.cos(a)) for a in angles]
        ys = [round(r * math.sin(a)) for a in angles]
        if len(convex_hull(xs, ys)) == n:
            ps = _try_pointset(list(zip(xs, ys)))
            if ps is not None:
                return ps
        r *= 2
    raise InternalInvariantError(f"no valid regular polygon found for n={n}")


def random_general_position(n: int, seed: int, span: int = 10 ** 4) -> PointSet:
    """n random points in general position, deterministic per seed.

    Each draw takes n distinct points from [-span, span]^2.  A draw that is
    not in general position is rejected, and `span` grows by half (to
    span + span // 2 + 1) before the next one, so small spans can return
    coordinates well beyond the span asked for.
    """
    if n < 0:
        raise PreconditionError(f"random point set needs n >= 0, got {n}")
    rng = random.Random(seed)
    for _ in range(200):
        coords = {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)}
        while len(coords) < n:
            coords.add((rng.randint(-span, span), rng.randint(-span, span)))
        ps = _try_pointset(sorted(coords))
        if ps is not None:
            return ps
        span += span // 2 + 1
    raise InternalInvariantError("could not sample a general-position set")


def random_triangulation(n: int, seed: int, flips: int | None = None) -> Triangulation:
    """Random triangulation: deterministic scan triangulation diversified by a
    seeded walk in the flip graph.  Each step flips a uniformly drawn edge of
    the sorted flippable edges.  Flipping (u, v) to (a, b) changes the
    triangles on the quadrilateral's sides only, so only (a, b), (u, a),
    (a, v), (v, b) and (b, u) are re-tested."""
    ps = random_general_position(n, seed)
    t = triangulate(ps)
    rng = random.Random(seed ^ 0x5EED)
    candidates = {e for e in t.edges if is_flippable(t, e)}
    for _ in range(flips if flips is not None else 3 * n):
        if not candidates:
            break
        e = sorted(candidates)[rng.randrange(len(candidates))]
        (u, v), (a, b) = e, t.opposites(e)
        t = flip(t, e)
        candidates.discard(e)
        for f in (edge_key(a, b), edge_key(u, a), edge_key(a, v), edge_key(v, b), edge_key(b, u)):
            if is_flippable(t, f):
                candidates.add(f)
            else:
                candidates.discard(f)
    return t


def generate_wheel(n: int) -> Triangulation:
    """Wheel: n - 1 points in convex position plus an interior center joined
    to all of them."""
    if n < 4:
        raise PreconditionError("wheel needs n >= 4")
    m = n - 1
    base = regular_polygon_points(m)
    for cx, cy in ((0, 0), (1, 2), (2, 1), (3, 5), (5, 3), (7, 11)):
        ps = _try_pointset([*zip(base.xs, base.ys), (cx, cy)])
        if ps is None or len(ps.hull()) != m:
            continue
        hull = ps.hull()
        center = n - 1
        tris = [(center, hull[i], hull[(i + 1) % m]) for i in range(m)]
        return Triangulation(ps, tris)
    raise InternalInvariantError("could not place wheel center")


def generate_fan(n: int) -> Triangulation:
    """Fan: convex polygon with one hull vertex joined to all others."""
    if n < 3:
        raise PreconditionError("fan needs n >= 3")
    ps = regular_polygon_points(n)
    hull = ps.hull()
    c = hull[0]
    tris = [(c, hull[i], hull[i + 1]) for i in range(1, n - 1)]
    return Triangulation(ps, tris)


def _strip_triangles(top: list[int], bottom: list[int], xs: Sequence[int]) -> list[tuple[int, int, int]]:
    """Triangulate the x-monotone strip between two disjoint chains; the
    implied side edges are (top[0], bottom[0]) and (top[-1], bottom[-1])."""
    tris = []
    i, j = 0, 0
    while i < len(top) - 1 or j < len(bottom) - 1:
        if j == len(bottom) - 1 or (i < len(top) - 1 and xs[top[i + 1]] <= xs[bottom[j + 1]]):
            tris.append((top[i], top[i + 1], bottom[j]))
            i += 1
        else:
            tris.append((top[i], bottom[j], bottom[j + 1]))
            j += 1
    return tris


def generate_no5conn_counterexample(k: int) -> Triangulation:
    """Two-cluster 4-connected triangulation on 4k + 4 points.

    Top cluster: 4k - 3 convex points (lower chain x_1..x_2k on a parabola,
    upper chain of 2k - 3 cap points, each above one lower-chain gap).  Bottom
    cluster: 7 points far below, placed so that every segment from an upper
    chain point to the bottom cluster crosses its lower-chain edge; the offset
    is found by doubling search and the crossings are asserted.  A depth's
    row of heights ends at the first candidate whose hull is right and whose
    crossings are not: no taller candidate there has them (see README,
    Verification).
    """
    if k < 2:
        raise PreconditionError("k >= 2 required")
    m = 2 * k
    p = [2 * j - (m + 1) for j in range(1, m + 1)]          # odd, symmetric
    q = [(p[i] + p[i + 1]) // 2 for i in range(1, m - 2)]   # gap midpoints, 2k-3 of them
    x = list(range(m))
    y = [m + i for i in range(m - 3)]
    c1, c2, c3 = 2 * m - 3, 2 * m - 2, 2 * m - 1
    ul, z1, z2, ur = 2 * m, 2 * m + 1, 2 * m + 2, 2 * m + 3
    expected_hull = sorted((x[0], x[-1], c1, c2, c3, *y))
    bottom = [c1, c2, c3, ul, z1, z2, ur]
    # x_1..x_2k, y_1..y_{2k-3}, c_1, c_2, c_3, uL, z1, z2, uR; only the
    # y-coordinates depend on the candidate
    xs = [8 * v for v in p] + [8 * v for v in q] + [-8, 0, 8, -6, -2, 2, 6]
    tris: list[tuple[int, int, int]] = []
    tris.append((x[0], x[1], y[0]))
    tris += [(y[i], x[i + 1], x[i + 2]) for i in range(m - 3)]
    tris += [(y[i], y[i + 1], x[i + 2]) for i in range(m - 4)]
    tris.append((y[-1], x[-2], x[-1]))
    tris += _strip_triangles(x, [ul, z1, z2, ur], xs)
    tris += [(x[0], c1, ul), (ul, c1, z1), (z1, c1, c2), (z1, c2, z2),
             (z2, c2, c3), (z2, c3, ur), (ur, c3, x[-1])]

    def crossings_hold(ys: list[int]) -> bool:
        """The required crossing property: y_i to any bottom point crosses
        x_{i+1} x_{i+2}."""
        for i in range(m - 3):
            a, b = x[i + 1], x[i + 2]
            for w in bottom:
                if not _open_segments_cross((xs[y[i]], ys[y[i]], xs[w], ys[w]),
                                            (xs[a], ys[a], xs[b], ys[b])):
                    return False
        return True

    depth = 256
    for _ in range(30):
        height = 64
        for _ in range(20):
            ys = ([v * v for v in p] + [height - v * v for v in q]
                  + [-depth, -depth - 8, -depth, -depth + 8, -depth + 6, -depth + 6, -depth + 8])
            # the hull and crossing checks run on the raw points, so that only
            # a candidate passing both pays for the O(n^2) general-position scan
            if sorted(convex_hull(xs, ys)) == expected_hull:
                if not crossings_hold(ys):
                    break
                ps = _try_pointset(list(zip(xs, ys)))
                if ps is not None:
                    return Triangulation(ps, tris)
            height *= 2
        depth *= 2
    raise InternalInvariantError("no valid two-cluster construction found")
