import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import biplane.geometry as geometry_module
from biplane.errors import PreconditionError
from biplane.geometry import (COORD_LIMIT, Point, PointSet, ccw_order, circular_runs,
                              convex_hull, cross, crosses_any, crossing_pairs,
                              first_crossing, is_convex_position,
                              max_convex_subset_indices, point_in_triangle,
                              polygon_doubled_area, segments_properly_cross, strictly_inside,
                              visible_chain)
from biplane.generators import random_general_position, regular_polygon_points
from biplane.geometry import _anchor_bounds, _ccw_rings, _open_segments_cross, _slope_pairs
from biplane.triangulation import edge_key, triangulate

from oracles import (bf_circular_runs, bf_first_collinear, bf_first_crossing, bf_hull_ids,
                     bf_largest_anchored_convex, bf_max_convex_subset,
                     bf_optimal_convex_subsets, dp_max_convex_subset, ref_ccw_ring, ref_cross,
                     ref_point_in_triangle, ref_segments_properly_cross, visible_hull_edges)
from conftest import bench_sets, core_plus_interior


def segment(*coords):
    return tuple(c for p in coords for c in p)


class TestOrientation:
    def test_unit_right_triangle_ccw(self):
        assert cross(PointSet([(0, 0), (1, 0), (0, 1)]), 0, 1, 2) > 0

    def test_collinear(self):
        # a repeated vertex is the one collinear triple a PointSet holds;
        # free collinear points are on the kernel, in TestProperCrossing
        ps = PointSet([(0, 0), (1, 1), (2, 5)])
        assert cross(ps, 0, 1, 1) == cross(ps, 2, 2, 0) == cross(ps, 1, 0, 1) == 0

    def test_mirror_cw(self):
        assert cross(PointSet([(0, 0), (0, 1), (1, 0)]), 0, 1, 2) < 0

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                    min_size=3, max_size=3, unique=True))
    def test_antisymmetry(self, coords):
        try:
            ps = PointSet(coords)
        except PreconditionError:
            return
        assert cross(ps, 0, 1, 2) == -cross(ps, 0, 2, 1) == ref_cross(*ps.points)

    @given(st.lists(st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)),
                    min_size=4, max_size=4, unique=True))
    def test_crossing_is_symmetric(self, coords):
        try:
            ps = PointSet(coords)
        except PreconditionError:
            return
        assert segments_properly_cross(ps, 0, 1, 2, 3) == segments_properly_cross(ps, 2, 3, 0, 1)
        assert segments_properly_cross(ps, 0, 1, 2, 3) == segments_properly_cross(ps, 1, 0, 3, 2)


def segment(p, q):
    """The flat (x1, y1, x2, y2) form of the segment pq."""
    return (*p, *q)


def kernel_crosses(s, t):
    """`_open_segments_cross` on two segments given by their ends, the same
    in every order of the segments and of their ends."""
    got = {_open_segments_cross(segment(*u), segment(*v))
           for u, v in ((s, t), (t, s), (s[::-1], t), (s, t[::-1]))}
    assert len(got) == 1, (s, t)
    return got.pop()


class TestProperCrossing:
    """Free segments that no PointSet can hold (collinear triples, overlaps)
    go to the flat kernel that `segments_properly_cross` calls."""

    def test_x_crossing(self):
        assert segments_properly_cross(PointSet([(0, 0), (2, 2), (0, 2), (2, 0)]), 0, 1, 2, 3)
        assert kernel_crosses(((0, 0), (2, 2)), ((0, 2), (2, 0)))

    def test_shared_endpoint(self):
        assert not segments_properly_cross(PointSet([(0, 0), (1, 0), (0, 1)]), 0, 1, 0, 2)
        assert not kernel_crosses(((0, 0), (1, 0)), ((0, 0), (0, 1)))

    def test_disjoint(self):
        assert not segments_properly_cross(PointSet([(0, 0), (1, 0), (2, 1), (3, 5)]), 0, 1, 2, 3)
        assert not kernel_crosses(((0, 0), (1, 0)), ((2, 0), (3, 5)))

    def test_t_touch_is_not_proper(self):
        assert not kernel_crosses(((0, 0), (2, 0)), ((1, 0), (1, 5)))

    def test_segments_on_one_line_do_not_cross(self):
        for s, t in [
            (((0, 0), (1, 1)), ((1, 1), (2, 2))),    # end to end
            (((0, 0), (4, 0)), ((1, 0), (3, 0))),    # one inside the other
            (((0, 0), (3, 3)), ((1, 1), (5, 5))),    # overlapping
            (((0, 0), (1, 0)), ((2, 0), (3, 0))),    # apart
            (((0, 0), (2, 4)), ((0, 0), (2, 4))),    # the same segment
        ]:
            assert not kernel_crosses(s, t), (s, t)


class TestPredicatesAgainstOracles:
    """Every predicate that reads coordinates by vertex id against the
    oracles' own orientation tests on `Point`s, over seeded general-position
    sets of 4 to 30 points."""

    SETS = 1000

    def test_predicates_match(self):
        seen = {"cross": set(), "proper": set(), "shared": set(), "triangle": set(),
                "inside": set(), "chain": set()}
        for seed in range(self.SETS):
            rng = random.Random(seed)
            n = rng.randint(4, 30)
            ps = random_general_position(n, seed, span=rng.choice((20, 10 ** 4)))
            pts = ps.points
            for _ in range(8):
                a, b, c, d = rng.sample(range(n), 4)
                want = ref_cross(pts[a], pts[b], pts[c])
                assert cross(ps, a, b, c) == want and want != 0
                seen["cross"].add(want > 0)
                got = segments_properly_cross(ps, a, b, c, d)
                assert got == ref_segments_properly_cross(pts[a], pts[b], pts[c], pts[d])
                seen["proper"].add(got)
                # a shared endpoint, in either role, never crosses
                for e, f in (((a, b), (a, c)), ((a, b), (c, a)), ((b, a), (c, a)), ((a, b), (b, a))):
                    assert not segments_properly_cross(ps, *e, *f)
                    assert not ref_segments_properly_cross(*(pts[v] for v in e + f))
                seen["shared"].add(True)
                got = point_in_triangle(ps, a, b, c, d)
                assert got == ref_point_in_triangle(pts[a], pts[b], pts[c], pts[d])
                assert not point_in_triangle(ps, a, b, c, a)
                seen["triangle"].add(got)
            # any closed polygon: the shoelace sum equals the fan of cross products
            cycle = rng.sample(range(n), rng.randint(3, n))
            fan = sum(ref_cross(pts[cycle[0]], pts[u], pts[v]) for u, v in zip(cycle[1:], cycle[2:]))
            assert polygon_doubled_area(ps, cycle) == fan == -polygon_doubled_area(ps, cycle[::-1])
            # the hull of a subset, and every other point against it
            sub = rng.sample(range(n), rng.randint(3, n - 1))
            hull = [sub[i] for i in convex_hull([ps.xs[v] for v in sub], [ps.ys[v] for v in sub])]
            m = len(hull)
            # (a hull vertex is on two edge lines: neither inside nor seeing them)
            for v in range(n):
                signs = [ref_cross(pts[hull[j]], pts[hull[(j + 1) % m]], pts[v]) for j in range(m)]
                inside = all(c > 0 for c in signs)
                assert strictly_inside(ps, hull, v) is inside
                i, k = visible_chain(ps, hull, v)
                assert sorted((i + j) % m for j in range(k)) == [j for j, c in enumerate(signs) if c < 0]
                seen["inside"].add(inside)
                seen["chain"].add(k)
        assert all(len(kinds) >= 2 for name, kinds in seen.items() if name != "shared"), seen
        assert len(seen["chain"]) >= 5, seen


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(PreconditionError):
            PointSet([(0, 0), (0, 0), (1, 2)])

    def test_rejects_collinear(self):
        with pytest.raises(PreconditionError):
            PointSet([(0, 0), (1, 1), (2, 2), (5, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            PointSet([(0, 0), (COORD_LIMIT + 1, 3), (1, 5)])

    def test_rejects_floats(self):
        with pytest.raises(PreconditionError):
            PointSet([(0, 0), (1.5, 3), (1, 5)])


    def test_points_are_built_on_each_read(self):
        """`ps[i]`, iteration and `points` build new `Point`s from `xs` and
        `ys`; a negative index counts from the end and keeps the id of the
        point it names."""
        ps = PointSet([(0, 0), (5, 1), (2, 7)])
        assert ps[1] == Point(5, 1, 1) and ps[-1] == ps[2] == Point(2, 7, 2) == ps[-1]
        assert ps[-3] == Point(0, 0, 0)
        assert list(ps) == list(ps.points) == [Point(0, 0, 0), Point(5, 1, 1), Point(2, 7, 2)]
        assert ps.points is not ps.points
        # no Point cache: the fields are the coordinates and the hull views
        assert vars(ps).keys() == {"xs", "ys", "_hull", "_hull_pos", "_hull_edges"}
        for i in (3, -4):
            with pytest.raises(IndexError):
                ps[i]

    def test_points_build_what_their_coordinates_build(self):
        """Point input is read by its coordinates alone: another set's
        Points, in any order and with their old ids, give the set and the
        error that their coordinates give."""
        def build(make):
            try:
                ps = make()
            except PreconditionError as exc:
                return str(exc)
            return ps.xs, ps.ys, ps.hull()

        for seed in range(8):
            other = random_general_position(25, seed) if seed % 2 else regular_polygon_points(25)
            pts = list(other.points)
            random.Random(seed).shuffle(pts)
            coords = [p.coords() for p in pts]
            assert build(lambda: PointSet(pts)) == build(lambda: PointSet(coords))
            assert build(lambda: PointSet(other)) == build(lambda: PointSet(list(zip(other.xs, other.ys))))
        for coords, message in [
            ([(0, 0), (1.5, 3), (1, 5)], "point 1: coordinates must be integers, got (1.5, 3)"),
            ([(0, 0), (1, 5), (3, COORD_LIMIT + 1)], "point 2: coordinate exceeds COORD_LIMIT="),
            ([(0, 0), (4, 1), (2, 7), (4, 1)], "duplicate point (4, 1)"),
            ([(0, 0), (4, 1), (2, 7), (8, 2)], "points 0, 1, 3 are collinear (general position"),
        ]:
            assert build(lambda: PointSet(coords)).startswith(message)
            assert build(lambda: PointSet([Point(x, y, 9) for x, y in coords])) == \
                build(lambda: PointSet(coords))

    @pytest.mark.parametrize("seed", range(12))
    def test_extended_raises_or_builds_like_a_full_construction(self, seed):
        rng = random.Random(seed)
        base = random_general_position(9, seed, span=8)
        new = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(1, 3))]
        if seed % 4 == 0:
            new.append(base[rng.randrange(9)].coords())
        if seed == 1:
            new.insert(0, (1.5, 2))
        if seed == 2:
            new.append((COORD_LIMIT + 1, 0))

        def build(make):
            try:
                ps = make()
            except PreconditionError as exc:
                return str(exc)
            return ps.points, ps.xs, ps.ys, ps.hull()

        coords = [p.coords() for p in base] + new
        assert build(lambda: base.extended(new)) == build(lambda: PointSet(coords))

    @pytest.mark.parametrize("case", ["inside", "outside", "mixed", "uncached"])
    def test_extended_hull_is_the_hull_of_the_concatenation(self, monkeypatch, case):
        """The hull of an extended set equals convex_hull of the whole list;
        it is carried over, with no new hull computed, exactly when the
        parent's hull is cached and every new point is strictly inside it."""
        base = random_general_position(20, 4, span=1000)
        rng = random.Random(case)
        inside, outside = [], []
        while len(inside) < 4 or len(outside) < 4:
            c = (rng.randint(-1500, 1500), rng.randint(-1500, 1500))
            (inside if inside_hull(base, Point(*c)) else outside).append(c)
        new = {"inside": inside, "outside": outside, "uncached": inside,
               "mixed": [inside[0], outside[0], inside[1]]}[case]
        if case == "uncached":
            base = base.reordered(range(len(base)))
        calls = []
        real = geometry_module.convex_hull
        monkeypatch.setattr(geometry_module, "convex_hull",
                            lambda xs, ys: calls.append(1) or real(xs, ys))
        out = base.extended(new)
        assert out.hull() == tuple(real(out.xs, out.ys))
        assert len(calls) == (case != "inside")

    def test_extended_reports_the_first_collinear_triple(self):
        base = PointSet([(0, 0), (4, 1), (1, 4), (9, 3)])
        with pytest.raises(PreconditionError, match=r"^points 0, 1, 4 are collinear"):
            base.extended([(8, 2), (2, 8)])

    def test_smallest_triple_wins_over_the_first_repeat(self):
        # from point 6, bucket (1, 0) fills only at i = 5 but holds the
        # smaller pair (0, 5); bucket (0, 1) repeats first, at i = 3
        coords = [(1, 0), (0, 1), (3, 5), (0, 2), (5, -3), (-1, 0), (0, 0)]
        assert general_position_error(coords, 0) == \
            "points 0, 5, 6 are collinear (general position required)"
        with pytest.raises(PreconditionError, match=r"^points 0, 5, 6 are collinear"):
            PointSet(coords)

    @pytest.mark.parametrize("family", ["grid", "quarter_turn", "duplicates", "convex"])
    def test_matches_the_triple_scan_at_every_known(self, family):
        """For every prefix in general position, extending it by the rest
        raises what the duplicate check and the triple scan name.  A set the
        constructor accepts has the hull that convex_hull and the brute force
        give, whether all its points are hull vertices or not."""
        rng = random.Random(family)
        duplicate = collinear = middle = 0
        accepted = {True: 0, False: 0}  # by "every point is a hull vertex"
        for _ in range(150):
            coords = raw_coords(rng, family)
            for known in range(len(coords) + 1):
                if general_position_error(coords[:known], 0) is not None:
                    break
                want = general_position_error(coords, known)
                try:
                    if known:
                        PointSet(coords[:known]).extended(coords[known:])
                    else:
                        ps = PointSet(coords)
                        assert list(ps.hull()) == convex_hull(ps.xs, ps.ys)
                        assert set(ps.hull()) == bf_hull_ids(ps)
                        accepted[len(ps.hull()) == len(ps)] += 1
                    got = None
                except PreconditionError as exc:
                    got = str(exc)
                assert got == want, (coords, known)
                if want is not None and want.startswith("duplicate"):
                    duplicate += 1
                elif want is not None:
                    collinear += 1
                    i, j, k = map(int, want[len("points "):want.index(" are")].split(", "))
                    # k between i and j: the two lie in opposite directions from k
                    middle += min(coords[i], coords[j]) < coords[k] < max(coords[i], coords[j])
        if family == "duplicates":
            assert duplicate >= 150
        elif family == "convex":
            assert duplicate >= 20 and collinear >= 50 and middle >= 20, \
                (duplicate, collinear, middle)
            assert accepted[True] >= 50, accepted
        else:
            assert collinear >= 100 and middle >= 20, (collinear, middle)
            assert accepted[False] >= 10, accepted

    def test_fewer_than_three_points_construct(self):
        for coords in ([], [(0, 0)], [(0, 0), (3, -1)]):
            ps = PointSet(coords)
            assert ps.xs == tuple(x for x, _ in coords)
            with pytest.raises(PreconditionError, match="at least 3 points"):
                ps.hull()

    @pytest.mark.parametrize("interior", [False, True])
    def test_the_hull_is_computed_once(self, monkeypatch, interior):
        # the constructor's hull is kept, on the certified path and on the
        # bucket scan alike
        coords = [p.coords() for p in regular_polygon_points(12)] + [(1, 2)] * interior
        calls = []
        monkeypatch.setattr(geometry_module, "convex_hull",
                            lambda xs, ys: calls.append(1) or convex_hull(xs, ys))
        ps = PointSet(coords)
        assert is_convex_position(ps) is not interior
        assert first_crossing(ps, [(0, 6), (3, 9)]) == (0, 1)
        assert len(calls) == 1


def inside_hull(ps, s):
    """The free point s lies strictly inside the hull of ps, by the oracle's
    orientation test."""
    h, pts = ps.hull(), ps.points
    return all(ref_cross(pts[h[i - 1]], pts[h[i]], s) > 0 for i in range(len(h)))


def general_position_error(coords, known):
    """The message PointSet raises on `coords` when the first `known` points
    are already checked: a duplicate among the later points, else the first
    collinear triple of the triple scan, else None."""
    seen = set(coords[:known])
    for c in coords[known:]:
        if c in seen:
            return f"duplicate point {c}"
        seen.add(c)
    triple = bf_first_collinear([x for x, _ in coords], [y for _, y in coords], known)
    if triple is None:
        return None
    return "points {}, {}, {} are collinear (general position required)".format(*triple)


def raw_coords(rng, family):
    """Unchecked coordinates in [-4, 4]^2: distinct grid points, a set closed
    under the quarter turn (x, y) -> (-y, x) (shuffled, sometimes with the
    origin), or grid points with one repeated.  The convex family instead
    takes shuffled points (x, x^2), x in [-6, 6], in strictly convex
    position; half the sets then get the midpoint of two of them (a hull
    edge or a chord), a repeat of one of them, or are moved onto one line."""
    if family == "convex":
        xs = rng.sample(range(-6, 7), rng.randint(3, 9))
        out = [(x, x * x) for x in xs]
        kind = rng.choice(["none", "none", "none", "midpoint", "repeat", "line"])
        if kind == "midpoint":
            # x and x' of one parity make the midpoint integral
            a, b = rng.choice([(a, b) for a in out for b in out if a < b and (a[0] - b[0]) % 2 == 0])
            out.insert(rng.randint(0, len(out)), ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2))
        elif kind == "repeat":
            out.insert(rng.randint(0, len(out)), rng.choice(out))
        elif kind == "line":
            out = [(x, 2 * x + 1) for x in xs]
        return out
    if family == "quarter_turn":
        coords = set()
        for _ in range(rng.randint(1, 3)):
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            coords |= {(x, y), (-y, x), (-x, -y), (y, -x)}
        if rng.random() < 0.3:
            coords.add((0, 0))
        out = sorted(coords)
        rng.shuffle(out)
        return out
    out = rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)], rng.randint(3, 9))
    if family == "duplicates":
        out.insert(rng.randint(1, len(out)), out[rng.randrange(len(out))])
    return out


def nested_pairs(ps, edges):
    return [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
            if segments_properly_cross(ps, *edges[i], *edges[j])]


class TestCrossingKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_nested_loop(self, seed):
        # a 7 x 7 grid gives many equal x, touching bounding boxes and, with
        # edges drawn among few points, many shared endpoints
        rng = random.Random(seed)
        while True:
            try:
                ps = PointSet(rng.sample([(x, y) for x in range(7) for y in range(7)], 8))
                break
            except PreconditionError:
                continue
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.6]
        rng.shuffle(edges)
        pairs = crossing_pairs(ps, edges)
        assert pairs == nested_pairs(ps, edges)
        for e in edges:
            assert crosses_any(ps, e, edges) == any(
                segments_properly_cross(ps, *e, *f) for f in edges)

    def test_first_pair_is_the_nested_loop_witness(self):
        # all three cross; visited by left x, the pairs turn up in the reverse
        # of the nested-loop order
        ps = PointSet([(0, 0), (10, 1), (6, -3), (7, 4), (2, 3), (8, -2)])
        edges = [(2, 3), (4, 5), (0, 1)]
        assert crossing_pairs(ps, edges) == nested_pairs(ps, edges) == [(0, 1), (0, 2), (1, 2)]

    def test_touching_boxes_and_shared_endpoints_do_not_cross(self):
        ps = PointSet([(0, 0), (2, 2), (2, 5), (4, 1), (1, 3)])
        edges = [(0, 1), (1, 3), (2, 3), (0, 4)]
        assert crossing_pairs(ps, edges) == nested_pairs(ps, edges)
        assert not crosses_any(ps, (0, 1), [(1, 3), (0, 4)])


def grid_cases(rng):
    # [-4, 4]^2 sets: shared x values, vertical edges, touching boxes
    while True:
        try:
            ps = PointSet(rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)],
                                     rng.randint(4, 9)))
            break
        except PreconditionError:
            continue
    n = len(ps)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for k in (2, 3, rng.randint(4, len(pairs))):
        yield ps, [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(pairs, k)]


def triangulation_cases(rng):
    # a plane subset of a triangulation, then 0, 1 or 2 edges it lacks
    ps = random_general_position(rng.randint(6, 16), seed=rng.randrange(10 ** 6), span=60)
    edges = sorted(triangulate(ps).edges)
    others = [(u, v) for u in range(len(ps)) for v in range(u + 1, len(ps))
              if (u, v) not in set(edges)]
    for extra in (0, 1, 2):
        sub = rng.sample(edges, rng.randint(len(edges) // 2, len(edges)))
        sub += rng.sample(others, min(extra, len(others)))
        rng.shuffle(sub)
        yield ps, sub


def star_cases(rng):
    # every edge at one centre (many segments start or end at one vertex),
    # then a second centre whose star may cross the first
    ps = random_general_position(rng.randint(6, 14), seed=rng.randrange(10 ** 6), span=40)
    n = len(ps)
    a, b = rng.sample(range(n), 2)
    one = [(a, v) for v in rng.sample(range(n), rng.randint(2, n - 1)) if v != a]
    yield ps, one
    yield ps, one + [(v, b) for v in rng.sample(range(n), 3) if v != b]


def jittered_convex_polygon(rng, n):
    """n points near a circle of radius 10^4 in strictly convex position,
    listed in a random order."""
    while True:
        coords = []
        for j in range(n):
            a = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / n
            coords.append((round(10 ** 4 * math.cos(a)), round(10 ** 4 * math.sin(a))))
        rng.shuffle(coords)
        try:
            ps = PointSet(coords)
        except PreconditionError:
            continue
        if is_convex_position(ps):
            return ps


def chord_cases(rng):
    # chords of a convex polygon, crossing exactly when their ends interleave;
    # the labels are shuffled, so hull order is not id order
    n = rng.randint(5, 16)
    coords = [p.coords() for p in regular_polygon_points(n)]
    rng.shuffle(coords)
    ps = PointSet(coords)
    h = ps.hull()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def oriented(edges):
        return [e if rng.random() < 0.5 else e[::-1] for e in edges]

    yield ps, sorted(triangulate(ps).edges)
    for k in (2, rng.randint(3, 2 * n)):
        yield ps, rng.sample(pairs, k)
    # plane sets: nested chords, a star (shared ends) with the hull edges,
    # a jittered polygon's triangulation and a subset of it, then that
    # subset with one or two more chords
    s = rng.randrange(n)
    nested = [(h[(s - i) % n], h[(s + 1 + i) % n]) for i in range(n // 2)]
    yield ps, oriented(rng.sample(nested, len(nested)))
    star = [(h[s], v) for v in h if v != h[s]] + [(h[i], h[(i + 1) % n]) for i in range(n)]
    yield ps, oriented(rng.sample(star, len(star)))
    jittered = jittered_convex_polygon(rng, n)
    tri = sorted(triangulate(jittered).edges)
    yield jittered, oriented(tri)
    sub = rng.sample(tri, rng.randint(1, len(tri)))
    yield jittered, oriented(sub)
    others = [e for e in pairs if e not in set(tri)]
    yield jittered, oriented(sub + rng.sample(others, rng.randint(1, 2)))
    # fewer than three points: no hull, so only the sweep can answer
    few = PointSet([(0, 0), (5, 2)][:rng.randint(0, 2)])
    yield few, oriented([(0, 1)] * rng.randint(0, 2) if len(few) == 2 else [])


FIRST_CROSSING_FAMILIES = {"grid": grid_cases, "triangulation": triangulation_cases,
                           "star": star_cases, "chords": chord_cases}


class TestFirstCrossing:
    @pytest.fixture(scope="class")
    def outcomes(self):
        """(family, first_crossing, bf_first_crossing) over 150 seeds of
        every family."""
        out = []
        for family, cases in FIRST_CROSSING_FAMILIES.items():
            for seed in range(150):
                for ps, edges in cases(random.Random(f"{family}:{seed}")):
                    out.append((family, first_crossing(ps, edges), bf_first_crossing(ps, edges)))
        return out

    @pytest.mark.parametrize("family", FIRST_CROSSING_FAMILIES)
    def test_matches_the_nested_loop(self, outcomes, family):
        mismatches = [(got, want) for fam, got, want in outcomes if fam == family and got != want]
        assert not mismatches

    def test_cases_cover_plane_and_crossing_sets(self, outcomes):
        plane = sum(1 for _, _, want in outcomes if want is None)
        assert plane >= 200 and len(outcomes) - plane >= 200
        for family in FIRST_CROSSING_FAMILIES:
            kinds = {want is None for fam, _, want in outcomes if fam == family}
            assert kinds == {True, False}, family

    def test_interleaving_in_hull_order_is_crossing(self):
        tested = {True: 0, False: 0}
        for seed in range(150):
            for ps, edges in chord_cases(random.Random(f"chords:{seed}")):
                if len(ps) >= 3:
                    got = geometry_module._chords_interleave(ps, edges)
                    assert got == (bf_first_crossing(ps, edges) is not None), (ps.points, edges)
                    tested[got] += 1
        assert min(tested.values()) >= 300, tested

    def test_plane_chords_skip_the_sweep(self, monkeypatch):
        coords = [p.coords() for p in regular_polygon_points(10)]
        random.Random(3).shuffle(coords)
        ps = PointSet(coords)
        edges = sorted(triangulate(ps).edges)

        def unused(s, t):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(geometry_module, "_open_segments_cross", unused)
        assert first_crossing(ps, edges) is None
        with pytest.raises(AssertionError, match="the sweep ran"):
            first_crossing(ps, edges + [edge_key(ps.hull()[0], ps.hull()[5]),
                                        edge_key(ps.hull()[2], ps.hull()[7])])

    def test_crossing_is_the_nested_loop_witness(self):
        ps = PointSet([(0, 0), (10, 1), (6, -3), (7, 4), (2, 3), (8, -2)])
        assert first_crossing(ps, [(2, 3), (4, 5), (0, 1)]) == (0, 1)

    def test_vertical_edges_and_shared_x(self):
        # (0, 1) and (3, 4) are vertical; (2, 3) passes between the ends of
        # (0, 1) at its x
        ps = PointSet([(0, -2), (0, 2), (-1, 1), (1, 0), (1, 5), (3, 6)])
        assert first_crossing(ps, [(0, 1), (2, 3)]) == (0, 1)
        assert first_crossing(ps, [(0, 1), (1, 4), (4, 5), (1, 3), (3, 4)]) is None

    def test_ignores_shared_endpoints_and_repeats(self):
        ps = PointSet([(0, 0), (4, 1), (1, 4), (5, 5)])
        assert first_crossing(ps, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (0, 3)]) is None
        assert first_crossing(ps, []) is None


def shaped_chord_sets(rng):
    """(shape, ps, edges) on one seeded convex polygon with shuffled labels:
    the empty set, the hull edges, a star of shared ends, nested spans, one
    interleaving pair, a plane set with one interleave added, and a random
    sample of pairs."""
    n = rng.randint(4, 24)
    ps = jittered_convex_polygon(rng, n) if rng.random() < 0.5 else \
        PointSet(rng.sample([p.coords() for p in regular_polygon_points(n)], n))
    h = ps.hull()
    s = rng.randrange(n)
    at = [h[(s + i) % n] for i in range(n)]  # hull order from a random start

    def oriented(edges):
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        return edges

    yield "empty", ps, []
    yield "hull", ps, oriented([(at[i], at[(i + 1) % n]) for i in range(n)])
    yield "star", ps, oriented([(at[0], v) for v in at[1:]]
                               + [(at[i], at[i + 1]) for i in range(1, n - 1)])
    yield "nested", ps, oriented([(at[i], at[n - 1 - i]) for i in range(n // 2)])
    a, c, b, d = sorted(rng.sample(range(n), 4))
    yield "interleave", ps, oriented([(at[a], at[b]), (at[c], at[d])])
    tri = sorted(triangulate(ps).edges)
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(tri)]
    if others:
        yield "plane+1", ps, oriented(tri + [rng.choice(others)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    yield "sample", ps, oriented(rng.sample(pairs, rng.randint(1, min(len(pairs), 3 * n))))


class TestChordsInterleave:
    @pytest.fixture(scope="class")
    def outcomes(self):
        """(shape, ps, edges, _chords_interleave, bf_first_crossing) over 200
        seeds."""
        out = []
        for seed in range(200):
            for shape, ps, edges in shaped_chord_sets(random.Random(f"interleave:{seed}")):
                out.append((shape, ps, edges, geometry_module._chords_interleave(ps, edges),
                            bf_first_crossing(ps, edges)))
        return out

    def test_matches_the_nested_loop(self, outcomes):
        for shape, ps, edges, got, want in outcomes:
            assert got == (want is not None), (shape, ps.points, edges)

    def test_shapes_have_their_answer(self, outcomes):
        answers = {}
        for shape, _, _, got, _ in outcomes:
            answers.setdefault(shape, set()).add(got)
        assert answers == {"empty": {False}, "hull": {False}, "star": {False}, "nested": {False},
                           "interleave": {True}, "plane+1": {True}, "sample": {False, True}}

    def test_rejected_sets_name_the_nested_loop_witness(self, outcomes):
        rejected = [(ps, edges, want) for _, ps, edges, got, want in outcomes if got]
        assert len(rejected) >= 400
        for ps, edges, want in rejected:
            assert first_crossing(ps, edges) == want


class TestConvexHull:
    def test_square(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 3)])
        assert set(ps.hull()) == {0, 1, 2, 3}

    def test_square_plus_center(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 5), (2, 1)])
        assert set(ps.hull()) == {0, 1, 2, 3}

    def test_hull_is_ccw(self):
        ps = random_general_position(9, seed=2)
        h = ps.hull()
        for i in range(len(h)):
            assert cross(ps, h[i], h[(i + 1) % len(h)], h[(i + 2) % len(h)]) > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_against_bruteforce(self, seed):
        ps = random_general_position(7, seed=seed)
        assert set(ps.hull()) == bf_hull_ids(ps)

    @given(st.integers(0, 10 ** 6))
    def test_every_point_inside_or_on_hull(self, seed):
        ps = random_general_position(8, seed=seed)
        h = ps.hull()
        for p in range(len(ps)):
            assert strictly_inside(ps, h, p) is (p not in h)


class TestHullView:
    """`hull_positions` and `hull_edges` agree with the brute-force hull and
    with consecutive `hull()` pairs, and are computed once.  An extended set
    that keeps its parent's hull keeps the parent's cached views, with the
    new points at position -1."""

    @staticmethod
    def check(ps):
        hull, pos = ps.hull(), ps.hull_positions()
        assert len(pos) == len(ps)
        assert {v for v, p in enumerate(pos) if p >= 0} == bf_hull_ids(ps)
        assert all(hull[p] == v for v, p in enumerate(pos) if p >= 0)
        assert ps.hull_edges() == {edge_key(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
        assert ps.hull_positions() is pos and ps.hull_edges() is ps.hull_edges()
        assert ps.interior_ids() == tuple(v for v, p in enumerate(pos) if p < 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_general_convex_and_subset(self, seed):
        rng = random.Random(seed)
        for n in range(3, 13):
            ps = random_general_position(n, seed, span=100)
            self.check(ps)
            self.check(regular_polygon_points(n, 1000))
            if n > 3:
                self.check(ps.reordered(sorted(rng.sample(range(n), rng.randint(3, n - 1)))))

    @pytest.mark.parametrize("cached", [False, True])
    def test_extended(self, cached):
        kept = moved = 0
        for seed in range(6):
            base = random_general_position(10, seed, span=1000)
            rng = random.Random(seed)
            inside, outside = [], []
            while len(inside) < 3 or not outside:
                c = (rng.randint(-1500, 1500), rng.randint(-1500, 1500))
                (inside if inside_hull(base, Point(*c)) else outside).append(c)
            if cached:
                base.hull_positions(), base.hull_edges()
            for new in (inside[:3], inside[:2] + outside[:1]):
                try:
                    out = base.extended(new)
                except PreconditionError:
                    continue
                if out.hull() is base.hull():
                    assert out.hull_positions()[len(base):] == (-1,) * len(new)
                    if cached:
                        assert out.hull_edges() is base.hull_edges()
                    kept += 1
                else:
                    moved += 1
                self.check(out)
        assert kept >= 4 and moved >= 4, (kept, moved)

    @pytest.mark.parametrize("seed", range(6))
    def test_reordered_prefixes(self, seed):
        """A reordering of a checked set has its points in the given order;
        each next prefix has the views of a fresh PointSet of its
        coordinates, and keeps the shorter prefix's hull exactly when the
        new point lies strictly inside it."""
        rng = random.Random(seed)
        ps = random_general_position(16, seed, span=1000)
        order = rng.sample(range(16), 16)
        full = ps.reordered(order)
        assert list(zip(full.xs, full.ys)) == [(ps.xs[i], ps.ys[i]) for i in order]
        prev = PointSet(list(zip(full.xs[:3], full.ys[:3])))
        outcomes = set()
        for k in range(4, 17):
            out = full.next_prefix(prev)
            inside = inside_hull(prev, Point(full.xs[k - 1], full.ys[k - 1]))
            assert (out._hull is prev.hull()) == inside
            outcomes.add(inside)
            fresh = PointSet(list(zip(out.xs, out.ys)))
            assert out.hull() == fresh.hull() and out.hull_edges() == fresh.hull_edges()
            assert out.hull_positions() == fresh.hull_positions()
            self.check(out)
            prev = out
        assert outcomes == {False, True}

    def test_reordered_and_prefix_misuse(self):
        ps = random_general_position(8, 1, span=1000)
        with pytest.raises(PreconditionError, match="^ids repeat a vertex$"):
            ps.reordered([0, 1, 1])
        other = ps.reordered([1, 0, *range(2, 8)])
        for before in (other.reordered(range(3)), ps, ps.extended([(5000, 5001)])):
            with pytest.raises(PreconditionError, match="no shorter prefix"):
                ps.next_prefix(before)


class TestConvexPosition:
    def test_hexagon(self):
        assert is_convex_position(regular_polygon_points(6))

    def test_hexagon_plus_centroid(self):
        base = regular_polygon_points(6)
        ps = PointSet([p.coords() for p in base] + [(1, 2)])
        assert not is_convex_position(ps)

    def test_any_triangle(self):
        assert is_convex_position(PointSet([(0, 0), (5, 1), (2, 7)]))


class TestVisibility:
    def square(self):
        return PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_facing_edge_visible(self):
        ps = self.square()
        assert ps.hull().index(1) in visible_hull_edges(Point(5, 1), ps)

    def test_opposite_edge_hidden(self):
        ps = self.square()
        assert ps.hull().index(3) not in visible_hull_edges(Point(5, 1), ps)

    @pytest.mark.parametrize("seed", range(6))
    def test_visible_edges_form_one_arc_never_all(self, seed):
        ps = regular_polygon_points(9)
        draws = (random_general_position(1, seed=seed + 40 + 100 * k, span=10 ** 7)[0]
                 for k in itertools.count())
        s = next(p for p in draws if not inside_hull(ps, p))
        vis = visible_hull_edges(s, ps)
        h = len(ps.hull())
        assert 1 <= len(vis) <= h - 1
        vis_set = set(vis)
        runs = sum(1 for i in vis if (i - 1) % h not in vis_set)
        assert runs == 1

    def test_interior_point_sees_no_edge(self):
        ps = regular_polygon_points(9)
        s = Point(1000, -2000)
        assert inside_hull(ps, s)
        assert visible_hull_edges(s, ps) == []
        with_s = ps.extended([s.coords()])
        assert strictly_inside(with_s, ps.hull(), 9)
        assert visible_chain(with_s, list(range(9)), 9) == (0, 0)


class TestVisibleChain:
    """visible_chain(ps, cycle, s) = (i, k): s sees the counterclockwise
    edges i, ..., i + k - 1 (mod m) of the polygon of the vertices `cycle`."""

    def test_chain_wraps_past_index_zero(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (-1, -2)])
        # below and left of the square: it sees edges 3 (left) and 0 (bottom)
        assert visible_chain(ps, [0, 1, 2, 3], 4) == (3, 2)

    def test_two_vertices_count_as_two_edges(self):
        ps = PointSet([(0, 0), (4, 0), (1, -3), (1, 3)])
        assert visible_chain(ps, [0, 1], 2) == (0, 1)
        assert visible_chain(ps, [0, 1], 3) == (1, 1)

    def test_inside_point_sees_nothing(self):
        assert visible_chain(PointSet([(0, 0), (4, 0), (0, 4), (1, 1)]), [0, 1, 2], 3) == (0, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_visible_hull_edges(self, seed):
        # draws that are not in general position with ps are drawn again
        rng = random.Random(seed)
        ps = random_general_position(rng.randint(3, 12), seed=seed, span=50)
        checked = 0
        while checked < 10:
            s = (rng.randint(-200, 200), rng.randint(-200, 200))
            try:
                with_s = ps.extended([s])
            except PreconditionError:
                continue
            i, k = visible_chain(with_s, ps.hull(), len(ps))
            assert sorted((i + j) % len(ps.hull()) for j in range(k)) == \
                visible_hull_edges(Point(*s), ps)
            checked += 1


class TestCircularRuns:
    """circular_runs(flags): the maximal True runs of a cyclic sequence, as
    (start, length) in order of start."""

    @pytest.mark.parametrize("flags,runs", [
        ([], []),
        ([False] * 5, []),
        ([True], [(0, 1)]),
        ([True] * 6, [(0, 6)]),
    ])
    def test_empty_none_and_all(self, flags, runs):
        assert circular_runs(flags) == runs

    def test_run_wrapping_past_zero_is_reported_once_from_its_start(self):
        T, F = True, False
        assert circular_runs([T, T, F, F, T, T, T]) == [(4, 5)]
        assert circular_runs([T, F, F, F, F, F, T]) == [(6, 2)]

    def test_several_runs_in_order_of_start(self):
        T, F = True, False
        assert circular_runs([F, T, T, F, T, F, F, T, T, T]) == [(1, 2), (4, 1), (7, 3)]
        assert circular_runs([T, F, T, F, T, F]) == [(0, 1), (2, 1), (4, 1)]

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            flags = [rng.random() < rng.choice((0.2, 0.5, 0.8, 0.95))
                     for _ in range(rng.randint(0, 12))]
            assert circular_runs(flags) == bf_circular_runs(flags), flags


class TestMaxConvexSubset:
    def test_circle_points_dominate(self):
        base = regular_polygon_points(14)
        ps = PointSet([p.coords() for p in base] + [(1, 2), (-3, 5), (4, -1)])
        assert set(max_convex_subset_indices(ps)) == set(range(14))

    def test_convex_set_returns_everything(self):
        ps = regular_polygon_points(9)
        assert max_convex_subset_indices(ps) == tuple(range(9))

    def test_result_is_convex_position(self):
        ps = random_general_position(11, seed=5)
        assert is_convex_position(ps.reordered(max_convex_subset_indices(ps)))

    @pytest.mark.parametrize("seed", range(10))
    def test_against_exhaustive(self, seed):
        ps = random_general_position(10, seed=seed)
        assert max_convex_subset_indices(ps) == bf_max_convex_subset(ps)

    @pytest.mark.parametrize("n", [15, 22, 30, 40, 50, 60])
    def test_against_chain_dp_on_random_sets(self, n):
        ps = random_general_position(n, seed=700 + n)
        assert max_convex_subset_indices(ps) == dp_max_convex_subset(ps)

    @pytest.mark.parametrize("n", [15, 20, 28, 36, 45, 60])
    def test_against_chain_dp_on_core_plus_interior(self, n):
        ps = core_plus_interior(n, seed=n)
        assert max_convex_subset_indices(ps) == dp_max_convex_subset(ps)

    @pytest.mark.parametrize("seed", range(30))
    def test_against_chain_dp_with_outer_points(self, seed):
        ps = core_plus_interior(22 + seed % 12, seed=300 + seed, outer=seed % 6)
        assert max_convex_subset_indices(ps) == dp_max_convex_subset(ps)

    def test_convex_set_found_before_the_later_anchors(self):
        # the 16-gon's leftmost point has the highest cup-and-cap bound, 17,
        # so the size pass finds 16 there first; it stops at the third anchor
        # by bound, the first one whose bound is below 16
        ring = regular_polygon_points(16, 10 ** 5)
        rng = random.Random(16)
        while True:
            inner = [(rng.randint(-50000, 50000), rng.randint(-50000, 50000)) for _ in range(30)]
            try:
                ps = PointSet([p.coords() for p in ring] + inner)
                break
            except PreconditionError:
                continue
        assert max_convex_subset_indices(ps) == tuple(range(16)) == dp_max_convex_subset(ps)

    @pytest.mark.parametrize("k", [5, 8])
    def test_lex_later_anchor_with_larger_area_wins(self, k):
        # a small cap and, far above it and to its right, a large cup: each
        # is a convex k-gon, and a convex subset with points of both has at
        # most four, so both anchors reach size k.  The cup's anchor comes
        # later in lexicographic order; only the second pass compares areas.
        rng = random.Random(k)
        while True:
            cap = [(x, -(x + 900) ** 2) for x in rng.sample(range(-1000, -799), k)]
            cup = [(x, 10 ** 7 + (x - 500) ** 2) for x in rng.sample(range(-500, 1501), k)]
            try:
                ps = PointSet(cap + cup)
                break
            except PreconditionError:
                continue
        assert min(cup) > min(cap)
        assert is_convex_position(ps.reordered(range(k)))
        assert is_convex_position(ps.reordered(range(k, 2 * k)))
        assert max_convex_subset_indices(ps) == tuple(range(k, 2 * k)) == dp_max_convex_subset(ps)

    @staticmethod
    def lex_bounds(ps):
        """The ids in lexicographic order and `_anchor_bounds` by rank."""
        n = len(ps)
        order = sorted(range(n), key=lambda i: (ps.xs[i], ps.ys[i]))
        pairs = _slope_pairs([ps.xs[i] for i in order], [ps.ys[i] for i in order])
        return order, _anchor_bounds(n, pairs)

    def test_anchor_bound_covers_every_anchored_polygon(self):
        # the bound of every anchor, against the largest convex polygon whose
        # lexicographically smallest corner it is; below n - a the bound is
        # cup + cap, and there it is exact on 369 of the 1,138 anchors
        rng = random.Random(42)
        sets = [random_general_position(n, s) for n in range(6, 11) for s in range(6)]
        sets += [quarter_turn_set(rng, 2, 4) if i % 2 else grid_set(rng, rng.randint(4, 10), 4)
                 for i in range(120)]
        exact = 0
        for ps in sets:
            order, bound = self.lex_bounds(ps)
            for a, i in enumerate(order):
                size = bf_largest_anchored_convex(ps, i)
                assert bound[a] >= size, (ps.points, a)
                exact += bound[a] == size < len(ps) - a
        assert exact >= 300

    @pytest.mark.parametrize("family", ["fuzz", "core_plus_interior"])
    def test_bound_leaves_few_anchors(self, family, monkeypatch):
        # anchors whose bound reaches K, the largest size, against those that
        # the n - a >= K stop alone lets through: pinned totals over the sets,
        # and the most on one set
        if family == "fuzz":
            sets = bench_sets(monkeypatch)
            expected = (75, 728, 9)
        else:
            sets = [core_plus_interior(n, s) for n in range(16, 41, 4) for s in range(6)]
            expected = (69, 637, 7)
        kept, by_size = [], []
        for ps in sets:
            n, k = len(ps), len(max_convex_subset_indices(ps))
            kept.append(sum(b >= k for b in self.lex_bounds(ps)[1][:n - 2]))
            by_size.append(sum(n - a >= k for a in range(n - 2)))
        assert (sum(kept), sum(by_size), max(kept)) == expected

    def test_optimum_anchored_below_the_highest_bound(self):
        # from the leftmost point, a steep cup up and a steep cap down give
        # it the highest bound, 14, but the cap lies below the cup, so no
        # polygon uses both.  The optimum is a regular 12-gon far to the
        # right, whose anchor's bound is lower, so the size pass must go on
        # past its first anchor.
        rng = random.Random(7)
        ring = [(10 ** 6 + p.x, p.y) for p in regular_polygon_points(12, 10 ** 4)]
        while True:
            cup = [(x, x * x) for x in rng.sample(range(1, 60), 7)]
            cap = [(x, -x * x - 3) for x in rng.sample(range(1, 60), 7)]
            try:
                ps = PointSet([(0, 0)] + cup + cap + ring)
                break
            except PreconditionError:
                continue
        order, bound = self.lex_bounds(ps)
        ring_anchor = order.index(min(range(15, 27), key=lambda i: (ps.xs[i], ps.ys[i])))
        assert order[0] == 0 and bound[0] == max(bound) == 14 > bound[ring_anchor] == 12
        assert max_convex_subset_indices(ps) == tuple(range(15, 27)) == dp_max_convex_subset(ps)

    def test_ties_on_small_grids(self):
        # On a 9 x 9 grid, sets that a quarter turn maps onto themselves have
        # many optimal subsets of equal size and equal area, so the
        # smallest-sorted-ids rule decides; count the sets where it must.
        rng = random.Random(42)
        ties = 0
        for i in range(120):
            ps = quarter_turn_set(rng, 2, 4) if i % 2 else grid_set(rng, rng.randint(4, 10), 4)
            optimal = bf_optimal_convex_subsets(ps)
            ties += len(optimal) > 1
            assert max_convex_subset_indices(ps) == optimal[0]
        assert ties >= 1


class TestAngularKeys:
    """The integer slope keys of the angular sorts order every direction as
    the exact cross-product comparators do."""

    @staticmethod
    def near_limit_set(rng, n):
        # points up to 1000 inside the four corners and the axes' ends at
        # +-COORD_LIMIT: coordinate differences near 2^31, with directions
        # that differ by about 2^-31 of a radian
        ends = [(sx, sy) for sx in (-1, 0, 1) for sy in (-1, 0, 1) if sx or sy]

        def near(sign):
            return sign * (COORD_LIMIT - rng.randint(0, 1000)) if sign else rng.randint(-1000, 1000)

        while True:
            coords = set()
            while len(coords) < n:
                sx, sy = rng.choice(ends)
                coords.add((near(sx), near(sy)))
            try:
                return PointSet(sorted(coords))
            except PreconditionError:
                continue

    def cases(self):
        rng = random.Random(2030)
        for i in range(40):
            yield self.near_limit_set(rng, rng.randint(3, 14))
            yield grid_set(rng, rng.randint(3, 9), rng.choice((3, 5)))
        # from the first point, directions (2L, 2L - 1) and (2L - 1, 2L - 2)
        # whose slopes differ by about 2^-62, the least possible gap; and a
        # slope of 2^31 - 1 between the second and the fourth point
        lim = COORD_LIMIT
        yield PointSet([(-lim, -lim), (lim, lim - 1), (lim - 1, lim - 2), (lim - 1, -lim),
                        (-lim, lim)])

    def test_rings_match_the_comparator(self):
        for ps in self.cases():
            rings, ats = _ccw_rings(len(ps), _slope_pairs(ps.xs, ps.ys))
            for v in range(len(ps)):
                assert (rings[v], ats[v]) == ref_ccw_ring(ps.xs, ps.ys, v)

    def test_neighbour_orders_match_the_comparator(self):
        # ccw_order lists a subset of v's neighbours as the comparator ring
        # lists their directions p - v, the entries p >= 0
        rng = random.Random(2031)
        for ps in self.cases():
            for v in range(len(ps)):
                others = [p for p in range(len(ps)) if p != v]
                nbrs = rng.sample(others, rng.randint(1, len(others)))
                ring = ref_ccw_ring(ps.xs, ps.ys, v)[0]
                assert ccw_order(ps, v, nbrs) == [e for e in ring if e >= 0 and e in nbrs]

    def test_edge_rings_match_the_comparator(self):
        # _edge_rings files one slope per edge in both rings; each ring is
        # the comparator's order of the neighbours, keyed as ccw_order keys
        rng = random.Random(2032)
        for ps in self.cases():
            n = len(ps)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            rings, keys = geometry_module._edge_rings(ps, edges)
            for v in range(n):
                nbrs = {u for e in edges for u in e if v in e and u != v}
                ring = ref_ccw_ring(ps.xs, ps.ys, v)[0]
                assert rings[v] == [e for e in ring if e >= 0 and e in nbrs]
                assert keys[v] == [geometry_module._ccw_key(ps, v)(p) for p in rings[v]]


def grid_set(rng, n, span):
    """n points with coordinates in [-span, span], in general position."""
    while True:
        coords = set()
        while len(coords) < n:
            coords.add((rng.randint(-span, span), rng.randint(-span, span)))
        try:
            return PointSet(list(coords))
        except PreconditionError:
            continue


def quarter_turn_set(rng, orbits, span):
    """4 * orbits points with coordinates in [-span, span], closed under the
    quarter turn (x, y) -> (-y, x), shuffled, in general position."""
    while True:
        coords = set()
        for _ in range(orbits):
            x, y = rng.randint(-span, span), rng.randint(-span, span)
            coords |= {(x, y), (-y, x), (-x, -y), (y, -x)}
        if len(coords) < 4 * orbits:
            continue
        order = sorted(coords)
        rng.shuffle(order)
        try:
            return PointSet(order)
        except PreconditionError:
            continue


def test_doubled_area_of_ccw_square():
    ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert polygon_doubled_area(ps, [0, 1, 2, 3]) == 8 == -polygon_doubled_area(ps, (3, 2, 1, 0))


def test_only_geometry_reads_point_objects():
    """Outside geometry.py the library names no `Point` and reads no `Point`
    field or `PointSet.points`.  `__init__` may import `Point` to export it,
    and the CLI's argparse namespace `args` has an option named `points`."""
    found = []
    for path in sorted(Path(geometry_module.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "Point":
                found.append((path.name, node.lineno, "Point"))
            elif isinstance(node, ast.alias) and node.name == "Point" and path.name != "__init__.py":
                found.append((path.name, node.lineno, "import Point"))
            elif (isinstance(node, ast.Attribute)
                  and node.attr in {"x", "y", "id", "coords", "points"}
                  and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
                found.append((path.name, node.lineno, node.attr))
    assert not found
