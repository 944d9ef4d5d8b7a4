import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biplane.errors import PreconditionError
from biplane.geometry import (COORD_LIMIT, Orientation, Point, PointSet,
                              cross, crosses_any, crossing_pairs,
                              is_convex_position, max_convex_subset,
                              max_convex_subset_indices, orientation,
                              point_sees_hull_edge, polygon_doubled_area,
                              segment_sees_hull_edge, segments_properly_cross,
                              visible_hull_edges)
from biplane.generators import random_general_position, regular_polygon_points

from oracles import (bf_hull_ids, bf_max_convex_subset, bf_optimal_convex_subsets,
                     dp_max_convex_subset)


def P(x, y):
    return Point(x, y)


class TestOrientation:
    def test_unit_right_triangle_ccw(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) is Orientation.CCW

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR

    def test_mirror_cw(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CW

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                    min_size=3, max_size=3))
    def test_antisymmetry(self, coords):
        p, q, r = (P(*c) for c in coords)
        assert cross(p, q, r) == -cross(p, r, q)

    @given(st.lists(st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)),
                    min_size=4, max_size=4, unique=True))
    def test_crossing_is_symmetric(self, coords):
        a, b, c, d = (P(*x) for x in coords)
        assert segments_properly_cross(a, b, c, d) == segments_properly_cross(c, d, a, b)
        assert segments_properly_cross(a, b, c, d) == segments_properly_cross(b, a, d, c)


class TestProperCrossing:
    def test_x_crossing(self):
        assert segments_properly_cross(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_shared_endpoint(self):
        assert not segments_properly_cross(P(0, 0), P(1, 0), P(0, 0), P(0, 1))

    def test_disjoint(self):
        assert not segments_properly_cross(P(0, 0), P(1, 0), P(2, 0), P(3, 5))

    def test_t_touch_is_not_proper(self):
        assert not segments_properly_cross(P(0, 0), P(2, 0), P(1, 0), P(1, 5))


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

    def test_extended_reports_the_first_collinear_triple(self):
        base = PointSet([(0, 0), (4, 1), (1, 4), (9, 3)])
        with pytest.raises(PreconditionError, match=r"^points 0, 1, 4 are collinear"):
            base.extended([(8, 2), (2, 8)])


def nested_pairs(ps, edges):
    return [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
            if segments_properly_cross(ps[edges[i][0]], ps[edges[i][1]],
                                       ps[edges[j][0]], ps[edges[j][1]])]


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
                segments_properly_cross(ps[e[0]], ps[e[1]], ps[f[0]], ps[f[1]]) for f in edges)

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
            a, b, c = ps[h[i]], ps[h[(i + 1) % len(h)]], ps[h[(i + 2) % len(h)]]
            assert orientation(a, b, c) is Orientation.CCW

    @pytest.mark.parametrize("seed", range(8))
    def test_against_bruteforce(self, seed):
        ps = random_general_position(7, seed=seed)
        assert set(ps.hull()) == bf_hull_ids(ps)

    @given(st.integers(0, 10 ** 6))
    def test_every_point_inside_or_on_hull(self, seed):
        ps = random_general_position(8, seed=seed)
        h = ps.hull()
        hull_pts = [ps[i] for i in h]
        for p in ps:
            if p.id in h:
                continue
            assert all(cross(hull_pts[i], hull_pts[(i + 1) % len(h)], p) > 0
                       for i in range(len(h)))


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
        assert point_sees_hull_edge(P(5, 1), ps, (1, 2))

    def test_opposite_edge_hidden(self):
        ps = self.square()
        assert not point_sees_hull_edge(P(5, 1), ps, (0, 3))

    def test_interior_point_rejected(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4)])
        with pytest.raises(PreconditionError):
            point_sees_hull_edge(P(2, 1), ps, (0, 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_visible_edges_form_one_arc_never_all(self, seed):
        ps = regular_polygon_points(9)
        ext = random_general_position(1, seed=seed + 40, span=10 ** 7)
        s = ext[0]
        try:
            vis = visible_hull_edges(s, ps)
        except PreconditionError:
            pytest.skip("sampled point not exterior")
        h = len(ps.hull())
        assert 1 <= len(vis) <= h - 1
        vis_set = set(vis)
        runs = sum(1 for i in vis if (i - 1) % h not in vis_set)
        assert runs == 1

    def test_segment_visibility_is_conjunction(self):
        ps = self.square()
        s, t = P(5, 1), P(6, 0)
        for e in ((0, 1), (1, 2), (2, 3), (3, 0)):
            expected = point_sees_hull_edge(s, ps, e) and point_sees_hull_edge(t, ps, e)
            assert segment_sees_hull_edge(s, t, ps, e) == expected


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
        assert is_convex_position(max_convex_subset(ps))

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


def core_plus_interior(n, seed, radius=10 ** 5):
    """14 jittered points on a circle plus n - 14 points inside it, shuffled,
    in general position."""
    rng = random.Random(seed)
    while True:
        coords = []
        for j in range(14):
            a = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / 14
            r = radius * rng.uniform(0.95, 1.05)
            coords.append((round(r * math.cos(a)), round(r * math.sin(a))))
        for _ in range(n - 14):
            a, r = rng.uniform(0, 2 * math.pi), radius * rng.uniform(0.02, 0.9)
            coords.append((round(r * math.cos(a)), round(r * math.sin(a))))
        rng.shuffle(coords)
        try:
            return PointSet(coords)
        except PreconditionError:
            continue


def test_doubled_area_of_ccw_square():
    pts = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]
    assert polygon_doubled_area(pts) == 8
