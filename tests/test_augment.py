import hashlib
import math
import random
import sys

import pytest

import biplane.augment as augment_module
import biplane.connectivity as connectivity_module
from biplane.augment import augment_to_4conn, flip_pair_helper
from biplane.connectivity import (check_4conn_augmentation, kappa_of,
                                  vertex_connectivity)
from biplane.errors import (BiplaneError, ImpossibleError, InternalInvariantError,
                            PreconditionError)
from biplane.generators import (generate_fan, generate_no5conn_counterexample,
                                generate_wheel, random_general_position,
                                random_triangulation, regular_polygon_points)
from biplane.geometry import Point, PointSet, cross, segments_properly_cross
from biplane.connectivity import cut_structures
from biplane.treeaug import build_cell_tree, min_augment_3conn
from biplane.triangulation import (Triangulation, TriangulationClass, classify,
                                   edge_key, flip, is_flippable, triangulate,
                                   triangulation_from_edges)

from conftest import chordful_triangulation
from oracles import (all_triangulations, bf_first_crossing, bf_leaf_cells, bf_vertex_connectivity,
                     bf_wheel_or_fan, ref_closer_to_first_ray, ref_first_hit, ref_flip,
                     ref_maximal_sector, ref_vertex_connectivity)


class TestGenerators:
    def test_wheel_shape_and_kappa(self):
        t = generate_wheel(8)
        assert classify(t) is TriangulationClass.WHEEL
        assert kappa_of(t) == 3
        assert len(set(range(8)) - set(t.hull)) == 1

    def test_fan_shape_and_kappa(self):
        t = generate_fan(7)
        assert classify(t) is TriangulationClass.FAN
        assert kappa_of(t) == 2

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12])
    def test_wheel_sizes(self, n):
        assert classify(generate_wheel(n)) is TriangulationClass.WHEEL

    @pytest.mark.parametrize("n", [4, 5, 8, 11])
    def test_fan_sizes(self, n):
        assert classify(generate_fan(n)) is TriangulationClass.FAN


class TestFlipPairHelper:
    def _pentagon_instance(self):
        # pentagon with apex triangles matching the helper's precondition
        ps = regular_polygon_points(5, 1000)
        t = triangulate(ps)
        hull = list(t.hull)
        for i in range(5):
            u, v, w = hull[i], hull[(i + 1) % 5], hull[(i + 2) % 5]
            tri = tuple(sorted((u, v, w)))
            if tri in t.triangles:
                e = edge_key(u, w)
                others = [x for x in t.opposites(e) if x != v]
                if others:
                    return t, u, v, w, others[0]
        pytest.skip("no matching apex configuration")

    def test_double_flip_found(self):
        t, u, v, w, v2 = self._pentagon_instance()
        t2, moves = flip_pair_helper(t, u, v, w, v2)
        assert len(moves) == 2
        assert moves[0][0] == edge_key(u, w)
        assert moves[0][1] == edge_key(v, v2)
        assert moves[1][0] in (edge_key(u, v2), edge_key(v2, w))

    def test_small_input_rejected(self):
        ps = PointSet([(0, 0), (10, 0), (10, 10), (0, 10)])
        t = triangulate(ps)
        hull = list(t.hull)
        with pytest.raises(PreconditionError):
            flip_pair_helper(t, hull[0], hull[1], hull[2], 0)

    def test_tiebreak_prefers_first_candidate(self):
        t, u, v, w, v2 = self._pentagon_instance()
        t1 = flip(t, edge_key(u, w))
        both = is_flippable(t1, edge_key(u, v2)) and is_flippable(t1, edge_key(v2, w))
        _, moves = flip_pair_helper(t, u, v, w, v2)
        if both:
            assert moves[1][0] == edge_key(u, v2)


    def test_contract_on_every_chord(self):
        # every chord uw of these inputs, both ways round, with either apex
        # as v: u and w are hull vertices, so the helper must return exactly
        # when u-v2 and v2-w are not both hull edges, and then agree with
        # two reference flips
        inputs = [random_triangulation(n, seed) for n in range(5, 40) for seed in range(3)]
        inputs += [chordful_triangulation(n, seed) for n in range(5, 40, 2) for seed in range(2)]
        accepted = rejected = apex_inside = 0
        for t in inputs:
            hull_edges = t.ps.hull_edges()
            for chord in t.chords():
                for u, w in (chord, chord[::-1]):
                    for v, v2 in (t.opposites(chord), t.opposites(chord)[::-1]):
                        ear = edge_key(u, v2) in hull_edges and edge_key(v2, w) in hull_edges
                        if ear:
                            with pytest.raises(PreconditionError, match="both be hull edges"):
                                flip_pair_helper(t, u, v, w, v2)
                            rejected += 1
                            continue
                        got, moves = flip_pair_helper(t, u, v, w, v2)
                        t1 = ref_flip(t, chord)
                        cand = (edge_key(u, v2) if is_flippable(t1, edge_key(u, v2))
                                else edge_key(v2, w))
                        assert got.triangles == ref_flip(t1, cand).triangles
                        assert moves[0] == (chord, edge_key(v, v2)) and moves[1][0] == cand
                        accepted += 1
                        apex_inside += v not in t.hull
        assert (accepted, rejected, apex_inside) == (2684, 544, 128)

    def test_interior_u_rejected(self):
        t = random_triangulation(12, 0)
        u = next(x for x in range(12) if x not in t.hull)
        w = min(t.neighbors(u))
        v, v2 = t.opposites(edge_key(u, w))
        with pytest.raises(PreconditionError, match="hull vertices"):
            flip_pair_helper(t, u, v, w, v2)

    def test_ear_apex_rejected(self):
        # chord 0-2 has the faces (0, 2, 3) and the ear (0, 1, 2): both
        # sides at v2 = 1 are hull edges, so no second flip exists
        t = _polygon_with_chords(5, [(0, 2), (0, 3)])
        with pytest.raises(PreconditionError, match="both be hull edges"):
            flip_pair_helper(t, 0, 3, 2, 1)


class TestAugmentTo4Conn:
    def test_wheel_rejected(self):
        with pytest.raises(ImpossibleError):
            augment_to_4conn(generate_wheel(9))

    def test_fan_rejected(self):
        with pytest.raises(ImpossibleError):
            augment_to_4conn(generate_fan(8))

    def test_convex_5_rejected(self):
        with pytest.raises((PreconditionError, ImpossibleError)):
            augment_to_4conn(triangulate(regular_polygon_points(5)))

    def test_base_case_5_points_is_k5(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
        t = triangulate(ps)
        extra = augment_to_4conn(t)
        assert len(extra) == 2
        union = set(t.edges) | set(extra)
        assert len(union) == 10  # complete graph on 5 vertices
        assert vertex_connectivity(5, union) == 4

    def test_convex_6_pattern(self):
        t = triangulate(regular_polygon_points(6))
        if classify(t) is TriangulationClass.FAN:
            pytest.skip("scan triangulation of the hexagon is a fan")
        extra = augment_to_4conn(t)
        assert len(extra) == 3
        assert vertex_connectivity(6, set(t.edges) | set(extra)) >= 4

    def test_convex_6_all_patterns(self):
        ps = regular_polygon_points(6)
        t = triangulate(ps)
        seen = 0
        stack = [t]
        tried = set()
        while stack:
            cur = stack.pop()
            key = frozenset(cur.edges)
            if key in tried:
                continue
            tried.add(key)
            if classify(cur) is not TriangulationClass.FAN:
                extra = augment_to_4conn(cur)
                assert vertex_connectivity(6, set(cur.edges) | set(extra)) >= 4
                seen += 1
            for e in sorted(cur.edges):
                if is_flippable(cur, e):
                    stack.append(flip(cur, e))
        assert seen >= 2  # both triangle and path chord patterns occur

    @pytest.mark.parametrize("seed", range(40))
    def test_random_triangulations(self, seed):
        n = 5 + seed % 8
        t = random_triangulation(n, seed)
        if classify(t) is not TriangulationClass.OTHER:
            with pytest.raises(ImpossibleError):
                augment_to_4conn(t)
            return
        extra = augment_to_4conn(t)
        ps = t.ps
        ee = sorted(extra)
        for i in range(len(ee)):
            for j in range(i + 1, len(ee)):
                assert not segments_properly_cross(ps, *ee[i], *ee[j])
        assert not set(extra) & set(t.edges)
        union = set(t.edges) | set(extra)
        kappa = vertex_connectivity(n, union)
        assert kappa >= 4
        if n <= 8:
            assert bf_vertex_connectivity(n, union) >= 4
        ok, violations = check_4conn_augmentation(t, extra)
        assert ok, violations

    def test_one_cut_report_per_chordless_input(self, monkeypatch):
        # the star construction and the final crossing check share one report
        t = random_triangulation(30, 3)
        assert not t.chords()
        calls = _count_calls(monkeypatch, "cut_structures")
        monkeypatch.setattr(connectivity_module, "cut_structures", augment_module.cut_structures)
        extra = augment_to_4conn(t)
        assert calls == [(t,)]
        assert check_4conn_augmentation(t, extra) == (True, [])

    def test_deep_peel_is_not_bounded_by_the_recursion_limit(self):
        # a convex-position triangulation peels about one vertex per level:
        # 97 levels here, and about 330 reach the default limit of 1000
        t = chordful_triangulation(100, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            extra = augment_to_4conn(t)
        finally:
            sys.setrecursionlimit(limit)
        ee = sorted(extra)
        assert len(ee) == 97
        assert hashlib.sha256(repr(ee).encode()).hexdigest() == (
            "a4fa124d1f741ccc14fb04ddeba22a755028582d41e55a0552b5bedb584ec64c")
        assert ref_vertex_connectivity(100, set(t.edges) | set(ee)) >= 4


def _grid_draws(rng: random.Random, span: int, count: int):
    """(center, p1, p2, q) uniform on the integer grid [-span, span]^2."""
    for _ in range(count):
        yield tuple(Point(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4))


def _bisector_draws(rng: random.Random, count: int):
    """Draws in [-1000, 1000]^2 with q on the bisector line of the wedge:
    p2 - c is p1 - c reflected across the direction d = q - c and scaled by
    |d|^2, so every draw is an exact tie; every other draw then moves p2 by
    one unit, a near tie."""
    while count:
        cx, cy = rng.randint(-100, 100), rng.randint(-100, 100)
        ax, ay, dx, dy = (rng.randint(-5, 5) for _ in range(4))
        if ax * dy - ay * dx == 0:
            continue
        dot, dd = ax * dx + ay * dy, dx * dx + dy * dy
        bx, by = 2 * dot * dx - dd * ax, 2 * dot * dy - dd * ay
        if count % 2:
            bx, by = bx + rng.choice((-1, 1)), by + rng.choice((-1, 0, 1))
        k = rng.randint(1, 3)
        yield (Point(cx, cy), Point(cx + ax, cy + ay), Point(cx + bx, cy + by),
               Point(cx + k * dx, cy + k * dy))
        count -= 1


def _outcome(fn, draw):
    try:
        return fn(*draw)
    except InternalInvariantError:
        return InternalInvariantError


def jittered_wheel_points(n: int) -> PointSet:
    """A seeded jittered (n - 1)-gon with one point near its centre: the
    point sets whose triangulations include a wheel."""
    rng = random.Random(n)
    while True:
        coords = [(round(1000 * math.cos(2 * math.pi * j / (n - 1))) + rng.randint(-60, 60),
                   round(1000 * math.sin(2 * math.pi * j / (n - 1))) + rng.randint(-60, 60))
                  for j in range(n - 1)]
        coords.append((rng.randint(-80, 80), rng.randint(-80, 80)))
        try:
            return PointSet(coords)
        except PreconditionError:
            continue


EVERY_TRIANGULATION_SETS = {
    **{f"convex-{n}": lambda n=n: regular_polygon_points(n) for n in range(6, 10)},
    **{f"random-{n}-{s}": lambda n=n, s=s: random_general_position(n, s)
       for n in range(6, 10) for s in range(3)},
    **{f"wheel-{n}": lambda n=n: jittered_wheel_points(n) for n in range(6, 10)},
}


class TestEveryTriangulation:
    """augment_to_4conn and min_augment_3conn on every triangulation of small
    point sets, listed by the oracle's own flip search: wheels and fans, by
    the oracle's degree rule, are refused at target 4, and every other
    triangulation gets plane new edges whose union has kappa >= 4, checked
    by the reference flow; target 3 reaches kappa >= 3 everywhere."""

    @pytest.mark.parametrize("name", EVERY_TRIANGULATION_SETS)
    def test_augments_every_triangulation(self, name):
        ps = EVERY_TRIANGULATION_SETS[name]()
        n = len(ps)
        refused = 0
        for edges in all_triangulations(ps):
            t = triangulation_from_edges(ps, edges)
            if bf_wheel_or_fan(ps, edges):
                refused += 1
                with pytest.raises(ImpossibleError):
                    augment_to_4conn(t)
            else:
                added = augment_to_4conn(t)
                assert not added & edges, (name, sorted(edges))
                assert bf_first_crossing(ps, sorted(added)) is None, (name, sorted(edges))
                assert ref_vertex_connectivity(n, edges | added) >= 4, (name, sorted(edges))
            added = min_augment_3conn(t)
            assert not added & edges, (name, sorted(edges))
            assert bf_first_crossing(ps, sorted(added)) is None, (name, sorted(edges))
            assert ref_vertex_connectivity(n, edges | added) >= 3, (name, sorted(edges))
        # a convex n-gon has one fan at each vertex, and the (n - 1)-gon one wheel
        if name.startswith("convex"):
            assert refused == n
        elif name.startswith("wheel"):
            assert refused == 1

    def test_min_augment_3conn_joins_leaf_cells_in_pairs(self):
        """min_augment_3conn adds ceil(m / 2) edges for the m >= 2 leaf cells
        that the oracle counts, and none to a triangulation without a chord,
        which has no leaf cell (one chord makes two)."""
        counts = set()
        for name, points in EVERY_TRIANGULATION_SETS.items():
            ps = points()
            for edges in all_triangulations(ps):
                m = bf_leaf_cells(ps, edges)
                added = min_augment_3conn(triangulation_from_edges(ps, edges))
                assert m != 1 and len(added) == math.ceil(m / 2), (name, sorted(edges))
                counts.add(m)
        assert {0, 2, 3, 4} <= counts, counts


class TestBisectorSign:
    """`_closer_to_first_ray` (one sign test) against the angle comparison
    it replaced, kept as `ref_closer_to_first_ray`."""

    def test_matches_angle_comparison(self):
        rng = random.Random(20261018)
        draws = [*_grid_draws(rng, 6, 64000), *_grid_draws(rng, 1000, 40000),
                 *_bisector_draws(rng, 4000)]
        ties = raised = compared = 0
        for draw in draws:
            c, p1, p2, q = draw
            ax, ay, bx, by = p1.x - c.x, p1.y - c.y, p2.x - c.x, p2.y - c.y
            dx, dy = q.x - c.x, q.y - c.y
            da, db = dx * ay - dy * ax, dx * by - dy * bx
            new = _outcome(augment_module._closer_to_first_ray, (ax, ay, bx, by, dx, dy))
            if da == 0 or db == 0:
                assert new is _outcome(ref_closer_to_first_ray, draw) is InternalInvariantError
                raised += 1
            elif ax * by - ay * bx == 0:
                continue  # c, p1, p2 collinear: no wedge to bisect (general position)
            else:
                assert new == ref_closer_to_first_ray(*draw), draw
                compared += 1
                if da * db < 0 and da * da * (bx * bx + by * by) == db * db * (ax * ax + ay * ay):
                    ties += 1
        assert compared >= 100000 and ties >= 500 and raised >= 1000, (compared, ties, raised)


def _count_calls(monkeypatch, name: str) -> list:
    """Record the argument tuples of every call of augment.<name>."""
    calls: list = []
    fn = getattr(augment_module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(augment_module, name, counted)
    return calls


def _assert_plane_4conn_with_digest(t, extra, digest: str) -> None:
    """The added edges do not cross, the union is 4-connected (brute force),
    and the sorted edge list hashes to the recorded digest."""
    ee = sorted(extra)
    ps = t.ps
    for i in range(len(ee)):
        for j in range(i + 1, len(ee)):
            assert not segments_properly_cross(ps, *ee[i], *ee[j])
    assert bf_vertex_connectivity(len(ps), set(t.edges) | set(extra)) >= 4
    assert hashlib.sha256(repr(ee).encode()).hexdigest() == digest


class TestBichordStar:
    """The chordless case in which every vertex lies in a bichord, so no
    vertex is free for a star: `_augment_3connected` builds the bichord star
    around a maximal sector and splits the hull by the bisector test."""

    CASES = [
        (8, 107, "8254a9487861e6083b8d017353b0b4be8ed055fede3db225aa5ede7f5581e417"),
        (9, 160, "e712ad9c459efd6be166877f881c816afd05e32d9b6119dd406b744785042cb7"),
        (12, 352, "67f966648df48b1134aa1fc0784cae6786b1327c7e6d1d74884ad6053a14fefb"),
    ]

    @pytest.mark.parametrize("n,seed,digest", CASES)
    def test_branch_runs_and_output_is_fixed(self, monkeypatch, n, seed, digest):
        t = random_triangulation(n, seed)
        rep = cut_structures(t)
        assert t.chords() == []
        assert {v for triple in rep.cut_triples() for v in triple} == set(range(n))
        assert rep.bichords and not rep.separating_triangles
        calls = _count_calls(monkeypatch, "_closer_to_first_ray")
        extra = augment_to_4conn(t)
        assert calls, "the bisector split of the bichord star did not run"
        _assert_plane_4conn_with_digest(t, extra, digest)


# random_triangulation(n, seed) inputs that have no chord, put every vertex in
# a cut triple, and have two interior vertices or more besides the centre:
# every one with n = 7-14 and seed < 3000
STAR_ANCHOR_CASES = [
    (9, 160), (9, 309), (9, 775), (9, 885), (9, 913), (9, 991), (9, 1283), (9, 1572),
    (9, 1752), (9, 2212), (9, 2367), (9, 2425), (9, 2520), (9, 2657), (10, 444), (10, 1436),
    (10, 1439), (10, 1600), (10, 2441), (10, 2469), (10, 2542), (10, 2602), (10, 2706),
    (11, 893), (11, 1975), (12, 352), (12, 2569), (13, 951), (13, 1593), (14, 764),
]


class TestBichordStarAnchors:
    """The bichord star is built from the first interior vertex other than
    the centre, with no retry: README Verification argues that the star from
    any such anchor is plane.  Here every anchor's star is, by the
    brute-force crossing oracle."""

    @pytest.mark.parametrize("n,seed", STAR_ANCHOR_CASES)
    def test_every_anchor_gives_a_plane_star(self, n, seed):
        t = random_triangulation(n, seed)
        rep = cut_structures(t)
        assert t.chords() == []
        assert {v for triple in rep.cut_triples() for v in triple} == set(range(n))
        center, labels = augment_module._maximal_sector(t, rep)
        anchors = [x for x in range(n) if x not in t.hull and x != center]
        assert len(anchors) >= 2
        for anchor in anchors:
            star = sorted(augment_module._bichord_star(t, labels, anchor))
            assert bf_first_crossing(t.ps, star) is None, anchor


def _two_centres(h: int) -> Triangulation:
    """A regular h-gon of radius 100 around centres h = (-60, -60) and
    h + 1 = (-60, -40): centre h is joined to hull vertices 3, ..., h - 1, 0
    and centre h + 1 to 0, ..., 3.  It has no chord, and every vertex lies
    in a bichord."""
    hull = [(q.x, q.y) for q in regular_polygon_points(h, 100)]
    edges = [edge_key(j, (j + 1) % h) for j in range(h)] + [(h, h + 1)]
    edges += [edge_key(h, j % h) for j in range(3, h + 1)]
    edges += [edge_key(h + 1, j) for j in range(4)]
    return triangulation_from_edges(PointSet(hull + [(-60, -60), (-60, -40)]), edges)


class TestBichordStarSweep:
    """The bichord star joins a hull vertex to v2 or v_{k-1} only when it lies
    on v_k's side of the sweep from v2 to v_{k-1} around the anchor; on these
    inputs some hull vertex lies on the other side and gets no edge.  On the
    octagon the sweep is under a half turn."""

    CASES = [
        (7, 1, False, "235cbc631d6d1a4700af2d900a4b357f9961e9aa3050a0cc3a2a4d3b26263329"),
        (8, 2, True, "73d2fadaa71f0964403d14a160820774906f5e66a72e12cbf627ba823ff56d4b"),
    ]

    @pytest.mark.parametrize("h,skipped,under_half_turn,digest", CASES)
    def test_branch_runs_and_output_is_fixed(self, monkeypatch, h, skipped, under_half_turn, digest):
        t = _two_centres(h)
        sweep = augment_module._in_ccw_sweep
        calls = _count_calls(monkeypatch, "_in_ccw_sweep")
        extra = augment_to_4conn(t)
        # the calls come in pairs: a hull vertex, then v_k
        inside = [sweep(*args) for args in calls]
        assert sum(inside[i] != inside[i + 1] for i in range(0, len(inside), 2)) == skipped
        assert {cross(*args[:4]) > 0 for args in calls} == {under_half_turn}
        _assert_plane_4conn_with_digest(t, extra, digest)


class TestWheelRemainder:
    """Peeling a leaf cell leaves a wheel: `_wheel_remainder_wiring` joins
    the cell point first hit by a rotating line to the rim.  On these inputs
    the first and the last point hit give different edge sets."""

    CASES = [
        (7, 219, "f87e7b6e1db59d216285f5690bcb194664e116a930b7b4a054260aedd7d7e686"),
        (8, 324, "8a06b73c55d1dcdd796a5d8b9fde68bef18d05e5b10fef943af8a737b0c3bd2f"),
        (8, 386, "4bd3a3f63bad1c1bcde5c3d12113d32e188d3879a57be133f982fdceeab972ee"),
        (9, 193, "db6c3d39c59d0f1f145459e7ed36c6313e64aee8591e3dc30d1aed51729e53a8"),
        (9, 287, "5be02a36c1aff291138d66d7fcd78808933d22079f163603aff0bef247456679"),
        (10, 103, "9fc15909cd3fc119a1b51aa46f58c4dc82c5983c34d85c27c15ae3a7b47faf12"),
        (11, 195, "8929b5f6cbcc10a3fa155495131c611a0d3fc20157623b43c811d4e29881d82a"),
    ]

    @pytest.mark.parametrize("n,seed,digest", CASES)
    def test_branch_runs_and_output_is_fixed(self, monkeypatch, n, seed, digest):
        t = random_triangulation(n, seed)
        calls = _count_calls(monkeypatch, "_wheel_remainder_wiring")
        extra = augment_to_4conn(t)
        assert calls, "the wheel-remainder wiring did not run"
        _assert_plane_4conn_with_digest(t, extra, digest)


def _unchecked(coords) -> PointSet:
    """A PointSet of `coords` that skips the general-position check, so that
    a test can hand a degenerate set to a function that reads coordinates."""
    ps = PointSet.__new__(PointSet)
    ps.xs, ps.ys = tuple(x for x, _ in coords), tuple(y for _, y in coords)
    return ps


class TestFirstHit:
    """`_first_hit` orders the points by their `_slope` gap from the turning
    line; `ref_first_hit` is the cross-product sweep it replaced.  They agree
    on seeded general-position sets, small and near the coordinate limit,
    in both sweeps; on a point added on the line, or on the line through the
    pivot and the first hit, both raise the same error."""

    def test_agrees_with_the_cross_product_sweep(self):
        compared = {True: 0, False: 0}
        for n in range(4, 13):
            for seed in range(40):
                span = 2 ** 30 if seed % 2 else 50
                ps = random_general_position(n, seed, span=span)
                rng = random.Random(seed)
                pivot, toward, *points = rng.sample(range(n), n)
                for sweep_ccw in (False, True):
                    got = augment_module._first_hit(ps, pivot, toward, points, sweep_ccw)
                    assert got == ref_first_hit(ps, pivot, toward, points, sweep_ccw)
                    compared[sweep_ccw] += 1
        assert compared == {True: 360, False: 360}

    def test_degenerate_points_raise_as_the_sweep_does(self):
        for seed in range(60):
            ps = random_general_position(8, seed, span=1000)
            coords = list(zip(ps.xs, ps.ys))
            pivot, toward, *points = range(8)
            sweep_ccw = bool(seed % 2)
            hit = ref_first_hit(ps, pivot, toward, points, sweep_ccw)
            scale = (2, -1)[seed // 2 % 2]
            (px, py), rng = coords[pivot], random.Random(seed)
            for kind, through in (("collinear", toward), ("aligned", hit)):
                qx, qy = coords[through]
                added = _unchecked(coords + [(px + scale * (qx - px), py + scale * (qy - py))])
                at = points[:]
                at.insert(rng.randrange(len(at) + 1), 8)
                for first_hit in (augment_module._first_hit, ref_first_hit):
                    with pytest.raises(InternalInvariantError, match=kind):
                        first_hit(added, pivot, toward, at, sweep_ccw)


def _flip_walk_chordless(h: int, m: int, steps: int):
    """The distinct chordless triangulations met on a seeded flip walk from
    `triangulate` of a regular h-gon with m random points inside it."""
    rng = random.Random(h * 100 + m)
    hull = [(q.x, q.y) for q in regular_polygon_points(h, 10 ** 4)]
    while True:
        inner = []
        while len(inner) < m:
            x, y = rng.randint(-6000, 6000), rng.randint(-6000, 6000)
            if x * x + y * y < 6000 ** 2:
                inner.append((x, y))
        try:
            t = triangulate(PointSet(hull + inner))
            break
        except PreconditionError:
            continue
    seen = set()
    for _ in range(steps):
        t = flip(t, rng.choice(sorted(e for e in t.edges if is_flippable(t, e))))
        if not t.chords() and t.triangles not in seen:
            seen.add(t.triangles)
            yield t


class TestMaximalSectorOracle:
    """`_maximal_sector` finds e0's sector by one bisection on the arms' hull
    positions; `ref_maximal_sector` walks every sector.  They name the same
    centre and labels on every chordless input with a bichord: the star
    anchor cases, the two-centre polygons and the chordless triangulations
    met on seeded flip walks of 6-14-gons with 2-8 interior points.  A centre
    with fewer than four arms raises."""

    @staticmethod
    def _compare(t) -> str:
        rep = cut_structures(t)
        if not rep.bichords:
            return "no bichord"
        center, labels = ref_maximal_sector(t, rep)
        if len(labels) < 4:
            with pytest.raises(InternalInvariantError, match=f"only {len(labels)} arms"):
                augment_module._maximal_sector(t, rep)
            return "raised"
        assert augment_module._maximal_sector(t, rep) == (center, labels)
        return "star" if {v for tr in rep.cut_triples() for v in tr} == set(range(len(t.ps))) \
            else "compared"

    def test_fixed_inputs(self):
        inputs = [random_triangulation(n, seed) for n, seed in STAR_ANCHOR_CASES]
        inputs += [_two_centres(h) for h in range(6, 10)]
        outcomes = [self._compare(t) for t in inputs]
        assert outcomes == ["star"] * (len(STAR_ANCHOR_CASES) + 4), outcomes

    def test_flip_walks(self):
        counts = {"no bichord": 0, "raised": 0, "compared": 0, "star": 0}
        for h in range(6, 15):
            for m in range(2, 9):
                for t in _flip_walk_chordless(h, m, 300):
                    counts[self._compare(t)] += 1
        assert counts == {"no bichord": 0, "raised": 660, "compared": 296, "star": 11}, counts


def _polygon_with_chords(n: int, chords) -> Triangulation:
    """`gen --shape regular --n n` triangulated by its hull and `chords`."""
    hull = [edge_key(i, (i + 1) % n) for i in range(n)]
    return triangulation_from_edges(regular_polygon_points(n),
                                    hull + [edge_key(*c) for c in chords])


def _two_interior(pts) -> Triangulation:
    """Six points: chord 0-1, hull vertices 2 and 3 on its two sides, and
    interior points 4 (in triangle 0, 1, 2) and 5 (in triangle 0, 1, 3)."""
    return triangulation_from_edges(PointSet(pts), [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
        (0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (3, 5)])


def _without(t: Triangulation, v: int) -> Triangulation:
    """The triangulation that t induces on its vertices other than v."""
    keep = [x for x in range(len(t.ps)) if x != v]
    to_sub = {old: new for new, old in enumerate(keep)}
    return Triangulation(t.ps.subset(keep), [[to_sub[q] for q in tri]
                                             for tri in t.triangles if v not in tri])


def _first_size3_private_vertex(t: Triangulation) -> int:
    """The private vertex of the size-3 leaf cell that the peel tries first."""
    return min((min(leaf.inner_members), leaf.chord)
               for leaf in build_cell_tree(t).leaves if len(leaf.members) == 3)[0]


class TestLeafPeelGolden:
    """sha256 of `augment_to_4conn` on one input per branch of the leaf-cell
    recursion and its small bases: a restructuring must leave each as it is."""

    CASES = {
        # the first size-3 cell (private vertex 0) leaves a fan and is skipped
        "fan-skip-octagon": (
            lambda: _polygon_with_chords(8, [(1, 7), (1, 4), (2, 4), (4, 6), (4, 7)]),
            "c35079d85d7684fb4d969aba3de690a61e14627c4811f5b136efbf569766142b"),
        # a size-3 peel whose remainder is a wheel: the star from the vertex
        "size3-wheel-star": (
            lambda: random_triangulation(6, 1),
            "2e71143efab6c15f2f3093c1e0fdcd677f68684108249f7145d04da34410097b"),
        # a size-3 peel, then a size-4 cell on six points: the two-interior base
        "random-7-3": (
            lambda: random_triangulation(7, 3),
            "598ca20d2cf163118af8378abe541ff8e2d9157195e07936ce9ed74e4a19800e"),
        # a size-3 peel, then a peel of a larger cell with a bisector split
        "random-8-4": (
            lambda: random_triangulation(8, 4),
            "7130f99392da0bbb3151b9c48d5362f14b0587df2316741f83f7be437da0d986"),
        "random-8-35": (
            lambda: random_triangulation(8, 35),
            "7b2b849b7aeb8ab16fc5a152a859104ac53dfb7914aa51ed2f922dae6330a589"),
        "k5-base": (
            lambda: triangulate(PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])),
            "35fe791437979f6de92aa20d3bacaaa7e041dd36e994d0b661e37befdb13d603"),
        "convex6-triangle": (
            lambda: _polygon_with_chords(6, [(0, 2), (2, 4), (0, 4)]),
            "2af3bd55395f8c2ef25273f1558c28442d5bc9b6110405940015633bef802fb5"),
        "convex6-zigzag": (
            lambda: _polygon_with_chords(6, [(0, 2), (2, 5), (3, 5)]),
            "352a159bbbd2f8a7b3b628997cbe3df4c9129c389295c8334859bc01e7d675fc"),
        # the first matching across the chord crosses, the second does not
        "two-interior-second": (
            lambda: _two_interior([(0, 0), (20, 0), (10, -10), (10, 10), (8, -3), (12, 4)]),
            "f2ce893e1bfdf9fb85c2b3b3163791705d27295b36f3a61ba99bd8ac52982a3c"),
        "two-interior-first": (
            lambda: _two_interior([(0, 0), (20, 0), (10, -10), (10, 10), (9, -3), (9, 4)]),
            "f750274601b023497a6ba96dccfa0eacd7093517004d0fdd5bcfba508e2ea6cf"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_is_fixed(self, name):
        build, digest = self.CASES[name]
        t = build()
        _assert_plane_4conn_with_digest(t, augment_to_4conn(t), digest)

    def test_fan_skip_octagon(self):
        t = self.CASES["fan-skip-octagon"][0]()
        v = _first_size3_private_vertex(t)
        assert v == 0 and classify(_without(t, v)) is TriangulationClass.FAN
        assert sorted(augment_to_4conn(t)) == [(0, 2), (0, 3), (0, 5), (0, 6), (3, 5)]

    def test_size3_wheel_star(self):
        t = self.CASES["size3-wheel-star"][0]()
        v = _first_size3_private_vertex(t)
        assert classify(_without(t, v)) is TriangulationClass.WHEEL
        assert all(v in e for e in augment_to_4conn(t))

    @pytest.mark.parametrize("name", ["random-8-4", "random-8-35"])
    def test_large_peel_runs_the_bisector_split(self, monkeypatch, name):
        t = self.CASES[name][0]()
        split = _count_calls(monkeypatch, "_closer_to_first_ray")
        wheel = _count_calls(monkeypatch, "_wheel_remainder_wiring")
        flips = _count_calls(monkeypatch, "flip_pair_helper")
        augment_to_4conn(t)
        assert split and not wheel and len(flips) == 2

    @pytest.mark.parametrize("name", ["k5-base", "convex6-triangle", "convex6-zigzag",
                                      "two-interior-first", "two-interior-second"])
    def test_bases_peel_nothing(self, monkeypatch, name):
        t = self.CASES[name][0]()
        flips = _count_calls(monkeypatch, "flip_pair_helper")
        extra = augment_to_4conn(t)
        assert not flips and len(extra) == (3 if len(t.hull) == 6 else 2)


class TestRandomPeelPin:
    """sha256 over `augment_to_4conn(random_triangulation(n, seed))` for
    n = 6-30 and seed = 0-9: the sorted added edges, or the error class.  128
    of the 250 inputs have a leaf cell of four members or more at the top
    level, so the peel hangs cells with a bisector split."""

    def test_outputs_are_fixed(self):
        out = []
        for n in range(6, 31):
            for seed in range(10):
                t = random_triangulation(n, seed)
                try:
                    out.append((n, seed, sorted(augment_to_4conn(t))))
                except BiplaneError as exc:
                    out.append((n, seed, type(exc).__name__))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "1448b25d75e1a02646300de753e4f1104a7d35144224d4c757001ed62dd08c42")


class TestCellNumberingPin:
    """sha256 over `min_augment_3conn` on the `TestRandomPeelPin` inputs and
    on `chordful_triangulation(n, seed)` for n = 8-40 in steps of 4 and
    seed = 0-4 (2-13 leaf cells).  `build_cell_tree`'s cell ids pick
    `_leaf_pairing`'s root and its move order, so they are part of the
    output: relabelling the cells at random changes 9 of the 250 random
    outputs, and reversing the ids changes 17 of the 45 chordful ones but
    no random one (a path through three leaves reversed is the same path)."""

    def test_random_triangulations(self):
        out = []
        for n in range(6, 31):
            for seed in range(10):
                t = random_triangulation(n, seed)
                try:
                    out.append((n, seed, sorted(min_augment_3conn(t))))
                except BiplaneError as exc:
                    out.append((n, seed, type(exc).__name__))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "f6ebf2f4babbe7c0ac95a7cf51cdbcfe8bb745f7792f3d008f8a1a2d882bce8d")

    def test_chordful_triangulations(self):
        out = [(n, seed, sorted(min_augment_3conn(chordful_triangulation(n, seed))))
               for n in range(8, 41, 4) for seed in range(5)]
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "5b6768620e99c12e32be4ad71e5e81d51f253d60297e096272ac767f5e89b842")


class TestRestrictedPeelLevels:
    """Every peel level of the `TestRandomPeelPin` inputs, relabelled from
    its parent's maps, is the triangulation that `Triangulation` builds from
    the kept faces on `PointSet.subset`."""

    def test_matches_the_rebuild(self, monkeypatch):
        restricted, levels = Triangulation.restricted, []

        def checked(t, keep):
            got = restricted(t, keep)
            new_id = {v: i for i, v in enumerate(keep)}
            want = Triangulation(t.ps.subset(keep), [[new_id[v] for v in tri] for tri in t.triangles
                                                     if all(v in new_id for v in tri)])
            assert (got.ps.xs, got.ps.ys, got.hull) == (want.ps.xs, want.ps.ys, want.hull)
            assert got.triangles == want.triangles and got.edges == want.edges
            assert [got.opposites(e) for e in sorted(want.edges)] == \
                [want.opposites(e) for e in sorted(want.edges)]
            assert [got.neighbors(v) for v in new_id.values()] == \
                [want.neighbors(v) for v in new_id.values()]
            levels.append(len(keep))
            return got

        monkeypatch.setattr(Triangulation, "restricted", checked)
        for n in range(6, 31):
            for seed in range(10):
                try:
                    augment_to_4conn(random_triangulation(n, seed))
                except BiplaneError:
                    pass
        assert len(levels) > 250


class TestNo5ConnCounterexample:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kappa_4_and_empty_cut_report(self, k):
        t = generate_no5conn_counterexample(k)
        assert len(t.ps) == 4 * k + 4
        assert kappa_of(t) == 4
        rep = cut_structures(t)
        assert not (rep.chords or rep.bichords or rep.separating_triangles)

    def test_k3_has_16_points(self):
        assert len(generate_no5conn_counterexample(3).ps) == 16

    def test_upper_chain_crossing_property(self):
        k = 3
        t = generate_no5conn_counterexample(k)
        ps = t.ps
        m = 2 * k
        xs = list(range(m))
        ys = [m + i for i in range(m - 3)]
        bottom = list(range(2 * m - 3, 2 * m + 4))
        for i, y in enumerate(ys):
            for w in bottom:
                assert segments_properly_cross(ps, y, w, xs[i + 1], xs[i + 2])

    def test_k1_rejected(self):
        with pytest.raises(PreconditionError):
            generate_no5conn_counterexample(1)
