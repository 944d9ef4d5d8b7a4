import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from biplane import augment, geometry, insertion, triangulation
from biplane.augment import augment_to_4conn
from biplane.errors import BiplaneError, InternalInvariantError, PreconditionError
from biplane.geometry import Point, PointSet, point_in_triangle
from biplane.generators import (generate_fan, generate_no5conn_counterexample,
                                generate_wheel, random_general_position,
                                random_triangulation, regular_polygon_points)
from biplane.connectivity import verify_layering
from biplane.insertion import build_5conn_general
from biplane.triangulation import (Triangulation, TriangulationClass,
                                   classify, complete_to_triangulation,
                                   edge_key, flip, is_flippable, refilled,
                                   triangle_key, triangulate,
                                   triangulation_from_edges)

from conftest import (chordful_triangulation, core_plus_interior, greedy_biplane,
                      mixed_pipeline_instance)
from oracles import (bf_faces_of, bf_first_crossing, bf_triangulation_ok, ref_cross, ref_flip,
                     ref_greedy_completion, ref_locate, ref_segments_properly_cross)


def euler_count(t: Triangulation) -> bool:
    return len(t.edges) == 3 * len(t.ps) - 3 - len(t.hull)


class TestTriangulate:
    def test_single_triangle(self):
        t = triangulate(PointSet([(0, 0), (4, 1), (1, 4)]))
        assert len(t.edges) == 3 and len(t.triangles) == 1

    def test_convex_polygon_edge_count(self):
        for n in (4, 6, 9):
            t = triangulate(regular_polygon_points(n))
            assert len(t.edges) == 2 * n - 3

    @pytest.mark.parametrize("seed", range(6))
    def test_random_points_pass_invariants(self, seed):
        ps = random_general_position(9, seed=seed)
        t = triangulate(ps)  # construction validates faces/crossings/count
        assert euler_count(t)

    def test_deterministic(self):
        ps = random_general_position(10, seed=3)
        assert triangulate(ps).triangles == triangulate(ps).triangles

    def test_two_points_rejected(self):
        with pytest.raises(PreconditionError, match="need at least 3 points"):
            triangulate(PointSet([(0, 0), (4, 1)]))


class TestFlip:
    def test_convex_quad_diagonal_flippable(self):
        t = triangulate(PointSet([(0, 0), (2, 0), (2, 2), (0, 2)]))
        diag = next(iter(t.edges - t.ps.hull_edges()))
        assert is_flippable(t, diag)

    def test_reflex_quad_not_flippable(self):
        # interior point near one corner: its short link edges are reflex
        ps = PointSet([(0, 0), (10, 0), (10, 10), (0, 10), (1, 2)])
        t = triangulate(ps)
        flippables = {e for e in t.edges if is_flippable(t, e)}
        assert flippables < (t.edges - t.ps.hull_edges())

    def test_flip_square_diagonal(self):
        t = triangulate(PointSet([(0, 0), (2, 0), (2, 2), (0, 2)]))
        diag = next(iter(t.edges - t.ps.hull_edges()))
        t2 = flip(t, diag)
        other = next(iter(t2.edges - t2.ps.hull_edges()))
        assert set(diag) | set(other) == {0, 1, 2, 3} and diag != other

    def test_flip_is_involution(self):
        t = triangulate(PointSet([(0, 0), (2, 0), (2, 2), (0, 2)]))
        diag = next(iter(t.edges - t.ps.hull_edges()))
        t2 = flip(t, diag)
        new_diag = next(iter(t2.edges - t2.ps.hull_edges()))
        assert flip(t2, new_diag).edges == t.edges

    def test_flip_changes_exactly_one_edge(self):
        t = random_triangulation(9, seed=1)
        e = sorted(x for x in t.edges if is_flippable(t, x))[0]
        t2 = flip(t, e)
        assert len(t.edges - t2.edges) == 1 and len(t2.edges - t.edges) == 1
        assert euler_count(t2)

    def test_flippable_symmetric_in_endpoints(self):
        t = random_triangulation(8, seed=4)
        for (u, v) in t.edges:
            assert is_flippable(t, (u, v)) == is_flippable(t, (v, u))


class TestClassify:
    def test_wheel(self):
        assert classify(generate_wheel(5)) is TriangulationClass.WHEEL

    def test_fan(self):
        assert classify(generate_fan(5)) is TriangulationClass.FAN

    def test_triangle_rejected(self):
        with pytest.raises(PreconditionError, match="classification requires n >= 4"):
            classify(triangulate(PointSet([(0, 0), (4, 1), (1, 4)])))

    def test_two_interior_points_is_other(self):
        for seed in range(20):
            ps = random_general_position(8, seed=seed)
            if len(ps.hull()) <= 6:
                t = triangulate(ps)
                assert classify(t) is TriangulationClass.OTHER
                return
        pytest.skip("no instance with 2 interior points sampled")


class TestSaturate:
    def test_triangle_both_layers_identical(self):
        g = greedy_biplane(PointSet([(0, 0), (3, 1), (1, 3)]))
        assert g.edge_count() == 3
        assert g.layer_edges(1) == g.layer_edges(2)

    def test_convex_position_union_planar_size(self):
        for n in (6, 10, 14):
            ps = regular_polygon_points(n)
            g = greedy_biplane(ps)
            assert g.edge_count() <= 3 * n - 6

    @pytest.mark.parametrize("n,seed", [(8, 0), (9, 1), (10, 2), (12, 3)])
    def test_hutchinson_bound_and_layering(self, n, seed):
        ps = random_general_position(n, seed=seed)
        g = greedy_biplane(ps)
        assert g.edge_count() <= 6 * n - 18
        assert verify_layering(g)

    def test_layers_are_full_triangulations(self):
        ps = random_general_position(9, seed=7)
        g = greedy_biplane(ps)
        for layer in (1, 2):
            t = triangulation_from_edges(ps, g.layer_edges(layer))
            assert euler_count(t)


def with_a_crossing_edge(seed: int) -> tuple[PointSet, list]:
    """The points of random_triangulation(n, seed), n 5-30, and its edges,
    sorted, with one edge swapped for a vertex pair that crosses another of
    them, so that the count stays 3n - 3 - h."""
    rng = random.Random(seed)
    t = random_triangulation(rng.randint(5, 30), seed)
    es = sorted(t.edges)
    n, pts = len(t.ps), t.ps
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in t.edges]
    while True:
        kept = set(es) - {rng.choice(es)}
        e = rng.choice(pairs)
        if any(geometry.segments_properly_cross(pts, *e, u, v) for u, v in kept):
            return t.ps, sorted(kept | {e})


class TestCompletion:
    def test_required_edges_preserved(self):
        ps = random_general_position(9, seed=11)
        required = [edge_key(ps.hull()[0], ps.hull()[1])]
        t = complete_to_triangulation(ps, required=required)
        assert set(required) <= set(t.edges)

    def test_crossing_required_rejected(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(PreconditionError, match=r"^required edges \(0, 2\) and \(1, 3\) cross$"):
            complete_to_triangulation(ps, required=[(0, 2), (1, 3)])

    def test_crossing_required_names_the_first_crossing_pair(self, monkeypatch):
        """Every crossing set is rejected with the pair that first_crossing
        names, also when the greedy still reaches 3n - 3 - h edges, so that
        only the certificate or the edge check can catch it."""
        cases = []
        for seed in range(300):
            ps, edges = with_a_crossing_edge(seed)
            rng = random.Random(seed)
            keep = rng.choice([1, 1, rng.random()])
            required = [e for e in edges if rng.random() < keep]
            pair = geometry.first_crossing(ps, required)
            if pair is not None:
                cases.append((seed, ps, required, edges[::3], pair))
        built = []
        check = Triangulation._check

        def recording(t, edges):
            built.append(len(t.ps))
            return check(t, edges)

        monkeypatch.setattr(Triangulation, "_check", recording)
        full = 0
        for seed, ps, required, avoid, (i, j) in cases:
            built.clear()
            with pytest.raises(PreconditionError) as err:
                complete_to_triangulation(ps, required, avoid)
            assert str(err.value) == f"required edges {required[i]} and {required[j]} cross", seed
            full += bool(built)
        assert full >= 100 and len(cases) - full >= 20, (full, len(cases))


def joins_every_vertex_to_the_hull(ps: PointSet, edges) -> bool:
    """Whether `edges` plus the hull edges form a connected graph, that is,
    leave no hole in any face."""
    adj: dict[int, set[int]] = {v: set() for v in range(len(ps))}
    h = ps.hull()
    for u, v in list(edges) + [(h[i - 1], h[i]) for i in range(len(h))]:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {h[0]}, [h[0]]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(ps)


def subset_cases(seeds):
    """(seed, points, required, avoid): a random plane subset of the edges of
    random_triangulation(n, seed), n 4-16, and random pairs to avoid."""
    for seed, t, required, avoid in triangulated_subset_cases(seeds):
        yield seed, t.ps, required, avoid


def triangulated_subset_cases(seeds):
    """`subset_cases` with the triangulation t whose edges were sampled in
    place of its points."""
    for seed in seeds:
        rng = random.Random(seed)
        t = random_triangulation(rng.randint(4, 16), seed)
        n, keep, shun = len(t.ps), rng.randint(0, 10) / 10, rng.random() / 2
        required = [e for e in sorted(t.edges) if rng.random() < keep]
        avoid = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < shun]
        yield seed, t, required, avoid


def refill_regions(t: Triangulation, required) -> int:
    """The regions that `refilled` fills: t's triangles glued along its edges
    outside `required` and the hull edges, by a union-find of its own."""
    h = t.ps.hull()
    keep = {edge_key(*e) for e in required} | {edge_key(h[i - 1], h[i]) for i in range(len(h))}
    owner = {}
    parent = {tri: tri for tri in t.triangles}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, c in t.triangles:
        for e in ((a, b), (b, c), (a, c)):
            if e not in keep:
                if e in owner:
                    parent[find(owner[e])] = find((a, b, c))
                else:
                    owner[e] = (a, b, c)
    return len({find(tri) for tri in owner.values()})


def nested_cases(seeds):
    """(seed, points, required, avoid): three nested triangles, turned and
    jittered by the seed, around a centre point 9, and up to three more
    points anywhere.  The middle and inner triangles are required, so each
    is a hole in the face around it, and the inner one holds the centre;
    odd seeds join the centre to an inner corner, a dangling edge."""
    for seed in seeds:
        rng = random.Random(seed)
        coords = []
        for radius in (1000, 300, 90):
            turn = rng.random() * 2 * math.pi
            coords += [(round(radius * math.cos(turn + 2 * math.pi * k / 3)) + rng.randint(-5, 5),
                        round(radius * math.sin(turn + 2 * math.pi * k / 3)) + rng.randint(-5, 5))
                       for k in range(3)]
        coords.append((rng.randint(-9, 9), rng.randint(-9, 9)))
        coords += [(rng.randint(-600, 600), rng.randint(-600, 600)) for _ in range(rng.randint(0, 3))]
        try:
            ps = PointSet(coords)
        except PreconditionError:
            continue
        required = [(3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)] + [(6, 9)] * (seed % 2)
        n = len(ps)
        avoid = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        yield seed, ps, required, avoid


def hole_shapes(ps: PointSet, required) -> set[str]:
    """The face shapes that R', `required` plus the hull edges, shows:
    "isolated vertex in a triangle face" (a triangle of R' that holds
    vertices, none of them with an edge), "nested hole" (a triangle of a
    component off the hull that holds a vertex) and "dangling edge" (a
    vertex of degree 1)."""
    h, n = ps.hull(), len(ps)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in list(required) + [(h[i - 1], h[i]) for i in range(len(h))]:
        adj[u].add(v)
        adj[v].add(u)
    on_hull, stack = {h[0]}, [h[0]]
    while stack:
        for w in adj[stack.pop()] - on_hull:
            on_hull.add(w)
            stack.append(w)
    shapes = {"dangling edge"} if any(len(adj[v]) == 1 for v in range(n)) else set()
    for a in range(n):
        for b in adj[a]:
            for c in adj[a] & adj[b]:
                if a < b < c:
                    inside = [v for v in range(n)
                              if v not in (a, b, c) and point_in_triangle(ps, a, b, c, v)]
                    if inside and not any(adj[v] for v in inside):
                        shapes.add("isolated vertex in a triangle face")
                    if inside and a not in on_hull:
                        shapes.add("nested hole")
    return shapes


class TestGreedyCompletionDifferential:
    """complete_to_triangulation fills each face of its required edges on
    its own; the all-pairs greedy of oracles.ref_greedy_completion must give
    the same edges."""

    @pytest.mark.parametrize("chunk", range(6))
    def test_plane_subsets_of_random_triangulations(self, chunk):
        connected = []
        for seed, ps, required, avoid in subset_cases(range(250 * chunk, 250 * (chunk + 1))):
            got = complete_to_triangulation(ps, required, avoid).edges
            assert got == ref_greedy_completion(ps, required, avoid), seed
            connected.append(joins_every_vertex_to_the_hull(ps, required))
        assert any(connected) and not all(connected)

    def test_nested_holes(self):
        for seed, ps, required, avoid in nested_cases(range(40)):
            got = complete_to_triangulation(ps, required, avoid).edges
            assert got == ref_greedy_completion(ps, required, avoid), seed

    def test_corpus_has_every_hole_shape(self):
        found: dict[str, list] = {}
        for kind, cases in (("subset", subset_cases(range(1500))), ("nested", nested_cases(range(40)))):
            for seed, ps, required, _ in cases:
                for shape in hole_shapes(ps, required):
                    found.setdefault(shape, []).append((kind, seed))
        assert sorted(found) == ["dangling edge", "isolated vertex in a triangle face", "nested hole"]
        assert len(found["nested hole"]) >= 20

    def test_every_completion_of_seeded_builds(self, monkeypatch):
        """Every completion and every refill of the seeded builds, against
        the oracle; a refill that `_settled` skips is recorded as the
        triangulation it keeps, with what it would have avoided: nothing in
        layer 1, and layer 1's carried triangulation in layer 2, which is
        skipped only when layer 1 kept its own."""
        calls, refills, state_t1 = [], [], []

        def recording(ps, required=(), avoid=()):
            required, avoid = list(required), list(avoid)
            t = complete_to_triangulation(ps, required, avoid)
            calls.append((ps, required, avoid, t.edges))
            return t

        def recording_refill(t, dropped, avoid=frozenset()):
            out, taken = refilled(t, dropped, avoid)
            # general5 passes layer 1's triangulation itself as the container to avoid
            avoid = avoid.edges if isinstance(avoid, Triangulation) else avoid
            refills.append((t, t.edges - dropped, avoid, out.edges, False))
            assert set(taken) == (out.edges - t.edges) | ((dropped & out.edges) - t.ps.hull_edges())
            return out, taken

        saturate, settled = insertion._saturate, insertion._settled

        def recording_saturate(state):
            state_t1.append(state.t1)
            return saturate(state)

        def recording_settled(t, dropped, s, moved):
            skip = settled(t, dropped, s, moved)
            if skip and dropped:
                avoid = frozenset() if t is state_t1[-1] else state_t1[-1].edges
                refills.append((t, t.edges - dropped, avoid, t.edges, True))
            return skip

        monkeypatch.setattr(insertion, "complete_to_triangulation", recording)
        monkeypatch.setattr(insertion, "refilled", recording_refill)
        monkeypatch.setattr(insertion, "_saturate", recording_saturate)
        monkeypatch.setattr(insertion, "_settled", recording_settled)
        monkeypatch.setattr(augment, "complete_to_triangulation", recording)
        for n, seed, outer in ((70, 2, 0), (80, 5, 0), (80, 6, 4), (100, 1, 0)):
            build_5conn_general(core_plus_interior(n, seed, outer=outer))
        for seed in range(4):
            build_5conn_general(mixed_pipeline_instance(seed))
        built = len(calls)
        for n, seed in ((20, 1), (40, 2), (60, 3)):
            augment_to_4conn(chordful_triangulation(n, seed))
            augment_to_4conn(random_triangulation(n, seed))
        assert built > 20 and len(calls) - built > 50
        for ps, required, avoid, edges in calls:
            assert edges == ref_greedy_completion(ps, required, avoid)
        # a refill that finds every edge of t in its layer gives t back as it is
        regions = [refill_regions(t, required) for t, required, _, _, _ in refills]
        skipped = sum(skip for *_, skip in refills)
        assert skipped > 40 and len(refills) - skipped > 10
        assert sum(r > 0 for r in regions) > 50 and max(regions) >= 2
        for (t, required, avoid, edges, _), r in zip(refills, regions):
            if r:
                assert edges == ref_greedy_completion(t.ps, required, avoid)
            else:
                assert edges == t.edges

    def test_refills_of_plane_subsets(self):
        """`refilled` from a triangulation that holds the required edges, with
        its other edges dropped: the random triangulation of each subset
        case, and the plain completion of each nested case, refilled with
        its own pairs to avoid.  It reports as taken the edges it adds and
        the dropped ones it takes again, never a hull edge."""
        cases = list(triangulated_subset_cases(range(600)))
        cases += [(seed, complete_to_triangulation(ps, required), required, avoid)
                  for seed, ps, required, avoid in nested_cases(range(40))]
        holes = regions = 0
        for seed, t, required, avoid in cases:
            dropped = t.edges - {edge_key(*e) for e in required}
            got, taken = refilled(t, dropped, frozenset(edge_key(*e) for e in avoid))
            assert got.edges == ref_greedy_completion(t.ps, required, avoid), seed
            assert set(taken) == (got.edges - t.edges) | ((dropped & got.edges) - t.ps.hull_edges())
            holes += not joins_every_vertex_to_the_hull(t.ps, required)
            regions += refill_regions(t, required) >= 2
        assert holes >= 50 and regions >= 50, (holes, regions)

    def test_refill_keeps_hull_edges_and_rejects_a_foreign_edge(self):
        t = random_triangulation(8, 1)
        assert refilled(t, t.ps.hull_edges()) == (t, [])
        foreign = next((u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) not in t.edges)
        with pytest.raises(PreconditionError,
                           match=r"^dropped edges must be edges of the triangulation$"):
            refilled(t, [foreign])


FROM_EDGES_CASES = ([random_triangulation(n, seed) for n, seed in
                     [(5, 0), (8, 1), (11, 2), (14, 3), (17, 4), (20, 5)]]
                    + [generate_wheel(n) for n in (5, 9)]
                    + [generate_fan(n) for n in (4, 9)]
                    + [generate_no5conn_counterexample(k) for k in (2, 3)])


class TestFromEdges:
    @pytest.mark.parametrize("t", FROM_EDGES_CASES)
    def test_angular_faces_match_the_empty_3_cycles(self, t):
        got = triangulation_from_edges(t.ps, t.edges)
        assert set(got.triangles) == bf_faces_of(t.ps, t.edges) == set(t.triangles)

    def test_wrong_edge_count_is_a_precondition(self):
        t = random_triangulation(10, 1)
        with pytest.raises(PreconditionError, match=r"^edge count 20 != 3n-3-h = 21$"):
            triangulation_from_edges(t.ps, sorted(t.edges)[1:])

    def test_crossing_edges_are_a_precondition(self):
        t = random_triangulation(10, 1)
        e = next(e for e in sorted(t.edges) if is_flippable(t, e))
        other = next(f for f in sorted(t.edges) if f != e)
        edges = (t.edges - {other}) | {edge_key(*t.opposites(e))}
        with pytest.raises(PreconditionError, match=r"^edges \(\d+, \d+\) and \(\d+, \d+\) cross$"):
            triangulation_from_edges(t.ps, edges)

    @pytest.mark.parametrize("chunk", range(5))
    def test_crossing_edge_names_the_first_crossing_pair(self, chunk):
        for seed in range(120 * chunk, 120 * (chunk + 1)):
            ps, edges = with_a_crossing_edge(seed)
            i, j = geometry.first_crossing(ps, edges)
            with pytest.raises(PreconditionError) as err:
                triangulation_from_edges(ps, reversed(edges))
            assert str(err.value) == f"edges {edges[i]} and {edges[j]} cross", seed


def no_face_filling(monkeypatch) -> None:
    """Fail the test if an edge set is completed instead of read."""
    def fill(*args):
        raise AssertionError("a complete edge set went through _fill_faces")

    monkeypatch.setattr(triangulation, "_fill_faces", fill)


def swapped_bad_lists(seed: int):
    """Count-correct edge lists of random_triangulation(n, seed), n 8-30,
    with every hull edge kept: one non-hull edge swapped for the other
    diagonal of a flippable edge, which crosses it, and two swapped for a
    crossing pair of absent vertex pairs."""
    rng = random.Random(seed)
    t = random_triangulation(rng.randint(8, 30), seed)
    pts, inner = t.ps.points, sorted(t.edges - t.ps.hull_edges())
    e = rng.choice([e for e in inner if is_flippable(t, e)])
    g = rng.choice([g for g in inner if g != e])
    yield t.ps, sorted(t.edges - {g} | {edge_key(*t.opposites(e))})
    absent = [(u, v) for u in range(len(pts)) for v in range(u + 1, len(pts))
              if (u, v) not in t.edges]
    pairs = [(p1, p2) for p1, p2 in combinations(absent, 2)
             if ref_segments_properly_cross(*(pts[v] for v in p1 + p2))]
    yield t.ps, sorted(t.edges - set(rng.sample(inner, 2)) | set(rng.choice(pairs)))


class TestFaceReader:
    """A complete edge set is read by the common-neighbour reader alone,
    and a count-correct set with a crossing names its first crossing pair."""

    CASES = ([random_triangulation(n, seed) for n, seed in [(6, 0), (12, 1), (25, 2), (40, 3)]]
             + [chordful_triangulation(n, seed) for n, seed in [(7, 1), (16, 2), (30, 3)]]
             + [generate_wheel(n) for n in (5, 12)] + [generate_fan(n) for n in (5, 12)]
             + [generate_no5conn_counterexample(k) for k in range(2, 7)])

    @pytest.mark.parametrize("t", CASES)
    def test_faces_are_the_empty_3_cycles(self, monkeypatch, t):
        no_face_filling(monkeypatch)
        want = bf_faces_of(t.ps, t.edges)
        for got in (triangulation_from_edges(t.ps, t.edges),
                    complete_to_triangulation(t.ps, sorted(t.edges)[::-1])):
            assert set(got.triangles) == want and got.edges == t.edges
            assert [got.opposites(e) for e in sorted(t.edges)] == \
                [t.opposites(e) for e in sorted(t.edges)]

    @pytest.mark.parametrize("seed", range(40))
    def test_count_correct_lists_name_their_first_crossing(self, monkeypatch, seed):
        no_face_filling(monkeypatch)
        for ps, edges in swapped_bad_lists(seed):
            i, j = bf_first_crossing(ps, edges)
            for read, what in ((triangulation_from_edges, "edges"),
                               (complete_to_triangulation, "required edges")):
                with pytest.raises(PreconditionError) as err:
                    read(ps, edges[::-1])
                assert type(err.value) is PreconditionError
                assert str(err.value) == f"{what} {edges[i]} and {edges[j]} cross", seed


class TestCrossedEdges:
    """The walk between two vertices lists exactly the edges that the
    segment properly crosses, in order along it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_scan_in_order(self, seed):
        t = shuffled(random_triangulation(random.Random(seed).randint(8, 30), seed), seed)
        pts, walked = t.ps.points, 0
        for u, v in combinations(range(len(pts)), 2):
            got = t.crossed_edges(u, v)
            want = {f for f in t.edges
                    if ref_segments_properly_cross(pts[u], pts[v], pts[f[0]], pts[f[1]])}
            assert len(got) == len(want) and set(got) == want, (u, v)
            # where each crossed edge meets the line through u and v, as a
            # fraction of the way from u: increasing or decreasing
            at = [Fraction(ref_cross(pts[a], pts[b], pts[u]),
                           ref_cross(pts[a], pts[b], pts[u]) - ref_cross(pts[a], pts[b], pts[v]))
                  for a, b in got]
            assert at in (sorted(at), sorted(at, reverse=True)), (u, v)
            walked += bool(got)
        assert walked > len(pts)

    @pytest.mark.parametrize("seed", range(6))
    def test_leaving_walk_matches_the_scan_in_order(self, seed):
        """From each vertex towards each point outside the hull, the walk
        lists the edges the segment crosses up to where it leaves the hull,
        the hull edge it leaves by last; none from a hull vertex whose
        segment points out at once."""
        t = shuffled(random_triangulation(random.Random(seed).randint(8, 30), seed), seed)
        pts, hull_edges, kinds = t.ps.points, t.ps.hull_edges(), set()
        for s in exterior_points(t):
            p = Point(*s)
            for q in range(len(pts)):
                got = t.crossed_leaving(q, s)
                want = {f for f in t.edges if ref_segments_properly_cross(pts[q], p, pts[f[0]], pts[f[1]])}
                assert len(got) == len(want) and set(got) == want, (q, s)
                at = [Fraction(ref_cross(pts[a], pts[b], pts[q]),
                               ref_cross(pts[a], pts[b], pts[q]) - ref_cross(pts[a], pts[b], p))
                      for a, b in got]
                assert at == sorted(at), (q, s)
                assert not got or got[-1] in hull_edges and not hull_edges.intersection(got[:-1])
                kinds.add((q in t.hull, bool(got)))
        assert kinds == {(True, False), (True, True), (False, True)}


class TestBadEdges:
    """An edge that is a self-loop or names no point is a precondition, the
    message that LayeredGraph gives, before any face is read."""

    @pytest.mark.parametrize("bad,named", [((2, 2), (2, 2)), ((2, 9), (2, 9)), ((9, 2), (2, 9)),
                                           ((-1, 3), (-1, 3))])
    def test_required_edge(self, bad, named):
        ps = random_general_position(8, 1)
        with pytest.raises(PreconditionError) as err:
            complete_to_triangulation(ps, required=[bad])
        assert str(err.value) == f"bad edge {named}"

    # drop 1 swaps one edge of a triangulation, so the count check passes;
    # drop 2 gets the count wrong too, and the bad edge is still named
    @pytest.mark.parametrize("drop", [1, 2])
    @pytest.mark.parametrize("bad", [(2, 2), (2, 9), (-1, 3)])
    def test_listed_edge(self, bad, drop):
        ps = random_general_position(8, 1)
        edges = sorted(triangulate(ps).edges)[drop:] + [bad[::-1]]
        with pytest.raises(PreconditionError) as err:
            triangulation_from_edges(ps, edges)
        assert str(err.value) == f"bad edge {bad}"


class TestFirstCrossingOnlyOnFailure:
    """A valid input is certified by its faces alone: neither reader nor
    completion runs the crossing sweep."""

    def test_valid_input_runs_no_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("first_crossing ran on valid input")

        monkeypatch.setattr(triangulation, "first_crossing", sweep)
        for t in FROM_EDGES_CASES:
            triangulation_from_edges(t.ps, t.edges)
        for seed in range(30):
            rng = random.Random(seed)
            t = random_triangulation(rng.randint(4, 20), seed)
            required = [e for e in sorted(t.edges) if rng.random() < 0.6]
            complete_to_triangulation(t.ps, required, avoid=sorted(t.edges)[::2])
        complete_to_triangulation(random_general_position(60, seed=3))


def flipped(t: Triangulation, e) -> frozenset:
    """t's triangles with e swapped for the other diagonal of its quad, legal or not."""
    (u, v), (a, b) = e, t.opposites(e)
    return (t.triangles - {triangle_key(u, v, a), triangle_key(u, v, b)}) \
        | {triangle_key(a, b, u), triangle_key(a, b, v)}


def reflex_diagonal(t: Triangulation):
    """An interior edge whose quadrilateral is reflex and whose other
    diagonal is not an edge yet."""
    return next(e for e in sorted(t.edges - t.ps.hull_edges())
                if not is_flippable(t, e) and edge_key(*t.opposites(e)) not in t.edges)


def illegal_flip() -> tuple[PointSet, frozenset]:
    """A reflex quadrilateral's diagonal flipped to a new edge: the counts stay right."""
    t = random_triangulation(9, seed=2)
    return t.ps, flipped(t, reflex_diagonal(t))


def near_triangulations(t: Triangulation, rng: random.Random):
    """t itself plus triangle sets one local edit away from it: every flip of
    an interior edge (illegal ones on reflex quadrilaterals included), one
    triangle swapped for another on two of its corners, one triangle dropped."""
    yield t.triangles
    for e in sorted(t.edges - t.ps.hull_edges()):
        yield flipped(t, e)
    n = len(t.ps)
    for tri in rng.sample(sorted(t.triangles), min(4, len(t.triangles))):
        u, v, _ = rng.sample(tri, 3)
        x = rng.choice([w for w in range(n) if w not in tri])
        yield (t.triangles - {tri}) | {triangle_key(u, v, x)}
        yield t.triangles - {tri}


def accepts(ps: PointSet, tris) -> bool:
    try:
        Triangulation(ps, tris)
    except InternalInvariantError:
        return False
    return True


class TestValidationCertificate:
    @pytest.mark.parametrize("seed", range(12))
    def test_accepts_exactly_what_the_oracle_accepts(self, seed):
        rng = random.Random(seed)
        t = random_triangulation(rng.randint(5, 11), seed)
        verdicts = [(accepts(t.ps, tris), bf_triangulation_ok(t.ps, tris))
                    for tris in near_triangulations(t, rng)]
        assert all(got == want for got, want in verdicts)
        assert {got for got, _ in verdicts} == {True, False}

    def test_illegal_flip_names_a_vertex_inside_a_triangle(self):
        ps, tris = illegal_flip()
        with pytest.raises(InternalInvariantError, match=r"triangle \(\d+, \d+, \d+\) contains vertex \d+$") as err:
            Triangulation(ps, tris)
        *corners, w = map(int, re.findall(r"\d+", str(err.value)))
        assert triangle_key(*corners) in tris and point_in_triangle(ps, *corners, w)

    def test_repeated_corner_is_rejected(self):
        # (0, 0, 0) in place of the hull face (0, 1, 2) trades the edge (0, 1)
        # for the loop (0, 0), so the edge count still matches; the loop's
        # three apexes fail the incidence test
        t = random_triangulation(7, 2)
        tris = t.triangles - {(0, 1, 2)} | {(0, 0, 0)}
        assert len(tris) == len(t.triangles)
        with pytest.raises(InternalInvariantError, match=r"^edge \(0, 0\) lies in 3 triangles, expected 2$"):
            Triangulation(t.ps, tris)

    def test_crossing_edges_are_named(self, monkeypatch):
        # with the counts right, a crossing comes with a vertex inside a
        # triangle, which the emptiness scan reports first; switch that scan
        # off to reach the crossing scan behind it
        ps, tris = illegal_flip()
        monkeypatch.setattr(triangulation, "point_in_triangle", lambda *args: False)
        with pytest.raises(InternalInvariantError) as err:
            Triangulation(ps, tris)
        es = sorted({e for (a, b, c) in tris for e in ((a, b), (b, c), (a, c))})
        e, f = next((e, f) for i, e in enumerate(es) for f in es[i + 1:]
                    if geometry.segments_properly_cross(ps, *e, *f))
        assert str(err.value) == f"edges {e} and {f} cross"

    def test_valid_triangulation_costs_linear_orientation_tests(self, monkeypatch):
        ps = random_general_position(200, seed=5, span=10 ** 6)
        t = triangulate(ps)
        fresh = PointSet([p.coords() for p in ps])  # hull not cached yet
        calls = [0]
        real = geometry.cross

        def counting(*args):
            calls[0] += 1
            return real(*args)

        def full_scan(*args):
            raise AssertionError("a valid triangulation reached the full scan")

        monkeypatch.setattr(geometry, "cross", counting)
        monkeypatch.setattr(triangulation, "cross", counting)
        monkeypatch.setattr(triangulation, "crossing_pairs", full_scan)
        Triangulation(fresh, t.triangles)
        # two orientation tests per interior edge, plus the monotone-chain hull
        assert calls[0] <= 2 * len(t.edges) + 4 * len(ps)


def assert_same_triangulation(got: Triangulation, want: Triangulation) -> None:
    """Equal faces, edges, apexes, adjacency and hull."""
    assert got.triangles == want.triangles and got.edges == want.edges
    assert got.hull == want.hull and got.ps.hull_edges() == want.ps.hull_edges()
    assert {e: got.opposites(e) for e in got.edges} == {e: want.opposites(e) for e in want.edges}
    n = len(want.ps)
    assert [got.neighbors(v) for v in range(n)] == [want.neighbors(v) for v in range(n)]


def scaled(t: Triangulation, k: int) -> Triangulation:
    return Triangulation(PointSet([(k * p.x, k * p.y) for p in t.ps]), t.triangles)


def point_in_face(ps: PointSet, tri) -> PointSet | None:
    """ps extended by a point strictly inside triangle tri, in general position."""
    cx, cy = (sum(ps[v].x for v in tri) // 3, sum(ps[v].y for v in tri) // 3)
    for dx, dy in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 2), (-2, 1), (2, -1)):
        try:
            new_ps = ps.extended([(cx + dx, cy + dy)])
        except PreconditionError:
            continue
        if point_in_triangle(new_ps, *tri, len(ps)):
            return new_ps
    return None


class TestSplit:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_full_constructor_in_every_face(self, seed):
        t = scaled(random_triangulation(6 + seed, seed), 30)
        s = len(t.ps)
        split_faces = 0
        for tri in sorted(t.triangles):
            new_ps = point_in_face(t.ps, tri)
            if new_ps is None:
                continue
            got = t.split(new_ps, s)
            a, b, c = tri
            want = Triangulation(new_ps, (t.triangles - {tri})
                                 | {triangle_key(s, a, b), triangle_key(s, b, c), triangle_key(s, a, c)})
            assert_same_triangulation(got, want)
            # the original is left as it was
            assert len(t.ps) == s and s not in set().union(*(t.neighbors(v) for v in tri))
            split_faces += 1
        assert split_faces == len(t.triangles)

    def test_point_outside_the_hull_rejected(self):
        t = random_triangulation(8, 2)
        far = max(max(abs(p.x), abs(p.y)) for p in t.ps) * 3
        with pytest.raises(PreconditionError, match="lies in no triangle"):
            t.split(t.ps.extended([(far, far + 1)]), len(t.ps))

    def test_wrong_face_is_an_internal_error(self, monkeypatch):
        # splitting a face that does not hold s leaves s inside the face that
        # does, and the scans name a vertex inside a triangle of the result
        t = scaled(random_triangulation(9, 2), 30)
        s = len(t.ps)
        tri = min(t.triangles)
        new_ps = point_in_face(t.ps, tri)
        for wrong in sorted(t.triangles - {tri}):
            monkeypatch.setattr(Triangulation, "locate", lambda self, p: wrong)
            with pytest.raises(InternalInvariantError,
                               match=r"^triangle \(\d+, \d+, \d+\) contains vertex \d+$") as err:
                t.split(new_ps, s)
            *corners, w = map(int, re.findall(r"\d+", str(err.value)))
            assert point_in_triangle(new_ps, *corners, w)

    def test_point_set_must_extend_by_one_point(self):
        t = scaled(random_triangulation(8, 4), 30)
        tri = min(t.triangles)
        inside = point_in_face(t.ps, tri)
        n = len(t.ps)
        moved = PointSet([(p.x + 1, p.y) for p in t.ps] + [inside[n].coords()])
        cases = [(moved, n), (inside, n - 1), (t.ps, n)]
        cases.append((inside.extended([(inside[n].x + 1, inside[n].y + 3)]), n))
        for new_ps, s in cases:
            with pytest.raises(PreconditionError, match="does not extend"):
                t.split(new_ps, s)


def shuffled(t: Triangulation, seed: int, k: int = 30) -> Triangulation:
    """t scaled by k, with its vertex ids permuted by a seeded shuffle."""
    order = list(range(len(t.ps)))
    random.Random(seed).shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    ps = PointSet([(k * t.ps[old].x, k * t.ps[old].y) for old in order])
    return Triangulation(ps, [[new_id[v] for v in tri] for tri in t.triangles])


def located(locate, t: Triangulation, s) -> tuple[int, int, int] | str:
    try:
        return locate(t, s)
    except PreconditionError as exc:
        return str(exc)


def exterior_points(t: Triangulation):
    """Points in general position with t's vertices, outside its hull: each
    hull edge's apex reflected through the edge's midpoint, and points on a
    wide circle."""
    ps, pts = t.ps, []
    for (a, b) in sorted(t.ps.hull_edges()):
        (c,) = t.opposites((a, b))
        pts.append((ps[a].x + ps[b].x - ps[c].x, ps[a].y + ps[b].y - ps[c].y))
    far = 3 * max(max(abs(p.x), abs(p.y)) for p in ps)
    pts += [(round(far * math.cos(k)), round(far * math.sin(k))) for k in range(8)]
    for coords in pts:
        try:
            ps.extended([coords])
        except PreconditionError:
            continue
        yield coords


class TestLocate:
    """The straight walk from vertex n - 1 returns the triangle that the scan
    of every triangle finds, or raises what it raises."""

    SEEDS = range(10)

    @staticmethod
    def case(seed: int) -> Triangulation:
        return shuffled(random_triangulation(random.Random(seed).randint(10, 60), seed), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_the_scan_inside_every_triangle_and_outside(self, seed):
        t = self.case(seed)
        n = len(t.ps)
        inside = 0
        for tri in sorted(t.triangles):
            new_ps = point_in_face(t.ps, tri)
            if new_ps is None:
                continue
            s = (new_ps.xs[n], new_ps.ys[n])
            assert located(Triangulation.locate, t, s) == ref_locate(t, s) == tri
            inside += 1
        assert inside >= len(t.triangles) - 2
        outside = [located(Triangulation.locate, t, s) for s in exterior_points(t)]
        assert len(outside) >= len(t.hull)
        assert outside == [located(ref_locate, t, s) for s in exterior_points(t)]
        assert set(outside) == {f"point {s} lies in no triangle"
                                for s in exterior_points(t)}

    def test_walks_start_at_interior_and_hull_vertices(self):
        starts = [len(t.ps) - 1 in set(t.hull) for t in map(self.case, self.SEEDS)]
        assert True in starts and False in starts

    def test_collinear_query_is_a_precondition(self):
        t = shuffled(random_triangulation(12, 3), 3, k=2)
        ps, q = t.ps, len(t.ps) - 1
        e = next(e for e in sorted(t.edges - t.ps.hull_edges()) if q not in e)
        v = min(t.neighbors(q))
        on_edge = ((ps[e[0]].x + ps[e[1]].x) // 2, (ps[e[0]].y + ps[e[1]].y) // 2)
        # q's neighbour v on the segment from q to the query
        behind_v = (2 * ps[v].x - ps[q].x, 2 * ps[v].y - ps[q].y)
        for s in (ps[q].coords(), ps[v].coords(), on_edge, behind_v):
            with pytest.raises(PreconditionError, match=r"is collinear with vertices \d+ and \d+$"):
                t.locate(s)

    def test_vertex_on_the_way_is_a_precondition(self):
        t = shuffled(random_triangulation(12, 3), 3, k=2)
        ps, q = t.ps, len(t.ps) - 1
        for z in sorted(set(range(q)) - t.neighbors(q)):
            # z lies on the segment from q to s, and the walk meets it there
            s = (2 * ps[z].x - ps[q].x, 2 * ps[z].y - ps[q].y)
            with pytest.raises(PreconditionError) as err:
                t.locate(s)
            assert str(err.value) == f"point {s} is collinear with vertices {q} and {z}"


class TestLocalFlip:
    """`flip` patches the maps in place of `ref_flip`'s full rebuild."""

    @pytest.mark.parametrize("seed", range(8))
    def test_every_edge_matches_the_rebuild(self, seed):
        t = shuffled(random_triangulation(random.Random(seed).randint(10, 40), seed), seed)
        before = Triangulation(t.ps, t.triangles)
        n = len(t.ps)
        flipped_edges = refused = 0
        for e in sorted(t.edges) + [(0, v) for v in range(1, n) if (0, v) not in t.edges]:
            if is_flippable(t, e):
                assert_same_triangulation(flip(t, e), ref_flip(t, e))
                flipped_edges += 1
                continue
            with pytest.raises(PreconditionError) as got:
                flip(t, e)
            with pytest.raises(PreconditionError) as want:
                ref_flip(t, e)
            assert str(got.value) == str(want.value) == f"edge {e} is not flippable"
            refused += 1
        assert flipped_edges and refused > len(t.hull)
        assert_same_triangulation(t, before)

    def test_flip_sequences_match_the_rebuild(self):
        for seed in range(4):
            t = want = shuffled(random_triangulation(20, seed), seed)
            rng = random.Random(seed)
            for _ in range(60):
                e = rng.choice(sorted(f for f in t.edges if is_flippable(t, f)))
                t, want = flip(t, e), ref_flip(want, e)
            assert_same_triangulation(t, want)

    def test_broken_certificate_is_an_internal_error(self, monkeypatch):
        t = random_triangulation(9, seed=2)
        e = reflex_diagonal(t)
        monkeypatch.setattr(triangulation, "is_flippable", lambda *args: True)
        with pytest.raises(InternalInvariantError, match=r"^triangle \(\d+, \d+, \d+\) contains vertex \d+$"):
            flip(t, e)


VIEWS = {"edges", "triangles"}


def assert_views(t: Triangulation) -> None:
    """t's edge and face views, read now, are the empty 3-cycles of its
    edges and what `Triangulation` rebuilds from its faces; each is cached."""
    assert t.triangles == bf_faces_of(t.ps, t.edges)
    want = Triangulation(t.ps, t.triangles)
    assert t.edges == want.edges and t.triangles == want.triangles
    assert vars(t)["edges"] is t.edges and vars(t)["triangles"] is t.triangles


class TestLazyViews:
    """`edges` and `triangles` are read from the apex map on first use.  Each
    walk derives every value before it reads any view, so the views are read
    from maps that later flips, splits and restrictions have copied."""

    @pytest.mark.parametrize("seed", range(4))
    def test_flip_and_split_walks(self, seed):
        t = scaled(shuffled(random_triangulation(12 + 4 * seed, seed), seed), 30)
        rng = random.Random(seed)
        walk = [t]
        splits = 0
        for _ in range(40):
            n = len(t.ps)
            sides = [(u, v) for u in range(n) for v in sorted(t.neighbors(u)) if u < v]
            u, v = rng.choice(sides)
            tri = triangle_key(u, v, t.opposites((u, v))[0])
            new_ps = point_in_face(t.ps, tri) if rng.random() < 0.3 else None
            if new_ps is not None:
                t = t.split(new_ps, n)
                splits += 1
            else:
                t = flip(t, rng.choice([e for e in sides if is_flippable(t, e)]))
            assert not VIEWS & vars(t).keys()
            walk.append(t)
        assert splits
        for t in walk:
            assert_views(t)

    def test_restricted_peel_levels(self, monkeypatch):
        # the keep lists of the `TestRandomPeelPin` peels, replayed on fresh
        # inputs: every level is derived before any view of the chain is read
        restricted, keeps = Triangulation.restricted, []

        def recorded(t, keep):
            keeps[-1].append(keep)
            return restricted(t, keep)

        monkeypatch.setattr(Triangulation, "restricted", recorded)
        inputs = [(n, seed) for n in range(6, 31) for seed in range(10)]
        for n, seed in inputs:
            keeps.append([])
            try:
                augment_to_4conn(random_triangulation(n, seed))
            except BiplaneError:
                pass
        monkeypatch.undo()
        levels = 0
        for (n, seed), chain in zip(inputs, keeps):
            walk = [random_triangulation(n, seed)]
            for keep in chain:
                walk.append(walk[-1].restricted(keep))
                assert not VIEWS & vars(walk[-1]).keys()
            for t in walk:
                assert_views(t)
            levels += len(chain)
        assert levels > 250
