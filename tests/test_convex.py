import math
import random
import sys

import pytest

from biplane.connectivity import (compute_layering, crossing_conflict_graph, kappa_of,
                                  verify_layering, vertex_connectivity)
from biplane.convex import (_fig1_trees, build_4conn_convex, build_5conn_convex,
                            find_hamiltonian_cycle)
from biplane.errors import ImpossibleError, PreconditionError
from biplane.generators import regular_polygon_points
from biplane.geometry import PointSet, is_convex_position, segments_properly_cross
from biplane.triangulation import edge_key

from oracles import (PlanarTriangulatedGraph, _hull_chord_conflicts, bfs_two_coloring,
                     grow_4conn_planar, octahedron, realize_hamiltonian_on_convex,
                     ref_hamiltonian_cycle, vertex_split)


class TestFig1Trees:
    @pytest.mark.parametrize("n", [12, 14, 15, 16, 17, 20, 23])
    def test_spanning_and_noncrossing(self, n):
        ps = regular_polygon_points(n)
        hull = ps.hull()
        for tree in _fig1_trees(n):
            assert len(tree) == n - 1
            cover = {v for e in tree for v in e}
            assert cover == set(range(n))
            lifted = [(hull[u], hull[v]) for (u, v) in tree]
            for i in range(len(lifted)):
                a, b = lifted[i]
                for j in range(i + 1, len(lifted)):
                    c, d = lifted[j]
                    assert not segments_properly_cross(ps, a, b, c, d)

    @pytest.mark.parametrize("n", [12, 14, 15, 18, 21])
    def test_exactly_two_shared_edges(self, n):
        t1, t2 = _fig1_trees(n)
        m = n // 2
        assert t1 & t2 == {edge_key(0, 1), edge_key(m, m + 1)}


class TestBuild5ConnConvex:
    @pytest.mark.parametrize("n", [12] + list(range(14, 25)))
    def test_kappa_exactly_5_and_biplane(self, n):
        g = build_5conn_convex(regular_polygon_points(n))
        assert verify_layering(g)
        assert kappa_of(g) == 5
        assert g.edge_count() <= 3 * n - 6  # planar as an abstract graph

    def test_rejects_13(self):
        with pytest.raises(ImpossibleError):
            build_5conn_convex(regular_polygon_points(13))

    @pytest.mark.parametrize("n", [5, 9, 11])
    def test_rejects_small(self, n):
        with pytest.raises(ImpossibleError):
            build_5conn_convex(regular_polygon_points(n))

    def test_rejects_nonconvex(self):
        base = regular_polygon_points(14)
        ps = PointSet([p.coords() for p in base] + [(1, 2)])
        with pytest.raises(PreconditionError):
            build_5conn_convex(ps)

    def test_works_on_irregular_convex_sets(self):
        import math
        import random
        rng = random.Random(17)
        coords = []
        for j in range(15):
            a = 2 * math.pi * (j + 0.2 + 0.5 * rng.random()) / 15
            coords.append((round(10 ** 6 * math.cos(a)), round(10 ** 6 * math.sin(a))))
        ps = PointSet(coords)
        assert len(ps.hull()) == 15
        g = build_5conn_convex(ps)
        assert kappa_of(g) == 5 and verify_layering(g)


class TestOctahedronGrowth:
    def test_octahedron_is_4_connected(self):
        g = octahedron()
        assert vertex_connectivity(6, g.edges) == 4
        assert len(g.edges) == 12 and len(g.faces) == 8

    def test_split_any_edge_preserves_4_connectivity(self):
        g = octahedron()
        for e in sorted(g.edges):
            g2 = vertex_split(g, e)
            assert g2.n == 7
            assert vertex_connectivity(7, g2.edges) == 4

    def test_split_new_vertex_degree_is_union_of_faces(self):
        g = octahedron()
        e = min(g.edges)
        f1, f2 = g.edge_faces[e]
        g2 = vertex_split(g, e)
        z_neighbors = {v for (u, v) in g2.edges if u == 6} | {u for (u, v) in g2.edges if v == 6}
        assert z_neighbors == set(f1) | set(f2)

    @pytest.mark.parametrize("n", [6, 7, 12, 40, 120])
    def test_split_patch_matches_a_rebuild_from_faces(self, n):
        g = grow_4conn_planar(n)
        for e in sorted(g.edges)[:10]:
            patched = vertex_split(g, e)
            rebuilt = PlanarTriangulatedGraph(patched.n, patched.faces)
            assert patched.edges == rebuilt.edges
            assert ({e: set(fs) for e, fs in patched.edge_faces.items()}
                    == {e: set(fs) for e, fs in rebuilt.edge_faces.items()})

    @pytest.mark.parametrize("n", range(6, 15))
    def test_growth_chain_stays_4_connected_planar(self, n):
        g = grow_4conn_planar(n)
        assert g.n == n
        assert vertex_connectivity(n, g.edges) == 4
        assert len(g.edges) <= 3 * n - 6


class TestHamiltonian:
    def test_fewer_than_3_vertices_rejected(self):
        with pytest.raises(PreconditionError, match="cycle needs n >= 3"):
            find_hamiltonian_cycle(2, [(0, 1)])

    @pytest.mark.parametrize("edge,named", [((0, 5), (0, 5)), ((2, -1), (-1, 2)), ((1, 1), (1, 1))])
    def test_bad_edge_rejected(self, edge, named):
        with pytest.raises(PreconditionError) as err:
            find_hamiltonian_cycle(3, [(0, 1), (1, 2), (0, 2), edge])
        assert str(err.value) == f"bad edge {named}"

    def test_octahedron_has_cycle(self):
        g = octahedron()
        cyc = find_hamiltonian_cycle(6, g.edges)
        assert sorted(cyc) == list(range(6))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert edge_key(a, b) in g.edges

    def test_plain_cycle_returns_itself(self):
        n = 7
        edges = [(i, (i + 1) % n) for i in range(n)]
        cyc = find_hamiltonian_cycle(n, edges)
        assert sorted(cyc) == list(range(n))

    @pytest.mark.parametrize("n", range(6, 15))
    def test_post_split_graphs_hamiltonian(self, n):
        g = grow_4conn_planar(n)
        cyc = find_hamiltonian_cycle(g.n, g.edges)
        assert sorted(cyc) == list(range(n))


    @pytest.mark.parametrize("n", range(6, 201))
    def test_same_cycle_as_full_rescan(self, n):
        # both searches also return the cycle that build_4conn_convex reads
        # off the split chain
        g = grow_4conn_planar(n)
        cycle = find_hamiltonian_cycle(n, g.edges)
        assert cycle == ref_hamiltonian_cycle(n, g.edges) == [0, 1, 2, *range(4, n), 3]

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # the path grows to 200 vertices, deeper than the whole allowed stack
        g = grow_4conn_planar(200)
        expected = ref_hamiltonian_cycle(200, g.edges)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            cycle = find_hamiltonian_cycle(200, g.edges)
        finally:
            sys.setrecursionlimit(limit)
        assert cycle == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_same_outcome_as_full_rescan(self, seed):
        for k in range(20):
            rng = random.Random(100 * seed + k)
            n = rng.randint(3, 10)
            p = rng.uniform(0.3, 0.8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            try:
                expected = ref_hamiltonian_cycle(n, edges)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    find_hamiltonian_cycle(n, edges)
            else:
                assert find_hamiltonian_cycle(n, edges) == expected


def jittered_circle(n: int, seed: int) -> PointSet:
    """n points at angles jittered by up to 0.3 of a step on a circle of
    radius 10^6, redrawn until they are in strictly convex position."""
    rng = random.Random(seed)
    while True:
        pts = [(round(10 ** 6 * math.cos(a)), round(10 ** 6 * math.sin(a)))
               for a in (2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / n for j in range(n))]
        try:
            ps = PointSet(pts)
        except PreconditionError:
            continue
        if is_convex_position(ps):
            return ps


def shuffled_jittered_circle(n: int, seed: int) -> PointSet:
    """jittered_circle(n, seed) with its point ids shuffled, so that hull
    positions and ids no longer agree."""
    coords = [p.coords() for p in jittered_circle(n, seed)]
    random.Random(seed).shuffle(coords)
    return PointSet(coords)


class TestHullChordConflicts:
    """Chords of a strictly convex set cross exactly when their ends
    interleave along the hull."""

    @pytest.mark.parametrize("n", range(6, 61))
    def test_random_chords_match_the_geometric_graph(self, n):
        ps = regular_polygon_points(n) if n % 2 else jittered_circle(n, n)
        rng = random.Random(n)
        chords = sorted(edge_key(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < 0.3)
        assert _hull_chord_conflicts(ps, chords) == crossing_conflict_graph(ps, chords)[1]

    @pytest.mark.parametrize("n", [120, 160, 200])
    def test_convex4_chords_on_jittered_circles(self, n):
        ps = jittered_circle(n, n)
        hull = ps.hull()
        cycle = {edge_key(hull[i], hull[i - 1]) for i in range(n)}
        chords = sorted(set(build_4conn_convex(ps).edges()) - cycle)
        conflicts = _hull_chord_conflicts(ps, chords)
        assert conflicts == crossing_conflict_graph(ps, chords)[1]
        assert compute_layering(ps, chords) == (bfs_two_coloring(chords, conflicts), None)


class TestRealize:
    def test_octahedron_on_hexagon(self):
        g = octahedron()
        cyc = find_hamiltonian_cycle(6, g.edges)
        lay = realize_hamiltonian_on_convex(g.edges, cyc, regular_polygon_points(6))
        assert verify_layering(lay)
        assert kappa_of(lay) == 4

    def test_cycle_realizes_in_single_layer(self):
        n = 8
        edges = [(i, (i + 1) % n) for i in range(n)]
        cyc = find_hamiltonian_cycle(n, edges)
        lay = realize_hamiltonian_on_convex(edges, cyc, regular_polygon_points(n))
        assert set(lay.layers.values()) == {1}

    def test_k5_rejected(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        cyc = [0, 1, 2, 3, 4]
        with pytest.raises(PreconditionError):
            realize_hamiltonian_on_convex(edges, cyc, regular_polygon_points(5))


class TestBuild4ConnConvex:
    @pytest.mark.parametrize("n", list(range(6, 14)))
    def test_kappa_exactly_4(self, n):
        g = build_4conn_convex(regular_polygon_points(n))
        assert kappa_of(g) == 4
        assert verify_layering(g)
        assert g.edge_count() <= 3 * n - 6

    @pytest.mark.parametrize("n", range(6, 201))
    def test_same_graph_as_the_searched_cycle(self, n):
        # the closed form against the split chain, realized through the
        # searched cycle and the breadth-first chord coloring
        g = grow_4conn_planar(n)
        cycle = find_hamiltonian_cycle(n, g.edges)
        for ps in (regular_polygon_points(n), shuffled_jittered_circle(n, n)):
            searched = realize_hamiltonian_on_convex(g.edges, cycle, ps)
            assert build_4conn_convex(ps).layers == searched.layers

    def test_both_layer_assignments_occur(self):
        # the chord at hull positions (0, 2) lies in layer 2 exactly when the
        # smallest chord by point ids is in the other fan pair, so both
        # outcomes of that choice are reached by the shuffled sets above
        outcomes = set()
        for n in range(6, 201):
            ps = shuffled_jittered_circle(n, n)
            hull = ps.hull()
            outcomes.add(build_4conn_convex(ps).layers[edge_key(hull[0], hull[2])])
        assert outcomes == {1, 2}

    def test_rejects_5(self):
        with pytest.raises(ImpossibleError):
            build_4conn_convex(regular_polygon_points(5))

    def test_n13_supported(self):
        g = build_4conn_convex(regular_polygon_points(13))
        assert kappa_of(g) == 4
