import hashlib
import random
import re
import time
from itertools import combinations

import pytest

from biplane.augment import augment_to_4conn
from biplane.connectivity import (augmentation_violations, check_4conn_augmentation,
                                  compute_layering, crossing_conflict_graph, cut_structures,
                                  kappa_of,
                                  min_vertex_cut, verify_layering, vertex_connectivity)
from biplane.convex import build_4conn_convex, build_5conn_convex
from biplane.errors import ImpossibleError, PreconditionError
from biplane.geometry import PointSet, segments_properly_cross
from biplane.generators import (generate_fan, generate_no5conn_counterexample,
                                generate_wheel, random_general_position,
                                random_triangulation, regular_polygon_points)
from biplane.layered import LAYER1, LAYER2, LayeredGraph
from biplane.treeaug import min_augment_3conn
from biplane.triangulation import edge_key, triangulate, triangulation_from_edges

from conftest import chordful_triangulation, greedy_biplane
from oracles import (bf_vertex_connectivity, ref_augmentation_violations, ref_cut_structures,
                     ref_segments_properly_cross, ref_vertex_connectivity)


def random_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


class TestVertexConnectivity:
    # a bad edge is named as a sorted pair, however it is given
    @pytest.mark.parametrize("edge,named", [((0, 0), (0, 0)), ((1, 3), (1, 3)), ((3, 1), (1, 3)),
                                            ((-1, 2), (-1, 2))])
    def test_bad_edge_rejected(self, edge, named):
        with pytest.raises(PreconditionError, match=re.escape(f"bad edge {named}")):
            vertex_connectivity(3, [(0, 1), edge])

    def test_complete_graph(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert vertex_connectivity(5, edges) == 4

    def test_fan_is_2_connected(self):
        t = generate_fan(6)
        assert kappa_of(t) == 2

    def test_wheel_is_3_connected(self):
        t = generate_wheel(7)
        assert kappa_of(t) == 3

    def test_path_is_1_connected(self):
        assert vertex_connectivity(4, [(0, 1), (1, 2), (2, 3)]) == 1

    def test_disconnected_is_0(self):
        assert vertex_connectivity(4, [(0, 1), (2, 3)]) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        n = 4 + seed % 5
        edges = random_graph(n, seed, p=0.45 + 0.05 * (seed % 3))
        assert vertex_connectivity(n, edges) == bf_vertex_connectivity(n, edges)


def relabelled(n, edges, seed):
    """The same graph under a seeded random permutation of its labels."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return [(label[u], label[v]) for u, v in edges]


def kappa_inputs():
    """(name, n, edges) for the flow differential: graphs past the reach of
    the subset enumeration, with kappa from 0 to n - 1.  The convex builds
    come in hull order, where breadth-first order follows the hull cycle,
    and at n >= 120 also with shuffled labels."""
    for n in (30, 60, 120, 200):
        ps = regular_polygon_points(n)
        for name, g in (("convex5", build_5conn_convex(ps)), ("convex4", build_4conn_convex(ps))):
            yield f"{name}-{n}", n, g.edges()
            if n >= 120:
                yield f"{name}-{n}-shuffled", n, relabelled(n, g.edges(), n)
    for n, seed in ((10, 0), (16, 1), (24, 2), (32, 3), (40, 4)):
        t = random_triangulation(n, seed)
        yield f"random-{n}", n, t.edges
        yield f"random-{n}+3", n, t.edges | min_augment_3conn(t)
        yield f"random-{n}+4", n, t.edges | augment_to_4conn(t)
        yield f"union-{n}", n, t.edges | random_triangulation(n, seed + 100).edges
    for k in range(2, 13):
        t = generate_no5conn_counterexample(k)
        yield f"no5conn-{k}", len(t.ps), t.edges
    for n in (5, 9, 16):
        yield f"wheel-{n}", n, generate_wheel(n).edges
        yield f"fan-{n}", n, generate_fan(n).edges
    for n, seed in ((12, 0), (20, 1), (30, 2)):
        half = n // 2
        left = random_graph(half, seed, p=0.6)
        right = random_graph(n - half, seed + 1, p=0.6)
        yield f"disconnected-{n}", n, left + [(u + half, v + half) for u, v in right]
    yield "isolated-vertex", 12, random_graph(11, 5, p=0.8)
    for n in (2, 3, 6, 10):
        yield f"complete-{n}", n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    for n, seed in ((20, 0), (30, 1), (40, 2)):
        yield f"dense-{n}", n, random_graph(n, seed, p=0.4)


KAPPA_INPUTS = list(kappa_inputs())


class TestVertexConnectivityAgainstReference:
    """Even's schedule of seeded flows against a fresh network per vertex pair."""

    @pytest.mark.parametrize("name,n,edges", KAPPA_INPUTS,
                             ids=[name for name, _, _ in KAPPA_INPUTS])
    def test_matches(self, name, n, edges):
        assert vertex_connectivity(n, edges) == ref_vertex_connectivity(n, edges)

    def test_inputs_span_every_small_kappa(self):
        kappas = {vertex_connectivity(n, edges) for _, n, edges in KAPPA_INPUTS}
        assert set(range(6)) <= kappas


def small_random_graphs(block, count=60):
    """Seeded graphs on 2-9 vertices with densities spread over (0, 1)."""
    for seed in range(block * count, (block + 1) * count):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        p = rng.random()
        yield n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def pocket_graph(seed):
    """A dense core of 8-30 vertices and a clique of 2-4 pocket vertices, each
    joined to the same k = 1-5 core vertices, with labels shuffled.  Half of
    the graphs cut one core vertex outside the cut down to the pocket degree,
    so that it can be the minimum-degree vertex while the pocket is a
    two-vertex side of a minimum cut.  Returns (n, edges, pocket vertices)."""
    rng = random.Random(seed)
    core = rng.randint(8, 30)
    q = rng.randint(2, 4)
    k = rng.randint(1, 5)
    p = rng.uniform(0.5, 0.95)
    n = core + q
    edges = [(u, v) for u in range(core) for v in range(u + 1, core) if rng.random() < p]
    edges += [(u, v) for u in range(core, n) for v in range(u + 1, n)]
    cut = rng.sample(range(core), k)
    edges += [(c, v) for c in cut for v in range(core, n)]
    if rng.random() < 0.5:
        x = rng.choice([v for v in range(core) if v not in cut])
        keep = rng.sample([v for v in range(core) if v != x], min(q + k - 1, core - 1))
        edges = [e for e in edges if x not in e] + [(x, v) for v in keep]
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[u], label[v]) for u, v in edges], {label[v] for v in range(core, n)}


def hub_graph(seed):
    """Two cliques A and B, h = 1-2 hubs joined to every clique vertex, and a
    vertex s joined to 2-(h + 2) vertices of each clique but to no hub, with
    labels shuffled.  s has the unique minimum degree, and {s} plus the hubs
    is the only minimum cut (kappa = h + 1): it holds s, and s has neighbours
    on both of its sides.  A flow from s never lowers best below h + 2.
    Returns (n, edges, s, hubs)."""
    rng = random.Random(seed)
    h = rng.randint(1, 2)
    ka, kb = rng.randint(2, h + 2), rng.randint(2, h + 2)
    size_a = rng.randint(ka + kb - h + 2, ka + kb - h + 6)
    size_b = rng.randint(ka + kb - h + 2, ka + kb - h + 6)
    a = list(range(h + 1, h + 1 + size_a))
    b = list(range(a[-1] + 1, a[-1] + 1 + size_b))
    n = b[-1] + 1
    edges = [(u, v) for clique in (a, b) for i, u in enumerate(clique) for v in clique[i + 1:]]
    edges += [(c, v) for c in range(1, h + 1) for v in a + b]
    edges += [(0, v) for v in rng.sample(a, ka) + rng.sample(b, kb)]
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[u], label[v]) for u, v in edges], label[0], {label[c] for c in range(1, h + 1)}


def random_regular_graph(n, d, seed, drop=0.0):
    """A seeded random d-regular simple graph on n vertices (n * d even),
    each edge then dropped with probability drop.  Stubs are paired at
    random, a pair that makes a loop or a repeated edge is redrawn, and a
    pairing that gets stuck starts over."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges = set()
        while stubs:
            for _ in range(50):
                i, j = rng.sample(range(len(stubs)), 2)
                e = (min(stubs[i], stubs[j]), max(stubs[i], stubs[j]))
                if e[0] != e[1] and e not in edges:
                    break
            else:
                break
            edges.add(e)
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            return [e for e in sorted(edges) if rng.random() >= drop]


# 3-regular; its last fan flow augments through a saturated vertex backwards
# (out-node to in-node), which the random corpora almost never do
REVERSE_SPLIT_GRAPH = (14, [(0, 1), (0, 8), (0, 10), (1, 3), (1, 5), (2, 3), (2, 9), (2, 10),
                            (3, 6), (4, 7), (4, 9), (4, 13), (5, 7), (5, 13), (6, 11), (6, 12),
                            (7, 13), (8, 9), (8, 12), (10, 11), (11, 12)])


def regular_graphs():
    """(n, edges): 200 seeded random d-regular graphs on 8-40 vertices for
    each d in 3, 4, 5, every third with about 10% of its edges dropped.  Some
    of their flows augment along residual paths that undo flow on an edge."""
    for d in (3, 4, 5):
        for seed in range(200):
            n = random.Random(seed * 7 + d).randrange(8, 41)
            n += n * d % 2
            yield n, random_regular_graph(n, d, seed, 0.1 if seed % 3 == 2 else 0.0)


REGULAR_GRAPHS = list(regular_graphs()) + [REVERSE_SPLIT_GRAPH]


def assert_cut_certifies(n, edges, kappa, cut):
    """|cut| = kappa and removing it disconnects the graph, or, for a
    complete graph, leaves a single vertex."""
    assert len(cut) == kappa == len(set(cut))
    if kappa == n - 1:
        assert len(edges) == n * (n - 1) // 2
    else:
        assert disconnected_after_removal(n, edges, cut)


class TestVertexConnectivityFuzz:
    """Seeded differential tests of the flow kernel and its cut certificate."""

    @pytest.mark.parametrize("block", range(10))
    def test_small_graphs_match_bruteforce(self, block):
        for n, edges in small_random_graphs(block):
            kappa, cut = min_vertex_cut(n, edges)
            assert kappa == bf_vertex_connectivity(n, edges), (n, edges)
            assert_cut_certifies(n, edges, kappa, cut)

    @pytest.mark.parametrize("block", range(10))
    def test_pocket_graphs_match_reference(self, block):
        for seed in range(block * 30, (block + 1) * 30):
            n, edges, _ = pocket_graph(seed)
            kappa, cut = min_vertex_cut(n, edges)
            assert kappa == ref_vertex_connectivity(n, edges), seed
            assert_cut_certifies(n, edges, kappa, cut)

    def test_pocket_family_reaches_the_tight_case(self):
        """Some pocket graphs have kappa < delta, a minimum-degree vertex s
        outside the pocket and a pocket of exactly delta + 1 - kappa = 2
        vertices: the smallest side that a minimum cut can leave away from
        s, which only a fan flow from a pocket vertex finds."""
        tight = 0
        for seed in range(300):
            n, edges, pocket = pocket_graph(seed)
            degree = [0] * n
            for (u, v) in edges:
                degree[u] += 1
                degree[v] += 1
            s = min(range(n), key=lambda v: (degree[v], v))
            kappa = vertex_connectivity(n, edges)
            if kappa < degree[s] and s not in pocket and len(pocket) == 2 == degree[s] + 1 - kappa:
                tight += 1
        assert tight >= 10

    @pytest.mark.parametrize("seed", range(40))
    def test_cut_through_the_minimum_degree_vertex(self, seed):
        """Every minimum cut holds s, so only the flows between neighbours
        of s can find it."""
        n, edges, _, _ = hub_graph(seed)
        kappa, cut = min_vertex_cut(n, edges)
        assert kappa == bf_vertex_connectivity(n, edges) == ref_vertex_connectivity(n, edges)
        assert_cut_certifies(n, edges, kappa, cut)

    def test_hub_family_has_only_cuts_through_s(self):
        for seed in range(40):
            n, edges, s, hubs = hub_graph(seed)
            degree = [0] * n
            for (u, v) in edges:
                degree[u] += 1
                degree[v] += 1
            assert min(range(n), key=lambda v: (degree[v], v)) == s
            assert sorted(degree)[0] < sorted(degree)[1]
            kappa = len(hubs) + 1
            cuts = [c for c in combinations(range(n), kappa)
                    if disconnected_after_removal(n, edges, c)]
            assert cuts == [tuple(sorted(hubs | {s}))], seed
            assert bf_vertex_connectivity(n, edges) == kappa < degree[s]
            # N(s) meets both sides: one neighbour of s, with the hubs and s
            # removed, does not reach another
            nbrs = [v for e in edges if s in e for v in e if v != s]
            side = reachable(n, edges, nbrs[0], hubs | {s})
            assert any(v not in side for v in nbrs)

    @pytest.mark.parametrize("name,n,edges", KAPPA_INPUTS,
                             ids=[name for name, _, _ in KAPPA_INPUTS])
    def test_cut_certifies_kappa(self, name, n, edges):
        assert_cut_certifies(n, edges, *min_vertex_cut(n, edges))

    @pytest.mark.parametrize("d", (3, 4, 5))
    def test_regular_graphs_match_reference(self, d):
        for n, edges in REGULAR_GRAPHS[(d - 3) * 200:(d - 2) * 200]:
            kappa, cut = min_vertex_cut(n, edges)
            assert kappa == ref_vertex_connectivity(n, edges), (n, edges)
            assert_cut_certifies(n, edges, kappa, cut)

    def test_reverse_split_graph(self):
        n, edges = REVERSE_SPLIT_GRAPH
        assert min_vertex_cut(n, edges) == (2, [1, 4])
        assert bf_vertex_connectivity(n, edges) == 2

    def test_cut_is_the_neighbourhood_when_kappa_is_the_minimum_degree(self):
        t = generate_wheel(7)
        assert min_vertex_cut(7, t.edges) == (3, sorted(t.neighbors(0)))


class TestMinVertexCutGolden:
    """sha256 of repr([min_vertex_cut(n, edges), ...]) over fixed corpora: a
    change to how the flows run must return the same kappa and the same cut.
    Every hub graph and most pocket graphs have kappa < delta, so their cuts
    come from the residual search.  The regular graphs are the corpus whose
    residual searches undo flow on an edge, and the last one undoes flow
    through a vertex."""

    CORPORA = {
        "kappa-inputs": (
            lambda: [(n, edges) for _, n, edges in KAPPA_INPUTS],
            "ec43cf55c29d87b05b98423ea4a9a3691e1ae6e8624c0dfe9b5dfdd7e08b7f05"),
        "pocket": (
            lambda: [pocket_graph(seed)[:2] for seed in range(300)],
            "b5693debb6332ff5ebf889b420223960b6c0c47b58dc69082c4229495c15d029"),
        "hub": (
            lambda: [hub_graph(seed)[:2] for seed in range(40)],
            "799be2d079d22cca0eac3fa70f4152aed5286f89307060f1808228ab82cbb44a"),
        "regular": (
            lambda: REGULAR_GRAPHS,
            "569c58d144efd0c632340bedcf9b7a5e344f6ef5109d5ed7bd7e6bb1d4a158ca"),
    }

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_digest(self, corpus):
        graphs, digest = self.CORPORA[corpus]
        got = repr([min_vertex_cut(n, edges) for n, edges in graphs()])
        assert hashlib.sha256(got.encode()).hexdigest() == digest


def labelling_inputs():
    """(name, n, edges): convex4, convex5 and no5conn graphs with n <= 60, in
    their own labels (hull order for the convex builds) and shuffled, and the
    pocket and hub graphs under a second shuffle.  The breadth-first order
    of the flows breaks ties by a scramble of the ids, so each labelling
    gives it another vertex order."""
    for n in (7, 12, 19, 33, 47, 60):
        ps = regular_polygon_points(n)
        for name, build in (("convex5", build_5conn_convex), ("convex4", build_4conn_convex)):
            if name == "convex5" and n < 14:
                continue
            edges = sorted(build(ps).edges())
            yield f"{name}-{n}", n, edges
            for seed in range(3):
                yield f"{name}-{n}-shuffled{seed}", n, relabelled(n, edges, seed)
    for k in range(2, 15):
        t = generate_no5conn_counterexample(k)
        n, edges = len(t.ps), sorted(t.edges)
        yield f"no5conn-{k}", n, edges
        yield f"no5conn-{k}-shuffled", n, relabelled(n, edges, k)
    for seed in range(0, 300, 10):
        n, edges, _ = pocket_graph(seed)
        yield f"pocket-{seed}-shuffled", n, relabelled(n, edges, seed)
    for seed in range(0, 40, 2):
        n, edges, _, _ = hub_graph(seed)
        yield f"hub-{seed}-shuffled", n, relabelled(n, edges, seed)


LABELLING_INPUTS = list(labelling_inputs())


class TestMinVertexCutLabellings:
    @pytest.mark.parametrize("name,n,edges", LABELLING_INPUTS,
                             ids=[name for name, _, _ in LABELLING_INPUTS])
    def test_matches_reference_and_cut_certifies(self, name, n, edges):
        kappa, cut = min_vertex_cut(n, edges)
        assert kappa == ref_vertex_connectivity(n, edges)
        assert_cut_certifies(n, edges, kappa, cut)

    def test_hull_order_costs_about_a_shuffled_order(self):
        """convex4 on a regular 2000-gon in hull order is a cycle plus two
        hubs.  With ties taken in ascending id, breadth-first order walks the
        cycle and each fan's last path walks the rest of it (31 times the
        shuffled time); scrambled ties keep the fans local."""
        n = 2000
        edges = sorted(build_4conn_convex(regular_polygon_points(n)).edges())
        shuffled = relabelled(n, edges, 1)
        times = {"hull": [], "shuffled": []}
        for _ in range(5):
            for label, es in (("hull", edges), ("shuffled", shuffled)):
                start = time.perf_counter()
                assert min_vertex_cut(n, es)[0] == 4
                times[label].append(time.perf_counter() - start)
        assert min(times["hull"]) <= 4 * min(times["shuffled"]), times


class TestConflictGraph:
    def test_plane_graph_no_conflicts(self):
        t = triangulate(random_general_position(8, seed=1))
        _, conflicts = crossing_conflict_graph(t.ps, sorted(t.edges))
        assert all(not c for c in conflicts)

    def test_two_crossing_diagonals(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        _, conflicts = crossing_conflict_graph(ps, [(0, 2), (1, 3)])
        assert conflicts[0] == {1} and conflicts[1] == {0}

    def test_k5_chords_form_pentagram_cycle(self):
        ps = regular_polygon_points(5)
        hull = list(ps.hull())
        chords = sorted(edge_key(hull[i], hull[(i + 2) % 5]) for i in range(5))
        _, conflicts = crossing_conflict_graph(ps, chords)
        assert sorted(len(c) for c in conflicts) == [2, 2, 2, 2, 2]


class TestComputeLayering:
    def test_k4_both_diagonals(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
        layers, odd = compute_layering(ps, edges)
        assert odd is None
        assert layers[(0, 2)] != layers[(1, 3)]

    def test_k5_is_not_layerable(self):
        ps = regular_polygon_points(5)
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        layers, odd = compute_layering(ps, edges)
        assert layers is None
        assert len(odd) % 2 == 1
        # certificate: consecutive edges of the cycle properly cross
        for i, e in enumerate(odd):
            f = odd[(i + 1) % len(odd)]
            assert segments_properly_cross(ps, *e, *f)

    def test_library_biplane_outputs_layerable(self):
        ps = random_general_position(9, seed=3)
        g = greedy_biplane(ps)
        layers, odd = compute_layering(ps, sorted(g.edges()))
        assert odd is None and layers is not None


class TestVerifyLayering:
    def test_plane_all_layer1(self):
        t = triangulate(random_general_position(7, seed=2))
        g = LayeredGraph(t.ps, t.edges, ())
        assert verify_layering(g)

    def test_crossing_same_layer(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = LayeredGraph(ps, [(0, 2), (1, 3)], ())
        assert not verify_layering(g)

    def test_crossing_split_layers(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = LayeredGraph(ps, [(0, 2)], [(1, 3)])
        assert verify_layering(g)

    def test_both_flag_counts_in_each_layer(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = LayeredGraph(ps, [(0, 2)], [(0, 2), (1, 3)])
        assert not verify_layering(g)

    def test_layer_edge_sets_are_computed_once(self):
        ps = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = LayeredGraph(ps, [(0, 1), (0, 2)], [(0, 2), (3, 1)])
        assert g.layer_edges(LAYER1) == {(0, 1), (0, 2)}
        assert g.layer_edges(LAYER2) == {(0, 2), (1, 3)}
        assert g.layer_edges(LAYER1) is g.layer_edges(LAYER1)


class TestCutStructures:
    def test_wheel_has_only_center_bichords(self):
        t = generate_wheel(8)
        rep = cut_structures(t)
        assert rep.chords == [] and rep.separating_triangles == []
        center = 7
        assert all(b.m == center for b in rep.bichords)
        # exactly the paths through the center between nonadjacent hull vertices
        hull = list(t.ps.hull())
        h = len(hull)
        nonadj = {tuple(sorted((hull[i], hull[j])))
                  for i in range(h) for j in range(i + 1, h)
                  if (j - i) % h not in (1, h - 1)}
        assert {(min(b.u, b.w), max(b.u, b.w)) for b in rep.bichords} == nonadj

    def test_convex_polygon_every_non_hull_edge_is_chord(self):
        t = triangulate(regular_polygon_points(8))
        rep = cut_structures(t)
        assert set(rep.chords) == set(t.edges) - t.ps.hull_edges()

    def test_too_small_rejected(self):
        t = triangulate(PointSet([(0, 0), (3, 1), (1, 3)]))
        with pytest.raises(PreconditionError):
            cut_structures(t)

    @pytest.mark.parametrize("seed", range(20))
    def test_characterizes_kappa(self, seed):
        n = 5 + seed % 5
        t = random_triangulation(n, seed)
        rep = cut_structures(t)
        kappa = kappa_of(t)
        assert (kappa >= 4) == (not (rep.chords or rep.bichords or rep.separating_triangles))
        assert (kappa == 2) == bool(rep.chords)
        # every reported structure is a genuine 3-or-2 cut
        for chord in rep.chords:
            assert disconnected_after_removal(len(t.ps), t.edges, chord)
        for triple in rep.cut_triples():
            assert disconnected_after_removal(len(t.ps), t.edges, triple)


def cut_structure_inputs():
    """Triangulations for the hull-position bichord rule and the 3-cycle
    rule: random ones at n = 6-40 and with a triangular hull, chordful convex
    ones, wheels, fans and the no5conn family."""
    cases = [(f"random-{n}", lambda n=n: random_triangulation(n, 1000 + n)) for n in range(6, 41)]
    cases += [(f"triangle-hull-{n}-{seed}", lambda n=n, seed=seed: random_triangulation(n, seed))
              for n, seed in ((5, 10), (6, 0), (7, 132), (8, 209), (9, 156), (11, 154))]
    cases += [(f"chordful-{n}-{seed}", lambda n=n, seed=seed: chordful_triangulation(n, seed))
              for n in (6, 9, 13) for seed in range(3)]
    cases += [(f"wheel-{n}", lambda n=n: generate_wheel(n)) for n in (5, 8, 11)]
    cases += [(f"fan-{n}", lambda n=n: generate_fan(n)) for n in (5, 8, 11)]
    cases += [(f"no5conn-{k}", lambda k=k: generate_no5conn_counterexample(k)) for k in (2, 3, 4)]
    return cases


class TestCutStructuresAgainstReference:
    @pytest.mark.parametrize("name,build", cut_structure_inputs(),
                             ids=[name for name, _ in cut_structure_inputs()])
    def test_full_report_matches(self, name, build):
        t = build()
        assert cut_structures(t) == ref_cut_structures(t)

    def test_inputs_reach_every_witness_rule(self):
        hull_middle = id_order_against_hull = separating = chords = triangle_hulls = 0
        for _, build in cut_structure_inputs():
            t = build()
            rep = cut_structures(t)
            pos = {v: i for i, v in enumerate(t.ps.hull())}
            hull_middle += sum(1 for b in rep.bichords if b.m in pos)
            # interior middle, u < w by id but w first in hull order
            id_order_against_hull += sum(1 for b in rep.bichords
                                         if b.m not in pos and pos[b.w] < pos[b.u])
            separating += len(rep.separating_triangles)
            chords += len(rep.chords)
            # the hull triangle has no point outside, so it never separates
            triangle_hulls += len(t.ps.hull()) == 3
        assert min(hull_middle, id_order_against_hull, separating, chords, triangle_hulls) > 0


def reachable(n, edges, root, removed) -> set[int]:
    adj = {v: set() for v in range(n) if v not in removed}
    for (u, v) in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = {root}
    stack = [root]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def disconnected_after_removal(n, edges, removed) -> bool:
    removed = set(removed)
    alive = [v for v in range(n) if v not in removed]
    return len(reachable(n, edges, alive[0], removed)) < len(alive)


class TestCheck4Conn:
    def test_k5_base_case_passes(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
        t = triangulate(ps)
        missing = [edge_key(u, v) for u in range(5) for v in range(u + 1, 5)
                   if edge_key(u, v) not in t.edges]
        assert len(missing) == 2
        ok, violations = check_4conn_augmentation(t, missing)
        assert ok, violations
        assert vertex_connectivity(5, set(t.edges) | set(missing)) == 4

    def test_empty_addition_fails_on_chord(self):
        t = triangulate(regular_polygon_points(8))
        ok, violations = check_4conn_augmentation(t, [])
        assert not ok and any("chord" in v for v in violations)

    def test_empty_addition_names_every_structure(self):
        # two chords, a bichord and a separating triangle, none crossed
        t = random_triangulation(6, 3)
        assert check_4conn_augmentation(t, []) == (False, [
            "chord (0, 3) crossed by 0 < 2 new edges",
            "chord (0, 4) crossed by 0 < 2 new edges",
            "bichord (0, 2, 3) not properly crossed",
            "separating triangle (0, 1, 3) not properly crossed"])

    def test_crossing_edges_that_share_a_vertex(self):
        # chord (0, 3) has two points on each side; both new edges cross it,
        # but they meet at 1, so removing 0, 3 and 1 still splits the union
        hull = [edge_key(i, (i + 1) % 6) for i in range(6)]
        t = triangulation_from_edges(regular_polygon_points(6), hull + [(0, 2), (0, 3), (3, 5)])
        assert check_4conn_augmentation(t, [(1, 4), (1, 5)]) == (False, [
            "chord (0, 3): no two nonadjacent crossing edges",
            "chord (3, 5) crossed by 1 < 2 new edges"])

    def test_bad_added_edge_is_a_precondition(self):
        t = random_triangulation(6, 3)
        for bad, named in (((2, 2), (2, 2)), ((1, 6), (1, 6)), ((6, 1), (1, 6))):
            with pytest.raises(PreconditionError, match=re.escape(f"bad edge {named}")):
                check_4conn_augmentation(t, [(0, 2), bad])

    def test_an_edge_of_t_crosses_nothing(self):
        t = random_triangulation(6, 3)
        assert check_4conn_augmentation(t, sorted(t.edges)) == check_4conn_augmentation(t, [])


def plane_absent_subset(t, rng) -> list:
    """A seeded plane set of vertex pairs that are not edges of t: the absent
    pairs in a shuffled order, each kept unless it crosses one kept before,
    until a drawn share of them has been tried."""
    pts = t.ps.points
    absent = [(u, v) for u, v in combinations(range(len(pts)), 2) if (u, v) not in t.edges]
    rng.shuffle(absent)
    kept = []
    for a, b in absent[:int(len(absent) * rng.random()) + 1]:
        if not any(ref_segments_properly_cross(pts[a], pts[b], pts[c], pts[d]) for c, d in kept):
            kept.append((a, b))
    return kept


class TestAugmentationViolationsOracle:
    """The walking check names the violations of the pairwise scan, in the
    same order, on augment's own edges (none) and on seeded plane sets of
    absent edges."""

    @staticmethod
    def cases():
        for seed in range(24):
            n = random.Random(seed).randint(6, 60)
            yield random_triangulation(n, seed)
            yield chordful_triangulation(n, seed)

    def test_matches_the_pairwise_scan(self):
        augmented = 0
        seen = set()
        for k, t in enumerate(self.cases()):
            report = cut_structures(t)
            try:
                added = augment_to_4conn(t)
            except ImpossibleError:
                added = None
            if added is not None:
                assert augmentation_violations(t, added, report) == [] \
                    == ref_augmentation_violations(t, added, report)
                augmented += 1
            rng = random.Random(k)
            for _ in range(3):
                extra = plane_absent_subset(t, rng)
                got = augmentation_violations(t, extra, report)
                assert got == ref_augmentation_violations(t, extra, report), (k, extra)
                seen.update(v.split()[0] + (" nonadjacent" if "nonadjacent" in v else "")
                            for v in got)
        assert augmented >= 40
        assert seen == {"chord", "chord nonadjacent", "bichord", "separating"}, seen
