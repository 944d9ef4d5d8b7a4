import math
import random

import pytest

from biplane.connectivity import kappa_of, verify_layering
from biplane.errors import PreconditionError
from biplane.generators import generate_fan, random_triangulation
from biplane.geometry import segments_properly_cross
from biplane.layered import BOTH, LAYER1, LAYER2, LayeredGraph
from biplane.treeaug import RootedTreeIndex, _leaf_pairing, build_cell_tree, min_augment_3conn
from biplane.triangulation import edge_key

from conftest import chordful_triangulation
from oracles import bf_two_edge_connected, bf_vertex_connectivity


def naive_lca(index: RootedTreeIndex, u: int, v: int) -> int:
    ancestors = set()
    x = u
    while x is not None:
        ancestors.add(x)
        x = index.parent[x]
    x = v
    while x not in ancestors:
        x = index.parent[x]
    return x


class TestLca:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_on_random_trees(self, seed):
        rng = random.Random(seed)
        n = 50 + 30 * seed  # up to 200
        adjacency = {0: set()}
        for v in range(1, n):
            p = rng.randrange(v)
            adjacency.setdefault(v, set()).add(p)
            adjacency[p].add(v)
        index = RootedTreeIndex(adjacency, 0)
        for _ in range(400):
            u, v = rng.randrange(n), rng.randrange(n)
            assert index.lca(u, v) == naive_lca(index, u, v)

    def test_depth_and_ancestry(self):
        adjacency = {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: {1, 4}, 4: {3}}
        index = RootedTreeIndex(adjacency, 0)
        assert index.depth[4] == 3

    @pytest.mark.parametrize("adjacency", [
        {0: {1, 2}, 1: {0, 2}, 2: {0, 1}},
        {0: {1}, 1: {0, 1}},
        {0: {1}, 1: {0}, 2: {3}, 3: {2}},
    ], ids=["triangle", "self-loop", "disconnected"])
    def test_rejects_a_graph_that_is_not_a_tree(self, adjacency):
        with pytest.raises(PreconditionError, match="^adjacency is not a connected tree$"):
            RootedTreeIndex(adjacency, 0)


def random_tree(rng: random.Random, k: int) -> dict[int, set[int]]:
    """Tree on 0..k-1 in which node v hangs from one of the `span` nodes
    before it: span 2 gives long paths, a large span a bushy tree."""
    span = rng.choice([2, 3, 5, k])
    adjacency: dict[int, set[int]] = {v: set() for v in range(k)}
    for v in range(1, k):
        p = rng.randrange(max(0, v - span), v)
        adjacency[v].add(p)
        adjacency[p].add(v)
    return adjacency


def interleave(pos: dict[int, int], e: tuple[int, int], f: tuple[int, int]) -> bool:
    if set(e) & set(f):
        return False
    lo, hi = sorted((pos[e[0]], pos[e[1]]))
    return (lo < pos[f[0]] < hi) != (lo < pos[f[1]] < hi)


class TestLeafPairing:
    def test_random_trees_in_random_leaf_order(self):
        """One root, the smallest leaf, always pairs the leaves: whatever
        the tree and the ring order, ceil(m/2) pairwise noncrossing pairs
        put every tree edge on a cycle."""
        rng = random.Random(22)
        sizes = []
        while len(sizes) < 240:
            adjacency = random_tree(rng, rng.randint(2, 70))
            cyclic = [v for v in adjacency if len(adjacency[v]) == 1]
            if len(cyclic) > 40:
                continue
            rng.shuffle(cyclic)
            m, k = len(cyclic), len(adjacency)
            pairs = _leaf_pairing(adjacency, cyclic)
            assert len(pairs) == math.ceil(m / 2)
            assert {v for pair in pairs for v in pair} == set(cyclic)
            pos = {v: i for i, v in enumerate(cyclic)}
            assert not any(interleave(pos, e, f) for i, e in enumerate(pairs) for f in pairs[i + 1:])
            # pair i runs through its own virtual node k + i, so a pair
            # parallel to a tree edge still closes a cycle
            tree_edges = [(u, v) for u in adjacency for v in adjacency[u] if u < v]
            paths = [e for i, (a, b) in enumerate(pairs) for e in ((a, k + i), (k + i, b))]
            assert bf_two_edge_connected(k + len(pairs), tree_edges + paths), (adjacency, cyclic)
            sizes.append(m)
        assert min(sizes) == 2 and max(sizes) >= 35


class TestCellTree:
    def test_no_chords_single_cell(self):
        t = random_triangulation(7, 1)
        if t.chords():
            pytest.skip("sampled triangulation has chords")
        ct = build_cell_tree(t)
        assert len(ct.adjacency) == 1 and not ct.leaves

    def test_fan_triangulation_has_two_ear_leaves(self):
        t = generate_fan(7)
        ct = build_cell_tree(t)
        assert len(ct.leaves) == 2
        for leaf in ct.leaves:
            assert len(leaf.members) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_leaf_count_bound_and_disjointness(self, seed):
        n = 7 + seed % 7
        t = chordful_triangulation(n, seed)
        ct = build_cell_tree(t)
        assert len(ct.leaves) <= n // 2
        inner_sets = [leaf.inner_members for leaf in ct.leaves]
        for i in range(len(inner_sets)):
            for j in range(i + 1, len(inner_sets)):
                assert not inner_sets[i] & inner_sets[j]


class TestMinAugment3Conn:
    def test_added_edge_already_in_t_is_in_both_layers(self):
        t = generate_fan(6)
        assert (0, 1) in t.edges
        g = LayeredGraph(t.ps, t.edges, [(1, 0)])
        assert g.layers[(0, 1)] == BOTH
        assert g.layer_edges(LAYER1) == t.edges
        assert g.layer_edges(LAYER2) == {(0, 1)}

    def test_three_points_are_a_precondition(self):
        # a triangle is at most 2-connected, and no edge can be added to it
        for seed in range(30):
            t = random_triangulation(3, seed)
            assert kappa_of(t) == 2
            with pytest.raises(PreconditionError, match="^3-connectivity needs at least 4 points$"):
                min_augment_3conn(t)

    def test_already_3_connected_yields_empty(self):
        for seed in range(30):
            t = random_triangulation(8, seed)
            if kappa_of(t) >= 3:
                assert min_augment_3conn(t) == frozenset()
                return
        pytest.skip("no 3-connected instance sampled")

    @pytest.mark.parametrize("seed", range(20))
    def test_count_bound_kappa_and_chord_coverage(self, seed):
        n = 6 + seed % 9
        t = chordful_triangulation(n, seed)
        ct = build_cell_tree(t)
        extra = min_augment_3conn(t)
        m = len(ct.leaves)
        assert len(extra) == math.ceil(m / 2)
        assert len(extra) <= (n + 2) // 4
        g = LayeredGraph(t.ps, t.edges, extra)
        assert verify_layering(g)
        assert kappa_of(g) >= 3
        ps = t.ps
        for chord in t.chords():
            assert any(segments_properly_cross(ps, *chord, u, v)
                       for (u, v) in extra), f"chord {chord} uncrossed"

    @pytest.mark.parametrize("t", [generate_fan(4), random_triangulation(7, 0)],
                             ids=["fan4", "random7"])
    def test_single_chord(self, t):
        """One chord gives two leaf cells, so the one leaf pair is parallel
        to the only cell-tree edge and must still count as a cycle."""
        assert len(t.chords()) == 1
        extra = min_augment_3conn(t)
        assert len(extra) == 1
        assert bf_vertex_connectivity(len(t.ps), set(t.edges) | extra) >= 3

    @pytest.mark.parametrize("seed", range(8))
    def test_minimality_exhaustive(self, seed):
        n = 8 + seed % 3
        t = chordful_triangulation(n, seed + 50)
        extra = min_augment_3conn(t)
        if not extra:
            pytest.skip("already 3-connected")
        from itertools import combinations
        candidates = [edge_key(u, v) for u in range(n) for v in range(u + 1, n)
                      if edge_key(u, v) not in t.edges]
        for smaller in combinations(candidates, len(extra) - 1):
            assert bf_vertex_connectivity(n, set(t.edges) | set(smaller)) < 3
