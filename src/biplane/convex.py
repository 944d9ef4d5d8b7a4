"""Explicit biplane constructions on convex point sets.

The 5-connected construction places two plane spanning trees (two 3-leaf
stars joined by a zig-zag path each; one 4-leaf star in the odd case) plus
the hull cycle.  The 4-connected construction grows an abstract planar
triangulation from the octahedron by vertex splits and realizes it on the
convex set through a Hamiltonian cycle with two-page chord coloring.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .connectivity import layers_from_conflicts
from .errors import (ImpossibleError, InternalInvariantError,
                     PreconditionError)
from .geometry import PointSet, is_convex_position
from .layered import LAYER1, LayeredGraph
from .triangulation import Edge, edge_key


def _fig1_trees(n: int) -> tuple[set[Edge], set[Edge]]:
    """The two spanning trees in hull-position space (0..n-1 cyclic).

    Star centers sit at positions 0 and m = n // 2; star leaves follow the
    centers; the zig-zag path alternates between the two leftover ranges.
    The second tree is the index reflection j -> m + 1 - j, under which the
    trees share exactly the edges (0, 1) and (m, m + 1).
    """
    m = n // 2
    leaves_b = 4 if n % 2 else 3
    t1: set[Edge] = set()
    for leaf in (1, 2, 3):
        t1.add(edge_key(0, leaf))
    for leaf in range(m + 1, m + 1 + leaves_b):
        t1.add(edge_key(m, leaf % n))
    path = [0]
    for j in range(1, m - 3):
        path.append(3 + j)
        path.append(n - j)
    path.append(m)
    for a, b in zip(path, path[1:]):
        t1.add(edge_key(a, b))
    t2 = {edge_key((m + 1 - u) % n, (m + 1 - v) % n) for (u, v) in t1}
    return t1, t2


def build_5conn_convex(ps: PointSet) -> LayeredGraph:
    """5-connected biplane graph on a convex point set (n = 12 or n >= 14)."""
    n = len(ps)
    if n >= 3 and not is_convex_position(ps):
        raise PreconditionError("points must be in convex position")
    if n == 13:
        raise ImpossibleError("no 5-connected biplane graph exists on 13 points in convex position")
    if n < 12:
        raise ImpossibleError("5-connected biplane graphs on convex position require n = 12 or n >= 14")
    hull = ps.hull()
    t1_pos, t2_pos = _fig1_trees(n)

    def lift(es: Iterable[Edge]) -> set[Edge]:
        return {edge_key(hull[u], hull[v]) for (u, v) in es}

    t1, t2 = lift(t1_pos), lift(t2_pos)
    if len(t1) != n - 1 or len(t2) != n - 1:
        raise InternalInvariantError("spanning tree has wrong edge count")
    hull_edges = {edge_key(hull[i], hull[(i + 1) % n]) for i in range(n)}
    return LayeredGraph.from_layers(ps, t1 | hull_edges, t2)


class PlanarTriangulatedGraph:
    """Abstract triangulation of the sphere: every edge bounds two faces.

    Supports the vertex split used to grow 4-connected planar graphs.
    """

    def __init__(self, n: int, faces: Iterable[Sequence[int]]):
        self.n = n
        self.faces: frozenset[tuple[int, int, int]] = frozenset(
            tuple(sorted(f)) for f in faces)  # type: ignore[arg-type]
        edge_faces: dict[Edge, list[tuple[int, int, int]]] = {}
        for f in self.faces:
            a, b, c = f
            for e in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
                edge_faces.setdefault(e, []).append(f)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise InternalInvariantError(f"edge {e} bounds {len(fs)} faces, expected 2")
        self.edge_faces = edge_faces
        self.edges: frozenset[Edge] = frozenset(edge_faces)

    @classmethod
    def _from_maps(cls, n: int, faces: frozenset[tuple[int, int, int]],
                   edge_faces: dict[Edge, list[tuple[int, int, int]]]) -> PlanarTriangulatedGraph:
        """A graph from face and edge-face maps that are already consistent."""
        g = cls.__new__(cls)
        g.n, g.faces, g.edge_faces = n, faces, edge_faces
        g.edges = frozenset(edge_faces)
        return g


def octahedron() -> PlanarTriangulatedGraph:
    """The 1-skeleton of the octahedron: 4-connected, planar, 6 vertices."""
    equator = [1, 2, 4, 3]
    faces = []
    for i in range(4):
        a, b = equator[i], equator[(i + 1) % 4]
        faces.append((0, a, b))
        faces.append((5, a, b))
    return PlanarTriangulatedGraph(6, faces)


def vertex_split(g: PlanarTriangulatedGraph, e: Edge) -> PlanarTriangulatedGraph:
    """Remove edge (u, v) and add a new vertex joined to all vertices of the
    two faces adjacent to (u, v); preserves planarity and 4-connectivity."""
    e = edge_key(*e)
    if e not in g.edges:
        raise PreconditionError(f"{e} is not an edge")
    f1, f2 = g.edge_faces[e]
    u, v = e
    a = next(x for x in f1 if x not in e)
    b = next(x for x in f2 if x not in e)
    z = g.n
    # patch the parent's edge-face map: (u, v) goes, the sides of the
    # quadrilateral u a v b now bound faces through z, and z gets four edges;
    # the other face lists are shared with the parent, and neither mutates them
    quad = (u, a, v, b)
    new = [tuple(sorted((quad[i], quad[(i + 1) % 4], z))) for i in range(4)]
    edge_faces = dict(g.edge_faces)
    del edge_faces[e]
    for i, x in enumerate(quad):
        side = edge_key(x, quad[(i + 1) % 4])
        old = f1 if i < 2 else f2
        edge_faces[side] = [new[i] if f == old else f for f in edge_faces[side]]
        edge_faces[(x, z)] = [new[i - 1], new[i]]
    faces = (g.faces - {f1, f2}) | set(new)
    return PlanarTriangulatedGraph._from_maps(z + 1, faces, edge_faces)  # type: ignore[arg-type]


def grow_4conn_planar(n: int) -> PlanarTriangulatedGraph:
    """Octahedron plus n - 6 deterministic vertex splits: each split uses the
    smallest edge incident to the most recently added vertex."""
    if n < 6:
        raise ImpossibleError("every 4-connected planar graph has at least 6 vertices")
    g = octahedron()
    last_nbrs = {x for e in g.edges if g.n - 1 in e for x in e} - {g.n - 1}
    while g.n < n:
        e = (min(last_nbrs), g.n - 1)
        f1, f2 = g.edge_faces[e]
        last_nbrs = set(f1) | set(f2)
        g = vertex_split(g, e)
    return g


def find_hamiltonian_cycle(n: int, edges: Iterable[Edge]) -> list[int]:
    """Hamiltonian cycle by deterministic backtracking (existence is
    guaranteed for 4-connected planar inputs).

    A partial path 0 ... tail is extended only while every unvisited vertex
    keeps two usable connections: unvisited neighbours, the tail and 0.  When
    a child appends w to a path whose test passed, w is the new tail, and the
    count drops by one exactly for the unvisited neighbours of the old tail p
    (not at all when p = 0), so only they are tested again.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n < 3:
        raise PreconditionError("cycle needs n >= 3")
    nbrs = [sorted(adj[v]) for v in range(n)]
    path = [0]
    on_path = [False] * n
    on_path[0] = True

    def feasible(candidates: Iterable[int]) -> bool:
        tail = path[-1]
        for v in candidates:
            if on_path[v]:
                continue
            free = sum(1 for w in nbrs[v] if not on_path[w] or w == tail or w == 0)
            if free < 2:
                return False
        return True

    # the search runs on an explicit stack of neighbour iterators, one per
    # path vertex, so that its depth is not bounded by the recursion limit
    stack = [iter(nbrs[0])] if feasible(range(n)) else []
    while stack:
        p = path[-1]
        for w in stack[-1]:
            if on_path[w]:
                continue
            path.append(w)
            on_path[w] = True
            if len(path) == n:
                if 0 in adj[w]:
                    return path
            elif feasible(nbrs[p] if p != 0 else ()):
                stack.append(iter(nbrs[w]))
                break
            on_path[w] = False
            path.pop()
        else:
            stack.pop()
            on_path[path.pop()] = False
    raise PreconditionError("no Hamiltonian cycle found")


def _hull_chord_conflicts(ps: PointSet, chords: Sequence[Edge]) -> list[set[int]]:
    """crossing_conflict_graph(ps, chords)[1] for a point set in strictly
    convex position, read off the hull order: with hull positions a < b and
    c < d, chords (a, b) and (c, d) cross exactly when a < c < b < d or
    c < a < d < b.  With the chords sorted by their left end, each chord is
    tested only against the later ones whose left end lies below its right
    end."""
    pos = {v: i for i, v in enumerate(ps.hull())}
    spans = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), i) for i, (u, v) in enumerate(chords))
    conflicts: list[set[int]] = [set() for _ in chords]
    for k, (a, b, i) in enumerate(spans):
        for c, d, j in spans[k + 1:bisect_left(spans, (b,))]:
            if a < c and b < d:
                conflicts[i].add(j)
                conflicts[j].add(i)
    return conflicts


def realize_hamiltonian_on_convex(g_edges: Iterable[Edge], ham: Sequence[int],
                                  ps: PointSet) -> LayeredGraph:
    """Realize a Hamiltonian planar graph on a convex point set.

    The cycle is mapped to the hull in order; the remaining edges become hull
    chords, two-colored through the crossing-conflict graph (bipartite for
    planar inputs, the two-page book embedding argument), whose arcs are
    read off the hull order.
    """
    n = len(ps)
    if not is_convex_position(ps):
        raise PreconditionError("points must be in convex position")
    if len(ham) != n or set(ham) != set(range(n)):
        raise PreconditionError("ham must be a cycle through all vertices")
    edges = {edge_key(*e) for e in g_edges}
    for a, b in zip(ham, list(ham[1:]) + [ham[0]]):
        if edge_key(a, b) not in edges:
            raise PreconditionError("ham is not a cycle of the graph")
    hull = ps.hull()
    place = {ham[i]: hull[i] for i in range(n)}
    cycle_edges = {edge_key(place[ham[i]], place[ham[(i + 1) % n]]) for i in range(n)}
    chords = sorted(edge_key(place[u], place[v]) for (u, v) in edges)
    chords = [e for e in chords if e not in cycle_edges]
    coloring, odd = layers_from_conflicts(chords, _hull_chord_conflicts(ps, chords))
    if coloring is None:
        raise PreconditionError(
            f"chord conflict graph is not bipartite (non-planar input); odd cycle: {odd}")
    layers: dict[Edge, int] = {e: LAYER1 for e in cycle_edges}
    layers.update(coloring)
    return LayeredGraph(ps, layers)


def build_4conn_convex(ps: PointSet) -> LayeredGraph:
    """4-connected biplane graph on any convex point set with n >= 6.

    Always uses the octahedron split chain (kappa is exactly 4: the newest
    split vertex has degree 4).  The chain carries the Hamiltonian cycle
    0, 1, 2, 4, 5, ..., n - 1, 3: the octahedron has 0-1-2-4-5-3, and each
    split vertex z joins 1, 2, 3 and z - 1 while only the edge (1, z - 1),
    which the cycle does not use, goes; so z fits between z - 1 and 3.  It
    is also the first cycle `find_hamiltonian_cycle` finds on this graph
    (see README, Verification).
    """
    n = len(ps)
    if n >= 3 and not is_convex_position(ps):
        raise PreconditionError("points must be in convex position")
    if n < 6:
        raise ImpossibleError("no 4-connected biplane graph exists on fewer than 6 points")
    g = grow_4conn_planar(n)
    return realize_hamiltonian_on_convex(g.edges, [0, 1, 2, *range(4, n), 3], ps)
