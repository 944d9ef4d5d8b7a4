"""Explicit biplane constructions on convex point sets.

The 5-connected construction places two plane spanning trees (two 3-leaf
stars joined by a zig-zag path each; one 4-leaf star in the odd case) plus
the hull cycle.  The 4-connected construction writes down the two layers of
the octahedron split chain, realized along its Hamiltonian cycle on the
hull: two fans of chords per layer.
"""
from __future__ import annotations

from typing import Iterable

from .errors import (ImpossibleError, InternalInvariantError,
                     PreconditionError)
from .geometry import PointSet, is_convex_position
from .layered import LayeredGraph
from .triangulation import Edge, checked_adjacency, edge_key


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
    return LayeredGraph(ps, t1 | ps.hull_edges(), t2)


def find_hamiltonian_cycle(n: int, edges: Iterable[Edge]) -> list[int]:
    """Hamiltonian cycle by deterministic backtracking (existence is
    guaranteed for 4-connected planar inputs).

    A partial path 0 ... tail is extended only while every unvisited vertex
    keeps two usable connections: unvisited neighbours, the tail and 0.  When
    a child appends w to a path whose test passed, w is the new tail, and the
    count drops by one exactly for the unvisited neighbours of the old tail p
    (not at all when p = 0), so only they are tested again.  A bad edge is
    a PreconditionError (`checked_adjacency`).
    """
    adj = checked_adjacency(n, edges)
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


def build_4conn_convex(ps: PointSet) -> LayeredGraph:
    """4-connected biplane graph on any convex point set with n >= 6, in O(n).

    The graph is the octahedron split chain (kappa is exactly 4: the newest
    split vertex has degree 4).  The chain carries the Hamiltonian cycle
    0, 1, 2, 4, 5, ..., n - 1, 3, which goes onto the hull in order, so its
    chords at hull positions are one layer (0, 2), (0, 3) and (n - 1, j) for
    3 <= j <= n - 3, and the other (1, n - 1), (1, n - 2) and (2, k) for
    4 <= k <= n - 2.  Their conflict graph is connected, so the two-page
    coloring is fixed up to a swap: the layer of the smallest chord by point
    ids is layer 1 (see README, Verification).
    """
    n = len(ps)
    if n >= 3 and not is_convex_position(ps):
        raise PreconditionError("points must be in convex position")
    if n < 6:
        raise ImpossibleError("no 4-connected biplane graph exists on fewer than 6 points")
    hull = ps.hull()

    def lift(pairs: Iterable[Edge]) -> list[Edge]:
        return [edge_key(hull[a], hull[b]) for (a, b) in pairs]

    one = lift([(0, 2), (0, 3), *((n - 1, j) for j in range(3, n - 2))])
    two = lift([(1, n - 1), (1, n - 2), *((2, k) for k in range(4, n - 1))])
    if min(two) < min(one):
        one, two = two, one
    return LayeredGraph(ps, lift((i - 1, i) for i in range(n)) + one, two)
