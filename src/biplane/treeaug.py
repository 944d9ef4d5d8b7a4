"""Minimal 3-connectivity augmentation of triangulations via the cell tree
of hull chords: leaf cells are paired by noncrossing connections, with the
cell tree hung from one root, so that the tree plus the pairs is
2-edge-connected."""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InternalInvariantError, PreconditionError
from .triangulation import Edge, Triangulation, edge_key


class RootedTreeIndex:
    """Parents and depths of a tree hung from `root`; lowest common
    ancestors by walking up from the deeper node, then from both.
    PreconditionError unless `adjacency` is a connected tree."""

    def __init__(self, adjacency: Mapping[int, set], root: int):
        self.root = root
        self.parent: dict[int, int | None] = {root: None}
        self.depth: dict[int, int] = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v != self.parent[u]:
                    if v in self.parent:
                        raise PreconditionError("adjacency is not a connected tree")
                    self.parent[v] = u
                    self.depth[v] = self.depth[u] + 1
                    stack.append(v)
        if len(self.parent) != len(adjacency):
            raise PreconditionError("adjacency is not a connected tree")

    def lca(self, u: int, v: int) -> int:
        parent, depth = self.parent, self.depth
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return u


def _leaf_pairing(adjacency: Mapping[int, set],
                  cyclic: Sequence[int]) -> list[tuple[int, int]]:
    """Pair up the leaves `cyclic` of the tree on nodes 0..k-1 with ceil(m/2)
    pairwise-noncrossing connections so that the tree plus the pairs is
    2-edge-connected.  `cyclic` lists the leaves in counterclockwise order
    of their points, which are in convex position, so the hull of the live
    leaves is `cyclic` without the paired ones.

    The tree hangs from the smallest leaf.  While more than 3 leaves remain,
    a live leaf v other than the root is joined to a ring neighbour p: moves
    are taken by v ascending, the neighbour whose lowest common ancestor with
    v is the higher one first (ties: the counterclockwise-previous one), a
    root neighbour never, and the first safe move is chosen.  A pair is safe
    when its lowest common ancestor is the root or has another live leaf
    below it.
    The terminal 2 or 3 leaves get a spanning path.  Every pair is a hull
    edge of the shrinking leaf set, so the connections never cross; README
    (Verification) proves that a safe move always exists and that every tree
    edge ends up on a cycle."""
    root = min(cyclic)
    index = RootedTreeIndex(adjacency, root)
    pairs: list[tuple[int, int]] = []
    live = set(cyclic)

    def live_count_at(node: int) -> int:
        total = 0
        for leaf in live:
            x = leaf
            while x is not None:
                if x == node:
                    total += 1
                    break
                x = index.parent[x]
        return total

    def safe(v: int, p: int) -> bool:
        c = index.lca(v, p)
        return c == root or live_count_at(c) > 2

    while len(live) > 3:
        ring = [u for u in cyclic if u in live]
        moves: list[tuple[int, int]] = []
        for v in sorted(x for x in ring if x != root):
            i = ring.index(v)
            u, w2 = ring[i - 1], ring[(i + 1) % len(ring)]
            ordered: list[int]
            if u == root:
                ordered = [w2]
            elif w2 == root:
                ordered = [u]
            else:
                a, b = index.lca(u, v), index.lca(v, w2)
                ordered = [u, w2] if index.depth[a] <= index.depth[b] else [w2, u]
            moves.extend((v, p) for p in ordered)
        chosen = next(mv for mv in moves if safe(*mv))
        pairs.append(chosen)
        live -= set(chosen)
    rest = sorted(live)
    for a, b in zip(rest, rest[1:]):
        pairs.append((a, b))
    return pairs


# ----------------------------------------------------------------------
# Cells of the hull chords and minimal 3-connectivity augmentation
# ----------------------------------------------------------------------

@dataclass
class LeafCell:
    cell: int
    chord: Edge
    members: frozenset[int]          # vertices in or on the cell, chord included
    inner_members: frozenset[int]    # members minus the chord endpoints
    representative: int              # an inner member on the hull of S


@dataclass
class CellTree:
    """Dual tree of the convex cells cut out by the hull chords, with what
    `delete_leaf` needs to keep `leaves` as a rebuild on the remainder
    would give them: each cell's members, the chord between each two
    adjacent cells (keyed by their ids, smaller first) and the hull
    positions of t's points."""

    adjacency: dict[int, set[int]]
    leaves: list[LeafCell]
    members: list[frozenset[int]]
    chord_of: dict[tuple[int, int], Edge]
    hull_positions: list[int]

    def _leaf(self, k: int) -> LeafCell:
        """Cell k, which has one neighbour, as a leaf: its chord, its members
        and its least inner member on the hull."""
        other = next(iter(self.adjacency[k]))
        chord = self.chord_of[(min(k, other), max(k, other))]
        inner = self.members[k] - set(chord)
        pos = self.hull_positions
        on_hull = [v for v in inner if pos[v] >= 0]
        if not on_hull:
            raise InternalInvariantError("leaf cell without a hull representative")
        return LeafCell(k, chord, self.members[k], inner, min(on_hull))

    def delete_leaf(self, k: int) -> None:
        """Drop leaf cell k, as peeling its inner vertices off t does: its
        chord becomes a hull edge, so its neighbour loses one chord, and
        is a leaf exactly when one is left.  The ids stay t's, and the
        leaves stay in ascending cell id, the order a rebuild on the
        remainder gives (see README, *Cell numbering*)."""
        other = self.adjacency.pop(k).pop()
        self.adjacency[other].discard(k)
        self.leaves = [leaf for leaf in self.leaves if leaf.cell not in (k, other)]
        if len(self.adjacency[other]) == 1:
            insort(self.leaves, self._leaf(other), key=lambda leaf: leaf.cell)


def build_cell_tree(t: Triangulation) -> CellTree:
    """Cells are the chord-free connected components of the triangle faces;
    two cells are adjacent when they share a chord.

    Each cell is numbered by the rank of its union-find root over the sorted
    faces, and that number is part of the output: it picks `_leaf_pairing`'s
    root and orders its moves, and it breaks the tie in `_plane_partner`
    between the two cells of a one-chord remainder, which share the chord
    and may have the same size.  A cell tree read from the apex map
    (`t.opposites`) instead of the sorted faces must keep these numbers
    (README, *Cell numbering*)."""
    chords = t.chords()
    chord_set = set(chords)
    tris = sorted(t.triangles)
    comp = list(range(len(tris)))

    def find(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    def union(i: int, j: int) -> None:
        comp[find(i)] = find(j)

    edge_tris: dict[Edge, list[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for e in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
            edge_tris.setdefault(e, []).append(i)
    for e, owners in edge_tris.items():
        if len(owners) == 2 and e not in chord_set:
            union(owners[0], owners[1])
    roots = sorted({find(i) for i in range(len(tris))})
    cell_id = {r: k for k, r in enumerate(roots)}
    members: list[set[int]] = [set() for _ in roots]
    for i, tri in enumerate(tris):
        members[cell_id[find(i)]].update(tri)
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(roots))}
    chord_of: dict[tuple[int, int], Edge] = {}
    for e in chords:
        owners = edge_tris[e]
        if len(owners) != 2:
            raise InternalInvariantError("chord not shared by two triangles")
        c1, c2 = cell_id[find(owners[0])], cell_id[find(owners[1])]
        adjacency[c1].add(c2)
        adjacency[c2].add(c1)
        chord_of[(min(c1, c2), max(c1, c2))] = e
    if len(roots) != len(chords) + 1:
        raise InternalInvariantError("cell dual graph is not a tree")
    tree = CellTree(adjacency, [], [frozenset(m) for m in members], chord_of,
                    t.ps.hull_positions())
    leaves = tree.leaves = [tree._leaf(k) for k in range(len(roots)) if len(adjacency[k]) == 1]
    if any(l1.inner_members & l2.inner_members
           for i, l1 in enumerate(leaves) for l2 in leaves[i + 1:]):
        raise InternalInvariantError("leaf cells share inner members")
    return tree


def min_augment_3conn(t: Triangulation) -> frozenset[Edge]:
    """Minimum set of new edges whose addition makes the triangulation a
    3-connected biplane graph: one noncrossing leaf-to-leaf connection per
    two leaf cells of the chord decomposition (ceil(m/2) edges).  A
    3-connected graph has at least 4 vertices, so n = 3 is a precondition
    violation.

    The representatives of the leaf cells are distinct hull vertices of S
    (inner members of different leaves are disjoint), so they are in convex
    position, and the hull of any subset of them is that subset in the
    counterclockwise order of `t.ps.hull()`."""
    if len(t.ps) < 4:
        raise PreconditionError("3-connectivity needs at least 4 points")
    cell_tree = build_cell_tree(t)
    m = len(cell_tree.leaves)
    if m == 0:
        return frozenset()
    reps = {leaf.cell: leaf.representative for leaf in cell_tree.leaves}
    position = t.ps.hull_positions()
    cyclic = sorted(reps, key=lambda cell: position[reps[cell]])
    pairs = _leaf_pairing(cell_tree.adjacency, cyclic)
    out = frozenset(edge_key(reps[a], reps[b]) for (a, b) in pairs)
    if len(out) != math.ceil(m / 2):
        raise InternalInvariantError("wrong number of augmentation edges")
    if not out.isdisjoint(t.edges):
        raise InternalInvariantError("augmentation edge already present")
    return out

