"""Independent verification: vertex connectivity via unit-capacity max-flow,
biplanarity via crossing-conflict coloring, and the chord / bichord /
separating-triangle cut structure of triangulations."""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import PreconditionError
from .geometry import PointSet, crossing_pairs, first_crossing
from .layered import LayeredGraph
from .triangulation import (Edge, Triangulation, _adjacency, checked_adjacency,
                            checked_edges, edge_key)

INF = 1 << 30


def vertex_connectivity(n: int, edges: Iterable[Edge]) -> int:
    """Exact vertex connectivity kappa (n - 1 for complete graphs); the first
    element of `min_vertex_cut`."""
    return min_vertex_cut(n, edges)[0]


def min_vertex_cut(n: int, edges: Iterable[Edge]) -> tuple[int, list[int]]:
    """Vertex connectivity kappa with a minimum vertex cut as its certificate.

    The cut is a sorted list of kappa vertices whose removal disconnects the
    graph; for a complete graph it is every vertex but one, since no vertex
    set disconnects it.

    Pair schedule (Even, 1975): let s be a minimum-degree vertex, lowest id
    first, and start from best = delta = deg(s), which bounds kappa from
    above, with cut N(s).  Order the vertices v_1 = s, then breadth-first
    from s, taking the new neighbours of a vertex in a fixed scramble of
    their ids, then the unreached ones by id.  Run one flow between each
    nonadjacent pair among v_1..v_delta; then, for each later v_j, one fan
    flow from v_j to its prefix P = {v_1..v_(j-1)}, whose paths share only
    v_j and end at distinct vertices of P.  Each flow stops at the running
    best.  Two facts make this exact, for any order of the vertices:

    - Every lowered best is a real separator.  A fan has |P| >= delta >=
      best > flow, so some vertex of P lies outside the flow's cut, and the
      cut separates v_j from it.
    - Every separator S with |S| < best is found.  Some vertex of
      v_1..v_delta lies outside S.  If two of them lie in different
      components of G - S, their pair flow is at most |S|.  Otherwise let A
      be the component that holds them and v_j the first vertex outside A and
      S.  Its prefix lies in A and S, so every path of its fan meets S, and
      its fan flow is at most |S|.

    The order matters only for the work.  With ties in ascending id, a graph
    labelled along a long cycle gets the cycle as its order, and each fan's
    last path walks the rest of the cycle.  The scramble keeps the fans of
    such a graph local unless the labels follow the scramble along the
    cycle.

    The flows run in position space: each vertex is renamed by its place in
    the order, and every neighbour list is sorted.  So a fan's sinks are the
    positions below its source, and they come first in every list.  A flow
    counts disjoint paths on split vertices: v has an in-node 2v and an
    out-node 2v + 1.  It runs from the out-node of its source to the
    out-node of any sink vertex: the prefix of a fan, or the other end of a
    pair.  Its state is the capacity left at each vertex (`room`: 1, or INF
    for a pair's sink) and, for each vertex that carries flow, the vertex
    that its flow comes from (`pred`).  It is seeded on the plain graph with
    disjoint paths: a fan takes a direct path to each neighbour below it,
    then a path v_j -> w -> x for each later neighbour w whose first
    neighbour with room below v_j is x; then greedy paths, each a
    breadth-first search that avoids vertices without room and stops at the
    first sink it meets.  A seed below the limit is augmented along
    residual paths, found by breadth-first search over arcs that the state
    implies: out(v) -> in(w) for each neighbour w, in(v) -> out(v) while v
    has room, and out(v) -> in(v) and in(v) -> out(pred[v]) once it has
    none.  A sink's out-node ends the search, the source keeps its room and
    a vertex with room carries no flow unless it is a sink, so no other
    residual arc is ever taken.  Augmenting from any feasible flow reaches
    the maximum, and the set that a failed search reaches is the same for
    every maximum flow, so neither the seed nor the search order changes
    kappa or the cut.  A flow touches only what its searches reach: parents
    and pred live in dicts, and each vertex in pred gets its room of 1 back
    when the flow ends.  The cut is N(s) when no flow goes below delta;
    otherwise it is read from the last flow that lowered best: the vertices
    whose in-node the final residual search reached and whose out-node it
    did not, mapped back to their ids.
    """
    if n < 2:
        raise PreconditionError("vertex connectivity needs n >= 2")
    adj = checked_adjacency(n, edges)
    degree = [len(a) for a in adj.values()]
    delta = min(degree)
    s = degree.index(delta)
    # breadth-first from s, new neighbours in the order of an odd multiple of
    # their ids mod 2^32, a bijection on ids below 2^32; from here on a
    # vertex is its position in `order`
    rank = [(v * 0x9E3779B1) & 0xFFFFFFFF for v in range(n)]
    order = [s]
    seen = {s}
    for u in order:
        new = adj[u] - seen
        if new:
            seen |= new
            order += sorted(new, key=rank.__getitem__)
    if len(order) < n:
        order += [v for v in range(n) if v not in seen]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, u in enumerate(order):
        for v in adj[u]:
            nbrs[pos[v]].append(i)
    sink = [False] * n
    room = [1] * n  # split capacity left at each vertex: INF for a pair's sink

    def max_flow(src: int, limit: int) -> tuple[int, list[int]]:
        """Flow value from src to the sinks, at most limit; below limit, also
        the minimum cut, in ids, that the final, failed residual search
        leaves."""
        flow = 0
        pred: dict[int, int] = {}  # v: the vertex whose flow enters v
        if src >= delta:
            # a fan: its sinks are the positions below src, first in every list
            nb = nbrs[src]
            k = bisect_left(nb, src)
            for v in nb[:k]:
                if flow == limit:
                    break
                room[v] = 0
                pred[v] = src
                flow += 1
            for w in nb[k:]:
                if flow == limit:
                    break
                for x in nbrs[w]:
                    if x >= src:
                        break
                    if room[x]:
                        room[w] = room[x] = 0
                        pred[w] = src
                        pred[x] = w
                        flow += 1
                        break
        while flow < limit:
            parent = {src: src}
            queue = [src]
            end = -1
            for u in queue:
                for v in nbrs[u]:
                    if v not in parent and room[v]:
                        parent[v] = u
                        if sink[v]:
                            end = v
                            break
                        queue.append(v)
                if end != -1:
                    break
            if end == -1:
                break
            v = end
            while v != src:
                room[v] -= 1
                pred[v] = u = parent[v]
                v = u
            flow += 1
        side: list[int] = []
        root = 2 * src + 1
        while flow < limit:
            parent = {root: root}
            queue = [root]
            end = -1
            for x in queue:
                v = x >> 1
                if x & 1:
                    if not room[v] and x - 1 not in parent:
                        parent[x - 1] = x
                        queue.append(x - 1)
                    for w in nbrs[v]:
                        if 2 * w not in parent:
                            parent[2 * w] = x
                            queue.append(2 * w)
                elif room[v]:
                    if x + 1 not in parent:
                        parent[x + 1] = x
                        if sink[v]:
                            end = x + 1
                            break
                        queue.append(x + 1)
                else:
                    y = 2 * pred[v] + 1
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            if end == -1:
                side = sorted(order[x >> 1] for x in parent if not x & 1 and x + 1 not in parent)
                break
            x = end
            while x != root:
                p = parent[x]
                u, v = p >> 1, x >> 1
                if u == v:
                    room[v] += 1 if p & 1 else -1
                elif p & 1:
                    pred[v] = u
                # an edge taken backwards leaves pred as it is: the step into
                # its in-node rewrites pred there or gives that vertex room
                x = p
            flow += 1
        for v in pred:
            room[v] = 1
        return flow, side

    def lower(src: int) -> None:
        nonlocal best, cut
        flow, side = max_flow(src, best)
        if flow < best:
            best, cut = flow, side

    best, cut = delta, sorted(adj[s])
    for i in range(delta):
        adj_i = adj[order[i]]
        for j in range(i + 1, delta):
            if order[j] not in adj_i:
                sink[j] = True
                room[j] = INF
                lower(i)
                sink[j] = False
                room[j] = 1
    for j in range(delta):
        sink[j] = True
    for j in range(delta, n):
        lower(j)
        sink[j] = True
    return best, cut


def kappa_of(g: LayeredGraph | Triangulation) -> int:
    """Vertex connectivity of the abstract union graph (layers ignored)."""
    if isinstance(g, LayeredGraph):
        return vertex_connectivity(len(g.ps), g.edges())
    return vertex_connectivity(len(g.ps), g.edges)


def crossing_conflict_graph(ps: PointSet, edges: Sequence[Edge]) -> tuple[list[Edge], list[set[int]]]:
    """Graph over edge indices with an arc per properly crossing pair."""
    es = [edge_key(*e) for e in edges]
    return es, list(_adjacency(len(es), crossing_pairs(ps, es)).values())


def compute_layering(ps: PointSet, edges: Sequence[Edge]) -> tuple[dict[Edge, int] | None, list[Edge] | None]:
    """Two-coloring of edges with no same-layer crossing, if one exists.

    Returns (layers, None) on success and (None, odd_cycle) otherwise, where
    odd_cycle is a cyclic list of edges that pairwise-consecutively cross and
    has odd length.  The coloring is breadth-first over the crossing
    conflict graph, from each uncolored edge index in turn, neighbours in
    ascending order; the odd cycle is the first one it closes.
    """
    es, conflicts = crossing_conflict_graph(ps, edges)
    color = [-1] * len(es)
    parent = [-1] * len(es)

    def to_root(x: int) -> list[int]:
        """The BFS tree path from edge index x up to its root."""
        path = []
        while x != -1:
            path.append(x)
            x = parent[x]
        return path

    for root in range(len(es)):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in sorted(conflicts[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    # reconstruct the odd cycle through the BFS tree
                    pu, pv = to_root(u), to_root(v)
                    iv = set(pv)
                    lca = next(x for x in pu if x in iv)
                    cyc = pu[:pu.index(lca) + 1] + pv[:pv.index(lca)][::-1]
                    return None, [es[i] for i in cyc]
    return {es[i]: 1 + color[i] for i in range(len(es))}, None


def layer_crossing(g: LayeredGraph) -> tuple[int, Edge, Edge] | None:
    """First same-layer crossing as (layer, e, f), e < f, layer 1 searched
    first; None when both layers are plane."""
    for layer in (1, 2):
        es = sorted(g.layer_edges(layer))
        pair = first_crossing(g.ps, es)
        if pair:
            i, j = pair
            return layer, es[i], es[j]
    return None


def verify_layering(g: LayeredGraph) -> bool:
    """True iff within each layer no two edges properly cross."""
    return layer_crossing(g) is None


# ----------------------------------------------------------------------
# Cut structures of a triangulation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Bichord:
    """Two-edge path (u, m, w) between hull vertices with a vertex on every
    side of it."""

    u: int
    m: int
    w: int

    def path_edges(self) -> tuple[Edge, Edge]:
        return edge_key(self.u, self.m), edge_key(self.m, self.w)


@dataclass(frozen=True)
class SeparatingTriangle:
    vertices: tuple[int, int, int]

    def sides(self) -> tuple[Edge, Edge, Edge]:
        a, b, c = self.vertices
        return edge_key(a, b), edge_key(b, c), edge_key(a, c)


@dataclass
class CutReport:
    chords: list[Edge] = field(default_factory=list)
    bichords: list[Bichord] = field(default_factory=list)
    separating_triangles: list[SeparatingTriangle] = field(default_factory=list)

    def cut_triples(self) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for b in self.bichords:
            out.add(tuple(sorted((b.u, b.m, b.w))))
        for s in self.separating_triangles:
            out.add(tuple(sorted(s.vertices)))
        return out


def cut_structures(t: Triangulation) -> CutReport:
    """Complete enumeration of chords, bichords and separating triangles.

    A path's sides are the runs of the hull cycle split at its hull vertices
    (three runs when the middle vertex lies on the hull, taken in hull order;
    else the runs from u to w and from w to u), and it is a bichord when each
    run is non-empty.  A pocket with only interior points on one side always
    shows up as a separating triangle instead, so the kappa characterizations
    are preserved.  A 3-cycle that is not a face has a point inside, and one
    outside unless it is the hull triangle (see README, Verification).
    """
    if len(t.ps) < 5:
        raise PreconditionError("cut structures are defined for n >= 5")
    hull = t.hull
    h = len(hull)
    pos, hull_edges = t.ps.hull_positions(), t.ps.hull_edges()
    report = CutReport()

    report.chords = t.chords()

    # each vertex's hull neighbours, ascending, from the hull vertices' adjacency
    hull_nbrs: list[list[int]] = [[] for _ in range(len(t.ps))]
    for v in sorted(hull):
        for m in t.neighbors(v):
            hull_nbrs[m].append(v)
    for m, nbrs in enumerate(hull_nbrs):
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if edge_key(u, m) in hull_edges or edge_key(m, w) in hull_edges:
                    continue
                ends = sorted((u, m, w), key=pos.__getitem__) if pos[m] >= 0 else [u, w]
                # the run from an end a to the next end b is non-empty iff b
                # does not follow a on the hull
                if all((pos[b] - pos[a]) % h > 1 for a, b in zip(ends, ends[1:] + ends[:1])):
                    report.bichords.append(Bichord(u, m, w))

    # a common neighbour w of an edge uv that is not one of its apexes closes
    # a 3-cycle that is not a face; each is found on its least edge
    found = []
    for e in t.edges:
        u, v = e
        ws = t.opposites(e)
        common = t.common_neighbors(u, v)
        if len(common) > len(ws):
            found += [(u, v, w) for w in common if w > v and w not in ws]
    # it separates unless it is the hull triangle
    hull_triangle = tuple(sorted(hull))
    report.separating_triangles = [SeparatingTriangle(tri) for tri in sorted(found)
                                   if tri != hull_triangle]
    return report


def check_4conn_augmentation(t: Triangulation, added: Iterable[Edge]) -> tuple[bool, list[str]]:
    """Evaluate the three augmentation conditions for 4-connectivity.

    (i) every separating triangle and every bichord is properly crossed by at
    least one new edge; (ii) every chord is properly crossed by at least two
    new edges; (iii) a chord with at least two points on each side must be
    crossed by two nonadjacent new edges.  Returns all violations.
    """
    violations = augmentation_violations(t, added, cut_structures(t))
    return not violations, violations


def augmentation_violations(t: Triangulation, added: Iterable[Edge],
                            report: CutReport) -> list[str]:
    """The violations check_4conn_augmentation reports, given
    report = cut_structures(t).

    Each added edge lists the edges of t that it properly crosses
    (`Triangulation.crossed_edges`), and an index from each edge of t to the
    chords, bichord paths and separating-triangle sides that hold it turns
    those into crossing counts.  A chord has two points or more on each side
    unless an apex w of it makes a - w - b a hull path (see README,
    Verification)."""
    new_edges = sorted(checked_edges(len(t.ps), added))
    chords, k, hull_edges = report.chords, len(report.chords), t.ps.hull_edges()
    paths = [b.path_edges() for b in report.bichords] + [s.sides() for s in report.separating_triangles]
    owners: dict[Edge, list[int]] = {}
    for i, path in enumerate([(c,) for c in chords] + paths):
        for f in path:
            owners.setdefault(f, []).append(i)
    crossers: list[list[Edge]] = [[] for _ in chords]
    crossed_once = [False] * len(paths)
    for u, v in new_edges:
        hits: dict[int, int] = {}
        for f in t.crossed_edges(u, v):
            for i in owners.get(f, ()):
                hits[i] = hits.get(i, 0) + 1
        for i, count in hits.items():
            if i < k:
                crossers[i].append((u, v))
            elif count == 1:
                crossed_once[i - k] = True

    violations: list[str] = []
    for (a, b), es in zip(chords, crossers):
        # a side with one point is a face (a, w, b) between two hull edges
        wide = not any(edge_key(a, w) in hull_edges and edge_key(w, b) in hull_edges
                       for w in t.opposites((a, b)))
        if len(es) < 2:
            violations.append(f"chord {(a, b)} crossed by {len(es)} < 2 new edges")
        elif wide and not any(not set(e1) & set(e2) for i, e1 in enumerate(es) for e2 in es[i + 1:]):
            violations.append(f"chord {(a, b)}: no two nonadjacent crossing edges")
    for b, ok in zip(report.bichords, crossed_once):
        if not ok:
            violations.append(f"bichord ({b.u}, {b.m}, {b.w}) not properly crossed")
    for s, ok in zip(report.separating_triangles, crossed_once[len(report.bichords):]):
        if not ok:
            violations.append(f"separating triangle {s.vertices} not properly crossed")
    return violations
