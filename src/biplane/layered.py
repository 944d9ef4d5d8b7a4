"""Geometric graphs with a two-layer edge tagging (the biplane artifact)."""
from __future__ import annotations

from typing import Iterable, Mapping

from .errors import PreconditionError
from .geometry import PointSet
from .triangulation import Edge, edge_key

LAYER1 = 1
LAYER2 = 2
BOTH = 3  # edge present in both layers, stored once


class LayeredGraph:
    """Geometric graph whose edges carry a layer tag in {1, 2, 3 = both}.

    Edges shared by both layers are stored once with the both-layers flag;
    layer queries report membership per layer.  A LayeredGraph is not
    mutated after construction: the layer edge sets are computed once, from
    the tags given to the constructor.
    """

    def __init__(self, ps: PointSet, layers: Mapping[Edge, int]):
        self.ps = ps
        norm: dict[Edge, int] = {}
        one: list[Edge] = []
        two: list[Edge] = []
        n = len(ps)
        for e, tag in layers.items():
            u, v = e
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"bad edge {e}")
            if tag not in (LAYER1, LAYER2, BOTH):
                raise PreconditionError(f"bad layer tag {tag} for edge {e}")
            k = e if u < v else (v, u)
            if norm.setdefault(k, tag) != tag:
                raise PreconditionError(f"conflicting tags for edge {k}")
            if tag != LAYER2:
                one.append(k)
            if tag != LAYER1:
                two.append(k)
        self.layers: dict[Edge, int] = dict(sorted(norm.items()))
        self._layer_edges = {LAYER1: frozenset(one), LAYER2: frozenset(two)}

    @classmethod
    def from_layers(cls, ps: PointSet, layer1: Iterable[Edge],
                    layer2: Iterable[Edge]) -> "LayeredGraph":
        """The graph with the given layer edge sets; an edge in both is
        stored once, tagged BOTH."""
        one = {edge_key(*e) for e in layer1}
        tags = dict.fromkeys(one, LAYER1)
        for e in layer2:
            k = edge_key(*e)
            tags[k] = BOTH if k in one else LAYER2
        return cls(ps, tags)

    # ------------------------------------------------------------------
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.layers)

    def edge_count(self) -> int:
        return len(self.layers)

    def layer_edges(self, layer: int) -> frozenset[Edge]:
        if layer not in (LAYER1, LAYER2):
            raise PreconditionError("layer must be 1 or 2")
        return self._layer_edges[layer]

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {p.id: set() for p in self.ps}
        for (u, v) in self.layers:
            adj[u].add(v)
            adj[v].add(u)
        return adj
