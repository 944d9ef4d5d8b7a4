"""Geometric graphs as two layer edge sets (the biplane artifact)."""
from __future__ import annotations

from typing import Iterable

from .errors import PreconditionError
from .geometry import PointSet
from .triangulation import Edge, _adjacency, checked_edges

LAYER1 = 1
LAYER2 = 2
BOTH = 3  # edge present in both layers, stored once


class LayeredGraph:
    """Geometric graph stored as its two layer edge sets.

    Each edge is keyed (min, max); an edge may lie in both layers.  A
    LayeredGraph is not mutated after construction.  Layer tags in
    {1, 2, 3 = both} exist only in the `layers` view, for the file, JSON and
    SVG writers.
    """

    def __init__(self, ps: PointSet, layer1: Iterable[Edge], layer2: Iterable[Edge]):
        self.ps = ps
        self._layer_edges = {LAYER1: frozenset(checked_edges(len(ps), layer1)),
                             LAYER2: frozenset(checked_edges(len(ps), layer2))}
        self._layers: dict[Edge, int] | None = None

    @property
    def layers(self) -> dict[Edge, int]:
        """Every edge with its layer tag (BOTH for an edge in both layers),
        in edge order, for the writers; computed on first use and kept."""
        if self._layers is None:
            one, two = self._layer_edges[LAYER1], self._layer_edges[LAYER2]
            self._layers = {e: (BOTH if e in two else LAYER1) if e in one else LAYER2
                            for e in sorted(one | two)}
        return self._layers

    # ------------------------------------------------------------------
    def edges(self) -> frozenset[Edge]:
        return self._layer_edges[LAYER1] | self._layer_edges[LAYER2]

    def edge_count(self) -> int:
        return len(self.edges())

    def layer_edges(self, layer: int) -> frozenset[Edge]:
        if layer not in (LAYER1, LAYER2):
            raise PreconditionError("layer must be 1 or 2")
        return self._layer_edges[layer]

    def adjacency(self) -> dict[int, set[int]]:
        return _adjacency(len(self.ps), self.edges())
