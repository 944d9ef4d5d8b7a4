"""Shared seeded instance builders for the insertion pipeline tests."""
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from biplane.errors import PreconditionError
from biplane.generators import regular_polygon_points
from biplane.geometry import PointSet
from biplane.layered import LayeredGraph
from biplane.triangulation import (complete_to_triangulation, flip, is_flippable,
                                   triangulate)


def mixed_pipeline_instance(seed: int) -> PointSet:
    """A 14-point convex core plus up to 8 interior / boundary / exterior
    points, retrying sub-seeds until the sampled set is in general position.

    Boundary points sit far outside the core (they become hull vertices of the
    full set); exterior points sit between a boundary point and the core so
    they are outside the core hull but inside the full hull.
    """
    for attempt in range(60):
        rng = random.Random((seed << 8) | attempt)
        radius = 10 ** 5
        coords = []
        for j in range(14):
            a = 2 * math.pi * (j + 0.1 + 0.5 * rng.random()) / 14
            coords.append((round(radius * math.cos(a)), round(radius * math.sin(a))))
        for _ in range(rng.randint(1, 3)):
            a = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.05, 0.45) * radius
            coords.append((round(r * math.cos(a)), round(r * math.sin(a))))
        anchors = []
        for base in (0.4, 2.5, 4.5)[:rng.randint(1, 3)]:
            a = base + 0.25 * rng.random()
            bx, by = round(1.9 * radius * math.cos(a)), round(1.9 * radius * math.sin(a))
            anchors.append((bx, by))
            coords.append((bx, by))
        for (bx, by) in anchors[:rng.randint(0, len(anchors))]:
            f = 0.62 + 0.04 * rng.random()
            coords.append((round(bx * f), round(by * f)))
        try:
            return PointSet(coords)
        except PreconditionError:
            continue
    raise AssertionError(f"no valid mixed instance for seed {seed}")


def core_plus_interior(n, seed, radius=10 ** 5, outer=0):
    """14 jittered points on a circle plus n - 14 - outer points inside it and
    `outer` points at 1.05-3 times its radius, shuffled, in general position."""
    rng = random.Random(seed)
    while True:
        coords = []
        for j in range(14):
            a = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / 14
            r = radius * rng.uniform(0.95, 1.05)
            coords.append((round(r * math.cos(a)), round(r * math.sin(a))))
        for lo, hi, k in ((0.02, 0.9, n - 14 - outer), (1.05, 3.0, outer)):
            for _ in range(k):
                a, r = rng.uniform(0, 2 * math.pi), radius * rng.uniform(lo, hi)
                coords.append((round(r * math.cos(a)), round(r * math.sin(a))))
        rng.shuffle(coords)
        try:
            return PointSet(coords)
        except PreconditionError:
            continue


def greedy_biplane(ps: PointSet) -> LayeredGraph:
    """Layer 1 is triangulate(ps); layer 2 is the greedy completion that
    prefers edges absent from layer 1."""
    t1 = triangulate(ps)
    t2 = complete_to_triangulation(ps, avoid=t1.edges)
    return LayeredGraph(ps, t1.edges, t2.edges)


def chordful_triangulation(n: int, seed: int):
    """Convex-position triangulation diversified by random flips."""
    ps = regular_polygon_points(n)
    t = triangulate(ps)
    rng = random.Random(seed)
    for _ in range(3 * n):
        cands = sorted(e for e in t.edges if is_flippable(t, e))
        if not cands:
            break
        t = flip(t, cands[rng.randrange(len(cands))])
    return t
