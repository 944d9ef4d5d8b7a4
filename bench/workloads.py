"""The three benchmark workloads: their instances, the CLI calls that make up
one operation, and the known answer each operation is checked against.

Every instance is a fixed base instance (drawn once, from a seed that names
its slot) shown to the program through a presentation drawn from the run
seed: a shuffled vertex order, one of the eight axis symmetries and a
translation.  The presentation changes every input file and the order in
which the program meets the points, but not the geometric problem, so the
cost of an instance barely depends on the seed.  Random instances of one
size differ in cost by up to 16x (augment) and 2-3x (general5), and a run has
room for only 8 to 40 of them, so drawing them afresh for each seed would
move the medians between seeds by more than the regression bounds allow.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Coords = list[tuple[int, int]]
Edges = list[tuple[int, int]]

R = 100_000          # general5 circle radius, as in the fuzz family
CONVEX_R = 1_000_000  # convex-verify circle radius
SHIFT = 1_000_000    # presentation translations lie in [-SHIFT, SHIFT]


def cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    """(a - o) x (b - o) in exact integers; the benchmark's own predicate."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def properly_cross(a, b, c, d) -> bool:
    """Open segments ab and cd share one interior point (general position)."""
    if len({a, b, c, d}) < 4:
        return False
    return (cross(a, b, c) > 0) != (cross(a, b, d) > 0) and \
        (cross(c, d, a) > 0) != (cross(c, d, b) > 0)


def first_crossing(coords: Coords, edges: Edges) -> tuple | None:
    for i, (u1, v1) in enumerate(edges):
        for u2, v2 in edges[i + 1:]:
            if properly_cross(coords[u1], coords[v1], coords[u2], coords[v2]):
                return (u1, v1), (u2, v2)
    return None


def in_general_position(coords: Coords) -> bool:
    if len(set(coords)) != len(coords):
        return False
    n = len(coords)
    return all(cross(coords[i], coords[j], coords[k]) != 0
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))


def strictly_convex_cycle(coords: Coords) -> bool:
    """Points listed in angular order make left turns only, so they are in
    convex position and no three are collinear."""
    n = len(coords)
    return all(cross(coords[i - 2], coords[i - 1], coords[i]) > 0 for i in range(n))


def present(rng: random.Random, coords: Coords, edges: Edges = ()) -> tuple[Coords, Edges]:
    """Relabel the vertices, apply an axis symmetry and translate."""
    n = len(coords)
    perm = list(range(n))
    rng.shuffle(perm)
    turns, mirror = rng.randrange(4), rng.random() < 0.5
    dx, dy = rng.randint(-SHIFT, SHIFT), rng.randint(-SHIFT, SHIFT)
    out: Coords = [(0, 0)] * n
    for old, (x, y) in enumerate(coords):
        for _ in range(turns):
            x, y = -y, x
        if mirror:
            x = -x
        out[perm[old]] = (x + dx, y + dy)
    return out, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def write_points(path: Path, coords: Coords) -> Path:
    path.write_text("".join(f"{x} {y}\n" for x, y in coords))
    return path


def write_edges(path: Path, n: int, edges: Edges) -> Path:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v} 1\n" for u, v in edges))
    return path


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@dataclass
class Op:
    """One benchmark operation: CLI calls run back to back, timed together.

    Every call but the last must exit 0; the last must exit `expect_rc`.
    `check` gets the JSON report of the last call and returns None when the
    verdict matches the known answer, else what differs.  `digest_file` is
    the emitted edges file whose sha256 identifies the output; without one,
    the last report is hashed.  `inputs` are the files the set-up wrote.
    """

    slot: str
    n: int
    calls: list[list[str]]
    inputs: list[Path]
    expect_rc: int = 0
    check: Callable[[dict], str | None] | None = None
    digest_file: Path | None = None


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


# ----------------------------------------------------------------------
# general5: the fuzz family of ROADMAP item 1
# ----------------------------------------------------------------------

def fuzz_instance(rng: random.Random) -> Coords:
    """A convex core of 14 jittered points on a circle of radius R, 8-20
    interior points at 0.02-0.9 R and 0-6 outer points at 1.1-4 R, in general
    position."""
    while True:
        pts = []
        for j in range(14):
            a = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / 14
            r = R * rng.uniform(0.95, 1.05)
            pts.append((round(r * math.cos(a)), round(r * math.sin(a))))
        if not strictly_convex_cycle(pts):
            continue
        for lo, hi, k in ((0.02, 0.9, rng.randint(8, 20)), (1.1, 4.0, rng.randint(0, 6))):
            for _ in range(k):
                a, r = rng.uniform(0, 2 * math.pi), R * rng.uniform(lo, hi)
                pts.append((round(r * math.cos(a)), round(r * math.sin(a))))
        if in_general_position(pts):
            return pts


def general5(lib, work: Path, seed: int) -> list[Op]:
    ops = []
    for i in range(40):
        coords, _ = present(random.Random(f"general5:{seed}:{i}"),
                            fuzz_instance(random.Random(f"general5:{i}")))
        pts, out = write_points(work / f"g{i}.pts", coords), work / f"g{i}.edges"
        ops.append(Op(f"general5/{i}", len(coords),
                      [["--format", "json", "build", "--mode", "general5",
                        "--points", str(pts), "--out", str(out)]], [pts],
                      check=lambda r: _expect(r["kappa"] >= 5 and r["biplane"] is True,
                                              f"kappa {r['kappa']}, biplane {r['biplane']}"),
                      digest_file=out))
    return ops


# ----------------------------------------------------------------------
# augment: random triangulations, plus wheels and fans that must be refused
# ----------------------------------------------------------------------

def _check_augment(coords: Coords, min_kappa: int) -> Callable[[dict], str | None]:
    def check(r: dict) -> str | None:
        if r["kappa"] < min_kappa or r["biplane"] is not True:
            return f"kappa {r['kappa']}, biplane {r['biplane']}"
        pair = first_crossing(coords, [tuple(e) for e in r["added_edges"]])
        return None if pair is None else f"added edges {pair[0]} and {pair[1]} cross"
    return check


def augment(lib, work: Path, seed: int) -> list[Op]:
    bases = [(f"random{n}", lib.random_triangulation(n, 1000 + n, flips=n))
             for n in range(30, 51, 3)]
    bases += [(f"{shape}{n}", make(n)) for n in (30, 45)
              for shape, make in (("wheel", lib.generate_wheel), ("fan", lib.generate_fan))]
    ops = []
    for name, t in bases:
        coords, edges = present(random.Random(f"augment:{seed}:{name}"),
                                [p.coords() for p in t.ps], sorted(t.edges))
        pts = write_points(work / f"{name}.pts", coords)
        tri = write_edges(work / f"{name}.edges", len(coords), edges)
        refused = not name.startswith("random")
        for target in (4,) if refused else (4, 3):
            out = work / f"{name}.aug{target}.edges"
            call = ["--format", "json", "augment", "--target", str(target),
                    "--points", str(pts), "--edges", str(tri), "--out", str(out)]
            if refused:
                ops.append(Op(f"augment/{name}/target{target}", len(coords), [call],
                              [pts, tri], expect_rc=2))
            else:
                ops.append(Op(f"augment/{name}/target{target}", len(coords), [call],
                              [pts, tri], check=_check_augment(coords, target),
                              digest_file=out))
    return ops


# ----------------------------------------------------------------------
# convex-verify: convex constructions and negative fixtures, verified
# ----------------------------------------------------------------------

def convex_instance(rng: random.Random, n: int) -> Coords:
    """n jittered points on a circle, listed counterclockwise."""
    while True:
        pts = []
        for j in range(n):
            a = 2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / n
            pts.append((round(CONVEX_R * math.cos(a)), round(CONVEX_R * math.sin(a))))
        if strictly_convex_cycle(pts):
            return pts


def convex_verify(lib, work: Path, seed: int) -> list[Op]:
    ops = []
    for n, k in ((120, 10), (160, 12), (200, None)):
        for mode, kappa in (("convex5", 5), ("convex4", 4)):
            name = f"{mode}n{n}"
            coords, _ = present(random.Random(f"convex-verify:{seed}:{name}"),
                                convex_instance(random.Random(f"convex-verify:{name}"), n))
            pts, out = write_points(work / f"{name}.pts", coords), work / f"{name}.edges"
            ops.append(Op(f"convex-verify/{name}", n,
                          [["--format", "json", "build", "--mode", mode,
                            "--points", str(pts), "--out", str(out)],
                           ["--format", "json", "verify", "--points", str(pts),
                            "--edges", str(out)]], [pts],
                          check=lambda r, kappa=kappa: _expect(
                              r["kappa"] == kappa and r["biplane"] is True,
                              f"kappa {r['kappa']}, biplane {r['biplane']}"),
                          digest_file=out))
        if k is None:
            continue
        t = lib.generate_no5conn_counterexample(k)
        name = f"no5conn{k}"
        coords, edges = present(random.Random(f"convex-verify:{seed}:{name}"),
                                [p.coords() for p in t.ps], sorted(t.edges))
        pts = write_points(work / f"{name}.pts", coords)
        tri = write_edges(work / f"{name}.edges", len(coords), edges)
        ops.append(Op(f"convex-verify/{name}", len(coords),
                      [["--format", "json", "verify", "--points", str(pts), "--edges", str(tri)]],
                      [pts, tri],
                      check=lambda r: _expect(
                          (r["kappa"], r.get("chords"), r.get("bichords"),
                           r.get("separating_triangles")) == (4, 0, 0, 0),
                          f"kappa {r['kappa']}, chords {r.get('chords')}, bichords "
                          f"{r.get('bichords')}, separating triangles "
                          f"{r.get('separating_triangles')}")))
    return ops


WORKLOADS = {"general5": general5, "augment": augment, "convex-verify": convex_verify}
