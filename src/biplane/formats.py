"""Text formats: point sets ("x y" per line, '#' comments) and layered edge
lists (header "n m", then "u v layer" with layer in {1, 2, 3}).  Integer
fields are ASCII digits with an optional sign."""
from __future__ import annotations

from .errors import PreconditionError
from .geometry import PointSet
from .layered import BOTH, LAYER1, LAYER2, LayeredGraph
from .triangulation import Edge, edge_key


def dumps_points(ps: PointSet) -> str:
    return "".join(f"{p.x} {p.y}\n" for p in ps)


def loads_points(text: str) -> PointSet:
    coords: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PreconditionError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            x, y = _plain_ints(line)
        except ValueError as exc:
            raise PreconditionError(f"line {lineno}: non-integer coordinate in {raw!r}") from exc
        coords.append((x, y))
    return PointSet(coords)


def dumps_layered(g: LayeredGraph) -> str:
    lines = [f"{len(g.ps)} {g.edge_count()}"]
    for (u, v), tag in g.layers.items():
        lines.append(f"{u} {v} {tag}")
    return "\n".join(lines) + "\n"


def _plain_ints(row: str) -> list[int]:
    """The whitespace-separated integers of `row`.  Raises ValueError unless
    each is ASCII digits with an optional sign: int() alone also takes '_'
    separators and non-ASCII digits."""
    if not row.isascii() or "_" in row:
        raise ValueError(f"not plain decimal integers: {row!r}")
    return [int(part) for part in row.split()]


def _ints(lineno: int, row: str) -> list[int]:
    try:
        return _plain_ints(row)
    except ValueError as exc:
        raise PreconditionError(f"line {lineno}: non-integer field in {row!r}") from exc


def loads_layered(text: str, ps: PointSet) -> LayeredGraph:
    """The graph of an edge list on `ps`.  Each line's tag is decoded here
    into the two layer edge sets (3 puts the edge in both); a bad tag or an
    edge listed twice, in either orientation, is rejected."""
    rows = [(lineno, r.split("#", 1)[0].strip())
            for lineno, r in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, r) for lineno, r in rows if r]
    if not rows:
        raise PreconditionError("empty edge list")
    head = rows[0][1].split()
    if len(head) != 2:
        raise PreconditionError("header must be 'n m'")
    n, m = _ints(*rows[0])
    if n != len(ps):
        raise PreconditionError(f"edge list is for {n} points, point set has {len(ps)}")
    if len(rows) - 1 != m:
        raise PreconditionError(f"header promises {m} edges, found {len(rows) - 1}")
    seen: set[Edge] = set()
    one: list[Edge] = []
    two: list[Edge] = []
    for lineno, row in rows[1:]:
        if len(row.split()) != 3:
            raise PreconditionError(f"expected 'u v layer', got {row!r}")
        u, v, tag = _ints(lineno, row)
        if tag not in (LAYER1, LAYER2, BOTH):
            raise PreconditionError(f"layer must be 1, 2 or 3, got {tag}")
        e = edge_key(u, v)
        if e in seen:
            raise PreconditionError(f"duplicate edge {e}")
        seen.add(e)
        if tag != LAYER2:
            one.append(e)
        if tag != LAYER1:
            two.append(e)
    return LayeredGraph(ps, one, two)
