"""Text formats: point sets ("x y" per line, '#' comments) and layered edge
lists (header "n m", then "u v layer" with layer in {1, 2, 3}).  Integer
fields are ASCII digits with an optional sign."""
from __future__ import annotations

from .errors import PreconditionError
from .geometry import PointSet
from .layered import BOTH, LAYER1, LAYER2, LayeredGraph
from .triangulation import Edge


def dumps_points(ps: PointSet) -> str:
    return "".join(f"{x} {y}\n" for x, y in zip(ps.xs, ps.ys))


def loads_points(text: str) -> PointSet:
    lines, rows = _rows(text)
    plain = _plain(text)
    coords: list[tuple[int, int]] = []
    for lineno, (raw, row) in enumerate(zip(lines, rows), start=1):
        if not row:
            continue
        if len(row) != 2:
            raise PreconditionError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            if not plain:
                _check_plain(raw)
            x, y = int(row[0]), int(row[1])
        except ValueError as exc:
            raise PreconditionError(f"line {lineno}: non-integer coordinate in {raw!r}") from exc
        coords.append((x, y))
    return PointSet(coords)


def dumps_layered(g: LayeredGraph) -> str:
    lines = [f"{len(g.ps)} {g.edge_count()}"]
    for (u, v), tag in g.layers.items():
        lines.append(f"{u} {v} {tag}")
    return "\n".join(lines) + "\n"


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    """The lines of `text` and the whitespace-separated fields of each, with
    its comment cut off; each line is split once."""
    lines = text.splitlines()
    if "#" in text:
        return lines, [raw.split("#", 1)[0].split() for raw in lines]
    return lines, [raw.split() for raw in lines]


def _plain(text: str) -> bool:
    """True iff `text` is ASCII without '_', so that int() takes a field of
    it only when it is digits with an optional sign: int() alone also takes
    '_' separators and non-ASCII digits.  The readers test a whole file
    once, and each line only in a file that fails."""
    return text.isascii() and "_" not in text


def _stripped(raw: str) -> str:
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def _check_plain(raw: str) -> None:
    """Raise ValueError unless line `raw` passes `_plain` on its own: the
    check of each line in a file that fails it as a whole."""
    if not _plain(_stripped(raw)):
        raise ValueError(f"not plain decimal integers: {raw!r}")


def _non_integer(lineno: int, raw: str) -> PreconditionError:
    return PreconditionError(f"line {lineno}: non-integer field in {_stripped(raw)!r}")


def loads_layered(text: str, ps: PointSet) -> LayeredGraph:
    """The graph of an edge list on `ps`.  Each line's tag is decoded here
    into the two layer edge sets (3 puts the edge in both); a bad tag or an
    edge listed twice, in either orientation, is rejected."""
    lines, rows = _rows(text)
    found = len(rows) - rows.count([]) - 1
    if found < 0:
        raise PreconditionError("empty edge list")
    at = next(i for i, row in enumerate(rows) if row)
    if len(rows[at]) != 2:
        raise PreconditionError("header must be 'n m'")
    plain = _plain(text)
    try:
        if not plain:
            _check_plain(lines[at])
        n, m = int(rows[at][0]), int(rows[at][1])
    except ValueError as exc:
        raise _non_integer(at + 1, lines[at]) from exc
    if n != len(ps):
        raise PreconditionError(f"edge list is for {n} points, point set has {len(ps)}")
    if found != m:
        raise PreconditionError(f"header promises {m} edges, found {found}")
    seen: set[Edge] = set()
    one: list[Edge] = []
    two: list[Edge] = []
    for i in range(at + 1, len(rows)):
        row = rows[i]
        if not row:
            continue
        if len(row) != 3:
            raise PreconditionError(f"expected 'u v layer', got {_stripped(lines[i])!r}")
        try:
            if not plain:
                _check_plain(lines[i])
            u, v, tag = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise _non_integer(i + 1, lines[i]) from exc
        if tag not in (LAYER1, LAYER2, BOTH):
            raise PreconditionError(f"layer must be 1, 2 or 3, got {tag}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise PreconditionError(f"duplicate edge {e}")
        seen.add(e)
        if tag != LAYER2:
            one.append(e)
        if tag != LAYER1:
            two.append(e)
    return LayeredGraph(ps, one, two)
