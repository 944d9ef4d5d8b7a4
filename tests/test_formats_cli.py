import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET

import pytest

from biplane import cli
from biplane.cli import main
from biplane.convex import build_5conn_convex
from biplane.errors import PreconditionError
from biplane.formats import dumps_layered, dumps_points, loads_layered, loads_points
from biplane.generators import (random_general_position, random_triangulation,
                                regular_polygon_points)
from biplane.geometry import Point, PointSet, segments_properly_cross
from biplane.layered import BOTH, LAYER1, LAYER2, LayeredGraph
from biplane.render import render_svg
from biplane.triangulation import triangulate

from conftest import chordful_triangulation, core_plus_interior, mixed_pipeline_instance
from oracles import ref_loads_layered, ref_loads_points


class TestPointFormat:
    def test_round_trip(self):
        ps = regular_polygon_points(9)
        again = loads_points(dumps_points(ps))
        assert [p.coords() for p in again] == [p.coords() for p in ps]

    def test_comments_and_blanks(self):
        text = "# corners\n0 0\n\n4 0   # right\n1 3\n"
        ps = loads_points(text)
        assert [p.coords() for p in ps] == [(0, 0), (4, 0), (1, 3)]

    def test_bad_line_rejected(self):
        with pytest.raises(PreconditionError):
            loads_points("0 0\n1\n2 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(PreconditionError):
            loads_points("0 0\n1.5 2\n5 5\n")

    @pytest.mark.parametrize("line", ["1_000 0", "0 1_0", "\u0665 \u0663", "7 \uff17"])
    def test_only_ascii_digits_and_a_sign(self, line):
        # int() alone reads '1_000' as 1000 and Arabic-Indic or fullwidth
        # digits as their values
        with pytest.raises(PreconditionError) as err:
            loads_points(f"0 0\n{line}  # x\n5 1\n")
        assert str(err.value) == f"line 2: non-integer coordinate in {line + '  # x'!r}"

    def test_signs_and_non_ascii_comments_accepted(self):
        ps = loads_points("+3 -4  # \u00e9t\u00e9\n-7 +0\n0 9\n")
        assert [p.coords() for p in ps] == [(3, -4), (-7, 0), (0, 9)]


class TestLayeredFormat:
    def graph(self):
        ps = regular_polygon_points(4)
        return LayeredGraph(ps, [(0, 1), (0, 2)], [(1, 2), (0, 2)])

    def test_round_trip(self):
        g = self.graph()
        again = loads_layered(dumps_layered(g), g.ps)
        assert again.layers == g.layers

    def test_header_mismatch_rejected(self):
        g = self.graph()
        text = dumps_layered(g).replace("4 3", "4 7", 1)
        with pytest.raises(PreconditionError):
            loads_layered(text, g.ps)

    def test_bad_layer_rejected(self):
        g = self.graph()
        text = "4 1\n0 1 9\n"
        with pytest.raises(PreconditionError):
            loads_layered(text, g.ps)

    def test_tag_3_reads_into_both_layers(self):
        g = loads_layered("4 3\n1 0 1\n2 0 3\n2 1 2\n", self.graph().ps)
        assert g.layer_edges(LAYER1) == {(0, 1), (0, 2)}
        assert g.layer_edges(LAYER2) == {(0, 2), (1, 2)}
        assert g.layers == self.graph().layers

    def test_edge_listed_twice_with_other_tags_rejected(self):
        # the two orientations of one edge cannot carry two tags
        with pytest.raises(PreconditionError, match=r"^duplicate edge \(0, 1\)$"):
            loads_layered("4 2\n0 1 1\n1 0 3\n", self.graph().ps)


#: line breaks that str.splitlines honours, whitespace that str.split and
#: str.strip honour inside a line (two of them non-ASCII), and fields that
#: int() reads or rejects: signs, leading zeros, '_', non-ASCII digits
FUZZ_BREAKS = ["\n"] * 6 + ["\r\n"] * 3 + ["\r", "\x0b", "\u2028", "\x0c", "\x85"]
FUZZ_SPACES = [" "] * 8 + ["  ", "\t", " \t", "\xa0", "\u3000"]
FUZZ_COMMENTS = ["# note", "#", "#1 2", "# \u00e9t\u00e9", "# a_b", "#\t3"]


def fuzz_field(rng: random.Random, value: int) -> str:
    if rng.random() < 0.8:
        sign = "-" if value < 0 else rng.choice(["", "", "", "+"])
        return sign + "0" * (rng.random() < 0.05) + str(abs(value))
    return rng.choice([f"{value}_0", f"1_{abs(value)}", "\u0665", "\uff17", f"{value}.5",
                       "x", "--1", "+-2", "", f"{value}{value}"])


def fuzz_file(rng: random.Random, rows: list[list[int]]) -> str:
    """`rows` written with fuzzed fields, separators, comments, blank lines
    and, now and then, a field too many or too few."""
    lines = []
    for row in rows:
        while rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "\t", rng.choice(FUZZ_COMMENTS)]))
        fields = [fuzz_field(rng, v) if rng.random() < 0.2 else str(v) for v in row]
        if rng.random() < 0.04:
            fields.append(str(rng.randint(0, 3)))
        elif rng.random() < 0.04:
            fields.pop()
        line = rng.choice(FUZZ_SPACES).join(fields)
        if rng.random() < 0.1:
            line = rng.choice(FUZZ_SPACES) + line + rng.choice(FUZZ_SPACES)
        if rng.random() < 0.15:
            line += rng.choice(FUZZ_SPACES) + rng.choice(FUZZ_COMMENTS)
        lines.append(line)
    breaks = [rng.choice(FUZZ_BREAKS) if rng.random() < 0.3 else "\n" for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks))


def outcome(read):
    try:
        return read()
    except PreconditionError as exc:
        return f"error: {exc}"


def ok_kind(text: str) -> str:
    """A read file: one whose every field is plain ASCII without '_' as a
    whole, or one that needs the check line by line (a comment or a
    separator that is not)."""
    return "ok" if text.isascii() and "_" not in text else "ok, checked by line"


def error_kind(message: str) -> str:
    """The words of an error message before its first number, sign, tuple
    or quoted line."""
    return re.match(r"error: (?:line \d+: )?(.*?)\s*(?:[\d(']|[+-]\d|$)", message).group(1)


class TestParserDifferential:
    """loads_points and loads_layered against the line-by-line readers they
    replaced (tests/oracles.py), on seeded fuzzed files: the same value or
    the same message on each."""

    @staticmethod
    def point_case(seed: int) -> str:
        rng = random.Random(seed)
        if rng.random() < 0.5:
            coords = [(p.x, p.y) for p in random_general_position(rng.randint(3, 9), seed)]
        else:
            coords = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 7))]
            if rng.random() < 0.05:
                coords.append((2 ** 31, 0))
        return fuzz_file(rng, [list(c) for c in coords]) if rng.random() < 0.9 else "# none\n\n"

    @staticmethod
    def edge_case(seed: int) -> tuple[str, PointSet]:
        rng = random.Random(seed)
        ps = random_general_position(rng.randint(4, 7), seed % 7)
        n = len(ps)
        edges = sorted(triangulate(ps).edges)
        edges = rng.sample(edges, rng.randint(0, len(edges)))
        rows = []
        for u, v in edges:
            tag = rng.choice([1, 1, 2, 3]) if rng.random() < 0.95 else rng.choice([0, 4, -1])
            if rng.random() < 0.1:
                u, v = rng.randint(-1, n), rng.randint(-1, n)
            rows.append([v, u, tag] if rng.random() < 0.5 else [u, v, tag])
            if rng.random() < 0.05:
                rows.append([v, u, rng.randint(1, 3)])
        head = [n + (rng.random() < 0.05), len(rows) + rng.choice([0] * 18 + [-1, 1])]
        return fuzz_file(rng, [head] + rows) if rng.random() < 0.97 else "\n# none\n", ps

    def test_point_files(self):
        seen = set()
        for seed in range(1200):
            text = self.point_case(seed)
            want = outcome(lambda: ref_loads_points(text))
            if not isinstance(want, str):
                want = outcome(lambda: PointSet(want))
            got = outcome(lambda: loads_points(text))
            if isinstance(want, PointSet):
                assert not isinstance(got, str), (seed, text, got)
                assert (got.xs, got.ys) == (want.xs, want.ys), (seed, text)
                assert len(got) < 3 or got.hull() == want.hull(), (seed, text)
                seen.add(ok_kind(text))
            else:
                assert got == want, (seed, text)
                seen.add(error_kind(want))
        assert seen == {"ok", "ok, checked by line", "expected", "non-integer coordinate in",
                        "duplicate point",
                        "points", "point"}, seen

    def test_edge_lists(self):
        seen = set()
        for seed in range(1200):
            text, ps = self.edge_case(seed)
            want = outcome(lambda: ref_loads_layered(text, len(ps)))
            got = outcome(lambda: loads_layered(text, ps))
            if isinstance(want, dict):
                assert not isinstance(got, str), (seed, text, got)
                assert list(got.layers.items()) == list(want.items()), (seed, text)
                assert got.edges() == set(want) and got.edge_count() == len(want)
                for layer in (LAYER1, LAYER2):
                    assert got.layer_edges(layer) == {e for e, tag in want.items()
                                                      if tag in (layer, BOTH)}
                seen.add(ok_kind(text))
            else:
                assert got == want, (seed, text)
                seen.add(error_kind(want))
        assert seen == {"ok", "ok, checked by line", "empty edge list", "header must be",
                        "non-integer field in",
                        "edge list is for", "header promises", "expected", "layer must be",
                        "duplicate edge", "bad edge"}, seen


class TestLayeredGraph:
    # layers = (layer 1, layer 2); bad and conflicting tags can come only
    # from an edge file, and TestLayeredFormat rejects them there
    @pytest.mark.parametrize("layers,reason", [
        (([(1, 1)], []), "bad edge (1, 1)"),
        (([(0, 1)], [(0, 5)]), "bad edge (0, 5)"),
        (([], [(2, 3), (-1, 2)]), "bad edge (-1, 2)"),
        (([(5, 0)], []), "bad edge (0, 5)"),
    ])
    def test_rejects_bad_edges_tags_and_conflicts(self, layers, reason):
        with pytest.raises(PreconditionError) as err:
            LayeredGraph(regular_polygon_points(5), *layers)
        assert str(err.value) == reason

    def test_constructor_keys_and_tags_each_edge_once(self):
        ps = regular_polygon_points(5)
        g = LayeredGraph(ps, [(1, 0), (0, 2), (2, 0)], [(2, 0), (3, 4), (4, 3)])
        assert list(g.layers.items()) == [((0, 1), LAYER1), ((0, 2), BOTH), ((3, 4), LAYER2)]
        assert g.layers is g.layers
        assert g.layer_edges(LAYER1) == {(0, 1), (0, 2)}
        assert g.layer_edges(LAYER2) == {(0, 2), (3, 4)}
        assert g.edges() == {(0, 1), (0, 2), (3, 4)} and g.edge_count() == 3
        with pytest.raises(PreconditionError, match="layer must be 1 or 2"):
            g.layer_edges(0)
        same = LayeredGraph(ps, ((0, 1), (0, 2), (1, 0)), {(2, 0), (4, 3)})
        assert dumps_layered(same) == dumps_layered(g) == "5 3\n0 1 1\n0 2 3\n3 4 2\n"


class TestRender:
    #: sha256 of render_svg(g) for the graph of `test_golden_digest`
    SVG = "a2566370303d74f7b61c8498304c8b2f24aeb6fa5e37f068f4e63628de626222"

    def test_golden_digest(self):
        # tags 1 (0, 1), (0, 5), (1, 2); 2 (2, 4), (4, 5); 3 (0, 3), (1, 3)
        g = LayeredGraph(regular_polygon_points(6), [(1, 0), (0, 3), (1, 2), (1, 3), (5, 0)],
                         [(5, 4), (0, 3), (2, 4), (3, 1)])
        assert set(g.layers.values()) == {LAYER1, LAYER2, BOTH}
        assert hashlib.sha256(render_svg(g).encode()).hexdigest() == self.SVG

    def test_svg_well_formed_and_styled(self):
        g = LayeredGraph(regular_polygon_points(5), [(0, 1), (0, 2)], [(1, 3), (0, 2)])
        svg = render_svg(g)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "stroke-dasharray" in svg  # layer 2 dashed
        assert svg.count("<line") == 3

    def test_points_only(self):
        svg = render_svg(LayeredGraph(regular_polygon_points(4), (), ()))
        assert "<line" not in svg and svg.count("<circle") == 4


def _write_input(tmp_path, ps, edges):
    """Point and layer-1 edge files for `augment` or `verify`."""
    pts, path = tmp_path / "t.pts", tmp_path / "t.edges"
    pts.write_text(dumps_points(ps))
    path.write_text(dumps_layered(LayeredGraph(ps, edges, ())))
    return str(pts), str(path)


def _exit_and_digest(capsys, *argv):
    """Exit code of `biplane argv` and the sha256 of what it printed."""
    capsys.readouterr()
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_build_verify_round_trip(self, tmp_path, capsys):
        pts = tmp_path / "p.pts"
        edges = tmp_path / "g.edges"
        assert self.run("gen", "--shape", "regular", "--n", "14", "--out", str(pts)) == 0
        assert self.run("build", "--mode", "convex5", "--points", str(pts),
                        "--out", str(edges)) == 0
        out = capsys.readouterr().out
        assert "kappa: 5" in out and "biplane: true" in out
        assert self.run("verify", "--points", str(pts), "--edges", str(edges)) == 0
        out = capsys.readouterr().out
        assert "kappa: 5" in out

    def test_build_rejects_13_with_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "p13.pts"
        self.run("gen", "--shape", "regular", "--n", "13", "--out", str(pts))
        assert self.run("build", "--mode", "convex5", "--points", str(pts)) == 2

    def test_augment_wheel_exit_2(self, tmp_path):
        pts, edges = tmp_path / "w.pts", tmp_path / "w.edges"
        self.run("gen", "--shape", "wheel", "--n", "8", "--out", str(pts),
                 "--edges-out", str(edges))
        assert self.run("augment", "--target", "4", "--points", str(pts),
                        "--edges", str(edges)) == 2

    def test_augment_3_reports_added_edges(self, tmp_path, capsys):
        pts, edges = tmp_path / "f.pts", tmp_path / "f.edges"
        self.run("gen", "--shape", "fan", "--n", "8", "--out", str(pts),
                 "--edges-out", str(edges))
        capsys.readouterr()
        assert self.run("--format", "json", "augment", "--target", "3",
                        "--points", str(pts), "--edges", str(edges)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] >= 3
        assert payload["added_edges"]

    def test_augment_3_on_a_triangle_exit_3(self, tmp_path, capsys):
        t = random_triangulation(3, 0)
        pts, path = _write_input(tmp_path, t.ps, t.edges)
        capsys.readouterr()
        assert self.run("augment", "--target", "3", "--points", pts, "--edges", path) == 3
        assert capsys.readouterr().err.strip() == "error: 3-connectivity needs at least 4 points"

    @pytest.mark.parametrize("argv,points,edges,message", [
        (["gen", "--shape", "regular", "--n", "2"], None, None, "polygon needs n >= 3"),
        (["gen", "--shape", "wheel", "--n", "3"], None, None, "wheel needs n >= 4"),
        (["gen", "--shape", "fan", "--n", "2"], None, None, "fan needs n >= 3"),
        (["build", "--mode", "general5"], "0 0\n5 1\n", None, "need at least 3 points"),
        (["build", "--mode", "convex4"], "0 0\n10 0\n0 10\n2 2\n", None,
         "points must be in convex position"),
        (["verify"], "0 0\n", "1 0\n", "vertex connectivity needs n >= 2"),
        (["augment", "--target", "4"], "0 0\n10 0\n0 10\n", "3 3\n0 1 1\n0 2 1\n1 2 1\n",
         "need n >= 6 in convex position or n >= 5 otherwise"),
    ])
    def test_precondition_exit_3(self, tmp_path, capsys, argv, points, edges, message):
        for flag, text in (("--points", points), ("--edges", edges)):
            if text is not None:
                path = tmp_path / flag[2:]
                path.write_text(text)
                argv = argv + [flag, str(path)]
        capsys.readouterr()
        assert self.run(*argv) == 3
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_augment_below_the_target_exit_4(self, tmp_path, capsys, monkeypatch):
        t = chordful_triangulation(10, 1)
        assert t.chords()
        pts, path = _write_input(tmp_path, t.ps, t.edges)
        monkeypatch.setattr(cli, "min_augment_3conn", lambda t: frozenset())
        capsys.readouterr()
        assert self.run("augment", "--target", "3", "--points", pts, "--edges", path) == 4
        assert capsys.readouterr().err.strip() == (
            "error: augmented graph has kappa 2, below the target 3")

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_augment_4_random_triangulation(self, tmp_path, capsys):
        pts, edges = tmp_path / "t.pts", tmp_path / "t.edges"
        from biplane.generators import random_triangulation
        from biplane.triangulation import TriangulationClass, classify
        seed = 0
        while True:
            t = random_triangulation(7, seed)
            if classify(t) is TriangulationClass.OTHER:
                break
            seed += 1
        pts.write_text(dumps_points(t.ps))
        edges.write_text(dumps_layered(LayeredGraph(t.ps, t.edges, ())))
        assert self.run("--format", "json", "augment", "--target", "4",
                        "--points", str(pts), "--edges", str(edges)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] >= 4

    def test_verify_reports_cut_counts_for_triangulation(self, tmp_path, capsys):
        pts, edges = tmp_path / "w.pts", tmp_path / "w.edges"
        self.run("gen", "--shape", "wheel", "--n", "8", "--out", str(pts),
                 "--edges-out", str(edges))
        capsys.readouterr()
        assert self.run("--format", "json", "verify", "--points", str(pts),
                        "--edges", str(edges)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == 3
        assert payload["chords"] == 0 and payload["bichords"] > 0

    @pytest.mark.parametrize("coords,kappa", [
        ([(0, 0), (10, 0), (0, 10)], 2),
        ([(0, 0), (10, 0), (0, 10), (2, 3)], 3),
        ([(0, 0), (10, 0), (11, 9), (0, 10)], 2),
    ])
    def test_verify_small_triangulation_names_why_cut_counts_are_missing(
            self, tmp_path, capsys, coords, kappa):
        # n = 3 and n = 4 triangulations are valid input, but cut structures
        # are defined for n >= 5; the report says so instead of dropping them
        ps = PointSet(coords)
        t = triangulate(ps)
        pts, path = _write_input(tmp_path, ps, sorted(t.edges))
        capsys.readouterr()
        assert self.run("--format", "json", "verify", "--points", pts, "--edges", path) == 0
        assert json.loads(capsys.readouterr().out) == {
            "kappa": kappa, "biplane": True, "edge_count": len(t.edges),
            "cut_structures": "not reported: defined for n >= 5"}

    def test_verify_names_the_crossing_pair(self, tmp_path, capsys):
        # retag one layer-2 edge of a convex5 output so that it crosses a
        # layer-1 edge; the violation names the layer and the pair
        ps = regular_polygon_points(14)
        g = build_5conn_convex(ps)
        one = g.layer_edges(LAYER1)
        e = next(e for e in sorted(g.layer_edges(LAYER2) - one)
                 if any(segments_properly_cross(ps, *e, *f)
                        for f in one))
        pts, path = tmp_path / "x.pts", tmp_path / "x.edges"
        pts.write_text(dumps_points(ps))
        path.write_text(dumps_layered(LayeredGraph(ps, one | {e}, g.layer_edges(LAYER2) - {e})))
        capsys.readouterr()
        assert self.run("--format", "json", "verify", "--points", str(pts),
                        "--edges", str(path)) == 0
        payload = json.loads(capsys.readouterr().out)
        (violation,) = payload["violations"]
        a, b, c, d = map(int, re.fullmatch(
            r"layer 1 edges \((\d+), (\d+)\) and \((\d+), (\d+)\) cross", violation).groups())
        assert e in ((a, b), (c, d)) and (a, b) < (c, d)
        assert segments_properly_cross(ps, a, b, c, d)
        assert payload["biplane"] is True
        # the text report prints the same violation on its own line
        assert self.run("verify", "--points", str(pts), "--edges", str(path)) == 0
        assert f"violation: {violation}" in capsys.readouterr().out.splitlines()

    def test_no5conn_gen_and_verify(self, tmp_path, capsys):
        pts, edges = tmp_path / "c.pts", tmp_path / "c.edges"
        assert self.run("gen", "--shape", "no5conn", "--k", "2", "--out", str(pts),
                        "--edges-out", str(edges)) == 0
        capsys.readouterr()
        assert self.run("--format", "json", "verify", "--points", str(pts),
                        "--edges", str(edges)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == 4
        assert payload["chords"] == payload["bichords"] == payload["separating_triangles"] == 0

    @pytest.mark.parametrize("target", ["3", "4"])
    @pytest.mark.parametrize("n,seed,change,reason", [
        (10, 1, "drop an edge", "edge count 20 != 3n-3-h = 21"),
        (14, 0, "add crossing (0, 6)", "edge count 34 != 3n-3-h = 33"),
    ])
    def test_augment_non_triangulation_exit_3(self, tmp_path, capsys, target,
                                              n, seed, change, reason):
        t = random_triangulation(n, seed)
        edges = sorted(t.edges)[1:] if change == "drop an edge" else sorted(t.edges | {(0, 6)})
        pts, path = _write_input(tmp_path, t.ps, edges)
        capsys.readouterr()
        assert self.run("augment", "--target", target, "--points", pts, "--edges", path) == 3
        assert capsys.readouterr().err.strip() == f"error: {reason}"
        # verify still reports, but has no cut structures of another graph
        assert self.run("--format", "json", "verify", "--points", pts, "--edges", path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edge_count"] == len(edges)
        assert not {"chords", "bichords", "separating_triangles"} & set(payload)

    def test_build_nonconvex_precondition_exit_3(self, tmp_path):
        pts = tmp_path / "nc.pts"
        from biplane.formats import dumps_points
        from biplane.generators import regular_polygon_points
        base = regular_polygon_points(14)
        body = dumps_points(base) + "1 2\n"
        pts.write_text(body)
        assert self.run("build", "--mode", "convex5", "--points", str(pts)) == 3

    def test_gen_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.pts", tmp_path / "b.pts"
        self.run("gen", "--shape", "random", "--n", "20", "--seed", "7", "--out", str(a))
        self.run("gen", "--shape", "random", "--n", "20", "--seed", "7", "--out", str(b))
        assert a.read_text() == b.read_text()
        # without --out the same points go to stdout
        capsys.readouterr()
        assert self.run("gen", "--shape", "random", "--n", "20", "--seed", "7") == 0
        assert capsys.readouterr().out == a.read_text()

    def test_build_general_with_trace(self, tmp_path, capsys):
        pts = tmp_path / "g.pts"
        trace = tmp_path / "trace"
        self.run("gen", "--shape", "regular", "--n", "14", "--out", str(pts))
        capsys.readouterr()
        assert self.run("build", "--mode", "general5", "--points", str(pts),
                        "--out", str(tmp_path / "g.edges"), "--trace", str(trace)) == 0
        assert list(trace.glob("*.edges"))

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_general5_out_round_trips_through_verify(self, tmp_path, capsys, seed):
        pts, edges = tmp_path / "p.pts", tmp_path / "g.edges"
        pts.write_text(dumps_points(core_plus_interior(24, seed, outer=2)))
        capsys.readouterr()
        assert main(["--format", "json", "build", "--mode", "general5", "--points", str(pts),
                     "--out", str(edges)]) == 0
        built = json.loads(capsys.readouterr().out)
        assert main(["--format", "json", "verify", "--points", str(pts),
                     "--edges", str(edges)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["kappa"] == built["kappa"] >= 5
        assert got["biplane"] is True and "violations" not in got, got

    def test_render_cli(self, tmp_path):
        pts, edges, svg = tmp_path / "p.pts", tmp_path / "g.edges", tmp_path / "g.svg"
        self.run("gen", "--shape", "regular", "--n", "12", "--out", str(pts))
        self.run("build", "--mode", "convex5", "--points", str(pts), "--out", str(edges))
        assert self.run("render", "--points", str(pts), "--edges", str(edges),
                        "--out", str(svg)) == 0
        ET.fromstring(svg.read_text())

    def test_render_empty_point_file(self, tmp_path):
        pts, svg = tmp_path / "empty.pts", tmp_path / "e.svg"
        pts.write_text("")
        assert self.run("render", "--points", str(pts), "--out", str(svg)) == 0
        text = svg.read_text()
        ET.fromstring(text)
        assert "<circle" not in text

    @pytest.mark.parametrize("text,reason", [
        ("3 x\n", "line 1: non-integer field in '3 x'"),
        ("# header\n3 1\n0 a 1\n", "line 3: non-integer field in '0 a 1'"),
        # int() alone also reads '1_0' and non-ASCII digits such as '\u0662'
        ("3 1\n0 \u0662 1\n", "line 2: non-integer field in '0 \u0662 1'"),
        ("3 1\n0 1_0 1\n", "line 2: non-integer field in '0 1_0 1'"),
        ("3 1_0\n0 1 1\n", "line 1: non-integer field in '3 1_0'"),
    ])
    def test_malformed_edge_list_exit_3(self, tmp_path, capsys, text, reason):
        pts, edges = tmp_path / "p.pts", tmp_path / "g.edges"
        pts.write_text("0 0\n4 1\n1 4\n")
        edges.write_text(text)
        capsys.readouterr()
        assert self.run("verify", "--points", str(pts), "--edges", str(edges)) == 3
        assert capsys.readouterr().err.strip() == f"error: {reason}"

    def test_verify_rejects_underscored_coordinates_exit_3(self, tmp_path, capsys):
        pts, edges = tmp_path / "p.pts", tmp_path / "g.edges"
        pts.write_text("0 0\n4 1\n1_0 4\n")
        edges.write_text("3 1\n0 1 1\n")
        capsys.readouterr()
        assert self.run("verify", "--points", str(pts), "--edges", str(edges)) == 3
        assert capsys.readouterr().err.strip() == (
            "error: line 3: non-integer coordinate in '1_0 4'")

    def test_gen_random_negative_n_exit_3(self, tmp_path, capsys):
        pts = tmp_path / "r.pts"
        capsys.readouterr()
        assert self.run("gen", "--shape", "random", "--n", "-3", "--out", str(pts)) == 3
        assert capsys.readouterr().err.strip() == (
            "error: random point set needs n >= 0, got -3")
        assert not pts.exists()

    @pytest.mark.parametrize("argv,message", [
        (("build", "--mode", "bogus", "--points", "p.txt"), "argument --mode: invalid choice: 'bogus'"),
        (("gen", "--shape", "regular", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        (("augment", "--target", "4", "--points", "p.txt"), "the following arguments are required: --edges"),
        (("--format", "xml", "verify"), "argument --format: invalid choice: 'xml'"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
    ])
    def test_usage_error_exit_3(self, capsys, argv, message):
        # argparse would exit 2, the code of an impossibility rejection
        capsys.readouterr()
        assert self.run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: biplane" in captured.err
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv", [("--help",), ("augment", "--help")])
    def test_help_exit_0(self, capsys, argv):
        assert self.run(*argv) == 0
        assert "usage: biplane" in capsys.readouterr().out

    def test_missing_points_file_exit_1(self, tmp_path, capsys):
        capsys.readouterr()
        assert self.run("build", "--mode", "convex5", "--points", str(tmp_path / "none.txt")) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")

    def test_byte_identical_build_outputs(self, tmp_path):
        pts = tmp_path / "p.pts"
        self.run("gen", "--shape", "regular", "--n", "16", "--out", str(pts))
        outs = []
        for name in ("x.edges", "y.edges"):
            out = tmp_path / name
            self.run("build", "--mode", "convex4", "--points", str(pts), "--out", str(out))
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestCliGolden:
    """sha256 of the standard output of fixed CLI runs: a change that only
    restructures the code must leave every digest as it is."""

    BUILD = {
        ("convex4", 12): "06f7fe52507506929e5c3910729bf195ad1621bffff5061f5ca35805fc42d6a6",
        ("convex4", 14): "90ce2d0c32ad4678945e7abd16eed43cef46adec6fe49a768e88d3eb9a92e37d",
        ("convex4", 16): "360e87a1d29259dda67b44412951a36f481efd747849773e9a63e5690598ee95",
        ("convex4", 30): "c8aa7d65aa2c29a8ac1621e23486df9dd7f5eeb5417c6a200d7652772c2f69ff",
        ("convex5", 12): "e137c1c8cc5f1e0cb7722f8afa37cf38b03286bbbb3b4cbddd31de17abc6221f",
        ("convex5", 14): "956a2ffbaea0fb3291193aa4dca9cbeceb5a1322c2db536431040720589cacad",
        ("convex5", 16): "f91c60de73fb135054ac65334a0de8946fbfcdfec9dad4dbcb2f3887b787ef89",
        ("convex5", 30): "95242a0cdd66f06ef0ce73a2c4812ecf5519f4b85a080438a7639e5519fab60b",
    }

    AUGMENT = {
        (3, "random", 10, 1): (0, "cae7e24a1e3ae909e44baf87ea303b995f89063ca77ba5408834ff53494e250b"),
        (3, "random", 14, 0): (0, "f1baf4e947a0891667a2b8ece5c590296d29221d85a95a119b722a259fe1a12e"),
        (3, "random", 20, 5): (0, "08f91072abfccef3b9fcddacf5895b2bd301fc87b09da7fae8445892f9214b2e"),
        (3, "random", 30, 2): (0, "ca37d164faeab979595ba722145fe89ff2bbd2c892ba6c9bdccb0cae9c13323b"),
        (3, "chordful", 8, 0): (0, "aee132135114f0420080efa47c5fe965b676776f4723fdb03e18cb920504d25d"),
        (3, "chordful", 11, 3): (0, "49dc977af176e35c21dff9662f80525af1de6d58fc15d95ca7681dbaec6e34ee"),
        (3, "chordful", 16, 6): (0, "59d1f641ff822f6ffb749f2259a7158c56468b077c6c4575d6a5aa60716e212c"),
        (3, "chordful", 40, 0): (0, "0d11ea02eae9547ad8fb17ee04e761caa3c563928909f7b277c24c0b82b4cb12"),
        (3, "chordful", 64, 0): (0, "8341a227accff1c5389c6bfe7a90a5a8bd420fb811e87e76f71321c03cb3dfa5"),
        (4, "random", 10, 1): (0, "6ae33658302c45dd58742b53d4c20fad2ba0455f1cf2c5ac06b9b80e8680aee0"),
        (4, "random", 14, 0): (0, "dac4931dca7796a93e327f55a8e5f5780932d7196126f46480116f6cd0bdbf1a"),
        (4, "random", 20, 5): (0, "4d87a545c997a8659679f20c6e6ede767822325ed2e0bc06276aa706df1c8685"),
        (4, "random", 30, 2): (0, "cf81aaab16feca994108ca6f46122ece6002f97472df7aea0b6aa4342551e585"),
        (4, "chordful", 8, 0): (0, "f7bd5ffed30ae9d91b83eb6adc3af2a4294f1f0cb1706993f1e19ad13eb485b0"),
        (4, "chordful", 11, 3): (0, "67625feea64739a455a41e8e13d879c75156f309e094f0f0ad3dd6c43c370dfd"),
        (4, "chordful", 16, 6): (0, "6c54335bd7faff482d67e17c470f9cbd3d5ac77391713493d486e0cd24c259c2"),
    }

    VERIFY = {
        "convex5": "1cd5b20a6812afae0899eed4dd30529344877ccc4de20a8e006aa65c42b09d5c",
        "no5conn": "e1da8b8e6a88817351da12627000f2889ce67753d5cbf7c82a5271b7ae80d441",
    }

    #: sha256 over the step files of `build --mode general5 --trace` on
    #: mixed_pipeline_instance(3), each as its name, a newline and its text:
    #: core, four interior steps, boundary, one exterior step
    TRACE = "dc34be412b7b118454d5bce66a312bee1adf181464b077d48adfe5e53cfa36dd"

    def test_general5_trace_steps(self, tmp_path, capsys):
        pts, trace = tmp_path / "p.pts", tmp_path / "tr"
        pts.write_text(dumps_points(mixed_pipeline_instance(3)))
        capsys.readouterr()
        assert main(["--format", "json", "build", "--mode", "general5", "--points", str(pts),
                     "--trace", str(trace)]) == 0
        files = sorted(trace.iterdir())
        assert json.loads(capsys.readouterr().out)["phase_checkpoints"] == [str(f) for f in files]
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode() + b"\n" + f.read_bytes())
        assert (len(files), digest.hexdigest()) == (7, self.TRACE)
        assert main(["--format", "json", "build", "--mode", "general5", "--points", str(pts)]) == 0
        assert "phase_checkpoints" not in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("mode,n", sorted(BUILD))
    def test_build(self, tmp_path, capsys, mode, n):
        pts = tmp_path / "p.pts"
        main(["gen", "--shape", "regular", "--n", str(n), "--out", str(pts)])
        got = _exit_and_digest(capsys, "build", "--mode", mode, "--points", str(pts))
        assert got == (0, self.BUILD[mode, n])

    @pytest.mark.parametrize("target,kind,n,seed", sorted(AUGMENT))
    def test_augment(self, tmp_path, capsys, target, kind, n, seed):
        make = random_triangulation if kind == "random" else chordful_triangulation
        t = make(n, seed)
        pts, edges = _write_input(tmp_path, t.ps, t.edges)
        got = _exit_and_digest(capsys, "augment", "--target", str(target),
                               "--points", pts, "--edges", edges)
        assert got == self.AUGMENT[target, kind, n, seed]

    @pytest.mark.parametrize("source", sorted(VERIFY))
    def test_json_verify(self, tmp_path, capsys, source):
        pts, edges = tmp_path / "p.pts", tmp_path / "g.edges"
        if source == "convex5":
            main(["gen", "--shape", "regular", "--n", "14", "--out", str(pts)])
            main(["build", "--mode", "convex5", "--points", str(pts), "--out", str(edges)])
        else:
            main(["gen", "--shape", "no5conn", "--k", "2", "--out", str(pts),
                  "--edges-out", str(edges)])
        got = _exit_and_digest(capsys, "--format", "json", "verify",
                               "--points", str(pts), "--edges", str(edges))
        assert got == (0, self.VERIFY[source])


class TestNoPointBuiltInside:
    """The library reads coordinates by vertex id: with `Point` unbuildable,
    every command prints, writes and exits as it does otherwise."""

    @staticmethod
    def inputs(root):
        (root / "g.txt").write_text(dumps_points(mixed_pipeline_instance(3)))
        for name, t in (("r", random_triangulation(12, 352)), ("h", chordful_triangulation(16, 6))):
            (root / f"{name}.txt").write_text(dumps_points(t.ps))
            (root / f"{name}.edges").write_text(dumps_layered(LayeredGraph(t.ps, t.edges, ())))

    RUNS = [
        ["gen", "--shape", "regular", "--n", "14", "--out", "p.txt"],
        ["gen", "--shape", "random", "--n", "30", "--seed", "3"],
        ["gen", "--shape", "wheel", "--n", "9", "--out", "w.txt", "--edges-out", "w.edges"],
        ["gen", "--shape", "fan", "--n", "8", "--out", "f.txt", "--edges-out", "f.edges"],
        ["gen", "--shape", "no5conn", "--k", "3", "--out", "c.txt", "--edges-out", "c.edges"],
        ["build", "--mode", "convex4", "--points", "p.txt"],
        ["build", "--mode", "convex5", "--points", "p.txt", "--out", "c5.edges"],
        ["--format", "json", "build", "--mode", "general5", "--points", "g.txt",
         "--out", "g5.edges", "--trace", "tr"],
        ["--format", "json", "augment", "--target", "3", "--points", "f.txt", "--edges", "f.edges"],
        ["augment", "--target", "3", "--points", "h.txt", "--edges", "h.edges"],
        ["augment", "--target", "4", "--points", "w.txt", "--edges", "w.edges"],
        ["--format", "json", "augment", "--target", "4", "--points", "c.txt", "--edges", "c.edges"],
        ["augment", "--target", "4", "--points", "r.txt", "--edges", "r.edges"],
        ["augment", "--target", "4", "--points", "h.txt", "--edges", "h.edges"],
        ["--format", "json", "verify", "--points", "p.txt", "--edges", "c5.edges"],
        ["verify", "--points", "c.txt", "--edges", "c.edges"],
        ["verify", "--points", "g.txt", "--edges", "g5.edges"],
        ["render", "--points", "g.txt", "--edges", "g5.edges", "--out", "g.svg"],
    ]

    def run_all(self, root, monkeypatch, capsys):
        root.mkdir()
        self.inputs(root)
        monkeypatch.chdir(root)
        capsys.readouterr()
        runs = []
        for argv in self.RUNS:
            code = main(list(argv))
            runs.append((argv, code, *capsys.readouterr()))
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        return runs, files

    def test_every_command_runs_without_building_a_point(self, tmp_path, monkeypatch, capsys):
        want = self.run_all(tmp_path / "plain", monkeypatch, capsys)

        def unbuildable(self, *args, **kwargs):
            raise AssertionError("a Point was built")

        monkeypatch.setattr(Point, "__init__", unbuildable)
        with pytest.raises(AssertionError, match="a Point was built"):
            Point(0, 0)
        got = self.run_all(tmp_path / "patched", monkeypatch, capsys)
        assert got == want
        runs, files = want
        assert [code for _, code, _, _ in runs] == [0] * 10 + [2] + [0] * 7
        assert len(files) == 22 and "tr/step_006_exterior_21.edges" in files
