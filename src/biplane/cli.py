"""Command-line front end: generators, builders, augmenters, verifier and SVG
rendering.  Exit codes: 0 success, 1 unreadable or unwritable files, 2
impossibility rejections, 3 precondition violations and usage errors, 4
internal invariant failures."""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .augment import augment_to_4conn
from .connectivity import compute_layering, cut_structures, kappa_of, layer_crossing
from .convex import build_4conn_convex, build_5conn_convex
from .errors import BiplaneError, InternalInvariantError, PreconditionError
from .formats import dumps_layered, dumps_points, loads_layered, loads_points
from .generators import (generate_fan, generate_no5conn_counterexample,
                         generate_wheel, random_general_position,
                         regular_polygon_points)
from .insertion import build_5conn_general
from .layered import LayeredGraph
from .render import render_svg
from .treeaug import min_augment_3conn
from .triangulation import Triangulation, triangulation_from_edges


@dataclass
class RunReport:
    """Verification summary; kappa and biplane are always recomputed from the
    emitted graph, never trusted from the builders."""

    kappa: int
    biplane: bool
    edge_count: int
    phase_checkpoints: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"kappa": self.kappa, "biplane": self.biplane, "edge_count": self.edge_count}
        if self.phase_checkpoints:
            out["phase_checkpoints"] = self.phase_checkpoints
        if self.violations:
            out["violations"] = self.violations
        out.update(self.extras)
        return out

    def text(self) -> str:
        lines = [f"kappa: {self.kappa}", f"biplane: {str(self.biplane).lower()}",
                 f"edges: {self.edge_count}"]
        for key, value in self.extras.items():
            lines.append(f"{key}: {value}")
        for c in self.phase_checkpoints:
            lines.append(f"checkpoint: {c}")
        for v in self.violations:
            lines.append(f"violation: {v}")
        return "\n".join(lines)


def _report_for(g: LayeredGraph) -> RunReport:
    crossing = layer_crossing(g)
    biplane = crossing is None or compute_layering(g.ps, sorted(g.edges()))[0] is not None
    violations = [] if crossing is None else ["layer {} edges {} and {} cross".format(*crossing)]
    return RunReport(kappa=kappa_of(g), biplane=biplane,
                     edge_count=g.edge_count(), violations=violations)


def _emit(args, report: RunReport, graph: LayeredGraph | None) -> None:
    payload = report.as_dict()
    if graph is not None and args.out:
        Path(args.out).write_text(dumps_layered(graph))
        payload["out"] = args.out
    if args.format == "json":
        if graph is not None and not args.out:
            payload["edges"] = [[u, v, tag] for (u, v), tag in graph.layers.items()]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.text())
        if graph is not None and args.out:
            print(f"written: {args.out}")
        elif graph is not None:
            sys.stdout.write(dumps_layered(graph))


def _cmd_gen(args) -> int:
    if args.shape == "regular":
        ps, tri = regular_polygon_points(args.n), None
    elif args.shape == "random":
        ps, tri = random_general_position(args.n, args.seed), None
    elif args.shape == "wheel":
        tri = generate_wheel(args.n)
        ps = tri.ps
    elif args.shape == "fan":
        tri = generate_fan(args.n)
        ps = tri.ps
    else:
        tri = generate_no5conn_counterexample(args.k)
        ps = tri.ps
    text = dumps_points(ps)
    if args.out:
        Path(args.out).write_text(text)
        print(f"written: {args.out}")
    else:
        sys.stdout.write(text)
    if tri is not None and args.edges_out:
        g = LayeredGraph(ps, tri.edges, ())
        Path(args.edges_out).write_text(dumps_layered(g))
        print(f"written: {args.edges_out}")
    return 0


def _cmd_build(args) -> int:
    ps = loads_points(Path(args.points).read_text())
    checkpoints: list[str] = []
    if args.mode == "convex4":
        g = build_4conn_convex(ps)
    elif args.mode == "convex5":
        g = build_5conn_convex(ps)
    elif args.trace:
        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)

        def on_step(label: str, snapshot: LayeredGraph) -> None:
            path = trace_dir / f"step_{len(checkpoints):03d}_{label.replace(':', '_')}.edges"
            path.write_text(dumps_layered(snapshot))
            checkpoints.append(str(path))

        g = build_5conn_general(ps, on_step)
    else:
        g = build_5conn_general(ps)
    report = _report_for(g)
    report.phase_checkpoints = checkpoints
    _emit(args, report, g)
    return 0


def _load_triangulation(points_path: str, edges_path: str) -> Triangulation:
    ps = loads_points(Path(points_path).read_text())
    g = loads_layered(Path(edges_path).read_text(), ps)
    return triangulation_from_edges(ps, g.edges())


def _cmd_augment(args) -> int:
    t = _load_triangulation(args.points, args.edges)
    if args.target == 4:
        added = augment_to_4conn(t)
    else:
        added = min_augment_3conn(t)
    g = LayeredGraph(t.ps, t.edges, added)
    report = _report_for(g)
    if report.kappa < args.target:
        raise InternalInvariantError(
            f"augmented graph has kappa {report.kappa}, below the target {args.target}")
    report.extras["added_edges"] = sorted(map(list, added))
    _emit(args, report, g)
    return 0


def _cmd_verify(args) -> int:
    ps = loads_points(Path(args.points).read_text())
    g = loads_layered(Path(args.edges).read_text(), ps)
    report = _report_for(g)
    try:
        t = triangulation_from_edges(ps, g.edges())
    except PreconditionError:
        t = None  # the union is not a triangulation; cut structures do not apply
    if t is not None and len(ps) < 5:
        report.extras["cut_structures"] = "not reported: defined for n >= 5"
    elif t is not None:
        rep = cut_structures(t)
        report.extras["chords"] = len(rep.chords)
        report.extras["bichords"] = len(rep.bichords)
        report.extras["separating_triangles"] = len(rep.separating_triangles)
    _emit(args, report, None)
    return 0


def _cmd_render(args) -> int:
    ps = loads_points(Path(args.points).read_text())
    if args.edges:
        g = loads_layered(Path(args.edges).read_text(), ps)
    else:
        g = LayeredGraph(ps, (), ())
    Path(args.out).write_text(render_svg(g))
    print(f"written: {args.out}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="biplane",
                                description="Highly connected biplane geometric graphs")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate point sets and fixture triangulations")
    g.add_argument("--shape", required=True,
                   choices=("regular", "random", "wheel", "fan", "no5conn"))
    g.add_argument("--n", type=int, default=12)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.add_argument("--edges-out")
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("build", help="build highly connected biplane graphs")
    b.add_argument("--mode", required=True, choices=("convex4", "convex5", "general5"))
    b.add_argument("--points", required=True)
    b.add_argument("--out")
    b.add_argument("--trace")
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser("augment", help="augment a triangulation to higher connectivity")
    a.add_argument("--target", type=int, required=True, choices=(3, 4))
    a.add_argument("--points", required=True)
    a.add_argument("--edges", required=True)
    a.add_argument("--out")
    a.set_defaults(func=_cmd_augment)

    v = sub.add_parser("verify", help="verify connectivity and biplanarity")
    v.add_argument("--points", required=True)
    v.add_argument("--edges", required=True)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render", help="render a layered graph to SVG")
    r.add_argument("--points", required=True)
    r.add_argument("--edges")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_render)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message and exits 2 on a usage error, the
        # code of an impossibility rejection; --help exits 0
        return 3 if exc.code else 0
    try:
        return args.func(args)
    except BiplaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
