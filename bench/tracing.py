"""Per-layer tracing from outside the library.

`Tracer.install` wraps public functions and classes of the `biplane` modules
that are already imported, in every module that bound them with
`from .x import f`, and `Tracer.uninstall` puts the originals back.  Spans are
kept in memory as tuples and written out once, at the end of the run.

The two orientation predicates run over a million times per instance, so they
are wrapped with a bare counter instead of a span.

Which end-to-end metric each group of layer metrics should move, and where:
  insertion.*, triangulation flips/builds, layered.*,
  geometry.max_convex_subset_indices      latency on general5 only
  geometry.cross/segments_properly_cross  latency on all three workloads
  geometry.PointSet, geometry.convex_hull latency and setup_s on convex-verify
                                          (n = 200) and general5
  connectivity.vertex_connectivity,
  connectivity.verify_layering/compute_layering, convex.*
                                          latency on convex-verify
  connectivity.cut_structures/check_4conn_augmentation, augment.*, treeaug.*,
  triangulation.triangulation_from_edges  latency on augment
  generators.*                            setup_s on augment and convex-verify
  formats.*                               latency on all three workloads
"""
from __future__ import annotations

import functools
import sys
import time

#: Wrapped with a span: "<module>.<function>", "<module>.<Class>" (the span
#: covers __init__) or "<module>.<Class>.<method>".
SPANNED = (
    "insertion.insert_interior_point", "insertion.insert_hull_points",
    "insertion.check_property_maxi",
    "triangulation.Triangulation", "triangulation.Triangulation.locate",
    "triangulation.flip", "triangulation.complete_to_triangulation",
    "triangulation.triangulation_from_edges",
    "geometry.PointSet", "geometry.convex_hull", "geometry.max_convex_subset_indices",
    "layered.LayeredGraph",
    "connectivity.vertex_connectivity", "connectivity.verify_layering",
    "connectivity.compute_layering", "connectivity.cut_structures",
    "connectivity.check_4conn_augmentation",
    "augment.augment_to_4conn", "augment.flip_pair_helper", "treeaug.min_augment_3conn",
    "convex.build_5conn_convex", "convex.build_4conn_convex", "convex.find_hamiltonian_cycle",
    "generators.random_triangulation", "generators.generate_no5conn_counterexample",
    "formats.loads_points", "formats.loads_layered", "formats.dumps_layered",
)
COUNTED = ("geometry.cross", "geometry.segments_properly_cross")

INSERT = "insertion.insert_interior_point"


def _per(x: float, base: float) -> float:
    return x / base if base else 0.0


class Tracer:
    """Spans and counters for one traced run.

    A span is (name, start, end, parent span index or -1, outermost, op);
    `outermost` is false for a call nested inside another call of the same
    name, so that inclusive time is not counted twice for recursion.  `op` is
    the index of the benchmark operation in flight, -1 during set-up.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTED}
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {name: 0 for name in SPANNED}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _spanned(self, name: str, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outermost = active[name] == 0
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outermost, self.op)
        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in its defining module and in every biplane
        module that imported it by name."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "biplane" or key.startswith("biplane.")]
        for name in SPANNED + COUNTED:
            module_name, attr, *method = name.split(".")
            home = sys.modules[f"biplane.{module_name}"]
            original = getattr(home, attr)
            if isinstance(original, type):
                target, slot = original, method[0] if method else "__init__"
                self._set(target, slot, self._spanned(name, getattr(target, slot)))
                continue
            wrapped = (self._counted if name in COUNTED else self._spanned)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------
    def totals_by_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """calls, inclusive s and self_s per spanned name, for each op (-1 is
        set-up)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, outermost, op = span
            row = out.setdefault(op, {}).setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            if outermost:
                row["s"] += end - start
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the benchmark, as name -> (value, unit)."""
        t = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANNED}
        for rows in self.totals_by_op().values():
            for name, row in rows.items():
                for key, value in row.items():
                    t[name][key] += value
        counts = {name: cell[0] for name, cell in self.counts.items()}
        inserts = t[INSERT]["calls"]
        m: dict[str, tuple[float, str]] = {}

        def put(name: str, field: str) -> None:
            m[f"{name}.{field}"] = (t[name][field], "count" if field == "calls" else "s")

        for field in ("calls", "s", "self_s"):
            put(INSERT, field)
        m["insertion.ms_per_insert"] = (1000.0 * _per(t[INSERT]["s"], inserts), "ms")
        put("insertion.insert_hull_points", "calls")
        put("insertion.insert_hull_points", "s")
        put("insertion.check_property_maxi", "s")
        put("triangulation.Triangulation", "calls")
        put("triangulation.Triangulation", "self_s")
        m["triangulation.builds_per_insert"] = (
            _per(t["triangulation.Triangulation"]["calls"], inserts), "1/insert")
        put("triangulation.flip", "calls")
        m["triangulation.flips_per_insert"] = (_per(t["triangulation.flip"]["calls"], inserts), "1/insert")
        put("triangulation.complete_to_triangulation", "calls")
        put("triangulation.complete_to_triangulation", "self_s")
        put("triangulation.Triangulation.locate", "calls")
        m["geometry.cross.calls"] = (counts["geometry.cross"], "count")
        m["geometry.segments_properly_cross.calls"] = (counts["geometry.segments_properly_cross"], "count")
        m["geometry.crossings_tested_per_insert"] = (
            _per(counts["geometry.segments_properly_cross"], inserts), "1/insert")
        put("geometry.max_convex_subset_indices", "s")
        put("geometry.PointSet", "calls")
        put("geometry.PointSet", "self_s")
        put("geometry.convex_hull", "calls")
        put("layered.LayeredGraph", "calls")
        put("layered.LayeredGraph", "self_s")
        for name in ("connectivity.vertex_connectivity", "connectivity.verify_layering"):
            put(name, "calls")
            put(name, "s")
        for name in ("connectivity.compute_layering", "connectivity.cut_structures",
                     "connectivity.check_4conn_augmentation",
                     "triangulation.triangulation_from_edges", "augment.augment_to_4conn",
                     "treeaug.min_augment_3conn", "convex.build_5conn_convex",
                     "convex.build_4conn_convex", "convex.find_hamiltonian_cycle",
                     "generators.random_triangulation",
                     "generators.generate_no5conn_counterexample",
                     "formats.loads_points", "formats.loads_layered", "formats.dumps_layered"):
            put(name, "s")
        put("augment.flip_pair_helper", "calls")
        return m

    def write_spans(self, path) -> None:
        """Tab-separated spans: index, name, start, end, parent, outermost, op."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\toutermost\top\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, outermost, op = span
                    fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(outermost)}\t{op}\n")
