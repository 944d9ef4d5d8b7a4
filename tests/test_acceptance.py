"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -rA to see them)."""
import math
import random
import time
from itertools import combinations

import pytest

from biplane.augment import augment_to_4conn
from biplane.cli import main as cli_main
from biplane.connectivity import (check_4conn_augmentation, compute_layering,
                                  cut_structures, kappa_of, verify_layering,
                                  vertex_connectivity)
from biplane.convex import build_5conn_convex
from biplane.errors import ImpossibleError
from biplane.generators import (generate_no5conn_counterexample,
                                random_general_position, random_triangulation,
                                regular_polygon_points)
from biplane.insertion import build_5conn_general
from biplane.treeaug import build_cell_tree, min_augment_3conn
from biplane.triangulation import TriangulationClass, classify, edge_key
from biplane.geometry import max_convex_subset_indices, segments_properly_cross

from conftest import chordful_triangulation, greedy_biplane, mixed_pipeline_instance
from oracles import (bf_max_convex_subset, bf_vertex_connectivity,
                     ref_vertex_connectivity)


def _noncrossing(ps, edges):
    edges = sorted(edges)
    return all(not segments_properly_cross(ps, a, b, c, d)
               for i, (a, b) in enumerate(edges) for (c, d) in edges[i + 1:])


def test_criterion_1_convex_5conn_boundary():
    start = time.time()
    sizes = [12] + list(range(14, 25))
    for n in sizes:
        g = build_5conn_convex(regular_polygon_points(n))
        assert kappa_of(g) == 5, f"n={n}: kappa != 5"
        assert verify_layering(g), f"n={n}: invalid layering"
    for n in [13] + list(range(3, 12)):
        with pytest.raises(ImpossibleError):
            build_5conn_convex(regular_polygon_points(n))
    elapsed = time.time() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"\nACCEPTANCE 1 PASS: kappa=5 with valid layering for n in {{12}} u {{14..24}}, "
          f"n=13 and n<=11 rejected ({elapsed:.2f}s)")


def test_criterion_2_edge_upper_bounds():
    checked = 0
    convex_checked = 0
    for n in [12] + list(range(14, 25)):
        ps = regular_polygon_points(n)
        g = build_5conn_convex(ps)
        assert g.edge_count() <= 6 * n - 18
        assert g.edge_count() <= 3 * n - 6
        layers, odd = compute_layering(ps, sorted(g.edges()))
        assert layers is not None and odd is None
        checked += 1
        convex_checked += 1
    for seed in range(10):
        n = 8 + seed
        ps = random_general_position(n, seed=seed)
        g = greedy_biplane(ps)
        assert g.edge_count() <= 6 * n - 18
        checked += 1
    for seed in range(6):
        ps = mixed_pipeline_instance(seed + 900)
        g = build_5conn_general(ps)
        n = len(g.ps)
        assert n >= 8 and g.edge_count() <= 6 * n - 18
        checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} constructed graphs within 6n-18 "
          f"({convex_checked} convex ones planar with <= 3n-6 and bipartite conflicts)")


def test_criterion_3_general_pipeline():
    start = time.time()
    count = 0
    step_checks = 0
    kappas = []
    for seed in range(50):
        ps = mixed_pipeline_instance(seed)
        records = []

        def on_step(label, g, records=records):
            records.append((label, kappa_of(g), verify_layering(g)))

        g = build_5conn_general(ps, on_step)
        final_kappa = kappa_of(g)
        assert final_kappa >= 5, f"seed {seed}: final kappa {final_kappa}"
        assert verify_layering(g)
        for label, kappa, ok in records:
            assert kappa >= 5, f"seed {seed}, step {label}: kappa {kappa}"
            assert ok, f"seed {seed}, step {label}: layering broken"
        step_checks += len(records)
        kappas.append(final_kappa)
        count += 1
    elapsed = time.time() - start
    assert count >= 50
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 3 PASS: {count} pipelines 5-connected after every one of "
          f"{step_checks} insertion steps (final kappa range {min(kappas)}..{max(kappas)}, "
          f"{elapsed:.1f}s)")


def test_criterion_4_augment_to_4conn():
    done = 0
    seed = 0
    base_case_checked = False
    while done < 100:
        n = 5 + seed % 8
        t = random_triangulation(n, seed)
        seed += 1
        if classify(t) is not TriangulationClass.OTHER:
            continue
        extra = augment_to_4conn(t)
        assert _noncrossing(t.ps, extra)
        union = set(t.edges) | set(extra)
        assert vertex_connectivity(n, union) >= 4, f"seed {seed - 1}"
        ok, violations = check_4conn_augmentation(t, extra)
        assert ok, (seed - 1, violations)
        if n == 5:
            assert len(union) == 10, "the 5-point base case must complete to K5"
            base_case_checked = True
        done += 1
    assert base_case_checked
    # wheel and fan rejections surface as CLI exit code 2
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for shape, n in (("wheel", 8), ("fan", 8)):
            pts = Path(tmp) / f"{shape}.pts"
            edges = Path(tmp) / f"{shape}.edges"
            assert cli_main(["gen", "--shape", shape, "--n", str(n),
                             "--out", str(pts), "--edges-out", str(edges)]) == 0
            code = cli_main(["augment", "--target", "4",
                             "--points", str(pts), "--edges", str(edges)])
            assert code == 2, f"{shape} rejection must exit 2, got {code}"
    print(f"\nACCEPTANCE 4 PASS: {done} augmentations reach kappa >= 4 with valid "
          f"conditions; n=5 base is K5; wheel/fan exit 2")


def test_criterion_5_leaf_pairing():
    start = time.time()
    done, most = 0, 0
    for n in range(24, 65, 8):
        for seed in range(3):
            t = chordful_triangulation(n, seed)
            reps = {leaf.representative for leaf in build_cell_tree(t).leaves}
            extra = min_augment_3conn(t)
            assert len(extra) == math.ceil(len(reps) / 2), f"n={n} seed={seed}"
            assert {v for e in extra for v in e} == reps, f"n={n} seed={seed}"
            assert _noncrossing(t.ps, extra), f"n={n} seed={seed}"
            assert ref_vertex_connectivity(n, set(t.edges) | extra) >= 3, f"n={n} seed={seed}"
            done, most = done + 1, max(most, len(reps))
    print(f"\nACCEPTANCE 5 PASS: {done} chordful triangulations (n 24-64, up to "
          f"{most} leaf cells) 3-connected by ceil(m/2) noncrossing edges between "
          f"leaf representatives ({time.time() - start:.1f}s)")


def _has_cut_below(n, edges, k):
    adj = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_without(removed):
        alive = [v for v in range(n) if v not in removed]
        seen = {alive[0]}
        stack = [alive[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(alive)

    return any(not connected_without(set(sub))
               for size in range(k) for sub in combinations(range(n), size))


def test_criterion_6_minimal_3conn():
    done = 0
    minimality_checked = 0
    seed = 0
    while done < 50:
        n = 6 + seed % 9  # up to 14
        t = chordful_triangulation(n, seed)
        seed += 1
        extra = min_augment_3conn(t)
        m = len(build_cell_tree(t).leaves)
        if m == 0:
            continue
        assert len(extra) == math.ceil(m / 2)
        assert len(extra) <= (n + 2) // 4
        union = set(t.edges) | set(extra)
        assert vertex_connectivity(n, union) >= 3
        assert _noncrossing(t.ps, extra)
        if n <= 10 and minimality_checked < 12:
            candidates = [edge_key(u, v) for u in range(n) for v in range(u + 1, n)
                          if edge_key(u, v) not in t.edges]
            for smaller in combinations(candidates, len(extra) - 1):
                assert _has_cut_below(n, set(t.edges) | set(smaller), 3), \
                    f"smaller set {smaller} reaches kappa >= 3"
            minimality_checked += 1
        done += 1
    print(f"\nACCEPTANCE 6 PASS: {done} chordful triangulations minimally "
          f"3-connected with ceil(m/2) <= floor((n+2)/4) edges "
          f"({minimality_checked} instances exhaustively confirmed minimal)")


def test_criterion_7_negative_fixtures():
    for k in (2, 3, 4):
        t = generate_no5conn_counterexample(k)
        kappa = kappa_of(t)
        rep = cut_structures(t)
        assert kappa == 4, f"k={k}: kappa {kappa}"
        assert not (rep.chords or rep.bichords or rep.separating_triangles), \
            f"k={k}: cut report not empty"
    print("\nACCEPTANCE 7 PASS: no-5-connectable fixtures k=2,3,4 have kappa=4 "
          "and empty cut reports")


def test_criterion_8_oracle_agreement():
    start = time.time()
    rng = random.Random(20260808)
    for trial in range(200):
        n = rng.randint(4, 8)
        p = 0.35 + 0.4 * rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        assert vertex_connectivity(n, edges) == bf_vertex_connectivity(n, edges), \
            f"trial {trial}"
    convex_checked = 0
    for seed in range(50):
        n = 8 + seed % 5  # up to 12
        ps = random_general_position(n, seed=seed + 3000)
        assert max_convex_subset_indices(ps) == bf_max_convex_subset(ps), f"seed {seed}"
        convex_checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    print(f"\nACCEPTANCE 8 PASS: connectivity oracle agreed on 200 graphs, "
          f"max-convex-subset oracle on {convex_checked} sets ({elapsed:.1f}s)")
