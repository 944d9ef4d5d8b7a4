import hashlib
import importlib.util
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

from biplane import insertion
from biplane.cli import main
from biplane.connectivity import kappa_of, layer_crossing, verify_layering
from biplane.convex import build_5conn_convex
from biplane.errors import InternalInvariantError, PreconditionError
from biplane.formats import loads_layered
from biplane.generators import (random_general_position, random_triangulation,
                                regular_polygon_points)
from biplane.geometry import (PointSet, convex_hull, first_crossing, is_convex_position,
                              segments_properly_cross)
from biplane.layered import LAYER1, LAYER2, LayeredGraph
from biplane.insertion import (InsertionState, build_5conn_general,
                               check_property_maxi, find_flippable_opposite,
                               insert_hull_points, insert_interior_point)
from biplane.triangulation import complete_to_triangulation, edge_key, is_flippable
from biplane.generators import generate_wheel

from conftest import core_plus_interior, mixed_pipeline_instance
from oracles import (bf_first_collinear, bf_first_crossing, bf_triangulation_ok,
                     edge_visibility_hall_holds, ref_segments_properly_cross,
                     ref_vertex_connectivity, visible_hull_edges)


def fresh_core(n=14, radius=1000):
    ps = regular_polygon_points(n, radius)
    return InsertionState(build_5conn_convex(ps))


def insert_at(st, pt):
    """The interior step for bare coordinates, checked by `extended`."""
    return insert_interior_point(st, st.ps.extended([pt]))


class TestFindFlippableOpposite:
    def test_returned_edge_is_flippable_and_opposite(self):
        for seed in range(12):
            t = random_triangulation(9, seed)
            interior = [v for v in range(9) if v not in set(t.hull)]
            for s in interior:
                if not any(x in set(t.hull) for x in t.neighbors(s)):
                    continue
                tri, e = find_flippable_opposite(t, s)
                assert is_flippable(t, e)
                assert s in tri and set(e) <= set(tri)
                return
        pytest.skip("no usable interior vertex sampled")

    def test_wheel_rejected(self):
        t = generate_wheel(8)
        center = next(v for v in range(8) if v not in set(t.hull))
        with pytest.raises(PreconditionError):
            find_flippable_opposite(t, center)

    def test_hull_vertex_rejected(self):
        t = random_triangulation(8, 3)
        with pytest.raises(PreconditionError):
            find_flippable_opposite(t, t.hull[0])

    def test_matches_exhaustive_scan(self):
        # the returned edge must be among all flippable link-opposite edges
        for seed in range(20):
            t = random_triangulation(10, seed)
            hullset = set(t.hull)
            for s in range(10):
                if s in hullset or not any(x in hullset for x in t.neighbors(s)):
                    continue
                try:
                    _, e = find_flippable_opposite(t, s)
                except PreconditionError:
                    continue
                ring = t.link_cycle(s)
                k = len(ring)
                opposites = {edge_key(ring[i], ring[(i + 1) % k]) for i in range(k)}
                flippable = {f for f in opposites if is_flippable(t, f)}
                assert e in flippable


class TestInsertInteriorPoint:
    def test_fig3_style_15_points(self):
        st = fresh_core()
        st = insert_at(st, (103, 57))
        assert kappa_of(st.current) >= 5
        assert verify_layering(st.current)
        assert len(st.current.adjacency()[14]) >= 5

    def test_sequence_keeps_kappa(self):
        st = fresh_core()
        rng = random.Random(7)
        done = 0
        attempts = 0
        while done < 6 and attempts < 300:
            attempts += 1
            pt = (rng.randint(-600, 600), rng.randint(-600, 600))
            try:
                st = insert_at(st, pt)
            except PreconditionError:
                continue
            done += 1
            assert kappa_of(st.current) >= 5
            assert verify_layering(st.current)
        assert done == 6

    def test_steps_build_the_graph_on_demand(self, monkeypatch):
        st = fresh_core()
        built = []
        monkeypatch.setattr(insertion, "LayeredGraph",
                            lambda *args: built.append(args) or LayeredGraph(*args))
        for pt in ((103, 57), (-211, 101), (97, -305), (-40, -380)):
            st = insert_at(st, pt)
        assert not built
        g = st.current
        assert st.current is g and len(built) == 1
        assert (g.ps, g.layer_edges(LAYER1), g.layer_edges(LAYER2)) == (st.ps, st.layer1, st.layer2)
        assert kappa_of(g) >= 5 and verify_layering(g)

    def test_rejects_a_set_that_does_not_extend_the_state(self):
        st = fresh_core()
        ps = st.ps
        with_two = ps.extended([(103, 57), (-211, 101)])
        moved = PointSet([(ps.xs[0] + 1, ps.ys[0])] + list(zip(ps.xs, ps.ys))[1:] + [(103, 57)])
        for new_ps in (with_two, moved, ps):
            with pytest.raises(PreconditionError,
                               match="^the new point set does not extend the state's 14 points by one$"):
                insert_interior_point(st, new_ps)

    def test_rejects_exterior_point(self):
        st = fresh_core()
        with pytest.raises(PreconditionError):
            insert_at(st, (10 ** 6, 10 ** 6))

    @pytest.mark.parametrize("pt", [(10 ** 6, 10 ** 6), (1001, 3), (-990, -150)])
    def test_point_off_the_hull_interior_named(self, pt):
        # beyond the 14-gon of radius 1000: far away, and just outside an edge
        for st in (fresh_core(), InsertionState(insert_at(fresh_core(), (103, 57)).current)):
            with pytest.raises(PreconditionError,
                               match=r"^point must lie strictly inside the current hull$"):
                insert_at(st, pt)

    def test_case1_disjoint_triangles_no_deletion(self):
        # run insertions until a case-1 (no edge removed) instance appears
        st = fresh_core()
        rng = random.Random(3)
        for _ in range(200):
            pt = (rng.randint(-600, 600), rng.randint(-600, 600))
            before = st.current.edges()
            try:
                nxt = insert_at(st, pt)
            except PreconditionError:
                continue
            lost = before - nxt.current.edges()
            assert len(lost) <= 1
            if not lost:
                return
            st = nxt
        pytest.skip("no deletion-free insertion sampled")


class TestDegreeRaising:
    def test_three_corners_two_edges_have_two_far_apexes(self):
        """When s splits the same triangle abc in both triangulations and
        the flippable opposite edges differ, so do their far apexes: the
        segment from s to a far apex crosses its edge, and it leaves abc
        through one side only.  So flipping both gives s degree 5."""
        checked = 0
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(6, 12)
            t1 = random_triangulation(n, seed)
            t2 = random_triangulation(n, seed, flips=rng.randint(0, 2 * n))
            ps = t1.ps
            for _ in range(20):
                coords = (rng.randint(min(ps.xs), max(ps.xs)), rng.randint(min(ps.ys), max(ps.ys)))
                try:
                    new_ps = ps.extended([coords])
                except PreconditionError:
                    continue
                if new_ps.hull() != ps.hull():
                    continue
                a, b = t1.split(new_ps, n), t2.split(new_ps, n)
                if a.neighbors(n) != b.neighbors(n):
                    continue
                try:
                    _, e1 = find_flippable_opposite(a, n)
                    _, e2 = find_flippable_opposite(b, n)
                except PreconditionError:
                    continue
                if e1 != e2:
                    checked += 1
                    assert insertion._far_apex(a, e1, n) != insertion._far_apex(b, e2, n)
        assert checked >= 50

    def test_second_layer_rescue(self, monkeypatch):
        """Four corners whose far apexes are both neighbours already, and no
        cycle edge freed in t1 by the first flip: the rescue flips in t2
        instead, and leaves t1 as it came."""
        t1 = random_triangulation(7, 15)
        t2 = random_triangulation(7, 15, flips=42)
        new_ps = t1.ps.extended([(-6579, -4169)])
        a, b = t1.split(new_ps, 7), t2.split(new_ps, 7)
        real, found = insertion._cycle_flip, []
        monkeypatch.setattr(insertion, "_cycle_flip",
                            lambda *args: found.append(real(*args)) or found[-1])
        r1, r2 = insertion._raise_degree_to_five(a, b, 7)
        assert found == [None, (1, 2)] and r1 is a
        assert len(r1.neighbors(7) | r2.neighbors(7)) == 5
        assert bf_triangulation_ok(new_ps, r1.triangles) and bf_triangulation_ok(new_ps, r2.triangles)


class TestInteriorHull:
    """The hull of the interior vertices that a state carries is the hull
    `convex_hull` computes from scratch."""

    @staticmethod
    def fresh_hull(ps):
        inner = ps.interior_ids()
        if len(inner) < 3:
            return list(inner)
        return [inner[i] for i in convex_hull([ps.xs[v] for v in inner], [ps.ys[v] for v in inner])]

    def assert_same_up_to_rotation(self, got, want):
        got = list(got)
        assert len(got) == len(want) and set(got) == set(want)
        if len(want) >= 3:
            k = want.index(got[0])
            assert got == want[k:] + want[:k]

    def test_carried_hull_after_every_step(self, monkeypatch):
        real = insertion.insert_interior_point
        spliced = []

        def checked(state, new_ps):
            nxt = real(state, new_ps)
            self.assert_same_up_to_rotation(nxt.interior_hull, self.fresh_hull(nxt.ps))
            spliced.append(len(nxt.interior_hull))
            return nxt

        labels = []
        monkeypatch.setattr(insertion, "insert_interior_point", checked)
        for seed in range(8):
            build_5conn_general(core_plus_interior(22 + 2 * seed, seed=500 + seed))
        for seed in range(10):
            build_5conn_general(mixed_pipeline_instance(seed), lambda label, g: labels.append(label))
        assert len(spliced) > 100 and max(spliced) >= 6
        assert sum(label.startswith("exterior:") for label in labels) >= 3

    @staticmethod
    def four_steps():
        st = fresh_core()
        for pt in ((103, 57), (-211, 101), (97, -305), (-40, -380)):
            st = insert_at(st, pt)
        return st

    def test_point_inside_the_interior_hull_rejected(self):
        st = self.four_steps()
        assert len(st.interior_hull) == 4
        with pytest.raises(PreconditionError,
                           match="^point must lie outside the hull of the interior vertices$"):
            insert_at(st, (-3, -49))

    def test_state_from_a_graph_computes_the_hull_on_first_use(self, monkeypatch):
        st = self.four_steps()
        calls = []
        monkeypatch.setattr(insertion, "convex_hull",
                            lambda xs, ys: calls.append(1) or convex_hull(xs, ys))
        rebuilt = InsertionState(st.current)
        assert not calls
        self.assert_same_up_to_rotation(rebuilt.interior_hull, list(st.interior_hull))
        self.assert_same_up_to_rotation(rebuilt.interior_hull, list(st.interior_hull))
        assert len(calls) == 1


class TestPropertyMaxi:
    def test_empty_sb_vacuous(self):
        ps = regular_polygon_points(6)
        ok, why = check_property_maxi(ps, [])
        assert ok and why is None

    def test_small_hull_rejected(self):
        ps = PointSet([(0, 0), (5, 1), (2, 7)])
        ok, why = check_property_maxi(ps, [(100, 100)])
        assert not ok and "ch(S_a)" in why

    def test_point_seeing_two_edges_fails(self):
        ps = regular_polygon_points(12, 1000)
        # a point just outside one edge sees too few edges
        for r in (1010, 1030, 1060):
            cand = (r, 1)
            try:
                vis = visible_hull_edges(PointSet([p.coords() for p in ps] + [cand])[12], ps)
            except Exception:
                continue
            if len(vis) < 3:
                ok, why = check_property_maxi(ps, [cand])
                assert not ok
                return
        pytest.skip("no point seeing < 3 edges sampled")

    def test_interior_sb_point_fails(self):
        ps = regular_polygon_points(12, 1000)
        ok, why = check_property_maxi(ps, [(1, 2)])
        assert not ok and "hull vertices" in why

    def test_valid_ring_passes(self):
        ps = regular_polygon_points(14, 1000)
        ring = ring_points(6, 3000, 0.2)
        ok, why = check_property_maxi(ps, ring)
        assert ok, why


def ring_points(q, radius, offset):
    out = []
    for j in range(q):
        a = 2 * math.pi * (j + offset) / q
        out.append((round(radius * math.cos(a)), round(radius * math.sin(a))))
    return out


class TestHallOracle:
    def test_concentric_rings_hold(self):
        ps = regular_polygon_points(14, 1000)
        ring = ring_points(6, 3000, 0.2)
        assert edge_visibility_hall_holds(ps, ring)

    def test_pentagon_ring_around_9gon(self):
        inner = regular_polygon_points(9, 1000)
        outer = ring_points(5, 4000, 0.37)
        assert edge_visibility_hall_holds(inner, outer)

    def test_precondition_violation_detected(self):
        ps = regular_polygon_points(14, 1000)
        chain = ring_points(6, 3000, 0.2)[:2]  # S_a not inside ch(S_b)
        with pytest.raises(PreconditionError):
            edge_visibility_hall_holds(ps, chain)


class TestInsertHullPoints:
    def test_empty_batch_returns_the_state(self):
        st = InsertionState(build_5conn_convex(regular_polygon_points(14)))
        assert insert_hull_points(st, []) is st

    def test_surrounding_ring_case(self):
        st = fresh_core()
        ring = ring_points(6, 3000, 0.2)
        st = insert_hull_points(st, ring)
        assert kappa_of(st.current) >= 5
        assert verify_layering(st.current)
        for b in range(14, 20):
            assert len(st.current.adjacency()[b]) >= 5

    def test_two_chain_case(self):
        st = fresh_core()
        chains = [(0.05, 0.3, 0.55), (2.6, 2.9)]
        pts = []
        for group in chains:
            for a in group:
                pts.append((round(2500 * math.cos(a)), round(2500 * math.sin(a))))
        st = insert_hull_points(st, pts)
        assert kappa_of(st.current) >= 5
        assert verify_layering(st.current)

    def test_single_far_point(self):
        st = fresh_core()
        st = insert_hull_points(st, [(4000, 100)])
        assert kappa_of(st.current) >= 5
        assert len(st.current.adjacency()[14]) >= 5

    def test_second_batch_deletes_the_dummy_edge(self):
        """After one hull point, the layers are no longer both complete, so
        a second batch saturates them with a dummy edge; the result must
        leave it out.  build_5conn_general inserts one batch on full layers,
        so only a public caller reaches this."""
        st = insert_hull_points(fresh_core(), [(1202, 495)])
        _, _, dummies = insertion._saturate(st)
        assert dummies == {(1, 3)}
        g = insert_hull_points(st, [(-1665, -685)]).current
        assert kappa_of(g) >= 5
        assert layer_crossing(g) is None
        assert not dummies & g.edges()

    def test_single_point_seeing_three_edges_p4_branch(self):
        st = fresh_core()
        ps = st.current.ps
        pick = None
        for r in range(1050, 4000, 7):
            for milli in range(0, 458, 13):
                cand = (round(r * math.cos(milli / 1000)), round(r * math.sin(milli / 1000)))
                try:
                    combined = PointSet([p.coords() for p in ps] + [cand])
                    vis = visible_hull_edges(combined[14], ps)
                except PreconditionError:
                    continue
                if len(vis) == 3 and check_property_maxi(ps, [cand])[0]:
                    pick = cand
                    break
            if pick:
                break
        assert pick is not None
        st = insert_hull_points(st, [pick])
        assert kappa_of(st.current) >= 5
        assert verify_layering(st.current)
        assert len(st.current.adjacency()[14]) == 5

    def test_property_violation_rejected(self):
        st = fresh_core()
        with pytest.raises(PreconditionError):
            insert_hull_points(st, [(1010, 1)])

    def test_collinear_union_names_the_first_collinear_triple(self):
        # each batch has a point on the line of two S_a points, beyond the
        # hull edge or the chord between them, and the triple named is the
        # first one of a full scan that contains a new point
        st = fresh_core()
        xs, ys = st.ps.xs, st.ps.ys
        for a, b, t, before in [(0, 1, 2, []), (3, 4, -3, [(5000, 4000)]), (0, 7, 3, []),
                                (9, 12, 4, [(-6000, 100), (100, -7000)])]:
            c = (xs[a] + t * (xs[b] - xs[a]), ys[a] + t * (ys[b] - ys[a]))
            sb = before + [c]
            triple = bf_first_collinear(xs + tuple(x for x, _ in sb), ys + tuple(y for _, y in sb),
                                        len(xs))
            with pytest.raises(PreconditionError) as err:
                insert_hull_points(st, sb)
            assert str(err.value) == (
                "hull-insertion property violated: S_a and S_b do not combine to a "
                "general-position set: points {}, {}, {} are collinear "
                "(general position required)".format(*triple))

    def test_rejection_gives_the_reason_check_property_maxi_returns(self):
        # S_a is a 14-point ring, when convex, with 0-2 points inside and 2-8
        # outside it; the batch is every other point on odd seeds, and the
        # outer points on the hull of the whole set on even ones
        reasons = set()
        for seed in range(40):
            rng = random.Random(seed)
            inner, outer = rng.randint(0, 2), rng.randint(2, 8)
            ps = core_plus_interior(14 + inner + outer, seed, outer=outer)
            by_norm = sorted(range(len(ps)), key=lambda i: ps.xs[i] ** 2 + ps.ys[i] ** 2)
            ring = set(by_norm[inner:inner + 14])
            if not is_convex_position(ps.subset(ring)):
                continue
            st = InsertionState(build_5conn_convex(ps.subset(ring)))
            hull = set(ps.hull())
            sb = [ps[i].coords() for i in range(len(ps))
                  if i not in ring and (seed % 2 or i in hull)]
            ok, why = check_property_maxi(st.ps, sb)
            if ok:
                continue
            with pytest.raises(PreconditionError) as err:
                insert_hull_points(st, sb)
            assert str(err.value) == "hull-insertion property violated: " + why
            reasons.add(why.split()[1])
        # "new points [...] are not hull vertices" and "k consecutive new points"
        assert {"points", "consecutive"} <= reasons, reasons

    def test_builds_the_union_once(self, monkeypatch):
        real = PointSet.extended
        calls = []
        monkeypatch.setattr(PointSet, "extended",
                            lambda ps, coords: calls.append(len(coords)) or real(ps, coords))
        insert_hull_points(fresh_core(), ring_points(6, 3000, 0.2))
        assert calls == [6]


class TestBuildGeneral:
    def test_pure_convex_14(self):
        ps = regular_polygon_points(14)
        g = build_5conn_general(ps)
        assert kappa_of(g) >= 5 and verify_layering(g)

    def test_rejects_small_convex_core(self):
        ps = random_general_position(9, seed=1)
        with pytest.raises(PreconditionError):
            build_5conn_general(ps)

    def test_mixed_instance_with_step_verification(self):
        ps = mixed_pipeline_instance(0)
        steps = []

        def on_step(label, g):
            steps.append((label, kappa_of(g), verify_layering(g)))

        g = build_5conn_general(ps, on_step)
        assert kappa_of(g) >= 5
        assert all(k >= 5 and ok for (_, k, ok) in steps)
        labels = [s[0] for s in steps]
        assert labels[0] == "core"

    # seed 2 has no 14 points in convex position
    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_result_is_on_the_input_ids(self, seed):
        # the shuffled core and the interior and outer points enter in an
        # order of their own; the result names every point by its input id
        ps = core_plus_interior(24, seed, outer=2)
        g = build_5conn_general(ps)
        assert [p.coords() for p in g.ps] == [p.coords() for p in ps]
        assert layer_crossing(g) is None

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_more_seeds(self, seed):
        ps = mixed_pipeline_instance(seed)
        g = build_5conn_general(ps)
        assert kappa_of(g) >= 5 and verify_layering(g)

    def test_every_step_takes_a_checked_prefix(self, monkeypatch):
        """Each step's point set, a prefix of the one set that the build
        reorders without a check, has the coordinates and hull views that a
        fresh PointSet of them has, and no collinear triple by a full scan;
        the interior and exterior steps get the hull views carried over."""
        real = insertion.insert_interior_point
        seen = []

        def checked(state, new_ps):
            carried = new_ps._hull is not None
            fresh = PointSet(list(zip(new_ps.xs, new_ps.ys)))
            assert (new_ps.xs, new_ps.ys) == (fresh.xs, fresh.ys)
            assert new_ps.hull() == fresh.hull() and new_ps.hull_positions() == fresh.hull_positions()
            assert new_ps.hull_edges() == fresh.hull_edges()
            assert bf_first_collinear(new_ps.xs, new_ps.ys, 0) is None
            seen.append(carried)
            return real(state, new_ps)

        monkeypatch.setattr(insertion, "insert_interior_point", checked)
        for seed in (0, 1, 3, 4):
            build_5conn_general(core_plus_interior(24, seed, outer=2))
        for seed in range(1, 6):
            build_5conn_general(mixed_pipeline_instance(seed))
        assert len(seen) >= 40 and all(seen)


# sha256 of repr(sorted(g.layers.items())) for mixed_pipeline_instance(seed),
# edges in the input's ids: any change to what an insertion step builds shows
# up here
GOLDEN_LAYER_DIGESTS = [
    "2d01f13f2a633be70e28f415beee8fb385e05ff63268af23b6602572c57662f1",
    "351cbac9000ac738a7d0d58f5b7d2b7e2c200e904c8fec011d2fe42154a3ffb4",
    "7646a5f4759f120767db56cc4ad7888fbaae72250f4efb8a82d34d1e5b79a6f5",
    "3d96aad87bb92455ff2e7d12c66339eea876714f3ab1f7b7f95e2c2f7c137da0",
    "b94b6dd26877eee1aee828b79d872c8206f2c7c8caa5080e61203c441abd279e",
    "eff737b8cfb6e09fd314fb420021136d58043728378edf385989cb8816c48590",
    "1e15879350d6e69be14bffe0ce7cdd1291ffd36d7357fe3ca6dc8f269ea49b39",
    "c78b1d48a44e71c71da045b0e25285ef50b550b7bb8a93e97acccdc84c2c558f",
    "bd755961a53a4591f7367b828146600391390250cda05bae80c67da217975695",
    "991bd7c564b8d9182aebb57638321ccbf1c386ad85dd7568da1e8002e20a337c",
]


@pytest.mark.parametrize("seed", range(10))
def test_general_build_layers_are_unchanged(seed):
    g = build_5conn_general(mixed_pipeline_instance(seed))
    digest = hashlib.sha256(repr(sorted(g.layers.items())).encode()).hexdigest()
    assert digest == GOLDEN_LAYER_DIGESTS[seed]


def test_carried_triangulations_equal_a_fresh_saturation(monkeypatch):
    """Where a step starts from the carried t1/t2, reused as they are or
    refilled around the edges their layers lack, the pair and its dummy
    edges are what saturating the layers from scratch would give.  The mixed
    seeds reuse and saturate (seeds 21 and 30 leave a hull edge out of both
    layers, which refills nothing); core_plus_interior(70, 2) leaves edges
    inside the hull, which the next step refills."""
    real = insertion._saturate
    paths = {"reused": 0, "no pair": 0, "refilled": 0}

    def checked(state):
        t1, t2, dummies = real(state)
        if state.t1 is None:
            paths["no pair"] += 1
            return t1, t2, dummies
        g = state.current
        want1 = complete_to_triangulation(g.ps, required=g.layer_edges(LAYER1))
        want2 = complete_to_triangulation(g.ps, required=g.layer_edges(LAYER2),
                                          avoid=want1.edges)
        assert (t1.triangles, t2.triangles) == (want1.triangles, want2.triangles)
        assert dummies == (want1.edges | want2.edges) - g.edges()
        paths["reused" if (t1, t2) == (state.t1, state.t2) else "refilled"] += 1
        return t1, t2, dummies

    monkeypatch.setattr(insertion, "_saturate", checked)
    for seed in [*range(10), 21, 30]:
        build_5conn_general(mixed_pipeline_instance(seed))
    build_5conn_general(core_plus_interior(70, 2))
    assert all(paths.values()), paths


# Valid inputs (a 14-point convex core plus far points) whose hull insertion
# wires a chain along all S_a hull edges.  n17: one chain holds every new
# point, and its arc is the whole circle, starting at the outgoing edge of
# the one S_a vertex on the final hull.
# n18: every final-hull vertex is new but one consecutive pair shares no
# visible edge, so the one chain starts just after that pair, and its arc too
# is the whole circle.
HULL_INSERTION_REPROS = [
    pytest.param(
        [(99871, 17354), (83594, 63888), (41696, 90314), (-3359, 97670),
         (-45726, 96530), (-65646, 76115), (-95224, 31371), (-98961, -4163),
         (-81257, -51547), (-42048, -79989), (-10283, -99920), (33589, -96059),
         (63885, -62344), (95724, -22890), (221170, 81764), (-321623, -229129),
         (-325199, 185112)],
        id="n17-chain-wraps"),
    pytest.param(
        [(99885, 3137), (87790, 45435), (53198, 83683), (-3350, 99983),
         (-41376, 96591), (-69644, 73742), (-95208, 40498), (-97518, -23073),
         (-82407, -53909), (-41751, -81976), (-9680, -99984), (34390, -92993),
         (73999, -78035), (91014, -34262), (-14634, -311645), (294800, -237369),
         (-62518, 341267), (-353854, -29514)],
        id="n18-surrounding"),
]


@pytest.mark.parametrize("coords", HULL_INSERTION_REPROS)
def test_hull_insertion_repro_builds(coords):
    g = build_5conn_general(PointSet(coords))
    assert kappa_of(g) >= 5 and verify_layering(g)


# A 22-point set whose general5 build inserts point 21 alone on the hull.  It
# sees three S_a hull edges, and in the layer triangulation the wiring picks,
# the triangles on its second and third edges coincide.  b-apex1 crosses a1-a2,
# so the first-apex branch of `_wire_single_point_p4` wires it.
FIRST_APEX_POINTS = [
    (101669, 5468), (89383, 46620), (67740, 71084), (32407, 93201), (106, 99402),
    (-41104, 88164), (-75605, 63778), (-99491, 15853), (-96517, -17233),
    (-84394, -55162), (-53124, -83332), (-17070, -100882), (40637, -89910),
    (69388, -75774), (93099, -30433), (-59203, -6259), (-25297, -64397),
    (8390, 56007), (38317, 52963), (52021, 14779), (52401, -69387), (-113392, 30663)]
FIRST_APEX_EDGES_DIGEST = "b64a49f708879548637eb50dfb4a7e8bba1820add108bca3fbac3a6695faf936"


def test_single_point_first_apex_branch(tmp_path, capsys, monkeypatch):
    wirings, edits = [], []
    wire, demote, add = (insertion._wire_single_point_p4, insertion._HullWiring.demote,
                         insertion._HullWiring.add)
    monkeypatch.setattr(insertion, "_wire_single_point_p4",
                        lambda w, t1, t2, b, averts, deleted:
                        wirings.append((w, t1, t2, b, averts, deleted))
                        or wire(w, t1, t2, b, averts, deleted))
    monkeypatch.setattr(insertion._HullWiring, "demote",
                        lambda w, e, keep: edits.append(("demote", e, keep)) or demote(w, e, keep))
    monkeypatch.setattr(insertion._HullWiring, "add",
                        lambda w, u, v, layer: edits.append(("add", u, v, layer))
                        or add(w, u, v, layer))
    pts, out = tmp_path / "p.pts", tmp_path / "g.edges"
    pts.write_text("".join(f"{x} {y}\n" for x, y in FIRST_APEX_POINTS))
    capsys.readouterr()
    assert main(["--format", "json", "build", "--mode", "general5", "--points", str(pts),
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["kappa"], report["biplane"]) == (5, True)

    # one single-point wiring, of point 21, whose second and third arc edges
    # lie on one triangle a2 a3 a4 of its layer: after joining b to the four
    # arc vertices, it keeps a1-a2 in the other layer only and joins b to the
    # apex of a1-a2 in its own layer, which b-apex1 crosses
    (w, t1, t2, b, averts, deleted), = wirings
    a1, a2, a3, a4 = averts
    assert (w.ps.xs[b], w.ps.ys[b]) == FIRST_APEX_POINTS[21]
    i = next(i for i, edit in enumerate(edits) if edit[0] == "demote")
    other = edits[i][2]
    own, tp = (LAYER2, t2) if other == LAYER1 else (LAYER1, t1)
    apex1 = tp.opposites(edge_key(a1, a2))[0]
    assert (tp.opposites(edge_key(a2, a3)), tp.opposites(edge_key(a3, a4))) == ((a4,), (a2,))
    assert edits[i - 4:i + 2] == ([("add", b, a, LAYER1) for a in averts]
                                  + [("demote", edge_key(a1, a2), other), ("add", b, apex1, own)])
    assert [edit[0] for edit in edits].count("demote") == 1
    assert ref_segments_properly_cross(*(w.ps[v] for v in (b, apex1, a1, a2)))
    assert not deleted

    # the written graph: kappa and both layers by the oracles, and its bytes
    g = loads_layered(out.read_text(), PointSet(FIRST_APEX_POINTS))
    assert ref_vertex_connectivity(len(FIRST_APEX_POINTS), g.edges()) == 5
    for layer in (LAYER1, LAYER2):
        assert bf_first_crossing(g.ps, sorted(g.layer_edges(layer))) is None
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIRST_APEX_EDGES_DIGEST


def test_general5_builds_or_rejects_on_500_seeds():
    """A 14-point ring plus 0-16 interior and 0-8 outer points per seed: the
    build is 5-connected and biplane, or raises PreconditionError; it never
    raises InternalInvariantError."""
    broken = []
    for seed in range(500):
        rng = random.Random(seed)
        inner, outer = rng.randint(0, 16), rng.randint(0, 8)
        try:
            g = build_5conn_general(core_plus_interior(14 + inner + outer, seed, outer=outer))
        except PreconditionError:
            continue
        except InternalInvariantError as exc:
            broken.append((seed, str(exc)))
            continue
        assert kappa_of(g) >= 5 and verify_layering(g), seed
    assert not broken, broken


class TestLayeringFailureWitness:
    """A broken layer separation names the layer and its first crossing pair.
    An interior insertion cannot break it: each layer it returns is a subset
    of a validated triangulation."""

    @pytest.mark.parametrize("step,insert,point", [
        ("hull insertion", lambda st, p: insert_hull_points(st, [p]), (4000, 100)),
    ])
    def test_message_names_the_crossing(self, monkeypatch, step, insert, point):
        st = fresh_core()
        # from here on, put the union of both layers into layer 1, which must cross
        monkeypatch.setattr(insertion, "LayeredGraph",
                            lambda ps, one, two: LayeredGraph(ps, set(one) | set(two), ()))
        with pytest.raises(InternalInvariantError,
                           match=rf"^layer separation broken by {step}: layer 1 edges "
                                 r"\(\d+, \d+\) and \(\d+, \d+\) cross$") as err:
            insert(st, point)
        a, b, c, d = map(int, re.findall(r"\d+", str(err.value))[1:])
        ps = st.current.ps.extended([point])
        assert (a, b) < (c, d) and segments_properly_cross(ps, a, b, c, d)


def family_sets(seeds):
    """The sets of `test_general5_builds_or_rejects_on_500_seeds`."""
    for seed in seeds:
        rng = random.Random(seed)
        inner, outer = rng.randint(0, 16), rng.randint(0, 8)
        yield core_plus_interior(14 + inner + outer, seed, outer=outer)


def bench_sets(monkeypatch):
    """The 40 general5 sets of the bench, drawn by its own `fuzz_instance`."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return [PointSet(module.fuzz_instance(random.Random(f"general5:{i}"))) for i in range(40)]


def build_all(point_sets):
    for ps in point_sets:
        try:
            build_5conn_general(ps)
        except PreconditionError:
            continue


class TestLocalStep:
    """An interior step reads only the edges around s.  Its layers, t_i less
    `missing`, its next `missing`, the edges it lost and the degree of s
    equal the formulas on whole edge sets, recomputed here from the step's
    saturation, split and final triangulations."""

    def test_step_matches_the_whole_set_formulas(self, monkeypatch):
        saturate, raise_degree, step = (insertion._saturate, insertion._raise_degree_to_five,
                                        insertion.insert_interior_point)
        seen, counts = {}, {"steps": 0, "lost": 0, "far side": 0}

        def recording_saturate(state):
            out = saturate(state)
            seen["dummies"] = out[2]
            return out

        def recording_raise(split1, split2, s):
            seen["splits"] = (split1, split2)
            return raise_degree(split1, split2, s)

        def checked(state, new_ps):
            before = state.layer1 | state.layer2
            nxt = step(state, new_ps)
            s, dummies = len(state.ps), seen["dummies"]
            t1, t2 = nxt.t1, nxt.t2
            union = t1.edges | t2.edges
            final = union - dummies
            assert (nxt.layer1, nxt.layer2) == (t1.edges & final, t2.edges & final)
            assert nxt.missing == dummies & union
            lost = before - final
            reach = [insertion._flip_reach(split, s) for split in seen["splits"]]
            assert lost == {e for edges in reach for e in edges if e not in union and e not in dummies}
            assert len(lost) <= 1
            degree = sum((v, s) in final for v in range(s))
            assert degree == len(t1.neighbors(s) | t2.neighbors(s)) >= 5
            for split, t, edges in zip(seen["splits"], (t1, t2), reach):
                # every edge that a flip removed is one that `_flip_reach` lists
                gone = split.edges - t.edges
                assert gone <= edges
                a, b, c = split.neighbors(s)
                counts["far side"] += bool(gone - {edge_key(a, b), edge_key(b, c), edge_key(a, c)})
            counts["steps"] += 1
            counts["lost"] += len(lost)
            return nxt

        monkeypatch.setattr(insertion, "_saturate", recording_saturate)
        monkeypatch.setattr(insertion, "_raise_degree_to_five", recording_raise)
        monkeypatch.setattr(insertion, "insert_interior_point", checked)
        build_all([*map(mixed_pipeline_instance, range(10)), *family_sets(range(80))])
        assert counts["steps"] > 500 and counts["lost"] > 20 and counts["far side"] >= 1, counts


class TestHullBatchGuard:
    """The hull batch checks only the edges it adds (`_may_cross`): the
    edges of each layer's pre-batch triangulation cross none of each
    other."""

    @staticmethod
    def batches(monkeypatch, point_sets):
        """(result, t1, t2) of every hull batch of the builds of
        `point_sets`: the graph it returns and the triangulations it wired
        from."""
        wirings, results = [], []
        init, insert = insertion._HullWiring.__init__, insertion.insert_hull_points

        def recording_init(w, new_ps, t1, t2):
            wirings.append((t1, t2))
            init(w, new_ps, t1, t2)

        def recording_insert(state, sb):
            out = insert(state, sb)
            if sb:
                results.append(out.current)
            return out

        monkeypatch.setattr(insertion._HullWiring, "__init__", recording_init)
        monkeypatch.setattr(insertion, "insert_hull_points", recording_insert)
        build_all(point_sets)
        assert len(wirings) == len(results)
        return [(g, t1, t2) for g, (t1, t2) in zip(results, wirings)]

    @staticmethod
    def agree(g, t1, t2) -> bool:
        """Whether each layer has a crossing, asserting that the guard says
        the same and that `layer_crossing` finds one exactly then."""
        guard = (insertion._may_cross(g, t1, LAYER1), insertion._may_cross(g, t2, LAYER2))
        truth = tuple(first_crossing(g.ps, sorted(g.layer_edges(layer))) is not None
                      for layer in (LAYER1, LAYER2))
        assert guard == truth and any(truth) == (layer_crossing(g) is not None)
        return any(truth)

    def test_guard_agrees_with_layer_crossing(self, monkeypatch):
        """On every batch of the build tests, the 500 seeds and the bench
        sets, and on two rewirings of each that may cross: both layers in
        layer 1, and each layer's added edges moved to the other layer."""
        point_sets = [*(core_plus_interior(24, seed, outer=2) for seed in (0, 1, 3, 4)),
                      *map(mixed_pipeline_instance, range(6)), *family_sets(range(500)),
                      *bench_sets(monkeypatch)]
        found = {"batches": 0, "crossing": 0, "plane": 0}
        for g, t1, t2 in self.batches(monkeypatch, point_sets):
            assert not self.agree(g, t1, t2)
            one, two = g.layer_edges(LAYER1), g.layer_edges(LAYER2)
            for rewired in (LayeredGraph(g.ps, one | two, ()),
                            LayeredGraph(g.ps, (one & t1.edges) | (two - t2.edges),
                                         (two & t2.edges) | (one - t1.edges))):
                found["crossing" if self.agree(rewired, t1, t2) else "plane"] += 1
            found["batches"] += 1
        assert found["batches"] > 300 and found["crossing"] > 300 and found["plane"] > 300, found

    def test_redirected_spoke_raises_the_layer_crossing_witness(self, monkeypatch):
        """A spoke of the new point sent to the far side of the core crosses
        edges that layer 1 kept from its triangulation: the guard sees it,
        and the error names the pair that `layer_crossing` names."""
        st = fresh_core()
        point = (4000, 100)
        far = min(range(14), key=st.ps.xs.__getitem__)
        add, crossing, guard = insertion._HullWiring.add, insertion.layer_crossing, insertion._may_cross
        redirected, witnesses, guards = [], [], []

        def redirecting(w, u, v, layer):
            if not redirected and layer == LAYER1 and 14 in (u, v):
                redirected.append((far, 14))
                u, v = far, 14
            add(w, u, v, layer)

        monkeypatch.setattr(insertion._HullWiring, "add", redirecting)
        monkeypatch.setattr(insertion, "layer_crossing",
                            lambda g: witnesses.append(crossing(g)) or witnesses[-1])
        monkeypatch.setattr(insertion, "_may_cross",
                            lambda g, t, layer: guards.append(guard(g, t, layer)) or guards[-1])
        with pytest.raises(InternalInvariantError) as err:
            insert_hull_points(st, [point])
        (layer, e, f), = witnesses
        assert guards == [True] and layer == 1
        assert str(err.value) == f"layer separation broken by hull insertion: layer 1 edges {e} and {f} cross"
        assert redirected[0] in (e, f)
        kept = f if e == redirected[0] else e
        assert kept in st.layer1 and segments_properly_cross(st.ps.extended([point]), *e, *f)

    def test_added_edge_between_new_points_off_the_hull_defers_to_the_full_check(self):
        """No walk covers an added edge whose two ends are new and which is
        no hull edge: the guard answers that the layer may cross, and the
        full check decides, here that it does not."""
        st = fresh_core()
        t = complete_to_triangulation(st.ps, required=st.layer1)
        ps = st.ps.extended([(4000, 100), (-4000, 100)])
        assert (14, 15) not in ps.hull_edges()
        g = LayeredGraph(ps, [(14, 15)], ())
        assert insertion._may_cross(g, t, LAYER1) and layer_crossing(g) is None
        assert not insertion._may_cross(LayeredGraph(ps, t.edges, ()), t, LAYER1)
