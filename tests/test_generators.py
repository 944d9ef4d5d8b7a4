import hashlib
import random

import pytest

from biplane.errors import PreconditionError
from biplane.generators import (generate_no5conn_counterexample, random_general_position,
                                random_triangulation, regular_polygon_points)
from biplane.geometry import PointSet

from oracles import ref_random_triangulation


def widening_draws(n, seed, span):
    """The documented sampling rule: draw n distinct points from
    [-span, span]^2, and after every rejected draw widen span by half."""
    rng = random.Random(seed)
    spans = [span]
    while True:
        coords = {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)}
        while len(coords) < n:
            coords.add((rng.randint(-span, span), rng.randint(-span, span)))
        try:
            return PointSet(sorted(coords)), spans
        except PreconditionError:
            span += span // 2 + 1
            spans.append(span)


class TestRandomGeneralPosition:
    def test_span_grows_by_half_after_every_rejected_draw(self):
        widened = 0
        for seed in range(20):
            want, spans = widening_draws(10, seed, 4)
            got = random_general_position(10, seed, span=4)
            assert got.points == want.points
            assert max(max(abs(p.x), abs(p.y)) for p in got) <= spans[-1]
            widened += len(spans) > 1
        # a span of 4 is too small for 10 points: most seeds widen it
        assert widened >= 15

    def test_wide_span_keeps_the_first_draw(self):
        want, spans = widening_draws(12, 3, 10 ** 4)
        assert spans == [10 ** 4]
        assert random_general_position(12, 3).points == want.points

    def test_negative_n_is_a_precondition(self):
        assert len(random_general_position(0, 1)) == 0
        with pytest.raises(PreconditionError, match=r"^random point set needs n >= 0, got -1$"):
            random_general_position(-1, 1)


class TestRegularPolygon:
    #: sha256 of the "x y" lines of regular_polygon_points(5000), whose first
    #: radius (10^6) rounds some points off the hull
    DIGEST_5000 = "5e8a4aca0ffd595514c6ae587454064a14bca618aeaa83559fa182e8c6ad4aa1"

    def test_rejected_radius_skips_the_general_position_scan(self, monkeypatch):
        # PointSet._init with known == 0 is the O(n^2) scan; an accepted
        # radius passes the hull certificate (known == n) instead
        real = PointSet._init

        def init(self, known):
            if known == 0:
                raise AssertionError("general-position scan of the whole set")
            real(self, known)

        monkeypatch.setattr(PointSet, "_init", init)
        ps = regular_polygon_points(5000)
        text = "".join(f"{p.x} {p.y}\n" for p in ps)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST_5000
        assert len(ps.hull()) == 5000


class TestRandomTriangulation:
    """Re-testing only the flipped quadrilateral's edges draws the same walk
    as re-testing every edge."""

    @pytest.mark.parametrize("n,seed", [(n, 1000 + n) for n in range(6, 61)]
                             + [(n, seed) for n in (7, 12, 25, 48) for seed in range(5)])
    def test_same_walk_as_full_rescan(self, n, seed):
        got, want = random_triangulation(n, seed), ref_random_triangulation(n, seed)
        assert got.triangles == want.triangles

    def test_explicit_flip_count(self):
        got = random_triangulation(20, 5, flips=200)
        assert got.triangles == ref_random_triangulation(20, 5, flips=200).triangles


# sha256 of repr((ps.points, sorted(triangles))); the candidate checks may be
# reordered for speed, but every k must keep its triangulation
NO5CONN_DIGESTS = {
    2: "396108b0948fcdfb59fae5c74ec442c04a52e7875aa48559e95e5c5ed2441c50",
    3: "2afbb8ae87781d95c1d3dfe2fcfd61627b245a9547144700fba25455395a9948",
    5: "9fc68d22c4238d51af02802a9ea4333c41bd59f4e5b3ea7c6c66521a5df537f0",
    10: "64eb544eb1fc99b07f436183178e61a40a5547deb9a9b650032b293918893021",
    12: "71e859b8266d54f1095a5d620344bb3be395f9a0f39b16b78a68c9994a753f2a",
}


@pytest.mark.parametrize("k", sorted(NO5CONN_DIGESTS))
def test_no5conn_counterexample_is_pinned(k):
    t = generate_no5conn_counterexample(k)
    got = hashlib.sha256(repr((t.ps.points, sorted(t.triangles))).encode()).hexdigest()
    assert got == NO5CONN_DIGESTS[k]
