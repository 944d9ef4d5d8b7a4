import random

from biplane.errors import PreconditionError
from biplane.generators import random_general_position
from biplane.geometry import PointSet


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
