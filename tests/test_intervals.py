"""Interval arithmetic against its endpoint definitions, on seeded rationals."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from saet.intervals import (
    BoxNumerators,
    Interval,
    IntervalPoint,
    interval_sqrt,
    product_bounds,
    quotient_bounds,
    sqrt_bounds,
    sqrt_enclosure,
    square_bounds,
)


def _rational(rng):
    return F(rng.randint(-60, 60), rng.randint(1, 24))


def _intervals(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = sorted((_rational(rng), _rational(rng)))
        out.append(Interval(a, b) if rng.random() < 0.8 else Interval(a))
    return out


def _ends(x):
    return [x.lo, x.hi]


def _hull(values):
    return (min(values), max(values))


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_the_endpoint_definitions(seed):
    xs, ys = _intervals(seed, 40), _intervals(seed + 100, 40)
    for x, y in zip(xs, ys):
        assert (x + y).lo == x.lo + y.lo and (x + y).hi == x.hi + y.hi
        assert (x - y).lo == x.lo - y.hi and (x - y).hi == x.hi - y.lo
        assert ((x * y).lo, (x * y).hi) == _hull([a * b for a in _ends(x) for b in _ends(y)])
        assert ((-x).lo, (-x).hi) == (-x.hi, -x.lo)
        squares = [a * a for a in _ends(x)]
        low = 0 if x.lo <= 0 <= x.hi else min(squares)
        assert (x.square().lo, x.square().hi) == (low, max(squares))
        if y.lo <= 0 <= y.hi:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert ((x / y).lo, (x / y).hi) == _hull([a / b for a in _ends(x) for b in _ends(y)])
        # a rational operand is the point interval
        c = y.lo
        assert ((x * c).lo, (x * c).hi) == _hull([a * c for a in _ends(x)])
        assert ((c - x).lo, (c - x).hi) == (c - x.hi, c - x.lo)


@pytest.mark.parametrize("bits", [8, 64, 128])
def test_sqrt_enclosures_are_narrow_and_hold_the_root(bits):
    rng = random.Random(bits)
    for _ in range(60):
        x = F(rng.randint(0, 10**6), rng.randint(1, 10**4))
        enc = sqrt_enclosure(x, bits)
        assert enc.width <= F(1, 2**bits)
        assert enc.lo >= 0 and enc.lo ** 2 <= x <= enc.hi ** 2
        assert interval_sqrt(Interval(x), bits).width <= F(1, 2**bits)
        y = Interval(x, x + F(rng.randint(0, 50), rng.randint(1, 50)))
        root = interval_sqrt(y, bits)
        assert root.lo ** 2 <= y.lo and y.hi <= root.hi ** 2
        assert root.hi - sqrt_enclosure(y.hi, bits).lo <= F(1, 2**bits)
    # perfect squares come back exact
    root = sqrt_enclosure(F(9, 4), bits)
    assert root.lo == root.hi == F(3, 2)
    half = interval_sqrt(Interval(0, F(1, 4)), bits)
    assert (half.lo, half.hi) == (0, F(1, 2))
    with pytest.raises(ValueError):
        sqrt_enclosure(F(-1, 4), bits)


def _operations(bad):
    x = Interval(1, 2)
    return [
        lambda: Interval(bad), lambda: Interval(0, bad), lambda: Interval.of(bad),
        lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x,
        lambda: x * bad, lambda: bad * x, lambda: x / bad, lambda: bad / x,
        lambda: x.contains(bad), lambda: IntervalPoint([bad]), lambda: sqrt_enclosure(bad),
    ]


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=repr)
def test_operations_refuse_floats_and_bools(bad):
    for op in _operations(bad):
        with pytest.raises(TypeError):
            op()


def test_empty_intervals_are_refused():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2, 1)
    # no operation builds one: every result has lo <= hi
    for x, y in zip(_intervals(7, 40), _intervals(8, 40)):
        results = [x + y, x - y, x * y, -x, x.square()]
        if not y.lo <= 0 <= y.hi:
            results.append(x / y)
        assert all(r.lo <= r.hi for r in results)


def _over(x: Interval, den: int) -> tuple[int, int]:
    """x's ends as numerators over den (a multiple of their denominators)."""
    lo, hi = x.lo * den, x.hi * den
    assert lo.denominator == hi.denominator == 1
    return int(lo), int(hi)


@pytest.mark.parametrize("seed", range(3))
def test_numerator_operations_give_the_interval_ends(seed):
    rng = random.Random(seed)
    xs, ys = _intervals(seed + 200, 40), _intervals(seed + 300, 40)
    for x, y in zip(xs, ys):
        dx, dy = (lcm(z.lo.denominator, z.hi.denominator) * rng.randint(1, 5) for z in (x, y))
        (a, b), (c, d) = _over(x, dx), _over(y, dy)
        lo, hi = square_bounds(a, b)
        assert (F(lo, dx * dx), F(hi, dx * dx)) == (x.square().lo, x.square().hi)
        lo, hi = product_bounds(a, b, c, d)
        assert (F(lo, dx * dy), F(hi, dx * dy)) == ((x * y).lo, (x * y).hi)
        if y.lo <= 0 <= y.hi:
            with pytest.raises(ZeroDivisionError):
                quotient_bounds(a, b, dx, c, d, dy)
        else:
            lo, hi, den = quotient_bounds(a, b, dx, c, d, dy)
            assert (F(lo, den), F(hi, den)) == ((x / y).lo, (x / y).hi)
        # nonnegative intervals over k m^2, with square ends and others
        k = rng.choice([1, 2, 3, 12])
        for z in (x.square(), x.square() + F(1, 7), Interval(F(2, 3), F(7, 5)),
                  Interval(F(1, 4), F(9, 4)), Interval(0, F(25, 9))):
            m = lcm(z.lo.denominator, z.hi.denominator) * rng.randint(1, 3)
            e, f = _over(z, k * m * m)
            for bits in (16, 64):
                lo, hi, den = sqrt_bounds(e, f, k, m, bits)
                root = interval_sqrt(z, bits)
                assert (F(lo, den), F(hi, den)) == (root.lo, root.hi)


def test_box_numerators_round_trip_and_hull():
    boxes = [IntervalPoint(_intervals(seed, 3)) for seed in range(20, 26)]
    ints = [box.numerators() for box in boxes]
    for box, b in zip(boxes, ints):
        assert [(c.lo, c.hi) for c in b.interval_point().coords] == [
            (c.lo, c.hi) for c in box.coords]
    hull = BoxNumerators.hull(ints).interval_point()
    for k in range(3):
        assert hull[k].lo == min(box[k].lo for box in boxes)
        assert hull[k].hi == max(box[k].hi for box in boxes)
    point = IntervalPoint([F(1, 3), F(-2, 5)]).numerators()
    assert point == BoxNumerators(15, (5, -6), (5, -6))


def _grid_row(rng, n: int) -> tuple[int, ...]:
    """A point of (Z/6)^n in [-1, 1]^n as an integer row (q, p_1, ..., p_n),
    over a denominator that is often larger than its least one."""
    xs = [F(rng.randint(-6, 6), 6) for _ in range(n)]
    q = lcm(1, *(x.denominator for x in xs)) * rng.choice([1, 1, 2, 5])
    return (q, *(int(x * q) for x in xs))


def _fraction_box(rows) -> list[tuple[F, F]]:
    """The closed box of the rows' points, as rational (lo, hi) pairs."""
    points = [[F(c, row[0]) for c in row[1:]] for row in rows]
    return [(min(axis), max(axis)) for axis in zip(*points)]


def _fraction_axis(a, b) -> int | None:
    """The first axis on which the rational boxes a and b miss each other."""
    for axis, ((lo1, hi1), (lo2, hi2)) in enumerate(zip(a, b)):
        if hi1 < lo2 or hi2 < lo1:
            return axis
    return None


def test_box_predicates_match_fraction_boxes():
    # of_points, hull and separating_axis against the same boxes over
    # Fractions: mixed denominators, boxes that touch on an axis (closed,
    # so they meet there) and boxes in R^0, which have no axis and so meet
    rng = random.Random(24)
    seen = dict.fromkeys(["mixed", "touch", "miss", "r0"], 0)
    for trial in range(600):
        n = trial % 4
        rows_a = [_grid_row(rng, n) for _ in range(rng.randint(1, 3))]
        rows_b = [_grid_row(rng, n) for _ in range(rng.randint(1, 3))]
        a, b = BoxNumerators.of_points(rows_a), BoxNumerators.of_points(rows_b)
        ref_a, ref_b = _fraction_box(rows_a), _fraction_box(rows_b)
        for box, ref in ((a, ref_a), (b, ref_b), (BoxNumerators.hull([a, b]),
                                                  _fraction_box(rows_a + rows_b))):
            assert [(c.lo, c.hi) for c in box.interval_point().coords] == ref, trial
        want = _fraction_axis(ref_a, ref_b)
        assert a.separating_axis(b) == b.separating_axis(a) == want, trial
        seen["mixed"] += a.q != b.q
        seen["miss"] += want is not None
        seen["r0"] += n == 0
        seen["touch"] += want is None and any(hi1 == lo2 or hi2 == lo1
                                              for (lo1, hi1), (lo2, hi2) in zip(ref_a, ref_b))
    assert min(seen.values()) > 20, seen
