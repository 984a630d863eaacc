"""Cost of the triangle search per asserted point, on fixed seeded layouts.

Usage: python tools/search_cost.py [--verifiers N ...] [--rounds R] [--no-times]

For each verifier count (default 40 160 640) it builds one layout of that
many verifiers in the North-America box (`generate_scenario`, seed 11) and
searches `enumerate_triangles(layout, point, 4)`, as `verify_location`
does with the default `max_triangles`, for two sets of points:

- covered: 200 points drawn from the box grown by a tenth on each side
  (seed 11) and kept when some verifier triangle contains them, so they
  reach up to the hull edge;
- band: the middle of each hull edge moved outward by half of
  `_HULL_MARGIN` (about 320 m). The hull cannot rule such a point out, so
  the search decides it, and finds no triangle.

It prints one Markdown table row per set: the containment tests per point
(mean, median, max) and the entries of the layout's pair memo after the
set's counted pass (which holds those of the covers() calls that drew the
points, and, for band, of the covered pass), which depend only on the
code and the seeds, and the time per point in ms (mean, median, 99th
percentile), the minimum of R rounds (default 3) on the warm layout,
after the pass that counts.
--no-times prints the counts only. The slv package is imported from the
src directory next to this script. Standard library only.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import slv.verify  # noqa: E402
from slv.geo import Location, _unit  # noqa: E402
from slv.simulator import RegionBounds, generate_scenario  # noqa: E402

NORTH_AMERICA = RegionBounds(lat_min=25.0, lat_max=50.0, lon_min=-125.0, lon_max=-70.0)
SEED = 11
COVERED_POINTS = 200
LIMIT = 4


def _location(v) -> Location:
    norm = math.sqrt(sum(x * x for x in v))
    return Location(math.degrees(math.asin(max(-1.0, min(1.0, v[2] / norm)))),
                    math.degrees(math.atan2(v[1], v[0])))


def covered_points(layout: slv.verify.VerifierLayout) -> list[Location]:
    rng = random.Random(SEED)
    b = NORTH_AMERICA
    pad_lat, pad_lon = 0.1 * (b.lat_max - b.lat_min), 0.1 * (b.lon_max - b.lon_min)
    points: list[Location] = []
    while len(points) < COVERED_POINTS:
        p = Location(rng.uniform(b.lat_min - pad_lat, b.lat_max + pad_lat),
                     rng.uniform(b.lon_min - pad_lon, b.lon_max + pad_lon))
        if layout.covers(p):
            points.append(p)
    return points


def band_points(layout: slv.verify.VerifierLayout) -> list[Location]:
    units = layout._units
    hull = slv.verify._hull(units)
    points = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        mid = slv.verify._normalized([x + y for x, y in zip(units[a], units[b])])
        inward = slv.verify._normalized(slv.verify._cross(units[a], units[b]))
        d = -0.5 * slv.verify._HULL_MARGIN
        points.append(_location([math.sqrt(1.0 - d * d) * m + d * v
                                 for m, v in zip(mid, inward)]))
    assert all(not layout._beyond_hull(_unit(p)) for p in points)
    return points


def containment_tests(layout, points) -> list[int]:
    """Containment tests of each point's search, counted by wrapping
    slv.verify.spherical_containment for the duration."""
    counted = slv.verify.spherical_containment
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return counted(*args)

    slv.verify.spherical_containment = counting
    try:
        per_point = []
        for p in points:
            before = calls
            slv.verify.enumerate_triangles(layout, p, LIMIT)
            per_point.append(calls - before)
        return per_point
    finally:
        slv.verify.spherical_containment = counted


def times_ms(layout, points, rounds: int) -> list[float]:
    """Per point, the least time in ms of `rounds` searches."""
    best = [math.inf] * len(points)
    search = slv.verify.enumerate_triangles
    for _ in range(rounds):
        for index, p in enumerate(points):
            start = time.perf_counter()
            search(layout, p, LIMIT)
            best[index] = min(best[index], (time.perf_counter() - start) * 1e3)
    return best


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verifiers", type=int, nargs="+", default=[40, 160, 640])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--no-times", action="store_true")
    args = parser.parse_args(argv)

    head = "| verifiers | points | tests mean | tests p50 | tests max | memo entries |"
    if not args.no_times:
        head += " mean ms | p50 ms | p99 ms |"
    print(head)
    print("|" + " --- |" * (head.count("|") - 1))
    for n in args.verifiers:
        verifiers = generate_scenario(n, 0, 0, 0, bounds=NORTH_AMERICA, seed=SEED).verifiers
        layout = slv.verify.VerifierLayout(verifiers)
        for name, points in (("covered", covered_points(layout)), ("band", band_points(layout))):
            tests = containment_tests(layout, points)
            row = (f"| {n} | {len(points)} {name} | {statistics.fmean(tests):,.1f} "
                   f"| {statistics.median(tests):,.0f} | {max(tests):,} "
                   f"| {len(layout._crosses):,} |")
            if not args.no_times:
                ms = times_ms(layout, points, args.rounds)
                row += (f" {statistics.fmean(ms):.3f} | {statistics.median(ms):.3f} "
                        f"| {_p99(ms):.3f} |")
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
