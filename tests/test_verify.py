import hashlib
import math
import random
import sys
import threading
from dataclasses import fields
from datetime import datetime, timezone
from itertools import combinations
from typing import Optional

import pytest

import slv.verify
from conftest import IdealProvider
from slv.geo import (
    _MIN_DET,
    AntipodalPointsError,
    Circle,
    DegenerateTriangleError,
    Location,
    Triangle,
    _cross,
    _dot,
    _triple_products,
    _unit,
    destination_point,
    great_circle_distance,
    min_rtt_for_distance,
    point_in_circle,
    point_in_spherical_triangle,
    spherical_containment,
)
from slv.simulator import (
    DelayModel,
    RegionBounds,
    SimDelayProvider,
    generate_scenario,
    run_experiment,
)
from slv.verify import (
    _EDGE_EPS,
    _HULL_MARGIN,
    _STOP_SLACK_KM,
    MAX_PROBES,
    MAX_TIMEOUT_S,
    TARGET,
    DelayProvider,
    IPInfo,
    Reason,
    VerificationResult,
    VerifierLayout,
    VerifyConfig,
    apply_lastmile_correction,
    circle_of_pair,
    enumerate_triangles,
    thales_accept,
    verify_location,
)

NOW = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)

TRI_VERIFIERS = [
    ("a", Location(10, 0)),
    ("b", Location(-10, 10)),
    ("c", Location(-10, -10)),
]


def perimeter(t: Triangle) -> float:
    return sum(great_circle_distance(a, b) for a, b in combinations(t.vertices, 2))


class TestApplyLastmileCorrection:
    def test_subtracts(self):
        assert apply_lastmile_correction(12.0, 5.0) == 7.0

    def test_clamps_at_zero(self):
        assert apply_lastmile_correction(3.0, 5.0) == 0.0

    def test_identity_with_zero_lambda(self):
        assert apply_lastmile_correction(8.0, 0.0) == 8.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            apply_lastmile_correction(-1.0, 0.0)
        with pytest.raises(ValueError):
            apply_lastmile_correction(1.0, -0.1)


class TestThalesAccept:
    def test_well_inside(self):
        assert thales_accept(3, 4, 10, 10) is True

    def test_outside(self):
        assert thales_accept(8, 9, 10, 10) is False

    def test_right_angle_boundary(self):
        assert thales_accept(6, 8, 10, 10) is True

    def test_asymmetric_pair_delays_are_averaged(self):
        # mean pair delay 10 regardless of the split
        assert thales_accept(6, 8, 12, 8) is True
        assert thales_accept(6, 8, 4, 16) is True
        assert thales_accept(6, 8.0001, 12, 8) is False

    def test_monotone_in_target_delays(self):
        rng = random.Random(11)
        for _ in range(2000):
            d1 = rng.uniform(0, 30)
            d2 = rng.uniform(0, 30)
            d12 = rng.uniform(0, 40)
            d21 = rng.uniform(0, 40)
            if thales_accept(d1, d2, d12, d21):
                continue
            # once rejected, growing either target delay cannot accept
            assert not thales_accept(d1 + rng.uniform(0, 5), d2, d12, d21)
            assert not thales_accept(d1, d2 + rng.uniform(0, 5), d12, d21)

    def test_scale_invariant(self):
        rng = random.Random(12)
        for _ in range(2000):
            d1, d2, d12, d21 = (rng.uniform(0.01, 50) for _ in range(4))
            k = rng.uniform(0.001, 1000)
            assert thales_accept(d1, d2, d12, d21) == thales_accept(
                k * d1, k * d2, k * d12, k * d21
            )

    def test_matches_planar_circle_membership(self):
        # delays proportional to plane distances make the delay test agree
        # with direct membership in the circle over the pair's diameter
        rng = random.Random(13)
        for _ in range(5000):
            v1 = (rng.uniform(0, 100), rng.uniform(0, 100))
            v2 = (rng.uniform(0, 100), rng.uniform(0, 100))
            x = (rng.uniform(-50, 150), rng.uniform(-50, 150))
            k = rng.uniform(0.01, 10)
            d1 = k * math.dist(v1, x)
            d2 = k * math.dist(v2, x)
            dpair = k * math.dist(v1, v2)
            mid = ((v1[0] + v2[0]) / 2, (v1[1] + v2[1]) / 2)
            inside = math.dist(x, mid) <= math.dist(v1, v2) / 2
            lhs, rhs = d1 * d1 + d2 * d2, dpair * dpair
            if abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0):
                continue  # knife-edge boundary, either answer is fine
            assert thales_accept(d1, d2, dpair, dpair) == inside


class TestCircleOfPair:
    def test_quarter_circumference_pair(self):
        circle = circle_of_pair(Location(0, 0), Location(0, 90))
        assert circle.centre == Location(0, 45)
        assert circle.radius == pytest.approx(5003.77, abs=0.01)

    def test_tiny_pair(self):
        circle = circle_of_pair(Location(10, 10), Location(10, 10.0002))
        assert circle.radius == pytest.approx(0.011, abs=0.001)

    def test_equatorial_pair(self):
        circle = circle_of_pair(Location(0, -10), Location(0, 10))
        assert circle.centre == Location(0, 0)
        assert circle.radius == pytest.approx(1111.95, abs=0.01)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            circle_of_pair(Location(1, 1), Location(1, 1))

    def test_antipodal_propagates(self):
        with pytest.raises(AntipodalPointsError):
            circle_of_pair(Location(90, 0), Location(-90, 0))


class TestEnumerateTriangles:
    def test_single_containing_combination(self):
        triangles = enumerate_triangles(VerifierLayout(TRI_VERIFIERS), Location(0, 0))
        assert triangles == [("a", "b", "c")]

    def test_point_far_outside(self):
        assert enumerate_triangles(VerifierLayout(TRI_VERIFIERS), Location(50, 50)) == []

    def test_nested_triangles_smallest_perimeter_first(self):
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]
        triangles = enumerate_triangles(VerifierLayout(verifiers), Location(0, 0))
        assert len(triangles) >= 2
        locs = dict(verifiers)
        perimeters = [perimeter(Triangle(tuple(locs[v] for v in t), t)) for t in triangles]
        assert perimeters == sorted(perimeters)
        assert triangles[0] == ("a", "b", "c")
        # the wider triangle through d comes later
        assert ("b", "c", "d") in triangles[1:]

    def test_deterministic(self):
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0)), ("e", Location(-25, 3))]
        first = enumerate_triangles(VerifierLayout(verifiers), Location(0, 0))
        second = enumerate_triangles(VerifierLayout(list(reversed(verifiers))), Location(0, 0))
        assert first == second

    def test_agrees_with_per_triangle_containment(self):
        # independent route: build every combination directly and test it
        # one triangle at a time
        rng = random.Random(17)
        verifiers = sorted(
            (f"v{i}", Location(rng.uniform(-40, 40), rng.uniform(-60, 60)))
            for i in range(8)
        )
        for _ in range(200):
            p = Location(rng.uniform(-40, 40), rng.uniform(-60, 60))
            expected = set()
            for combo in combinations(verifiers, 3):
                try:
                    t = Triangle(tuple(loc for _, loc in combo), tuple(vid for vid, _ in combo))
                except DegenerateTriangleError:
                    continue
                if point_in_spherical_triangle(p, t):
                    expected.add(t.verifier_ids)
            enumerated = set(enumerate_triangles(VerifierLayout(verifiers), p))
            assert enumerated == expected

    def test_skips_degenerate_combinations(self):
        verifiers = [
            ("a", Location(0, 0)),
            ("b", Location(0, 10)),
            ("c", Location(0, 20)),  # collinear with a and b
            ("d", Location(10, 10)),
            ("e", Location(-10, 10)),
        ]
        triangles = enumerate_triangles(VerifierLayout(verifiers), Location(0, 10))
        assert ("a", "b", "c") not in triangles

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            enumerate_triangles(VerifierLayout(TRI_VERIFIERS[:2]), Location(0, 0))
        with pytest.raises(ValueError):
            enumerate_triangles(
                VerifierLayout(TRI_VERIFIERS + [("a", Location(5, 5))]), Location(0, 0)
            )
        with pytest.raises(ValueError):
            enumerate_triangles(VerifierLayout(TRI_VERIFIERS), Location(0, 0), limit=0)


def oracle(verifiers, asserted: Location) -> list[Triangle]:
    """Every verifier triangle containing `asserted`, by testing all
    3-combinations and sorting by (perimeter, verifier-id triple).

    This is the exhaustive enumeration that enumerate_triangles replaced
    with its top-k search, kept as the reference the search must match
    float for float: triples in id order, pair distances summed as
    d(i, j) + d(j, k) + d(i, k).
    """
    ordered = sorted(verifiers, key=lambda v: v[0])
    units = [_unit(loc) for _, loc in ordered]
    up = _unit(asserted)
    found = []
    for i, j, k in combinations(range(len(ordered)), 3):
        ij = _cross(units[i], units[j])
        inside = spherical_containment(
            _dot(ij, units[k]),
            _dot(ij, up),
            _dot(_cross(units[j], units[k]), up),
            _dot(_cross(units[i], units[k]), up),
        )
        if not inside:
            continue
        (a, la), (b, lb), (c, lc) = ordered[i], ordered[j], ordered[k]
        perimeter = (
            great_circle_distance(la, lb)
            + great_circle_distance(lb, lc)
            + great_circle_distance(la, lc)
        )
        found.append((perimeter, (a, b, c), Triangle((la, lb, lc), (a, b, c))))
    found.sort(key=lambda item: item[:2])
    return [triangle for _, _, triangle in found]


def _instance(rng: random.Random, kind: str, n: Optional[int] = None):
    """A verifier layout of n verifiers (3 to 40 when None) and a few
    points to test.

    uniform: verifiers anywhere in a random box. lattice: distinct nodes
    of a grid through the equator, so rows on the equator and columns
    along meridians give collinear (degenerate) triples, and congruent
    triangles give perimeter ties; points are nodes and half-steps, many
    on edges. antimeridian: a box spanning longitude 180.
    """
    n = n or rng.randint(3, 40)
    if kind == "lattice":
        step = rng.choice([1.0, 2.5, 5.0, 10.0])
        side = math.ceil(math.sqrt(n)) + 1
        lat0 = -step * rng.randint(0, side - 1)
        lon0 = rng.uniform(-180.0, 180.0)
        nodes = [(lat0 + step * r, lon0 + step * c) for r in range(side) for c in range(side)]
        picked = rng.sample(nodes, n)
        verifiers = [(f"v{i:02d}", Location(lat, lon)) for i, (lat, lon) in enumerate(picked)]
        points = [
            Location(lat0 + step * rng.randint(0, 2 * side - 2) / 2,
                     lon0 + step * rng.randint(0, 2 * side - 2) / 2)
            for _ in range(3)
        ]
    else:
        lat_lo = rng.uniform(-70.0, 40.0)
        lat_hi = lat_lo + rng.uniform(5.0, 30.0)
        if kind == "antimeridian":
            lon_lo = rng.uniform(150.0, 175.0)
            lon_hi = rng.uniform(185.0, 210.0)
        else:
            lon_lo = rng.uniform(-180.0, 120.0)
            lon_hi = lon_lo + rng.uniform(5.0, 60.0)

        def draw() -> Location:
            return Location(rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi))

        verifiers = [(f"v{i:02d}", draw()) for i in range(n)]
        points = [draw() for _ in range(2)]
    points.append(rng.choice(verifiers)[1])  # exactly on a vertex
    rng.shuffle(verifiers)
    return verifiers, points


class TestTopKMatchesOracle:
    @pytest.mark.parametrize("kind, seed", [
        ("uniform", 1), ("uniform", 2), ("lattice", 3), ("lattice", 4), ("antimeridian", 5),
    ])
    def test_head_of_full_list(self, kind, seed):
        self._check(random.Random(seed), kind, instances=12)

    @pytest.mark.parametrize("kind, seed", [("uniform", 7), ("lattice", 8), ("antimeridian", 9)])
    def test_head_of_full_list_at_80_verifiers(self, kind, seed):
        # most pairs of a layout this large fail the side bound
        self._check(random.Random(seed), kind, instances=3, n=80)

    @staticmethod
    def _check(rng: random.Random, kind: str, instances: int, n: Optional[int] = None):
        for _ in range(instances):
            verifiers, points = _instance(rng, kind, n)
            coverage = VerifierLayout(verifiers)
            for p in points:
                full = [t.verifier_ids for t in oracle(verifiers, p)]
                assert coverage.covers(p) == bool(full), (kind, verifiers, p)
                for k in (1, 2, 4, 7, None):
                    found = enumerate_triangles(VerifierLayout(verifiers), p, k)
                    assert found == full[:k], (kind, k, verifiers, p)

    def test_returns_equal_triangles(self):
        rng = random.Random(6)
        verifiers, points = _instance(rng, "uniform")
        for p in points:
            full = [t.verifier_ids for t in oracle(verifiers, p)]
            assert enumerate_triangles(VerifierLayout(verifiers), p) == full
            assert enumerate_triangles(VerifierLayout(verifiers), p, 4) == full[:4]

    def test_pruning_bounds_containment_tests(self, monkeypatch):
        # Without the side bound the search makes ~1150 containment tests
        # per point on this layout, with it ~230, and with the azimuth
        # index as well ~17; a bound or an index that silently stops
        # pruning lands far above the limit.
        scenario = generate_scenario(
            40, 64, 0, 0,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=3,
        )
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return spherical_containment(*args)

        monkeypatch.setattr(slv.verify, "spherical_containment", counting)
        for server in scenario.servers:
            assert enumerate_triangles(VerifierLayout(scenario.verifiers), server.asserted_loc, 4)
        assert calls / len(scenario.servers) < 60

    def test_containment_tests_see_the_floats_of_an_id_order_scan(self, monkeypatch):
        # Every call's arguments must be those a scan of all triples
        # i < j < k computes, down to the last bit: a product taken in
        # another order may be mathematically equal and still flip a
        # verdict on an edge.
        calls = []

        def recording(*args):
            calls.append(args)
            return spherical_containment(*args)

        monkeypatch.setattr(slv.verify, "spherical_containment", recording)
        for seed in (1, 2, 3):
            scenario = generate_scenario(
                24, 12, 0, 0,
                bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
                seed=seed,
            )
            layout = VerifierLayout(scenario.verifiers)
            triples = [_triple_products(*t) for t in combinations(layout._units, 3)]
            for server in scenario.servers:
                calls.clear()
                enumerate_triangles(layout, server.asserted_loc, 4)
                up = _unit(server.asserted_loc)
                scan = {(det, _dot(ab, up), _dot(bc, up), _dot(ac, up))
                        for det, ab, bc, ac in triples}
                assert calls and set(calls) <= scan

    def test_simulator_verdicts_identical(self, monkeypatch):
        scenario = generate_scenario(
            40, 4, 3, 2,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=7,
        )
        searched = run_experiment(scenario).to_dict()
        calls = []

        def exhaustive(layout, asserted, limit=None):
            calls.append(limit)
            return [t.verifier_ids for t in oracle(list(layout._loc_of.items()), asserted)][:limit]

        monkeypatch.setattr(slv.verify, "enumerate_triangles", exhaustive)
        assert run_experiment(scenario).to_dict() == searched
        assert calls == [scenario.cfg.max_triangles] * len(scenario.servers)


class TestVerifierLayout:
    """One layout reused across many points searches exactly as a fresh
    verifier list per point does, and as the oracle."""

    @staticmethod
    def _box_layout(rng: random.Random, n: int, grow: float = 0.25):
        """n verifiers in a random box and 50 points: 44 drawn from the box
        grown by `grow` on each side (some then fall outside every
        triangle) and 6 on verifiers."""
        lat_lo = rng.uniform(-60.0, 30.0)
        lat_hi = lat_lo + rng.uniform(10.0, 30.0)
        lon_lo = rng.uniform(-180.0, 120.0)
        lon_hi = lon_lo + rng.uniform(10.0, 60.0)
        pad_lat, pad_lon = grow * (lat_hi - lat_lo), grow * (lon_hi - lon_lo)
        verifiers = [
            (f"v{i:03d}", Location(rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi)))
            for i in range(n)
        ]
        points = [
            Location(rng.uniform(lat_lo - pad_lat, lat_hi + pad_lat),
                     rng.uniform(lon_lo - pad_lon, lon_hi + pad_lon))
            for _ in range(44)
        ]
        points += [rng.choice(verifiers)[1] for _ in range(6)]
        rng.shuffle(points)
        return verifiers, points

    @staticmethod
    def _check(verifiers, points, limits, oracle_points):
        """Search every point twice on one layout, in order and then in
        reverse (so the pair memo holds other points' entries), against a
        fresh list per point and, for the first oracle_points, the oracle."""
        fresh = {}
        for index, p in enumerate(points):
            full = [t.verifier_ids for t in oracle(verifiers, p)] if index < oracle_points else None
            for k in limits:
                fresh[index, k] = enumerate_triangles(VerifierLayout(verifiers), p, k)
                assert full is None or fresh[index, k] == full[:k], (k, verifiers, p)
        layout = VerifierLayout(verifiers)
        order = list(range(len(points)))
        for index in order + order[::-1]:
            for k in limits:
                got = enumerate_triangles(layout, points[index], k)
                assert got == fresh[index, k], (k, verifiers, points[index])
        n = len(verifiers)
        assert len(layout._crosses) <= n * (n - 1) // 2

    @pytest.mark.parametrize("n, seed", [(3, 1), (4, 2), (40, 3)])
    def test_reused_layout_matches_fresh_lists_and_oracle(self, n, seed):
        rng = random.Random(seed)
        for _ in range(2 if n < 40 else 1):
            verifiers, points = self._box_layout(rng, n)
            self._check(verifiers, points, (1, 2, 4, None), oracle_points=len(points))

    def test_reused_layout_at_160_verifiers(self):
        # A point outside every triangle, the oracle and limit None all
        # test C(160, 3) triples, so the points are drawn from the inner
        # part of the box, and the oracle and limit None run on one point.
        verifiers, points = self._box_layout(random.Random(4), 160, grow=-0.1)
        self._check(verifiers, points, (1, 2, 4), oracle_points=0)
        self._check(verifiers, points[:1], (1, 2, 4, None), oracle_points=1)

    def test_more_than_a_hemisphere(self):
        rng = random.Random(5)

        def anywhere() -> Location:
            return Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0))

        verifiers = [(f"v{i:02d}", anywhere()) for i in range(20)]
        verifiers += [("w0", Location(0.0, 0.0)), ("w1", Location(0.0, 180.0))]
        points = [anywhere() for _ in range(46)] + [loc for _, loc in verifiers[:4]]
        self._check(verifiers, points, (1, 2, 4, None), oracle_points=len(points))

    def test_coincident_verifiers(self):
        rng = random.Random(6)
        verifiers, points = self._box_layout(rng, 12)
        verifiers += [(f"twin{i}", loc) for i, (_, loc) in enumerate(verifiers[:4])]
        verifiers.append(("twin9", verifiers[0][1]))  # three at one place
        points += [loc for _, loc in verifiers[-5:]]
        self._check(verifiers, points, (1, 2, 4, None), oracle_points=len(points))

    def test_antipodal_pair_whose_dot_rounds_below_minus_one(self):
        # The side bound takes acos of a verifier pair's dot product, which
        # can round below -1 for a pair half a turn apart; the search
        # clamps it, neither raising nor changing a result.
        for seed in range(100):
            rng = random.Random(seed)
            lat, lon = rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 0.0)
            pair = Location(lat, lon), Location(-lat, lon + 180.0)
            if _dot(*map(_unit, pair)) < -1.0:
                break
        else:
            pytest.fail("no seed gives a dot below -1")

        def anywhere() -> Location:
            return Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0))

        verifiers = [(f"v{i:02d}", anywhere()) for i in range(10)]
        verifiers += [("w0", pair[0]), ("w1", pair[1])]
        points = [anywhere() for _ in range(16)] + list(pair)
        self._check(verifiers, points, (1, 2, 4, None), oracle_points=len(points))

    def test_close_pair_whose_dot_rounds_above_one(self):
        # Two verifiers 11 cm apart whose dot product rounds above 1: the
        # clamp gives their side length 0, and the search matches the
        # oracle.
        for seed in range(10000):
            rng = random.Random(seed)
            lat, lon = rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)
            pair = Location(lat, lon), Location(lat + 1e-6, lon)
            if _dot(*map(_unit, pair)) > 1.0:
                break
        else:
            pytest.fail("no seed gives a dot above 1")
        verifiers = [
            (f"v{i:02d}", Location(lat + rng.uniform(-5.0, 5.0), lon + rng.uniform(-5.0, 5.0)))
            for i in range(10)
        ]
        verifiers += [("w0", pair[0]), ("w1", pair[1])]
        points = [Location(lat + rng.uniform(-6.0, 6.0), lon + rng.uniform(-6.0, 6.0))
                  for _ in range(16)] + list(pair)
        self._check(verifiers, points, (1, 2, 4, None), oracle_points=len(points))

    def test_memo_holds_only_the_pairs_of_tested_triples(self, monkeypatch):
        # A pair's memo entry is filled when a triple about to be tested
        # first reads it, so one search on a fresh layout fills at most
        # three entries per containment test, not one per pair it visits.
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return spherical_containment(*args)

        monkeypatch.setattr(slv.verify, "spherical_containment", counting)
        verifiers, points = self._box_layout(random.Random(12), 40, grow=0.0)
        searched = 0
        for p in points:
            layout = VerifierLayout(verifiers)
            calls = 0
            enumerate_triangles(layout, p, 4)
            assert len(layout._crosses) <= 3 * calls, p
            searched += calls > 0
        assert searched > len(points) // 2

    def test_threads_sharing_one_layout_get_the_fresh_results(self):
        # The manager's handler threads share its layout; two threads that
        # fill one memo entry store the same value, so no result changes.
        verifiers, points = self._box_layout(random.Random(9), 40, grow=0.0)
        expected = [enumerate_triangles(VerifierLayout(verifiers), p, 4) for p in points]
        layout = VerifierLayout(verifiers)
        mismatches = []

        def search(offset: int) -> None:
            for i in range(len(points)):
                index = (i + offset) % len(points)
                if enumerate_triangles(layout, points[index], 4) != expected[index]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(k * 7,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_hull_is_built_at_construction_and_nothing_later(self, monkeypatch):
        # The hull is part of a built layout; points searched or tested
        # later, beyond the hull included, fill the pair memo only.
        built = []
        hull = slv.verify._hull

        def counting_hull(units):
            built.append(len(units))
            return hull(units)

        monkeypatch.setattr(slv.verify, "_hull", counting_hull)
        verifiers, points = self._box_layout(random.Random(8), 20)
        layout = VerifierLayout(verifiers)
        assert built == [20]
        assert layout._normals and layout._fan
        state = dict(vars(layout))
        outside = [p for p in points if layout._beyond_hull(_unit(p))]
        assert outside and len(outside) < len(points)
        for p in points:
            assert enumerate_triangles(layout, p, 4) == [t.verifier_ids for t in oracle(verifiers, p)][:4]
            assert layout.covers(p) == covered_by_oracle(verifiers, p)
        assert built == [20]
        assert vars(layout).keys() == state.keys()
        assert all(vars(layout)[key] is value for key, value in state.items())

    def test_hull_edges_match_a_dot_call_per_verifier(self):
        # _hull_edges inlines _dot; the reference below calls it per
        # verifier and hull edge, and the normals must be the same floats.
        def reference_normals(units):
            hull = slv.verify._hull(units)
            if hull is None:
                return []
            normals = []
            for h, nxt in zip(hull, hull[1:] + hull[:1]):
                normal = slv.verify._normalized(_cross(units[h], units[nxt]))
                if normal is None or any(_dot(normal, u) < -_EDGE_EPS for u in units):
                    return []
                normals.append(normal)
            return normals

        rng = random.Random(17)
        layouts = [self._box_layout(rng, rng.randint(3, 60))[0] for _ in range(40)]
        for kind in TestCoverage.BOXES:
            layouts += [[(f"v{i:02d}", TestCoverage._draw(rng, TestCoverage.BOXES[kind]))
                         for i in range(rng.randint(3, 30))] for _ in range(5)]
        # verifiers on hull edges, and layouts wider than a hemisphere
        layouts.append([(f"m{i}", Location(lat, -90.0)) for i, lat in enumerate(range(0, 40, 5))]
                       + [("e", Location(20.0, -80.0))])
        layouts += [[(f"w{i}", Location(rng.uniform(-90, 90), rng.uniform(-180, 180)))
                     for i in range(12)] for _ in range(5)]
        checked = 0
        for verifiers in layouts:
            units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
            normals, fan = slv.verify._hull_edges(units)
            assert normals == reference_normals(units)
            assert bool(fan) == bool(normals)
            checked += bool(normals)
        assert 0 < checked < len(layouts)

    def test_hull_matches_a_dot_call_projection(self):
        # _hull inlines the gnomonic projection's three _dot calls per
        # verifier; the reference below makes them, and the hull must be
        # the same indices in the same order.
        def reference_hull(units):
            centre = slv.verify._normalized(tuple(sum(u[i] for u in units) for i in range(3)))
            if centre is None:
                return None
            e1, e2 = slv.verify._tangent_basis(centre)
            points = []
            for index, u in enumerate(units):
                m = _dot(u, centre)
                if m <= 0.0:
                    return None
                points.append((_dot(u, e1) / m, _dot(u, e2) / m, index))
            points.sort()

            def chain(ordered) -> list:
                out: list = []
                for q in ordered:
                    while len(out) >= 2 and (
                        (out[-1][0] - out[-2][0]) * (q[1] - out[-2][1])
                        - (out[-1][1] - out[-2][1]) * (q[0] - out[-2][0])
                    ) <= 0.0:
                        out.pop()
                    out.append(q)
                return out[:-1]

            hull = chain(points) + chain(reversed(points))
            return [q[2] for q in hull] if len(hull) >= 3 else None

        rng = random.Random(19)
        # sim_sweep's box and 40 verifiers, random boxes of 3 to 60, and
        # layouts over the whole sphere (mostly wider than a hemisphere)
        layouts = [[(f"v{i:02d}", TestCoverage._draw(rng, TestCoverage.BOXES["north_america"]))
                    for i in range(40)] for _ in range(20)]
        layouts += [self._box_layout(rng, rng.randint(3, 60))[0] for _ in range(25)]
        layouts += [[(f"w{i}", Location(rng.uniform(-90, 90), rng.uniform(-180, 180)))
                     for i in range(12)] for _ in range(5)]
        checked = 0
        for verifiers in layouts:
            units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
            hull = slv.verify._hull(units)
            assert hull == reference_hull(units)
            checked += hull is not None
        assert len(layouts) == 50 and 45 <= checked < 50

    def test_run_experiment_searches_one_layout(self, monkeypatch):
        scenario = generate_scenario(
            12, 3, 2, 1,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=12,
        )
        seen = []
        search = slv.verify.enumerate_triangles

        def recording(verifiers, asserted, limit=None):
            seen.append(verifiers)
            return search(verifiers, asserted, limit)

        monkeypatch.setattr(slv.verify, "enumerate_triangles", recording)
        run_experiment(scenario)
        assert len(seen) == 6 and isinstance(seen[0], VerifierLayout)
        assert all(layout is seen[0] for layout in seen)


def covered_by_oracle(verifiers, p: Location) -> bool:
    """Whether any 3-combination contains p, by the oracle's test."""
    ordered = sorted(verifiers, key=lambda v: v[0])
    units = [_unit(loc) for _, loc in ordered]
    up = _unit(p)
    return any(
        spherical_containment(
            _dot(_cross(units[i], units[j]), units[k]),
            _dot(_cross(units[i], units[j]), up),
            _dot(_cross(units[j], units[k]), up),
            _dot(_cross(units[i], units[k]), up),
        )
        for i, j, k in combinations(range(len(units)), 3)
    )


def _location(v) -> Location:
    norm = math.sqrt(_dot(v, v))
    return Location(
        math.degrees(math.asin(max(-1.0, min(1.0, v[2] / norm)))),
        math.degrees(math.atan2(v[1], v[0])),
    )


def _mix(*terms) -> Location:
    """The location of the normalized sum of weight * unit vector terms."""
    return _location([sum(w * u[axis] for w, u in terms) for axis in range(3)])


def _hull_band(units, hull) -> list[tuple[float, Location]]:
    """(signed offset, point) for points at the middle of each hull edge,
    moved off it along the edge's normal by 0.5, 0.99, 1.01 and 2 times
    _HULL_MARGIN each way; a negative offset, in margins, is outward."""
    points = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        mid = [x + y for x, y in zip(units[a], units[b])]
        mid = [x / math.sqrt(_dot(mid, mid)) for x in mid]
        normal = _cross(units[a], units[b])  # points into the hull
        normal = [x / math.sqrt(_dot(normal, normal)) for x in normal]
        for times in (0.5, 0.99, 1.01, 2.0):
            for side in (-1.0, 1.0):
                d = side * times * slv.verify._HULL_MARGIN
                points.append((side * times, _location(
                    [math.sqrt(1.0 - d * d) * m + d * v for m, v in zip(mid, normal)])))
    return points


def _scan_calls(monkeypatch) -> list:
    """The points covers() hands to its fallback, the triangle search."""
    calls = []
    search = slv.verify.enumerate_triangles

    def counting(verifiers, asserted, limit=None):
        calls.append(asserted)
        return search(verifiers, asserted, limit)

    monkeypatch.setattr(slv.verify, "enumerate_triangles", counting)
    return calls


class TestCoverage:
    """VerifierLayout.covers must give the scan's answer on every input."""

    BOXES = {
        "north_america": (30.0, 57.0, -118.0, -70.0),
        "date_line": (-35.0, 10.0, 160.0, 205.0),
        "near_pole": (72.0, 90.0, -180.0, 180.0),
        "equator": (-12.0, 12.0, -35.0, 35.0),
    }

    @staticmethod
    def _draw(rng: random.Random, box, grow: float = 0.0) -> Location:
        lat_lo, lat_hi, lon_lo, lon_hi = box
        pad_lat, pad_lon = grow * (lat_hi - lat_lo), grow * (lon_hi - lon_lo)
        lat = rng.uniform(max(-90.0, lat_lo - pad_lat), min(90.0, lat_hi + pad_lat))
        return Location(lat, rng.uniform(lon_lo - pad_lon, lon_hi + pad_lon))

    @pytest.mark.parametrize("kind, seed", [
        ("north_america", 1), ("date_line", 2), ("near_pole", 3), ("equator", 4),
    ])
    def test_matches_oracle(self, kind, seed):
        rng = random.Random(seed)
        box = self.BOXES[kind]
        for _ in range(10):
            n = rng.randint(3, 24)
            verifiers = [(f"v{i:02d}", self._draw(rng, box)) for i in range(n)]
            coverage = VerifierLayout(verifiers)
            # a grown box puts about half the points outside the hull
            points = [self._draw(rng, box, grow=0.3) for _ in range(20)]
            points += [loc for _, loc in rng.sample(verifiers, 3)]
            for p in points:
                assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)

    def test_three_verifiers(self):
        rng = random.Random(5)
        box = self.BOXES["north_america"]
        for _ in range(40):
            verifiers = [(f"v{i}", self._draw(rng, box)) for i in range(3)]
            coverage = VerifierLayout(verifiers)
            for p in [self._draw(rng, box) for _ in range(10)] + [verifiers[0][1]]:
                assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)

    @pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-9, 1e-6])
    def test_verifiers_on_or_near_one_great_circle(self, offset):
        rng = random.Random(6)
        for _ in range(6):
            pole = _unit(Location(rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)))
            e1 = _unit(Location(0.0, rng.uniform(-180.0, 180.0)))
            e1 = _cross(pole, e1)
            e1 = tuple(x / math.sqrt(_dot(e1, e1)) for x in e1)
            e2 = _cross(pole, e1)

            def on_circle(t: float, off: float) -> Location:
                return _mix((math.cos(t), e1), (math.sin(t), e2), (off, pole))

            verifiers = [
                (f"v{i:02d}", on_circle(rng.uniform(-0.6, 0.6), rng.uniform(-offset, offset)))
                for i in range(rng.randint(3, 14))
            ]
            coverage = VerifierLayout(verifiers)
            points = [on_circle(rng.uniform(-1.0, 1.0), rng.choice([0.0, 1e-12, -1e-9, 1e-3]))
                      for _ in range(20)]
            for p in points:
                assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)

    def test_more_than_a_hemisphere_takes_the_scan(self, monkeypatch):
        rng = random.Random(7)
        calls = _scan_calls(monkeypatch)
        asked = 0
        for _ in range(6):
            verifiers = [
                (f"v{i:02d}", Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                                       rng.uniform(-180.0, 180.0)))
                for i in range(12)
            ]
            # a verifier at each end of one axis: no open hemisphere holds both
            verifiers += [("w0", Location(0.0, 0.0)), ("w1", Location(0.0, 180.0))]
            coverage = VerifierLayout(verifiers)
            for _ in range(8):
                p = Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                             rng.uniform(-180.0, 180.0))
                asked += 1
                assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)
        assert len(calls) == asked

    def test_points_within_1e_10_of_hull_edges_and_vertices(self):
        rng = random.Random(8)
        box = self.BOXES["north_america"]
        for _ in range(4):
            verifiers = [(f"v{i:02d}", self._draw(rng, box)) for i in range(rng.randint(5, 20))]
            coverage = VerifierLayout(verifiers)
            ordered = sorted(verifiers, key=lambda v: v[0])
            units = [_unit(loc) for _, loc in ordered]
            hull = slv.verify._hull(units)
            assert hull is not None
            points = []
            for a, b in zip(hull, hull[1:] + hull[:1]):
                ua, ub = units[a], units[b]
                normal = _cross(ua, ub)
                normal = tuple(x / math.sqrt(_dot(normal, normal)) for x in normal)
                for t in (0.0, 1e-9, 0.25, 0.5, 0.999, 1.0):
                    for off in (-1e-10, -1e-11, -1e-13, 0.0, 1e-13, 1e-11, 1e-10):
                        points.append(_mix((1.0 - t, ua), (t, ub), (off, normal)))
                for _ in range(3):
                    jitter = [rng.uniform(-1e-10, 1e-10) for _ in range(3)]
                    points.append(_mix((1.0, ua), (1.0, tuple(jitter))))
            for p in points:
                assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)

    @staticmethod
    def _thin_layout(rng: random.Random, det: float):
        """A North-America layout holding one thin triple (a, b, c): b on
        the great circle ac, c lifted off it so that det(a, b, c) = det,
        and c the layout's most eastern verifier, so the circle leaves the
        hull at c. Returns the verifiers and the unit vectors of a and c."""
        a = Location(rng.uniform(32.0, 55.0), rng.uniform(-118.0, -110.0))
        c0 = Location(rng.uniform(32.0, 55.0), rng.uniform(-85.0, -80.0))
        ua, uc0 = _unit(a), _unit(c0)
        b = _mix((0.6, ua), (0.4, uc0))
        ub = _unit(b)
        normal = _cross(ua, ub)
        lift = det / _dot(normal, normal)  # det(a, b, c0 + lift * normal)
        c = _mix((1.0, uc0), (lift, normal))
        verifiers = [("a", a), ("b", b), ("c", c)] + [
            (f"v{i:02d}", Location(rng.uniform(30.0, 57.0), rng.uniform(-118.0, -90.0)))
            for i in range(rng.randint(3, 12))
        ]
        return verifiers, ua, _unit(c)

    def test_degeneracy_bound_keeps_the_hull_exact(self):
        # The proof above _HULL_MARGIN: a triple that passes the sign test
        # for a point beyond a hull edge by more than the margin has a det
        # below 4 * _EDGE_EPS / _HULL_MARGIN, half of this bound.
        assert _MIN_DET >= 8 * _EDGE_EPS / _HULL_MARGIN

    def test_slivers_contain_no_point_far_outside_the_hull(self, monkeypatch):
        # The sign test's tolerance is on unnormalized triple products, so
        # a sliver with a det just above _EDGE_EPS would accept points
        # along its great circle far beyond its vertices, outside the hull.
        # The rule refuses every such sliver, so the hull decides alone.
        rng = random.Random(9)
        tests = TestSearchConsultsTheHull._containment_calls(monkeypatch)
        cfg = VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0)
        for _ in range(20):
            verifiers, ua, uc = self._thin_layout(rng, rng.uniform(1.0, 4.0) * _EDGE_EPS)
            locs = dict(verifiers)
            with pytest.raises(DegenerateTriangleError, match="bound no area"):
                Triangle((locs["a"], locs["b"], locs["c"]), ("a", "b", "c"))
            coverage = VerifierLayout(verifiers)
            for beyond in (0.05, 0.2, 0.3, 0.6):
                p = _mix((-beyond, ua), (1.0 + beyond, uc))
                assert not coverage.covers(p), (verifiers, p)
                assert not covered_by_oracle(verifiers, p), (verifiers, p)
                assert enumerate_triangles(coverage, p, 4) == [], (verifiers, p)
                provider = IdealProvider(locs, p)
                result = verify_location(make_ip(p), coverage, provider, cfg, NOW)
                assert result.reason is Reason.NO_COVERAGE and provider.calls == 0
        assert tests == []

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_sliver_rich_layouts_match_the_oracle(self, seed):
        # Layouts near one great circle, with near-duplicate verifiers,
        # hold triples with every det from 0 to well above _MIN_DET; both
        # answers match the oracle inside the hull, in the margin band
        # around it and far away.
        rng = random.Random(seed)
        slivers = 0
        for _ in range(4):
            verifiers, ua, uc = self._thin_layout(rng, rng.uniform(1.0, 1e5) * _EDGE_EPS)
            for _ in range(4):
                t = rng.uniform(0.0, 1.0)
                off = rng.choice([0.0, 1e-11, 1e-9, 1e-7])
                near = _mix((1.0 - t, _unit(verifiers[0][1])), (t, _unit(verifiers[2][1])),
                            (off, (0.0, 0.0, 1.0)))
                verifiers.append((f"n{len(verifiers):02d}", near))
            twin = rng.choice(verifiers)[1]
            verifiers.append(("twin", Location(twin.lat + 1e-7, twin.lon)))
            units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
            slivers += sum(
                _EDGE_EPS <= abs(_dot(_cross(units[i], units[j]), units[k])) < _MIN_DET
                for i, j, k in combinations(range(len(units)), 3)
            )
            hull = slv.verify._hull(units)
            assert hull is not None
            inside = [_mix(*((rng.uniform(0.1, 1.0), u) for u in rng.sample(units, 3)))
                      for _ in range(4)]
            inside += [_mix((1.0 - t, ua), (t, uc), (rng.choice([0.0, 1e-12, -1e-9]), (0, 0, 1)))
                       for t in (rng.uniform(0.0, 1.0) for _ in range(4))]
            far = [Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0)) for _ in range(4)]
            points = inside + [p for _, p in _hull_band(units, hull)] + far
            layout = VerifierLayout(verifiers)
            for p in points:
                assert layout.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)
            TestSearchConsultsTheHull._check(layout, verifiers, points)
        assert slivers >= 4

    def test_scan_fallbacks_are_rare(self, monkeypatch):
        # A hull that silently stops deciding sends every point to the scan.
        scenario = generate_scenario(
            40, 1, 0, 0,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=3,
        )
        coverage = VerifierLayout(scenario.verifiers)
        calls = _scan_calls(monkeypatch)
        rng = random.Random(13)
        covered = sum(
            coverage.covers(Location(rng.uniform(30.0, 57.0), rng.uniform(-118.0, -70.0)))
            for _ in range(256)
        )
        assert 0 < covered < 256
        assert len(calls) <= 2

    @pytest.mark.parametrize("n", [12, 40])
    def test_margin_band_alone_reaches_the_search(self, monkeypatch, n):
        # Points at the middle of each hull edge, moved off it along the
        # edge's normal by a multiple of _HULL_MARGIN: outward by less
        # than the margin they lie in the band the hull cannot decide.
        scenario = generate_scenario(
            n, 1, 0, 0,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=3,
        )
        verifiers = scenario.verifiers
        units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
        hull = slv.verify._hull(units)
        assert hull is not None
        offsets = _hull_band(units, hull)
        points = [p for _, p in offsets]
        band = {p for offset, p in offsets if -1.0 < offset < 0.0}
        coverage = VerifierLayout(verifiers)
        calls = _scan_calls(monkeypatch)
        for p in points:
            assert coverage.covers(p) == covered_by_oracle(verifiers, p), (verifiers, p)
        assert calls and set(calls) <= band


class TestSearchConsultsTheHull:
    """enumerate_triangles returns [] for a point its layout's hull rules
    out before it tests a triple, and is the oracle's head everywhere."""

    NORTH_AMERICA = RegionBounds(lat_min=25.0, lat_max=50.0, lon_min=-125.0, lon_max=-70.0)
    # south of the box's hull, and in Sydney
    UNCOVERED = (Location(20.0, -95.0), Location(-33.9, 151.2))

    @staticmethod
    def _containment_calls(monkeypatch) -> list:
        calls = []

        def counting(*args):
            calls.append(args)
            return spherical_containment(*args)

        monkeypatch.setattr(slv.verify, "spherical_containment", counting)
        return calls

    @pytest.mark.parametrize("n", [40, 160])
    def test_uncovered_points_test_no_triple(self, monkeypatch, n):
        scenario = generate_scenario(n, 0, 1, 0, bounds=self.NORTH_AMERICA, seed=5)
        layout = VerifierLayout(scenario.verifiers)
        locs = dict(scenario.verifiers)
        cfg = VerifyConfig(probes_per_measurement=1, measurement_timeout=1.0)
        calls = self._containment_calls(monkeypatch)
        for p in self.UNCOVERED:
            assert enumerate_triangles(layout, p, 4) == []
            assert enumerate_triangles(layout, p) == []
            provider = IdealProvider(locs, p)
            result = verify_location(make_ip(p), layout, provider, cfg, NOW)
            assert result.reason is Reason.NO_COVERAGE and provider.calls == 0
        assert calls == []
        # the search still tests triples for a covered point
        enumerate_triangles(layout, scenario.servers[0].asserted_loc, 4)
        assert calls

    @staticmethod
    def _check(layout, verifiers, points) -> None:
        for p in points:
            full = [t.verifier_ids for t in oracle(verifiers, p)]
            for k in (1, 4, None):
                assert enumerate_triangles(layout, p, k) == full[:k], (k, verifiers, p)

    @pytest.mark.parametrize("kind, seed", [("north_america", 1), ("date_line", 2), ("equator", 3)])
    def test_oracle_head_inside_in_the_band_and_far_away(self, kind, seed):
        rng = random.Random(seed)
        box = TestCoverage.BOXES[kind]
        ruled_out = 0
        for _ in range(3):
            verifiers = [(f"v{i:02d}", TestCoverage._draw(rng, box))
                         for i in range(rng.randint(5, 24))]
            layout = VerifierLayout(verifiers)
            units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
            hull = slv.verify._hull(units)
            assert hull is not None and layout._normals
            inside = [TestCoverage._draw(rng, box) for _ in range(6)]
            far = [Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0)) for _ in range(6)]
            band = _hull_band(units, hull)
            for offset, p in band:
                beyond = layout._beyond_hull(_unit(p))
                # only points outward by more than the margin are decided
                assert beyond == (offset < -1.0), (offset, verifiers, p)
            ruled_out += sum(layout._beyond_hull(_unit(p)) for p in far)
            self._check(layout, verifiers, inside + far + [p for _, p in band])
        assert ruled_out > 0

    def test_oracle_head_on_more_than_a_hemisphere(self):
        rng = random.Random(4)

        def anywhere() -> Location:
            return Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                            rng.uniform(-180.0, 180.0))

        for _ in range(3):
            verifiers = [(f"v{i:02d}", anywhere()) for i in range(14)]
            verifiers += [("w0", Location(0.0, 0.0)), ("w1", Location(0.0, 180.0))]
            layout = VerifierLayout(verifiers)
            assert layout._normals == [] and layout._fan == []
            self._check(layout, verifiers, [anywhere() for _ in range(12)])


class TestStopBound:
    """The bounds the top-k search prunes on, for a point p in a spherical
    triangle: every vertex lies within half the perimeter of p, and the
    perimeter is at least d(a, b) + d(a, p) + d(b, p) for each side (a, b)."""

    @staticmethod
    def _sphere(rng: random.Random) -> Location:
        return Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180, 180))

    @staticmethod
    def _straddling(rng: random.Random) -> Location:
        return Location(rng.uniform(-40.0, 40.0), rng.uniform(-60.0, 60.0))

    def _inside_points(self, seed: int, trials: int = 3000):
        """(vertices, p) with p in the triangle, over triangles drawn on
        the whole sphere (many sides over 90 degrees) and across the
        equator, in equal numbers."""
        rng = random.Random(seed)
        long_sides = straddling = 0
        for trial in range(trials):
            draw = self._sphere if trial % 2 else self._straddling
            vertices = tuple(draw(rng) for _ in range(3))
            try:
                t = Triangle(vertices, ("a", "b", "c"))
            except DegenerateTriangleError:
                continue
            units = [_unit(v) for v in vertices]
            # inside points are non-negative combinations of the vertices;
            # zero weights put them on an edge or a vertex
            weights = [rng.choice((0.0, rng.random())) for _ in range(3)]
            if not any(weights):
                weights[rng.randrange(3)] = 1.0
            s = [sum(w * u[axis] for w, u in zip(weights, units)) for axis in range(3)]
            norm = math.sqrt(_dot(s, s))
            if norm < 1e-9:
                continue
            p = Location(
                math.degrees(math.asin(max(-1.0, min(1.0, s[2] / norm)))),
                math.degrees(math.atan2(s[1], s[0])),
            )
            if not point_in_spherical_triangle(p, t):
                continue  # rounding put it just outside
            sides = [great_circle_distance(a, b) for a, b in combinations(vertices, 2)]
            long_sides += max(sides) > math.pi / 2 * 6371.0
            straddling += min(v.lat for v in vertices) < 0 < max(v.lat for v in vertices)
            yield vertices, p
        assert long_sides > 100 and straddling > 100

    def test_vertices_within_half_perimeter(self):
        for vertices, p in self._inside_points(41):
            half = perimeter(Triangle(vertices, ("a", "b", "c"))) / 2.0
            for v in vertices:
                assert great_circle_distance(p, v) <= half + _STOP_SLACK_KM

    def test_side_bound(self):
        # exact up to rounding: far tighter than the search's slack
        tol_km = 1e-6
        for vertices, p in self._inside_points(43):
            total = perimeter(Triangle(vertices, ("a", "b", "c")))
            reach = [great_circle_distance(p, v) for v in vertices]
            for x, y in combinations(range(3), 2):
                (z,) = {0, 1, 2} - {x, y}
                a, b, c = vertices[x], vertices[y], vertices[z]
                assert reach[x] + reach[y] <= (
                    great_circle_distance(a, c) + great_circle_distance(c, b) + tol_km
                )
                assert total >= great_circle_distance(a, b) + reach[x] + reach[y] - tol_km


class TestAzimuthIndex:
    """The search tests a triple only when the azimuths of its vertices
    about the point leave no gap over a half-turn, and a near verifier in
    every triple; it still returns the oracle's head."""

    NORTH_AMERICA = RegionBounds(lat_min=25.0, lat_max=50.0, lon_min=-125.0, lon_max=-70.0)

    @staticmethod
    def _far(p: Location, vertices) -> bool:
        up = _unit(p)
        return all(
            math.sqrt(_dot(c, c)) >= slv.verify._NEAR_SIN
            for c in (_cross(_unit(v), up) for v in vertices)
        )

    @staticmethod
    def _widest_gap(p: Location, vertices) -> float:
        e1, e2 = slv.verify._tangent_basis(_unit(p))
        turns = sorted(
            math.atan2(_dot(_unit(v), e2), _dot(_unit(v), e1)) % math.tau for v in vertices
        )
        return max(b - a for a, b in zip(turns, turns[1:] + [turns[0] + math.tau]))

    def test_containing_triples_leave_no_gap_over_a_half_turn(self):
        checked = 0
        for vertices, p in TestStopBound()._inside_points(47):
            if self._far(p, vertices):
                checked += 1
                assert self._widest_gap(p, vertices) <= math.pi + slv.verify._AZIMUTH_SLACK
        assert checked > 1000

    def test_points_the_edge_tolerance_lets_in_leave_no_wider_gap(self):
        # the middle of each edge, moved outward until the sign test is
        # about to refuse it: the widest gap is then a little over pi
        rng = random.Random(49)
        checked = 0
        for _ in range(2000):
            vertices = [TestStopBound._straddling(rng) for _ in range(3)]
            units = [_unit(v) for v in vertices]
            det = _dot(_cross(units[0], units[1]), units[2])
            if abs(det) < _MIN_DET:
                continue
            for x, y in combinations(range(3), 2):
                (z,) = {0, 1, 2} - {x, y}
                normal = _cross(units[x], units[y])
                if _dot(normal, units[z]) < 0:
                    normal = [-c for c in normal]  # towards the opposite vertex
                mid = [a + b for a, b in zip(units[x], units[y])]
                out = 0.9 * _EDGE_EPS / _dot(normal, normal)
                p = _location([m / math.sqrt(_dot(mid, mid)) - out * c
                               for m, c in zip(mid, normal)])
                t = Triangle(tuple(vertices), ("a", "b", "c"))
                if not point_in_spherical_triangle(p, t) or not self._far(p, vertices):
                    continue
                checked += 1
                gap = self._widest_gap(p, vertices)
                assert math.pi - 1e-6 < gap <= math.pi + slv.verify._AZIMUTH_SLACK
        assert checked > 1000

    @pytest.mark.parametrize("seed", [1, 2])
    def test_oracle_head_near_a_verifier(self, seed):
        # 60 m from a verifier it is near (no azimuth), 70 km away not
        assert math.sin(0.06 / 6371.0) < slv.verify._NEAR_SIN < math.sin(70.0 / 6371.0)
        rng = random.Random(seed)
        verifiers = [(f"v{i:02d}", Location(rng.uniform(30.0, 57.0), rng.uniform(-118.0, -70.0)))
                     for i in range(30)]
        layout = VerifierLayout(verifiers)
        for _, loc in rng.sample(verifiers, 4):
            for km in (0.0, 1e-5, 1e-3, 0.06, 70.0):  # 0 m, 1 cm, 1 m, 60 m, 70 km
                p = destination_point(loc, rng.uniform(0.0, 360.0), km) if km else loc
                full = [t.verifier_ids for t in oracle(verifiers, p)]
                for k in (1, 4, None):
                    assert enumerate_triangles(layout, p, k) == full[:k], (km, k, verifiers, p)

    def test_bit_equal_turns_take_each_pair_once(self, monkeypatch):
        # Verifiers on the meridian and the equator through (0, 0): seen
        # from a point on them, many turns are bit-equal, several of them
        # a half-turn, where a verifier may come first and last. Each
        # triple is tested at most once, with the floats of an id-order
        # scan, and the result is the oracle's head with no repeat. A
        # tested triple (i, j, k) reads the memo at pairs (i, j), (j, k)
        # and (i, k), in that order; distinct triples of this symmetric
        # layout can pass equal floats to the test, so the reads name them.
        class Reads(dict):
            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

        verifiers = [(f"{name}{deg}", Location(lat * deg, lon * deg))
                     for name, lat, lon in (("n", 1, 0), ("s", -1, 0), ("e", 0, 1), ("w", 0, -1))
                     for deg in (10, 20)]
        layout = VerifierLayout(verifiers)
        layout._crosses = Reads()
        n = len(verifiers)
        triples = [_triple_products(*t) for t in combinations(layout._units, 3)]
        calls = TestSearchConsultsTheHull._containment_calls(monkeypatch)
        for p in (Location(0, 0), Location(0, 5), Location(-5, 0)):
            up = _unit(p)
            scan = {(det, _dot(ab, up), _dot(bc, up), _dot(ac, up)) for det, ab, bc, ac in triples}
            full = [t.verifier_ids for t in oracle(verifiers, p)]
            assert len(full) >= 4
            for k in (1, 4, None):
                calls.clear()
                read: list = []
                found = enumerate_triangles(layout, p, k)
                assert found == full[:k], (k, p)
                assert len(set(found)) == len(found)
                tested = [(ij // n, ij % n, jk % n) for ij, jk, _ in zip(*[iter(read)] * 3)]
                assert len(tested) == len(calls) and set(calls) <= scan, (k, p)
                assert all(i < j < k for i, j, k in tested)
                assert len(set(tested)) == len(tested), (k, p)

    def test_oracle_head_with_a_verifier_antipodal_to_the_point(self):
        rng = random.Random(3)
        verifiers = [(f"v{i:02d}", Location(rng.uniform(30.0, 57.0), rng.uniform(-118.0, -70.0)))
                     for i in range(16)]
        p = Location(42.0, -95.0)
        for km in (0.0, 1e-3, 0.06, 70.0):
            w = Location(-42.0, 85.0)  # the antipode of p
            w = destination_point(w, rng.uniform(0.0, 360.0), km) if km else w
            with_w = verifiers + [("w", w)]
            layout = VerifierLayout(with_w)
            assert layout._normals == []  # beyond a hemisphere: the search decides
            for q in (p, destination_point(p, 30.0, 0.05), destination_point(p, 200.0, 100.0)):
                full = [t.verifier_ids for t in oracle(with_w, q)]
                for k in (1, 4, None):
                    assert enumerate_triangles(layout, q, k) == full[:k], (km, k, q)

    def _layout_160(self):
        """The seeded 160-verifier layout of tools/search_cost.py."""
        scenario = generate_scenario(160, 0, 0, 0, bounds=self.NORTH_AMERICA, seed=11)
        return scenario.verifiers, VerifierLayout(scenario.verifiers)

    def test_containment_tests_per_covered_point_at_160_verifiers(self, monkeypatch):
        # 200 covered points drawn up to the hull edge: ~30 tests each,
        # against ~12,000 (and up to ~350,000) without the index
        _, layout = self._layout_160()
        rng = random.Random(11)
        points = []
        while len(points) < 200:
            p = Location(rng.uniform(22.5, 52.5), rng.uniform(-130.5, -64.5))
            if layout.covers(p):
                points.append(p)
        calls = TestSearchConsultsTheHull._containment_calls(monkeypatch)
        for p in points:
            assert len(enumerate_triangles(layout, p, 4)) == 4
        assert len(calls) / len(points) <= 50

    def test_band_points_test_no_triple(self, monkeypatch):
        # outside a hull edge by less than the margin: the hull cannot
        # rule them out, but their verifiers all lie within a half-turn
        verifiers, layout = self._layout_160()
        units = [_unit(loc) for _, loc in sorted(verifiers, key=lambda v: v[0])]
        band = [p for offset, p in _hull_band(units, slv.verify._hull(units)) if -1.0 < offset < 0.0]
        assert band and not any(layout._beyond_hull(_unit(p)) for p in band)
        calls = TestSearchConsultsTheHull._containment_calls(monkeypatch)
        for p in band:
            assert enumerate_triangles(layout, p, 4) == []
            assert enumerate_triangles(layout, p) == []
        assert calls == []


class TestMessageTypes:
    def test_config_dict_is_its_fields_in_order_and_round_trips(self):
        cfg = VerifyConfig(lambda_ms=2.5, probes_per_measurement=3, max_triangles=2,
                           measurement_timeout=4.0)
        assert list(cfg.to_dict()) == [f.name for f in fields(VerifyConfig)]
        assert VerifyConfig.from_dict(cfg.to_dict()) == cfg

    def test_ipinfo_rejects_junk(self):
        with pytest.raises(ValueError):
            IPInfo(value="not-an-ip", loc=Location(0, 0))
        IPInfo(value="255.255.255.255", loc=Location(0, 0))
        IPInfo(value="2001:db8::1", loc=Location(0, 0))

    @pytest.mark.parametrize("value", [5, 16843009, None])
    def test_ipinfo_value_must_be_a_string(self, value):
        # ip_address(16843009) is 1.1.1.1, and str() would make "5" of 5
        with pytest.raises(ValueError, match=f"ip value must be a string, got {value!r}"):
            IPInfo(value=value, loc=Location(0, 0))
        with pytest.raises(ValueError, match=f"ip value must be a string, got {value!r}"):
            IPInfo.from_dict({"value": value, "loc": {"lat": 0.0, "lon": 0.0}})

    def test_result_requires_region_iff_passed(self):
        ip = IPInfo(value="1.2.3.4", loc=Location(0, 0))
        with pytest.raises(ValueError):
            VerificationResult(ip=ip, veri_passed=True, region=None, when_veri=NOW)
        with pytest.raises(ValueError):
            VerificationResult(
                ip=ip, veri_passed=False,
                region=Circle(Location(0, 0), 10), when_veri=NOW,
            )

    def test_result_dict_round_trip(self):
        ip = IPInfo(value="1.2.3.4", loc=Location(45.0, -75.0))
        positive = VerificationResult(
            ip=ip, veri_passed=True, region=Circle(Location(44.0, -74.0), 320.5),
            when_veri=NOW,
        )
        negative = VerificationResult(
            ip=ip, veri_passed=False, region=None, when_veri=NOW,
            reason=Reason.NO_COVERAGE,
        )
        for result in (positive, negative):
            assert VerificationResult.from_dict(result.to_dict()) == result

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_veri_passed_must_be_a_json_boolean(self, value):
        data = VerificationResult(
            ip=IPInfo(value="1.2.3.4", loc=Location(45.0, -75.0)), veri_passed=False,
            region=None, when_veri=NOW, reason=Reason.ALL_TRIANGLES_REJECTED,
        ).to_dict()
        data["veri_passed"] = value
        with pytest.raises(ValueError, match="veri_passed must be true or false"):
            VerificationResult.from_dict(data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(lambda_ms=-1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                VerifyConfig(lambda_ms=bad)
            with pytest.raises(ValueError):
                VerifyConfig(measurement_timeout=bad)
            with pytest.raises(ValueError):
                VerifyConfig.from_dict({"lambda_ms": bad})
            with pytest.raises(ValueError):
                VerifyConfig.from_dict({"measurement_timeout": bad})
        with pytest.raises(ValueError):
            VerifyConfig(probes_per_measurement=0)
        with pytest.raises(ValueError):
            VerifyConfig(max_triangles=0)

    def test_config_caps_match_the_agent(self):
        VerifyConfig(probes_per_measurement=MAX_PROBES, measurement_timeout=MAX_TIMEOUT_S)
        for bad in ({"probes_per_measurement": MAX_PROBES + 1},
                    {"measurement_timeout": MAX_TIMEOUT_S * 2}):
            with pytest.raises(ValueError):
                VerifyConfig(**bad)
            with pytest.raises(ValueError):
                VerifyConfig.from_dict(bad)

    @pytest.mark.parametrize("key", ["max_triangles", "probes_per_measurement"])
    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4", None])
    def test_counts_must_be_integers(self, key, bad):
        # a fractional max_triangles never equals len(best), which would
        # turn off both the search's stop and its pruning
        with pytest.raises(ValueError):
            VerifyConfig(**{key: bad})
        with pytest.raises(ValueError):
            VerifyConfig.from_dict({key: bad})
        assert getattr(VerifyConfig.from_dict({key: 3}), key) == 3


def make_ip(loc: Location, value: str = "1.2.3.4") -> IPInfo:
    return IPInfo(value=value, loc=loc)


class TestVerifyLocation:
    def cfg(self, **overrides) -> VerifyConfig:
        defaults = dict(lambda_ms=5.0, probes_per_measurement=1, max_triangles=4,
                        measurement_timeout=1.0)
        defaults.update(overrides)
        return VerifyConfig(**defaults)

    def test_truthful_server_accepted(self):
        server = Location(0, 0)
        provider = IdealProvider(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), VerifierLayout(TRI_VERIFIERS), provider, self.cfg(), NOW
        )

        assert result.veri_passed is True
        assert result.reason is None
        assert result.when_veri == NOW
        assert result.region is not None
        assert point_in_circle(server, result.region)

        # the first pair in id order, (a, b), already passes: check the
        # inequality by hand from raw geodesic delays
        locs = dict(TRI_VERIFIERS)
        d1 = min_rtt_for_distance(great_circle_distance(locs["a"], server))
        d2 = min_rtt_for_distance(great_circle_distance(locs["b"], server))
        dp = min_rtt_for_distance(great_circle_distance(locs["a"], locs["b"]))
        assert d1 * d1 + d2 * d2 <= dp * dp
        assert result.region == circle_of_pair(locs["a"], locs["b"])

    def test_distant_server_rejected(self):
        asserted = Location(0, 0)
        true_loc = destination_point(asserted, 90.0, 3000.0)
        ring = [
            (f"v{i}", destination_point(asserted, bearing, 800.0))
            for i, bearing in enumerate(range(0, 360, 60))
        ]
        provider = IdealProvider(dict(ring), true_loc, target_inflation_ms=5.0)
        result = verify_location(make_ip(asserted), VerifierLayout(ring), provider, self.cfg(), NOW)

        assert result.veri_passed is False
        assert result.region is None
        assert result.reason is Reason.ALL_TRIANGLES_REJECTED

    def test_no_coverage(self):
        asserted = Location(50, 50)
        provider = IdealProvider(dict(TRI_VERIFIERS), asserted)
        result = verify_location(
            make_ip(asserted), VerifierLayout(TRI_VERIFIERS), provider, self.cfg(), NOW
        )

        assert result.veri_passed is False
        assert result.reason is Reason.NO_COVERAGE
        assert provider.calls == 0

    def test_measurement_failure(self):
        class DeadProvider(DelayProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                return None

        result = verify_location(
            make_ip(Location(0, 0)), VerifierLayout(TRI_VERIFIERS), DeadProvider(), self.cfg(), NOW
        )
        assert result.veri_passed is False
        assert result.reason is Reason.MEASUREMENT_FAILURE

    def test_failed_triangle_counts_against_budget(self):
        server = Location(0, 0)
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]

        class FlakyA(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                if verifier_id == "a" and endpoint_id == TARGET:
                    return None
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        # the smallest triangle (a, b, c) cannot be measured; with room for
        # one triangle only, nothing completes
        provider = FlakyA(dict(verifiers), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), VerifierLayout(verifiers), provider, self.cfg(max_triangles=1), NOW
        )
        assert result.veri_passed is False
        assert result.reason is Reason.MEASUREMENT_FAILURE

        # a second slot reaches the wider triangle (b, c, d), which accepts
        provider = FlakyA(dict(verifiers), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), VerifierLayout(verifiers), provider, self.cfg(max_triangles=2), NOW
        )
        assert result.veri_passed is True
        assert result.region is not None

    def test_rejecting_triangle_beats_failed_ones_for_reason(self):
        asserted = Location(0, 0)
        true_loc = destination_point(asserted, 90.0, 3000.0)

        class FlakyA(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                if verifier_id == "a":
                    return None
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]
        provider = FlakyA(dict(verifiers), true_loc, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(asserted), VerifierLayout(verifiers), provider, self.cfg(max_triangles=4), NOW
        )
        assert result.veri_passed is False
        assert result.reason is Reason.ALL_TRIANGLES_REJECTED

    def test_positive_region_always_contains_assertion(self):
        rng = random.Random(23)
        for _ in range(50):
            centre = Location(rng.uniform(-30, 30), rng.uniform(-60, 60))
            verifiers = [
                (f"v{i}", destination_point(centre, rng.uniform(0, 360), rng.uniform(200, 2500)))
                for i in range(7)
            ]
            asserted = destination_point(centre, rng.uniform(0, 360), rng.uniform(0, 300))
            provider = IdealProvider(dict(verifiers), asserted, target_inflation_ms=5.0)
            result = verify_location(
                make_ip(asserted), VerifierLayout(verifiers), provider,
                self.cfg(max_triangles=10), NOW,
            )
            if result.veri_passed:
                assert point_in_circle(asserted, result.region)
            else:
                assert result.region is None

    def test_measured_triangle_is_one_measure_edges_call_in_edge_order(self):
        server = Location(0, 0)
        batches = []

        class Batching(IdealProvider):
            # answers whole triangles itself; measure() is never reached
            def measure_edges(self, edges, probes, timeout):
                batches.append((list(edges), probes, timeout))
                return [IdealProvider.measure(self, v, e, probes, timeout) for v, e in edges]

            def measure(self, verifier_id, endpoint_id, probes, timeout):
                raise AssertionError("measure called edge by edge")

        cfg = self.cfg(probes_per_measurement=4, measurement_timeout=2.5)
        batching = Batching(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        a = verify_location(make_ip(server), VerifierLayout(TRI_VERIFIERS), batching, cfg, NOW)
        b = verify_location(
            make_ip(server), VerifierLayout(TRI_VERIFIERS),
            IdealProvider(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0), cfg, NOW,
        )
        assert a == b and a.veri_passed is True
        assert batches == [([
            ("a", TARGET), ("a", "b"), ("a", "c"),
            ("b", TARGET), ("b", "a"), ("b", "c"),
            ("c", TARGET), ("c", "a"), ("c", "b"),
        ], 4, 2.5)]

    def test_provider_with_measure_only_gets_nine_calls_in_edge_order(self):
        server = Location(0, 0)
        seen = []

        class Recorder(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                seen.append((verifier_id, endpoint_id, threading.current_thread()))
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        recorder = Recorder(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        a = verify_location(
            make_ip(server), VerifierLayout(TRI_VERIFIERS), recorder, self.cfg(), NOW
        )
        b = verify_location(
            make_ip(server), VerifierLayout(TRI_VERIFIERS),
            IdealProvider(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0), self.cfg(), NOW,
        )
        assert a == b and a.veri_passed is True
        assert [(v, e) for v, e, _ in seen] == [
            ("a", TARGET), ("a", "b"), ("a", "c"),
            ("b", TARGET), ("b", "a"), ("b", "c"),
            ("c", TARGET), ("c", "a"), ("c", "b"),
        ]
        assert {thread for _, _, thread in seen} == {threading.current_thread()}

    def test_lambda_correction_applied_to_target_edges_only(self):
        server = Location(0, 0)
        seen: list[tuple[str, str]] = []

        class Recorder(IdealProvider):
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                seen.append((verifier_id, endpoint_id))
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        # inflation matches lambda, so the corrected target delays equal the
        # pure geodesic delays and the truthful server must be accepted
        provider = Recorder(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), VerifierLayout(TRI_VERIFIERS), provider, self.cfg(lambda_ms=5.0), NOW
        )
        assert result.veri_passed is True
        target_edges = [pair for pair in seen if pair[1] == TARGET]
        pair_edges = [pair for pair in seen if pair[1] != TARGET]
        assert len(target_edges) == 3
        assert len(pair_edges) == 6

    def test_verification_builds_no_triangle(self, monkeypatch):
        # The search hands back id triples and the loop reads positions
        # from the layout: two triangles are walked (the first fails its
        # measurements), yet no Triangle is built or validated.
        built = []
        post_init = Triangle.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Triangle, "__post_init__", counting)
        batches = []

        class NoA(IdealProvider):
            def measure_edges(self, edges, probes, timeout):
                batches.append(list(edges))
                return super().measure_edges(edges, probes, timeout)

            def measure(self, verifier_id, endpoint_id, probes, timeout):
                if "a" in (verifier_id, endpoint_id):
                    return None
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        server = Location(0, 0)
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]
        layout = VerifierLayout(verifiers)
        assert enumerate_triangles(layout, server, 4) == [("a", "b", "c"), ("b", "c", "d")]
        provider = NoA(dict(verifiers), server, target_inflation_ms=5.0)
        result = verify_location(make_ip(server), layout, provider, self.cfg(), NOW)
        locs = dict(verifiers)
        assert result == VerificationResult(
            ip=make_ip(server), veri_passed=True,
            region=circle_of_pair(locs["b"], locs["d"]), when_veri=NOW,
        )
        assert built == []
        # the second triangle asks only for the edges the first did not
        # measure: (b, T), (b, c), (c, T) and (c, b) are known
        assert batches == [
            [("a", TARGET), ("a", "b"), ("a", "c"), ("b", TARGET), ("b", "a"), ("b", "c"),
             ("c", TARGET), ("c", "a"), ("c", "b")],
            [("b", "d"), ("c", "d"), ("d", TARGET), ("d", "b"), ("d", "c")],
        ]

    def test_a_failed_edge_is_asked_again_by_the_next_triangle_that_needs_it(self):
        # (b, T) fails the first time only: the first triangle is skipped,
        # and the second asks for (b, T) again beside its 5 new edges and
        # decides on the value it reads now
        batches = []

        class FirstBFails(IdealProvider):
            def measure_edges(self, edges, probes, timeout):
                batches.append(list(edges))
                return super().measure_edges(edges, probes, timeout)

            def measure(self, verifier_id, endpoint_id, probes, timeout):
                if (verifier_id, endpoint_id) == ("b", TARGET) and len(batches) == 1:
                    return None
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        server = Location(0, 0)
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]
        provider = FirstBFails(dict(verifiers), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), VerifierLayout(verifiers), provider, self.cfg(), NOW
        )
        locs = dict(verifiers)
        assert result.region == circle_of_pair(locs["b"], locs["d"])
        assert batches[1] == [
            ("b", TARGET), ("b", "d"), ("c", "d"), ("d", TARGET), ("d", "b"), ("d", "c"),
        ]

    @pytest.mark.parametrize("probes", [1, 3])
    def test_each_edge_is_asked_and_hashed_once_per_verification(self, monkeypatch, probes):
        # a false assertion 3000 km from the server walks 4 triangles of a
        # 6-verifier ring, all rejected; their 36 edges hold fewer distinct
        # ones, and each is asked of the provider and hashed once
        asserted = Location(0, 0)
        ring = [
            (f"v{i}", destination_point(asserted, bearing, 800.0))
            for i, bearing in enumerate(range(0, 360, 60))
        ]
        layout = VerifierLayout(ring)
        triangles = enumerate_triangles(layout, asserted, 4)
        assert len(triangles) == 4
        walked = {(v, e) for ids in triangles for v in ids
                  for e in (TARGET, *ids) if e != v}
        asked, keys = [], []

        class Recording(SimDelayProvider):
            def measure_edges(self, edges, probes, timeout):
                asked.extend(edges)
                return super().measure_edges(edges, probes, timeout)

        def counting(data, **kwargs):
            keys.append((data, kwargs.get("salt", bytes(16))))
            return hashlib.blake2b(data, **kwargs)

        monkeypatch.setattr("slv.simulator.blake2b", counting)
        provider = Recording(dict(ring), destination_point(asserted, 90.0, 3000.0),
                             DelayModel(jitter_ms=2.0, seed=5))
        cfg = self.cfg(probes_per_measurement=probes)
        for verification in (1, 2):
            result = verify_location(make_ip(asserted), layout, provider, cfg, NOW)
            assert result.reason is Reason.ALL_TRIANGLES_REJECTED
            # nothing is remembered across calls: the second asks again
            assert len(asked) == len(set(asked)) * verification
            assert set(asked) == walked and len(walked) < 36
            assert len(keys) == len(set(keys)) * verification == len(asked) * probes

    def test_measured_triangle_is_clamped_then_corrected(self):
        # raw RTTs of -3, 2 and 9 ms on every edge kind: each is clamped at
        # zero once, and lambda then comes off the target edges only
        class Fixed(DelayProvider):
            def __init__(self, ms):
                self.ms = ms

            def measure(self, verifier_id, endpoint_id, probes, timeout):
                return self.ms

        class Unasked(DelayProvider):
            def measure_edges(self, edges, probes, timeout):
                raise AssertionError(f"asked for {edges}")

        ids = enumerate_triangles(VerifierLayout(TRI_VERIFIERS), Location(0, 0))[0]
        edges = [(v, e) for v in ids for e in (TARGET,) + tuple(w for w in ids if w != v)]
        cfg = self.cfg(lambda_ms=5.0)
        for raw, target_ms, peer_ms in ((-3.0, 0.0, 0.0), (2.0, 0.0, 2.0), (9.0, 4.0, 9.0)):
            rtts = slv.verify._measure_triangle(ids, Fixed(raw), cfg, {})
            assert rtts == {e: target_ms if e[1] == TARGET else peer_ms for e in edges}
            # all 9 known: the provider is not called, not even with no edges
            assert slv.verify._measure_triangle(ids, Unasked(), cfg, rtts) is rtts

    def test_measured_triangle_is_none_when_any_edge_fails(self):
        triangle = enumerate_triangles(VerifierLayout(TRI_VERIFIERS), Location(0, 0))[0]
        for missing in (("b", TARGET), ("b", "c")):
            class OneFails(IdealProvider):
                def measure(self, verifier_id, endpoint_id, probes, timeout):
                    if (verifier_id, endpoint_id) == missing:
                        return None
                    return super().measure(verifier_id, endpoint_id, probes, timeout)

            provider = OneFails(dict(TRI_VERIFIERS), Location(0, 0))
            assert slv.verify._measure_triangle(triangle, provider, self.cfg(), {}) is None
