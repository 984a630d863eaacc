import math
import random
from datetime import datetime, timezone
from itertools import combinations

import pytest

import slv.verify
from conftest import IdealProvider
from slv.geo import (
    AntipodalPointsError,
    Circle,
    DegenerateTriangleError,
    Location,
    Triangle,
    _cross,
    _dot,
    _unit,
    destination_point,
    great_circle_distance,
    min_rtt_for_distance,
    point_in_circle,
    point_in_spherical_triangle,
    spherical_containment,
)
from slv.simulator import RegionBounds, generate_scenario, run_experiment
from slv.verify import (
    _STOP_SLACK_KM,
    TARGET,
    DelayMatrix,
    IPInfo,
    Reason,
    VerificationResult,
    VerifyConfig,
    any_triangle_contains,
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
        triangles = enumerate_triangles(TRI_VERIFIERS, Location(0, 0))
        assert len(triangles) == 1
        assert triangles[0].verifier_ids == ("a", "b", "c")

    def test_point_far_outside(self):
        assert enumerate_triangles(TRI_VERIFIERS, Location(50, 50)) == []

    def test_nested_triangles_smallest_perimeter_first(self):
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0))]
        triangles = enumerate_triangles(verifiers, Location(0, 0))
        assert len(triangles) >= 2
        perimeters = [t.perimeter_km() for t in triangles]
        assert perimeters == sorted(perimeters)
        assert triangles[0].verifier_ids == ("a", "b", "c")
        # the wider triangle through d comes later
        assert any(t.verifier_ids == ("b", "c", "d") for t in triangles[1:])

    def test_deterministic(self):
        verifiers = TRI_VERIFIERS + [("d", Location(25, 0)), ("e", Location(-25, 3))]
        first = enumerate_triangles(verifiers, Location(0, 0))
        second = enumerate_triangles(list(reversed(verifiers)), Location(0, 0))
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
            enumerated = {t.verifier_ids for t in enumerate_triangles(verifiers, p)}
            assert enumerated == expected

    def test_skips_degenerate_combinations(self):
        verifiers = [
            ("a", Location(0, 0)),
            ("b", Location(0, 10)),
            ("c", Location(0, 20)),  # collinear with a and b
            ("d", Location(10, 10)),
            ("e", Location(-10, 10)),
        ]
        triangles = enumerate_triangles(verifiers, Location(0, 10))
        assert all(t.verifier_ids != ("a", "b", "c") for t in triangles)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            enumerate_triangles(TRI_VERIFIERS[:2], Location(0, 0))
        with pytest.raises(ValueError):
            enumerate_triangles(TRI_VERIFIERS + [("a", Location(5, 5))], Location(0, 0))
        with pytest.raises(ValueError):
            enumerate_triangles(TRI_VERIFIERS, Location(0, 0), limit=0)


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


def _instance(rng: random.Random, kind: str):
    """A verifier layout of 3 to 40 verifiers and a few points to test.

    uniform: verifiers anywhere in a random box. lattice: distinct nodes
    of a grid through the equator, so rows on the equator and columns
    along meridians give collinear (degenerate) triples, and congruent
    triangles give perimeter ties; points are nodes and half-steps, many
    on edges. antimeridian: a box spanning longitude 180.
    """
    n = rng.randint(3, 40)
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
        rng = random.Random(seed)
        for _ in range(12):
            verifiers, points = _instance(rng, kind)
            for p in points:
                full = [t.verifier_ids for t in oracle(verifiers, p)]
                assert any_triangle_contains(verifiers, p) == bool(full)
                for k in (1, 2, 4, 7, None):
                    got = [t.verifier_ids for t in enumerate_triangles(verifiers, p, k)]
                    assert got == full[:k], (kind, k, verifiers, p)

    def test_returns_equal_triangles(self):
        rng = random.Random(6)
        verifiers, points = _instance(rng, "uniform")
        for p in points:
            assert enumerate_triangles(verifiers, p) == oracle(verifiers, p)
            assert enumerate_triangles(verifiers, p, 4) == oracle(verifiers, p)[:4]

    def test_simulator_verdicts_identical(self, monkeypatch):
        scenario = generate_scenario(
            40, 4, 3, 2,
            bounds=RegionBounds(lat_min=30.0, lat_max=57.0, lon_min=-118.0, lon_max=-70.0),
            seed=7,
        )
        searched = run_experiment(scenario).to_dict()
        calls = []

        def exhaustive(verifiers, asserted, limit=None):
            calls.append(limit)
            return oracle(verifiers, asserted)[:limit]

        monkeypatch.setattr(slv.verify, "enumerate_triangles", exhaustive)
        assert run_experiment(scenario).to_dict() == searched
        assert calls == [scenario.cfg.max_triangles] * len(scenario.servers)


class TestStopBound:
    """Every vertex of a spherical triangle containing p lies within half
    the perimeter of p: the bound the top-k search stops on."""

    @staticmethod
    def _sphere(rng: random.Random) -> Location:
        return Location(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180, 180))

    @staticmethod
    def _straddling(rng: random.Random) -> Location:
        return Location(rng.uniform(-40.0, 40.0), rng.uniform(-60.0, 60.0))

    def test_vertices_within_half_perimeter(self):
        rng = random.Random(41)
        long_sides = straddling = 0
        for trial in range(3000):
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
            half = t.perimeter_km() / 2.0
            for v in vertices:
                assert great_circle_distance(p, v) <= half + _STOP_SLACK_KM
            sides = [great_circle_distance(a, b) for a, b in combinations(vertices, 2)]
            long_sides += max(sides) > math.pi / 2 * 6371.0
            straddling += min(v.lat for v in vertices) < 0 < max(v.lat for v in vertices)
        assert long_sides > 100 and straddling > 100


class TestDelayMatrix:
    def test_clamps_negative(self):
        matrix = DelayMatrix()
        matrix.set("a", TARGET, -3.0)
        assert matrix.get("a", TARGET) == 0.0

    def test_covers_triangle(self):
        matrix = DelayMatrix()
        ids = ("a", "b", "c")
        for v in ids:
            matrix.set(v, TARGET, 1.0)
            for w in ids:
                if w != v:
                    matrix.set(v, w, 2.0)
        assert matrix.covers_triangle(ids)
        del matrix.entries[("b", "c")]
        assert not matrix.covers_triangle(ids)


class TestMessageTypes:
    def test_ipinfo_rejects_junk(self):
        with pytest.raises(ValueError):
            IPInfo(value="not-an-ip", loc=Location(0, 0))
        IPInfo(value="255.255.255.255", loc=Location(0, 0))
        IPInfo(value="2001:db8::1", loc=Location(0, 0))

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(lambda_ms=-1)
        with pytest.raises(ValueError):
            VerifyConfig(probes_per_measurement=0)
        with pytest.raises(ValueError):
            VerifyConfig(max_triangles=0)


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
        result = verify_location(make_ip(server), TRI_VERIFIERS, provider, self.cfg(), NOW)

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
        result = verify_location(make_ip(asserted), ring, provider, self.cfg(), NOW)

        assert result.veri_passed is False
        assert result.region is None
        assert result.reason is Reason.ALL_TRIANGLES_REJECTED

    def test_no_coverage(self):
        asserted = Location(50, 50)
        provider = IdealProvider(dict(TRI_VERIFIERS), asserted)
        result = verify_location(make_ip(asserted), TRI_VERIFIERS, provider, self.cfg(), NOW)

        assert result.veri_passed is False
        assert result.reason is Reason.NO_COVERAGE
        assert provider.calls == 0

    def test_measurement_failure(self):
        class DeadProvider:
            def measure(self, verifier_id, endpoint_id, probes, timeout):
                return None

        result = verify_location(
            make_ip(Location(0, 0)), TRI_VERIFIERS, DeadProvider(), self.cfg(), NOW
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
            make_ip(server), verifiers, provider, self.cfg(max_triangles=1), NOW
        )
        assert result.veri_passed is False
        assert result.reason is Reason.MEASUREMENT_FAILURE

        # a second slot reaches the wider triangle (b, c, d), which accepts
        provider = FlakyA(dict(verifiers), server, target_inflation_ms=5.0)
        result = verify_location(
            make_ip(server), verifiers, provider, self.cfg(max_triangles=2), NOW
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
            make_ip(asserted), verifiers, provider, self.cfg(max_triangles=4), NOW
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
                make_ip(asserted), verifiers, provider, self.cfg(max_triangles=10), NOW
            )
            if result.veri_passed:
                assert point_in_circle(asserted, result.region)
            else:
                assert result.region is None

    def test_concurrent_provider_gets_parallel_calls_same_result(self):
        import threading

        server = Location(0, 0)

        class ConcurrentProvider(IdealProvider):
            # the engine may fan out over the triangle's three verifiers;
            # the barrier only opens if all three measure at the same time
            supports_concurrent_measure = True
            barrier = threading.Barrier(3, timeout=10.0)

            def measure(self, verifier_id, endpoint_id, probes, timeout):
                if endpoint_id == TARGET:
                    self.barrier.wait()
                return super().measure(verifier_id, endpoint_id, probes, timeout)

        concurrent = ConcurrentProvider(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        sequential = IdealProvider(dict(TRI_VERIFIERS), server, target_inflation_ms=5.0)
        a = verify_location(make_ip(server), TRI_VERIFIERS, concurrent, self.cfg(), NOW)
        b = verify_location(make_ip(server), TRI_VERIFIERS, sequential, self.cfg(), NOW)
        assert a == b

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
            make_ip(server), TRI_VERIFIERS, provider, self.cfg(lambda_ms=5.0), NOW
        )
        assert result.veri_passed is True
        target_edges = [pair for pair in seen if pair[1] == TARGET]
        pair_edges = [pair for pair in seen if pair[1] != TARGET]
        assert len(target_edges) == 3
        assert len(pair_edges) == 6
