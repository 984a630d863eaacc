import math
import random

import pytest

from slv.geo import (
    EARTH_RADIUS_KM,
    MAX_DISTANCE_KM,
    AntipodalPointsError,
    Circle,
    DegenerateTriangleError,
    Location,
    Triangle,
    _dot,
    _cross,
    _unit,
    destination_point,
    geodesic_midpoint,
    great_circle_distance,
    min_rtt_for_distance,
    point_in_circle,
    point_in_spherical_triangle,
    spherical_containment,
)


def random_location(rng: random.Random) -> Location:
    return Location(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))


def centroid(*locs: Location) -> Location:
    xs = [_unit(loc) for loc in locs]
    sx = sum(x[0] for x in xs)
    sy = sum(x[1] for x in xs)
    sz = sum(x[2] for x in xs)
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    lat = math.degrees(math.asin(sz / norm))
    lon = math.degrees(math.atan2(sy, sx))
    return Location(lat, lon)


def antipode(loc: Location) -> Location:
    return Location(-loc.lat, loc.lon + 180.0)


class TestLocation:
    def test_normalizes_longitude(self):
        assert Location(0, 190).lon == -170
        assert Location(0, 180).lon == -180
        assert Location(0, -180).lon == -180
        assert Location(0, 540).lon == -180

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            Location(90.0001, 0)
        with pytest.raises(ValueError):
            Location(-91, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Location(float("nan"), 0)
        with pytest.raises(ValueError):
            Location(0, float("inf"))

    def test_dict_round_trip(self):
        loc = Location(45.42, -75.69)
        assert Location.from_dict(loc.to_dict()) == loc


    @pytest.mark.parametrize("data, key", [
        ({"lat": True, "lon": 10.0}, "lat"),
        ({"lat": 1.0, "lon": "10"}, "lon"),
        ({"lat": None, "lon": 10.0}, "lat"),
        ({"lat": 1.0, "lon": [10.0]}, "lon"),
        ({"lat": "1", "lon": "10"}, "lat"),
        ({"lat": 1.0, "lon": 10**400}, "lon"),  # past what a float holds
    ])
    def test_from_dict_takes_numbers_only(self, data, key):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number") as err:
            Location.from_dict(data)
        assert f"got {data[key]!r}" in str(err.value)
        loc = Location.from_dict({"lat": 1, "lon": 10})
        assert type(loc.lat) is float and type(loc.lon) is float
        assert loc.to_dict() == {"lat": 1.0, "lon": 10.0}


class TestCircle:
    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            Circle(Location(0, 0), 0.0)
        with pytest.raises(ValueError):
            Circle(Location(0, 0), -3.0)

    def test_rejects_oversized_radius(self):
        with pytest.raises(ValueError):
            Circle(Location(0, 0), MAX_DISTANCE_KM + 1)
        Circle(Location(0, 0), MAX_DISTANCE_KM)  # boundary is fine


    @pytest.mark.parametrize("data, key", [
        ({"centre": {"lat": 1.0, "lon": 2.0}, "radius": True}, "radius"),
        ({"centre": {"lat": 1.0, "lon": 2.0}, "radius": "5"}, "radius"),
        ({"centre": {"lat": 1.0, "lon": 2.0}, "radius": None}, "radius"),
        ({"centre": {"lat": False, "lon": 2.0}, "radius": 5.0}, "lat"),
    ])
    def test_from_dict_takes_numbers_only(self, data, key):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            Circle.from_dict(data)
        circle = Circle.from_dict({"centre": {"lat": 1.0, "lon": 2.0}, "radius": 5})
        assert type(circle.radius) is float and circle.to_dict()["radius"] == 5.0


class TestTriangle:
    def test_rejects_duplicate_vertices(self):
        with pytest.raises(DegenerateTriangleError):
            Triangle((Location(0, 0), Location(0, 0), Location(1, 1)), ("a", "b", "c"))

    def test_rejects_collinear_vertices(self):
        # three points on the equator share a great circle
        with pytest.raises(DegenerateTriangleError):
            Triangle((Location(0, 0), Location(0, 10), Location(0, 20)), ("a", "b", "c"))


class TestGreatCircleDistance:
    def test_identity(self):
        assert great_circle_distance(Location(0, 0), Location(0, 0)) == 0.0

    def test_quarter_circumference(self):
        d = great_circle_distance(Location(0, 0), Location(0, 90))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, abs=0.01)
        assert d == pytest.approx(10007.54, abs=0.01)

    def test_antipodal(self):
        d = great_circle_distance(Location(90, 0), Location(-90, 0))
        assert d == pytest.approx(20015.09, abs=0.01)

    def test_symmetric_nonnegative_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(10_000):
            a, b, c = (random_location(rng) for _ in range(3))
            ab = great_circle_distance(a, b)
            bc = great_circle_distance(b, c)
            ac = great_circle_distance(a, c)
            assert ab >= 0
            assert ab == great_circle_distance(b, a)
            assert ac <= ab + bc + 1e-6


class TestGeodesicMidpoint:
    def test_equatorial(self):
        mid = geodesic_midpoint(Location(0, 0), Location(0, 90))
        assert mid.lat == pytest.approx(0, abs=1e-9)
        assert mid.lon == pytest.approx(45, abs=1e-9)

    def test_identity(self):
        assert geodesic_midpoint(Location(10, 20), Location(10, 20)) == Location(10, 20)

    def test_meridian(self):
        mid = geodesic_midpoint(Location(45, 0), Location(-45, 0))
        assert mid.lat == pytest.approx(0, abs=1e-9)
        assert mid.lon == pytest.approx(0, abs=1e-9)

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalPointsError):
            geodesic_midpoint(Location(90, 0), Location(-90, 0))
        with pytest.raises(AntipodalPointsError):
            geodesic_midpoint(Location(0, 0), Location(0.001, 179.999))

    def test_equidistant_and_on_great_circle(self):
        rng = random.Random(13)
        for _ in range(500):
            a, b = random_location(rng), random_location(rng)
            if great_circle_distance(a, b) > MAX_DISTANCE_KM - 5:
                continue
            mid = geodesic_midpoint(a, b)
            da = great_circle_distance(a, mid)
            db = great_circle_distance(b, mid)
            assert da == pytest.approx(db, abs=1e-6)
            # coplanar with the segment endpoints and the sphere centre
            assert abs(_dot(_cross(_unit(a), _unit(b)), _unit(mid))) < 1e-9


class TestPointInCircle:
    def test_one_degree_inside(self):
        assert point_in_circle(Location(0, 1), Circle(Location(0, 0), 500))

    def test_centre_inside(self):
        c = Circle(Location(12, 34), 1.0)
        assert point_in_circle(c.centre, c)

    def test_ten_degrees_outside(self):
        assert not point_in_circle(Location(0, 10), Circle(Location(0, 0), 500))

    def test_equivalent_to_distance(self):
        rng = random.Random(99)
        for _ in range(10_000):
            p = random_location(rng)
            c = Circle(random_location(rng), rng.uniform(1.0, MAX_DISTANCE_KM))
            assert point_in_circle(p, c) == (great_circle_distance(p, c.centre) <= c.radius)


class TestPointInSphericalTriangle:
    def tri(self) -> Triangle:
        return Triangle(
            (Location(10, 0), Location(-10, 10), Location(-10, -10)), ("a", "b", "c")
        )

    def test_centroid_inside(self):
        t = self.tri()
        assert point_in_spherical_triangle(centroid(*t.vertices), t)

    def test_centroid_antipode_outside(self):
        t = self.tri()
        assert not point_in_spherical_triangle(antipode(centroid(*t.vertices)), t)

    def test_vertex_counts_as_inside(self):
        t = self.tri()
        for vertex in t.vertices:
            assert point_in_spherical_triangle(vertex, t)

    def test_edge_midpoints_count_as_inside_in_either_orientation(self):
        # the triple products of an edge point are zero up to rounding, of
        # either sign: only the edge tolerance keeps them inside
        rng = random.Random(4)
        kept = 0
        while kept < 300:
            a, b, c = (random_location(rng) for _ in range(3))
            if abs(_dot(_cross(_unit(a), _unit(b)), _unit(c))) < 1e-6:
                continue
            for vertices in ((a, b, c), (a, c, b)):
                t = Triangle(vertices, ("a", "b", "c"))
                for u, v in ((a, b), (b, c), (a, c)):
                    assert point_in_spherical_triangle(geodesic_midpoint(u, v), t)
            kept += 1

    def test_degenerate_is_none(self):
        a, b, c = (_unit(Location(0, lon)) for lon in (0, 10, 20))
        ab = _cross(a, b)
        p = _unit(Location(0, 5))
        assert spherical_containment(
            _dot(ab, c), _dot(ab, p), _dot(_cross(b, c), p), _dot(_cross(a, c), p)
        ) is None

    def test_random_triangles(self):
        rng = random.Random(3)
        kept = 0
        while kept < 300:
            vertices = tuple(random_location(rng) for _ in range(3))
            det = _dot(_cross(_unit(vertices[0]), _unit(vertices[1])), _unit(vertices[2]))
            if abs(det) < 1e-6:  # skip near-degenerate slivers
                continue
            t = Triangle(vertices, ("a", "b", "c"))
            inner = centroid(*vertices)
            assert point_in_spherical_triangle(inner, t)
            assert not point_in_spherical_triangle(antipode(inner), t)
            kept += 1


class TestMinRttForDistance:
    def test_zero(self):
        assert min_rtt_for_distance(0) == 0.0

    def test_1000_km(self):
        assert min_rtt_for_distance(1000) == pytest.approx(10.007, abs=0.001)

    def test_100_km(self):
        assert min_rtt_for_distance(100) == pytest.approx(1.0007, abs=0.0005)

    def test_linear_and_monotone(self):
        rng = random.Random(21)
        for _ in range(1000):
            d1 = rng.uniform(0, 20000)
            d2 = rng.uniform(0, 20000)
            k = rng.uniform(0.1, 10)
            assert min_rtt_for_distance(k * d1) == pytest.approx(
                k * min_rtt_for_distance(d1), rel=1e-12
            )
            lo, hi = sorted((d1, d2))
            assert min_rtt_for_distance(lo) <= min_rtt_for_distance(hi)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            min_rtt_for_distance(-1)


class TestDestinationPoint:
    def test_travels_the_requested_distance(self):
        rng = random.Random(5)
        for _ in range(500):
            start = Location(rng.uniform(-75, 75), rng.uniform(-180, 180))
            dist = rng.uniform(1, 9000)
            end = destination_point(start, rng.uniform(0, 360), dist)
            assert great_circle_distance(start, end) == pytest.approx(dist, abs=1e-6)

    def test_due_north(self):
        end = destination_point(Location(0, 0), 0.0, math.pi * EARTH_RADIUS_KM / 2)
        assert end.lat == pytest.approx(90, abs=1e-6)
