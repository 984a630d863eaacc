"""Spherical-earth geodesy primitives.

All coordinates are latitude/longitude in degrees, all distances are
kilometers on a sphere of radius 6371.0 km. Containment tests are
boundary-inclusive: a point on a circle or on a triangle edge counts as
inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

EARTH_RADIUS_KM = 6371.0

# Largest possible great-circle separation (half the circumference).
MAX_DISTANCE_KM = math.pi * EARTH_RADIUS_KM

# Speed of light in vacuum, km/s. Signals in fibre travel at ~2/3 of it.
SPEED_OF_LIGHT_KM_S = 299792.458

# Scalar triple products below this magnitude count as "on the edge".
_EDGE_EPS = 1e-12


class AntipodalPointsError(ValueError):
    """An operation is undefined for (nearly) antipodal points."""


class DegenerateTriangleError(ValueError):
    """Three points lie on a single great circle and bound no area."""


@dataclass(frozen=True)
class Location:
    """A point on the sphere.

    Latitude must be within [-90, 90]; longitude is normalized into
    [-180, 180) on construction.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        object.__setattr__(self, "lon", ((self.lon + 180.0) % 360.0) - 180.0)

    def to_dict(self) -> dict:
        return {"lat": self.lat, "lon": self.lon}

    @classmethod
    def from_dict(cls, data: dict) -> "Location":
        return cls(lat=float(data["lat"]), lon=float(data["lon"]))


@dataclass(frozen=True)
class Circle:
    """A geodesic disc: all points within `radius` km of `centre`."""

    centre: Location
    radius: float

    def __post_init__(self) -> None:
        if not (0.0 < self.radius <= MAX_DISTANCE_KM):
            raise ValueError(
                f"radius must be in (0, {MAX_DISTANCE_KM:.1f}] km, got {self.radius}"
            )

    def to_dict(self) -> dict:
        return {"centre": self.centre.to_dict(), "radius": self.radius}

    @classmethod
    def from_dict(cls, data: dict) -> "Circle":
        return cls(centre=Location.from_dict(data["centre"]), radius=float(data["radius"]))


@dataclass(frozen=True)
class Triangle:
    """Three verifier positions spanning a spherical triangle.

    Vertices must be pairwise distinct and must not lie on a single great
    circle.
    """

    vertices: tuple[Location, Location, Location]
    verifier_ids: tuple[str, str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "verifier_ids", tuple(self.verifier_ids))
        if len(self.vertices) != 3 or len(self.verifier_ids) != 3:
            raise ValueError("a triangle takes exactly 3 vertices and 3 verifier ids")
        a, b, c = self.vertices
        if a == b or b == c or a == c:
            raise DegenerateTriangleError("triangle vertices must be pairwise distinct")
        if _vertices_contain(self.vertices, a) is None:
            raise DegenerateTriangleError("triangle vertices lie on one great circle")

    def perimeter_km(self) -> float:
        """Sum of the three pairwise great-circle distances."""
        a, b, c = self.vertices
        return (
            great_circle_distance(a, b)
            + great_circle_distance(b, c)
            + great_circle_distance(c, a)
        )


def _unit(loc: Location) -> tuple[float, float, float]:
    """Unit vector of a location in earth-centred cartesian coordinates."""
    lat = math.radians(loc.lat)
    lon = math.radians(loc.lon)
    clat = math.cos(lat)
    return (clat * math.cos(lon), clat * math.sin(lon), math.sin(lat))


def _from_unit(u: tuple[float, float, float]) -> Location:
    lat = math.degrees(math.asin(max(-1.0, min(1.0, u[2]))))
    lon = math.degrees(math.atan2(u[1], u[0]))
    return Location(lat, lon)


def _cross(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def great_circle_distance(a: Location, b: Location) -> float:
    """Haversine distance in kilometers between two locations.

    Args:
        a: First location.
        b: Second location.

    Returns:
        Non-negative, symmetric distance in km.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * math.asin(min(1.0, math.sqrt(h)))


def geodesic_midpoint(a: Location, b: Location) -> Location:
    """Point on the great circle through a and b equidistant from both.

    Computed by normalizing the sum of the two unit vectors, which stays
    correct across the date line.

    Raises:
        AntipodalPointsError: when a and b are within 1 km of being
            antipodal and the midpoint is not unique.
    """
    if great_circle_distance(a, b) > MAX_DISTANCE_KM - 1.0:
        raise AntipodalPointsError(f"midpoint of near-antipodal points is undefined: {a}, {b}")
    ua = _unit(a)
    ub = _unit(b)
    s = (ua[0] + ub[0], ua[1] + ub[1], ua[2] + ub[2])
    norm = math.sqrt(_dot(s, s))
    return _from_unit((s[0] / norm, s[1] / norm, s[2] / norm))


def point_in_circle(p: Location, c: Circle) -> bool:
    """Whether p lies inside or on the boundary of the disc c."""
    return great_circle_distance(p, c.centre) <= c.radius


def spherical_containment(det: float, pab: float, pbc: float, pac: float) -> Optional[bool]:
    """Boundary-inclusive containment of a point p in the spherical
    triangle (a, b, c), from scalar triple products of unit vectors:
    det = (a x b).c, pab = (a x b).p, pbc = (b x c).p and pac = (a x c).p.

    This is the one containment rule of the package. Writing
    p = alpha*a + beta*b + gamma*c gives pbc = alpha*det, pac = -beta*det
    and pab = gamma*det, so p is inside iff all three coefficients are
    >= 0: p lies on the interior side of each great-circle edge, the side
    holding the opposite vertex. Products within _EDGE_EPS of zero count
    as on the edge.

    Returns:
        None when |det| < _EDGE_EPS: the vertices lie on one great circle
        and bound no area. Otherwise whether p is inside or on the boundary.
    """
    if det >= _EDGE_EPS:
        return pab >= -_EDGE_EPS and pbc >= -_EDGE_EPS and pac <= _EDGE_EPS
    if det <= -_EDGE_EPS:
        return pab <= _EDGE_EPS and pbc <= _EDGE_EPS and pac >= -_EDGE_EPS
    return None


def _vertices_contain(vertices, p: Location) -> Optional[bool]:
    ua, ub, uc = (_unit(v) for v in vertices)
    up = _unit(p)
    ab = _cross(ua, ub)
    return spherical_containment(
        _dot(ab, uc), _dot(ab, up), _dot(_cross(ub, uc), up), _dot(_cross(ua, uc), up)
    )


def point_in_spherical_triangle(p: Location, t: Triangle) -> bool:
    """Boundary-inclusive containment of p in the spherical triangle t,
    by the rule of spherical_containment.

    Raises:
        DegenerateTriangleError: when the vertices lie on one great circle.
    """
    inside = _vertices_contain(t.vertices, p)
    if inside is None:
        raise DegenerateTriangleError("triangle vertices lie on one great circle")
    return inside


def min_rtt_for_distance(distance_km: float) -> float:
    """Smallest physically possible RTT in milliseconds over a one-way path.

    A round trip over distance d in fibre at two-thirds the speed of light
    takes 2d / (2c/3) = 3d/c seconds.

    Args:
        distance_km: One-way geodesic distance, >= 0.

    Returns:
        Lower-bound RTT in milliseconds, linear in the distance.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return 3.0 * distance_km / SPEED_OF_LIGHT_KM_S * 1000.0


def destination_point(start: Location, bearing_deg: float, distance_km: float) -> Location:
    """Location reached from `start` travelling `distance_km` along a great
    circle with initial bearing `bearing_deg` (clockwise from north)."""
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    ang = distance_km / EARTH_RADIUS_KM
    lat1 = math.radians(start.lat)
    lon1 = math.radians(start.lon)
    bearing = math.radians(bearing_deg)
    sin_lat2 = math.sin(lat1) * math.cos(ang) + math.cos(lat1) * math.sin(ang) * math.cos(bearing)
    lat2 = math.asin(max(-1.0, min(1.0, sin_lat2)))
    lon2 = lon1 + math.atan2(
        math.sin(bearing) * math.sin(ang) * math.cos(lat1),
        math.cos(ang) - math.sin(lat1) * math.sin(lat2),
    )
    return Location(math.degrees(lat2), math.degrees(lon2))
