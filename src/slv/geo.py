"""Spherical-earth geodesy primitives.

All coordinates are latitude/longitude in degrees, all distances are
kilometers on a sphere of radius 6371.0 km. Containment tests are
boundary-inclusive: a point on a circle or on a triangle edge counts as
inside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

EARTH_RADIUS_KM = 6371.0

# Largest possible great-circle separation (half the circumference).
MAX_DISTANCE_KM = math.pi * EARTH_RADIUS_KM

# Speed of light in vacuum, km/s. Signals in fibre travel at ~2/3 of it.
SPEED_OF_LIGHT_KM_S = 299792.458

# Scalar triple products below this magnitude count as "on the edge".
_EDGE_EPS = 1e-12

# Triples of unit vectors whose det (a x b).c is below this magnitude bound
# no area. A small triangle's det is about twice its area in steradians, so
# below the bound it covers about 1.6 km^2 on the earth at most, a few km^2
# when its sides are thousands of km long. The bound is 8 * _EDGE_EPS /
# verify._HULL_MARGIN: the sign test's tolerance, which applies to
# unnormalized products, then cannot carry a point beyond the verifiers'
# hull (see the comment above verify._HULL_MARGIN).
_MIN_DET = 8e-8


class AntipodalPointsError(ValueError):
    """An operation is undefined for (nearly) antipodal points."""


class DegenerateTriangleError(ValueError):
    """Three points bound no area: |det| < _MIN_DET, as when they lie on
    one great circle."""


def _checked_number(name: str, value, low, high=math.inf, *, above=False, integer=False) -> None:
    """Raise ValueError, naming name and value, unless value is a finite
    number that a float can hold (an int when integer; a bool never counts)
    with low <= value <= high, or low < value <= high when above."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)) or not (
        (low < value if above else low <= value) and value <= high
        and abs(value) <= sys.float_info.max
    ):
        kind = "an integer" if integer else "a finite number"
        lower = f" > {low}" if above else f" >= {low}" if low > -math.inf else ""
        upper = f" and <= {high}" if high < math.inf else ""
        raise ValueError(f"{name} must be {kind}{lower}{upper}, got {value!r}")


@dataclass(frozen=True, slots=True)
class Location:
    """A point on the sphere.

    Both must be numbers, an int or a float but never a bool, and are kept
    as floats. Latitude must be within [-90, 90]; longitude is normalized
    into [-180, 180) on construction.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if type(self.lat) is not float or type(self.lon) is not float:
            _checked_number("lat", self.lat, -90.0, 90.0)
            _checked_number("lon", self.lon, -math.inf)
            object.__setattr__(self, "lat", float(self.lat))
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        object.__setattr__(self, "lon", ((self.lon + 180.0) % 360.0) - 180.0)

    def to_dict(self) -> dict:
        return {"lat": self.lat, "lon": self.lon}

    @classmethod
    def from_dict(cls, data: dict) -> "Location":
        return cls(lat=data["lat"], lon=data["lon"])


@dataclass(frozen=True, slots=True)
class Circle:
    """A geodesic disc: all points within `radius` km of `centre`. The
    radius must be a number in (0, MAX_DISTANCE_KM] and is kept as a float."""

    centre: Location
    radius: float

    def __post_init__(self) -> None:
        _checked_number("radius", self.radius, 0.0, MAX_DISTANCE_KM, above=True)
        object.__setattr__(self, "radius", float(self.radius))

    def to_dict(self) -> dict:
        return {"centre": self.centre.to_dict(), "radius": self.radius}

    @classmethod
    def from_dict(cls, data: dict) -> "Circle":
        return cls(centre=Location.from_dict(data["centre"]), radius=data["radius"])


@dataclass(frozen=True)
class Triangle:
    """Three verifier positions spanning a spherical triangle.

    Vertices must bound an area: the rule of spherical_containment refuses
    every triple with |det| < _MIN_DET, coincident vertices (det 0)
    included.
    """

    vertices: tuple[Location, Location, Location]
    verifier_ids: tuple[str, str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "verifier_ids", tuple(self.verifier_ids))
        if len(self.vertices) != 3 or len(self.verifier_ids) != 3:
            raise ValueError("a triangle takes exactly 3 vertices and 3 verifier ids")
        if abs(_triple_products(*map(_unit, self.vertices))[0]) < _MIN_DET:
            raise DegenerateTriangleError("triangle vertices bound no area")


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


def _normalized(v) -> Optional[tuple[float, float, float]]:
    norm = math.sqrt(_dot(v, v))
    if norm < 1e-15:
        return None
    return (v[0] / norm, v[1] / norm, v[2] / norm)


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
    ua, ub = _unit(a), _unit(b)
    return _from_unit(_normalized((ua[0] + ub[0], ua[1] + ub[1], ua[2] + ub[2])))


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
        None when |det| < _MIN_DET: the vertices bound no area, whether
        they lie on one great circle or form a sliver a few km^2 at most,
        which the edge tolerance would let accept points far beyond its
        vertices. Otherwise whether p is inside or on the boundary.
    """
    if det >= _MIN_DET:
        return pab >= -_EDGE_EPS and pbc >= -_EDGE_EPS and pac <= _EDGE_EPS
    if det <= -_MIN_DET:
        return pab <= _EDGE_EPS and pbc <= _EDGE_EPS and pac >= -_EDGE_EPS
    return None


# (det, a x b, b x c, a x c) of unit vectors a, b, c, with det = (a x b).c.
_Triple = tuple[float, tuple, tuple, tuple]


def _triple_products(a, b, c) -> _Triple:
    """The products spherical_containment needs of the triangle (a, b, c),
    apart from the point; every triple tested outside the triangle search
    is computed here."""
    ab = _cross(a, b)
    return (_dot(ab, c), ab, _cross(b, c), _cross(a, c))


def _triple_contains(triple: _Triple, up) -> Optional[bool]:
    """spherical_containment of the unit vector up in a triple of
    _triple_products."""
    det, ab, bc, ac = triple
    return spherical_containment(det, _dot(ab, up), _dot(bc, up), _dot(ac, up))


def point_in_spherical_triangle(p: Location, t: Triangle) -> bool:
    """Boundary-inclusive containment of p in the spherical triangle t,
    by the rule of spherical_containment.

    Raises:
        DegenerateTriangleError: when the vertices bound no area.
    """
    inside = _triple_contains(_triple_products(*map(_unit, t.vertices)), _unit(p))
    if inside is None:
        raise DegenerateTriangleError("triangle vertices bound no area")
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
