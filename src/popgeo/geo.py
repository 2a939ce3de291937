"""Geographic primitives: coordinates, great-circle distance, coordinate medians.

All distances are great-circle kilometers on a sphere of radius 6371 km.
Degree-stepped radii from other tools are converted at 111 km per degree.
DistinctPoints holds a list of coordinates with each distinct one counted
once and answers radius tests on it without changing a single result of
haversine_km.
"""

import math
import warnings
from dataclasses import dataclass
from statistics import median
from typing import Iterator, Optional, Sequence

EARTH_RADIUS_KM = 6371.0
KM_PER_DEGREE = 111.0


@dataclass(frozen=True, order=True)
class GeoCoord:
    """A latitude/longitude pair in degrees.

    Latitude must lie in [-90, 90]. Longitude must be finite and is wrapped
    into [-180, 180] at construction time.
    """

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            if not math.isfinite(self.lon):
                raise ValueError(f"longitude {self.lon} is not finite")
            lon = math.fmod(self.lon + 180.0, 360.0)
            if lon < 0:
                lon += 360.0
            object.__setattr__(self, "lon", lon - 180.0)


def haversine_km(a: GeoCoord, b: GeoCoord) -> float:
    """Great-circle distance between two coordinates, in kilometers."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def distances_km(points: Sequence[GeoCoord], centre: GeoCoord) -> list[float]:
    """haversine_km(p, centre) for every point, bit for bit.

    The centre's trigonometry is computed once; every other operation runs
    in haversine_km's order, so each distance equals its haversine_km.
    """
    lat2 = math.radians(centre.lat)
    cos2 = math.cos(lat2)
    out = []
    for a in points:
        lat1 = math.radians(a.lat)
        dlat = lat2 - lat1
        dlon = math.radians(centre.lon - a.lon)
        h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * cos2 * math.sin(dlon / 2.0) ** 2
        out.append(2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h))))
    return out


def _unit_vector(p: GeoCoord) -> tuple[float, float, float]:
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    c = math.cos(lat)
    return (c * math.cos(lon), c * math.sin(lon), math.sin(lat))


# Radius tests by chord: for unit vectors u and v an angle t apart, u.v is
# cos(t), so "haversine_km(p, centre) <= r" holds when u.v >= cos(r / R).
# The dot product decides only farther than CHORD_MARGIN from cos(r / R);
# nearer, haversine_km itself decides, so every test returns what
# haversine_km(p, centre) <= r returns. Errors, in units of cosine: the dot
# product and cos(r / R) round by a few 1e-16. haversine_km loses up to
# ~1e-8 rad near the antipode, where asin's slope amplifies its rounding of
# h = (1 - cos t) / 2; but that rounding is ~1e-16 of h, so in cosine terms
# haversine_km is off by ~1e-16 there too. A margin of 1e-9 holds all of
# these a million times over. It leaves to haversine_km the answers within
# ~37 m of a 1.11 km radius (the vote's first step) and within ~0.4 m of a
# 100 km one.
CHORD_MARGIN = 1e-9


def _cos_radius(radius_km: float) -> float:
    """The dot-product threshold of a radius; 2.0 (above every dot product) when negative."""
    angle = radius_km / EARTH_RADIUS_KM
    if angle < 0:
        return 2.0
    # beyond half the circumference every point is inside; cos(pi) = -1 keeps it so
    return math.cos(min(angle, math.pi))


class DistinctPoints:
    """A list of coordinates with each distinct coordinate held once.

    points are the distinct coordinates in first-seen order and counts their
    multiplicities; index[i] is the position in points of the i-th input.
    within_km tests each distinct point once; count_within_km weighs the
    results by multiplicity.
    """

    __slots__ = ("points", "counts", "index", "_vectors")

    def __init__(self, coords: Sequence[GeoCoord]):
        slot: dict[tuple[float, float], int] = {}
        self.points: list[GeoCoord] = []
        self.counts: list[int] = []
        self.index: list[int] = []
        for c in coords:
            key = (c.lat, c.lon)
            i = slot.get(key)
            if i is None:
                i = slot[key] = len(self.points)
                self.points.append(c)
                self.counts.append(0)
            self.counts[i] += 1
            self.index.append(i)
        self._vectors: Optional[list[tuple[float, float, float]]] = None

    def within_km(self, centre: GeoCoord, radius_km: float) -> list[bool]:
        """haversine_km(p, centre) <= radius_km for every distinct point."""
        return list(self._inside(centre, radius_km))

    def count_within_km(self, centre: GeoCoord, radius_km: float) -> int:
        """How many input coordinates lie within radius_km of centre."""
        return sum(n for n, inside in zip(self.counts, self._inside(centre, radius_km)) if inside)

    def _inside(self, centre: GeoCoord, radius_km: float) -> Iterator[bool]:
        if self._vectors is None:
            self._vectors = [_unit_vector(p) for p in self.points]
        cx, cy, cz = _unit_vector(centre)
        threshold = _cos_radius(radius_km)
        above = threshold + CHORD_MARGIN
        below = threshold - CHORD_MARGIN
        for p, (x, y, z) in zip(self.points, self._vectors):
            dot = x * cx + y * cy + z * cz
            # inside by chord, outside by chord, or too close to call: haversine_km decides
            yield dot > above or (dot >= below and haversine_km(p, centre) <= radius_km)


def deg_to_km(degrees: float) -> float:
    """Convert a degree-valued radius to kilometers at 111 km per degree."""
    if degrees < 0:
        raise ValueError(f"negative degree value {degrees}")
    return degrees * KM_PER_DEGREE


def destination_point(origin: GeoCoord, bearing_rad: float, distance_km: float) -> GeoCoord:
    """Point reached by travelling distance_km from origin along a bearing.

    Inverse of haversine_km: the returned point is at exactly distance_km
    (up to float rounding) from origin.
    """
    if distance_km < 0:
        raise ValueError(f"negative distance {distance_km}")
    delta = distance_km / EARTH_RADIUS_KM
    lat1 = math.radians(origin.lat)
    lon1 = math.radians(origin.lon)
    # Destination as a unit vector in the origin meridian's frame: up (z),
    # towards the pole axis (x) and east (y). Taking latitude with atan2
    # rather than asin keeps short steps away from the poles from rounding
    # to zero, where asin's slope is infinite.
    z = math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(bearing_rad)
    x = math.cos(lat1) * math.cos(delta) - math.sin(lat1) * math.sin(delta) * math.cos(bearing_rad)
    y = math.sin(bearing_rad) * math.sin(delta)
    lat2 = math.atan2(z, math.hypot(x, y))
    lon2 = lon1 + math.atan2(y, x)
    return GeoCoord(math.degrees(lat2), math.degrees(lon2))


def coordinate_median(points: list[GeoCoord]) -> GeoCoord:
    """Component-wise median of a non-empty list of coordinates.

    Even-length inputs take the mean of the two middle values per component.
    Longitudes are treated as plain numbers; inputs spanning more than 180
    degrees of longitude (antimeridian straddle) trigger a warning because
    the arithmetic median can land far from every input point.
    """
    if not points:
        raise ValueError("coordinate_median of empty list")
    lons = [p.lon for p in points]
    if max(lons) - min(lons) > 180.0:
        warnings.warn(
            "longitude span exceeds 180 degrees; arithmetic median is unreliable near the antimeridian",
            RuntimeWarning,
            stacklevel=2,
        )
    return GeoCoord(median(p.lat for p in points), median(lons))
