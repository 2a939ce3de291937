"""Geographic primitives: coordinates, great-circle distance, coordinate medians.

All distances are great-circle kilometers on a sphere of radius 6371 km.
Degree-stepped radii from other tools are converted at 111 km per degree.
DistinctPoints holds a list of coordinates with each distinct one counted
once and answers radius tests on it without changing a single result of
haversine_km.
"""

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .ingest import _middle

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


@lru_cache(maxsize=1024)
def _chord_band(radius_km: float) -> tuple[float, float]:
    """The dot products above which a point is inside radius_km, and below which it is outside.

    Both sit CHORD_MARGIN from cos(radius_km / R); a negative radius has
    both above every dot product. Kept per radius, since the vote and the
    agreement test a few radii many times.
    """
    angle = radius_km / EARTH_RADIUS_KM
    # beyond half the circumference every point is inside; cos(pi) = -1 keeps it so
    threshold = 2.0 if angle < 0 else math.cos(min(angle, math.pi))
    return threshold + CHORD_MARGIN, threshold - CHORD_MARGIN


class DistinctPoints:
    """A list of coordinates with each distinct coordinate held once.

    points are the distinct coordinates in first-seen order and counts their
    multiplicities; index[i] is the position in points of the i-th input.
    Radius tests run on a dots row: the dot products of a centre's unit
    vector with every point's, computed once per centre and shared by every
    radius. Each point's unit vector is computed once, for the first row.
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

    def _unit_vectors(self) -> list[tuple[float, float, float]]:
        if self._vectors is None:
            # _unit_vector of each point, inlined
            radians, cos, sin = math.radians, math.cos, math.sin
            self._vectors = vectors = []
            for p in self.points:
                lat = radians(p.lat)
                lon = radians(p.lon)
                c = cos(lat)
                vectors.append((c * cos(lon), c * sin(lon), sin(lat)))
        return self._vectors

    def dots(self, centre: GeoCoord) -> list[float]:
        """The dot product of each distinct point's unit vector with centre's."""
        cx, cy, cz = _unit_vector(centre)
        return [x * cx + y * cy + z * cz for x, y, z in self._unit_vectors()]

    def point_dots(self, i: int) -> list[float]:
        """dots(points[i]), from the point's own unit vector."""
        vectors = self._unit_vectors()
        cx, cy, cz = vectors[i]
        return [x * cx + y * cy + z * cz for x, y, z in vectors]

    def _input_dots(self, dots: Sequence[float]) -> list[float]:
        """One dot per input coordinate, ascending."""
        return sorted(dots if len(dots) == len(self.index) else [dots[i] for i in self.index])

    def inside(self, dots: Sequence[float], centre: GeoCoord, radius_km: float) -> list[bool]:
        """haversine_km(p, centre) <= radius_km for every distinct point, from centre's dots."""
        above, below = _chord_band(radius_km)
        # inside by chord, outside by chord, or too close to call: haversine_km decides
        return [
            dot > above or (dot >= below and haversine_km(p, centre) <= radius_km)
            for p, dot in zip(self.points, dots)
        ]

    def counts_in(self, dots: Sequence[float], centre: GeoCoord, radii_km: Sequence[float]) -> list[int]:
        """How many input coordinates lie within each radius of centre, from one sort of centre's dots."""
        ordered = self._input_dots(dots)
        n = len(ordered)
        counts = []
        for radius_km in radii_km:
            above, below = _chord_band(radius_km)
            not_above = bisect_right(ordered, above)
            count = n - not_above  # inside by chord
            if bisect_left(ordered, below) < not_above:
                # some dots are too close to call: haversine_km decides those
                count += sum(
                    k
                    for p, k, dot in zip(self.points, self.counts, dots)
                    if below <= dot <= above and haversine_km(p, centre) <= radius_km
                )
            counts.append(count)
        return counts

    def nth_nearest_km(self, dots: Sequence[float], centre: GeoCoord, nth: int) -> float:
        """The nth smallest haversine_km(p, centre) over the input coordinates, from 1.

        Two points whose dots differ by more than CHORD_MARGIN lie in the
        same order by haversine_km, so the points more than CHORD_MARGIN
        above the nth largest dot all come first, those more than
        CHORD_MARGIN below it all come after, and only the points in between
        are measured.
        """
        ordered = self._input_dots(dots)
        if not 0 < nth <= len(ordered):
            raise ValueError(f"no {nth}th nearest of {len(ordered)} points")
        pivot = ordered[-nth]  # the nth largest
        above = pivot + CHORD_MARGIN
        below = pivot - CHORD_MARGIN
        band = [
            (haversine_km(p, centre), n) for p, n, dot in zip(self.points, self.counts, dots) if below <= dot <= above
        ]
        if len(band) == 1:
            return band[0][0]
        seen = len(ordered) - bisect_right(ordered, above)
        for distance, n in sorted(band):  # the band holds the nth largest dot, so the count gets there
            seen += n
            if seen >= nth:
                break
        return distance

    def within_km(self, centre: GeoCoord, radius_km: float) -> list[bool]:
        """haversine_km(p, centre) <= radius_km for every distinct point."""
        return self.inside(self.dots(centre), centre, radius_km)

    def count_within_km(self, centre: GeoCoord, radius_km: float) -> int:
        """How many input coordinates lie within radius_km of centre."""
        return self.counts_in(self.dots(centre), centre, (radius_km,))[0]


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
    lons = sorted([p.lon for p in points])
    if lons[-1] - lons[0] > 180.0:
        warnings.warn(
            "longitude span exceeds 180 degrees; arithmetic median is unreliable near the antimeridian",
            RuntimeWarning,
            stacklevel=2,
        )
    return GeoCoord(_middle(sorted([p.lat for p in points])), _middle(lons))
