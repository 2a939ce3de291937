"""Geographic primitives: coordinates, great-circle distance, coordinate medians.

All distances are great-circle kilometers on a sphere of radius 6371 km.
Degree-stepped radii from other tools are converted at 111 km per degree.
"""

import math
import warnings
from dataclasses import dataclass
from statistics import median

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
