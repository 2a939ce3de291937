import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from popgeo.geo import (
    EARTH_RADIUS_KM,
    DistinctPoints,
    GeoCoord,
    coordinate_median,
    deg_to_km,
    destination_point,
    distances_km,
    haversine_km,
)

ONE_DEGREE_KM = 111.19492664455873  # pi/180 * 6371

lats = st.floats(min_value=-90, max_value=90, allow_nan=False)
lons = st.floats(min_value=-180, max_value=180, allow_nan=False)
coords = st.builds(GeoCoord, lats, lons)


def law_of_cosines_km(a, b):
    """Independent spherical distance via the law of cosines."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    v = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, v)))


class TestGeoCoord:
    def test_valid(self):
        c = GeoCoord(10.5, -20.25)
        assert (c.lat, c.lon) == (10.5, -20.25)

    @pytest.mark.parametrize("lat", [-90.001, 91, 1e9])
    def test_lat_out_of_range(self, lat):
        with pytest.raises(ValueError):
            GeoCoord(lat, 0)

    @pytest.mark.parametrize("lon,expected", [(190, -170), (-190, 170), (360, 0), (540, -180)])
    def test_lon_wraps(self, lon, expected):
        assert GeoCoord(0, lon).lon == pytest.approx(expected)

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_lon_rejected(self, lon):
        with pytest.raises(ValueError, match="longitude"):
            GeoCoord(10, lon)

    def test_boundary_lons_kept(self):
        assert GeoCoord(0, 180).lon == 180
        assert GeoCoord(0, -180).lon == -180


class TestHaversine:
    def test_identity(self):
        assert haversine_km(GeoCoord(10, 20), GeoCoord(10, 20)) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_km(GeoCoord(0, 0), GeoCoord(1, 0))
        assert d == pytest.approx(111.19, abs=0.01)

    def test_cross_formula_agreement(self):
        berlin = GeoCoord(52.52, 13.405)
        paris = GeoCoord(48.8566, 2.3522)
        d = haversine_km(berlin, paris)
        assert abs(d - law_of_cosines_km(berlin, paris)) < 0.1
        assert d == pytest.approx(877.4633, abs=0.1)

    @given(coords, coords)
    def test_symmetric_and_nonnegative(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)
        assert haversine_km(a, b) >= 0.0

    @given(coords)
    def test_self_distance_zero(self, a):
        assert haversine_km(a, a) == 0.0

    @given(st.floats(min_value=-80, max_value=80, allow_nan=False), lons)
    def test_meridian_degree(self, lat, lon):
        d = haversine_km(GeoCoord(lat, lon), GeoCoord(lat + 1, lon))
        assert abs(d - ONE_DEGREE_KM) / ONE_DEGREE_KM < 0.002


class TestDegToKm:
    @pytest.mark.parametrize("deg,km", [(0, 0), (0.01, 1.11), (5, 555), (1, 111)])
    def test_values(self, deg, km):
        assert deg_to_km(deg) == pytest.approx(km)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            deg_to_km(-0.5)


class TestDestinationPoint:
    @given(coords, st.floats(min_value=0, max_value=6.28), st.floats(min_value=0, max_value=5000))
    def test_roundtrip_distance(self, origin, bearing, dist):
        target = destination_point(origin, bearing, dist)
        assert haversine_km(origin, target) == pytest.approx(dist, abs=1e-6)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_point(GeoCoord(0, 0), 0.0, -1.0)


class TestCoordinateMedian:
    def test_single_point(self):
        assert coordinate_median([GeoCoord(5, 5)]) == GeoCoord(5, 5)

    def test_majority_point(self):
        pts = [GeoCoord(0, 0), GeoCoord(0, 0), GeoCoord(10, 10)]
        assert coordinate_median(pts) == GeoCoord(0, 0)

    def test_even_count_means_middle_pair(self):
        pts = [GeoCoord(0, 0), GeoCoord(2, 4), GeoCoord(4, 2), GeoCoord(6, 6)]
        assert coordinate_median(pts) == GeoCoord(3, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coordinate_median([])

    def test_antimeridian_straddle_warns(self):
        with pytest.warns(RuntimeWarning):
            coordinate_median([GeoCoord(0, 179.5), GeoCoord(0, -179.5)])

    @given(st.lists(coords, min_size=1, max_size=12), st.randoms())
    def test_permutation_invariant(self, pts, rnd):
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert coordinate_median(shuffled) == coordinate_median(pts)

    @given(st.lists(coords, min_size=1, max_size=11).filter(lambda p: len(p) % 2 == 1))
    def test_odd_length_components_from_input(self, pts):
        m = coordinate_median(pts)
        assert m.lat in [p.lat for p in pts]
        assert m.lon in [p.lon for p in pts]


HALF_CIRCUMFERENCE_KM = math.pi * EARTH_RADIUS_KM  # ~20,015 km


def _boundary_case(rng):
    """A centre, answers that repeat, sit near its antipode or exactly at a radius, and radii."""
    centre = GeoCoord(rng.uniform(-90, 90), rng.uniform(-180, 180))
    antipode = GeoCoord(-centre.lat, centre.lon + 180.0)
    radii = [10 ** rng.uniform(-3, math.log10(HALF_CIRCUMFERENCE_KM)) for _ in range(2)]
    radii += [0.001, HALF_CIRCUMFERENCE_KM]
    points = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.3:
            p = destination_point(centre, rng.uniform(0, 2 * math.pi), rng.choice(radii))
        elif roll < 0.55:
            # within a few metres of the antipode, where haversine_km is least accurate
            p = destination_point(antipode, rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.01))
        elif roll < 0.7 and points:
            p = rng.choice(points)
        else:
            p = GeoCoord(rng.uniform(-90, 90), rng.uniform(-180, 180))
        points.append(p)
    # radii that an answer reaches exactly, as measured by haversine_km
    radii += [haversine_km(rng.choice(points), centre) for _ in range(2)]
    return centre, points, radii


class TestChordScreen:
    @given(st.integers(0, 2**32))
    @settings(max_examples=400)
    def test_within_matches_haversine(self, seed):
        centre, points, radii = _boundary_case(random.Random(seed))
        answers = DistinctPoints(points)
        for radius in radii:
            assert answers.within_km(centre, radius) == [
                haversine_km(p, centre) <= radius for p in answers.points
            ]
            assert answers.count_within_km(centre, radius) == sum(
                1 for p in points if haversine_km(p, centre) <= radius
            )

    @given(st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_answers_are_centres_too(self, seed):
        # the vote and agreement test every distinct answer as a centre
        _, points, radii = _boundary_case(random.Random(seed))
        answers = DistinctPoints(points)
        for centre in answers.points:
            for radius in radii:
                assert answers.count_within_km(centre, radius) == sum(
                    1 for p in points if haversine_km(p, centre) <= radius
                )

    def test_radius_beyond_half_circumference_holds_everything(self):
        centre = GeoCoord(10.0, 20.0)
        antipode = GeoCoord(-10.0, -160.0)
        answers = DistinctPoints([centre, antipode])
        assert answers.within_km(centre, 25_000.0) == [True, True]
        assert answers.within_km(centre, -1.0) == [False, False]

    def test_repeats_counted_once_with_multiplicity(self):
        a, b = GeoCoord(1.0, 2.0), GeoCoord(3.0, 4.0)
        answers = DistinctPoints([a, b, a, a])
        assert answers.points == [a, b]
        assert answers.counts == [3, 1]
        assert answers.index == [0, 1, 0, 0]

    @given(coords, st.lists(coords, max_size=8))
    def test_distances_bit_identical(self, centre, points):
        got = distances_km(points, centre)
        assert [d.hex() for d in got] == [haversine_km(p, centre).hex() for p in points]
