from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from popgeo.geo import DistinctPoints, GeoCoord, haversine_km
from popgeo.geodb import (
    GeoRecord,
    PopAnswers,
    load_null_coords,
    load_point_db,
    load_range_db,
    synth_db,
)
from popgeo.ingest import ParseError
from popgeo.iputil import int_to_ip

from conftest import make_pop, make_popmap


class TestRangeDb:
    def test_basic_lookup(self):
        db = load_range_db(["1.0.0.0,1.0.0.255,US,Denver,39.74,-104.98"], "t")
        rec = db.query("1.0.0.7")
        assert rec.city == "Denver"
        assert rec.coord == GeoCoord(39.74, -104.98)

    def test_empty_latlon_is_null_coord(self):
        db = load_range_db(["1.0.0.0,1.0.0.255,US,Denver,,"], "t")
        rec = db.query("1.0.0.7")
        assert rec.coord is None
        assert rec.country == "US"
        assert rec.is_null

    def test_later_line_wins_on_overlap(self):
        db = load_range_db(
            [
                "1.0.0.0,1.0.0.255,US,Denver,39.74,-104.98",
                "1.0.0.16,1.0.0.31,US,Boulder,40.01,-105.27",
            ],
            "t",
        )
        assert db.query("1.0.0.20").city == "Boulder"
        assert db.query("1.0.0.7").city == "Denver"
        assert db.query("1.0.0.200").city == "Denver"

    def test_closed_interval_boundaries(self):
        db = load_range_db(["1.0.0.10,1.0.0.20,US,X,1,1"], "t")
        assert db.query("1.0.0.10").city == "X"
        assert db.query("1.0.0.20").city == "X"
        assert db.query("1.0.0.9").is_null
        assert db.query("1.0.0.21").is_null

    def test_gap_returns_null(self):
        db = load_range_db(
            ["1.0.0.0,1.0.0.9,US,X,1,1", "1.0.0.20,1.0.0.29,US,Y,2,2"], "t"
        )
        assert db.query("1.0.0.15") == GeoRecord()

    def test_start_above_end_rejected(self):
        with pytest.raises(ParseError):
            load_range_db(["1.0.0.9,1.0.0.0,US,X,1,1"], "t")

    def test_malformed_ip_rejected(self):
        with pytest.raises(ParseError):
            load_range_db(["one,1.0.0.9,US,X,1,1"], "t")

    def test_quoted_city_with_comma(self):
        db = load_range_db(['1.0.0.0,1.0.0.9,US,"Washington, DC",38.9,-77.0'], "t")
        assert db.query("1.0.0.1").city == "Washington, DC"

    @given(
        st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 120), st.integers(1, 50)),
            min_size=1,
            max_size=20,
        )
    )
    def test_later_wins_matches_linear_oracle(self, raw):
        lines = []
        spans = []
        for i, (a, b, city_idx) in enumerate(raw):
            lo, hi = min(a, b), max(a, b)
            lines.append(f"{int_to_ip(lo)},{int_to_ip(hi)},CC,c{city_idx},{i}.0,{i}.0")
            spans.append((lo, hi, f"c{city_idx}"))
        db = load_range_db(lines, "t")
        for probe in range(0, 125):
            expected = None
            for lo, hi, city in spans:  # later lines shadow earlier ones
                if lo <= probe <= hi:
                    expected = city
            assert db.query(int_to_ip(probe)).city == expected


class TestPointDb:
    def test_exact_hit(self):
        db = load_point_db(["2.2.2.2,48.85,2.35"], "t")
        assert db.query("2.2.2.2").coord == GeoCoord(48.85, 2.35)

    def test_absent_is_null(self):
        db = load_point_db(["2.2.2.2,48.85,2.35"], "t")
        assert db.query("3.3.3.3") == GeoRecord()

    def test_duplicate_last_wins(self):
        db = load_point_db(["2.2.2.2,1,1", "2.2.2.2,2,2"], "t")
        assert db.query("2.2.2.2").coord == GeoCoord(2, 2)

    def test_empty_latlon_null(self):
        db = load_point_db(["2.2.2.2,,"], "t")
        assert db.query("2.2.2.2").is_null

    def test_malformed_number_rejected(self):
        with pytest.raises(ParseError):
            load_point_db(["2.2.2.2,abc,1"], "t")

    @pytest.mark.parametrize("lon", ["nan", "inf"])
    def test_non_finite_lon_rejected(self, lon):
        with pytest.raises(ParseError):
            load_point_db([f"10.0.0.1,10.0,{lon}"], "t")


class TestNullCoords:
    def test_listed_coordinate_becomes_null(self):
        null_coords = load_null_coords(["39.0,-77.5", "# country centers", "1.5,2.5"])
        db = load_point_db(
            ["2.2.2.2,39.0,-77.5", "2.2.2.3,10.0,10.0"], "t", null_coords=null_coords
        )
        assert db.query("2.2.2.2").is_null
        assert not db.query("2.2.2.3").is_null

    def test_range_db_honors_null_coords(self):
        null_coords = load_null_coords(["39.0,-77.5"])
        db = load_range_db(
            ["1.0.0.0,1.0.0.9,US,Center,39.0,-77.5"], "t", null_coords=null_coords
        )
        rec = db.query("1.0.0.5")
        assert rec.is_null
        assert rec.country == "US"


def _truth_fixture():
    pops = [
        make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2", "10.0.0.3"], asn=100),
        make_pop("10.0.1.1", ["10.0.1.1", "10.0.1.2", "10.0.1.3"], asn=100),
        make_pop("10.0.2.1", ["10.0.2.1", "10.0.2.2", "10.0.2.3"], asn=200),
    ]
    popmap = make_popmap(*pops)
    truth = {
        "10.0.0.1": GeoCoord(40.0, -105.0),
        "10.0.1.1": GeoCoord(48.0, 2.0),
        "10.0.2.1": GeoCoord(-33.0, 151.0),
    }
    return truth, popmap


class TestSynthDb:
    def test_noise_free_is_exact(self):
        truth, popmap = _truth_fixture()
        db = synth_db(truth, popmap, noise_km=0, null_rate=0, seed=1)
        for pop in popmap.pops:
            for ip in pop.members():
                assert db.query(ip).coord == truth[pop.id]

    def test_full_null_rate(self):
        truth, popmap = _truth_fixture()
        db = synth_db(truth, popmap, null_rate=1.0, seed=1)
        assert all(db.query(ip).is_null for p in popmap.pops for ip in p.members())

    def test_noise_bounded(self):
        truth, popmap = _truth_fixture()
        db = synth_db(truth, popmap, noise_km=7.5, seed=5)
        for pop in popmap.pops:
            for ip in pop.members():
                coord = db.query(ip).coord
                assert haversine_km(coord, truth[pop.id]) <= 7.5 + 1e-9

    def test_hq_override_share(self):
        truth, popmap = _truth_fixture()
        denver = GeoCoord(39.74, -104.98)
        db = synth_db(truth, popmap, hq_override=(100, denver, 0.95), seed=2)
        as100 = [ip for p in popmap.pops if p.asn == 100 for ip in p.members()]
        pinned = sum(1 for ip in as100 if db.query(ip).coord == denver)
        assert pinned == round(0.95 * len(as100))
        # the other AS is untouched
        assert all(
            db.query(ip).coord == truth["10.0.2.1"]
            for ip in popmap.pops[2].members()
        )

    def test_seed_determinism(self):
        truth, popmap = _truth_fixture()
        a = synth_db(truth, popmap, noise_km=3, null_rate=0.3, seed=9)
        b = synth_db(truth, popmap, noise_km=3, null_rate=0.3, seed=9)
        assert a.point_entries() == b.point_entries()
        c = synth_db(truth, popmap, noise_km=3, null_rate=0.3, seed=10)
        assert a.point_entries() != c.point_entries()

    def test_bad_rates_rejected(self):
        truth, popmap = _truth_fixture()
        with pytest.raises(ValueError):
            synth_db(truth, popmap, null_rate=1.5)
        with pytest.raises(ValueError):
            synth_db(truth, popmap, noise_km=-1)


class TestQueryDeterminism:
    @given(st.integers(0, 300), st.randoms())
    def test_same_query_same_record(self, probe, rnd):
        rows = ["1.0.0.0,1.0.1.255,AA,a,1,1", "1.0.1.0,1.0.2.128,BB,b,2,2"]
        db = load_range_db(rows, "t")
        ip = int_to_ip(16777216 + probe)  # inside 1.0.0.0/16
        assert db.query(ip) == db.query(ip)


# answers from a few sites, so identical answers and nulls recur
_SITE_ANSWERS = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from([GeoCoord(0.0, 0.0), GeoCoord(48.85, 2.35), GeoCoord(-33.9, 151.2), GeoCoord(89.9, -179.9)]),
        st.builds(GeoCoord, st.floats(-90, 90), st.floats(-180, 180)),
    ),
    max_size=12,
).filter(lambda coords: any(coords))


class TestCandidates:
    @given(_SITE_ANSWERS)
    def test_the_median_then_every_distinct_answer(self, coords):
        record = PopAnswers(coords)
        distinct = record.distinct
        (median, median_row), *rest = record.candidates()
        assert median == record.median
        assert median_row is record.median_dots
        # each distinct located answer once, in first-seen order
        assert [point for point, _ in rest] == list(dict.fromkeys(c for c in coords if c is not None))
        for centre, row in [(median, median_row), *rest]:
            assert repr(row) == repr(distinct.dots(centre))

    @given(_SITE_ANSWERS, st.data())
    def test_a_row_is_computed_only_when_the_scan_reaches_it(self, coords, data):
        record = PopAnswers(coords)
        k = data.draw(st.integers(1, len(record.distinct.points) + 1))
        spy = patch.object(DistinctPoints, "point_dots", autospec=True, side_effect=DistinctPoints.point_dots)
        with spy as point_dots:
            scan = record.candidates()
            for _ in range(k):  # the median's row is median_dots, so k candidates take k - 1 point rows
                next(scan)
        assert [call.args[1] for call in point_dots.call_args_list] == list(range(k - 1))
