import math
import random
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from popgeo import evaluate as ev
from popgeo.extract import PoP, PopMap
from popgeo.geo import GeoCoord, coordinate_median, destination_point, haversine_km
from popgeo.geodb import synth_db
from popgeo.ingest import ParseError, load_ip2as
from popgeo.iputil import int_to_ip, ip_to_int
from popgeo.locate import PoPLocation, VoteConfig, locate_popmap

from conftest import make_pop, make_popmap, point_db

CFG = VoteConfig()


def _grid_popmap(pop_count=4, size=5, asn=100):
    pops = []
    for p in range(pop_count):
        ips = [f"10.0.{p}.{h}" for h in range(1, size + 1)]
        pops.append(make_pop(ips[0], ips, asn=asn))
    return make_popmap(*pops)


def _db_at(name, popmap, coords_by_pop, nulls=()):
    mapping = {}
    for pop in popmap.pops:
        for ip in pop.members():
            mapping[ip] = None if ip in nulls else coords_by_pop[pop.id]
    return point_db(name, mapping)


class TestNullStats:
    def test_full_coverage(self):
        popmap = _grid_popmap()
        coords = {p.id: (10.0, 10.0) for p in popmap.pops}
        db = _db_at("d", popmap, coords)
        stats = ev.null_stats(popmap, popmap, db)
        assert (stats.pct_null_ip_core, stats.pct_null_pop_core) == (0.0, 0.0)
        assert (stats.pct_null_ip_all, stats.pct_null_pop_all) == (0.0, 0.0)

    def test_all_null(self):
        popmap = _grid_popmap()
        db = point_db("d", {})
        stats = ev.null_stats(popmap, popmap, db)
        assert (stats.pct_null_ip_core, stats.pct_null_pop_core) == (100.0, 100.0)

    def test_spread_nulls(self):
        # 10 addresses in 2 PoPs, 3 nulls, no PoP entirely null
        popmap = _grid_popmap(pop_count=2, size=5)
        coords = {p.id: (1.0, 1.0) for p in popmap.pops}
        db = _db_at("d", popmap, coords, nulls={"10.0.0.1", "10.0.0.2", "10.0.1.1"})
        stats = ev.null_stats(popmap, popmap, db)
        assert stats.pct_null_ip_core == 30.0
        assert stats.pct_null_pop_core == 0.0

    def test_singleton_map_counted_separately(self):
        core = make_popmap(make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"]))
        full = make_popmap(make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"], singletons=["10.0.0.9"]))
        db = point_db("d", {"10.0.0.1": (1, 1), "10.0.0.2": (1, 1)})  # singleton null
        stats = ev.null_stats(core, full, db)
        assert stats.pct_null_ip_core == 0.0
        assert stats.pct_null_ip_all == pytest.approx(100 / 3)

    def test_empty_map_rejected(self):
        db = point_db("d", {})
        with pytest.raises(ValueError):
            ev.null_stats(PopMap(()), PopMap(()), db)

    @given(st.lists(st.booleans(), min_size=10, max_size=10), st.integers(0, 4))
    def test_matches_brute_force_counter(self, null_flags, seed):
        popmap = _grid_popmap(pop_count=2, size=5)
        ips = popmap.member_ips()
        nulls = {ip for ip, f in zip(ips, null_flags) if f}
        coords = {p.id: (1.0, 1.0) for p in popmap.pops}
        db = _db_at("d", popmap, coords, nulls=nulls)
        stats = ev.null_stats(popmap, popmap, db)
        # independent recount straight off the query grid
        total = null_ip = 0
        full_null_pops = 0
        for pop in popmap.pops:
            pop_nulls = sum(1 for ip in pop.members() if db.query(ip).is_null)
            total += len(pop.members())
            null_ip += pop_nulls
            full_null_pops += pop_nulls == len(pop.members())
        assert stats.pct_null_ip_core == pytest.approx(100 * null_ip / total)
        assert stats.pct_null_pop_core == pytest.approx(100 * full_null_pops / len(popmap.pops))


class TestConvergenceCdf:
    def test_noise_free_all_at_first_step(self):
        popmap = _grid_popmap()
        coords = {p.id: (10.0 + i, 10.0) for i, p in enumerate(popmap.pops)}
        db = _db_at("d", popmap, coords)
        series = ev.convergence_cdf(
            "d", locate_popmap(popmap, [db], VoteConfig(step_km=1.0, max_radius_km=500.0)).values()
        )
        series.validate()
        assert series.points == ((1.0, 1.0),)
        assert series.tail_count == 0

    def test_all_null_half_plateaus(self):
        popmap = _grid_popmap(pop_count=4)
        coords = {p.id: (10.0, 10.0) for p in popmap.pops}
        nulls = {ip for p in popmap.pops[:2] for ip in p.members()}
        db = _db_at("d", popmap, coords, nulls=nulls)
        series = ev.convergence_cdf("d", locate_popmap(popmap, [db], CFG).values())
        series.validate()
        assert series.points[-1][1] == 0.5
        assert series.tail_count == 2

    def test_validate_catches_non_monotone(self):
        bad = ev.CdfSeries("x", ((1.0, 0.5), (1.0, 0.6)), 2)
        with pytest.raises(ValueError):
            bad.validate()


def _agreement_cdf(popmap, db, radius_km):
    """agreement_cdf of db at one radius, per-PoP agreement computed here."""
    per_pop = [ev.pop_agreement(pop, db, [radius_km]) for pop in popmap.pops]
    (series,) = ev.agreement_cdf(db.name, [radius_km], per_pop)
    return series


def _brute_force_agreement(pop, db, radius_km):
    """Reference: an independent all-pairs count at a single radius."""
    coords = [c for c in (db.query(ip).coord for ip in pop.members()) if c is not None]
    if not coords:
        return None
    candidates = coords + [coordinate_median(coords)]
    best = max(sum(1 for c in coords if haversine_km(c, cand) <= radius_km) for cand in candidates)
    return best / len(coords)


class TestAgreementCdf:
    def test_identical_placements(self):
        popmap = _grid_popmap()
        coords = {p.id: (20.0, 20.0) for p in popmap.pops}
        db = _db_at("d", popmap, coords)
        series = _agreement_cdf(popmap, db, 100.0)
        assert series.points == ((1.0, 1.0),)

    def test_split_three_two_at_100km(self):
        pop = make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 6)])
        popmap = make_popmap(pop)
        a = GeoCoord(0, 0)
        b = destination_point(a, 1.0, 600.0)
        db = point_db(
            "d",
            {
                "10.0.0.1": (a.lat, a.lon),
                "10.0.0.2": (a.lat, a.lon),
                "10.0.0.3": (a.lat, a.lon),
                "10.0.0.4": (b.lat, b.lon),
                "10.0.0.5": (b.lat, b.lon),
            },
        )
        series = _agreement_cdf(popmap, db, 100.0)
        assert series.points == ((0.6, 1.0),)

    def test_wider_radius_catches_split(self):
        pop = make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 6)])
        popmap = make_popmap(pop)
        a = GeoCoord(0, 0)
        b = destination_point(a, 1.0, 300.0)
        mapping = {f"10.0.0.{h}": (a.lat, a.lon) for h in (1, 2, 3)}
        mapping.update({f"10.0.0.{h}": (b.lat, b.lon) for h in (4, 5)})
        db = point_db("d", mapping)
        at_100 = _agreement_cdf(popmap, db, 100.0)
        at_500 = _agreement_cdf(popmap, db, 500.0)
        assert at_100.points == ((0.6, 1.0),)
        assert at_500.points == ((1.0, 1.0),)

    def test_all_null_pops_excluded(self):
        popmap = _grid_popmap(pop_count=3)
        coords = {p.id: (5.0, 5.0) for p in popmap.pops}
        nulls = set(popmap.pops[0].members())
        db = _db_at("d", popmap, coords, nulls=nulls)
        series = _agreement_cdf(popmap, db, 100.0)
        assert series.excluded_count == 1
        assert series.total == 2

    @given(st.integers(0, 2**30))
    @settings(max_examples=25)
    def test_agreement_monotone_in_radius(self, seed):
        rng = random.Random(seed)
        pop = make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 9)])
        mapping = {}
        for h in range(1, 9):
            if rng.random() < 0.2:
                mapping[f"10.0.0.{h}"] = None
            else:
                mapping[f"10.0.0.{h}"] = (rng.uniform(-60, 60), rng.uniform(-170, 170))
        db = point_db("d", mapping)
        agreement = ev.pop_agreement(pop, db, [100.0, 500.0])
        if agreement is not None:
            a100, a500 = agreement
            assert a500 >= a100

    @given(
        st.integers(0, 2**30),
        st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=4),
    )
    @settings(max_examples=50)
    def test_multi_radius_matches_per_radius_brute_force(self, seed, radii):
        rng = random.Random(seed)
        centre = GeoCoord(rng.uniform(-89, 89), rng.uniform(-180, 180))
        mapping = {}
        for h in range(1, 11):
            roll = rng.random()
            if roll < 0.15:
                mapping[f"10.0.0.{h}"] = None
                continue
            # about half the located answers lie at one of the radii from the centre
            distance = rng.choice(radii) if roll < 0.6 else rng.uniform(0.0, 3000.0)
            p = destination_point(centre, rng.uniform(0.0, 2 * math.pi), distance)
            mapping[f"10.0.0.{h}"] = (p.lat, p.lon)
        mapping["10.0.0.11"] = (centre.lat, centre.lon)
        pop = make_pop("10.0.0.1", list(mapping))
        db = point_db("d", mapping)
        # radii that some answer reaches exactly, in the order agreement measures it
        located = [GeoCoord(*v) for v in mapping.values() if v is not None]
        radii = radii + [haversine_km(rng.choice(located), centre) for _ in range(2)]
        expected = tuple(_brute_force_agreement(pop, db, r) for r in radii)
        assert ev.pop_agreement(pop, db, radii) == expected


    @given(
        st.integers(0, 2**30),
        st.lists(st.floats(0.001, 3000.0), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    def test_repeated_answers_match_brute_force(self, seed, radii):
        # answers come from a pool of at most four coordinates, so most repeat
        rng = random.Random(seed)
        centre = GeoCoord(rng.uniform(-89, 89), rng.uniform(-180, 180))
        pool = [centre] + [
            destination_point(centre, rng.uniform(0.0, 2 * math.pi), rng.choice(radii))
            for _ in range(rng.randint(0, 3))
        ]
        mapping = {}
        for h in range(1, rng.randint(2, 16)):
            coord = None if rng.random() < 0.15 else rng.choice(pool)
            mapping[f"10.0.0.{h}"] = None if coord is None else (coord.lat, coord.lon)
        pop = make_pop("10.0.0.1", list(mapping))
        db = point_db("d", mapping)
        located = [GeoCoord(*v) for v in mapping.values() if v is not None]
        if not located:
            assert ev.pop_agreement(pop, db, radii) is None
            return
        # a radius that one answer reaches exactly from another
        radii = radii + [haversine_km(rng.choice(located), rng.choice(located))]
        expected = tuple(_brute_force_agreement(pop, db, r) for r in radii)
        assert ev.pop_agreement(pop, db, radii) == expected


def _deviation(popmap, dbs, db):
    """deviation_samples of db against the vote of dbs, votes computed here."""
    return ev.deviation_samples(
        popmap, db, locate_popmap(popmap, dbs, CFG), locate_popmap(popmap, [db], CFG)
    )


class TestDeviation:
    def test_agreeing_database_has_zero_deviation(self):
        popmap = _grid_popmap()
        coords = {p.id: (30.0 + i, 40.0) for i, p in enumerate(popmap.pops)}
        dbs = [_db_at(n, popmap, coords) for n in ("a", "b", "c")]
        report = _deviation(popmap, dbs, dbs[0])
        assert report.skipped_pops == 0
        assert len(report.samples) == len(popmap.member_ips())
        assert all(s.deviation_km == 0.0 for s in report.samples)
        assert all(s.range_km == CFG.step_km for s in report.samples)

    def test_headquarters_pin_shows_up(self):
        popmap = _grid_popmap(pop_count=4, size=5)
        coords = {p.id: (30.0 + i * 3, 40.0) for i, p in enumerate(popmap.pops)}
        honest = [_db_at(n, popmap, coords) for n in ("a", "b", "c", "d")]
        hq = destination_point(GeoCoord(30.0, 40.0), 0.5, 1500.0)
        pinned = point_db("pinned", {ip: (hq.lat, hq.lon) for ip in popmap.member_ips()})
        report = _deviation(popmap, honest + [pinned], pinned)
        # four honest databases outvote the pin, so every sample's deviation
        # is the exact HQ-to-truth distance of its PoP
        by_pop = {ip: pop.id for pop in popmap.pops for ip in pop.members()}
        for s in report.samples:
            truth = GeoCoord(*coords[by_pop[s.ip]])
            assert s.deviation_km == pytest.approx(haversine_km(hq, truth), abs=1e-6)
            assert s.deviation_km > 500.0
        honest_report = _deviation(popmap, honest + [pinned], honest[0])
        assert all(s.deviation_km == 0.0 for s in honest_report.samples)

    def test_long_tail_fraction(self):
        popmap = _grid_popmap(pop_count=4, size=5)
        coords = {p.id: (10.0, 10.0 + i) for i, p in enumerate(popmap.pops)}
        honest = [_db_at(n, popmap, coords) for n in ("a", "b", "c")]
        ips = popmap.member_ips()
        far = destination_point(GeoCoord(10.0, 10.0), 1.2, 8000.0)
        mapping = {}
        by_pop = {ip: pop.id for pop in popmap.pops for ip in pop.members()}
        for i, ip in enumerate(ips):
            if i % 20 < 3:  # exactly 15%
                mapping[ip] = (far.lat, far.lon)
            else:
                mapping[ip] = coords[by_pop[ip]]
        tested = point_db("t", mapping)
        report = _deviation(popmap, honest + [tested], tested)
        cdf = report.cdf()
        cdf.validate()
        assert cdf.fraction_beyond(5000.0) == pytest.approx(0.15, abs=0.01)

    def test_null_cross_location_skipped(self):
        popmap = _grid_popmap(pop_count=2)
        coords = {p.id: (1.0, 1.0) for p in popmap.pops}
        nulls = set(popmap.pops[0].members())
        db = _db_at("a", popmap, coords, nulls=nulls)
        report = _deviation(popmap, [db], db)
        assert report.skipped_pops == 1


def _one_pop(ips):
    """A map holding ips as the members of one PoP."""
    return make_popmap(make_pop(ips[0], ips))


def _correlation_311(x, y):
    """statistics.correlation as Python 3.11 computes it; None where it raises StatisticsError."""
    n = len(x)
    if n < 2:
        return None
    xbar = math.fsum(x) / n
    ybar = math.fsum(y) / n
    sxy = math.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    sxx = math.fsum((d := xi - xbar) * d for xi in x)
    syy = math.fsum((d := yi - ybar) * d for yi in y)
    try:
        return sxy / math.sqrt(sxx * syy)
    except ZeroDivisionError:
        return None


# coordinates to four decimals, and any float a latitude or longitude can hold, subnormals included
_COORD = st.integers(-1_800_000, 1_800_000).map(lambda k: k / 10_000)
_FLOAT = st.one_of(_COORD, st.floats(-180.0, 180.0))


def _vector_pairs(values):
    """Two lists of one length, 0 to 24, drawn from values, repeats and constant runs included."""
    pick = st.one_of(values, st.sampled_from([0.0, 1.0, 45.5]))
    return st.integers(0, 24).flatmap(lambda n: st.tuples(*[st.lists(pick, min_size=n, max_size=n)] * 2))


class TestPearson:
    """evaluate._pearson, the coefficient behind correlation_matrix, without the statistics module."""

    @given(_vector_pairs(_FLOAT))
    @example(([0.0, 0.0, 0.0, 1e-200], [1.0, 2.0, 3.0, 4.0]))  # sxx underflows to 0: None, as 3.11 raised
    def test_is_the_311_formula_bit_for_bit(self, pair):
        xs, ys = pair
        expected = _correlation_311(xs, ys) if len(xs) >= 4 else None
        assert repr(ev._pearson(xs, ys)) == repr(expected)

    @given(_vector_pairs(_COORD))
    def test_is_close_to_statistics_correlation(self, pair):
        xs, ys = pair
        if len(xs) < 4:
            assert ev._pearson(xs, ys) is None
            return
        try:
            expected = statistics.correlation(xs, ys)
        except statistics.StatisticsError:  # a constant vector
            expected = None
        got = ev._pearson(xs, ys)
        assert (got is None) == (expected is None)
        if got is not None:
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)


class TestCorrelation:
    def _ips(self, n):
        return [int_to_ip(ip_to_int("10.0.0.0") + i) for i in range(n)]

    def test_self_correlation_exactly_one(self):
        ips = self._ips(6)
        db = point_db("a", {ip: (i * 1.0, i * 2.0) for i, ip in enumerate(ips)})
        other = point_db("b", {ip: (i * 1.5, i * 0.5) for i, ip in enumerate(ips)})
        m = ev.correlation_matrix([db, other], _one_pop(ips))
        assert m.value("a", "a") == 1.0
        assert m.value("b", "b") == 1.0

    def test_constant_offset_copy(self):
        ips = self._ips(50)
        rng = random.Random(4)
        base = {ip: (rng.uniform(-60, 60), rng.uniform(-170, 170)) for ip in ips}
        a = point_db("a", base)
        b = point_db("b", {ip: (lat + 0.1, lon + 0.1) for ip, (lat, lon) in base.items()})
        m = ev.correlation_matrix([a, b], _one_pop(ips))
        assert m.value("a", "b") == pytest.approx(1.0, abs=1e-9)

    def test_independent_random_uncorrelated(self):
        ips = self._ips(2000)
        rng = random.Random(7)
        a = point_db("a", {ip: (rng.uniform(-80, 80), rng.uniform(-180, 180)) for ip in ips})
        b = point_db("b", {ip: (rng.uniform(-80, 80), rng.uniform(-180, 180)) for ip in ips})
        m = ev.correlation_matrix([a, b], _one_pop(ips))
        assert abs(m.value("a", "b")) < 0.1

    def test_symmetry(self):
        ips = self._ips(10)
        rng = random.Random(5)
        dbs = [
            point_db(n, {ip: (rng.uniform(-60, 60), rng.uniform(-170, 170)) for ip in ips})
            for n in ("a", "b", "c")
        ]
        m = ev.correlation_matrix(dbs, _one_pop(ips))
        for i in range(3):
            for j in range(3):
                assert m.values[i][j] == m.values[j][i]

    def test_degenerate_vector_undefined(self):
        ips = self._ips(5)
        flat = point_db("flat", {ip: (7.0, 7.0) for ip in ips})
        varied = point_db("v", {ip: (i * 1.0, i * 1.0) for i, ip in enumerate(ips)})
        m = ev.correlation_matrix([flat, varied], _one_pop(ips))
        assert m.value("flat", "flat") is None
        assert m.value("flat", "v") is None

    def test_include_nulls_sentinel_drops_correlation(self):
        ips = self._ips(40)
        rng = random.Random(9)
        base = {ip: (rng.uniform(10, 60), rng.uniform(10, 60)) for ip in ips}
        a = point_db("a", base)
        patchy = dict(base)
        for ip in ips[::3]:
            patchy[ip] = None
        b = point_db("b", patchy)
        without = ev.correlation_matrix([a, b], _one_pop(ips), include_nulls=False)
        with_nulls = ev.correlation_matrix([a, b], _one_pop(ips), include_nulls=True)
        assert without.value("a", "b") == pytest.approx(1.0, abs=1e-9)
        assert with_nulls.value("a", "b") < without.value("a", "b")

    def test_fewer_than_two_dbs_rejected(self):
        with pytest.raises(ValueError):
            ev.correlation_matrix([point_db("a", {})], _one_pop(["10.0.0.1"]))


class TestAnomalies:
    def _hq_fixture(self, fraction, pops_per_as=10, size=10):
        pops = []
        truth = {}
        for p in range(pops_per_as):
            ips = [f"10.0.{p}.{h}" for h in range(1, size + 1)]
            pops.append(make_pop(ips[0], ips, asn=100))
            truth[ips[0]] = GeoCoord(10.0 + p, 20.0)
        popmap = make_popmap(*pops)
        denver = GeoCoord(39.74, -104.98)
        db = synth_db(truth, popmap, hq_override=(100, denver, fraction), seed=3, name="hq")
        return popmap, db, denver

    def test_hq_fixture_flagged(self):
        popmap, db, denver = self._hq_fixture(0.95)
        reports = ev.detect_default_location(db, popmap, None)
        assert len(reports) == 1
        report = reports[0]
        assert report.asn == 100
        assert report.share == pytest.approx(0.95, abs=0.02)
        assert haversine_km(report.dominant_coord, denver) < 2.0

    @pytest.mark.parametrize("noise", [0.0, 5.0, 10.0])
    def test_honest_database_not_flagged(self, noise):
        popmap, _, _ = self._hq_fixture(0.0)
        truth = {p.id: GeoCoord(10.0 + i, 20.0) for i, p in enumerate(popmap.pops)}
        honest = synth_db(truth, popmap, noise_km=noise, seed=8, name="honest")
        assert ev.detect_default_location(honest, popmap, None) == []

    def test_small_as_not_flagged(self):
        popmap = make_popmap(make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 11)]))
        db = point_db("d", {ip: (5.0, 5.0) for ip in popmap.member_ips()})
        assert ev.detect_default_location(db, popmap, None, min_ips=50) == []
        flagged = ev.detect_default_location(db, popmap, None, min_ips=10)
        assert len(flagged) == 1 and flagged[0].ip_count == 10

    @pytest.mark.parametrize("lat", [90.0, -90.0])
    def test_pole_bucket_stays_on_the_sphere(self, lat):
        # 0.7-degree buckets put a pole in bucket +-129, and 129 * 0.7 = 90.3
        popmap = make_popmap(make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 61)]))
        db = point_db("d", {ip: (lat, 0.0) for ip in popmap.member_ips()})
        reports = ev.detect_default_location(db, popmap, None, rounding_deg=0.7)
        assert [(r.dominant_coord, r.share, r.ip_count) for r in reports] == [(GeoCoord(lat, 0.0), 1.0, 60)]

    def test_prefix_map_authority(self):
        popmap = make_popmap(
            make_pop("10.0.0.1", [f"10.0.0.{h}" for h in range(1, 31)], asn=1),
            make_pop("10.1.0.1", [f"10.1.0.{h}" for h in range(1, 31)], asn=2),
        )
        prefix_map = load_ip2as(["10.0.0.0/16,1", "10.1.0.0/16,2"])
        db = point_db("d", {ip: (9.0, 9.0) for ip in popmap.member_ips()})
        reports = ev.detect_default_location(db, popmap, prefix_map, min_ips=30)
        assert [r.asn for r in reports] == [1, 2]


class TestChurn:
    def test_identical_snapshots(self):
        ips = [f"10.0.0.{h}" for h in range(1, 11)]
        db = point_db("a", {ip: (1.0, 1.0) for ip in ips})
        assert ev.churn(db, db, _one_pop(ips)) == 0.0

    def test_fractional_moves(self):
        ips = [int_to_ip(ip_to_int("10.0.0.0") + i) for i in range(1000)]
        old = point_db("old", {ip: (10.0, 10.0) for ip in ips})
        new_mapping = {ip: (10.0, 10.0) for ip in ips}
        moved = destination_point(GeoCoord(10.0, 10.0), 0.7, 50.0)
        for ip in ips[:24]:
            new_mapping[ip] = (moved.lat, moved.lon)
        new = point_db("new", new_mapping)
        assert ev.churn(old, new, _one_pop(ips)) == pytest.approx(0.024)

    def test_null_flip_counts(self):
        ips = ["10.0.0.1", "10.0.0.2"]
        old = point_db("old", {"10.0.0.1": (1, 1), "10.0.0.2": (1, 1)})
        new = point_db("new", {"10.0.0.1": (1, 1), "10.0.0.2": None})
        assert ev.churn(old, new, _one_pop(ips)) == 0.5

    def test_jitter_below_epsilon_ignored(self):
        ips = ["10.0.0.1"]
        near = destination_point(GeoCoord(1, 1), 0.1, 0.5)
        old = point_db("old", {"10.0.0.1": (1, 1)})
        new = point_db("new", {"10.0.0.1": (near.lat, near.lon)})
        assert ev.churn(old, new, _one_pop(ips), epsilon_km=1.0) == 0.0
        assert ev.churn(old, new, _one_pop(ips), epsilon_km=0.1) == 1.0

    def test_empty_universe_rejected(self):
        db = point_db("a", {})
        with pytest.raises(ValueError):
            ev.churn(db, db, PopMap(()))


class TestRegions:
    def _located_popmap(self):
        popmap = _grid_popmap(pop_count=3)
        locs = [
            PoPLocation(popmap.pops[0].id, GeoCoord(48.8, 2.3), 1.0, 1.0, 1.0, True),
            PoPLocation(popmap.pops[1].id, GeoCoord(39.0, -100.0), 1.0, 1.0, 1.0, True),
            PoPLocation(popmap.pops[2].id, None, None, 0.0, 0.0, False),
        ]
        return popmap, locs

    def test_world_keeps_located_pops(self):
        popmap, locs = self._located_popmap()
        world = ev.filter_by_region(popmap, locs, ev.BUILTIN_REGIONS["world"])
        assert [p.id for p in world.pops] == [p.id for p in popmap.pops[:2]]

    def test_europe_box(self):
        popmap, locs = self._located_popmap()
        eu = ev.filter_by_region(popmap, locs, ev.BUILTIN_REGIONS["europe"])
        assert [p.id for p in eu.pops] == [popmap.pops[0].id]

    def test_usa_box(self):
        popmap, locs = self._located_popmap()
        usa = ev.filter_by_region(popmap, locs, ev.BUILTIN_REGIONS["usa"])
        assert [p.id for p in usa.pops] == [popmap.pops[1].id]

    def test_null_location_excluded_everywhere(self):
        popmap, locs = self._located_popmap()
        for region in ev.BUILTIN_REGIONS.values():
            kept = ev.filter_by_region(popmap, locs, region)
            assert popmap.pops[2].id not in [p.id for p in kept.pops]

    def test_load_regions_unions_rows(self):
        specs = ev.load_regions(
            [
                "americas,24,50,-125,-66",
                "americas,-56,13,-82,-34",
                "# comment",
                "oceania,-48,0,110,180",
            ]
        )
        assert set(specs) == {"americas", "oceania"}
        assert len(specs["americas"].boxes) == 2
        assert specs["americas"].contains(GeoCoord(-30.0, -60.0))
        assert not specs["oceania"].contains(GeoCoord(-30.0, -60.0))

    def test_malformed_region_rejected(self):
        with pytest.raises(Exception):
            ev.load_regions(["bad,1,2"])

    @pytest.mark.parametrize("row", ["weird,50,40,0,10", "weird,40,50,10,0"])
    def test_inverted_box_is_parse_error(self, row):
        with pytest.raises(ParseError, match="regions line 2: region weird: malformed box"):
            ev.load_regions(["ok,1,2,3,4", row])


class TestCdfSeries:
    def test_from_values_dedupes_and_accumulates(self):
        series = ev.CdfSeries.from_values("x", [3.0, 1.0, 1.0, 2.0])
        assert series.points == ((1.0, 0.5), (2.0, 0.75), (3.0, 1.0))
        series.validate()

    def test_tail_keeps_final_fraction_below_one(self):
        series = ev.CdfSeries.from_values("x", [1.0, 2.0], tail_count=2)
        assert series.points[-1][1] == 0.5
        series.validate()

    def test_fraction_beyond(self):
        series = ev.CdfSeries.from_values("x", [1.0, 10.0, 6000.0, 7000.0])
        assert series.fraction_beyond(5000.0) == 0.5
        assert series.fraction_beyond(7000.0) == 0.0
