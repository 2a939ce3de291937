import math
import random
import re
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from popgeo.geo import GeoCoord, coordinate_median, destination_point, haversine_km
from popgeo.iputil import ip_to_int
from popgeo.locate import (
    MAX_RADII,
    IpElement,
    PoPLocation,
    VoteConfig,
    collect_elements,
    locate_elements,
    locate_pop,
    locate_popmap,
    load_locations,
    majority_vote_range,
    radius_grid,
    refine_location,
    save_locations,
)
from popgeo.ingest import ParseError

from conftest import make_pop, make_popmap, point_db

LONDON = GeoCoord(51.5074, -0.1278)
NEW_YORK = GeoCoord(40.7128, -74.006)


def els(coords, ips=None):
    """IpElements from a list of GeoCoord | None."""
    return [
        IpElement(ips[i] if ips else f"10.0.0.{i + 1}", "db", c)
        for i, c in enumerate(coords)
    ]


def brute_force_range(elements, center, cfg):
    """Naive scan of the full radius schedule, counting per radius."""
    located = [e for e in elements if e.coord is not None]
    grid = []
    k = 1
    while k * cfg.step_km <= cfg.max_radius_km + 1e-9:
        grid.append(k * cfg.step_km)
        k += 1
    if not grid or grid[-1] < cfg.max_radius_km - 1e-9:
        grid.append(cfg.max_radius_km)
    dists = [haversine_km(e.coord, center) for e in located]
    for r in grid:
        if sum(1 for d in dists if d <= r) >= cfg.majority_fraction * len(located):
            return r, True
    return cfg.max_radius_km, False


def _parent_locate_elements(pop_id, elements, cfg):
    """Reference: the vote as it was before identical answers were counted once.

    Every located answer is a candidate and every radius test a haversine_km
    call.
    """
    n = int((cfg.max_radius_km + 1e-9) / cfg.step_km)
    grid = [k * cfg.step_km for k in range(1, n + 1)]
    if not grid or grid[-1] < cfg.max_radius_km - 1e-9:
        grid.append(cfg.max_radius_km)
    total = len(elements)
    located = [e for e in elements if e.coord is not None]
    if not located:
        return PoPLocation(pop_id, None, None, 0.0, 0.0, False)
    center = coordinate_median([e.coord for e in located])
    dists = sorted(haversine_km(e.coord, center) for e in located)
    critical = dists[math.ceil(cfg.majority_fraction * len(located)) - 1]
    i = bisect_left(grid, critical)
    if i < len(grid):
        found_range = grid[i]
        in_range = [e.coord for e in located if haversine_km(e.coord, center) <= found_range]
        coord = coordinate_median(in_range)
        within = sum(1 for e in located if haversine_km(e.coord, coord) <= found_range)
        return PoPLocation(pop_id, coord, found_range, within / total, within / len(located), True)
    candidates = [(e.coord, ip_to_int(e.ip)) for e in located] + [(center, -1)]

    def _coverage(cand):
        return sum(1 for e in located if haversine_km(e.coord, cand) <= cfg.max_radius_km)

    best, _ = min(candidates, key=lambda c: (-_coverage(c[0]), c[0].lat, c[0].lon, c[1]))
    group = [e.coord for e in located if haversine_km(e.coord, best) <= cfg.max_radius_km]
    coord = coordinate_median(group)
    within = sum(1 for e in located if haversine_km(e.coord, coord) <= cfg.max_radius_km)
    return PoPLocation(pop_id, coord, None, within / total, within / len(located), False)


class TestVoteConfig:
    def test_defaults(self):
        cfg = VoteConfig()
        assert (cfg.step_km, cfg.max_radius_km, cfg.majority_fraction) == (1.11, 555.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_km": 0},
            {"step_km": 600, "max_radius_km": 555},
            {"majority_fraction": 0},
            {"majority_fraction": 1.2},
            {"step_km": 1e-9},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            VoteConfig(**kwargs)


class TestRadiusGrid:
    def test_longest_schedule_is_accepted(self):
        assert len(radius_grid(VoteConfig(step_km=1.0, max_radius_km=float(MAX_RADII)))) == MAX_RADII
        with pytest.raises(ValueError):
            VoteConfig(step_km=1.0, max_radius_km=MAX_RADII + 1.0)

    def test_default_grid_reaches_cap_exactly(self):
        grid = radius_grid(VoteConfig())
        assert len(grid) == 500
        assert grid[0] == 1.11
        assert grid[-1] == 555.0

    def test_one_km_steps(self):
        grid = radius_grid(VoteConfig(step_km=1.0, max_radius_km=500.0))
        assert len(grid) == 500
        assert grid[-1] == 500.0

    def test_cap_appended_when_steps_fall_short(self):
        grid = radius_grid(VoteConfig(step_km=1.11, max_radius_km=500.0))
        assert grid[-1] == 500.0
        assert grid[-2] == pytest.approx(499.5)

    def test_degree_cap(self):
        grid = radius_grid(VoteConfig(step_km=1.11, max_radius_km=111.0))
        assert len(grid) == 100

    def test_built_once_per_config_and_immutable(self):
        grid = radius_grid(VoteConfig(step_km=2.0, max_radius_km=10.0))
        assert radius_grid(VoteConfig(step_km=2.0, max_radius_km=10.0)) is grid
        assert grid == (2.0, 4.0, 6.0, 8.0, 10.0)
        with pytest.raises(TypeError):
            grid[0] = 0.0  # shared by every vote with this configuration


class TestCollectElements:
    def test_full_grid(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        dbs = [
            point_db("a", {"10.0.0.1": (1, 1), "10.0.0.2": (1, 1)}),
            point_db("b", {"10.0.0.1": (2, 2), "10.0.0.2": (2, 2)}),
            point_db("c", {}),
        ]
        elements = collect_elements(pop, dbs)
        assert len(elements) == 6
        assert sum(1 for e in elements if e.coord is None) == 2  # db c knows nothing

    def test_missing_ip_yields_null_element(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        db = point_db("a", {"10.0.0.1": (1, 1)})
        elements = collect_elements(pop, [db])
        nulls = [e for e in elements if e.coord is None]
        assert [n.ip for n in nulls] == ["10.0.0.2"]

    def test_include_singletons_adds_rows(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1"], singletons=["10.0.0.9"])
        db = point_db("a", {"10.0.0.1": (1, 1), "10.0.0.9": (1, 1)})
        (core,) = make_popmap(pop).core().pops
        assert len(collect_elements(core, [db])) == 1
        assert len(collect_elements(pop, [db])) == 2


class TestMajorityVoteRange:
    def test_all_at_center(self):
        center = GeoCoord(10, 10)
        cfg = VoteConfig()
        assert majority_vote_range(els([center] * 4), center, cfg) == (1.11, True)

    def test_three_of_five_close(self):
        center = GeoCoord(0, 0)
        near = [destination_point(center, 0.3, d) for d in (1.5, 1.7, 1.9)]
        far = [destination_point(center, 2.0, 1000.0)] * 2
        cfg = VoteConfig(step_km=1.0, max_radius_km=500.0)
        assert majority_vote_range(els(near + far), center, cfg) == (2.0, True)

    def test_no_majority(self):
        center = GeoCoord(0, 0)
        near = [center] * 2
        far = [destination_point(center, 1.0, 2000.0)] * 3
        cfg = VoteConfig(step_km=1.0, max_radius_km=500.0)
        assert majority_vote_range(els(near + far), center, cfg) == (500.0, False)

    def test_nulls_not_counted(self):
        center = GeoCoord(0, 0)
        elements = els([center, None, None, None])
        cfg = VoteConfig()
        assert majority_vote_range(elements, center, cfg) == (1.11, True)

    def test_zero_located_rejected(self):
        with pytest.raises(ValueError):
            majority_vote_range(els([None, None]), GeoCoord(0, 0), VoteConfig())

    @settings(max_examples=120)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.floats(min_value=-80, max_value=80, allow_nan=False),
                    st.floats(min_value=-179, max_value=179, allow_nan=False),
                ),
            ),
            min_size=1,
            max_size=25,
        ).filter(lambda cs: any(c is not None for c in cs)),
        st.sampled_from([(1.0, 500.0), (1.11, 555.0), (1.11, 111.0)]),
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    )
    def test_matches_brute_force(self, raw, preset, frac):
        elements = els([None if c is None else GeoCoord(*c) for c in raw])
        located = [e.coord for e in elements if e.coord is not None]
        center = coordinate_median(located)
        cfg = VoteConfig(step_km=preset[0], max_radius_km=preset[1], majority_fraction=frac)
        assert majority_vote_range(elements, center, cfg) == brute_force_range(elements, center, cfg)


class TestRefineLocation:
    def test_identical_in_range(self):
        p = GeoCoord(5, 5)
        assert refine_location(els([p, p, p]), p, 10.0) == p

    def test_outlier_excluded(self):
        p = GeoCoord(0, 0)
        outlier = GeoCoord(50, 50)
        refined = refine_location(els([p, p, outlier]), p, 10.0)
        assert refined == p

    def test_component_median(self):
        coords = [GeoCoord(0, 0), GeoCoord(0, 2), GeoCoord(0, 4)]
        refined = refine_location(els(coords), GeoCoord(0, 2), 1000.0)
        assert refined == GeoCoord(0, 2)

    def test_no_element_in_range_rejected(self):
        with pytest.raises(ValueError):
            refine_location(els([GeoCoord(50, 50)]), GeoCoord(0, 0), 1.0)


class TestLocateElements:
    def test_all_elements_at_one_point(self):
        p = GeoCoord(12, 34)
        loc = locate_elements("x", els([p] * 6), VoteConfig())
        assert loc.coord == p
        assert loc.range_km == 1.11
        assert loc.majority_found
        assert loc.frac_all == 1.0
        assert loc.frac_located == 1.0

    def test_london_newyork_three_two(self):
        elements = els([LONDON, LONDON, LONDON, NEW_YORK, NEW_YORK])
        loc = locate_elements("x", elements, VoteConfig())
        assert loc.coord == LONDON
        # exhaustive candidate-center check agrees: the London point covers
        # the largest group of votes within the radius cap
        best = max(
            [e.coord for e in elements],
            key=lambda cand: sum(
                1 for e in elements if haversine_km(e.coord, cand) <= 555.0
            ),
        )
        assert best == LONDON

    def test_half_null_database(self):
        p = GeoCoord(10, 10)
        elements = els([p, p, None, None])
        loc = locate_elements("x", elements, VoteConfig())
        assert loc.coord == p
        assert loc.frac_located == 1.0
        assert loc.frac_all == 0.5

    def test_zero_located(self):
        loc = locate_elements("x", els([None, None]), VoteConfig())
        assert loc == PoPLocation("x", None, None, 0.0, 0.0, False)

    def test_fallback_picks_largest_cluster(self):
        cluster = GeoCoord(0, 0)
        scattered = [GeoCoord(40, 100), GeoCoord(-40, -100), GeoCoord(60, -60)]
        elements = els([cluster, cluster] + scattered)
        loc = locate_elements("x", elements, VoteConfig())
        assert not loc.majority_found
        assert loc.range_km is None
        assert loc.coord == cluster
        assert loc.frac_located == pytest.approx(2 / 5)

    def test_fallback_tie_breaks_lexicographically(self):
        elements = els([LONDON] * 3 + [NEW_YORK] * 3)
        loc = locate_elements("x", elements, VoteConfig())
        assert not loc.majority_found
        assert loc.coord == NEW_YORK  # lower latitude wins the 3:3 tie

    def test_fallback_recentres_when_its_circle_holds_every_answer(self):
        # no majority: (2.7, 1.5) lies 200.1 km from the median (0.9, 1.4), and
        # all four are needed. The winning candidate (1.2, 1.3) covers all four
        # within the 200 km cap, and the vote still re-centres on their median
        answers = [GeoCoord(1.2, 1.3), GeoCoord(0.6, 0.3), GeoCoord(2.7, 1.5), GeoCoord(0.6, 1.8)]
        cfg = VoteConfig(step_km=10.0, max_radius_km=200.0, majority_fraction=1.0)
        loc = locate_elements("x", els(answers), cfg)
        assert all(haversine_km(a, GeoCoord(1.2, 1.3)) <= 200.0 for a in answers)
        assert loc == PoPLocation("x", coordinate_median(answers), None, 0.75, 0.75, False)


class TestLocatePop:
    def _pop_and_dbs(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        target = (48.0, 11.0)
        dbs = [
            point_db("a", {"10.0.0.1": target, "10.0.0.2": target}),
            point_db("b", {"10.0.0.1": target, "10.0.0.2": target}),
        ]
        return pop, dbs

    def test_perfect_agreement(self):
        pop, dbs = self._pop_and_dbs()
        loc = locate_pop(pop, dbs)
        assert loc.coord == GeoCoord(48.0, 11.0)
        assert loc.range_km == 1.11
        assert (loc.frac_all, loc.frac_located) == (1.0, 1.0)

    def test_invariant_under_db_order(self):
        pop, dbs = self._pop_and_dbs()
        assert locate_pop(pop, dbs) == locate_pop(pop, list(reversed(dbs)))

    def test_single_db_identical_placement(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        db = point_db("a", {"10.0.0.1": (5, 5), "10.0.0.2": (5, 5)})
        loc = locate_pop(pop, [db])
        assert loc.range_km == 1.11

    def test_single_db_all_null(self):
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        db = point_db("a", {})
        loc = locate_pop(pop, [db])
        assert loc.coord is None
        assert not loc.majority_found

    def test_single_db_antimeridian_split_does_not_converge(self):
        # 2/2 split 600 km apart straddling the antimeridian: the arithmetic
        # longitude median lands on the far side of the planet, so no circle
        # up to the 500 km cap ever holds a majority
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"])
        west = (0.0, 177.302)
        east = (0.0, -177.302)
        db = point_db("a", {"10.0.0.1": west, "10.0.0.2": west, "10.0.0.3": east, "10.0.0.4": east})
        with pytest.warns(RuntimeWarning):
            loc = locate_pop(pop, [db], VoteConfig(step_km=1.0, max_radius_km=500.0))
        assert not loc.majority_found
        assert loc.range_km is None
        # the fallback still reports one of the two clusters
        assert loc.coord in (GeoCoord(*west), GeoCoord(*east))

    def test_plain_split_converges_at_midpoint(self):
        # same 2/2 600 km split away from the antimeridian: the median sits
        # halfway, so everything is within ~301 km and the vote converges
        pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"])
        south = (0.0, 0.0)
        north = (5.395929635512383, 0.0)
        db = point_db("a", {"10.0.0.1": south, "10.0.0.2": south, "10.0.0.3": north, "10.0.0.4": north})
        loc = locate_pop(pop, [db], VoteConfig(step_km=1.0, max_radius_km=500.0))
        assert loc.majority_found
        assert loc.range_km == pytest.approx(301.0, abs=1.5)



class TestLocatePopmap:
    def _pops_and_db(self):
        # ids out of numeric order, so map order and sorted order differ
        first = make_pop("10.0.1.1", ["10.0.1.1", "10.0.1.2"], singletons=["10.0.1.9"])
        second = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
        db = point_db(
            "a",
            {"10.0.1.1": (5, 5), "10.0.1.2": (5, 5), "10.0.1.9": None,
             "10.0.0.1": (7, 7), "10.0.0.2": (7, 7)},
        )
        return first, second, db

    def test_keyed_by_pop_id_in_map_order(self):
        first, second, db = self._pops_and_db()
        locs = locate_popmap(make_popmap(first, second), [db])
        assert list(locs) == ["10.0.1.1", "10.0.0.1"]
        assert locs["10.0.1.1"] == locate_pop(first, [db])
        assert locs["10.0.0.1"] == locate_pop(second, [db])

    def test_honours_with_singletons(self):
        first, second, db = self._pops_and_db()
        popmap = make_popmap(first, second)
        core = locate_popmap(popmap.core(), [db])
        full = locate_popmap(popmap, [db])
        assert core["10.0.1.1"].frac_all == 1.0
        # the null singleton answer joins the vote only with singletons
        assert full["10.0.1.1"].frac_all == pytest.approx(2 / 3)
        assert full["10.0.1.1"] == locate_pop(first, [db])


coords_st = st.tuples(
    st.floats(min_value=-80, max_value=80, allow_nan=False),
    st.floats(min_value=-179, max_value=179, allow_nan=False),
)


class TestLocateProperties:
    @given(
        st.lists(st.one_of(st.none(), coords_st), min_size=1, max_size=20),
        st.randoms(),
    )
    def test_permutation_invariance_and_frac_order(self, raw, rnd):
        elements = els([None if c is None else GeoCoord(*c) for c in raw])
        cfg = VoteConfig()
        loc = locate_elements("x", elements, cfg)
        shuffled = list(elements)
        rnd.shuffle(shuffled)
        assert locate_elements("x", shuffled, cfg) == loc
        assert loc.frac_located >= loc.frac_all
        if all(c is not None for c in raw):
            assert loc.frac_located == loc.frac_all

    @given(st.lists(coords_st, min_size=1, max_size=20))
    def test_majority_bound_when_found(self, raw):
        elements = els([GeoCoord(*c) for c in raw])
        cfg = VoteConfig()
        loc = locate_elements("x", elements, cfg)
        if loc.majority_found:
            center = coordinate_median([e.coord for e in elements])
            within = sum(
                1 for e in elements if haversine_km(e.coord, center) <= loc.range_km
            )
            assert within >= math.ceil(cfg.majority_fraction * len(elements))


class TestVoteMatchesReference:
    @given(
        st.integers(0, 2**30),
        st.sampled_from([(1.11, 555.0), (1.0, 500.0), (1.11, 111.0), (1.0, 5.0), (0.5, 2.0)]),
        st.sampled_from([0.5, 0.3, 0.75, 1.0]),
    )
    @settings(max_examples=300)
    def test_duplicate_heavy_grids(self, seed, preset, frac):
        # answers from a pool of at most four coordinates, several databases
        # per address, some nulls; the small caps force the fallback
        rng = random.Random(seed)
        cfg = VoteConfig(step_km=preset[0], max_radius_km=preset[1], majority_fraction=frac)
        base = GeoCoord(rng.uniform(-80, 80), rng.uniform(-179, 179))
        pool = [base] + [
            destination_point(base, rng.uniform(0, 2 * math.pi), rng.choice([1.0, 3.0, 20.0, 700.0]))
            for _ in range(rng.randint(0, 3))
        ]
        elements = [
            IpElement(f"10.0.0.{h}", db, None if rng.random() < 0.2 else rng.choice(pool))
            for h in range(1, rng.randint(2, 12))
            for db in ("a", "b", "c")[: rng.randint(1, 3)]
        ]
        got = locate_elements("x", elements, cfg)
        assert repr(got) == repr(_parent_locate_elements("x", elements, cfg))

    def test_fallback_path_is_exercised(self):
        a = GeoCoord(10.0, 10.0)
        b = destination_point(a, 1.0, 20.0)
        c = destination_point(a, 2.0, 20.0)
        elements = els([a, a, b, b, c])
        cfg = VoteConfig(step_km=1.0, max_radius_km=5.0)
        loc = locate_elements("x", elements, cfg)
        assert not loc.majority_found
        assert loc == _parent_locate_elements("x", elements, cfg)


class TestLocationSerialization:
    def test_roundtrip(self, tmp_path):
        locs = [
            PoPLocation("a", GeoCoord(1, 2), 1.11, 1.0, 1.0, True),
            PoPLocation("b", None, None, 0.0, 0.0, False),
            PoPLocation("c", GeoCoord(3, 4), None, 0.4, 0.5, False),
        ]
        path = tmp_path / "locations.json"
        save_locations(locs, path)
        assert load_locations(path) == locs

    def test_byte_order_mark_reads_as_the_plain_file(self, tmp_path):
        locs = [PoPLocation("a", GeoCoord(1, 2), 1.11, 1.0, 1.0, True)]
        path = tmp_path / "locations.json"
        save_locations(locs, path)
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_locations(path) == locs

    def test_row_without_a_key_is_a_parse_error_naming_the_file(self, tmp_path):
        path = tmp_path / "locations.json"
        save_locations([PoPLocation("a", GeoCoord(1, 2), 1.11, 1.0, 1.0, True)], path)
        path.write_text(path.read_text(encoding="utf-8").replace('"lon"', '"longitude"'), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"malformed locations file {path}: KeyError('lon')")):
            load_locations(path)
