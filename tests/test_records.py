"""The record path of evaluate against the straightforward metrics, bit for bit.

evaluate reads each PoP's answers once per database into a PopAnswers record
and folds every report over the records. The references here recompute each
metric from plain answer dicts the slow way: every radius test is a
haversine_km call, every median a statistics.median, and every region report
is computed again on the region's own map.
"""

import json
import math
import statistics
from bisect import bisect_left
from collections import Counter, defaultdict
from pathlib import Path
from statistics import StatisticsError

from hypothesis import HealthCheck, given, settings, strategies as st

from popgeo import evaluate as ev
from popgeo.cli import main
from popgeo.extract import PoP, PopMap, save_popmap
from popgeo.geo import EARTH_RADIUS_KM, GeoCoord, destination_point, haversine_km
from popgeo.geodb import AnswerTable, answer_table
from popgeo.ingest import load_ip2as, read_records
from popgeo.locate import PoPLocation, VoteConfig, locate_popmap, radius_grid

from conftest import make_pop, make_popmap, point_db

HALF_CIRCUMFERENCE_KM = math.pi * EARTH_RADIUS_KM

# --- references -------------------------------------------------------------


def ref_median(coords):
    return GeoCoord(statistics.median(c.lat for c in coords), statistics.median(c.lon for c in coords))


def ref_vote(pop_id, answers, cfg):
    """The vote with one haversine_km call per test and every answer its own candidate."""
    located = [c for c in answers if c is not None]
    if not located:
        return PoPLocation(pop_id, None, None, 0.0, 0.0, False)
    total, n = len(answers), len(located)
    center = ref_median(located)
    critical = sorted(haversine_km(c, center) for c in located)[math.ceil(cfg.majority_fraction * n) - 1]
    grid = radius_grid(cfg)
    i = bisect_left(grid, critical)
    if i < len(grid):
        radius = grid[i]
        coord = ref_median([c for c in located if haversine_km(c, center) <= radius])
        within = sum(haversine_km(c, coord) <= radius for c in located)
        return PoPLocation(pop_id, coord, radius, within / total, within / n, True)
    cap = cfg.max_radius_km

    def key(cand):
        return (-sum(haversine_km(c, cand) <= cap for c in located), cand.lat, cand.lon)

    best = min([center] + located, key=key)
    coord = ref_median([c for c in located if haversine_km(c, best) <= cap])
    within = sum(haversine_km(c, coord) <= cap for c in located)
    return PoPLocation(pop_id, coord, None, within / total, within / n, False)


def ref_agreement(answers, radii):
    located = [c for c in answers if c is not None]
    if not located:
        return None
    candidates = located + [ref_median(located)]
    return tuple(
        max(sum(haversine_km(c, cand) <= r for c in located) for cand in candidates) / len(located) for r in radii
    )


def ref_null_stats(name, core, full, answers):
    def pcts(popmap):
        rows = [[answers[ip] for ip in pop.members()] for pop in popmap.pops]
        nulls = sum(row.count(None) for row in rows)
        null_pops = sum(all(c is None for c in row) for row in rows)
        return 100.0 * nulls / sum(map(len, rows)), 100.0 * null_pops / len(rows)

    return ev.NullStats(name, *pcts(core), *pcts(full))


def ref_correlation(names, answer_dicts, popmap, include_nulls):
    ips = [ip for pop in popmap.pops for ip in pop.members()]

    def latlon(c):
        return (0.0, 0.0) if c is None else (c.lat, c.lon)

    def vectors(a, b):
        pairs = [(latlon(a[ip]), latlon(b[ip])) for ip in ips if include_nulls or (a[ip] and b[ip])]
        xs = [p[0][0] for p in pairs] + [p[0][1] for p in pairs]
        ys = [p[1][0] for p in pairs] + [p[1][1] for p in pairs]
        return len(pairs), xs, ys

    values = []
    for i, a in enumerate(answer_dicts):
        row = []
        for j, b in enumerate(answer_dicts):
            n, xs, ys = vectors(a, b)
            if n < 2:
                row.append(None)
            elif i == j:
                row.append(1.0 if len(set(xs)) > 1 else None)
            else:
                try:
                    row.append(statistics.correlation(xs, ys))
                except StatisticsError:
                    row.append(None)
        values.append(tuple(row))
    return ev.CorrelationMatrix(tuple(names), tuple(values), include_nulls)


def ref_anomalies(name, answers, popmap, asn_of, min_ips, share, rounding):
    per_as = defaultdict(Counter)
    for pop in popmap.pops:
        for ip in pop.members():
            c = answers[ip]
            if c is not None:
                per_as[asn_of.get(ip, pop.asn)][(round(c.lat / rounding), round(c.lon / rounding))] += 1
    reports = []
    for asn in sorted(per_as):
        counts = per_as[asn]
        total = sum(counts.values())
        if total < min_ips:
            continue
        top_key, top = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if top / total >= share:
            coord = GeoCoord(min(90.0, max(-90.0, top_key[0] * rounding)), top_key[1] * rounding)
            reports.append(ev.AnomalyReport(name, asn, coord, top / total, total))
    return reports


def ref_churn(old, new, popmap, epsilon_km):
    ips = [ip for pop in popmap.pops for ip in pop.members()]
    changed = 0
    for ip in ips:
        a, b = old[ip], new[ip]
        if (a is None) != (b is None) or (a is not None and haversine_km(a, b) > epsilon_km):
            changed += 1
    return changed / len(ips)


def ref_cdf_points(values, tail=0):
    ordered = sorted(values)
    total = len(ordered) + tail
    return [(x, sum(v <= x for v in ordered) / total) for x in sorted(set(ordered))]


# --- scenes -----------------------------------------------------------------

# where a scene's answers cluster; the pole and the antimeridian are the hard places
CENTRES = {
    "anywhere": st.tuples(st.floats(-60.0, 60.0), st.floats(-170.0, 170.0)),
    "pole": st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(89.0, 90.0), st.floats(-180.0, 180.0)).map(
        lambda t: (t[0] * t[1], t[2])
    ),
    "antimeridian": st.tuples(st.floats(-60.0, 60.0), st.sampled_from([-1.0, 1.0]), st.floats(179.0, 180.0)).map(
        lambda t: (t[0], t[1] * t[2])
    ),
}
# 0.0 and -0.0 are one answer to a radius test but not to a median's bytes
SIGNED_ZEROS = [GeoCoord(lat, lon) for lat in (0.0, -0.0) for lon in (0.0, -0.0)]
SPREADS_KM = [0.0, 0.5, 5.0, 120.0, 600.0, 3000.0, 15000.0]
RADII_KM = [0.0, 1.0, 100.0, 500.0, HALF_CIRCUMFERENCE_KM, 25000.0]


@st.composite
def scenes(draw):
    """A singleton PoP map and two or three databases answering every member."""
    pops = []
    for p in range(draw(st.integers(1, 5))):
        core_n, singles_n = draw(st.integers(1, 5)), draw(st.integers(0, 2))
        ips = [f"10.0.{p}.{h}" for h in range(1, core_n + singles_n + 1)]
        asn = draw(st.sampled_from([65000, 65001]))
        pops.append(PoP(ips[0], asn, frozenset(ips[:core_n]), frozenset(ips[core_n:])))
    full = PopMap(tuple(pops))
    lat, lon = draw(st.sampled_from(sorted(CENTRES)).flatmap(CENTRES.get))
    centre = GeoCoord(lat, lon)

    def coord():
        return destination_point(centre, draw(st.floats(0.0, 2 * math.pi)), draw(st.sampled_from(SPREADS_KM)))

    dbs = []
    for d in range(draw(st.integers(2, 3))):
        null_rate = draw(st.sampled_from([0.0, 0.2, 0.8, 1.0]))
        # a small pool makes answers repeat; an empty pool gives every member its own
        pool = [coord() for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            pool += SIGNED_ZEROS
        answers = {}
        for ip in (ip for pop in pops for ip in pop.members()):
            if draw(st.floats(0.0, 1.0)) < null_rate:
                answers[ip] = None
            else:
                answers[ip] = draw(st.sampled_from(pool)) if pool else coord()
        dbs.append((f"db{d}", answers))
    return full, dbs


VOTE_CONFIGS = st.builds(
    VoteConfig,
    step_km=st.sampled_from([1.11, 10.0, 50.0]),
    max_radius_km=st.sampled_from([100.0, 555.0, 2000.0]),
    majority_fraction=st.sampled_from([0.5, 0.75, 1.0]),
)


def _tables(full, dbs):
    """Answer tables as evaluate builds them: over the singleton map, with a second name on the first file."""
    latlons = [(name, {ip: c and (c.lat, c.lon) for ip, c in answers.items()}) for name, answers in dbs]
    tables = [answer_table(point_db(name, answers), full) for name, answers in latlons]
    first = tables[0]
    return tables + [AnswerTable("again", first.coords, first.records)], dbs + [("again", dbs[0][1])]


RADII_LISTS = st.lists(st.sampled_from(RADII_KM) | st.floats(0.0, 30000.0), min_size=1, max_size=4)


@given(scenes(), VOTE_CONFIGS, RADII_LISTS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_record_path_matches_the_references(scene, cfg, radii, graded_full):
    full, dbs = scene
    core = full.core()
    popmap = full if graded_full else core
    tables, named = _tables(full, dbs)
    answers = dict(named)

    # in evaluate's order: null statistics first, then the votes, agreement and deviation
    assert [ev.null_stats(core, full, t) for t in tables] == [ref_null_stats(n, core, full, a) for n, a in named]
    # votes compare by repr, which tells -0.0 from 0.0
    for t in tables:
        own = locate_popmap(popmap, [t], cfg)
        rows = {pop.id: [answers[t.name][ip] for ip in pop.members()] for pop in popmap.pops}
        assert repr(own) == repr({pop_id: ref_vote(pop_id, row, cfg) for pop_id, row in rows.items()})
    cross = locate_popmap(popmap, tables, cfg)
    member_major = {pop.id: [answers[n][ip] for ip in pop.members() for n, _ in named] for pop in popmap.pops}
    assert repr(cross) == repr({pop_id: ref_vote(pop_id, row, cfg) for pop_id, row in member_major.items()})
    for t in tables:
        for pop in popmap.pops:
            row = [answers[t.name][ip] for ip in pop.members()]
            assert ev.pop_agreement(pop, t, radii) == ref_agreement(row, radii)
            centre = cross[pop.id].coord
            if centre is not None:
                expected = [(ip, haversine_km(c, centre)) for ip, c in zip(pop.members(), row) if c is not None]
                assert ev.pop_deviations(pop, t, centre) == expected

    names = [t.name for t in tables]
    for include_nulls in (False, True):
        got = ev.correlation_matrix(tables, popmap, include_nulls=include_nulls)
        assert got == ref_correlation(names, [answers[n] for n in names], popmap, include_nulls)
    # the prefix map knows the singletons only, and puts them in the other AS
    asn_of = {ip: 65001 for pop in full.pops for ip in pop.singleton_members}
    prefix_map = load_ip2as([f"{ip}/32,{asn}" for ip, asn in asn_of.items()])
    got = ev.detect_default_locations(tables, popmap, prefix_map, min_ips=2, share_threshold=0.5, rounding_deg=0.5)
    assert got == [r for n in names for r in ref_anomalies(n, answers[n], popmap, asn_of, 2, 0.5, 0.5)]
    assert ev.churn(tables[0], tables[1], popmap, 1.0) == ref_churn(answers[names[0]], answers[names[1]], popmap, 1.0)


# --- the evaluate command, regions included ---------------------------------

CLI_RADII = (0.0, 100.0, 500.0, 20100.0)


def _rows(path: Path):
    return list(read_records(path.read_text(encoding="utf-8").splitlines()[1:], path.name, lambda f: f))


def _floats(rows):
    return [tuple(None if f == "" else float(f) for f in row) for row in rows]


@given(scenes(), VOTE_CONFIGS, st.booleans(), st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evaluate_bundle_matches_the_references(tmp_path_factory, scene, cfg, graded_full, data):
    full, dbs = scene
    tmp = tmp_path_factory.mktemp("bundle")
    save_popmap(full, tmp / "popmap_singletons.json")
    for name, answers in dbs:
        lines = [f"{ip},," if c is None else f"{ip},{c.lat!r},{c.lon!r}" for ip, c in answers.items()]
        (tmp / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # one region around the scene, one box that may hold nothing
    boxes = {
        "near": data.draw(st.sampled_from(["-90,90,-180,180", "-90,0,-180,180", "0,90,0,180"])),
        "box": "10,20,30,40",
    }
    (tmp / "regions.csv").write_text("".join(f"{n},{b}\n" for n, b in boxes.items()), encoding="utf-8")
    config = [
        "[paths]", "out = .", "regions = regions.csv", "[databases]",
        *(f"{name} = point:{name}.csv" for name, _ in dbs),
        "[vote]", *(f"{key} = {getattr(cfg, key)}" for key in ("step_km", "max_radius_km", "majority_fraction")),
        "[evaluate]", "agreement_radii_km = " + ",".join(f"{r:g}" for r in CLI_RADII), "regions = near,box",
    ]
    (tmp / "run.ini").write_text("\n".join(config) + "\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(tmp / "run.ini"), *(["--with-singletons"] if graded_full else [])]) == 0

    popmap = full if graded_full else full.core()
    answers = dict(dbs)
    own = {n: {pop.id: ref_vote(pop.id, [a[ip] for ip in pop.members()], cfg) for pop in popmap.pops} for n, a in dbs}
    member_major = {pop.id: [answers[n][ip] for ip in pop.members() for n, _ in dbs] for pop in popmap.pops}
    cross = {pop_id: ref_vote(pop_id, row, cfg).coord for pop_id, row in member_major.items()}
    summary = json.loads((tmp / "summary.json").read_text(encoding="utf-8"))
    regions = {"": popmap.pops}
    for name, box in boxes.items():
        spec = ev.RegionSpec(name, (tuple(map(float, box.split(","))),))
        regions[f"__{name}"] = [p for p in popmap.pops if cross[p.id] is not None and spec.contains(cross[p.id])]
        assert summary["regions"][name]["pop_count"] == len(regions[f"__{name}"])
    for suffix, pops in regions.items():
        counters = summary["regions"][suffix[2:]] if suffix else summary
        for name, a in dbs:
            votes = [own[name][p.id] for p in pops]
            ranges = [v.range_km for v in votes if v.coord is not None and v.majority_found]
            tail = len(votes) - len(ranges)
            assert _floats(_rows(tmp / f"convergence_{name}{suffix}.csv")) == ref_cdf_points(ranges, tail)
            assert counters["convergence_tail"][name] == tail
            agreements = [ref_agreement([a[ip] for ip in p.members()], CLI_RADII) for p in pops]
            located = [x for x in agreements if x is not None]
            for k, radius in enumerate(CLI_RADII):
                got = _floats(_rows(tmp / f"agreement_{name}_{radius:g}{suffix}.csv"))
                assert got == ref_cdf_points([x[k] for x in located])
                assert counters["agreement_excluded"][f"{name}:{radius:g}"] == len(agreements) - len(located)
            scatter = []
            for p, v in zip(pops, votes):
                if cross[p.id] is not None:
                    located_ips = [ip for ip in p.members() if a[ip] is not None]
                    scatter += [(ip, v.range_km, haversine_km(a[ip], cross[p.id])) for ip in located_ips]
            got = [(row[0], *_floats([row[1:]])[0]) for row in _rows(tmp / f"range_vs_deviation_{name}{suffix}.csv")]
            assert got == scatter
            assert _floats(_rows(tmp / f"deviation_{name}{suffix}.csv")) == ref_cdf_points([s[2] for s in scatter])
            assert counters["deviation_skipped"][name] == sum(cross[p.id] is None for p in pops)


# --- satellites ---------------------------------------------------------------


def test_one_shared_address_gives_no_correlation():
    # each database locates one address, the same one: two values per vector
    pop = make_pop("10.0.0.1", ["10.0.0.1", "10.0.0.2"])
    popmap = make_popmap(pop)
    a = point_db("a", {"10.0.0.1": (10.0, 20.0), "10.0.0.2": None})
    b = point_db("b", {"10.0.0.1": (-30.0, 150.0), "10.0.0.2": None})
    assert ev.correlation_matrix([a, b], popmap).values == ((None, None), (None, None))
    # with nulls as (0, 0) both addresses enter, and every coefficient is defined
    with_nulls = ev.correlation_matrix([a, b], popmap, include_nulls=True)
    assert with_nulls.value("a", "a") == 1.0 and with_nulls.value("a", "b") is not None


SYNTH_CONFIG = """
[paths]
observations = observations.csv
ip2as = ip2as.csv
out = .

[synth]
pop_count = 8
ips_per_pop = 6
as_count = 2
intra_delay_ms = 1.5,2.0
inter_delay_ms = 10,30
singletons_per_pop = 1
seed = 5

[synth_dbs]
clean = noise_km=0,null_rate=0
noisy = noise_km=5,null_rate=0.2
wild = noise_km=1500,null_rate=0.2

[databases]
clean = point:db_clean.csv
noisy = point:db_noisy.csv
wild = point:db_wild.csv
noisy_again = point:db_noisy.csv

[evaluate]
regions = europe,usa,world

[churn]
clean_vs_noisy = point:db_clean.csv,point:db_noisy.csv
"""


def test_evaluate_reads_each_pop_once_per_database_and_map(tmp_path, monkeypatch):
    cfg = tmp_path / "config.ini"
    cfg.write_text(SYNTH_CONFIG, encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["extract", "--config", str(cfg)]) == 0
    reads = Counter()
    real = AnswerTable.answers

    def counting(self, pop):
        reads[(self.name, pop.members())] += 1
        return real(self, pop)

    monkeypatch.setattr(AnswerTable, "answers", counting)
    for flags in ([], ["--with-singletons"]):
        reads.clear()
        assert main(["evaluate", "--config", str(cfg), *flags]) == 0
        # both maps are read (null statistics), each PoP once per database file
        assert reads and max(reads.values()) == 1
        assert {name for name, _ in reads} == {"clean", "noisy", "wild"}
