from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from popgeo import evaluate as ev
from popgeo.geo import GeoCoord
from popgeo.geodb import answer_table, load_range_db
from popgeo.ingest import load_ip2as
from popgeo.iputil import int_to_ip, ip_to_int
from popgeo.locate import VoteConfig, locate_popmap
from popgeo.synth import SynthDbSpec, SynthSpec, generate_scenario, ip2as_lines

from conftest import make_pop, make_popmap

BASE = ip_to_int("10.0.0.0")


def _ip(offset: int) -> str:
    return int_to_ip(BASE + offset)


@given(
    st.lists(st.tuples(st.integers(0, 120), st.integers(0, 120), st.booleans()), min_size=1, max_size=20),
    st.data(),
)
def test_answer_table_matches_last_covering_line(rows, data):
    lines, spans = [], []
    for i, (a, b, null) in enumerate(rows):
        lo, hi = min(a, b), max(a, b)
        latlon = "," if null else f"{i}.0,{i}.5"
        lines.append(f"{_ip(lo)},{_ip(hi)},CC,c{i},{latlon}")
        spans.append((lo, hi, None if null else GeoCoord(float(i), i + 0.5)))

    # members at every start and end, just outside them, and beyond every range
    boundaries = sorted({v for lo, hi, _ in spans for v in (lo - 1, lo, hi, hi + 1) if v >= 0} | {125, 130})
    offsets = data.draw(
        st.lists(st.sampled_from(boundaries) | st.integers(0, 130), min_size=1, max_size=30, unique=True)
    )
    pops, rest = [], list(offsets)
    while rest:
        size = data.draw(st.integers(1, 4))
        group, rest = rest[:size], rest[size:]
        singletons = [v for v in group[1:] if data.draw(st.booleans())]
        core = [_ip(v) for v in group if v not in singletons]
        pop_id = min(core, key=ip_to_int)
        pops.append(make_pop(pop_id, core, singletons=[_ip(v) for v in singletons]))
    popmap = make_popmap(*pops)

    def oracle(offset):
        coord = None
        for lo, hi, span_coord in spans:  # later lines shadow earlier ones
            if lo <= offset <= hi:
                coord = span_coord
        return coord

    expected = {_ip(v): oracle(v) for v in offsets}
    db = load_range_db(lines, "t")
    table = answer_table(db, popmap)
    for pop in popmap.pops:
        full = tuple((ip, expected[ip]) for ip in sorted(pop.members(), key=ip_to_int))
        core = tuple(a for a in full if a[0] in pop.core_members)
        assert table.answers(pop) == full
        assert table.answers(replace(pop, singleton_members=frozenset())) == core
        assert db.answers(pop) == full
    assert {ip: db.query(ip).coord for ip in expected} == expected


@pytest.fixture(scope="module")
def scenario_dbs():
    """A synth scenario with singletons, its point databases and a range database over the noisy one."""
    scenario = generate_scenario(
        SynthSpec(
            pop_count=8,
            ips_per_pop=6,
            as_count=2,
            singletons_per_pop=2,
            seed=11,
            dbs=(
                SynthDbSpec("clean"),
                SynthDbSpec("noisy", noise_km=40.0, null_rate=0.25),
                SynthDbSpec("hq", hq_asn=65000, hq_lat=48.8, hq_lon=2.3, hq_fraction=0.9),
            ),
        )
    )
    noisy = scenario.dbs[1]
    # a /8 covering block, then every other noisy answer as a one-address line that wins over it
    lines = ["10.0.0.0,10.255.255.255,FR,Paris,48.8,2.3"]
    for ip, rec in noisy.point_entries()[::2]:
        latlon = "," if rec.coord is None else f"{rec.coord.lat!r},{rec.coord.lon!r}"
        lines.append(f"{ip},{ip},XX,x,{latlon}")
    ranged = load_range_db(lines, "ranged")
    return scenario, (*scenario.dbs, ranged)


@pytest.mark.parametrize("which", ["core", "singletons"])
def test_every_metric_reads_the_same_from_tables_as_from_databases(scenario_dbs, which):
    scenario, dbs = scenario_dbs
    full = scenario.truth_all
    core = full.core()
    popmap = full if which == "singletons" else core
    tables = [answer_table(db, full) for db in dbs]  # built over the singleton map, as cli builds them
    assert any(pop.singleton_members for pop in full.pops)
    prefix_map = load_ip2as(ip2as_lines(scenario))
    cfg = VoteConfig()
    radii = (1.0, 50.0, 1000.0)

    def metrics(sources):
        own = {db.name: locate_popmap(popmap, [db], cfg) for db in sources}
        cross = locate_popmap(popmap, sources, cfg)
        return {
            "null_stats": [ev.null_stats(core, full, db) for db in sources],
            "own": own,
            "cross": cross,
            "agreement": [[ev.pop_agreement(pop, db, radii) for pop in popmap.pops] for db in sources],
            "deviation": [ev.deviation_samples(popmap, db, cross, own[db.name]) for db in sources],
            "correlation": [ev.correlation_matrix(sources, popmap, include_nulls=n) for n in (False, True)],
            "anomalies": [ev.detect_default_location(db, popmap, prefix_map, min_ips=5) for db in sources],
            "churn": [ev.churn(a, b, popmap) for a in sources for b in sources],
        }

    from_dbs = metrics(list(dbs))
    from_tables = metrics(tables)
    assert from_dbs["anomalies"][2]  # the pinned AS shows, so the comparison is not over empty reports
    for name in from_dbs:
        assert from_tables[name] == from_dbs[name], name
