"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import functools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from popgeo import evaluate as ev
from popgeo.cli import main as cli_main
from popgeo.extract import ExtractionConfig, PoP, PopMap, extract_pops, threshold_sweep
from popgeo.geo import GeoCoord, coordinate_median, destination_point, haversine_km
from popgeo.geodb import GeoDatabase, GeoRecord
from popgeo.ingest import aggregate_edges, load_ip2as
from popgeo.iputil import ip_to_int
from popgeo.locate import IpElement, VoteConfig, locate_pop, locate_popmap, majority_vote_range
from popgeo.synth import SynthDbSpec, SynthSpec, generate_scenario, ip2as_lines

VOTE = VoteConfig()


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {num:02d}] FAIL {desc}: {exc}")
                raise
            print(f"[criterion {num:02d}] PASS {desc}" + (f" ({detail})" if detail else ""))

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def scenario():
    """50 PoPs x 10 IPs over 5 ASes with the full battery of database flavors."""
    spec = SynthSpec(
        pop_count=50,
        ips_per_pop=10,
        as_count=5,
        intra_delay_ms=(1.5, 2.0),
        inter_delay_ms=(10.0, 30.0),
        measurements_per_edge=5,
        seed=0,
        dbs=(
            SynthDbSpec("clean"),
            SynthDbSpec("noisy5", noise_km=5.0),
            SynthDbSpec("nul64", null_rate=0.64),
            SynthDbSpec("hq95", hq_asn=65000, hq_lat=39.74, hq_lon=-104.98, hq_fraction=0.95),
            SynthDbSpec("hq82", hq_asn=65000, hq_lat=38.9, hq_lon=-77.0, hq_fraction=0.82),
        ),
    )
    return generate_scenario(spec)


@pytest.fixture(scope="module")
def extracted(scenario):
    prefix_map = load_ip2as(ip2as_lines(scenario))
    edges = aggregate_edges(list(scenario.observations))
    return edges, prefix_map, extract_pops(edges, prefix_map)


def rand_index(groups_a, groups_b) -> float:
    label_a = {ip: i for i, grp in enumerate(groups_a) for ip in grp}
    label_b = {ip: i for i, grp in enumerate(groups_b) for ip in grp}
    if set(label_a) != set(label_b):
        return 0.0
    ips = sorted(label_a)
    agree = 0
    pairs = 0
    for i in range(len(ips)):
        for j in range(i + 1, len(ips)):
            pairs += 1
            same_a = label_a[ips[i]] == label_a[ips[j]]
            same_b = label_b[ips[i]] == label_b[ips[j]]
            agree += same_a == same_b
    return agree / pairs


@criterion(1, "planted-partition recovery on 50x10 scenario")
def test_c01_planted_partition_recovery(scenario):
    prefix_map = load_ip2as(ip2as_lines(scenario))
    start = time.monotonic()
    edges = aggregate_edges(list(scenario.observations))
    popmap = extract_pops(edges, prefix_map)
    elapsed = time.monotonic() - start
    planted = [p.core_members for p in scenario.truth_core.pops]
    recovered = [p.core_members for p in popmap.pops]
    assert set(recovered) == set(planted), "membership differs from the planted partition"
    ri = rand_index(planted, recovered)
    assert ri == 1.0, f"Rand index {ri}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"50 PoPs, Rand index 1.0, {elapsed:.2f}s"


@criterion(2, "threshold plateau at >= 3 ms, strictly fewer IPs at 1 ms")
def test_c02_threshold_plateau(extracted):
    edges, prefix_map, _ = extracted
    rows = threshold_sweep(edges, prefix_map, ExtractionConfig(), [1, 3, 5, 7, 9])
    plateau = {(pops, ips) for _, pops, ips in rows[1:]}
    assert len(plateau) == 1, f"plateau rows differ: {rows[1:]}"
    ips_at_1 = rows[0][2]
    ips_plateau = rows[1][2]
    assert ips_at_1 < ips_plateau, f"{ips_at_1} !< {ips_plateau}"
    return f"rows {rows}"


def _oracle_vote_range(elements, center, cfg):
    """Brute-force scan over the full radius schedule, vectorized for speed."""
    located = [e for e in elements if e.coord is not None]
    dists = np.array([haversine_km(e.coord, center) for e in located])
    grid = []
    k = 1
    while k * cfg.step_km <= cfg.max_radius_km + 1e-9:
        grid.append(k * cfg.step_km)
        k += 1
    if not grid or grid[-1] < cfg.max_radius_km - 1e-9:
        grid.append(cfg.max_radius_km)
    counts = (dists[None, :] <= np.array(grid)[:, None]).sum(axis=1)
    hits = np.nonzero(counts >= cfg.majority_fraction * len(located))[0]
    if hits.size:
        return grid[int(hits[0])], True
    return cfg.max_radius_km, False


@criterion(3, "vote-range equals brute-force grid scan on 1000 random element sets")
def test_c03_vote_range_oracle_equivalence():
    rng = random.Random(1234)
    configs = [
        VoteConfig(step_km=s, max_radius_km=m)
        for s in (1.0, 1.11)
        for m in (111.0, 500.0, 555.0)
    ]
    checked = 0
    for _ in range(1000):
        size = rng.randint(2, 60)
        elements = []
        for i in range(size):
            if i > 0 and rng.random() < 0.3:
                coord = None
            else:
                coord = GeoCoord(rng.uniform(-85, 85), rng.uniform(-180, 180))
            elements.append(IpElement(f"10.0.{i // 250}.{i % 250 + 1}", "db", coord))
        center = coordinate_median([e.coord for e in elements if e.coord is not None])
        for cfg in configs:
            expected = _oracle_vote_range(elements, center, cfg)
            got = majority_vote_range(elements, center, cfg)
            assert got == expected, f"{got} != {expected} for {cfg}"
            checked += 1
    return f"{checked} set/config pairs"


@criterion(4, "perfect database reproduces planted locations exactly")
def test_c04_perfect_database_identity(scenario, extracted):
    _, _, popmap = extracted
    clean = scenario.db("clean")
    for pop in popmap.pops:
        loc = locate_pop(pop, [clean], VOTE)
        truth = scenario.truth_coords[pop.id]
        assert loc.majority_found
        assert haversine_km(loc.coord, truth) <= 0.01, pop.id
        assert loc.range_km == VOTE.step_km
        assert loc.frac_all == 1.0 and loc.frac_located == 1.0
    return f"{len(popmap.pops)} PoPs at truth, range {VOTE.step_km} km"


@criterion(5, "null accounting matches 64% rate and brute-force PoP count")
def test_c05_null_accounting(scenario, extracted):
    _, _, popmap = extracted
    db = scenario.db("nul64")
    stats = ev.null_stats(popmap, popmap, db)
    assert abs(stats.pct_null_ip_core - 64.0) <= 2.0, stats.pct_null_ip_core
    # independent brute-force recount over the raw query grid
    null_ips = sum(1 for ip in popmap.member_ips() if db.query(ip).is_null)
    assert stats.pct_null_ip_core == 100.0 * null_ips / len(popmap.member_ips())
    full_null = sum(
        1 for pop in popmap.pops if all(db.query(ip).is_null for ip in pop.core_members)
    )
    expected_pop_pct = 100.0 * full_null / len(popmap.pops)
    assert stats.pct_null_pop_core == expected_pop_pct
    return f"ip {stats.pct_null_ip_core:.2f}%, pop {stats.pct_null_pop_core:.2f}%"


@criterion(6, "agreement monotone in radius; every CDF monotone with final <= 1")
def test_c06_monotone_agreement_and_cdfs(scenario, extracted):
    _, _, popmap = extracted
    dbs = list(scenario.dbs)
    voted = locate_popmap(popmap, dbs, VOTE)
    for db in dbs:
        agreements = [ev.pop_agreement(pop, db, [100.0, 500.0]) for pop in popmap.pops]
        for pop, agreement in zip(popmap.pops, agreements):
            if agreement is not None:
                a100, a500 = agreement
                assert a500 >= a100, (db.name, pop.id)
        own = locate_popmap(popmap, [db], VOTE)
        series = [ev.convergence_cdf(db.name, own.values())]
        series += ev.agreement_cdf(db.name, (100.0, 500.0), agreements)
        series.append(ev.deviation_samples(popmap, db, voted, own).cdf())
        for s in series:
            s.validate()
            if s.points:
                assert s.points[-1][1] <= 1.0
    return f"{len(dbs)} databases x {len(popmap.pops)} PoPs"


@criterion(7, "headquarters-default anomalies flagged at 0.95 and 0.82, honest db clean")
def test_c07_anomaly_detection(scenario, extracted):
    _, prefix_map, popmap = extracted
    for name, planted in (("hq95", 0.95), ("hq82", 0.82)):
        reports = ev.detect_default_location(scenario.db(name), popmap, prefix_map)
        assert len(reports) == 1, f"{name}: {reports}"
        report = reports[0]
        assert report.asn == 65000
        assert abs(report.share - planted) <= 0.02, (name, report.share)
    honest = ev.detect_default_location(scenario.db("noisy5"), popmap, prefix_map)
    assert honest == [], honest
    return "hq shares 0.95/0.82 flagged, 5 km-noise db yields zero flags"


@criterion(8, "correlation: self 1.0, offset copy ~1.0, independent ~0")
def test_c08_correlation_sanity():
    rng = random.Random(77)
    ips = [f"10.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}" for i in range(10_000)]
    base = {ip: GeoCoord(rng.uniform(-80, 80), rng.uniform(-170, 170)) for ip in ips}
    shifted = {ip: GeoCoord(c.lat + 0.1, c.lon + 0.1) for ip, c in base.items()}
    indep = {ip: GeoCoord(rng.uniform(-80, 80), rng.uniform(-170, 170)) for ip in ips}

    def db_of(name, mapping):
        return GeoDatabase(
            name, "point", points={ip_to_int(ip): GeoRecord(c) for ip, c in mapping.items()}
        )

    matrix = ev.correlation_matrix(
        [db_of("base", base), db_of("shift", shifted), db_of("indep", indep)],
        PopMap((PoP(ips[0], 1, frozenset(ips)),)),
    )
    assert matrix.value("base", "base") == 1.0
    assert abs(matrix.value("base", "shift") - 1.0) <= 1e-9
    rho = matrix.value("base", "indep")
    assert abs(rho) < 0.1, rho
    return f"offset rho {matrix.value('base', 'shift'):.12f}, independent rho {rho:.4f}"


@criterion(9, "deviation CDF holds a 15% +- 1% tail beyond 5000 km")
def test_c09_deviation_tail(scenario, extracted):
    _, _, popmap = extracted
    ips = popmap.member_ips()
    truth_of = {
        ip: scenario.truth_coords[pop.id] for pop in popmap.pops for ip in pop.core_members
    }
    mapping = {}
    planted_far = 0
    for i, ip in enumerate(ips):
        if i % 20 < 3:  # exactly 15% of the answers
            far = destination_point(truth_of[ip], 0.8, 8000.0)
            mapping[ip_to_int(ip)] = GeoRecord(far)
            planted_far += 1
        else:
            mapping[ip_to_int(ip)] = GeoRecord(truth_of[ip])
    tested = GeoDatabase("tail15", "point", points=mapping)
    voters = [scenario.db("clean"), scenario.db("noisy5"), scenario.db("nul64"), tested]
    report = ev.deviation_samples(
        popmap, tested, locate_popmap(popmap, voters, VOTE), locate_popmap(popmap, [tested], VOTE)
    )
    cdf = report.cdf()
    cdf.validate()
    tail = cdf.fraction_beyond(5000.0)
    assert abs(tail - 0.15) <= 0.01, tail
    assert planted_far == round(0.15 * len(ips))
    return f"tail mass {tail:.4f} from {planted_far}/{len(ips)} planted answers"


ACCEPTANCE_CONFIG = """
[paths]
observations = observations.csv
ip2as = ip2as.csv
out = .

[synth]
pop_count = 12
ips_per_pop = 6
as_count = 3
intra_delay_ms = 1.5,2.0
inter_delay_ms = 10,30
singletons_per_pop = 1
seed = 21

[synth_dbs]
clean = noise_km=0,null_rate=0
noisy = noise_km=5,null_rate=0.25
pinner = noise_km=0,null_rate=0,hq_asn=65000,hq_lat=39.74,hq_lon=-104.98,hq_fraction=0.9

[databases]
clean = point:db_clean.csv
noisy = point:db_noisy.csv
pinner = point:db_pinner.csv

[evaluate]
anomaly_min_ips = 10
regions = europe,usa

[churn]
drift = point:db_clean.csv,point:db_noisy.csv

[sweep]
grid = 1,3,5,7,9
"""

SUBCOMMANDS = ("synth", "extract", "locate", "evaluate", "sweep")


def _run_all(cfg_path, threads):
    for command in SUBCOMMANDS:
        code = cli_main([command, "--config", str(cfg_path), "--threads", str(threads)])
        assert code == 0, f"{command} exited {code}"


def _tree(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "acceptance.ini"
    }


@criterion(10, "subcommands byte-identical across reruns and --threads 1/8")
def test_c10_determinism(tmp_path):
    cfg_path = tmp_path / "acceptance.ini"
    cfg_path.write_text(ACCEPTANCE_CONFIG, encoding="utf-8")
    _run_all(cfg_path, threads=1)
    first = _tree(tmp_path)
    assert first, "no outputs produced"
    _run_all(cfg_path, threads=1)
    assert _tree(tmp_path) == first, "rerun at --threads 1 changed bytes"
    _run_all(cfg_path, threads=8)
    assert _tree(tmp_path) == first, "--threads 8 changed bytes"
    return f"{len(first)} files stable across reruns"
