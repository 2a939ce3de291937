"""Evaluation metrics over PoP maps and geolocation databases.

Covers null-reply accounting, per-database convergence and agreement CDFs,
per-IP deviation from the cross-database majority location, pairwise database
correlation, default-location (headquarters) anomaly detection, snapshot
churn, and regional breakdowns. Everything here is deterministic and pure
over its inputs. A metric counts every member of the map it is given; the
core map is `PopMap.core()` of the singleton map.

Every metric folds over records: `db.record(pop)` is the PopAnswers of one
PoP in one database, with its coordinates in member order, its null count,
its distinct answers (unit vectors computed once) and their coordinate
median. An AnswerTable builds each record on the first request and keeps
it, so null statistics, the votes, agreement, deviation, anomalies,
correlation and churn all read a PoP's answers once per database file and
map. Agreement computes one row of dot products per candidate centre and
decides every radius from it. Deviation rows are computed once per PoP
against the cross-database vote (pop_deviations); a region selects the rows
of its PoPs and computes nothing again.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from math import fsum, sqrt
from operator import and_, ge, gt
from typing import Iterable, Mapping, Optional, Sequence

from .extract import PopMap
from .geo import GeoCoord, distances_km, haversine_km
from .geodb import AnswerSource
from .ingest import PrefixMap, read_records
from .locate import PoPLocation


@dataclass(frozen=True)
class NullStats:
    """Share of null replies per database, at IP and at whole-PoP granularity.

    A PoP counts as null only when every one of its members gets a null
    reply. core figures ignore singleton members; all figures include them.
    Percentages are on a 0..100 scale.
    """

    db_name: str
    pct_null_ip_core: float
    pct_null_pop_core: float
    pct_null_ip_all: float
    pct_null_pop_all: float


@dataclass(frozen=True)
class CdfSeries:
    """Cumulative distribution points plus explicit leftover accounting.

    points are (x, cumulative_fraction) with strictly increasing x.
    tail_count items lie beyond the largest x (e.g. PoPs that never
    converged) and keep the final fraction below 1; excluded_count items were
    left out of the denominator entirely (e.g. all-null PoPs).
    """

    label: str
    points: tuple[tuple[float, float], ...]
    total: int
    tail_count: int = 0
    excluded_count: int = 0

    @staticmethod
    def from_values(
        label: str,
        values: Iterable[float],
        tail_count: int = 0,
        excluded_count: int = 0,
    ) -> "CdfSeries":
        ordered = sorted(values)
        total = len(ordered) + tail_count
        # one point per distinct x: its last position gives the cumulative count
        points = [
            (x, (i + 1) / total) for i, (x, after) in enumerate(zip(ordered, ordered[1:] + [None])) if x != after
        ]
        return CdfSeries(label, tuple(points), total, tail_count, excluded_count)

    def fraction_at_or_below(self, x: float) -> float:
        best = 0.0
        for px, frac in self.points:
            if px <= x:
                best = frac
            else:
                break
        return best

    def fraction_beyond(self, x: float) -> float:
        return 1.0 - self.fraction_at_or_below(x)

    def validate(self) -> None:
        xs = [p[0] for p in self.points]
        fracs = [p[1] for p in self.points]
        if any(map(ge, xs, xs[1:])):
            raise ValueError(f"{self.label}: x values not strictly increasing")
        if any(map(gt, fracs, fracs[1:])):
            raise ValueError(f"{self.label}: fractions decrease")
        if fracs and fracs[-1] > 1.0 + 1e-12:
            raise ValueError(f"{self.label}: final fraction above 1")
        if self.total and self.points:
            expected = (self.total - self.tail_count) / self.total
            if abs(fracs[-1] - expected) > 1e-12:
                raise ValueError(f"{self.label}: tail does not account for the remainder")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlation of every pair of databases, None where undefined; values[i][j] pairs db_names[i] and [j]."""

    db_names: tuple[str, ...]
    values: tuple[tuple[Optional[float], ...], ...]
    include_nulls: bool

    def value(self, a: str, b: str) -> Optional[float]:
        i = self.db_names.index(a)
        j = self.db_names.index(b)
        return self.values[i][j]


@dataclass(frozen=True)
class AnomalyReport:
    """One AS whose answers in one database pile up on a single coordinate."""

    db_name: str
    asn: int
    dominant_coord: GeoCoord
    share: float
    ip_count: int


@dataclass(frozen=True)
class RegionSpec:
    """Named union of inclusive lat/lon bounding boxes."""

    name: str
    boxes: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        for lat_min, lat_max, lon_min, lon_max in self.boxes:
            if lat_min > lat_max or lon_min > lon_max:
                raise ValueError(f"region {self.name}: malformed box")

    def contains(self, coord: GeoCoord) -> bool:
        return any(
            lat_min <= coord.lat <= lat_max and lon_min <= coord.lon <= lon_max
            for lat_min, lat_max, lon_min, lon_max in self.boxes
        )


BUILTIN_REGIONS = {
    "world": RegionSpec("world", ((-90.0, 90.0, -180.0, 180.0),)),
    "europe": RegionSpec("europe", ((35.0, 72.0, -11.0, 40.0),)),
    "usa": RegionSpec("usa", ((24.0, 50.0, -125.0, -66.0),)),
}


def _region_row(fields: list[str]) -> tuple[str, tuple[float, ...]]:
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")
    box = tuple(float(v) for v in fields[1:])
    RegionSpec(fields[0], (box,))
    return fields[0], box


def load_regions(lines: Iterable[str]) -> dict[str, RegionSpec]:
    """Parse `name,lat_min,lat_max,lon_min,lon_max` rows; repeated names union boxes."""
    boxes: dict[str, list] = defaultdict(list)
    for name, box in read_records(lines, "regions", _region_row):
        boxes[name].append(box)
    return {name: RegionSpec(name, tuple(bx)) for name, bx in boxes.items()}


def null_stats(popmap_core: PopMap, popmap_all: PopMap, db: AnswerSource) -> NullStats:
    """Null-reply percentages at IP and PoP level, without and with singletons."""
    if not popmap_core.pops or not popmap_all.pops:
        raise ValueError("null_stats needs non-empty PoP maps")

    def _pcts(popmap: PopMap) -> tuple[float, float]:
        total_ips = null_ips = null_pops = 0
        for pop in popmap.pops:
            answers = db.record(pop)
            total_ips += len(answers.coords)
            null_ips += answers.nulls
            if not answers.located:
                null_pops += 1
        return 100.0 * null_ips / total_ips, 100.0 * null_pops / len(popmap.pops)

    ip_core, pop_core = _pcts(popmap_core)
    ip_all, pop_all = _pcts(popmap_all)
    return NullStats(db.name, ip_core, pop_core, ip_all, pop_all)


def convergence_cdf(db_name: str, locations: Iterable[PoPLocation]) -> CdfSeries:
    """CDF over PoPs of the single-database convergence range.

    locations are the database's own votes. PoPs that never reach a
    majority, or whose members are all null, land in the tail bucket beyond
    the radius cap.
    """
    ranges = []
    tail = 0
    for loc in locations:
        if loc.coord is None or not loc.majority_found:
            tail += 1
        else:
            ranges.append(loc.range_km)
    return CdfSeries.from_values(f"convergence:{db_name}", ranges, tail_count=tail)


def pop_agreement(pop, db: AnswerSource, radii_km: Sequence[float]) -> Optional[tuple[float, ...]]:
    """Largest fraction of one PoP's located answers inside any circle, per radius.

    The circles are centred on the candidates of the fallback vote,
    PopAnswers.candidates(): the median of the located answers, then every
    distinct one. Identical answers are tested once and counted by
    multiplicity. Every radius is decided from a candidate's one dots row; a
    radius that some candidate already covers fully is not tested again, and
    once every radius is, the scan stops before the next row. Returns one
    fraction per entry of radii_km, or None when the database is null on
    every member.
    """
    record = db.record(pop)
    located = len(record.located)
    if not located:
        return None
    answers = record.distinct
    best = dict.fromkeys(radii_km, 0)
    open_radii = list(best)  # the radii no candidate has yet covered fully
    for cand, row in record.candidates():
        for radius, count in zip(open_radii, answers.counts_in(row, cand, open_radii)):
            best[radius] = max(best[radius], count)
        open_radii = [radius for radius in open_radii if best[radius] < located]
        if not open_radii:
            break
    return tuple(best[radius] / located for radius in radii_km)


def agreement_cdf(
    db_name: str, radii_km: Sequence[float], agreements: Iterable[Optional[tuple[float, ...]]]
) -> list[CdfSeries]:
    """CDFs over PoPs of within-database agreement, one per entry of radii_km.

    agreements holds one pop_agreement result over radii_km per PoP. All-null
    PoPs (None) are excluded from every denominator and reported via
    excluded_count.
    """
    located = []
    excluded = 0
    for agreement in agreements:
        if agreement is None:
            excluded += 1
        else:
            located.append(agreement)
    return [
        CdfSeries.from_values(
            f"agreement:{db_name}:{radius_km:g}km", [a[k] for a in located], excluded_count=excluded
        )
        for k, radius_km in enumerate(radii_km)
    ]


@dataclass(frozen=True)
class DeviationSample:
    """One answer's distance from the cross-database PoP location.

    range_km is the PoP's convergence range in the database under test (None
    when that database did not converge), kept for range-vs-deviation
    scatter plots.
    """

    ip: str
    deviation_km: float
    range_km: Optional[float]


@dataclass(frozen=True)
class DeviationReport:
    """One database's deviation samples, and the PoPs skipped because their cross-database vote is null."""

    db_name: str
    samples: tuple[DeviationSample, ...]
    skipped_pops: int

    def cdf(self) -> CdfSeries:
        return deviation_cdf(self.db_name, [s.deviation_km for s in self.samples])


def deviation_cdf(db_name: str, deviations_km: Iterable[float]) -> CdfSeries:
    """CDF over a database's located answers of their distance from the cross-database vote."""
    return CdfSeries.from_values(f"deviation:{db_name}", deviations_km)


def pop_deviations(pop, db: AnswerSource, centre: GeoCoord) -> list[tuple[str, float]]:
    """(address, haversine_km(answer, centre)) for each located answer of pop, in member order.

    Each distinct answer's distance is computed once and repeated for every
    address that gave it.
    """
    record = db.record(pop)
    answers = record.distinct
    to_centre = distances_km(answers.points, centre)
    ips = [ip for ip, coord in zip(pop.members(), record.coords) if coord is not None]
    return list(zip(ips, [to_centre[i] for i in answers.index]))


def deviation_samples(
    popmap: PopMap,
    db_under_test: AnswerSource,
    voted: Mapping[str, PoPLocation],
    own: Mapping[str, PoPLocation],
) -> DeviationReport:
    """Distance of every answer of one database from the all-database vote.

    voted holds the cross-database votes and own the votes of db_under_test
    alone, both keyed by PoP id. PoPs whose cross-database location is null
    are skipped and counted. Samples come in numeric address order per PoP.
    """
    samples = []
    skipped = 0
    for pop in popmap.pops:
        cross = voted[pop.id]
        if cross.coord is None:
            skipped += 1
            continue
        own_loc = own[pop.id]
        own_range = own_loc.range_km if own_loc.majority_found else None
        samples += [DeviationSample(ip, d, own_range) for ip, d in pop_deviations(pop, db_under_test, cross.coord)]
    return DeviationReport(db_under_test.name, tuple(samples), skipped)


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    """Pearson's r of xs and ys; None under four values or when either is constant.

    It is Python 3.11's statistics.correlation, to the operation: fsum means,
    the fsum of the products of deviations, then sxy / sqrt(sxx * syy). So
    every coefficient is the same on every Python version.
    """
    # xs and ys hold latitudes, then longitudes: two values per address
    n = len(xs)
    if n < 4:
        return None
    xbar = fsum(xs) / n
    ybar = fsum(ys) / n
    sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = fsum((d := x - xbar) * d for x in xs)
    syy = fsum((d := y - ybar) * d for y in ys)
    root = sqrt(sxx * syy)
    return None if root == 0.0 else sxy / root


def correlation_matrix(
    dbs: Sequence[AnswerSource], popmap: PopMap, include_nulls: bool = False
) -> CorrelationMatrix:
    """Pairwise Pearson correlation of database answers over a map's members.

    Each database's value vector is its latitude sequence concatenated with
    its longitude sequence. By default a pair is compared only on IPs both
    databases locate; with include_nulls, null answers enter as a (0, 0)
    sentinel, which drags correlations down where coverage differs.
    Zero-variance vectors, and vectors of fewer than two addresses, make a
    coefficient undefined (None), on the diagonal too.
    """
    if len(dbs) < 2:
        raise ValueError("correlation needs at least two databases")
    # per database, once: every member's answer as lat and lon lists (a null
    # as the (0, 0) sentinel) and whether it is located
    lats, lons, located = [], [], []
    for db in dbs:
        coords = [coord for pop in popmap.pops for coord in db.record(pop).coords]
        lats.append([0.0 if c is None else c.lat for c in coords])
        lons.append([0.0 if c is None else c.lon for c in coords])
        located.append([c is not None for c in coords])

    def _vector(i: int, kept: Optional[list[bool]]) -> list[float]:
        if kept is None:
            return lats[i] + lons[i]
        return list(compress(lats[i], kept)) + list(compress(lons[i], kept))

    n = len(dbs)
    values: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        vec_i = _vector(i, None if include_nulls else located[i])
        values[i][i] = 1.0 if len(vec_i) >= 4 and len(set(vec_i)) > 1 else None
        for j in range(i + 1, n):
            kept = None if include_nulls else list(map(and_, located[i], located[j]))
            values[i][j] = values[j][i] = _pearson(_vector(i, kept), _vector(j, kept))
    return CorrelationMatrix(
        tuple(db.name for db in dbs), tuple(tuple(row) for row in values), include_nulls
    )


def detect_default_location(
    db: AnswerSource,
    popmap: PopMap,
    prefix_map: Optional[PrefixMap] = None,
    min_ips: int = 50,
    share_threshold: float = 0.8,
    rounding_deg: float = 0.01,
) -> list[AnomalyReport]:
    """Flag (database, AS) pairs whose answers collapse onto one coordinate.

    Non-null answers for each AS's member addresses are bucketed on a
    rounding_deg grid; an AS is reported when its top bucket holds at least
    share_threshold of at least min_ips answers. Headquarters-default
    databases show up here.
    """
    return detect_default_locations([db], popmap, prefix_map, min_ips, share_threshold, rounding_deg)


def detect_default_locations(
    dbs: Sequence[AnswerSource],
    popmap: PopMap,
    prefix_map: Optional[PrefixMap] = None,
    min_ips: int = 50,
    share_threshold: float = 0.8,
    rounding_deg: float = 0.01,
) -> list[AnomalyReport]:
    """detect_default_location of each database in turn, with each member's AS resolved once.

    A member's AS is the prefix map's, or its PoP's where the prefix map has
    none. Each distinct answer of a PoP is bucketed once.
    """

    def as_of(pop, ip: str) -> int:
        asn = None if prefix_map is None else prefix_map.lookup(ip)
        return pop.asn if asn is None else asn

    member_asns = [[as_of(pop, ip) for ip in pop.members()] for pop in popmap.pops]
    # the AS of every member of a PoP, when they share one
    pop_asns = [asns[0] if len(set(asns)) == 1 else None for asns in member_asns]
    reports = []
    for db in dbs:
        per_as: dict[int, Counter] = defaultdict(Counter)
        for pop, asns, pop_asn in zip(popmap.pops, member_asns, pop_asns):
            record = db.record(pop)
            answers = record.distinct
            keys = [(round(p.lat / rounding_deg), round(p.lon / rounding_deg)) for p in answers.points]
            if pop_asn is not None:
                per_as[pop_asn].update(map(keys.__getitem__, answers.index))
                continue
            located_asns = [asn for asn, coord in zip(asns, record.coords) if coord is not None]
            for asn, i in zip(located_asns, answers.index):
                per_as[asn][keys[i]] += 1

        for asn in sorted(per_as):
            counts = per_as[asn]
            total = sum(counts.values())
            if total < min_ips:
                continue
            top_count = max(counts.values())
            top_key = min(key for key, n in counts.items() if n == top_count)
            share = top_count / total
            if share >= share_threshold:
                # a bucket next to a pole can round past it (129 * 0.7 = 90.3)
                lat = min(90.0, max(-90.0, top_key[0] * rounding_deg))
                coord = GeoCoord(lat, top_key[1] * rounding_deg)
                reports.append(AnomalyReport(db.name, asn, coord, share, total))
    return reports


def churn(
    db_old: AnswerSource, db_new: AnswerSource, popmap: PopMap, epsilon_km: float = 1.0
) -> float:
    """Fraction of a map's member addresses whose answer changed between two snapshots.

    Any null/non-null flip counts as a change; two located answers count when
    they moved more than epsilon_km apart.
    """
    if not popmap.pops:
        raise ValueError("churn over an empty PoP map")
    changed = total = 0
    for pop in popmap.pops:
        old = db_old.record(pop).coords
        new = db_new.record(pop).coords
        total += len(old)
        for a, b in zip(old, new):
            if (a is None) != (b is None):
                changed += 1
            elif a is not None and haversine_km(a, b) > epsilon_km:
                changed += 1
    return changed / total


def filter_by_region(popmap: PopMap, locations, region: RegionSpec) -> PopMap:
    """PoPs whose cross-database voted coordinate falls inside the region.

    PoPs without a voted coordinate are excluded from every region.
    """
    by_id = {loc.pop_id: loc for loc in locations}
    kept = tuple(
        pop
        for pop in popmap.pops
        if (loc := by_id.get(pop.id)) is not None
        and loc.coord is not None
        and region.contains(loc.coord)
    )
    return PopMap(kept)
