"""Evaluation metrics over PoP maps and geolocation databases.

Covers null-reply accounting, per-database convergence and agreement CDFs,
per-IP deviation from the cross-database majority location, pairwise database
correlation, default-location (headquarters) anomaly detection, snapshot
churn, and regional breakdowns. Everything here is deterministic and pure
over its inputs. Every metric reads a database's answers through
`answers(pop)`, from a GeoDatabase or from its AnswerTable, and none
queries the database itself. A metric counts every member of the map it is
given; the core map is `PopMap.core()` of the singleton map.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import StatisticsError, correlation
from typing import Iterable, Mapping, Optional, Sequence

from .extract import PopMap
from .geo import DistinctPoints, GeoCoord, coordinate_median, distances_km, haversine_km
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
        points = []
        seen = 0
        for i, x in enumerate(ordered):
            seen += 1
            if i + 1 < len(ordered) and ordered[i + 1] == x:
                continue
            points.append((x, seen / total))
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
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"{self.label}: x values not strictly increasing")
        if any(b < a for a, b in zip(fracs, fracs[1:])):
            raise ValueError(f"{self.label}: fractions decrease")
        if fracs and fracs[-1] > 1.0 + 1e-12:
            raise ValueError(f"{self.label}: final fraction above 1")
        if self.total and self.points:
            expected = (self.total - self.tail_count) / self.total
            if abs(fracs[-1] - expected) > 1e-12:
                raise ValueError(f"{self.label}: tail does not account for the remainder")


@dataclass(frozen=True)
class CorrelationMatrix:
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
            answers = db.answers(pop)
            nulls = sum(1 for _, coord in answers if coord is None)
            total_ips += len(answers)
            null_ips += nulls
            if nulls == len(answers):
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

    Candidate centers are every distinct located answer plus the median of
    all of them. Identical answers are tested once and counted by
    multiplicity. Returns one fraction per entry of radii_km, or None when
    the database is null on every member.
    """
    coords = [c for _, c in db.answers(pop) if c is not None]
    if not coords:
        return None
    answers = DistinctPoints(coords)
    candidates = answers.points + [coordinate_median(coords)]
    return tuple(
        max(answers.count_within_km(cand, radius) for cand in candidates) / len(coords)
        for radius in radii_km
    )


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
    db_name: str
    samples: tuple[DeviationSample, ...]
    skipped_pops: int

    def cdf(self) -> CdfSeries:
        return CdfSeries.from_values(
            f"deviation:{self.db_name}", [s.deviation_km for s in self.samples]
        )


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
        located = [a for a in db_under_test.answers(pop) if a[1] is not None]
        distances = distances_km([coord for _, coord in located], cross.coord)
        samples += [DeviationSample(ip, d, own_range) for (ip, _), d in zip(located, distances)]
    return DeviationReport(db_under_test.name, tuple(samples), skipped)


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    if len(xs) < 2:
        return None
    try:
        return correlation(xs, ys)
    except StatisticsError:
        return None


def correlation_matrix(
    dbs: Sequence[AnswerSource], popmap: PopMap, include_nulls: bool = False
) -> CorrelationMatrix:
    """Pairwise Pearson correlation of database answers over a map's members.

    Each database's value vector is its latitude sequence concatenated with
    its longitude sequence. By default a pair is compared only on IPs both
    databases locate; with include_nulls, null answers enter as a (0, 0)
    sentinel, which drags correlations down where coverage differs.
    Zero-variance vectors make a coefficient undefined (None).
    """
    if len(dbs) < 2:
        raise ValueError("correlation needs at least two databases")
    answers = [
        [coord for pop in popmap.pops for _, coord in db.answers(pop)]
        for db in dbs
    ]

    def _vectors(i: int, j: int) -> tuple[list[float], list[float]]:
        lat_i, lon_i, lat_j, lon_j = [], [], [], []
        for a, b in zip(answers[i], answers[j]):
            if include_nulls:
                pa = (0.0, 0.0) if a is None else (a.lat, a.lon)
                pb = (0.0, 0.0) if b is None else (b.lat, b.lon)
            elif a is None or b is None:
                continue
            else:
                pa, pb = (a.lat, a.lon), (b.lat, b.lon)
            lat_i.append(pa[0])
            lon_i.append(pa[1])
            lat_j.append(pb[0])
            lon_j.append(pb[1])
        return lat_i + lon_i, lat_j + lon_j

    n = len(dbs)
    values: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        vec_i, _ = _vectors(i, i)
        values[i][i] = 1.0 if len(set(vec_i)) > 1 else None
        for j in range(i + 1, n):
            vi, vj = _vectors(i, j)
            values[i][j] = values[j][i] = _pearson(vi, vj)
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
    per_as: dict[int, Counter] = defaultdict(Counter)
    for pop in popmap.pops:
        for ip, coord in db.answers(pop):
            if coord is None:
                continue
            asn = prefix_map.lookup(ip) if prefix_map is not None else None
            if asn is None:
                asn = pop.asn
            key = (round(coord.lat / rounding_deg), round(coord.lon / rounding_deg))
            per_as[asn][key] += 1

    reports = []
    for asn in sorted(per_as):
        counts = per_as[asn]
        total = sum(counts.values())
        if total < min_ips:
            continue
        top_key, top_count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
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
        old = db_old.answers(pop)
        new = db_new.answers(pop)
        total += len(old)
        for (_, a), (_, b) in zip(old, new):
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
