"""Geolocation sources behind one query interface.

Two file-backed kinds exist: range databases (`start_ip,end_ip,country,city,
lat,lon`) and per-IP point databases (`ip,lat,lon`). A miss or a record
without usable coordinates is a null reply, which is a value here, not an
error: "country known, coordinates unknown" stays representable.

Range rows stay in file order, and one pass over them resolves a sorted
address list: each row overwrites the answers of the addresses it covers, so
later lines win without an interval index.

Readers take a PoP's answers through `answers(pop)`: each of `pop.members()`,
in the numeric order the PoP keeps, with a coordinate or None. A GeoDatabase
resolves them; an AnswerTable looks them up in one address -> coordinate
mapping per database file, resolved once over the member ints a map keeps. The
PoP decides which members count and in what order; the table only answers.
`record(pop)` gives the same answers as one PopAnswers (coordinates, nulls,
distinct points, median); an AnswerTable builds it on the first request and
keeps it, so every metric over a PoP reads the table once.

synth_db builds a point database from a planted PoP map, with controllable
positional noise, null probability and a headquarters-style pin of a fraction
of one AS to a single coordinate. It is the test oracle that makes the
evaluation metrics checkable without proprietary data.
"""

import math
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .geo import DistinctPoints, GeoCoord, coordinate_median, destination_point
from .ingest import read_records, write_records
from .iputil import int_to_ip, ip_to_int, parse_ip


@dataclass(frozen=True)
class GeoRecord:
    """A database's answer for one address: a coordinate, or None on a null reply, and its country and city."""

    coord: Optional[GeoCoord] = None
    country: Optional[str] = None
    city: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.coord is None


NULL_RECORD = GeoRecord()

# one member address with a database's coordinate for it, None on a null reply
Answer = tuple[str, Optional[GeoCoord]]


class PopAnswers:
    """One PoP's answers, read once: a coordinate, or None on a null reply, per answer.

    coords are in the reader's order: pop.members() order for one database,
    member-major for several. located drops the nulls and keeps the order.
    distinct (identical answers held once, with their unit vectors), median
    (the coordinate median of located) and median_dots are computed on first
    use and kept, so the vote, the agreement and every report share them.
    candidates() is the one scan of candidate centres that the fallback vote
    and the agreement both read.
    """

    __slots__ = ("coords", "located", "_distinct", "_median", "_median_dots")

    def __init__(self, coords: list[Optional[GeoCoord]]):
        self.coords = coords
        self.located = list(filter(None, coords))  # a GeoCoord is never false
        self._distinct: Optional[DistinctPoints] = None
        self._median: Optional[GeoCoord] = None
        self._median_dots: Optional[list[float]] = None

    @property
    def nulls(self) -> int:
        return len(self.coords) - len(self.located)

    @property
    def distinct(self) -> DistinctPoints:
        if self._distinct is None:
            self._distinct = DistinctPoints(self.located)
        return self._distinct

    @property
    def median(self) -> GeoCoord:
        """coordinate_median of the located answers; ValueError when there are none."""
        if self._median is None:
            self._median = coordinate_median(self.located)
        return self._median

    @property
    def median_dots(self) -> list[float]:
        """distinct.dots(median): the vote's first radius tests and the agreement's first row."""
        if self._median_dots is None:
            self._median_dots = self.distinct.dots(self.median)
        return self._median_dots

    def candidates(self) -> Iterator[tuple[GeoCoord, list[float]]]:
        """Each candidate centre with its dots row: the median with median_dots, then each distinct point.

        The points come in first-seen order, and a point's row is computed
        only when the scan reaches it, so a reader that stops early skips the
        rest.
        """
        yield self.median, self.median_dots
        distinct = self.distinct
        for i, point in enumerate(distinct.points):
            yield point, distinct.point_dots(i)


class GeoDatabase:
    """Immutable IP -> GeoRecord source; kind is "range" or "point".

    Range entries are closed intervals [start_ip, end_ip] kept in file
    order; where they overlap, the later entry answers. resolve answers a
    sorted address list in one pass over the entries, so a range query
    costs O(entries): no path of the pipeline queries one address at a
    time, and answer_table resolves every member of a map at once.
    """

    def __init__(self, name: str, kind: str, *, ranges=None, points=None):
        if kind not in ("range", "point"):
            raise ValueError(f"unknown database kind {kind!r}")
        self.name = name
        self.kind = kind
        self._ranges = list(ranges or []) if kind == "range" else None
        self._points = dict(points or {}) if kind == "point" else None

    def resolve(self, values: Sequence[int]) -> list[GeoRecord]:
        """The record of each address int of ascending values, NULL_RECORD on a miss."""
        if self.kind == "point":
            return [self._points.get(v, NULL_RECORD) for v in values]
        records = [NULL_RECORD] * len(values)
        for start, end, rec in self._ranges:  # file order: later entries overwrite
            lo = bisect_left(values, start)
            hi = bisect_right(values, end, lo)
            if lo < hi:
                records[lo:hi] = [rec] * (hi - lo)
        return records

    def query(self, ip: str) -> GeoRecord:
        return self.resolve([ip_to_int(ip)])[0]

    def answers(self, pop) -> tuple[Answer, ...]:
        """Each of pop.members(), in its numeric address order, with its coordinate or None."""
        members = pop.members()
        records = self.resolve([ip_to_int(ip) for ip in members])
        return tuple((ip, rec.coord) for ip, rec in zip(members, records))

    def record(self, pop) -> PopAnswers:
        """pop's answers as one record, resolved afresh on every call."""
        return PopAnswers([coord for _, coord in self.answers(pop)])

    def point_entries(self) -> list[tuple[str, GeoRecord]]:
        """Point-kind entries sorted by address, for serialization."""
        if self.kind != "point":
            raise ValueError("point_entries on a range database")
        return [(int_to_ip(v), rec) for v, rec in sorted(self._points.items())]


class AnswerTable:
    """One database's coordinate (None on a null reply) for every member of a PoP map.

    coords maps each member address to its coordinate, resolved once. Built
    over the singleton map, the table answers any PoP whose members it holds,
    so readers of the core map use it too. records keeps each PoP's
    PopAnswers, keyed by its members() tuple, so every reader of a PoP gets
    the one record that a single answers() call filled. Two names on one
    database file share one coords mapping and one records dict.
    """

    __slots__ = ("name", "coords", "records")

    def __init__(
        self,
        name: str,
        coords: Mapping[str, Optional[GeoCoord]],
        records: Optional[dict[tuple[str, ...], PopAnswers]] = None,
    ):
        self.name = name
        self.coords = coords
        self.records = {} if records is None else records

    def answers(self, pop) -> tuple[Answer, ...]:
        """GeoDatabase.answers for pop, read from the table."""
        members = pop.members()
        return tuple(zip(members, map(self.coords.__getitem__, members)))

    def record(self, pop) -> PopAnswers:
        """pop's answers as one record, read with one answers() call per distinct member tuple."""
        members = pop.members()
        rec = self.records.get(members)
        if rec is None:
            rec = self.records[members] = PopAnswers([coord for _, coord in self.answers(pop)])
        return rec


def answer_table(db: GeoDatabase, popmap) -> AnswerTable:
    """db's answers for every member of popmap, from one resolve over the address ints the map keeps."""
    records = db.resolve(popmap.member_ints())
    return AnswerTable(db.name, {ip: rec.coord for ip, rec in zip(popmap.member_ips(), records)})


# what every reader of answers accepts
AnswerSource = Union[GeoDatabase, AnswerTable]


def _parse_coord_fields(lat_text: str, lon_text: str, null_coords) -> Optional[GeoCoord]:
    if not lat_text or not lon_text:
        return None
    coord = GeoCoord(float(lat_text), float(lon_text))
    if null_coords and (coord.lat, coord.lon) in null_coords:
        return None
    return coord


def load_range_db(lines: Iterable[str], name: str, null_coords=None) -> GeoDatabase:
    """Load `start_ip,end_ip,country,city,lat,lon` lines; later lines win on overlap."""

    def entry(row: list[str]) -> tuple[int, int, GeoRecord]:
        if len(row) != 6:
            raise ValueError(f"expected 6 fields, got {len(row)}")
        start = parse_ip(row[0])
        end = parse_ip(row[1])
        if start > end:
            raise ValueError(f"range start {row[0]} above end {row[1]}")
        coord = _parse_coord_fields(row[4], row[5], null_coords)
        return start, end, GeoRecord(coord, row[2] or None, row[3] or None)

    return GeoDatabase(name, "range", ranges=read_records(lines, f"database {name}", entry))


def load_point_db(lines: Iterable[str], name: str, null_coords=None) -> GeoDatabase:
    """Load `ip,lat,lon` lines into an exact-match table; duplicate IPs keep the last line."""

    def point(row: list[str]) -> tuple[int, GeoRecord]:
        if len(row) != 3:
            raise ValueError(f"expected 3 fields, got {len(row)}")
        return parse_ip(row[0]), GeoRecord(_parse_coord_fields(row[1], row[2], null_coords))

    return GeoDatabase(name, "point", points=read_records(lines, f"database {name}", point))


def _null_coord(row: list[str]) -> tuple[float, float]:
    if len(row) != 2:
        raise ValueError(f"expected 2 fields, got {len(row)}")
    coord = GeoCoord(float(row[0]), float(row[1]))
    return coord.lat, coord.lon


def load_null_coords(lines: Iterable[str]) -> set[tuple[float, float]]:
    """Load `lat,lon` lines naming coordinates to be treated as null replies."""
    return set(read_records(lines, "null-coords", _null_coord))


def save_point_db(db: GeoDatabase, path) -> None:
    """Write db as `ip,lat,lon` lines, lat and lon empty on a null record."""
    rows = [
        (ip, None, None) if rec.coord is None else (ip, rec.coord.lat, rec.coord.lon)
        for ip, rec in db.point_entries()
    ]
    write_records(path, rows)


def db_seed(base_seed: int, name: str) -> int:
    """Stable per-database RNG seed derived from a scenario seed and a name."""
    return (base_seed << 16) ^ zlib.crc32(name.encode("utf-8"))


def synth_db(
    truth: dict[str, GeoCoord],
    popmap,
    noise_km: float = 0.0,
    null_rate: float = 0.0,
    hq_override: Optional[tuple[int, GeoCoord, float]] = None,
    seed: int = 0,
    name: str = "synth",
) -> GeoDatabase:
    """Point database answering for every PoP member, built from planted truth.

    Each member gets its PoP's true coordinate displaced along a random
    bearing by a random distance of at most noise_km, then is independently
    nulled with probability null_rate. With hq_override=(asn, coord,
    fraction), that fraction of the AS's members (picked by a seeded shuffle)
    is pinned to the override coordinate instead, mimicking a database that
    defaults an ISP to its headquarters. Deterministic for a given seed.
    """
    if not 0.0 <= null_rate <= 1.0:
        raise ValueError("null_rate outside [0, 1]")
    if noise_km < 0:
        raise ValueError("negative noise_km")
    import random  # only synth draws, so the stages that read databases never load it

    rng = random.Random(seed)

    pinned: set[str] = set()
    hq_coord = None
    if hq_override is not None:
        hq_asn, hq_coord, fraction = hq_override
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("hq fraction outside [0, 1]")
        as_members = {ip for pop in popmap.pops if pop.asn == hq_asn for ip in pop.members()}
        as_ips = [ip for ip in popmap.member_ips() if ip in as_members]
        rng.shuffle(as_ips)
        pinned = set(as_ips[: round(fraction * len(as_ips))])

    points = {}
    for pop in sorted(popmap.pops, key=lambda p: ip_to_int(p.id)):
        center = truth[pop.id]
        for ip in pop.members():
            if ip in pinned:
                coord = hq_coord
            elif noise_km > 0:
                bearing = rng.uniform(0.0, 2.0 * math.pi)
                coord = destination_point(center, bearing, rng.uniform(0.0, noise_km))
            else:
                coord = center
            if null_rate > 0 and rng.random() < null_rate:
                coord = None
            points[ip_to_int(ip)] = GeoRecord(coord)
    return GeoDatabase(name, "point", points=points)
