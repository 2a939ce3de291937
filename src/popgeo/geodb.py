"""Geolocation sources behind one query interface.

Two file-backed kinds exist: range databases (`start_ip,end_ip,country,city,
lat,lon`) and per-IP point databases (`ip,lat,lon`). A miss or a record
without usable coordinates is a null reply, which is a value here, not an
error: "country known, coordinates unknown" stays representable.

Readers take a PoP's answers through `answers(pop)`: all of
`pop.members()` in numeric address order, each with a coordinate or None. A
GeoDatabase queries for them; an AnswerTable holds them, built with one
query per (database, address), and answers the same way without querying.

synth_db builds a point database from a planted PoP map, with controllable
positional noise, null probability and a headquarters-style pin of a fraction
of one AS to a single coordinate. It is the test oracle that makes the
evaluation metrics checkable without proprietary data.
"""

import math
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from .geo import GeoCoord, destination_point
from .ingest import read_records
from .iputil import int_to_ip, ip_to_int, parse_ip


@dataclass(frozen=True)
class GeoRecord:
    coord: Optional[GeoCoord] = None
    country: Optional[str] = None
    city: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.coord is None


NULL_RECORD = GeoRecord()

# one member address with a database's coordinate for it, None on a null reply
Answer = tuple[str, Optional[GeoCoord]]


class GeoDatabase:
    """Immutable IP -> GeoRecord source; kind is "range" or "point".

    Range entries are closed intervals [start_ip, end_ip], disjoint after
    normalization. Queries are pure functions of (database, ip).
    """

    def __init__(self, name: str, kind: str, *, ranges=None, points=None):
        if kind not in ("range", "point"):
            raise ValueError(f"unknown database kind {kind!r}")
        self.name = name
        self.kind = kind
        if kind == "range":
            normalized = _normalize_ranges(ranges or [])
            self._starts = [r[0] for r in normalized]
            self._ends = [r[1] for r in normalized]
            self._records = [r[2] for r in normalized]
            self._points = None
        else:
            self._points = dict(points or {})
            self._starts = self._ends = self._records = None

    def query(self, ip: str) -> GeoRecord:
        value = ip_to_int(ip)
        if self.kind == "point":
            return self._points.get(value, NULL_RECORD)
        i = bisect_right(self._starts, value) - 1
        if i >= 0 and value <= self._ends[i]:
            return self._records[i]
        return NULL_RECORD

    def answers(self, pop) -> tuple[Answer, ...]:
        """pop.members() in numeric address order, each with its coordinate or None."""
        members = sorted(pop.members(), key=ip_to_int)
        return tuple((ip, self.query(ip).coord) for ip in members)

    def point_entries(self) -> list[tuple[str, GeoRecord]]:
        """Point-kind entries sorted by address, for serialization."""
        if self.kind != "point":
            raise ValueError("point_entries on a range database")
        return [(int_to_ip(v), rec) for v, rec in sorted(self._points.items())]


class AnswerTable:
    """One database's answers for every member of a PoP map, queried once.

    rows maps each PoP id to its core answers and to all its answers, both
    as GeoDatabase.answers returns them. Built over the singleton map, the
    table serves readers of either map: a PoP without singleton members, as
    in the core map, gets the core answers. Two names on one database file
    share one rows mapping.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows: Mapping[str, tuple[tuple[Answer, ...], tuple[Answer, ...]]]):
        self.name = name
        self.rows = rows

    def answers(self, pop) -> tuple[Answer, ...]:
        """GeoDatabase.answers for pop, read from the table."""
        core, full = self.rows[pop.id]
        return full if pop.singleton_members else core


def answer_table(db: GeoDatabase, popmap) -> AnswerTable:
    """db's answers for every member of popmap, one query per address."""
    rows = {}
    for pop in popmap.pops:
        full = db.answers(pop)
        core = tuple(a for a in full if a[0] in pop.core_members) if pop.singleton_members else full
        rows[pop.id] = (core, full)
    return AnswerTable(db.name, rows)


# what every reader of answers accepts
AnswerSource = Union[GeoDatabase, AnswerTable]


def _normalize_ranges(entries):
    """Resolve overlaps so later entries win, returning disjoint sorted ranges."""
    starts: list[int] = []
    rows: list[tuple[int, int, GeoRecord]] = []

    def _insert(start, end, rec):
        i = bisect_right(starts, start)
        if i > 0 and rows[i - 1][1] >= start:
            i -= 1
        # trim or split every existing range the newcomer touches
        while i < len(rows) and rows[i][0] <= end:
            a, b, old = rows[i]
            del rows[i]
            del starts[i]
            if a < start:
                rows.insert(i, (a, start - 1, old))
                starts.insert(i, a)
                i += 1
            if b > end:
                rows.insert(i, (end + 1, b, old))
                starts.insert(i, end + 1)
        rows.insert(i, (start, end, rec))
        starts.insert(i, start)

    for start, end, rec in entries:
        _insert(start, end, rec)
    return rows


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
    lines = []
    for ip, rec in db.point_entries():
        if rec.coord is None:
            lines.append(f"{ip},,")
        else:
            lines.append(f"{ip},{rec.coord.lat!r},{rec.coord.lon!r}")
    Path(path).write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")


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
    rng = random.Random(seed)

    pinned: set[str] = set()
    hq_coord = None
    if hq_override is not None:
        hq_asn, hq_coord, fraction = hq_override
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("hq fraction outside [0, 1]")
        as_ips = sorted(
            (ip for pop in popmap.pops if pop.asn == hq_asn for ip in pop.members()),
            key=ip_to_int,
        )
        rng.shuffle(as_ips)
        pinned = set(as_ips[: round(fraction * len(as_ips))])

    points = {}
    for pop in sorted(popmap.pops, key=lambda p: ip_to_int(p.id)):
        center = truth[pop.id]
        for ip in sorted(pop.members(), key=ip_to_int):
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
