"""PoP localization by expanding-radius majority vote.

Every (member IP, database) pair contributes one answer, read from the
database or from its answer table as one PopAnswers record per (PoP,
database); several databases vote on their records' answers merged in
member-major order, as collect_elements lays them out. The vote
starts at the component-wise median of the located elements and grows a
circle in fixed kilometer steps until it holds the configured majority of
located elements. When no radius up to the maximum wins a majority, the
centre is instead the candidate of PopAnswers.candidates() (the median, then
each distinct answer) covering the most answers within the maximum, and the
location is marked non-converged. Either way the location is then re-centred
on the median of the in-range elements only, discarding far outliers.

locate hands its work to evaluate through two files beside its locations:
the answers of every database file over the singleton map, and the
handoff's key: a format tag, a fingerprint of the inputs the answers came
from, and the SHA-256 of the answers file and of every locations file.
_handoff_key builds it; write_handoff over the files it just wrote,
read_handoff over the very bytes it then parses. evaluate takes the
handoff only when the key it finds equals the one it builds.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .extract import MAX_RADII, PopMap, VoteConfig  # noqa: F401  (MAX_RADII: re-exported with VoteConfig)
from .geo import GeoCoord, coordinate_median
from .geodb import AnswerSource, PopAnswers
from .ingest import INPUT_ENCODING, ParseError

# the interpreter's own SHA-256: hashlib would load OpenSSL, which costs each
# stage that imports it about 2.5 ms and 5 MB of peak RSS
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython up to 3.11
    except ImportError:
        from hashlib import sha256

# tolerance when laying out the radius grid; keeps float division from
# dropping the final step (555/1.11 lands just below 500)
_GRID_EPS_KM = 1e-9


@dataclass(frozen=True)
class IpElement:
    """One database's answer for one member address; coord None on a null reply."""

    ip: str
    db_name: str
    coord: Optional[GeoCoord]


@dataclass(frozen=True)
class PoPLocation:
    """Voted PoP coordinates plus convergence diagnostics.

    range_km is None when no majority was found (non-converged); coord is
    None only when not a single element carried a location. frac_all counts
    in-range elements against all elements, frac_located against located
    elements only.
    """

    pop_id: str
    coord: Optional[GeoCoord]
    range_km: Optional[float]
    frac_all: float
    frac_located: float
    majority_found: bool


@cache
def radius_grid(cfg: VoteConfig) -> tuple[float, ...]:
    """The vote's radius schedule: step, 2*step, ... up to max_radius_km.

    Multiples are taken while k*step <= max_radius_km + 1e-9; if the last
    multiple still falls short of the cap by more than 1e-9 km, the cap
    itself is appended as the final radius. Built once per configuration.
    """
    n = int((cfg.max_radius_km + _GRID_EPS_KM) / cfg.step_km)
    steps = [k * cfg.step_km for k in range(1, n + 1)]
    if not steps or steps[-1] < cfg.max_radius_km - _GRID_EPS_KM:
        steps.append(cfg.max_radius_km)
    return tuple(steps)


def collect_elements(pop, dbs: Sequence[AnswerSource]) -> list[IpElement]:
    """The full answer grid: one element per (member IP, database) pair, in address order."""
    rows = [db.answers(pop) for db in dbs]
    return [
        IpElement(ip, db.name, coord)
        for by_db in zip(*rows)
        for db, (ip, coord) in zip(dbs, by_db)
    ]


def _majority_range(
    answers: PopAnswers, dots: Sequence[float], center: GeoCoord, cfg: VoteConfig
) -> tuple[float, bool]:
    # the winning radius is the first grid entry covering the need-th nearest
    # answer; scanning and counting per radius gives the same result
    need = math.ceil(cfg.majority_fraction * len(answers.located))
    grid = radius_grid(cfg)
    i = bisect_left(grid, answers.distinct.nth_nearest_km(dots, center, need))
    if i == len(grid):
        return cfg.max_radius_km, False
    return grid[i], True


def _in_range(answers: PopAnswers, dots: Sequence[float], center: GeoCoord, range_km: float) -> list[GeoCoord]:
    points = answers.distinct
    inside = points.inside(dots, center, range_km)
    in_range = [c for c, i in zip(answers.located, points.index) if inside[i]]
    if not in_range:
        raise ValueError("no located element within range")
    return in_range


def majority_vote_range(
    elements: Sequence[IpElement], center: GeoCoord, cfg: VoteConfig
) -> tuple[float, bool]:
    """Smallest scheduled radius around center holding a majority of located elements.

    Returns (radius, True) on success, (max_radius_km, False) when even the
    final radius holds fewer than majority_fraction of the located elements.
    """
    answers = PopAnswers([e.coord for e in elements])
    if not answers.located:
        raise ValueError("majority vote needs at least one located element")
    return _majority_range(answers, answers.distinct.dots(center), center, cfg)


def refine_location(
    elements: Sequence[IpElement], center: GeoCoord, range_km: float
) -> GeoCoord:
    """Median of the located elements within range_km of center."""
    answers = PopAnswers([e.coord for e in elements])
    return coordinate_median(_in_range(answers, answers.distinct.dots(center), center, range_km))


def locate_answers(pop_id: str, answers: PopAnswers, cfg: VoteConfig) -> PoPLocation:
    """Run the full vote over one record of answers.

    Identical answers are tested once and counted by multiplicity; medians
    still take every located answer. The record's median is the starting
    centre, and every radius test around it reads one dots row.
    """
    total = len(answers.coords)
    located = len(answers.located)
    if not located:
        return PoPLocation(pop_id, None, None, 0.0, 0.0, False)
    center, dots = answers.median, answers.median_dots
    range_km, found = _majority_range(answers, dots, center, cfg)
    if not found:
        # No majority anywhere, and range_km is the cap: of answers.candidates(),
        # the centre covering the most located answers within it wins, ties
        # broken by (lat, lon). Candidates with equal keys share their
        # coordinate and so cover the same answers.
        best_key = None
        for cand, row in answers.candidates():
            key = (-answers.distinct.counts_in(row, cand, (range_km,))[0], cand.lat, cand.lon)
            if best_key is None or key < best_key:
                best_key, center, dots = key, cand, row
    in_range = _in_range(answers, dots, center, range_km)
    if found and len(in_range) == located:  # every answer is in range: the median stays
        coord, within = center, located
    else:
        coord = coordinate_median(in_range)
        within = answers.distinct.count_within_km(coord, range_km)
    return PoPLocation(pop_id, coord, range_km if found else None, within / total, within / located, found)


def locate_elements(pop_id: str, elements: Sequence[IpElement], cfg: VoteConfig) -> PoPLocation:
    """Run the full vote over an already collected element grid."""
    return locate_answers(pop_id, PopAnswers([e.coord for e in elements]), cfg)


def _pop_answers(pop, dbs: Sequence[AnswerSource]) -> PopAnswers:
    """The answers of every database for pop as one record, in collect_elements' order.

    One database gives its own record; several give their records' answers
    merged member-major, with no element built.
    """
    if len(dbs) == 1:
        return dbs[0].record(pop)
    rows = [db.record(pop).coords for db in dbs]
    return PopAnswers([coord for by_db in zip(*rows) for coord in by_db])


def locate_pop(pop, dbs: Sequence[AnswerSource], cfg: VoteConfig = VoteConfig()) -> PoPLocation:
    """Locate one PoP from the answers of one or more databases."""
    return locate_answers(pop.id, _pop_answers(pop, dbs), cfg)


def locate_popmap(
    popmap: PopMap, dbs: Sequence[AnswerSource], cfg: VoteConfig = VoteConfig()
) -> dict[str, PoPLocation]:
    """Locate every PoP of a map, keyed by PoP id in map order."""
    return {pop.id: locate_pop(pop, dbs, cfg) for pop in popmap.pops}


def locations_to_obj(locations: Sequence[PoPLocation]) -> list[dict]:
    return [
        {
            "pop_id": loc.pop_id,
            "lat": None if loc.coord is None else loc.coord.lat,
            "lon": None if loc.coord is None else loc.coord.lon,
            "range_km": loc.range_km,
            "converged": loc.majority_found,
            "frac_all": loc.frac_all,
            "frac_located": loc.frac_located,
        }
        for loc in locations
    ]


def save_locations(locations: Sequence[PoPLocation], path) -> None:
    Path(path).write_text(
        json.dumps(locations_to_obj(locations), indent=2) + "\n", encoding="utf-8"
    )


def _locations(data: bytes, path) -> list[PoPLocation]:
    try:
        return [
            PoPLocation(
                row["pop_id"],
                None if row["lat"] is None else GeoCoord(row["lat"], row["lon"]),
                row["range_km"],
                row["frac_all"],
                row["frac_located"],
                row["converged"],
            )
            for row in json.loads(data.decode(INPUT_ENCODING))
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed locations file {path}: {exc!r}") from exc


def load_locations(path) -> list[PoPLocation]:
    """Read a file written by save_locations; a malformed file is a ParseError naming it."""
    return _locations(Path(path).read_bytes(), path)


HANDOFF = "handoff.json"
HANDOFF_ANSWERS = "handoff_answers.bin"
HANDOFF_FORMAT = "popgeo-handoff-2"


def file_sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pack_answers(coords: Mapping[str, Optional[GeoCoord]], ips: Sequence[str]) -> bytes:
    """One table's coordinate of each of ips, as little-endian (lat, lon) doubles; NaN, NaN for a null reply."""
    values: list[float] = []
    for coord in map(coords.__getitem__, ips):
        values += (math.nan, math.nan) if coord is None else (coord.lat, coord.lon)
    return struct.pack(f"<{len(values)}d", *values)


def unpack_answers(data: bytes, ips: Sequence[str], count: int) -> list[dict[str, Optional[GeoCoord]]]:
    """count tables that pack_answers packed over ips, one after another; ValueError when data holds another number of answers."""
    if len(data) != 16 * len(ips) * count:
        raise ValueError(f"{len(data)} bytes do not hold {count} tables of {len(ips)} answers")
    # a GeoCoord is never NaN, so NaN marks a null reply
    coords = [None if lat != lat else GeoCoord(lat, lon) for lat, lon in struct.iter_unpack("<2d", data)]
    n = len(ips)
    return [dict(zip(ips, coords[i * n : (i + 1) * n])) for i in range(count)]


def _handoff_key(inputs: dict, names, digest: Callable[[str], str]) -> dict:
    """What a handoff is valid for: its format, the inputs' fingerprint, and digest(file) of each handed-over file.

    The files are handoff_answers.bin and the locations_<name>.json of each of names.
    """
    files = [HANDOFF_ANSWERS, *(f"locations_{name}.json" for name in names)]
    return {"format": HANDOFF_FORMAT, "inputs": inputs, "files": {name: digest(name) for name in files}}


def write_handoff(
    out: Path, inputs: dict, tables: Mapping[object, Mapping[str, Optional[GeoCoord]]], ips: Sequence[str], names
) -> None:
    """Write the handoff: the tables packed over ips in tables' order, then the key of the files just written.

    names are those of the locations_<name>.json files already written to out.
    Each table is packed and written on its own, so only one is held as bytes.
    """
    with (out / HANDOFF_ANSWERS).open("wb") as fh:
        for coords in tables.values():
            fh.write(pack_answers(coords, ips))
    key = _handoff_key(inputs, names, lambda name: file_sha256(out / name))
    (out / HANDOFF).write_text(json.dumps(key, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_handoff(
    out: Path, inputs: Callable[[], dict], ips: Sequence[str], keys: Sequence, names
) -> tuple[dict[object, dict[str, Optional[GeoCoord]]], Optional[dict[str, dict[str, PoPLocation]]]]:
    """write_handoff's tables over ips under keys, its tables' keys in order, and each of names' locations by PoP id.

    ({}, None) when out holds no handoff, or one whose key differs from the
    key of these inputs (called only when there is a handoff), built over the
    bytes read here, which are the ones parsed.
    """
    if not (out / HANDOFF).is_file():
        return {}, None
    data: dict[str, bytes] = {}

    def digest(name: str) -> str:
        data[name] = (out / name).read_bytes()
        return sha256(data[name]).hexdigest()

    try:
        if json.loads((out / HANDOFF).read_bytes()) != _handoff_key(inputs(), names, digest):
            return {}, None
        tables = unpack_answers(data[HANDOFF_ANSWERS], ips, len(keys))
    except (OSError, ValueError):  # a missing or malformed handoff is one that differs
        return {}, None
    votes = {}
    for name in names:
        path = out / f"locations_{name}.json"
        votes[name] = {loc.pop_id: loc for loc in _locations(data[path.name], path)}
    return dict(zip(keys, tables)), votes


def drop_handoff(out: Path) -> None:
    for name in (HANDOFF, HANDOFF_ANSWERS):
        (out / name).unlink(missing_ok=True)
