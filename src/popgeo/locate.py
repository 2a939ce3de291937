"""PoP localization by expanding-radius majority vote.

Every (member IP, database) pair contributes one answer element. The vote
starts at the component-wise median of the located elements and grows a
circle in fixed kilometer steps until it holds the configured majority of
located elements; the location is then re-centered on the median of the
in-range elements only, discarding far outliers. When no radius up to the
maximum wins a majority, the largest cluster of answers around any single
candidate center is used instead and the location is marked non-converged.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .extract import PopMap
from .geo import GeoCoord, coordinate_median, haversine_km
from .geodb import GeoDatabase
from .iputil import ip_to_int

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
class VoteConfig:
    """Radius schedule and majority rule for the location vote.

    Defaults step by 1.11 km (0.01 degree) up to 555 km (5 degrees); 111 and
    500 km are the usual alternate caps.
    """

    step_km: float = 1.11
    max_radius_km: float = 555.0
    majority_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.step_km <= self.max_radius_km:
            raise ValueError("need 0 < step_km <= max_radius_km")
        if not 0 < self.majority_fraction <= 1:
            raise ValueError("majority_fraction outside (0, 1]")


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


def radius_grid(cfg: VoteConfig) -> list[float]:
    """The vote's radius schedule: step, 2*step, ... up to max_radius_km.

    Multiples are taken while k*step <= max_radius_km + 1e-9; if the last
    multiple still falls short of the cap by more than 1e-9 km, the cap
    itself is appended as the final radius.
    """
    n = int((cfg.max_radius_km + _GRID_EPS_KM) / cfg.step_km)
    grid = [k * cfg.step_km for k in range(1, n + 1)]
    if not grid or grid[-1] < cfg.max_radius_km - _GRID_EPS_KM:
        grid.append(cfg.max_radius_km)
    return grid


def collect_elements(
    pop, dbs: Sequence[GeoDatabase], include_singletons: bool = False
) -> list[IpElement]:
    """The full answer grid: one element per (member IP, database) pair."""
    members = sorted(pop.members(include_singletons), key=ip_to_int)
    return [
        IpElement(ip, db.name, db.query(ip).coord) for ip in members for db in dbs
    ]


def _located(elements: Sequence[IpElement]) -> list[IpElement]:
    return [e for e in elements if e.coord is not None]


def majority_vote_range(
    elements: Sequence[IpElement], center: GeoCoord, cfg: VoteConfig
) -> tuple[float, bool]:
    """Smallest scheduled radius around center holding a majority of located elements.

    Returns (radius, True) on success, (max_radius_km, False) when even the
    final radius holds fewer than majority_fraction of the located elements.
    """
    located = _located(elements)
    if not located:
        raise ValueError("majority vote needs at least one located element")
    dists = sorted(haversine_km(e.coord, center) for e in located)
    need = math.ceil(cfg.majority_fraction * len(located))
    # the winning radius is the first grid entry covering the need-th
    # nearest element; scanning and counting per radius gives the same result
    critical = dists[need - 1]
    grid = radius_grid(cfg)
    i = bisect_left(grid, critical)
    if i == len(grid):
        return cfg.max_radius_km, False
    return grid[i], True


def refine_location(
    elements: Sequence[IpElement], center: GeoCoord, range_km: float
) -> GeoCoord:
    """Median of the located elements within range_km of center."""
    in_range = [
        e.coord for e in _located(elements) if haversine_km(e.coord, center) <= range_km
    ]
    if not in_range:
        raise ValueError("no located element within range")
    return coordinate_median(in_range)


def locate_elements(pop_id: str, elements: Sequence[IpElement], cfg: VoteConfig) -> PoPLocation:
    """Run the full vote over an already collected element grid."""
    total = len(elements)
    located = _located(elements)
    if not located:
        return PoPLocation(pop_id, None, None, 0.0, 0.0, False)

    center = coordinate_median([e.coord for e in located])
    found_range, found = majority_vote_range(elements, center, cfg)
    if found:
        coord = refine_location(elements, center, found_range)
        within = sum(1 for e in located if haversine_km(e.coord, coord) <= found_range)
        return PoPLocation(
            pop_id, coord, found_range, within / total, within / len(located), True
        )

    # No majority anywhere: fall back to the largest group of votes. Every
    # located answer and the median are candidate centers; the one covering
    # the most located elements within the radius cap wins, ties broken by
    # (lat, lon) then lowest contributing address (median candidate first).
    candidates = [(e.coord, ip_to_int(e.ip)) for e in located]
    candidates.append((center, -1))

    def _coverage(cand_coord: GeoCoord) -> int:
        return sum(
            1 for e in located if haversine_km(e.coord, cand_coord) <= cfg.max_radius_km
        )

    best_coord, _ = min(
        candidates, key=lambda c: (-_coverage(c[0]), c[0].lat, c[0].lon, c[1])
    )
    group = [
        e.coord
        for e in located
        if haversine_km(e.coord, best_coord) <= cfg.max_radius_km
    ]
    coord = coordinate_median(group)
    within = sum(1 for e in located if haversine_km(e.coord, coord) <= cfg.max_radius_km)
    return PoPLocation(pop_id, coord, None, within / total, within / len(located), False)


def locate_pop(
    pop,
    dbs: Sequence[GeoDatabase],
    cfg: VoteConfig = VoteConfig(),
    include_singletons: bool = False,
) -> PoPLocation:
    """Locate one PoP from the answers of one or more databases."""
    return locate_elements(pop.id, collect_elements(pop, dbs, include_singletons), cfg)


def locate_popmap(
    popmap: PopMap, dbs: Sequence[GeoDatabase], cfg: VoteConfig = VoteConfig()
) -> dict[str, PoPLocation]:
    """Locate every PoP of a map, keyed by PoP id in map order."""
    return {
        pop.id: locate_pop(pop, dbs, cfg, popmap.with_singletons) for pop in popmap.pops
    }


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


def load_locations(path) -> list[PoPLocation]:
    rows = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        PoPLocation(
            row["pop_id"],
            None if row["lat"] is None else GeoCoord(row["lat"], row["lon"]),
            row["range_km"],
            row["frac_all"],
            row["frac_located"],
            row["converged"],
        )
        for row in rows
    ]
