"""Deterministic synthetic scenarios with planted, known-truth PoPs.

A scenario plants a set of PoPs (dense parent/child bipartite cores, short
internal delays), wires same-AS PoPs together with long inter-PoP links,
optionally hangs low-degree pendant interfaces off them, and derives
geolocation databases of configurable quality from the planted coordinates.
Everything is a pure function of the spec, including its seed, so fixtures
are byte-reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .extract import PoP, PopMap
from .geo import GeoCoord
from .geodb import GeoDatabase, db_seed, save_point_db, synth_db
from .ingest import DelayObservation
from .iputil import ip_to_int

BASE_ASN = 65000


@dataclass(frozen=True)
class SynthDbSpec:
    """Quality knobs for one derived database.

    hq_* pins hq_fraction of one AS's addresses to a single coordinate,
    the shape of a headquarters-default database.
    """

    name: str
    noise_km: float = 0.0
    null_rate: float = 0.0
    hq_asn: Optional[int] = None
    hq_lat: float = 0.0
    hq_lon: float = 0.0
    hq_fraction: float = 0.0

    def hq_override(self) -> Optional[tuple[int, GeoCoord, float]]:
        if self.hq_asn is None:
            return None
        return self.hq_asn, GeoCoord(self.hq_lat, self.hq_lon), self.hq_fraction


@dataclass(frozen=True)
class SynthSpec:
    pop_count: int = 50
    ips_per_pop: int = 10
    as_count: int = 5
    intra_delay_ms: tuple[float, float] = (1.5, 2.0)
    inter_delay_ms: tuple[float, float] = (10.0, 30.0)
    measurements_per_edge: int = 5
    singletons_per_pop: int = 0
    singleton_edge_measurements: int = 2
    seed: int = 0
    dbs: tuple[SynthDbSpec, ...] = (SynthDbSpec("truthful"),)

    def __post_init__(self):
        if not 1 <= self.pop_count <= 255:
            raise ValueError("pop_count outside 1..255")
        if self.ips_per_pop < 2:
            raise ValueError("ips_per_pop must be >= 2")
        if not 1 <= self.as_count <= min(self.pop_count, 200):
            raise ValueError("as_count outside 1..min(pop_count, 200)")
        if self.ips_per_pop + self.singletons_per_pop > 254:
            raise ValueError("too many addresses per PoP for a /24 block")
        lo_i, hi_i = self.intra_delay_ms
        lo_x, hi_x = self.inter_delay_ms
        if not 0 < lo_i <= hi_i or not 0 < lo_x <= hi_x:
            raise ValueError("delay ranges must be positive and ordered")
        if hi_i >= lo_x:
            raise ValueError("intra-PoP delays must stay below inter-PoP delays")
        if self.measurements_per_edge < 1 or self.singleton_edge_measurements < 1:
            raise ValueError("measurement counts must be >= 1")
        names = [d.name for d in self.dbs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate database names")


@dataclass(frozen=True)
class Scenario:
    spec: SynthSpec
    observations: tuple[DelayObservation, ...]
    ip2as_entries: tuple[tuple[str, int], ...]
    truth_core: PopMap
    truth_all: PopMap
    truth_coords: dict[str, GeoCoord] = field(hash=False)
    dbs: tuple[GeoDatabase, ...] = ()

    def db(self, name: str) -> GeoDatabase:
        for db in self.dbs:
            if db.name == name:
                return db
        raise KeyError(name)


def _pop_addresses(as_index: int, pop_index: int, spec: SynthSpec) -> tuple[list[str], list[str]]:
    """Core and pendant addresses for one planted PoP, in its own /24 block."""
    block = f"10.{as_index}.{pop_index}"
    core = [f"{block}.{h}" for h in range(1, spec.ips_per_pop + 1)]
    pendants = [
        f"{block}.{h}"
        for h in range(spec.ips_per_pop + 1, spec.ips_per_pop + spec.singletons_per_pop + 1)
    ]
    return core, pendants


def generate_scenario(spec: SynthSpec) -> Scenario:
    rng = random.Random(spec.seed)

    pops = []
    truth_coords: dict[str, GeoCoord] = {}
    parents_of: dict[str, list[str]] = {}
    children_of: dict[str, list[str]] = {}
    pendants_of: dict[str, list[str]] = {}
    by_as: dict[int, list[str]] = {}

    for p in range(spec.pop_count):
        as_index = p % spec.as_count
        asn = BASE_ASN + as_index
        core, pendants = _pop_addresses(as_index, p, spec)
        split = (len(core) + 1) // 2
        pop = PoP(core[0], asn, frozenset(core), frozenset(pendants))
        pops.append(pop)
        truth_coords[pop.id] = GeoCoord(rng.uniform(-55.0, 65.0), rng.uniform(-175.0, 175.0))
        parents_of[pop.id] = core[:split]
        children_of[pop.id] = core[split:]
        pendants_of[pop.id] = pendants
        by_as.setdefault(as_index, []).append(pop.id)

    observations: list[DelayObservation] = []

    def _emit(src: str, dst: str, delay: float, times: int):
        observations.extend([DelayObservation(src, dst, delay)] * times)

    for pop in pops:
        for parent in parents_of[pop.id]:
            for child in children_of[pop.id]:
                _emit(parent, child, rng.uniform(*spec.intra_delay_ms), spec.measurements_per_edge)
        for i, pendant in enumerate(pendants_of[pop.id]):
            anchor = children_of[pop.id][i % len(children_of[pop.id])]
            _emit(anchor, pendant, rng.uniform(*spec.intra_delay_ms), spec.singleton_edge_measurements)

    # long links chaining same-AS PoPs: kept by the count filter, dropped by delay
    for as_index in sorted(by_as):
        chain = by_as[as_index]
        for a, b in zip(chain, chain[1:]):
            _emit(
                children_of[a][-1],
                parents_of[b][0],
                rng.uniform(*spec.inter_delay_ms),
                spec.measurements_per_edge,
            )

    # short links between ASes: dropped by the same-AS requirement alone
    for as_index in range(spec.as_count - 1):
        a = by_as[as_index][0]
        b = by_as[as_index + 1][0]
        _emit(parents_of[a][0], parents_of[b][0], rng.uniform(*spec.intra_delay_ms), spec.measurements_per_edge)

    ip2as = tuple((f"10.{a}.0.0/16", BASE_ASN + a) for a in range(spec.as_count))

    ordered = tuple(sorted(pops, key=lambda p: ip_to_int(p.id)))
    truth_all = PopMap(ordered)
    truth_core = truth_all.core()

    dbs = tuple(
        synth_db(
            truth_coords,
            truth_all,
            noise_km=d.noise_km,
            null_rate=d.null_rate,
            hq_override=d.hq_override(),
            seed=db_seed(spec.seed, d.name),
            name=d.name,
        )
        for d in spec.dbs
    )
    return Scenario(spec, tuple(observations), ip2as, truth_core, truth_all, truth_coords, dbs)


def observation_lines(scenario: Scenario) -> list[str]:
    return [f"{o.src},{o.dst},{o.delay_ms!r}" for o in scenario.observations]


def ip2as_lines(scenario: Scenario) -> list[str]:
    return [f"{prefix},{asn}" for prefix, asn in scenario.ip2as_entries]


def truth_obj(scenario: Scenario) -> list[dict]:
    rows = []
    for pop in scenario.truth_all.pops:
        coord = scenario.truth_coords[pop.id]
        rows.append(
            {
                "id": pop.id,
                "asn": pop.asn,
                "lat": coord.lat,
                "lon": coord.lon,
                "core_members": sorted(pop.core_members, key=ip_to_int),
                "singleton_members": sorted(pop.singleton_members, key=ip_to_int),
            }
        )
    return rows


def write_scenario(scenario: Scenario, out_dir) -> dict[str, Path]:
    """Write the full fixture to disk; returns the path of every artifact."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "observations": out / "observations.csv",
        "ip2as": out / "ip2as.csv",
        "truth": out / "truth.json",
    }
    paths["observations"].write_text("\n".join(observation_lines(scenario)) + "\n", encoding="utf-8")
    paths["ip2as"].write_text("\n".join(ip2as_lines(scenario)) + "\n", encoding="utf-8")
    paths["truth"].write_text(json.dumps(truth_obj(scenario), indent=2) + "\n", encoding="utf-8")
    for db in scenario.dbs:
        db_path = out / f"db_{db.name}.csv"
        save_point_db(db, db_path)
        paths[f"db:{db.name}"] = db_path
    return paths
