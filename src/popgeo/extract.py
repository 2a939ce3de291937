"""PoP extraction from the filtered interface graph.

A PoP is a group of interfaces of one AS joined by short, well-measured
edges. The pipeline filters the edge list by delay, measurement count and
same-AS membership, and each connected component of the surviving graph is
one PoP. No merge step follows: every surviving edge is already at most
pop_max_delay_ms long, so any split of a component would be re-joined by a
merge at that threshold. Interfaces with one or two links can be attached
afterwards as singleton members of the nearest PoP.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from .ingest import INPUT_ENCODING, DelayEdge, ParseError, PrefixMap, _middle
from .iputil import ip_to_int


@dataclass(frozen=True)
class ExtractionConfig:
    """Thresholds steering PoP extraction.

    singleton_max_median_ms defaults to pop_max_delay_ms when left as None,
    so sweeps over the main delay threshold move it along.
    """

    pop_max_delay_ms: float = 5.0
    pop_min_measurements: int = 5
    singleton_max_links: int = 2
    singleton_max_median_ms: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.pop_max_delay_ms < math.inf:
            raise ValueError(f"pop_max_delay_ms must be positive and finite, got {self.pop_max_delay_ms}")
        if self.pop_min_measurements < 1:
            raise ValueError("pop_min_measurements must be >= 1")
        if self.singleton_max_links < 0:
            raise ValueError("singleton_max_links must be >= 0")
        if self.singleton_max_median_ms is not None and not 0 < self.singleton_max_median_ms < math.inf:
            raise ValueError(f"singleton_max_median_ms must be positive and finite, got {self.singleton_max_median_ms}")

    @property
    def singleton_median_ms(self) -> float:
        return self.pop_max_delay_ms if self.singleton_max_median_ms is None else self.singleton_max_median_ms


# the longest radius schedule VoteConfig accepts (the default has 500)
MAX_RADII = 100_000


# here, not in locate, so that every command checks [vote] without loading the vote
@dataclass(frozen=True)
class VoteConfig:
    """Radius schedule and majority rule for the location vote.

    Defaults step by 1.11 km (0.01 degree) up to 555 km (5 degrees); 111 and
    500 km are the usual alternate caps. The schedule holds at most
    MAX_RADII radii: at the 555 km cap that is a 5.55 m step, finer than any
    database's coordinates.
    """

    step_km: float = 1.11
    max_radius_km: float = 555.0
    majority_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.step_km <= self.max_radius_km < math.inf:
            raise ValueError("need 0 < step_km <= max_radius_km < inf")
        if self.max_radius_km / self.step_km > MAX_RADII:
            raise ValueError(f"the radius schedule max_radius_km / step_km holds more than {MAX_RADII} radii")
        if not 0 < self.majority_fraction <= 1:
            raise ValueError("majority_fraction outside (0, 1]")


@dataclass(frozen=True)
class PoP:
    """A group of co-located interfaces of one AS.

    id is the numerically lowest core member address, which makes ids stable
    across runs and input orderings. members() is ordered once, here, and
    that order is no part of eq, hash or repr.
    """

    id: str
    asn: int
    core_members: frozenset[str]
    singleton_members: frozenset[str] = frozenset()
    _members: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.core_members:
            raise ValueError("PoP without core members")
        if self.core_members & self.singleton_members:
            raise ValueError("core and singleton member sets overlap")
        object.__setattr__(self, "_members", tuple(sorted(self.core_members | self.singleton_members, key=ip_to_int)))

    def members(self) -> tuple[str, ...]:
        """Every member, core and singleton, in numeric address order."""
        return self._members


@dataclass(frozen=True)
class PopMap:
    """PoPs with disjoint members, ordered once with their address ints; every reader counts all of pop.members()."""

    pops: tuple[PoP, ...]
    _ips: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _ints: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ip_of: dict[int, str] = {}  # one string per address int: inet_pton takes one spelling of each
        for pop in self.pops:
            for ip in pop.members():
                if (value := ip_to_int(ip)) in ip_of:
                    raise ValueError(f"interface {ip} belongs to more than one PoP")
                ip_of[value] = ip
        object.__setattr__(self, "_ints", tuple(sorted(ip_of)))
        object.__setattr__(self, "_ips", tuple(map(ip_of.__getitem__, self._ints)))

    def member_ips(self) -> tuple[str, ...]:
        """All member addresses across PoPs, in numeric order."""
        return self._ips

    def member_ints(self) -> tuple[int, ...]:
        """The address int of each of member_ips(), ascending."""
        return self._ints

    def core(self) -> "PopMap":
        """This map with every PoP's singleton members dropped."""
        return PopMap(tuple(replace(pop, singleton_members=frozenset()) for pop in self.pops))

    def core_ip_count(self) -> int:
        return sum(len(p.core_members) for p in self.pops)


class _DisjointSets:
    """Union-find over the items it has been handed; len() counts them."""

    def __init__(self):
        self._parent = {}

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x):
        root = self._parent.setdefault(x, x)
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> bool:
        """Join the sets of a and b; False when they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
        return ra != rb

    def classes(self) -> dict:
        groups = defaultdict(list)
        for x in self._parent:
            groups[self.find(x)].append(x)
        return groups


def _joins_one_as(e: DelayEdge, prefix_map: PrefixMap) -> bool:
    """e links two distinct interfaces of one AS known to prefix_map."""
    return e.src != e.dst and (asn := prefix_map.lookup(e.src)) is not None and asn == prefix_map.lookup(e.dst)


def filter_graph(edges: Sequence[DelayEdge], prefix_map: PrefixMap, cfg: ExtractionConfig) -> list[DelayEdge]:
    """Keep well-measured, short edges joining two interfaces of one AS: the graph PoPs are built on."""
    return [
        e
        for e in edges
        if e.median_delay_ms <= cfg.pop_max_delay_ms
        and e.count >= cfg.pop_min_measurements
        and _joins_one_as(e, prefix_map)
    ]


def connected_components(edges: Sequence[DelayEdge]) -> list[set[str]]:
    """Undirected connected components of the filtered graph, ordered by lowest member."""
    dsu = _DisjointSets()
    for e in edges:
        dsu.union(e.src, e.dst)
    comps = [set(members) for members in dsu.classes().values()]
    comps.sort(key=lambda c: min(ip_to_int(ip) for ip in c))
    return comps


def attach_singletons(
    popmap: PopMap, all_edges: Sequence[DelayEdge], prefix_map: PrefixMap, cfg: ExtractionConfig
) -> PopMap:
    """Attach low-degree leftover interfaces to their nearest PoP.

    An interface qualifies when it is in no PoP, has a known AS, and has at
    most singleton_max_links distinct neighbors in the unfiltered edge list.
    It joins the same-AS PoP minimizing the median of the edge delays between
    them, provided that median stays within the singleton threshold.
    """
    if any(pop.singleton_members for pop in popmap.pops):
        raise ValueError("attach_singletons expects a map extracted without singletons")
    member_of: dict[str, int] = {}
    for idx, pop in enumerate(popmap.pops):
        for ip in pop.members():
            member_of[ip] = idx

    neighbors: dict[str, set[str]] = defaultdict(set)
    incident: dict[str, list[DelayEdge]] = defaultdict(list)
    for e in all_edges:
        neighbors[e.src].add(e.dst)
        neighbors[e.dst].add(e.src)
        incident[e.src].append(e)
        incident[e.dst].append(e)

    assigned: dict[int, set[str]] = defaultdict(set)
    for ip in neighbors:  # each decision reads only the core map, so any order gives the same map
        if ip in member_of or (asn := prefix_map.lookup(ip)) is None:
            continue
        if len(neighbors[ip]) > cfg.singleton_max_links:
            continue
        delays_to_pop: dict[int, list[float]] = defaultdict(list)
        for e in incident[ip]:
            other = e.dst if e.src == ip else e.src
            pop_idx = member_of.get(other)
            if pop_idx is not None and popmap.pops[pop_idx].asn == asn:
                delays_to_pop[pop_idx].append(e.median_delay_ms)
        if not delays_to_pop:
            continue
        best_idx, best_median = min(
            ((idx, float(_middle(sorted(vals)))) for idx, vals in delays_to_pop.items()),
            key=lambda item: (item[1], ip_to_int(popmap.pops[item[0]].id)),
        )
        if best_median <= cfg.singleton_median_ms:
            assigned[best_idx].add(ip)

    pops = tuple(
        replace(pop, singleton_members=frozenset(assigned.get(idx, ())))
        for idx, pop in enumerate(popmap.pops)
    )
    return PopMap(pops)


def extract_pops(
    edges: Sequence[DelayEdge],
    prefix_map: PrefixMap,
    cfg: ExtractionConfig = ExtractionConfig(),
    with_singletons: bool = False,
) -> PopMap:
    """Full extraction pipeline over an aggregated edge list.

    Filters the graph and returns one PoP per connected component, ordered
    by id; with_singletons also attaches low-degree leftover interfaces.
    """
    pops = []
    for members in connected_components(filter_graph(edges, prefix_map, cfg)):
        pop_id = min(members, key=ip_to_int)
        pops.append(PoP(pop_id, prefix_map.lookup(pop_id), frozenset(members)))
    popmap = PopMap(tuple(pops))
    if with_singletons:
        popmap = attach_singletons(popmap, edges, prefix_map, cfg)
    return popmap


def threshold_sweep(
    edges: Sequence[DelayEdge],
    prefix_map: PrefixMap,
    cfg: ExtractionConfig,
    delay_grid: Sequence[float],
) -> list[tuple[float, int, int]]:
    """The core PoP count and size extraction gives at each threshold of an ascending grid.

    Returns (threshold_ms, pop_count, ip_count) rows; every other config
    field is held fixed. The edges that pass the count and same-AS tests are
    joined in ascending delay order, and at each threshold the interfaces
    touched so far form (interfaces - successful joins) components, one PoP
    each.
    """
    if not delay_grid:
        raise ValueError("empty delay grid")
    if not all(0 < a < b for a, b in zip(delay_grid, [*delay_grid[1:], math.inf])):
        raise ValueError(f"delay grid must be positive, finite and strictly ascending, got {list(delay_grid)}")
    kept = sorted(
        (e for e in edges if e.count >= cfg.pop_min_measurements and _joins_one_as(e, prefix_map)),
        key=lambda e: e.median_delay_ms,
    )
    dsu = _DisjointSets()
    rows = []
    joins = i = 0
    for threshold in delay_grid:
        while i < len(kept) and kept[i].median_delay_ms <= threshold:
            joins += dsu.union(kept[i].src, kept[i].dst)
            i += 1
        rows.append((threshold, len(dsu) - joins, len(dsu)))
    return rows


def popmap_to_obj(popmap: PopMap) -> list[dict]:
    return [
        {
            "id": pop.id,
            "asn": pop.asn,
            "core_members": [ip for ip in pop.members() if ip in pop.core_members],
            "singleton_members": [ip for ip in pop.members() if ip in pop.singleton_members],
        }
        for pop in popmap.pops
    ]


def save_popmap(popmap: PopMap, path) -> None:
    import json  # sweep writes no map, so only the commands that read or write one load json

    Path(path).write_text(json.dumps(popmap_to_obj(popmap), indent=2) + "\n", encoding="utf-8")


def _pop(row: dict) -> PoP:
    """One PoP of a map file: a JSON integer asn, arrays of distinct members PoP can parse, its lowest core member as id."""
    if type(row["asn"]) is not int:  # bool is an int subclass; 1.5, true and "65000" are refused alike
        raise TypeError(f"asn {row['asn']!r} is not an integer")
    members = row["core_members"], row.get("singleton_members", [])
    if not all(type(m) is list and len(set(m)) == len(m) for m in members):  # an object reads as its keys
        raise ValueError("core_members and singleton_members must be JSON arrays of distinct addresses")
    pop = PoP(row["id"], row["asn"], *map(frozenset, members))
    if pop.id != next(ip for ip in pop.members() if ip in pop.core_members):
        raise ValueError(f"PoP id {pop.id!r} is not its lowest core member")
    return pop


def load_popmap(path) -> PopMap:
    """Read a map written by save_popmap; a malformed file is a ParseError naming it.

    Members are disjoint and each id is its PoP's lowest core member, so ids are unique.
    """
    import json

    try:
        rows = json.loads(Path(path).read_text(encoding=INPUT_ENCODING))
        return PopMap(tuple(_pop(row) for row in rows))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed PoP map {path}: {exc!r}") from exc
