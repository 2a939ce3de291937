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

import json
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Optional, Sequence

from .ingest import DelayEdge, ParseError, PrefixMap
from .iputil import ip_to_int, sort_ips


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
        if self.pop_max_delay_ms <= 0:
            raise ValueError("pop_max_delay_ms must be positive")
        if self.pop_min_measurements < 1:
            raise ValueError("pop_min_measurements must be >= 1")
        if self.singleton_max_links < 0:
            raise ValueError("singleton_max_links must be >= 0")
        if self.singleton_max_median_ms is not None and self.singleton_max_median_ms <= 0:
            raise ValueError("singleton_max_median_ms must be positive")

    @property
    def singleton_median_ms(self) -> float:
        return self.pop_max_delay_ms if self.singleton_max_median_ms is None else self.singleton_max_median_ms


@dataclass(frozen=True)
class PoP:
    """A group of co-located interfaces of one AS.

    id is the numerically lowest core member address, which makes ids stable
    across runs and input orderings.
    """

    id: str
    asn: int
    core_members: frozenset[str]
    singleton_members: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.core_members:
            raise ValueError("PoP without core members")
        if self.core_members & self.singleton_members:
            raise ValueError("core and singleton member sets overlap")

    def members(self) -> frozenset[str]:
        return self.core_members | self.singleton_members


@dataclass(frozen=True)
class PopMap:
    """PoPs with disjoint members; every reader of a map counts all of pop.members()."""

    pops: tuple[PoP, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for pop in self.pops:
            for ip in pop.members():
                if ip in seen:
                    raise ValueError(f"interface {ip} belongs to more than one PoP")
                seen.add(ip)

    def member_ips(self) -> list[str]:
        """All member addresses across PoPs, numerically sorted."""
        out: list[str] = []
        for pop in self.pops:
            out.extend(pop.members())
        return sort_ips(out)

    def core(self) -> "PopMap":
        """This map with every PoP's singleton members dropped."""
        return PopMap(tuple(replace(pop, singleton_members=frozenset()) for pop in self.pops))

    def core_ip_count(self) -> int:
        return sum(len(p.core_members) for p in self.pops)


class _DisjointSets:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def classes(self) -> dict:
        groups = defaultdict(list)
        for x in self._parent:
            groups[self.find(x)].append(x)
        return groups


def filter_graph(edges: Sequence[DelayEdge], prefix_map: PrefixMap, cfg: ExtractionConfig) -> list[DelayEdge]:
    """Keep well-measured, short edges within one AS known to prefix_map: the graph PoPs are built on."""
    return [
        e
        for e in edges
        if e.median_delay_ms <= cfg.pop_max_delay_ms
        and e.count >= cfg.pop_min_measurements
        and (asn := prefix_map.lookup(e.src)) is not None
        and asn == prefix_map.lookup(e.dst)
    ]


def connected_components(edges: Sequence[DelayEdge]) -> list[set[str]]:
    """Undirected connected components of the filtered graph, ordered by lowest member."""
    nodes: set[str] = set()
    for e in edges:
        nodes.add(e.src)
        nodes.add(e.dst)
    dsu = _DisjointSets(nodes)
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
    for ip in sort_ips(neighbors):
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
            ((idx, float(median(vals))) for idx, vals in delays_to_pop.items()),
            key=lambda item: (item[1], ip_to_int(popmap.pops[item[0]].id)),
        )
        if best_median <= cfg.singleton_median_ms:
            assigned[best_idx].add(ip)

    pops = tuple(
        replace(pop, singleton_members=frozenset(assigned.get(idx, ())))
        for idx, pop in enumerate(popmap.pops)
    )
    return PopMap(pops)


def _component_pops(graph: Sequence[DelayEdge], prefix_map: PrefixMap) -> PopMap:
    """One PoP per connected component of a filtered graph.

    Only a self-loop edge yields a one-interface component; it is dropped,
    because a PoP needs at least two co-located interfaces to be credible.
    """
    pops = []
    for members in connected_components(graph):
        if len(members) < 2:
            continue
        pop_id = min(members, key=ip_to_int)
        pops.append(PoP(pop_id, prefix_map.lookup(pop_id), frozenset(members)))
    return PopMap(tuple(pops))


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
    popmap = _component_pops(filter_graph(edges, prefix_map, cfg), prefix_map)
    if with_singletons:
        popmap = attach_singletons(popmap, edges, prefix_map, cfg)
    return popmap


def threshold_sweep(
    edges: Sequence[DelayEdge],
    prefix_map: PrefixMap,
    cfg: ExtractionConfig,
    delay_grid: Sequence[float],
) -> list[tuple[float, int, int]]:
    """Re-run extraction for each delay threshold in an ascending grid.

    Returns (threshold_ms, pop_count, ip_count) rows; every other config
    field is held fixed.
    """
    if not delay_grid:
        raise ValueError("empty delay grid")
    if any(b <= a for a, b in zip(delay_grid, delay_grid[1:])):
        raise ValueError("delay grid must be strictly ascending")
    rows = []
    for threshold in delay_grid:
        graph = filter_graph(edges, prefix_map, replace(cfg, pop_max_delay_ms=threshold))
        popmap = _component_pops(graph, prefix_map)
        rows.append((threshold, len(popmap.pops), popmap.core_ip_count()))
    return rows


def popmap_to_obj(popmap: PopMap) -> list[dict]:
    return [
        {
            "id": pop.id,
            "asn": pop.asn,
            "core_members": sort_ips(pop.core_members),
            "singleton_members": sort_ips(pop.singleton_members),
        }
        for pop in popmap.pops
    ]


def save_popmap(popmap: PopMap, path) -> None:
    Path(path).write_text(json.dumps(popmap_to_obj(popmap), indent=2) + "\n", encoding="utf-8")


def _members(ips: list) -> frozenset[str]:
    """One member list of a map file; every member must parse with ip_to_int."""
    for ip in ips:
        if not isinstance(ip, str):
            raise TypeError(f"member {ip!r} is not an address string")
        ip_to_int(ip)
    return frozenset(ips)


def load_popmap(path) -> PopMap:
    """Read a map written by save_popmap; a malformed file is a ParseError naming it."""
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
        pops = tuple(
            PoP(
                row["id"],
                int(row["asn"]),
                _members(row["core_members"]),
                _members(row.get("singleton_members", [])),
            )
            for row in rows
        )
        return PopMap(pops)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed PoP map {path}: {exc!r}") from exc
