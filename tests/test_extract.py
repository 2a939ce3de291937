import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from popgeo.extract import (
    ExtractionConfig,
    PoP,
    PopMap,
    attach_singletons,
    connected_components,
    extract_pops,
    filter_graph,
    load_popmap,
    save_popmap,
    threshold_sweep,
)
from popgeo.ingest import aggregate_edges, load_ip2as
from popgeo.iputil import int_to_ip, ip_to_int
from popgeo.synth import ip2as_lines

from conftest import edge


DEFAULT = ExtractionConfig()
ONE_AS = load_ip2as(["10.0.0.0/8,1"])  # every 10.x interface in AS 1


class TestConfig:
    def test_defaults_track_main_threshold(self):
        cfg = ExtractionConfig(pop_max_delay_ms=7.0)
        assert cfg.singleton_median_ms == 7.0

    def test_explicit_values_stick(self):
        cfg = ExtractionConfig(singleton_max_median_ms=3.0)
        assert cfg.singleton_median_ms == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_max_delay_ms": 0},
            {"pop_max_delay_ms": -1},
            {"pop_max_delay_ms": math.nan},
            {"pop_max_delay_ms": math.inf},
            {"pop_min_measurements": 0},
            {"singleton_max_median_ms": 0},
            {"singleton_max_median_ms": math.nan},
            {"singleton_max_median_ms": math.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExtractionConfig(**kwargs)


class TestFilterGraph:
    def test_kept(self):
        e = edge("10.0.0.1", "10.0.0.2", 3.0, count=7)
        assert filter_graph([e], ONE_AS, DEFAULT) == [e]

    def test_dropped_below_measurement_threshold(self):
        e = edge("10.0.0.1", "10.0.0.2", 3.0, count=4)
        assert filter_graph([e], ONE_AS, DEFAULT) == []

    def test_dropped_above_delay_threshold(self):
        e = edge("10.0.0.1", "10.0.0.2", 6.0, count=10)
        assert filter_graph([e], ONE_AS, DEFAULT) == []

    def test_dropped_cross_as_or_unknown(self):
        cross = edge("10.0.0.1", "10.0.0.2", 1.0)
        unknown = edge("10.0.0.3", "10.0.0.4", 1.0)
        prefix_map = load_ip2as(["10.0.0.1/32,1", "10.0.0.2/32,2"])
        assert filter_graph([cross, unknown], prefix_map, DEFAULT) == []

    def test_boundary_values_kept(self):
        e = edge("10.0.0.1", "10.0.0.2", 5.0, count=5)
        assert filter_graph([e], ONE_AS, DEFAULT) == [e]


class TestConnectedComponents:
    def test_two_triangles(self):
        edges = [
            edge("10.0.0.1", "10.0.0.2", 1),
            edge("10.0.0.2", "10.0.0.3", 1),
            edge("10.0.0.3", "10.0.0.1", 1),
            edge("10.0.1.1", "10.0.1.2", 1),
            edge("10.0.1.2", "10.0.1.3", 1),
            edge("10.0.1.3", "10.0.1.1", 1),
        ]
        comps = connected_components(edges)
        assert [len(c) for c in comps] == [3, 3]

    def test_empty_graph(self):
        assert connected_components([]) == []

    def test_chain(self):
        edges = [edge("10.0.0.1", "10.0.0.2", 1), edge("10.0.0.2", "10.0.0.3", 1)]
        assert connected_components(edges) == [{"10.0.0.1", "10.0.0.2", "10.0.0.3"}]


def _two_pop_edges():
    """Two dense bipartite clusters at 1 ms, joined only by a 30 ms edge."""
    edges = []
    for base in ("10.0.0", "10.0.1"):
        for p in (1, 2):
            for c in (3, 4):
                edges.append(edge(f"{base}.{p}", f"{base}.{c}", 1.0))
    edges.append(edge("10.0.0.3", "10.0.1.1", 30.0))
    return edges


TWO_POP_IP2AS = ["10.0.0.0/16,1"]


class TestAttachSingletons:
    def _popmap(self):
        return PopMap(
            (
                PoP("10.0.0.1", 1, frozenset({"10.0.0.1", "10.0.0.2"})),
                PoP("10.0.1.1", 1, frozenset({"10.0.1.1", "10.0.1.2"})),
            )
        )

    def test_leaf_attaches(self):
        edges = [
            edge("10.0.0.1", "10.0.0.2", 1.0),
            edge("10.0.0.1", "10.0.0.7", 1.0),
        ]
        full = attach_singletons(self._popmap(), edges, ONE_AS, DEFAULT)
        with pytest.raises(ValueError):  # the result is a singleton map
            attach_singletons(full, edges, ONE_AS, DEFAULT)
        assert full.pops[0].singleton_members == {"10.0.0.7"}

    def test_leaf_prefers_lower_median(self):
        edges = [
            edge("10.0.0.1", "10.0.0.7", 1.0),
            edge("10.0.1.1", "10.0.0.7", 4.0),
        ]
        full = attach_singletons(self._popmap(), edges, ONE_AS, DEFAULT)
        assert full.pops[0].singleton_members == {"10.0.0.7"}
        assert full.pops[1].singleton_members == frozenset()

    def test_leaf_beyond_threshold_unassigned(self):
        edges = [edge("10.0.0.1", "10.0.0.7", 9.0)]
        full = attach_singletons(self._popmap(), edges, ONE_AS, DEFAULT)
        assert all(not p.singleton_members for p in full.pops)

    def test_too_many_links_unassigned(self):
        edges = [
            edge("10.0.0.7", "10.0.0.1", 1.0),
            edge("10.0.0.7", "10.0.0.2", 1.0),
            edge("10.0.0.7", "10.0.1.1", 1.0),
        ]
        full = attach_singletons(self._popmap(), edges, ONE_AS, DEFAULT)
        assert all(not p.singleton_members for p in full.pops)

    def test_unknown_as_excluded(self):
        edges = [edge("10.0.0.1", "10.0.0.7", 1.0)]
        full = attach_singletons(self._popmap(), edges, load_ip2as(["10.0.0.1/32,1"]), DEFAULT)
        assert all(not p.singleton_members for p in full.pops)

    def test_cross_as_pop_not_eligible(self):
        popmap = PopMap(
            (
                PoP("10.0.0.1", 1, frozenset({"10.0.0.1", "10.0.0.2"})),
                PoP("10.0.1.1", 2, frozenset({"10.0.1.1", "10.0.1.2"})),
            )
        )
        # leaf belongs to AS 2 but its only cheap edge goes into the AS 1 PoP
        edges = [
            edge("10.0.0.1", "10.0.0.7", 1.0),
            edge("10.0.1.1", "10.0.0.7", 2.0),
        ]
        prefix_map = load_ip2as(["10.0.0.1/32,1", "10.0.0.7/32,2", "10.0.1.0/24,2"])
        full = attach_singletons(popmap, edges, prefix_map, DEFAULT)
        assert full.pops[0].singleton_members == frozenset()
        assert full.pops[1].singleton_members == {"10.0.0.7"}


class TestExtractPops:
    def test_two_pop_fixture(self):
        prefix_map = load_ip2as(TWO_POP_IP2AS)
        popmap = extract_pops(_two_pop_edges(), prefix_map)
        assert len(popmap.pops) == 2
        assert popmap.pops[0].core_members == {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}
        assert popmap.pops[1].core_members == {"10.0.1.1", "10.0.1.2", "10.0.1.3", "10.0.1.4"}

    def test_component_at_threshold_is_one_pop(self):
        # three parents .1/.3/.5 and two children .2/.4 in a zigzag, every
        # edge exactly at the threshold: a count-weighted mean of the four
        # edges rounds to 0.10000000000000002, which must not split the chain
        edges = [
            edge("10.0.0.1", "10.0.0.2", 0.1, count=3),
            edge("10.0.0.3", "10.0.0.2", 0.1, count=3),
            edge("10.0.0.3", "10.0.0.4", 0.1, count=3),
            edge("10.0.0.5", "10.0.0.4", 0.1, count=3),
        ]
        cfg = ExtractionConfig(pop_max_delay_ms=0.1, pop_min_measurements=1)
        popmap = extract_pops(edges, load_ip2as(TWO_POP_IP2AS), cfg)
        assert [p.core_members for p in popmap.pops] == [{f"10.0.0.{i}" for i in range(1, 6)}]

    def test_empty_edge_list(self):
        popmap = extract_pops([], load_ip2as(TWO_POP_IP2AS))
        assert popmap.pops == ()

    def test_pendant_only_in_singleton_map(self):
        edges = _two_pop_edges()
        edges.append(edges[0].__class__("10.0.0.3", "10.0.0.9", 1.0, 2))
        prefix_map = load_ip2as(TWO_POP_IP2AS)
        core = extract_pops(edges, prefix_map, with_singletons=False)
        full = extract_pops(edges, prefix_map, with_singletons=True)
        core_ips = {ip for p in core.pops for ip in p.members()}
        assert "10.0.0.9" not in core_ips
        assert "10.0.0.9" in {ip for p in full.pops for ip in p.singleton_members}
        assert {p.core_members for p in full.pops} == {p.core_members for p in core.pops}

    def test_single_interface_candidates_dropped(self):
        # one well-measured edge pair, plus an isolated 2-node component whose
        # edge fails the count filter: no PoP may have a single member
        edges = [edge("10.0.0.1", "10.0.0.2", 1.0), edge("10.0.2.1", "10.0.2.2", 1.0, count=1)]
        popmap = extract_pops(edges, load_ip2as(TWO_POP_IP2AS))
        assert len(popmap.pops) == 1
        assert all(len(p.core_members) >= 2 for p in popmap.pops)

    def test_permutation_determinism(self):
        edges = _two_pop_edges()
        prefix_map = load_ip2as(TWO_POP_IP2AS)
        expected = extract_pops(edges, prefix_map)
        rnd = random.Random(11)
        for _ in range(5):
            shuffled = list(edges)
            rnd.shuffle(shuffled)
            assert extract_pops(shuffled, prefix_map) == expected

    def test_members_single_as(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        popmap = extract_pops(edges, prefix_map, with_singletons=True)
        for pop in popmap.pops:
            assert {prefix_map.lookup(ip) for ip in pop.members()} == {pop.asn}

    def test_core_members_touch_filtered_graph(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        graph = filter_graph(edges, prefix_map, DEFAULT)
        incident = {e.src for e in graph} | {e.dst for e in graph}
        popmap = extract_pops(edges, prefix_map)
        for pop in popmap.pops:
            assert pop.core_members <= incident

    def test_singleton_assignments_justified_by_threshold(self, small_scenario):
        from statistics import median as stat_median

        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        full = extract_pops(edges, prefix_map, with_singletons=True)
        for pop in full.pops:
            for ip in pop.singleton_members:
                delays = [
                    e.median_delay_ms
                    for e in edges
                    if (e.src == ip and e.dst in pop.core_members)
                    or (e.dst == ip and e.src in pop.core_members)
                ]
                assert delays
                assert stat_median(delays) <= DEFAULT.singleton_median_ms

    def test_attach_rejects_extended_map(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        full = extract_pops(edges, prefix_map, with_singletons=True)
        with pytest.raises(ValueError):
            attach_singletons(full, edges, prefix_map, DEFAULT)


def _dedupe_pairs(edges):
    seen = set()
    out = []
    for e in edges:
        if e.src != e.dst and (e.src, e.dst) not in seen:
            seen.add((e.src, e.dst))
            out.append(e)
    return out


_random_edges = st.lists(
    st.builds(
        lambda s, d, m, c: edge(f"10.0.{s // 8}.{s % 8 + 1}", f"10.0.{d // 8}.{d % 8 + 1}", m, count=c),
        st.integers(0, 15),
        st.integers(0, 15),
        st.floats(min_value=0.1, max_value=12, allow_nan=False),
        st.integers(1, 10),
    ),
    max_size=40,
).map(_dedupe_pairs)

_RANDOM_GRAPH_IP2AS = ["10.0.0.0/23,1", "10.0.1.0/24,2"]

# delays on a half-millisecond grid, so that edges tie with each other and with thresholds;
# self-loops stay in, because the sweep must drop them as extraction does
_half_ms_edges = st.lists(
    st.builds(
        lambda s, d, k, c: edge(f"10.0.{s // 8}.{s % 8 + 1}", f"10.0.{d // 8}.{d % 8 + 1}", k / 2, count=c),
        st.integers(0, 19),
        st.integers(0, 19),
        st.integers(0, 24),
        st.integers(1, 10),
    ),
    max_size=40,
).map(lambda edges: list({(e.src, e.dst): e for e in edges}.values()))


class TestExtractionOnRandomGraphs:
    """Structural invariants must hold on arbitrary graphs, not only planted ones."""

    @given(_random_edges)
    def test_output_invariants(self, edges):
        pmap = load_ip2as(_RANDOM_GRAPH_IP2AS)
        popmap = extract_pops(edges, pmap, DEFAULT)
        graph = filter_graph(edges, pmap, DEFAULT)
        incident = {e.src for e in graph} | {e.dst for e in graph}
        seen = set()
        for pop in popmap.pops:
            assert len(pop.core_members) >= 2
            assert pop.id == min(pop.core_members, key=lambda ip: tuple(map(int, ip.split("."))))
            assert not (pop.core_members & seen)
            seen |= pop.core_members
            assert pop.core_members <= incident
            assert {pmap.lookup(ip) for ip in pop.core_members} == {pop.asn}

    @given(_random_edges)
    def test_pops_are_filtered_components(self, edges):
        pmap = load_ip2as(_RANDOM_GRAPH_IP2AS)
        for threshold in (1, 3, 5, 9):
            cfg = ExtractionConfig(pop_max_delay_ms=threshold)
            popmap = extract_pops(edges, pmap, cfg)
            assert [p.core_members for p in popmap.pops] == connected_components(filter_graph(edges, pmap, cfg))

    @given(_random_edges, st.randoms())
    def test_permutation_invariance(self, edges, rnd):
        pmap = load_ip2as(_RANDOM_GRAPH_IP2AS)
        expected = extract_pops(edges, pmap, DEFAULT, with_singletons=True)
        shuffled = list(edges)
        rnd.shuffle(shuffled)
        assert extract_pops(shuffled, pmap, DEFAULT, with_singletons=True) == expected


class TestFilterMonotone:
    @given(
        st.lists(
            st.builds(
                lambda s, d, m, c: edge(f"10.0.0.{s}", f"10.0.0.{d}", m, count=c),
                st.integers(1, 5),
                st.integers(6, 9),
                st.floats(min_value=0, max_value=12, allow_nan=False),
                st.integers(1, 8),
            ),
            max_size=30,
        ),
        st.floats(min_value=0.5, max_value=6, allow_nan=False),
        st.floats(min_value=0.1, max_value=6, allow_nan=False),
    )
    def test_raising_threshold_never_drops_edges(self, edges, t1, delta):
        lo = ExtractionConfig(pop_max_delay_ms=t1)
        hi = ExtractionConfig(pop_max_delay_ms=t1 + delta)
        kept_lo = filter_graph(edges, ONE_AS, lo)
        kept_hi = filter_graph(edges, ONE_AS, hi)
        assert set((e.src, e.dst) for e in kept_lo) <= set((e.src, e.dst) for e in kept_hi)


class TestThresholdSweep:
    def test_single_point_grid_matches_extract(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        popmap = extract_pops(edges, prefix_map)
        rows = threshold_sweep(edges, prefix_map, DEFAULT, [5])
        assert rows == [(5, len(popmap.pops), popmap.core_ip_count())]

    def test_multi_point_grid_matches_extract(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        grid = [0.5, 1.7, 5, 15, 40]
        expected = []
        for threshold in grid:
            popmap = extract_pops(edges, prefix_map, ExtractionConfig(pop_max_delay_ms=threshold))
            expected.append((threshold, len(popmap.pops), popmap.core_ip_count()))
        assert len(set(expected)) == len(grid)
        assert threshold_sweep(edges, prefix_map, DEFAULT, grid) == expected

    def test_plateau(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        rows = threshold_sweep(edges, prefix_map, DEFAULT, [3, 5, 7])
        assert len({(pops, ips) for _, pops, ips in rows}) == 1

    def test_below_all_medians_yields_nothing(self, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        rows = threshold_sweep(edges, prefix_map, DEFAULT, [0.5])
        assert rows == [(0.5, 0, 0)]

    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep([], load_ip2as([]), DEFAULT, [5, 3])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep([], load_ip2as([]), DEFAULT, [])

    def test_self_loop_makes_no_pop(self):
        edges = [edge("10.0.0.1", "10.0.0.1", 1.0), edge("10.0.0.2", "10.0.0.3", 9.0)]
        assert extract_pops(edges, ONE_AS, DEFAULT) == PopMap(())
        assert threshold_sweep(edges, ONE_AS, DEFAULT, [5, 10]) == [(5, 0, 0), (10, 1, 2)]

    @pytest.mark.parametrize("grid", [[0], [-1, 1], [1, math.nan, 5], [math.nan], [1, math.inf]])
    def test_non_positive_or_non_finite_threshold_rejected(self, grid):
        with pytest.raises(ValueError):
            threshold_sweep([edge("10.0.0.1", "10.0.0.2", 1.0)], ONE_AS, DEFAULT, grid)

    @given(_half_ms_edges, st.lists(st.floats(min_value=0.1, max_value=13), max_size=4), st.integers(1, 8))
    def test_matches_extract_at_every_threshold(self, edges, extra, min_count):
        pmap = load_ip2as(_RANDOM_GRAPH_IP2AS)
        cfg = ExtractionConfig(pop_min_measurements=min_count)
        # every positive edge delay is a threshold, so edges sitting exactly on one are tested
        grid = sorted({e.median_delay_ms for e in edges if e.median_delay_ms > 0} | set(extra)) or [5.0]
        expected = []
        for threshold in grid:
            popmap = extract_pops(edges, pmap, replace(cfg, pop_max_delay_ms=threshold))
            expected.append((threshold, len(popmap.pops), popmap.core_ip_count()))
        assert threshold_sweep(edges, pmap, cfg, grid) == expected


class TestPopMapSerialization:
    def test_roundtrip(self, tmp_path, small_scenario):
        prefix_map = load_ip2as(ip2as_lines(small_scenario))
        edges = aggregate_edges(list(small_scenario.observations))
        popmap = extract_pops(edges, prefix_map, with_singletons=True)
        path = tmp_path / "popmap.json"
        save_popmap(popmap, path)
        assert load_popmap(path) == popmap

    def test_members_serialized_sorted(self, tmp_path):
        popmap = PopMap((PoP("10.0.0.2", 1, frozenset({"10.0.0.10", "10.0.0.2"})),))
        path = tmp_path / "popmap.json"
        save_popmap(popmap, path)
        assert '"10.0.0.2",\n      "10.0.0.10"' in path.read_text()

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            PopMap(
                (
                    PoP("10.0.0.1", 1, frozenset({"10.0.0.1", "10.0.0.2"})),
                    PoP("10.0.0.2", 1, frozenset({"10.0.0.2", "10.0.0.3"})),
                )
            )


class TestPopMembers:
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40, unique=True), st.randoms())
    def test_members_in_numeric_order(self, values, rnd):
        ips = [int_to_ip(v) for v in values]  # drawn unordered, so string order differs from numeric order too
        cut = rnd.randint(1, len(ips))
        core, singletons = frozenset(ips[:cut]), frozenset(ips[cut:])
        pop = PoP(min(core, key=ip_to_int), 7, core, singletons)
        assert pop.members() == tuple(sorted(core | singletons, key=ip_to_int))
        assert replace(pop, singleton_members=frozenset()).members() == tuple(sorted(core, key=ip_to_int))
        # the cached order is derived from the fields, so it takes no part in hash or repr
        assert hash(pop) == hash((pop.id, 7, core, singletons))
        assert repr(pop) == f"PoP(id={pop.id!r}, asn=7, core_members={core!r}, singleton_members={singletons!r})"


# octets on both sides of the 1/2 and 2/3 digit steps, where string order and numeric order part
OCTET = st.one_of(st.integers(0, 12), st.integers(95, 105), st.integers(250, 255))


@st.composite
def interleaved_pops(draw) -> list[PoP]:
    """PoPs of AS 1 whose members are dealt from one drawn address list, so their ranges interleave.

    Each PoP has at least two core members, enough for extract_pops to find
    it as one component; the rest of the addresses join a PoP as core or
    singleton members.
    """
    ips = draw(st.lists(st.tuples(OCTET, OCTET).map("10.0.{0[0]}.{0[1]}".format), min_size=2, max_size=40, unique=True))
    count = draw(st.integers(1, len(ips) // 2))
    rest = ips[2 * count :]
    owners = draw(st.lists(st.integers(0, count - 1), min_size=len(rest), max_size=len(rest)))
    singles = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    core = [set(ips[2 * k : 2 * k + 2]) for k in range(count)]
    single = [set() for _ in range(count)]
    for ip, k, is_single in zip(rest, owners, singles):
        (single if is_single else core)[k].add(ip)
    return [PoP(min(c, key=ip_to_int), 1, frozenset(c), frozenset(s)) for c, s in zip(core, single)]


def _edges_of(pops: list[PoP]) -> list:
    """A chain of well-measured short edges through each PoP's core, and one thin edge per singleton."""
    edges = []
    for pop in pops:
        chain = sorted(pop.core_members)  # string order: the chain's shape is not the members' order
        edges += [edge(a, b, 1.0) for a, b in zip(chain, chain[1:])]
        edges += [edge(ip, pop.id, 1.0, count=1) for ip in sorted(pop.singleton_members)]
    return edges


class TestMapOrder:
    @given(interleaved_pops(), st.randoms())
    def test_member_ips_are_the_numeric_order_of_every_member(self, tmp_path_factory, pops, rnd):
        def ordered(members):
            return tuple(sorted(members, key=ip_to_int))

        every = ordered(ip for pop in pops for ip in pop.members())
        cores = ordered(ip for pop in pops for ip in pop.core_members)
        rnd.shuffle(pops)
        direct = PopMap(tuple(pops))
        extracted = extract_pops(_edges_of(pops), ONE_AS, DEFAULT, with_singletons=True)
        path = tmp_path_factory.mktemp("map") / "popmap.json"
        save_popmap(direct, path)
        for popmap in (direct, extracted, load_popmap(path)):
            assert set(popmap.pops) == set(pops)
            assert popmap.member_ips() == every
            assert popmap.member_ints() == tuple(map(ip_to_int, every))
            assert popmap.core().member_ips() == cores
            assert popmap.core().member_ints() == tuple(map(ip_to_int, cores))

    @given(interleaved_pops().filter(lambda pops: len(pops) >= 2), st.data())
    def test_a_shared_member_is_refused_by_name(self, pops, data):
        first, second = data.draw(st.permutations(range(len(pops))))[:2]
        shared = data.draw(st.sampled_from(pops[first].members()))
        pops[second] = replace(pops[second], singleton_members=pops[second].singleton_members | {shared})
        with pytest.raises(ValueError, match=f"interface {re.escape(shared)} belongs to more than one PoP"):
            PopMap(tuple(pops))
