from dataclasses import replace

from hypothesis import given, strategies as st

from popgeo.geo import GeoCoord
from popgeo.geodb import answer_table, load_range_db
from popgeo.iputil import int_to_ip, ip_to_int

from conftest import make_pop, make_popmap

BASE = ip_to_int("10.0.0.0")


def _ip(offset: int) -> str:
    return int_to_ip(BASE + offset)


@given(
    st.lists(st.tuples(st.integers(0, 120), st.integers(0, 120), st.booleans()), min_size=1, max_size=20),
    st.data(),
)
def test_answer_table_matches_last_covering_line(rows, data):
    lines, spans = [], []
    for i, (a, b, null) in enumerate(rows):
        lo, hi = min(a, b), max(a, b)
        latlon = "," if null else f"{i}.0,{i}.5"
        lines.append(f"{_ip(lo)},{_ip(hi)},CC,c{i},{latlon}")
        spans.append((lo, hi, None if null else GeoCoord(float(i), i + 0.5)))

    # members at every start and end, just outside them, and beyond every range
    boundaries = sorted({v for lo, hi, _ in spans for v in (lo - 1, lo, hi, hi + 1) if v >= 0} | {125, 130})
    offsets = data.draw(
        st.lists(st.sampled_from(boundaries) | st.integers(0, 130), min_size=1, max_size=30, unique=True)
    )
    pops, rest = [], list(offsets)
    while rest:
        size = data.draw(st.integers(1, 4))
        group, rest = rest[:size], rest[size:]
        singletons = [v for v in group[1:] if data.draw(st.booleans())]
        core = [_ip(v) for v in group if v not in singletons]
        pop_id = min(core, key=ip_to_int)
        pops.append(make_pop(pop_id, core, singletons=[_ip(v) for v in singletons]))
    popmap = make_popmap(*pops)

    def oracle(offset):
        coord = None
        for lo, hi, span_coord in spans:  # later lines shadow earlier ones
            if lo <= offset <= hi:
                coord = span_coord
        return coord

    expected = {_ip(v): oracle(v) for v in offsets}
    db = load_range_db(lines, "t")
    table = answer_table(db, popmap)
    for pop in popmap.pops:
        full = tuple((ip, expected[ip]) for ip in sorted(pop.members(), key=ip_to_int))
        core = tuple(a for a in full if a[0] in pop.core_members)
        assert table.answers(pop) == full
        assert table.answers(replace(pop, singleton_members=frozenset())) == core
        assert db.answers(pop) == full
    assert {ip: db.query(ip).coord for ip in expected} == expected
