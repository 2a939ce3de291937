import pytest
from hypothesis import given, strategies as st

from popgeo.evaluate import load_regions
from popgeo.geodb import load_null_coords, load_point_db, load_range_db
from popgeo.ingest import (
    DelayObservation,
    ParseError,
    aggregate_edges,
    annotate_as,
    load_ip2as,
    parse_observations,
)


class TestParseObservations:
    def test_single_line(self):
        obs = parse_observations(["1.1.1.1,2.2.2.2,3.5"])
        assert obs == [DelayObservation("1.1.1.1", "2.2.2.2", 3.5)]

    def test_empty_stream(self):
        assert parse_observations([]) == []

    def test_comments_and_blanks_skipped(self):
        lines = ["# header", "", "1.1.1.1,2.2.2.2,1.0", "   ", "# trailing"]
        assert len(parse_observations(lines)) == 1

    def test_negative_delay_is_record_error(self, caplog):
        lines = ["1.1.1.1,2.2.2.2,-1", "3.3.3.3,4.4.4.4,2.0"]
        with caplog.at_level("WARNING"):
            obs = parse_observations(lines)
        assert len(obs) == 1
        assert "line 1" in caplog.text

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_delay_is_record_error(self, delay):
        lines = ["1.1.1.1,2.2.2.2,1.0", f"1.1.1.1,2.2.2.2,{delay}", "1.1.1.1,2.2.2.2,2.0"]
        (e,) = aggregate_edges(parse_observations(lines))
        assert (e.median_delay_ms, e.count) == (1.5, 2)
        with pytest.raises(ParseError):
            parse_observations(lines, max_errors=0)

    def test_error_cap_aborts(self):
        with pytest.raises(ParseError):
            parse_observations(["garbage"] * 3, max_errors=2)
        # at the cap it still passes
        assert parse_observations(["garbage"] * 2, max_errors=2) == []

    def test_zero_cap_raises_on_first_error(self):
        with pytest.raises(ParseError) as exc:
            parse_observations(["1.1.1.1,2.2.2.2,-1"], max_errors=0)
        assert exc.value.errors[0][0] == 1

    @pytest.mark.parametrize(
        "line", ["1.1.1.1,2.2.2.2", "1.1.1.1,2.2.2.2,1,extra", "nope,2.2.2.2,1", "1.1.1.1,1.1.1.1,1"]
    )
    def test_malformed_lines(self, line):
        with pytest.raises(ParseError):
            parse_observations([line], max_errors=0)

    def test_input_order_preserved(self):
        lines = ["2.2.2.2,1.1.1.1,5", "1.1.1.1,2.2.2.2,1"]
        obs = parse_observations(lines)
        assert [o.src for o in obs] == ["2.2.2.2", "1.1.1.1"]


class TestAggregateEdges:
    def test_odd_count_median(self):
        obs = [DelayObservation("1.0.0.1", "1.0.0.2", d) for d in [1, 9, 2, 8, 3]]
        (e,) = aggregate_edges(obs)
        assert (e.median_delay_ms, e.count) == (3, 5)

    def test_even_count_median(self):
        obs = [DelayObservation("1.0.0.1", "1.0.0.2", d) for d in [1, 2, 3, 4]]
        (e,) = aggregate_edges(obs)
        assert (e.median_delay_ms, e.count) == (2.5, 4)

    def test_direction_matters(self):
        obs = [
            DelayObservation("1.0.0.1", "1.0.0.2", 1),
            DelayObservation("1.0.0.2", "1.0.0.1", 2),
        ]
        edges = aggregate_edges(obs)
        assert len(edges) == 2

    def test_output_sorted_numerically(self):
        obs = [
            DelayObservation("10.0.0.10", "10.0.0.2", 1),
            DelayObservation("10.0.0.2", "10.0.0.10", 1),
            DelayObservation("10.0.0.2", "10.0.0.3", 1),
        ]
        edges = aggregate_edges(obs)
        assert [(e.src, e.dst) for e in edges] == [
            ("10.0.0.2", "10.0.0.3"),
            ("10.0.0.2", "10.0.0.10"),
            ("10.0.0.10", "10.0.0.2"),
        ]


_pool = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
_obs_strategy = st.lists(
    st.builds(
        lambda pair, delay: DelayObservation(pair[0], pair[1], delay),
        st.permutations(_pool).map(lambda p: (p[0], p[1])),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    ),
    max_size=60,
)


class TestAggregateProperties:
    @given(_obs_strategy)
    def test_counts_conserved(self, obs):
        edges = aggregate_edges(obs)
        assert sum(e.count for e in edges) == len(obs)

    @given(_obs_strategy, st.randoms())
    def test_permutation_invariant(self, obs, rnd):
        shuffled = list(obs)
        rnd.shuffle(shuffled)
        assert aggregate_edges(shuffled) == aggregate_edges(obs)

    @given(_obs_strategy)
    def test_median_matches_sort_oracle(self, obs):
        edges = aggregate_edges(obs)
        for e in edges:
            delays = sorted(o.delay_ms for o in obs if (o.src, o.dst) == (e.src, e.dst))
            mid = len(delays) // 2
            expected = delays[mid] if len(delays) % 2 else (delays[mid - 1] + delays[mid]) / 2
            assert e.median_delay_ms == expected


class TestPrefixMap:
    def test_basic_lookup(self):
        pm = load_ip2as(["10.0.0.0/8,7018"])
        assert pm.lookup("10.1.2.3") == 7018

    def test_longest_prefix_wins(self):
        pm = load_ip2as(["10.0.0.0/8,1", "10.1.0.0/16,2"])
        assert pm.lookup("10.1.2.3") == 2
        assert pm.lookup("10.2.2.3") == 1

    def test_unmapped_is_unknown(self):
        pm = load_ip2as(["10.0.0.0/8,1"])
        assert pm.lookup("192.0.2.1") is None

    def test_default_route_prefix(self):
        pm = load_ip2as(["0.0.0.0/0,64512", "10.0.0.0/8,1"])
        assert pm.lookup("10.0.0.1") == 1
        assert pm.lookup("8.8.8.8") == 64512

    def test_malformed_cidr_is_line_error(self, caplog):
        with caplog.at_level("WARNING"):
            pm = load_ip2as(["10.0.0.0/8,1", "10.1.2.3/8,2", "not-a-prefix,3"])
        assert len(pm) == 1
        with pytest.raises(ParseError):
            load_ip2as(["bad,1"], max_errors=0)


class TestAnnotate:
    def test_annotation(self):
        pm = load_ip2as(["10.0.0.0/8,100", "11.0.0.0/8,200"])
        obs = [
            DelayObservation("10.0.0.1", "10.0.0.2", 1),
            DelayObservation("10.0.0.1", "11.0.0.1", 1),
            DelayObservation("10.0.0.1", "192.0.2.9", 1),
        ]
        edges = annotate_as(aggregate_edges(obs), pm)
        by_pair = {(e.src, e.dst): e for e in edges}
        same = by_pair[("10.0.0.1", "10.0.0.2")]
        assert (same.as_src, same.as_dst) == (100, 100)
        cross = by_pair[("10.0.0.1", "11.0.0.1")]
        assert (cross.as_src, cross.as_dst) == (100, 200)
        unknown = by_pair[("10.0.0.1", "192.0.2.9")]
        assert (unknown.as_src, unknown.as_dst) == (100, None)


# every input format: (loader, name in its messages, a good line, a line with "1,5" quoted where a
# number belongs); the capped loaders run with cap 0 so their first bad line raises too
_FORMATS = {
    "observations": (
        lambda lines: parse_observations(lines, max_errors=0),
        "observation",
        "1.1.1.1,2.2.2.2,1.0",
        '1.1.1.1,2.2.2.2,"1,5"',
    ),
    "ip2as": (lambda lines: load_ip2as(lines, max_errors=0), "ip2as", "10.0.0.0/8,1", '10.0.0.0/8,"1,5"'),
    "range_db": (
        lambda lines: load_range_db(lines, "t"),
        "database t",
        "1.0.0.0,1.0.0.9,US,X,1,1",
        '1.0.0.0,1.0.0.9,US,X,"1,5",1',
    ),
    "point_db": (lambda lines: load_point_db(lines, "t"), "database t", "2.2.2.2,1,1", '2.2.2.2,1,"1,5"'),
    "null_coords": (load_null_coords, "null-coords", "1,1", '1,"1,5"'),
    "regions": (load_regions, "regions", "r,1,2,3,4", 'r,1,"1,5",3,4'),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
class TestOneReader:
    def test_bad_line_reported_with_physical_line_number(self, fmt):
        load, what, good, _ = _FORMATS[fmt]
        load(["# header", "", good])
        with pytest.raises(ParseError, match=f"^{what} line 4: ") as exc:
            load(["# header", "", good, "garbage"])
        assert [lineno for lineno, _ in exc.value.errors] == [4]

    def test_quoted_field_with_comma_is_one_field(self, fmt):
        load, what, good, quoted = _FORMATS[fmt]
        # split on commas the line has one field too many; read as CSV, "1,5" is one bad number
        with pytest.raises(ParseError, match=f"^{what} line 2: .*'1,5'"):
            load([good, quoted])


def test_unbalanced_quote_skips_only_its_line(caplog):
    lines = ["1.1.1.1,2.2.2.2,1.0", '1.1.1.1,"2.2.2.2,2.0', "1.1.1.1,2.2.2.2,3.0", "1.1.1.1,2.2.2.2,4.0"]
    with caplog.at_level("WARNING"):
        obs = parse_observations(lines)
    assert [o.delay_ms for o in obs] == [1.0, 3.0, 4.0]
    assert "observation line 2 skipped" in caplog.text
