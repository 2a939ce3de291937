import csv
import ipaddress
import math
import statistics
import struct

import pytest
from hypothesis import example, given, strategies as st

from conftest import WarningLog
from popgeo.evaluate import load_regions
from popgeo.geo import GeoCoord
from popgeo.geodb import GeoDatabase, GeoRecord, load_null_coords, load_point_db, load_range_db, save_point_db
from popgeo.ingest import (
    DelayObservation,
    ParseError,
    aggregate_edges,
    load_ip2as,
    parse_observations,
    read_edges,
    read_records,
    _middle,
    _prefix_entry,
    write_records,
)
from popgeo.iputil import int_to_ip


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


def _outcome(read, lines, cap):
    """read(lines, cap) as ("edges", edges) or ("error", message, errors), with its warnings."""
    with WarningLog("popgeo.ingest") as warnings:
        try:
            result = ("edges", read(lines, cap))
        except ParseError as exc:
            result = ("error", str(exc), exc.errors)
    return result, warnings.messages


# a small pool, so pairs repeat and src == dst gives self-loops, plus addresses that fail
_ENDS = st.sampled_from(_pool[:3] + ["10.0.0.256", "nope", "", "10.0.0.01"])
_DELAYS = st.one_of(
    st.floats(min_value=0, max_value=50).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "-0.5", "-0.0", "abc", "", "1_5", " 2.5 "]),
)


def _observation_line(src, dst, delay, shape):
    if shape == "quoted":
        return f'"{src}",{dst},"{delay}"'
    if shape == "spaced":
        return f" {src} , {dst} ,{delay} "
    return f"{src},{dst},{delay}"


_LINES = st.lists(
    st.one_of(
        st.builds(_observation_line, _ENDS, _ENDS, _DELAYS, st.sampled_from(["plain", "plain", "quoted", "spaced"])),
        st.sampled_from(
            [
                "",
                "   ",
                "# comment",
                "10.0.0.1,10.0.0.2",
                "10.0.0.1,10.0.0.2,1.0,extra",
                '10.0.0.1,10.0.0.2,"1,5"',
                '10.0.0.1,"10.0.0.2,2.0',
            ]
        ),
    ),
    max_size=40,
)

# a pair whose first line fails and a later line is good; a good pair, then a bad delay on it
_FIRST_BAD_THEN_GOOD = ["10.0.0.1,10.0.0.2,nan", "10.0.0.1,10.0.0.2,1.0", "10.0.0.1,10.0.0.2,3.0"]
_GOOD_THEN_BAD_DELAY = ["10.0.0.1,10.0.0.2,1.0", "10.0.0.1,10.0.0.2,-1", "10.0.0.1,10.0.0.2,inf"]


class TestReadEdges:
    """read_edges(lines, cap) == aggregate_edges(parse_observations(lines, cap)), errors and warnings alike."""

    @given(_LINES, st.sampled_from([0, 2, 100]))
    @example(_FIRST_BAD_THEN_GOOD, 2)
    @example(_GOOD_THEN_BAD_DELAY, 2)
    def test_matches_parse_then_aggregate(self, lines, cap):
        expected = _outcome(lambda ls, c: aggregate_edges(parse_observations(ls, c)), lines, cap)
        assert _outcome(read_edges, lines, cap) == expected

    @pytest.mark.parametrize("lines, median_count", [(_FIRST_BAD_THEN_GOOD, (2.0, 2)), (_GOOD_THEN_BAD_DELAY, (1.0, 1))])
    def test_a_failed_line_adds_no_delay(self, lines, median_count):
        (edge,) = read_edges(lines, max_errors=2)
        assert (edge.median_delay_ms, edge.count) == median_count


# addresses in 10.0.0.0/22, so prefixes of length 8 to 22 always overlap and longer ones often do
_CLUSTERED_ADDRESSES = st.integers(0, 0x3FF).map(lambda low: 0x0A000000 | low)


def _outcome_or_none(f):
    try:
        return f()
    except ValueError:
        return None


# ip2as prefix spellings: dotted quads with odd parts, IPv6, and lengths with
# leading zeros, signs, spaces, other scripts' digits or a second slash, but
# never a dotted mask, which ip_network takes and ip2as refuses
_OCTET = st.one_of(
    st.just("0"),
    st.integers(0, 255).map(str),
    st.sampled_from(["00", "010", "256", "+1", "-0", " 1", "1 ", "", "\u0663"]),
)
_ADDRESS_TEXT = st.one_of(
    st.lists(_OCTET, min_size=3, max_size=5).map(".".join),
    st.sampled_from(["::", "::1", "2001:db8::", "::ffff:10.0.0.0", "10.0.0.0."]),
)
_LENGTH_TEXT = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map("0{}".format),
    st.sampled_from(["", "+8", "-0", " 8", "8 ", "8/8", "\u0668", "1_6", "0x8", "1e1"]),
)


def _cidr(value, length, aligned):
    network = value >> (32 - length) << (32 - length)
    return f"{int_to_ip(network if aligned else value)}/{length}"


# well-formed prefixes, about half of them with host bits set
_CIDR_TEXT = st.builds(_cidr, st.integers(0, 2**32 - 1), st.integers(0, 32), st.booleans())
_PREFIX_TEXT = st.one_of(_CIDR_TEXT, _ADDRESS_TEXT, st.tuples(_ADDRESS_TEXT, _LENGTH_TEXT).map("/".join))


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

    @pytest.mark.parametrize(
        "line",
        [
            "10.0.0.0/8,-5",
            "10.0.0.0/8,+5",
            "10.0.0.0/8,1_000",
            "10.0.0.0/8,\u0666\u0665\u0660\u0660\u0660",  # Arabic-Indic 65000, which int() reads
            "10.0.0.0/8,4294967296",
            "10.0.0.0/8,",
            "10.0.0.0/8,1.5",
            "10.0.0.0/255.0.0.0,1",  # a dotted netmask, which ipaddress.ip_network takes
            "10.0.0.0/0.255.255.255,1",  # a dotted hostmask
            "10.0.0.0/33,1",
            "10.0.0.0/,1",
            "10.0.0.0/8/8,1",
            "::/0,1",
        ],
    )
    def test_malformed_lines(self, line):
        assert len(load_ip2as(["10.0.0.0/8,1", line], max_errors=1)) == 1
        with pytest.raises(ParseError, match="^ip2as line 1: "):
            load_ip2as([line], max_errors=0)

    def test_asn_is_any_32_bit_number(self):
        pm = load_ip2as(["10.0.0.0/8,4294967295", "11.0.0.0/8,0", "12.0.0.0/8,065000"])
        assert [pm.lookup(ip) for ip in ("10.0.0.1", "11.0.0.1", "12.0.0.1")] == [4294967295, 0, 65000]

    @example("10.0.0.0/024")
    @example("10.0.0.1")
    @example(" 10.0.0.0/8")
    @example("010.0.0.0/8")
    @given(_PREFIX_TEXT)
    def test_prefix_agrees_with_ip_network(self, text):
        def ours():
            network, length, _ = _prefix_entry([text, "1"])
            return network, length

        def theirs():
            net = ipaddress.ip_network(text)
            if not isinstance(net, ipaddress.IPv4Network):
                raise ValueError("IPv6")
            return int(net.network_address), net.prefixlen

        assert _outcome_or_none(ours) == _outcome_or_none(theirs)

    @given(
        st.lists(st.tuples(_CLUSTERED_ADDRESSES, st.integers(8, 32), st.integers(1, 4)), max_size=12),
        st.lists(st.one_of(_CLUSTERED_ADDRESSES, st.integers(0, 2**32 - 1)), max_size=12),
    )
    def test_lookup_matches_brute_force_scan(self, table, queries):
        nets = [(ipaddress.IPv4Network((addr, plen), strict=False), asn) for addr, plen, asn in table]
        pm = load_ip2as([f"{net},{asn}" for net, asn in nets])
        # each prefix's own address and its neighbour, which a longer prefix may put in another AS
        near = [a for addr, _, _ in table for a in (addr, addr ^ 1)]
        ips = [str(ipaddress.IPv4Address(a)) for a in queries + near]

        def longest_match(ip):
            best_len, best_asn = -1, None
            for net, asn in nets:  # the last of equal prefixes wins
                if ipaddress.IPv4Address(ip) in net and net.prefixlen >= best_len:
                    best_len, best_asn = net.prefixlen, asn
            return best_asn

        expected = [longest_match(ip) for ip in ips]
        assert [pm.lookup(ip) for ip in ips] == expected
        assert [pm.lookup(ip) for ip in ips] == expected  # repeated calls are answered from the memo


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


# characters a plain field may hold: no quote, comma, line break or "#", which would start a comment
_PLAIN = st.text(st.characters(blacklist_characters='",#\r\n', blacklist_categories=("Cs",)), max_size=6)


class TestQuotedLines:
    """A line that holds a double quote is read by _csv, the C reader under csv, as before."""

    @given(st.lists(_PLAIN, min_size=1, max_size=4), st.integers(min_value=0, max_value=3), _PLAIN, _PLAIN)
    @example(["1.1.1.1", "2.2.2.2"], 2, "1", "5")
    def test_quoted_field_with_comma_is_one_field(self, plain, at, left, right):
        at = min(at, len(plain))
        line = ",".join([*plain[:at], f'"{left},{right}"', *plain[at:]])
        expected = [f.strip() for f in [*plain[:at], f"{left},{right}", *plain[at:]]]
        assert list(read_records([line], "t", list)) == [expected]

    def test_malformed_quoted_line_is_the_same_counted_skip(self, caplog):
        bad = '1.1.1.1,"' + "x" * (csv.field_size_limit() + 1) + '",1.0'
        with pytest.raises(csv.Error) as reader_error:
            next(csv.reader([bad]))
        message = str(reader_error.value)
        lines = ["1.1.1.1,2.2.2.2,1.0", bad, "1.1.1.1,2.2.2.2,3.0"]
        with caplog.at_level("WARNING"):
            assert [o.delay_ms for o in parse_observations(lines)] == [1.0, 3.0]
        assert f"observation line 2 skipped: {message}" in caplog.messages
        with pytest.raises(ParseError) as exc:
            parse_observations(lines, max_errors=0)
        assert str(exc.value) == f"observation line 2: {message}"
        assert exc.value.errors == [(2, message)]


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_SPECIAL += [math.inf, -math.inf, 1.0, 1.0]


class TestMiddle:
    """ingest._middle, the one exact median of edges, singleton attachment and coordinate_median."""

    @given(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False)), min_size=1, max_size=9))
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([5e-324, 5e-324])
    @example([1.7976931348623157e308, 1.7976931348623157e308])
    @example([math.inf, -math.inf])
    @example([-math.inf, 2.0, math.inf])
    def test_equals_statistics_median_bit_for_bit(self, values):
        expected = statistics.median(values)
        got = _middle(sorted(values))
        assert struct.pack("<d", got) == struct.pack("<d", expected)


def _read_back(path):
    with path.open(encoding="utf-8") as fh:
        return list(read_records(fh, "written", list))


class TestWriteRecords:
    def test_cells_round_trip_through_read_records(self, tmp_path):
        rows = [
            ("ip", "lat", "lon", "count"),
            ("10.0.0.1", -0.0, 5e-324, 7),
            ("a.b-c_D9", 1e-300, 0.1, -3),
            ("x", None, None, 0),
            ("y", 1.7976931348623157e308, -2.5, 12345678901234567890),
        ]
        path = tmp_path / "rows.csv"
        write_records(path, rows)
        back = _read_back(path)
        assert len(back) == len(rows)
        for row, fields in zip(rows, back):
            assert len(fields) == len(row)
            for cell, text in zip(row, fields):
                if cell is None:
                    assert text == ""
                elif isinstance(cell, str):
                    assert text == cell
                elif isinstance(cell, float):
                    assert struct.pack("<d", float(text)) == struct.pack("<d", cell)  # bit for bit
                else:
                    assert int(text) == cell

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    def test_floats_round_trip_bit_for_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("floats") / "values.csv"
        write_records(path, [values])
        (fields,) = _read_back(path)
        assert [struct.pack("<d", float(t)) for t in fields] == [struct.pack("<d", v) for v in values]

    def test_one_line_per_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_records(path, [("a", "b"), (1, None)])
        assert path.read_text(encoding="utf-8") == "a,b\n1,\n"

    def test_no_rows_is_an_empty_file(self, tmp_path):
        write_records(tmp_path / "empty.csv", [])
        save_point_db(GeoDatabase("p", "point"), tmp_path / "points.csv")
        assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "points.csv").read_bytes() == b""

    def test_point_db_round_trip(self, tmp_path):
        points = {1: GeoRecord(GeoCoord(-0.0, 5e-324)), 2: GeoRecord(), 3: GeoRecord(GeoCoord(0.1, 179.9))}
        path = tmp_path / "points.csv"
        save_point_db(GeoDatabase("p", "point", points=points), path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "0.0.0.2,,"
        with path.open(encoding="utf-8") as fh:
            back = load_point_db(fh, "p")
        assert back.point_entries() == GeoDatabase("p", "point", points=points).point_entries()
