import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from popgeo import iputil
from popgeo.geodb import load_point_db, load_range_db
from popgeo.iputil import int_to_ip, ip_to_int, parse_ip


@pytest.mark.parametrize(
    "text",
    [
        "01.2.3.4",
        "+1.2.3.4",
        " 1.2.3.4",
        "1.2.3.4 ",
        "1.2.3.256",
        "1.2.3",
        "1.2.3.4.5",
        "١.2.3.4",  # ARABIC-INDIC DIGIT ONE
        "1_0.2.3.4",
        "",
        "1..3.4",
        "1.2.3.4\n",
        "1.2.3.4\x00",
        "0x1.2.3.4",
        "1.2.3.04",
    ],
)
@pytest.mark.parametrize("parse", [ip_to_int, parse_ip])
def test_malformed_address_rejected_on_every_call(parse, text):
    for _ in range(2):
        with pytest.raises(ValueError):
            parse(text)


@pytest.mark.parametrize("text, value", [("0.0.0.0", 0), ("255.255.255.255", 2**32 - 1)])
def test_extremes_round_trip(text, value):
    assert ip_to_int(text) == value
    assert ip_to_int(text) == value
    assert int_to_ip(value) == text


def test_repeated_parse_returns_the_same_value():
    assert [ip_to_int("10.0.1.2") for _ in range(3)] == [(10 << 24) | (1 << 8) | 2] * 3


def test_database_rows_are_not_memoized():
    # each row address is read once, so a table entry would only cost memory
    before = dict(iputil._parsed)
    ranges = load_range_db(["203.0.113.0,203.0.113.255,ZZ,x,1.0,2.0"], "r")
    points = load_point_db(["198.51.100.7,3.0,4.0"], "p")
    assert iputil._parsed == before
    assert parse_ip("203.0.113.0") == ip_to_int("203.0.113.0")
    assert ranges.query("203.0.113.9").coord is not None
    assert points.query("198.51.100.7").coord is not None


# dotted-quad-like pieces: octets in and out of range, and the spellings a
# libc parser might accept but ipaddress rejects; half the strings are valid
_OCTETS = st.integers(0, 300).map(str)
_PIECES = st.one_of(
    _OCTETS,
    st.sampled_from(["", "0", "00", "01", "010", "0x1", "+1", "-1", " 1", "1 ", "1_0", "\u0661", "\n", "\x00", "\t"]),
    st.text(alphabet="0123456789x+-_ ", max_size=4),
)
_QUADS = st.lists(st.integers(0, 255).map(str), min_size=4, max_size=4)


def _value_or_none(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@settings(max_examples=500)
@given(st.one_of(_QUADS, st.lists(_PIECES, min_size=3, max_size=5)).map(".".join))
def test_parse_ip_agrees_with_ipaddress(text):
    assert _value_or_none(parse_ip, text) == _value_or_none(lambda t: int(ipaddress.IPv4Address(t)), text)


@given(st.integers(0, 2**32 - 1))
def test_parse_ip_inverts_int_to_ip(value):
    assert parse_ip(int_to_ip(value)) == value


@given(st.integers(0, 2**32 - 1))
def test_int_to_ip_agrees_with_ipaddress(value):
    assert int_to_ip(value) == str(ipaddress.IPv4Address(value))


@pytest.mark.parametrize("value", [-1, 2**32])
def test_int_to_ip_out_of_range_is_value_error(value):
    with pytest.raises(ValueError):
        int_to_ip(value)
