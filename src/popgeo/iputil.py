"""Small IPv4 helpers shared by the parsers and serializers."""

# _socket is the C module that socket wraps; socket itself would add its
# Python layer (selectors, enums) to the import time and memory of every stage
from _socket import AF_INET, inet_ntoa, inet_pton

# Successful ip_to_int parses, keyed by the exact input string. A parse is a
# pure function of its input, so every caller in the process can share them;
# the table holds one entry per distinct valid address ip_to_int has seen.
# Failed parses are never stored, so bad input raises on every call.
_parsed: dict[str, int] = {}


def parse_ip(ip: str) -> int:
    """Dotted-quad string to its 32-bit integer value; ValueError on bad input.

    inet_pton accepts exactly four decimal parts of 0-255 without leading
    zeros, signs or spaces: the spellings ipaddress.IPv4Address accepts
    (tests/test_iputil.py compares the two). Uncached: for strings read
    once, such as database rows, where a table entry would never be read
    again.
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, ip), "big")
    except (OSError, ValueError):  # ValueError: an embedded NUL or a lone surrogate
        raise ValueError(f"not a dotted-quad IPv4 address: {ip!r}") from None


def ip_to_int(ip: str) -> int:
    """parse_ip, memoized for addresses that recur (members, query keys).

    The first parse of each string validates it; repeats are a dict lookup.
    """
    value = _parsed.get(ip)
    if value is None:
        value = _parsed[ip] = parse_ip(ip)
    return value


def int_to_ip(value: int) -> str:
    """32-bit integer to its dotted quad, as ipaddress.IPv4Address formats it; ValueError out of range."""
    try:
        return inet_ntoa(value.to_bytes(4, "big"))
    except OverflowError:  # negative or above 2**32 - 1
        raise ValueError(f"not a 32-bit IPv4 address value: {value!r}") from None


def sort_ips(ips) -> list[str]:
    """Sort dotted-quad strings by numeric address value."""
    return sorted(ips, key=ip_to_int)
