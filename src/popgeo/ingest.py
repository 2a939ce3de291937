"""Parsing and aggregation of the measured interface graph.

Inputs are pre-decomposed one-hop delay observations (`src_ip,dst_ip,delay_ms`
CSV) and an IP-to-AS prefix table (`prefix/len,asn` CSV). Observations are
aggregated into directed edges carrying the exact median delay and the
measurement count: read_edges folds each line straight into its edge, and
parse_observations/aggregate_edges do the same in two steps for library
callers. read_records is the line reader of every input format, these two
and the geodb and evaluate ones alike; write_records is the line writer of
every CSV output.
"""

import logging
import math

# _csv is the C module that csv wraps (csv.reader is _csv.reader); csv itself
# would add its Python layer (dialects, Sniffer) to the import time of every stage
from _csv import Error as CsvError
from _csv import reader as csv_reader
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .iputil import ip_to_int, parse_ip

log = logging.getLogger(__name__)

DEFAULT_ERROR_CAP = 100

# the encoding of every file popgeo reads: UTF-8, where a leading byte order
# mark (written by spreadsheet tools' "CSV UTF-8") is dropped, not read as data
INPUT_ENCODING = "utf-8-sig"

T = TypeVar("T")


class ParseError(ValueError):
    """More malformed input records than the caller allows.

    Carries the accumulated (line_number, message) pairs in ``errors``.
    """

    def __init__(self, message: str, errors: Optional[list] = None):
        super().__init__(message)
        self.errors = list(errors or [])


@dataclass(frozen=True)
class DelayObservation:
    """One measured one-hop delay for the directed link src -> dst."""

    src: str
    dst: str
    delay_ms: float

    def __post_init__(self):
        _check_pair(self.src, self.dst)
        _check_delay(self.delay_ms)


def _check_pair(src: str, dst: str) -> None:
    """The rules on an observation's ends: two valid addresses, no self-loop."""
    ip_to_int(src)
    ip_to_int(dst)
    if src == dst:
        raise ValueError(f"self-loop observation {src}")


def _check_delay(delay_ms: float) -> None:
    """The rules on an observation's delay: finite and non-negative."""
    if not math.isfinite(delay_ms):
        raise ValueError(f"non-finite delay {delay_ms}")
    if delay_ms < 0:
        raise ValueError(f"negative delay {delay_ms}")


class DelayEdge(NamedTuple):
    """Aggregate of all observations for one directed (src, dst) pair.

    median_delay_ms is the exact median of the observed delays (mean of the
    middle pair for even counts); the ip2as PrefixMap knows each end's AS.
    """

    src: str
    dst: str
    median_delay_ms: float
    count: int


def read_records(
    lines: Iterable[str], what: str, parse: Callable[[list[str]], T], max_errors: int = 0
) -> Iterator[T]:
    """Yield parse(fields) for every data line of a comma-separated input.

    Every input format is read here, under one policy. Blank lines and `#`
    comments are skipped but counted, so line numbers are physical. A line
    holding a double quote is read as one CSV record, so a quoted field may
    contain commas; other lines are split on commas. Fields are stripped. A
    line whose fields or parse raise ValueError is logged and skipped; once
    more than max_errors lines have failed, ParseError names `<what> line N`
    and carries every (line_number, message) so far.
    """
    errors = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            fields = next(csv_reader([text])) if '"' in text else text.split(",")
            record = parse([f.strip() for f in fields])
        except (ValueError, CsvError) as exc:
            errors.append((lineno, str(exc)))
            if len(errors) > max_errors:
                raise ParseError(f"{what} line {lineno}: {exc}", errors) from exc
            log.warning("%s line %d skipped: %s", what, lineno, exc)
            continue
        yield record


def write_records(path, rows: Iterable[Sequence]) -> None:
    """Write each row as one comma-joined line, headers included as rows.

    A cell is written as is when it is a string, empty when it is None, and
    as its repr otherwise, so read_records gives back every float bit for
    bit. No string cell may hold a comma: the names that become cells obey
    the config's name rule. A file with no rows is empty.
    """
    lines = [",".join([c if isinstance(c, str) else "" if c is None else repr(c) for c in row]) + "\n" for row in rows]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _observation(fields: list[str]) -> DelayObservation:
    if len(fields) != 3:
        raise ValueError(f"expected 3 fields, got {len(fields)}")
    return DelayObservation(fields[0], fields[1], float(fields[2]))


def parse_observations(lines: Iterable[str], max_errors: int = DEFAULT_ERROR_CAP) -> list[DelayObservation]:
    """Parse `src_ip,dst_ip,delay_ms` lines into observations, in input order.

    Up to max_errors malformed lines are logged and skipped (read_records).
    """
    return list(read_records(lines, "observation", _observation, max_errors))


def aggregate_edges(observations: list[DelayObservation]) -> list[DelayEdge]:
    """Collapse observations into one edge per distinct ordered (src, dst) pair.

    Output is sorted by numeric (src, dst) so downstream results are
    reproducible regardless of observation order.
    """
    delays = defaultdict(list)
    for ob in observations:
        delays[(ob.src, ob.dst)].append(ob.delay_ms)
    return _edges(delays)


def read_edges(lines: Iterable[str], max_errors: int = DEFAULT_ERROR_CAP) -> list[DelayEdge]:
    """aggregate_edges(parse_observations(lines, max_errors)), without an object per line.

    Each line is folded into its pair's delay list as it is read. A pair's
    address and self-loop rules are checked when the pair is first seen, so a
    repeated pair is known good; the delay rules are checked on every line,
    and a line that fails any rule leaves the lists as they were. The rules,
    their order, the messages and the error policy are those of
    parse_observations.
    """
    delays: dict[tuple[str, str], list[float]] = {}

    def fold(fields: list[str]) -> None:
        if len(fields) != 3:
            raise ValueError(f"expected 3 fields, got {len(fields)}")
        pair = fields[0], fields[1]
        delay = float(fields[2])
        known = delays.get(pair)
        if known is None:
            _check_pair(*pair)
            _check_delay(delay)
            delays[pair] = [delay]
        else:
            _check_delay(delay)
            known.append(delay)

    for _ in read_records(lines, "observation", fold, max_errors):
        pass
    return _edges(delays)


def _middle(ordered: list[float]) -> float:
    """statistics.median of already sorted values, bit for bit: the middle one, or the mean of the middle pair."""
    i = len(ordered) // 2
    return ordered[i] if len(ordered) % 2 else (ordered[i - 1] + ordered[i]) / 2


def _edges(delays: dict[tuple[str, str], list[float]]) -> list[DelayEdge]:
    """One edge per pair: the exact median and the count, sorted by numeric (src, dst)."""
    edges = [DelayEdge(src, dst, float(_middle(sorted(vals))), len(vals)) for (src, dst), vals in delays.items()]
    edges.sort(key=lambda e: (ip_to_int(e.src), ip_to_int(e.dst)))
    return edges


class PrefixMap:
    """Longest-prefix-match table from CIDR prefixes to AS numbers.

    entries are (network address int, prefix length, asn). Unmatched
    addresses resolve to None (unknown AS). Duplicate prefixes keep the last
    entry. This is the one place that knows an interface's AS.
    """

    def __init__(self, entries: Iterable[tuple[int, int, int]]):
        self._by_len: dict[int, dict[int, int]] = {}
        for network, length, asn in entries:
            self._by_len.setdefault(length, {})[network] = asn
        self._lens = sorted(self._by_len, reverse=True)
        self._answers: dict[str, Optional[int]] = {}  # by address string: one walk per distinct address

    def __len__(self) -> int:
        return sum(len(d) for d in self._by_len.values())

    def lookup(self, ip: str) -> Optional[int]:
        if ip not in self._answers:
            value = ip_to_int(ip)
            hits = (self._by_len[plen].get(value >> (32 - plen) << (32 - plen)) for plen in self._lens)
            self._answers[ip] = next((asn for asn in hits if asn is not None), None)
        return self._answers[ip]


def _digits(text: str, what: str, top: int) -> int:
    """text as an int of ASCII digits, at most top; int() alone takes signs, spaces, '_' and other scripts' digits."""
    if text.isascii() and text.isdigit() and (value := int(text)) <= top:
        return value
    raise ValueError(f"{what} {text!r} is not a whole number from 0 to {top}")


def _prefix_entry(fields: list[str]) -> tuple[int, int, int]:
    """An ip2as line as (network int, length, asn): what ipaddress.ip_network accepts, but no dotted mask."""
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields, got {len(fields)}")
    address, slash, length_text = fields[0].partition("/")
    network = parse_ip(address)
    length = _digits(length_text, "prefix length", 32) if slash else 32
    if network & (0xFFFFFFFF >> length):
        raise ValueError(f"{fields[0]} has host bits set")
    return network, length, _digits(fields[1], "asn", 0xFFFFFFFF)


def load_ip2as(lines: Iterable[str], max_errors: int = DEFAULT_ERROR_CAP) -> PrefixMap:
    """Parse `prefix/len,asn` lines into a PrefixMap.

    Up to max_errors malformed lines are logged and skipped (read_records).
    """
    return PrefixMap(read_records(lines, "ip2as", _prefix_entry, max_errors))
