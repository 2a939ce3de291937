"""Parsing and aggregation of the measured interface graph.

Inputs are pre-decomposed one-hop delay observations (`src_ip,dst_ip,delay_ms`
CSV) and an IP-to-AS prefix table (`prefix/len,asn` CSV). Observations are
aggregated into directed edges carrying the exact median delay and the
measurement count. read_records is the line reader of every input format,
these two and the geodb and evaluate ones alike.
"""

import csv
import ipaddress
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .iputil import ip_to_int

log = logging.getLogger(__name__)

DEFAULT_ERROR_CAP = 100

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
        ip_to_int(self.src)
        ip_to_int(self.dst)
        if self.src == self.dst:
            raise ValueError(f"self-loop observation {self.src}")
        if not math.isfinite(self.delay_ms):
            raise ValueError(f"non-finite delay {self.delay_ms}")
        if self.delay_ms < 0:
            raise ValueError(f"negative delay {self.delay_ms}")


@dataclass(frozen=True)
class DelayEdge:
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
            fields = next(csv.reader([text])) if '"' in text else text.split(",")
            record = parse([f.strip() for f in fields])
        except (ValueError, csv.Error) as exc:
            errors.append((lineno, str(exc)))
            if len(errors) > max_errors:
                raise ParseError(f"{what} line {lineno}: {exc}", errors) from exc
            log.warning("%s line %d skipped: %s", what, lineno, exc)
            continue
        yield record


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
    edges = [
        DelayEdge(src, dst, float(median(vals)), len(vals))
        for (src, dst), vals in delays.items()
    ]
    edges.sort(key=lambda e: (ip_to_int(e.src), ip_to_int(e.dst)))
    return edges


class PrefixMap:
    """Longest-prefix-match table from CIDR prefixes to AS numbers.

    Unmatched addresses resolve to None (unknown AS). Duplicate prefixes keep
    the last entry. This is the one place that knows an interface's AS.
    """

    def __init__(self, entries: Iterable[tuple[ipaddress.IPv4Network, int]]):
        self._by_len: dict[int, dict[int, int]] = {}
        for net, asn in entries:
            self._by_len.setdefault(net.prefixlen, {})[int(net.network_address)] = asn
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


def _prefix_entry(fields: list[str]) -> tuple[ipaddress.IPv4Network, int]:
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields, got {len(fields)}")
    net = ipaddress.ip_network(fields[0])
    if not isinstance(net, ipaddress.IPv4Network):
        raise ValueError(f"not an IPv4 prefix: {fields[0]}")
    return net, int(fields[1])


def load_ip2as(lines: Iterable[str], max_errors: int = DEFAULT_ERROR_CAP) -> PrefixMap:
    """Parse `prefix/len,asn` lines into a PrefixMap.

    Up to max_errors malformed lines are logged and skipped (read_records).
    """
    return PrefixMap(read_records(lines, "ip2as", _prefix_entry, max_errors))
