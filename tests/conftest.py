import pytest

from popgeo.extract import PoP, PopMap
from popgeo.geo import GeoCoord
from popgeo.geodb import GeoDatabase, GeoRecord
from popgeo.ingest import DelayEdge
from popgeo.iputil import ip_to_int
from popgeo.synth import SynthDbSpec, SynthSpec, generate_scenario


def edge(src, dst, median_ms, count=5):
    return DelayEdge(src, dst, median_ms, count)


def point_db(name, mapping):
    """GeoDatabase from {ip: (lat, lon) | None}."""
    points = {
        ip_to_int(ip): GeoRecord(None if latlon is None else GeoCoord(*latlon))
        for ip, latlon in mapping.items()
    }
    return GeoDatabase(name, "point", points=points)


def make_pop(pop_id, members, asn=1, singletons=()):
    return PoP(pop_id, asn, frozenset(members), frozenset(singletons))


def make_popmap(*pops):
    return PopMap(tuple(pops))


@pytest.fixture(scope="session")
def small_scenario():
    """10 planted PoPs, 2 ASes, one pendant each, a clean and a noisy database."""
    spec = SynthSpec(
        pop_count=10,
        ips_per_pop=6,
        as_count=2,
        singletons_per_pop=1,
        seed=3,
        dbs=(
            SynthDbSpec("clean"),
            SynthDbSpec("noisy", noise_km=5.0, null_rate=0.2),
        ),
    )
    return generate_scenario(spec)
