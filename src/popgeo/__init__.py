"""popgeo: PoP-level grouping of IP interfaces from delay-annotated traceroute
edges, majority-vote PoP geolocation, and geolocation-database evaluation."""

from .geo import GeoCoord, coordinate_median, deg_to_km, haversine_km
from .ingest import DelayEdge, DelayObservation, PrefixMap, aggregate_edges, parse_observations
from .extract import ExtractionConfig, PoP, PopMap, extract_pops, threshold_sweep
from .geodb import GeoDatabase, GeoRecord, load_point_db, load_range_db, synth_db
from .locate import IpElement, PoPLocation, VoteConfig, locate_pop, locate_popmap
from .evaluate import (
    AnomalyReport,
    CdfSeries,
    CorrelationMatrix,
    NullStats,
    RegionSpec,
    agreement_cdf,
    churn,
    convergence_cdf,
    correlation_matrix,
    detect_default_location,
    deviation_samples,
    filter_by_region,
    null_stats,
)

__version__ = "0.1.0"
