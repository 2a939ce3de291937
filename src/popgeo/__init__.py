"""popgeo: PoP-level grouping of IP interfaces from delay-annotated traceroute
edges, majority-vote PoP geolocation, and geolocation-database evaluation.

Import the submodule that holds a name (`popgeo.extract`, `popgeo.evaluate`,
...): the package itself imports none, so each command loads only what it
runs."""

__version__ = "0.1.0"
