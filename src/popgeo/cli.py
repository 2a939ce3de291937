"""Command-line pipeline: extract, locate, evaluate, sweep, synth.

One INI-style config file wires every stage; any value can be overridden on
the command line (dedicated flags for the common ones, `--set section.key=v`
for the rest). Relative paths in a config resolve against the config file's
directory. A key or section outside the config's SCHEMA is logged as a
warning and ignored. Data goes to files under the output directory, logs go
to stderr, and reruns on identical inputs are byte-identical.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from .extract import (
    ExtractionConfig,
    PopMap,
    extract_pops,
    load_popmap,
    save_popmap,
    threshold_sweep,
)
from .geodb import AnswerTable, answer_table, load_null_coords, load_point_db, load_range_db
from .ingest import INPUT_ENCODING, DelayEdge, ParseError, PrefixMap, load_ip2as, read_edges, write_records

# Every stage is a fresh interpreter, so evaluate, synth and the vote are
# imported inside the commands and helpers that run them: extract and sweep
# never load them.
if TYPE_CHECKING:
    from . import evaluate as ev
    from .locate import PoPLocation, VoteConfig
    from .synth import SynthSpec

log = logging.getLogger("popgeo")


class InputError(Exception):
    """Bad configuration or input data; maps to exit code 1."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; maps to exit code 2."""


@dataclass(frozen=True)
class DbSpec:
    name: str
    kind: str
    path: Path


@dataclass
class RunConfig:
    out_dir: Path
    observations: Optional[Path]
    ip2as: Optional[Path]
    regions_file: Optional[Path]
    null_coords_file: Optional[Path]
    db_specs: list[DbSpec]
    churn_pairs: list[tuple[str, DbSpec, DbSpec]]
    extraction: ExtractionConfig
    vote: VoteConfig
    sweep_grid: list[float]
    synth: Optional[SynthSpec]
    with_singletons: bool
    # the [evaluate] keys
    agreement_radii_km: Sequence[float] = (100.0, 500.0)
    anomaly_min_ips: int = 50
    anomaly_share_threshold: float = 0.8
    anomaly_rounding_deg: float = 0.01
    churn_epsilon_km: float = 1.0
    correlation_include_nulls: bool = False
    regions: Sequence[str] = ()

    def __post_init__(self):
        radii = self.agreement_radii_km
        # each radius names its own agreement_<db>_<radius>.csv
        if not radii or not all(0.0 <= r < math.inf for r in radii) or len({f"{r:g}" for r in radii}) < len(radii):
            raise ValueError(
                f"evaluate.agreement_radii_km must be non-empty, distinct, finite and non-negative, got {radii}"
            )
        if not 0.0 < self.anomaly_rounding_deg < math.inf:
            raise ValueError(f"evaluate.anomaly_rounding_deg must be positive and finite, got {self.anomaly_rounding_deg}")
        if not 0.0 < self.anomaly_share_threshold <= 1.0:
            raise ValueError(f"evaluate.anomaly_share_threshold must be in (0, 1], got {self.anomaly_share_threshold}")
        if not 0.0 <= self.churn_epsilon_km < math.inf:
            raise ValueError(f"evaluate.churn_epsilon_km must be finite and non-negative, got {self.churn_epsilon_km}")


def _parse_db_spec(name: str, value: str, base: Path) -> DbSpec:
    kind, sep, path = value.partition(":")
    if not sep or kind.strip() not in ("range", "point"):
        raise InputError(f"database {name}: expected '<range|point>:<path>', got {value!r}")
    return DbSpec(name, kind.strip(), base / path.strip())  # an absolute path replaces base


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _bool(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError("expected true or false (also yes/no, on/off, 1/0)")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _delay_range(text: str) -> tuple[float, float]:
    lo_hi = _floats(text)
    if len(lo_hi) != 2:
        raise ValueError("synth delay ranges need exactly two values: lo,hi")
    return lo_hi[0], lo_hi[1]


# every fixed-key section with its keys, each with the conversion of its
# value; [synth_dbs] lists the keys of the key=value items of each value.
# [databases] and [churn] name their own keys.
SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "paths": {"observations": Path, "ip2as": Path, "out": Path, "regions": Path, "null_coords": Path},
    "extract": {
        "pop_max_delay_ms": float, "pop_min_measurements": int,
        "singleton_max_links": int, "singleton_max_median_ms": float,
    },
    "vote": {"step_km": float, "max_radius_km": float, "majority_fraction": float},
    "evaluate": {
        "agreement_radii_km": _floats, "anomaly_min_ips": int, "anomaly_share_threshold": float,
        "anomaly_rounding_deg": float, "churn_epsilon_km": float, "correlation_include_nulls": _bool,
        "regions": _names,
    },
    "sweep": {"grid": _floats},
    "synth": {
        "pop_count": int, "ips_per_pop": int, "as_count": int,
        "intra_delay_ms": _delay_range, "inter_delay_ms": _delay_range,
        "measurements_per_edge": int, "singletons_per_pop": int, "singleton_edge_measurements": int,
        "seed": int,
    },
    "synth_dbs": {
        "noise_km": float, "null_rate": float, "hq_asn": int, "hq_lat": float, "hq_lon": float, "hq_fraction": float,
    },
}


def _read_section(where: str, items: Iterable[tuple[str, str]], keys: Mapping[str, Callable]) -> dict:
    """convert(value) of each (key, value) item by its conversion in keys.

    An empty value is skipped, so the dataclass default applies. An unknown
    key is logged and skipped. A value its conversion rejects is an
    InputError naming where.key and the value.
    """
    values = {}
    for key, raw in items:
        if key not in keys:
            log.warning("config: unknown key %s.%s ignored", where, key)
        elif raw != "":
            try:
                values[key] = keys[key](raw)
            except ValueError as exc:
                raise InputError(f"bad config value {where}.{key} = {raw!r}: {exc}") from exc
    return values


def _synth_db_items(name: str, value: str) -> list[tuple[str, str]]:
    """The (key, value) items of a [synth_dbs] value 'key=value,key=value'."""
    items = []
    for part in filter(str.strip, value.split(",")):
        key, sep, raw = part.partition("=")
        if not sep:
            raise InputError(f"synth_dbs.{name}: expected key=value, got {part.strip()!r}")
        items.append((key.strip(), raw.strip()))
    return items


# the names that become output file names and CSV cells: [databases] names,
# [churn] labels, [synth_dbs] names and the regions of evaluate.regions; so no
# cell holds a comma
NAME_RULE = re.compile(r"[A-Za-z0-9_.-]+")

# dedicated flag (argparse dest) -> the config key it sets, as a --set item would
DEDICATED_FLAGS = {
    "step_km": "vote.step_km",
    "max_radius_km": "vote.max_radius_km",
    "seed": "synth.seed",
    "grid": "sweep.grid",
}


def build_run_config(args) -> RunConfig:
    # VoteConfig checks [vote] on every command, so a bad value exits 1 anywhere
    from .locate import VoteConfig

    config_path = Path(args.config)
    # a '%' in a value is literal; no section lends its keys to the others, so
    # [DEFAULT] is an ordinary section name, refused below
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keep database names case-sensitive
    try:
        with _open_input(config_path, "config file") as fh:
            cp.read_file(fh, source=str(config_path))
    except configparser.Error as exc:
        raise InputError(f"bad config: {exc}") from exc

    # dedicated flags are --set items applied last
    overrides = list(args.set or [])
    for flag, target in DEDICATED_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides.append(f"{target}={value}")
    for item in overrides:
        target, sep, value = item.partition("=")
        section, _, option = target.partition(".")
        if not (sep and section and option):
            raise InputError(f"--set expects section.key=value, got {item!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)
    if cp.has_section("DEFAULT"):
        raise InputError("a [DEFAULT] section is not supported: set each key in its own section")
    for name in cp.sections():
        if name not in SCHEMA and name not in ("databases", "churn"):
            log.warning("config: unknown section [%s] ignored", name)

    def items(name: str) -> list[tuple[str, str]]:
        return cp.items(name) if cp.has_section(name) else []

    def section(name: str) -> dict:
        return _read_section(name, items(name), SCHEMA[name])

    base = config_path.parent
    paths = {key: base / path for key, path in section("paths").items()}  # an absolute path replaces base
    out_dir = Path(args.out) if args.out else paths.get("out", base / "out")
    null_coords = (
        Path(args.null_coords_file) if getattr(args, "null_coords_file", None) else paths.get("null_coords")
    )

    db_specs = [_parse_db_spec(n, v, base) for n, v in items("databases")]
    if len({d.name for d in db_specs}) != len(db_specs):
        raise InputError("duplicate database names in [databases]")
    if any(d.name == "all" for d in db_specs):
        raise InputError("database name 'all' is reserved for the cross-database vote")

    churn_pairs = []
    for label, value in items("churn"):
        halves = value.split(",")
        if len(halves) != 2:
            raise InputError(f"churn {label}: expected '<kind>:<old>,<kind>:<new>'")
        churn_pairs.append(
            (
                label,
                _parse_db_spec(f"{label}.old", halves[0].strip(), base),
                _parse_db_spec(f"{label}.new", halves[1].strip(), base),
            )
        )

    synth = section("synth")
    if cp.has_section("synth") or cp.has_section("synth_dbs"):
        from .synth import SynthDbSpec, SynthSpec
    if cp.has_section("synth_dbs"):
        synth["dbs"] = tuple(
            SynthDbSpec(name, **_read_section(f"synth_dbs.{name}", _synth_db_items(name, value), SCHEMA["synth_dbs"]))
            for name, value in items("synth_dbs")
        )

    try:
        cfg = RunConfig(
            out_dir=out_dir,
            observations=paths.get("observations"),
            ip2as=paths.get("ip2as"),
            regions_file=paths.get("regions"),
            null_coords_file=null_coords,
            db_specs=db_specs,
            churn_pairs=churn_pairs,
            extraction=ExtractionConfig(**section("extract")),
            vote=VoteConfig(**section("vote")),
            sweep_grid=section("sweep").get("grid", []),
            synth=SynthSpec(**synth) if cp.has_section("synth") else None,
            with_singletons=bool(getattr(args, "with_singletons", False)),
            **section("evaluate"),
        )
    except ValueError as exc:
        raise InputError(f"bad config value: {exc}") from exc
    names = [d.name for d in db_specs] + [label for label, _, _ in churn_pairs] + list(cfg.regions)
    names += [name for name, _ in items("synth_dbs")]
    bad = [name for name in names if not NAME_RULE.fullmatch(name)]
    if bad:
        raise InputError(f"database, churn, synth_dbs and region names must match {NAME_RULE.pattern}, got {bad}")
    # a file at out_dir or above it would fail the stage's mkdir, after its work
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise InputError(f"output directory {out_dir}: {existing} is not a directory")
    return cfg


def _require_file(path: Optional[Path], what: str) -> Path:
    if path is None:
        raise InputError(f"no {what} configured")
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    return path


@contextmanager
def _open_input(path: Optional[Path], what: str):
    """The input file open as text; a byte that is not UTF-8 fails it whole, as chunked decoding names no line."""
    with _require_file(path, what).open(encoding=INPUT_ENCODING) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{what} {path} is not UTF-8: {exc.reason} {exc.object[exc.start:exc.end]!r}") from exc


def _null_coords(cfg: RunConfig):
    if cfg.null_coords_file is None:
        return None
    with _open_input(cfg.null_coords_file, "null-coords file") as fh:
        return load_null_coords(fh)


def _table_loader(cfg: RunConfig, popmap: PopMap) -> Callable[[DbSpec], AnswerTable]:
    """A function from a database spec to its answer table over popmap.

    Each (kind, path) file is loaded and queried once, whichever spec names
    it first; every later spec on the file gets that address -> coordinate
    mapping, and the PoP records read from it, under its own name. The
    null-coords file is read once, here.
    """
    null_coords = _null_coords(cfg)
    by_file: dict[tuple[str, Path], AnswerTable] = {}

    def table(spec: DbSpec) -> AnswerTable:
        key = (spec.kind, spec.path)
        if key not in by_file:
            loader = load_range_db if spec.kind == "range" else load_point_db
            with _open_input(spec.path, f"database {spec.name}") as fh:
                by_file[key] = answer_table(loader(fh, spec.name, null_coords), popmap)
        first = by_file[key]
        return AnswerTable(spec.name, first.coords, first.records)

    return table


def _write_cdf_csv(path: Path, x_name: str, series: ev.CdfSeries) -> None:
    """Write series as `<x_name>,cum_fraction` rows after checking it; a bad series is an InvariantError."""
    try:
        series.validate()
    except ValueError as exc:
        raise InvariantError(f"{path.name}: {exc}") from exc
    write_records(path, [(x_name, "cum_fraction"), *series.points])


def _read_graph(cfg: RunConfig) -> tuple[list[DelayEdge], PrefixMap]:
    """The aggregated edges of the observations file, and the ip2as prefix map."""
    with _open_input(cfg.observations, "observations file") as fh:
        edges = read_edges(fh)
    if not edges:
        log.warning("observation file %s contains no observations", cfg.observations)
    with _open_input(cfg.ip2as, "ip2as file") as fh:
        return edges, load_ip2as(fh)


def cmd_extract(cfg: RunConfig) -> int:
    edges, prefix_map = _read_graph(cfg)
    full = extract_pops(edges, prefix_map, cfg.extraction, with_singletons=True)
    core = full.core()

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_popmap(core, cfg.out_dir / "popmap_core.json")
    save_popmap(full, cfg.out_dir / "popmap_singletons.json")
    log.info(
        "extracted %d PoPs: %d core interfaces, %d with singletons",
        len(core.pops),
        core.core_ip_count(),
        len(full.member_ips()),
    )
    return 0


def _load_popmaps(cfg: RunConfig) -> tuple[PopMap, PopMap]:
    """The core and the singleton PoP map, both from the singleton map extract wrote."""
    full = load_popmap(_require_file(cfg.out_dir / "popmap_singletons.json", "PoP map"))
    return full.core(), full


def _votes(cfg: RunConfig, popmap: PopMap, dbs) -> dict[str, dict[str, PoPLocation]]:
    """Each database's own votes by name, plus the cross-database vote as "all"."""
    from .locate import locate_popmap

    votes = {db.name: locate_popmap(popmap, [db], cfg.vote) for db in dbs}
    votes["all"] = locate_popmap(popmap, dbs, cfg.vote)
    return votes


def _agreements(cfg: RunConfig, popmap: PopMap, dbs) -> dict[str, dict[str, Optional[tuple[float, ...]]]]:
    """Each database's per-PoP agreement fractions, one per configured radius."""
    from . import evaluate as ev

    return {
        db.name: {
            pop.id: ev.pop_agreement(pop, db, cfg.agreement_radii_km)
            for pop in popmap.pops
        }
        for db in dbs
    }


def cmd_locate(cfg: RunConfig) -> int:
    from .locate import save_locations

    if not cfg.db_specs:
        raise InputError("no databases configured")
    popmap_core, popmap_all = _load_popmaps(cfg)
    popmap = popmap_all if cfg.with_singletons else popmap_core
    table = _table_loader(cfg, popmap)
    dbs = [table(spec) for spec in cfg.db_specs]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    for name, locs in _votes(cfg, popmap, dbs).items():
        save_locations(list(locs.values()), cfg.out_dir / f"locations_{name}.json")
    log.info("located %d PoPs against %d databases", len(popmap.pops), len(dbs))
    return 0


def _regions_for(cfg: RunConfig) -> list[ev.RegionSpec]:
    from . import evaluate as ev

    named: dict[str, ev.RegionSpec] = {}
    if cfg.regions_file is not None:
        with _open_input(cfg.regions_file, "regions file") as fh:
            named.update(ev.load_regions(fh))
    regions = []
    for name in cfg.regions:
        spec = named.get(name) or ev.BUILTIN_REGIONS.get(name)
        if spec is None:
            raise InputError(f"unknown region {name!r}")
        regions.append(spec)
    return regions


def _deviations(popmap: PopMap, dbs, cross: dict) -> dict[str, dict[str, Optional[list[tuple[str, float]]]]]:
    """Each database's (address, deviation_km) rows per PoP; None where the cross vote is null."""
    from . import evaluate as ev

    centres = [(pop, cross[pop.id].coord) for pop in popmap.pops]
    return {
        db.name: {pop.id: None if centre is None else ev.pop_deviations(pop, db, centre) for pop, centre in centres}
        for db in dbs
    }


def _per_db_reports(
    cfg: RunConfig, popmap: PopMap, dbs, votes: dict, agreements: dict, deviations: dict, suffix: str, out: Path
) -> dict:
    """Convergence, agreement and deviation outputs for one PoP map subset.

    votes, agreements and deviations come from _votes, _agreements and
    _deviations over a map that holds every PoP of popmap; this only selects
    popmap's PoPs from them.
    """
    from . import evaluate as ev

    counters: dict = {"convergence_tail": {}, "agreement_excluded": {}, "deviation_skipped": {}}
    if not popmap.pops:
        log.warning("PoP map%s is empty; emitting header-only reports", suffix or "")

    for db in dbs:
        own = [votes[db.name][pop.id] for pop in popmap.pops]
        conv = ev.convergence_cdf(db.name, own)
        _write_cdf_csv(out / f"convergence_{db.name}{suffix}.csv", "range_km", conv)
        counters["convergence_tail"][db.name] = conv.tail_count
        per_pop = [agreements[db.name][pop.id] for pop in popmap.pops]
        cdfs = ev.agreement_cdf(db.name, cfg.agreement_radii_km, per_pop)
        for radius, series in zip(cfg.agreement_radii_km, cdfs):
            _write_cdf_csv(out / f"agreement_{db.name}_{radius:g}{suffix}.csv", "agreement", series)
            counters["agreement_excluded"][f"{db.name}:{radius:g}"] = series.excluded_count
        rows = [deviations[db.name][pop.id] for pop in popmap.pops]
        scatter = [("ip", "range_km", "deviation_km")]
        for loc, pop_rows in zip(own, rows):
            if pop_rows is not None:
                own_range = loc.range_km if loc.majority_found else None
                scatter += [(ip, own_range, d) for ip, d in pop_rows]
        cdf = ev.deviation_cdf(db.name, [row[2] for row in scatter[1:]])
        _write_cdf_csv(out / f"deviation_{db.name}{suffix}.csv", "deviation_km", cdf)
        counters["deviation_skipped"][db.name] = rows.count(None)
        write_records(out / f"range_vs_deviation_{db.name}{suffix}.csv", scatter)
    return counters


def cmd_evaluate(cfg: RunConfig) -> int:
    from . import evaluate as ev

    if not cfg.db_specs:
        raise InputError("no databases configured")
    # read and check every input before the first write, so a bad one leaves no partial bundle
    popmap_core, popmap_all = _load_popmaps(cfg)
    popmap = popmap_all if cfg.with_singletons else popmap_core
    # the answer tables are built over the singleton map and serve the core map too
    table = _table_loader(cfg, popmap_all)
    dbs = [table(spec) for spec in cfg.db_specs]
    churn_pairs = [(label, table(old), table(new)) for label, old, new in cfg.churn_pairs]
    prefix_map = None
    if cfg.ip2as is not None:
        with _open_input(cfg.ip2as, "ip2as file") as fh:
            prefix_map = load_ip2as(fh)
    regions = _regions_for(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)

    summary: dict = {"databases": [db.name for db in dbs]}

    if popmap_all.pops:
        stats = [ev.null_stats(popmap_core, popmap_all, db) for db in dbs]
        summary["null_stats"] = [vars(s) for s in stats]
    else:
        log.warning("empty PoP maps; skipping null statistics")
        summary["null_stats"] = []

    votes = _votes(cfg, popmap, dbs)
    agreements = _agreements(cfg, popmap, dbs)
    deviations = _deviations(popmap, dbs, votes["all"])
    summary.update(_per_db_reports(cfg, popmap, dbs, votes, agreements, deviations, "", out))

    matrix = None
    if len(dbs) >= 2 and popmap.pops:
        matrix = ev.correlation_matrix(dbs, popmap, include_nulls=cfg.correlation_include_nulls)
        rows = [(name, *row) for name, row in zip(matrix.db_names, matrix.values)]
        write_records(out / "correlation.csv", [("db", *matrix.db_names), *rows])
        summary["correlation"] = {
            "db_names": list(matrix.db_names),
            "include_nulls": matrix.include_nulls,
            "values": [list(row) for row in matrix.values],
        }

    anomalies = ev.detect_default_locations(
        dbs,
        popmap,
        prefix_map,
        min_ips=cfg.anomaly_min_ips,
        share_threshold=cfg.anomaly_share_threshold,
        rounding_deg=cfg.anomaly_rounding_deg,
    )
    columns = ("db", "asn", "lat", "lon", "share", "ip_count")
    rows = [(a.db_name, a.asn, a.dominant_coord.lat, a.dominant_coord.lon, a.share, a.ip_count) for a in anomalies]
    write_records(out / "anomalies.csv", [columns, *rows])
    summary["anomalies"] = [dict(zip(columns, row)) for row in rows]

    churn_rows = []
    for label, old_db, new_db in churn_pairs:
        fraction = ev.churn(old_db, new_db, popmap, cfg.churn_epsilon_km) if popmap.pops else 0.0
        churn_rows.append((label, fraction))
    write_records(out / "churn.csv", [("label", "changed_fraction"), *churn_rows])
    summary["churn"] = dict(churn_rows)

    if regions:
        summary["regions"] = {}
        for region in regions:
            subset = ev.filter_by_region(popmap, votes["all"].values(), region)
            counters = _per_db_reports(cfg, subset, dbs, votes, agreements, deviations, f"__{region.name}", out)
            counters["pop_count"] = len(subset.pops)
            summary["regions"][region.name] = counters

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log.info("evaluation bundle written to %s", out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep_grid:
        raise InputError("no sweep grid configured (use --grid or [sweep] grid)")
    edges, prefix_map = _read_graph(cfg)
    try:
        rows = threshold_sweep(edges, prefix_map, cfg.extraction, cfg.sweep_grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_records(cfg.out_dir / "sweep.csv", [("threshold_ms", "pop_count", "ip_count"), *rows])
    log.info("sweep over %d thresholds written", len(rows))
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    from .synth import generate_scenario, write_scenario

    if cfg.synth is None:
        raise InputError("no [synth] section configured")
    try:
        scenario = generate_scenario(cfg.synth)
    except ValueError as exc:
        raise InputError(f"bad synth spec: {exc}") from exc
    write_scenario(scenario, cfg.out_dir)

    # a ready-to-run config for the downstream stages, relative to the out dir
    lines = [
        "[paths]",
        "observations = observations.csv",
        "ip2as = ip2as.csv",
        "out = .",
        "",
        "[databases]",
    ]
    lines += [f"{db.name} = point:db_{db.name}.csv" for db in scenario.dbs]
    for name, settings in (("extract", cfg.extraction), ("vote", cfg.vote)):
        lines += ["", f"[{name}]"]
        lines += [f"{key} = {value!r}" for key in SCHEMA[name] if (value := getattr(settings, key)) is not None]
    (cfg.out_dir / "run.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info(
        "synthetic scenario with %d PoPs, %d observations, %d databases written to %s",
        cfg.synth.pop_count,
        len(scenario.observations),
        len(scenario.dbs),
        cfg.out_dir,
    )
    return 0


COMMANDS = {
    "extract": cmd_extract,
    "locate": cmd_locate,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="popgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("extract", "extract PoP maps from observations"),
        ("locate", "locate PoPs against the configured databases"),
        ("evaluate", "write the full evaluation report bundle"),
        ("sweep", "re-extract over a grid of delay thresholds"),
        ("synth", "generate a synthetic scenario with known truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="output directory (overrides [paths] out)")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
        p.add_argument("--with-singletons", action="store_true", help="use the singleton-extended PoP map")
        p.add_argument("--step-km", type=float, help="vote radius step in km")
        p.add_argument("--max-radius-km", type=float, help="vote radius cap in km")
        p.add_argument("--null-coords-file", help="coordinates to treat as null replies")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", help="override any config value")
        if name == "sweep":
            p.add_argument("--grid", help="comma-separated ascending thresholds in ms")
        if name == "synth":
            p.add_argument("--seed", type=int, help="scenario seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        return COMMANDS[args.command](cfg)
    except (InputError, ParseError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 1
    except InvariantError as exc:
        log.error("invariant violated: %s", exc)
        return 2
    except Exception:  # internal failure: anything we did not classify above
        log.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
