"""Command-line pipeline: extract, locate, evaluate, sweep, synth.

One INI-style config file wires every stage; any value can be overridden on
the command line (dedicated flags for the common ones, `--set section.key=v`
for the rest). Relative paths in a config resolve against the config file's
directory. Data goes to files under the output directory, logs go to stderr,
and reruns on identical inputs are byte-identical.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from . import evaluate as ev
from .extract import (
    ExtractionConfig,
    PopMap,
    extract_pops,
    load_popmap,
    save_popmap,
    threshold_sweep,
)
from .geodb import AnswerTable, answer_table, load_null_coords, load_point_db, load_range_db
from .ingest import DelayEdge, ParseError, PrefixMap, aggregate_edges, load_ip2as, parse_observations
from .locate import PoPLocation, VoteConfig, locate_popmap, save_locations
from .synth import SynthDbSpec, SynthSpec, generate_scenario, write_scenario

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
    agreement_radii: list[float]
    anomaly_min_ips: int
    anomaly_share_threshold: float
    anomaly_rounding_deg: float
    churn_epsilon_km: float
    correlation_include_nulls: bool
    region_names: list[str]
    sweep_grid: list[float]
    synth: Optional[SynthSpec]
    with_singletons: bool


def _parse_db_spec(name: str, value: str, base: Path) -> DbSpec:
    kind, sep, path = value.partition(":")
    if not sep or kind.strip() not in ("range", "point"):
        raise InputError(f"database {name}: expected '<range|point>:<path>', got {value!r}")
    return DbSpec(name, kind.strip(), _resolve(base, path.strip()))


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _get(cp, section, option, convert, default=None):
    """convert(value) of a config key, or default when the key is absent or empty."""
    raw = cp.get(section, option, fallback=None)
    return default if raw is None or raw == "" else convert(raw)


def _configured(cp, section: str, converters: Mapping[str, Callable]) -> dict:
    """convert(value) of each key that section sets non-empty; the dataclass defaults the rest."""
    return {
        option: convert(raw)
        for option, convert in converters.items()
        if (raw := cp.get(section, option, fallback="")) != ""
    }


def _radii(text: str) -> list[float]:
    """Agreement radii in km: finite, non-negative, and each naming its own output file."""
    radii = _floats(text)
    if not radii or not all(0.0 <= r < math.inf for r in radii) or len({f"{r:g}" for r in radii}) < len(radii):
        raise ValueError(f"agreement radii must be distinct, finite and non-negative, got {text!r}")
    return radii


def _delay_range(text: str) -> tuple[float, float]:
    lo_hi = _floats(text)
    if len(lo_hi) != 2:
        raise ValueError("synth delay ranges need exactly two values: lo,hi")
    return lo_hi[0], lo_hi[1]


# the keys of [extract], [vote] and [synth], each with the conversion of its value
EXTRACT_KEYS = {
    "pop_max_delay_ms": float,
    "pop_min_measurements": int,
    "singleton_max_links": int,
    "singleton_max_median_ms": float,
}
VOTE_KEYS = {"step_km": float, "max_radius_km": float, "majority_fraction": float}
SYNTH_KEYS = {
    "pop_count": int,
    "ips_per_pop": int,
    "as_count": int,
    "intra_delay_ms": _delay_range,
    "inter_delay_ms": _delay_range,
    "measurements_per_edge": int,
    "singletons_per_pop": int,
    "singleton_edge_measurements": int,
    "seed": int,
}


def _synth_db_specs(cp) -> tuple[SynthDbSpec, ...]:
    specs = []
    for name, value in cp.items("synth_dbs"):
        kwargs: dict = {}
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            if not sep:
                raise InputError(f"synth_dbs {name}: expected key=value, got {part!r}")
            key = key.strip()
            if key == "hq_asn":
                kwargs[key] = int(raw)
            elif key in ("noise_km", "null_rate", "hq_lat", "hq_lon", "hq_fraction"):
                kwargs[key] = float(raw)
            else:
                raise InputError(f"synth_dbs {name}: unknown key {key!r}")
        specs.append(SynthDbSpec(name, **kwargs))
    return tuple(specs)


def _build_synth_spec(cp) -> Optional[SynthSpec]:
    if not cp.has_section("synth"):
        return None
    spec = _configured(cp, "synth", SYNTH_KEYS)
    if cp.has_section("synth_dbs"):
        spec["dbs"] = _synth_db_specs(cp)
    return SynthSpec(**spec)


# dedicated flag (argparse dest) -> the config key it sets, as a --set item would
DEDICATED_FLAGS = {
    "step_km": "vote.step_km",
    "max_radius_km": "vote.max_radius_km",
    "seed": "synth.seed",
    "grid": "sweep.grid",
}


def build_run_config(args) -> RunConfig:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise InputError(f"config file not found: {config_path}")
    cp = configparser.ConfigParser(interpolation=None)  # a '%' in a value is literal
    cp.optionxform = str  # keep database names case-sensitive
    try:
        cp.read_string(config_path.read_text(encoding="utf-8"), source=str(config_path))
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
        section, dot, option = target.partition(".")
        if not sep or not dot:
            raise InputError(f"--set expects section.key=value, got {item!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)

    base = config_path.parent

    def _path_or_none(option: str) -> Optional[Path]:
        raw = cp.get("paths", option, fallback=None)
        return None if raw is None or raw == "" else _resolve(base, raw)

    out_dir = Path(args.out) if args.out else (_path_or_none("out") or base / "out")
    null_coords = (
        Path(args.null_coords_file) if getattr(args, "null_coords_file", None) else _path_or_none("null_coords")
    )

    db_specs = []
    if cp.has_section("databases"):
        db_specs = [_parse_db_spec(n, v, base) for n, v in cp.items("databases")]
    if len({d.name for d in db_specs}) != len(db_specs):
        raise InputError("duplicate database names in [databases]")
    if any(d.name == "all" for d in db_specs):
        raise InputError("database name 'all' is reserved for the cross-database vote")

    churn_pairs = []
    if cp.has_section("churn"):
        for label, value in cp.items("churn"):
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

    try:
        cfg = RunConfig(
            out_dir=out_dir,
            observations=_path_or_none("observations"),
            ip2as=_path_or_none("ip2as"),
            regions_file=_path_or_none("regions"),
            null_coords_file=null_coords,
            db_specs=db_specs,
            churn_pairs=churn_pairs,
            extraction=ExtractionConfig(**_configured(cp, "extract", EXTRACT_KEYS)),
            vote=VoteConfig(**_configured(cp, "vote", VOTE_KEYS)),
            agreement_radii=_get(cp, "evaluate", "agreement_radii_km", _radii, [100.0, 500.0]),
            anomaly_min_ips=_get(cp, "evaluate", "anomaly_min_ips", int, 50),
            anomaly_share_threshold=_get(cp, "evaluate", "anomaly_share_threshold", float, 0.8),
            anomaly_rounding_deg=_get(cp, "evaluate", "anomaly_rounding_deg", float, 0.01),
            churn_epsilon_km=_get(cp, "evaluate", "churn_epsilon_km", float, 1.0),
            correlation_include_nulls=cp.getboolean("evaluate", "correlation_include_nulls", fallback=False),
            region_names=[r.strip() for r in cp.get("evaluate", "regions", fallback="").split(",") if r.strip()],
            sweep_grid=_floats(cp.get("sweep", "grid", fallback="")),
            synth=_build_synth_spec(cp),
            with_singletons=bool(getattr(args, "with_singletons", False)),
        )
        if not 0.0 < cfg.anomaly_rounding_deg < math.inf:
            raise ValueError(f"anomaly_rounding_deg must be positive and finite, got {cfg.anomaly_rounding_deg}")
    except ValueError as exc:
        raise InputError(f"bad config value: {exc}") from exc
    return cfg


def _require_file(path: Optional[Path], what: str) -> Path:
    if path is None:
        raise InputError(f"no {what} configured")
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    return path


def _null_coords(cfg: RunConfig):
    if cfg.null_coords_file is None:
        return None
    with _require_file(cfg.null_coords_file, "null-coords file").open(encoding="utf-8") as fh:
        return load_null_coords(fh)


def _table_loader(cfg: RunConfig, popmap: PopMap) -> Callable[[DbSpec], AnswerTable]:
    """A function from a database spec to its answer table over popmap.

    Each (kind, path) file is loaded and queried once, whichever spec names
    it first; every later spec on the file gets those rows under its own
    name. The null-coords file is read once, here.
    """
    null_coords = _null_coords(cfg)
    rows_by_file: dict[tuple[str, Path], Mapping] = {}

    def table(spec: DbSpec) -> AnswerTable:
        key = (spec.kind, spec.path)
        if key not in rows_by_file:
            loader = load_range_db if spec.kind == "range" else load_point_db
            with _require_file(spec.path, f"database {spec.name}").open(encoding="utf-8") as fh:
                rows_by_file[key] = answer_table(loader(fh, spec.name, null_coords), popmap).rows
        return AnswerTable(spec.name, rows_by_file[key])

    return table


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_cdf_csv(path: Path, header: str, series: ev.CdfSeries) -> None:
    """Write series after checking it (CdfSeries.validate); a bad series is an InvariantError."""
    try:
        series.validate()
    except ValueError as exc:
        raise InvariantError(f"{path.name}: {exc}") from exc
    lines = [header]
    lines += [f"{x!r},{frac!r}" for x, frac in series.points]
    _write_lines(path, lines)


def _read_graph(cfg: RunConfig) -> tuple[list[DelayEdge], PrefixMap]:
    """The aggregated edges of the observations file, and the ip2as prefix map."""
    obs_path = _require_file(cfg.observations, "observations file")
    ip2as_path = _require_file(cfg.ip2as, "ip2as file")
    with obs_path.open(encoding="utf-8") as fh:
        observations = parse_observations(fh)
    if not observations:
        log.warning("observation file %s contains no observations", obs_path)
    edges = aggregate_edges(observations)
    with ip2as_path.open(encoding="utf-8") as fh:
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
    votes = {db.name: locate_popmap(popmap, [db], cfg.vote) for db in dbs}
    votes["all"] = locate_popmap(popmap, dbs, cfg.vote)
    return votes


def _agreements(cfg: RunConfig, popmap: PopMap, dbs) -> dict[str, dict[str, Optional[tuple[float, ...]]]]:
    """Each database's per-PoP agreement fractions, one per configured radius."""
    return {
        db.name: {
            pop.id: ev.pop_agreement(pop, db, cfg.agreement_radii)
            for pop in popmap.pops
        }
        for db in dbs
    }


def cmd_locate(cfg: RunConfig) -> int:
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
    named: dict[str, ev.RegionSpec] = {}
    if cfg.regions_file is not None:
        with _require_file(cfg.regions_file, "regions file").open(encoding="utf-8") as fh:
            named.update(ev.load_regions(fh))
    regions = []
    for name in cfg.region_names:
        spec = named.get(name) or ev.BUILTIN_REGIONS.get(name)
        if spec is None:
            raise InputError(f"unknown region {name!r}")
        regions.append(spec)
    return regions


def _per_db_reports(
    cfg: RunConfig, popmap: PopMap, dbs, votes: dict, agreements: dict, suffix: str, out: Path
) -> dict:
    """Convergence, agreement and deviation outputs for one PoP map subset.

    votes come from _votes and agreements from _agreements, both over a map
    that holds every PoP of popmap.
    """
    counters: dict = {"convergence_tail": {}, "agreement_excluded": {}, "deviation_skipped": {}}
    if not popmap.pops:
        log.warning("PoP map%s is empty; emitting header-only reports", suffix or "")

    for db in dbs:
        own = votes[db.name]
        conv = ev.convergence_cdf(db.name, [own[pop.id] for pop in popmap.pops])
        _write_cdf_csv(out / f"convergence_{db.name}{suffix}.csv", "range_km,cum_fraction", conv)
        counters["convergence_tail"][db.name] = conv.tail_count
        per_pop = [agreements[db.name][pop.id] for pop in popmap.pops]
        cdfs = ev.agreement_cdf(db.name, cfg.agreement_radii, per_pop)
        for radius, series in zip(cfg.agreement_radii, cdfs):
            _write_cdf_csv(
                out / f"agreement_{db.name}_{radius:g}{suffix}.csv", "agreement,cum_fraction", series
            )
            counters["agreement_excluded"][f"{db.name}:{radius:g}"] = series.excluded_count
        deviation = ev.deviation_samples(popmap, db, votes["all"], own)
        _write_cdf_csv(out / f"deviation_{db.name}{suffix}.csv", "deviation_km,cum_fraction", deviation.cdf())
        counters["deviation_skipped"][db.name] = deviation.skipped_pops
        scatter = [
            f"{s.ip},{'' if s.range_km is None else repr(s.range_km)},{s.deviation_km!r}"
            for s in deviation.samples
        ]
        _write_lines(out / f"range_vs_deviation_{db.name}{suffix}.csv", ["ip,range_km,deviation_km"] + scatter)
    return counters


def cmd_evaluate(cfg: RunConfig) -> int:
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
        with _require_file(cfg.ip2as, "ip2as file").open(encoding="utf-8") as fh:
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
    summary.update(_per_db_reports(cfg, popmap, dbs, votes, agreements, "", out))

    matrix = None
    if len(dbs) >= 2 and popmap.pops:
        matrix = ev.correlation_matrix(dbs, popmap, include_nulls=cfg.correlation_include_nulls)
        lines = ["db," + ",".join(matrix.db_names)]
        for name, row in zip(matrix.db_names, matrix.values):
            cells = ["" if v is None else repr(v) for v in row]
            lines.append(f"{name}," + ",".join(cells))
        _write_lines(out / "correlation.csv", lines)
        summary["correlation"] = {
            "db_names": list(matrix.db_names),
            "include_nulls": matrix.include_nulls,
            "values": [list(row) for row in matrix.values],
        }

    anomalies = []
    for db in dbs:
        anomalies += ev.detect_default_location(
            db,
            popmap,
            prefix_map,
            min_ips=cfg.anomaly_min_ips,
            share_threshold=cfg.anomaly_share_threshold,
            rounding_deg=cfg.anomaly_rounding_deg,
        )
    _write_lines(
        out / "anomalies.csv",
        ["db,asn,lat,lon,share,ip_count"]
        + [
            f"{a.db_name},{a.asn},{a.dominant_coord.lat!r},{a.dominant_coord.lon!r},{a.share!r},{a.ip_count}"
            for a in anomalies
        ],
    )
    summary["anomalies"] = [
        {
            "db": a.db_name,
            "asn": a.asn,
            "lat": a.dominant_coord.lat,
            "lon": a.dominant_coord.lon,
            "share": a.share,
            "ip_count": a.ip_count,
        }
        for a in anomalies
    ]

    churn_rows = []
    for label, old_db, new_db in churn_pairs:
        fraction = ev.churn(old_db, new_db, popmap, cfg.churn_epsilon_km) if popmap.pops else 0.0
        churn_rows.append((label, fraction))
    _write_lines(
        out / "churn.csv",
        ["label,changed_fraction"] + [f"{label},{frac!r}" for label, frac in churn_rows],
    )
    summary["churn"] = {label: frac for label, frac in churn_rows}

    if regions:
        summary["regions"] = {}
        for region in regions:
            subset = ev.filter_by_region(popmap, votes["all"].values(), region)
            counters = _per_db_reports(cfg, subset, dbs, votes, agreements, f"__{region.name}", out)
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
    _write_lines(
        cfg.out_dir / "sweep.csv",
        ["threshold_ms,pop_count,ip_count"]
        + [f"{t!r},{pops},{ips}" for t, pops, ips in rows],
    )
    log.info("sweep over %d thresholds written", len(rows))
    return 0


def cmd_synth(cfg: RunConfig) -> int:
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
    lines += [
        "",
        "[extract]",
        f"pop_max_delay_ms = {cfg.extraction.pop_max_delay_ms!r}",
        f"pop_min_measurements = {cfg.extraction.pop_min_measurements}",
        f"singleton_max_links = {cfg.extraction.singleton_max_links}",
        "",
        "[vote]",
        f"step_km = {cfg.vote.step_km!r}",
        f"max_radius_km = {cfg.vote.max_radius_km!r}",
        f"majority_fraction = {cfg.vote.majority_fraction!r}",
    ]
    _write_lines(cfg.out_dir / "run.ini", lines)
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
