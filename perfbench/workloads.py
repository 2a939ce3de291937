"""Seeded inputs and output oracles for the three benchmark workloads.

Each workload writes its input files into a directory from a seed, runs
`popgeo synth` through the supplied stage runner where it needs it, and
returns an Oracle that knows the true PoP maps, the planted coordinates of
the clean database, the anomaly rows and the sweep rows the program must
produce. The program itself only ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SWEEP_GRID = (1.0, 3.0, 5.0, 7.0, 9.0)
MIN_ANOMALY_IPS = 50  # the program's default [evaluate] anomaly_min_ips
BASE_ASN = 65000
INTRA_DELAY_MS = (1.5, 2.0)  # synth's PoP-internal links
INTER_DELAY_MS = (10.0, 30.0)  # synth's links between PoPs


class CheckFailed(Exception):
    """An output file differs from what the workload's truth predicts."""


@dataclass
class Oracle:
    """Everything a correct bundle must contain for one generated input set."""

    config: Path  # pipeline INI handed to extract/locate/evaluate/sweep
    core: list  # [(id, asn, core members, singleton members)] sorted by id
    full: list
    clean_db: str
    coords: dict  # PoP id -> (lat, lon) answered by the clean database
    anomalies: set  # {(db name, asn)}
    sweep: list  # [(threshold, pop count, ip count)]
    threads: int = 1

    def check(self, stage: str, out: Path) -> None:
        getattr(self, f"_check_{stage}")(out)

    def _check_extract(self, out: Path) -> None:
        _expect(_popmap(out / "popmap_core.json") == self.core, "popmap_core.json differs from truth")
        _expect(_popmap(out / "popmap_singletons.json") == self.full, "popmap_singletons.json differs from truth")

    def _check_locate(self, out: Path) -> None:
        rows = json.loads((out / f"locations_{self.clean_db}.json").read_text(encoding="utf-8"))
        got = {r["pop_id"]: (r["lat"], r["lon"]) for r in rows if r["converged"]}
        _expect(got == self.coords, f"locations_{self.clean_db}.json votes differ from planted coordinates")
        cross = json.loads((out / "locations_all.json").read_text(encoding="utf-8"))
        _expect(sorted(r["pop_id"] for r in cross) == sorted(self.coords), "locations_all.json PoP ids differ")

    def _check_evaluate(self, out: Path) -> None:
        json.loads((out / "summary.json").read_text(encoding="utf-8"))
        lines = (out / "anomalies.csv").read_text(encoding="utf-8").splitlines()[1:]
        flagged = {(f[0], int(f[1])) for f in (line.split(",") for line in lines)}
        _expect(flagged == self.anomalies, f"anomalies.csv flags {sorted(flagged)}, expected {sorted(self.anomalies)}")
        cdfs = [p for prefix in ("convergence_", "agreement_", "deviation_") for p in out.glob(prefix + "*.csv")]
        _expect(bool(cdfs), "no CDF files written")
        for path in cdfs:
            _check_cdf(path)

    def _check_sweep(self, out: Path) -> None:
        rows = [line.split(",") for line in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
        got = [(float(t), int(p), int(i)) for t, p, i in rows]
        _expect(got == self.sweep, f"sweep.csv rows {got} differ from predicted {self.sweep}")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_cdf(path: Path) -> None:
    """The bundle's own CDF rule: strictly increasing x, non-decreasing fraction, at most 1."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    fracs = [float(r[1]) for r in rows]
    _expect(all(a < b for a, b in zip(xs, xs[1:])), f"{path.name}: x column not strictly increasing")
    _expect(all(a <= b for a, b in zip(fracs, fracs[1:])), f"{path.name}: cumulative fraction decreases")
    _expect(not fracs or fracs[-1] <= 1.0 + 1e-12, f"{path.name}: cumulative fraction above 1")


def _ip_key(ip: str) -> tuple:
    return tuple(int(part) for part in ip.split("."))


def _popmap(path: Path) -> list:
    rows = json.loads(path.read_text(encoding="utf-8"))
    return [(r["id"], r["asn"], tuple(r["core_members"]), tuple(r["singleton_members"])) for r in rows]


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ini(sections: dict) -> list[str]:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    return lines


def _grid_text() -> str:
    return ",".join(f"{t:g}" for t in SWEEP_GRID)


# --- workloads built by `popgeo synth` -------------------------------------


@dataclass(frozen=True)
class SynthShape:
    pop_count: int
    ips_per_pop: int
    as_count: int
    measurements_per_edge: int
    singletons_per_pop: int
    dbs: dict  # name -> synth_dbs value; the first one must be noise-free
    range_dbs: tuple = ()  # databases rewritten as range files
    hq: tuple = ()  # (db name, asn) pinned to a headquarters coordinate
    regions: str = ""
    churn: tuple = ()  # (old db, new db)
    threads: int = 1


SURVEY = SynthShape(
    pop_count=120,
    ips_per_pop=12,
    as_count=5,
    measurements_per_edge=3,
    singletons_per_pop=2,
    dbs={
        "clean": "noise_km=0",
        "noisy": "noise_km=5,null_rate=0.2",
        "far": "noise_km=300,null_rate=0.1",
        "wild": "noise_km=1500,null_rate=0.2",
        "hq": f"hq_asn={BASE_ASN},hq_lat=40.7,hq_lon=-74.0,hq_fraction=0.95",
    },
    range_dbs=("noisy", "far"),
    hq=("hq", BASE_ASN),
    regions="europe,usa",
    churn=("clean", "noisy"),
    threads=2,
)

def _predicted_sweep(pops: int, core_ips: int) -> list:
    """Intra-PoP links all sit inside [intra lo, intra hi] and inter-PoP links above inter lo."""
    rows = []
    for t in SWEEP_GRID:
        if t < INTRA_DELAY_MS[0]:
            rows.append((t, 0, 0))
        elif INTRA_DELAY_MS[1] <= t < INTER_DELAY_MS[0]:
            rows.append((t, pops, core_ips))
        else:
            raise ValueError(f"sweep threshold {t} ms falls where the PoP count is not predictable")
    return rows


def _rewrite_as_ranges(point_path: Path, range_path: Path) -> None:
    """Point file -> range file whose per-address lines split earlier covering blocks.

    Each AS gets a /16 block and each PoP a /24 block at a dummy coordinate,
    then every address of the point file follows as a one-address range, so
    later lines win and every member answers exactly as in the point file.
    """
    rows = [line.split(",") for line in point_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    blocks16 = sorted({tuple(_ip_key(ip)[:2]) for ip, _, _ in rows})
    blocks24 = sorted({tuple(_ip_key(ip)[:3]) for ip, _, _ in rows})
    lines = [f"{a}.{b}.0.0,{a}.{b}.255.255,ZZ,as-block,0.0,0.0" for a, b in blocks16]
    lines += [f"{a}.{b}.{c}.0,{a}.{b}.{c}.255,ZZ,pop-block,1.0,1.0" for a, b, c in blocks24]
    lines += [f"{ip},{ip},,,{lat},{lon}" for ip, lat, lon in rows]
    _write(range_path, lines)


def synth_inputs(shape: SynthShape, seed: int, in_dir: Path, run_synth) -> Oracle:
    """Generate a scenario with `popgeo synth`, then derive the pipeline config and truth."""
    synth_ini = in_dir / "synth.ini"
    _write(
        synth_ini,
        _ini(
            {
                "synth": {
                    "pop_count": shape.pop_count,
                    "ips_per_pop": shape.ips_per_pop,
                    "as_count": shape.as_count,
                    "measurements_per_edge": shape.measurements_per_edge,
                    "singletons_per_pop": shape.singletons_per_pop,
                    "intra_delay_ms": "{},{}".format(*INTRA_DELAY_MS),
                    "inter_delay_ms": "{},{}".format(*INTER_DELAY_MS),
                    "seed": seed,
                },
                "synth_dbs": shape.dbs,
            }
        ),
    )
    run_synth(["synth", "--config", str(synth_ini), "--out", str(in_dir)])

    databases = {}
    for name in shape.dbs:
        if name in shape.range_dbs:
            _rewrite_as_ranges(in_dir / f"db_{name}.csv", in_dir / f"range_{name}.csv")
            databases[name] = f"range:range_{name}.csv"
        else:
            databases[name] = f"point:db_{name}.csv"
    sections = {
        "paths": {"observations": "observations.csv", "ip2as": "ip2as.csv"},
        "databases": databases,
        "extract": {"pop_max_delay_ms": 5.0, "pop_min_measurements": shape.measurements_per_edge},
        "evaluate": {"regions": shape.regions} if shape.regions else {},
        "sweep": {"grid": _grid_text()},
    }
    if shape.churn:
        old, new = shape.churn
        sections["churn"] = {"snapshot": f"{databases[old]},{databases[new]}"}
    config = in_dir / "pipeline.ini"
    _write(config, _ini(sections))

    truth = json.loads((in_dir / "truth.json").read_text(encoding="utf-8"))
    full = [(t["id"], t["asn"], tuple(t["core_members"]), tuple(t["singleton_members"])) for t in truth]
    core = [(pid, asn, members, ()) for pid, asn, members, _ in full]
    return Oracle(
        config=config,
        core=core,
        full=full,
        clean_db=next(iter(shape.dbs)),
        coords={t["id"]: (t["lat"], t["lon"]) for t in truth},
        anomalies={shape.hq} if shape.hq else set(),
        sweep=_predicted_sweep(len(core), sum(len(m) for _, _, m, _ in core)),
        threads=shape.threads,
    )


# --- backbone: the benchmark's own chain generator ---------------------------

CHAIN_LENGTHS = (48, 96, 192)
LINK_DELAYS_MS = (0.5, 2.0, 4.0, 6.0, 8.0)  # between the sweep grid's thresholds
BACKBONE_EXTRACT_MS = 9.0  # above every link delay: each chain is one component
BACKBONE_MERGE_MS = 3.0  # partition fuses short links, unification the rest


def _chain_ip(as_index: int, k: int) -> str:
    return f"10.{as_index}.{k // 200}.{k % 200 + 1}"


def _segments(chain: list[str], delays: list[float], threshold: float) -> list[list[str]]:
    """Maximal runs of consecutive links at or under threshold, as interface lists."""
    runs, current = [], [chain[0]]
    for ip, delay in zip(chain[1:], delays):
        if delay <= threshold:
            current.append(ip)
        else:
            if len(current) > 1:
                runs.append(current)
            current = [ip]
    if len(current) > 1:
        runs.append(current)
    return runs


def backbone_inputs(seed: int, in_dir: Path, run_synth) -> Oracle:
    """Same-AS router chains with link delays spread across the sweep grid."""
    del run_synth  # the chains are not a shape `popgeo synth` can make
    rng = random.Random(seed)
    observations, ip2as, points = [], [], []
    chains = []
    for a, length in enumerate(CHAIN_LENGTHS):
        chain = [_chain_ip(a, k) for k in range(length)]
        delays = [rng.choice(LINK_DELAYS_MS) for _ in range(length - 1)]
        coord = (rng.uniform(-55.0, 65.0), rng.uniform(-175.0, 175.0))
        observations += [f"{s},{d},{delay!r}" for s, d, delay in zip(chain, chain[1:], delays)]
        ip2as.append(f"10.{a}.0.0/16,{BASE_ASN + a}")
        points += [f"{ip},{coord[0]!r},{coord[1]!r}" for ip in chain]
        chains.append((BASE_ASN + a, chain, delays, coord))
    _write(in_dir / "observations.csv", observations)
    _write(in_dir / "ip2as.csv", ip2as)
    _write(in_dir / "db_clean.csv", points)
    config = in_dir / "pipeline.ini"
    _write(
        config,
        _ini(
            {
                "paths": {"observations": "observations.csv", "ip2as": "ip2as.csv"},
                "databases": {"clean": "point:db_clean.csv"},
                "extract": {
                    "pop_max_delay_ms": BACKBONE_EXTRACT_MS,
                    "pop_min_measurements": 1,
                    "group_merge_delay_ms": BACKBONE_MERGE_MS,
                },
                "sweep": {"grid": _grid_text()},
            }
        ),
    )

    core, coords = [], {}
    for asn, chain, delays, coord in chains:
        for seg in _segments(chain, delays, BACKBONE_EXTRACT_MS):
            core.append((seg[0], asn, tuple(seg), ()))
            coords[seg[0]] = coord
    core.sort(key=lambda row: _ip_key(row[0]))
    sweep = []
    for t in SWEEP_GRID:
        segs = [seg for _, chain, delays, _ in chains for seg in _segments(chain, delays, t)]
        sweep.append((t, len(segs), sum(len(s) for s in segs)))
    # the clean database answers one coordinate per chain, so every AS with
    # enough located members piles onto a single point
    members_per_as: dict = {}
    for _, asn, members, _ in core:
        members_per_as[asn] = members_per_as.get(asn, 0) + len(members)
    anomalies = {("clean", asn) for asn, n in members_per_as.items() if n >= MIN_ANOMALY_IPS}
    return Oracle(
        config=config,
        core=core,
        full=core,
        clean_db="clean",
        coords=coords,
        anomalies=anomalies,
        sweep=sweep,
    )


WORKLOADS = {
    "survey": lambda seed, d, run: synth_inputs(SURVEY, seed, d, run),
    "backbone": backbone_inputs,
}
