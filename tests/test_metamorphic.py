"""Whole-bundle relations: inputs changed in ways that must leave every output as it was.

Each relation runs every stage through the CLI on a small synth fixture, once
on the plain inputs and once on the changed ones, and compares the bundles.
"""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from popgeo.cli import main

SEEDS = (1, 2, 3)

SYNTH_CONFIG = """
[synth]
pop_count = 8
ips_per_pop = 10
as_count = 2
intra_delay_ms = 1.5,2.0
inter_delay_ms = 10,30
singletons_per_pop = 2
seed = {seed}

[synth_dbs]
clean = noise_km=0,null_rate=0
noisy = noise_km=5,null_rate=0.2
pinner = noise_km=0,null_rate=0,hq_asn=65000,hq_lat=39.74,hq_lon=-104.98,hq_fraction=0.95
"""

PIPELINE_CONFIG = """
[paths]
observations = observations.csv
ip2as = ip2as.csv
out = out

[databases]
clean = point:db_clean.csv
noisy = point:db_noisy.csv
pinner = point:db_pinner.csv
ranged = range:range_noisy.csv

[evaluate]
anomaly_min_ips = 20
regions = europe,usa

[churn]
clean_vs_noisy = point:db_clean.csv,point:db_noisy.csv

[sweep]
grid = 1,3,5,7,9
"""

# files whose lines may come in any order: no line of them overrides another
UNORDERED = ("observations.csv", "ip2as.csv", "db_clean.csv", "db_noisy.csv", "db_pinner.csv")
# files holding addresses (ip2as holds /16 prefixes, which a last-octet shift stays inside)
ADDRESSED = ("observations.csv", "db_clean.csv", "db_noisy.csv", "db_pinner.csv", "range_noisy.csv")
ADDRESS = re.compile(r"\b(\d{1,3}\.\d{1,3}\.\d{1,3}\.)(\d{1,3})\b(?!/)")
SHIFT = 90  # 9 -> 99 and 10 -> 100: numeric order is kept, string order is not


def _inputs(directory: Path, seed: int) -> None:
    """synth's files for seed, a range copy of db_noisy (one row per address) and the pipeline config."""
    synth = directory / "synth.ini"
    synth.write_text(SYNTH_CONFIG.format(seed=seed), encoding="utf-8")
    assert main(["synth", "--config", str(synth), "--out", str(directory)]) == 0
    points = (directory / "db_noisy.csv").read_text(encoding="utf-8").splitlines()
    ranges = [f"{ip},{ip},,,{lat},{lon}" for ip, lat, lon in (line.split(",") for line in points)]
    (directory / "range_noisy.csv").write_text("\n".join(ranges) + "\n", encoding="utf-8")
    (directory / "config.ini").write_text(PIPELINE_CONFIG, encoding="utf-8")


def _bundle(directory: Path) -> dict[str, str]:
    """Every stage on directory's config; each output file's text by its path under out/."""
    for command in ("extract", "locate", "evaluate", "sweep"):
        assert main([command, "--config", str(directory / "config.ini")]) == 0, command
    out = directory / "out"
    return {str(p.relative_to(out)): p.read_text(encoding="utf-8") for p in sorted(out.rglob("*")) if p.is_file()}


def _shift(text: str, offset: int) -> str:
    return ADDRESS.sub(lambda m: f"{m[1]}{int(m[2]) + offset}", text)


@pytest.fixture(scope="module", params=SEEDS)
def plain(request, tmp_path_factory):
    """A fixture's inputs and the bundle of every stage on them."""
    inputs = tmp_path_factory.mktemp(f"inputs{request.param}")
    _inputs(inputs, request.param)
    run = tmp_path_factory.mktemp(f"plain{request.param}")
    shutil.copytree(inputs, run, dirs_exist_ok=True)
    return request.param, inputs, _bundle(run)


def test_line_order_leaves_the_bundle_unchanged(plain, tmp_path):
    seed, inputs, bundle = plain
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    rng = random.Random(seed)
    for name in UNORDERED:
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        rng.shuffle(lines)
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _bundle(tmp_path) == bundle


def test_address_shift_is_undone_by_shifting_the_outputs_back(plain, tmp_path):
    seed, inputs, bundle = plain
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    for name in ADDRESSED:
        text = (tmp_path / name).read_text(encoding="utf-8")
        hosts = [int(m[2]) for m in ADDRESS.finditer(text)]
        assert hosts and max(hosts) + SHIFT <= 255 and min(hosts) < 10 <= max(hosts)
        (tmp_path / name).write_text(_shift(text, SHIFT), encoding="utf-8")
    shifted = _bundle(tmp_path)
    assert shifted != bundle
    assert {name: _shift(text, -SHIFT) for name, text in shifted.items()} == bundle


def _config(directory: Path, old: str, new: str) -> None:
    path = directory / "config.ini"
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def _own_outputs(bundle: dict[str, str], names) -> dict[str, object]:
    """The outputs of names that read only their own answers: null statistics, convergence, agreement, anomalies.

    Regional reports select their PoPs by the cross-database vote, so they are left out.
    """
    summary = json.loads(bundle["summary.json"])
    anomalies = bundle["anomalies.csv"].splitlines()
    own: dict[str, object] = {
        "null_stats": [s for s in summary["null_stats"] if s["db_name"] in names],
        "anomalies.csv": [anomalies[0], *(row for row in anomalies[1:] if row.split(",")[0] in names)],
    }
    for name in names:
        stems = (f"locations_{name}.json", f"convergence_{name}.csv", f"agreement_{name}_100.csv", f"agreement_{name}_500.csv")
        own.update((stem, bundle[stem]) for stem in stems)
    return own


def test_one_file_two_names_give_the_same_reports(plain, tmp_path):
    seed, inputs, bundle = plain
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    # the second name comes first, so the file is first named by it
    _config(tmp_path, "[databases]\n", "[databases]\ntwin = point:db_clean.csv\n")
    named = _bundle(tmp_path)
    twins = [name for name in named if "_twin" in name]
    # locations, then for the whole map and each region: convergence, agreement at two radii, deviation, scatter
    assert len(twins) == 1 + 3 * 5
    assert {name: named[name] for name in twins} == {name: named[name.replace("_twin", "_clean")] for name in twins}
    databases = ("clean", "noisy", "pinner", "ranged")
    assert _own_outputs(named, databases) == _own_outputs(bundle, databases)


def test_a_database_added_leaves_the_others_own_reports(plain, tmp_path):
    seed, inputs, bundle = plain
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    # the pinner's answers mirrored across the equator: unrelated answers, the same nulls
    rows = [line.split(",") for line in (tmp_path / "db_pinner.csv").read_text(encoding="utf-8").splitlines()]
    mirrored = [f"{ip},{-float(lat)},{lon}" if lat else f"{ip},," for ip, lat, lon in rows]
    (tmp_path / "db_mirror.csv").write_text("\n".join(mirrored) + "\n", encoding="utf-8")
    _config(tmp_path, "[databases]\n", "[databases]\nmirror = point:db_mirror.csv\n")
    added = _bundle(tmp_path)
    assert any(row.startswith("mirror,") for row in added["anomalies.csv"].splitlines())
    databases = ("clean", "noisy", "pinner", "ranged")
    assert _own_outputs(added, databases) == _own_outputs(bundle, databases)


def _as_ranges(point_path: Path, range_path: Path) -> None:
    """Each point line as a one-address range, after covering /16 and /24 blocks at dummy coordinates.

    The later per-address lines split the blocks, so every address answers as in the point file.
    """
    rows = [line.split(",") for line in point_path.read_text(encoding="utf-8").splitlines()]
    octets = [ip.split(".") for ip, _, _ in rows]
    blocks16 = sorted({(int(a), int(b)) for a, b, _, _ in octets})
    blocks24 = sorted({(int(a), int(b), int(c)) for a, b, c, _ in octets})
    lines = [f"{a}.{b}.0.0,{a}.{b}.255.255,ZZ,as-block,0.0,0.0" for a, b in blocks16]
    lines += [f"{a}.{b}.{c}.0,{a}.{b}.{c}.255,ZZ,pop-block,1.0,1.0" for a, b, c in blocks24]
    lines += [f"{ip},{ip},,,{lat},{lon}" for ip, lat, lon in rows]
    range_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_point_and_range_files_agree(plain, tmp_path):
    seed, inputs, bundle = plain
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    for name in ("clean", "noisy", "pinner"):
        _as_ranges(tmp_path / f"db_{name}.csv", tmp_path / f"blocks_{name}.csv")
        _config(tmp_path, f"point:db_{name}.csv", f"range:blocks_{name}.csv")
    assert "point:" not in (tmp_path / "config.ini").read_text(encoding="utf-8")
    assert _bundle(tmp_path) == bundle
