"""Whole-bundle relations: inputs changed in ways that must leave every output as it was.

Each relation runs every stage through the CLI on a small synth fixture, once
on the plain inputs and once on the changed ones, and compares the bundles.
"""

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
