import atexit
import configparser
import gc
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import popgeo.cli
import popgeo.evaluate
import popgeo.ingest
import popgeo.locate
from conftest import WarningLog
from popgeo.cli import main
from popgeo.geodb import GeoDatabase
from popgeo.extract import load_popmap
from popgeo.ingest import read_records
from popgeo.iputil import ip_to_int
from popgeo.locate import load_locations


BASE_CONFIG = """
[paths]
observations = observations.csv
ip2as = ip2as.csv
out = .

[synth]
pop_count = 8
ips_per_pop = 6
as_count = 2
intra_delay_ms = 1.5,2.0
inter_delay_ms = 10,30
singletons_per_pop = 1
seed = 11

[synth_dbs]
clean = noise_km=0,null_rate=0
noisy = noise_km=5,null_rate=0.2
pinner = noise_km=0,null_rate=0,hq_asn=65000,hq_lat=39.74,hq_lon=-104.98,hq_fraction=0.95

[databases]
clean = point:db_clean.csv
noisy = point:db_noisy.csv
pinner = point:db_pinner.csv

[evaluate]
anomaly_min_ips = 20
regions = europe,usa

[churn]
clean_vs_noisy = point:db_clean.csv,point:db_noisy.csv

[sweep]
grid = 1,3,5,7,9
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "config.ini"
    cfg.write_text(BASE_CONFIG, encoding="utf-8")
    return tmp_path, cfg


def run(cfg, command, *extra):
    return main([command, "--config", str(cfg), *extra])


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestPipeline:
    def test_full_chain(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "synth") == 0
        assert (tmp / "observations.csv").exists()
        assert (tmp / "run.ini").exists()  # ready-to-run config for the fixture
        assert run(cfg, "extract") == 0

        core = load_popmap(tmp / "popmap_core.json")
        full = load_popmap(tmp / "popmap_singletons.json")
        truth = json.loads((tmp / "truth.json").read_text())
        assert {frozenset(t["core_members"]) for t in truth} == {
            p.core_members for p in core.pops
        }
        assert sum(len(p.singleton_members) for p in full.pops) == 8

        assert run(cfg, "locate") == 0
        for name in ("clean", "noisy", "pinner", "all"):
            locs = load_locations(tmp / f"locations_{name}.json")
            assert len(locs) == len(core.pops)
        clean_locs = load_locations(tmp / "locations_clean.json")
        truth_by_id = {t["id"]: (t["lat"], t["lon"]) for t in truth}
        for loc in clean_locs:
            assert loc.majority_found
            assert loc.range_km == 1.11
            assert (loc.coord.lat, loc.coord.lon) == truth_by_id[loc.pop_id]

        assert run(cfg, "evaluate") == 0
        summary = json.loads((tmp / "summary.json").read_text())
        assert summary["databases"] == ["clean", "noisy", "pinner"]
        stats = {s["db_name"]: s for s in summary["null_stats"]}
        assert stats["clean"]["pct_null_ip_core"] == 0.0
        assert stats["noisy"]["pct_null_ip_core"] > 0.0
        anomalies = summary["anomalies"]
        assert [a["asn"] for a in anomalies] == [65000]
        assert anomalies[0]["db"] == "pinner"
        # measured over core members only, so the share can exceed the
        # planted 0.95 when the unpinned addresses are pendants
        assert 0.9 <= anomalies[0]["share"] <= 1.0
        assert "clean_vs_noisy" in summary["churn"]
        assert summary["churn"]["clean_vs_noisy"] > 0.0
        for stem in ("convergence_clean", "agreement_clean_100", "agreement_clean_500",
                     "deviation_pinner", "range_vs_deviation_noisy", "correlation",
                     "anomalies", "churn"):
            assert (tmp / f"{stem}.csv").exists(), stem
        corr_rows = (tmp / "correlation.csv").read_text().splitlines()
        assert corr_rows[0] == "db,clean,noisy,pinner"
        assert corr_rows[1].split(",")[1] == "1.0"  # clean against itself
        # regional variants
        assert (tmp / "convergence_clean__europe.csv").exists()
        assert (tmp / "deviation_noisy__usa.csv").exists()

        assert run(cfg, "sweep") == 0
        rows = (tmp / "sweep.csv").read_text().splitlines()
        assert rows[0] == "threshold_ms,pop_count,ip_count"
        assert len(rows) == 6
        plateau = {tuple(r.split(",")[1:]) for r in rows[2:]}
        assert len(plateau) == 1
        assert rows[1].split(",")[1:] == ["0", "0"]

    @pytest.mark.parametrize("extra", [[], ["--with-singletons"]], ids=["core", "singletons"])
    def test_core_map_file_is_not_read(self, workdir, extra):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        for command in ("locate", "evaluate"):
            assert run(cfg, command, *extra) == 0
        expected = read_tree(tmp)
        del expected["popmap_core.json"]
        (tmp / "popmap_core.json").unlink()
        for command in ("locate", "evaluate"):
            assert run(cfg, command, *extra) == 0
        assert read_tree(tmp) == expected

    def test_locate_with_singletons(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "locate", "--with-singletons") == 0
        locs = load_locations(tmp / "locations_all.json")
        assert all(loc.majority_found for loc in locs)


class TestDeterminism:
    def test_rerun_and_threads_byte_identical(self, workdir):
        tmp, cfg = workdir
        for command in ("synth", "extract", "locate", "evaluate", "sweep"):
            assert run(cfg, command) == 0
        first = read_tree(tmp)
        for command in ("synth", "extract", "locate", "evaluate", "sweep"):
            assert run(cfg, command, "--threads", "8") == 0
        second = read_tree(tmp)
        assert first == second


HANDOFF_FILES = ("handoff.json", "handoff_answers.bin")


def _counting_votes_and_loads(monkeypatch) -> tuple[list, list]:
    """Every PoP vote, as (pop id, database names), and every database file loaded, from here on."""
    votes, loads = [], []
    real_vote = popgeo.locate.locate_pop

    def vote(pop, dbs, *args, **kwargs):
        votes.append((pop.id, tuple(db.name for db in dbs)))
        return real_vote(pop, dbs, *args, **kwargs)

    def counting(real):
        def load(lines, name, null_coords=None):
            loads.append(Path(lines.name).name)
            return real(lines, name, null_coords)

        return load

    monkeypatch.setattr(popgeo.locate, "locate_pop", vote)
    for kind in ("point", "range"):
        name = f"load_{kind}_db"
        monkeypatch.setattr(popgeo.cli, name, counting(getattr(popgeo.cli, name)))
    return votes, loads


class TestVoteCount:
    def test_one_vote_per_pop_and_database_set(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        pops = load_popmap(tmp / "popmap_core.json").pops
        calls, loads = _counting_votes_and_loads(monkeypatch)
        expected = len(pops) * (3 + 1)  # three databases plus the cross vote
        assert run(cfg, "locate") == 0
        assert len(calls) == expected
        calls.clear()
        loads.clear()
        assert run(cfg, "evaluate") == 0  # reads locate's handoff: no file loaded, no PoP voted
        assert (calls, loads) == ([], [])
        assert run(cfg, "evaluate") == 0  # the first evaluate consumed the handoff; regions europe,usa are configured
        assert len(calls) == expected
        assert len(set(calls)) == expected


def _move_a_clean_answer(tmp: Path) -> None:
    path = tmp / "db_clean.csv"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    ip, lat, lon = first.strip().split(",")
    path.write_text(f"{ip},{float(lat) / 2},{lon}\n" + "".join(rest), encoding="utf-8")


def _move_the_first_cross_vote(tmp: Path) -> None:
    path = tmp / "locations_all.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    rows[0]["lat"] = 0.0
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def _truncate(name: str):
    def truncate(tmp: Path) -> None:
        data = (tmp / name).read_bytes()
        (tmp / name).write_bytes(data[: len(data) // 2])

    return truncate


def _null_coords(text: str):
    def write(tmp: Path) -> None:
        (tmp / "nulls.csv").write_text(text, encoding="utf-8")

    return write


def _re_extract(tmp: Path) -> None:
    # above the links between same-AS PoPs: each AS is one PoP, over the same addresses
    before = load_popmap(tmp / "popmap_singletons.json")
    assert run(tmp / "config.ini", "extract", "--set", "extract.pop_max_delay_ms=35") == 0
    after = load_popmap(tmp / "popmap_singletons.json")
    assert after.member_ips() == before.member_ips() and len(after.pops) < len(before.pops)


def _move_a_handed_answer(tmp: Path) -> None:
    # the first answer's latitude halved: the same length, so only the answers digest tells
    path = tmp / "handoff_answers.bin"
    data = path.read_bytes()
    lat, lon = struct.unpack_from("<2d", data)
    changed = struct.pack("<2d", lat / 2, lon) + data[16:]
    assert len(changed) == len(data) and changed != data
    path.write_bytes(changed)


def _handoff_json(text: str):
    def write(tmp: Path) -> None:
        (tmp / "handoff.json").write_text(text, encoding="utf-8")

    return write


NULLS = ("--set", "paths.null_coords=nulls.csv")
# (what changes between locate and evaluate, locate's extra flags, evaluate's extra flags)
STALE_HANDOFFS = {
    "database_bytes": (_move_a_clean_answer, (), ()),
    "null_coords_file": (_null_coords("0,0\n"), NULLS, NULLS),
    "step_km": (None, (), ("--step-km", "2.22")),
    "with_singletons": (None, (), ("--with-singletons",)),
    "re_extracted_map": (_re_extract, (), ()),
    "hand_edited_locations": (_move_the_first_cross_vote, (), ()),
    "truncated_locations": (_truncate("locations_all.json"), (), ()),
    "truncated_answers": (_truncate("handoff_answers.bin"), (), ()),
    "corrupted_answers": (_move_a_handed_answer, (), ()),
    "handoff_json_list": (_handoff_json("[]\n"), (), ()),
    "handoff_json_empty_object": (_handoff_json("{}\n"), (), ()),
}


class TestHandoff:
    """evaluate reads locate's answers and votes only when they come from its very inputs, and leaves none behind."""

    @pytest.fixture
    def located(self, workdir):
        """synth, extract and a null-coords file naming pinner's headquarters: everything locate reads."""
        tmp, cfg = workdir
        assert run(cfg, "synth") == 0
        assert run(cfg, "extract") == 0
        _null_coords("39.74,-104.98\n")(tmp)
        return tmp, cfg

    @pytest.fixture
    def reference(self, tmp_path_factory):
        def evaluated(tmp: Path, *evaluate_args) -> dict[str, bytes]:
            """The tree after an evaluate on a copy of tmp without the handoff."""
            ref = tmp_path_factory.mktemp("reference")
            shutil.copytree(tmp, ref, dirs_exist_ok=True)
            for name in HANDOFF_FILES:
                (ref / name).unlink(missing_ok=True)
            assert run(ref / "config.ini", "evaluate", *evaluate_args) == 0
            return read_tree(ref)

        return evaluated
    def test_a_matching_handoff_is_read_and_consumed(self, located, reference, monkeypatch):
        tmp, cfg = located
        (tmp / "db_extra.csv").write_bytes((tmp / "db_noisy.csv").read_bytes())
        churn = "[churn]\nsame = point:db_clean.csv,point:db_clean.csv\nsnapshot = point:db_noisy.csv,point:db_extra.csv\n"
        cfg.write_text(cfg.read_text(encoding="utf-8").replace("[churn]\n", churn), encoding="utf-8")
        assert run(cfg, "locate", *NULLS) == 0
        assert all((tmp / name).is_file() for name in HANDOFF_FILES)
        expected = reference(tmp, *NULLS)
        votes, loads = _counting_votes_and_loads(monkeypatch)
        assert run(cfg, "evaluate", *NULLS) == 0
        # only the [churn] file outside [databases] is loaded
        assert (votes, loads) == ([], ["db_extra.csv"])
        assert read_tree(tmp) == expected
        assert not any((tmp / name).exists() for name in HANDOFF_FILES)

    @pytest.mark.parametrize("case", STALE_HANDOFFS)
    def test_a_handoff_that_does_not_match_is_never_read(self, located, reference, monkeypatch, case):
        tmp, cfg = located
        change, locate_args, evaluate_args = STALE_HANDOFFS[case]
        assert run(cfg, "locate", *locate_args) == 0
        if change is not None:
            change(tmp)
        pops = load_popmap(tmp / "popmap_singletons.json").pops
        expected = reference(tmp, *evaluate_args)
        votes, loads = _counting_votes_and_loads(monkeypatch)
        assert run(cfg, "evaluate", *evaluate_args) == 0
        assert sorted(loads) == ["db_clean.csv", "db_noisy.csv", "db_pinner.csv"]
        assert len(set(votes)) == len(votes) == len(pops) * (3 + 1)
        assert read_tree(tmp) == expected

    def test_one_file_under_two_names_is_handed_over_once(self, located, reference, monkeypatch):
        tmp, cfg = located
        twin = cfg.read_text(encoding="utf-8").replace("[databases]\n", "[databases]\ntwin = point:db_clean.csv\n")
        cfg.write_text(twin, encoding="utf-8")
        assert run(cfg, "locate") == 0
        # one table per distinct file: clean, noisy and pinner
        ips = load_popmap(tmp / "popmap_singletons.json").member_ips()
        assert (tmp / "handoff_answers.bin").stat().st_size == 16 * len(ips) * 3
        expected = reference(tmp)
        votes, loads = _counting_votes_and_loads(monkeypatch)
        assert run(cfg, "evaluate") == 0
        assert (votes, loads) == ([], [])
        assert read_tree(tmp) == expected
        assert not any((tmp / name).exists() for name in HANDOFF_FILES)

    def test_a_failed_evaluate_leaves_the_handoff(self, located, monkeypatch):
        tmp, cfg = located
        assert run(cfg, "locate") == 0
        (tmp / "regions.csv").write_text("everywhere,90,-90,-180,180\n", encoding="utf-8")  # south above north
        regions = ("--set", "paths.regions=regions.csv", "--set", "evaluate.regions=everywhere")
        before = read_tree(tmp)
        assert run(cfg, "evaluate", *regions) == 1
        assert read_tree(tmp) == before
        (tmp / "regions.csv").write_text("everywhere,-90,90,-180,180\n", encoding="utf-8")
        votes, loads = _counting_votes_and_loads(monkeypatch)
        assert run(cfg, "evaluate", *regions) == 0
        assert (votes, loads) == ([], [])


class TestQueryCount:
    def test_one_query_per_database_and_address(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        members = load_popmap(tmp / "popmap_singletons.json").member_ips()
        calls = []
        real = GeoDatabase.resolve

        def counting(self, values):
            calls.append((self.name, list(values)))
            return real(self, values)

        monkeypatch.setattr(GeoDatabase, "resolve", counting)
        assert run(cfg, "evaluate") == 0  # [churn] reads two of the three files again
        # one resolve per file (three files), each over every member of the singleton map
        assert sorted(name for name, _ in calls) == ["clean", "noisy", "pinner"]
        assert all(values == [ip_to_int(ip) for ip in members] for _, values in calls)

    def test_one_load_per_database_file(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        loads = Counter()

        def counting(kind, real):
            def load(lines, name, null_coords=None):
                loads[(kind, Path(lines.name))] += 1
                return real(lines, name, null_coords)

            return load

        for kind in ("point", "range"):
            name = f"load_{kind}_db"
            monkeypatch.setattr(popgeo.cli, name, counting(kind, getattr(popgeo.cli, name)))
        assert run(cfg, "evaluate") == 0  # [churn] names db_clean.csv and db_noisy.csv again
        assert loads == {("point", tmp / f"db_{n}.csv"): 1 for n in ("clean", "noisy", "pinner")}


class TestAgreementCount:
    def test_one_agreement_per_pop_and_database(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        pops = load_popmap(tmp / "popmap_core.json").pops
        calls = []
        real = popgeo.evaluate.pop_agreement

        def counting(pop, db, *args, **kwargs):
            calls.append((pop.id, db.name))
            return real(pop, db, *args, **kwargs)

        monkeypatch.setattr(popgeo.evaluate, "pop_agreement", counting)
        # europe and usa hold none of the synthetic PoPs; world holds them all
        radii = "evaluate.agreement_radii_km=100,500"
        assert run(cfg, "evaluate", "--set", radii, "--set", "evaluate.regions=europe,usa,world") == 0
        assert len(calls) == len(pops) * 3  # three databases
        assert len(set(calls)) == len(calls)
        summary = json.loads((tmp / "summary.json").read_text())
        assert summary["regions"]["world"]["pop_count"] == len(pops)


class TestStreamedObservations:
    @pytest.mark.parametrize("command", ["extract", "sweep"])
    def test_no_object_per_observation_line(self, workdir, monkeypatch, command):
        tmp, cfg = workdir
        run(cfg, "synth")
        built = []
        real = popgeo.ingest.DelayObservation

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(popgeo.ingest, "DelayObservation", counting)
        assert run(cfg, command) == 0
        assert (tmp / ("sweep.csv" if command == "sweep" else "popmap_core.json")).exists()
        assert built == []
        popgeo.ingest.parse_observations(["10.0.0.1,10.0.0.2,1.0"])  # the wrapper does count
        assert len(built) == 1


def _bad_member(text):
    rows = json.loads(text)
    rows[0]["core_members"].append("10.0.0.999")
    return json.dumps(rows)


def _numeric_member(text):
    rows = json.loads(text)
    rows[0]["core_members"].append(167772161)
    return json.dumps(rows)


def _missing_asn(text):
    rows = json.loads(text)
    del rows[0]["asn"]
    return json.dumps(rows)


def _asn_set_to(value):
    def corrupt(text):
        rows = json.loads(text)
        rows[0]["asn"] = value
        return json.dumps(rows)

    return corrupt


def _truncated_json(text):
    return text[: len(text) // 2]


def _duplicate_id(text):
    rows = json.loads(text)
    rows[1]["id"] = rows[0]["id"]
    return json.dumps(rows)


def _id_not_lowest(text):
    rows = json.loads(text)
    rows[0]["id"] = max(rows[0]["core_members"], key=ip_to_int)
    return json.dumps(rows)


def _object_members(text):
    rows = json.loads(text)
    rows[0]["core_members"] = {ip: 0 for ip in rows[0]["core_members"]}
    return json.dumps(rows)


def _repeated_member(text):
    rows = json.loads(text)
    rows[0]["core_members"].append(rows[0]["core_members"][-1])
    return json.dumps(rows)


class TestErrors:
    def test_missing_config(self, tmp_path):
        assert main(["extract", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_missing_inputs(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "extract") == 1  # synth has not produced the files yet

    def test_bad_ip2as_path(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        (tmp / "ip2as.csv").unlink()
        assert run(cfg, "extract") == 1

    def test_evaluate_rejects_missing_configured_ip2as(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "evaluate", "--set", "paths.ip2as=nope.csv") == 1

    def test_inverted_region_box_is_input_error(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        (tmp / "regions.csv").write_text("weird,50,40,0,10\n")
        assert run(cfg, "evaluate", "--set", "paths.regions=regions.csv", "--set", "evaluate.regions=weird") == 1

    @pytest.mark.parametrize(
        "regions_line, settings",
        [
            (None, ["evaluate.regions=atlantis"]),
            ("weird,50,40,0,10", ["paths.regions=regions.csv", "evaluate.regions=weird"]),
            (None, ["churn.gone=point:db_clean.csv,point:db_gone.csv"]),
            (None, ["evaluate.agreement_radii_km=100,abc"]),
            (None, ["evaluate.correlation_include_nulls=maybe"]),
            (None, ["evaluate.anomaly_rounding_deg=0"]),
            (None, ["evaluate.agreement_radii_km=100,-5"]),
            (None, ["evaluate.agreement_radii_km=nan"]),
            (None, ["evaluate.agreement_radii_km=100,100"]),
            (None, ["evaluate.anomaly_share_threshold=nan"]),
            (None, ["evaluate.anomaly_share_threshold=-1"]),
            (None, ["evaluate.anomaly_share_threshold=1.5"]),
            (None, ["evaluate.churn_epsilon_km=nan"]),
            (None, ["evaluate.churn_epsilon_km=-1"]),
            (None, ["extract.pop_max_delay_ms=nan"]),
            (None, ["vote.max_radius_km=inf"]),
            (None, ["databases.a/b=point:db_clean.csv"]),
            (None, ["databases.x,y=point:db_clean.csv"]),
            ("a/b,0,10,0,10", ["paths.regions=regions.csv", "evaluate.regions=a/b"]),
            (None, ["churn.x,y=point:db_clean.csv,point:db_noisy.csv"]),
            (None, ["evaluate.agreement_radii_km=,"]),
        ],
        ids=[
            "unknown_region",
            "inverted_region_box",
            "missing_churn_file",
            "bad_radii",
            "bad_bool",
            "zero_rounding",
            "negative_radius",
            "nan_radius",
            "duplicate_radius",
            "nan_share",
            "negative_share",
            "share_above_one",
            "nan_churn_epsilon",
            "negative_churn_epsilon",
            "nan_pop_delay",
            "infinite_vote_radius",
            "slash_in_database_name",
            "comma_in_database_name",
            "slash_in_region_name",
            "comma_in_churn_label",
            "no_radius",
        ],
    )
    def test_failed_evaluate_writes_nothing(self, workdir, regions_line, settings):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        if regions_line is not None:
            (tmp / "regions.csv").write_text(regions_line + "\n")
        before = read_tree(tmp)
        extra = [arg for item in settings for arg in ("--set", item)]
        assert run(cfg, "evaluate", "--out", str(tmp), *extra) == 1
        assert read_tree(tmp) == before

    @pytest.mark.parametrize(
        "setting",
        [
            "databases.a/b=point:db_clean.csv",
            "databases.x,y=point:db_clean.csv",
            "databases.a b=point:db_clean.csv",
        ],
        ids=["slash_in_database_name", "comma_in_database_name", "space_in_database_name"],
    )
    def test_failed_locate_writes_nothing(self, workdir, setting):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        before = read_tree(tmp)
        assert run(cfg, "locate", "--set", setting) == 1
        assert read_tree(tmp) == before

    @pytest.mark.parametrize(
        "setting",
        [
            "extract.pop_max_delay_ms=nan",
            "extract.pop_max_delay_ms=inf",
            "extract.singleton_max_median_ms=nan",
            "extract.singleton_max_median_ms=inf",
        ],
    )
    def test_failed_extract_writes_nothing(self, workdir, setting):
        tmp, cfg = workdir
        run(cfg, "synth")
        before = read_tree(tmp)
        assert run(cfg, "extract", "--set", setting) == 1
        assert read_tree(tmp) == before

    @pytest.mark.parametrize("setting", ["vote.max_radius_km=inf", "vote.step_km=0"])
    @pytest.mark.parametrize("command", ["extract", "sweep"])
    def test_bad_vote_value_fails_extract_and_sweep(self, workdir, command, setting):
        # the stages that run no vote still check [vote], as every command does
        tmp, cfg = workdir
        run(cfg, "synth")
        before = read_tree(tmp)
        assert run(cfg, command, "--set", setting) == 1
        assert read_tree(tmp) == before

    @pytest.mark.parametrize("grid", ["1,nan,5", "nan", "1,5,inf"])
    def test_failed_sweep_writes_nothing(self, workdir, grid):
        tmp, cfg = workdir
        run(cfg, "synth")
        before = read_tree(tmp)
        assert run(cfg, "sweep", "--grid", grid) == 1
        assert read_tree(tmp) == before

    def test_empty_radii_take_the_default(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "evaluate") == 0
        default = {p.name: p.read_bytes() for p in tmp.glob("agreement_*.csv")}
        assert default
        for p in tmp.glob("agreement_*.csv"):
            p.unlink()
        assert run(cfg, "evaluate", "--set", "evaluate.agreement_radii_km=") == 0
        assert {p.name: p.read_bytes() for p in tmp.glob("agreement_*.csv")} == default

    @pytest.mark.parametrize("command", ["locate", "evaluate"])
    @pytest.mark.parametrize(
        "corrupt",
        [
            _bad_member,
            _numeric_member,
            _missing_asn,
            _truncated_json,
            _duplicate_id,
            _id_not_lowest,
            _asn_set_to(65000.5),
            _asn_set_to(True),
            _asn_set_to("65000"),
            _object_members,
            _repeated_member,
        ],
        ids=[
            "bad_member",
            "numeric_member",
            "missing_asn",
            "truncated_json",
            "duplicate_id",
            "id_not_lowest",
            "fractional_asn",
            "boolean_asn",
            "string_asn",
            "object_members",
            "repeated_member",
        ],
    )
    def test_malformed_popmap_is_input_error(self, workdir, corrupt, command):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        path = tmp / "popmap_singletons.json"
        path.write_text(corrupt(path.read_text()))
        before = read_tree(tmp)
        assert run(cfg, command) == 1
        assert read_tree(tmp) == before

    @pytest.mark.parametrize(
        "seed_line, extra",
        [("seed = 5%", []), ("seed = 11", ["--set", "synth.seed=5%"])],
        ids=["in_file", "in_set"],
    )
    def test_percent_in_value_is_input_error(self, workdir, caplog, seed_line, extra):
        tmp, cfg = workdir
        cfg.write_text(BASE_CONFIG.replace("seed = 11", seed_line), encoding="utf-8")
        assert run(cfg, "synth", *extra) == 1
        assert all(record.exc_info is None for record in caplog.records)  # no traceback

    def test_descending_grid_rejected(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        assert run(cfg, "sweep", "--grid", "9,5,1") == 1

    def test_bad_grid_value_is_input_error(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        assert run(cfg, "sweep", "--grid", "1,x") == 1
        assert not (tmp / "sweep.csv").exists()

    def test_bad_cdf_is_invariant_error_before_writing(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")

        def decreasing(db_name, locations):
            return popgeo.evaluate.CdfSeries(db_name, ((1.0, 0.5), (2.0, 0.25)), 4)

        monkeypatch.setattr(popgeo.evaluate, "convergence_cdf", decreasing)
        assert run(cfg, "evaluate") == 2
        assert not list(tmp.glob("convergence_*.csv"))

    def test_no_databases_is_input_error(self, workdir, tmp_path):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        stripped = tmp_path / "nodb.ini"
        stripped.write_text(
            BASE_CONFIG.replace("[databases]", "[databases_disabled]"), encoding="utf-8"
        )
        # config lives elsewhere, so point paths at the original workdir
        assert main(["locate", "--config", str(stripped), "--out", str(tmp)]) == 1

    def test_unknown_region(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "evaluate", "--set", "evaluate.regions=atlantis") == 1

    def test_empty_observations_is_success_with_warning(self, workdir, caplog):
        tmp, cfg = workdir
        run(cfg, "synth")
        (tmp / "observations.csv").write_text("# empty\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert run(cfg, "extract") == 0
        assert "no observations" in caplog.text
        assert json.loads((tmp / "popmap_core.json").read_text()) == []


    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["extract", "locate", "evaluate", "sweep", "synth"])
    def test_out_naming_a_file_is_input_error(self, workdir, caplog, command, below):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        taken = tmp / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        caplog.clear()
        assert run(cfg, command, "--out", str(taken / below)) == 1
        assert taken.read_text(encoding="utf-8") == "not a directory\n"
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "not a directory" in errors[0].getMessage() and str(taken) in errors[0].getMessage()


class TestConfigSchema:
    @pytest.mark.parametrize(
        "setting, named",
        [("extract.pop_max_delay=0.001", "extract.pop_max_delay"), ("nosuch.key=1", "[nosuch]")],
        ids=["unknown_key", "unknown_section"],
    )
    def test_unknown_name_warns_and_changes_nothing(self, workdir, caplog, setting, named):
        tmp, cfg = workdir
        run(cfg, "synth")
        assert run(cfg, "extract") == 0
        expected = read_tree(tmp)
        caplog.clear()
        assert run(cfg, "extract", "--set", setting) == 0
        assert read_tree(tmp) == expected
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and named in warnings[0]

    @pytest.mark.parametrize(
        "command, setting, named, raw",
        [
            ("extract", "extract.pop_max_delay_ms=abc", "extract.pop_max_delay_ms", "'abc'"),
            ("evaluate", "evaluate.anomaly_min_ips=many", "evaluate.anomaly_min_ips", "'many'"),
            ("sweep", "sweep.grid=1,x", "sweep.grid", "'1,x'"),
            ("synth", "synth_dbs.noisy=noise_km=far", "synth_dbs.noisy.noise_km", "'far'"),
        ],
        ids=["extract", "evaluate", "sweep", "synth_dbs"],
    )
    def test_bad_value_names_its_key(self, workdir, caplog, command, setting, named, raw):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        before = read_tree(tmp)
        caplog.clear()
        assert run(cfg, command, "--set", setting) == 1
        assert read_tree(tmp) == before
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and named in errors[0] and raw in errors[0]

    @pytest.mark.parametrize("setting", ["synth_dbs.a/b=noise_km=0", "synth_dbs.x,y=noise_km=0"], ids=["slash", "comma"])
    def test_bad_synth_db_name_writes_nothing(self, workdir, setting):
        tmp, cfg = workdir
        out = tmp / "out"
        out.mkdir()
        assert run(cfg, "synth", "--out", str(out), "--set", setting) == 1
        assert list(out.iterdir()) == []

    def test_run_ini_carries_the_singleton_threshold(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "synth") == 0
        assert "singleton_max_median_ms" not in (tmp / "run.ini").read_text(encoding="utf-8")
        assert run(cfg, "synth", "--set", "extract.singleton_max_median_ms=0.5") == 0
        assert "singleton_max_median_ms = 0.5\n" in (tmp / "run.ini").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "prefix, extra, said",
        [
            ("[DEFAULT]\nout = elsewhere\n", [], "[DEFAULT]"),
            ("", ["--set", "DEFAULT.x=1"], "[DEFAULT]"),
            ("", ["--set", ".x=1"], "'.x=1'"),
        ],
        ids=["in_file", "set_default", "set_no_section"],
    )
    def test_default_section_is_input_error(self, workdir, caplog, prefix, extra, said):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        cfg.write_text(prefix + BASE_CONFIG, encoding="utf-8")
        before = read_tree(tmp)
        caplog.clear()
        assert run(cfg, "locate", *extra) == 1
        assert read_tree(tmp) == before
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and said in errors[0].getMessage() and errors[0].exc_info is None

    @staticmethod
    def _ini(text):
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(text)
        return cp

    def test_readme_sample_holds_every_key(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        cp = self._ini(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        schema = popgeo.cli.SCHEMA
        assert set(cp.sections()) == set(schema) | {"databases", "churn"}
        for name, keys in schema.items():
            if name != "synth_dbs":
                assert list(cp[name]) == list(keys), name
        items = [part.partition("=")[0].strip() for value in cp["synth_dbs"].values() for part in value.split(",")]
        assert sorted(set(items)) == sorted(schema["synth_dbs"])
        # the quick start's config is the sample's scenario
        demo = self._ini((root / "examples" / "demo.ini").read_text(encoding="utf-8"))
        assert {name: dict(demo[name]) for name in demo.sections()} == {
            name: dict(cp[name]) for name in ("synth", "synth_dbs")
        }


    def test_readme_sample_reads_as_written(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sample = tmp_path / "sample.ini"
        sample.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        cfg = popgeo.cli.build_run_config(popgeo.cli.build_parser().parse_args(["synth", "--config", str(sample)]))
        assert cfg.extraction.pop_max_delay_ms == 5.0
        assert cfg.regions_file == tmp_path / "regions.csv"
        assert cfg.synth is not None


class TestCsvOutputs:
    def test_every_csv_rereads_with_its_header_width(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        before = set(read_tree(tmp))
        # world holds every synthetic PoP, so the regional files have rows
        assert run(cfg, "evaluate", "--set", "evaluate.regions=europe,usa,world") == 0
        assert run(cfg, "sweep") == 0
        written = sorted(name for name in set(read_tree(tmp)) - before if name.endswith(".csv"))
        for name in ("correlation.csv", "anomalies.csv", "churn.csv", "sweep.csv", "range_vs_deviation_noisy__world.csv"):
            assert name in written
        for name in written:
            lines = (tmp / name).read_text(encoding="utf-8").splitlines()
            records = list(read_records(lines, name, list))
            assert len(records) == len(lines), name
            assert all(len(fields) == len(records[0]) for fields in records), name


class TestOverrides:
    def test_step_flag_changes_vote(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "locate", "--step-km", "2.5") == 0
        locs = load_locations(tmp / "locations_clean.json")
        assert all(loc.range_km == 2.5 for loc in locs)

    def test_set_flag_overrides_any_key(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "locate", "--set", "vote.step_km=3.0") == 0
        locs = load_locations(tmp / "locations_clean.json")
        assert all(loc.range_km == 3.0 for loc in locs)

    def test_null_coords_file(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        # null out the exact coordinate the pinner database uses
        (tmp / "nulls.csv").write_text("39.74,-104.98\n", encoding="utf-8")
        assert run(cfg, "evaluate", "--null-coords-file", str(tmp / "nulls.csv")) == 0
        summary = json.loads((tmp / "summary.json").read_text())
        stats = {s["db_name"]: s for s in summary["null_stats"]}
        # roughly half the core addresses belong to the pinned AS
        assert stats["pinner"]["pct_null_ip_core"] > 40.0
        assert summary["anomalies"] == []

    def test_synth_seed_flag(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "synth", "--seed", "99") == 0
        with_99 = (tmp / "observations.csv").read_bytes()
        assert run(cfg, "synth") == 0
        assert (tmp / "observations.csv").read_bytes() != with_99

    def test_synth_writes_the_vote_flags_into_run_ini(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "synth", "--step-km", "2.5", "--max-radius-km", "100") == 0
        written = configparser.ConfigParser()
        written.read(tmp / "run.ini", encoding="utf-8")
        assert dict(written["vote"]) == {"step_km": "2.5", "max_radius_km": "100.0", "majority_fraction": "0.5"}

    # each command accepts only the flags it reads
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in ("extract", "sweep", "synth") for f in ("--with-singletons", "--null-coords-file=nulls.csv")]
        + [(c, f) for c in ("extract", "sweep") for f in ("--step-km=2", "--max-radius-km=100")],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, workdir, capsys, command, flag):
        tmp, cfg = workdir
        assert run(cfg, "synth") == 0
        before = read_tree(tmp)
        with pytest.raises(SystemExit) as exc:
            run(cfg, command, flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert read_tree(tmp) == before

    def test_correlation_null_sentinel_switch(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        assert run(cfg, "evaluate") == 0
        plain = json.loads((tmp / "summary.json").read_text())["correlation"]
        assert run(cfg, "evaluate", "--set", "evaluate.correlation_include_nulls=true") == 0
        with_nulls = json.loads((tmp / "summary.json").read_text())["correlation"]
        assert not plain["include_nulls"] and with_nulls["include_nulls"]
        # the noisy database has nulls, so counting them as (0,0) drags its
        # correlation with the complete clean database down
        i, j = plain["db_names"].index("clean"), plain["db_names"].index("noisy")
        assert with_nulls["values"][i][j] < plain["values"][i][j]


TWO_POP_CONFIG = """
[paths]
observations = observations.csv
ip2as = ip2as.csv
out = .

[databases]
blank = point:db_blank.csv
full = point:db_full.csv
full_copy = point:db_full.csv
"""


class TestSmallFixtures:
    @pytest.fixture
    def two_pop_dir(self, tmp_path):
        """Two dense 1 ms bipartite clusters joined only by a 30 ms edge."""
        lines = []
        for base in ("10.0.0", "10.0.1"):
            for p in (1, 2):
                for c in (3, 4):
                    lines += [f"{base}.{p},{base}.{c},1.0"] * 5
        lines += ["10.0.0.3,10.0.1.1,30.0"] * 5
        (tmp_path / "observations.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "ip2as.csv").write_text("10.0.0.0/16,1\n")
        (tmp_path / "db_blank.csv").write_text("# no entries\n")
        member_rows = [
            f"{base}.{h},{40 + i},{-100 + i}"
            for i, base in enumerate(("10.0.0", "10.0.1"))
            for h in (1, 2, 3, 4)
        ]
        (tmp_path / "db_full.csv").write_text("\n".join(member_rows) + "\n")
        cfg = tmp_path / "config.ini"
        cfg.write_text(TWO_POP_CONFIG, encoding="utf-8")
        return tmp_path, cfg

    def test_extract_finds_two_pops(self, two_pop_dir):
        tmp, cfg = two_pop_dir
        assert run(cfg, "extract") == 0
        rows = json.loads((tmp / "popmap_core.json").read_text())
        assert len(rows) == 2
        assert rows[0]["core_members"] == ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]

    def test_all_null_db_emits_null_rows(self, two_pop_dir):
        tmp, cfg = two_pop_dir
        run(cfg, "extract")
        assert run(cfg, "locate") == 0
        rows = json.loads((tmp / "locations_blank.json").read_text())
        assert len(rows) == 2
        assert all(r["lat"] is None and not r["converged"] for r in rows)

    def test_identical_dbs_correlate_perfectly(self, two_pop_dir):
        tmp, cfg = two_pop_dir
        run(cfg, "extract")
        assert run(cfg, "evaluate") == 0
        rows = (tmp / "correlation.csv").read_text().splitlines()
        assert rows[0] == "db,blank,full,full_copy"
        full_row = rows[2].split(",")
        assert float(full_row[3]) == 1.0  # full vs full_copy, same file
        assert full_row[1] == ""  # against the all-null db: undefined

    def test_custom_region_file(self, two_pop_dir):
        tmp, cfg = two_pop_dir
        (tmp / "regions.csv").write_text("plains,35,55,-110,-90\n")
        run(cfg, "extract")
        assert (
            run(
                cfg,
                "evaluate",
                "--set", "paths.regions=regions.csv",
                "--set", "evaluate.regions=plains",
            )
            == 0
        )
        assert (tmp / "convergence_full__plains.csv").exists()
        summary = json.loads((tmp / "summary.json").read_text())
        assert summary["regions"]["plains"]["pop_count"] == 2


class TestStdlibOnly:
    def test_cli_imports_only_the_standard_library(self):
        # -S skips site, whose .pth hooks may import third-party modules before popgeo runs
        probe = (
            "import sys, popgeo.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules}"
            " - set(sys.stdlib_module_names) - {'popgeo', '__main__'}))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_every_module_imports_only_the_standard_library(self):
        # each command imports only what it runs, so import every module by name
        probe = (
            "import importlib, json, pkgutil, sys, popgeo; "
            "names = [m.name for m in pkgutil.iter_modules(popgeo.__path__, 'popgeo.')]; "
            "[importlib.import_module(name) for name in names]; "
            "print(json.dumps([names, sorted({m.partition('.')[0] for m in sys.modules}"
            " - set(sys.stdlib_module_names) - {'popgeo', '__main__'})]))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        names, third_party = json.loads(done.stdout)
        assert sorted(names) == sorted(f"popgeo.{p.stem}" for p in (src / "popgeo").glob("*.py") if p.stem != "__init__")
        assert third_party == []


class TestLazyImports:
    def test_each_command_loads_only_what_it_runs(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")  # run.ini, unlike the fixture's config, holds no [synth]
        run(cfg, "extract")
        probe = (
            "import json, sys, popgeo; package = sorted(sys.modules); "
            "from popgeo.cli import main; status = main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(json.dumps([status, package, sorted(sys.modules)]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def loaded(*argv):
            done = subprocess.run(
                [sys.executable, "-c", probe, *argv], cwd=tmp, env=env, capture_output=True, text=True, check=True
            )
            status, package, modules = json.loads(done.stdout)
            assert status == 0
            assert [m for m in package if m.startswith("popgeo.")] == []  # import popgeo loads no submodule
            return modules

        config = ["--config", str(tmp / "run.ini")]
        for argv in (["extract", *config], ["sweep", *config, "--grid", "1,3"]):
            modules = loaded(*argv)
            assert "popgeo.extract" in modules
            assert "popgeo.evaluate" not in modules and "popgeo.synth" not in modules
        assert "popgeo.evaluate" not in loaded("locate", *config)


class TestStageImportSets:
    """No stage loads a popgeo module that it did not load before evaluate folded its reports."""

    SHARED = {"cli", "extract", "ingest", "iputil", "geo", "geodb", "locate"}

    def test_no_stage_loads_a_new_module(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        probe = (
            "import json, sys; from popgeo.cli import main; status = main(sys.argv[1:]); "
            "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('popgeo.'))]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        config = ["--config", str(tmp / "run.ini")]
        expected = {
            ("extract",): self.SHARED,
            ("sweep", "--grid", "1,3"): self.SHARED,
            ("evaluate",): self.SHARED | {"evaluate"},
        }
        for (command, *extra), allowed in expected.items():
            done = subprocess.run(
                [sys.executable, "-c", probe, command, *config, *extra],
                cwd=tmp, env=env, capture_output=True, text=True, check=True,
            )
            status, modules = json.loads(done.stdout.splitlines()[-1])
            assert status == 0
            assert set(modules) <= {f"popgeo.{name}" for name in allowed}, command


class TestStageModuleSets:
    """The modules each stage loads beyond those a bare interpreter already holds."""

    RUNS_NO_DATABASE = {"popgeo", "popgeo.cli", "popgeo.extract", "popgeo.ingest", "popgeo.iputil"}

    def test_each_stage_loads_only_what_it_runs(self, workdir):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        first, *rest = (tmp / "observations.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert '"' not in first + "".join(rest)
        src, dst, delay = first.strip().split(",")
        (tmp / "quoted.csv").write_text(f'"{src}",{dst},"{delay}"\n' + "".join(rest), encoding="utf-8")
        # each probe lists sys.modules before it imports json to print them
        probe = (
            "import sys; from popgeo.cli import main; status = main(sys.argv[1:]); modules = sorted(sys.modules); "
            "import json; print(json.dumps([status, modules]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def loaded(*argv):
            done = subprocess.run(
                [sys.executable, "-c", probe, *argv], cwd=tmp, env=env, capture_output=True, text=True, check=True
            )
            status, modules = json.loads(done.stdout.splitlines()[-1])
            assert status == 0, argv
            return set(modules) - bare

        # site hooks differ between machines, so count only what a stage adds to a bare interpreter
        bare_probe = "import sys; modules = sorted(sys.modules); import json; print(json.dumps(modules))"
        done = subprocess.run([sys.executable, "-c", bare_probe], env=env, capture_output=True, text=True, check=True)
        bare = set(json.loads(done.stdout))
        config = ["--config", str(tmp / "run.ini")]
        for argv in (["extract", *config], ["sweep", *config, "--grid", "1,3"]):
            modules = loaded(*argv)
            assert {m for m in modules if m.startswith("popgeo")} == self.RUNS_NO_DATABASE, argv[0]
            assert not modules & {"statistics", "csv"}, argv[0]
            # only locate and evaluate fingerprint their inputs
            assert not modules & {"hashlib", "_hashlib", "_sha2", "_sha256"}, argv[0]
        assert "json" not in modules  # sweep writes no map
        assert "statistics" not in loaded("locate", *config)
        assert not loaded("evaluate", *config) & {"statistics", "fractions", "decimal"}
        # a quoted line is read by _csv, the C reader under csv, and reads as before
        assert "csv" not in loaded("extract", *config, "--set", "paths.observations=quoted.csv", "--out", "quoted")
        assert (tmp / "quoted" / "popmap_singletons.json").read_bytes() == (tmp / "popmap_singletons.json").read_bytes()

    def test_no_stage_imports_ipaddress(self, workdir):
        # -S skips site hooks, which on some machines import ipaddress before any stage runs. The
        # probe records every module whose import statement names ipaddress, whether or not it is
        # loaded already: on CPython 3.11 pathlib loads urllib.parse, which imports it, so
        # sys.modules alone would not show a popgeo import of it
        tmp, cfg = workdir
        probe = (
            "import builtins, sys; importers = set(); real = builtins.__import__\n"
            "def spy(name, globals=None, *args, **kwargs):\n"
            "    if name == 'ipaddress':\n"
            "        importers.add((globals or {}).get('__name__'))\n"
            "    return real(name, globals, *args, **kwargs)\n"
            "builtins.__import__ = spy\n"
            "from popgeo.cli import main; status = main(sys.argv[1:])\n"
            "print(status, 'ipaddress' in sys.modules, sorted(importers))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        config = ["--config", str(cfg)]
        for argv in (["synth", *config], ["extract", *config], ["locate", *config], ["evaluate", *config],
                     ["sweep", *config, "--grid", "1,3"]):
            done = subprocess.run(
                [sys.executable, "-S", "-c", probe, *argv], cwd=tmp, env=env, capture_output=True, text=True, check=True
            )
            status, loaded, importers = done.stdout.split(" ", 2)
            assert status == "0", argv[0]
            assert importers.strip() in ("[]", "['urllib.parse']"), argv[0]
            assert loaded == str(importers.strip() != "[]"), argv[0]


class TestCollectorPolicy:
    """main changes the cyclic collector only while a command runs, and registers one exit hook."""

    @staticmethod
    def _collector():
        return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_leaves_the_collector_as_it_found_it(self, workdir, monkeypatch, enabled):
        tmp, cfg = workdir
        before = self._collector()
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(500, 7, 9)  # not the interpreter's defaults, so a threshold left behind shows
        try:
            state = self._collector()
            statuses = [run(cfg, "synth"), run(cfg, "extract"), run(cfg, "sweep"), run(cfg, "evaluate")]
            statuses.append(run(cfg, "sweep", "--grid", "3,1"))
            monkeypatch.setattr(popgeo.evaluate, "convergence_cdf", lambda *a: 1 / 0)
            statuses.append(run(cfg, "evaluate"))
            with pytest.raises(SystemExit):  # argparse's exit on an unknown command
                main(["nonsense"])
            assert statuses == [0, 0, 0, 0, 1, 2]
            assert self._collector() == state
        finally:
            gc.set_threshold(*before[1])
            (gc.enable if before[0] else gc.disable)()
        assert self._collector() == before

    def test_exit_hook_runs_once_and_before_shutdown(self, workdir):
        tmp, cfg = workdir
        assert run(cfg, "synth") == 0
        # the probe counts the calls of gc.freeze; atexit runs its functions
        # last-registered first, so the probe's report runs after main's hook
        probe = (
            "import atexit, gc, sys; calls = []; freeze = gc.freeze; "
            "gc.freeze = lambda: calls.append(1) or freeze(); "
            "atexit.register(lambda: print('at exit', len(calls), gc.get_freeze_count() > 0)); "
            "from popgeo.cli import main; statuses = [main(sys.argv[1:]) for _ in range(3)]; "
            "print(statuses, len(calls), gc.get_freeze_count())"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe, "extract", "--config", str(tmp / "run.ini")],
            cwd=tmp, env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines() == ["[0, 0, 0] 0 0", "at exit 1 True"]

    def test_no_command_leaves_a_file_open(self, workdir, monkeypatch):
        # the shutdown collections no longer reach what a command leaves behind,
        # so every file it opens must be closed before it returns
        tmp, cfg = workdir
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            statuses = [run(cfg, command) for command in ("synth", "extract", "locate", "evaluate", "sweep")]
            gc.collect()
        assert statuses == [0] * 5
        assert [str(u.exc_value) for u in unraisable] == []


# a copy of each input format with a UTF-8 byte order mark reads as the plain file
BOM = "\ufeff"
BOM_FILES = [
    "config.ini",
    "observations.csv",
    "ip2as.csv",
    "db_clean.csv",
    "range_noisy.csv",
    "null_coords.csv",
    "regions.csv",
    "out/popmap_singletons.json",
]


def _bom_inputs(tmp: Path) -> None:
    """synth's files, a range copy of db_noisy, null coords, a regions file and a config reading all of them."""
    cfg = tmp / "config.ini"
    cfg.write_text(BASE_CONFIG, encoding="utf-8")
    assert run(cfg, "synth") == 0
    points = (tmp / "db_noisy.csv").read_text(encoding="utf-8").splitlines()
    ranges = [f"{ip},{ip},,,{lat},{lon}" for ip, lat, lon in (line.split(",") for line in points)]
    (tmp / "range_noisy.csv").write_text("\n".join(ranges) + "\n", encoding="utf-8")
    (tmp / "null_coords.csv").write_text("39.74,-104.98\n", encoding="utf-8")  # pinner's headquarters
    (tmp / "regions.csv").write_text("everywhere,-90,90,-180,180\n", encoding="utf-8")
    config = BASE_CONFIG.replace("[databases]\n", "[databases]\nranged = range:range_noisy.csv\n")
    config = config.replace("out = .\n", "out = out\nnull_coords = null_coords.csv\nregions = regions.csv\n")
    cfg.write_text(config.replace("regions = europe,usa", "regions = europe,usa,everywhere"), encoding="utf-8")


def _run_stages(tmp: Path, bom_file: str = "") -> tuple[dict[str, bytes], list[str]]:
    """Every stage on tmp/config.ini, with bom_file BOM-prefixed before the first stage reads it.

    Returns the outputs but bom_file, and the messages of every warning logged.
    """

    def prefix(name: str) -> None:
        if name == bom_file:
            path = tmp / name
            path.write_text(BOM + path.read_text(encoding="utf-8"), encoding="utf-8")

    with WarningLog("popgeo") as warnings:
        for name in BOM_FILES[:-1]:
            prefix(name)
        cfg = tmp / "config.ini"
        assert run(cfg, "extract") == 0
        prefix(BOM_FILES[-1])
        for command in ("locate", "evaluate", "sweep"):
            assert run(cfg, command) == 0
    outputs = {name: data for name, data in read_tree(tmp / "out").items() if f"out/{name}" != bom_file}
    return outputs, warnings.messages


@pytest.fixture(scope="module")
def bom_plain(tmp_path_factory):
    """The inputs of the BOM tests and the outputs of every stage on them, without a BOM."""
    inputs = tmp_path_factory.mktemp("bom_inputs")
    _bom_inputs(inputs)
    plain = tmp_path_factory.mktemp("bom_plain")
    shutil.copytree(inputs, plain, dirs_exist_ok=True)
    return inputs, _run_stages(plain)


class TestByteOrderMark:
    @pytest.mark.parametrize("name", BOM_FILES)
    def test_bom_prefixed_input_gives_the_same_outputs(self, bom_plain, tmp_path, name):
        inputs, (plain, plain_warnings) = bom_plain
        tmp = tmp_path / "bom"
        shutil.copytree(inputs, tmp)
        outputs, warnings = _run_stages(tmp, name)
        assert warnings == plain_warnings
        assert outputs == {n: data for n, data in plain.items() if f"out/{n}" != name}


# the first stage to read each input of _bom_inputs
FIRST_READER = {
    "config.ini": "extract",
    "observations.csv": "extract",
    "ip2as.csv": "extract",
    "db_clean.csv": "locate",
    "range_noisy.csv": "locate",
    "null_coords.csv": "locate",
    "regions.csv": "evaluate",
    "out/popmap_singletons.json": "locate",
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("name", BOM_FILES)
    def test_latin1_byte_is_one_input_error_and_no_output(self, bom_plain, tmp_path, caplog, name):
        inputs, _ = bom_plain
        tmp = tmp_path / "latin1"
        shutil.copytree(inputs, tmp)
        cfg = tmp / "config.ini"
        stages = ["extract", "locate", "evaluate"]
        failing = FIRST_READER[name]
        for command in stages[: stages.index(failing)]:
            assert run(cfg, command) == 0
        path = tmp / name
        path.write_bytes(path.read_bytes() + "# Z\xfcrich\n".encode("latin-1"))
        before = read_tree(tmp)
        caplog.clear()
        assert run(cfg, failing) == 1
        assert read_tree(tmp) == before
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None  # one line, no traceback
        assert str(path) in errors[0].getMessage()
