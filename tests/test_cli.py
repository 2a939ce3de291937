import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import popgeo.cli
import popgeo.evaluate
import popgeo.locate
from popgeo.cli import main
from popgeo.geodb import GeoDatabase
from popgeo.extract import load_popmap
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


class TestVoteCount:
    def test_one_vote_per_pop_and_database_set(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        pops = load_popmap(tmp / "popmap_core.json").pops
        calls = []
        real = popgeo.locate.locate_pop

        def counting(pop, dbs, *args, **kwargs):
            calls.append((pop.id, tuple(db.name for db in dbs)))
            return real(pop, dbs, *args, **kwargs)

        monkeypatch.setattr(popgeo.locate, "locate_pop", counting)
        expected = len(pops) * (3 + 1)  # three databases plus the cross vote
        assert run(cfg, "locate") == 0
        assert len(calls) == expected
        calls.clear()
        assert run(cfg, "evaluate") == 0  # regions europe,usa are configured
        assert len(calls) == expected
        assert len(set(calls)) == expected


class TestQueryCount:
    def test_one_query_per_database_and_address(self, workdir, monkeypatch):
        tmp, cfg = workdir
        run(cfg, "synth")
        run(cfg, "extract")
        members = load_popmap(tmp / "popmap_singletons.json").member_ips()
        calls = Counter()
        real = GeoDatabase.query

        def counting(self, ip):
            calls[(self, ip)] += 1
            return real(self, ip)

        monkeypatch.setattr(GeoDatabase, "query", counting)
        assert run(cfg, "evaluate") == 0  # [churn] reads two of the three files again
        assert max(calls.values()) == 1
        assert len(calls) == 3 * len(members)  # three files, singleton map

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


def _truncated_json(text):
    return text[: len(text) // 2]


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
        [_bad_member, _numeric_member, _missing_asn, _truncated_json],
        ids=["bad_member", "numeric_member", "missing_asn", "truncated_json"],
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
