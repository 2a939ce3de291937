"""popgeo benchmark: the real subcommands on seeded inputs, checked against truth.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 55 --trace 0

Run from the repository root. The program is imported from `src/`; nothing
is installed. One run:

1. Sets up the workload's inputs several times from `--seed` (`popgeo synth`
   plus this benchmark's own generator and format conversions) and reports
   the median as `setup_s`. Every set-up must produce identical files.
2. Repeats the pipeline `extract -> locate -> evaluate -> sweep` until
   `--seconds` have passed (at least three times). Every stage is a fresh
   interpreter started the way the `popgeo` console script starts, and
   every stage's outputs are checked against the workload's truth. The
   output bundle must be byte-identical across repetitions.
3. With `--trace 0` prints the end-to-end metrics (medians over the
   repetitions). With `--trace 1` it alternates untraced repetitions with
   traced ones (`perfbench/tracer.py`) and prints the per-layer metrics.

The load is a closed loop with one client: one stage at a time, each waiting
for the previous one. Only the `survey` workload passes `--threads 2`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation is one subcommand invocation; it fails when it exits non-zero
or its outputs fail a check. Traced spans and per-component scaling rows
are kept under `.perfbench_work/trace/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

STAGES = ("extract", "locate", "evaluate", "sweep")
PIPELINE = ("extract", "locate", "evaluate")
THREADED = ("locate", "evaluate")
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.5
RUN_LIMIT_S = 120.0  # start no repetition after this, whatever --seconds says
DEADLINE_S = 170.0  # children still running this long after the start are killed
CLOSURE_TOLERANCE = 0.05  # share of the stage's CPU time
CLOSURE_FLOOR_S = 0.005  # allowance for very short stages
ENTRY = "import sys; from popgeo.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "extract_s": "s",
    "locate_s": "s",
    "evaluate_s": "s",
    "sweep_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("cli", "ingest", "iputil", "extract", "geo", "geodb", "locate", "evaluate", "synth")

# per-layer metric -> (unit, how it is read from one traced pass)
#   ("self", module)          busy self time of the module, summed over stages
#   ("incl", function, ...)   inclusive busy time of the functions
#   ("count", function)       number of calls
#   ("fact", key)             count taken by a tracer hook
#   ("stage_self", stage)     cli self time within one stage
#   ("stage_count", stage, f) calls of f within one stage
#   ("stage_fact", stage, k)  hook count within one stage
PER_LAYER = {
    **{f"{m}.self_s": ("s", ("self", m)) for m in MODULES},
    "cli.import_s": ("s", ("import",)),
    "cli.extract_self_s": ("s", ("stage_self", "extract")),
    "cli.evaluate_self_s": ("s", ("stage_self", "evaluate")),
    "ingest.parse_s": ("s", ("incl", "ingest.parse_observations")),
    "ingest.obs_parsed": ("count", ("fact", "obs_parsed")),
    "ingest.aggregate_s": ("s", ("incl", "ingest.aggregate_edges")),
    "ingest.edges": ("count", ("fact", "edges")),
    "ingest.annotate_s": ("s", ("incl", "ingest.annotate_as")),
    "ingest.annotate_calls": ("count", ("count", "ingest.annotate_as")),
    "ingest.prefix_lookups": ("count", ("count", "ingest.PrefixMap.lookup")),
    "iputil.ip_to_int_calls": ("count", ("count", "iputil.ip_to_int")),
    "iputil.ip_to_int_s": ("s", ("incl", "iputil.ip_to_int")),
    "iputil.sort_ips_s": ("s", ("incl", "iputil.sort_ips")),
    "extract.filter_s": ("s", ("incl", "extract.filter_graph")),
    "extract.components": ("count", ("fact", "components")),
    "extract.max_component_ips": ("count", ("fact", "max_component_ips")),
    "extract.partition_s": ("s", ("incl", "extract.partition_collocations")),
    "extract.unify_s": ("s", ("incl", "extract.unify_pops")),
    "extract.group_distance_calls": ("count", ("count", "extract.weighted_group_distance")),
    "extract.singletons_s": ("s", ("incl", "extract.attach_singletons")),
    "extract.pops": ("count", ("stage_fact", "extract", "pops")),
    "extract.sweep_extract_calls": ("count", ("stage_count", "sweep", "extract.extract_pops")),
    "geo.haversine_calls": ("count", ("count", "geo.haversine_km")),
    "geo.haversine_s": ("s", ("incl", "geo.haversine_km")),
    "geo.median_calls": ("count", ("count", "geo.coordinate_median")),
    "geodb.load_s": ("s", ("incl", "geodb.load_point_db", "geodb.load_range_db")),
    "geodb.records_loaded": ("count", ("fact", "records_loaded")),
    "geodb.queries": ("count", ("count", "geodb.GeoDatabase.query")),
    "geodb.query_s": ("s", ("incl", "geodb.GeoDatabase.query")),
    "geodb.useful_query_ratio": ("ratio", ("ratio", "distinct_queries", "geodb.GeoDatabase.query")),
    "locate.votes": ("count", ("count", "locate.locate_elements")),
    "locate.vote_s": ("s", ("incl", "locate.locate_elements")),
    "locate.collect_s": ("s", ("incl", "locate.collect_elements")),
    "locate.distinct_vote_ratio": ("ratio", ("ratio", "distinct_votes", "locate.locate_elements")),
    "locate.fallback_votes": ("count", ("fact", "fallback_votes")),
    "locate.vote_ms_p50": ("ms", ("vote_pct", 50)),
    "locate.vote_ms_p99": ("ms", ("vote_pct", 99)),
    "evaluate.null_stats_s": ("s", ("incl", "evaluate.null_stats")),
    "evaluate.convergence_s": ("s", ("incl", "evaluate.convergence_cdf")),
    "evaluate.agreement_s": ("s", ("incl", "evaluate.agreement_cdf")),
    "evaluate.deviation_s": ("s", ("incl", "evaluate.deviation_samples")),
    "evaluate.correlation_s": ("s", ("incl", "evaluate.correlation_matrix")),
    "evaluate.anomalies_s": ("s", ("incl", "evaluate.detect_default_location")),
    "evaluate.churn_s": ("s", ("incl", "evaluate.churn")),
    "evaluate.region_filter_s": ("s", ("incl", "evaluate.filter_by_region")),
    "synth.generate_s": ("s", ("incl", "synth.generate_scenario")),
    "synth.write_s": ("s", ("incl", "synth.write_scenario")),
    "trace.overhead_ratio": ("ratio", ("overhead",)),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(cmd: list[str], log_path: Path, timeout: float) -> tuple[int, float, int]:
    """Run one child to completion: (exit status, wall seconds, peak RSS in KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with log_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Bench:
    """One benchmark run: the operation tally and the stage runner."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.synth_digests: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        log(f"FAIL {self.workload} seed {self.seed}: {what}: {detail}")

    def invoke(self, argv: list[str], tag: str, trace_dir: Path | None = None) -> tuple[bool, float, int, dict | None]:
        """Run one popgeo subcommand; with trace_dir, under the tracer."""
        self.attempted += 1
        log_path = self.work / f"{tag}.log"
        if trace_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(TRACER), str(trace_dir / f"{tag}.json"), str(trace_dir / f"spans-{tag}"), "--", *argv]
        status, wall, rss_kib = run_child(cmd, log_path, max(1.0, self.deadline - time.perf_counter()))
        if status != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.fail(f"{tag} exited {status}", tail)
            return False, wall, rss_kib, None
        summary = None
        if trace_dir is not None:
            summary = json.loads((trace_dir / f"{tag}.json").read_text(encoding="utf-8"))
            wall -= summary["post_s"]
        return True, wall, rss_kib, summary

    def run_synth(self, argv: list[str]) -> None:
        """`popgeo synth` as the workloads call it during set-up."""
        ok, _, _, _ = self.invoke(argv, "synth")
        if not ok:
            raise CheckFailed("popgeo synth failed")
        self.synth_digests.append(digest(Path(argv[argv.index("--out") + 1])))

    def setup(self, reps: int, min_s: float):
        """Generate the inputs `reps` times (or for min_s); keep the first set."""
        times, digests, oracle = [], set(), None
        t_begin = time.perf_counter()
        k = 0
        while k < reps or (time.perf_counter() - t_begin < min_s and k < 50):
            in_dir = fresh_dir(self.work / f"setup{k}")
            t0 = time.perf_counter()
            made = WORKLOADS[self.workload](self.seed, in_dir, self.run_synth)
            times.append(time.perf_counter() - t0)
            digests.add(digest(in_dir))
            if oracle is None:
                oracle = made
            else:
                shutil.rmtree(in_dir)
            k += 1
        if len(digests) != 1 or len(set(self.synth_digests)) > 1:
            self.fail("setup", "the same seed produced different input files")
        return oracle, times

    def pipeline(self, oracle, out: Path, trace_dir: Path | None = None):
        """One repetition of every stage; None once a stage fails."""
        fresh_dir(out)
        walls, rss, summaries = {}, [], {}
        for stage in STAGES:
            argv = [stage, "--config", str(oracle.config), "--out", str(out)]
            if oracle.threads > 1 and stage in THREADED:
                argv += ["--threads", str(oracle.threads)]
            ok, wall, rss_kib, summary = self.invoke(argv, stage, trace_dir)
            if not ok:
                return None
            try:
                oracle.check(stage, out)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.fail(f"{stage} output check", str(exc))
                return None
            walls[stage] = wall
            rss.append(rss_kib)
            if summary is not None:
                summaries[stage] = summary
        return walls, max(rss) / 1024.0, digest(out), summaries

    def traced_synth_pass(self, oracle, trace_dir: Path) -> dict | None:
        """Re-run the workload's `popgeo synth` under the tracer; its files must not change."""
        synth_ini = oracle.config.parent / "synth.ini"
        if not synth_ini.exists():
            return {}
        out = fresh_dir(self.work / "traced-synth")
        shutil.copy(synth_ini, out / "synth.ini")
        ok, _, _, summary = self.invoke(["synth", "--config", str(out / "synth.ini"), "--out", str(out)], "synth", trace_dir)
        if not ok:
            return None
        if digest(out) != self.synth_digests[0]:
            self.fail("traced synth", "traced popgeo synth wrote different files")
            return None
        return {"synth": summary}


def layer_metrics(passes: list[dict], overhead: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics from traced passes: times as medians, counts from the first pass."""
    per_pass = []
    for stages in passes:
        values = {}
        for name, (unit, rule) in PER_LAYER.items():
            values[name] = _layer_value(rule, stages, overhead)
        per_pass.append(values)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        column = [p[name] for p in per_pass]
        out[name] = {"value": median(column) if unit in ("s", "ms") or name == "trace.overhead_ratio" else column[0], "unit": unit}
    return out, per_pass


def _layer_value(rule, stages: dict, overhead: float):
    kind = rule[0]
    summaries = list(stages.values())
    if kind == "self":
        return sum(s["module_self_s"].get(rule[1], 0.0) for s in summaries)
    if kind == "import":
        return sum(s["import_s"] for s in summaries)
    if kind == "incl":
        return sum(s["incl_s"].get(f, 0.0) for s in summaries for f in rule[1:])
    if kind == "count":
        return sum(s["count"].get(rule[1], 0) for s in summaries)
    if kind == "fact":
        values = [s["facts"].get(rule[1], 0) for s in summaries]
        return max(values) if rule[1].startswith("max_") else sum(values)
    if kind == "stage_self":
        return stages[rule[1]]["module_self_s"].get("cli", 0.0)
    if kind == "stage_count":
        return stages[rule[1]]["count"].get(rule[2], 0)
    if kind == "stage_fact":
        return stages[rule[1]]["facts"].get(rule[2], 0)
    if kind == "ratio":
        made = sum(s["count"].get(rule[2], 0) for s in summaries)
        return sum(s["facts"].get(rule[1], 0) for s in summaries) / made if made else 0.0
    if kind == "vote_pct":
        votes = sorted(v for s in summaries for v in s["vote_ms"])
        if not votes:
            return 0.0
        return votes[min(len(votes) - 1, int(len(votes) * rule[1] / 100))]
    if kind == "overhead":
        return overhead
    raise ValueError(f"unknown rule {rule}")


def check_closure(bench: Bench, stages: dict) -> None:
    """Module self times must add up to the CPU time each traced stage spent.

    The stage's wall time is not the reference: a host that deschedules the
    machine's virtual CPUs stretches wall time without any process running,
    by 10-36 % in some traced stages, which would fail a correct trace. The
    busy share of wall time is logged instead.
    """
    for stage, summary in stages.items():
        gap = abs(summary["busy_s"] - summary["process_cpu_s"])
        if not gap <= CLOSURE_TOLERANCE * summary["process_cpu_s"] + CLOSURE_FLOOR_S:
            bench.fail(
                f"{stage} self-time closure",
                f"module self times sum to {summary['busy_s']:.4f} s of {summary['process_cpu_s']:.4f} s CPU ({summary['closure']:.3f})",
            )


def keep_trace(trace_dir: Path, workload: str, rows: list[dict]) -> Path:
    """Move the last traced pass out of the run's scratch space, with its scaling rows."""
    kept = WORK / "trace" / workload
    shutil.rmtree(kept, ignore_errors=True)
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(str(trace_dir), str(kept))
    lines = ["interfaces,groups,group_distance_calls,partition_s,unify_s"]
    lines += [f"{r['interfaces']},{r['groups']},{r['group_distance_calls']},{r['partition_s']:.6f},{r['unify_s']:.6f}" for r in rows]
    (kept / "scaling.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return kept


def run(args) -> dict:
    work = fresh_dir(WORK / f"run-{os.getpid()}")
    bench = Bench(args.workload, args.seed, work)
    t_start = time.perf_counter()
    try:
        oracle, setup_times = bench.setup(1 if args.trace else SETUP_MIN_REPS, 0.0 if args.trace else SETUP_MIN_S)
    except CheckFailed as exc:
        bench.fail("setup", str(exc))
        oracle, setup_times = None, []

    reps, traced, digests, untraced_pipeline, traced_pipeline = [], [], set(), [], []
    t_measure = time.perf_counter()
    last_round = 0.0
    while oracle is not None and not bench.failed:
        t_round = time.perf_counter()
        elapsed = t_round - t_measure
        enough = len(traced) >= MIN_TRACED_REPS if args.trace else len(reps) >= MIN_REPS
        # stop once another round would overshoot --seconds by more than stopping now falls short
        if (enough and elapsed + last_round / 2 >= args.seconds) or (reps and t_round - t_start >= RUN_LIMIT_S):
            break
        result = bench.pipeline(oracle, work / "out")
        if result is None:
            break
        reps.append(result)
        digests.add(result[2])
        log(f"rep {len(reps)}: " + " ".join(f"{s} {result[0][s]:.4f}" for s in STAGES) + f" peak_rss_mb {result[1]:.1f}")
        untraced_pipeline.append(sum(result[0][s] for s in PIPELINE))
        if args.trace:
            trace_dir = fresh_dir(work / f"trace{len(traced)}")
            stages = bench.traced_synth_pass(oracle, trace_dir)
            result = bench.pipeline(oracle, work / "out", trace_dir) if stages is not None else None
            if result is None:
                break
            digests.add(result[2])
            stages.update(result[3])
            check_closure(bench, stages)
            traced.append((trace_dir, stages))
            traced_pipeline.append(sum(result[0][s] for s in PIPELINE))
            if len(traced) > 1:
                shutil.rmtree(traced[-2][0], ignore_errors=True)
        last_round = time.perf_counter() - t_round

    if len(digests) > 1:
        bench.fail("determinism", f"{len(digests)} different output bundles across repetitions")
    if digests:
        log(f"bundle digest {args.workload} seed {args.seed}: {sorted(digests)[0]}")

    metrics = {}
    if args.trace and traced:
        overhead = median(traced_pipeline) / median(untraced_pipeline)
        metrics, per_pass = layer_metrics([stages for _, stages in traced], overhead)
        for name, (unit, _) in PER_LAYER.items():
            if unit in ("count", "ratio") and name != "trace.overhead_ratio" and len({p[name] for p in per_pass}) != 1:
                bench.fail("count repeat", f"{name} differs between traced passes: {[p[name] for p in per_pass]}")
        kept = keep_trace(traced[-1][0], args.workload, traced[-1][1].get("extract", {}).get("scaling", []))
        for stage, summary in traced[-1][1].items():
            log(
                f"closure {stage}: self times {summary['busy_s']:.4f} s / process CPU {summary['process_cpu_s']:.4f} s"
                f" = {summary['closure']:.4f}; CPU / wall {summary['process_cpu_s'] / summary['main_wall_s']:.4f}"
            )
        log(f"trace kept in {kept.relative_to(ROOT)} ({len(traced)} traced passes)")
    elif not args.trace and reps:
        metrics = {
            "setup_s": setup_times,
            **{f"{s}_s": [r[0][s] for r in reps] for s in STAGES},
            "pipeline_s": untraced_pipeline,
            "peak_rss_mb": [r[1] for r in reps],
        }
        for name, values in metrics.items():
            log(f"{name:>14} median {median(values):.4f} {END_TO_END[name]}  n={len(values)}  min {min(values):.4f}  max {max(values):.4f}")
        metrics = {name: {"value": median(v), "unit": END_TO_END[name]} for name, v in metrics.items()}

    attempted = max(bench.attempted, 1)
    log(f"error_rate {bench.failed / attempted:.4f} ({bench.failed} of {attempted} subcommand invocations)")
    correct = bench.failed == 0 and bool(metrics)
    if not metrics:
        names = PER_LAYER if args.trace else END_TO_END
        metrics = {n: {"value": 0.0, "unit": (PER_LAYER[n][0] if args.trace else END_TO_END[n])} for n in names}
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": bench.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "popgeo" / "cli.py").is_file():
        log(f"no popgeo sources under {SRC}; run from the repository root")
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
