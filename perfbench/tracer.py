"""Run one popgeo subcommand in this process with every public function traced.

    python3 perfbench/tracer.py SUMMARY_JSON SPANS_PREFIX -- <popgeo argv>

Public functions are found by identity: every function defined in a
`popgeo.*` module under a name without a leading underscore is wrapped
wherever a module global (or a module-level dict value) is bound to it, plus
the methods `GeoDatabase.query` and `PrefixMap.lookup`. Nothing under `src/`
is edited, and a call that moves between modules is still traced.

Each call becomes a span: name, start and end (wall clock), busy time (the
calling thread's CPU time), and parent span. Spans stay in per-thread
arrays while the subcommand runs. After it returns they are written to
SPANS_PREFIX.bin/.json, and the per-stage aggregates go to SUMMARY_JSON. A
span's self time is its busy time minus the busy time of its children in the
same thread, so worker threads waiting on the interpreter lock are not
counted twice. The summary's `closure` is the sum of all self times over the
CPU time the whole process spent in `main`: below 1 by more than the wrapper
overhead means busy time that no span accounts for.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

_THREAD_SHIFT = 32  # global span id = buffer number << 32 | index in buffer
_ROOT = "cli.main"  # the stage's outermost span
_VOTE = "locate.locate_elements"


class _Buffer:
    """The spans one thread recorded, in start order."""

    def __init__(self, number: int):
        self.base = number << _THREAD_SHIFT
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.child_cpu = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.main = self._buffer()
        # facts recorded by hooks; list.append and set.add are atomic under the GIL
        self.facts: dict[str, list] = defaultdict(list)
        self.distinct_queries: set = set()
        self.distinct_votes: set = set()
        self.db_files: list[str] = []

    def _buffer(self) -> _Buffer:
        with self.lock:
            buf = _Buffer(len(self.buffers))
            self.buffers.append(buf)
        self.local.buf = buf
        return buf

    def _root_parent(self, buf: _Buffer) -> int:
        """A worker thread's outermost span hangs off the main thread's open span."""
        main = self.main
        if buf is not main and main.stack:
            return main.base | main.stack[-1]
        return -1

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        local = self.local
        new_buffer = self._buffer
        root_parent = self._root_parent
        hook = _HOOKS.get(name)
        tracer = self
        wall = time.perf_counter
        busy = time.thread_time

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.base | stack[-1] if stack else root_parent(buf))
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.cpu.append(0.0)
            buf.child_cpu.append(0.0)
            stack.append(idx)
            t0 = wall()
            c0 = busy()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = busy()
                t1 = wall()
                stack.pop()
                spent = c1 - c0
                buf.start[idx] = t0
                buf.end[idx] = t1
                buf.cpu[idx] = spent
                if stack:
                    buf.child_cpu[stack[-1]] += spent
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every public popgeo function wherever a module binds it."""
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            importlib.import_module(info.name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        short = {m.__name__: m.__name__.rpartition(".")[2] for m in modules}

        found: dict[int, tuple] = {}
        for mod in modules:
            for key, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__ and not key.startswith("_"):
                    found[id(value)] = (value, f"{short[mod.__name__]}.{value.__qualname__}")
        wrapped = {fid: self.wrap(fn, name) for fid, (fn, name) in found.items()}

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped and value is found[id(value)][0]:
                    setattr(mod, key, wrapped[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrapped and v is found[id(v)][0]:
                            value[k] = wrapped[id(v)]

        geodb = sys.modules[package.__name__ + ".geodb"]
        ingest = sys.modules[package.__name__ + ".ingest"]
        for cls in (geodb.GeoDatabase, ingest.PrefixMap):
            for meth in ("query", "lookup"):
                fn = cls.__dict__.get(meth)
                if isinstance(fn, types.FunctionType):
                    setattr(cls, meth, self.wrap(fn, f"{short[cls.__module__]}.{fn.__qualname__}"))

    def summarize(self, stage: str) -> dict:
        """Fold the spans into per-module self times and per-function totals."""
        count = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        main_wall = 0.0
        vote_ms = []
        root_id = self.names.index(_ROOT)
        vote_id = self.names.index(_VOTE)
        for buf in self.buffers:
            for nid, parent, cpu, child, t0, t1 in zip(buf.name, buf.parent, buf.cpu, buf.child_cpu, buf.start, buf.end):
                count[nid] += 1
                incl[nid] += cpu
                self_time[nid] += cpu - child
                if nid == root_id and parent == -1:
                    main_wall += t1 - t0
                elif nid == vote_id:
                    vote_ms.append(cpu * 1e3)
        modules: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, self_time):
            modules[name.partition(".")[0]] += value
        used = [i for i, n in enumerate(count) if n]
        facts = {k: v for k, v in self.facts.items() if k != "partition_sizes"}
        facts = {k: (max(v) if k.startswith("max_") else sum(v)) for k, v in facts.items()}
        facts["distinct_queries"] = len(self.distinct_queries)
        facts["distinct_votes"] = len(self.distinct_votes)
        facts["records_loaded"] = sum(_data_lines(Path(p)) for p in self.db_files)
        busy_total = sum(modules.values())
        return {
            "stage": stage,
            "main_wall_s": main_wall,
            "busy_s": busy_total,
            "module_self_s": dict(modules),
            "count": {self.names[i]: count[i] for i in used},
            "incl_s": {self.names[i]: incl[i] for i in used},
            "facts": facts,
            "vote_ms": vote_ms,
            "scaling": self._scaling_rows(),
        }

    def _scaling_rows(self) -> list[dict]:
        """One row per component: its partition call followed by its unification call."""
        try:
            part = self.names.index("extract.partition_collocations")
            unify = self.names.index("extract.unify_pops")
            wgd = self.names.index("extract.weighted_group_distance")
        except ValueError:
            return []
        sizes = iter(self.facts.get("partition_sizes", []))
        rows = []
        buf = self.main
        n = len(buf.name)
        i = 0
        while i < n:
            if buf.name[i] != part:
                i += 1
                continue
            interfaces, groups = next(sizes)
            row = {"interfaces": interfaces, "groups": groups, "group_distance_calls": 0, "partition_s": buf.cpu[i], "unify_s": 0.0}
            j = i + 1
            while j < n and buf.start[j] < buf.end[i]:
                row["group_distance_calls"] += buf.name[j] == wgd
                j += 1
            if j < n and buf.name[j] == unify:
                row["unify_s"] = buf.cpu[j]
                end = buf.end[j]
                j += 1
                while j < n and buf.start[j] < end:
                    row["group_distance_calls"] += buf.name[j] == wgd
                    j += 1
            rows.append(row)
            i = j
        return rows

    def dump(self, prefix: Path, stage: str) -> None:
        """Write every span: a JSON index plus the raw arrays, buffer after buffer."""
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for buf in self.buffers:
                for arr in (buf.name, buf.parent, buf.start, buf.end, buf.cpu, buf.child_cpu):
                    arr.tofile(fh)
        index = {
            "stage_invocation": stage,
            "names": self.names,
            "buffers": [len(buf.name) for buf in self.buffers],
            "arrays": ["name:i32", "parent:i64", "start:f64", "end:f64", "busy:f64", "child_busy:f64"],
        }
        prefix.with_suffix(".json").write_text(json.dumps(index) + "\n", encoding="utf-8")


def _data_lines(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


# --- hooks: counts taken from arguments and results at the same boundaries ---


def _fact(key, value_of):
    def hook(tracer, args, result):
        tracer.facts[key].append(value_of(args, result))

    return hook


def _on_components(tracer, args, result):
    tracer.facts["components"].append(len(result))
    tracer.facts["max_component_ips"].append(max((len(c) for c in result), default=0))


def _on_partition(tracer, args, result):
    tracer.facts["partition_sizes"].append((len(args[0]) + len(args[1]), len(result)))


def _on_query(tracer, args, result):
    tracer.distinct_queries.add((args[0].name, args[1]))


def _on_vote(tracer, args, result):
    tracer.distinct_votes.add((args[0], frozenset(e.db_name for e in args[1])))
    if result.coord is not None and not result.majority_found:
        tracer.facts["fallback_votes"].append(1)


def _on_db_load(tracer, args, result):
    tracer.db_files.append(args[0].name)


_HOOKS = {
    "ingest.parse_observations": _fact("obs_parsed", lambda a, r: len(r)),
    "ingest.aggregate_edges": _fact("edges", lambda a, r: len(r)),
    "extract.connected_components": _on_components,
    "extract.partition_collocations": _on_partition,
    "extract.extract_pops": _fact("pops", lambda a, r: len(r.pops)),
    "geodb.GeoDatabase.query": _on_query,
    "geodb.load_point_db": _on_db_load,
    "geodb.load_range_db": _on_db_load,
    _VOTE: _on_vote,
}


def main(argv: list[str]) -> int:
    summary_path, spans_prefix, sep, *popgeo_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY_JSON SPANS_PREFIX -- <popgeo argv>")
    t0 = time.perf_counter()
    cli = importlib.import_module("popgeo.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(sys.modules["popgeo"])
    c0 = time.process_time()
    status = cli.main(popgeo_argv)  # the wrapped main: the stage's outermost span
    process_cpu_s = time.process_time() - c0

    t1 = time.perf_counter()
    stage = popgeo_argv[0]
    summary = tracer.summarize(stage)
    summary["status"] = status
    summary["import_s"] = import_s
    summary["process_cpu_s"] = process_cpu_s
    summary["closure"] = summary["busy_s"] / process_cpu_s
    tracer.dump(Path(spans_prefix), stage)
    summary["post_s"] = time.perf_counter() - t1
    Path(summary_path).write_text(json.dumps(summary) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
