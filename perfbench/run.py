"""The repository benchmark: seeded lakes, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload union_lake --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The lakes are generated from ``--seed`` (``perfbench/lakes.py``); check a
claim on a seed that was not used while the change was written.

Each workload runs in its own process as one single-threaded closed-loop
client: the next query is sent only when the previous one returned.  After
a warm-up pass the client runs whole passes (every subject asks every
kind once) until ``--seconds`` have passed, restoring the snapshot between
passes.  The system is a library, so throughput is reported at the
workload's lake size (printed in the meta line), not under an arrival rate.

Query latency and ``qps`` count the client thread's CPU time (the facade
answers on the calling thread) at reference speed, and ``reload_s`` is the
restore's wall time at reference speed: the client reads a host-speed
reference between rounds and scales each time by the readings around it
(``perfbench/speed.py``).  On a shared virtual machine the host's other
guests moved the same code's CPU time by up to 1.7x for seconds to minutes
at a time, so raw times of identical runs read 20-40% apart.  The raw CPU
and wall figures are printed in the meta line.  ``setup_s`` is raw wall
time, so a parallel build shows as one.

``--trace 0`` prints the end-to-end metrics, measured with every tracer
off.  ``--trace 1`` is a separate run that wraps the public entry points of
each layer with in-memory spans (see ``perfbench/spans.py``), prints the
per-layer metrics, and writes the spans to ``perfbench/out/`` at the end.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when a correctness check or a query fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.metrics import recall_at_k  # noqa: E402
from repro.core.dag import StageGraph  # noqa: E402
from repro.core.engine import REGISTRY  # noqa: E402
from repro.core.system import STAGES, DiscoverySystem  # noqa: E402
from repro.obs import METRICS, TRACER  # noqa: E402
from repro.sketch.minhash import MinHash  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.lakes import K, WORKLOADS, Lake  # noqa: E402
from perfbench.metrics import END_TO_END, LAYER_MAP, PER_LAYER  # noqa: E402
from perfbench.spans import SpanRecorder, percentile, self_times  # noqa: E402
from perfbench.speed import Gauge, Reference, at_reference  # noqa: E402

#: Facade entry points wrapped in the traced run.
FACADE = (
    "keyword_search",
    "joinable_search",
    "fuzzy_joinable_search",
    "multi_attribute_search",
    "unionable_search",
    "correlated_search",
    "search",
)

#: Builds per timed run, for the median ``setup_s``: the 48-table union
#: lake builds for 8-17 s, the others in under a second.
BUILDS = {"union_lake": 2, "join_lake": 5, "point_lookups": 5}

#: Between two passes, once this many seconds have passed since the last
#: time, the loop restores the snapshot, so that ``reload_s`` samples the
#: whole loop, not one moment of it.
RELOAD_EVERY_S = 1.0

#: Fewest reloads per timed run; missing ones are made after the loop.
MIN_RELOADS = 5

#: The client reads the host-speed reference between rounds once this many
#: seconds have passed since the previous reading (``perfbench/speed.py``).
SEGMENT_S = 0.25

#: The timed loop also runs until it has this many samples, so at least
#: ten lie above the 95th percentile (matters on join_lake, ~11 queries/s).
MIN_SAMPLES = 200

#: Recall@10 below this fails the run.  It catches a broken engine, not a
#: quality regression: recall was 0.83-1.0 on every workload and seed tried.
MIN_RECALL = 0.5


@dataclass
class LoopResult:
    """What a closed-loop client measured."""

    #: query kind -> CPU time of each completed query
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    #: (CPU time, reference segment) of each completed query
    timed: list[tuple[float, int]] = field(default_factory=list)
    #: wall time of each completed query
    wall_ms: list[float] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        """Queries completed per second of the client thread's CPU time."""
        cpu_ms = sum(ms for ms, _ in self.timed)
        return 1000 * self.completed / cpu_ms if cpu_ms else 0.0

    def absorb(self, other: "LoopResult") -> None:
        """Add another loop's counts and timings."""
        for kind, values in other.latencies_ms.items():
            self.latencies_ms.setdefault(kind, []).extend(values)
        self.timed += other.timed
        self.wall_ms += other.wall_ms
        self.completed += other.completed
        self.attempted += other.attempted
        self.failed += other.failed
        for name, n in other.errors.items():
            self.errors[name] = self.errors.get(name, 0) + n


def run_query(query, system, loop: LoopResult, results: dict, key, segment: int = 0) -> None:
    """Send one query; count it, time it, keep the first hits per key."""
    loop.attempted += 1
    t0 = time.perf_counter()
    c0 = time.thread_time()
    try:
        hits = query.run(system)
    except Exception as exc:  # every failure is counted, never dropped
        loop.failed += 1
        name = type(exc).__name__
        if name not in loop.errors:
            traceback.print_exc()
        loop.errors[name] = loop.errors.get(name, 0) + 1
        return
    cpu_ms = (time.thread_time() - c0) * 1000
    loop.wall_ms.append((time.perf_counter() - t0) * 1000)
    loop.latencies_ms.setdefault(query.kind, []).append(cpu_ms)
    loop.timed.append((cpu_ms, segment))
    loop.completed += 1
    results.setdefault(key, hits)


def one_pass(
    system, lake: Lake, results: dict, loop: LoopResult, gauge: Gauge | None = None
) -> LoopResult:
    """Send every subject's round once, as one closed-loop client, into
    ``loop``; with a gauge, read the reference between rounds.

    Loops are made of whole passes so that every subject and every kind
    weighs the same in each pass, whatever the machine's speed."""
    for s, round_ in enumerate(lake.rounds):
        segment = gauge.segment if gauge else 0
        for query in round_:
            run_query(query, system, loop, results, (s, query.kind), segment)
        if gauge:
            gauge.tick()
    return loop


def timed_loop(
    system, lake: Lake, seconds: float, results: dict, min_samples: int, gauge: Gauge, reload_now
) -> LoopResult:
    """Whole passes until ``seconds`` have passed and ``min_samples``
    queries were sent, calling ``reload_now()`` after a pass every
    ``RELOAD_EVERY_S``."""
    loop = LoopResult()
    gc.collect()
    deadline = time.perf_counter() + seconds
    last = time.perf_counter()
    while time.perf_counter() < deadline or loop.attempted < min_samples:
        one_pass(system, lake, results, loop, gauge)
        if time.perf_counter() - last >= RELOAD_EVERY_S:
            reload_now()
            last = time.perf_counter()
    gauge.tick(force=True)
    return loop


def recall_by_kind(lake: Lake, results: dict) -> tuple[float, dict[str, float]]:
    """Mean recall@K over every query with ground truth, overall and per
    query kind."""
    per: dict[str, list[float]] = {}
    for s, round_ in enumerate(lake.rounds):
        for q in round_:
            hits = results.get((s, q.kind))
            if q.relevant and hits is not None:
                per.setdefault(q.kind, []).append(
                    recall_at_k(q.ids(hits), q.relevant, K)
                )
    overall = [v for vals in per.values() for v in vals]
    return (
        statistics.fmean(overall) if overall else 0.0,
        {kind: statistics.fmean(v) for kind, v in per.items()},
    )


def build(lake: Lake, jobs: int | None = None) -> tuple[DiscoverySystem, float]:
    gc.collect()
    t0 = time.perf_counter()
    system = DiscoverySystem(lake.lake, lake.config, ontology=lake.ontology).build(jobs=jobs)
    return system, time.perf_counter() - t0


def reload(lake: Lake, snap: Path) -> tuple[DiscoverySystem, float]:
    """Restore the snapshot; returns the system and the wall time of the
    restore.  What was alive before (the lake, the live build) is frozen out
    of the collector meanwhile, so the time counts the collector's work on
    the restored system only, as in a fresh process; scanning the live
    build too took ~40% of the reload."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        system = DiscoverySystem.load(
            snap, lake=lake.lake, config=lake.config, ontology=lake.ontology
        )
        return system, time.perf_counter() - t0
    finally:
        gc.unfreeze()


def index_mb(system) -> dict[str, float]:
    return {r.name: r.memory_bytes / 1e6 for r in system.index_stats()}


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def run_checks(system, lake: Lake, snapshot: dict) -> dict:
    """The correctness checks; gated ones decide ``correct``."""
    out: dict = {f"snapshot_{k}": v for k, v in snapshot.items()}
    try:
        out["josie_exact"], out["josie_agreement"] = checks.josie_check(system, lake, K)
        out["pexeso_agreement"] = checks.pexeso_agreement(system, lake, 5)
        out["mate_agreement"] = checks.mate_agreement(system, lake, K)
    except Exception as exc:
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def checks_pass(found: dict, recall: float) -> bool:
    return (
        "error" not in found
        and found.get("josie_exact") is True
        and found.get("snapshot_identical") is True
        and recall >= MIN_RECALL
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- timed run (end-to-end metrics) --------------------------------------------


def timed_run(lake: Lake, seconds: float, snap: Path, smoke: bool) -> tuple[dict, dict, bool, LoopResult]:
    TRACER.disable()
    ref = Reference()
    system, dt = build(lake)
    setups = [dt]
    system.save(snap)
    loaded, _ = reload(lake, snap)
    live, reloaded = checks.sample_hits(system, lake), checks.sample_hits(loaded, lake)
    snapshot = {"identical": checks.same_hits(reloaded, live), "bit_identical": reloaded == live}
    loaded = None

    results: dict = {}
    warm = one_pass(system, lake, {}, LoopResult())
    gauge = Gauge(ref, SEGMENT_S)
    reloads: list[tuple[int, float]] = []  # (reference segment, seconds)

    def reload_now() -> None:
        gauge.tick(force=True)
        reloads.append((gauge.segment, reload(lake, snap)[1]))
        gauge.tick(force=True)

    loop = timed_loop(system, lake, seconds, results, 0 if smoke else MIN_SAMPLES, gauge, reload_now)
    while len(reloads) < (1 if smoke else MIN_RELOADS):
        reload_now()
    ref_ms = [at_reference(ms, gauge.around(seg)) for ms, seg in loop.timed]
    reloads_ref = [at_reference(dt, gauge.around(seg)) for seg, dt in reloads]
    recall, _ = recall_by_kind(lake, results)
    found = run_checks(system, lake, snapshot)
    for _ in range(1 if smoke else BUILDS[lake.workload] - 1):
        system = None
        system, dt = build(lake)
        setups.append(dt)
    mb = sum(index_mb(system).values())

    lat = [x for values in loop.latencies_ms.values() for x in values]
    total = LoopResult()
    for part in (warm, loop):
        total.absorb(part)
    metrics = {
        "setup_s": statistics.median(setups),
        "reload_s": statistics.median(reloads_ref),
        "qps": 1000 * len(ref_ms) / sum(ref_ms),
        "query_p50_ms": percentile(ref_ms, 50),
        "query_p95_ms": percentile(ref_ms, 95),
        "recall_at_10": recall,
        "success_rate": 1 - total.failed / total.attempted,
        "index_mb": mb,
        "peak_rss_mb": peak_rss_mb(),
    }
    meta = {
        "setup_runs_s": setups,
        "reload_runs_s": [dt for _, dt in reloads],
        "reload_runs_ref_s": reloads_ref,
        "samples": len(ref_ms),
        "samples_above_p95": sum(x > metrics["query_p95_ms"] for x in ref_ms),
        # the same figures as measured, before scaling to reference speed
        "cpu_qps": loop.qps,
        "cpu_p50_ms": percentile(lat, 50),
        "cpu_p95_ms": percentile(lat, 95),
        "wall_p50_ms": percentile(loop.wall_ms, 50),
        "wall_p95_ms": percentile(loop.wall_ms, 95),
        "reference_ms": {
            "readings": len(gauge.readings),
            "min_median_max": [min(gauge.readings), statistics.median(gauge.readings), max(gauge.readings)],
        },
        # p50 and p95 of the mix should fall inside one kind's band
        "kind_p5_p50_p95_ms": {
            kind: [percentile(v, q) for q in (5, 50, 95)]
            for kind, v in loop.latencies_ms.items()
        },
        "checks": found,
        "errors": total.errors,
    }
    return metrics, meta, checks_pass(found, recall), total


# -- traced run (per-layer metrics) --------------------------------------------


def build_patches(rec: SpanRecorder) -> list:
    """Spans around the build: the whole build, each stage the DAG runs,
    and every engine's and foundation's ``build``."""
    orig_run = StageGraph.run

    def traced_run(graph, jobs=1, run_stage=None):
        inner = run_stage or (lambda stage: stage.fn())

        def stage_span(stage):
            with rec.span(f"stage.{stage.name}"):
                inner(stage)

        return orig_run(graph, jobs, run_stage=stage_span)

    patches = [
        (DiscoverySystem, "build", rec.wrap(DiscoverySystem.build, "build")),
        (StageGraph, "run", traced_run),
    ]
    for cls in REGISTRY:
        patches.append((cls, "build", rec.wrap(cls.build, f"build.engine.{cls.name}")))
    return patches


def snapshot_patches(rec: SpanRecorder) -> list:
    load = DiscoverySystem.__dict__["load"].__func__
    return [
        (DiscoverySystem, "save", rec.wrap(DiscoverySystem.save, "snapshot.save")),
        (DiscoverySystem, "load", classmethod(rec.wrap(load, "snapshot.load"))),
    ]


def query_patches(rec: SpanRecorder) -> list:
    """Spans around every facade call and every ``Engine.query``; MinHash
    sketches built while a span is open are counted on it."""
    from_values = MinHash.__dict__["from_values"].__func__
    patches = [
        (DiscoverySystem, m, rec.wrap(getattr(DiscoverySystem, m), f"facade.{m}"))
        for m in FACADE
    ]
    patches += [
        (cls, "query", rec.wrap(cls.query, f"query.{cls.name}")) for cls in REGISTRY.all()
    ]
    patches.append(
        (MinHash, "from_values", classmethod(rec.counting(from_values, "minhash.signatures_built")))
    )
    return patches


def counters(names: list[str]) -> dict[str, float]:
    return {n: METRICS.counter(n) for n in names}


def delta(before: dict, after: dict) -> dict:
    return {n: after[n] - before[n] for n in before}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


BUILD_COUNTERS = ["index.hnsw.insert_distance_computations", "index.hnsw.nodes_added"]
QUERY_COUNTERS = [
    "search.pexeso.candidates_verified",
    "search.starmie.candidates_examined",
    "search.mate.rows_checked",
    "search.mate.rows_passed_filter",
    "search.qcr.sketches_compared",
    "search.containment.candidates_checked",
    "search.containment.candidates_pruned",
    "index.inverted.postings_reads",
    "search.keyword.docs_scored",
]


def traced_run(lake: Lake, seconds: float, snap: Path, smoke: bool) -> tuple[dict, dict, bool, LoopResult, SpanRecorder]:
    TRACER.disable()
    rec = SpanRecorder()
    _, t_jobs2 = build(lake, jobs=2)
    before = counters(BUILD_COUNTERS)
    with rec.patched(build_patches(rec)):
        system, t_jobs1 = build(lake, jobs=1)
    built = delta(before, counters(BUILD_COUNTERS))
    with rec.patched(snapshot_patches(rec)):
        system.save(snap)
        loaded = DiscoverySystem.load(
            snap, lake=lake.lake, config=lake.config, ontology=lake.ontology
        )
    live, reloaded = checks.sample_hits(system, lake), checks.sample_hits(loaded, lake)
    snapshot = {"identical": checks.same_hits(reloaded, live), "bit_identical": reloaded == live}
    loaded = None
    sizes = index_mb(system)

    results: dict = {}
    warm = one_pass(system, lake, {}, LoopResult())
    # Untraced and traced passes alternate, so drift in the machine's
    # speed lands on both sides of the tracing-overhead comparison.
    plain, traced = LoopResult(), LoopResult()
    plain_rates, traced_rates = [], []
    first_traced = len(rec.spans)
    work = dict.fromkeys(QUERY_COUNTERS, 0.0)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        part = one_pass(system, lake, results, LoopResult())
        plain_rates.append(part.qps)
        plain.absorb(part)
        before = counters(QUERY_COUNTERS)
        with rec.patched(query_patches(rec)):
            part = one_pass(system, lake, results, LoopResult())
        traced_rates.append(part.qps)
        traced.absorb(part)
        for name, n in delta(before, counters(QUERY_COUNTERS)).items():
            work[name] += n
    recall, recall_per = recall_by_kind(lake, results)
    found = run_checks(system, lake, snapshot)

    spans = rec.spans
    selfs = self_times(spans)
    loop_spans = spans[first_traced:]

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def p50(values: list[float], scale: float) -> float:
        return percentile(values, 50) * scale if values else 0.0

    def count(prefix: str) -> int:
        return sum(1 for s in loop_spans if s.name == prefix)

    facade = [s for s in loop_spans if s.name.startswith("facade.")]
    metrics: dict[str, float] = {}
    for stage in STAGES:
        metrics[f"build.stage.{stage}_s"] = total(f"stage.{stage}")
    metrics["build.jobs2_speedup"] = t_jobs1 / t_jobs2
    for cls in REGISTRY:
        metrics[f"build.engine.{cls.name}_s"] = total(f"build.engine.{cls.name}")
    for name in ("keyword", "josie", "lshensemble", "pexeso", "mate", "qcr", "tus", "starmie", "santos"):
        metrics[f"query.{name}.p50_ms"] = p50(
            [selfs[s.id] for s in loop_spans if s.name == f"query.{name}"], 1e3
        )
    metrics["query.federated.p50_ms"] = p50(
        [s.duration for s in loop_spans if s.name == "facade.search"], 1e3
    )
    metrics["facade.self_us.p50"] = p50([selfs[s.id] for s in facade], 1e6)
    qps_plain, qps_traced = statistics.median(plain_rates), statistics.median(traced_rates)
    metrics["obs.trace_overhead_pct"] = 100 * (1 - ratio(qps_traced, qps_plain))
    metrics["hnsw.distance_computations"] = built["index.hnsw.insert_distance_computations"]
    metrics["hnsw.nodes_added"] = built["index.hnsw.nodes_added"]
    tus = [s for s in loop_spans if s.name == "query.tus"]
    metrics["minhash.signatures_built"] = ratio(
        sum(s.counts.get("minhash.signatures_built", 0) for s in tus), len(tus)
    )
    metrics["pexeso.candidates_verified"] = ratio(
        work["search.pexeso.candidates_verified"], count("query.pexeso")
    )
    metrics["starmie.candidates_examined"] = ratio(
        work["search.starmie.candidates_examined"], count("query.starmie")
    )
    metrics["mate.rows_checked"] = ratio(work["search.mate.rows_checked"], count("query.mate"))
    metrics["mate.filter_pass_ratio"] = ratio(
        work["search.mate.rows_passed_filter"], work["search.mate.rows_checked"]
    )
    metrics["qcr.sketches_compared"] = ratio(
        work["search.qcr.sketches_compared"], count("query.qcr")
    )
    checked = work["search.containment.candidates_checked"]
    metrics["lshensemble.verify_ratio"] = ratio(
        checked - work["search.containment.candidates_pruned"], checked
    )
    metrics["inverted.postings_reads"] = ratio(work["index.inverted.postings_reads"], len(facade))
    metrics["keyword.docs_scored"] = ratio(
        work["search.keyword.docs_scored"], count("query.keyword")
    )
    for name in ("keyword", "josie", "lshensemble", "mate", "pexeso", "tus", "starmie", "santos", "federated"):
        metrics[f"quality.{name}.recall_at_10"] = recall_per.get(name, 0.0)
    metrics["quality.josie.exact_agreement"] = found.get("josie_agreement", 0.0)
    metrics["quality.pexeso.exact_agreement"] = found.get("pexeso_agreement", 0.0)
    metrics["quality.mate.exact_agreement"] = found.get("mate_agreement", 0.0)
    metrics["snapshot.save_s"] = total("snapshot.save")
    metrics["snapshot.mb"] = dir_mb(snap)
    for cls in REGISTRY.all():
        metrics[f"index.{cls.name}.mb"] = sizes.get(cls.name, 0.0)

    stage_sum = sum(total(f"stage.{s}") for s in STAGES)
    engine_builds = {cls.name: total(f"build.engine.{cls.name}") for cls in REGISTRY}
    meta = {
        "build_jobs1_s": t_jobs1,
        "build_jobs2_s": t_jobs2,
        "stage_sum_s": stage_sum,
        "largest_stage": max(STAGES, key=lambda s: total(f"stage.{s}")),
        "largest_engine_build": max(engine_builds, key=engine_builds.get),
        "qps_untraced": qps_plain,
        "qps_traced": qps_traced,
        "recall_at_10": recall,
        "spans": len(spans),
        "layers": LAYER_MAP,
        "checks": found,
    }
    loop = LoopResult()
    for part in (warm, plain, traced):
        loop.absorb(part)
    meta["errors"] = loop.errors
    return metrics, meta, checks_pass(found, recall), loop, rec


# -- command line --------------------------------------------------------------


def run_all(args) -> int:
    """Run each workload in its own process, one after the other."""
    combined: dict = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            return 1
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="tiny lakes, fewest builds: exercises every metric fast"
    )
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    lake = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    generate_s = time.perf_counter() - t0
    OUT.mkdir(parents=True, exist_ok=True)
    snap = OUT / f"snapshot-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, meta, correct, loop, rec = traced_run(lake, args.seconds, snap, args.smoke)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            rec.write(trace_file)
            meta["trace_file"] = str(trace_file.relative_to(ROOT))
            specs = PER_LAYER
        else:
            metrics, meta, correct, loop = timed_run(lake, args.seconds, snap, args.smoke)
            specs = END_TO_END
    finally:
        shutil.rmtree(snap, ignore_errors=True)
    correct = correct and loop.failed == 0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generate_s": generate_s,
        "lake": lake.describe(),
        "client": "one single-threaded closed-loop client",
        **meta,
    }
    print("meta " + json.dumps(meta, default=str))
    for spec in specs:
        print(f"{spec['name']:<40} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in specs
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
