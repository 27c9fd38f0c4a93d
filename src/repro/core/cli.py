"""Command-line interface: table discovery over a directory of CSV files.

Usage::

    python -m repro stats     <lake_dir>
    python -m repro build     <lake_dir> [--jobs 4] [--save snapdir]
    python -m repro keyword   <lake_dir> --query "air quality" [-k 5]
    python -m repro join      <lake_dir> --table cities --column 0 [-k 5]
    python -m repro union     <lake_dir> --table cities [-k 5] [--method starmie]
    python -m repro query     <lake_dir> --engine join --table cities
                              [--explain] [--load snapdir]
    python -m repro navigate  <lake_dir> --intent "city population"
    python -m repro domains   <lake_dir>
    python -m repro profile   <lake_dir> [-o report.json] [--no-embeddings]
    python -m repro serve-metrics <lake_dir> [--port 9095] [--duration 60]
    python -m repro slo       [--log queries.jsonl | --url http://host:9095]
    python -m repro inspect   <lake_dir> [--json]
    python -m repro engines   [<lake_dir>] [--json]
    python -m repro top       --url http://host:9095 [--interval 2]

Every command ingests ``lake_dir`` (recursively, all ``*.csv``), runs the
offline pipeline stages it needs, and prints results to stdout.  A library
error (any ``DiscoveryError``: a missing table, a bad ``-k``, a stale
snapshot) exits non-zero with one ``repro <command>: <reason>`` line.

All commands accept ``-v/--verbose`` (repeatable: ``-v`` INFO, ``-vv``
DEBUG, to stderr), ``--profile`` (print the tracing span tree and the
metrics snapshot after the command's own output), ``--trace-out FILE``
(write a Chrome/Perfetto trace of the run), and ``--metrics-out FILE``
(write the Prometheus text page).  ``profile`` is the batch variant: it
runs the full offline pipeline with tracing on and emits a
machine-readable JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import obs
from repro.core.config import DiscoveryConfig
from repro.core.errors import DiscoveryError
from repro.core.system import JOIN_METHODS, UNION_METHODS, DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import ColumnRef
from repro.obs import METRICS, TRACER
from repro.obs.server import ObservabilityServer

log = obs.get_logger("core.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="table discovery over a directory of CSVs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="log to stderr (-v info, -vv debug)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="print tracing spans and metrics after the command",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write a Chrome/Perfetto trace-event JSON of the run",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write the Prometheus text-exposition metrics page",
        )

    def lake_arg(p):
        p.add_argument("lake_dir", help="directory of CSV files")
        p.add_argument("-k", type=int, default=5, help="results to return")
        common(p)

    p = sub.add_parser("stats", help="lake statistics")
    p.add_argument("lake_dir")
    common(p)

    p = sub.add_parser(
        "build",
        help="run the offline pipeline (optionally in parallel over the "
        "stage DAG) and optionally save an index snapshot",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the stage DAG (1 = sequential)",
    )
    p.add_argument(
        "--save",
        metavar="DIR",
        help="persist the built indexes as a snapshot directory "
        "(reload with `repro query --load DIR`)",
    )
    p.add_argument(
        "--skip",
        action="append",
        default=[],
        metavar="STAGE",
        help="skip a pipeline stage by name (repeatable)",
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and everything that needs it)",
    )
    common(p)

    p = sub.add_parser("keyword", help="metadata keyword search")
    lake_arg(p)
    p.add_argument("--query", required=True)

    p = sub.add_parser("join", help="joinable column search")
    lake_arg(p)
    p.add_argument("--table", required=True)
    p.add_argument("--column", type=int, default=0)
    p.add_argument("--method", choices=list(JOIN_METHODS), default="exact")

    p = sub.add_parser("union", help="unionable table search")
    lake_arg(p)
    p.add_argument("--table", required=True)
    p.add_argument("--method", choices=UNION_METHODS, default="starmie")

    p = sub.add_parser(
        "query",
        help="run one online query against any engine; --explain prints "
        "the per-stage candidate funnel",
    )
    lake_arg(p)
    p.add_argument(
        "--engine",
        required=True,
        choices=[
            "keyword",
            "join",
            "containment",
            "fuzzy",
            "mate",
            "correlated",
            "union",
        ],
    )
    p.add_argument("--query", help="keyword text (engine=keyword)")
    p.add_argument("--table", help="query table name (all other engines)")
    p.add_argument("--column", type=int, default=0, help="query column index")
    p.add_argument(
        "--key-columns",
        default="0",
        help="comma-separated key column indexes (engine=mate)",
    )
    p.add_argument(
        "--value-column",
        type=int,
        default=1,
        help="numeric value column (engine=correlated)",
    )
    p.add_argument(
        "--method",
        choices=UNION_METHODS,
        default="starmie",
        help="union method (engine=union)",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN provenance: the per-stage candidate funnel",
    )
    p.add_argument(
        "--load",
        metavar="DIR",
        help="load the indexes from a snapshot directory (written by "
        "`repro build --save`) instead of rebuilding the pipeline; the "
        "snapshot must match the lake or the query is refused",
    )

    p = sub.add_parser("navigate", help="navigate the lake by intent")
    lake_arg(p)
    p.add_argument("--intent", required=True)

    p = sub.add_parser("domains", help="discover value domains")
    lake_arg(p)

    p = sub.add_parser(
        "profile",
        help="run the full offline pipeline and emit a JSON "
        "observability report (span tree + metrics)",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "-o", "--output", help="write the JSON report here instead of stdout"
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and everything that needs it)",
    )
    common(p)

    p = sub.add_parser(
        "serve-metrics",
        help="serve /metrics (Prometheus), /health, /querylog, /trace "
        "over HTTP from a background thread",
    )
    p.add_argument(
        "lake_dir",
        nargs="?",
        help="optional: build the pipeline on this lake and run warmup "
        "queries so the endpoint has data",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9095)
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until interrupted)",
    )
    common(p)

    p = sub.add_parser(
        "slo",
        help="evaluate SLO burn rates over a query log; exits 1 on breach "
        "(cron/CI friendly)",
    )
    p.add_argument(
        "--log",
        metavar="FILE",
        help="JSONL query log (as written by the QUERY_LOG sink)",
    )
    p.add_argument(
        "--url",
        metavar="URL",
        help="fetch /querylog from a running observability server instead",
    )
    p.add_argument(
        "--objective",
        action="append",
        default=[],
        metavar="ENGINE:P95_MS:ERROR_RATE[:WINDOW_S]",
        help="objective spec (repeatable; empty field skips the signal; "
        "default: *:500:0.05:3600)",
    )
    p.add_argument(
        "--burn-threshold",
        type=float,
        default=1.0,
        help="burn rate at/above which both windows must be to breach",
    )
    p.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    common(p)

    p = sub.add_parser(
        "inspect",
        help="build the pipeline and report per-index introspection stats "
        "(sizes, skew, memory footprint)",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and the indexes that need it)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the reports as JSON"
    )
    common(p)

    p = sub.add_parser(
        "engines",
        help="list the registered discovery engines (stage, dependencies, "
        "query label, index kind); with a lake, also build it and report "
        "per-engine built status and item counts",
    )
    p.add_argument(
        "lake_dir",
        nargs="?",
        help="optional: build the pipeline on this lake and report which "
        "engines came up and how many items each indexed",
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and the engines that need it)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the listing as JSON"
    )
    common(p)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running observability server "
        "(per-engine QPS, p50/p95, error rate, SLO burn)",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:9095",
        help="observability server base URL",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (s)"
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: until interrupted)",
    )
    p.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="QPS window in seconds",
    )
    common(p)
    return parser


def _system(lake_dir: str, need_embeddings: bool, domains: bool = False):
    log.info("loading lake from %s", lake_dir)
    lake = DataLake.from_directory(lake_dir)
    config = DiscoveryConfig(
        enable_embeddings=need_embeddings,
        enable_domains=domains,
        embedding_min_count=1,
    )
    log.info("building offline pipeline (embeddings=%s)", need_embeddings)
    return DiscoverySystem(lake, config).build()


def _run_profile(args, out) -> int:
    """The ``profile`` subcommand: trace a full offline build, dump JSON."""
    obs.reset()
    obs.enable_tracing()
    try:
        lake = DataLake.from_directory(args.lake_dir)
        config = DiscoveryConfig(
            enable_embeddings=not args.no_embeddings,
            enable_domains=True,
            embedding_min_count=1,
        )
        system = DiscoverySystem(lake, config).build()
        report = obs.report(
            extra={
                "lake_dir": str(args.lake_dir),
                "lake": lake.stats(),
                "stage_seconds": system.stats.stage_seconds,
            }
        )
        text = json.dumps(report, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text + "\n")
            print(f"wrote {args.output}", file=out)
        else:
            print(text, file=out)
        return 0
    finally:
        obs.disable_tracing()


def _run_build(args, out) -> int:
    """The ``build`` subcommand: parallel offline build + snapshot save."""
    from repro.core.pipeline import pipeline_report

    lake = DataLake.from_directory(args.lake_dir)
    config = DiscoveryConfig(
        enable_embeddings=not args.no_embeddings,
        embedding_min_count=1,
        build_jobs=max(1, args.jobs),
    )
    t0 = time.perf_counter()
    system = DiscoverySystem(lake, config).build(skip=set(args.skip))
    wall_ms = (time.perf_counter() - t0) * 1000
    print(pipeline_report(system), file=out)
    print(
        f"built in {wall_ms:.1f} ms wall with {config.build_jobs} job(s) "
        f"(peak stage concurrency "
        f"{system.provenance['max_concurrent_stages']})",
        file=out,
    )
    if args.save:
        manifest = system.save(args.save)
        print(
            f"saved snapshot to {args.save} "
            f"(config {manifest.config_hash}, "
            f"lake {manifest.lake_fingerprint[:12]})",
            file=out,
        )
    return 0


def _run_query(args, out) -> int:
    """The ``query`` subcommand: one online query, optionally EXPLAINed."""
    engine = args.engine
    if args.load:
        lake = DataLake.from_directory(args.lake_dir)
        system = DiscoverySystem.load(args.load, lake=lake)
    else:
        need_embeddings = engine in ("fuzzy", "union")
        system = _system(args.lake_dir, need_embeddings=need_embeddings)
    explain = args.explain

    def need_table():
        if not args.table:
            raise SystemExit(f"--table is required for engine={engine}")
        return args.table

    if engine == "keyword":
        if not args.query:
            raise SystemExit("--query is required for engine=keyword")
        res = system.keyword_search(args.query, k=args.k, explain=explain)
    elif engine in ("join", "containment"):
        ref = ColumnRef(need_table(), args.column)
        res = system.joinable_search(
            ref,
            k=args.k,
            method="exact" if engine == "join" else "containment",
            explain=explain,
        )
    elif engine == "fuzzy":
        ref = ColumnRef(need_table(), args.column)
        res = system.fuzzy_joinable_search(ref, k=args.k, explain=explain)
    elif engine == "mate":
        table = system.lake.table(need_table())
        key_cols = [int(c) for c in args.key_columns.split(",") if c != ""]
        res = system.multi_attribute_search(
            table, key_cols, k=args.k, explain=explain
        )
    elif engine == "correlated":
        res = system.correlated_search(
            need_table(),
            args.column,
            args.value_column,
            k=args.k,
            explain=explain,
        )
    else:  # union
        res = system.unionable_search(
            need_table(), k=args.k, method=args.method, explain=explain
        )

    if explain:
        hits, report = res
        print(report.render(), file=out)
    else:
        from repro.search.explain import summarize_results

        for ident, score in summarize_results(res):
            print(f"{ident}\t{score:.3f}", file=out)
    return 0


def _run_serve_metrics(args, out) -> int:
    """The ``serve-metrics`` subcommand: background HTTP telemetry."""
    if args.lake_dir:
        system = _system(args.lake_dir, need_embeddings=False)
        # Warmup queries so /metrics and /querylog have per-engine series.
        names = system.lake.table_names()
        if names:
            table = system.lake.table(names[0])
            system.keyword_search(" ".join(table.header[:2]) or "data", k=3)
            text_cols = [i for i, _ in table.text_columns()]
            if text_cols:
                system.joinable_search(
                    ColumnRef(table.name, text_cols[0]), k=3
                )
                system.multi_attribute_search(table, [text_cols[0]], k=3)
        # Publish index introspection so /indexstats has this build's data.
        system.index_stats()
    server = ObservabilityServer(args.host, args.port).start()
    print(
        f"serving {server.url}/metrics /health /querylog /trace /slo "
        "/indexstats",
        file=out,
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive loop
            while True:
                time.sleep(1)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
    return 0


def _run_slo(args, out) -> int:
    """The ``slo`` subcommand: the SLO burn-rate gate."""
    from repro.obs import health
    from repro.obs.querylog import QueryRecord, load_jsonl

    if args.log and args.url:
        raise SystemExit("give either --log or --url, not both")
    if args.log:
        records = load_jsonl(args.log)
    elif args.url:
        import json as _json
        import urllib.request

        with urllib.request.urlopen(
            args.url.rstrip("/") + "/querylog", timeout=10
        ) as resp:
            payload = _json.loads(resp.read().decode("utf-8"))
        records = [QueryRecord.from_dict(d) for d in payload["records"]]
    else:
        records = obs.QUERY_LOG.records()
    objectives = (
        tuple(health.SloObjective.parse(s) for s in args.objective)
        or health.DEFAULT_OBJECTIVES
    )
    report = health.evaluate(
        records, objectives, burn_threshold=args.burn_threshold
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _run_inspect(args, out) -> int:
    """The ``inspect`` subcommand: per-index introspection reports."""
    system = _system(args.lake_dir, need_embeddings=not args.no_embeddings)
    reports = system.index_stats()
    if args.json:
        print(
            json.dumps([r.to_dict() for r in reports], indent=2), file=out
        )
    else:
        # The rows count memory once, so their sum is the whole total.
        total = sum(r.memory_bytes for r in reports)
        print(
            f"{len(reports) - 1} indexes plus shared inputs, "
            f"estimated {total / 1024:.1f} KiB total",
            file=out,
        )
        prov = system.provenance
        if prov:
            fields = ", ".join(
                f"{k}={v}"
                for k, v in sorted(prov.items())
                if k not in ("source", "build_ms")
            )
            print(f"provenance: {prov.get('source', '?')} ({fields})", file=out)
        if prov.get("build_ms"):
            split = ", ".join(
                f"{name}={ms:.1f}" for name, ms in prov["build_ms"].items()
            )
            print(f"build ms: {split}", file=out)
        for r in reports:
            print(r.render(), file=out)
    return 0


def _run_engines(args, out) -> int:
    """The ``engines`` subcommand: the engine registry, optionally
    enriched with built status and item counts from a live build."""
    from repro.core.engine import REGISTRY

    rows: list[dict] = []
    if args.lake_dir:
        system = _system(
            args.lake_dir, need_embeddings=not args.no_embeddings
        )
        for engine in system.engines.values():
            row = engine.describe()
            row["built"] = engine.is_built()
            row["items"] = (
                engine.items(engine.stats()) if engine.is_built() else 0
            )
            rows.append(row)
    else:
        rows = [cls().describe() for cls in REGISTRY.all()]
    if args.json:
        print(json.dumps(rows, indent=2), file=out)
        return 0
    print(f"{len(rows)} registered engines", file=out)
    for row in rows:
        deps = ",".join(row["depends_on"]) or "-"
        line = (
            f"{row['name']:<12} stage={row['stage']:<17} "
            f"label={row['query_label']:<15} kind={row['kind']:<18} "
            f"deps={deps}"
        )
        if "built" in row:
            line += (
                f" built={'yes' if row['built'] else 'no':<3}"
                f" items={row['items']}"
            )
        print(line, file=out)
    return 0


def _run_top(args, out) -> int:
    """The ``top`` subcommand: the live terminal dashboard."""
    from repro.obs.top import TopDashboard

    dash = TopDashboard(args.url, window_s=args.window)
    try:
        frames = dash.run(
            iterations=args.iterations,
            interval=args.interval,
            out=out,
            clear=out.isatty() if hasattr(out, "isatty") else False,
        )
    except OSError as exc:  # URLError subclasses OSError
        raise SystemExit(f"cannot reach {args.url}: {exc}")
    return 0 if frames else 1


def _run(args, out) -> int:
    if args.command == "stats":
        lake = DataLake.from_directory(args.lake_dir)
        for key, value in lake.stats().items():
            print(f"{key:>8}: {value}", file=out)
        return 0

    if args.command == "build":
        return _run_build(args, out)

    if args.command == "profile":
        return _run_profile(args, out)

    if args.command == "query":
        return _run_query(args, out)

    if args.command == "serve-metrics":
        return _run_serve_metrics(args, out)

    if args.command == "slo":
        return _run_slo(args, out)

    if args.command == "inspect":
        return _run_inspect(args, out)

    if args.command == "engines":
        return _run_engines(args, out)

    if args.command == "top":
        return _run_top(args, out)

    if args.command == "keyword":
        system = _system(args.lake_dir, need_embeddings=False)
        for hit in system.keyword_search(args.query, k=args.k):
            print(f"{hit.table}\t{hit.score:.3f}", file=out)
        return 0

    if args.command == "join":
        system = _system(args.lake_dir, need_embeddings=False)
        ref = ColumnRef(args.table, args.column)
        for res in system.joinable_search(ref, k=args.k, method=args.method):
            print(f"{res.ref}\t{res.score:.3f}", file=out)
        return 0

    if args.command == "union":
        system = _system(
            args.lake_dir, need_embeddings=args.method == "starmie"
        )
        for res in system.unionable_search(
            args.table, k=args.k, method=args.method
        ):
            print(f"{res.table}\t{res.score:.3f}", file=out)
        return 0

    if args.command == "navigate":
        system = _system(args.lake_dir, need_embeddings=True)
        for name in system.navigate(args.intent):
            print(name, file=out)
        return 0

    if args.command == "domains":
        system = _system(args.lake_dir, need_embeddings=False, domains=True)
        for i, domain in enumerate(system.domains[: args.k]):
            sample = ", ".join(sorted(domain.values)[:5])
            print(
                f"domain {i}: {len(domain)} values "
                f"({len(domain.columns)} columns) e.g. {sample}",
                file=out,
            )
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    obs.configure_logging(getattr(args, "verbose", 0))
    # `profile` manages tracing itself; --profile wraps any other command,
    # and --trace-out implies span collection (a trace needs spans).
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    capturing = (
        getattr(args, "profile", False) or bool(trace_out)
    ) and args.command != "profile"
    if capturing:
        obs.reset()
        obs.enable_tracing()
    try:
        return _run(args, out)
    except DiscoveryError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from exc
    finally:
        if capturing:
            obs.disable_tracing()
        if capturing and getattr(args, "profile", False):
            print("\n-- profile: spans --", file=out)
            print(TRACER.render(), file=out)
            print("\n-- profile: metrics --", file=out)
            print(METRICS.render(), file=out)
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as f:
                json.dump(TRACER.to_chrome_trace(), f)
                f.write("\n")
            print(f"wrote {trace_out}", file=out)
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as f:
                f.write(METRICS.to_prometheus())
            print(f"wrote {metrics_out}", file=out)
