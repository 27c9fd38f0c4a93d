#!/usr/bin/env python3
"""Paired benchmark gate: this checkout against a base commit, on one machine.

Run from the repository root::

    python3 scripts/bench_pair.py BASE_REF [--seconds S] [--report bench_pair.json]

``BASE_REF``'s ``git archive`` is extracted into a temporary directory
(removed when the script ends).  Each checkout runs its own
``perfbench/run.py`` on every workload of the base's ``BENCHMARK.json``:
``PAIRS`` pairs of ``--trace 0`` runs (end-to-end metrics) and ``PAIRS``
pairs of ``--trace 1`` runs (per-layer metrics).  Within a pair both sides run the same lake, and
the side that runs first alternates, so a slow spell of the machine lands
on both.  The head is this checkout's working tree.  Bounds come from the
base's ``BENCHMARK.json``, so a change cannot loosen the gate that judges it.

The exit code is 1 when, on any workload:

* a run prints no result line, or a head run reports ``"correct": false``;
* the head's ``failed / attempted`` share is higher than the base's;
* an end-to-end metric's head median is worse than the base median by more
  than the metric's relative ``bound``;
* a traced ``query.<engine>.p50_ms`` head median is more than
  ``ENGINE_P50_BOUND`` above the base median (engines whose base median is
  above zero).

``--report`` receives one JSON document: every run's meta line (the lake
manifest: generator, parameters, seed, shape) and last-line record, and
every check with both medians.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Pairs of runs per workload and trace mode.
PAIRS = 7

#: Lake seed of every run.
SEED = 1

#: Largest allowed rise of a traced per-engine median p50 (0.35 = +35%).
ENGINE_P50_BOUND = 0.35

ENGINE_P50 = re.compile(r"query\.\w+\.p50_ms")


def git(*args: str, cwd: Path = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


@contextlib.contextmanager
def checkout(commit: str, dest: Path, repo: Path = ROOT):
    """``commit``'s committed files, extracted from its ``git archive`` at
    ``dest`` for the ``with`` block and removed on exit."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=repo, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    try:
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            # Python versions without extraction filters ignore the attribute.
            tar.extraction_filter = getattr(tarfile, "data_filter", None)
            tar.extractall(dest)
        yield dest
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def run_perfbench(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its exit code, meta line and
    last-line record (``None`` when it printed none)."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    run = {"exit": proc.returncode, "meta": meta, "result": result}
    if result is None:
        run["stderr"] = proc.stderr[-4000:]
    return run


def decide(spec: dict, runs: list[dict]) -> list[dict]:
    """The gate's checks, one row each.

    ``spec`` is a parsed ``BENCHMARK.json``; each run has ``workload``,
    ``trace``, ``side`` (``"base"`` or ``"head"``) and ``result`` (perfbench's
    last-line record, or ``None``).  A row is ``{"workload", "check",
    "base", "head", "limit", "ok"}``; medians are taken over the runs that
    have the metric.
    """
    rows: list[dict] = []
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]

        def results(side: str, trace: int | None = None) -> list[dict | None]:
            return [
                r["result"] for r in mine if r["side"] == side and trace in (None, r["trace"])
            ]

        def median(side: str, trace: int, name: str) -> float | None:
            values = [
                res["metrics"][name]["value"]
                for res in results(side, trace)
                if res is not None and name in res["metrics"]
            ]
            return statistics.median(values) if values else None

        def row(check: str, base, head, limit, ok: bool) -> None:
            rows.append(
                {"workload": workload, "check": check, "base": base, "head": head,
                 "limit": limit, "ok": bool(ok)}
            )

        missing = {side: results(side).count(None) for side in ("base", "head")}
        row("runs without a result", missing["base"], missing["head"], 0,
            not missing["base"] and not missing["head"])
        wrong = {
            side: sum(not res["correct"] for res in results(side) if res is not None)
            for side in ("base", "head")
        }
        row("runs not correct", wrong["base"], wrong["head"], 0, not wrong["head"])
        share = {}
        for side in ("base", "head"):
            done = [res for res in results(side) if res is not None]
            attempted = sum(res["attempted"] for res in done)
            share[side] = sum(res["failed"] for res in done) / attempted if attempted else 0.0
        row("failed/attempted", share["base"], share["head"], share["base"],
            share["head"] <= share["base"])

        for metric in spec["end_to_end"]:
            base, head = median("base", 0, metric["name"]), median("head", 0, metric["name"])
            if base is None or head is None:
                continue
            if metric["better"] == "lower":
                limit = base * (1 + metric["bound"])
                row(metric["name"], base, head, limit, head <= limit)
            else:
                limit = base * (1 - metric["bound"])
                row(metric["name"], base, head, limit, head >= limit)

        for metric in spec["per_layer"]:
            if not ENGINE_P50.fullmatch(metric["name"]):
                continue
            base, head = median("base", 1, metric["name"]), median("head", 1, metric["name"])
            if not base or head is None:
                continue
            limit = base * (1 + ENGINE_P50_BOUND)
            row(metric["name"], base, head, limit, head <= limit)
    return rows


def render(rows: list[dict]) -> str:
    def fmt(value) -> str:
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    return "\n".join(
        f"{'ok' if r['ok'] else 'FAIL':<4} {r['workload']:<14} {r['check']:<24} "
        f"base={fmt(r['base']):<12} head={fmt(r['head']):<12} limit={fmt(r['limit'])}"
        for r in rows
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", metavar="BASE_REF", help="commit to compare against, e.g. HEAD~1")
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    ap.add_argument("--report", type=Path, default=Path("bench_pair.json"), help="JSON report")
    args = ap.parse_args(argv)

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp, checkout(
        base_commit, Path(tmp) / "base"
    ) as base:
        spec = json.loads((base / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                for pair in range(PAIRS):
                    order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                    for side in order:
                        run = run_perfbench(
                            base if side == "base" else ROOT, workload, trace, seconds
                        )
                        runs.append(
                            {"workload": workload, "trace": trace, "pair": pair,
                             "side": side, **run}
                        )
                        print(
                            f"bench_pair: {workload} trace={trace} pair={pair} "
                            f"{side} exit={run['exit']}",
                            file=sys.stderr,
                        )

    rows = decide(spec, runs)
    failed = [r for r in rows if not r["ok"]]
    report = {
        "base": {"ref": args.base, "commit": base_commit},
        "head": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seed": SEED,
        "pairs": PAIRS,
        "seconds": seconds,
        "engine_p50_bound": ENGINE_P50_BOUND,
        "ok": not failed,
        "checks": rows,
        "runs": runs,
    }
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(report, indent=1) + "\n")
    print(render(rows))
    print(
        f"bench_pair: {len(failed)} of {len(rows)} checks failed; report in {args.report}"
        if failed
        else f"bench_pair: all {len(rows)} checks passed; report in {args.report}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
