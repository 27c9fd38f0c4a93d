"""Metric catalogue: names, units and directions come from ``BENCHMARK.json``;
this module adds which layer (module) each per-layer metric measures and
which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END: list[dict] = SPEC["end_to_end"]
PER_LAYER: list[dict] = SPEC["per_layer"]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

UNION, JOIN, POINT = "union_lake", "join_lake", "point_lookups"


def _layer(module: str, moves: list[str], workloads: list[str]) -> dict:
    return {"layer": module, "moves": moves, "workloads": workloads}


#: per-layer metric -> {layer, end-to-end metrics it moves, workloads}
LAYER_MAP: dict[str, dict] = {}

for _stage in (
    "embeddings", "domains", "annotation", "keyword_index", "join_index",
    "union_index", "correlation_index", "mate_index", "navigation",
):
    LAYER_MAP[f"build.stage.{_stage}_s"] = _layer("core.dag", ["setup_s"], [UNION])
LAYER_MAP["build.jobs2_speedup"] = _layer("core.dag", ["setup_s"], [UNION, JOIN, POINT])
for _engine, _where in {
    "embeddings": [UNION], "domains": [UNION], "annotation": [UNION, POINT],
    "keyword": [POINT], "josie": [JOIN], "lshensemble": [JOIN], "jaccard_lsh": [JOIN],
    "mate": [JOIN], "qcr": [JOIN], "tus": [UNION], "starmie": [UNION],
    "santos": [UNION], "pexeso": [UNION], "organization": [UNION],
}.items():
    LAYER_MAP[f"build.engine.{_engine}_s"] = _layer("engines", ["setup_s"], _where)
for _engine, _where in {
    "keyword": [POINT], "josie": [JOIN, POINT], "lshensemble": [JOIN, POINT],
    "pexeso": [UNION], "mate": [JOIN], "qcr": [JOIN], "tus": [UNION, JOIN],
    "starmie": [UNION], "santos": [UNION, POINT], "federated": [UNION, JOIN, POINT],
}.items():
    LAYER_MAP[f"query.{_engine}.p50_ms"] = _layer("search", ["qps", "query_p95_ms"], _where)
LAYER_MAP["facade.self_us.p50"] = _layer("core.system", ["qps", "query_p50_ms"], [POINT])
LAYER_MAP["obs.trace_overhead_pct"] = _layer("obs", ["qps"], [POINT])
LAYER_MAP["hnsw.distance_computations"] = _layer("sketch.hnsw", ["setup_s"], [UNION])
LAYER_MAP["hnsw.nodes_added"] = _layer("sketch.hnsw", ["setup_s"], [UNION])
LAYER_MAP["minhash.signatures_built"] = _layer("sketch.minhash", ["qps"], [UNION])
LAYER_MAP["pexeso.candidates_verified"] = _layer("search.pexeso", ["qps"], [UNION])
LAYER_MAP["starmie.candidates_examined"] = _layer("search.union_starmie", ["qps"], [UNION])
LAYER_MAP["mate.rows_checked"] = _layer("search.mate", ["qps", "query_p95_ms"], [JOIN])
LAYER_MAP["mate.filter_pass_ratio"] = _layer("search.mate", ["qps", "query_p95_ms"], [JOIN])
LAYER_MAP["qcr.sketches_compared"] = _layer("search.correlated", ["qps"], [JOIN])
LAYER_MAP["lshensemble.verify_ratio"] = _layer("sketch.lshensemble", ["qps"], [JOIN])
LAYER_MAP["inverted.postings_reads"] = _layer("sketch.inverted", ["qps"], [JOIN, POINT])
LAYER_MAP["keyword.docs_scored"] = _layer("search.keyword", ["qps"], [POINT])
for _engine, _where in {
    "keyword": [POINT], "josie": [JOIN, POINT], "lshensemble": [JOIN, POINT],
    "mate": [JOIN], "pexeso": [UNION], "tus": [UNION], "starmie": [UNION],
    "santos": [UNION, POINT], "federated": [UNION, JOIN, POINT],
}.items():
    LAYER_MAP[f"quality.{_engine}.recall_at_10"] = _layer("search", ["recall_at_10"], _where)
for _engine, _where in {"josie": [JOIN], "pexeso": [UNION], "mate": [JOIN]}.items():
    LAYER_MAP[f"quality.{_engine}.exact_agreement"] = _layer("search", ["recall_at_10"], _where)
LAYER_MAP["snapshot.save_s"] = _layer("core.snapshot", ["reload_s"], [UNION])
LAYER_MAP["snapshot.mb"] = _layer("core.snapshot", ["reload_s"], [UNION])
for _engine, _where in {
    "keyword": [POINT], "josie": [JOIN], "lshensemble": [JOIN], "jaccard_lsh": [JOIN],
    "mate": [JOIN], "qcr": [JOIN], "tus": [UNION], "starmie": [UNION],
    "santos": [UNION], "pexeso": [UNION], "organization": [UNION],
}.items():
    LAYER_MAP[f"index.{_engine}.mb"] = _layer("engines", ["index_mb"], _where)
