"""Index snapshots: persist a built ``DiscoverySystem`` and reload it
without re-running any pipeline stage.

On lakes where offline indexing dominates end-to-end cost, rebuilding
every index on process start is the single largest waste of hardware.  A
snapshot is a directory with two files:

``manifest.json``
    Human-readable provenance and compatibility gate: the snapshot format
    version, a hash of the build-relevant configuration, a fingerprint of
    the lake contents, a checksum of the payload, and the stages that ran.

``payload.pkl``
    One pickle of the complete built state: the config, the ontology, the
    ``raw`` of every built engine and foundation stage, keyed by registry
    name, and the lake's own pickled bytes.  The ``raw`` objects are
    dumped together so shared objects (the embedding space referenced by
    several indexes, the ``column_sets`` store and signature rows the
    three join engines read) stay shared on reload via pickle's memo.  No
    ``raw`` holds the lake or one of its tables or columns (an index that
    searches the lake receives it in ``build``), so a reloaded system
    holds one lake: the caller's live lake when one is given (whose
    stored bytes are then never unpickled), else the stored one.

``load()`` refuses to serve anything it cannot prove matches: a format
version this code does not read, a payload whose checksum disagrees with
the manifest, a lake whose fingerprint changed since ``save()``, or a
caller config whose build-relevant hash differs.  Every refusal raises
:class:`~repro.core.errors.SnapshotError` with the reason — a stale
snapshot must fail loudly, not silently serve wrong results.  Hits and
misses are recorded in ``METRICS`` (``snapshot.load.hit`` /
``snapshot.load.miss``).

Runtime-only knobs (``build_jobs``, trace sampling, SLOs) are excluded
from the config hash: they change how or when a build runs, never what
the indexes contain, so a snapshot saved by a ``--jobs 8`` build loads
under any job count.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import DiscoveryConfig
from repro.core.errors import SnapshotError
from repro.obs import METRICS, TRACER, get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import DiscoverySystem
    from repro.datalake.lake import DataLake

log = get_logger("core.snapshot")

#: Bumped whenever the payload layout changes incompatibly.
#: Version 2: per-engine payloads keyed by registry name (version 1 stored
#: a fixed attribute list and is refused by this code).  Version 3: the
#: PEXESO payload holds one value-vector matrix instead of an HNSW graph.
#: Version 4: the Starmie payload holds one column-vector matrix instead of
#: a vector dict plus an HNSW graph.  Version 5: the MATE payload holds
#: inverted cell postings and a super-key array instead of per-row sets.
#: Version 6: the TUS payload holds signature, embedding and class-vector
#: matrices instead of per-column dicts plus a MinHash LSH.  Version 7:
#: the pickled ontology keys its class-level relations by class pair
#: instead of by relation name.  Version 8: the QCR payload holds one
#: hash-sorted sample store (hash, value and owning-sketch arrays) instead
#: of one ``CorrelationSketch`` per column pair.  Version 9: LSH Ensemble
#: and the Jaccard MinHash LSH each hold one signature matrix instead of
#: per-band bucket dicts.  Version 10: JOSIE and MATE each hold one CSR
#: token-set store (vocab, offsets, key-id postings and sorted forward
#: rows) instead of a posting dict plus frozensets and a private CSR.
#: Version 11: MATE keeps only the store's posting side (vocab, offsets,
#: postings), not its forward rows.  Version 12: PEXESO holds int32 rows
#: of the embedding space's vector matrix per indexed column instead of a
#: private copy of the value vectors.  Version 13: MATE holds per-cell
#: super-key masks and per-table row offsets instead of a per-row table
#: array, and its cell ids follow first-seen lake order.  Version 14:
#: JOSIE's token ids follow sorted token order, LSH Ensemble and the
#: Jaccard MinHash LSH map each key to its signature row, Starmie maps
#: each table to its columns' matrix rows, and PEXESO holds one boolean
#: CSR column-membership matrix (plus a ref -> row map) instead of an id
#: array and segment starts.  Version 15: QCR maps each sketch to an
#: int32 table id, and SANTOS holds a table x class membership matrix and
#: a table x relationship-pair support matrix besides its semantics.
#: Version 16: the ``column_sets`` foundation holds JOSIE's store and the
#: lake-order signature rows; JOSIE's payload is that object, and LSH
#: Ensemble and the Jaccard LSH each hold only their own index (the
#: Jaccard LSH's matrix is the foundation's rows, not a copy).  Version
#: 17: MATE's cells, QCR's key hashes and the ontology are keyed by
#: ``cell_key`` (nulls dropped), and ontology classes hold no value copies.
#: Version 18: PEXESO also holds its build-time boolean CSC column x
#: vocabulary reach matrix (its ``tau`` is fixed at build).  Version 19:
#: TUS also holds its column x column slot-agreement count matrix.
#: Version 20: TUS's signature rows are the ``column_sets`` foundation's
#: matrix (one object in the dump, not a copy), and every lake column may
#: carry its cached row-aligned ``cell_keys`` view.  Version 21: the
#: lake is pickled by itself into the payload's ``lake`` bytes, and the
#: TUS, Starmie and SANTOS payloads hold no lake.  Version 22: the keyword
#: index holds per-token postings (document names, term frequencies and
#: BM25 denominators) instead of per-document term counts and a document
#: frequency table.  Version 23: the ``embeddings``, ``domains`` and
#: ``annotation`` foundation payloads are their artifacts themselves (the
#: contextual encoder, which holds the space; the domain list; the
#: annotation dict) instead of dicts naming them.  Version 24: the payload
#: holds each built engine's and foundation's ``raw`` in one ``raw`` dict;
#: the TUS, Starmie and SANTOS indexes keep no lake slot, TUS keeps the
#: lake's table count, and the navigation ``Organization`` holds its table
#: vectors.
FORMAT_VERSION = 24

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.pkl"

#: Config fields that do not affect built index content.
RUNTIME_ONLY_FIELDS = frozenset(
    {"build_jobs", "trace_sample_rate", "slow_query_ms", "slos"}
)

def config_hash(config: DiscoveryConfig) -> str:
    """Stable short hash of the build-relevant configuration fields."""
    payload = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in RUNTIME_ONLY_FIELDS
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def lake_fingerprint(lake: "DataLake") -> str:
    """Content fingerprint of a lake: every table name, header, metadata
    record, and cell value, hashed in sorted-table order."""
    h = hashlib.sha256()
    for name in sorted(lake.table_names()):
        table = lake.table(name)
        h.update(b"\x00T" + name.encode("utf-8"))
        meta = getattr(table, "metadata", None)
        if meta is not None:
            h.update(b"\x00M" + repr(meta).encode("utf-8"))
        for col in table.columns:
            h.update(b"\x00C" + col.name.encode("utf-8"))
            # One update per column: the same bytes as one "\x00v"-led
            # update per cell, so the same digest.  An empty column adds
            # nothing.
            if col.values:
                try:
                    cells = "\x00v".join(col.values)
                except TypeError:  # a non-str cell written after construction
                    cells = "\x00v".join(map(str, col.values))
                h.update(("\x00v" + cells).encode("utf-8"))
    return h.hexdigest()


@dataclass
class SnapshotManifest:
    """The versioned compatibility record stored beside the payload."""

    format_version: int
    created_at: str
    config_hash: str
    lake_fingerprint: str
    payload_sha256: str
    stages: list[str]
    skipped_stages: list[str]
    build_jobs: int
    tables: int
    columns: int
    #: Registry names of the engines whose payloads the snapshot holds.
    engines: list[str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "created_at": self.created_at,
            "config_hash": self.config_hash,
            "lake_fingerprint": self.lake_fingerprint,
            "payload_sha256": self.payload_sha256,
            "stages": list(self.stages),
            "skipped_stages": list(self.skipped_stages),
            "build_jobs": self.build_jobs,
            "tables": self.tables,
            "columns": self.columns,
            "engines": list(self.engines),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SnapshotManifest":
        try:
            return cls(
                format_version=int(d["format_version"]),
                created_at=str(d["created_at"]),
                config_hash=str(d["config_hash"]),
                lake_fingerprint=str(d["lake_fingerprint"]),
                payload_sha256=str(d["payload_sha256"]),
                stages=list(d["stages"]),
                skipped_stages=list(d.get("skipped_stages", [])),
                build_jobs=int(d.get("build_jobs", 1)),
                tables=int(d.get("tables", 0)),
                columns=int(d.get("columns", 0)),
                engines=list(d.get("engines", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot manifest: {exc}") from exc


def read_manifest(directory: str | Path) -> SnapshotManifest:
    """Read and validate the manifest of a snapshot directory."""
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SnapshotError(
            f"no snapshot at {directory!s}: missing {MANIFEST_NAME}"
        ) from None
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"corrupt snapshot manifest at {path}: {exc}"
        ) from exc
    return SnapshotManifest.from_dict(raw)


def save_snapshot(
    system: "DiscoverySystem", directory: str | Path
) -> SnapshotManifest:
    """Persist a built system's complete state under ``directory``."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    # The raw of every built foundation and engine; a single pickle dump
    # keeps structures co-owned by several engines shared on reload.
    raws = {
        name: unit.raw
        for name, unit in {**system.foundations, **system.engines}.items()
        if unit.is_built()
    }
    payload: dict[str, Any] = {
        "config": system.config,
        # Pickled by itself: a load given the live lake never unpickles it.
        "lake": pickle.dumps(system.lake, protocol=pickle.HIGHEST_PROTOCOL),
        "ontology": system.ontology,
        "stats": system.stats,
        "skipped_stages": sorted(system.skipped_stages),
        "raw": raws,
    }
    with TRACER.span("snapshot.save", force=True, dir=str(path)) as sp:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = SnapshotManifest(
            format_version=FORMAT_VERSION,
            created_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            config_hash=config_hash(system.config),
            lake_fingerprint=lake_fingerprint(system.lake),
            payload_sha256=hashlib.sha256(blob).hexdigest(),
            stages=list(system.stats.stage_seconds),
            skipped_stages=sorted(system.skipped_stages),
            build_jobs=int(system.provenance.get("build_jobs", 1)),
            tables=system.stats.tables,
            columns=system.stats.columns,
            engines=sorted(set(raws) & set(system.engines)),
        )
        (path / PAYLOAD_NAME).write_bytes(blob)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        sp.set("bytes", len(blob))
    METRICS.inc("snapshot.saves")
    METRICS.set_gauge("snapshot.payload_bytes", len(blob))
    log.info(
        "saved snapshot to %s (%d bytes, config %s, lake %s)",
        path,
        len(blob),
        manifest.config_hash,
        manifest.lake_fingerprint[:12],
    )
    return manifest


def _miss(reason: str) -> SnapshotError:
    METRICS.inc("snapshot.load.miss")
    return SnapshotError(reason)


def load_snapshot(
    directory: str | Path,
    lake: "DataLake | None" = None,
    config: DiscoveryConfig | None = None,
    ontology=None,
) -> "DiscoverySystem":
    """Reconstruct a built :class:`DiscoverySystem` from a snapshot.

    ``lake`` (optional) is the live lake the caller intends to query: its
    fingerprint must match the manifest, otherwise the snapshot is stale
    and refused.  ``config`` (optional) likewise must hash to the saved
    build config.  With neither given, the snapshot's own lake and config
    are used verbatim.
    """
    from repro.core.system import DiscoverySystem

    path = Path(directory)
    with TRACER.span("snapshot.load", force=True, dir=str(path)) as sp:
        try:
            manifest = read_manifest(path)
        except SnapshotError as exc:
            raise _miss(str(exc)) from None
        if manifest.format_version != FORMAT_VERSION:
            raise _miss(
                f"snapshot at {path} has format version "
                f"{manifest.format_version}; this build reads version "
                f"{FORMAT_VERSION} — rebuild and re-save the snapshot"
            )
        try:
            blob = (path / PAYLOAD_NAME).read_bytes()
        except FileNotFoundError:
            raise _miss(
                f"snapshot at {path} is incomplete: missing {PAYLOAD_NAME}"
            ) from None
        digest = hashlib.sha256(blob).hexdigest()
        if digest != manifest.payload_sha256:
            raise _miss(
                f"snapshot payload at {path} is corrupt: checksum "
                f"{digest[:12]} does not match manifest "
                f"{manifest.payload_sha256[:12]}"
            )
        if config is not None:
            want = config_hash(config)
            if want != manifest.config_hash:
                raise _miss(
                    f"snapshot at {path} was built with config "
                    f"{manifest.config_hash}, requested config hashes to "
                    f"{want} — rebuild with the new config or drop the "
                    "overrides"
                )
        if lake is not None:
            fp = lake_fingerprint(lake)
            if fp != manifest.lake_fingerprint:
                raise _miss(
                    f"snapshot at {path} is stale: lake fingerprint "
                    f"{fp[:12]} does not match saved "
                    f"{manifest.lake_fingerprint[:12]} — the lake changed "
                    "since the snapshot was saved; rebuild it"
                )
        try:
            payload = pickle.loads(blob)
            saved_config: DiscoveryConfig = payload["config"]
            raws = payload["raw"]
            if lake is None:
                lake = pickle.loads(payload["lake"])
        except SnapshotError:
            raise
        except Exception as exc:
            raise _miss(
                f"snapshot payload at {path} cannot be decoded: {exc}"
            ) from exc

        system = DiscoverySystem(
            lake,
            saved_config,
            ontology if ontology is not None else payload["ontology"],
        )
        system.stats = payload["stats"]
        system.skipped_stages = set(payload.get("skipped_stages", ()))
        units = {**system.foundations, **system.engines}
        for name, raw in raws.items():
            if name not in units:
                log.warning(
                    "snapshot holds payload for unknown engine %r "
                    "(saved by a build with more engines registered); "
                    "skipping it",
                    name,
                )
                continue
            units[name].raw = raw
        system._built = True
        system.provenance = {
            "source": "snapshot",
            "path": str(path),
            "created_at": manifest.created_at,
            "format_version": manifest.format_version,
            "config_hash": manifest.config_hash,
            "lake_fingerprint": manifest.lake_fingerprint,
            "build_jobs": manifest.build_jobs,
            "stages": list(manifest.stages),
            "skipped": list(manifest.skipped_stages),
            "engines": list(manifest.engines),
        }
        sp.set("bytes", len(blob))
    METRICS.inc("snapshot.load.hit")
    log.info(
        "loaded snapshot from %s (%d tables, %d stages, saved %s)",
        path,
        manifest.tables,
        len(manifest.stages),
        manifest.created_at,
    )
    return system
