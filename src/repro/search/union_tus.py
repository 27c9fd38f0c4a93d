"""Table Union Search (Nargesian et al., VLDB'18).

Defines *attribute unionability* — the likelihood two columns draw from the
same domain — under three signals, then aggregates column scores to table
scores with bipartite matching:

* set unionability  — value overlap (MinHash Jaccard estimate);
* sem unionability  — cosine of ontology class distributions;
* nl unionability   — cosine of distributional embeddings;
* ensemble          — the max of the available signals (the paper picks the
  measure with the highest goodness per attribute pair).

Search is one exact pass over per-column matrices built offline: MinHash
signatures, embeddings, class vectors and the *slot-agreement* matrix,
whose entry ``(i, j)`` counts the MinHash slots on which indexed columns
``i`` and ``j`` agree; the columns and signatures are the rows of the
:class:`~repro.search.joinable.ColumnSets` the join engines read.  An
indexed lake table queried by reference reads its own rows of them, so
its set scores are stored counts divided by ``num_perm`` and nothing is
sketched or compared; only a column outside the index is signed and
compared slot by slot with every indexed row.
Candidate tables share at least one MinHash slot with a query column:
what a banded LSH at threshold 0.05 returns, since its optimal banding is
one slot per band for 8–205 permutations.  The agreement matrix is square
in the number of indexed columns (37 KB at 192 columns), as PEXESO's reach
matrix grows with the vocabulary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import Column, ColumnRef, Table
from repro.obs import TRACER
from repro.search.aggregate import table_unionability
from repro.search.explain import ExplainReport
from repro.search.joinable import ColumnSets
from repro.search.results import TableResult
from repro.sketch.minhash import MinHash
from repro.understanding.embedding import EmbeddingSpace

MEASURES = ("set", "sem", "nl", "ensemble")

#: Signature rows per block of the agreement build.  A block compares
#: ``AGREE_BLOCK x columns x num_perm`` slots at once (786 KB of booleans
#: at 192 columns); wider blocks compare more of the lower triangle.
AGREE_BLOCK = 32


def slot_agreement(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """``(len(a), len(b))`` counts of the slots on which rows of ``a`` and
    ``b`` agree, as ``dtype``."""
    return (a[:, None, :] == b[None, :, :]).sum(axis=2, dtype=dtype)


def agreement_matrix(signatures: np.ndarray) -> np.ndarray:
    """Symmetric slot-agreement counts of every pair of signature rows, in
    the narrowest unsigned dtype that holds ``num_perm``.

    Block ``a:b`` compares rows ``a:b`` with rows ``a:`` only and is
    mirrored into columns ``a:b``, so the lower triangle is never compared.
    MinHash values are below ``2**31``, so comparing them as uint32 is exact.
    """
    n, num_perm = signatures.shape
    sigs = signatures.astype(np.uint32)
    agree = np.empty((n, n), dtype=np.min_scalar_type(num_perm))
    for a in range(0, n, AGREE_BLOCK):
        b = min(a + AGREE_BLOCK, n)
        agree[a:b, a:] = slot_agreement(sigs[a:b], sigs[a:], agree.dtype)
        agree[a:, a:b] = agree[a:b, a:].T
    return agree


@dataclass
class TusConfig:
    measure: str = "ensemble"


class TableUnionSearch:
    """Attribute-unionability-based unionable table search."""

    def __init__(
        self,
        ontology: Ontology | None = None,
        space: EmbeddingSpace | None = None,
        config: TusConfig | None = None,
    ):
        self.ontology = ontology
        self.space = space
        self.config = config or TusConfig()
        if self.config.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.config.measure!r}")
        #: indexed text columns in lake order; row i of each matrix is refs[i]
        self.refs: list[ColumnRef] = []
        #: the ColumnSets signature rows (not a copy), one per refs entry
        self._signatures: np.ndarray | None = None
        #: (columns x columns) slot-agreement counts of the signature rows
        self._agree = np.zeros((0, 0), dtype=np.uint8)
        self._embeddings = np.zeros((0, 0))
        #: sorted ontology classes seen in the lake, the class-vector columns
        self._classes: list[str] = []
        self._class_vectors = np.zeros((0, 0))
        #: table name -> (first, last + 1) row of its columns
        self._slices: dict[str, tuple[int, int]] = {}
        #: tables in the lake at build, the ``tables_in_lake`` EXPLAIN count
        self._tables = 0

    # -- offline ------------------------------------------------------------------

    def build(
        self, lake: DataLake, sets: ColumnSets | None = None
    ) -> "TableUnionSearch":
        """Index the rows of ``sets``, the :class:`ColumnSets` of ``lake``
        (built here when not given): its columns, in its row order, and
        its signature matrix as it is."""
        sets = sets or ColumnSets(lake)
        refs = sets.refs
        slices: dict[str, tuple[int, int]] = {}
        for r, ref in enumerate(refs):
            slices[ref.table] = (slices.get(ref.table, (r,))[0], r + 1)
        value_sets = [lake.column(ref).value_set() for ref in refs]
        self.refs, self._slices = refs, slices
        self._tables = len(lake.table_names())
        self._signatures = sets.sigs
        self._agree = agreement_matrix(self._signatures)
        self._embeddings = self._embed(value_sets)
        counts = [self._class_counts(values) for values in value_sets]
        self._classes = sorted(set().union(*counts))
        self._class_vectors = self._class_rows(counts)
        return self

    def stats(self) -> dict:
        """Introspection: indexed columns and the shapes of the matrices."""
        return {
            "columns": len(self.refs),
            "signatures": list(self._signatures.shape),
            "agreement_bytes": self._agree.nbytes,
            "classes": len(self._classes),
            "embedding_dim": self._embeddings.shape[1],
            "measure": self.config.measure,
        }

    def _sign(self, value_sets) -> np.ndarray:
        num_perm = self._signatures.shape[1]
        return np.array(
            [MinHash.from_values(v, num_perm=num_perm).hashvalues for v in value_sets],
            dtype=np.uint64,
        ).reshape(len(value_sets), num_perm)

    def _embed(self, value_sets) -> np.ndarray:
        """One embedding row per value set; zero columns without a space."""
        if self.space is None:
            return np.zeros((len(value_sets), 0))
        return np.array([self.space.embed_set(v) for v in value_sets]).reshape(
            len(value_sets), self.space.dim
        )

    def _class_counts(self, values) -> Counter:
        if self.ontology is None:
            return Counter()
        return Counter(
            cls for v in values for cls in self.ontology.classes_of(v, with_ancestors=False)
        )

    def _class_rows(self, counts: list[Counter]) -> np.ndarray:
        """Count rows over ``_classes``, each divided by the norm of its full
        count vector, so a row product is a class-distribution cosine."""
        index = {cls: i for i, cls in enumerate(self._classes)}
        rows = np.zeros((len(counts), len(self._classes)))
        for r, row_counts in enumerate(counts):
            norm = sum(n * n for n in row_counts.values()) ** 0.5
            for cls, n in row_counts.items():
                if cls in index:
                    rows[r, index[cls]] = n / norm
        return rows

    # -- online ---------------------------------------------------------------------

    def column_scores(
        self,
        columns: list[Column],
        measure: str | None = None,
        rows: list[int | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Attribute unionability of each column with every indexed column.

        ``rows[i]``, when given and not ``None``, is the indexed row that
        already holds ``columns[i]``'s agreement, class and embedding rows;
        the other columns are sketched from their cells, and only their
        signatures are compared with the indexed ones.

        Returns ``(scores, shares_slot)``: the ``(len(columns), len(refs))``
        score matrix, whose column j scores ``refs[j]``, and whether each
        indexed column shares a MinHash slot with any of ``columns``.
        """
        if self._signatures is None:
            raise RuntimeError("call build() before searching")
        measure = measure or self.config.measure
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        rows = rows or [None] * len(columns)
        fresh = [i for i, r in enumerate(rows) if r is None]
        value_sets = [columns[i].value_set() for i in fresh]

        kept = [i for i, r in enumerate(rows) if r is not None]

        def query(stored: np.ndarray, compute) -> np.ndarray:
            """The query columns' rows: stored ones gathered, the rest
            computed from ``value_sets``."""
            out = np.empty((len(rows), stored.shape[1]), dtype=stored.dtype)
            out[kept] = stored[[rows[i] for i in kept]]
            if fresh:
                out[fresh] = compute(value_sets)
            return out

        agree = query(
            self._agree,
            lambda sets: slot_agreement(self._sign(sets), self._signatures, self._agree.dtype),
        )
        parts = []
        if measure in ("set", "ensemble"):
            parts.append(agree / self._signatures.shape[1])
        if measure in ("sem", "ensemble"):
            classes = query(
                self._class_vectors,
                lambda sets: self._class_rows([self._class_counts(v) for v in sets]),
            )
            parts.append(classes @ self._class_vectors.T)
        if measure in ("nl", "ensemble"):
            embedded = query(self._embeddings, self._embed)
            parts.append(np.maximum(embedded @ self._embeddings.T, 0.0))
        return np.maximum.reduce(parts), (agree > 0).any(axis=0)

    def search(
        self,
        query: Table,
        k: int = 10,
        measure: str | None = None,
        report: ExplainReport | None = None,
        by_ref: bool = False,
    ) -> list[TableResult]:
        """Top-k unionable tables under the chosen measure, each candidate
        table's slice of the score matrix aligned by the Hungarian matcher.

        ``by_ref`` says ``query`` is the indexed lake table of that name:
        its indexed columns then read their stored rows.  A given
        ``report`` gets the query, the params and the funnel.
        """
        measure = measure or self.config.measure
        text = query.text_columns()
        span = self._slices.get(query.name) if by_ref else None
        by_ref = span is not None
        rows = None
        if by_ref:
            stored = {ref.index: r for r, ref in enumerate(self.refs[slice(*span)], span[0])}
            rows = [stored.get(i) for i, _ in text]
        TRACER.current().set("by_ref", by_ref)
        scores, shares_slot = self.column_scores([c for _, c in text], measure, rows)
        names = sorted(
            {self.refs[j].table for j in np.flatnonzero(shares_slot)} - {query.name}
        )
        results = []
        for name in names:
            first, last = self._slices[name]
            total, pairs = table_unionability(scores[:, first:last])
            if total > 0:
                alignment = tuple((i, self.refs[first + j].index, s) for i, j, s in pairs)
                results.append(TableResult(name, total, alignment))
        out = sorted(results)[:k]
        if report is not None:
            report.query = query.name
            report.params = {"measure": measure, "by_ref": by_ref}
            report.stage("tables_in_lake", self._tables)
            report.stage("candidates", len(names))
            report.stage("positive", len(results))
        return out
