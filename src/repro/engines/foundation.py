"""Foundation stages: the understanding layer registered behind the same
engine protocol as the search engines.

Embeddings, domain discovery, and ontology annotation do not answer
queries themselves — they produce the shared inputs that the downstream
indexes consume.  Registering them as ``category="foundation"`` engines
means the stage DAG, snapshot payload, and build scheduling all derive
from one registry instead of special-casing the understanding stages by
hand.

Each keeps its output in :attr:`~repro.core.engine.Engine.raw`, as the
``column_sets`` foundation does: the contextual column encoder (which
holds the embedding space), the discovered domains, and the table
annotations.  The owning :class:`~repro.core.system.DiscoverySystem`
exposes them as read-only ``space``, ``encoder``, ``domains`` and
``annotations``, which the downstream engines and the online facade read.
"""

from __future__ import annotations

from repro.core.engine import Engine, register_engine
from repro.obs import METRICS
from repro.understanding.annotate import OntologyAnnotator
from repro.understanding.contextual import ContextualColumnEncoder
from repro.understanding.domains import DomainDiscovery
from repro.understanding.embedding import train_embeddings


@register_engine
class EmbeddingsFoundation(Engine):
    """Lake-wide value embeddings, held by the contextual column encoder
    (:attr:`raw`, whose ``space`` is the embedding space)."""

    name = "embeddings"
    stage = "embeddings"
    category = "foundation"
    kind = "embedding-space"

    def build(self) -> None:
        system = self.ctx
        cfg = system.config
        space = train_embeddings(
            system.lake,
            dim=cfg.embedding_dim,
            min_count=cfg.embedding_min_count,
            seed=cfg.seed,
        )
        system.stats.vocabulary = len(space.vocab)
        METRICS.set_gauge("embedding.vocabulary", system.stats.vocabulary)
        self.raw = ContextualColumnEncoder(
            space, context_weight=cfg.context_weight
        )

    def stats(self) -> dict:
        if self.raw is None:
            return {"vocabulary": 0, "dim": 0}
        space = self.raw.space
        return {"vocabulary": len(space.vocab), "dim": space.dim}


@register_engine
class DomainsFoundation(Engine):
    """Value-overlap domain discovery over the lake's text columns
    (:attr:`raw`, the list of domains)."""

    name = "domains"
    stage = "domains"
    category = "foundation"
    kind = "value-domains"

    def build(self) -> None:
        self.raw = DomainDiscovery().discover(self.ctx.lake)
        self.ctx.stats.domains_found = len(self.raw)

    def stats(self) -> dict:
        return {"domains": len(self.raw or ())}


@register_engine
class AnnotationFoundation(Engine):
    """Ontology class annotation of every table (:attr:`raw`, table name
    -> annotation; feeds SANTOS)."""

    name = "annotation"
    stage = "annotation"
    category = "foundation"
    kind = "ontology-annotations"

    def build(self) -> None:
        annotator = OntologyAnnotator(self.ctx.ontology)
        self.raw = {table.name: annotator.annotate(table) for table in self.ctx.lake}

    def stats(self) -> dict:
        return {"annotated_tables": len(self.raw or ())}
