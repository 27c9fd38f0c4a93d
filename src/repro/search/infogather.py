"""InfoGather-style entity augmentation (Yakout et al., SIGMOD'12).

The earliest joinable-search flavour the survey covers (§2.4): given a
query table's entity column, *augment* it —

* **by attribute name**: find lake columns whose header matches a requested
  attribute and whose table joins on the entities, then fill values;
* **by example**: given a few (entity, value) examples, find lake column
  pairs consistent with them and extend the mapping to the other entities.

Holistic matching is approximated by voting across all supporting tables,
which is the mechanism InfoGather's PPR propagation ultimately feeds.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.datalake.lake import DataLake
from repro.datalake.table import cell_key, tokenize


def _header_similarity(a: str, b: str) -> float:
    ta, tb = set(tokenize(a)), set(tokenize(b))
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


@dataclass
class Augmentation:
    """Result of an augmentation request."""

    #: entity -> predicted value (majority vote across supporting tables)
    values: dict[str, str] = field(default_factory=dict)
    #: entity -> number of supporting (table, column) pairs
    support: dict[str, int] = field(default_factory=dict)
    #: tables that contributed at least one value
    sources: list[str] = field(default_factory=list)

    def coverage(self, entities: list[str]) -> float:
        if not entities:
            return 0.0
        hit = sum(1 for e in entities if cell_key(e) in self.values)
        return hit / len(entities)


class InfoGather:
    """Entity augmentation over a data lake."""

    def __init__(self, lake: DataLake, min_header_similarity: float = 0.5):
        self.lake = lake
        self.min_header_similarity = min_header_similarity
        #: value -> [(table, column index, row)] occurrences of entities
        self._entity_index: dict[str, list[tuple[str, int, int]]] = defaultdict(list)
        self._built = False

    def build(self) -> "InfoGather":
        """Index every text cell for entity lookup."""
        for table in self.lake:
            for ci, col in table.text_columns():
                for ri, v in enumerate(col.cell_keys()):
                    if v:
                        self._entity_index[v].append((table.name, ci, ri))
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before augmenting")

    # -- augmentation by attribute name ------------------------------------------

    def augment_by_attribute(
        self, entities: list[str], attribute: str
    ) -> Augmentation:
        """Fill ``attribute`` for each entity by majority vote over lake
        tables that contain the entity and a matching-header column."""
        self._require_built()
        votes: dict[str, Counter[str]] = defaultdict(Counter)
        sources: set[str] = set()
        for raw_entity in entities:
            entity = cell_key(raw_entity)
            for tname, ci, ri in self._entity_index.get(entity, ()):
                table = self.lake.table(tname)
                for cj, col in enumerate(table.columns):
                    if cj == ci:
                        continue
                    if (
                        _header_similarity(col.name, attribute)
                        < self.min_header_similarity
                    ):
                        continue
                    value = col.cell_keys()[ri]
                    if value:
                        votes[entity][value] += 1
                        sources.add(tname)
        out = Augmentation(sources=sorted(sources))
        for entity, counter in votes.items():
            value, n = counter.most_common(1)[0]
            out.values[entity] = value
            out.support[entity] = sum(counter.values())
        return out

    # -- augmentation by example ---------------------------------------------------

    def augment_by_example(
        self,
        entities: list[str],
        examples: dict[str, str],
        min_example_hits: int = 2,
    ) -> Augmentation:
        """Extend a partial (entity -> value) mapping.

        Finds (table, entity column, value column) triples consistent with
        >= ``min_example_hits`` of the examples, then applies them to the
        remaining entities with majority voting.
        """
        self._require_built()
        examples = {cell_key(k): cell_key(v) for k, v in examples.items()}
        # Score candidate column pairs by example agreement.
        pair_hits: Counter[tuple[str, int, int]] = Counter()
        for entity, expected in examples.items():
            for tname, ci, ri in self._entity_index.get(entity, ()):
                table = self.lake.table(tname)
                for cj, col in enumerate(table.columns):
                    if cj == ci:
                        continue
                    if expected and col.cell_keys()[ri] == expected:
                        pair_hits[(tname, ci, cj)] += 1
        good_pairs = [
            pair for pair, hits in pair_hits.items() if hits >= min_example_hits
        ]
        votes: dict[str, Counter[str]] = defaultdict(Counter)
        sources: set[str] = set()
        for tname, ci, cj in good_pairs:
            table = self.lake.table(tname)
            ekeys = table.columns[ci].cell_keys()
            vkeys = table.columns[cj].cell_keys()
            for entity, value in zip(ekeys, vkeys):
                if entity and value:
                    # Weight by how many examples this pair explained.
                    votes[entity][value] += pair_hits[(tname, ci, cj)]
                    sources.add(tname)
        wanted = {cell_key(e) for e in entities}
        out = Augmentation(sources=sorted(sources))
        for entity, counter in votes.items():
            if entity in wanted and entity not in examples:
                value, _ = counter.most_common(1)[0]
                out.values[entity] = value
                out.support[entity] = sum(counter.values())
        return out
