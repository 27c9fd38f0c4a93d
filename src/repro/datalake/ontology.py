"""Synthetic ontology / knowledge base substrate.

Surveyed systems (Das Sarma et al., TUS's semantic measure, SANTOS) consume
an external KB such as YAGO: a class hierarchy, a value->class map, and typed
binary relations between classes.  Real KBs are proprietary or too large to
ship, so we build a deterministic synthetic ontology over the lake's value
vocabulary.  The essential behaviour is preserved: lookups are
high-precision, but *coverage* is partial — the ``coverage`` knob controls
the fraction of values the KB knows about, reproducing the KB-precision vs.
LM-recall trade-off that §3 of the tutorial highlights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datalake.table import cell_key


@dataclass
class OntologyClass:
    """A class (semantic type) in the hierarchy."""

    name: str
    parent: str | None = None


class Ontology:
    """Class hierarchy + value->class map + typed binary relations, keyed by ``cell_key``."""

    def __init__(self):
        self._classes: dict[str, OntologyClass] = {}
        self._value_to_class: dict[str, str] = {}
        # (class, class) -> relation name, keyed in both directions.  A
        # pair declared under several names answers with the name declared
        # first (``_relation_rank``: name -> order of first declaration).
        self._relations: dict[tuple[str, str], str] = {}
        self._relation_rank: dict[str, int] = {}
        # (subject value, object value) -> relation name (instance-level facts)
        self._facts: dict[tuple[str, str], str] = {}

    # -- construction ----------------------------------------------------------

    def add_class(self, name: str, parent: str | None = None) -> None:
        if parent is not None and parent not in self._classes:
            raise KeyError(f"unknown parent class {parent!r}")
        self._classes[name] = OntologyClass(name, parent)

    def add_value(self, value: str, cls: str) -> None:
        if cls not in self._classes:
            raise KeyError(f"unknown class {cls!r}")
        if value := cell_key(value):
            self._value_to_class[value] = cls

    def add_relation(self, name: str, subject_cls: str, object_cls: str) -> None:
        rank = self._relation_rank.setdefault(name, len(self._relation_rank))
        for pair in ((subject_cls, object_cls), (object_cls, subject_cls)):
            held = self._relations.get(pair)
            if held is None or rank < self._relation_rank[held]:
                self._relations[pair] = name

    def add_fact(self, subject: str, obj: str, relation: str) -> None:
        subject, obj = cell_key(subject), cell_key(obj)
        if subject and obj:
            self._facts[(subject, obj)] = relation

    # -- lookups -----------------------------------------------------------------

    def classes(self) -> list[str]:
        return list(self._classes)

    def class_of(self, value: str) -> str | None:
        """The (leaf) class a value belongs to, or None if uncovered."""
        # Stored values are keys: a value_set member needs no keying.
        return self._value_to_class.get(value) or self._value_to_class.get(cell_key(value))

    def ancestors(self, cls: str) -> list[str]:
        """The class and all its ancestors, leaf first."""
        out = []
        cur: str | None = cls
        while cur is not None:
            out.append(cur)
            cur = self._classes[cur].parent
        return out

    def classes_of(self, value: str, with_ancestors: bool = True) -> set[str]:
        """All classes a value belongs to (optionally expanding the hierarchy)."""
        leaf = self.class_of(value)
        if leaf is None:
            return set()
        return set(self.ancestors(leaf)) if with_ancestors else {leaf}

    def relation_between_classes(self, a: str, b: str) -> str | None:
        """The first-declared relation name between classes a and b (either
        direction)."""
        return self._relations.get((a, b))

    def fact(self, a: str, b: str) -> str | None:
        """The instance-level fact's relation between two cell keys (used as
        given), in either direction."""
        fact = self._facts.get((a, b))
        return fact if fact is not None else self._facts.get((b, a))

    def has_fact(self, a: str, b: str) -> bool:
        """Is (a, b) an instance-level fact, in either direction?"""
        return self.fact(cell_key(a), cell_key(b)) is not None

    def relation_between_values(self, a: str, b: str) -> str | None:
        """Instance-level fact lookup, falling back to class-level relations."""
        return self.relation_between_keys(cell_key(a), cell_key(b))

    def relation_between_keys(self, a: str, b: str) -> str | None:
        """:meth:`relation_between_values` for two cell keys (used as given)."""
        fact = self.fact(a, b)
        if fact is not None:
            return fact
        ca, cb = self._value_to_class.get(a), self._value_to_class.get(b)
        if ca is None or cb is None:
            return None
        return self._relations.get((ca, cb))

    def coverage_of(self, values: list[str]) -> float:
        """Fraction of the given values the ontology knows about."""
        if not values:
            return 0.0
        known = sum(1 for v in values if self.class_of(v) is not None)
        return known / len(values)

    def num_facts(self) -> int:
        return len(self._facts)

    # -- annotation --------------------------------------------------------------

    def annotate_column(
        self, values: list[str], min_support: float = 0.5
    ) -> str | None:
        """Majority-vote class annotation of a column (Limaye/Venetis style).

        Returns the class covering the largest share of covered values if that
        share (among *all* values) reaches ``min_support`` times coverage.
        """
        votes: dict[str, int] = {}
        for v in values:
            c = self.class_of(v)
            if c is not None:
                votes[c] = votes.get(c, 0) + 1
        if not votes:
            return None
        best, n = max(votes.items(), key=lambda kv: kv[1])
        covered = sum(votes.values())
        if covered == 0 or n < min_support * covered:
            return None
        return best


def subsample_ontology(
    onto: Ontology, coverage: float, seed: int = 0,
    granularity: str = "value",
) -> Ontology:
    """Return a copy of the ontology knowing only a ``coverage`` fraction of
    values (classes, hierarchy, and class-level relations are kept).

    ``granularity`` controls *how* coverage fails, modelling two real-KB
    failure modes: "value" drops individual values uniformly (sparse
    annotation), while "class" drops entire leaf classes (whole lake
    domains absent from the KB — the common case for lake-specific
    vocabulary, and the mode that actually hurts semantic discovery).
    """
    if granularity not in ("value", "class"):
        raise ValueError(f"unknown granularity {granularity!r}")
    rng = random.Random(seed)
    kept_classes: set[str] | None = None
    if granularity == "class":
        kept_classes = {
            name for name in onto._classes if rng.random() < coverage
        }
    out = Ontology()
    # Re-add classes respecting parent order.
    added: set[str] = set()

    def add_with_parents(name: str) -> None:
        if name in added:
            return
        parent = onto._classes[name].parent
        if parent is not None:
            add_with_parents(parent)
        out.add_class(name, parent)
        added.add(name)

    for name in onto._classes:
        add_with_parents(name)
    out._relations = dict(onto._relations)
    out._relation_rank = dict(onto._relation_rank)
    for value, cls in onto._value_to_class.items():
        if kept_classes is not None:
            if cls in kept_classes:
                out.add_value(value, cls)
        elif rng.random() < coverage:
            out.add_value(value, cls)
    for (s, o), rel in onto._facts.items():
        if out.class_of(s) is not None and out.class_of(o) is not None:
            out.add_fact(s, o, rel)
    return out
