"""Built-in engine adapters: every surveyed method registered behind the
:mod:`repro.core.engine` protocol.

Importing this package populates :data:`repro.core.engine.REGISTRY`.
Registration order is load-bearing twice over: it fixes the canonical
stage order of the offline pipeline (the understanding foundations first,
then the index stages in the legacy sequence) and the execution order of
engines sharing a stage (the join stage builds the ``column_sets``
foundation, then JOSIE, LSH Ensemble and the Jaccard LSH over it; the
union stage builds TUS, Starmie, PEXESO, then SANTOS exactly as the
hand-wired pipeline did), which keeps parallel builds bit-identical to
sequential ones.

To add an engine, drop a module here (or anywhere imported at startup)
with a ``@register_engine`` class — see ``docs/architecture.md``.
"""

from repro.engines.foundation import (
    AnnotationFoundation,
    DomainsFoundation,
    EmbeddingsFoundation,
)
from repro.engines.keyword import KeywordEngine
from repro.engines.join_base import ColumnSetsFoundation
from repro.engines.josie import JosieEngine
from repro.engines.lshensemble import LshEnsembleEngine
from repro.engines.jaccard import JaccardLshEngine
from repro.engines.tus import TusEngine
from repro.engines.starmie import StarmieEngine
from repro.engines.pexeso import PexesoEngine
from repro.engines.santos import SantosEngine
from repro.engines.qcr import QcrEngine
from repro.engines.mate import MateEngine
from repro.engines.navigation import NavigationEngine

__all__ = [
    "AnnotationFoundation",
    "ColumnSetsFoundation",
    "DomainsFoundation",
    "EmbeddingsFoundation",
    "JaccardLshEngine",
    "JosieEngine",
    "KeywordEngine",
    "LshEnsembleEngine",
    "MateEngine",
    "NavigationEngine",
    "PexesoEngine",
    "QcrEngine",
    "SantosEngine",
    "StarmieEngine",
    "TusEngine",
]
