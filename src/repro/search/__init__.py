"""Table search engines: keyword, joinable, unionable, correlated."""

from repro.search.aggregate import (
    greedy_alignment,
    hungarian_alignment,
    table_unionability,
)
from repro.search.infogather import Augmentation, InfoGather
from repro.search.related import (
    RelatedTable,
    RelatedTableSearch,
    detect_subject_column,
)
from repro.search.valentine import (
    CompositeMatcher,
    Correspondence,
    DistributionMatcher,
    EmbeddingMatcher,
    HeaderMatcher,
    Matcher,
    ValueOverlapMatcher,
    evaluate_matcher,
    precision_at_size,
    recall_at_ground_truth,
)
from repro.search.auctus import AuctusHit, AuctusSearch, DatasetProfile, profile_table
from repro.search.correlated import (
    CorrelatedHit,
    CorrelatedSearch,
    exact_join_correlation,
)
from repro.search.joinable import ColumnSets, JoinSearchConfig
from repro.search.josie import JosieIndex
from repro.search.keyword import KeywordHit, KeywordSearchEngine
from repro.search.mate import MateHit, MateIndex, row_super_key
from repro.search.pexeso import (
    PexesoConfig,
    PexesoIndex,
    exact_fuzzy_join_fraction,
)
from repro.search.results import ColumnResult, TableResult, top_k
from repro.search.warpgate import WarpGateConfig, WarpGateJoinDiscovery
from repro.search.union_santos import (
    ColumnOnlySantosBaseline,
    SantosConfig,
    SantosUnionSearch,
)
from repro.search.union_starmie import StarmieConfig, StarmieUnionSearch
from repro.search.union_tus import MEASURES, TableUnionSearch, TusConfig

__all__ = [
    "AuctusHit",
    "AuctusSearch",
    "Augmentation",
    "DatasetProfile",
    "CompositeMatcher",
    "Correspondence",
    "DistributionMatcher",
    "EmbeddingMatcher",
    "HeaderMatcher",
    "InfoGather",
    "MEASURES",
    "Matcher",
    "ValueOverlapMatcher",
    "evaluate_matcher",
    "precision_at_size",
    "profile_table",
    "recall_at_ground_truth",
    "ColumnOnlySantosBaseline",
    "ColumnResult",
    "ColumnSets",
    "CorrelatedHit",
    "CorrelatedSearch",
    "JoinSearchConfig",
    "JosieIndex",
    "KeywordHit",
    "KeywordSearchEngine",
    "MateHit",
    "MateIndex",
    "PexesoConfig",
    "PexesoIndex",
    "RelatedTable",
    "RelatedTableSearch",
    "SantosConfig",
    "SantosUnionSearch",
    "StarmieConfig",
    "StarmieUnionSearch",
    "TableResult",
    "TableUnionSearch",
    "TusConfig",
    "WarpGateConfig",
    "WarpGateJoinDiscovery",
    "detect_subject_column",
    "exact_fuzzy_join_fraction",
    "exact_join_correlation",
    "greedy_alignment",
    "hungarian_alignment",
    "row_super_key",
    "table_unionability",
    "top_k",
]
