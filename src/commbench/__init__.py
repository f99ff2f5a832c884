"""Community-detection benchmarking on attributed graphs.

Detect communities (multi-level modularity, greedy clique expansion, link
clustering), turn covers into binary membership features, and score them by
how well a boosted-tree classifier recovers held-out node attributes under
stratified cross-validation.
"""

from .errors import AllCellsFailedError, CommbenchError, ConfigError, DataError
from .graph import (
    MISSING,
    AttributeTable,
    Graph,
    build_meta_graph,
    induced_subgraph,
    load_attributes,
    load_edge_list,
    without_self_loops,
    write_edge_list,
)
from .covers import (
    Cover,
    Partition,
    import_cover,
    serialize_cover,
    write_cover,
)
from .detectors import detect_cover
from .detectors.louvain import LouvainResult, louvain, parameterized_modularity
from .detectors.gce import gce, maximal_cliques
from .detectors.linkclust import Dendrogram, cut_link_dendrogram, edge_similarity, link_clustering
from .coverops import (
    AssignmentMatrix,
    CoverStats,
    assignment_matrix,
    combine_runs,
    cover_stats,
    dedup,
    jaccard,
    nmi,
)
from .gbdt import GBDTParams, TreeEnsemble, train_gbdt
from .dataset import (
    LabeledDataset,
    build_dataset,
    cross_validate,
    stratified_folds,
)
from .planted import PlantedPartitionSpec, generate_planted
from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    MethodSpec,
    SanityResult,
    accuracy_histogram,
    flatten_cover,
    method_cover,
    parse_config,
    run_benchmark,
    sanity_check,
)
from .ordering import BlockOrdering, order_adjacency, write_ordering

__version__ = "0.1.0"

__all__ = [
    "AllCellsFailedError",
    "AssignmentMatrix",
    "AttributeTable",
    "BenchmarkConfig",
    "BenchmarkReport",
    "BlockOrdering",
    "CommbenchError",
    "ConfigError",
    "Cover",
    "CoverStats",
    "DataError",
    "Dendrogram",
    "GBDTParams",
    "Graph",
    "LabeledDataset",
    "LouvainResult",
    "MISSING",
    "MethodSpec",
    "Partition",
    "PlantedPartitionSpec",
    "SanityResult",
    "TreeEnsemble",
    "accuracy_histogram",
    "assignment_matrix",
    "build_dataset",
    "build_meta_graph",
    "combine_runs",
    "cover_stats",
    "cross_validate",
    "cut_link_dendrogram",
    "dedup",
    "detect_cover",
    "edge_similarity",
    "flatten_cover",
    "gce",
    "generate_planted",
    "import_cover",
    "induced_subgraph",
    "jaccard",
    "link_clustering",
    "load_attributes",
    "load_edge_list",
    "louvain",
    "maximal_cliques",
    "method_cover",
    "nmi",
    "order_adjacency",
    "parameterized_modularity",
    "parse_config",
    "run_benchmark",
    "sanity_check",
    "serialize_cover",
    "stratified_folds",
    "train_gbdt",
    "without_self_loops",
    "write_cover",
    "write_edge_list",
    "write_ordering",
]
