"""hsrec: single-step item-ID recommendation over a mixed text/item token space.

Core pieces: a two-level softmax head (clusters then members) with exact
analytic gradients, two fast top-k engines (exact cluster-pruned search and
approximate MIPS over an additive index), leave-one-out evaluation, and an
analytical prefill/decode latency model.
"""

from .catalog import (
    CatalogStats,
    Dataset,
    SequenceExample,
    build_dataset,
    ingest_jsonl,
)
from .cluster import (
    ClusterMap,
    cluster_frequency,
    cluster_kmeans,
    cluster_random,
    default_n_clusters,
    init_centroids,
)
from .encoder import EncoderParams, encode, init_encoder
from .evaluate import MetricReport, evaluate, popularity_baseline
from .exceptions import (
    DataError,
    HsrecError,
    NotFittedError,
    SnapshotFormatError,
    StaleIndexError,
    TrainingDivergedError,
)
from .inference import (
    AdditiveIndex,
    TopK,
    build_additive_index,
    filter_items,
    topk_ann,
    topk_exact,
    topk_items,
    topk_structure,
)
from .latency import (
    MISTRAL_7B,
    PALM,
    PROFILES,
    DeploymentProfile,
    EncodingSpec,
    measure_m,
    speedup,
    speedup_bounds,
    total_latency,
)
from .render import render_example, render_id_only
from .snapshot import ModelSnapshot, load_snapshot, save_snapshot
from .softmax import CostCounter, log_partition, score_all, two_level_logprob
from .synth import SynthSpec, generate
from .tables import (
    EmbeddingTable,
    ModelTables,
    ProjectionHead,
    init_tables,
    item_parameter_count,
    parameter_counts,
    project_items,
)
from .tokens import TokenSpace, Vocabulary
from .trainer import SequenceRecommender, TrainConfig, init_model, train

__version__ = "0.1.0"
