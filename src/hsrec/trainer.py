"""Training loop and the high-level recommender estimator.

One step: sample a batch of train examples (slices of ``Dataset.events``),
render the batch in one call (``render.render_batch``: metadata subsampling
with an ID-only fraction), encode it as one ``(B, d)`` query matrix, take
exact losses and gradients from the softmax head in one batched pass
(``softmax.nll_and_grad``), chain the query gradients through the encoder
(``encoder.encode_backward``), and apply an SGD update with cosine
learning-rate decay and decoupled weight decay.  The raw item table is
written only on the rows that received gradient: the update expands the
factored :class:`~hsrec.tables.ItemRowGrad` (lifted cluster products and
projected rows) one block at a time, and checks each written block for
finiteness as it goes.  Weight decay still reaches every row.  Runs are
deterministic per seed in single-threaded mode: identical seeds give
identical loss curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import Dataset, Interactions, SequenceExample, build_dataset, concat_ranges, ingest_jsonl
from .cluster import (
    ClusterMap,
    cluster_frequency,
    cluster_kmeans,
    cluster_random,
    cooccurrence_svd_features,
    default_n_clusters,
    init_centroids,
)
from .encoder import encode_backward, encode_batch, init_encoder
from .evaluate import evaluate, item_score_blocks
from .exceptions import DataError, NotFittedError, TrainingDivergedError
from .inference import _rank_topk
from .render import render_batch
from .snapshot import ModelSnapshot
from .softmax import MODES, nll_and_grad
from .tables import GradBuffer, ItemRowGrad, ModelTables, check_finite, init_tables

# Not called here; perfbench/spans.py looks these names up on this module.
from .encoder import encode  # noqa: F401
from .render import render_example  # noqa: F401

CLUSTERINGS = ("kmeans", "frequency", "random")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 5e-3
    weight_decay: float = 1e-5
    max_steps: int = 2000
    id_only_fraction: float = 0.25
    metadata_keep_prob: float = 0.5
    seed: int = 0
    softmax_mode: str = "twolevel"
    eval_every: int = 200
    patience: int = 10
    val_sample: int = 500  # 0 evaluates the whole validation split

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        for name in ("max_steps", "eval_every", "val_sample", "patience", "seed", "learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.id_only_fraction <= 1.0:
            raise ValueError("id_only_fraction must be in [0, 1]")
        if not 0.0 <= self.metadata_keep_prob <= 1.0:
            raise ValueError("metadata_keep_prob must be in [0, 1]")
        if self.softmax_mode not in MODES:
            raise ValueError(f"softmax_mode must be one of {MODES}, got {self.softmax_mode!r}")

    def to_dict(self) -> dict:
        """The fields a snapshot records: all but the validation schedule."""
        schedule = ("eval_every", "patience", "val_sample")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in schedule}


def build_cluster_map(
    data: Dataset,
    clustering: str = "kmeans",
    n_clusters: int | None = None,
    seed: int = 0,
    features: np.ndarray | None = None,
) -> ClusterMap:
    """Item-side clustering per the chosen method, text singletons attached.

    k-means features default to SVD of the train co-occurrence matrix; any
    finite real (n_items, p) matrix, p >= 1, can be passed instead unless
    ``4 n_items max ||x||^2``, a bound on k-means' sums of squared distances,
    overflows.  Any other is a :class:`DataError`.
    """
    n_text = len(data.vocab)
    n_items = data.n_items
    n_clusters = n_clusters or default_n_clusters(n_items)
    if clustering == "kmeans":
        if features is None:
            features = cooccurrence_svd_features(data)
        elif np.ndim(features) != 2 or len(features) != n_items or np.shape(features)[1] == 0:
            raise DataError(f"features must have shape ({n_items}, p) with p >= 1, got {np.shape(features)}")
        elif np.asarray(features).dtype.kind not in "biuf" or not np.isfinite(features).all():
            raise DataError("features must be real numbers, none of them NaN or Inf")
        else:
            with np.errstate(over="ignore"):  # an overflow is what this looks for
                bound = 4.0 * n_items * np.square(features, dtype=np.float64).sum(axis=1).max()
            if not np.isfinite(bound):
                raise DataError("features are too large: k-means' sums of squared distances overflow")
        return cluster_kmeans(features, n_clusters, seed=seed, n_text=n_text)
    if clustering == "frequency":
        return cluster_frequency(data.train_item_counts, n_clusters, n_text=n_text)
    if clustering == "random":
        return cluster_random(n_items, n_clusters, seed=seed, n_text=n_text)
    raise ValueError(f"unknown clustering {clustering!r}; choose from {CLUSTERINGS}")


def init_model(
    data: Dataset,
    config: TrainConfig,
    dim: int = 64,
    item_dim: int = 512,
    clustering: str = "kmeans",
    n_clusters: int | None = None,
    cluster_map: ClusterMap | None = None,
    kmeans_features: np.ndarray | None = None,
) -> ModelSnapshot:
    """Fresh seeded model: tables, cluster map, mean-initialized centroids."""
    if cluster_map is None:
        cluster_map = build_cluster_map(
            data, clustering, n_clusters, seed=config.seed, features=kmeans_features
        )
    base = init_tables(len(data.vocab), data.n_items, dim, item_dim, seed=config.seed)
    projected = base.item_projected()
    centroids = init_centroids(cluster_map, projected)
    tables = ModelTables(base.text, base.item_raw, base.projection, centroids)
    # The same item rows and head, so the same projection: keep it, not make it again.
    tables.derived("projected", lambda: projected)
    encoder = init_encoder(dim, seed=config.seed + 1, dtype=tables.text.data.dtype)
    snapshot_config = config.to_dict()
    snapshot_config.update({"dim": dim, "item_dim": item_dim, "clustering": clustering})
    return ModelSnapshot(
        tables=tables,
        encoder=encoder,
        cluster_map=cluster_map,
        vocab=data.vocab,
        item_ids=data.catalog.item_ids(),
        config=snapshot_config,
        name=data.name,
        price_edges=None if data.price_edges is None else list(data.price_edges),
    )


def cosine_lr(base_lr: float, step: int, max_steps: int) -> float:
    if max_steps <= 0:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / max_steps))


def _apply_update(snapshot: ModelSnapshot, grads: dict, lr: float, weight_decay: float, n: int) -> None:
    """SGD with decoupled weight decay, in place; raises ``ValueError`` if it
    leaves a parameter non-finite.

    Each written array is checked right after its write.  The raw item table
    is written only on the rows of its :class:`ItemRowGrad`, one expanded
    block at a time, and each block is checked as it is written.  Every table
    is finite before an update (checked when built or loaded, and by every
    update), and rows that received no gradient are only multiplied by
    ``1 - lr * weight_decay``, of magnitude at most 1 unless ``lr *
    weight_decay > 2``; only then is the whole item table read as well.
    """
    decay = lr * weight_decay
    with snapshot.tables.writing() as params:
        params.update(snapshot.encoder.parameter_arrays())
        for name, arr in params.items():
            grad = grads.get(name)
            if grad is None:
                continue
            # Decoupled weight decay on matrices/embeddings only, never biases.
            if weight_decay and arr.ndim == 2:
                arr *= 1.0 - decay
            if isinstance(grad, ItemRowGrad):
                for rows, block in grad.blocks():
                    # lr * (block / n) in place: the same rounding, no temporaries.
                    np.divide(block, n, out=block)
                    np.multiply(block, lr, out=block)
                    # arr[rows] -= block, with the written rows checked on the way.
                    written = arr[rows]
                    np.subtract(written, block, out=written, casting="unsafe")
                    check_finite(written, name)
                    arr[rows] = written
                if decay > 2.0:
                    check_finite(arr, name)
            else:
                step = grad / n  # lr * (grad / n), with one temporary
                step *= lr
                arr -= step
                check_finite(arr, name)


def validation_recall(snapshot: ModelSnapshot, data: Dataset, k: int = 10, sample: int = 0) -> float:
    """Recall@k of the held-out validation targets under ID-only rendering."""
    examples = data.val_examples
    if sample and len(examples) > sample:
        examples = examples[:sample]
    return evaluate(snapshot, data, engine="full", examples=examples, ks=(k,)).recall[k]


@dataclass
class TrainResult:
    snapshot: ModelSnapshot
    metrics: list[dict] = field(default_factory=list)
    steps_run: int = 0
    stopped_early: bool = False


def train(data: Dataset, config: TrainConfig, snapshot: ModelSnapshot | None = None, **model_kwargs) -> TrainResult:
    """Optimize a (possibly fresh) model on the train split.

    Logs (step, loss, val_recall@10) every ``eval_every`` steps and stops
    early after ``patience`` evaluations without improvement.  A non-finite
    loss aborts with :class:`TrainingDivergedError`.
    """
    if snapshot is None:
        snapshot = init_model(data, config, **model_kwargs)
    tables = snapshot.tables
    encoder = snapshot.encoder
    cmap = snapshot.cluster_map
    mode = config.softmax_mode
    rng = np.random.default_rng(config.seed)
    n_train = data.train_ends.size
    if n_train == 0:
        raise DataError("train split is empty")

    result = TrainResult(snapshot=snapshot)
    best_recall = -1.0
    evals_since_best = 0

    for step in range(config.max_steps):
        lr = cosine_lr(config.learning_rate, step, config.max_steps)
        batch_idx = rng.integers(0, n_train, size=config.batch_size)
        starts, ends = data.train_starts[batch_idx], data.train_ends[batch_idx]
        ordinals, lengths = render_batch(
            data,
            data.events[concat_ranges(starts, ends - starts)],
            ends - starts,
            rng,
            id_only_fraction=config.id_only_fraction,
            metadata_keep_prob=config.metadata_keep_prob,
        )
        targets = data.events[ends] + data.space.n_text
        grads = GradBuffer(tables, encoder)
        queries, cache = encode_batch(ordinals, lengths, tables, encoder)
        losses, d_queries, _ = nll_and_grad(queries, targets, tables, cmap, mode, grads)
        encode_backward(cache, d_queries, tables, encoder, grads)
        mean_loss = float(losses.sum()) / config.batch_size
        if not math.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite loss {mean_loss} at step {step}")
        if lr != 0.0:
            final = grads.finalize(tables)
            _apply_update(snapshot, final, lr, config.weight_decay, config.batch_size)
        result.steps_run = step + 1

        if config.eval_every and (step + 1) % config.eval_every == 0:
            recall = validation_recall(snapshot, data, k=10, sample=config.val_sample)
            result.metrics.append(
                {"step": step + 1, "loss": mean_loss, "val_recall@10": recall}
            )
            if recall > best_recall:
                best_recall = recall
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= config.patience:
                    result.stopped_early = True
                    break
    return result


@dataclass(eq=False)
class SequenceRecommender:
    """Next-item recommender: fit on an interaction corpus, predict item IDs.

    Follows the scikit-learn estimator protocol: the dataclass fields are the
    constructor parameters, ``fit`` returns self, and fitted attributes carry
    a trailing underscore.  Instances compare by identity.
    """

    dim: int = 64
    item_dim: int = 512
    vocab_size: int = 8192
    clustering: str = "kmeans"
    n_clusters: int | None = None
    softmax_mode: str = TrainConfig.softmax_mode
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    weight_decay: float = TrainConfig.weight_decay
    max_steps: int = TrainConfig.max_steps
    id_only_fraction: float = TrainConfig.id_only_fraction
    metadata_keep_prob: float = TrainConfig.metadata_keep_prob
    eval_every: int = TrainConfig.eval_every
    patience: int = TrainConfig.patience
    val_sample: int = TrainConfig.val_sample
    seed: int = TrainConfig.seed

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = sorted(f.name for f in fields(self))
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"Invalid parameter {name!r} for {type(self).__name__}; valid parameters are {valid}")
            setattr(self, name, value)
        return self

    def _train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def fit(self, X):
        """X is a JSONL path, an Interactions object, or a prepared Dataset."""
        if isinstance(X, Dataset):
            data = X
        elif isinstance(X, Interactions):
            data = build_dataset(X, vocab_size=self.vocab_size)
        else:
            data = build_dataset(ingest_jsonl(X), vocab_size=self.vocab_size)
        result = train(
            data,
            self._train_config(),
            dim=self.dim,
            item_dim=self.item_dim,
            clustering=self.clustering,
            n_clusters=self.n_clusters,
        )
        self.dataset_ = data
        self.snapshot_ = result.snapshot
        self.metrics_ = result.metrics
        self.steps_run_ = result.steps_run
        return self

    def _fitted(self) -> tuple[ModelSnapshot, Dataset]:
        """The fitted snapshot and dataset; :class:`NotFittedError` before ``fit``."""
        missing = ", ".join(a for a in ("snapshot_", "dataset_") if not hasattr(self, a))
        if missing:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet; call fit() first (missing {missing})")
        return self.snapshot_, self.dataset_

    def predict(self, histories, k: int = 10):
        """Top-k item IDs for each non-empty history of known external item IDs.

        Histories are scored as ``evaluate`` scores them with engine ``full``
        (``item_score_blocks``), ``EVAL_BLOCK`` histories at a time: every
        item's rank score under the fitted snapshot's softmax mode, its exact
        log-probability plus the history's log Z, so no text row is read.
        Each row's top k breaks ties by ascending item index.
        """
        snapshot, data = self._fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        examples = []
        for history in histories:
            if len(history) == 0:
                raise DataError("history must be non-empty")
            try:
                indices = tuple(data.catalog.index_of(i) for i in history)
            except KeyError as exc:
                raise DataError(f"unknown item id {exc.args[0]!r}") from exc
            examples.append(SequenceExample(user="query", history=indices, target=indices[-1]))
        out = []
        for _, scores in item_score_blocks(snapshot, data, examples, "full"):
            out.extend([snapshot.item_ids[int(i)] for i in _rank_topk(row, k).ordinals] for row in scores)
        return out

    def score(self, X=None) -> float:
        """Recall@10 on the held-out test split."""
        report = evaluate(*self._fitted(), engine="full")
        return report.recall[10]
