"""Training loop and the high-level recommender estimator.

One step: sample a batch of examples, render each (metadata subsampling with
an ID-only fraction), encode the batch as one ``(B, d)`` query matrix, take
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

from .base import BaseEstimator
from .catalog import Dataset, Interactions, SequenceExample, build_dataset, ingest_jsonl
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
from .exceptions import DataError, TrainingDivergedError
from .inference import _rank_topk
from .render import render_example
from .snapshot import ModelSnapshot
from .softmax import nll_and_grad
from .tables import GradBuffer, ItemRowGrad, ModelTables, init_tables
from .validation import check_finite, check_is_fitted

# Not called here; perfbench/spans.py looks this name up on this module.
from .encoder import encode  # noqa: F401

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
        for name in ("max_steps", "eval_every", "val_sample", "patience", "learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.id_only_fraction <= 1.0:
            raise ValueError("id_only_fraction must be in [0, 1]")
        if not 0.0 <= self.metadata_keep_prob <= 1.0:
            raise ValueError("metadata_keep_prob must be in [0, 1]")
        if self.softmax_mode not in ("full", "twolevel"):
            raise ValueError("softmax_mode must be 'full' or 'twolevel'")

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
    finite real (n_items, p) matrix can be passed instead, and any other is a
    :class:`DataError`.
    """
    n_text = len(data.vocab)
    n_items = data.n_items
    n_clusters = n_clusters or default_n_clusters(n_items)
    if clustering == "kmeans":
        if features is None:
            features = cooccurrence_svd_features(data.split, n_items)
        elif np.ndim(features) != 2 or len(features) != n_items:
            raise DataError(f"features must have shape ({n_items}, p), got {np.shape(features)}")
        elif np.asarray(features).dtype.kind not in "biuf" or not np.isfinite(features).all():
            raise DataError("features must be real numbers, none of them NaN or Inf")
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
    centroids = init_centroids(cluster_map, base.item_projected())
    tables = ModelTables(base.text, base.item_raw, base.projection, centroids)
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
        price_edges=list(data.price_buckets.edges) if data.price_buckets else None,
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
    n_train = len(data.train_examples)
    if n_train == 0:
        raise DataError("train split is empty")

    result = TrainResult(snapshot=snapshot)
    best_recall = -1.0
    evals_since_best = 0

    for step in range(config.max_steps):
        lr = cosine_lr(config.learning_rate, step, config.max_steps)
        batch_idx = rng.integers(0, n_train, size=config.batch_size)
        examples = [data.train_examples[int(i)] for i in batch_idx]
        seqs = [
            render_example(
                example,
                data,
                rng,
                id_only_fraction=config.id_only_fraction,
                metadata_keep_prob=config.metadata_keep_prob,
            )
            for example in examples
        ]
        targets = [data.space.item_ordinal(example.target) for example in examples]
        grads = GradBuffer(tables, encoder)
        queries, cache = encode_batch(seqs, tables, encoder)
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


class SequenceRecommender(BaseEstimator):
    """Next-item recommender: fit on an interaction corpus, predict item IDs.

    Follows the scikit-learn estimator protocol (constructor-only parameters,
    ``fit`` returns self, fitted attributes carry a trailing underscore).
    """

    def __init__(
        self,
        dim=64,
        item_dim=512,
        vocab_size=8192,
        clustering="kmeans",
        n_clusters=None,
        softmax_mode=TrainConfig.softmax_mode,
        batch_size=TrainConfig.batch_size,
        learning_rate=TrainConfig.learning_rate,
        weight_decay=TrainConfig.weight_decay,
        max_steps=TrainConfig.max_steps,
        id_only_fraction=TrainConfig.id_only_fraction,
        metadata_keep_prob=TrainConfig.metadata_keep_prob,
        eval_every=TrainConfig.eval_every,
        patience=TrainConfig.patience,
        val_sample=TrainConfig.val_sample,
        seed=TrainConfig.seed,
    ):
        self.dim = dim
        self.item_dim = item_dim
        self.vocab_size = vocab_size
        self.clustering = clustering
        self.n_clusters = n_clusters
        self.softmax_mode = softmax_mode
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.max_steps = max_steps
        self.id_only_fraction = id_only_fraction
        self.metadata_keep_prob = metadata_keep_prob
        self.eval_every = eval_every
        self.patience = patience
        self.val_sample = val_sample
        self.seed = seed

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

    def predict(self, histories, k: int = 10):
        """Top-k item IDs for each non-empty history of known external item IDs.

        Histories are scored as ``evaluate`` scores them with engine ``full``
        (``item_score_blocks``): every item's exact log-probability under the
        fitted snapshot's softmax mode, ``EVAL_BLOCK`` histories at a time.
        Each row's top k breaks ties by ascending item index.
        """
        check_is_fitted(self, ["snapshot_", "dataset_"])
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        snapshot = self.snapshot_
        data = self.dataset_
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
        check_is_fitted(self, ["snapshot_", "dataset_"])
        report = evaluate(self.snapshot_, self.dataset_, engine="full")
        return report.recall[10]
