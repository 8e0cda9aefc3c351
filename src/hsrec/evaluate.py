"""Full-catalog ranking metrics over held-out targets.

Users are evaluated ``EVAL_BLOCK`` at a time.  A block's histories are
rendered ID-only in one call (``render_id_only_batch``) and encoded as one
``(B, d)`` query matrix (``encode_batch``); the engine builds one C-ordered
``(B, n_items)`` float64 score matrix, and ``rank_rows`` (one tie-break,
history exclusion and finiteness check for all engines) gives every held-out
target's 1-based rank.
``full`` and ``structure`` both rank by ``item_rank_scores``, in cluster
order from the GEMM to the rank.  Under the two-level softmax log P(i | H) =
logit_c(i) - log Z + log P(i | c(i), H), and log Z is one constant per user,
so an item's rank score is ``logit_c + log P(i | c, H)``: one GEMM against
the centroids, one against the cluster-ordered item rows and one folded
offset per cluster, at ``O((C + |I|) d)`` per user whatever the text
vocabulary's size.  The two GEMMs cover the whole block; the fold then runs
one row tile at a time (``softmax.FOLD_TILE_BYTES`` of scores, a few rows
at catalog-10k and the whole block at small catalogs), so a tile and the
fold's temporaries stay in cache.  A row's fold reads no other row and
computes the row the same way wherever it sits, so the tiles change no bit.
In full-softmax mode the rank score is the item's logit.
No text row is read, exact ties stay exact, and the two engines' ranks are
one and the same; ties are resolved per tied row.
``structure`` names the two-level exact engine and requires a two-level
snapshot.  ``ann`` is one GEMM against the additive index's item rows.
Recall@K and NDCG@10 truncate at K; MRR uses the unbounded full-catalog
rank.  With a single relevant item NDCG reduces to 1/log2(rank + 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .catalog import Dataset, SequenceExample
from .cluster import ClusterMap
from .encoder import encode_batch
from .exceptions import TrainingDivergedError
from .inference import ann_item_scores, build_additive_index
from .render import render_id_only_batch
from .snapshot import ModelSnapshot
from .softmax import _cluster_rank_scores

# Not called here; perfbench/spans.py looks these names up on this module.
from .encoder import encode  # noqa: F401
from .inference import filter_items, topk_ann, topk_structure  # noqa: F401
from .render import render_id_only  # noqa: F401
from .softmax import score_all  # noqa: F401

ENGINES = ("full", "structure", "ann")
EVAL_BLOCK = 64  # users scored at once; bounds the (block, n_items) score matrices


@dataclass(frozen=True)
class MetricReport:
    n_users: int
    recall: dict[int, float]
    ndcg10: float
    mrr: float

    def to_dict(self) -> dict:
        out = {f"recall@{k}": v for k, v in sorted(self.recall.items())}
        out["ndcg@10"] = self.ndcg10
        out["mrr"] = self.mrr
        out["n_users"] = self.n_users
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def metrics_from_ranks(ranks, ks=(1, 10)) -> MetricReport:
    """Aggregate 1-based full-catalog ranks of the single relevant item."""
    ranks = np.asarray(list(ranks), dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no users to evaluate")
    if any(k < 1 for k in ks):
        raise ValueError(f"recall cutoffs must be at least 1, got {list(ks)}")
    recall = {int(k): float(np.mean(ranks <= k)) for k in ks}
    ndcg10 = float(np.mean(np.where(ranks <= 10, 1.0 / np.log2(ranks + 1.0), 0.0)))
    mrr = float(np.mean(1.0 / ranks))
    return MetricReport(n_users=int(ranks.size), recall=recall, ndcg10=ndcg10, mrr=mrr)


def rank_rows(item_scores: np.ndarray, target_items, exclude=None, cluster_map: ClusterMap | None = None) -> np.ndarray:
    """1-based rank of each row's target among that row's item scores.

    ``item_scores`` is ``(B, n_items)``, columns in item order, or in
    ``cluster_map.item_order`` if given; ties are broken by ascending item
    index.  ``exclude[r]``, if given, lists items dropped from row ``r``'s
    ranking, set to ``-inf`` in ``item_scores`` itself; a row's own target is
    never dropped.  A non-finite target score raises
    :class:`TrainingDivergedError`: no score compares greater than NaN, so a
    diverged model would otherwise rank first.
    """
    scores = np.asarray(item_scores)
    targets = np.asarray(target_items, dtype=np.int64)
    position = np.arange(scores.shape[1]) if cluster_map is None else cluster_map.item_position
    order = position if cluster_map is None else cluster_map.item_order
    if exclude is not None:
        for row, (items, target) in enumerate(zip(exclude, targets.tolist())):
            scores[row, position[[i for i in items if i != target]]] = -np.inf
    s_t = scores[np.arange(targets.size), position[targets]]
    diverged = np.flatnonzero(~np.isfinite(s_t))
    if diverged.size:
        row = diverged[0]
        raise TrainingDivergedError(f"target item {targets[row]} scored {s_t[row]}; the model has diverged")
    s_t = s_t[:, None]
    ranks = np.count_nonzero(scores > s_t, axis=1) + 1
    for row in np.flatnonzero(np.count_nonzero(scores == s_t, axis=1) > 1):
        tied = np.flatnonzero(scores[row] == s_t[row])
        ranks[row] += np.count_nonzero(order[tied] < targets[row])
    return ranks


def item_score_blocks(snapshot: ModelSnapshot, data: Dataset, histories, engine: str):
    """Yield ``(scores, cluster_map)`` per ``EVAL_BLOCK`` histories (tuples
    of item indices): the block rendered ID-only and encoded as one query
    block, and the fresh C-ordered ``(B, n_items)`` float64 item scores of
    ``engine``.

    Engines ``full`` and ``structure`` give every item's rank score under the
    snapshot's own softmax mode, in ``cluster_map.item_order``: its exact
    log-probability plus the row's log Z, so the scores rank items as their
    log-probabilities do.  ``ann`` gives the additive index's inner products
    in item order, with ``cluster_map`` None.  ``structure`` and ``ann``
    require a two-level snapshot.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    mode = snapshot.softmax_mode
    if engine in ("structure", "ann") and mode != "twolevel":
        raise ValueError(
            f"engine {engine!r} needs a two-level snapshot; this one was trained with {mode!r}"
        )
    tables, cmap = snapshot.tables, snapshot.cluster_map
    index = build_additive_index(tables, cmap) if engine == "ann" else None
    for lo in range(0, len(histories), EVAL_BLOCK):
        ordinals, lengths = render_id_only_batch(data, histories[lo : lo + EVAL_BLOCK])
        queries, _ = encode_batch(ordinals, lengths, tables, snapshot.encoder)
        if engine == "ann":
            yield ann_item_scores(queries, index, tables), None
        else:
            yield _cluster_rank_scores(queries, tables, cmap, mode), cmap


def target_ranks(
    snapshot: ModelSnapshot,
    data: Dataset,
    engine: str = "structure",
    examples: list[SequenceExample] | None = None,
    exclude_history: bool = False,
) -> np.ndarray:
    """1-based full-catalog rank of each example's held-out target, scored by
    :func:`item_score_blocks`."""
    if examples is None:
        examples = data.test_examples
    histories = [e.history for e in examples]
    targets = [e.target for e in examples]
    ranks: list[int] = []
    for scores, cmap in item_score_blocks(snapshot, data, histories, engine):
        rows = slice(len(ranks), len(ranks) + len(scores))
        exclude = histories[rows] if exclude_history else None
        ranks.extend(rank_rows(scores, targets[rows], exclude, cmap).tolist())
    return np.asarray(ranks, dtype=np.int64)


def evaluate(
    snapshot: ModelSnapshot,
    data: Dataset,
    engine: str = "structure",
    examples: list[SequenceExample] | None = None,
    ks=(1, 10),
    exclude_history: bool = False,
) -> MetricReport:
    """Rank the full catalog per test user (:func:`target_ranks`) and average the metrics."""
    return metrics_from_ranks(target_ranks(snapshot, data, engine, examples, exclude_history), ks=ks)


def popularity_baseline(data: Dataset, ks=(1, 10)) -> MetricReport:
    """Rank items by train-split frequency; the no-model reference point."""
    counts = data.train_item_counts
    order = np.lexsort((np.arange(counts.size), -counts))
    rank_of_item = np.empty(counts.size, dtype=np.int64)
    rank_of_item[order] = np.arange(1, counts.size + 1)
    ranks = [int(rank_of_item[example.target]) for example in data.test_examples]
    return metrics_from_ranks(ranks, ks=ks)


def report_csv_row(dataset: str, engine: str, clustering: str, report: MetricReport) -> dict:
    row = {"dataset": dataset, "engine": engine, "clustering": clustering}
    row.update(report.to_dict())
    return row
