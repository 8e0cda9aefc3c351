"""Full-catalog ranking metrics over held-out targets.

For every user the history is rendered ID-only and encoded, the engine scores
every item, and ``rank_from_scores`` (one tie-break, history exclusion and
finiteness check for all engines) gives the held-out target's 1-based rank.
``full`` enumerates log-probabilities and ``ann`` takes inner products with
the additive index's item rows.  ``structure`` scores the target first, then
only the clusters whose log P(cluster | H) reaches it; every other item stays
-inf, which leaves the rank bitwise that of ``full``.  Recall@K and NDCG@10
truncate at K; MRR uses the unbounded full-catalog rank.  With a single
relevant item NDCG reduces to 1/log2(rank + 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .catalog import Dataset, SequenceExample
from .encoder import encode
from .exceptions import TrainingDivergedError
from .inference import ann_item_scores, build_additive_index, structure_item_scores
# Not called here; perfbench/spans.py looks these names up on this module.
from .inference import filter_items, topk_ann, topk_structure  # noqa: F401
from .render import render_id_only
from .snapshot import ModelSnapshot
from .softmax import score_all

ENGINES = ("full", "structure", "ann")


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
    recall = {int(k): float(np.mean(ranks <= k)) for k in ks}
    ndcg10 = float(np.mean(np.where(ranks <= 10, 1.0 / np.log2(ranks + 1.0), 0.0)))
    mrr = float(np.mean(1.0 / ranks))
    return MetricReport(n_users=int(ranks.size), recall=recall, ndcg10=ndcg10, mrr=mrr)


def rank_from_scores(item_scores: np.ndarray, target_item: int, exclude=None) -> int:
    """1-based rank of the target among item scores, ties by ascending index.

    A non-finite target score raises :class:`TrainingDivergedError`: no score
    compares greater than NaN, so a diverged model would otherwise rank first.
    """
    scores = item_scores
    if exclude:
        scores = scores.copy()
        for idx in exclude:
            if idx != target_item:
                scores[idx] = -np.inf
    s_t = scores[target_item]
    if not np.isfinite(s_t):
        raise TrainingDivergedError(f"target item {target_item} scored {s_t}; the model has diverged")
    higher = int(np.sum(scores > s_t))
    tied_before = int(np.sum((scores == s_t).nonzero()[0] < target_item))
    return higher + tied_before + 1


def _rank_one(snapshot: ModelSnapshot, data: Dataset, example: SequenceExample, engine: str, mode: str, index, exclude_history: bool) -> int:
    tables = snapshot.tables
    seq = render_id_only(example, data)
    query, _ = encode(seq, tables, snapshot.encoder)
    if engine == "full":
        cmap = snapshot.cluster_map if mode == "twolevel" else None
        scores = score_all(query, tables, cmap, mode=mode)[tables.n_text :]
    elif engine == "ann":
        scores = ann_item_scores(query, index, tables)
    else:
        scores = structure_item_scores(query, example.target, tables, snapshot.cluster_map)
    exclude = set(example.history) if exclude_history else None
    return rank_from_scores(scores, example.target, exclude)


def evaluate(
    snapshot: ModelSnapshot,
    data: Dataset,
    engine: str = "structure",
    examples: list[SequenceExample] | None = None,
    ks=(1, 10),
    exclude_history: bool = False,
) -> MetricReport:
    """Rank the full catalog per test user and average the metrics.

    Engine ``full`` enumerates every token's score under the snapshot's own
    softmax mode, so it doubles as the exactness oracle for the fast engines.
    ``structure`` and ``ann`` require a two-level snapshot.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    mode = snapshot.config.get("softmax_mode", "twolevel")
    if engine in ("structure", "ann") and mode != "twolevel":
        raise ValueError(
            f"engine {engine!r} needs a two-level snapshot; this one was trained with {mode!r}"
        )
    if examples is None:
        examples = data.test_examples
    index = build_additive_index(snapshot.tables, snapshot.cluster_map) if engine == "ann" else None
    ranks = [_rank_one(snapshot, data, e, engine, mode, index, exclude_history) for e in examples]
    return metrics_from_ranks(ranks, ks=ks)


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
