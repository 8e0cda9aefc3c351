"""Top-k token generation from a query vector.

Three engines:

* ``topk_exact``      — full enumeration of two-level log-probabilities; the
                        oracle the fast paths are tested against.
* ``topk_structure``  — exact cluster-pruned search.  Clusters are expanded in
                        descending P(cluster | H); since that probability upper
                        bounds every member's joint probability, the search
                        stops once the current K-th best candidate beats the
                        next unexpanded cluster.  Output is identical to
                        ``topk_exact`` including tie-breaks.
* ``topk_ann``        — maximum-inner-product search over an additive index
                        whose row for token w is centroid(cluster(w)) + e_w.
                        Dropping the per-cluster log-partition term makes this
                        approximate; scores are raw dot products, not
                        probabilities.

Item-only paths serve recommendations and evaluation.  ``topk_items`` runs the
best-first loop over item clusters only (P(cluster | H) still bounds every
member, so this is the exact item-restricted top-k) or ranks the ANN index's
item rows.  Evaluation scores blocks of users at once: ``structure_item_scores``
scores, for a ``(B, d)`` query block, only the item clusters that can reach
some row's target log-probability, which is enough to rank every target
exactly, and ``ann_item_scores`` takes a query block as one GEMM.

Ties are broken by ascending unified ordinal everywhere, so all engines are
reproducible and comparable row-for-row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterMap
from .exceptions import StaleIndexError
from .softmax import (
    _queries64,
    _query64,
    cluster_log_probs_batch,
    cluster_logits,
    log_softmax,
    member_log_conditionals,
    member_log_conditionals_batch,
    score_all,
)
from .tables import ModelTables
from .tokens import TokenSpace


@dataclass(frozen=True)
class TopK:
    """Ranked tokens: scores non-increasing, ties by ascending ordinal."""

    ordinals: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.ordinals.size

    def rows(self, space: TokenSpace, item_ids=None) -> list[dict]:
        out = []
        for rank, (ordinal, score) in enumerate(zip(self.ordinals, self.scores), start=1):
            token = space.token_at(int(ordinal))
            row = {
                "rank": rank,
                "kind": token.kind.value,
                "index": token.index,
                "score": float(score),
            }
            if item_ids is not None and token.kind.value == "item":
                row["item_id"] = item_ids[token.index]
            out.append(row)
        return out


@dataclass
class SearchStats:
    """Per-query accounting emitted alongside structure-search results."""

    clusters_expanded: int = 0
    tokens_scored: int = 0
    clusters_pruned: int = 0
    max_pruned_logprob: float | None = None

    def to_dict(self) -> dict:
        return {
            "clusters_expanded": self.clusters_expanded,
            "tokens_scored": self.tokens_scored,
            "clusters_pruned": self.clusters_pruned,
            "max_pruned_logprob": self.max_pruned_logprob,
        }


def _rank_topk(scores: np.ndarray, k: int) -> TopK:
    """Top-k of a dense score vector under the global tie-break."""
    n = scores.size
    k = min(k, n)
    order = np.lexsort((np.arange(n), -scores))[:k]
    return TopK(ordinals=order.astype(np.int64), scores=scores[order])


def topk_exact(query, k: int, tables: ModelTables, cluster_map: ClusterMap) -> TopK:
    """Exact top-k of the two-level distribution by full enumeration.

    Asking for more tokens than exist truncates rather than failing.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank_topk(score_all(query, tables, cluster_map, mode="twolevel"), k)


def _best_first(query, k: int, tables: ModelTables, cluster_map: ClusterMap, with_text: bool):
    """The best-first loop of ``topk_structure``; ``with_text=False`` skips
    the text singletons, which gives the exact item-restricted top-k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = _query64(query)
    n_text = tables.n_text
    cl = log_softmax(cluster_logits(q, tables))
    stats = SearchStats(tokens_scored=cluster_map.n_clusters)
    clusters = np.arange(0 if with_text else n_text, cl.size)
    expansion_order = clusters[np.lexsort((clusters, -cl[clusters]))]

    # Min-heap of the best-K seen so far, keyed so the root is the worst:
    # lowest log-probability first, then highest ordinal.
    heap: list[tuple[float, int, int]] = []

    def worst_beats(bound: float) -> bool:
        if len(heap) < k:
            return False
        return heap[0][0] > bound

    for i, cluster_id in enumerate(expansion_order):
        bound = float(cl[cluster_id])
        if worst_beats(bound):
            stats.clusters_pruned = expansion_order.size - i
            stats.max_pruned_logprob = bound
            break
        stats.clusters_expanded += 1
        if cluster_id < n_text:
            candidates = ((bound, int(cluster_id)),)
        else:
            members, log_cond = member_log_conditionals(
                q, tables, cluster_map, int(cluster_id) - n_text
            )
            stats.tokens_scored += members.size
            candidates = zip((cl[cluster_id] + log_cond).tolist(), (n_text + members).tolist())
        for score, ordinal in candidates:
            entry = (score, -ordinal, ordinal)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

    ranked = sorted(heap, key=lambda e: (-e[0], e[2]))
    return (
        TopK(
            ordinals=np.asarray([e[2] for e in ranked], dtype=np.int64),
            scores=np.asarray([e[0] for e in ranked], dtype=np.float64),
        ),
        stats,
    )


def topk_structure(query, k: int, tables: ModelTables, cluster_map: ClusterMap):
    """Exact top-k via best-first cluster expansion with bound-based pruning.

    Returns ``(TopK, SearchStats)``.  A cluster whose log P(cluster | H) is
    strictly below the current K-th best candidate cannot contain a better
    token, so the remaining tail is pruned.  The strict comparison keeps exact
    float ties expanding, preserving the ordinal tie-break of the oracle.
    """
    return _best_first(query, k, tables, cluster_map, with_text=True)


def structure_item_scores(queries, target_items, tables: ModelTables, cluster_map: ClusterMap) -> np.ndarray:
    """(B, n_items) item log-probabilities wherever they can reach the row's
    target's, -inf elsewhere.

    Each row's target cluster is scored first.  A cluster whose
    log P(cluster | H) is below a row's target log-probability bounds every
    member below it too, so that row keeps -inf there and its target's rank
    equals enumeration's.  A cluster is scored only if some row needs it, with
    the same GEMM over the whole block that ``item_log_probs_batch`` makes, so
    every score a row keeps is bitwise the enumerated one.
    """
    q = _queries64(queries)
    targets = np.asarray(target_items, dtype=np.int64)
    cl = cluster_log_probs_batch(q, tables)[:, tables.n_text :]
    target_clusters = cluster_map.item_assignment[targets]
    scored = {
        c: member_log_conditionals_batch(q, tables, cluster_map, c)
        for c in np.unique(target_clusters).tolist()
    }
    target_scores = np.empty(targets.size)
    for c, (members, log_cond) in scored.items():
        rows = np.flatnonzero(target_clusters == c)
        target_scores[rows] = cl[rows, c] + log_cond[rows, np.searchsorted(members, targets[rows])]
    # A row's own target cluster always qualifies: log P(item | cluster) <= 0.
    need = cl >= target_scores[:, None]
    scores = np.full((targets.size, tables.n_items), -np.inf)
    for c in np.flatnonzero(need.any(axis=0)).tolist():
        if c in scored:
            members, log_cond = scored[c]
        else:
            members, log_cond = member_log_conditionals_batch(q, tables, cluster_map, c)
        rows = np.flatnonzero(need[:, c])
        scores[np.ix_(rows, members)] = cl[rows, c, None] + log_cond[rows]
    return scores


@dataclass
class AdditiveIndex:
    """MIPS index over centroid-plus-token vectors, stamped with the table version."""

    vectors: np.ndarray  # (n_total, d)
    tables_version: int
    n_text: int
    cluster_map: ClusterMap = field(repr=False)

    @property
    def n_total(self) -> int:
        return self.vectors.shape[0]


def build_additive_index(tables: ModelTables, cluster_map: ClusterMap) -> AdditiveIndex:
    """Index row for token w is centroid(cluster(w)) + e_w.

    For a text token the centroid aliases its own embedding, so the row is
    exactly twice the embedding.  Rebuild after any parameter update; queries
    against a stale index raise.
    """
    n_text = tables.n_text
    vectors = np.empty((tables.n_total, tables.dim), dtype=np.float64)
    vectors[:n_text] = 2.0 * tables.text.data
    projected = tables.item_projected()
    vectors[n_text:] = projected + tables.centroids.data[cluster_map.item_assignment]
    return AdditiveIndex(
        vectors=vectors,
        tables_version=tables.version,
        n_text=n_text,
        cluster_map=cluster_map,
    )


def ann_item_scores(query, index: AdditiveIndex, tables: ModelTables) -> np.ndarray:
    """Inner products of a ``(d,)`` query, or of each row of a ``(B, d)``
    query block (one GEMM), with the index's item rows; a stale index raises."""
    if index.tables_version != tables.version:
        raise StaleIndexError(
            f"index built at tables version {index.tables_version}, "
            f"tables are now at {tables.version}; rebuild the index"
        )
    items = index.vectors[index.n_text :]
    if np.ndim(query) == 2:
        return _queries64(query) @ items.T
    return items @ _query64(query)


def topk_ann(
    query,
    k: int,
    index: AdditiveIndex,
    tables: ModelTables,
    probes: int | None = None,
) -> TopK:
    """Top-k by inner product over the additive index.

    Exact brute-force MIPS by default, so any deviation from ``topk_exact``
    is attributable to the dropped log-partition term alone.  ``probes``
    enables the approximate mode: only the ``probes`` item clusters with the
    highest centroid scores are scanned (text rows are always scanned).
    Scores are additive dot products, not log-probabilities.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    item_scores = ann_item_scores(query, index, tables)
    q = _query64(query)
    # Text rows are scored apart so that item scores are bitwise those of the
    # item-only paths: one product over all rows can round a row differently.
    scores = np.concatenate((index.vectors[: index.n_text] @ q, item_scores))
    if probes is None:
        return _rank_topk(scores, k)

    cmap = index.cluster_map
    probes = min(probes, cmap.n_item_clusters)
    centroid_scores = tables.centroids.data @ q
    probe_clusters = np.lexsort((np.arange(centroid_scores.size), -centroid_scores))[:probes]
    allowed = np.zeros(index.n_total, dtype=bool)
    allowed[: index.n_text] = True
    for j in probe_clusters:
        allowed[index.n_text + cmap.item_members(int(j))] = True
    masked = np.where(allowed, scores, -np.inf)
    picked = _rank_topk(masked, min(k, int(allowed.sum())))
    return picked


def filter_items(topk: TopK, space: TokenSpace) -> TopK:
    """Stable restriction of a ranking to item tokens."""
    keep = topk.ordinals >= space.n_text
    return TopK(ordinals=topk.ordinals[keep], scores=topk.scores[keep])


def topk_items(
    query,
    k: int,
    tables: ModelTables,
    cluster_map: ClusterMap,
    space: TokenSpace,
    engine: str = "structure",
    index: AdditiveIndex | None = None,
) -> TopK:
    """Item-only top-k; ordinals are unified, ties by ascending ordinal.

    ``structure`` runs the best-first search over item clusters only and
    equals ``filter_items(topk_exact(query, n_total, ...))`` truncated to k.
    ``ann`` ranks the item rows of the prebuilt additive ``index``.
    """
    if engine == "structure":
        ranked, _ = _best_first(query, k, tables, cluster_map, with_text=False)
        return ranked
    if engine != "ann":
        raise ValueError(f"unknown engine {engine!r}; choose 'structure' or 'ann'")
    if index is None:
        raise ValueError("ann engine requires a prebuilt additive index")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = _rank_topk(ann_item_scores(query, index, tables), k)
    return TopK(ordinals=space.n_text + ranked.ordinals, scores=ranked.scores)
